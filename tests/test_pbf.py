"""Truncation assembly, factor permutations, total nonnegativity and
initial-condition data."""

import numpy as np
import pytest

from multihess import (GeneratorSequence, InvalidInputError,
                       NumericRangeError, PreconditionError,
                       assemble_truncation, darboux, entry,
                       initial_conditions, oscillatory_check, script_L)
from multihess.pbf import _bidiagonal_factors, band_diagonals


def test_truncation_constant_p2_hand_computed():
    # L1 L2 U with all parameters 1:
    # U = [[1,1,0],[0,1,1],[0,0,1]], L2 = L1 = unit lower bidiagonal of 1s
    # product worked out by hand row by row.
    g = GeneratorSequence.constant(2, 1.0)
    T = assemble_truncation(g, 2)
    expected = np.array([[1.0, 1.0, 0.0],
                         [2.0, 3.0, 1.0],
                         [1.0, 3.0, 3.0]])
    assert np.array_equal(T.dense, expected)
    assert T.p == 2 and T.N == 2 and T.pbf


def test_truncation_p1_hand_computed():
    # p = 1, alphas 1..: T = L1 U.  With alphas (a1,a2,a3,...) =
    # (2,3,5,7,...): U diag (2,5,...), L subdiag (3,7,...)
    g = GeneratorSequence.from_list(1, [2.0, 3.0, 5.0, 7.0, 11.0])
    T = assemble_truncation(g, 1)
    # [[1,0],[3,1]] @ [[2,1],[0,5]]
    expected = np.array([[2.0, 1.0], [6.0, 8.0]])
    assert np.allclose(T.dense, expected, rtol=0, atol=0)


def test_truncation_matches_explicit_factor_product():
    g = GeneratorSequence.uniform(3, 0.5, 2.0, seed=5)
    N = 7
    lowers, u_diag = _bidiagonal_factors(g, N)
    M = np.diag(u_diag) + np.diag(np.ones(N), 1)
    for sub in reversed(lowers):
        L = np.eye(N + 1) + np.diag(sub, -1)
        M = L @ M
    assert np.allclose(assemble_truncation(g, N).dense, M, rtol=1e-15)


def test_entry_consistent_with_truncations():
    g = GeneratorSequence.uniform(2, 0.5, 2.0, seed=1)
    T = assemble_truncation(g, 6).dense
    for i in range(7):
        for j in range(7):
            assert entry(g, i, j) == pytest.approx(T[i, j], abs=0.0)
    assert entry(g, 0, 5) == 0.0
    assert entry(g, 3, 4) == 1.0


def _dense_factor_product(g, N):
    """L_1 ... L_p U by the dense float products written out here."""
    lowers, u_diag = _bidiagonal_factors(g, N)
    M = np.diag(u_diag) + np.diag(np.ones(N), 1)
    for sub in reversed(lowers):
        out = M.copy()
        out[1:, :] += sub[:, None] * M[:-1, :]
        M = out
    return M


@pytest.mark.parametrize("p", [1, 2, 3])
def test_band_diagonals_match_dense_factor_product(p):
    for N in sorted({0, p - 1, p, 1, 7, 20}):
        for seed in (1, 2, 3):
            g = GeneratorSequence.uniform(p, 0.1, 10.0, seed=seed)
            M = _dense_factor_product(g, N)
            band = band_diagonals(g, N)
            assert len(band) == p + 1
            for j, d in enumerate(band):
                assert d.size == max(0, N + 1 - j)
                # bit for bit, not merely equal as floats
                assert (d.view(np.int64).tolist()
                        == np.diagonal(M, -j).view(np.int64).tolist())
            assert np.array_equal(assemble_truncation(g, N).dense, M)


def test_band_diagonals_overflow_raises():
    g = GeneratorSequence.uniform(2, 1e200, 2e200, seed=1)
    with pytest.raises(NumericRangeError), np.errstate(all="ignore"):
        band_diagonals(g, 4)
    with pytest.raises(InvalidInputError):
        band_diagonals(g, -1)


def test_assemble_truncation_keeps_cache_interface():
    # the benchmark tracer reads and clears this cache around each pass
    assemble_truncation.cache_clear()
    g = GeneratorSequence.uniform(2, 0.5, 2.0, seed=8)
    assert assemble_truncation(g, 5) is assemble_truncation(g, 5)
    info = assemble_truncation.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    assemble_truncation.cache_clear()
    assert assemble_truncation.cache_info().currsize == 0


def test_darboux_p1_hand_computed():
    # p=1, alphas all 1: U L1 = [[1,1],[0,1]] @ [[1,0],[1,1]] = [[2,1],[1,1]]
    g = GeneratorSequence.constant(1, 1.0)
    D = darboux(g, 1, 1)
    assert np.array_equal(D.dense, np.array([[2.0, 1.0], [1.0, 1.0]]))


def test_darboux_isospectral():
    g = GeneratorSequence.uniform(2, 0.5, 2.0, seed=3)
    T = assemble_truncation(g, 5).dense
    for k in (1, 2):
        D = darboux(g, 5, k).dense
        ev1 = np.sort(np.linalg.eigvals(T).real)
        ev2 = np.sort(np.linalg.eigvals(D).real)
        assert np.allclose(ev1, ev2, rtol=1e-10)
    with pytest.raises(PreconditionError):
        darboux(g, 5, 3)


def test_oscillatory_check_exhaustive_positive():
    g = GeneratorSequence.uniform(2, 0.5, 2.0, seed=4)
    T = assemble_truncation(g, 4)
    assert oscillatory_check(T) is True


def test_oscillatory_check_rejects_negative_minor():
    # a matrix with positive sub/superdiagonals but a negative 2x2 minor
    M = np.array([[1.0, 5.0, 0.0],
                  [1.0, 1.0, 1.0],
                  [0.0, 1.0, 1.0]])
    assert oscillatory_check(M) is False


def test_oscillatory_check_rejects_singular():
    M = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert oscillatory_check(M) is False


def test_oscillatory_check_indeterminate_without_certificate():
    g = GeneratorSequence.uniform(2, 0.5, 2.0, seed=4)
    A = assemble_truncation(g, 9).dense.copy()  # plain array, no provenance
    assert oscillatory_check(A) is None
    assert oscillatory_check(assemble_truncation(g, 9)) is True


def test_script_L_constant_p2():
    # second column is L1 e1 / alpha_2 = (alpha_2, alpha_3)/alpha_2 at
    # order p-1; with all alphas 1 this is (1,1) -> [[1,1],[0,1]].
    g = GeneratorSequence.constant(2, 1.0)
    assert np.array_equal(script_L(g), np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_script_L_p1_is_identity():
    assert np.array_equal(script_L(GeneratorSequence.constant(1, 2.0)),
                          np.eye(1))


def test_script_L_unitriangular_nonnegative():
    for p in (2, 3, 4):
        g = GeneratorSequence.uniform(p, 0.25, 4.0, seed=10 + p)
        L = script_L(g)
        assert np.allclose(np.diagonal(L), 1.0, rtol=0, atol=1e-14)
        assert L.min() >= 0.0
        assert np.all(np.tril(L, -1) == 0.0)


def test_initial_conditions_default_C():
    g = GeneratorSequence.constant(2, 1.0)
    ic = initial_conditions(g)
    assert np.array_equal(ic.nu_inv_T, np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert np.allclose(ic.nu, np.array([[1.0, 0.0], [-1.0, 1.0]]),
                       rtol=0, atol=1e-15)
    assert np.allclose(ic.nu @ ic.nu_inv_T.T, np.eye(2), atol=1e-15)
    assert np.array_equal(ic.top_row, [1.0, 1.0])


def test_initial_conditions_custom_C_validation():
    g = GeneratorSequence.constant(2, 1.0)
    C = np.array([[1.0, 0.7], [0.0, 1.0]])
    ic = initial_conditions(g, C)
    assert np.allclose(ic.nu_inv_T, script_L(g) @ C, rtol=1e-15)
    with pytest.raises(InvalidInputError):
        initial_conditions(g, np.array([[1.0, -0.1], [0.0, 1.0]]))
    with pytest.raises(InvalidInputError):
        initial_conditions(g, np.array([[2.0, 0.0], [0.0, 1.0]]))


def test_embedded_vector():
    g = GeneratorSequence.constant(2, 1.0)
    ic = initial_conditions(g)
    e2 = ic.embedded_vector(2, 5)
    assert np.array_equal(e2, [1.0, 1.0, 0.0, 0.0, 0.0])
    with pytest.raises(InvalidInputError):
        ic.embedded_vector(3, 5)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_exact_band_is_the_rational_factor_product(p):
    # the dense product of the factors in exact rationals, placed against
    # band[j][i] 2^(e (j+1)); alphas far apart in scale stress the common
    # exponent
    from fractions import Fraction
    for low, high in ((0.5, 2.0), (1e-20, 3e-20), (1e40, 2e40)):
        g = GeneratorSequence.uniform(p, low, high, seed=4)
        N = 7
        lowers, u_diag = _bidiagonal_factors(g, N)
        M = [[Fraction(u_diag[i]) if i == j else Fraction(int(j == i + 1))
              for j in range(N + 1)] for i in range(N + 1)]
        for sub in reversed(lowers):
            M = [M[0]] + [[M[i][j] + Fraction(sub[i - 1]) * M[i - 1][j]
                           for j in range(N + 1)] for i in range(1, N + 1)]
        band, e = band_diagonals(g, N, exact=True)
        for j, d in enumerate(band):
            assert len(d) == N + 1 - j
            assert all(type(v) is int for v in d)
            assert [Fraction(v) * Fraction(2) ** (e * (j + 1)) for v in d] \
                == [M[i + j][i] for i in range(N + 1 - j)]
