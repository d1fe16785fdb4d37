"""Recurrence-generated polynomial families checked against independent
determinant oracles."""

import numpy as np
import pytest

from multihess import (GeneratorSequence, assemble_truncation,
                       cd_first, cd_second, determinantal_identity,
                       eval_second_kind, eval_truncated, eval_type_i,
                       eval_type_ii, h_values, initial_conditions,
                       q_oracle)


def _char_poly_oracle(gen, N, x):
    """det(x I - T^[N]) computed directly by numpy."""
    T = assemble_truncation(gen, N).dense
    return np.array([np.linalg.det(t * np.eye(N + 1) - T) for t in x])


def test_type_ii_leading_entries_monic_degrees():
    g = GeneratorSequence.uniform(2, 0.5, 2.0, seed=7)
    x = np.array([0.0, 1.0])
    B0 = eval_type_ii(g, 0, x)
    assert np.array_equal(B0[0], [1.0, 1.0])
    # B_1(x) = x - T[0,0]
    t00 = assemble_truncation(g, 1).dense[0, 0]
    assert np.allclose(B0[1], x - t00, rtol=1e-15)


def test_top_polynomial_is_characteristic_polynomial():
    for p, seed in ((1, 1), (2, 2), (3, 3)):
        g = GeneratorSequence.uniform(p, 0.5, 2.0, seed=seed)
        N = 6
        x = np.linspace(0.2, 5.0, 9)
        B = eval_type_ii(g, N, x)
        oracle = _char_poly_oracle(g, N, x)
        assert np.allclose(B[N + 1], oracle, rtol=1e-10)


def test_derivative_by_finite_difference():
    g = GeneratorSequence.uniform(2, 0.5, 2.0, seed=8)
    x = np.array([1.3, 2.7])
    h = 1e-6
    _, dB = eval_type_ii(g, 5, x, derivative=True)
    num = (eval_type_ii(g, 5, x + h) - eval_type_ii(g, 5, x - h)) / (2 * h)
    assert np.allclose(dB, num, rtol=1e-6, atol=1e-6)


def test_truncated_family_trailing_minor_oracle():
    # R[k](x) = det of the trailing block of x I - T^[N] from row/col k..N.
    g = GeneratorSequence.uniform(2, 0.5, 2.0, seed=9)
    N = 5
    x = np.array([0.7, 1.9, 3.1])
    R = eval_truncated(g, N, x)
    T = assemble_truncation(g, N).dense
    for k in range(N + 2):
        if k == N + 1:
            oracle = np.ones_like(x)
        else:
            oracle = np.array([
                np.linalg.det(t * np.eye(N + 1 - k) - T[k:, k:]) for t in x])
        assert np.allclose(R[k], oracle, rtol=1e-10, atol=1e-12)
    # R[0] is the full characteristic polynomial
    assert np.allclose(R[0], _char_poly_oracle(g, N, x), rtol=1e-10)


def test_type_i_seeds_and_degree_pattern():
    g = GeneratorSequence.uniform(3, 0.5, 2.0, seed=11)
    ic = initial_conditions(g)
    x = np.array([0.5, 1.5])
    A = eval_type_i(g, 8, x, ic)
    # A^(a)_1 is the constant nu[0, a-1]
    for a in range(g.p):
        assert np.allclose(A[a, 0], ic.nu[0, a], rtol=1e-14)
    # degree pattern: row n of family a grows like x^floor((n-a)/p);
    # measure the degree from the growth between two large points.
    big = np.array([1e6, 2e6])
    Abig = eval_type_i(g, 8, big, ic)
    for a in range(g.p):
        for n in range(a, 8):
            deg = (n - a) // g.p
            ratio = abs(Abig[a, n, 1] / Abig[a, n, 0])
            assert round(np.log2(ratio)) == deg


def test_h_values_sign_and_recursion():
    g = GeneratorSequence.uniform(2, 0.5, 2.0, seed=12)
    h = h_values(g, 6)
    assert h[0] == 1.0
    T = assemble_truncation(g, 8).dense
    for n in range(5):
        assert h[n + 1] == pytest.approx((-1.0) ** (g.p - 1) * h[n]
                                         * T[n + g.p, n], rel=1e-14)


def test_second_kind_adjugate_oracle():
    # Q-like column combinations satisfy e_1^T adj(x I - T) e^nu_a
    # proportionality: second-kind value times char poly equals the
    # (0, :) adjugate row contracted with the embedded initial vector.
    g = GeneratorSequence.uniform(2, 0.5, 2.0, seed=13)
    ic = initial_conditions(g)
    N = 5
    x = np.array([0.9, 2.2])
    T = assemble_truncation(g, N).dense
    R = eval_truncated(g, N, x)
    S = eval_second_kind(g, N, x, ic)
    for a in range(g.p):
        e = ic.embedded_vector(a + 1, N + 1)
        for i, t in enumerate(x):
            M = t * np.eye(N + 1) - T
            adj = np.linalg.inv(M) * np.linalg.det(M)
            oracle = adj[0] @ e
            assert S[a, i] == pytest.approx(oracle, rel=1e-9)


def test_q_oracle_matches_direct_determinant():
    g = GeneratorSequence.uniform(2, 0.5, 2.0, seed=14)
    ic = initial_conditions(g)
    N = 4
    x = np.array([1.1, 2.3])
    for n in range(N + 2):
        for t in x:
            q = q_oracle(g, N, n, float(t), ic)
            assert np.isfinite(q)


def test_cd_first_identity_small():
    g = GeneratorSequence.uniform(2, 0.5, 2.0, seed=15)
    N = 8
    rng = np.random.default_rng(0)
    for xv, yv in zip(rng.uniform(0.2, 4.0, 20), rng.uniform(0.2, 4.0, 20)):
        lhs, rhs = cd_first(g, N, xv, yv)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)
        # confluent case x == y
        lhs, rhs = cd_first(g, N, xv, xv)
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1.0)


def test_cd_second_identity_small():
    g = GeneratorSequence.uniform(2, 0.5, 2.0, seed=16)
    ic = initial_conditions(g)
    N = 6
    rng = np.random.default_rng(1)
    for xv, yv in zip(rng.uniform(0.2, 4.0, 10), rng.uniform(0.2, 4.0, 10)):
        lhs, rhs = cd_second(g, N, xv, yv, ic)
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), 1.0)
        lhs, rhs = cd_second(g, N, xv, xv, ic)
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), 1.0)


def test_determinantal_identity():
    g = GeneratorSequence.uniform(3, 0.5, 2.0, seed=17)
    ic = initial_conditions(g)
    for n in (2, 4, 6):
        for t in (0.8, 1.7, 3.3):
            lhs, rhs = determinantal_identity(g, n, t, ic)
            assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-12)


def _mpf_loop_oracle(g, N, x, dps):
    """B, B', R, R' at the mpf point x by plain mpf loops at dps digits, and
    the same recurrences on |x| and the absolute band, which bound how
    far rounding each level can move it."""
    import mpmath
    from multihess.pbf import band_diagonals
    band, e = band_diagonals(g, N, exact=True)
    p = g.p
    with mpmath.workdps(dps):
        d = [[mpmath.ldexp(v, e * (j + 1)) for v in dj]
             for j, dj in enumerate(band)]
        out = {}
        for key, t, sign in (("", mpmath.mpf(x), -1),
                             ("abs", abs(mpmath.mpf(x)), 1)):
            B, dB = [mpmath.mpf(1)], [mpmath.mpf(0)]
            for n in range(N + 1):
                a = t + sign * d[0][n]
                js = range(1, min(p, n) + 1)
                B.append(a * B[n] + sign * mpmath.fsum(
                    d[j][n - j] * B[n - j] for j in js))
                dB.append(B[n] + a * dB[n] + sign * mpmath.fsum(
                    d[j][n - j] * dB[n - j] for j in js))
            R = [mpmath.mpf(0)] * (N + 1) + [mpmath.mpf(1)]
            dR = [mpmath.mpf(0)] * (N + 2)
            for k in range(N, -1, -1):
                a = t + sign * d[0][k]
                js = range(1, min(p, N - k) + 1)
                R[k] = a * R[k + 1] + sign * mpmath.fsum(
                    d[j][k] * R[k + j + 1] for j in js)
                dR[k] = R[k + 1] + a * dR[k + 1] + sign * mpmath.fsum(
                    d[j][k] * dR[k + j + 1] for j in js)
            for name, levels in (("B", B), ("dB", dB), ("R", R), ("dR", dR)):
                out[key + name] = levels
    return out


@pytest.mark.parametrize("dps", [50, 120])
@pytest.mark.parametrize("p,N", [(1, 0), (1, 25), (1, 35), (2, 0), (2, 1),
                                 (2, 25), (2, 35), (3, 0), (3, 2), (3, 25),
                                 (3, 35)])
def test_mp_levels_match_plain_mpf_loop(p, N, dps):
    # the integer kernel against mpf loops at dps + 40: each level within
    # 4 roundings of its absolute bound, and at the roots the Newton step
    # B_{N+1} / B'_{N+1} within 1e-44 of the root at 50 digits
    import mpmath
    from multihess import eigenvalues
    from multihess.spectral import _mp_polish
    g = GeneratorSequence.uniform(p, 0.5, 2.0, seed=5 + N)
    with mpmath.workdps(dps):
        roots = _mp_polish(g, N, eigenvalues(g, N), dps)
        x = np.concatenate((roots, [mpmath.mpf(0), mpmath.mpf(-1.5),
                                    mpmath.mpf(3) / 7, mpmath.mpf(40)]))
        B, dB = eval_type_ii(g, N, x, derivative=True, use_mp=True)
        R, dR = eval_truncated(g, N, x, derivative=True, use_mp=True)
        tol = 4 * mpmath.mpf(2) ** -mpmath.mp.prec
        Bs, dBs = eval_type_ii(g, N, x[0], derivative=True, use_mp=True)
    assert B.shape == dB.shape == R.shape == (N + 2, x.size)
    assert Bs.shape == dBs.shape == (N + 2,)
    assert all(type(v) is mpmath.mpf for v in B.flat)
    assert list(Bs) == list(B[:, 0]) and list(dBs) == list(dB[:, 0])
    for i, t in enumerate(x):
        ref = _mpf_loop_oracle(g, N, t, dps + 40)
        for got, key in ((B, "B"), (dB, "dB"), (R, "R"), (dR, "dR")):
            bound = ref["abs" + key]
            for n in range(N + 2):
                assert abs(got[n, i] - ref[key][n]) <= tol * bound[n]
        assert abs(R[0, i] - B[N + 1, i]) <= 2 * tol * ref["absB"][N + 1]
        if i < roots.size and dps == 50:
            step = abs(B[N + 1, i] - ref["B"][N + 1]) / abs(ref["dB"][N + 1])
            assert step <= 1e-44 * t


def test_mp_levels_give_nan_at_special_points():
    import mpmath
    g = GeneratorSequence.uniform(2, 0.5, 2.0, seed=3)
    x = np.array([mpmath.nan, mpmath.inf, -mpmath.inf, mpmath.mpf(1)],
                 dtype=object)
    with mpmath.workdps(50):
        B, dB = eval_type_ii(g, 6, x, derivative=True, use_mp=True)
        R = eval_truncated(g, 6, x, use_mp=True)
    for col in range(3):
        assert B[0, col] == 1 and dB[0, col] == 0 and R[7, col] == 1
        assert all(mpmath.isnan(v) for v in B[1:, col])
        assert all(mpmath.isnan(v) for v in dB[1:, col])
        assert all(mpmath.isnan(v) for v in R[:7, col])
    assert all(mpmath.isfinite(v) for v in B[:, 3])


def _bits(A):
    return [v._mpf_ for v in np.asarray(A).flat]


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("N", [0, 25, 35])
def test_mp_level_rows_match_full_tables(p, N):
    # the rows the private path converts are those of the full tables,
    # bit for bit, at the roots, 0, negative points, nan and +-inf
    import mpmath
    from multihess import eigenvalues
    from multihess.polynomials import _levels
    from multihess.spectral import _mp_polish
    g = GeneratorSequence.uniform(p, 0.5, 2.0, seed=11 + N)
    with mpmath.workdps(50):
        x = np.concatenate((_mp_polish(g, N, eigenvalues(g, N)), [
            mpmath.mpf(0), mpmath.mpf(-2.5), mpmath.mpf(-1e3), mpmath.nan,
            mpmath.inf, -mpmath.inf]))
        B, dB = eval_type_ii(g, N, x, derivative=True, use_mp=True)
        R, dR = eval_truncated(g, N, x, derivative=True, use_mp=True)
        for forward, V, dV in ((True, B, dB), (False, R[::-1], dR[::-1])):
            for rows in (slice(None), slice(-1, None), slice(-1),
                         slice(-2, None, -1), slice(0, 1)):
                got, dgot = _levels(g, N, x, True, forward, rows)
                assert dgot is None and got.shape == V[rows].shape
                assert _bits(got) == _bits(V[rows])
                for drows in (slice(-1, None), slice(None), slice(0, 2)):
                    got, dgot = _levels(g, N, x, True, forward, rows, drows)
                    assert _bits(got) == _bits(V[rows])
                    assert dgot.shape == dV[drows].shape
                    assert _bits(dgot) == _bits(dV[drows])
            got, dgot = _levels(g, N, x[0], True, forward, slice(-1, None),
                                slice(-1, None))
            assert got.shape == dgot.shape == (1,)
            assert _bits(got) == _bits(V[-1:, 0])
            assert _bits(dgot) == _bits(dV[-1:, 0])
