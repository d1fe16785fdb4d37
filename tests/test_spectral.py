"""Eigenvalue computation, spectral tables, moments and Weyl functions."""

import numpy as np
import pytest

from multihess import (GeneratorSequence, InvalidInputError, PoleError,
                       assemble_truncation, decompose, eigenvalue_pair,
                       eigenvalues, moments_matvec,
                       weyl_partial_fractions, weyl_rational,
                       weyl_resolvent)
import multihess.spectral as spectral
from multihess.polynomials import eval_type_ii
from multihess.spectral import (_BISECT_PASSES, _MP_DPS, _band,
                                _bootstrap_roots, _char, _mp_polish,
                                _mp_roots, _multisect)


def test_golden_tridiagonal_spectrum():
    # p=1, all parameters 1, N=1: T = [[1,1],[1,2]],
    # char poly x^2 - 3x + 1, roots (3 +- sqrt 5)/2.
    g = GeneratorSequence.constant(1, 1.0)
    lams = eigenvalues(g, 1)
    assert lams[0] == pytest.approx((3 + np.sqrt(5)) / 2, rel=1e-15)
    assert lams[1] == pytest.approx((3 - np.sqrt(5)) / 2, rel=1e-15)


def test_eigenvalues_match_dense_solver():
    for p, seed in ((1, 21), (2, 22), (3, 23)):
        g = GeneratorSequence.uniform(p, 0.5, 2.0, seed=seed)
        N = 12
        lams = eigenvalues(g, N)
        dense = np.sort(np.linalg.eigvals(
            assemble_truncation(g, N).dense).real)[::-1]
        assert np.allclose(lams, dense, rtol=1e-9)
        assert lams.min() > 0
        assert np.all(np.diff(lams) < 0)  # strictly descending


def test_eigenvalue_pair_interlacing():
    g = GeneratorSequence.uniform(2, 0.5, 2.0, seed=24)
    for N in (5, 10, 20):
        prev, cur = eigenvalue_pair(g, N)
        assert prev.size == N and cur.size == N + 1
        # ascending-order interlacing: each previous root sits strictly
        # between consecutive roots of the next level.
        pa, ca = prev[::-1], cur[::-1]
        assert np.all(ca[:-1] < pa) and np.all(pa < ca[1:])


def test_biorthogonality_double():
    g = GeneratorSequence.uniform(2, 0.5, 2.0, seed=25)
    dec = decompose(g, 12)
    assert max(dec.biorthogonality_residuals()) < 1e-10
    # tables invert each other and reproduce the truncation
    T = assemble_truncation(g, 12).dense
    rec = dec.matrix_power(1)
    assert np.allclose(rec, T, rtol=0, atol=1e-9 * np.abs(T).max())


def test_biorthogonality_extended():
    g = GeneratorSequence.uniform(3, 0.5, 2.0, seed=26)
    dec = decompose(g, 25, use_mp=True)
    assert max(dec.biorthogonality_residuals()) < 1e-20


def test_weights_positive_and_measures_split():
    g = GeneratorSequence.uniform(2, 0.5, 2.0, seed=27)
    dec = decompose(g, 15)
    assert dec.mu.shape == (16, 2)
    assert dec.mu.min() > 0
    # total masses equal first row of the inverse-transpose seed matrix
    totals = dec.mu.sum(axis=0)
    assert np.allclose(totals, dec.init.nu_inv_T[0], rtol=1e-10)


def test_moments_dual_route():
    g = GeneratorSequence.uniform(2, 0.5, 2.0, seed=28)
    N = 10
    dec = decompose(g, N)
    ref = moments_matvec(g, N, 8)
    for a in (1, 2):
        for n in range(9):
            assert dec.moment(a, n) == pytest.approx(ref[n, a - 1],
                                                     rel=1e-10)


def test_weyl_three_routes_agree():
    g = GeneratorSequence.uniform(2, 0.5, 2.0, seed=29)
    N = 10
    dec = decompose(g, N)
    for z in (-1.0, 0.05, 7.5):
        w1 = weyl_rational(g, N, z)
        w2 = weyl_partial_fractions(dec, z)
        w3 = weyl_resolvent(g, N, z)
        assert np.allclose(w1, w2, rtol=1e-9)
        assert np.allclose(w1, w3, rtol=1e-9)


def test_weyl_pole_detection():
    g = GeneratorSequence.uniform(2, 0.5, 2.0, seed=29)
    dec = decompose(g, 10)
    with pytest.raises(PoleError):
        weyl_partial_fractions(dec, float(dec.lams[3]))
    # p=1, all parameters 1, N=0: the single node is exactly 1.0
    g1 = GeneratorSequence.constant(1, 1.0)
    with pytest.raises(PoleError):
        weyl_rational(g1, 0, 1.0)


def test_negative_order_rejected():
    g = GeneratorSequence.constant(1, 1.0)
    with pytest.raises(InvalidInputError):
        eigenvalues(g, -1)
    with pytest.raises(InvalidInputError):
        eigenvalue_pair(g, 0)


def test_extended_mode_resolves_clusters():
    g = GeneratorSequence.constant(3, 1.0)
    lams = eigenvalues(g, 45, use_mp=True)
    vals = np.array([float(v) for v in lams])
    assert vals.min() > 0
    mp_gaps = [float(a - b) for a, b in zip(list(lams), list(lams)[1:])]
    assert min(mp_gaps) > 0


def test_spectral_mapping_matrix_power():
    g = GeneratorSequence.uniform(3, 0.5, 2.0, seed=30)
    N = 9
    dec = decompose(g, N)
    T = assemble_truncation(g, N).dense
    P3 = np.linalg.matrix_power(T, 3)
    assert np.allclose(dec.matrix_power(3), P3,
                       rtol=0, atol=1e-9 * np.abs(P3).max())


@pytest.mark.parametrize("p", [1, 2, 3])
def test_band_kernel_matches_eval_type_ii_bitwise(p):
    # The kernel reads the band of the order-N truncation once and must
    # reproduce the lower-order evaluator bit for bit at every level.
    g = GeneratorSequence.uniform(p, 0.5, 2.0, seed=40 + p)
    N = 25
    band, ub = _band(g, N)
    x = np.concatenate((np.linspace(0.0, ub, 41), eigenvalues(g, N)))
    for m in (1, 2, p + 1, 13, N + 1):
        B, dB = eval_type_ii(g, m - 1, x, derivative=True)
        assert _char(band, m, x).tobytes() == B[m].tobytes()
        got = _char(band, m, x, slope=True)
        assert got.shape == (2, x.size)
        assert got.tobytes() == np.stack((B[m], dB[m])).tobytes()


@pytest.mark.parametrize("p", [1, 2, 3])
def test_multisection_equals_sequential_halving(p):
    g = GeneratorSequence.uniform(p, 0.5, 2.0, seed=50 + p)
    N = 20
    m = N + 1
    band, ub = _band(g, N)
    prev = _bootstrap_roots(g, N - 1)
    rng = np.random.default_rng(p)
    # the interlacing brackets of the last level, a collapsed bracket and
    # random brackets with random sign labels, which need not hold a root
    ends = rng.uniform(0.0, ub, size=(2, 12))
    lo = np.concatenate(([0.0], prev, [prev[3]], ends.min(axis=0)))
    hi = np.concatenate((prev, [ub], [prev[3]], ends.max(axis=0)))
    slo = np.sign(eval_type_ii(g, N, lo)[m])
    slo[-12:] = rng.choice([-1.0, 1.0], size=12)
    want_lo, want_hi = lo.copy(), hi.copy()
    for _ in range(_BISECT_PASSES):
        mid = 0.5 * (want_lo + want_hi)
        right = np.sign(eval_type_ii(g, N, mid)[m]) == slo
        want_lo = np.where(right, mid, want_lo)
        want_hi = np.where(right, want_hi, mid)
    got_lo, got_hi = _multisect(band, m, lo, hi, slo)
    assert got_lo.tobytes() == want_lo.tobytes()
    assert got_hi.tobytes() == want_hi.tobytes()


@pytest.mark.parametrize("p,N", [(1, 20), (2, 30), (3, 35)])
def test_eigenvalues_match_high_precision_roots(p, N):
    # Measured against the spectral radius: the smallest eigenvalues of
    # p >= 2 carry relative errors up to about 1e-10 on this route.
    g = GeneratorSequence.uniform(p, 0.5, 2.0, seed=60 + p)
    ref = np.array([float(v) for v in _mp_roots(g, N)])[::-1]
    lams = eigenvalues(g, N)
    assert np.abs(lams - ref).max() <= 1e-12 * ref[0]


def test_mp_polish_matches_six_newton_steps(monkeypatch):
    # The converged stop leaves the roots within the noise floor of the
    # six steps it skips, and on this instance stops after three.
    import mpmath
    g = GeneratorSequence.uniform(3, 0.5, 2.0, seed=26)
    N = 25
    start = _bootstrap_roots(g, N)
    with mpmath.workdps(_MP_DPS):
        want = np.array([mpmath.mpf(v) for v in start], dtype=object)
        for _ in range(6):
            B, dB = eval_type_ii(g, N, want, derivative=True, use_mp=True)
            want = want - B[N + 1] / dB[N + 1]
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return eval_type_ii(*args, **kwargs)

    monkeypatch.setattr(spectral, "eval_type_ii", counted)
    got = _mp_polish(g, N, start)
    assert len(calls) <= 3
    with mpmath.workdps(_MP_DPS):
        worst = max(abs(a - b) / abs(b) for a, b in zip(got, want))
    assert worst <= mpmath.mpf(10) ** -(_MP_DPS - 5)


def test_extended_decompose_polishes_once(monkeypatch):
    # eigenvalues() polishes at _MP_DPS; at unchanged digits decompose
    # builds its tables on those roots without a second polish.
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return eval_type_ii(*args, **kwargs)

    monkeypatch.setattr(spectral, "eval_type_ii", counted)
    dec = decompose(GeneratorSequence.uniform(3, 0.5, 2.0, seed=26), 25,
                    use_mp=True)
    assert dec.dps == _MP_DPS
    assert len(calls) <= 4          # three Newton steps and the tables


@pytest.mark.parametrize("p,N,seed", [(2, 20, 5), (3, 25, 26)])
def test_extended_residuals_match_object_matmul(p, N, seed):
    # The object matmul rounds every partial sum, so it is only a
    # reference up to n * max(|A||B|) * 10^-dps; fdot rounds once.
    import mpmath
    dec = decompose(GeneratorSequence.uniform(p, 0.5, 2.0, seed=seed), N,
                    use_mp=True)
    got = dec.biorthogonality_residuals()
    eye = np.eye(N + 1)
    with dec.workprec():
        for r, (A, B) in zip(got, ((dec.W, dec.U), (dec.U, dec.W))):
            ref = abs(A @ B - eye).max()
            slack = 2 * (N + 1) * (np.abs(A) @ np.abs(B)).max()
            assert abs(r - ref) <= slack * mpmath.mpf(10) ** -dec.dps


def test_extended_digits_cover_entries_beyond_double_range():
    # All eigenvalues near 1e-19: W reaches 1e400 and U falls to 1e-400,
    # so UW cancels terms far beyond double range.  The digit rule has to
    # see them although their float copies are inf and 0.
    g = GeneratorSequence.uniform(1, 1e-20, 2e-20, seed=3)
    dec = decompose(g, 20, use_mp=True)
    assert not np.isfinite(dec.W.astype(float)).all()
    assert dec.dps > 400
    assert max(dec.biorthogonality_residuals()) < 1e-20
