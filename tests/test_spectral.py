"""Eigenvalue computation, spectral tables, moments and Weyl functions."""

import numpy as np
import pytest

from multihess import (GeneratorSequence, InvalidInputError, PoleError,
                       assemble_truncation, decompose, eigenvalue_pair,
                       eigenvalues, interlacing_check, moments_matvec,
                       weyl_partial_fractions, weyl_rational,
                       weyl_resolvent)
import multihess.spectral as spectral
from multihess.polynomials import eval_type_ii
from multihess.pbf import band_diagonals
from multihess.spectral import (_MP_DPS, _band, _bound, _certified, _char,
                                _mp_polish, _mp_roots)


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
    band = _band(g, N)
    ub = _bound(band)
    x = np.concatenate((np.linspace(0.0, ub, 41), eigenvalues(g, N)))
    for m in (1, 2, p + 1, 13, N + 1):
        B, dB = eval_type_ii(g, m - 1, x, derivative=True)
        assert _char(band, m, x).tobytes() == B[m].tobytes()
        got = _char(band, m, x, slope=True)
        assert got.shape == (2, x.size)
        assert got.tobytes() == np.stack((B[m], dB[m])).tobytes()


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
    start = eigenvalues(g, N)
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


@pytest.mark.parametrize("seed,N", [(3, 40), (4, 40), (10, 40), (12, 40),
                                    (35, 40), (36, 40), (54, 40), (59, 40),
                                    (2, 60)])
def test_certificate_catches_wrong_bootstrap_spectra(seed, N):
    # the interlacing bootstrap that preceded the LAPACK start moved an
    # interior root onto a neighbour here (Σλ missed tr T by about 1e-3).
    # p = 1 is symmetrizable, so eigvalsh of the symmetric tridiagonal
    # with off-diagonals sqrt(T[i+1, i]) is an accurate reference; one
    # instance is also checked against _mp_roots.
    g = GeneratorSequence.uniform(1, 0.5, 2.0, seed=seed)
    band = band_diagonals(g, N)
    off = np.sqrt(band[1])
    ref = np.linalg.eigvalsh(np.diag(band[0]) + np.diag(off, 1)
                             + np.diag(off, -1))
    lams = eigenvalues(g, N)[::-1]
    assert np.abs(lams - ref).max() <= 1e-12 * ref[-1]
    if seed == 3:
        mp = np.array([float(v) for v in _mp_roots(g, N)])
        assert np.abs(lams - mp).max() <= 1e-12 * mp[-1]


@pytest.mark.parametrize("p,seed,N", [(1, 1174, 55), (2, 1298, 56)])
def test_interlacing_near_ties_are_refined(p, seed, N):
    # the two independent solves put a level-N root one ulp on the wrong
    # side of a level-(N-1) root near the top of the spectrum; every pair
    # within 2 ulps is refined at 40 digits, where the pair is ordered
    g = GeneratorSequence.uniform(p, 0.5, 2.0, seed=seed)
    out = interlacing_check(g, N)
    assert out["strict"] and out["sub_ulp_ties"] >= 1


def test_eigenvalues_of_huge_alphas():
    # T has entries near 1e80 and B_11 near 1e880 on the unscaled band;
    # the start runs on the band scaled to alphas near 1
    g = GeneratorSequence.uniform(1, 1e40, 2e40, seed=3)
    band = band_diagonals(g, 10)
    off = np.sqrt(band[1])
    ref = np.linalg.eigvalsh(np.diag(band[0]) + np.diag(off, 1)
                             + np.diag(off, -1))[::-1]
    lams = eigenvalues(g, 10)
    assert np.abs(lams - ref).max() <= 1e-12 * ref[0]


@pytest.mark.parametrize("low,high", [(1e-20, 2e-20), (0.5, 2.0),
                                      (1e40, 2e40)])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_start_certifies_at_any_alpha_scale(p, low, high):
    # the start alone, without the high-precision fallback
    for N in (10, 25, 40):
        g = GeneratorSequence.uniform(p, low, high, seed=3)
        assert spectral._start_roots(g, N) is not None


def _exact_spectrum(g, N, start, dps=80):
    """Eigenvalues of the exact product of the truncated factors: the
    dense product L_1 ... L_p U in mpf at dps digits, then Newton steps
    on the determinant recurrence of that Hessenberg matrix."""
    import mpmath
    p, n, step = g.p, N + 1, g.p + 1
    with mpmath.workdps(dps):
        a = [None] + [mpmath.mpf(v) for v in g.alphas(g.required_alphas(N))]
        eye = [[mpmath.mpf(int(i == j)) for j in range(n)] for i in range(n)]
        T = np.array(eye, dtype=object)
        for i in range(n):
            T[i, i] = a[1 + i * step]
            if i < N:
                T[i, i + 1] = mpmath.mpf(1)
        for k in range(p, 0, -1):
            L = np.array(eye, dtype=object)
            for i in range(N):
                L[i + 1, i] = a[k + 1 + i * step]
            T = L @ T
        x = np.array([mpmath.mpf(v) for v in start], dtype=object)
        for _ in range(6):
            B, dB = [x * 0 + 1], [x * 0]
            for m in range(n):
                acc, dacc = (x - T[m, m]) * B[m], B[m] + (x - T[m, m]) * dB[m]
                for j in range(1, min(p, m) + 1):
                    acc = acc - T[m, m - j] * B[m - j]
                    dacc = dacc - T[m, m - j] * dB[m - j]
                B.append(acc)
                dB.append(dacc)
            x = x - B[n] / dB[n]
    return x


@pytest.mark.parametrize("p,seed,N", [(3, 5, 25), (3, 2, 35), (2, 42, 40)])
def test_extended_eigenvalues_match_exact_factor_product(p, seed, N):
    # the extended band is built from the alphas, not rounded to double
    # first: rounding T's entries is no small relative perturbation of
    # its smallest eigenvalues
    import mpmath
    g = GeneratorSequence.uniform(p, 0.5, 2.0, seed=seed)
    lams = eigenvalues(g, N, use_mp=True)
    ref = _exact_spectrum(g, N, eigenvalues(g, N))
    with mpmath.workdps(80):
        worst = max(abs(a - b) / b for a, b in zip(lams, ref))
    assert worst <= mpmath.mpf(10) ** -30


def test_certificate_rejects_nan_collapsed_and_misplaced_roots():
    g = GeneratorSequence.uniform(2, 0.5, 2.0, seed=5)
    band = _band(g, 10)
    roots = eigenvalues(g, 10)[::-1].copy()
    assert _certified(roots, band)
    bad = []
    for k, value in ((0, np.nan), (4, roots[5]), (0, -roots[0]),
                     (4, 0.5 * (roots[4] + roots[5]))):   # ordered, off-trace
        r = roots.copy()
        r[k] = value
        bad.append(r)
    assert not any(_certified(r, band) for r in bad)


def test_certificate_counts_roots():
    # two roots in the cell of the smallest two and none near the
    # smallest, with the top root moved to keep the trace: ordered,
    # positive and on the trace, but B_{N+1} keeps its sign over the
    # first cell
    g = GeneratorSequence.uniform(2, 0.5, 2.0, seed=5)
    band = _band(g, 10)
    roots = eigenvalues(g, 10)[::-1].copy()
    gap = roots[2] - roots[1]
    bad = roots.copy()
    bad[0], bad[1] = roots[1] - 0.1 * gap, roots[1] + 0.3 * gap
    bad[-1] -= bad.sum() - roots.sum()
    assert np.all(np.diff(bad) > 0.0)
    assert abs(bad.sum() - sum(band[0])) <= 1e-12 * bad.sum()
    assert not _certified(bad, band)


def test_order_zero_extended_precision():
    g = GeneratorSequence.uniform(1, 0.5, 2.0, seed=3)
    t00 = band_diagonals(g, 0)[0][0]
    lams = eigenvalues(g, 0, use_mp=True)
    assert lams.size == 1 and float(lams[0]) == t00
    dec = decompose(g, 0, use_mp=True)
    assert float(dec.lams[0]) == t00 and float(dec.mu[0, 0]) == 1.0


@pytest.mark.parametrize("p,N", [(1, 20), (2, 20), (3, 25)])
def test_exact_products_match_fdot(p, N):
    # every entry of the extended WU and UW within one rounding at the
    # tables' precision of one mpmath.fdot, and so are the residuals
    import mpmath
    from multihess.spectral import _mp_matmul
    g = GeneratorSequence.uniform(p, 0.5, 2.0, seed=30 + p)
    dec = decompose(g, N, use_mp=True)
    with dec.workprec():
        ulp = mpmath.mpf(2) ** (1 - mpmath.mp.prec)
        res = []
        for A, B in ((dec.W, dec.U), (dec.U, dec.W)):
            want = [[mpmath.fdot(a, b) for b in B.T] for a in A]
            got = _mp_matmul(A, B)
            assert got.shape == (N + 1, N + 1)
            for i in range(N + 1):
                for j in range(N + 1):
                    assert abs(got[i, j] - want[i][j]) <= ulp * abs(want[i][j])
            res.append(float(max(abs(want[i][j] - (i == j))
                                 for i in range(N + 1)
                                 for j in range(N + 1))))
    r = dec.biorthogonality_residuals()
    assert r == pytest.approx(tuple(res), rel=1e-6)
    assert max(r) < 1e-30


def test_exact_products_carry_nan():
    import mpmath
    from multihess.spectral import _mp_matmul
    g = GeneratorSequence.uniform(2, 0.5, 2.0, seed=31)
    dec = decompose(g, 8, use_mp=True)
    with dec.workprec():
        U = dec.U.copy()
        U[3, 5] = mpmath.nan                     # row 3, column 5
        P = _mp_matmul(U, dec.W)
        assert all(mpmath.isnan(v) for v in P[3])
        assert not any(mpmath.isnan(v) for v in np.delete(P, 3, 0).flat)
        Q = _mp_matmul(dec.W, U)
        assert all(mpmath.isnan(v) for v in Q[:, 5])
        assert not any(mpmath.isnan(v) for v in np.delete(Q, 5, 1).flat)
    dec.U = U
    assert all(np.isnan(r) for r in dec.biorthogonality_residuals())
    with np.errstate(invalid="ignore"):
        dec.U = dec.U * np.nan
    assert all(np.isnan(r) for r in dec.biorthogonality_residuals())
