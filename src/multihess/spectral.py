"""Spectra of the truncations and the discrete measures they carry.

Eigenvalues start from LAPACK on the transpose of T, which is upper
Hessenberg, so its QR sweeps work on the band itself.  The band is first
scaled by an exact diagonal similarity to alphas of unit geometric mean.
A few Newton steps on the band recurrence polish the start, and a
certificate accepts it: positive, strictly increasing roots that sum to
the trace, with one sign change of the characteristic polynomial per
cell of the sorted roots.  Otherwise a high-precision polynomial solver
takes over.  Both routes, and the certificate of either, run on the
same band scaled by the same power of two, so no spectrum depends on the
alphas' scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedSpectrumError, InvalidInputError, PoleError
from .generator import GeneratorSequence
from .pbf import (InitialConditionData, _script_L, assemble_truncation,
                  band_diagonals, initial_conditions, script_L)
from .polynomials import (_diagonals, _float_levels, _levels, _steps,
                          eval_second_kind, eval_truncated, eval_type_ii)

_NEWTON_PASSES = 4
_MP_DPS = 50
_TOP = slice(-1, None)        # the level N+1 alone, for polynomials._levels


def _bound(band) -> float:
    """Max row sum + 1 of the matrix with unit superdiagonal and band
    band[j][i] = T[i+j, i] >= 0: above its spectrum."""
    rows = np.r_[np.ones(len(band[0]) - 1), 0.0]
    for j, d in enumerate(band):
        rows[j:] += d
    return float(rows.max()) + 1.0


def _certified(roots: np.ndarray, band) -> bool:
    """Whether ascending float roots of B_{N+1} are positive, strictly
    increasing, sum to the trace of T within 1e-12 of their sum, and are
    all of them: B_{N+1} alternates in sign over 0, their N midpoints and
    the _bound, so each of the N+1 cells holds exactly one root.  NaN
    fails."""
    total = roots.sum()
    if not (roots[0] > 0.0 and np.all(np.diff(roots) > 0.0)
            and abs(total - sum(band[0])) <= 1e-12 * total):
        return False
    cuts = np.concatenate(([0.0], 0.5 * (roots[:-1] + roots[1:]),
                           [_bound(band)]))
    signs = np.sign(_char(band, roots.size, cuts))
    return bool(np.all(signs[:-1] * signs[1:] < 0.0))


def _char(band, m: int, x, slope: bool = False) -> np.ndarray:
    """B_m at the float points x, or with slope=True B_m and B_m' as the
    rows of a (2, len(x)) array, bit for bit as eval_type_ii computes
    them on the band."""
    x = np.asarray(x, dtype=float)
    return _float_levels(x, _steps(band, m - 1, True), slope)[m]


def _shift(gen: GeneratorSequence, N: int) -> int:
    """log2 of the geometric mean of the alphas of T^[N], rounded."""
    return int(np.rint(np.log2(gen.alphas(gen.required_alphas(N))).mean()))


def _start_roots(gen: GeneratorSequence, N: int):
    """Ascending roots of B_{N+1} in double precision, or None when they
    fail _certified.

    LAPACK runs on the transpose of the band of _diagonals scaled by
    _shift, so the start does not depend on the alphas' scale; Newton
    steps on the same band finish it and the roots are scaled back
    exactly."""
    shift = _shift(gen, N)
    band = _diagonals(gen, N, shift=shift)
    Tt = np.diag(np.ones(N), -1)                # T^T[i, i+j] = T[i+j, i]
    for j, d in enumerate(band):
        Tt[np.arange(len(d)), np.arange(j, j + len(d))] = d
    x = np.sort(np.linalg.eigvals(Tt).real)
    for _ in range(_NEWTON_PASSES):
        f, df = _char(band, N + 1, x, slope=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = x - np.where(df != 0.0, f / df, 0.0)
    x = np.sort(x)
    return np.ldexp(x, shift) if _certified(x, band) else None


def _mp_char_coeffs(gen: GeneratorSequence, N: int, shift: int):
    """Coefficients of B_{N+1} (highest degree first) for the alphas /
    2^shift in mpmath numbers, each rounded once from the exact integer
    recurrence on the exact band: on it, B_n(2^e y) / 2^(e n) has integer
    coefficients, and the shift moves e to e - shift."""
    import mpmath
    d, e = band_diagonals(gen, N, exact=True)
    polys = [[1]]                      # ascending coefficient lists
    for n in range(N + 1):
        cur = polys[n]
        nxt = [0] + cur                # y * B_n
        for i, c in enumerate(cur):
            nxt[i] -= d[0][n] * c
        for j in range(1, min(gen.p, n) + 1):
            for i, c in enumerate(polys[n - j]):
                nxt[i] -= d[j][n - j] * c
        polys.append(nxt)
    return [mpmath.mpf((c, (e - shift) * (N + 1 - i)))
            for i, c in reversed(list(enumerate(polys[N + 1])))]


def _mp_roots(gen: GeneratorSequence, N: int):
    """All roots of B_{N+1} by a high-precision polynomial solver,
    ascending, as mpmath numbers; raises IllConditionedSpectrumError when
    it does not converge or they are not positive and simple.  Slow; the
    last resort when double precision cannot separate the spectrum.
    Solved on the band scaled by _shift; the roots are scaled back exactly."""
    import mpmath
    shift = _shift(gen, N)
    with mpmath.workdps(3 * _MP_DPS):
        coeffs = _mp_char_coeffs(gen, N, shift)
        try:
            roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=200)
        except mpmath.libmp.NoConvergence as exc:
            raise IllConditionedSpectrumError(
                "high-precision solver did not converge") from exc
        scale = max(abs(r) for r in roots)
        for r in roots:
            if abs(mpmath.im(r)) > mpmath.mpf(10) ** (-_MP_DPS) * scale:
                raise IllConditionedSpectrumError(
                    "high-precision solver returned a complex eigenvalue")
        asc = sorted(mpmath.ldexp(mpmath.re(r), shift) for r in roots)
    if asc[0] <= 0 or any(b <= a for a, b in zip(asc, asc[1:])):
        raise IllConditionedSpectrumError(
            "computed spectrum is not positive and simple")
    return np.array(asc, dtype=object)


def _mp_polish(gen: GeneratorSequence, N: int, roots, dps: int = _MP_DPS):
    """Refine roots with Newton steps in mpmath at the given precision.

    Accepts float or mpmath inputs; mpmath inputs keep their full value,
    so sub-double clusters survive the polish.  Stops after the first
    step whose largest relative correction is at most 10^-(dps//2):
    Newton converges quadratically, so the next correction would sit at
    the 10^-dps noise floor.  At most 6 steps.
    """
    import mpmath
    with mpmath.workdps(dps):
        x = np.array([mpmath.mpf(v) for v in roots], dtype=object)
        tol = mpmath.mpf(10) ** -(dps // 2)
        for _ in range(6):
            B, dB = _levels(gen, N, x, True, True, _TOP, _TOP)
            step = B[0] / dB[0]
            x = x - step
            if np.abs(step / x).max() <= tol:
                break
    return x


def eigenvalues(gen: GeneratorSequence, N: int, use_mp: bool = False) -> np.ndarray:
    """Eigenvalues of the order-N truncation, strictly decreasing.

    The oscillatory structure guarantees they are positive and simple;
    violation of that in the computed output raises
    IllConditionedSpectrumError.  The polynomial solver takes over from
    the start when it fails its certificate, or, extended, when it holds
    roots within 1e-12 relative, which the Newton polish cannot split.
    """
    if N < 0:
        raise InvalidInputError("truncation order must be >= 0")
    roots = _start_roots(gen, N)
    if roots is None or use_mp and (np.diff(roots) / roots[-1]).min(
            initial=np.inf) < 1e-12:
        asc = _mp_roots(gen, N)
        if not use_mp:
            k = _shift(gen, N)
            asc = np.array([float(v) for v in asc])
            if not _certified(np.ldexp(asc, -k), _diagonals(gen, N, shift=k)):
                raise IllConditionedSpectrumError(
                    "spectrum is positive and simple but not separable "
                    "in double precision; use extended precision")
    elif use_mp:
        asc = _mp_polish(gen, N, roots)
    else:
        asc = roots
    return asc[::-1].copy()


def eigenvalue_pair(gen: GeneratorSequence, N: int):
    """Spectra of the truncations of orders N-1 and N, both descending."""
    if N < 1:
        raise InvalidInputError("order must be >= 1 for an eigenvalue pair")
    return eigenvalues(gen, N - 1), eigenvalues(gen, N)


def interlacing_check(gen: GeneratorSequence, N: int) -> dict:
    """Verify that the level-N spectrum strictly interlaces level N-1.

    Strictness can fail to be representable in double precision: near the
    edges of the support the adjacent-level eigenvalues converge
    geometrically in N and their true gap drops below one ulp around
    N ~ 30, so either of the two solves can put a root an ulp on the
    wrong side.  Every pair within 2 ulps, in either order, is re-refined
    with extended-precision Newton steps on the two characteristic
    polynomials and counted as strict when the refined values are
    ordered; sub_ulp_ties counts those pairs.
    """
    import mpmath
    prev, cur = eigenvalue_pair(gen, N)     # certified: positive, simple
    pa, ca = prev[::-1], cur[::-1]          # ascending
    ties = 0
    strict = True
    with mpmath.workdps(40):
        for lo, hi, mlo, mhi in (
                (ca[:-1], pa, N, N - 1),       # cur root below prev root
                (pa, ca[1:], N - 1, N)):       # prev root below next cur
            for a, b in zip(lo, hi):
                ulps = (b - a) / np.spacing(max(a, b))
                if ulps > 2.0:
                    continue
                if ulps < -2.0:
                    strict = False
                    break
                ties += 1
                if not (_mp_polish(gen, mlo, [a], 40)[0]
                        < _mp_polish(gen, mhi, [b], 40)[0]):
                    strict = False
                    break
    return {"N": N, "strict": strict, "sub_ulp_ties": ties,
            "min_gap": float(np.abs(np.diff(cur)).min())}


def _int_rows(M: np.ndarray):
    """The rows of an mpf matrix as integers over one binary exponent
    each, M[i, l] = ints[i, l] 2^exps[i] exactly; the exponent of a row
    holding a nan or an infinity is None."""
    ints, exps = np.zeros(M.shape, dtype=object), []
    for i, row in enumerate(M):
        t = [v._mpf_ for v in row]
        lo = min((exp for _, man, exp, _ in t if man), default=0)
        ints[i] = [(-man if sign else man) << exp - lo if man else 0
                   for sign, man, exp, _ in t]
        exps.append(None if any(bc and not man for _, man, _, bc in t)
                    else lo)
    return ints, exps


def _mp_matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B for mpf object matrices, each entry the exact dot product
    rounded once at the working precision, as mpmath.fdot gives it: the
    rows of A and the columns of B become integers over one exponent
    each, and their integer product is exact.  A nan or an infinity in a
    row of A or a column of B makes that row or column of the product
    NaN."""
    import mpmath
    (a, ea), (b, eb) = _int_rows(A), _int_rows(B.T)
    out = a @ b.T
    for (i, j), s in np.ndenumerate(out):
        out[i, j] = (mpmath.nan if None in (ea[i], eb[j])
                     else mpmath.mpf((s, ea[i] + eb[j])))
    return out


def _gth_stationary(sup, sub) -> np.ndarray:
    """Stationary vector of the chain on states 0..N whose one upward step
    is sup[k] = P[k, k+1] and whose downward steps are sub[j][i] =
    P[i+j+1, i], by Grassmann-Taksar-Heyman state reduction in O(Np).
    Censoring state k adds f_k = P[k-1, k] / s_k times row k's downward
    steps to row k-1, s_k the mass row k sends below; pi_k = pi_{k-1} f_k.
    Nothing is subtracted, so each entry keeps the relative accuracy of
    P's (O'Cinneide, Numer. Math. 65, 1993), whatever P's scale."""
    sup = np.asarray(sup, float).tolist()
    sub = [np.asarray(d, float).tolist() for d in sub]
    low = [[d[k - 1 - j] for j, d in enumerate(sub[:k])]
           for k in range(len(sup) + 1)]        # low[k][j] = P[k, k-1-j]
    f = [1.0] * len(low)
    for k in range(len(sup), 0, -1):
        f[k] = sup[k - 1] / sum(low[k])
        for j, v in enumerate(low[k][1:]):
            low[k - 1][j] += f[k] * v
    pi = np.cumprod(f)
    return pi / pi.sum()


def _abs_levels(band, lam) -> np.ndarray:
    """Bh_0 .. Bh_{N+1}, the forward recurrence for B_n(lam) on absolute
    values over the float band band[j][i] = T[i+j, i] of T^[N].  Level n
    of the recurrence sums terms up to Bh_n in size, so it loses about
    log10(Bh_n / |B_n(lam)|) digits to cancellation: many in the decaying
    tail at the top eigenvalue."""
    Bh = [1.0]
    for n in range(len(band[0])):
        Bh.append(abs(lam - band[0][n]) * Bh[n] + sum(
            band[j][n - j] * Bh[n - j]
            for j in range(1, min(len(band) - 1, n) + 1)))
    return np.array(Bh)


def _monic_values(gen: GeneratorSequence, N: int, lam):
    """(lam, b): b = B_0 .. B_N at the mpf lam, taken at 60 digits, or
    again at 35 more than the digits _abs_levels says they lose when fewer
    than 25 would remain, up to three times.  A lam at which B_{N+1}
    vanishes to 30 digits (the top eigenvalue, polished) is polished to
    the new digits; any other lam is a fixed point and kept.  The bound
    runs on the band of _diagonals scaled by _shift, so it overflows only
    where T's alphas spread beyond double range; then b keeps 60 digits."""
    import mpmath
    k = _shift(gen, N)
    Bh = _abs_levels(_diagonals(gen, N, shift=k), np.ldexp(float(lam), -k))
    dps, root = 60, None
    for raised in range(4):
        with mpmath.workdps(dps):
            B = eval_type_ii(gen, N, lam, use_mp=True)
        with np.errstate(divide="ignore", invalid="ignore"):  # exact roots
            bits = (np.log2(Bh) + k * np.arange(N + 2)
                    - [float(mpmath.mag(v)) for v in B])
        if root is None:
            root = bits[N + 1] >= 100
        lost = bits[:N + 1].max() * np.log10(2.0)
        if raised == 3 or not np.isfinite(lost) or lost + 25 <= dps:
            break
        dps = int(lost) + 35
        if root:
            lam = _mp_polish(gen, N, [lam], dps=dps)[0]
    return lam, B[:N + 1]


def _perron_stationary(gen: GeneratorSequence, N: int, lam: float, b):
    """(pi, b): state reduction on D^-1 T D, D = diag(b), for b_n = B_n(lam)
    from the forward recurrence at the top eigenvalue, and the b it used.
    That recurrence loses the decaying tail of B_n(lam) to cancellation
    where eps Bh_n (_abs_levels) reaches |b_n|; when more than 1e-8 of pi
    sits there, b is taken again by _monic_values at lam polished to 60
    digits, as the chains' similarity weights are."""
    band = _diagonals(gen, N)
    Bh = _abs_levels(band, lam)[:N + 1]

    def reduce(b):
        return _gth_stationary(b[1:] / b[:-1], [
            d * (b[:-j] / b[j:]) for j, d in enumerate(band[1:], 1)])
    pi = reduce(b)
    if np.abs(pi[2.0 ** -53 * Bh >= np.abs(b)]).sum() > 1e-8:
        import mpmath
        with mpmath.workdps(60):
            x = _mp_polish(gen, N, [lam], dps=60)[0]
            b = _monic_values(gen, N, x)[1].astype(float)
        pi = reduce(b)
    return pi, b


def _mp_nu_inv_T(gen: GeneratorSequence, init: InitialConditionData):
    """init.nu_inv_T = script_L C in mpf at the working precision.  The
    sums of script_L add nonnegative terms, so each entry keeps every
    digit; C comes back from the double product, exactly when C = I (the
    unitriangular solve then subtracts only zeros)."""
    import mpmath
    C = np.linalg.solve(script_L(gen), init.nu_inv_T)
    return _script_L(gen, mpmath.mpf) @ C


@dataclass
class SpectralDecomposition:
    """Eigenvalue decomposition T = U diag(lams) W with polynomial tables.

    U[n, k] = B_n(lam_k) (columns are right eigenvectors); W[k, n] is the
    trailing-block characteristic polynomial starting at row n+1 evaluated
    at lam_k, normalized by the derivative of the full characteristic
    polynomial (rows are left eigenvectors, biorthogonal to U's columns).
    mu[k, a] holds the Christoffel weight of node lam_k for measure a.
    """

    gen: GeneratorSequence
    N: int
    init: InitialConditionData
    lams: np.ndarray
    U: np.ndarray
    W: np.ndarray
    mu: np.ndarray
    use_mp: bool = False
    dps: int = 0

    @property
    def p(self) -> int:
        return self.gen.p

    def workprec(self):
        """Context manager restoring the precision the tables were built
        at; mpmath arithmetic is contextual, so every consumer of
        extended tables must run inside this."""
        if self.use_mp:
            import mpmath
            return mpmath.workdps(self.dps)
        from contextlib import nullcontext
        return nullcontext()

    def biorthogonality_residuals(self):
        """(max|WU - I|, max|UW - I|).  In extended mode every entry of a
        product is an exact dot product rounded once at the tables'
        precision (_mp_matmul), so cancelling large terms costs no
        digits."""
        mul = _mp_matmul if self.use_mp else np.matmul
        eye = np.eye(self.N + 1, dtype=int)
        with self.workprec():
            return tuple(float(abs((mul(A, B) - eye).astype(float)).max())
                         for A, B in ((self.W, self.U), (self.U, self.W)))

    def matrix_power(self, n: int) -> np.ndarray:
        """(T^[N])^n reconstructed as U diag(lams^n) W."""
        with self.workprec():
            return (self.U * self.lams ** n) @ self.W

    def moment(self, a: int, n: int) -> float:
        """n-th power moment of measure a from the node/weight table."""
        if not 1 <= a <= self.p:
            raise InvalidInputError(f"measure index must be in 1..{self.p}")
        with self.workprec():
            return float(np.dot(self.mu[:, a - 1], self.lams ** n))


def decompose(gen: GeneratorSequence, N: int,
              init: InitialConditionData = None,
              use_mp: bool = False) -> SpectralDecomposition:
    """Full spectral data of the order-N truncation.

    In extended mode the sums WU and UW cancel terms as large as
    max(|W||U|, |U||W|), so the digits adapt: the tables are built on the
    eigenvalues() polished at _MP_DPS (polished again when a tight
    cluster or a wide spread lambda_max / lambda_min asks for more digits)
    and rebuilt until the digits exceed by 26 the log10 of that magnitude,
    read from float copies of the tables.  If an entry lies beyond double
    range, the float products turn inf or nan and the magnitude is
    bounded above from binary exponents.  In double the top node's
    weights come from state reduction (_perron_stationary).  Raises
    IllConditionedSpectrumError when the weights of a measure miss its
    total mass by more than 1e-8 relative."""
    if init is None:
        init = initial_conditions(gen)
    lams = eigenvalues(gen, N, use_mp=use_mp)
    if use_mp:
        import mpmath
        # Keep enough digits that the tightest cluster, and the smallest
        # root beside the largest, stay resolved through the polish.
        desc = list(lams)
        relgap = min((a - b for a, b in zip(desc, desc[1:])),
                     default=0) / desc[0]
        dps = _MP_DPS
        if relgap > 0:
            dps = max(dps, int(-mpmath.log10(relgap)) + 15)
        if desc[-1] > 0:
            dps = max(dps, int(mpmath.log10(desc[0] / desc[-1])) + 15)
        for _ in range(5):
            lams_mp = (_mp_polish(gen, N, lams, dps=dps) if dps > _MP_DPS
                       else lams)
            with mpmath.workdps(dps):
                # U[n, k] = B_n(lam_k) for n <= N, with B'_{N+1}(lam_k)
                U, dB = _levels(gen, N, lams_mp, True, True, slice(-1), _TOP)
                R = eval_truncated(gen, N, lams_mp, use_mp=True)
                W = (R[1:N + 2] / dB[0]).T.copy()
            Wf, Uf = np.abs(W.astype(float)), np.abs(U.astype(float))
            with np.errstate(over="ignore", invalid="ignore"):
                top = np.log10(np.max([(Wf @ Uf).max(), (Uf @ Wf).max()]))
            if not np.isfinite(top):
                top = np.log10(N + 1) + np.log10(2.0) * sum(
                    max(map(mpmath.mag, A.flat)) for A in (W, U))
            magnitude = int(max(0.0, top))     # 0 for nan (nan spectrum)
            if dps >= magnitude + 26:
                break
            dps = magnitude + 32
        lams = lams_mp
        with mpmath.workdps(dps):
            mu = W[:, :gen.p] @ _mp_nu_inv_T(gen, init)   # sums cancel
    else:
        B, dB = eval_type_ii(gen, N, lams, derivative=True)
        R = eval_truncated(gen, N, lams)
        U = B[:N + 1].copy()
        W = (R[1:N + 2] / dB[N + 1]).T.copy()
        mu = W[:, :gen.p] @ init.nu_inv_T
        # The backward recurrence for R cancels at lams[0]; the top row
        # takes W[0, n] = pi_n / B_n(lams[0]) from state reduction.
        pi, b = _perron_stationary(gen, N, lams[0], U[:, 0])
        mu[0] = (pi[:gen.p] / b[:gen.p]) @ init.nu_inv_T
    # measure a carries the exact total mass top_row[a]; NaN passes, so a
    # NaN table still reaches the emitter's refusal
    for a, (total, mass) in enumerate(zip(mu.sum(axis=0), init.top_row), 1):
        if abs(total - mass) > 1e-8 * abs(mass):
            raise IllConditionedSpectrumError(
                f"the weights of measure {a} sum to {float(total):.6g}, not "
                f"to its total mass {mass:.6g}; use extended precision")
    return SpectralDecomposition(gen=gen, N=N, init=init, lams=lams,
                                 U=U, W=W, mu=mu, use_mp=use_mp,
                                 dps=dps if use_mp else 0)


def moments_matvec(gen: GeneratorSequence, N: int, order: int,
                   init: InitialConditionData = None) -> np.ndarray:
    """Power moments by iterated banded matrix-vector products.

    Row n, column a-1 holds the first component of T^n applied to the
    embedded initial vector of measure a.  This is the canonical moment
    path; the spectral sum over nodes and weights must agree with it.
    """
    if init is None:
        init = initial_conditions(gen)
    band = _diagonals(gen, N)
    return np.column_stack([_chain(band, init.embedded_vector(a, N + 1),
                                   order) for a in range(1, gen.p + 1)])


def _chain(band, v, order: int) -> list:
    """(M^n v)[0] for n = 0..order, M with unit superdiagonal and band
    band[j][i] = M[i+j, i], each product in O(pN); floats or mpf alike."""
    band, v = [np.array(d) for d in band], np.array(v)
    out = [v[0]]
    for _ in range(order):
        y = band[0] * v
        y[:-1] += v[1:]
        for j in range(1, len(band)):
            y[j:] += band[j] * v[:-j]
        v = y
        out.append(v[0])
    return out


def _moment_errors(dec: SpectralDecomposition, a: int, order: int, M: int,
                   use_mp: bool = False) -> list:
    """|sum_k mu_{k,a} lam_k^n - m_n| / max(1, |m_n|), n = 0..order, for
    the moments m_n = e_0^T T^n v_a of _chain on T^[M].  In double both
    sides are those of T / 2^s, s = _shift(gen, M): float copies of the
    tables give mu . (lams / 2^s)^n and _chain gives e_0^T S^n D^-1 v_a
    for S of _diagonals(gen, M, shift=s) and D = diag(2^(s i)), exactly,
    so no large T overflows and s = 0 keeps every bit.  With use_mp the
    extended tables are compared unscaled, in mpf at their own precision,
    with v_a from _mp_nu_inv_T."""
    gen, v = dec.gen, dec.init.embedded_vector(a, M + 1)
    if use_mp:
        import mpmath
        with dec.workprec():
            nuT = _mp_nu_inv_T(gen, dec.init)
            v = [nuT[i, a - 1] if i < gen.p else mpmath.mpf(0)
                 for i in range(M + 1)]
            refs = _chain(_diagonals(gen, M, True), v, order)
            return [abs(np.sum(dec.mu[:, a - 1] * dec.lams ** n) - m)
                    / max(mpmath.mpf(1), abs(m)) for n, m in enumerate(refs)]
    s = _shift(gen, M)
    refs = _chain(_diagonals(gen, M, shift=s),
                  np.ldexp(v, -s * np.arange(M + 1)), order)
    lams = np.ldexp(dec.lams.astype(float), -s)
    mu = dec.mu[:, a - 1].astype(float)
    return [abs(float(np.dot(mu, lams ** n)) - m) / max(1.0, abs(m))
            for n, m in enumerate(map(float, refs))]


def weyl_rational(gen: GeneratorSequence, N: int, z,
                  init: InitialConditionData = None) -> np.ndarray:
    """Weyl functions as ratios of second-kind polynomials to the
    characteristic polynomial.  Returns one value per measure."""
    if init is None:
        init = initial_conditions(gen)
    num = eval_second_kind(gen, N, float(z), init)
    den = eval_type_ii(gen, N, float(z))[N + 1]
    if den == 0.0:
        raise PoleError(f"z = {z} is an eigenvalue of the truncation")
    return num / den


def weyl_partial_fractions(dec: SpectralDecomposition, z) -> np.ndarray:
    """Weyl functions as partial-fraction sums over the node table."""
    gaps = z - dec.lams
    scale = max(1.0, float(abs(dec.lams[0])))
    if np.abs(gaps).min() < 1e-13 * scale:
        raise PoleError(f"z = {z} coincides with a spectral node")
    return (dec.mu / gaps[:, None]).sum(axis=0)


def weyl_resolvent(gen: GeneratorSequence, N: int, z,
                   init: InitialConditionData = None) -> np.ndarray:
    """Weyl functions via a linear solve on z I - T."""
    if init is None:
        init = initial_conditions(gen)
    n, p = N + 1, gen.p
    M = float(z) * np.eye(n) - assemble_truncation(gen, N).dense
    rhs = np.column_stack([init.embedded_vector(a, n)
                           for a in range(1, p + 1)])
    return np.linalg.solve(M, rhs)[0]
