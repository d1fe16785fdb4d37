"""Spectra of the truncations and the discrete measures they carry.

Eigenvalues are found by a level-by-level bootstrap: the roots of each
characteristic polynomial strictly interlace those of the previous level,
giving guaranteed sign-change brackets for bisection, finished with a few
safeguarded Newton steps; each evaluation covers the midpoint tree of
every bracket at once (multisection) on the band diagonals of T.  A dense
solver is kept as a fallback and as an independent cross-check in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (BracketError, IllConditionedSpectrumError,
                     InvalidInputError, PoleError)
from .generator import GeneratorSequence
from .pbf import InitialConditionData, assemble_truncation, initial_conditions
from .polynomials import (_diagonals, eval_second_kind, eval_truncated,
                          eval_type_ii)

_BISECT_PASSES = 24
_TREE_DEPTH = 4        # halvings per evaluation: 15 midpoints per bracket
_NEWTON_PASSES = 4
_MP_DPS = 50


def _band(gen: GeneratorSequence, N: int):
    """Band diagonals of T^[N] as Python floats, band[j][i] = T[i+j, i]
    for j = 0..p, and the bound max row sum + 1 above its spectrum."""
    return (_diagonals(gen, N),
            assemble_truncation(gen, N).max_row_sum() + 1.0)


def _char(band, m: int, x, slope: bool = False) -> np.ndarray:
    """B_m at the float points x, or with slope=True B_m and B_m' as the
    rows of a (2, len(x)) array, bit for bit as eval_type_ii computes
    them: the same operations in the same order, except that the slope
    row adds B_n to (x - d) B_n', which IEEE addition makes exact."""
    x = np.asarray(x, dtype=float)
    p = len(band) - 1
    xd = x - np.array(band[0][:m])[:, None]     # row n: x - T[n, n]
    hist = [np.stack((np.ones_like(x), np.zeros_like(x))) if slope
            else np.ones_like(x)]
    for n in range(m):
        acc = xd[n] * hist[n]
        if slope:
            acc[1] += hist[n][0]
        for j in range(1, min(p, n) + 1):
            acc -= hist[n - j] * band[j][n - j]
        hist.append(acc)
    return hist[m]


def _multisect(band, m: int, lo, hi, slo):
    """_BISECT_PASSES sign-rule halvings of the brackets [lo, hi].

    Each evaluation forms every bracket's midpoint tree with the same
    0.5 * (lo + hi) operations and walks it with the same rule (move
    right while the sign matches slo), so the brackets end bit for bit
    where sequential halving leaves them."""
    width = 1 << _TREE_DEPTH
    halves = [width >> d for d in range(1, _TREE_DEPTH + 1)]
    rows = np.arange(lo.size)
    for _ in range(_BISECT_PASSES // _TREE_DEPTH):
        grid = np.empty((lo.size, width + 1))
        grid[:, 0], grid[:, width] = lo, hi
        for h in halves:
            grid[:, h:width:2 * h] = 0.5 * (grid[:, 0:width - h:2 * h]
                                            + grid[:, 2 * h::2 * h])
        f = _char(band, m, grid[:, 1:width].ravel())
        right = np.sign(f).reshape(lo.size, width - 1) == slo[:, None]
        # walk down the tree, keeping the bracket [grid[a], grid[a + 2h]]
        a = np.zeros(lo.size, dtype=int)
        for h in halves:
            a += h * right[rows, a + h - 1]
        lo, hi = grid[rows, a], grid[rows, a + 1]
    return lo, hi


def _rescue_bracket(band, m, a, b):
    """Recover a sign-change sub-bracket of [a, b] by interior sampling.

    A bracket endpoint that happens to lie within roundoff of a root of
    the *next* level's polynomial evaluates to pure noise there, so the
    endpoint sign test can miss a genuine interior crossing.  Interior
    values are O(1)-reliable; if they reveal a crossing, return the
    sub-bracket and the sign at its left end, otherwise report that the
    root really sits at an endpoint (the collapsed case).
    """
    eps = np.spacing(max(abs(a), abs(b)))
    if not (b > a) or (b - a) <= 4.0 * eps:
        return None
    pts = np.linspace(a, b, 14)
    sg = np.sign(_char(band, m, pts))
    for j in range(1, pts.size - 1):
        if sg[j] == 0.0:
            return pts[j], pts[j], sg[j]
    changes = [j for j in range(pts.size - 1) if sg[j] * sg[j + 1] < 0.0]
    keep = []
    for j in changes:
        if j in (0, pts.size - 2):
            # a crossing against an endpoint may only reflect a root of
            # this level sitting within roundoff of that endpoint, which
            # belongs to the neighboring bracket; keep the crossing only
            # when the Newton estimate from the endpoint lands clearly
            # inside
            k = 0 if j == 0 else pts.size - 1
            fv, dfv = _char(band, m, pts[k:k + 1], slope=True)[:, 0]
            if dfv == 0.0 or abs(fv / dfv) <= 8.0 * eps:
                continue
        keep.append(j)
    if not keep:
        return None
    j = keep[0]
    return pts[j], pts[j + 1], sg[j]


def _next_level(band, m: int, prev: np.ndarray, ub: float) -> np.ndarray:
    """Ascending roots of B_m, one per bracket of (0, ub) cut at the
    ascending roots prev of B_{m-1}, which they strictly interlace.

    A bracket whose endpoint sign test degenerates (a new root within
    roundoff of an old one) is rescued by interior sampling or else starts
    Newton from its endpoint with the smaller residual; more than
    m // 4 + 1 such brackets raise BracketError."""
    endpoints = np.concatenate(([0.0], prev, [ub]))
    fend = _char(band, m, endpoints)
    s = np.sign(fend)
    valid = s[:-1] * s[1:] < 0.0
    if np.count_nonzero(~valid) > m // 4 + 1:
        i = int(np.argmin(valid))
        raise BracketError("interlacing bracket structure lost",
                           level=m - 1,
                           interval=(endpoints[i], endpoints[i + 1]))
    alo, ahi = endpoints[:-1], endpoints[1:]
    collapsed = np.where(np.abs(fend[:-1]) <= np.abs(fend[1:]), alo, ahi)
    lo = np.where(valid, alo, collapsed)
    hi = np.where(valid, ahi, collapsed)
    slo = s[:-1]
    for i in np.flatnonzero(~valid):
        sub = _rescue_bracket(band, m, alo[i], ahi[i])
        if sub is not None:
            lo[i], hi[i], slo[i] = sub
    lo, hi = _multisect(band, m, lo, hi, slo)
    x = 0.5 * (lo + hi)
    for _ in range(_NEWTON_PASSES):
        f, df = _char(band, m, x, slope=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(df != 0.0, f / df, 0.0)
        x = np.clip(x - step, alo, ahi)
    return np.sort(x)


def _bootstrap_roots(gen: GeneratorSequence, N: int) -> np.ndarray:
    """Ascending roots of B_{N+1}, one _next_level per level.

    Raises BracketError when a level loses its bracket structure or the
    final roots collapse to the same float (sub-roundoff clusters).
    """
    band, ub = _band(gen, N)
    roots = np.array([band[0][0]])
    for m in range(2, N + 2):
        roots = _next_level(band, m, roots, ub)
        if m <= N:
            # Two intermediate roots may coincide to machine precision
            # even though later levels separate again; keep the walk
            # strictly ordered by the smallest possible nudge.  The final
            # level is validated below and triggers a fallback if the
            # separation was never real.
            for i in range(1, roots.size):
                if roots[i] <= roots[i - 1]:
                    roots[i] = np.nextafter(roots[i - 1], np.inf)
    if np.any(np.diff(roots) <= 0.0):
        i = int(np.argmin(np.diff(roots) > 0.0))
        raise BracketError("two roots collapsed to the same float",
                           level=N + 1, interval=(roots[i], roots[i + 1]))
    return roots


def _dense_roots(gen: GeneratorSequence, N: int) -> np.ndarray:
    """Fallback: dense eigenvalues, Newton-polished on the recurrence;
    raises IllConditionedSpectrumError unless positive and simple."""
    ev = np.linalg.eigvals(assemble_truncation(gen, N).dense)
    if np.abs(ev.imag).max() > 1e-8 * max(1.0, np.abs(ev.real).max()):
        raise IllConditionedSpectrumError(
            "dense solver returned a significantly complex eigenvalue")
    band, _ = _band(gen, N)
    x = np.sort(ev.real)
    for _ in range(_NEWTON_PASSES):
        f, df = _char(band, N + 1, x, slope=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = x - np.where(df != 0.0, f / df, 0.0)
    x = np.sort(x)
    if x[0] <= 0.0 or np.any(np.diff(x) <= 0.0):
        raise IllConditionedSpectrumError("dense spectrum is degenerate")
    return x


def _mp_char_coeffs(gen: GeneratorSequence, N: int):
    """Coefficients of B_{N+1} (highest degree first) in mpmath numbers."""
    import mpmath
    d = _diagonals(gen, N, use_mp=True)
    p = gen.p
    zero = mpmath.mpf(0)
    polys = [[mpmath.mpf(1)]]          # ascending coefficient lists
    for n in range(N + 1):
        cur = polys[n]
        nxt = [zero] + cur             # x * B_n
        for i, c in enumerate(cur):
            nxt[i] -= d[0][n] * c
        for j in range(1, min(p, n) + 1):
            for i, c in enumerate(polys[n - j]):
                nxt[i] -= d[j][n - j] * c
        polys.append(nxt)
    return list(reversed(polys[N + 1]))


def _mp_roots(gen: GeneratorSequence, N: int):
    """All roots of B_{N+1} by a high-precision dense polynomial solver,
    ascending, as mpmath numbers; raises IllConditionedSpectrumError when
    they are not positive and simple.  Slow; used when double precision
    cannot separate the spectrum."""
    import mpmath
    with mpmath.workdps(3 * _MP_DPS):
        coeffs = _mp_char_coeffs(gen, N)
        roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=200)
        scale = max(abs(r) for r in roots)
        for r in roots:
            if abs(mpmath.im(r)) > mpmath.mpf(10) ** (-_MP_DPS) * scale:
                raise IllConditionedSpectrumError(
                    "high-precision solver returned a complex eigenvalue")
        asc = sorted(mpmath.re(r) for r in roots)
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
            B, dB = eval_type_ii(gen, N, x, derivative=True, use_mp=True)
            step = B[N + 1] / dB[N + 1]
            x = x - step
            if np.abs(step / x).max() <= tol:
                break
    return x


def eigenvalues(gen: GeneratorSequence, N: int, use_mp: bool = False) -> np.ndarray:
    """Eigenvalues of the order-N truncation, strictly decreasing.

    The oscillatory structure guarantees they are positive and simple;
    violation of that in the computed output raises
    IllConditionedSpectrumError.
    """
    if N < 0:
        raise InvalidInputError("truncation order must be >= 0")
    try:
        roots = _bootstrap_roots(gen, N)
    except BracketError:
        try:
            roots = _dense_roots(gen, N)
        except IllConditionedSpectrumError:
            roots = None
    if roots is None:
        asc = _mp_roots(gen, N)
        if not use_mp:
            roots = np.array([float(v) for v in asc])
            if roots[0] <= 0.0 or np.any(np.diff(roots) <= 0.0):
                raise IllConditionedSpectrumError(
                    "spectrum is positive and simple but not separable "
                    "in double precision; use extended precision")
            asc = roots
        return asc[::-1].copy()
    if roots[0] <= 0.0 or np.any(np.diff(roots) <= 0.0):
        raise IllConditionedSpectrumError(
            "computed spectrum is not positive and simple")
    if use_mp:
        # Newton polish cannot split roots that double precision sees as
        # (nearly) equal; clusters below ~1e-12 relative go through the
        # high-precision solver instead.
        gaps = np.diff(roots) / max(roots.max(), 1e-300)
        if gaps.min() < 1e-12:
            asc = _mp_roots(gen, N)
        else:
            asc = _mp_polish(gen, N, roots)
    else:
        asc = roots
    return asc[::-1].copy()


def eigenvalue_pair(gen: GeneratorSequence, N: int):
    """Spectra of the truncations of orders N-1 and N, both descending.

    Cheaper than two separate calls: the order-N spectrum is one more
    _next_level on top of the order N-1 bootstrap; when either level
    degenerates both come from eigenvalues().  Used to check interlacing.
    """
    if N < 1:
        raise InvalidInputError("order must be >= 1 for an eigenvalue pair")
    try:
        prev = _bootstrap_roots(gen, N - 1)
        band, ub = _band(gen, N)
        last = _next_level(band, N + 1, prev, ub)
        # _bootstrap_roots already rejects a non-increasing prev
        if (prev[0] <= 0.0 or last[0] <= 0.0
                or np.any(np.diff(last) <= 0.0)):
            raise BracketError("bootstrap produced a degenerate level")
        return prev[::-1].copy(), last[::-1].copy()
    except BracketError:
        return eigenvalues(gen, N - 1), eigenvalues(gen, N)


def interlacing_check(gen: GeneratorSequence, N: int) -> dict:
    """Verify that the level-N spectrum strictly interlaces level N-1.

    Strictness can fail to be representable in double precision: near the
    edges of the support the adjacent-level eigenvalues converge
    geometrically in N and their true gap drops below one ulp around
    N ~ 30.  Float-identical pairs are therefore re-refined with a few
    extended-precision Newton steps on the two characteristic polynomials
    and counted as strict when the refined values are ordered.
    """
    import mpmath
    prev, cur = eigenvalue_pair(gen, N)
    pa, ca = prev[::-1], cur[::-1]          # ascending
    ordered = (cur.min() > 0.0 and np.all(np.diff(cur) < 0.0)
               and np.all(np.diff(prev) < 0.0))
    ties = 0
    strict = ordered

    if ordered:
        with mpmath.workdps(40):
            for lo, hi, mlo, mhi in (
                    (ca[:-1], pa, N, N - 1),   # cur root below prev root
                    (pa, ca[1:], N - 1, N)):   # prev root below next cur
                for a, b in zip(lo, hi):
                    if a < b:
                        continue
                    if a > b:
                        strict = False
                        break
                    ties += 1
                    if not (_mp_polish(gen, mlo, [a], 40)[0]
                            < _mp_polish(gen, mhi, [b], 40)[0]):
                        strict = False
                        break
    return {"N": N, "strict": strict, "sub_ulp_ties": ties,
            "min_gap": float(np.abs(np.diff(cur)).min()) if N >= 1 else 0.0}


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
        """(max|WU - I|, max|UW - I|).  In extended mode every entry is one
        mpmath.fdot, an exact dot product rounded once at the tables'
        precision, so cancelling large terms costs no digits."""
        pairs = ((self.W, self.U), (self.U, self.W))
        if not self.use_mp:
            eye = np.eye(self.N + 1)
            return tuple(float(abs(A @ B - eye).max()) for A, B in pairs)
        import mpmath
        with self.workprec():
            return tuple(float(max(abs(mpmath.fdot(a, b) - (i == j))
                                   for i, a in enumerate(A)
                                   for j, b in enumerate(B.T)))
                         for A, B in pairs)

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
    cluster asks for more digits) and rebuilt until the digits exceed by
    26 the log10 of that magnitude, read from float copies of the tables.
    If an entry lies beyond double range, the float products turn inf or
    nan and the magnitude is bounded above from binary exponents."""
    if init is None:
        init = initial_conditions(gen)
    lams = eigenvalues(gen, N, use_mp=use_mp)
    if use_mp:
        import mpmath
        # Keep enough digits that the tightest cluster stays resolved
        # through the polish.
        desc = list(lams)
        relgap = min(a - b for a, b in zip(desc, desc[1:])) / desc[0]
        dps = _MP_DPS
        if relgap > 0:
            dps = max(dps, int(-mpmath.log10(relgap)) + 15)
        for _ in range(5):
            lams_mp = (_mp_polish(gen, N, lams, dps=dps) if dps > _MP_DPS
                       else lams)
            with mpmath.workdps(dps):
                B, dB = eval_type_ii(gen, N, lams_mp, derivative=True,
                                     use_mp=True)
                R = eval_truncated(gen, N, lams_mp, use_mp=True)
                U = B[:N + 1].copy()
                W = (R[1:N + 2] / dB[N + 1]).T.copy()
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
            nuT = np.array([[mpmath.mpf(v) for v in row]
                            for row in init.nu_inv_T], dtype=object)
            mu = W[:, :gen.p] @ nuT
    else:
        B, dB = eval_type_ii(gen, N, lams, derivative=True)
        R = eval_truncated(gen, N, lams)
        U = B[:N + 1].copy()
        W = (R[1:N + 2] / dB[N + 1]).T.copy()
        mu = W[:, :gen.p] @ init.nu_inv_T
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
    T = assemble_truncation(gen, N)
    out = np.empty((order + 1, gen.p))
    for a in range(1, gen.p + 1):
        v = init.embedded_vector(a, N + 1)
        for n in range(order + 1):
            out[n, a - 1] = v[0]
            if n < order:
                v = T.matvec(v)
    return out


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
