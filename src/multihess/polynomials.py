"""Recurrence-based evaluation of the polynomial families attached to a
banded Hessenberg truncation.

All evaluators are vectorized over the evaluation points and accept either
float arrays or object arrays of mpmath numbers (select with use_mp).
With use_mp, B and R come from one recurrence on Python integers over the
exact band, rounded once per level (_mp_levels).  The other families run
on mpf object arrays, whose products put the array first: mpmath formats
a whole object array on its right for an error message it discards before
numpy's multiply runs.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError
from .generator import GeneratorSequence
from .pbf import InitialConditionData, band_diagonals


def _diagonals(gen: GeneratorSequence, order: int, use_mp: bool = False):
    """The entries of T^[order] the recurrences read: band[j][i] =
    T[i+j, i] for j = 0..p, as Python floats, or as mpf rounded once at
    the working precision from the exact band (the superdiagonal is 1 and
    every other entry 0)."""
    if not use_mp:
        return [d.tolist() for d in band_diagonals(gen, order)]
    import mpmath
    band, e = band_diagonals(gen, order, exact=True)
    return [[mpmath.mpf((v, e * (j + 1))) for v in d]
            for j, d in enumerate(band)]


def _as_points(x, use_mp: bool):
    scalar = np.isscalar(x) or getattr(x, "ndim", 0) == 0
    if use_mp:
        import mpmath
        return np.array([v if hasattr(v, "_mpf_") else mpmath.mpf(v)
                         for v in np.atleast_1d(x).ravel()],
                        dtype=object), scalar
    return np.atleast_1d(np.asarray(x, dtype=float)).ravel(), scalar


def _steps(band, N: int, forward: bool) -> list:
    """coef[j][s] of the level recurrence v_{s+1} = (x - coef[0][s]) v_s
    - sum_{j=1..min(p,s)} coef[j][s] v_{s-j}, s = 0..N, on band[j][i] =
    T[i+j, i].  Forward, coef[j][s] = T[s, s-j], so v_s = B_s; backward,
    coef[j][s] = T[N-s+j, N-s], so v_s = R[N+1-s]."""
    return [[0] * j + list(d[:N + 1 - j] if forward else d[N - j::-1])
            for j, d in enumerate(band)]


def _float_levels(x: np.ndarray, coef: list, derivative: bool) -> list:
    """Levels v_0 = 1 .. v_{N+1} of _steps at the float points x; with
    derivative, level s is the (2, len(x)) stack of v_s and v_s', and the
    v_s' row takes the operations of the v_s row, plus v_s."""
    xd = x - np.array(coef[0])[:, None]         # row s: x - coef[0][s]
    hist = [np.stack((np.ones_like(x), np.zeros_like(x))) if derivative
            else np.ones_like(x)]
    for s in range(len(coef[0])):
        acc = xd[s] * hist[s]
        if derivative:
            acc[1] += hist[s][0]
        for j in range(1, min(len(coef) - 1, s) + 1):
            acc -= hist[s - j] * coef[j][s]
        hist.append(acc)
    return hist


def _levels(gen: GeneratorSequence, N: int, x, derivative: bool,
            use_mp: bool, forward: bool):
    """The levels of _steps at x, shape (N+2, len(x)) or (N+2,) for
    scalar x, and their derivatives (or None)."""
    pts, scalar = _as_points(x, use_mp)
    if use_mp:
        band, e = band_diagonals(gen, N, exact=True)
        V, dV = _mp_levels(pts, _steps(band, N, forward), e, derivative)
    else:
        V = np.array(_float_levels(
            pts, _steps(_diagonals(gen, N), N, forward), derivative))
        V, dV = (V[:, 0], V[:, 1]) if derivative else (V, None)
    if scalar:
        V, dV = V[:, 0], (dV[:, 0] if derivative else None)
    return V, dV


def _mp_levels(pts, coef, e, derivative):
    """The levels of _steps at the mpf points pts, as mpf object arrays,
    on the exact band of band_diagonals (band j in units of 2^(e (j+1))).
    The band and the points become integers over one common binary
    exponent F, so a level of degree s is an integer times 2^(F s).  Each
    level is summed exactly from integer products, rounded once to the
    working precision plus 8 guard bits and stored as (mantissa,
    exponent); only the stored levels become mpf.  A nan or infinite
    point gives NaN on every level past v_0."""
    import mpmath
    xs = [v._mpf_ for v in pts]
    F = min([e] + [exp for _, man, exp, _ in xs if man])
    d0, *cs = [[c << (e - F) * (j + 1) for c in cj]
               for j, cj in enumerate(coef)]
    back = [[(j, cs[j - 1][s]) for j in range(1, min(len(cs), s) + 1)]
            for s in range(len(d0))]
    bits, mpf = mpmath.mp.prec + 8, mpmath.mpf
    V = np.full((len(d0) + 1, pts.size), mpmath.nan, dtype=object)
    V[0] = mpf(1)
    dV = V * 0 if derivative else None          # 0, then nan
    for col, (sign, man, exp, bc) in enumerate(xs):
        if not man and bc:                      # nan, +inf or -inf
            continue
        X = (-man if sign else man) << (exp - F) if man else 0
        a = [X - d for d in d0]
        v = _int_levels(a, back, None, bits)
        V[:, col] = [mpf((m, k + F * s)) for s, (m, k) in enumerate(v)]
        if derivative:
            dv = _int_levels(a, back, v, bits)
            dV[:, col] = [mpf((m, k + F * (s - 1)))
                          for s, (m, k) in enumerate(dv)]
    return V, dV


def _int_levels(a, back, carry, bits: int) -> list:
    """(mantissa, exponent) pairs of v_0 = 1, v_{s+1} = a[s] v_s - sum
    over (j, c) in back[s] of c v_{s-j}, each level summed exactly and
    rounded once to `bits` bits; with carry = the levels of v, the same
    for v' (v'_0 = 0, and v_s joins the sum for v'_{s+1})."""
    ms, ks = [0 if carry else 1], [0]
    for s, a_s in enumerate(a):
        lo = ks[s]
        for j, _ in back[s]:
            if ks[s - j] < lo:
                lo = ks[s - j]
        if carry:
            m, k = carry[s]
            if k < lo:
                lo = k
            acc = m << k - lo
        else:
            acc = 0
        acc += a_s * ms[s] << ks[s] - lo
        for j, c in back[s]:
            acc -= c * ms[s - j] << ks[s - j] - lo
        drop = acc.bit_length() - bits
        if drop > 0:
            acc = (acc + (1 << drop - 1)) >> drop
            lo += drop
        ms.append(acc)
        ks.append(lo)
    return list(zip(ms, ks))


def eval_type_ii(gen: GeneratorSequence, N: int, x, derivative: bool = False,
                 use_mp: bool = False):
    """Monic polynomials B_0 .. B_{N+1}; B_{N+1} is the truncation's
    characteristic polynomial.

    Returns an array of shape (N+2, len(x)) (and, with derivative=True,
    the elementwise derivative as a second array).
    """
    B, dB = _levels(gen, N, x, derivative, use_mp, forward=True)
    return (B, dB) if derivative else B


def eval_truncated(gen: GeneratorSequence, N: int, x, derivative: bool = False,
                   use_mp: bool = False):
    """Characteristic polynomials of the trailing blocks of the truncation.

    R[k] is the determinant of x I minus the block on rows/columns k..N,
    for k = 0..N+1 (R[0] equals B_{N+1} and R[N+1] = 1), computed by the
    backward column-expansion recurrence.
    """
    V, dV = _levels(gen, N, x, derivative, use_mp, forward=False)
    return (V[::-1], dV[::-1]) if derivative else V[::-1]


def eval_type_i(gen: GeneratorSequence, count: int, x,
                init: InitialConditionData, use_mp: bool = False):
    """Dual-family values A^(a)_n for a = 1..p and n = 0..count-1.

    The leading p x p block of values equals the initial-condition matrix
    nu; later rows follow the column recurrence of the banded matrix,
    dividing by the lowest-band entry.  Shape (p, count, len(x)).
    """
    p = gen.p
    if count < p:
        raise InvalidInputError(f"count must be at least p = {p}")
    pts, scalar = _as_points(x, use_mp)
    d = _diagonals(gen, count - 1, use_mp)
    nu = init.nu
    if use_mp:
        import mpmath
        nu = np.array([[mpmath.mpf(v) for v in row] for row in nu])
    A = np.zeros((p, count, pts.size), dtype=nu.dtype)
    A[:, :p] = nu.T[:, :, None]
    for n in range(count - p):
        for a in range(p):
            acc = pts * A[a, n]
            if n >= 1:
                acc = acc - A[a, n - 1]
            for j in range(p):
                acc = acc - A[a, n + j] * d[j][n]
            A[a, n + p] = acc / d[p][n]
    if scalar:
        A = A[:, :, 0]
    return A


def h_values(gen: GeneratorSequence, count: int, use_mp: bool = False) -> np.ndarray:
    """Normalization constants h_0 .. h_{count-1}; h_0 = 1 and each step
    multiplies by the lowest-band entry with an alternating sign fixed by
    the bandwidth parity."""
    p = gen.p
    if count < 1:
        raise InvalidInputError("count must be positive")
    low = _diagonals(gen, count - 1 + p, use_mp)[p]
    sign = (-1) ** (p - 1)
    h = np.ones(count, dtype=object if use_mp else float)
    for n in range(count - 1):
        h[n + 1] = sign * h[n] * low[n]
    return h


def eval_second_kind(gen: GeneratorSequence, N: int, x,
                     init: InitialConditionData, use_mp: bool = False):
    """Second-kind polynomials of degree N at the top level, one per
    measure: linear combinations of the trailing-block characteristic
    polynomials with coefficients from the initial-condition matrix.
    Shape (p, len(x))."""
    R = eval_truncated(gen, N, x, use_mp=use_mp)
    p = gen.p
    W = init.nu_inv_T
    rows = R[1:p + 1]
    return np.array([sum(rows[k] * W[k, a] for k in range(p))
                     for a in range(p)])


def _det(M: np.ndarray):
    """Determinant by Laplace expansion; works for object (mpmath) arrays.
    Only used on p x p blocks, so the factorial cost is irrelevant."""
    n = M.shape[0]
    if n == 1:
        return M[0, 0]
    acc = 0
    sign = 1
    for j in range(n):
        minor = np.delete(M[1:], j, axis=1)
        acc = acc + sign * M[0, j] * _det(minor)
        sign = -sign
    return acc


def _q_from_table(A: np.ndarray, N: int, n: int):
    """Q_{n,N} given a precomputed dual-value table of length >= N+p."""
    p = A.shape[0]
    M = np.empty((p, p), dtype=A.dtype)
    M[0] = A[:, n]
    for r in range(1, p):
        M[r] = A[:, N + r]
    return _det(M)


def q_oracle(gen: GeneratorSequence, N: int, n: int, x,
             init: InitialConditionData, use_mp: bool = False):
    """Determinantal combination Q_{n,N}(x): p x p determinant whose first
    row holds the dual values at index n and whose remaining rows hold the
    dual values at indices N+1 .. N+p-1.  Scalar x; used as a slow
    independent oracle in tests."""
    A = eval_type_i(gen, N + gen.p, x if use_mp else float(x), init,
                    use_mp=use_mp)
    q = _q_from_table(A, N, n)
    return q if use_mp else float(q)


def cd_first(gen: GeneratorSequence, N: int, x, y):
    """Both sides of the mixed kernel identity pairing trailing-block
    polynomials at x with the monic family at y.

    Returns (sum_side, closed_side); the closed side is the divided
    difference of the characteristic polynomial, confluent when x == y.
    """
    R = eval_truncated(gen, N, x)
    B = eval_type_ii(gen, N, y)
    lhs = float(np.dot(R[1:N + 2], B[:N + 1]))
    if x == y:
        _, dB = eval_type_ii(gen, N, x, derivative=True)
        rhs = float(dB[N + 1])
    else:
        Bx = eval_type_ii(gen, N, x)
        rhs = float((Bx[N + 1] - B[N + 1]) / (x - y))
    return lhs, rhs


def cd_second(gen: GeneratorSequence, N: int, x, y,
              init: InitialConditionData, use_mp: bool = False):
    """Both sides of the determinantal kernel identity: the sum of
    Q_{n,N}(x) B_n(y) over n = 0..N against its two-term closed form
    scaled by the normalization constant h_N.

    The dual-value determinants cancel catastrophically in double
    precision once N reaches a few tens, so use_mp=True evaluates both
    sides in mpmath (still the same two independent routes) and returns
    floats of the exact comparison.
    """
    import mpmath
    from contextlib import nullcontext
    with mpmath.workdps(60) if use_mp else nullcontext():
        xx = mpmath.mpf(x) if use_mp else x
        B = eval_type_ii(gen, N, y, use_mp=use_mp)
        h = h_values(gen, N + 1, use_mp=use_mp)
        A = eval_type_i(gen, N + gen.p, xx, init, use_mp=use_mp)
        lhs = 0
        for n in range(N + 1):
            lhs = lhs + _q_from_table(A, N, n) * B[n]
        if x == y:
            Bx, dBx = eval_type_ii(gen, N, xx, derivative=True,
                                   use_mp=use_mp)
            rhs = (dBx[N + 1] * Bx[N] - dBx[N] * Bx[N + 1]) / h[N]
        else:
            Bx = eval_type_ii(gen, N, xx, use_mp=use_mp)
            rhs = (Bx[N + 1] * B[N] - Bx[N] * B[N + 1]) / (h[N] * (xx - y))
        return float(lhs), float(rhs)


def determinantal_identity(gen: GeneratorSequence, n: int, x,
                           init: InitialConditionData):
    """Both sides of B_n(x) = h_n det[ A^(a)_{n+r} ]_{r,a} for scalar x."""
    p = gen.p
    B = eval_type_ii(gen, n, float(x))
    h = h_values(gen, n + 1)
    A = eval_type_i(gen, n + p, float(x), init)
    M = np.empty((p, p))
    for r in range(p):
        M[r] = A[:, n + r]
    return float(B[n]), float(h[n] * np.linalg.det(M))
