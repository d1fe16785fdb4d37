"""Recurrence-based evaluation of the polynomial families attached to a
banded Hessenberg truncation.

All evaluators are vectorized over the evaluation points and accept either
float arrays or object arrays of mpmath numbers (select with use_mp).
Products put the array first: mpmath formats a whole object array on its
right for an error message it discards before numpy's multiply runs.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError
from .generator import GeneratorSequence
from .pbf import InitialConditionData, assemble_truncation


def _diagonals(gen: GeneratorSequence, order: int, use_mp: bool = False):
    """The entries of T^[order] the recurrences read: band[j][i] =
    T[i+j, i] for j = 0..p, as Python floats or mpf (the superdiagonal
    is 1 and every other entry 0)."""
    T = assemble_truncation(gen, order).dense
    band = [np.diagonal(T, -j).tolist() for j in range(gen.p + 1)]
    if use_mp:
        import mpmath
        band = [[mpmath.mpf(v) for v in d] for d in band]
    return band


def _as_points(x, use_mp: bool):
    if use_mp:
        import mpmath
        arr = np.array([mpmath.mpf(v) if not hasattr(v, "_mpf_") else v
                        for v in np.atleast_1d(x).ravel()], dtype=object)
        return arr, np.isscalar(x) or getattr(x, "ndim", 0) == 0
    arr = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    return arr, np.isscalar(x) or getattr(x, "ndim", 0) == 0


def _zeros(n, m, use_mp):
    if use_mp:
        import mpmath
        z = np.empty((n, m), dtype=object)
        z[:] = mpmath.mpf(0)
        return z
    return np.zeros((n, m))


def eval_type_ii(gen: GeneratorSequence, N: int, x, derivative: bool = False,
                 use_mp: bool = False):
    """Monic polynomials B_0 .. B_{N+1}; B_{N+1} is the truncation's
    characteristic polynomial.

    Returns an array of shape (N+2, len(x)) (and, with derivative=True,
    the elementwise derivative as a second array).
    """
    pts, scalar = _as_points(x, use_mp)
    d = _diagonals(gen, N, use_mp)
    p = gen.p
    B = _zeros(N + 2, pts.size, use_mp)
    B[0] = B[0] * 0 + 1 if use_mp else 1.0
    if derivative:
        dB = _zeros(N + 2, pts.size, use_mp)
    for n in range(N + 1):
        acc = (pts - d[0][n]) * B[n]
        for j in range(1, min(p, n) + 1):
            acc = acc - B[n - j] * d[j][n - j]
        B[n + 1] = acc
        if derivative:
            dacc = B[n] + (pts - d[0][n]) * dB[n]
            for j in range(1, min(p, n) + 1):
                dacc = dacc - dB[n - j] * d[j][n - j]
            dB[n + 1] = dacc
    if scalar:
        B = B[:, 0]
        if derivative:
            dB = dB[:, 0]
    return (B, dB) if derivative else B


def eval_truncated(gen: GeneratorSequence, N: int, x, derivative: bool = False,
                   use_mp: bool = False):
    """Characteristic polynomials of the trailing blocks of the truncation.

    R[k] is the determinant of x I minus the block on rows/columns k..N,
    for k = 0..N+1 (R[0] equals B_{N+1} and R[N+1] = 1), computed by the
    backward column-expansion recurrence.
    """
    pts, scalar = _as_points(x, use_mp)
    d = _diagonals(gen, N, use_mp)
    p = gen.p
    R = _zeros(N + p + 1, pts.size, use_mp)
    R[N + 1] = R[N + 1] * 0 + 1 if use_mp else 1.0
    if derivative:
        dR = _zeros(N + p + 1, pts.size, use_mp)
    for k in range(N, -1, -1):
        acc = (pts - d[0][k]) * R[k + 1]
        for j in range(1, p + 1):
            if k + j <= N:
                acc = acc - R[k + j + 1] * d[j][k]
        R[k] = acc
        if derivative:
            dacc = R[k + 1] + (pts - d[0][k]) * dR[k + 1]
            for j in range(1, p + 1):
                if k + j <= N:
                    dacc = dacc - dR[k + j + 1] * d[j][k]
            dR[k] = dacc
    R = R[:N + 2]
    if derivative:
        dR = dR[:N + 2]
    if scalar:
        R = R[:, 0]
        if derivative:
            dR = dR[:, 0]
    return (R, dR) if derivative else R


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
    A = _zeros(p * count, pts.size, use_mp).reshape(p, count, pts.size)
    nu = init.nu
    for n in range(p):
        for a in range(p):
            A[a, n] = A[a, n] * 0 + nu[n, a] if use_mp else nu[n, a]
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
    if use_mp:
        import mpmath
        h = np.empty(count, dtype=object)
        h[0] = mpmath.mpf(1)
    else:
        h = np.empty(count)
        h[0] = 1.0
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
    out = np.empty((p,) + rows.shape[1:], dtype=rows.dtype)
    for a in range(p):
        acc = rows[0] * W[0, a]
        for k in range(1, p):
            acc = acc + rows[k] * W[k, a]
        out[a] = acc
    return out


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
