"""Banded Hessenberg truncations built from positive bidiagonal factors."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import (InvalidGeneratorError, InvalidInputError,
                     NumericRangeError, PreconditionError)
from .generator import GeneratorSequence


@dataclass(frozen=True)
class BandedHessenberg:
    """Order-N truncation of a banded lower Hessenberg matrix.

    The matrix is (N+1)x(N+1) with unit superdiagonal, p subdiagonals and
    zero entries elsewhere.  `pbf` records whether the instance was built
    as a product of positive bidiagonal factors, which certifies the
    oscillatory property at any size.
    """

    p: int
    N: int
    dense: np.ndarray
    pbf: bool = False

    def __post_init__(self):
        self.dense.setflags(write=False)


def _bidiagonal_factors(gen: GeneratorSequence, N: int):
    """Subdiagonals of L_1..L_p and the diagonal of U for order N."""
    need = gen.required_alphas(N)
    alphas = gen.alphas(need)
    if alphas.min() <= 0.0:
        bad = int(np.argmin(alphas)) + 1
        raise InvalidGeneratorError(f"alpha_{bad} = {alphas[bad - 1]} is not positive")
    a = np.concatenate(([np.nan], alphas))  # 1-based view
    step = gen.p + 1
    lowers = [a[k + 1: k + 1 + step * N: step] for k in range(1, gen.p + 1)]
    u_diag = a[1: 2 + step * N: step]
    return lowers, u_diag


def _lower_apply(sub: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Product (I + diag(sub, -1)) @ M without forming the factor."""
    out = M.copy()
    out[1:, :] += sub[:, None] * M[:-1, :]
    return out


def band_diagonals(gen: GeneratorSequence, N: int, exact: bool = False):
    """The p+1 band diagonals band[j][i] = T[i+j, i] of T^[N] = L_1 ... L_p U
    in O(pN) (the superdiagonal is 1, every other entry 0), each entry by
    the float operations of the dense product, so it keeps its bits.
    With exact=True they run on Python integers and give (band, e) with
    T[i+j, i] = band[j][i] 2^(e (j+1)) exactly: every alpha is an integer
    times 2^e, and an entry of band j sums products of j+1 alphas."""
    if N < 0:
        raise InvalidInputError("truncation order must be >= 0")
    lowers, u_diag = _bidiagonal_factors(gen, N)
    dtype = object if exact else float
    if exact:
        ratios = [[v.as_integer_ratio() for v in arr.tolist()]
                  for arr in (*lowers, u_diag)]
        t = max(d for r in ratios for _, d in r).bit_length() - 1
        *lowers, u_diag = [[(n << t) // d for n, d in r] for r in ratios]
    rows = np.arange(N + 1) + np.arange(gen.p + 1)[:, None]    # i + j
    band = np.zeros(rows.shape, dtype=dtype)
    band[0] = u_diag
    above = np.ones((1, N + 1), dtype=dtype)                   # T[i-1, i]
    above[0, 0] = 0
    at_row = np.zeros(N + gen.p + 2, dtype=dtype)
    for sub in reversed(lowers):
        # I + diag(sub, -1) adds sub[i+j-1] T[i+j-1, i] to T[i+j, i]
        at_row[1:N + 1] = sub
        band = band + at_row[rows] * np.concatenate((above, band[:-1]))
    if not (exact or np.all(np.isfinite(band))):
        raise NumericRangeError("overflow while multiplying bidiagonal factors")
    band = [band[j, :max(N + 1 - j, 0)] for j in range(gen.p + 1)]
    return (band, -t) if exact else band


# Kept cached because the benchmark tracer reads and clears cache_info();
# the band readers on the request path call band_diagonals instead.
@lru_cache(maxsize=64)
def assemble_truncation(gen: GeneratorSequence, N: int) -> BandedHessenberg:
    """Dense T^[N] = L_1 ... L_p U, placed from band_diagonals."""
    band = band_diagonals(gen, N)
    M = np.diag(np.ones(N), 1)
    for j, d in enumerate(band):
        M[np.arange(j, j + d.size), np.arange(d.size)] = d
    return BandedHessenberg(p=gen.p, N=N, dense=M, pbf=True)


def entry(gen: GeneratorSequence, i: int, j: int) -> float:
    """Entry T_{i,j} of the semi-infinite matrix.

    Identical arithmetic path as assemble_truncation: leading principal
    submatrices of the factor product agree with the product of the
    truncated factors for all indices inside the truncation.
    """
    if i < 0 or j < 0:
        raise InvalidInputError("matrix indices must be nonnegative")
    if j > i + 1 or j < i - gen.p:
        return 0.0
    if j == i + 1:
        return 1.0
    return float(assemble_truncation(gen, max(i, j)).dense[i, j])


def darboux(gen: GeneratorSequence, N: int, k: int) -> BandedHessenberg:
    """Cyclic permutation of the factor product: L_{k+1}..L_p U L_1..L_k."""
    if not 1 <= k <= gen.p:
        raise PreconditionError(f"darboux shift must satisfy 1 <= k <= p, got {k}")
    lowers, u_diag = _bidiagonal_factors(gen, N)
    U = np.diag(u_diag) + np.diag(np.ones(N), 1)
    M = np.eye(N + 1)
    for sub in reversed(lowers[:k]):
        M = _lower_apply(sub, M)
    M = U @ M
    for sub in reversed(lowers[k:]):
        M = _lower_apply(sub, M)
    if not np.all(np.isfinite(M)):
        raise NumericRangeError("overflow while multiplying bidiagonal factors")
    return BandedHessenberg(p=gen.p, N=N, dense=M, pbf=True)


def oscillatory_check(M):
    """Decide whether a square matrix is oscillatory.

    Up to order 7 the totally-nonnegative property is checked by
    enumerating every minor; together with nonsingularity and positive
    first sub/superdiagonals this is the full criterion.  Above that the
    minor scan is infeasible, and the result is True only with
    bidiagonal-factorization provenance (M.pbf); otherwise None is
    returned to mark the outcome as indeterminate (distinct from False).
    """
    A = M.dense if isinstance(M, BandedHessenberg) else np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidInputError("oscillatory_check needs a square matrix")
    n = A.shape[0]
    scale = max(1.0, float(np.abs(A).max()))
    tol = 1e-10 * scale

    if n > 1:
        if np.diagonal(A, 1).min() <= 0.0 or np.diagonal(A, -1).min() <= 0.0:
            return False
    if abs(np.linalg.det(A)) <= tol ** n:
        return False
    if n > 7:
        return True if getattr(M, "pbf", False) else None
    idx = range(n)
    for k in range(1, n + 1):
        det_tol = tol * max(1.0, scale ** (k - 1))
        for rows in combinations(idx, k):
            Ar = A[np.array(rows)]
            for cols in combinations(idx, k):
                if np.linalg.det(Ar[:, np.array(cols)]) < -det_tol:
                    return False
    return True


@dataclass(frozen=True)
class InitialConditionData:
    """Initial-condition package for the dual (type I) recursion.

    nu_inv_T is the product of the alpha-derived unitriangular matrix with
    the user matrix C; nu is its inverse transpose, whose columns seed the
    dual recursion.  top_row caches the first row of nu_inv_T, the exact
    per-measure total masses.
    """

    nu: np.ndarray
    nu_inv_T: np.ndarray

    def __post_init__(self):
        for a in (self.nu, self.nu_inv_T):
            a.setflags(write=False)

    @property
    def p(self) -> int:
        return self.nu.shape[0]

    @property
    def top_row(self) -> np.ndarray:
        return self.nu_inv_T[0]

    def embedded_vector(self, a: int, size: int) -> np.ndarray:
        """Column a (1-based) of nu_inv_T zero-padded to the given size."""
        if not 1 <= a <= self.p:
            raise InvalidInputError(f"measure index must be in 1..{self.p}, got {a}")
        e = np.zeros(size)
        m = min(self.p, size)
        e[:m] = self.nu_inv_T[:m, a - 1]
        return e


def script_L(gen: GeneratorSequence) -> np.ndarray:
    """Nonnegative upper unitriangular matrix built from the alphas.

    Column k (k >= 2) is L_1 .. L_{k-1} e_1 at order p-1, normalized by
    d_k = alpha_k alpha_{k+p} ... alpha_{k+(k-2)p} so the last nonzero
    entry is exactly 1.
    """
    return _script_L(gen, float)


def _script_L(gen: GeneratorSequence, num) -> np.ndarray:
    """script_L with entries of type num, float or mpmath.mpf.  Its sums
    and products take nonnegative terms only, so every entry keeps the
    relative precision of num."""
    p = gen.p
    L = np.array([[num(float(i == j)) for j in range(p)] for i in range(p)])
    if p == 1:
        return L
    lowers, _ = _bidiagonal_factors(gen, p - 1)
    for k in range(2, p + 1):
        v = L[:, 0].copy()                      # e_1
        for j in range(k - 2, -1, -1):  # apply L_{k-1} first
            v[1:] += lowers[j] * v[:-1]
        d_k = np.prod([num(gen.alpha(k + i * p)) for i in range(k - 1)])
        L[:, k - 1] = v / d_k
    return L


def initial_conditions(gen: GeneratorSequence, C: np.ndarray = None) -> InitialConditionData:
    """Compute the initial-condition data for a nonnegative unitriangular C."""
    p = gen.p
    if C is None:
        C = np.eye(p)
    C = np.asarray(C, dtype=float)
    if C.shape != (p, p):
        raise InvalidInputError(f"C must be {p}x{p}, got {C.shape}")
    if not np.allclose(np.diagonal(C), 1.0):
        raise InvalidInputError("C must be unitriangular (unit diagonal)")
    if np.any(np.tril(C, -1) != 0.0):
        raise InvalidInputError("C must be upper triangular")
    if C.min() < 0.0:
        raise InvalidInputError("C must be entrywise nonnegative")
    nu_inv_T = script_L(gen) @ C
    # nu = (L C)^{-T}, by back-substitution on the unitriangular transpose.
    nu = np.linalg.solve(nu_inv_T.T, np.eye(p))
    return InitialConditionData(nu=nu, nu_inv_T=nu_inv_T)
