"""Markov chains carried by the banded Hessenberg truncations.

A truncation T with largest eigenvalue lam_1 yields two stochastic
matrices by diagonal similarity: the row ("type II") chain conjugates
T / lam_1 by the monic-polynomial values at lam_1, and the column
("type I") chain conjugates the transpose by the trailing-block values.
Both share spectra, stationary vector and return-time structure, and both
admit spectral (Karlin-McGregor style) formulas for their n-step
probabilities via the node/weight tables.  The row chain splits into p
lower and one upper stochastic bidiagonal factor by one right-to-left
sweep of diagonal similarities over the factors of T (to_stochastic_factors).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NormalizationError
from .generator import GeneratorSequence
from .pbf import assemble_truncation, _bidiagonal_factors
from .polynomials import eval_truncated
from .spectral import (SpectralDecomposition, _gth_stationary, _monic_values,
                       _mp_matmul, _mp_polish, eigenvalues)


@dataclass(frozen=True)
class FiniteChain:
    """A finite stochastic matrix with its similarity data.

    P = scale(T / lam), where scale conjugates by diag(weights); `kind`
    records which polynomial family supplied the weights.
    """

    gen: GeneratorSequence
    N: int
    kind: str
    P: np.ndarray
    lam: float
    weights: np.ndarray

    def __post_init__(self):
        self.P.setflags(write=False)
        self.weights.setflags(write=False)


def _polished_top(gen: GeneratorSequence, N: int, start: float = None):
    """Largest truncation eigenvalue, Newton-polished in mpmath from the
    float start (by default the top of a fresh eigenvalues() solve).

    The row-sum identity of the chains evaluates the polynomial tables at
    this point; a double-precision eigenvalue leaves O(1e-7) stochasticity
    defects already around N = 40, so the similarity weights are always
    produced at extended precision.
    """
    if start is None:
        start = float(eigenvalues(gen, N)[0])
    return _mp_polish(gen, N, [start], dps=60)[0]


def finite_chain(gen: GeneratorSequence, N: int, kind: str = "type_ii",
                 lam=None) -> FiniteChain:
    """Stochastic matrix of the requested kind on states 0..N.

    lam is the 60-digit Perron root from _polished_top, used as is; by
    default it is computed here (a spectral solve and a polish).
    """
    import mpmath
    T = assemble_truncation(gen, N).dense
    with mpmath.workdps(60):
        lam_mp = _polished_top(gen, N) if lam is None else mpmath.mpf(lam)
        if kind == "type_ii":
            lam_mp, vm = _monic_values(gen, N, lam_mp)
        elif kind == "type_i":
            Rm = eval_truncated(gen, N, lam_mp, use_mp=True)
            vm = Rm[1:N + 2] / Rm[1]
            T = T.T
        else:
            raise InvalidInputError(f"unknown chain kind {kind!r}")
        if min(vm) <= 0:
            raise NormalizationError("similarity weights are not all positive")
        ratio = np.zeros_like(T)
        for i, j in zip(*np.nonzero(T)):        # P vanishes where T does
            ratio[i, j] = float(vm[j] / vm[i])
        lam1 = float(lam_mp)
    v = np.array([float(x) for x in vm])
    P = (T / lam1) * ratio
    return FiniteChain(gen=gen, N=N, kind=kind, P=P, lam=lam1, weights=v)


def semi_infinite_chain(gen: GeneratorSequence, size: int) -> np.ndarray:
    """Leading block of the semi-infinite row chain normalized at x = 1:
    the finite chain of order size - 1 at lam = 1.  Raises
    NormalizationError unless 1 lies at or above the top of the support
    (B_n(1) > 0 for every n in range).  The final row is truncated, the
    others are stochastic."""
    return finite_chain(gen, size - 1, lam=1).P


def km_power(dec: SpectralDecomposition, chain: FiniteChain, n: int) -> np.ndarray:
    """n-step transition probabilities from the spectral tables.

    Reconstructs P^n as the conjugated sum over nodes of
    (lam_k / lam_1)^n times the rank-one products of the right and left
    polynomial tables, without ever multiplying P by itself; extended
    tables contract exactly, each entry rounded once (_mp_matmul)."""
    if n < 0:
        raise InvalidInputError("step count must be >= 0")
    with dec.workprec():
        Ud = dec.U * (dec.lams / chain.lam) ** n
        core = _mp_matmul(Ud, dec.W) if dec.use_mp else Ud @ dec.W
        if chain.kind == "type_i":
            core = core.T
        v = chain.weights
        out = core * (v[None, :] / v[:, None])
        if dec.use_mp:
            out = np.array([[float(x) for x in row] for row in out])
    return out


def return_probability_gf(dec: SpectralDecomposition, l: int, s: float) -> float:
    """Generating function of the l -> l return probabilities at s.

    The diagonal n-step probability is a mixture of (lam_k / lam_1)^n
    with coefficients U[l, k] W[k, l]; the same value holds for both chain
    kinds because the diagonal is invariant under the conjugations.
    """
    with dec.workprec():
        lam1 = dec.lams[0]
        ratios = dec.lams / lam1
        if float(s * ratios.max()) >= 1.0:
            raise InvalidInputError("s is outside the disc of convergence")
        coeff = dec.U[l, :] * dec.W[:, l]
        return float(np.sum(coeff / (1.0 - s * ratios)))


def first_return_gf(dec: SpectralDecomposition, l: int, s: float) -> float:
    """First-return generating function F_ll(s) = 1 - 1 / sum_n s^n P^n_ll."""
    return 1.0 - 1.0 / return_probability_gf(dec, l, s)


def recurrence_diagnostic(dec: SpectralDecomposition, l: int = 0) -> dict:
    """Sample F_ll at s = 1 - 10^-m for m = 1..8; classify l.

    The state is recurrent exactly when F_ll(s) -> 1 as s -> 1, that is
    when the return generating function diverges there.  Only its top
    term pi_l / (1 - s), pi_l = U[l, 0] W[0, l], has a pole at s = 1, so l
    is recurrent exactly when that residue, the stationary mass at l, is
    positive.  The samples cannot decide it: 1 - F_ll(1 - eps) =
    1 / (pi_l / eps + terms bounded in s) starts to fall only once eps
    drops below pi_l, which at the edges of long chains lies far below
    the last sample's 1e-8.
    """
    ms = list(range(1, 9))
    values = [first_return_gf(dec, l, 1.0 - 10.0 ** (-m)) for m in ms]
    monotone = all(b >= a for a, b in zip(values, values[1:]))
    with dec.workprec():
        residue = float(dec.U[l, 0] * dec.W[0, l])
    return {"s_exponents": ms, "values": values, "monotone": monotone,
            "residue": residue, "recurrent": monotone and residue > 0.0}


def stationary_distribution(dec: SpectralDecomposition) -> np.ndarray:
    """Stationary vector shared by both chain kinds.

    Component n is the product of the right and left top-eigenvalue table
    entries; the confluent kernel identity makes the components sum to 1
    without renormalization.
    """
    with dec.workprec():
        return np.asarray(dec.U[:, 0] * dec.W[0, :], dtype=float)


def chain_stationary(chain: FiniteChain) -> np.ndarray:
    """Stationary vector of the chain by state reduction on its own P,
    accurate in every entry however small.  The type I matrix has one
    subdiagonal where the type II has one superdiagonal, so its states
    are reduced in reverse order."""
    P = chain.P if chain.kind == "type_ii" else chain.P[::-1, ::-1]
    pi = _gth_stationary(np.diag(P, 1), [np.diag(P, -j) for j in
                                         range(1, chain.gen.p + 1)])
    return pi if chain.kind == "type_ii" else pi[::-1]


def stationary_power_iteration(P: np.ndarray) -> np.ndarray:
    """Independent stationary vector by repeated left multiplication: at
    most 20000 steps, stopping once a step moves every entry by < 1e-14."""
    n = P.shape[0]
    x = np.full(n, 1.0 / n)
    for _ in range(20000):
        y = x @ P
        y /= y.sum()
        if np.abs(y - x).max() < 1e-14:
            return y
        x = y
    return x


@dataclass(frozen=True)
class StochasticFactorization:
    """Stochastic bidiagonal factorization of a finite row chain.

    P = Pi_1 ... Pi_p Upsilon where each Pi_a is lower bidiagonal
    stochastic, Upsilon is upper bidiagonal stochastic, and lam is the
    spectral normalization point carried along so the monic data can be
    recovered exactly.
    """

    p: int
    N: int
    lam: float
    pi_subdiags: tuple          # p arrays, each of length N
    pi_diags: tuple             # p arrays, each of length N + 1
    upsilon_diag: np.ndarray    # length N + 1
    upsilon_super: np.ndarray   # length N

    def factor(self, a: int) -> np.ndarray:
        """Dense Pi_a (1-based)."""
        return np.diag(self.pi_diags[a - 1]) + np.diag(self.pi_subdiags[a - 1], -1)

    def upsilon(self) -> np.ndarray:
        return np.diag(self.upsilon_diag) + np.diag(self.upsilon_super, 1)

    def product(self) -> np.ndarray:
        M = self.upsilon()
        for a in range(self.p, 0, -1):
            M = self.factor(a) @ M
        return M


def to_stochastic_factors(gen: GeneratorSequence, N: int,
                          lam: float = None) -> StochasticFactorization:
    """Split the row chain into stochastic bidiagonal factors.

    The row chain is P = A_1 ... A_{p+1} with A_1 = inv(V) L_1,
    A_a = L_a for a = 2..p and A_{p+1} = U V / lam, where V = diag(v)
    holds the monic values at lam.  One right-to-left sweep takes
    x_{p+1} = 1 and x_{a-1} = A_a x_a; then F_a = inv(diag(x_{a-1})) A_a
    diag(x_a) is row stochastic, with F_1 taking v in place of
    x_0 = P 1 = 1, and P = F_1 ... F_{p+1}: Pi_a = F_a and
    Upsilon = F_{p+1}.  With lam =
    None the truncation's largest eigenvalue is used (the finite chain);
    lam = 1 gives the semi-infinite normalization.  mpf(lam) is taken at
    60 digits, so the mpf that _polished_top returns passes through
    exactly and a caller holding it saves a spectral solve and a polish.
    """
    import mpmath
    p = gen.p
    lowers, u_diag = _bidiagonal_factors(gen, N)
    # the row-sum identities evaluate the monic family exactly at the
    # normalization point, so the point and the sweep are computed at
    # extended precision and only the final factors are floats
    with mpmath.workdps(60):
        lam_mp = _polished_top(gen, N) if lam is None else mpmath.mpf(lam)
        lam_mp, v = _monic_values(gen, N, lam_mp)
        if min(v) <= 0:
            raise NormalizationError("monic values at the normalization "
                                     "point must be positive")
        mp = lambda arr: np.array([mpmath.mpf(t) for t in arr], dtype=object)
        u = mp(u_diag)                               # U: unit superdiagonal
        x = np.append(u[:-1] * v[:-1] + v[1:], u[-1] * v[-1]) / lam_mp
        ups = (u * v / (x * lam_mp), v[1:] / (x[:-1] * lam_mp))
        pis = []
        for a in range(p, 0, -1):                    # x holds x_a
            sub = mp(lowers[a - 1])
            left = v if a == 1 else np.append(x[0], x[1:] + sub * x[:-1])
            pis.insert(0, (x / left, sub * x[:-1] / left[1:]))
            x = left
        return StochasticFactorization(
            p=p, N=N, lam=float(lam_mp),
            pi_subdiags=tuple(s.astype(float) for _, s in pis),
            pi_diags=tuple(d.astype(float) for d, _ in pis),
            upsilon_diag=ups[0].astype(float),
            upsilon_super=ups[1].astype(float))


def factors_to_alphas(fac: StochasticFactorization) -> np.ndarray:
    """Recover the generator values from the stochastic factors.

    Inverts the sweep of to_stochastic_factors in closed form: the
    per-state products of the factor diagonals give the chain
    superdiagonal, which rebuilds t = 1 / v; the sweep vectors x_a then
    unwind one by one.  No matrix factorization is needed.  Returns
    alpha_1 .. alpha_{1+(p+1)N}.
    """
    p, N, lam = fac.p, fac.N, fac.lam
    c = np.prod(np.vstack(fac.pi_diags), axis=0)
    p_super = c[:-1] * fac.upsilon_super
    t = np.empty(N + 1)
    t[0] = 1.0
    for i in range(N):
        t[i + 1] = t[i] / (lam * p_super[i])
    # 1 / x_a via cumulative products of the Pi diagonals
    d = np.empty((p, N + 1))                      # d[k-1] = 1 / x_{p+1-k}
    run = np.ones(N + 1)
    for a in range(1, p + 1):
        run = run * fac.pi_diags[a - 1]
        d[p - a] = t / run
    alphas = np.empty(1 + (p + 1) * N)
    u_diag = fac.upsilon_diag * t / d[0]          # entries of U / lam
    for i in range(N + 1):
        alphas[i * (p + 1)] = lam * u_diag[i]     # alpha_{1 + i(p+1)}
    sub1 = fac.pi_subdiags[0] * d[p - 1][:-1] / t[1:]
    for i in range(N):
        alphas[1 + i * (p + 1)] = sub1[i]         # alpha_{2 + i(p+1)}
    for a in range(2, p + 1):
        sub = fac.pi_subdiags[a - 1] * d[p - a][:-1] / d[p - a + 1][1:]
        for i in range(N):
            alphas[a + i * (p + 1)] = sub[i]      # alpha_{a+1+i(p+1)}
    return alphas
