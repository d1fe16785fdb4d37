"""Monte Carlo cross-validation of chain probabilities.

Trials are driven by a counter-based scheme: every trial owns an
independent xorshift64* stream whose state is derived from (seed, trial
index), so the result is a pure function of the inputs — independent of
chunk size, execution order, or platform — and reruns are byte-identical.

A step counts the row-CDF entries c <= u for u = k * 2**-53 exactly, with
k = next_u64() >> 11; as c * 2**53 is exact, c <= u exactly when
K = ceil(c * 2**53) <= k, K clipped at 2**53, which no k reaches (no c >= 1
is ever counted).  The count runs over a window of the row: entries before
its first nonzero (lo) are 0, always counted; from its last nonzero (hi)
to column n-2 they repeat one value; column n-1 is 1.  So it is lo plus the
comparisons over w = max(hi - lo) + 1 columns from lo, the last weighted by
the columns it stands for; any stochastic P works, the banded chains have
w = p + 2.  A next-state (guide) table (Chen and Asau 1974; Devroye 1986,
III.2.4) holds per state and bucket of the top 8 bits of k the count every
k of the bucket shares, or -1 where a K splits the bucket; a step is one
lookup, and the trials on a -1 (about 1% of them) take the exact count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .rng import XorShift64Star


@dataclass(frozen=True)
class SimulationReport:
    """Deterministic outcome of a chain simulation.

    counts[s] is the number of trials ending in state s after the given
    number of steps; reference holds the exact probabilities from the
    n-step matrix power, and z_scores the binomial normal deviates of the
    empirical frequencies against them.
    """

    seed: int
    start: int
    steps: int
    trials: int
    counts: np.ndarray
    reference: np.ndarray
    z_scores: np.ndarray

    def __post_init__(self):
        for a in (self.counts, self.reference, self.z_scores):
            a.setflags(write=False)

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / self.trials

    def max_abs_z(self) -> float:
        return float(np.abs(self.z_scores[self.reference > 0.0]).max())


_BITS = 8     # a table entry covers the draws k of one top-8-bit bucket
_CHUNK = 1 << 16    # trials stepped together; the counts do not depend on it


def _count(window, rows, k):
    """The count of row-CDF entries <= k * 2**-53 of the rows `rows`."""
    lo, K, tail = window
    nxt = lo[rows]
    for c in range(len(K) - 1):
        nxt = nxt + (K[c][rows] <= k)
    return nxt + tail[rows] * (K[-1][rows] <= k)


def _next_state_table(P: np.ndarray):
    """(table, window): table[(i << _BITS) | b] is the next state from i of
    every draw in bucket b, or -1 where a threshold K splits the bucket."""
    n = P.shape[0]
    cdf = np.cumsum(P, axis=1)
    cdf[:, -1] = 1.0
    nz = P != 0.0
    lo = nz.argmax(axis=1)
    w = int((n - 1 - nz[:, ::-1].argmax(axis=1) - lo).max()) + 1
    cols = np.take_along_axis(np.hstack((cdf, np.ones((n, w)))),
                              lo[:, None] + np.arange(w), axis=1).T
    K = np.minimum(np.ceil(cols * 2.0 ** 53), 2.0 ** 53).astype(np.int64)
    window = (lo, K, np.maximum(n - lo - w, 0))
    edges = np.arange(1 << _BITS, dtype=np.int64) << (53 - _BITS)
    first, last = (_count(window, np.arange(n)[:, None], edges + d)
                   for d in (0, (1 << 53 - _BITS) - 1))
    return np.where(first == last, first, -1).ravel(), window


def _table_step(table, window, where: np.ndarray, k: np.ndarray):
    """Next states of the trials at `where` on the draws k."""
    nxt = table.take((where << _BITS) | (k >> (53 - _BITS)))
    split = np.flatnonzero(nxt < 0)
    if split.size:
        nxt[split] = _count(window, where[split], k[split])
    return nxt


def simulate_chain(P: np.ndarray, start: int, steps: int, trials: int,
                   seed: int) -> SimulationReport:
    """Simulate `trials` independent paths of the chain P from `start`.

    Each step draws a uniform per trial and inverts the row CDF.  The
    reference probabilities come from a plain dense matrix power, a route
    independent of the spectral formulas.
    """
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    if P.shape != (n, n):
        raise InvalidInputError("transition matrix must be square")
    if not 0 <= start < n:
        raise InvalidInputError("start state out of range")
    if steps < 0 or trials <= 0:
        raise InvalidInputError("steps must be >= 0 and trials positive")
    if (not np.isfinite(P).all() or P.min() < 0.0
            or np.abs(P.sum(axis=1) - 1.0).max() > 1e-12):
        raise InvalidInputError("matrix is not stochastic to tolerance")
    table, window = _next_state_table(P)
    counts = np.zeros(n, dtype=np.int64)
    for base in range(0, trials, _CHUNK):
        m = min(_CHUNK, trials - base)
        rng = XorShift64Star(seed, m, stream_offset=base)
        where = np.full(m, start, dtype=np.intp)
        for _ in range(steps):
            k = (rng.next_u64() >> np.uint64(11)).view(np.int64)
            where = _table_step(table, window, where, k)
        counts += np.bincount(where, minlength=n)
    reference = np.linalg.matrix_power(P, steps)[start]
    freq = counts / trials
    with np.errstate(divide="ignore", invalid="ignore"):
        sd = np.sqrt(reference * (1.0 - reference) / trials)
        z = np.where(sd > 0.0, (freq - reference) / sd, 0.0)
    return SimulationReport(seed=seed, start=start, steps=steps,
                            trials=trials, counts=counts,
                            reference=reference, z_scores=z)
