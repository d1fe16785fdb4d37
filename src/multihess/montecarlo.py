"""Monte Carlo cross-validation of chain probabilities.

Trials are driven by a counter-based scheme: every trial owns an
independent xorshift64* stream whose state is derived from (seed, trial
index), so the result is a pure function of the inputs — independent of
chunk size, execution order, or platform — and reruns are byte-identical.

A step counts the row-CDF entries <= u over a window of the row, exactly:
entries before the row's first nonzero (lo) are 0.0, always counted;
entries from its last nonzero (hi) to column n-2 repeat one value, as
adding 0.0 changes nothing; column n-1 is 1.0, never counted as u < 1.  So
the count is lo plus the comparisons over w = max(hi - lo) + 1 columns
from lo, the last weighted by the columns it stands for.  lo and hi come
from P, so any stochastic matrix works; the banded chains have w = p + 2.
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


def _cdf_window(P: np.ndarray):
    """(lo, cols, tail) of the windowed step: cols[k, i] is CDF column
    lo[i] + k of row i (1.0 past column n - 1) and tail[i] the number of
    columns the last window column stands for."""
    n = P.shape[0]
    cdf = np.cumsum(P, axis=1)
    cdf[:, -1] = 1.0
    nz = P != 0.0
    lo = nz.argmax(axis=1)
    w = int((n - 1 - nz[:, ::-1].argmax(axis=1) - lo).max()) + 1
    cols = np.take_along_axis(np.hstack((cdf, np.ones((n, w)))),
                              lo[:, None] + np.arange(w), axis=1).T.copy()
    return lo, cols, np.maximum(n - lo - w, 0)


def _step(window, where: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Next states: per trial, the count of row-CDF entries <= u."""
    lo, cols, tail = window
    nxt = lo[where]
    for k in range(len(cols) - 1):
        nxt += cols[k][where] <= u
    nxt += tail[where] * (cols[-1][where] <= u)
    return nxt


def simulate_chain(P: np.ndarray, start: int, steps: int, trials: int,
                   seed: int, chunk: int = 1 << 16) -> SimulationReport:
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
    window = _cdf_window(P)
    counts = np.zeros(n, dtype=np.int64)
    for base in range(0, trials, chunk):
        m = min(chunk, trials - base)
        rng = XorShift64Star(seed, m, stream_offset=base)
        where = np.full(m, start, dtype=np.intp)
        for _ in range(steps):
            where = _step(window, where, rng.next_float())
        counts += np.bincount(where, minlength=n)
    reference = np.linalg.matrix_power(P, steps)[start]
    freq = counts / trials
    with np.errstate(divide="ignore", invalid="ignore"):
        sd = np.sqrt(reference * (1.0 - reference) / trials)
        z = np.where(sd > 0.0, (freq - reference) / sd, 0.0)
    return SimulationReport(seed=seed, start=start, steps=steps,
                            trials=trials, counts=counts,
                            reference=reference, z_scores=z)
