"""Positive generator sequences defining a bidiagonal factorization.

A generator is the pair (p, alpha) where p is the number of lower
bidiagonal factors and alpha_1, alpha_2, ... are strictly positive reals.
Indexing of alpha is 1-based throughout, matching the factor layout
  (L_k)_{j+1,j} = alpha_{k+1+j(p+1)},   U_{j,j} = alpha_{1+j(p+1)}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, InvalidGeneratorError, InvalidInputError
from .rng import uniform_stream

_KINDS = ("list", "constant", "periodic", "uniform")


@dataclass(frozen=True)
class GeneratorSequence:
    """Rule producing the alpha sequence of a positive bidiagonal factorization.

    Supported rules: an explicit finite list, a constant, a periodic cycle,
    and a seeded uniform draw on [low, high) with 0 < low.  Instances are
    immutable and hashable, so evaluation caches may key on them.
    """

    p: int
    kind: str
    values: tuple = ()
    low: float = 0.0
    high: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.p < 1:
            raise InvalidInputError(f"p must be a positive integer, got {self.p}")
        if self.kind not in _KINDS:
            raise InvalidInputError(f"unknown alpha rule kind {self.kind!r}")
        if self.kind in ("list", "periodic"):
            if not self.values:
                raise InvalidGeneratorError("alpha rule needs at least one value")
            if min(self.values) <= 0.0:
                raise InvalidGeneratorError("all alpha values must be > 0")
        elif self.kind == "constant":
            if len(self.values) != 1 or self.values[0] <= 0.0:
                raise InvalidGeneratorError("constant rule needs a single value > 0")
        else:  # uniform
            if not (0.0 < self.low < self.high):
                raise InvalidGeneratorError(
                    "uniform rule needs 0 < low < high, got "
                    f"[{self.low}, {self.high})")

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_list(p, values):
        return GeneratorSequence(p=p, kind="list", values=tuple(float(v) for v in values))

    @staticmethod
    def constant(p, value):
        return GeneratorSequence(p=p, kind="constant", values=(float(value),))

    @staticmethod
    def periodic(p, values):
        return GeneratorSequence(p=p, kind="periodic", values=tuple(float(v) for v in values))

    @staticmethod
    def uniform(p, low, high, seed):
        return GeneratorSequence(p=p, kind="uniform", low=float(low),
                                 high=float(high), seed=int(seed))

    # -- evaluation ---------------------------------------------------

    def alphas(self, count: int) -> np.ndarray:
        """Return alpha_1 .. alpha_count as a float64 array."""
        if count < 0:
            raise InvalidInputError("count must be nonnegative")
        if self.kind == "list":
            if count > len(self.values):
                raise InsufficientDataError(
                    f"generator provides {len(self.values)} alphas, {count} required")
            return np.asarray(self.values[:count], dtype=float)
        if self.kind == "constant":
            return np.full(count, self.values[0])
        if self.kind == "periodic":
            reps = -(-count // len(self.values))
            return np.tile(np.asarray(self.values), reps)[:count]
        return uniform_stream(self.seed, count, self.low, self.high)

    def alpha(self, i: int) -> float:
        """alpha_i with 1-based index i."""
        if i < 1:
            raise InvalidInputError(f"alpha index is 1-based, got {i}")
        return float(self.alphas(i)[-1])

    def required_alphas(self, order: int) -> int:
        """Alphas consumed by the truncation of the given order."""
        return 1 + (self.p + 1) * order

    # -- JSON interchange ----------------------------------------------

    def to_json_dict(self) -> dict:
        spec = {"kind": self.kind}
        if self.kind == "constant":
            spec["value"] = self.values[0]
        elif self.kind in ("list", "periodic"):
            spec["values"] = list(self.values)
        else:
            spec.update(low=self.low, high=self.high, seed=self.seed)
        return {"p": self.p, "alphas": spec}


def generator_from_json_dict(doc: dict) -> GeneratorSequence:
    """Build a GeneratorSequence from {"p": int, "alphas": {...}}."""
    try:
        p = int(doc["p"])
        spec = doc["alphas"]
        kind = spec["kind"]
    except (KeyError, TypeError) as exc:
        raise InvalidInputError(f"generator document missing field: {exc}") from exc
    if kind == "constant":
        return GeneratorSequence.constant(p, spec["value"])
    if kind == "list":
        return GeneratorSequence.from_list(p, spec["values"])
    if kind == "periodic":
        return GeneratorSequence.periodic(p, spec["values"])
    if kind == "uniform":
        return GeneratorSequence.uniform(p, spec["low"], spec["high"], spec.get("seed", 0))
    raise InvalidInputError(f"unknown alpha rule kind {kind!r}")


def generator_from_json(text: str) -> GeneratorSequence:
    return generator_from_json_dict(json.loads(text))
