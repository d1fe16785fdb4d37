"""Gaussian-type quadrature rules on the truncation spectra.

A rule with NN nodes for measure a integrates polynomials exactly up to
degree d_a = NN - 1 + ceil((NN + 1 - a) / p); the nodes are the truncation
eigenvalues and the weights are the (positive) Christoffel numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .generator import GeneratorSequence
from .pbf import InitialConditionData, initial_conditions
from .spectral import SpectralDecomposition, decompose, moments_matvec


def precision_degree(nodes: int, p: int, a: int) -> int:
    """Sharp degree of exactness of the rule with the given node count."""
    if not 1 <= a <= p:
        raise InvalidInputError(f"measure index must be in 1..{p}, got {a}")
    if nodes < 1:
        raise InvalidInputError("node count must be positive")
    return nodes - 1 + math.ceil((nodes + 1 - a) / p)


def minimal_truncation(p: int, a: int, order: int) -> int:
    """Smallest truncation order M whose (M+1)-node rule reaches the
    given polynomial order exactly."""
    M = p - 1
    while precision_degree(M + 1, p, a) < order:
        M += 1
    return M


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes, weights and sharp exactness degree for one measure."""

    a: int
    nodes: np.ndarray
    weights: np.ndarray
    degree: int

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def size(self) -> int:
        return self.nodes.size

    def integrate_power(self, n: int) -> float:
        return float(np.dot(self.weights, self.nodes ** n))

    def integrate(self, f) -> float:
        return float(np.dot(self.weights, f(self.nodes)))


def gauss_rule(gen: GeneratorSequence, a: int, nodes: int,
               init: InitialConditionData = None,
               dec: SpectralDecomposition = None) -> QuadratureRule:
    """Multiple-measure Gaussian rule for measure a with the given node
    count, read off the spectral decomposition of the truncation."""
    if nodes < gen.p:
        raise InvalidInputError(
            f"a rule for {gen.p} measures needs at least {gen.p} nodes")
    if dec is None:
        dec = decompose(gen, nodes - 1, init=init)
    elif dec.N != nodes - 1:
        raise InvalidInputError("decomposition size does not match node count")
    return QuadratureRule(a=a, nodes=dec.lams.astype(float),
                          weights=dec.mu[:, a - 1].astype(float),
                          degree=precision_degree(nodes, gen.p, a))


def reference_moment(gen: GeneratorSequence, a: int, n: int,
                     init: InitialConditionData = None,
                     truncation: int = None) -> float:
    """Exact n-th moment of measure a by banded matrix powers.

    Computed on the smallest truncation certified exact for order n (or a
    caller-chosen larger one; the value is invariant in exact arithmetic).
    """
    if init is None:
        init = initial_conditions(gen)
    M = minimal_truncation(gen.p, a, n) if truncation is None else truncation
    if precision_degree(M + 1, gen.p, a) < n:
        raise InvalidInputError("requested truncation is below the exactness order")
    return float(moments_matvec(gen, M, n, init)[n, a - 1])


def sharpness_scan(gen: GeneratorSequence, a: int, nodes: int,
                   init: InitialConditionData = None,
                   tol: float = None, extra: int = 3,
                   use_mp: bool = False) -> dict:
    """Empirical degree of exactness of the rule for measure a.

    Scans power integrands upward and reports exact_through, the largest
    order below the first relative error exceeding tol, together with the
    remainder at the first failing order.  For a correct rule
    exact_through equals the predicted degree and the remainder at
    degree + 1 is strictly positive.

    Past ten or so nodes the true remainder at degree + 1 drops below
    double-precision resolution, so use_mp runs both the rule and the
    reference moments at extended precision (default tol 1e-20 there,
    1e-9 in double).
    """
    if init is None:
        init = initial_conditions(gen)
    if tol is None:
        tol = 1e-20 if use_mp else 1e-9
    if not use_mp:
        prof = exactness_profile(gen, a, nodes, init=init, extra=extra)
        errors = prof["errors"]
        fails = [n for n, e in errors.items() if e > tol] + [len(errors)]
        return {"a": a, "nodes": nodes, "predicted_degree": prof["degree"],
                "exact_through": fails[0] - 1,
                "remainder_past_degree": errors.get(fails[0], 0.0)}
    import mpmath
    from .polynomials import _diagonals
    dec = decompose(gen, nodes - 1, init=init, use_mp=True)
    degree = precision_degree(nodes, gen.p, a)
    exact_through = -1
    first_remainder = 0.0
    M = minimal_truncation(gen.p, a, degree + extra)   # one moment chain
    with dec.workprec():
        band = _diagonals(gen, M, True)
        v = [mpmath.mpf(x) for x in init.embedded_vector(a, M + 1)]
        for n in range(degree + extra + 1):
            if n:
                v = _band_matvec(band, v)
            got = np.sum(dec.mu[:, a - 1] * dec.lams ** n)
            rel = abs(got - v[0]) / max(mpmath.mpf(1), abs(v[0]))
            if rel > tol:
                first_remainder = float(rel)
                break
            exact_through = n
    return {"a": a, "nodes": nodes, "predicted_degree": degree,
            "exact_through": exact_through,
            "remainder_past_degree": first_remainder}


def _band_matvec(band, v) -> list:
    """T v from the band of T (band[j][i] = T[i+j, i], unit
    superdiagonal), each row summed over ascending columns as a dense
    product sums it."""
    p, n = len(band) - 1, len(v)
    return [sum(band[i - k][k] * v[k] for k in range(max(0, i - p), i + 1))
            + (v[i + 1] if i + 1 < n else 0) for i in range(n)]


def exactness_profile(gen: GeneratorSequence, a: int, nodes: int,
                      init: InitialConditionData = None,
                      extra: int = 2,
                      dec: SpectralDecomposition = None) -> dict:
    """Relative quadrature errors for power integrands through degree
    d_a + extra; used to confirm the stated degree is attained and sharp.
    A decomposition of order nodes - 1 passed as dec is reused.  One
    moment chain serves every order: the entries its truncation adds to
    the smallest exact one of an order never reach the first component."""
    if init is None:
        init = initial_conditions(gen)
    rule = gauss_rule(gen, a, nodes, init=init, dec=dec)
    top = rule.degree + extra
    refs = moments_matvec(gen, minimal_truncation(gen.p, a, top), top, init)
    errors = {n: abs(rule.integrate_power(n) - ref) / max(1.0, abs(ref))
              for n, ref in enumerate(refs[:, a - 1].tolist())}
    return {"degree": rule.degree, "errors": errors}
