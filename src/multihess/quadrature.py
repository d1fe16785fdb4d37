"""Gaussian-type quadrature rules on the truncation spectra.

A rule with NN nodes for measure a integrates polynomials exactly up to
degree d_a = NN - 1 + ceil((NN + 1 - a) / p); the nodes are the truncation
eigenvalues and the weights are the (positive) Christoffel numbers.

The checks of that degree compare the rule on the powers x^n with the
band moment chain (spectral._moment_errors); in double both sides are
the moments of T / 2^s, 2^s near the geometric mean of the alphas, so a
large T does not overflow them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .generator import GeneratorSequence
from .pbf import InitialConditionData
from .spectral import (SpectralDecomposition, _moment_errors, decompose,
                       moments_matvec)


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

    def integrate_power(self, n: int) -> float:
        return float(np.dot(self.weights, self.nodes ** n))

    def integrate(self, f) -> float:
        return float(np.dot(self.weights, f(self.nodes)))


def gauss_rule(gen: GeneratorSequence, a: int, nodes: int,
               init: InitialConditionData = None,
               dec: SpectralDecomposition = None) -> QuadratureRule:
    """Multiple-measure Gaussian rule for measure a with the given node
    count, read off the spectral decomposition of the truncation."""
    dec = _rule_decomposition(gen, nodes, init, dec)
    return QuadratureRule(a=a, nodes=dec.lams.astype(float),
                          weights=dec.mu[:, a - 1].astype(float),
                          degree=precision_degree(nodes, gen.p, a))


def _rule_decomposition(gen: GeneratorSequence, nodes: int, init, dec,
                        use_mp: bool = False) -> SpectralDecomposition:
    """dec checked against the node count, or a new one when it is None."""
    if nodes < gen.p:
        raise InvalidInputError(
            f"a rule for {gen.p} measures needs at least {gen.p} nodes")
    if dec is None:
        return decompose(gen, nodes - 1, init=init, use_mp=use_mp)
    if dec.N != nodes - 1:
        raise InvalidInputError("decomposition size does not match node count")
    return dec


def reference_moment(gen: GeneratorSequence, a: int, n: int,
                     init: InitialConditionData = None,
                     truncation: int = None) -> float:
    """Exact n-th moment of measure a by banded matrix powers.

    Computed on the smallest truncation certified exact for order n (or a
    caller-chosen larger one; the value is invariant in exact arithmetic).
    """
    M = minimal_truncation(gen.p, a, n) if truncation is None else truncation
    if precision_degree(M + 1, gen.p, a) < n:
        raise InvalidInputError("requested truncation is below the exactness order")
    return float(moments_matvec(gen, M, n, init)[n, a - 1])


def sharpness_scan(gen: GeneratorSequence, a: int, nodes: int,
                   init: InitialConditionData = None, extra: int = 3,
                   use_mp: bool = False) -> dict:
    """Empirical degree of exactness of the rule for measure a.

    Scans power integrands upward and reports exact_through, the largest
    order below the first relative error above the tolerance (or NaN),
    together with the remainder at the first failing order.  For a
    correct rule exact_through equals the predicted degree and the
    remainder at degree + 1 is strictly positive.

    Past ten or so nodes the true remainder at degree + 1 drops below
    double-precision resolution, so use_mp runs both the rule and the
    reference moments at extended precision (tolerance 1e-20 there, 1e-9
    in double).
    """
    dec = _rule_decomposition(gen, nodes, init, None, use_mp)
    degree = precision_degree(nodes, gen.p, a)
    top, tol = degree + extra, 1e-20 if use_mp else 1e-9
    errors = _moment_errors(dec, a, top, minimal_truncation(gen.p, a, top),
                            use_mp)
    first = next((n for n, e in enumerate(errors) if not e <= tol), top + 1)
    errors.append(0.0)              # the remainder when every order passes
    return {"a": a, "nodes": nodes, "predicted_degree": degree,
            "exact_through": first - 1,
            "remainder_past_degree": float(errors[first])}


def exactness_profile(gen: GeneratorSequence, a: int, nodes: int,
                      init: InitialConditionData = None,
                      extra: int = 2,
                      dec: SpectralDecomposition = None) -> dict:
    """Relative quadrature errors for power integrands through degree
    d_a + extra; used to confirm the stated degree is attained and sharp.
    A decomposition of order nodes - 1 passed as dec is reused; its float
    tables and one moment chain, scaled as the module docstring says,
    give every error, relative to max(1, |moment|).  One chain serves
    every order: the entries its truncation adds to the smallest exact
    one of an order never reach the first component."""
    dec = _rule_decomposition(gen, nodes, init, dec)
    degree = precision_degree(nodes, gen.p, a)
    top = degree + extra
    errors = _moment_errors(dec, a, top, minimal_truncation(gen.p, a, top))
    return {"degree": degree, "errors": dict(enumerate(errors))}
