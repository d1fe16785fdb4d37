"""Quadrature degree formulas, exactness and sharpness."""

import numpy as np
import pytest

from multihess import (GeneratorSequence, InvalidInputError, gauss_rule,
                       initial_conditions, minimal_truncation,
                       precision_degree, reference_moment, sharpness_scan)


def test_degree_formula_p1_classical():
    # one measure: NN nodes integrate exactly through degree 2 NN - 1
    for nn in range(1, 8):
        assert precision_degree(nn, 1, 1) == 2 * nn - 1


def test_degree_formula_p2_first_measure_values():
    # hand-evaluated: d = NN - 1 + ceil((NN + 1 - 1)/2)
    assert [precision_degree(nn, 2, 1) for nn in (3, 4, 5, 6)] == [4, 5, 7, 8]


def test_degree_formula_validation():
    with pytest.raises(InvalidInputError):
        precision_degree(3, 2, 3)
    with pytest.raises(InvalidInputError):
        precision_degree(0, 2, 1)


def test_minimal_truncation_reaches_order():
    for p in (1, 2, 3):
        for a in range(1, p + 1):
            for order in (0, 3, 7, 12):
                M = minimal_truncation(p, a, order)
                assert precision_degree(M + 1, p, a) >= order
                if M > p - 1:
                    assert precision_degree(M, p, a) < order


def test_rule_positive_weights_and_total_mass():
    g = GeneratorSequence.uniform(2, 0.5, 2.0, seed=40)
    ic = initial_conditions(g)
    for a in (1, 2):
        rule = gauss_rule(g, a, 6, init=ic)
        assert rule.weights.min() > 0
        assert rule.nodes.min() > 0
        assert rule.integrate_power(0) == pytest.approx(
            ic.nu_inv_T[0, a - 1], rel=1e-12)


def test_rule_exact_on_reference_moments():
    g = GeneratorSequence.uniform(3, 0.5, 2.0, seed=41)
    ic = initial_conditions(g)
    for a in (1, 2, 3):
        rule = gauss_rule(g, a, 5, init=ic)
        for n in range(rule.degree + 1):
            ref = reference_moment(g, a, n, init=ic)
            assert rule.integrate_power(n) == pytest.approx(
                ref, rel=1e-10, abs=1e-12)


def test_reference_moment_truncation_invariance():
    g = GeneratorSequence.uniform(2, 0.5, 2.0, seed=42)
    for n in (0, 4, 9):
        base = reference_moment(g, 1, n)
        bigger = reference_moment(g, 1, n, truncation=minimal_truncation(
            2, 1, n) + 4)
        assert base == pytest.approx(bigger, rel=1e-12)
    with pytest.raises(InvalidInputError):
        reference_moment(g, 1, 12, truncation=1)


def test_sharpness_scan_matches_formula():
    g = GeneratorSequence.uniform(2, 0.5, 2.0, seed=43)
    for a in (1, 2):
        for nn in (2, 3, 4):
            out = sharpness_scan(g, a, nn)
            assert out["exact_through"] == out["predicted_degree"]
            assert out["exact_through"] == precision_degree(nn, 2, a)
            assert out["remainder_past_degree"] > 0.0


@pytest.mark.parametrize("use_mp", [False, True])
def test_sharpness_scan_counts_nan_errors_as_failures(use_mp, monkeypatch):
    from multihess import quadrature
    real = quadrature.decompose

    def nan_tables(*args, **kwargs):
        dec = real(*args, **kwargs)
        with np.errstate(invalid="ignore"):
            dec.lams, dec.mu = dec.lams * np.nan, dec.mu * np.nan
        return dec

    monkeypatch.setattr(quadrature, "decompose", nan_tables)
    g = GeneratorSequence.uniform(2, 0.5, 2.0, seed=43)
    out = sharpness_scan(g, 1, 4, use_mp=use_mp)
    assert out["exact_through"] == -1
    assert np.isnan(out["remainder_past_degree"])


def test_integrate_callable():
    g = GeneratorSequence.uniform(1, 0.5, 2.0, seed=44)
    rule = gauss_rule(g, 1, 5)
    poly = rule.integrate(lambda x: 3 * x ** 2 - x + 1)
    direct = (3 * reference_moment(g, 1, 2) - reference_moment(g, 1, 1)
              + reference_moment(g, 1, 0))
    assert poly == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("p,a,nodes", [(1, 1, 14), (2, 2, 9), (3, 1, 10),
                                       (3, 3, 12)])
def test_exactness_profile_moments_match_reference_moment_bitwise(p, a,
                                                                  nodes):
    # one moment chain on the largest truncation gives every order the
    # bits of its own chain on the smallest exact truncation
    from multihess import exactness_profile
    g = GeneratorSequence.uniform(p, 0.5, 2.0, seed=40 + p)
    prof = exactness_profile(g, a, nodes, extra=3)
    rule = gauss_rule(g, a, nodes)
    assert sorted(prof["errors"]) == list(range(rule.degree + 4))
    for n, err in prof["errors"].items():
        ref = reference_moment(g, a, n)
        assert err == abs(rule.integrate_power(n) - ref) / max(1.0, abs(ref))


def test_extended_sharpness_scan_matches_per_order_chains():
    import mpmath
    from multihess.polynomials import _diagonals
    from multihess.spectral import decompose
    g = GeneratorSequence.uniform(2, 0.5, 2.0, seed=44)
    a, nodes, extra = 1, 9, 3
    ic = initial_conditions(g)
    out = sharpness_scan(g, a, nodes, init=ic, extra=extra, use_mp=True)
    dec = decompose(g, nodes - 1, init=ic, use_mp=True)
    first = None
    with dec.workprec():
        for n in range(out["predicted_degree"] + extra + 1):
            M = minimal_truncation(g.p, a, n)
            band = _diagonals(g, M, True)
            v = [mpmath.mpf(x) for x in ic.embedded_vector(a, M + 1)]
            for _ in range(n):   # row i of T v, over ascending columns
                v = [sum(band[i - k][k] * v[k]
                         for k in range(max(0, i - g.p), i + 1))
                     + (v[i + 1] if i + 1 <= M else 0) for i in range(M + 1)]
            got = np.sum(dec.mu[:, a - 1] * dec.lams ** n)
            rel = abs(got - v[0]) / max(mpmath.mpf(1), abs(v[0]))
            if rel > 1e-20:
                first = (n - 1, float(rel))
                break
    assert first is not None
    assert (out["exact_through"], out["remainder_past_degree"]) == first
    assert out["exact_through"] == out["predicted_degree"]


def test_extended_sharpness_scan_single_node():
    g = GeneratorSequence.uniform(1, 0.5, 2.0, seed=3)
    out = sharpness_scan(g, 1, 1, use_mp=True)
    assert out["exact_through"] == out["predicted_degree"] == 1
    assert out["remainder_past_degree"] > 0.0
