"""Finite and semi-infinite chains, spectral transition probabilities,
stationary vectors and the stochastic factor bridge."""

import numpy as np
import pytest

from multihess import (GeneratorSequence, InvalidInputError, decompose,
                       factors_to_alphas, finite_chain, first_return_gf,
                       km_power, recurrence_diagnostic,
                       return_probability_gf, semi_infinite_chain,
                       stationary_distribution,
                       stationary_power_iteration, to_stochastic_factors)


def _chain_case(seed=50, p=2, N=12):
    return GeneratorSequence.uniform(p, 0.5, 2.0, seed=seed), N


def test_finite_chain_row_stochastic_both_kinds():
    g, N = _chain_case()
    for kind in ("type_ii", "type_i"):
        ch = finite_chain(g, N, kind=kind)
        assert ch.P.min() >= 0
        assert np.abs(ch.P.sum(axis=1) - 1.0).max() < 1e-13
        assert ch.P.shape == (N + 1, N + 1)


def test_finite_chain_band_structure():
    g, N = _chain_case(p=3)
    ch2 = finite_chain(g, N, kind="type_ii")
    ch1 = finite_chain(g, N, kind="type_i")
    # type-II chains step at most 1 up and p down; type-I the transpose
    assert np.all(np.triu(ch2.P, 2) == 0)
    assert np.all(np.tril(ch2.P, -(g.p + 1)) == 0)
    assert np.all(np.tril(ch1.P, -2) == 0)
    assert np.all(np.triu(ch1.P, g.p + 1) == 0)


def test_finite_chain_equals_dense_similarity():
    # Only the band entries of the ratio are formed; the dense ratio
    # multiplies exact zeros elsewhere, so P is the same bit for bit.
    import mpmath
    from multihess import assemble_truncation
    from multihess.markov import _polished_top
    from multihess.polynomials import eval_truncated, eval_type_ii
    g, N = _chain_case(seed=53, p=3, N=15)
    T = assemble_truncation(g, N).dense
    lam = _polished_top(g, N)
    with mpmath.workdps(60):
        R = eval_truncated(g, N, lam, use_mp=True)
        for kind, vm, M in (
                ("type_ii", eval_type_ii(g, N, lam, use_mp=True)[:N + 1], T),
                ("type_i", R[1:N + 2] / R[1], T.T)):
            ratio = np.array([[float(vm[j] / vm[i]) for j in range(N + 1)]
                              for i in range(N + 1)])
            want = (M / float(lam)) * ratio
            got = finite_chain(g, N, kind=kind, lam=lam).P
            assert got.tobytes() == want.tobytes()


def test_km_power_matches_matrix_power():
    g, N = _chain_case(seed=51)
    dec = decompose(g, N, use_mp=True)
    for kind in ("type_ii", "type_i"):
        ch = finite_chain(g, N, kind=kind)
        for n in (0, 1, 3, 8):
            direct = np.linalg.matrix_power(ch.P, n)
            spectral = km_power(dec, ch, n)
            assert np.abs(spectral - direct).max() < 1e-12
    with pytest.raises(InvalidInputError):
        km_power(dec, ch, -1)


def test_stationary_distribution_properties():
    g, N = _chain_case(seed=52)
    dec = decompose(g, N, use_mp=True)
    pi = stationary_distribution(dec)
    assert pi.min() > 0
    assert abs(pi.sum() - 1.0) < 1e-13
    for kind in ("type_ii", "type_i"):
        ch = finite_chain(g, N, kind=kind)
        assert np.abs(pi @ ch.P - pi).max() < 1e-12
        assert np.abs(stationary_power_iteration(ch.P) - pi).max() < 1e-10


def test_return_gf_monotone_and_recurrent():
    g, N = _chain_case(seed=53)
    dec = decompose(g, N, use_mp=True)
    vals = [first_return_gf(dec, 0, 1.0 - 10.0 ** (-m))
            for m in range(1, 9)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    out = recurrence_diagnostic(dec, 0)
    assert out["recurrent"] is True
    assert out["monotone"] is True
    with pytest.raises(InvalidInputError):
        return_probability_gf(dec, 0, 1.5)


def test_recurrent_at_tiny_stationary_mass():
    # pi_0 is about 1.47e-13, far below the last sample's 1 - s = 1e-8,
    # where the sampled first-return values still look transient
    g = GeneratorSequence.uniform(3, 0.5, 2.0, seed=7)
    dec = decompose(g, 30)
    out = recurrence_diagnostic(dec, 0)
    assert 0.0 < out["residue"] < 1e-12
    assert out["residue"] == stationary_distribution(dec)[0]
    assert out["values"][-1] < 0.5
    assert out["recurrent"] is True


def test_return_gf_series_consistency():
    # the generating function must equal the power series of the diagonal
    # n-step probabilities, summed far enough for a small s.
    g, N = _chain_case(seed=54, N=8)
    dec = decompose(g, N, use_mp=True)
    ch = finite_chain(g, N)
    s = 0.3
    series = sum(s ** n * np.linalg.matrix_power(ch.P, n)[2, 2]
                 for n in range(120))
    assert return_probability_gf(dec, 2, s) == pytest.approx(series,
                                                             rel=1e-12)


def test_semi_infinite_chain_rows():
    # the normalization point 1 must sit above the support, so the
    # parameters are kept small
    g = GeneratorSequence.uniform(2, 0.02, 0.08, seed=55)
    P = semi_infinite_chain(g, 20)
    assert P.min() >= 0
    # interior rows (not affected by the cut) are exactly stochastic
    assert np.abs(P.sum(axis=1)[:-g.p] - 1.0).max() < 1e-13


def test_semi_infinite_chain_rejects_interior_point():
    from multihess import NormalizationError
    g = GeneratorSequence.uniform(2, 0.5, 2.0, seed=55)
    with pytest.raises(NormalizationError):
        semi_infinite_chain(g, 20)


def test_stochastic_factors_are_stochastic():
    g = GeneratorSequence.uniform(3, 0.5, 2.0, seed=56)
    fac = to_stochastic_factors(g, 10)
    for a in range(1, 4):
        F = fac.factor(a)
        assert F.min() >= 0
        assert np.abs(F.sum(axis=1) - 1.0).max() < 1e-12
    Y = fac.upsilon()
    assert Y.min() >= 0
    assert np.abs(Y.sum(axis=1) - 1.0).max() < 1e-12


def test_factor_product_reproduces_chain():
    g = GeneratorSequence.uniform(2, 0.5, 2.0, seed=57)
    N = 10
    fac = to_stochastic_factors(g, N)
    ch = finite_chain(g, N, kind="type_ii")
    assert np.abs(fac.product() - ch.P).max() < 1e-12


def test_bridge_round_trip_alphas():
    for p, seed in ((1, 58), (2, 59), (3, 60)):
        g = GeneratorSequence.uniform(p, 0.5, 2.0, seed=seed)
        N = 9
        fac = to_stochastic_factors(g, N)
        rec = factors_to_alphas(fac)
        truth = np.array(g.alphas(g.required_alphas(N)))
        assert np.abs(rec - truth).max() <= 1e-10 * np.abs(truth).max()


def test_bridge_round_trip_factors():
    # start from the factors, recover parameters, rebuild the factors
    g = GeneratorSequence.uniform(2, 0.5, 2.0, seed=61)
    N = 8
    fac = to_stochastic_factors(g, N)
    rec = factors_to_alphas(fac)
    g2 = GeneratorSequence.from_list(2, list(rec))
    fac2 = to_stochastic_factors(g2, N, lam=fac.lam)
    for a in (1, 2):
        assert np.abs(fac2.factor(a) - fac.factor(a)).max() < 1e-10
    assert np.abs(fac2.upsilon() - fac.upsilon()).max() < 1e-10


@pytest.mark.parametrize("p,N", [(2, 20), (3, 25)])
@pytest.mark.parametrize("kind", ["type_ii", "type_i"])
def test_km_power_extended_equals_fdot_entries(p, N, kind):
    # the exact integer product gives every entry exactly as one
    # mpmath.fdot per entry did
    import mpmath
    g = GeneratorSequence.uniform(p, 0.5, 2.0, seed=60 + p)
    dec = decompose(g, N, use_mp=True)
    ch = finite_chain(g, N, kind=kind)
    v = ch.weights
    for n in (0, 1, 5):
        with dec.workprec():
            Ud = dec.U * (dec.lams / ch.lam) ** n
            core = np.array([[mpmath.fdot(r, c) for c in dec.W.T]
                             for r in Ud], dtype=object)
            if kind == "type_i":
                core = core.T
            want = np.array([[float(x) for x in row] for row in
                             core * (v[None, :] / v[:, None])])
        assert km_power(dec, ch, n).tobytes() == want.tobytes()
