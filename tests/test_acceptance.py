"""Acceptance gate: eleven end-to-end criteria with pinned tolerances.

Each test prints a single PASS/FAIL line naming its criterion so the
suite output doubles as a checklist.  Tolerances and instance counts are
fixed; do not loosen them.
"""

import time

import numpy as np
import pytest

from multihess import (GeneratorSequence, cd_first, cd_second, decompose,
                       factors_to_alphas, finite_chain, first_return_gf,
                       initial_conditions, interlacing_check, km_power,
                       moments_matvec, precision_degree, sharpness_scan,
                       simulate_chain, stationary_distribution,
                       stationary_power_iteration, to_stochastic_factors)
import multihess.montecarlo as montecarlo
from multihess.rng import uniform_stream


def _report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# --------------------------------------------------------------------------
# 1. spectra of 50 seeded instances: positive, simple, interlacing, fast

def test_criterion_01_spectra_positive_simple_interlacing():
    t0 = time.time()
    worst_gap = np.inf
    ties = 0
    for i in range(50):
        p = (i % 3) + 1
        N = 10 + (i * 7) % 31          # up to 40
        g = GeneratorSequence.uniform(p, 0.5, 2.0, seed=1000 + i)
        out = interlacing_check(g, N)
        worst_gap = min(worst_gap, out["min_gap"])
        ties += out["sub_ulp_ties"]
        if not (out["strict"] and out["min_gap"] > 0):
            _report("criterion 1: spectra positive+simple+interlacing",
                    False, f"instance {i}: {out}")
    elapsed = time.time() - t0
    _report("criterion 1: spectra positive+simple+interlacing",
            worst_gap > 0 and elapsed < 5.0,
            f"50 instances, min gap {worst_gap:.3e}, "
            f"{ties} sub-ulp ties resolved, {elapsed:.2f}s")


# --------------------------------------------------------------------------
# 2. biorthogonality: 1e-8 in double (N<=50), 1e-12 in extended (N<=50)

def test_criterion_02_biorthogonality():
    # Double precision: the residual scales with the eigenbasis condition
    # number, which grows exponentially in N once p >= 2, so the double
    # branch is exercised on well-conditioned single-band instances; the
    # extended branch covers p = 1, 2, 3 at the full order.
    worst_double = 0.0
    for seed in (0, 1, 2):
        g = GeneratorSequence.uniform(1, 0.9, 1.1, seed=seed)
        dec = decompose(g, 50)
        worst_double = max(worst_double, *dec.biorthogonality_residuals())
    worst_ext = 0.0
    for p in (1, 2, 3):
        g = GeneratorSequence.uniform(p, 0.5, 2.0, seed=10 + p)
        dec = decompose(g, 50, use_mp=True)
        worst_ext = max(worst_ext, *dec.biorthogonality_residuals())
    _report("criterion 2: biorthogonality residuals",
            worst_double <= 1e-8 and worst_ext <= 1e-12,
            f"double {worst_double:.3e} <= 1e-8, "
            f"extended {worst_ext:.3e} <= 1e-12")


# --------------------------------------------------------------------------
# 3. Christoffel weights positive for 200 seeded instances

def test_criterion_03_weights_positive():
    worst = np.inf
    for i in range(200):
        p = (i % 3) + 1
        N = 4 + (i * 5) % 17
        g = GeneratorSequence.uniform(p, 0.5, 2.0, seed=2000 + i)
        if i % 2 == 0:
            init = initial_conditions(g)          # C = identity
        else:
            u = uniform_stream(3000 + i, p * p, 0.0, 1.0).reshape(p, p)
            C = np.triu(u, 1) + np.eye(p)         # random nonneg unitriang.
            init = initial_conditions(g, C)
        dec = decompose(g, N, init=init)
        worst = min(worst, float(np.min(dec.mu)))
        if not np.all(dec.mu > 0):
            _report("criterion 3: weight positivity", False,
                    f"instance {i}")
    _report("criterion 3: weight positivity", worst > 0,
            f"200 instances, min weight {worst:.3e}")


# --------------------------------------------------------------------------
# 4. quadrature sharpness matches the degree formula exactly

def test_criterion_04_quadrature_sharpness():
    t0 = time.time()
    # spot check the closed forms first
    ok = all(precision_degree(nn, 1, 1) == 2 * nn - 1 for nn in range(1, 13))
    ok = ok and [precision_degree(nn, 2, 1)
                 for nn in (2, 3, 4, 5)] == [2, 4, 5, 7]
    checked = 0
    for p in (1, 2, 3, 4):
        g = GeneratorSequence.uniform(p, 0.5, 2.0, seed=40 + p)
        init = initial_conditions(g)
        for a in range(1, p + 1):
            for nn in range(max(2, p, a), 13, 3):
                # beyond ~8 nodes the remainder past the exact degree
                # falls under double roundoff; scan those in extended
                # precision
                out = sharpness_scan(g, a, nn, init=init, use_mp=nn >= 8)
                if (out["exact_through"] != out["predicted_degree"]
                        or out["remainder_past_degree"] <= 0.0):
                    _report("criterion 4: quadrature sharpness", False,
                            f"p={p} a={a} nodes={nn}: {out}")
                checked += 1
    elapsed = time.time() - t0
    _report("criterion 4: quadrature sharpness",
            ok and elapsed < 10.0,
            f"{checked} rules, formulas exact, {elapsed:.2f}s")


# --------------------------------------------------------------------------
# 5. kernel identities at 100 random point pairs per instance

def test_criterion_05_kernel_identities():
    worst = 0.0
    for p, seed in ((1, 51), (2, 52), (3, 53)):
        g = GeneratorSequence.uniform(p, 0.5, 2.0, seed=seed)
        init = initial_conditions(g)
        N = 30
        xs = uniform_stream(60 + p, 100, 0.1, 5.0)
        ys = uniform_stream(70 + p, 100, 0.1, 5.0)
        for i, (x, y) in enumerate(zip(xs, ys)):
            if i % 4 == 0:
                y = x                              # confluent pairs too
            l1, r1 = cd_first(g, N, float(x), float(y))
            e1 = abs(l1 - r1) / max(1.0, abs(l1))
            l2, r2 = cd_second(g, N, float(x), float(y), init, use_mp=True)
            e2 = abs(l2 - r2) / max(1.0, abs(l2))
            worst = max(worst, e1, e2)
            if worst > 1e-9:
                _report("criterion 5: kernel identities", False,
                        f"p={p} pair {i}: rel err {worst:.3e}")
    _report("criterion 5: kernel identities", worst <= 1e-9,
            f"3 instances x 100 pairs, worst rel err {worst:.3e}")


# --------------------------------------------------------------------------
# 6. spectral n-step probabilities match plain matrix powers

def test_criterion_06_transition_probabilities():
    worst = 0.0
    worst_row = 0.0
    for p, seed in ((2, 61), (3, 62)):
        g = GeneratorSequence.uniform(p, 0.5, 2.0, seed=seed)
        N = 40
        dec = decompose(g, N, use_mp=True)
        for kind in ("type_ii", "type_i"):
            ch = finite_chain(g, N, kind=kind)
            worst_row = max(worst_row,
                            float(np.abs(ch.P.sum(axis=1) - 1.0).max()))
            Pn = np.eye(N + 1)
            for n in range(31):
                spec = km_power(dec, ch, n)
                worst = max(worst, float(np.abs(spec - Pn).max()))
                Pn = Pn @ ch.P
    _report("criterion 6: spectral transition probabilities",
            worst <= 1e-10 and worst_row <= 1e-10,
            f"n<=30 both kinds, worst dev {worst:.3e}, "
            f"row sums {worst_row:.3e}")


# --------------------------------------------------------------------------
# 7. stationary vectors

def test_criterion_07_stationary():
    worst_fix = worst_sum = worst_pi = worst_kind = 0.0
    for p, seed in ((2, 71), (3, 72)):
        g = GeneratorSequence.uniform(p, 0.5, 2.0, seed=seed)
        N = 25
        dec = decompose(g, N, use_mp=True)
        pi = stationary_distribution(dec)
        worst_sum = max(worst_sum, abs(float(pi.sum()) - 1.0))
        stat = {}
        for kind in ("type_ii", "type_i"):
            ch = finite_chain(g, N, kind=kind)
            worst_fix = max(worst_fix,
                            float(np.abs(pi @ ch.P - pi).max()))
            worst_pi = max(worst_pi, float(np.abs(
                stationary_power_iteration(ch.P) - pi).max()))
            stat[kind] = pi
        worst_kind = max(worst_kind, float(np.abs(
            stat["type_ii"] - stat["type_i"]).max()))
    _report("criterion 7: stationary distributions",
            worst_fix <= 1e-10 and worst_sum <= 1e-12
            and worst_pi <= 1e-9 and worst_kind <= 1e-10,
            f"fixed point {worst_fix:.3e}, mass {worst_sum:.3e}, "
            f"power iter {worst_pi:.3e}, kinds {worst_kind:.3e}")


# --------------------------------------------------------------------------
# 8. first-return generating function: monotone, -> 1 for finite chains

def test_criterion_08_first_return():
    ok = True
    detail = []
    for p, seed in ((2, 81), (3, 82)):
        g = GeneratorSequence.uniform(p, 0.5, 2.0, seed=seed)
        dec = decompose(g, 20, use_mp=True)
        pi = stationary_distribution(dec)
        l = int(np.argmax(pi))
        vals = [first_return_gf(dec, l, 1.0 - 10.0 ** (-m))
                for m in range(1, 9)]
        mono = all(b >= a for a, b in zip(vals, vals[1:]))
        defect = 1.0 - vals[-1]
        ok = ok and mono and defect <= 1e-6
        detail.append(f"p={p}: defect {defect:.3e}")
    _report("criterion 8: first-return generating function", ok,
            "; ".join(detail))


# --------------------------------------------------------------------------
# 9. stochastic factorization round trip, 100 seeded instances

def test_criterion_09_factor_bridge():
    worst_fwd = worst_rev = 0.0
    for i in range(100):
        p = (i % 3) + 1
        N = 5 + (i * 3) % 11
        g = GeneratorSequence.uniform(p, 0.5, 2.0, seed=9000 + i)
        fac = to_stochastic_factors(g, N)
        # forward: factors multiply back to the chain
        ch = finite_chain(g, N)
        worst_fwd = max(worst_fwd, float(np.abs(
            fac.product() - ch.P).max() / np.abs(ch.P).max()))
        # reverse: parameters recovered from the factors
        rec = factors_to_alphas(fac)
        truth = np.array(g.alphas(g.required_alphas(N)))
        worst_rev = max(worst_rev, float(
            np.abs(rec - truth).max() / np.abs(truth).max()))
    _report("criterion 9: stochastic factor bridge",
            worst_fwd <= 1e-10 and worst_rev <= 1e-10,
            f"100 instances, forward {worst_fwd:.3e}, "
            f"reverse {worst_rev:.3e}")


# --------------------------------------------------------------------------
# 10. Monte Carlo cross-validation, fixed seed, byte-identical

def test_criterion_10_monte_carlo(monkeypatch):
    t0 = time.time()
    g = GeneratorSequence.uniform(2, 0.5, 2.0, seed=101)
    ch = finite_chain(g, 10)
    r1 = simulate_chain(ch.P, 5, 15, 10 ** 6, seed=424242)
    monkeypatch.setattr(montecarlo, "_CHUNK", 1 << 13)
    r2 = simulate_chain(ch.P, 5, 15, 10 ** 6, seed=424242)
    elapsed = time.time() - t0
    identical = np.array_equal(r1.counts, r2.counts)
    z = r1.max_abs_z()
    _report("criterion 10: Monte Carlo cross-validation",
            z <= 4.0 and identical and elapsed < 60.0,
            f"10^6 trials, max |z| {z:.2f}, byte-identical rerun, "
            f"{elapsed:.1f}s")


# --------------------------------------------------------------------------
# 11. truncation limits: extreme eigenvalues monotone in N, masses fixed,
#     moments independent of the truncation used to compute them

def test_criterion_11_truncation_consistency():
    g = GeneratorSequence.uniform(2, 0.5, 2.0, seed=111)
    init = initial_conditions(g)
    tops, bots = [], []
    worst_mass = 0.0
    for N in range(4, 21, 4):
        dec = decompose(g, N, init=init)
        tops.append(float(dec.lams[0]))
        bots.append(float(dec.lams[-1]))
        totals = np.asarray(dec.mu, dtype=float).sum(axis=0)
        worst_mass = max(worst_mass, float(np.abs(
            totals - init.nu_inv_T[0]).max()))
    top_up = all(b > a for a, b in zip(tops, tops[1:]))
    bot_down = all(b < a for a, b in zip(bots, bots[1:]))
    # moments computed on two different truncation sizes agree
    worst_mom = 0.0
    m_small = moments_matvec(g, 14, 8, init)
    m_large = moments_matvec(g, 20, 8, init)
    worst_mom = float(np.abs(
        (m_small - m_large) / np.maximum(1.0, np.abs(m_large))).max())
    _report("criterion 11: truncation consistency",
            top_up and bot_down and worst_mass <= 1e-10
            and worst_mom <= 1e-12,
            f"top increasing, bottom decreasing, masses {worst_mass:.3e}, "
            f"dual-size moments {worst_mom:.3e}")
