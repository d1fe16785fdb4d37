"""Output checks computed apart from the program.

Every reference value comes from the benchmark's own alphas: T is the
dense product L_1 ... L_p U of the bidiagonal factors, moments are rows
of its powers, the Perron root is certified through the similarity of the
chain to T, and matrix powers of a checked chain are numpy's.  A check returns a list of
problems; an empty list means the output passed.

Tolerances are relative to the scale of the compared quantity and were
set from the largest errors seen over many seeds (see README), with at
least two orders of magnitude of margin.
"""

from __future__ import annotations

import copy
import json
import math

import numpy as np

from workloads import Request, quadrature_degree

TRACE_RTOL = 1e-9        # sum of eigenvalues (and squares) against traces
MASS_RTOL = 1e-7         # total mass of each measure
MOMENT_RTOL = 1e-7       # spectral moments of measure 1 against T^n
QUAD_RTOL = 1e-6         # quadrature moments (rules reach degree 39)
MOMENT_ORDER = 6         # spectrum: moments of measure 1 up to this power
WEIGHT_ROUNDOFF = 1e-12  # weights may dip this far below 0 (relative)
CHAIN_TOL = 1e-12        # row sums, factor products, matrix powers
SIMILARITY_RTOL = 1e-9   # P_ii = T_ii / lam and the off-diagonal products
STATIONARY_TOL = 1e-9    # pi P = pi and sum(pi) = 1
Z_LIMIT = 6.0            # Monte Carlo deviation, in standard deviations
Z_MIN_EXPECTED = 10.0    # states expected fewer times than this are pooled


def _rel(got, want):
    return abs(got - want) / max(1.0, abs(want))


def _measure_vector(req: Request, a: int, size: int) -> np.ndarray:
    """Initial vector of measure a: L_1 .. L_{a-1} e_0 / d_a, zero-padded,
    with d_a = alpha_a alpha_{a+p} ... alpha_{a+(a-2)p}."""
    gen = req.gen
    lowers, _ = gen.factors(size - 1)
    v = np.zeros(size)
    v[0] = 1.0
    for Lk in reversed(lowers[:a - 1]):
        v = Lk @ v
    d = math.prod(gen.alpha(a + i * gen.p) for i in range(a - 1))
    return v / d


def _moments(req: Request, a: int, top: int) -> np.ndarray:
    """Moments 0..top of measure a: e_0^T T^n v_a, with T large enough
    that the leading rows are those of the semi-infinite matrix."""
    size = max(top + 1, req.gen.p)
    T = req.gen.truncation(size - 1)
    v = _measure_vector(req, a, size)
    row = np.zeros(size)
    row[0] = 1.0
    out = np.empty(top + 1)
    for n in range(top + 1):
        out[n] = row @ v
        row = row @ T
    return out


def check_spectrum(req: Request, doc: dict, precision: str) -> list:
    bad = []
    N, p = req.order, req.gen.p
    lams = np.asarray(doc["eigenvalues"], dtype=float)
    mu = np.asarray(doc["weights"], dtype=float)
    if doc.get("precision") != precision:
        bad.append(f"precision {doc.get('precision')!r}")
    if lams.shape != (N + 1,) or mu.shape != (N + 1, p):
        return bad + [f"shapes {lams.shape} {mu.shape}"]
    if lams.min() <= 0.0 or np.any(np.diff(lams) >= 0.0):
        bad.append("eigenvalues not positive and strictly decreasing")
    T = req.gen.truncation(N)
    if _rel(lams.sum(), np.trace(T)) > TRACE_RTOL:
        bad.append(f"sum of eigenvalues {lams.sum()!r} != tr T "
                   f"{np.trace(T)!r}")
    tr2 = np.trace(T @ T)
    if _rel((lams ** 2).sum(), tr2) > TRACE_RTOL:
        bad.append("sum of squared eigenvalues != tr T^2")
    if mu.min() < -WEIGHT_ROUNDOFF * np.abs(mu).max():
        bad.append(f"negative weight {mu.min()!r}")
    for a in range(1, p + 1):
        d = math.prod(req.gen.alpha(a + i * p) for i in range(a - 1))
        if _rel(mu[:, a - 1].sum(), 1.0 / d) > MASS_RTOL:
            bad.append(f"total mass of measure {a}")
        if _rel(doc["total_masses"][a - 1], 1.0 / d) > MASS_RTOL:
            bad.append(f"reported total mass of measure {a}")
    top = min(MOMENT_ORDER, 2 * N)
    Tn = np.eye(N + 1)
    for n in range(top + 1):
        got = float(np.dot(mu[:, 0], lams ** n))
        if _rel(got, Tn[0, 0]) > MOMENT_RTOL:
            bad.append(f"moment {n} of measure 1: {got!r} != {Tn[0, 0]!r}")
            break
        Tn = Tn @ T
    return bad


def check_quadrature(req: Request, doc: dict) -> list:
    bad = []
    p, a, n = req.gen.p, req.measure, req.nodes
    deg = quadrature_degree(n, p, a)
    if doc.get("degree") != deg:
        bad.append(f"degree {doc.get('degree')} != {deg}")
    x = np.asarray(doc["nodes"], dtype=float)
    w = np.asarray(doc["weights"], dtype=float)
    if x.shape != (n,) or w.shape != (n,):
        return bad + ["rule size"]
    if x.min() <= 0.0 or np.any(np.diff(x) >= 0.0):
        bad.append("nodes not positive and strictly decreasing")
    if w.min() < -WEIGHT_ROUNDOFF * np.abs(w).max():
        bad.append(f"negative weight {w.min()!r}")
    ref = _moments(req, a, deg)
    for k in range(deg + 1):
        if _rel(float(np.dot(w, x ** k)), ref[k]) > QUAD_RTOL:
            bad.append(f"moment {k} of measure {a} not reproduced")
            break
    return bad


def check_verify(req: Request, doc: dict) -> list:
    if doc.get("ok") is not True or doc.get("failures"):
        return [f"verify failed: {doc.get('failures')}"]
    return []


def _band_ok(P: np.ndarray, p: int, kind: str) -> bool:
    n = P.shape[0]
    i, j = np.indices((n, n))
    if kind == "type_ii":
        band = (j <= i + 1) & (j >= i - p)
    else:
        band = (i <= j + 1) & (i >= j - p)
    return bool(np.all(P[~band] == 0.0) and np.all(P[band] > 0.0))


def check_chain(req: Request, doc: dict) -> list:
    """Everything but the recurrence flag, which decides failure.

    P must be S / lam conjugated by a positive diagonal, with S = T for the
    row chain and T^T for the column chain: P_ij = S_ij v_j / (lam v_i),
    where the superdiagonal of P fixes v.  Being stochastic, P then gives
    S v = lam v with v > 0, so lam is the Perron root, the top eigenvalue
    of T.  (numpy's dense eigenvalues of these nonnormal matrices are off
    by up to ~1e-8 relative, so they cannot serve as the reference.)
    """
    bad = []
    N, p = req.order, req.gen.p
    kind = req.kind
    P = np.asarray(doc["transition_matrix"], dtype=float)
    if P.shape != (N + 1, N + 1) or doc.get("kind") != kind:
        return [f"shape {P.shape} or kind {doc.get('kind')!r}"]
    if np.abs(P.sum(axis=1) - 1.0).max() > CHAIN_TOL:
        bad.append("rows are not stochastic")
    if not _band_ok(P, p, kind):
        return bad + ["band layout or sign"]
    T = req.gen.truncation(N)
    S = T if kind == "type_ii" else T.T
    lam = float(doc["lam"])
    if np.abs(np.diag(P) - np.diag(T) / lam).max() > SIMILARITY_RTOL:
        bad.append("P_ii != T_ii / lam")
    off = np.diag(P, 1) * np.diag(P, -1)
    want = np.diag(T, 1) * np.diag(T, -1) / lam ** 2
    if np.abs(off - want).max() > SIMILARITY_RTOL * max(1.0, want.max()):
        bad.append("P_{i,i+1} P_{i+1,i} != T_{i,i+1} T_{i+1,i} / lam^2")
    logv = np.concatenate(([0.0], np.cumsum(
        np.log(lam * np.diag(P, 1) / np.diag(S, 1)))))
    band = S != 0.0
    i, j = np.nonzero(band)
    want = S[i, j] * np.exp(logv[j] - logv[i]) / lam
    if np.abs(P[i, j] / want - 1.0).max() > SIMILARITY_RTOL:
        bad.append("P is not a diagonal similarity of T / lam")
    pi = np.asarray(doc["stationary"], dtype=float)
    if pi.shape != (N + 1,):
        return bad + ["stationary shape"]
    if abs(pi.sum() - 1.0) > STATIONARY_TOL:
        bad.append("stationary vector does not sum to 1")
    if np.abs(pi @ P - pi).max() > STATIONARY_TOL:
        bad.append("pi P != pi")
    if doc["recurrence"]["state"] != req.state:
        bad.append("recurrence state")
    return bad


def parse_factors(text: str):
    """Stochastic factors from the CSV: ({name: dense matrix}, p)."""
    lines = text.strip().splitlines()
    head = dict(f.split("=") for f in lines[0][1:].split()[1:])
    n = int(head["N"]) + 1
    mats = {}
    for line in lines[2:]:
        name, i, j, v = line.split(",")
        mats.setdefault(name, np.zeros((n, n)))[int(i), int(j)] = float(v)
    return mats, int(head["p"])


def check_factors(req: Request, text: str, P: np.ndarray) -> list:
    """The factors of the row chain: positive, stochastic, bidiagonal, and
    their product is the checked type II matrix P."""
    bad = []
    mats, p = parse_factors(text)
    names = [f"Pi_{a}" for a in range(1, req.gen.p + 1)] + ["Upsilon"]
    if p != req.gen.p or sorted(mats) != sorted(names):
        return [f"factor names {sorted(mats)}"]
    n = req.order + 1
    i, j = np.indices((n, n))
    prod = np.eye(n)
    for name in names:
        F = mats[name]
        band = (j == i) | ((j == i - 1) if name != "Upsilon" else (j == i + 1))
        if np.any(F[~band] != 0.0) or np.any(F[band] <= 0.0):
            bad.append(f"{name} is not a positive bidiagonal matrix")
        if np.abs(F.sum(axis=1) - 1.0).max() > CHAIN_TOL:
            bad.append(f"{name} is not stochastic")
        prod = prod @ F
    if np.abs(prod - P).max() > CHAIN_TOL:
        bad.append("product of the factors is not P")
    return bad


def check_simulate(req: Request, doc: dict, P: np.ndarray) -> list:
    bad = []
    counts = np.asarray(doc["counts"], dtype=np.int64)
    trials, steps, start = doc["trials"], doc["steps"], doc["start"]
    if counts.shape != (req.order + 1,) or counts.min() < 0:
        return ["counts shape or sign"]
    if int(counts.sum()) != trials:
        bad.append("counts do not sum to the number of trials")
    ref = np.linalg.matrix_power(P, steps)[start]
    if np.abs(np.asarray(doc["reference"], dtype=float) - ref).max() \
            > CHAIN_TOL:
        bad.append("reference row != row of P^steps")
    # Deviations of the counts, recomputed: states expected often enough
    # one by one, the rarely visited ones pooled into one binomial.
    expected = ref * trials
    often = expected >= Z_MIN_EXPECTED
    z = [(counts[often] - expected[often])
         / np.sqrt(expected[often] * (1.0 - ref[often]))]
    pooled = ref[~often].sum()
    if pooled > 0.0:
        z.append(np.array([(counts[~often].sum() - pooled * trials)
                           / math.sqrt(pooled * trials * (1.0 - pooled))]))
    elif counts[~often].sum() > 0:
        bad.append("counts on states of zero probability")
    if np.abs(np.concatenate(z)).max() > Z_LIMIT:
        bad.append("Monte Carlo counts deviate from P^steps")
    return bad


def _row_chains(requests: list, results: list) -> dict:
    """The type II matrix P of each chain_service generator, from its
    `chain` request; factor and simulate outputs are checked against it."""
    return {req.group: np.asarray(json.loads(out)["transition_matrix"],
                                  dtype=float)
            for req, (code, out) in zip(requests, results)
            if req.command == "chain" and not req.csv and code == 0}


def check_all(requests: list, results: list, precision: str):
    """Check every output.  Returns (problems, failed) where failed counts
    the chain requests that call their finite chain transient."""
    problems, failed = [], 0
    chain_P = _row_chains(requests, results)
    for idx, (req, (code, out)) in enumerate(zip(requests, results)):
        if code != 0:
            problems.append((idx, f"exit code {code}"))
            continue
        doc = json.loads(out)
        # A finite chain is recurrent: a request whose diagnostic says
        # otherwise failed, but every other check still applies to it.
        if req.command == "chain" and not doc["recurrence"]["recurrent"]:
            failed += 1
        problems += [(idx, b) for b in run_check(req, doc, precision,
                                                  chain_P)]
    return problems, failed


def run_check(req: Request, doc: dict, precision: str, chain_P: dict) -> list:
    if doc.get("command") != req.command:
        return [f"command {doc.get('command')!r}"]
    if req.command == "spectrum":
        return check_spectrum(req, doc, precision)
    if req.command == "quadrature":
        return check_quadrature(req, doc)
    if req.command == "verify":
        return check_verify(req, doc)
    P = chain_P.get(req.group)
    if P is None:
        return ["no checked chain for this generator"]
    if req.command == "simulate":
        return check_simulate(req, doc, P)
    bad = check_chain(req, doc)
    if req.csv:
        with open(req.csv) as fh:
            bad += check_factors(req, fh.read(), P)
    return bad


# -- self-test: every check must reject a corrupted output ------------------

def _corruptions(command: str):
    """(label, function that corrupts a parsed output in place)."""

    def bump(key, i=0, factor=1.0 + 1e-4):
        def f(doc):
            doc[key][i] *= factor
        return f

    if command == "spectrum":
        def swap(doc):
            e = doc["eigenvalues"]
            e[0], e[1] = e[1], e[0]

        def neg_weight(doc):
            doc["weights"][-1][0] = -abs(doc["weights"][-1][0]) - 1e-3

        def shift_weights(doc):
            w = doc["weights"]
            w[0][0] += 1e-4
            w[-1][0] -= 1e-4

        return [("eigenvalue order", swap), ("eigenvalue value",
                bump("eigenvalues", 1)), ("negative weight", neg_weight),
                ("moment", shift_weights),
                ("total mass", bump("total_masses", 0))]
    if command == "quadrature":
        def degree(doc):
            doc["degree"] += 1

        # Nodes near the top of the spectrum carry weights of 1e-18 and the
        # heaviest weights sit near 0, so the node corrupted is the one
        # that contributes most to the first moment.
        def node(doc):
            x, w = np.array(doc["nodes"]), np.array(doc["weights"])
            doc["nodes"][int(np.argmax(x * w))] *= 1.0 + 1e-4

        def weight(doc):
            w = doc["weights"]
            w[int(np.argmax(w))] *= 1.0 + 1e-4
        return [("degree", degree), ("node", node), ("weight", weight)]
    if command == "verify":
        def fail(doc):
            doc["ok"] = False
        return [("ok flag", fail)]
    if command == "simulate":
        def move(doc):
            c = doc["counts"]
            k = int(np.argmax(c))
            c[k] -= 1000
            c[(k + 1) % len(c)] += 1000

        def lose(doc):
            doc["counts"][0] += 1

        def ref(doc):
            doc["reference"][0] += 1e-9
        return [("moved counts", move), ("count total", lose),
                ("reference", ref)]

    def row(doc):
        P = doc["transition_matrix"]
        P[1][1] *= 1.0 + 1e-9

    def similar(doc):
        P = doc["transition_matrix"]
        d = P[2][2] * 1e-6
        P[2][2] -= d
        P[2][3] += d

    def lam(doc):
        doc["lam"] *= 1.0 + 1e-6

    def pi(doc):
        s = doc["stationary"]
        s[0] += 1e-6
        s[1] -= 1e-6

    def band(doc):
        P = doc["transition_matrix"]
        n = len(P)
        d = P[0][0] * 1e-3
        P[0][0] -= d
        P[0][n - 1] += d
    return [("row sum", row), ("similarity", similar), ("lam", lam),
            ("stationary", pi), ("band", band)]


def _corrupt_factors(text: str) -> list:
    """The factor CSV with its largest Pi_1 entry scaled, and negated."""
    lines = text.splitlines()
    k = max((k for k, line in enumerate(lines) if line.startswith("Pi_1,")),
            key=lambda k: float(lines[k].split(",")[3]))
    name, i, j, v = lines[k].split(",")
    out = []
    for label, value in (("factor entry", float(v) * (1 + 1e-6)),
                         ("factor sign", -float(v))):
        bad = lines.copy()
        bad[k] = f"{name},{i},{j},{value!r}"
        out.append((label, "\n".join(bad) + "\n"))
    return out


def self_test(requests: list, results: list, precision: str) -> list:
    """Corrupt the first passing output of each command and return the
    corruptions a check let through (empty when every one is caught)."""
    chain_P = _row_chains(requests, results)
    missed, seen = [], set()
    for req, (code, out) in zip(requests, results):
        key = (req.command, bool(req.csv))
        if code != 0 or key in seen:
            continue
        doc = json.loads(out)
        if run_check(req, doc, precision, chain_P):
            continue
        seen.add(key)
        for label, corrupt in _corruptions(req.command):
            bad = copy.deepcopy(doc)
            corrupt(bad)
            if not run_check(req, bad, precision, chain_P):
                missed.append(f"{req.command}: {label}")
        if req.csv:
            with open(req.csv) as fh:
                text = fh.read()
            for label, bad_text in _corrupt_factors(text):
                if not check_factors(req, bad_text, chain_P[req.group]):
                    missed.append(f"factors: {label}")
    want = {(r.command, bool(r.csv)) for r in requests}
    missed += [f"{c}: no passing output to corrupt" for c, _ in want - seen]
    return missed
