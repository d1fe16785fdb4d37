"""Request lists of the benchmark workloads.

A run is a whole number of passes.  Every pass holds the same request
shapes (command, p, order, node count) whatever the seed; the seed only
draws the alphas of the fresh generators, the order of the requests
inside a pass and the Monte Carlo seeds.  Each generator is written as a
``list`` rule, so the program sees nothing but these generated inputs.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

ALPHA_LOW, ALPHA_HIGH = 0.5, 2.0
SIM_TRIALS = 100_000
SIM_STEPS = 12

WORKLOADS = ("spectra_double", "spectra_extended", "chain_service")

# Seconds one pass takes on the reference machine (see README).  They fix
# how many passes a run of a given length holds, so a run's request list
# depends on --seconds but never on how fast this run happens to go.
PASS_SECONDS = {"spectra_double": 2.0, "spectra_extended": 4.0,
                "chain_service": 4.3}

# The known recurrence fault: p = 3, uniform rule, seed 7, order 30.  The
# stationary mass at state 0 is about 1.5e-13 and `multihess chain`
# queries state 0 by default, so the diagnostic reports a finite chain as
# transient.  The alphas do not depend on --seed, so the failed share is
# the same in every run.
FAULT_GENERATOR = {"p": 3, "order": 30, "low": 0.5, "high": 2.0, "seed": 7}


@dataclass
class Generator:
    """A generator the benchmark drew: p and alpha_1, alpha_2, ..."""

    p: int
    alphas: np.ndarray
    path: str = ""

    def factors(self, N: int):
        """Dense L_1 .. L_p and U of the order-N truncation."""
        a = np.concatenate(([np.nan], self.alphas))  # 1-based
        p, n = self.p, N + 1
        lowers = []
        for k in range(1, p + 1):
            Lk = np.eye(n)
            for j in range(N):
                Lk[j + 1, j] = a[k + 1 + j * (p + 1)]
            lowers.append(Lk)
        U = np.eye(n, k=1)
        for j in range(n):
            U[j, j] = a[1 + j * (p + 1)]
        return lowers, U

    def truncation(self, N: int) -> np.ndarray:
        """T = L_1 ... L_p U, formed as a dense matrix product."""
        lowers, U = self.factors(N)
        T = U
        for Lk in reversed(lowers):
            T = Lk @ T
        return T

    def alpha(self, i: int) -> float:
        return float(self.alphas[i - 1])


@dataclass
class Request:
    """One `multihess` invocation and what its checks need to know."""

    command: str
    gen: Generator
    order: int
    argv: list
    measure: int = 0
    nodes: int = 0
    state: int = 0
    group: int = -1              # chain_service: requests of one generator
    csv: str = ""
    kind: str = "type_ii"        # chain kind


def _splitmix_uniform(seed: int, count: int, low: float, high: float):
    """The package's seeded ``uniform`` rule, written out independently:
    splitmix64 outputs folded to 53-bit doubles on [low, high)."""
    mask = (1 << 64) - 1
    out = np.empty(count)
    for i in range(count):
        z = (seed + (i + 1) * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        out[i] = low + (high - low) * ((z >> 11) * 2.0 ** -53)
    return out


def _alpha_count(p: int, order: int) -> int:
    # A few levels past the order: `quadrature --check` profiles two
    # degrees past the rule's degree on a larger truncation.
    return 1 + (p + 1) * (order + 6)


def quadrature_degree(nodes: int, p: int, a: int) -> int:
    return nodes - 1 + math.ceil((nodes + 1 - a) / p)


def stationary_state(gen: Generator, N: int) -> int:
    """State of largest stationary mass, from the benchmark's own Perron
    vectors of T (right and left, multiplied entrywise)."""
    T = gen.truncation(N)
    w, vr = np.linalg.eig(T)
    k = int(np.argmax(w.real))
    wl, vl = np.linalg.eig(T.T)
    kl = int(np.argmax(wl.real))
    pi = np.abs(vr[:, k].real * vl[:, kl].real)
    return int(np.argmax(pi))


class InputWriter:
    """Draws generators from one random stream and writes them under
    workdir, numbering the files from `first`."""

    def __init__(self, rng, workdir: str, first: int = 0):
        self.rng = rng
        self.workdir = workdir
        self.count = first

    def write(self, gen: Generator) -> Generator:
        self.count += 1
        gen.path = os.path.join(self.workdir, "gen%04d.json" % self.count)
        with open(gen.path, "w") as fh:
            json.dump({"p": gen.p, "alphas": {
                "kind": "list", "values": [float(v) for v in gen.alphas]}},
                fh)
        return gen

    def fresh(self, p: int, order: int) -> Generator:
        alphas = self.rng.uniform(ALPHA_LOW, ALPHA_HIGH,
                                  _alpha_count(p, order))
        return self.write(Generator(p=p, alphas=alphas))

    def csv_path(self) -> str:
        self.count += 1
        return os.path.join(self.workdir, "out%04d.csv" % self.count)


def _spectrum(gen, N):
    return Request("spectrum", gen, N,
                   ["spectrum", "--input", gen.path, "--order", str(N)])


# Orders per p.  The double-precision interlacing bootstrap returns a wrong
# spectrum (exit 0) for a share of random generators that climbs steeply
# with the order: at p = 1 about 1 in 2300 at order 25 and 1 in 100 at
# order 30, at p = 2 about 1 in 1250 at order 35 (table in README).  A
# request that fails on some seeds only cannot be kept, so each p stops
# where no failure was seen in many hundreds of draws.  Every workload
# that runs the bootstrap (all of them) uses these caps.
_ORDERS = {1: (12, 14, 16, 18, 20), 2: (20, 23, 25, 28, 30),
           3: (20, 25, 28, 32, 35)}


def _spectra_double_pass(b: InputWriter, k: int) -> list:
    reqs = []
    for p in (1, 2, 3):
        for N in _ORDERS[p]:
            reqs.append(_spectrum(b.fresh(p, N), N))
        for i, nodes in enumerate((8, 11, 14, 17, 20)):
            a = 1 + (i + k) % p
            gen = b.fresh(p, quadrature_degree(nodes, p, a))
            reqs.append(Request(
                "quadrature", gen, nodes - 1,
                ["quadrature", "--input", gen.path, "--measure", str(a),
                 "--nodes", str(nodes), "--check"],
                measure=a, nodes=nodes))
    b.rng.shuffle(reqs)
    return reqs


# Extended requests take 0.1-2.5 s each.  Orders up to 25 keep the cost
# spread narrow and the request count near 50 per run, so the median and
# the 90th percentile do not hinge on two or three requests of the most
# expensive shape.
_EXT_ORDERS = {1: (12, 14, 16, 18, 20), 2: (15, 17, 19, 22, 25),
               3: (15, 17, 19, 22, 25)}


def _spectra_extended_pass(b: InputWriter, k: int) -> list:
    # Orders rotate with the pass index, so every pass costs about the
    # same and five passes cover each (command, p, order) once.
    reqs = []
    for p in (1, 2, 3):
        N = _EXT_ORDERS[p][(k + 2 * p) % 5]
        reqs.append(_spectrum(b.fresh(p, N), N))
        N = _EXT_ORDERS[p][(k + 2 * p + 2) % 5]
        gen = b.fresh(p, N)
        reqs.append(Request("verify", gen, N,
                            ["verify", "--input", gen.path, "--order",
                             str(N)]))
    b.rng.shuffle(reqs)
    return reqs


_CHAIN_ORDERS = {1: (16, 18, 20), 2: (20, 25, 30), 3: (20, 28, 35)}


def _chain_group(b: InputWriter, gen: Generator, N: int, group: int,
                 fault: bool) -> list:
    """The four requests of one chain_service generator.  The chain
    requests of the fault generator query the default state 0; the others
    query the state of largest stationary mass."""
    common = ["--input", gen.path, "--order", str(N)]
    state = [] if fault else ["--state", str(stationary_state(gen, N))]
    st = 0 if fault else int(state[1])
    csv = b.csv_path()
    sim_seed = int(b.rng.integers(0, 2 ** 31))
    return [
        Request("chain", gen, N, ["chain"] + common + state, state=st,
                group=group),
        Request("chain", gen, N,
                ["chain"] + common + state
                + ["--kind", "type_i", "--factors", "--csv", csv],
                state=st, group=group, csv=csv, kind="type_i"),
        Request("simulate", gen, N,
                ["simulate"] + common
                + ["--steps", str(SIM_STEPS), "--trials", str(SIM_TRIALS),
                   "--seed", str(sim_seed)],
                group=group),
        Request("spectrum", gen, N, ["spectrum"] + common, group=group),
    ]


def _chain_service_pass(b: InputWriter, k: int, group0: int) -> list:
    fg = FAULT_GENERATOR
    fault = b.write(Generator(p=fg["p"], alphas=_splitmix_uniform(
        fg["seed"], _alpha_count(fg["p"], fg["order"]), fg["low"],
        fg["high"])))
    groups = [_chain_group(b, fault, fg["order"], group0, True)]
    for p in (1, 2, 3):
        N = _CHAIN_ORDERS[p][(k + p) % 3]
        groups.append(_chain_group(b, b.fresh(p, N), N, group0 + p, False))
    order = b.rng.permutation(len(groups))
    # Interleaved: every generator's chain, then every factor request, ...
    return [groups[g][r] for r in range(4) for g in order]


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def build_requests(workload: str, seed: int, passes: int,
                   workdir: str) -> list:
    """The request list of a run, as a list of `passes` whole passes."""
    b = InputWriter(np.random.default_rng(
        [seed & 0xFFFFFFFF, WORKLOADS.index(workload)]), workdir)
    if workload == "spectra_double":
        return [_spectra_double_pass(b, k) for k in range(passes)]
    if workload == "spectra_extended":
        return [_spectra_extended_pass(b, k) for k in range(passes)]
    return [_chain_service_pass(b, k, 4 * k) for k in range(passes)]


def warmup_requests(workload: str, workdir: str) -> list:
    """Small requests on a fixed generator that no timed request uses
    (order 6 never occurs in a pass), one per command of the workload."""
    b = InputWriter(np.random.default_rng(2 ** 40), workdir, first=9000)
    gen = b.fresh(2, 12)
    if workload == "spectra_double":
        return [_spectrum(gen, 6),
                Request("quadrature", gen, 6, [
                    "quadrature", "--input", gen.path, "--measure", "1",
                    "--nodes", "7", "--check"], measure=1, nodes=7)]
    if workload == "spectra_extended":
        return [_spectrum(gen, 6),
                Request("verify", gen, 6,
                        ["verify", "--input", gen.path, "--order", "6"])]
    return _chain_group(b, gen, 6, -1, False)
