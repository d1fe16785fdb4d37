"""Request benchmark for the multihess command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload spectra_double --seed 1 \
        --seconds 22 --trace 0

One caller runs a closed loop in this process: each request is one
in-process ``multihess.cli.main(argv)`` call, so it crosses every layer
from argument parsing to the JSON and CSV emitters.  The seed fixes the
request list; the run times whole passes of it, and outputs are checked
after the timed loop by checks that never call the package.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every pass once
untraced and once traced, prints the per-layer metrics and writes the
spans to perfbench/out/<workload>.trace.json.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os
import sys

# BLAS runs on one thread; this must precede the first numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_PROBES = 5   # fresh processes whose set-up time is measured

# The speed of the shared machine drifts by 20% within seconds and by up
# to 60% between runs minutes apart, for all code alike.  A fixed slice of interpreter-bound work, unrelated
# to the program, runs after every request; every time a run reports is
# rescaled by CAL_REF_S / (mean slice time of the run), so it reads as the
# time at the speed where one slice takes CAL_REF_S.  Raw figures are
# printed alongside.
CAL_REF_S = 0.004


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup(args, workdir):
    """Everything before the first timed request: imports, the request
    list and its input files, and one warm-up request per command on a
    generator that is not in the timed list."""
    sys.path.insert(0, SRC)
    import workloads
    from multihess import cli
    if args.workload == "spectra_extended":
        os.environ["MULTIHESS_PRECISION"] = "extended"
    else:
        os.environ["MULTIHESS_PRECISION"] = "double"
    per_run = args.seconds / (2 if args.trace else 1)
    passes = workloads.build_requests(
        args.workload, args.seed, workloads.passes_for(args.workload, per_run),
        workdir)
    for req in workloads.warmup_requests(args.workload, workdir):
        code, _, _ = call(cli, req.argv)
        if code != 0:
            raise RuntimeError(f"warm-up request failed: {req.argv}")
    return cli, passes


def call(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        code = cli.main(argv)
        t1 = time.perf_counter()
    return code, buf.getvalue(), t1 - t0


def calibration_slice() -> float:
    """Seconds that a fixed piece of work (small numpy updates and float
    arithmetic in a Python loop, like the program's recurrences) takes."""
    import numpy as np
    x = np.linspace(0.1, 1.0, 8)
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(4):
        v = x
        for i in range(400):
            v = v * 0.999 + 0.001
            acc += float(v[i & 7]) * 1.5 + (i % 7)
    return time.perf_counter() - t0


def timed_pass(cli, reqs, tracer=None, base=0):
    """Send the requests one after another, with a calibration slice after
    each; returns (results, latencies, slice times), times in seconds."""
    results, lat, slices = [], [], []
    for i, req in enumerate(reqs):
        if tracer is not None:
            tracer.request = base + i
        code, out, dt = call(cli, req.argv)
        results.append((code, out))
        lat.append(dt)
        slices.append(calibration_slice())
    return results, lat, slices


def measure_setup(args) -> list:
    """Set-up time of fresh processes, from just before the process is
    started until it could send its first timed request, rescaled by
    calibration slices taken just before and just after."""
    samples = []
    for _ in range(SETUP_PROBES):
        before = calibration_slice()
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + proc.stderr)
        ready, after = (float(v) for v in proc.stdout.split()[-2:])
        samples.append((ready - t0) * 2 * CAL_REF_S / (before + after))
    return samples


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "multihess", "cli.py")):
        print(f"error: no multihess sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, "work", "%d" % os.getpid())
    os.makedirs(workdir)
    try:
        if args.setup_probe:
            setup(args, workdir)
            ready = time.monotonic()
            print(ready, calibration_slice(), flush=True)
            return 0
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir) -> int:
    setup_samples = [] if args.trace else measure_setup(args)
    cli, passes = setup(args, workdir)
    import checks
    reqs = [r for p in passes for r in p]
    precision = os.environ["MULTIHESS_PRECISION"]

    if args.trace:
        from tracing import Tracer, layer_metrics
        assemble = sys.modules["multihess.pbf"].assemble_truncation
        tracer = Tracer()
        plain_s = traced_s = 0.0
        results, traced_results, traced_slices = [], [], []
        hits = misses = 0
        for k, pass_reqs in enumerate(passes):
            # Both passes of a pair start from an empty truncation cache.
            assemble.cache_clear()
            res, lat, slices = timed_pass(cli, pass_reqs)
            results += res
            plain_s += sum(lat) * CAL_REF_S / statistics.mean(slices)
            assemble.cache_clear()
            tracer.install()
            try:
                res, lat, slices = timed_pass(cli, pass_reqs, tracer,
                                              k * len(pass_reqs))
            finally:
                tracer.uninstall()
            info = assemble.cache_info()
            hits, misses = hits + info.hits, misses + info.misses
            traced_results += res
            traced_slices += slices
            traced_s += sum(lat) * CAL_REF_S / statistics.mean(slices)
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"{args.workload}.trace.json"))
        metrics = layer_metrics(tracer, len(reqs), (hits, misses),
                                100.0 * (traced_s / plain_s - 1.0),
                                CAL_REF_S / statistics.mean(traced_slices))
        checked = [(reqs, results), (reqs, traced_results)]
    else:
        results, raw, slices = timed_pass(cli, reqs)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        scale = CAL_REF_S / statistics.mean(slices)
        lat = [dt * scale for dt in raw]
        metrics = {
            "setup_s": metric(statistics.median(setup_samples), "s"),
            "requests_per_s": metric(len(reqs) / sum(lat), "1/s"),
            "latency_p50_ms": metric(statistics.median(lat) * 1e3, "ms"),
            "latency_p90_ms": metric(
                statistics.quantiles(lat, n=10)[-1] * 1e3, "ms"),
            "peak_rss_mb": metric(rss_mb, "MB"),
        }
        print(f"raw: {len(raw) / sum(raw):.4g} requests/s, p50 "
              f"{statistics.median(raw) * 1e3:.4g} ms, speed factor "
              f"{scale:.4f} (CAL_REF_S over the mean calibration slice)")
        checked = [(reqs, results)]

    problems, failed, attempted = [], 0, 0
    for rq, res in checked:
        bad, nfail = checks.check_all(rq, res, precision)
        problems += bad
        failed += nfail
        attempted += len(rq)
    missed = checks.self_test(reqs, checked[0][1], precision)
    for idx, what in problems[:20]:
        print(f"check failed: request {idx} {reqs[idx].argv}: {what}",
              file=sys.stderr)
    for what in missed:
        print(f"self-test: corrupted output accepted: {what}",
              file=sys.stderr)
    print(f"{args.workload}: {attempted} requests in {len(passes)} passes, "
          f"{failed} failed, {len(problems)} check problems, self-test "
          f"{'passed' if not missed else 'FAILED'}")
    print(json.dumps({"correct": not problems and not missed,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
