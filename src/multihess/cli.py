"""Command-line interface.

Subcommands: spectrum, quadrature, chain, simulate, verify.  All read a
generator description from a JSON file ({"p": ..., "alphas": {...}}) and
emit deterministic JSON on stdout or to --output.  The environment
variable MULTIHESS_PRECISION selects "double" (default) or "extended"
arithmetic for the spectral tables.

Exit codes: 0 success, 2 configuration error, 3 numeric failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import __version__
from .errors import ConfigError, MultihessError
from .generator import generator_from_json
from .markov import (_polished_top, finite_chain, recurrence_diagnostic,
                     stationary_distribution, to_stochastic_factors)
from .montecarlo import simulate_chain
from .quadrature import exactness_profile, gauss_rule
from .serialize import (factors_to_csv, matrix_to_csv, spectrum_to_csv,
                        to_json)
from .spectral import _moment_errors, decompose

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4


def _load_generator(path: str):
    try:
        with open(path, "r") as fh:
            return generator_from_json(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read generator file: {exc}") from exc
    except MultihessError as exc:
        raise ConfigError(f"invalid generator description: {exc}") from exc


def _precision() -> bool:
    mode = os.environ.get("MULTIHESS_PRECISION", "double").strip().lower()
    if mode not in ("double", "extended"):
        raise ConfigError(f"MULTIHESS_PRECISION must be 'double' or "
                          f"'extended', got {mode!r}")
    return mode == "extended"


def _decompose(gen, N: int, **kw):
    """decompose(), refusing orders too low to carry p measures."""
    if N < gen.p - 1:
        raise ConfigError(f"order {N} is below p - 1 = {gen.p - 1}: a rule "
                          f"for {gen.p} measures needs at least {gen.p} nodes")
    return decompose(gen, N, **kw)


def _floats(arr) -> list:
    return [float(v) for v in np.asarray(arr).ravel()]


def _rows(arr) -> list:
    return [[float(v) for v in row] for row in np.asarray(arr)]


def _write(args, doc: dict, csv_text: str | None):
    text = to_json(doc)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if csv_text is not None:
        with open(args.csv, "w") as fh:
            fh.write(csv_text)


# a command returns (its fields after main()'s header, CSV text or None)
def _cmd_spectrum(args, gen):
    use_mp = _precision()
    dec = _decompose(gen, args.order, use_mp=use_mp)
    lams, mu = dec.lams.astype(float), dec.mu.astype(float)
    return {
        "order": args.order,
        "precision": "extended" if use_mp else "double",
        "eigenvalues": _floats(lams),
        "weights": _rows(mu),
        "total_masses": _floats(mu.sum(axis=0)),
    }, spectrum_to_csv(lams, mu) if args.csv else None


def _cmd_quadrature(args, gen):
    # one solve for the rule and its check; nodes < p is order < p - 1
    dec = _decompose(gen, args.nodes - 1, use_mp=_precision())
    rule = gauss_rule(gen, args.measure, args.nodes, dec=dec)
    fields = {
        "measure": args.measure,
        "nodes": _floats(rule.nodes),
        "weights": _floats(rule.weights),
        "degree": rule.degree,
    }
    if args.check:
        profile = exactness_profile(gen, args.measure, args.nodes, dec=dec)
        fields["exactness_errors"] = {str(n): e for n, e in
                                      profile["errors"].items()}
    return fields, None


def _cmd_chain(args, gen):
    # one spectral solve and one polish of its top eigenvalue serve the
    # chain, its stationary vector, the diagnostic and the factors
    dec = _decompose(gen, args.order, use_mp=_precision())
    lam = _polished_top(gen, args.order, start=float(dec.lams[0]))
    chain = finite_chain(gen, args.order, kind=args.kind, lam=lam)
    diag = recurrence_diagnostic(dec, l=args.state)
    fields = {
        "order": args.order,
        "kind": args.kind,
        "lam": float(chain.lam),
        "transition_matrix": _rows(chain.P),
        "stationary": _floats(stationary_distribution(dec)),
        "recurrence": {
            "state": args.state,
            "s_exponents": diag["s_exponents"],
            "first_return_values": _floats(diag["values"]),
            "monotone": diag["monotone"],
            "recurrent": diag["recurrent"],
        },
    }
    if not args.csv:
        return fields, None
    if args.factors:
        return fields, factors_to_csv(
            to_stochastic_factors(gen, args.order, lam=lam))
    return fields, matrix_to_csv(chain.P)


def _cmd_simulate(args, gen):
    chain = finite_chain(gen, args.order, kind=args.kind)
    report = simulate_chain(chain.P, args.start, args.steps, args.trials,
                            args.seed)
    return {
        "order": args.order,
        "kind": args.kind,
        "seed": args.seed,
        "start": args.start,
        "steps": args.steps,
        "trials": args.trials,
        "counts": [int(c) for c in report.counts],
        "reference": _floats(report.reference),
        "z_scores": _floats(report.z_scores),
        "max_abs_z": report.max_abs_z(),
    }, None


def _cmd_verify(args, gen):
    N = args.order
    dec = _decompose(gen, N, use_mp=_precision())
    failures = []
    # every check is written so that NaN fails it
    r1, r2 = dec.biorthogonality_residuals()
    if not (r1 <= args.tolerance and r2 <= args.tolerance):
        failures.append(f"biorthogonality residual {max(r1, r2):.3e}")
    lams, mu = dec.lams.astype(float), dec.mu.astype(float)
    if not (lams.min() > 0.0 and np.all(np.diff(lams) < 0.0)):
        failures.append("spectrum is not positive and strictly ordered")
    if not mu.min() > 0.0:
        failures.append("a Christoffel weight is not positive")
    for a in range(1, gen.p + 1):
        errors = _moment_errors(dec, a, min(2 * N, 10), N)
        bad = [n for n, e in enumerate(errors) if not e <= args.tolerance]
        if bad:
            failures.append(f"moment mismatch a={a} n={bad[0]}")
    return {
        "order": N,
        "tolerance": args.tolerance,
        "checks": ["biorthogonality", "spectrum_positivity",
                   "weight_positivity", "moment_consistency"],
        "failures": failures,
        "ok": not failures,
    }, None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multihess",
        description="Spectral analysis of banded Hessenberg matrices with "
                    "positive bidiagonal factorization")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--input", required=True,
                        help="generator description JSON file")
        sp.add_argument("--output", help="write JSON here instead of stdout")
        sp.add_argument("--csv", help="optional CSV output path")

    sp = sub.add_parser("spectrum", help="eigenvalues and Christoffel weights")
    common(sp)
    sp.add_argument("--order", type=int, required=True)
    sp.set_defaults(func=_cmd_spectrum)

    sp = sub.add_parser("quadrature", help="Gaussian rule for one measure")
    common(sp)
    sp.add_argument("--measure", type=int, required=True)
    sp.add_argument("--nodes", type=int, required=True)
    sp.add_argument("--check", action="store_true",
                    help="include exactness error profile")
    sp.set_defaults(func=_cmd_quadrature)

    sp = sub.add_parser("chain", help="stochastic matrix and diagnostics")
    common(sp)
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--kind", choices=("type_ii", "type_i"),
                    default="type_ii")
    sp.add_argument("--state", type=int, default=0,
                    help="state for the recurrence diagnostic")
    sp.add_argument("--factors", action="store_true",
                    help="CSV holds the stochastic factors instead of P")
    sp.set_defaults(func=_cmd_chain)

    sp = sub.add_parser("simulate", help="Monte Carlo cross-validation")
    common(sp)
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--kind", choices=("type_ii", "type_i"),
                    default="type_ii")
    sp.add_argument("--start", type=int, default=0)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("verify", help="internal consistency checks")
    common(sp)
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--tolerance", type=float, default=1e-8)
    sp.set_defaults(func=_cmd_verify)
    return parser


# every request of a process parses with one parser, built on first use
_parser = functools.lru_cache(maxsize=None)(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "order", 0) < 0:
            parser.error(f"argument --order: must be >= 0, got {args.order}")
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        # the one request pipeline: shared header, writer and exit code
        gen = _load_generator(args.input)
        fields, csv_text = args.func(args, gen)
        doc = {"command": args.command, "version": __version__, "p": gen.p,
               **fields}
        _write(args, doc, csv_text)
        return EXIT_VERIFY if doc.get("ok") is False else EXIT_OK
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MultihessError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
