"""Deterministic JSON and CSV emitters.

JSON is the standard library's encoder with an indent of 2: dict keys
keep insertion order, which the emitting code treats as the documented
field order, and numpy arrays and scalars become lists and plain values.
Floats print as their shortest round-trip repr in JSON and CSV alike, so
every value reads back bit for bit and repeated runs produce
byte-identical output; a non-finite value is refused.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import InvalidInputError


def format_float(x) -> str:
    v = float(x)
    if v != v or v in (float("inf"), float("-inf")):
        raise InvalidInputError("non-finite value cannot be serialized")
    return repr(v)


def _plain(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialize object of type {type(obj)!r}")


def to_json(obj) -> str:
    try:
        return json.dumps(obj, indent=2, allow_nan=False,
                          default=_plain) + "\n"
    except ValueError as exc:
        raise InvalidInputError(
            "non-finite value cannot be serialized") from exc
    except TypeError as exc:
        raise InvalidInputError(str(exc)) from exc


def matrix_to_csv(M: np.ndarray) -> str:
    """Dense matrix in sparse triplet form, row-major order."""
    M = np.asarray(M, dtype=float)
    lines = ["i,j,value"]
    for i in range(M.shape[0]):
        for j in range(M.shape[1]):
            lines.append("%d,%d,%s" % (i, j, format_float(M[i, j])))
    return "\n".join(lines) + "\n"


def spectrum_to_csv(lams: np.ndarray, mu: np.ndarray) -> str:
    """Node table: one row per node with its weight for every measure."""
    lams = np.asarray(lams, dtype=float)
    mu = np.asarray(mu, dtype=float)
    p = mu.shape[1]
    header = "k,lambda," + ",".join("mu_%d" % (a + 1) for a in range(p))
    lines = [header]
    for k in range(lams.size):
        row = [str(k + 1), format_float(lams[k])]
        row += [format_float(mu[k, a]) for a in range(p)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def factors_to_csv(fac) -> str:
    """Stochastic factors, one triplet block per factor."""
    lines = ["# kind=stochastic_factors p=%d N=%d lam=%s"
             % (fac.p, fac.N, format_float(fac.lam)),
             "factor,i,j,value"]
    for a in range(1, fac.p + 1):
        F = fac.factor(a)
        name = "Pi_%d" % a
        for i in range(F.shape[0]):
            for j in (i - 1, i):
                if j >= 0:
                    lines.append("%s,%d,%d,%s" % (name, i, j, format_float(F[i, j])))
    U = fac.upsilon()
    for i in range(U.shape[0]):
        for j in (i, i + 1):
            if j < U.shape[1]:
                lines.append("Upsilon,%d,%d,%s" % (i, j, format_float(U[i, j])))
    return "\n".join(lines) + "\n"
