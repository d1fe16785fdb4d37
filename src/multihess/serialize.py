"""Deterministic JSON and CSV emitters.

Floats are rendered with %.17g so round-tripping is exact and repeated
runs produce byte-identical output; dict keys keep insertion order, which
the emitting code treats as the documented field order.
"""

from __future__ import annotations

import io

import numpy as np

from .errors import InvalidInputError


def format_float(x) -> str:
    v = float(x)
    if v != v or v in (float("inf"), float("-inf")):
        raise InvalidInputError("non-finite value cannot be serialized")
    return "%.17g" % v


def _emit(obj, out, indent, level):
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if isinstance(obj, dict):
        if not obj:
            out.write("{}")
            return
        out.write("{\n")
        items = list(obj.items())
        for i, (k, v) in enumerate(items):
            if not isinstance(k, str):
                raise InvalidInputError("JSON keys must be strings")
            out.write(pad_in + '"%s": ' % k)
            _emit(v, out, indent, level + 1)
            out.write(",\n" if i < len(items) - 1 else "\n")
        out.write(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(np.asarray(obj).tolist() if isinstance(obj, np.ndarray) else obj)
        if not seq:
            out.write("[]")
            return
        out.write("[\n")
        for i, v in enumerate(seq):
            out.write(pad_in)
            _emit(v, out, indent, level + 1)
            out.write(",\n" if i < len(seq) - 1 else "\n")
        out.write(pad + "]")
    elif isinstance(obj, bool):
        out.write("true" if obj else "false")
    elif obj is None:
        out.write("null")
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.write(format_float(obj))
    elif isinstance(obj, str):
        out.write('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    else:
        raise InvalidInputError(f"cannot serialize object of type {type(obj)!r}")


def to_json(obj, indent: int = 2) -> str:
    out = io.StringIO()
    _emit(obj, out, indent, 0)
    out.write("\n")
    return out.getvalue()


def matrix_to_csv(M: np.ndarray, header: str = "i,j,value") -> str:
    """Dense matrix in sparse triplet form, row-major order."""
    M = np.asarray(M, dtype=float)
    lines = [header]
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
