"""Test-only reference document I/O: the per-term reader and the recursive writer.

from_json_dict is the term reader Polynomial.from_json_dict used before its
bulk path: one Python loop that checks each term in turn and raises on the
first bad one, and sorts the rows with dictref.sorted_runs, a Python sort,
not with the package's.  dumps_canonical is the writer crextend.cli used
before its single-pass form: one recursive call per value, one string per
container.  The tests compare the package's reader and writer against them,
result for result, message for message and byte for byte.
"""

from __future__ import annotations

import json
import math

import numpy as np

from crextend import InputError, Polynomial
from crextend.errors import NumericalFailure
from crextend.polyalg import DEGREE_CAP, MAX_TERMS, _prune, complex_from_json, real_from_json
from dictref import sorted_runs


def from_json_dict(doc):
    """The Polynomial of a {"n", "terms"} document, checked term by term."""
    if not isinstance(doc, dict):
        raise InputError("polynomial document must be a JSON object")
    for field in ("n", "terms"):
        if field not in doc:
            raise InputError(f"polynomial document missing field {field!r}")
    n = real_from_json(doc["n"], "polynomial field 'n'", integer=True)
    if n < 1:
        raise InputError(f"polynomial field 'n' must be a positive integer, got {n!r}")
    if not isinstance(doc["terms"], list):
        raise InputError("polynomial field 'terms' must be a list")
    if len(doc["terms"]) > MAX_TERMS:
        raise InputError(f"polynomial has {len(doc['terms'])} terms, more than {MAX_TERMS}")
    rows, values = [], []
    for i, t in enumerate(doc["terms"]):
        if not isinstance(t, dict):
            raise InputError(f"terms[{i}] must be an object")
        for field in ("alpha", "beta", "k", "re", "im"):
            if field not in t:
                raise InputError(f"terms[{i}] missing field {field!r}")
        alpha, beta, k = t["alpha"], t["beta"], t["k"]
        if not isinstance(alpha, list) or not isinstance(beta, list):
            raise InputError(f"terms[{i}]: alpha and beta must be lists")
        if not all(isinstance(a, int) and not isinstance(a, bool) for a in alpha + beta):
            raise InputError(f"terms[{i}]: exponents must be integers")
        if isinstance(k, bool) or not isinstance(k, int):
            raise InputError(f"terms[{i}]: k must be an integer")
        if len(alpha) != n or len(beta) != n:
            raise InputError(
                f"exponent vectors must have length n={n}, got {len(alpha)} and {len(beta)}"
            )
        row = [*alpha, *beta, k]
        if min(row) < 0:
            raise InputError(f"negative exponent in term ({tuple(alpha)}, {tuple(beta)}, {k})")
        if sum(row) > DEGREE_CAP:
            raise InputError(f"terms[{i}]: degree {sum(row)} exceeds cap {DEGREE_CAP}")
        rows.append(row)
        values.append(complex_from_json(t, f"terms[{i}]"))
    exps = np.array(rows, dtype=np.int64).reshape(len(rows), 2 * n + 1)
    coeffs = np.array(values, dtype=complex)
    if len(rows) > 1:
        order, starts = sorted_runs(exps)
        if len(starts) < len(order):
            # the first term that is not first in its run repeats an earlier one
            i = int(np.setdiff1d(order, order[starts]).min())
            e = (tuple(rows[i][:n]), tuple(rows[i][n:-1]), rows[i][-1])
            raise InputError(f"terms[{i}]: duplicate exponent {e}")
        exps, coeffs = exps[order], coeffs[order]
    return Polynomial._wrap(n, *_prune(exps, coeffs))


def _format_float(x):
    if not math.isfinite(x):
        raise NumericalFailure(f"cannot serialize non-finite number {x}")
    return format(float(x), ".17g")


def dumps_canonical(obj, indent=0):
    """JSON text with deterministic layout and 17-significant-digit floats."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [dumps_canonical(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {dumps_canonical(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise InputError(f"cannot serialize object of type {type(obj).__name__}")
