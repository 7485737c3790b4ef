"""Comparison of CLI reports with the references the corpus built them from."""

from __future__ import annotations

import json

# Tolerances on P, verify and Cauchy values are relative to 1 + the largest
# reference value.  Each sits at least three orders of magnitude above the
# worst error seen at this commit.
# Recovered P against the P the document was built from (worst 9e-14).
P_TOL = 1e-9
# verify_extension's pointwise error (worst 1.4e-15).
VERIFY_TOL = 1e-11
# Trapezoidal Cauchy values against P(z, r^2) (worst 2e-16).
CAUCHY_TOL = 1e-11
# Fitted exponents of exact power laws; absolute (worst 9e-9, from w^2 data
# whose derivative is small at the bottom of the ladder).
EXPONENT_TOL = 1e-5
# Bishop invariants against the ones the model was built with.
LAMBDA_TOL = 1e-8


def _c(v):
    return complex(v["re"], v["im"])


def _extend(rep, exp):
    if rep["status"] != exp["status"]:
        return f"status {rep['status']}, expected {exp['status']}"
    if exp["status"] == "Extended":
        got = {(tuple(t["alpha"]), t["k"]): complex(t["re"], t["im"]) for t in rep["P"]["terms"]}
        want = {(tuple(a), k): c for a, k, c in exp["P"]}
        scale = 1.0 + max(abs(c) for c in want.values())
        err = max(abs(got.get(key, 0.0) - want.get(key, 0.0)) for key in set(got) | set(want))
        if err > P_TOL * scale:
            return f"recovered P differs by {err:.3e}"
        if rep["verify"]["max_pointwise_error"] > VERIFY_TOL * scale:
            return f"verify error {rep['verify']['max_pointwise_error']:.3e}"
        return None
    cert = rep["certificate"]
    if cert["degree"] != exp["degree"]:
        return f"certificate degree {cert['degree']}, expected {exp['degree']}"
    if cert["condition"] != exp["condition"]:
        return f"certificate condition {cert['condition']!r}, expected {exp['condition']!r}"
    for key, value in exp["detail"].items():
        if cert["detail"].get(key) != value:
            return f"certificate {key} {cert['detail'].get(key)}, expected {value}"
    return None


def _check(rep, exp):
    if rep["mode"] != exp["mode"]:
        return f"mode {rep['mode']}, expected {exp['mode']}"
    if rep["passed"] != exp["passed"]:
        return f"passed {rep['passed']}, expected {exp['passed']}"
    return None


def _leaf_extend(rep, exp):
    ref = exp["values"]
    if len(rep["values"]) != len(ref):
        return f"{len(rep['values'])} values, expected {len(ref)}"
    scale = 1.0 + max(abs(v) for v in ref)
    err = max(abs(_c(v["F"]) - r) for v, r in zip(rep["values"], ref))
    if err > CAUCHY_TOL * scale:
        return f"Cauchy values differ by {err:.3e}"
    return None


def _probe(rep, exp):
    if rep["label"] != exp["label"]:
        return f"label {rep['label']!r}, expected {exp['label']!r}"
    if (rep["exponent"] is None) != (exp["exponent"] is None):
        return f"exponent {rep['exponent']}, expected {exp['exponent']}"
    if exp["exponent"] is not None and abs(rep["exponent"] - exp["exponent"]) > EXPONENT_TOL:
        return f"exponent {rep['exponent']}, expected {exp['exponent']}"
    return None


def _classify(rep, exp):
    if rep["classification"] != exp["classification"]:
        return f"classification {rep['classification']}, expected {exp['classification']}"
    if rep["elliptic_oracle"] != (exp["classification"] == "elliptic"):
        return f"elliptic_oracle {rep['elliptic_oracle']}"
    got, want = rep["lambdas"], exp["lambdas"]
    if (got is None) != (want is None):
        return f"lambdas {got}, expected {want}"
    if want is not None and max(abs(g - w) for g, w in zip(got, want)) > LAMBDA_TOL:
        return f"lambdas {got}, expected {want}"
    return None


_CHECKS = {
    "extend": _extend,
    "check": _check,
    "leaf-extend": _leaf_extend,
    "probe-degenerate": _probe,
    "classify": _classify,
}


def mismatch(doc, code, out):
    """None when the report agrees with the document's reference, else why not."""
    exp = doc.expect
    if code != exp["exit"]:
        return f"exit {code}, expected {exp['exit']}"
    if code != 0:
        return None if out == "" else "report written for a rejected document"
    try:
        return _CHECKS[doc.command](json.loads(out), exp)
    except (KeyError, TypeError, ValueError) as exc:
        return f"unreadable report: {exc!r}"


def known_defect(doc, code, out):
    """A moment check that passes on data built not to extend.

    This is the known defect of check_moments: it compares raw moduli with
    the absolute tol = 1e-8, and moments of high-degree obstructions carry a
    factor r^(ell+1) that takes them below it (zbar^7 on the sphere, say).
    It lowers verdict_agreement but does not make the run incorrect.
    """
    if code != 0 or doc.expect.get("mode") != "moments" or doc.expect["passed"]:
        return False
    rep = json.loads(out)
    return rep["mode"] == "moments" and rep["passed"] is True
