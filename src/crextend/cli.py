"""Command line front end.

Subcommands: classify, extend, check, leaf-extend, probe-degenerate.
Inputs are JSON documents (path or '-' for stdin); reports are JSON with
the effective run configuration embedded.  Exit codes: 0 for any
completed run (including NotExtendible or failed-check verdicts), 2 for
input validation problems, 3 for numerical failures.

Output is byte-deterministic: given the same input and seed, the report
is identical.  Floats are printed with 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import extend as extend_mod
from . import leafcauchy, moments, quadform
from .errors import InputError, NumericalError, NumericalFailure
from .polyalg import Polynomial, complex_from_json

PROG = "crextend"
GRID_MIN, GRID_MAX = 64, 4096


# -- canonical JSON ----------------------------------------------------------


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


def _cnum(v):
    v = complex(v)
    return {"re": v.real, "im": v.imag}


# -- configuration -----------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    tol_extend: float = 1e-9
    tol_moment: float = 1e-8
    tol_leaf: float = 1e-12
    grid_n: int = 512
    leaf_ladder: tuple | None = None
    seed: int = 0
    out: str | None = None

    def validate(self):
        for name in ("tol_extend", "tol_moment", "tol_leaf"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and v > 0):
                raise InputError(f"config {name} must be positive, got {v!r}")
        N = self.grid_n
        if not isinstance(N, int) or not GRID_MIN <= N <= GRID_MAX or N & (N - 1):
            raise InputError(
                f"config grid_n must be a power of two in [{GRID_MIN}, {GRID_MAX}], got {N!r}"
            )
        if not isinstance(self.seed, int) or self.seed < 0 or self.seed >= 2**64:
            raise InputError(f"config seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if self.leaf_ladder is not None:
            if not all(isinstance(r, (int, float)) and r > 0 for r in self.leaf_ladder):
                raise InputError("config leaf_ladder must contain positive numbers")
        return self

    def to_json_dict(self):
        return {
            "tol_extend": self.tol_extend,
            "tol_moment": self.tol_moment,
            "tol_leaf": self.tol_leaf,
            "grid_n": self.grid_n,
            "leaf_ladder": list(self.leaf_ladder) if self.leaf_ladder is not None else None,
            "seed": self.seed,
        }


def _load_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config is not None:
        doc = _read_json(args.config)
        if not isinstance(doc, dict):
            raise InputError("config file must contain a JSON object")
        known = {"tol_extend", "tol_moment", "tol_leaf", "grid_n", "leaf_ladder", "seed", "out"}
        unknown = set(doc) - known
        if unknown:
            raise InputError(f"unknown config fields: {sorted(unknown)}")
        if "leaf_ladder" in doc and doc["leaf_ladder"] is not None:
            doc = dict(doc, leaf_ladder=tuple(doc["leaf_ladder"]))
        cfg = replace(cfg, **doc)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.tol_extend is not None:
        overrides["tol_extend"] = args.tol_extend
    if args.tol_moment is not None:
        overrides["tol_moment"] = args.tol_moment
    if args.grid_n is not None:
        overrides["grid_n"] = args.grid_n
    if args.out is not None:
        overrides["out"] = args.out
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg.validate()


# -- input parsing -----------------------------------------------------------


def _read_json(path):
    if path == "-":
        text = sys.stdin.read()
        name = "<stdin>"
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}") from exc
        name = path
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {name}: {exc.msg} at line {exc.lineno}, column {exc.colno}"
        ) from exc


def _require(doc, field, where):
    if not isinstance(doc, dict) or field not in doc:
        raise InputError(f"{where}: missing field {field!r}")
    return doc[field]


def _parse_boundary_data(doc):
    if not isinstance(doc, dict):
        raise InputError("data: must be a JSON object")
    if "polynomial" in doc:
        return leafcauchy.BoundaryData.from_polynomial(
            Polynomial.from_json_dict(doc["polynomial"])
        )
    if "builtin" in doc:
        return leafcauchy.BoundaryData.builtin(doc["builtin"], value=doc.get("value", 1.0))
    raise InputError("data: expected a 'polynomial' or 'builtin' field")


def _parse_ladder(doc):
    if isinstance(doc, list):
        return [float(s) for s in doc]
    if isinstance(doc, dict):
        for field in ("start", "ratio", "count"):
            if field not in doc:
                raise InputError(f"ladder: missing field {field!r}")
        start, ratio, count = float(doc["start"]), float(doc["ratio"]), int(doc["count"])
        return [start * ratio**i for i in range(count)]
    raise InputError("ladder: expected a list of levels or {start, ratio, count}")


# -- subcommands -------------------------------------------------------------


def _cmd_classify(args, cfg: RunConfig):
    model = quadform.QuadricModel.from_json_dict(_read_json(args.input))
    result = quadform.classify(model)
    nf = result.normal_form
    return {
        "command": "classify",
        "config": cfg.to_json_dict(),
        "classification": result.classification,
        "elliptic_oracle": quadform.ellipticity_oracle(model),
        "nondegenerate": result.nondegeneracy.ok,
        "sigma_min": result.nondegeneracy.sigma_min,
        "sigma_max": result.nondegeneracy.sigma_max,
        "lambdas": list(result.lambdas) if result.lambdas is not None else None,
        "T": quadform._matrix_to_json(nf.T) if nf is not None else None,
        "residual_a": nf.residual_a if nf is not None else None,
        "residual_b": nf.residual_b if nf is not None else None,
        "note": result.note,
    }


def _certificate_dict(cert):
    if cert is None:
        return None
    detail = {}
    for key, value in cert.detail.items():
        if isinstance(value, tuple):
            detail[key] = list(value)
        else:
            detail[key] = value
    return {
        "degree": cert.degree,
        "residual": cert.residual,
        "condition": cert.condition,
        "detail": detail,
    }


def _cmd_extend(args, cfg: RunConfig):
    doc = _read_json(args.input)
    model = quadform.QuadricModel.from_json_dict(_require(doc, "model", "extend input"))
    f = Polynomial.from_json_dict(_require(doc, "f", "extend input"))
    result = extend_mod.extend_general(f, model, tol=cfg.tol_extend)
    report = {
        "command": "extend",
        "config": cfg.to_json_dict(),
        "status": result.status,
        "P": result.P.to_json_dict() if result.P is not None else None,
        "P_pretty": result.P.pretty() if result.P is not None else None,
        "residual": result.residual,
        "certificate": _certificate_dict(result.certificate),
        "degrees": [
            {
                "degree": r.degree,
                "residual": r.residual,
                "condition_number": r.condition,
                "warning": r.warning,
            }
            for r in result.degree_reports
        ],
    }
    if result.extended:
        err = extend_mod.verify_extension(result.P, f, model, samples=50, seed=cfg.seed)
        report["verify"] = {"max_pointwise_error": err, "samples": 50, "seed": cfg.seed}
    return report


def _cmd_check(args, cfg: RunConfig):
    doc = _read_json(args.input)
    model = quadform.QuadricModel.from_json_dict(_require(doc, "model", "check input"))
    f = Polynomial.from_json_dict(_require(doc, "f", "check input"))
    if model.n == 1:
        leaves = doc.get("leaves", cfg.leaf_ladder)
        Lmax = doc.get("Lmax")
        tol = doc.get("tol", cfg.tol_moment)
        report = moments.check_moments(
            f, model, leaves=leaves, Lmax=Lmax, tol=tol, N=cfg.grid_n, leaf_tol=cfg.tol_leaf
        )
        out = report.to_json_dict()
        out = {"command": "check", "config": cfg.to_json_dict(), "mode": "moments", **out}
        return out
    violations = moments.cr_check(f, model)
    return {
        "command": "check",
        "config": cfg.to_json_dict(),
        "mode": "cr-fields",
        "passed": not violations,
        "violations": [
            {
                "pair": [v.j, v.ell],
                "field_applied": v.field_applied.to_json_dict(),
                "field_applied_pretty": v.field_applied.pretty(),
            }
            for v in violations
        ],
    }


def _cmd_leaf_extend(args, cfg: RunConfig):
    doc = _read_json(args.input)
    model = quadform.QuadricModel.from_json_dict(_require(doc, "model", "leaf-extend input"))
    data = _parse_boundary_data(_require(doc, "data", "leaf-extend input"))
    r = float(_require(doc, "r", "leaf-extend input"))
    points_doc = _require(doc, "points", "leaf-extend input")
    if not isinstance(points_doc, list):
        raise InputError("leaf-extend input: 'points' must be a list")
    points = [complex_from_json(v, f"points[{i}]") for i, v in enumerate(points_doc)]
    leaf = moments.solve_leaf(model, r, N=cfg.grid_n, tol=cfg.tol_leaf)
    ext = leafcauchy.cauchy_extend(data, leaf, points)
    return {
        "command": "leaf-extend",
        "config": cfg.to_json_dict(),
        "r": r,
        "level": leaf.level,
        "data": data.description,
        "values": [{"z": _cnum(z), "F": _cnum(ext.interior_values[z])} for z in points],
        "boundary_sup_error": ext.boundary_sup_error,
    }


def _cmd_probe_degenerate(args, cfg: RunConfig):
    doc = _read_json(args.input)
    family_doc = _require(doc, "family", "probe-degenerate input")
    kind = _require(family_doc, "kind", "family")
    if kind == "quadric":
        model = quadform.QuadricModel.from_json_dict(_require(family_doc, "model", "family"))
        family = leafcauchy.quadric_leaf_family(model, N=cfg.grid_n, tol=cfg.tol_leaf)
    elif kind == "radial":
        power = float(_require(family_doc, "power", "family"))
        if power < 2:
            raise InputError(f"family: radial power must be >= 2, got {power}")
        family = leafcauchy.radial_leaf_family(lambda s: s ** (1.0 / power), N=cfg.grid_n)
    else:
        raise InputError(f"family: unknown kind {kind!r} (expected 'quadric' or 'radial')")
    data = _parse_boundary_data(_require(doc, "data", "probe-degenerate input"))
    ladder = _parse_ladder(_require(doc, "ladder", "probe-degenerate input"))
    report = leafcauchy.normal_derivative_probe(data, family, ladder)
    return {
        "command": "probe-degenerate",
        "config": cfg.to_json_dict(),
        "family": kind,
        "data": data.description,
        "exponent": report.exponent,
        "label": report.label,
        "rows": [
            {
                "s": s,
                "F0": _cnum(F0),
                "Fs": _cnum(fs) if fs is not None else None,
            }
            for s, F0, fs in report.rows
        ],
    }


_COMMANDS = {
    "classify": _cmd_classify,
    "extend": _cmd_extend,
    "check": _cmd_check,
    "leaf-extend": _cmd_leaf_extend,
    "probe-degenerate": _cmd_probe_degenerate,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Holomorphic extension at elliptic, holomorphically flat CR singularities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("classify", "classify a quadric model and compute its Bishop normal form"),
        ("extend", "holomorphic polynomial extension of boundary data"),
        ("check", "moment conditions (n = 1) or CR field check (n >= 2)"),
        ("leaf-extend", "Cauchy extension of boundary data on one hull leaf"),
        ("probe-degenerate", "growth exponent of the transverse derivative at the singularity"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="input JSON document (path or '-' for stdin)")
        p.add_argument("--config", help="JSON file with run configuration defaults")
        p.add_argument("--seed", type=int, help="seed for all sampling (default 0)")
        p.add_argument("--tol-extend", type=float, dest="tol_extend", help="extension residual tolerance")
        p.add_argument("--tol-moment", type=float, dest="tol_moment", help="moment modulus tolerance")
        p.add_argument("--grid-n", type=int, dest="grid_n", help="theta grid size (power of two in [64, 4096])")
        p.add_argument("--out", help="write the report to this path instead of stdout")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        report = _COMMANDS[args.command](args, cfg)
        text = dumps_canonical(report) + "\n"
        if cfg.out is not None:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except InputError as exc:
        sys.stderr.write(f"{PROG}: input error: {exc}\n")
        return 2
    except NumericalError as exc:
        sys.stderr.write(f"{PROG}: numerical failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
