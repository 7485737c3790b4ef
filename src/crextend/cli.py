"""Command line front end.

One parser: `crextend COMMAND INPUT [options]`, where COMMAND is one of
classify, extend, check, leaf-extend, probe-degenerate and every command
takes the same options, before or after its name.  INPUT is a JSON
document (path or '-' for stdin), read once by `main`.  Each command maps
the document and the run configuration to its own report fields; `main`
prepends the envelope {"command", "config"}.  The fields of `RunConfig`
are the only list of configuration names.  Exit codes: 0 for any
completed run (including NotExtendible or failed-check verdicts), 2 for
input validation problems, 3 for numerical failures (including numpy's
LinAlgError and float overflow).  A command runs with numpy's
floating-point warnings off: the writer refuses a non-finite number in
the report, and QPowers a non-finite power of Q before any solve sees it,
so a failed run writes one line to stderr and nothing to stdout.

Output is byte-deterministic: given the same input and seed, the report
is identical.  Floats are printed with 17 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from json.encoder import encode_basestring_ascii as _encode_str  # the bytes json.dumps gives a str

import numpy as np

from . import extend as extend_mod
from . import leafcauchy, moments, quadform
from .errors import InputError, NumericalError, NumericalFailure
from .polyalg import Polynomial, complex_from_json, real_from_json

PROG = "crextend"
GRID_MIN, GRID_MAX = 64, 4096


# -- canonical JSON ----------------------------------------------------------


def _format_float(x):
    if not math.isfinite(x):
        raise NumericalFailure(f"cannot serialize non-finite number {x}")
    return format(float(x), ".17g")


def _scalar(obj):
    """JSON text of a value that is not a list, tuple or dict."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(obj)
    if isinstance(obj, str):
        return _encode_str(obj)
    raise InputError(f"cannot serialize object of type {type(obj).__name__}")


def _write(obj, out, nl):
    """Append the chunks of obj to out; nl is the newline and indent of obj's line.

    Each item is appended as "," + newline + indent + (key ": ") + value, and the
    first item's comma then becomes the opening bracket.  Exact floats, strings
    and ints are written in the loop; anything else goes through _write.
    """
    inner = nl + "  "
    if isinstance(obj, dict):
        brackets = "{}"
        heads = [f",{inner}{_encode_str(str(k))}: " for k in obj]
        values = obj.values()
    elif isinstance(obj, (list, tuple)):
        brackets = "[]"
        heads = [f",{inner}"] * len(obj)
        values = obj
    else:
        out.append(_scalar(obj))
        return
    if not heads:
        out.append(brackets)
        return
    first = len(out)
    append = out.append
    for head, v in zip(heads, values):
        append(head)
        t = type(v)
        if t is float:
            append("%.17g" % v if math.isfinite(v) else _format_float(v))
        elif t is str:
            append(_encode_str(v))
        elif t is int:
            append(str(v))
        else:
            _write(v, out, inner)
    out[first] = brackets[0] + out[first][1:]
    append(nl + brackets[1])


def dumps_canonical(obj):
    """JSON text with deterministic layout and 17-significant-digit floats."""
    out = []
    _write(obj, out, "\n")
    return "".join(out)


def _cnum(v):
    v = complex(v)
    return {"re": v.real, "im": v.imag}


# -- configuration -----------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    tol_extend: float = extend_mod.DEFAULT_EXTEND_TOL
    tol_moment: float = moments.DEFAULT_MOMENT_TOL
    tol_leaf: float = moments.LEAF_RESIDUAL_TOL
    grid_n: int = moments.DEFAULT_GRID_N
    leaf_ladder: list | None = None
    seed: int = 0
    out: str | None = None

    def validate(self):
        for name in ("tol_extend", "tol_moment", "tol_leaf"):
            v = getattr(self, name)
            if not real_from_json(v, f"config {name}") > 0:
                raise InputError(f"config {name} must be positive, got {v!r}")
        N = self.grid_n
        if not isinstance(N, int) or not GRID_MIN <= N <= GRID_MAX or N & (N - 1):
            raise InputError(
                f"config grid_n must be a power of two in [{GRID_MIN}, {GRID_MAX}], got {N!r}"
            )
        if not 0 <= real_from_json(self.seed, "config seed", integer=True) < 2**64:
            raise InputError(f"config seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if self.out is not None and not isinstance(self.out, str):
            raise InputError(f"config out must be a path string, got {self.out!r}")
        if self.leaf_ladder is not None:
            if not all(r > 0 for r in _number_list(self.leaf_ladder, "config leaf_ladder")):
                raise InputError("config leaf_ladder must contain positive numbers")
        return self

    def to_json_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "out"}


def _load_config(args) -> RunConfig:
    cfg = RunConfig()
    names = {f.name for f in fields(RunConfig)}
    if args.config is not None:
        doc = _read_json(args.config)
        if not isinstance(doc, dict):
            raise InputError("config file must contain a JSON object")
        unknown = set(doc) - names
        if unknown:
            raise InputError(f"unknown config fields: {sorted(unknown)}")
        cfg = replace(cfg, **doc)
    flags = {k: v for k, v in vars(args).items() if k in names and v is not None}
    return replace(cfg, **flags).validate()


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
    except (ValueError, RecursionError) as exc:  # integer too long, nesting too deep
        raise InputError(f"malformed JSON in {name}: {exc}") from exc


def _require(doc, field, where):
    if not isinstance(doc, dict) or field not in doc:
        raise InputError(f"{where}: missing field {field!r}")
    return doc[field]


def _number_list(values, where):
    """A non-empty list of finite numbers, as floats."""
    if not isinstance(values, (list, tuple)) or not values:
        raise InputError(f"{where} must be a non-empty list of numbers")
    return [real_from_json(v, f"{where}[{i}]") for i, v in enumerate(values)]


def _parse_boundary_data(doc):
    if not isinstance(doc, dict):
        raise InputError("data: must be a JSON object")
    if "polynomial" in doc:
        return leafcauchy.BoundaryData.from_polynomial(
            Polynomial.from_json_dict(doc["polynomial"])
        )
    if "builtin" in doc:
        value = real_from_json(doc.get("value", 1.0), "data value")
        return leafcauchy.BoundaryData.builtin(doc["builtin"], value=value)
    raise InputError("data: expected a 'polynomial' or 'builtin' field")


def _parse_ladder(doc):
    if isinstance(doc, list):
        return _number_list(doc, "ladder")
    if isinstance(doc, dict):
        start = real_from_json(_require(doc, "start", "ladder"), "ladder start")
        ratio = real_from_json(_require(doc, "ratio", "ladder"), "ladder ratio")
        count = real_from_json(_require(doc, "count", "ladder"), "ladder count", integer=True)
        if count > leafcauchy.MAX_LADDER_RUNGS:
            raise InputError(f"ladder count {count} exceeds {leafcauchy.MAX_LADDER_RUNGS}")
        try:
            return [start * ratio**i for i in range(count)]
        except OverflowError as exc:
            raise InputError(f"ladder levels overflow: start {start}, ratio {ratio}") from exc
    raise InputError("ladder: expected a list of levels or {start, ratio, count}")


# -- commands ----------------------------------------------------------------
# Each command maps the input document and the run configuration to its own
# report fields; its docstring is its line in `crextend --help`.


def _cmd_classify(doc, cfg: RunConfig):
    """classify a quadric model and compute its Bishop normal form"""
    model = quadform.QuadricModel.from_json_dict(doc)
    result = quadform.classify(model)
    nf = result.normal_form
    return {
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


def _cmd_extend(doc, cfg: RunConfig):
    """holomorphic polynomial extension of boundary data"""
    model = quadform.QuadricModel.from_json_dict(_require(doc, "model", "extend input"))
    f = Polynomial.from_json_dict(_require(doc, "f", "extend input"))
    result = extend_mod.extend_general(f, model, tol=cfg.tol_extend)
    report = {
        "status": result.status,
        "P": result.P.to_json_dict() if result.P is not None else None,
        "P_pretty": result.P.pretty() if result.P is not None else None,
        "residual": result.residual,
        "certificate": asdict(result.certificate) if result.certificate is not None else None,
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
        err = extend_mod.verify_extension(result.P, f, model, seed=cfg.seed)
        report["verify"] = {"max_pointwise_error": err, "samples": extend_mod.VERIFY_SAMPLES, "seed": cfg.seed}
    return report


def _cmd_check(doc, cfg: RunConfig):
    """moment conditions (n = 1) or CR field check (n >= 2)"""
    model = quadform.QuadricModel.from_json_dict(_require(doc, "model", "check input"))
    f = Polynomial.from_json_dict(_require(doc, "f", "check input"))
    if model.n == 1:
        leaves = doc.get("leaves", cfg.leaf_ladder)
        if leaves is not None:
            leaves = _number_list(leaves, "check input 'leaves'")
        Lmax = doc.get("Lmax")
        if Lmax is not None:
            Lmax = real_from_json(Lmax, "check input 'Lmax'", integer=True)
        tol = real_from_json(doc.get("tol", cfg.tol_moment), "check input 'tol'")
        if not tol > 0:
            raise InputError(f"check input 'tol' must be positive, got {tol!r}")
        report = moments.check_moments(
            f, model, leaves=leaves, Lmax=Lmax, tol=tol, N=cfg.grid_n, leaf_tol=cfg.tol_leaf
        )
        return {"mode": "moments", **report.to_json_dict()}
    violations = moments.cr_check(f, model)
    return {
        "mode": "cr-fields",
        "passed": not violations,
        "violations": [v.to_json_dict() for v in violations],
    }


def _cmd_leaf_extend(doc, cfg: RunConfig):
    """Cauchy extension of boundary data on one hull leaf"""
    model = quadform.QuadricModel.from_json_dict(_require(doc, "model", "leaf-extend input"))
    data = _parse_boundary_data(_require(doc, "data", "leaf-extend input"))
    r = real_from_json(_require(doc, "r", "leaf-extend input"), "leaf-extend input 'r'")
    points_doc = _require(doc, "points", "leaf-extend input")
    if not isinstance(points_doc, list):
        raise InputError("leaf-extend input: 'points' must be a list")
    points = [complex_from_json(v, f"points[{i}]") for i, v in enumerate(points_doc)]
    leaf = moments.solve_leaf(model, r, N=cfg.grid_n, tol=cfg.tol_leaf)
    ext = leafcauchy.cauchy_extend(data, leaf, points)
    return {
        "r": r,
        "level": leaf.level,
        "data": data.description,
        "values": [
            {"z": _cnum(z), "F": _cnum(ext.interior_values[z]), "winding_defect": ext.winding_defects[z],
             "error_estimate": ext.error_estimates[z]}
            for z in points
        ],
    }


def _cmd_probe_degenerate(doc, cfg: RunConfig):
    """growth exponent of the transverse derivative at the singularity"""
    family_doc = _require(doc, "family", "probe-degenerate input")
    kind = _require(family_doc, "kind", "family")
    if kind == "quadric":
        model = quadform.QuadricModel.from_json_dict(_require(family_doc, "model", "family"))
        family = leafcauchy.quadric_leaf_family(model, N=cfg.grid_n, tol=cfg.tol_leaf)
    elif kind == "radial":
        power = real_from_json(_require(family_doc, "power", "family"), "family power")
        if power < 2:
            raise InputError(f"family: radial power must be >= 2, got {power}")
        family = leafcauchy.radial_leaf_family(lambda s: s ** (1.0 / power), N=cfg.grid_n)
    else:
        raise InputError(f"family: unknown kind {kind!r} (expected 'quadric' or 'radial')")
    data = _parse_boundary_data(_require(doc, "data", "probe-degenerate input"))
    ladder = _parse_ladder(_require(doc, "ladder", "probe-degenerate input"))
    report = leafcauchy.normal_derivative_probe(data, family, ladder)
    return {
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


@functools.cache
def _parser():
    """The one argument parser, built on first use: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Holomorphic extension at elliptic, holomorphically flat CR singularities.",
        epilog="commands:\n" + "\n".join(f"  {name:18}{cmd.__doc__}" for name, cmd in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, metavar="command", help="the command to run (listed below)")
    parser.add_argument("input", help="input JSON document (path or '-' for stdin)")
    parser.add_argument("--config", help="JSON file with run configuration defaults")
    parser.add_argument("--seed", type=int, help="seed for all sampling (default 0)")
    parser.add_argument("--tol-extend", type=float, help="extension residual tolerance")
    parser.add_argument("--tol-moment", type=float, help="moment modulus tolerance")
    parser.add_argument("--grid-n", type=int, help="leaf grid size (power of two in [64, 4096])")
    parser.add_argument("--out", help="write the report to this path instead of stdout")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        doc = _read_json(args.input)
        with np.errstate(all="ignore"):  # see the module docstring
            report = {"command": args.command, "config": cfg.to_json_dict(), **_COMMANDS[args.command](doc, cfg)}
        text = dumps_canonical(report) + "\n"
        if cfg.out is not None:
            try:
                with open(cfg.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise InputError(f"cannot write the report to {cfg.out}: {exc.strerror or exc}") from exc
        else:
            sys.stdout.write(text)
        return 0
    except InputError as exc:
        sys.stderr.write(f"{PROG}: input error: {exc}\n")
        return 2
    except (NumericalError, np.linalg.LinAlgError, OverflowError) as exc:
        sys.stderr.write(f"{PROG}: numerical failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
