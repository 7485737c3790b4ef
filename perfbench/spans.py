"""Per-layer spans around crextend's public functions, installed from outside.

Tracer.install() replaces every traced function by a timing wrapper in each
crextend module namespace that holds it (a name imported with `from x import
f` is a separate binding, so every binding is patched), and the Polynomial
methods on the class.  numpy's lstsq is wrapped only as extend sees it, through
a stand-in for extend's `np`.  uninstall() puts every original back.

A wrapper counts a call and its self time: its span minus the spans of the
traced calls made inside it.  A function already on the stack (recursion, as
in dumps_canonical) is passed through, so only the outermost call counts.
Work counts are taken at the same boundaries.  Spans are aggregated in
memory; nothing is written while the benchmark runs.
"""

from __future__ import annotations

import sys
from functools import wraps
from time import perf_counter_ns

# Traced functions, by the module that defines them.
FUNCTIONS = {
    "extend": ("extend_general", "verify_extension", "check_involution_invariance"),
    "quadform": ("classify", "normalize", "takagi", "ellipticity_oracle", "default_radii", "q_polynomial"),
    "moments": ("solve_leaf", "eval_on_grid", "check_moments", "cr_check"),
    "leafcauchy": ("cauchy_extend", "normal_derivative_probe"),
    "cli": ("main", "dumps_canonical"),
}
# Traced Polynomial methods: metric name -> attribute.
POLY_METHODS = {
    "mul": "__mul__",
    "add": "__add__",
    "init": "__init__",
    "substitute_w": "substitute_w",
    "evaluate": "evaluate",
    "from_json": "from_json_dict",
    "to_json": "to_json_dict",
}


def _mul_pairs(counts, args, result):
    self, other = args
    pairs = len(self.terms) * (len(other.terms) if hasattr(other, "terms") else 1)
    counts["polyalg.mul.term_pairs"] += pairs


def _lstsq_size(counts, args, result):
    M, b = args[0], args[1]
    counts["extend.lstsq.rows"] += M.shape[0]
    counts["extend.lstsq.cols"] += M.shape[1]
    counts["extend.lstsq.bytes"] += M.nbytes + b.nbytes


def _eval_points(counts, args, result):
    counts["moments.eval_on_grid.term_points"] += len(args[0].terms) * result.size


def _cauchy_points(counts, args, result):
    counts["leafcauchy.cauchy_extend.points"] += len(args[2])


def _dump_bytes(counts, args, result):
    counts["cli.dumps_canonical.bytes"] += len(result)


COUNTERS = {
    "polyalg.mul": _mul_pairs,
    "extend.lstsq": _lstsq_size,
    "moments.eval_on_grid": _eval_points,
    "leafcauchy.cauchy_extend": _cauchy_points,
    "cli.dumps_canonical": _dump_bytes,
}
# Work counts and their units; the Newton work of solve_leaf is counted as the
# grid evaluations made while it is on the stack.
COUNTS = {
    "polyalg.mul.term_pairs": "1/doc",
    "extend.lstsq.rows": "1/doc",
    "extend.lstsq.cols": "1/doc",
    "extend.lstsq.bytes": "B/doc",
    "moments.eval_on_grid.term_points": "1/doc",
    "moments.solve_leaf.eval_calls": "1/doc",
    "leafcauchy.cauchy_extend.points": "1/doc",
    "cli.dumps_canonical.bytes": "B/doc",
}
SPANS = (
    [f"polyalg.{m}" for m in POLY_METHODS]
    + [f"{mod}.{f}" for mod, names in FUNCTIONS.items() for f in names]
    + ["extend.lstsq"]
)


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span in SPANS:
        units[f"{span}.calls"] = "1/doc"
        units[f"{span}.self_ms"] = "ms/doc"
    units.update(COUNTS)
    units["trace.overhead"] = "ratio"
    return units


class _Namespace:
    """A module seen through a few replaced attributes."""

    def __init__(self, module, **replaced):
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_ns = dict.fromkeys(SPANS, 0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = []
        self._active = set()
        self._undo = []

    def _wrap(self, name, fn):
        stack, active, counts = self._stack, self._active, self.counts
        calls, self_ns = self.calls, self.self_ns
        count = COUNTERS.get(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if name in active:
                return fn(*args, **kwargs)
            if name == "moments.eval_on_grid" and "moments.solve_leaf" in active:
                counts["moments.solve_leaf.eval_calls"] += 1
            active.add(name)
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter_ns() - t0
                self_ns[name] += span - stack.pop()
                calls[name] += 1
                active.discard(name)
                if stack:
                    stack[-1] += span
            if count is not None:
                count(counts, args, result)
            return result

        return wrapper

    def _replace(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "crextend"]
        for mod, names in FUNCTIONS.items():
            home = sys.modules[f"crextend.{mod}"]
            for fname in names:
                original = getattr(home, fname)
                wrapped = self._wrap(f"{mod}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._replace(m, attr, wrapped)
        cls = sys.modules["crextend.polyalg"].Polynomial
        for short, attr in POLY_METHODS.items():
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(f"polyalg.{short}", raw.__func__))
            else:
                new = self._wrap(f"polyalg.{short}", raw)
            for alias, value in list(vars(cls).items()):  # __rmul__ and __radd__ too
                if value is raw:
                    self._replace(cls, alias, new)
        ext = sys.modules["crextend.extend"]
        np = ext.np
        lstsq = self._wrap("extend.lstsq", np.linalg.lstsq)
        self._replace(ext, "np", _Namespace(np, linalg=_Namespace(np.linalg, lstsq=lstsq)))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def metrics(self, docs, overhead):
        """Per-document means of every per-layer metric."""
        out = {}
        for span in SPANS:
            out[f"{span}.calls"] = self.calls[span] / docs
            out[f"{span}.self_ms"] = self.self_ns[span] / 1e6 / docs
        for name, value in self.counts.items():
            out[name] = value / docs
        out["trace.overhead"] = overhead
        return out
