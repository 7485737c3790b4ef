"""Property test: a document or config file with one scalar replaced ends in exit 0, 2 or 3, the same way twice."""

import contextlib
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from crextend import Polynomial, normal_form_model  # noqa: E402
from crextend.cli import main  # noqa: E402

MODEL = normal_form_model([0.2]).to_json_dict()
F = (Polynomial.z(1) ** 2 * Polynomial.zbar(1) + 0.5 * Polynomial.zbar(1)).to_json_dict()

# One small valid document per subcommand; the coarsest grid keeps each run short.
DOCUMENTS = {
    "classify": MODEL,
    "extend": {"model": normal_form_model([0.2, 0.1]).to_json_dict(), "f": Polynomial.z(2, 1).to_json_dict()},
    "check": {"model": MODEL, "f": F, "leaves": [0.1, 0.2], "Lmax": 4, "tol": 1e-8},
    "leaf-extend": {
        "model": MODEL,
        "data": {"builtin": "constant", "value": 1.0},
        "r": 0.3,
        "points": [{"re": 0.1, "im": 0.0}],
    },
    "probe-degenerate": {
        "family": {"kind": "radial", "power": 4},
        "data": {"builtin": "sqrt-re-w"},
        "ladder": {"start": 1e-4, "ratio": 2.0, "count": 6},
    },
}

# A small config file, run with a check document that reads leaf_ladder, tol_moment,
# tol_leaf and grid_n from it; `out` is left out, since a mutated path would write files.
CONFIG = {"tol_extend": 1e-9, "tol_moment": 1e-8, "tol_leaf": 1e-12, "grid_n": 64, "leaf_ladder": [0.1, 0.2], "seed": 0}
CONFIG_CHECK = {"model": MODEL, "f": F, "Lmax": 4}

MUTATIONS = ["abc", True, False, None, [1], float("nan"), float("inf"), float("-inf"), 0, -1, 10**9]


def _scalar_paths(doc, prefix=()):
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return [prefix]
    return [p for key, value in items for p in _scalar_paths(value, prefix + (key,))]


def _replaced(doc, path, value):
    if not path:
        return value
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    out[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return out


TARGETS = [(command, path) for command, doc in DOCUMENTS.items() for path in _scalar_paths(doc)]
TARGETS += [("config", path) for path in _scalar_paths(CONFIG)]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=5000, derandomize=True, database=None)
@given(target=st.sampled_from(TARGETS), value=st.sampled_from(MUTATIONS))
def test_mutated_scalar_ends_in_a_known_exit_code(tmp_path_factory, target, value):
    command, path = target
    tmp = tmp_path_factory.mktemp("doc")
    doc_path = tmp / "in.json"
    if command == "config":
        doc_path.write_text(json.dumps(CONFIG_CHECK))
        (tmp / "cfg.json").write_text(json.dumps(_replaced(CONFIG, path, value)))
        argv = ["check", str(doc_path), "--config", str(tmp / "cfg.json")]
    else:
        doc_path.write_text(json.dumps(_replaced(DOCUMENTS[command], path, value)))
        argv = [command, str(doc_path), "--grid-n", "64"]
    first = _run(argv)
    assert first[0] in (0, 2, 3)
    assert _run(argv) == first
