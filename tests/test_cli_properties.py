"""Property tests of the CLI on documents it may be given.

A valid document or config file with one scalar replaced, and a newly
generated document for each subcommand, each end in exit 0, 2 or 3, the
same way twice.
"""

import contextlib
import io
import json
import time

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

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


# -- generated documents -------------------------------------------------------

SCALES = (1.0, 1e-8, 1e8, 1e-200, 1e100, 1e200)
LAMBDAS = (0.1, 0.0, 0.3, 0.45, 0.5, 0.7)
LENGTHS = (0.2, 0.05, 1e-3, 1.0, 1e3, 1e-300, 1e300)  # leaf radii and levels
MAX_DEGREE = {1: 8, 2: 6, 3: 4}
SECONDS = 10.0  # per run; the slowest generated documents take well under 1 s

unit = st.floats(-1.0, 1.0, allow_nan=False)


def _number(z):
    return {"re": float(z.real), "im": float(z.imag)}


def _matrix(M):
    return [[_number(v) for v in row] for row in M]


@st.composite
def complex_matrices(draw, n):
    re, im = (np.array(draw(st.lists(unit, min_size=n * n, max_size=n * n))).reshape(n, n) for _ in "ri")
    return re + 1j * im


@st.composite
def models(draw, n, leaves=False):
    """A quadric model document: a normal form, a congruent model A = S^H S,
    B = S^T diag(lambda) S with complex off-diagonal A, or Hermitian A and
    symmetric B drawn freely; scaled as a whole.  For the leaf commands
    (leaves=True, n = 1) three in five are normal forms, some with E."""
    lambdas = draw(st.lists(st.sampled_from(LAMBDAS), min_size=n, max_size=n))
    kinds = ("normal", "normal", "normal", "congruent", "free") if leaves else ("normal", "congruent", "free")
    kind = draw(st.sampled_from(kinds))
    if kind == "normal":
        A, B = np.eye(n, dtype=complex), np.diag(lambdas).astype(complex)
    elif kind == "congruent":
        S = np.eye(n) + 0.5 * draw(complex_matrices(n))
        A, B = S.conj().T @ S, S.T @ np.diag(lambdas) @ S
    else:
        A, B = draw(complex_matrices(n)), draw(complex_matrices(n))
    scale = draw(st.sampled_from(SCALES)) if kind != "normal" or not leaves else 1.0
    A, B = scale * (A + A.conj().T) / 2, scale * (B + B.T) / 2  # exactly Hermitian and symmetric
    doc = {"n": n, "A": _matrix(A), "B": _matrix(B)}
    if leaves and draw(st.booleans()):  # the real quartic c |z|^4
        c = draw(st.sampled_from((0.5, 30.0, 1e200)))
        doc["E"] = {"n": 1, "terms": [{"alpha": [2], "beta": [2], "k": 0, "re": c, "im": 0.0}]}
    return doc


@st.composite
def polynomials(draw, n):
    """A w-free polynomial document, holomorphic (extendible as it stands) or mixed.

    A term is a list of at most MAX_DEGREE[n] variables, z_1..z_n then
    zbar_1..zbar_n, whose product it is.
    """
    variables = n if draw(st.booleans()) else 2 * n
    scale = draw(st.sampled_from(SCALES))
    factors = st.lists(st.integers(0, variables - 1), max_size=MAX_DEGREE[n])
    terms = {}
    for term in draw(st.lists(factors, min_size=1, max_size=6)):
        row = np.bincount(term, minlength=2 * n).tolist()
        terms[tuple(row)] = complex(draw(unit), draw(unit)) * scale
    return {
        "n": n,
        "terms": [{"alpha": list(r[:n]), "beta": list(r[n:]), "k": 0, **_number(c)} for r, c in terms.items()],
    }


@st.composite
def boundary_data(draw):
    if draw(st.booleans()):
        return {"polynomial": draw(polynomials(1))}
    name = draw(st.sampled_from(("constant", "identity", "sqrt-re-w")))
    return {"builtin": name, "value": draw(st.sampled_from(SCALES))}


@st.composite
def documents(draw, command):
    if command == "classify":
        return draw(models(draw(st.integers(1, 3))))
    if command == "extend":
        n = draw(st.integers(1, 3))
        return {"model": draw(models(n)), "f": draw(polynomials(n))}
    if command == "check":
        n = draw(st.integers(1, 3))
        doc = {"model": draw(models(n, leaves=n == 1)), "f": draw(polynomials(n))}
        if draw(st.booleans()):
            doc["leaves"] = draw(st.lists(st.sampled_from(LENGTHS), min_size=1, max_size=3))
        if draw(st.booleans()):
            doc["Lmax"] = draw(st.integers(0, 8))
        return doc
    if command == "leaf-extend":
        r = draw(st.sampled_from(LENGTHS))
        where = st.tuples(st.sampled_from((0.0, 0.5, 0.99, 2.0)), st.floats(0, 2 * np.pi))
        points = [_number(t * r * np.exp(1j * a)) for t, a in draw(st.lists(where, min_size=1, max_size=3))]
        return {"model": draw(models(1, leaves=True)), "data": draw(boundary_data()), "r": r, "points": points}
    if draw(st.booleans()):
        family = {"kind": "quadric", "model": draw(models(1, leaves=True))}
    else:
        family = {"kind": "radial", "power": draw(st.sampled_from((2, 4, 8)))}
    start, ratio = draw(st.sampled_from((1e-6, 1e-3, 0.1, 10.0))), draw(st.sampled_from((1.5, 2.0)))
    ladder = {"start": start, "ratio": ratio, "count": draw(st.integers(6, 8))}
    return {"family": family, "data": draw(boundary_data()), "ladder": ladder}


@pytest.mark.parametrize("command", sorted(DOCUMENTS))
@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=st.data())
def test_generated_document_ends_in_a_known_exit_code(tmp_path_factory, capfd, command, data):
    doc = data.draw(documents(command), label="document")
    path = tmp_path_factory.mktemp("doc") / "in.json"
    path.write_text(json.dumps(doc))
    runs = []
    for _ in range(2):
        capfd.readouterr()
        start = time.perf_counter()
        code = main([command, str(path), "--grid-n", "64"])
        seconds = time.perf_counter() - start
        out, err = capfd.readouterr()  # file descriptors 1 and 2: C libraries write there too
        assert code in (0, 2, 3)
        assert seconds < SECONDS
        assert code == 0 or out == ""
        runs.append((code, out, err))
    assert runs[0] == runs[1]
