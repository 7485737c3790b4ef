"""Document I/O against the test-only references in ioref.py.

The term reader must give the reference's arrays bit for bit on well-formed
term lists and the reference's message on a list with one bad term; the
canonical writer must give the reference's bytes and errors.
"""

import contextlib
import copy
import io

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import ioref  # noqa: E402
from conftest import perfbench_corpus  # noqa: E402
from crextend import InputError, Polynomial, cli  # noqa: E402
from crextend.errors import NumericalFailure  # noqa: E402
from crextend.polyalg import DEGREE_CAP  # noqa: E402

# -- term reader -----------------------------------------------------------------

# Exact ints and floats of every size the bulk path reads, and ints beyond int64.
COEFFS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**80), 2**80),
    st.sampled_from([0, -0.0, 1e-15, 5e-324, 1.7976931348623157e308]),
)


@st.composite
def term_lists(draw, min_terms=0):
    """(n, terms): a term list with distinct rows, n in 1..4, degree at most DEGREE_CAP."""
    n = draw(st.integers(1, 4))
    vector = st.lists(st.integers(0, 7), min_size=n, max_size=n)
    rows = draw(
        st.lists(
            st.tuples(vector, vector, st.integers(0, 8)),
            min_size=min_terms,
            max_size=10,
            unique_by=lambda r: (tuple(r[0]), tuple(r[1]), r[2]),
        )
    )
    return n, [{"alpha": a, "beta": b, "k": k, "re": draw(COEFFS), "im": draw(COEFFS)} for a, b, k in rows]


def _outcome(read, doc):
    """The message of the InputError read(doc) raises, or the bytes of its arrays."""
    try:
        p = read(doc)
    except InputError as exc:
        return str(exc)
    return p.n, p.exps.shape, p.exps.tobytes(), p.coeffs.tobytes()


def _exponent(draw, term):
    """A drawn place of one exponent in term: (list or term, key)."""
    field = draw(st.sampled_from(["alpha", "beta", "k"]))
    if field == "k":
        return term, "k"
    return term[field], draw(st.integers(0, len(term[field]) - 1))


def _set_exponent(value):
    def mutate(draw, terms, i, n):
        owner, key = _exponent(draw, terms[i])
        owner[key] = value

    return mutate


def _set_coeff(value):
    def mutate(draw, terms, i, n):
        terms[i][draw(st.sampled_from(["re", "im"]))] = value

    return mutate


def _drop_field(draw, terms, i, n):
    del terms[i][draw(st.sampled_from(["alpha", "beta", "k", "re", "im"]))]


def _alpha_long_beta_short(draw, terms, i, n):
    terms[i]["alpha"].append(0)
    terms[i]["beta"].pop()


def _one_vector_short(draw, terms, i, n):
    terms[i][draw(st.sampled_from(["alpha", "beta"]))].pop()


def _above_cap(draw, terms, i, n):
    terms[i]["k"] = DEGREE_CAP + 1 - sum(terms[i]["alpha"]) - sum(terms[i]["beta"]) + draw(st.integers(0, 3))


def _duplicate(draw, terms, i, n):
    j = draw(st.integers(0, len(terms)))
    source = terms[i]
    terms.insert(j, {**copy.deepcopy(source), "re": 1.0, "im": 0.0})


def _not_an_object(draw, terms, i, n):
    terms[i] = draw(st.sampled_from([None, [], "term", 1]))


def _vector_not_a_list(draw, terms, i, n):
    terms[i][draw(st.sampled_from(["alpha", "beta"]))] = draw(st.sampled_from(["1", 1, None, {"0": 1}]))


MUTATIONS = {
    "exponent-true": _set_exponent(True),
    "exponent-false": _set_exponent(False),
    "exponent-float": _set_exponent(1.0),
    "exponent-string": _set_exponent("1"),
    "exponent-null": _set_exponent(None),
    "exponent-negative": _set_exponent(-1),
    "exponent-2^63": _set_exponent(2**63),
    "exponent-2^64+1": _set_exponent(2**64 + 1),
    "exponent--2^63-1": _set_exponent(-(2**63) - 1),
    "degree-above-cap": _above_cap,
    "missing-field": _drop_field,
    "alpha-n+1-beta-n-1": _alpha_long_beta_short,
    "vector-short": _one_vector_short,
    "vector-not-a-list": _vector_not_a_list,
    "coeff-nan": _set_coeff(float("nan")),
    "coeff-inf": _set_coeff(float("inf")),
    "coeff--inf": _set_coeff(float("-inf")),
    "coeff-string": _set_coeff("abc"),
    # both readers refuse a numeric string and a bool, as real_from_json does
    "coeff-numeric-string": _set_coeff("1.5"),
    "coeff-bool": _set_coeff(True),
    "coeff-null": _set_coeff(None),
    "coeff-beyond-float": _set_coeff(-(10**400)),
    "duplicate-row": _duplicate,
    "term-not-an-object": _not_an_object,
}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=term_lists())
def test_reader_matches_reference_on_valid_terms(case):
    n, terms = case
    doc = {"n": n, "terms": terms}
    got = _outcome(Polynomial.from_json_dict, doc)
    assert not isinstance(got, str)
    assert got == _outcome(ioref.from_json_dict, doc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=term_lists(min_terms=1), name=st.sampled_from(sorted(MUTATIONS)), data=st.data())
def test_reader_matches_reference_on_one_bad_term(case, name, data):
    n, terms = case
    if name == "alpha-n+1-beta-n-1" and n == 1:
        n, terms = 2, [{**t, "alpha": t["alpha"] * 2, "beta": t["beta"] * 2} for t in terms]
    i = data.draw(st.integers(0, len(terms) - 1))
    MUTATIONS[name](data.draw, terms, i, n)
    doc = {"n": n, "terms": terms}
    assert _outcome(Polynomial.from_json_dict, doc) == _outcome(ioref.from_json_dict, doc)


@pytest.mark.parametrize("n", [2**62, 10**20])
def test_reader_refuses_n_beyond_the_exponent_matrix(n):
    with pytest.raises(InputError, match="polynomial field 'n'"):
        Polynomial.from_json_dict({"n": n, "terms": []})


# -- canonical writer ------------------------------------------------------------

TEXT = st.text(st.characters(codec="utf-8"), max_size=6) | st.sampled_from(["", 'q"\\/\n\t\x00\x7f', "é€😀"])
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e22, 0.1]),
    TEXT,
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(TEXT | st.integers(-5, 5), inner, max_size=4),
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(obj=VALUES)
def test_writer_matches_reference(obj):
    assert cli.dumps_canonical(obj) == ioref.dumps_canonical(obj)


def test_writer_tells_equal_keys_of_other_types_apart():
    # 1, True and 1.0 are equal dict keys, so cached key heads must not be shared among them
    for obj in ({1: 0}, {True: 0}, {1.0: 0}, {"1": 0}, {1: 0}, {"a": {True: [{1.0: 0}]}}, {"a": {1: [{True: 0}]}}):
        assert cli.dumps_canonical(obj) == ioref.dumps_canonical(obj)


@pytest.mark.parametrize(
    "bad, error",
    [
        (float("nan"), NumericalFailure),
        (float("-inf"), NumericalFailure),
        (np.float64("inf"), NumericalFailure),
        (np.float32("nan"), NumericalFailure),
        (object(), InputError),
        ({1, 2}, InputError),
        (b"bytes", InputError),
        (1 + 2j, InputError),
        (np.array([1.0]), InputError),
        (np.bool_(True), InputError),
    ],
)
def test_writer_errors_match_reference(bad, error):
    for obj in (bad, [1.0, bad], {"a": {"b": [bad, "later"]}}, ({"z": bad},)):
        with pytest.raises(error) as got:
            cli.dumps_canonical(obj)
        with pytest.raises(error) as want:
            ioref.dumps_canonical(obj)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("workload", ["cli-small", "extend-graded", "leaf-quadrature"])
def test_writer_matches_reference_on_corpus_reports(tmp_path, monkeypatch, workload):
    corpus = perfbench_corpus()
    reports = []
    write = cli.dumps_canonical

    def capture(report):
        reports.append(report)
        return write(report)

    monkeypatch.setattr(cli, "dumps_canonical", capture)
    path = tmp_path / "in.json"
    docs = [doc for index in (0, 1) for doc in corpus.block(workload, 1, index)]
    for doc in docs:
        path.write_text(doc.text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main([doc.command, str(path), *doc.flags])
    assert reports
    for report in reports:
        assert write(report) == ioref.dumps_canonical(report)
