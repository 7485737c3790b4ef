"""Property test: the array core of Polynomial against the dict-loop reference in dictref.py."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import dictref  # noqa: E402
from crextend import Polynomial  # noqa: E402
from crextend.polyalg import DEGREE_CAP, sorted_runs  # noqa: E402
from dictref import Exponent, from_terms, term_dict, term_sort_key  # noqa: E402

# Dyadic values sum exactly in any order, so cancellations are exact on both
# sides; the others exercise rounding.
COEFFS = [1, -1, 0.5, -0.25j, 1j, 0.75 - 0.5j, 0.3 + 0.1j, -0.7j, 1 / 3]


@st.composite
def term_dicts(draw, n, max_terms=8, max_exp=3, with_w=True):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        alpha = tuple(draw(st.integers(0, max_exp)) for _ in range(n))
        beta = tuple(draw(st.integers(0, max_exp)) for _ in range(n))
        k = draw(st.integers(0, 2)) if with_w else 0
        terms[Exponent(alpha, beta, k)] = complex(draw(st.sampled_from(COEFFS)))
    return terms


def assert_matches(p, ref):
    """Same exponent set, coefficients within 1e-15 (1 + max |c|), rows in term_sort_key order."""
    assert set(term_dict(p)) == set(ref)
    tol = 1e-15 * (1 + max((abs(c) for c in ref.values()), default=0.0))
    for e, c in ref.items():
        assert abs(term_dict(p)[e] - c) <= tol
    assert list(term_dict(p)) == sorted(term_dict(p), key=term_sort_key)
    assert p.exps.shape == (len(p.terms), 2 * p.n + 1) and len(p.coeffs) == len(p.terms)


@st.composite
def cases(draw):
    n = draw(st.integers(1, 4))
    t1, t2 = draw(term_dicts(n)), draw(term_dicts(n))
    q = draw(term_dicts(n, max_terms=4, max_exp=1, with_w=False))
    return n, t1, t2, q


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    case=cases(),
    d=st.integers(0, 8),
    var=st.sampled_from(["z", "zbar", "w"]),
    index=st.integers(0, 3),
)
def test_array_core_matches_dict_reference(case, d, var, index):
    n, t1, t2, q = case
    p1, p2, pq = from_terms(n, t1), from_terms(n, t2), from_terms(n, q)
    # the reference walks the canonical terms, in term_sort_key order
    r1, r2, rq = term_dict(p1), term_dict(p2), term_dict(pq)
    assert_matches(p1, dictref.prune(t1))
    assert_matches(p1 * p2, dictref.mul(r1, r2))
    assert_matches(p1 + p2, dictref.add(r1, r2))
    assert_matches(p1 - p2, dictref.add(r1, r2, -1.0))
    assert_matches(p1.substitute_w(pq), dictref.substitute_w(r1, rq, n))
    index = index % n
    assert_matches(p1.partial_derivative(var, index), dictref.partial_derivative(r1, var, index))
    assert_matches(pq.conjugate(), dictref.conjugate(rq))
    for weighted in (False, True):
        assert_matches(p1.homogeneous_part(d, weighted), dictref.homogeneous_part(r1, d, weighted))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    t=term_dicts(1, max_terms=8, max_exp=6, with_w=False),
    lam=st.sampled_from([0.1, 0.25, 0.45, 2.0]),
)
def test_involution_pullback_matches_dict_reference(t, lam):
    p = from_terms(1, t)
    assert_matches(p.involution_pullback(lam), dictref.involution_pullback(term_dict(p), lam))


def test_exact_cancellation_leaves_no_rows():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 4):
        exps = np.column_stack((rng.integers(0, 3, (10, 2 * n)), rng.integers(0, 2, 10)))
        p = Polynomial(n, exps, rng.standard_normal(10) + 1j * rng.standard_normal(10))
        assert (p - p).is_zero() and (p + (-p)).exps.shape == (0, 2 * n + 1)
        assert (p * p - p * p).is_zero()


def test_wide_rows_with_large_exponents_match_dict_reference():
    # n = 8 (17 columns) with an exponent of 20 in each term
    rng = np.random.default_rng(5)
    n = 8
    terms = []
    for _ in range(12):
        row = np.zeros(2 * n, dtype=int)
        row[rng.choice(2 * n, 4, replace=False)] = 1
        row[rng.integers(0, 2 * n)] = 20
        terms.append(Exponent(tuple(row[:n]), tuple(row[n:]), int(rng.integers(0, 2))))
    t1 = {e: complex(*rng.standard_normal(2)) for e in terms}
    t2 = {Exponent(e.beta, e.alpha, e.k): c for e, c in list(t1.items())[:6]}
    p1, p2 = from_terms(n, t1), from_terms(n, t2)
    assert_matches(p1, dictref.prune(t1))
    assert_matches(p1 * p2, dictref.mul(term_dict(p1), term_dict(p2)))
    assert_matches(p1 + p2, dictref.add(term_dict(p1), term_dict(p2)))


@st.composite
def exponent_rows(draw):
    """Rows of 2n + 1 exponents with repeats, and twins that trade one w for zbar_j^2."""
    n = draw(st.integers(1, 10))
    top = draw(st.sampled_from([1, 2, 3, 8, DEGREE_CAP]))
    row = st.lists(st.integers(0, top), min_size=2 * n + 1, max_size=2 * n + 1)
    rows = draw(st.lists(row, max_size=12))
    for _ in range(draw(st.integers(0, 6)) if rows else 0):
        twin = list(rows[draw(st.integers(0, len(rows) - 1))])
        if twin[-1] and draw(st.booleans()):
            twin[-1] -= 1
            twin[n + draw(st.integers(0, n - 1))] += 2
        rows.insert(draw(st.integers(0, len(rows))), twin)
    return np.array(rows, dtype=np.int64).reshape(len(rows), 2 * n + 1)


def assert_runs_match_reference(exps):
    order, starts = sorted_runs(exps)
    want_order, want_starts = dictref.sorted_runs(exps)
    assert order.tolist() == want_order.tolist()
    assert starts.tolist() == want_starts.tolist()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(exps=exponent_rows())
@example(exps=np.zeros((0, 7), dtype=np.int64))
@example(exps=np.ones((1, 7), dtype=np.int64))
def test_sorted_runs_matches_stable_python_sort(exps):
    assert_runs_match_reference(exps)


@pytest.mark.parametrize("n, degree, lexsorts", [(3, 14, 0), (10, 40, 1)])
def test_sorted_runs_packed_and_lexsort_paths(monkeypatch, n, degree, lexsorts):
    # rows of degree <= degree with a zbar_1^degree among them, then repeats of
    # half of them: n = 3 packs into int64 keys, n = 10 needs np.lexsort
    rng = np.random.default_rng(degree)
    rows = [rng.multinomial(d, np.full(2 * n + 1, 1 / (2 * n + 1))) for d in rng.integers(0, degree + 1, 500)]
    rows[0] = np.eye(2 * n + 1, dtype=np.int64)[n] * degree
    exps = np.array(rows, dtype=np.int64)
    exps = np.concatenate((exps, exps[rng.permutation(500)[:250]]))
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
    assert_runs_match_reference(exps)
    assert len(calls) == lexsorts
