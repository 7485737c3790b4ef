"""Polynomial engine: arithmetic against evaluation oracles, structure ops, JSON."""

import numpy as np
import pytest

from conftest import loop_evaluate, per_term_evaluate, random_coeff, random_polynomial
from crextend import InputError, Polynomial, normal_form_model, solve_leaf
import crextend.polyalg as polyalg
from crextend.polyalg import DEGREE_CAP, ZERO_THRESHOLD, complex_from_json, monomials
from dictref import Exponent, coefficient, from_terms, term_dict


def z(n=1, j=0):
    return Polynomial.z(n, j)


def zbar(n=1, j=0):
    return Polynomial.zbar(n, j)


def random_points(rng, n, count=6):
    pts = []
    for _ in range(count):
        zz = [complex(a, b) for a, b in rng.uniform(-1, 1, size=(n, 2))]
        w = complex(*rng.uniform(-1, 1, size=2))
        pts.append((zz, w))
    return pts


# -- construction and pruning -------------------------------------------------


def test_zero_and_constant():
    p = Polynomial.zero(2)
    assert p.is_zero()
    assert p.degree() == -1
    c = Polynomial.constant(2, 3 - 1j)
    assert c.evaluate([0.5, 0.5j]) == 3 - 1j


def test_pruning_below_threshold():
    p = from_terms(1, {Exponent((1,), (0,), 0): ZERO_THRESHOLD / 10})
    assert p.is_zero()
    q = z() + (-1) * z()
    assert q.is_zero()


def test_dimension_mismatch_rejected():
    with pytest.raises(InputError):
        z(1) + z(2)
    with pytest.raises(InputError):
        z(1) * z(2)
    with pytest.raises(InputError):
        Polynomial(0, np.zeros((0, 1), dtype=np.int64), [])
    with pytest.raises(InputError):
        Polynomial(2, np.zeros((1, 4), dtype=np.int64), [1.0])  # rows of 2n, not 2n + 1
    with pytest.raises(InputError):
        Polynomial(1, np.zeros((2, 3), dtype=np.int64), [1.0])  # two rows, one coefficient
    with pytest.raises(InputError):
        # three plus one entries make a row of 2n + 1 = 5, but alpha must have length n
        Polynomial.monomial(2, (1, 0, 0), (1,), 0)


def test_negative_exponent_rejected():
    with pytest.raises(InputError):
        Polynomial.monomial(1, (-1,), (0,), 0)
    with pytest.raises(InputError):
        Polynomial.monomial(1, (0,), (0,), -2)
    with pytest.raises(InputError):
        Polynomial(1, [[1, -1, 0]], [1.0])


def test_degree_cap_refused():
    big = Polynomial.monomial(1, (40,), (0,), 0)
    with pytest.raises(InputError):
        big * big
    with pytest.raises(InputError):
        Polynomial.w(1).substitute_w(Polynomial.monomial(1, (DEGREE_CAP + 1,), (0,), 0))


@pytest.mark.parametrize(
    "p, text",
    [
        (z() * z() * zbar(), "z^2 zb"),
        (Polynomial.constant(1, 1.0), "1"),
        (2.5 * z() + Polynomial.constant(1, -3.0), "-3 + 2.5 z"),
        (Polynomial.monomial(1, (0,), (2,), 0, -0.5j), "-0.5i zb^2"),
        (Polynomial.monomial(1, (1,), (0,), 1, 1.5 - 2j), "(1.5-2i) z w"),
        (
            Polynomial.monomial(2, (2, 1), (0, 1), 0)
            + Polynomial.monomial(2, (0, 0), (1, 0), 0, 0.25 + 1e-7j),
            "(0.25+1e-07i) zb1 + z1^2 z2 zb2",
        ),
        (Polynomial.w(1) ** 3 + Polynomial.w(1) + z(), "z + w + w^3"),
        (Polynomial.zero(2), "0"),
    ],
)
def test_pretty(p, text):
    assert p.pretty() == text


# -- ring axioms against the evaluation oracle --------------------------------


def test_ring_axioms_random():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        for _ in range(10):
            p = random_polynomial(rng, n, 4, with_w=True)
            q = random_polynomial(rng, n, 4, with_w=True)
            r = random_polynomial(rng, n, 3, with_w=True)
            for zz, w in random_points(rng, n, 4):
                scale = 1 + max(
                    abs(p.evaluate(zz, w)), abs(q.evaluate(zz, w)), abs(r.evaluate(zz, w))
                )
                assert abs(
                    (p + q).evaluate(zz, w) - (p.evaluate(zz, w) + q.evaluate(zz, w))
                ) < 1e-12 * scale
                assert abs(
                    (p * q).evaluate(zz, w) - p.evaluate(zz, w) * q.evaluate(zz, w)
                ) < 1e-12 * scale**2
                lhs = (p * (q + r)).evaluate(zz, w)
                rhs = (p * q + p * r).evaluate(zz, w)
                assert abs(lhs - rhs) < 1e-11 * scale**2
            assert (p * q - q * p).max_coeff() < 1e-13
            assert ((p + q) + r - (p + (q + r))).max_coeff() < 1e-13


# -- array evaluation -----------------------------------------------------------


def test_array_evaluate_matches_pointwise():
    rng = np.random.default_rng(23)
    for n in (1, 2, 3):
        p = random_polynomial(rng, n, 5, with_w=True)
        z = rng.uniform(-1, 1, (4, 3, n)) + 1j * rng.uniform(-1, 1, (4, 3, n))
        w_grid = rng.uniform(-1, 1, (4, 3)) + 1j * rng.uniform(-1, 1, (4, 3))
        w_row = rng.uniform(-1, 1, 3)  # broadcasts along the first axis
        for w in (0.3 - 0.2j, w_grid, w_row):
            vals = p.evaluate(z, w)
            assert isinstance(vals, np.ndarray) and vals.shape == (4, 3)
            for idx in np.ndindex(4, 3):
                wi = np.broadcast_to(w, (4, 3))[idx]
                ref = loop_evaluate(p, z[idx], wi)
                assert abs(vals[idx] - ref) < 1e-13 * (1 + abs(ref))
                one = p.evaluate(z[idx], wi)
                assert type(one) is complex
                assert abs(one - ref) < 1e-13 * (1 + abs(ref))


def test_power_table_evaluate_on_a_leaf_grid():
    # every column reaches DEGREE_CAP, so each power table is as long as it gets
    eps = float(np.finfo(float).eps)
    rng = np.random.default_rng(41)
    grid = solve_leaf(normal_form_model([0.3]), 0.9, 4096).points()
    for n in (1, 2, 3):
        cols = 2 * n + 1
        rows = [np.zeros(cols, dtype=int), *(DEGREE_CAP * np.eye(cols, dtype=int))]
        for _ in range(10):
            picks = rng.integers(0, cols, int(rng.integers(1, DEGREE_CAP + 1)))
            rows.append(np.bincount(picks, minlength=cols))
        p = Polynomial(n, rows, [random_coeff(rng) for _ in rows])
        scales = rng.uniform(0.6, 1.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
        z = np.stack([np.roll(grid, 97 * j) * scales[j] for j in range(n)], axis=-1)
        w_grid = rng.uniform(-1, 1, 4096) + 1j * rng.uniform(-1, 1, 4096)
        for w in (0.7 - 0.3j, w_grid, np.array([[0.9j], [-0.5]])):
            vals = p.evaluate(z, w)
            assert vals.shape == np.broadcast_shapes(z.shape[:-1], np.shape(w))
            wb = np.broadcast_to(w, vals.shape)
            zb = np.broadcast_to(z, vals.shape + (n,))
            # error relative to the term mass sum |c| |z|^|alpha + beta| |w|^k, not to |value|
            mass = sum(
                abs(c)
                * np.prod(np.abs(zb) ** np.add(row[:n], row[n : 2 * n]), axis=-1)
                * np.abs(wb) ** row[-1]
                for row, c in p.terms
            )
            for idx in np.ndindex(vals.shape):
                ref = loop_evaluate(p, zb[idx], wb[idx])
                assert abs(vals[idx] - ref) <= 4 * (DEGREE_CAP + 1) * eps * mass[idx]
        zero = Polynomial.zero(n)
        np.testing.assert_array_equal(zero.evaluate(z, w_grid), np.zeros(4096))
        assert zero.evaluate(z[0]) == 0j and type(zero.evaluate(z[0])) is complex


def test_evaluate_point_shapes():
    p = z() * zbar() + Polynomial.w(1)
    assert type(p.evaluate(0.5j)) is complex  # n = 1: a scalar is one point
    assert p.evaluate([0.5j], 2.0) == pytest.approx(2.25)
    np.testing.assert_allclose(p.evaluate([[1.0], [2.0]]), [1.0, 4.0])
    # one point against an array of w values
    np.testing.assert_allclose(p.evaluate(1.0, np.array([0.0, 1.0, 2.0])), [1.0, 2.0, 3.0])
    assert p.evaluate(np.zeros((0, 1))).shape == (0,)
    with pytest.raises(InputError):
        p.evaluate([1.0, 2.0])  # n = 1 points need a trailing axis of length 1
    with pytest.raises(InputError):
        z(2).evaluate(1.0)


def _same_bits(a, b):
    """a and b are of one type and shape, with equal bits (so -0.0 differs from 0.0, and nan equals nan)."""
    bits = [np.atleast_1d(x).view(np.uint64) for x in (a, b)]
    return type(a) is type(b) and np.shape(a) == np.shape(b) and np.array_equal(*bits)


def test_evaluate_keeps_the_bits_of_the_per_term_loop(monkeypatch):
    # summing blocks of terms (polyalg._sum_blocks) gives the loop's bits: signed
    # zeros, infs, nans and overflowed products included
    runs = []
    sum_blocks = polyalg._sum_blocks

    def recorded(exps, *args):
        done, total = sum_blocks(exps, *args)
        runs.append((done, len(exps)))
        return done, total

    monkeypatch.setattr(polyalg, "_sum_blocks", recorded)
    rng = np.random.default_rng(97)
    polys = []
    for n in (1, 2, 3):
        for with_w in (False, True):
            for nterms in (3, 40, 400):
                p = random_polynomial(rng, n, 12, nterms=nterms, with_w=with_w)
                polys += [p, p * 1e300]
        signed = [complex(-0.0, 1.0), complex(0.5, -0.0), complex(-0.0, -0.0) + 1]
        polys += [
            Polynomial.zero(n),
            Polynomial.monomial(n, (2,) * n, (1,) * n, 1, 0.5 - 2j),
            Polynomial(n, [[j + 1] * (2 * n + 1) for j in range(3)], signed),
        ]
    # every z^a zbar^b up to degree 30: at |z| near 2 only the later blocks overflow
    polys.append(Polynomial(1, [[a, d - a, 0] for d in range(31) for a in range(d + 1)], np.full(496, 1e300j)))
    special = [np.inf, -np.inf, np.nan, complex(np.inf, 0.0), complex(0.0, -np.inf), complex(-0.0, 0.0)]
    for p in polys:
        n = p.n
        for shape in ((1, n), (2, n), (50, n), (64, n), (1, 1, n), (1, 2, n), (5, 10, n), (8, 8, n)):
            z = rng.uniform(-1.5, 1.5, shape) + 1j * rng.uniform(-1.5, 1.5, shape)
            z.flat[:: max(3, z.size // 4)] = -0.0  # zero parts of both signs in the products
            odd = z.copy()
            odd.flat[rng.integers(0, z.size, 2)] = rng.choice(special, 2)
            for points in (z, odd, 1e3 * z):
                for w in (0.3 - 0.2j, rng.uniform(-1.5, 1.5, shape[:-1]) - 0.0j):
                    with np.errstate(all="ignore"):
                        assert _same_bits(p.evaluate(points, w), per_term_evaluate(p, points, w))
        one = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        for point in (one, one[0]) if n == 1 else (one,):
            assert type(p.evaluate(point, 0.5)) is complex
            assert _same_bits(p.evaluate(point, 0.5), per_term_evaluate(p, point, 0.5))
    # blocks ran: whole, and stopped short at a non-finite block sum
    assert any(done == m for done, m in runs)
    assert any(0 < done < m for done, m in runs)
    assert any(done == 0 for done, m in runs)


# -- conjugation ---------------------------------------------------------------


def test_conjugate_matches_pointwise():
    rng = np.random.default_rng(5)
    for _ in range(10):
        p = random_polynomial(rng, 2, 4)
        pc = p.conjugate()
        for zz, _ in random_points(rng, 2, 4):
            assert abs(pc.evaluate(zz) - p.evaluate(zz).conjugate()) < 1e-12
        assert pc.conjugate() == p


def test_conjugate_refuses_w_terms():
    with pytest.raises(InputError):
        Polynomial.w(1).conjugate()


# -- substitution ---------------------------------------------------------------


def test_substitute_w_pointwise():
    rng = np.random.default_rng(17)
    for n in (1, 2):
        for _ in range(10):
            p = random_polynomial(rng, n, 4, with_w=True)
            q = random_polynomial(rng, n, 2)
            s = p.substitute_w(q)
            assert not s.has_w_terms()
            for zz, _ in random_points(rng, n, 4):
                expected = p.evaluate(zz, q.evaluate(zz))
                assert abs(s.evaluate(zz) - expected) < 1e-10 * (1 + abs(expected))


def test_substitute_w_rejects_w_in_replacement():
    with pytest.raises(InputError):
        Polynomial.w(1).substitute_w(Polynomial.w(1))


def test_substitute_w_matches_term_by_term_reference():
    # reference: the sum over terms of c z^alpha zbar^beta * q**k, one Polynomial each;
    # the sums run in another order, so agreement is to 1e-12 of the largest coefficient
    rng = np.random.default_rng(41)
    top_k = 0
    for n in (1, 2, 3):
        for _ in range(8):
            p = random_polynomial(rng, n, 8, nterms=10, with_w=True)
            q = random_polynomial(rng, n, 2)
            ref = Polynomial.zero(n)
            for e, c in term_dict(p).items():
                ref = ref + Polynomial.monomial(n, e.alpha, e.beta, 0, c) * q**e.k
                top_k = max(top_k, e.k)
            s = p.substitute_w(q)
            tol = 1e-12 * ref.max_coeff()
            for e in set(term_dict(s)) | set(term_dict(ref)):
                assert abs(coefficient(s, e) - coefficient(ref, e)) <= tol
    assert top_k == 4


def test_substitute_w_refuses_pairs_beyond_max_term_pairs(monkeypatch):
    # z w^2 + w + 3 by q = z + zbar: q^2 has 3 terms, so 3 + 2 + 1 = 6 pairs
    n = 1
    p = Polynomial.monomial(n, (1,), (0,), 2) + Polynomial.w(n) + 3
    q = z() + zbar()
    monkeypatch.setattr(polyalg, "MAX_TERM_PAIRS", 5)
    with pytest.raises(InputError, match="substitute_w has 6 pairs of terms, more than 5"):
        p.substitute_w(q)
    monkeypatch.setattr(polyalg, "MAX_TERM_PAIRS", 6)
    assert p.substitute_w(q) == z() * q * q + q + 3


def test_substitute_w_builds_q_powers_up_to_the_largest_k(monkeypatch):
    # q^k is built once, as q^(k - 1) times q, and q^1 is q itself
    rng = np.random.default_rng(43)
    q = random_polynomial(rng, 2, 2)
    mul = Polynomial.__mul__
    for ks, products in (((0,), 0), ((1, 0), 0), ((3, 1, 3), 2), ((5, 0, 2), 4)):
        p = sum(Polynomial.monomial(2, (j, 0), (0, 1), k, 1 + j) for j, k in enumerate(ks))
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(Polynomial, "__mul__", lambda self, other: calls.append(other) or mul(self, other))
            s = p.substitute_w(q)
        assert sum(other is q for other in calls) == products == len(calls)
        for zz, _ in random_points(rng, 2, 3):
            expected = p.evaluate(zz, q.evaluate(zz))
            assert abs(s.evaluate(zz) - expected) < 1e-10 * (1 + abs(expected))


# -- homogeneous parts ----------------------------------------------------------


def test_homogeneous_part_examples():
    # weighted grading: deg w = 2
    p = z() * z() + Polynomial.w(1) + z() * z() * z()
    part = p.homogeneous_part(2, weighted=True)
    assert part == z() * z() + Polynomial.w(1)
    # ordinary grading
    q = z() + z() * zbar()
    assert q.homogeneous_part(2) == z() * zbar()
    assert q.homogeneous_part(1) == z()


def test_homogeneous_reassembly_exact():
    rng = np.random.default_rng(23)
    for weighted in (False, True):
        p = random_polynomial(rng, 2, 6, nterms=12, with_w=True)
        total = Polynomial.zero(2)
        for d in range(2 * p.degree() + 1):  # the weighted degree is at most twice the degree
            total = total + p.homogeneous_part(d, weighted=weighted)
        assert total == p


# -- involution -----------------------------------------------------------------


def test_involution_is_an_involution():
    rng = np.random.default_rng(31)
    for lam in (0.1, 0.25, 0.45):
        p = random_polynomial(rng, 1, 5)
        assert (p.involution_pullback(lam).involution_pullback(lam) - p).max_coeff() < 1e-9


def test_involution_fixes_the_quadric():
    for lam in (0.1, 0.25, 0.4):
        rho = (
            z() * zbar()
            + lam * z() * z()
            + lam * zbar() * zbar()
        )
        assert (rho.involution_pullback(lam) - rho).max_coeff() < 1e-12


def test_involution_cross_terms_expand():
    # (z^2 + zbar^2) pulled back at lambda = 1/4: zbar^2 -> (z/lam + zbar)^2
    lam = 0.25
    f = z() * z() + zbar() * zbar()
    pulled = f.involution_pullback(lam)
    expected = (
        (1 + lam**-2) * z() * z()
        + (2 / lam) * z() * zbar()
        + zbar() * zbar()
    )
    assert (pulled - expected).max_coeff() < 1e-12


def test_involution_preconditions():
    with pytest.raises(InputError):
        z().involution_pullback(0.0)
    with pytest.raises(InputError):
        z(2).involution_pullback(0.25)
    with pytest.raises(InputError):
        Polynomial.w(1).involution_pullback(0.25)


# -- derivatives ----------------------------------------------------------------


def wirtinger_fd(p, zz, w, var, index, h=1e-5):
    """Central finite-difference oracle for the formal partials."""
    if var == "w":
        return (p.evaluate(zz, w + h) - p.evaluate(zz, w - h)) / (2 * h)
    zp = list(zz)
    zm = list(zz)
    zp[index] = zz[index] + h
    zm[index] = zz[index] - h
    fx = (p.evaluate(zp, w) - p.evaluate(zm, w)) / (2 * h)
    zp[index] = zz[index] + 1j * h
    zm[index] = zz[index] - 1j * h
    fy = (p.evaluate(zp, w) - p.evaluate(zm, w)) / (2 * h)
    if var == "z":
        return (fx - 1j * fy) / 2
    return (fx + 1j * fy) / 2


def test_partial_derivative_matches_finite_differences():
    rng = np.random.default_rng(41)
    for n in (1, 2):
        for _ in range(6):
            p = random_polynomial(rng, n, 4, with_w=True)
            for zz, w in random_points(rng, n, 3):
                for var in ("z", "zbar", "w"):
                    for index in range(n if var != "w" else 1):
                        sym = p.partial_derivative(var, index).evaluate(zz, w)
                        num = wirtinger_fd(p, zz, w, var, index)
                        assert abs(sym - num) < 1e-6


def test_partial_derivative_bad_symbol():
    with pytest.raises(InputError):
        z().partial_derivative("zb")
    with pytest.raises(InputError):
        z(2).partial_derivative("z", 2)


# -- serialization ----------------------------------------------------------------


def test_json_round_trip():
    rng = np.random.default_rng(43)
    for n in (1, 3):
        p = random_polynomial(rng, n, 5, nterms=10, with_w=True)
        doc = p.to_json_dict()
        assert Polynomial.from_json_dict(doc) == p


def test_json_term_order_is_graded():
    p = Polynomial.w(1) + z() + Polynomial.monomial(1, (3,), (0,), 0)
    degrees = [
        sum(t["alpha"]) + sum(t["beta"]) + 2 * t["k"] for t in p.to_json_dict()["terms"]
    ]
    assert degrees == sorted(degrees)


def test_json_rejects_malformed():
    with pytest.raises(InputError):
        Polynomial.from_json_dict({"terms": []})
    with pytest.raises(InputError):
        Polynomial.from_json_dict({"n": 0, "terms": []})
    with pytest.raises(InputError):
        Polynomial.from_json_dict(
            {"n": 1, "terms": [{"alpha": [-1], "beta": [0], "k": 0, "re": 1.0, "im": 0.0}]}
        )
    with pytest.raises(InputError):
        Polynomial.from_json_dict(
            {"n": 2, "terms": [{"alpha": [1], "beta": [0, 0], "k": 0, "re": 1.0, "im": 0.0}]}
        )
    with pytest.raises(InputError):
        Polynomial.from_json_dict(
            {"n": 1, "terms": [{"alpha": [1], "beta": [0], "k": 0, "re": 1.0}]}
        )


@pytest.mark.parametrize(
    "re, im",
    [(float("nan"), 0.0), (0.0, float("inf")), ("nan", 0.0), ("x", 0.0), ("1.5", 0.0), (0.0, True), (None, 0.0)],
)
def test_json_rejects_non_numbers(re, im):
    term = {"alpha": [1], "beta": [0], "k": 0, "re": re, "im": im}
    with pytest.raises(InputError):
        Polynomial.from_json_dict({"n": 1, "terms": [term]})
    with pytest.raises(InputError):
        complex_from_json({"re": re, "im": im}, "value")
    assert complex_from_json({"re": 1, "im": -2.5}, "value") == 1 - 2.5j


# -- helpers ----------------------------------------------------------------------


def test_monomials_enumeration():
    assert list(monomials(2, 2)) == [(2, 0), (1, 1), (0, 2)]
    assert len(list(monomials(3, 4))) == 15


def test_evaluate_scalar_convenience():
    p = z() * zbar()
    assert abs(p.evaluate(0.3 + 0.4j) - 0.25) < 1e-15
