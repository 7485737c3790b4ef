"""Polynomial engine: arithmetic against evaluation oracles, structure ops, JSON."""

import numpy as np
import pytest

from conftest import loop_evaluate, random_polynomial
from crextend import InputError, Polynomial
from crextend.polyalg import DEGREE_CAP, Exponent, ZERO_THRESHOLD, complex_from_json, monomials


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
    p = Polynomial(1, {Exponent((1,), (0,), 0): ZERO_THRESHOLD / 10})
    assert p.is_zero()
    q = z() + (-1) * z()
    assert q.is_zero()


def test_dimension_mismatch_rejected():
    with pytest.raises(InputError):
        z(1) + z(2)
    with pytest.raises(InputError):
        z(1) * z(2)


def test_negative_exponent_rejected():
    with pytest.raises(InputError):
        Polynomial.monomial(1, (-1,), (0,), 0)
    with pytest.raises(InputError):
        Polynomial.monomial(1, (0,), (0,), -2)


def test_degree_cap_refused():
    big = Polynomial.monomial(1, (40,), (0,), 0)
    with pytest.raises(InputError):
        big * big
    with pytest.raises(InputError):
        Polynomial.w(1).substitute_w(Polynomial.monomial(1, (DEGREE_CAP + 1,), (0,), 0))


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
        for d in range(p.weighted_degree() + 1):
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


@pytest.mark.parametrize("re, im", [(float("nan"), 0.0), (0.0, float("inf")), ("nan", 0.0), ("x", 0.0)])
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
