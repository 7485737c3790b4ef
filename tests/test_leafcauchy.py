"""Cauchy extension on leaves, boundary regularity probes, derivative bounds."""

import numpy as np
import pytest

from conftest import random_holomorphic
from crextend import (
    BoundaryData,
    InputError,
    NearBoundary,
    Polynomial,
    cauchy_extend,
    continuity_probe,
    normal_derivative_probe,
    normal_form_model,
    q_polynomial,
    quadric_leaf_family,
    radial_leaf_family,
    solve_leaf,
    zderiv_bound_check,
)


def interior_samples(leaf, count, seed=0, fraction=0.8):
    rng = np.random.default_rng(seed)
    inradius = float(np.min(np.abs(leaf.points())))
    radii = fraction * inradius * np.sqrt(rng.uniform(0, 1, count))
    angles = rng.uniform(0, 2 * np.pi, count)
    return radii * np.exp(1j * angles)


# -- Cauchy integral ------------------------------------------------------------


def test_cauchy_constant_and_identity():
    leaf = solve_leaf(normal_form_model([0.3]), 0.3, 256)
    pts = [0.0, 0.05 + 0.02j, -0.1j]
    ext = cauchy_extend(BoundaryData.builtin("constant", 2.5), leaf, pts)
    for z in pts:
        assert abs(ext.interior_values[complex(z)] - 2.5) < 1e-12
    ext = cauchy_extend(BoundaryData.builtin("identity"), leaf, pts)
    for z in pts:
        assert abs(ext.interior_values[complex(z)] - z) < 1e-12


def test_cauchy_matches_symbolic_extension():
    rng = np.random.default_rng(17)
    for lam in (0.0, 0.3, 0.45):
        m = normal_form_model([lam])
        P = random_holomorphic(rng, 1, 6)
        f = P.substitute_w(q_polynomial(m))
        leaf = solve_leaf(m, 0.3, 512)
        pts = interior_samples(leaf, 20, seed=3)
        ext = cauchy_extend(BoundaryData.from_polynomial(f), leaf, pts)
        for z in pts:
            expected = P.evaluate(complex(z), leaf.level)
            assert abs(ext.interior_values[complex(z)] - expected) < 1e-7


def test_cauchy_max_principle_for_extendible_data():
    m = normal_form_model([0.25])
    P = random_holomorphic(np.random.default_rng(29), 1, 5)
    f = P.substitute_w(q_polynomial(m))
    leaf = solve_leaf(m, 0.35, 512)
    boundary_max = float(np.max(np.abs([f.evaluate(z) for z in leaf.points()])))
    pts = interior_samples(leaf, 30, seed=4)
    ext = cauchy_extend(BoundaryData.from_polynomial(f), leaf, pts)
    interior_max = max(abs(v) for v in ext.interior_values.values())
    assert interior_max <= boundary_max + 1e-9


def test_cauchy_near_boundary_rejection():
    leaf = solve_leaf(normal_form_model([0.0]), 0.2, 256)
    data = BoundaryData.builtin("constant")
    with pytest.raises(NearBoundary) as info:
        cauchy_extend(data, leaf, [0.199])  # hugs the curve
    assert info.value.point == pytest.approx(0.199)
    with pytest.raises(NearBoundary):
        cauchy_extend(data, leaf, [0.5])  # outside, winding 0


def test_cauchy_boundary_sup_error_diagnostic():
    leaf = solve_leaf(normal_form_model([0.1]), 0.3, 256)
    ext = cauchy_extend(BoundaryData.builtin("constant", 1.0), leaf, [0.0])
    assert ext.boundary_sup_error < 1e-9  # pure quadrature tail at the probes
    ext = cauchy_extend(BoundaryData.builtin("identity"), leaf, [0.0])
    assert 0.0 < ext.boundary_sup_error < 0.1


# -- continuity and derivative probes --------------------------------------------


def test_continuity_probe_decreases_to_zero():
    m = normal_form_model([0.2])
    f = Polynomial.z(1) + Polynomial.zbar(1)
    f0, rows = continuity_probe(BoundaryData.from_polynomial(f), m, [0.01, 0.05, 0.1, 0.2])
    assert abs(f0) < 1e-10
    sups = [s for _, s in rows]
    assert sups == sorted(sups)
    assert sups[0] < 0.05 and sups[-1] > sups[0]


def test_probe_degenerate_model_blows_up_like_inverse_sqrt():
    # w = |z|^4: leaf at level s is the circle of radius s^(1/4); the data
    # sqrt-re-w equals |z|^2 there and F(0, s) = sqrt(s), so F_s ~ s^(-1/2)
    family = radial_leaf_family(lambda s: s**0.25, N=256)
    ladder = [1e-4 * 2.0**k for k in range(8)]
    report = normal_derivative_probe(BoundaryData.builtin("sqrt-re-w"), family, ladder)
    assert report.label == "power-law"
    assert report.exponent == pytest.approx(-0.5, abs=0.05)


def test_probe_nondegenerate_model_stays_bounded():
    m = normal_form_model([0.0])
    family = quadric_leaf_family(m, N=256)
    ladder = [1e-4 * 2.0**k for k in range(8)]
    data = BoundaryData.from_polynomial(Polynomial.z(1) * Polynomial.zbar(1))
    report = normal_derivative_probe(data, family, ladder)
    assert report.label == "power-law"
    assert report.exponent == pytest.approx(0.0, abs=0.05)


def test_probe_constant_data_reports_bounded():
    family = quadric_leaf_family(normal_form_model([0.1]), N=128)
    ladder = [1e-4 * 2.0**k for k in range(6)]
    report = normal_derivative_probe(BoundaryData.builtin("constant"), family, ladder)
    assert report.label == "bounded (≈0)"
    assert report.exponent is None
    assert len(report.rows) == 6


def test_probe_ladder_validation():
    family = quadric_leaf_family(normal_form_model([0.0]), N=128)
    data = BoundaryData.builtin("constant")
    with pytest.raises(InputError):
        normal_derivative_probe(data, family, [1e-3, 2e-3, 4e-3])  # too short
    with pytest.raises(InputError):
        normal_derivative_probe(data, family, [1e-3] * 6)  # not increasing
    with pytest.raises(InputError):
        normal_derivative_probe(data, family, [1e-3, 2e-3, 4e-3, 8e-3, 16e-3, 33e-3])


# -- z derivative bound ------------------------------------------------------------


def test_zderiv_bound_nondegenerate():
    m = normal_form_model([0.0])
    f = Polynomial.z(1) * Polynomial.zbar(1) + Polynomial.z(1)
    leaf = solve_leaf(m, 0.3, 256)
    report = zderiv_bound_check(
        BoundaryData.from_polynomial(f), leaf, interior_samples(leaf, 10, seed=5, fraction=0.6)
    )
    assert report.ok
    assert report.max_fz == pytest.approx(1.0, abs=1e-4)  # F = w + z
    assert report.sup_bound > 1.0


def test_zderiv_bound_degenerate_constant_leafwise():
    family = radial_leaf_family(lambda s: s**0.25, N=256)
    leaf = family(1e-2)
    report = zderiv_bound_check(BoundaryData.builtin("sqrt-re-w"), leaf, [0.0, 0.05])
    assert report.ok
    assert report.max_fz < 1e-6
    assert report.sup_bound == 0.0


def test_boundary_data_returns_leaf_arrays():
    leaf = solve_leaf(normal_form_model([0.1]), 0.2, 128)
    zeta, s = leaf.points(), leaf.level
    for name in ("sqrt-re-w", "constant", "identity"):
        data = BoundaryData.builtin(name, value=2.5)
        for fn in (data.evaluator, data.fz, data.fzbar):
            vals = fn(zeta, s)
            assert isinstance(vals, np.ndarray) and vals.shape == zeta.shape
    sqrt_data = BoundaryData.builtin("sqrt-re-w")
    np.testing.assert_array_equal(sqrt_data.evaluator(zeta, s), np.sqrt(s))
    np.testing.assert_array_equal(BoundaryData.builtin("constant", 2.5).evaluator(zeta, s), 2.5)
    identity = BoundaryData.builtin("identity")
    np.testing.assert_array_equal(identity.evaluator(zeta, s), zeta)
    np.testing.assert_array_equal(identity.fz(zeta, s), 1.0)
    np.testing.assert_array_equal(identity.fzbar(zeta, s), 0.0)


def test_boundary_data_from_polynomial_derivatives():
    f = Polynomial.z(1) ** 2 * Polynomial.zbar(1) + 3 * Polynomial.zbar(1)
    data = BoundaryData.from_polynomial(f)
    zeta = solve_leaf(normal_form_model([0.2]), 0.2, 64).points()
    np.testing.assert_allclose(data.evaluator(zeta, 0.0), zeta**2 * np.conj(zeta) + 3 * np.conj(zeta))
    np.testing.assert_allclose(data.fz(zeta, 0.0), 2 * zeta * np.conj(zeta))
    np.testing.assert_allclose(data.fzbar(zeta, 0.0), zeta**2 + 3)


def test_zderiv_requires_derivative_info():
    data = BoundaryData(evaluator=lambda z, s: complex(z), description="opaque")
    leaf = solve_leaf(normal_form_model([0.0]), 0.2, 128)
    with pytest.raises(InputError):
        zderiv_bound_check(data, leaf, [0.0])


# -- leaf families ------------------------------------------------------------------


def test_leaf_family_levels():
    m = normal_form_model([0.2])
    family = quadric_leaf_family(m, N=128)
    leaf = family(0.04)
    assert leaf.r == pytest.approx(0.2)
    assert leaf.level == pytest.approx(0.04)
    with pytest.raises(InputError):
        family(0.0)
    radial = radial_leaf_family(lambda s: s, N=128)
    with pytest.raises(InputError):
        radial(0.0)
