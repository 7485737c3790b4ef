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
    normal_derivative_probe,
    normal_form_model,
    q_polynomial,
    quadric_leaf_family,
    radial_leaf_family,
    solve_leaf,
    zderiv_bound_check,
)
from crextend.moments import LeafParametrization


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


def test_point_outside_the_leaf_names_a_real_winding_number():
    leaf = solve_leaf(normal_form_model([0.3]), 0.2, 256)
    with pytest.raises(NearBoundary, match=r"\(winding number -?0\.000\)$"):
        cauchy_extend(BoundaryData.builtin("constant"), leaf, [0.5 + 0.1j])


def _cauchy_reference(data, leaf, points):
    """The leaf's Cauchy sums spelled out per point: ({z: F(z)}, {z: |winding - 1|}, max |F_z|).

    F(z) is sum f dzeta / (zeta - z) / (i N), the winding sum the same with
    f = 1, and F_z the same as F over (zeta - z)^2.
    """
    zeta, dzeta = leaf.points(), leaf.tangent()
    fvals = data.evaluator(zeta, leaf.level)
    values, defects = {}, {}
    for z in map(complex, points):
        values[z] = complex(np.sum(fvals * dzeta / (zeta - z)) / (1j * leaf.N))
        defects[z] = abs(np.sum(dzeta / (zeta - z)) / (1j * leaf.N) - 1)
    max_fz = 0.0
    for z in map(complex, points):
        fz = np.sum(fvals * dzeta / (zeta - z) ** 2) / (1j * leaf.N)
        max_fz = max(max_fz, abs(complex(fz)))
    return values, defects, max_fz


def test_cauchy_error_estimate_bounds_the_error_of_holomorphic_data():
    # F = e^z / (z - 3) exactly; the trapezoid error grows as the points near
    # the curve and as lambda flattens the leaf, and each point's estimate
    # |winding - 1| * max |f| must stay above it, up to a rounding allowance
    data = BoundaryData(evaluator=lambda z, s: np.exp(z) / (z - 3), description="e^z/(z-3)")
    eps = float(np.finfo(float).eps)
    for lam in (0.1, 0.3, 0.45):
        leaf = solve_leaf(normal_form_model([lam]), 0.5, 512)
        zeta = leaf.points()
        admitted = []
        for z in (c * zeta[j] for c in np.linspace(0.5, 0.95, 10) for j in range(0, leaf.N, 64)):
            try:
                cauchy_extend(data, leaf, [z])
            except NearBoundary:
                continue
            admitted.append(complex(z))
        assert len(admitted) >= 64
        ext = cauchy_extend(data, leaf, admitted)
        sup_f = float(np.max(np.abs(data.evaluator(zeta, leaf.level))))
        worst = 0.0
        for z in admitted:
            err = abs(ext.interior_values[z] - np.exp(z) / (z - 3))
            assert err <= ext.error_estimates[z] + 4 * eps * sup_f
            assert ext.error_estimates[z] == ext.winding_defects[z] * sup_f
            if err > 1e-13:
                worst = max(worst, err / ext.error_estimates[z])
        assert worst > 0.5  # the estimate is tight where the error shows, not vacuous


def test_cauchy_sums_keep_the_bits_of_the_per_point_formulas():
    # values, winding defects, probe rows and F_z equal the per-point sums
    # exactly, not to a tolerance, on a leaf without E, one with E and a
    # radial leaf
    E = Polynomial.monomial(1, (3,), (1,), 0, 0.05) + Polynomial.monomial(1, (1,), (3,), 0, 0.05)
    families = (
        quadric_leaf_family(normal_form_model([0.3]), N=256),
        quadric_leaf_family(normal_form_model([0.2], E=E), N=512),
        radial_leaf_family(lambda s: s**0.25, N=256),
    )
    f = Polynomial.z(1) * Polynomial.zbar(1) + Polynomial.zbar(1) ** 3 + 0.5j * Polynomial.z(1)
    ladder = [0.02 * 1.5**k for k in range(6)]
    for family in families:
        for data in (BoundaryData.from_polynomial(f), BoundaryData.builtin("sqrt-re-w")):
            leaf = family(0.09)
            points = [0.0, *interior_samples(leaf, 8, seed=11)]
            values, defects, max_fz = _cauchy_reference(data, leaf, points)
            ext = cauchy_extend(data, leaf, points)
            assert ext.interior_values == values
            assert ext.winding_defects == defects
            assert zderiv_bound_check(data, leaf, points).max_fz == max_fz
            rows = normal_derivative_probe(data, family, ladder).rows
            F0 = [_cauchy_reference(data, family(s), [0.0])[0][0j] for s in ladder]
            assert [row[1] for row in rows] == F0


# -- derivative probes ----------------------------------------------------------


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


def _probe_per_rung(data, family, ladder):
    """The probe as a loop over rungs: (rows, exponent or None)."""
    F0 = [cauchy_extend(data, family(s), [0.0]).interior_values[0.0] for s in ladder]
    scale = max(1.0, max(abs(v) for v in F0))
    eps = float(np.finfo(float).eps)
    rows, fit = [(ladder[0], F0[0], None)], []
    for i in range(1, len(ladder) - 1):
        h1, h2 = ladder[i] - ladder[i - 1], ladder[i + 1] - ladder[i]
        fs = (
            -h2 / (h1 * (h1 + h2)) * F0[i - 1]
            + (h2 - h1) / (h1 * h2) * F0[i]
            + h1 / (h2 * (h1 + h2)) * F0[i + 1]
        )
        rows.append((ladder[i], F0[i], fs))
        floor = 1e-13 * scale + 32 * eps * scale * (1.0 / h1 + 1.0 / h2)
        fit.append((ladder[i], abs(fs), abs(fs) < floor))
    rows.append((ladder[-1], F0[-1], None))
    if all(below for _, _, below in fit):
        return rows, None
    slope = np.polyfit([np.log(s) for s, _, _ in fit], [np.log(m) for _, m, _ in fit], 1)[0]
    return rows, float(slope)


def test_probe_matches_per_rung_loop():
    m = normal_form_model([0.3])
    cases = [
        (radial_leaf_family(lambda s: s**0.25, N=256), BoundaryData.builtin("sqrt-re-w")),
        (quadric_leaf_family(m, N=256), BoundaryData.from_polynomial(Polynomial.z(1) * Polynomial.zbar(1))),
        (quadric_leaf_family(m, N=128), BoundaryData.builtin("constant")),
    ]
    for family, data in cases:
        for rungs in (6, 9):
            ladder = [3e-4 * 1.5**k for k in range(rungs)]
            report = normal_derivative_probe(data, family, ladder)
            rows, exponent = _probe_per_rung(data, family, ladder)
            assert report.rows == tuple(rows)
            if exponent is None:
                assert report.exponent is None and report.label == "bounded (≈0)"
            else:
                assert report.label == "power-law"
                assert abs(report.exponent - exponent) < 1e-12


def _offset_circle_family(center_from):
    """Circles of radius rho = sqrt(s), centred at 2 rho once s >= center_from, else at 0.

    The circle about c is r u with r = 1 and u = c + rho e^(it); an offset
    circle leaves 0 outside the leaf.
    """
    eit = np.exp(2j * np.pi * np.arange(256) / 256)

    def family(s):
        rho = float(np.sqrt(s))
        c = 2 * rho if s >= center_from else 0.0
        return LeafParametrization(r=1.0, level=s, u=c + rho * eit, du=1j * rho * eit)

    return family


def test_probe_runs_near_boundary_checks():
    ladder = [1e-3 * 2.0**k for k in range(6)]
    data = BoundaryData.builtin("constant")
    family = _offset_circle_family(center_from=ladder[3])
    assert cauchy_extend(data, family(ladder[2]), [0.0]).interior_values[0.0] == pytest.approx(1.0)
    with pytest.raises(NearBoundary) as info:
        cauchy_extend(data, family(ladder[3]), [0.0])
    assert info.value.point == 0.0
    with pytest.raises(NearBoundary) as info:
        normal_derivative_probe(data, family, ladder)
    assert info.value.point == 0.0


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
    assert report.max_fz == pytest.approx(1.0, abs=1e-12)  # F = w + z
    assert report.sup_bound > 1.0


def test_zderiv_kernel_is_the_z_derivative_of_the_extension():
    # for f = P(z, Q) the extension is F = P(z, s), so F_z = P_z(z, s); the
    # differentiated trapezoid kernel has no step size to limit it (a central
    # difference with h = 1e-5 inradius was off by up to 2.4e-11 here)
    rng = np.random.default_rng(37)
    for lam in (0.0, 0.3, 0.45):
        m = normal_form_model([lam])
        P = random_holomorphic(rng, 1, 6)
        Pz = P.partial_derivative("z")
        leaf = solve_leaf(m, 0.3, 512)
        pts = interior_samples(leaf, 12, seed=7, fraction=0.6)
        data = BoundaryData.from_polynomial(P.substitute_w(q_polynomial(m)))
        for z in pts:
            report = zderiv_bound_check(data, leaf, [z])
            expected = abs(Pz.evaluate(complex(z), leaf.level))
            assert abs(report.max_fz - expected) <= 1e-13 * max(1.0, report.sup_bound)


@pytest.mark.parametrize("z", [0.4999, 5.0])
def test_zderiv_refuses_the_points_cauchy_extend_refuses(z):
    # 40 z^3 on the r = 0.5 circle has |F_z| <= sup (|f_z| + |f_zbar|) = 30
    # inside; next to the curve the differentiated sum reads 4.9e5 and at an
    # exterior point 8.5e-18, neither of them F_z, so both points are
    # NearBoundary, as in cauchy_extend
    leaf = solve_leaf(normal_form_model([0.0]), 0.5, 512)
    data = BoundaryData.from_polynomial(Polynomial.monomial(1, (3,), (0,), 0, 40.0))
    for extend in (cauchy_extend, zderiv_bound_check):
        with pytest.raises(NearBoundary) as info:
            extend(data, leaf, [z])
        assert info.value.point == z


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


def test_radial_leaf_family_arrays_are_read_only():
    family = radial_leaf_family(lambda s: s**0.25, N=128)
    leaf, other = family(1e-2), family(4e-2)
    for name in ("u", "du"):
        shared = getattr(leaf, name)
        assert shared is getattr(other, name)  # one array serves every leaf
        with pytest.raises(ValueError):
            shared[0] = 1.0


def test_radial_leaf_family_refuses_grid_sizes_a_leaf_grid_refuses():
    # N = 0 would end the probe in a bare ValueError, N = 3 in a 3-point fit
    for N in (0, 3, 100):
        with pytest.raises(InputError, match=f"grid size must be a power of two >= 64, got {N}"):
            radial_leaf_family(np.sqrt, N=N)
    assert radial_leaf_family(np.sqrt, N=64)(0.25).N == 64
