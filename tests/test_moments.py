"""Leaf solves, moment integrals, and symbolic CR field checks."""

import numpy as np
import pytest

from conftest import random_holomorphic, random_polynomial
from crextend import (
    InputError,
    LeafSolveError,
    NotElliptic,
    Polynomial,
    QuadricModel,
    check_moments,
    cr_check,
    eval_on_grid,
    moment_integral,
    normal_form_model,
    q_polynomial,
    solve_leaf,
)


# -- leaves ------------------------------------------------------------------


def test_leaf_circle_at_lambda0():
    leaf = solve_leaf(normal_form_model([0.0]), 0.3, 256)
    assert np.allclose(leaf.phi, 1.0, atol=1e-14)
    assert np.allclose(leaf.phi_theta, 0.0, atol=1e-12)
    assert np.allclose(np.abs(leaf.points()), 0.3, atol=1e-14)
    assert leaf.level == pytest.approx(0.09)


def test_leaf_closed_form_profile():
    lam = 0.3
    leaf = solve_leaf(normal_form_model([lam]), 0.25, 256)
    expected = (1.0 + 2.0 * lam * np.cos(2.0 * leaf.theta)) ** -0.5
    assert np.max(np.abs(leaf.phi - expected)) < 1e-12
    # leaf stays on the level set rho = r^2
    z = leaf.points()
    rho = np.abs(z) ** 2 + lam * (z * z + np.conj(z) * np.conj(z)).real
    assert np.max(np.abs(rho - leaf.level)) < 1e-12


def test_leaf_with_quartic_correction():
    # E = (z zbar)^2 is rotation invariant, so phi is constant
    E = Polynomial.monomial(1, (2,), (2,), 0, 1.0)
    m = normal_form_model([0.0], E=E)
    r = 0.2
    leaf = solve_leaf(m, r, 256)
    assert np.max(np.abs(leaf.phi - leaf.phi[0])) < 1e-13
    z = leaf.points()
    rho = np.abs(z) ** 2 + np.abs(z) ** 4
    assert np.max(np.abs(rho - r * r)) < 1e-12


def test_leaf_perturbed_newton_converges():
    E = Polynomial.monomial(1, (3,), (1,), 0, 0.05) + Polynomial.monomial(1, (1,), (3,), 0, 0.05)
    m = normal_form_model([0.2], E=E)
    leaf = solve_leaf(m, 0.3, 512)
    z = leaf.points()
    rho_vals = eval_on_grid(q_polynomial(m), z)
    assert np.max(np.abs(rho_vals.real - leaf.level)) < 1e-12


def test_eval_on_grid_is_evaluate():
    rng = np.random.default_rng(29)
    p = random_polynomial(rng, 1, 6)
    z = rng.uniform(-1, 1, (5, 7)) + 1j * rng.uniform(-1, 1, (5, 7))
    vals = eval_on_grid(p, z)
    assert vals.shape == z.shape
    np.testing.assert_array_equal(vals, p.evaluate(z[..., None]))
    with pytest.raises(InputError):
        eval_on_grid(Polynomial.z(2), z)


def test_solve_leaf_residual_tolerance():
    m = normal_form_model([0.3])
    solve_leaf(m, 0.1, 128)
    with pytest.raises(LeafSolveError):
        solve_leaf(m, 0.1, 128, tol=1e-20)
    with pytest.raises(LeafSolveError):
        check_moments(Polynomial.z(1), m, leaves=[0.1], N=128, leaf_tol=1e-20)


def test_leaf_preconditions():
    with pytest.raises(InputError):
        solve_leaf(normal_form_model([0.0]), 0.1, 200)  # not a power of two
    with pytest.raises(InputError):
        solve_leaf(normal_form_model([0.0]), 0.1, 32)  # too coarse
    with pytest.raises(InputError):
        solve_leaf(normal_form_model([0.0]), -0.1)
    with pytest.raises(NotElliptic):
        solve_leaf(normal_form_model([0.6]), 0.1)
    with pytest.raises(InputError):
        solve_leaf(normal_form_model([0.1, 0.2]), 0.1)  # n = 1 only
    A = np.array([[2.0]], dtype=complex)
    B = np.array([[0.1]], dtype=complex)
    with pytest.raises(InputError):
        solve_leaf(QuadricModel(A, B), 0.1)  # not in normal form


def test_leaf_newton_divergence_raises():
    # strong quartic term at a radius where the level set pinches off
    E = Polynomial.monomial(1, (2,), (2,), 0, -30.0)
    m = normal_form_model([0.0], E=E)
    with pytest.raises(LeafSolveError):
        solve_leaf(m, 0.45, 256)


# -- moments -----------------------------------------------------------------


def test_moment_zbar_sphere():
    # f = zbar on the lambda = 0 leaf: integral is 2 pi i r^2 at ell = 0
    for r in (0.1, 0.2, 0.4):
        leaf = solve_leaf(normal_form_model([0.0]), r, 256)
        v = moment_integral(Polynomial.zbar(1), leaf, 0)
        assert abs(v - 2j * np.pi * r * r) < 1e-12


def test_moment_zbar_general_lambda():
    # area law: 2 pi i r^2 / sqrt(1 - 4 lambda^2)
    for lam in (0.1, 0.3, 0.45):
        leaf = solve_leaf(normal_form_model([lam]), 0.3, 512)
        v = moment_integral(Polynomial.zbar(1), leaf, 0)
        expected = 2j * np.pi * 0.09 / np.sqrt(1.0 - 4.0 * lam * lam)
        assert abs(v - expected) < 1e-11


def test_moment_vanishes_for_extendible_data():
    rng = np.random.default_rng(5)
    for lam in (0.0, 0.3, 0.45):
        m = normal_form_model([lam])
        f = random_holomorphic(rng, 1, 8).substitute_w(q_polynomial(m))
        leaf = solve_leaf(m, 0.4, 512)
        fvals_worst = max(
            abs(moment_integral(f, leaf, ell)) for ell in range(f.degree() + 5)
        )
        assert fvals_worst < 1e-9


def test_moment_detects_obstruction():
    # f = z^j zbar^k with j < k shows up at ell = k - j - 1 with modulus 2 pi r^(2k)
    leaf = solve_leaf(normal_form_model([0.0]), 0.3, 256)
    f = Polynomial.monomial(1, (1,), (3,), 0, 1.0)
    v = moment_integral(f, leaf, 1)
    assert abs(abs(v) - 2.0 * np.pi * 0.3**6) < 1e-12
    assert abs(moment_integral(f, leaf, 0)) < 1e-14
    assert abs(moment_integral(f, leaf, 3)) < 1e-14


def test_moment_grid_doubling_invariance():
    m = normal_form_model([0.3])
    f = Polynomial.monomial(1, (0,), (2,), 0, 1.0) + Polynomial.z(1)
    v256 = moment_integral(f, solve_leaf(m, 0.35, 256), 2)
    v512 = moment_integral(f, solve_leaf(m, 0.35, 512), 2)
    assert abs(v256 - v512) < 1e-12


def test_moment_homogeneity_scaling():
    # f = zbar^k contributes at ell = k - 1 with modulus growing like r^(2k)
    f = Polynomial.monomial(1, (0,), (2,), 0, 1.0)
    m = normal_form_model([0.0])
    v1 = abs(moment_integral(f, solve_leaf(m, 0.2, 256), 1))
    v2 = abs(moment_integral(f, solve_leaf(m, 0.4, 256), 1))
    assert v2 / v1 == pytest.approx(2.0 ** 4, rel=1e-10)


def test_check_moments_default_ladder():
    m = normal_form_model([0.25])
    f = Polynomial.z(1) * Polynomial.zbar(1) + 0.25 * (
        Polynomial.z(1) * Polynomial.z(1) + Polynomial.zbar(1) * Polynomial.zbar(1)
    )
    report = check_moments(f, m)
    assert report.passed
    assert report.Lmax == f.degree() + 4
    assert len(report.leaves) == 4
    assert len(report.entries) == 4 * (report.Lmax + 1)
    assert report.max_modulus < report.tol


def test_check_moments_flags_obstruction():
    m = normal_form_model([0.0])
    f = Polynomial.monomial(1, (0,), (1,), 0, 0.5)
    report = check_moments(f, m, leaves=[0.1, 0.2, 0.3, 0.4])
    assert not report.passed
    assert report.max_modulus == pytest.approx(np.pi * 0.4**2, rel=1e-10)


# -- CR fields ----------------------------------------------------------------


def test_cr_check_sphere_example():
    m = normal_form_model([0.0, 0.0])
    f = Polynomial.z(2, 0) * Polynomial.zbar(2, 1)
    violations = cr_check(f, m)
    assert len(violations) == 1
    v = violations[0]
    assert (v.j, v.ell) == (0, 1)
    assert v.field_applied == Polynomial.z(2, 0) * Polynomial.z(2, 0)


def test_cr_check_passes_for_cr_data():
    rng = np.random.default_rng(11)
    for n in (2, 3):
        m = normal_form_model([0.1] * n)
        f = random_holomorphic(rng, n, 6).substitute_w(q_polynomial(m))
        assert cr_check(f, m) == []


def test_cr_check_requires_n_at_least_2():
    with pytest.raises(InputError):
        cr_check(Polynomial.z(1), normal_form_model([0.0]))
