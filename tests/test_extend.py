"""Polynomial extension: monomial route, involution, graded solves, slicing."""

import numpy as np
import pytest

from conftest import (
    loop_evaluate,
    random_holomorphic,
    random_lambdas,
    random_polynomial,
    random_unit_vector,
)
from crextend import (
    InputError,
    NotElliptic,
    Polynomial,
    QuadricModel,
    check_involution_invariance,
    default_radii,
    extend_general,
    extend_lambda0,
    normal_form_model,
    q_polynomial,
    restrict_to_plane,
    slice_oracle,
    verify_extension,
)


def mono(n, alpha, beta=None, k=0, c=1.0):
    return Polynomial.monomial(n, alpha, beta or (0,) * n, k, c)


# -- lambda = 0 monomial route --------------------------------------------------


def test_lambda0_sphere_examples():
    z, zb, w = Polynomial.z(1), Polynomial.zbar(1), Polynomial.w(1)
    res = extend_lambda0(z * zb)
    assert res.extended and res.P == w

    res = extend_lambda0(zb)
    assert not res.extended
    assert res.certificate.detail["offending"] == (0, 1)

    res = extend_lambda0(mono(1, (3,), (1,)) + 2 * z)
    assert res.extended
    assert res.P == mono(1, (2,), k=1) + 2 * z


def test_lambda0_residual_is_zero_for_monomial_map():
    rng = np.random.default_rng(7)
    for _ in range(20):
        P = random_holomorphic(rng, 1, 8)
        f = P.substitute_w(q_polynomial(normal_form_model([0.0])))
        res = extend_lambda0(f)
        assert res.extended
        assert (res.P - P).max_coeff() < 1e-13
        assert res.residual < 1e-13


def test_lambda0_rejects_w_terms_and_n2():
    with pytest.raises(InputError):
        extend_lambda0(Polynomial.w(1))
    with pytest.raises(InputError):
        extend_lambda0(Polynomial.z(2))


# -- involution invariance --------------------------------------------------------


def test_involution_invariance_examples():
    lam = 0.25
    rho = q_polynomial(normal_form_model([lam]))
    z = Polynomial.z(1)
    ok, dev = check_involution_invariance(rho * rho + 3 * z * rho, lam)
    assert ok and dev < 1e-12

    f = z * z + Polynomial.zbar(1) * Polynomial.zbar(1)
    ok, dev = check_involution_invariance(f, lam)
    assert not ok
    assert dev == pytest.approx(16.0)  # z^2 coefficient becomes 1 + 1/lam^2 = 17


def test_involution_invariance_range():
    with pytest.raises(InputError):
        check_involution_invariance(Polynomial.z(1), 0.0)
    with pytest.raises(InputError):
        check_involution_invariance(Polynomial.z(1), 0.5)


# -- graded extension --------------------------------------------------------------


def test_extend_general_examples():
    z, zb, w = Polynomial.z(1), Polynomial.zbar(1), Polynomial.w(1)
    sphere = normal_form_model([0.0])
    assert extend_general(z * zb, sphere).P == w

    lam = 0.25
    m = normal_form_model([lam])
    rho = q_polynomial(m)
    res = extend_general(rho * rho + 3 * z * rho, m)
    assert res.extended
    assert (res.P - (w * w + 3 * z * w)).max_coeff() < 1e-10


def test_extend_general_round_trip_random():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        m = normal_form_model(random_lambdas(rng, n))
        P = random_holomorphic(rng, n, 8)
        f = P.substitute_w(q_polynomial(m))
        res = extend_general(f, m)
        assert res.extended
        assert res.P.is_holomorphic()
        assert (res.P - P).max_coeff() < 1e-9
        assert res.residual < 1e-9 * (1 + f.max_coeff())


def test_extend_general_agrees_with_lambda0():
    rng = np.random.default_rng(19)
    sphere = normal_form_model([0.0])
    for _ in range(10):
        f = random_polynomial(rng, 1, 6)
        r1 = extend_lambda0(f)
        r2 = extend_general(f, sphere)
        assert r1.extended == r2.extended
        if r1.extended:
            assert (r1.P - r2.P).max_coeff() < 1e-10


def test_extend_general_weighted_degree_law():
    # homogeneous data of degree d extends with |alpha| + 2k = d only
    rng = np.random.default_rng(23)
    m = normal_form_model([0.3, 0.1])
    Q = q_polynomial(m)
    for d in (2, 4, 7, 10):
        P = Polynomial(2, {e: c for e, c in random_holomorphic(rng, 2, d, nterms=12).terms.items() if e.weighted_degree() == d})
        if P.is_zero():
            P = mono(2, (d - 2,), k=1)
        f = P.substitute_w(Q)
        res = extend_general(f, m)
        assert res.extended
        for e in res.P.terms:
            assert e.weighted_degree() == d


def test_extend_general_failures_have_certificates():
    zb = Polynomial.zbar(1)
    res = extend_general(zb, normal_form_model([0.0]))
    assert not res.extended
    assert res.certificate.condition == "monomial z^j zbar^k with j < k"
    assert res.certificate.detail["offending"] == (0, 1)
    assert res.certificate.residual > 0.1

    z = Polynomial.z(1)
    f = z * z + zb * zb
    res = extend_general(f, normal_form_model([0.25]))
    assert not res.extended
    assert res.certificate.condition == "not involution-invariant"
    assert res.certificate.residual > 0.1

    f2 = Polynomial.z(2, 0) * Polynomial.zbar(2, 1)
    res = extend_general(f2, normal_form_model([0.0, 0.0]))
    assert not res.extended
    assert res.certificate.condition == "CR field X f != 0"
    applied = Polynomial.from_json_dict(res.certificate.detail["field_applied"])
    assert applied == Polynomial.z(2, 0) * Polynomial.z(2, 0)
    assert res.certificate.residual > 0.1


def test_extend_general_structural_soundness():
    # involution failure implies NotExtendible for n = 1, lambda > 0
    rng = np.random.default_rng(31)
    lam = 0.3
    m = normal_form_model([lam])
    for _ in range(20):
        f = random_polynomial(rng, 1, 6)
        invariant, _ = check_involution_invariance(f, lam)
        res = extend_general(f, m)
        if not invariant:
            assert not res.extended
        else:
            assert res.extended


def test_extend_general_preconditions():
    z = Polynomial.z(1)
    with pytest.raises(NotElliptic):
        extend_general(z, normal_form_model([0.7]))
    with pytest.raises(InputError):
        extend_general(Polynomial.w(1), normal_form_model([0.0]))
    E = Polynomial.monomial(1, (2,), (2,), 0, 1.0)
    with pytest.raises(InputError):
        extend_general(z, normal_form_model([0.0], E=E))


def test_extend_reports_condition_numbers():
    m = normal_form_model([0.45])
    f = random_holomorphic(np.random.default_rng(3), 1, 8).substitute_w(q_polynomial(m))
    res = extend_general(f, m)
    assert res.extended
    assert all(np.isfinite(r.condition) and r.condition >= 1 for r in res.degree_reports)


# -- restriction and slicing --------------------------------------------------------


def test_restrict_to_plane_example():
    P = Polynomial.z(2, 0) * Polynomial.z(2, 1)
    v = np.array([1.0, 1.0]) / np.sqrt(2)
    restricted = restrict_to_plane(P, v)
    assert (restricted - 0.5 * Polynomial.z(1) * Polynomial.z(1)).max_coeff() < 1e-12


def test_restrict_to_plane_preconditions():
    with pytest.raises(InputError):
        restrict_to_plane(Polynomial.zbar(1), np.array([1.0]))
    with pytest.raises(InputError):
        restrict_to_plane(Polynomial.z(2, 0), np.array([1.0, 1.0]))


def test_slice_oracle_restricted_invariant():
    # lambda' = |sum lambda_j v_j^2|
    m = normal_form_model([0.0, 0.3])
    P = Polynomial.z(2, 1) * Polynomial.w(2)
    f = P.substitute_w(q_polynomial(m))
    dev = slice_oracle(f, m, P, [np.array([0.0, 1.0]), np.array([1.0, 0.0])])
    assert dev < 1e-10


def test_slice_oracle_random_directions():
    rng = np.random.default_rng(41)
    for n in (2, 3):
        m = normal_form_model(random_lambdas(rng, n))
        P = random_holomorphic(rng, n, 6)
        f = P.substitute_w(q_polynomial(m))
        dirs = [random_unit_vector(rng, n) for _ in range(6)]
        assert slice_oracle(f, m, P, dirs) < 1e-8


def test_verify_extension():
    m = normal_form_model([0.25])
    rho = q_polynomial(m)
    P = Polynomial.w(1) * Polynomial.w(1) + Polynomial.z(1)
    f = P.substitute_w(rho)
    assert verify_extension(P, f, m, samples=40, seed=1) < 1e-12
    # deterministic for a fixed seed
    assert verify_extension(P, f, m, samples=40, seed=1) == verify_extension(
        P, f, m, samples=40, seed=1
    )


def loop_verify(P, f, model, samples, seed):
    """Reference for verify_extension: one point at a time, same draws."""
    rho = q_polynomial(model)
    radius, _ = default_radii(model)
    rng = np.random.default_rng(seed)
    n = model.n
    worst = 0.0
    for _ in range(samples):
        direction = rng.standard_normal(2 * n)
        direction /= np.linalg.norm(direction)
        t = rng.uniform() ** (1.0 / (2 * n))
        zr = radius * t * direction
        z = [complex(zr[j], zr[n + j]) for j in range(n)]
        w = loop_evaluate(rho, z).real
        worst = max(worst, abs(loop_evaluate(P, z, w) - loop_evaluate(f, z)))
    return worst


def test_verify_extension_matches_loop_reference():
    rng = np.random.default_rng(37)
    for n in (1, 2, 3):
        m = normal_form_model(random_lambdas(rng, n))
        P = random_holomorphic(rng, n, 6)
        f = P.substitute_w(q_polynomial(m)) + 1e-3 * random_polynomial(rng, n, 4)
        for seed in (0, 7):
            ref = loop_verify(P, f, m, 50, seed)
            assert ref > 1e-8  # the perturbation is seen
            assert verify_extension(P, f, m, samples=50, seed=seed) == pytest.approx(ref, rel=1e-10)
    assert verify_extension(P, f, m, samples=0) == 0.0
