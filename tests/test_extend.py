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
from crextend.extend import NOISE_ULPS
from crextend.polyalg import monomials
from dictref import Exponent, extend_lambda0, from_terms, term_dict
from crextend import (
    InputError,
    NotElliptic,
    Polynomial,
    QuadricModel,
    check_involution_invariance,
    default_radii,
    extend_general,
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
        full = term_dict(random_holomorphic(rng, 2, d, nterms=12))
        P = from_terms(2, {e: c for e, c in full.items() if e.weighted_degree() == d})
        if P.is_zero():
            P = mono(2, (d - 2,), k=1)
        f = P.substitute_w(Q)
        res = extend_general(f, m)
        assert res.extended
        for e in term_dict(res.P):
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


def reference_graded_solve(f, model, tol=1e-9):
    """The graded solve with every column built as monomial(alpha) * Q**k and P summed per degree.

    Returns (P or None, [(degree, residual, condition), ...]).
    """
    Q = q_polynomial(model)
    n = f.n
    threshold = tol * (1.0 + f.max_coeff())
    P, reports = Polynomial.zero(n), []
    for d in range(f.degree() + 1):
        fd = f.homogeneous_part(d)
        if fd.is_zero():
            continue
        basis = [(alpha, k) for k in range(d // 2, -1, -1) for alpha in monomials(n, d - 2 * k)]
        images = [mono(n, alpha) * Q**k for alpha, k in basis]
        row_index = {}
        for img in images:
            for e in term_dict(img):
                row_index.setdefault(e, len(row_index))
        for e in term_dict(fd):
            row_index.setdefault(e, len(row_index))
        M = np.zeros((len(row_index), len(basis)), dtype=complex)
        for col, img in enumerate(images):
            for e, c in term_dict(img).items():
                M[row_index[e], col] = c
        b = np.zeros(len(row_index), dtype=complex)
        for e, c in term_dict(fd).items():
            b[row_index[e]] = c
        if M.imag.any():
            x, _, rank, sv = np.linalg.lstsq(M, b, rcond=None)
        else:
            # a real block is solved in real arithmetic, Re b and Im b as two right-hand sides
            M = M.real.copy()
            xr, _, rank, sv = np.linalg.lstsq(M, np.column_stack((b.real, b.imag)), rcond=None)
            x = xr[:, 0] + 1j * xr[:, 1]
        residual = float(np.linalg.norm(M @ x - b))
        reports.append((d, residual, float(sv[0] / sv[-1])))
        if residual >= threshold:
            return None, reports
        noise = NOISE_ULPS * np.finfo(float).eps * sv[0] / sv[rank - 1] * np.linalg.norm(x)
        x[np.abs(x) < noise] = 0
        P = P + from_terms(n, {Exponent(a, (0,) * n, k): c for (a, k), c in zip(basis, x)})
    return P, reports


def test_extend_general_bit_identical_to_column_reference():
    rng = np.random.default_rng(43)
    statuses = set()
    for n in (1, 2, 3):
        for i in range(4):
            lambdas = random_lambdas(rng, n)
            # odd i: A = 2I is not normal form, so no named certificate is looked for
            m = normal_form_model(lambdas) if i % 2 == 0 else QuadricModel(A=2 * np.eye(n), B=np.diag(lambdas))
            f = random_holomorphic(rng, n, 8 if n < 3 else 6).substitute_w(q_polynomial(m))
            if i >= 2:
                f = f + 1e-3 * random_polynomial(rng, n, 4)
            res = extend_general(f, m)
            ref_P, ref_reports = reference_graded_solve(f, m)
            statuses.add(res.status)
            assert [(r.degree, r.residual, r.condition) for r in res.degree_reports] == ref_reports
            if ref_P is None:
                assert res.P is None
            else:
                assert list(term_dict(res.P).items()) == list(term_dict(ref_P).items())
    assert statuses == {"Extended", "NotExtendible"}


def test_extend_general_complex_q_matches_column_reference():
    # B with complex entries makes Q, and so every graded block, complex
    rng = np.random.default_rng(47)
    for n in (1, 2, 3):
        B = np.diag(rng.uniform(0.05, 0.45, n)) * np.exp(0.7j)
        m = QuadricModel(A=np.eye(n), B=B)
        assert q_polynomial(m).coeffs.imag.any()
        f = random_holomorphic(rng, n, 8 if n < 3 else 6).substitute_w(q_polynomial(m))
        res = extend_general(f, m)
        ref_P, ref_reports = reference_graded_solve(f, m)
        assert res.extended
        assert [(r.degree, r.residual, r.condition) for r in res.degree_reports] == ref_reports
        assert list(term_dict(res.P).items()) == list(term_dict(ref_P).items())


def test_extend_general_leaves_rounding_noise_out_of_P():
    # f = P(z, Q) carries rounding error, and seeds 4 and 7 solve it with
    # noise coefficients of about 1e-14 in columns that P does not have
    for seed in range(8):
        rng = np.random.default_rng(seed)
        m = normal_form_model(random_lambdas(rng, 2))
        P = random_holomorphic(rng, 2, 12)
        res = extend_general(P.substitute_w(q_polynomial(m)), m)
        assert set(term_dict(res.P)) == set(term_dict(P))
        assert (res.P - P).max_coeff() < 1e-12


def test_extend_general_early_exit_builds_only_needed_q_powers(monkeypatch):
    # n = 3, degree 14, obstruction at degree 2: only Q^1 = Q^0 * Q may be built
    m = QuadricModel(A=2 * np.eye(3), B=np.diag([0.1, 0.2, 0.3]))
    f = mono(3, (14, 0, 0)) + mono(3, (0, 0, 0), (2, 0, 0))
    calls = []
    mul = Polynomial.__mul__
    monkeypatch.setattr(Polynomial, "__mul__", lambda self, other: calls.append(other) or mul(self, other))
    res = extend_general(f, m)
    assert res.status == "NotExtendible" and res.certificate.degree == 2
    assert calls == [q_polynomial(m)]
