"""Quadric models: validation, normal form, classification, real-form oracle."""

import numpy as np
import pytest

from conftest import random_model
from crextend import (
    InputError,
    NotElliptic,
    Polynomial,
    QuadricModel,
    check_nondegenerate,
    classify,
    default_radii,
    ellipticity_oracle,
    normal_form_model,
    normalize,
    q_polynomial,
    takagi,
)
from crextend.quadform import is_normal_form, real_quadratic_form


def maxabs(M):
    return float(np.max(np.abs(M)))


# -- model validation ----------------------------------------------------------


def test_rejects_non_hermitian_a():
    with pytest.raises(InputError):
        QuadricModel(A=np.array([[1.0, 1.0], [0.0, 1.0]]), B=np.zeros((2, 2)))


def test_rejects_asymmetric_b():
    with pytest.raises(InputError):
        QuadricModel(A=np.eye(2), B=np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_rejects_shape_mismatch():
    with pytest.raises(InputError):
        QuadricModel(A=np.eye(2), B=np.zeros((3, 3)))


def test_rejects_low_degree_perturbation():
    E = Polynomial.z(1) * Polynomial.zbar(1)  # degree 2
    with pytest.raises(InputError):
        QuadricModel(A=np.eye(1), B=np.zeros((1, 1)), E=E)


def test_rejects_non_real_perturbation():
    E = Polynomial.monomial(1, (2,), (1,), 0, 1.0)  # z^2 zbar, not conjugation invariant
    with pytest.raises(InputError):
        QuadricModel(A=np.eye(1), B=np.zeros((1, 1)), E=E)


def test_accepts_real_quartic_perturbation():
    E = Polynomial.monomial(1, (2,), (2,), 0, 1.0)
    m = QuadricModel(A=np.eye(1), B=np.zeros((1, 1)), E=E)
    assert m.E is not None


# -- nondegeneracy ---------------------------------------------------------------


def test_nondegeneracy_from_singular_values():
    rng = np.random.default_rng(61)
    for n in (1, 2, 3):
        for shift in (0.5, -1.0):  # positive definite and indefinite A
            m = random_model(rng, n, posdef_shift=shift)
            s = np.linalg.svd(m.A, compute_uv=False)
            report = check_nondegenerate(m)
            assert report.sigma_max == pytest.approx(s[0], rel=1e-12)
            assert report.sigma_min == pytest.approx(s[-1], rel=1e-10)
            assert classify(m).nondegeneracy == report


def test_check_nondegenerate():
    ok = check_nondegenerate(normal_form_model([0.1, 0.2]))
    assert ok.ok and ok.sigma_min == pytest.approx(1.0)
    singular = QuadricModel(A=np.diag([1.0, 0.0]), B=np.zeros((2, 2)))
    report = check_nondegenerate(singular)
    assert not report.ok
    assert report.sigma_min == pytest.approx(0.0, abs=1e-15)


# -- takagi -----------------------------------------------------------------------


def test_takagi_random_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        S = (G + G.T) / 2
        U, sig = takagi(S)
        assert maxabs(U @ np.diag(sig) @ U.T - S) < 1e-12
        assert maxabs(U.conj().T @ U - np.eye(n)) < 1e-12
        assert np.all(sig >= 0)
        assert np.all(np.diff(sig) >= 0)


def test_takagi_repeated_singular_values():
    S = np.exp(0.9j) * np.eye(3) * 0.4
    U, sig = takagi(S)
    assert maxabs(U @ np.diag(sig) @ U.T - S) < 1e-13
    assert np.allclose(sig, 0.4)


def test_takagi_zero_and_mixed_kernel():
    S = np.diag([0.0, 0.0, 2.0]).astype(complex)
    U, sig = takagi(S)
    assert maxabs(U @ np.diag(sig) @ U.T - S) < 1e-13
    assert maxabs(U.conj().T @ U - np.eye(3)) < 1e-13


def test_takagi_rejects_asymmetric():
    with pytest.raises(InputError):
        takagi(np.array([[0.0, 1.0], [-1.0, 0.0]]))


# -- normal form -------------------------------------------------------------------


def test_normalize_scalar_example():
    nf = normalize(QuadricModel(A=np.array([[4.0]]), B=np.array([[1.0]])))
    assert nf.lambdas == pytest.approx([0.25])
    assert nf.T == pytest.approx(np.array([[0.5]]))
    assert nf.classification == "elliptic"


def test_normalize_diagonal_example():
    nf = normalize(normal_form_model([0.1, 0.3]))
    assert nf.lambdas == pytest.approx([0.1, 0.3])
    assert maxabs(np.abs(nf.T) - np.eye(2)) < 1e-12


def test_normalize_invariants_random():
    rng = np.random.default_rng(29)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        m = random_model(rng, n)
        nf = normalize(m)
        assert maxabs(nf.T.conj().T @ m.A @ nf.T - np.eye(n)) < 1e-10
        assert maxabs(nf.T.T @ m.B @ nf.T - np.diag(nf.lambdas)) < 1e-10
        assert np.all(nf.lambdas >= 0)
        assert np.all(np.diff(nf.lambdas) >= 0)


def test_normalize_requires_positive_definite():
    with pytest.raises(NotElliptic) as err:
        normalize(QuadricModel(A=np.array([[-1.0]]), B=np.zeros((1, 1))))
    assert err.value.eigenvalue == pytest.approx(-1.0)


def test_lambdas_are_congruence_invariants():
    rng = np.random.default_rng(37)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        m = random_model(rng, n)
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        G += np.eye(n)  # keep it comfortably invertible
        m2 = QuadricModel(A=G.conj().T @ m.A @ G, B=G.T @ m.B @ G)
        l1 = normalize(m).lambdas
        l2 = normalize(m2).lambdas
        assert np.max(np.abs(l1 - l2)) < 1e-8


# -- classification -----------------------------------------------------------------


def test_classify_tags():
    assert classify(normal_form_model([0.0, 0.2])).classification == "elliptic"
    assert classify(normal_form_model([0.5])).classification == "parabolic"
    assert classify(normal_form_model([0.7])).classification == "hyperbolic"
    assert classify(normal_form_model([0.2, 0.5])).classification == "parabolic"
    assert classify(normal_form_model([0.2, 0.7])).classification == "hyperbolic"
    singular = QuadricModel(A=np.zeros((1, 1)), B=np.eye(1))
    assert classify(singular).classification == "degenerate"


def test_classify_indefinite_a_is_hyperbolic_with_note():
    res = classify(QuadricModel(A=np.array([[-1.0]]), B=np.zeros((1, 1))))
    assert res.classification == "hyperbolic"
    assert res.lambdas is None
    assert res.note is not None


# -- ellipticity oracle ----------------------------------------------------------


def test_real_form_matrix_n1():
    # z zbar + lam (z^2 + zbar^2) becomes (1+2 lam) x^2 + (1-2 lam) y^2
    for lam in (0.0, 0.3, 0.6):
        S = real_quadratic_form(normal_form_model([lam]))
        assert S == pytest.approx(np.diag([1 + 2 * lam, 1 - 2 * lam]), abs=1e-12)


def polarized_form(model):
    """Reference for real_quadratic_form: polarization of 4n^2 values of Q."""
    n = model.n

    def q(v):
        z = v[:n] + 1j * v[n:]
        return float((z.conj() @ model.A @ z + 2 * (z @ model.B @ z).real).real)

    basis = np.eye(2 * n)
    S = np.zeros((2 * n, 2 * n))
    for p in range(2 * n):
        for r in range(2 * n):
            S[p, r] = (q(basis[p] + basis[r]) - q(basis[p]) - q(basis[r])) / 2
    return S


def test_real_form_matches_polarization():
    rng = np.random.default_rng(59)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            m = random_model(rng, n)
            S = real_quadratic_form(m)
            R = polarized_form(m)
            assert maxabs(S - R) <= 1e-14 * maxabs(R)
            assert maxabs(S - S.T) <= 1e-14 * maxabs(R)


def test_oracle_examples():
    assert ellipticity_oracle(normal_form_model([0.3]))
    assert not ellipticity_oracle(QuadricModel(A=np.eye(1), B=np.array([[0.6]])))
    assert not ellipticity_oracle(normal_form_model([0.5]))


def test_oracle_agrees_with_classify():
    rng = np.random.default_rng(101)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        m = random_model(rng, n)
        assert ellipticity_oracle(m) == (classify(m).classification == "elliptic")


# -- defining polynomial -----------------------------------------------------------


def test_q_polynomial_scalar_example():
    m = QuadricModel(A=np.eye(1), B=np.array([[0.3]]))
    rho = q_polynomial(m)
    z, zb = Polynomial.z(1), Polynomial.zbar(1)
    assert rho == z * zb + 0.3 * z * z + 0.3 * zb * zb


def test_q_polynomial_sphere_n2():
    rho = q_polynomial(normal_form_model([0.0, 0.0]))
    expected = Polynomial.z(2, 0) * Polynomial.zbar(2, 0) + Polynomial.z(2, 1) * Polynomial.zbar(2, 1)
    assert rho == expected


def test_q_polynomial_is_real_valued():
    rng = np.random.default_rng(53)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        rho = q_polynomial(random_model(rng, n))
        assert (rho.conjugate() - rho).max_coeff() < 1e-12


def test_q_polynomial_includes_perturbation():
    E = Polynomial.monomial(1, (2,), (2,), 0, 1.0)
    rho = q_polynomial(QuadricModel(A=np.eye(1), B=np.zeros((1, 1)), E=E))
    assert rho.coefficient((2,), (2,), 0) == pytest.approx(1.0)


# -- helpers -----------------------------------------------------------------------


def test_is_normal_form():
    ok, lambdas = is_normal_form(normal_form_model([0.1, 0.4]))
    assert ok and lambdas == pytest.approx([0.1, 0.4])
    ok, _ = is_normal_form(QuadricModel(A=2 * np.eye(1), B=np.zeros((1, 1))))
    assert not ok


def test_default_radii():
    dz, dw = default_radii(normal_form_model([0.3]))
    assert dz == pytest.approx(0.5)
    assert dw == pytest.approx((1 - 0.6) * 0.25)
    with pytest.raises(NotElliptic):
        default_radii(normal_form_model([0.7]))


def test_default_radii_leaf_containment():
    # every z on the leaf at level dw satisfies |z| <= dz
    m = QuadricModel(A=np.array([[2.0, 0.3j], [-0.3j, 1.0]]), B=0.1 * np.eye(2))
    dz, dw = default_radii(m)
    S = real_quadratic_form(m)
    mu = np.linalg.eigvalsh(S)[0]
    assert mu * dz**2 == pytest.approx(dw)


# -- serialization -----------------------------------------------------------------


def test_model_json_round_trip():
    rng = np.random.default_rng(59)
    m = random_model(rng, 3)
    doc = m.to_json_dict()
    m2 = QuadricModel.from_json_dict(doc)
    assert maxabs(m.A - m2.A) == 0
    assert maxabs(m.B - m2.B) == 0
    E = Polynomial.monomial(1, (2,), (2,), 0, 0.5)
    mp = QuadricModel(A=np.eye(1), B=np.zeros((1, 1)), E=E)
    assert QuadricModel.from_json_dict(mp.to_json_dict()).E == E


def test_model_json_validation():
    with pytest.raises(InputError):
        QuadricModel.from_json_dict({"n": 1, "A": [[{"re": 1.0, "im": 0.0}]]})
    with pytest.raises(InputError):
        QuadricModel.from_json_dict(
            {"n": 2, "A": [[{"re": 1.0, "im": 0.0}]], "B": [[{"re": 0.0, "im": 0.0}]]}
        )
