"""Quadric models: validation, normal form, classification, real-form oracle."""

import numpy as np
import pytest

from conftest import congruent_model, random_model
from crextend import (
    InputError,
    NotElliptic,
    Polynomial,
    QuadricModel,
    classify,
    ellipticity_oracle,
    normal_form_model,
    normalize,
    q_polynomial,
    takagi,
)
from crextend.quadform import (
    ELLIPTIC_MARGIN,
    classification,
    default_radii,
    is_normal_form,
    real_quadratic_form,
)
from dictref import coefficient


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


def _perturbation(rng, n, nterms, imbalance):
    """A sum of terms of degree 3 to 5 and their conjugates, each conjugate off by a random amount of size imbalance."""
    E = Polynomial.zero(n)
    for _ in range(nterms):
        d = int(rng.integers(3, 6))
        split = rng.multinomial(d, [1.0 / (2 * n)] * (2 * n))
        alpha, beta = tuple(split[:n].tolist()), tuple(split[n:].tolist())
        c = complex(rng.standard_normal(), rng.standard_normal())
        off = imbalance * complex(rng.standard_normal(), rng.standard_normal())
        E = E + Polynomial.monomial(n, alpha, beta, 0, c) + Polynomial.monomial(n, beta, alpha, 0, c.conjugate() + off)
    return E


@pytest.mark.parametrize("imbalance", [0.0, 1e-15, 1e-13, 3e-13, 1e-12, 1e-11, 1e-6, 1.0])
def test_real_valuedness_check_keeps_the_deviation_of_the_old_formula(imbalance):
    # the check compares E's rows with their alpha/beta swaps directly; every
    # E it refuses names the deviation (E.conjugate() - E).max_coeff()
    rng = np.random.default_rng(211)
    for n in (1, 2, 3):
        for nterms in (1, 3, 8):
            E = _perturbation(rng, n, nterms, imbalance)
            if E.exps.sum(axis=1).min(initial=3) < 3 or E.is_zero():
                continue
            dev = (E.conjugate() - E).max_coeff()
            if dev > 1e-12:
                with pytest.raises(InputError) as info:
                    QuadricModel(A=np.eye(n), B=np.zeros((n, n)), E=E)
                assert str(info.value) == f"E is not real-valued (deviation {dev:g})"
            else:
                assert QuadricModel(A=np.eye(n), B=np.zeros((n, n)), E=E).E is E
    # a term without its conjugate partner deviates by its own modulus
    E = Polynomial.monomial(2, (2, 0), (0, 1), 0, 3 - 4j) + Polynomial.monomial(2, (1, 1), (1, 1), 0, 2.0)
    with pytest.raises(InputError, match=r"deviation 5\)$"):
        QuadricModel(A=np.eye(2), B=np.zeros((2, 2)), E=E)


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
            report = classify(m).nondegeneracy
            assert report.sigma_max == pytest.approx(s[0], rel=1e-12)
            assert report.sigma_min == pytest.approx(s[-1], rel=1e-10)


def test_classify_nondegeneracy_report():
    ok = classify(normal_form_model([0.1, 0.2])).nondegeneracy
    assert ok.ok and ok.sigma_min == pytest.approx(1.0)
    singular = QuadricModel(A=np.diag([1.0, 0.0]), B=np.zeros((2, 2)))
    report = classify(singular).nondegeneracy
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


TAKAGI_SPECTRA = ["generic", "half zero", "tiny", "zero and repeated", "rounded"]


def _takagi_spectrum(rng, n, kind):
    if kind == "generic":
        return rng.uniform(0.0, 1.0, n)
    if kind == "half zero":
        s = rng.uniform(0.0, 1.0, n)
        s[: (n + 1) // 2] = 0.0
        return s
    if kind == "tiny":
        return 10.0 ** rng.uniform(-16, -8, n)
    if kind == "zero and repeated":
        s = np.full(n, rng.uniform(0.1, 1.0))
        s[0] = 0.0
        return s
    return np.round(rng.uniform(0.0, 1.0, n), 1)  # ties at multiples of 0.1


@pytest.mark.parametrize("kind", TAKAGI_SPECTRA)
def test_takagi_sweep_kernels_ties_and_tiny_values(kind):
    # S = Q diag(s) Q^T with Q unitary has Takagi values s
    rng = np.random.default_rng(TAKAGI_SPECTRA.index(kind))
    for n in range(1, 6):
        for _ in range(120):
            G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            Q, _ = np.linalg.qr(G)
            s = _takagi_spectrum(rng, n, kind)
            S = Q @ np.diag(s) @ Q.T
            U, sig = takagi(S)
            assert maxabs(U @ np.diag(sig) @ U.T - S) <= 1e-13
            assert maxabs(U.conj().T @ U - np.eye(n)) <= 1e-13
            assert np.all(sig >= 0) and np.all(np.diff(sig) >= 0)
            assert maxabs(sig - np.sort(s)) <= 1e-13


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


def _lead_entries(T):
    """Per column, the first entry of largest modulus."""
    return np.array([T[int(np.argmax(np.abs(T[:, j]))), j] for j in range(T.shape[1])])


def test_normal_form_columns_are_canonically_signed():
    rng = np.random.default_rng(43)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        lead = _lead_entries(normalize(random_model(rng, n)).T)
        assert np.all((lead.real > 0) | ((lead.real == 0) & (lead.imag > 0)))


def test_normal_form_t_does_not_depend_on_the_route_to_t0():
    # With distinct nonzero lambdas each column of T is fixed up to sign, so
    # T from a Cholesky T0 = (L^H)^-1, signed by the same rule, is the same T.
    rng = np.random.default_rng(47)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        m = random_model(rng, n)
        nf = normalize(m)
        T0 = np.linalg.inv(np.linalg.cholesky(m.A).conj().T)
        Bp = T0.T @ m.B @ T0
        U, sig = takagi((Bp + Bp.T) / 2)
        T = T0 @ U.conj()
        lead = _lead_entries(T)
        T = T * np.where((lead.real < 0) | ((lead.real == 0) & (lead.imag < 0)), -1, 1)
        assert np.min(np.diff(sig), initial=1.0) > 1e-3 and sig[0] > 1e-3
        assert maxabs(T - nf.T) < 1e-10


@pytest.mark.parametrize(
    "lambdas",
    [[0.0, 0.2], [0.0, 0.0, 0.151, 0.409], [0.0, 1e-10, 0.3], [1e-13, 0.25], "tiny"],
    ids=str,
)
def test_classify_congruent_models_with_zero_or_tiny_invariants(lambdas):
    rng = np.random.default_rng(17)
    for _ in range(100):
        lams = lambdas
        if lams == "tiny":  # two invariants in [1e-12, 1e-9]
            lams = sorted([*10.0 ** rng.uniform(-12, -9, 2), rng.uniform(0.05, 0.45)])
        res = classify(congruent_model(rng, lams))  # raises NumericalFailure on a bad factorization
        assert res.classification == "elliptic"
        assert maxabs(res.lambdas - lams) <= 1e-12
        assert res.normal_form.residual_a <= 1e-12
        assert res.normal_form.residual_b <= 1e-12


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


def _diagonal_models(rng):
    """Diagonal models at n = 1..4 for classification(): real and complex B,
    A scaled from 1e-9 to 1e6, a degenerate or negative entry of A, and
    invariants on each edge of the elliptic class or 1e-12 to either side
    of it (on an edge, rounding of |B_jj| / A_jj decides the verdict)."""
    edges = (0.5 - ELLIPTIC_MARGIN, 0.5 + ELLIPTIC_MARGIN)
    for trial in range(600):
        n = 1 + trial % 4
        a = rng.uniform(0.5, 2.0, n) * 10.0 ** rng.integers(-9, 7)
        lambdas = rng.uniform(0.0, 0.7, n)
        case = trial % 6
        if case == 1:
            lambdas[rng.integers(n)] = rng.choice(edges) + rng.choice([-1e-12, 0.0, 1e-12])
        elif case == 2:
            a[rng.integers(n)] *= rng.choice([0.0, 1e-12, 1e-6])  # degenerate or barely not
        elif case == 3:
            a[rng.integers(n)] *= -1.0  # indefinite
        phase = np.exp(2j * np.pi * rng.uniform(size=n)) if trial % 2 else rng.choice([-1.0, 1.0], n)
        yield QuadricModel(A=np.diag(a), B=np.diag(lambdas * np.abs(a) * phase))


def test_closed_form_classification_matches_classify_on_diagonal_models(monkeypatch):
    # classification(), classify and normalize read a diagonal model in
    # closed form, with no decomposition: classify's lambdas are the sorted
    # |B_jj| / A_jj, bit for bit, so the two verdicts agree on every model
    def refuse(*args, **kwargs):
        raise AssertionError("decomposition called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    seen = set()
    for m in _diagonal_models(np.random.default_rng(71)):
        got, res = classification(m), classify(m)
        assert got == res.classification, (m.A, m.B)
        if res.lambdas is not None:
            lambdas = np.sort(np.abs(m.B.diagonal()) / m.A.diagonal().real)
            assert res.lambdas.tobytes() == lambdas.tobytes() == normalize(m).lambdas.tobytes(), (m.A, m.B)
        seen.add(got)
    assert seen == {"elliptic", "parabolic", "hyperbolic", "degenerate"}


def test_classification_of_a_congruent_model_is_classify_s():
    rng = np.random.default_rng(73)
    for lambdas in ([0.1, 0.3], [0.2, 0.5], [0.05, 0.4, 0.8]):
        m = congruent_model(rng, lambdas)
        assert classification(m) == classify(m).classification


def test_diagonal_eigh_is_the_sorted_diagonal():
    # ties, zeros of both signs, negative entries and small imaginary parts
    # on the diagonal, at every scale: the eigenvalues are the real diagonal,
    # stably sorted, and V the permutation matrix with A V = V diag(eigs)
    rng = np.random.default_rng(79)
    for trial in range(3000):
        n = int(rng.integers(1, 6))
        if trial % 2:
            d = rng.choice([-2.0, -1.0, -0.0, 0.0, 1e-9, 0.5, 1.0, 1.0, 3.0], n)
        else:
            d = rng.standard_normal(n) * 10.0 ** rng.integers(-9, 7, n)
        A = np.diag(d).astype(complex)
        if trial % 3 == 0:
            A[np.diag_indices(n)] += 1j * rng.choice([-1e-13, 0.0, 1e-13], n)
        elif trial % 10 == 1:
            A *= rng.choice([1e-150, 1e150, 1e-300, 1e300])
        eigs, V = QuadricModel(A=A, B=np.zeros((n, n))).eigh
        order = np.argsort(A.diagonal().real, kind="stable")
        assert eigs.tobytes() == A.diagonal().real[order].tobytes() and eigs.dtype == float, A
        assert np.array_equal(V, np.eye(n)[:, order]), A
        assert np.array_equal(A.real @ V, V * eigs), A


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
    assert coefficient(rho, ((2,), (2,), 0)) == pytest.approx(1.0)


# -- helpers -----------------------------------------------------------------------


def test_is_normal_form():
    ok, lambdas = is_normal_form(normal_form_model([0.1, 0.4]))
    assert ok and lambdas == pytest.approx([0.1, 0.4])
    ok, _ = is_normal_form(QuadricModel(A=2 * np.eye(1), B=np.zeros((1, 1))))
    assert not ok


def test_default_radii():
    assert default_radii(normal_form_model([0.3])) == 0.5
    assert default_radii(QuadricModel(A=np.diag([4.0, 1.0]), B=0.1 * np.eye(2))) == 0.25
    with pytest.raises(NotElliptic):
        default_radii(QuadricModel(A=-np.eye(1), B=np.zeros((1, 1))))


def test_one_decomposition_of_a_serves_classify_normalize_and_default_radii(monkeypatch):
    # the model caches eigh(A): classify, normalize and default_radii read
    # it, and nothing calls eigvalsh on A; a diagonal A (every n = 1 model)
    # takes it in closed form, with no eigh of A at all
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append(np.shape(M)) or eigh(M))
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    rng = np.random.default_rng(67)
    diagonal = QuadricModel(A=np.diag([2.0, 0.5, 1.0]), B=np.diag([0.3, 0.1j, -0.2]))
    for m in (random_model(rng, 1), random_model(rng, 2), random_model(rng, 3), diagonal):
        n = m.n
        calls.clear()
        nf, res, delta_z = normalize(m), classify(m), default_radii(m)
        assert calls.count((n, n)) == (0 if n == 1 or m is diagonal else 1)  # the rest are takagi's (2n, 2n)
        assert m.eigh is m.eigh and not m.eigh[0].flags.writeable and not m.eigh[1].flags.writeable
        eigs = eigh(m.A)[0]
        assert delta_z == 0.5 * float(np.sqrt(eigs[0] / eigs[-1]))
        np.testing.assert_array_equal(res.normal_form.T, nf.T)
        assert res.nondegeneracy.sigma_min == float(np.min(np.abs(eigs)))


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
