"""Polynomial extension: monomial route, involution, graded solves, slicing."""

import tracemalloc
from math import comb

import numpy as np
import pytest

from conftest import (
    congruent_model,
    loop_evaluate,
    random_holomorphic,
    random_lambdas,
    random_polynomial,
    random_unit_vector,
)
import crextend.extend as extend_module
import crextend.polyalg as polyalg
from crextend.extend import (
    CONDITIONING_WARN_FLOOR,
    DEFAULT_EXTEND_TOL,
    NOISE_ULPS,
    VERIFY_SAMPLES,
    _division_degrees,
    _structural_certificate,
    check_involution_invariance,
)
from crextend.polyalg import monomials
from crextend.quadform import default_radii
from dictref import extend_lambda0, from_terms, term_dict
from crextend import (
    InputError,
    NotElliptic,
    NumericalFailure,
    Polynomial,
    QuadricModel,
    classify,
    extend_general,
    normal_form_model,
    q_polynomial,
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


# -- slicing ------------------------------------------------------------------------


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


def test_slice_oracle_refuses_a_hyperbolic_normal_form():
    # lambda >= 1/2 is refused up front, naming the invariant, along every
    # direction: e_1 at (0.3, 0.7) returned a deviation, e_2 and (0.6) raised
    # NumericalFailure
    z = Polynomial.z(1)
    with pytest.raises(NotElliptic, match=r"lambda_1 = 0\.6 is at least 1/2"):
        slice_oracle(z, normal_form_model([0.6]), z, [[1.0]])
    z1 = Polynomial.z(2, 0)
    for direction in ([1.0, 0.0], [0.0, 1.0]):
        with pytest.raises(NotElliptic, match=r"lambda_2 = 0\.7 is at least 1/2"):
            slice_oracle(z1, normal_form_model([0.3, 0.7]), z1, [direction])


def test_slice_oracle_refuses_what_classify_calls_parabolic(monkeypatch):
    # lambda = 1/2 - 5e-11 is parabolic by quadform's margin rule, so it is
    # refused up front, as classify sees it, before any slice is extended
    m = normal_form_model([0.1, 0.5 - 5e-11])
    assert classify(m).classification == "parabolic"
    monkeypatch.setattr(extend_module, "extend_general", lambda *args: pytest.fail("a slice was solved"))
    z1 = Polynomial.z(2, 0)
    with pytest.raises(NotElliptic, match=r"^slice_oracle: invariant lambda_2 = 0\.49999999995 ") as info:
        slice_oracle(z1, m, z1, [[0.0, 1.0]])
    assert info.value.eigenvalue == 0.5 - 5e-11


def test_verify_extension():
    m = normal_form_model([0.25])
    rho = q_polynomial(m)
    P = Polynomial.w(1) * Polynomial.w(1) + Polynomial.z(1)
    f = P.substitute_w(rho)
    assert verify_extension(P, f, m, seed=1) < 1e-12
    # deterministic for a fixed seed
    assert verify_extension(P, f, m, seed=1) == verify_extension(P, f, m, seed=1)


def verify_points(model, seed):
    """verify_extension's sample points as (samples, 2n) rows Re z | Im z: every
    direction from one standard_normal draw, then every radius from one uniform draw."""
    rng = np.random.default_rng(seed)
    n = model.n
    directions = rng.standard_normal((VERIFY_SAMPLES, 2 * n))
    t = rng.uniform(size=VERIFY_SAMPLES) ** (1.0 / (2 * n))
    return [default_radii(model) * t[i] * (v / np.linalg.norm(v)) for i, v in enumerate(directions)]


def loop_verify(P, f, model, seed):
    """Reference for verify_extension's evaluation: one point at a time, the same draws."""
    rho = q_polynomial(model)
    n = model.n
    worst = 0.0
    for zr in verify_points(model, seed):
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
            ref = loop_verify(P, f, m, seed)
            assert ref > 1e-8  # the perturbation is seen
            assert verify_extension(P, f, m, seed=seed) == pytest.approx(ref, rel=1e-10)


def sampled_points(monkeypatch, P, f, model, seed):
    """(value, points) of verify_extension: the points are those f is evaluated at."""
    points = []
    evaluate = Polynomial.evaluate

    def recorded(self, z, w=0.0):
        if self is f:
            points.append(np.array(z))
        return evaluate(self, z, w)

    with monkeypatch.context() as patch:
        patch.setattr(Polynomial, "evaluate", recorded)
        value = verify_extension(P, f, model, seed=seed)
    (z,) = points
    return value, z


@pytest.mark.parametrize("n", [1, 2, 3])
def test_verify_samples_lie_in_the_closed_ball(monkeypatch, n):
    rng = np.random.default_rng(41 + n)
    m = QuadricModel(A=np.diag(rng.uniform(0.5, 2.0, n)), B=np.diag(random_lambdas(rng, n)) * 0.5)
    P = random_holomorphic(rng, n, 5)
    f = P.substitute_w(q_polynomial(m))
    radius = default_radii(m)
    for seed in range(5):
        _, z = sampled_points(monkeypatch, P, f, m, seed)
        assert z.shape == (VERIFY_SAMPLES, n)
        moduli = np.linalg.norm(z, axis=1)
        assert moduli.max() <= radius * (1 + 4 * np.finfo(float).eps)
        assert moduli.max() > 0.5 * radius  # the samples fill the ball, not a point
        expected = np.array(verify_points(m, seed))
        assert np.allclose(z, expected[:, :n] + 1j * expected[:, n:], rtol=1e-14, atol=0)  # the same draws


def test_verify_same_seed_same_points_and_value(monkeypatch):
    rng = np.random.default_rng(43)
    m = normal_form_model([0.1, 0.35])
    P = random_holomorphic(rng, 2, 6)
    f = P.substitute_w(q_polynomial(m)) + 1e-4 * random_polynomial(rng, 2, 3)
    first, z1 = sampled_points(monkeypatch, P, f, m, 11)
    second, z2 = sampled_points(monkeypatch, P, f, m, 11)
    assert z1.tobytes() == z2.tobytes() and repr(first) == repr(second)
    _, other = sampled_points(monkeypatch, P, f, m, 12)
    assert not np.array_equal(z1, other)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_verify_catches_a_perturbed_P(n):
    # an exact P verifies to rounding; P + 1e-6 (z_1 + w) is seen at every seed
    rng = np.random.default_rng(47 + n)
    m = normal_form_model(random_lambdas(rng, n))
    res = extend_general(random_holomorphic(rng, n, 6).substitute_w(q_polynomial(m)), m)
    P = res.P
    f = P.substitute_w(q_polynomial(m))
    wrong = P + 1e-6 * (Polynomial.z(n) + Polynomial.w(n))
    for seed in range(5):
        assert verify_extension(P, f, m, seed=seed) < 1e-12
        assert verify_extension(wrong, f, m, seed=seed) > 1e-8


def whole_block_solve(f, model, tol=1e-9):
    """The graded solve as one dense least-squares solve per degree, every column
    built as monomial(alpha) * Q**k.

    Returns (status, [(degree, basis, x, rank, residual, condition), ...]), the
    failing degree last; x of a passing degree is pruned of rounding noise as
    extend_general's dense route prunes it.
    """
    Q = q_polynomial(model)
    n = f.n
    real = not Q.coeffs.imag.any()
    threshold = tol * (1.0 + f.max_coeff())
    degrees = []
    for d in range(f.degree() + 1):
        fd = f.homogeneous_part(d)
        if fd.is_zero():
            continue
        basis = [(alpha, k) for k in range(d // 2, -1, -1) for alpha in monomials(n, d - 2 * k)]
        images = [mono(n, alpha) * Q**k for alpha, k in basis]
        row_index = {}
        for p in images + [fd]:
            for row in p.exps.tolist():
                row_index.setdefault(tuple(row), len(row_index))
        M = np.zeros((len(row_index), len(basis)), dtype=float if real else complex)
        for j, img in enumerate(images):
            M[[row_index[tuple(row)] for row in img.exps.tolist()], j] = img.coeffs.real if real else img.coeffs
        b = np.zeros(len(row_index), dtype=complex)
        b[[row_index[tuple(row)] for row in fd.exps.tolist()]] = fd.coeffs
        x, _, rank, sv = np.linalg.lstsq(M, np.column_stack((b.real, b.imag)) if real else b, rcond=None)
        if real:
            x = x[:, 0] + 1j * x[:, 1]
        residual = float(np.linalg.norm(M @ x - b))
        degrees.append((d, basis, x, int(rank), residual, float(sv[0] / sv[-1])))
        if residual >= threshold:
            return "NotExtendible", degrees
        x[np.abs(x) < NOISE_ULPS * np.finfo(float).eps * sv[0] / sv[rank - 1] * np.linalg.norm(x)] = 0
    return "Extended", degrees


def assert_matches_reference(f, model):
    """extend_general against whole_block_solve: the same status, degrees and
    failing degree, and P within 1e-10 of the reference's, relative to its
    largest coefficient.  Returns the status."""
    res = extend_general(f, model)
    status, whole = whole_block_solve(f, model)
    assert res.status == status
    assert [r.degree for r in res.degree_reports] == [w[0] for w in whole]
    if status == "NotExtendible":
        assert res.P is None and res.certificate.degree == whole[-1][0]
        return status
    n = f.n
    rows = [(*alpha, *(0,) * n, k) for _, basis, *_ in whole for alpha, k in basis]
    expected = Polynomial(n, np.array(rows, dtype=np.int64).reshape(-1, 2 * n + 1), np.concatenate([w[2] for w in whole]))
    assert (res.P - expected).max_coeff() <= 1e-10 * (1 + expected.max_coeff())
    return status


def test_extend_general_matches_column_reference():
    # normal forms and A = 2I, both divided exactly; the second half obstructed
    rng = np.random.default_rng(43)
    statuses = set()
    for n in (1, 2, 3):
        for i in range(4):
            lambdas = random_lambdas(rng, n)
            m = normal_form_model(lambdas) if i % 2 == 0 else QuadricModel(A=2 * np.eye(n), B=np.diag(lambdas))
            f = random_holomorphic(rng, n, 8 if n < 3 else 6).substitute_w(q_polynomial(m))
            if i >= 2:
                f = f + 1e-3 * random_polynomial(rng, n, 4)
            statuses.add(assert_matches_reference(f, m))
    assert statuses == {"Extended", "NotExtendible"}


def test_extend_general_complex_q_matches_column_reference():
    # B with complex entries makes Q complex, and mu = 2 conj(B_11) / A_11 complex
    rng = np.random.default_rng(47)
    statuses = set()
    for n in (1, 2, 3):
        B = np.diag(rng.uniform(0.05, 0.45, n)) * np.exp(0.7j)
        m = QuadricModel(A=np.eye(n), B=B)
        assert q_polynomial(m).coeffs.imag.any()
        f = random_holomorphic(rng, n, 8 if n < 3 else 6).substitute_w(q_polynomial(m))
        for data in (f, f + 1e-3 * random_polynomial(rng, n, 4)):
            statuses.add(assert_matches_reference(data, m))
    assert statuses == {"Extended", "NotExtendible"}


def record_lstsq(monkeypatch):
    """Record (shape, rank) of every np.linalg.lstsq call while monkeypatch holds."""
    calls = []
    lstsq = np.linalg.lstsq

    def recorded(M, b, rcond=None):
        out = lstsq(M, b, rcond=rcond)
        calls.append((M.shape, int(out[2])))
        return out

    monkeypatch.setattr(np.linalg, "lstsq", recorded)
    return calls


def test_division_matches_whole_block_solve(monkeypatch):
    # diagonal models (every n = 1 model among them) are divided, and only the
    # failing degree of obstructed data is solved again by least squares, one
    # solve per parity class at n >= 2, unless its certificate's lower bound
    # proves the failure, which takes no solve; a congruent model at n >= 2
    # keeps one solve of the whole block per degree; each solved degree has
    # the reference's columns, rank, residual and condition
    rng = np.random.default_rng(59)
    statuses, dense, proven = set(), 0, 0
    for n in (1, 2, 3):
        lambdas = random_lambdas(rng, n)
        models = {
            "normal form": normal_form_model(lambdas),
            "A = 2I": QuadricModel(A=2 * np.eye(n), B=np.diag(lambdas)),
            "complex B": QuadricModel(A=np.eye(n), B=np.diag(rng.uniform(0.05, 0.45, n)) * np.exp(0.7j)),
            "congruent": congruent_model(rng, random_lambdas(rng, n)),
        }
        for kind, m in models.items():
            f = random_holomorphic(rng, n, 8 if n < 3 else 6).substitute_w(q_polynomial(m))
            for data in (f, f + 1e-3 * random_polynomial(rng, n, 4)):  # the second one obstructed
                with monkeypatch.context() as patch:
                    calls = record_lstsq(patch)
                    res = extend_general(data, m)
                status, whole = whole_block_solve(data, m)
                statuses.add(assert_matches_reference(data, m))
                divided = kind != "congruent" or n == 1
                threshold = DEFAULT_EXTEND_TOL * (1 + data.max_coeff())
                bound = res.certificate.lower_bound if res.certificate else None
                if bound is not None and bound >= threshold:
                    proven += 1
                    assert not calls and status == "NotExtendible" and res.certificate.degree == whole[-1][0]
                    assert res.residual >= whole[-1][4] and threshold <= bound <= whole[-1][4]
                elif divided:
                    # the failing degree alone, one solve per parity class with rows
                    assert bool(calls) == (status == "NotExtendible") and len(calls) <= 2 ** (n - 1), (n, kind)
                    if calls:  # together the classes span the whole block
                        calls = [((None, sum(shape[1] for shape, _ in calls)), sum(rank for _, rank in calls))]
                else:
                    dense += 1
                    assert len(calls) == len(whole)
                coeffs = dict(zip(map(tuple, res.P.exps.tolist()), res.P.coeffs)) if res.P else {}
                solved = zip(res.degree_reports[-len(calls) :], calls, whole[-len(calls) :]) if calls else ()
                for report, call, (d, basis, x, rank, residual, condition) in solved:
                    assert report.degree == d
                    assert call[0][1] == len(basis) and call[1] == rank
                    assert report.condition == pytest.approx(condition, rel=1e-10, abs=0)
                    assert abs(report.residual - residual) <= 1e-13 + 1e-12 * residual
                    if res.P is not None:
                        got = np.array([coeffs.get((*a, *(0,) * n, k), 0) for a, k in basis])
                        assert np.max(np.abs(got - x)) <= 1e-13 * np.linalg.norm(x)
    assert statuses == {"Extended", "NotExtendible"} and dense == 4 and proven > 0


def random_part(rng, n, d, nterms, holomorphic=False):
    """nterms random terms of degree d (weighted, z^alpha w^k, when holomorphic)."""
    if holomorphic:
        rows = [(*a, *(0,) * n, k) for k in range(d // 2 + 1) for a in monomials(n, d - 2 * k)]
    else:
        rows = [(*a, *b, 0) for j in range(d + 1) for a in monomials(n, j) for b in monomials(n, d - j)]
    pick = rng.choice(len(rows), size=min(nterms, len(rows)), replace=False)
    coeffs = rng.standard_normal(len(pick)) + 1j * rng.standard_normal(len(pick))
    return Polynomial(n, np.array([rows[i] for i in pick], dtype=np.int64), coeffs)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_certificate_lower_bound_is_below_the_least_squares_residual(n):
    # f_d = P_d(z, Q) plus terms off the image (zbar_1^d among them), from
    # 1e-6 to 1 of P_d's size, at every degree up to 10 and some twice:
    # the certificate's lower_bound never exceeds the whole-block
    # least-squares residual (lambda = 0 at n = 1, where the bound is exact)
    rng = np.random.default_rng(101 + n)
    ratios = []
    for d in (*range(1, 11), *range(1, 11, 3)):
        m = normal_form_model([0.0] if n == 1 else rng.choice([0.0, 0.25, 0.49], n))
        f = random_part(rng, n, d, 6, holomorphic=True).substitute_w(q_polynomial(m))
        off = random_part(rng, n, d, 3) + mono(n, (0,) * n, (d, *(0,) * (n - 1)))  # zbar_1^d: obstructed
        f = f + 10.0 ** rng.uniform(-6, 0) * off
        _, whole = whole_block_solve(f, m)
        residual = whole[-1][4]
        bound = _structural_certificate(f, m, d, residual).lower_bound
        assert bound is not None and bound <= residual * (1 + 1e-12), (d, bound, residual)
        ratios.append(bound / residual)
    assert max(ratios) > 0.1  # the bound is not vacuous


def test_a_bound_below_the_threshold_leaves_the_verdict_to_least_squares(monkeypatch):
    # f_1 = c zbar_1 at n = 2, lambda = 0: the least-squares residual is c and
    # X f = -c z_2, over |y|_2 <= 1 * (1 + 1), gives lower_bound c / 2.  At
    # c = 1.5 threshold the bound does not decide and least squares fails the
    # degree as before; at 3 threshold the bound decides without a solve.
    m = normal_form_model([0.0, 0.0])
    base = cubic_P(2).substitute_w(q_polynomial(m))
    for size, solved in ((1.5, True), (3.0, False)):
        c = size * DEFAULT_EXTEND_TOL * (1 + base.max_coeff())
        f = base + c * Polynomial.zbar(2)
        with monkeypatch.context() as patch:
            calls = record_lstsq(patch)
            res = extend_general(f, m)
        status, whole = whole_block_solve(f, m)
        assert bool(calls) == solved
        assert res.status == status == "NotExtendible" and res.certificate.degree == whole[-1][0] == 1
        assert res.certificate.condition == "CR field X f != 0"
        assert res.certificate.lower_bound == pytest.approx(c / 2, rel=1e-12)
        assert res.residual == res.certificate.residual == pytest.approx(whole[-1][4], rel=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_diagonal_models_off_normal_form_prove_their_obstructions(monkeypatch, n):
    # X = rho_j d/dzbar_l - rho_l d/dzbar_j kills P(z, Q) for every Q, so on
    # A = 2I and on a complex diagonal B the CR field names the obstruction and
    # bounds the least-squares residual as on a normal form: a bound at the
    # threshold or above fails the degree with no least-squares solve
    rng = np.random.default_rng(67 + n)
    lambdas = np.diag(random_lambdas(rng, n))
    for m in (QuadricModel(A=2 * np.eye(n), B=lambdas), QuadricModel(A=np.eye(n), B=lambdas * np.exp(0.7j))):
        off = random_part(rng, n, 3, 3) + mono(n, (0,) * n, (3, *(0,) * (n - 1)))  # zbar_1^3: obstructed
        f = random_holomorphic(rng, n, 6).substitute_w(q_polynomial(m)) + 1e-3 * off
        with monkeypatch.context() as patch:
            calls = record_lstsq(patch)
            res = extend_general(f, m)
        status, whole = whole_block_solve(f, m)
        cert = res.certificate
        assert res.status == status == "NotExtendible" and cert.degree == whole[-1][0] == 3
        assert cert.condition == "CR field X f != 0" and not calls
        assert DEFAULT_EXTEND_TOL * (1 + f.max_coeff()) <= cert.lower_bound <= whole[-1][4] * (1 + 1e-12)


def test_dense_block_only_for_non_diagonal_models(monkeypatch):
    # n = 3, degree 16: every diagonal model divides without a least-squares solve
    calls = record_lstsq(monkeypatch)
    B = np.diag([0.1, 0.2, 0.3])
    for m in (normal_form_model([0.1, 0.2, 0.3]), QuadricModel(A=2 * np.eye(3), B=B * np.exp(0.3j))):
        res = extend_general(mono(3, (16, 0, 0)), m)
        assert res.extended and res.P == mono(3, (16, 0, 0))
        assert [r.condition for r in res.degree_reports] == [1.0]
    assert not calls
    # a congruent model's Q has odd terms: one solve of the whole block per degree
    m = congruent_model(np.random.default_rng(61), [0.1, 0.2, 0.3])
    res = extend_general(random_holomorphic(np.random.default_rng(61), 3, 6).substitute_w(q_polynomial(m)), m)
    assert res.extended and len(calls) == len(res.degree_reports) > 1
    for (shape, _), report in zip(calls, res.degree_reports):
        d = report.degree
        assert shape[0] <= comb(d + 5, 5) and shape[1] == sum(comb(d - 2 * k + 2, 2) for k in range(d // 2 + 1))


def test_graded_solve_memory_stays_below_the_whole_block():
    # n = 3, degree 14: the whole block would be 11628 x 372 float64, 34.6 MB
    m = normal_form_model([0.1, 0.2, 0.3])
    f = mono(3, (14, 0, 0))
    extend_general(mono(3, (2, 0, 0)), m)  # lazy imports and caches before measuring
    tracemalloc.start()
    try:
        res = extend_general(f, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.extended
    assert peak < 11628 * 372 * 8


def exact_graded_solve(sp, lambdas, f_terms, diag_a=None):
    """The graded solve over the rationals on Q = sum_j a_j z_j zbar_j + b_j z_j^2 + conj(b_j) zbar_j^2.

    lambdas are the b_j, Gaussian rationals; diag_a the a_j, 1 when not given.
    f_terms maps alpha + beta (one exponent tuple) to a Gaussian-rational
    coefficient.  Returns ("Extended", {(alpha, k): coeff}) or
    ("NotExtendible", first degree without a solution).
    """
    n = len(lambdas)
    diag_a = diag_a or [1] * n
    z, zb = sp.symbols(f"z1:{n + 1}"), sp.symbols(f"zb1:{n + 1}")
    Q = sum(
        diag_a[j] * z[j] * zb[j] + lambdas[j] * z[j] ** 2 + sp.conjugate(lambdas[j]) * zb[j] ** 2 for j in range(n)
    )
    P = {}
    for d in sorted({sum(e) for e in f_terms}):
        fd = {e: c for e, c in f_terms.items() if sum(e) == d}
        basis = [(alpha, k) for k in range(d // 2, -1, -1) for alpha in monomials(n, d - 2 * k)]
        images = [sp.Poly(sp.expand(sp.Mul(*(zj**a for zj, a in zip(z, alpha))) * Q**k), *z, *zb).as_dict() for alpha, k in basis]
        rows = sorted(set(fd).union(*images))
        M = sp.Matrix([[image.get(e, 0) for image in images] for e in rows])
        b = sp.Matrix([fd.get(e, 0) for e in rows])
        try:
            x, free = M.gauss_jordan_solve(b)
        except ValueError:  # no solution
            return "NotExtendible", d
        assert not free.free_symbols
        P.update({col: x[i, 0] for i, col in enumerate(basis)})
    return "Extended", P


def _exact_round_trip(sp, rng, n, lambdas, diag_a, model):
    """Statuses of extend_general against exact_graded_solve on a rational P(z, Q),
    and on the same f plus z1^a zbar1^b with a < b; an extended P is within
    1e-12 of the exact one in every coefficient."""
    z, zb, w = sp.symbols(f"z1:{n + 1}"), sp.symbols(f"zb1:{n + 1}"), sp.Symbol("w")
    Q = sum(diag_a[j] * z[j] * zb[j] + lambdas[j] * z[j] ** 2 + sp.conjugate(lambdas[j]) * zb[j] ** 2 for j in range(n))
    P = 0
    for _ in range(4):
        k = int(rng.integers(0, 4))
        alpha = list(monomials(n, int(rng.integers(0, 7 - 2 * k))))
        alpha = alpha[int(rng.integers(len(alpha)))]
        coeff = sp.Rational(int(rng.integers(-9, 10)), int(rng.integers(1, 9)))
        coeff += sp.I * sp.Rational(int(rng.integers(-9, 10)), int(rng.integers(1, 9)))
        P += coeff * sp.Mul(*(zj**a for zj, a in zip(z, alpha))) * w**k
    a = int(rng.integers(0, 3))
    bad = z[0] ** a * zb[0] ** int(rng.integers(a + 1, 7 - a))
    verdicts = set()
    for f in (sp.expand(P.subs(w, Q)), sp.expand(P.subs(w, Q)) + bad):
        f_terms = sp.Poly(f, *z, *zb).as_dict()
        status, exact = exact_graded_solve(sp, lambdas, f_terms, diag_a)
        rows = [(*e, 0) for e in f_terms]
        data = Polynomial(n, np.array(rows).reshape(-1, 2 * n + 1), [complex(c) for c in f_terms.values()])
        res = extend_general(data, model)
        assert res.status == status
        verdicts.add(status)
        if status == "NotExtendible":
            assert res.certificate.degree == exact
            continue
        rows = [(*alpha, *(0,) * n, k) for alpha, k in exact]
        expected = Polynomial(n, np.array(rows).reshape(-1, 2 * n + 1), [complex(c) for c in exact.values()])
        assert (res.P - expected).max_coeff() <= 1e-12
    return verdicts


def test_extend_general_matches_exact_rational_solve():
    # rational lambda and P(z, Q), and the same f plus z1^a zbar1^b (a < b), for n <= 2 and degree <= 6
    sp = pytest.importorskip("sympy")
    rng = np.random.default_rng(67)
    verdicts = set()
    for n in (1, 2):
        for _ in range(4):
            lambdas = [sp.Rational(int(rng.choice([0, 2, 6, 9])), 20) for _ in range(n)]
            model = normal_form_model([float(lam) for lam in lambdas])
            verdicts |= _exact_round_trip(sp, rng, n, lambdas, [1] * n, model)
    assert verdicts == {"Extended", "NotExtendible"}


def test_extend_general_matches_exact_solve_on_diagonal_models():
    # A = diag(a) with a_j in {1/2, 2, 3} and complex b_j = B_jj, |b_j| < a_j / 2
    sp = pytest.importorskip("sympy")
    rng = np.random.default_rng(71)
    verdicts = set()
    for n in (1, 2):
        for _ in range(3):
            diag_a = [sp.Rational(int(rng.choice([1, 4, 6])), 2) for _ in range(n)]
            lambdas = [a * sp.Rational(int(rng.integers(0, 5)), 12) * (sp.Rational(3, 5) + sp.I * sp.Rational(4, 5)) for a in diag_a]
            model = QuadricModel(A=np.diag([float(a) for a in diag_a]), B=np.diag([complex(b) for b in lambdas]))
            verdicts |= _exact_round_trip(sp, rng, n, lambdas, diag_a, model)
    assert verdicts == {"Extended", "NotExtendible"}


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


def test_extend_general_diagonal_models_round_trip():
    # A = 2I, and A = diag(1/2, 2, 3) with complex B, at n = 1..3: P is recovered, an obstruction is caught
    rng = np.random.default_rng(73)
    for n in (1, 2, 3):
        B = np.diag(rng.uniform(0.05, 0.2, n)) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        for m in (QuadricModel(A=2 * np.eye(n), B=2 * B), QuadricModel(A=np.diag([0.5, 2.0, 3.0][:n]), B=B)):
            Q = q_polynomial(m)
            P = random_holomorphic(rng, n, 10 if n < 3 else 8, nterms=10)
            res = extend_general(P.substitute_w(Q), m)
            assert res.extended
            assert (res.P - P).max_coeff() <= 1e-10 * (1 + P.max_coeff())
            assert all(1 <= r.condition < np.inf and r.residual < 1e-10 for r in res.degree_reports)
            bad = extend_general(P.substitute_w(Q) + mono(n, (1,) + (0,) * (n - 1), (3,) + (0,) * (n - 1)), m)
            assert bad.status == "NotExtendible" and bad.certificate.degree == 4
            assert bad.degree_reports[-1].residual > 0.1


def test_extend_general_near_parabolic_degree_20():
    # lambda = 0.49: mu = 0.98, the hardest elliptic division; the column reference agrees at n = 1
    rng = np.random.default_rng(79)
    for n in (1, 2):
        m = normal_form_model([0.49] * n)
        P = random_holomorphic(rng, n, 20, nterms=12)
        f = P.substitute_w(q_polynomial(m))
        res = extend_general(f, m)
        assert res.extended
        assert (res.P - P).max_coeff() <= 1e-9 * (1 + P.max_coeff())
        assert all(1 <= r.condition < np.inf for r in res.degree_reports)
        if n == 1:
            for data in (f, f + 1e-3 * random_polynomial(rng, 1, 20)):
                assert_matches_reference(data, m)


def division_residual_map(m, d):
    """The matrix of f_d -> P_d(z, Q) - f_d for the division alone, without its
    least-squares recheck, over the degree-d monomials of m.n variables, and
    their rows."""
    n, Q = m.n, q_polynomial(m)
    rows = [(*alpha, *beta, 0) for j in range(d + 1) for alpha in monomials(n, j) for beta in monomials(n, d - j)]
    index = {row: i for i, row in enumerate(rows)}
    R = np.zeros((len(rows), len(rows)), dtype=complex)
    for j, row in enumerate(rows):
        f = Polynomial(n, np.array([row]), [1.0])
        bounds = np.searchsorted(f.exps.sum(axis=1), np.arange(d + 2))
        (P_rows, P_x, _), = _division_degrees(f, polyalg.QPowers(Q), bounds)
        for e, c in term_dict(Polynomial(n, P_rows, P_x).substitute_w(Q) - f).items():
            R[index[(*e.alpha, *e.beta, 0)], j] += c
    return R, np.array(rows)


def test_near_threshold_verdicts_follow_least_squares():
    # The division's residual exceeds the least-squares minimum by up to the
    # norm of its residual map: about 1000 at n = 1, lambda = 0.49, degree 20
    # and 25 at n = 2, lambda = 0, degree 10.  Data off the image by 0.1 tol
    # along the worst direction passes, with a warning, as in the whole-block
    # reference; 3 tol fails there at the same degree.
    rng = np.random.default_rng(89)
    for lambdas, d, amplification in (([0.49], 20, 500), ([0.0, 0.0], 10, 10)):
        m = normal_form_model(lambdas)
        R, rows = division_residual_map(m, d)
        _, sv, vh = np.linalg.svd(R)
        assert sv[0] > amplification
        g = Polynomial(m.n, rows, vh[0].conj())  # unit 2-norm, orthogonal to the image
        base = random_holomorphic(rng, m.n, d, nterms=10).substitute_w(q_polynomial(m))
        scale = 1 + base.max_coeff()
        for size, status in ((0.1, "Extended"), (3.0, "NotExtendible")):
            f = base + size * DEFAULT_EXTEND_TOL * scale * g
            res = extend_general(f, m)
            assert assert_matches_reference(f, m) == status
            _, whole = whole_block_solve(f, m)
            report = res.degree_reports[-1]
            assert report.degree == d and whole[-1][0] == d
            assert report.residual == pytest.approx(size * DEFAULT_EXTEND_TOL * scale, rel=1e-3)
            assert report.residual == pytest.approx(whole[-1][4], rel=1e-9)
            assert (report.warning is not None) == (status == "Extended")
            for r in res.degree_reports[:-1]:
                assert r.warning is None and r.residual < CONDITIONING_WARN_FLOOR * scale



@pytest.mark.parametrize(
    "kind, n",
    [(kind, n) for n in (1, 2, 3) for kind in ("normal", "diagonal", "congruent") if kind != "congruent" or n > 1],
)
def test_residual_is_the_largest_gated_residual(kind, n):
    # The report's residual is the largest of the degree residuals, each the
    # 2-norm that its degree's gate compared with tol * (1 + max |f|): on
    # extendible data, on data 0.1 tol off the image at degree d (along the
    # division's worst direction on a diagonal model, along the least-squares
    # residual on a congruent one, which takes the dense route) and on data
    # obstructed at degree d.  Degrees above d pass with smaller residuals.
    rng = np.random.default_rng(229 + n)
    lambdas = random_lambdas(rng, n)
    m = {
        "normal": normal_form_model(lambdas),
        "diagonal": QuadricModel(A=2 * np.eye(n), B=np.diag(lambdas) * np.exp(0.7j)),
        "congruent": congruent_model(rng, lambdas),
    }[kind]
    Q = q_polynomial(m)
    d = (10, 6, 4)[n - 1]
    base = random_holomorphic(rng, n, d + 2, nterms=12).substitute_w(Q)
    if kind == "congruent":
        g = random_part(rng, n, d, 6)
        g = g - extend_general(g, m, tol=np.inf).P.substitute_w(Q)
    else:
        R, rows = division_residual_map(m, d)
        g = Polynomial(n, rows, np.linalg.svd(R)[2][0].conj())
    size = 0.1 * DEFAULT_EXTEND_TOL * (1 + base.max_coeff())
    near = base + float(size / np.linalg.norm(g.coeffs)) * g
    obstructed = base + random_part(rng, n, d, 3)
    for f, status in ((base, "Extended"), (near, "Extended"), (obstructed, "NotExtendible")):
        res = extend_general(f, m)
        threshold = DEFAULT_EXTEND_TOL * (1 + f.max_coeff())
        assert res.status == status
        assert res.residual == max(r.residual for r in res.degree_reports)
        if res.extended:
            assert res.residual < threshold
        else:
            assert res.residual == res.certificate.residual == res.degree_reports[-1].residual >= threshold
            assert res.certificate.degree == d
    assert extend_general(near, m).residual == pytest.approx(size, rel=1e-3)
    empty = extend_general(Polynomial.zero(n), m)
    assert empty.extended and empty.degree_reports == () and empty.residual == 0.0

def test_extend_general_n3_degree_17():
    rng = np.random.default_rng(83)
    m = normal_form_model([0.1, 0.3, 0.45])
    P = random_holomorphic(rng, 3, 17, nterms=12) + mono(3, (3, 2, 2), k=5)
    f = P.substitute_w(q_polynomial(m))
    res = extend_general(f, m)
    assert res.extended and res.degree_reports[-1].degree == 17
    assert (res.P - P).max_coeff() <= 1e-10 * (1 + P.max_coeff())
    res = extend_general(f + mono(3, (8, 0, 0), (9, 0, 0)), m)
    assert res.status == "NotExtendible" and res.certificate.degree == 17
    assert res.certificate.condition == "CR field X f != 0"


def test_division_refuses_products_beyond_max_term_pairs(monkeypatch):
    # lambda = 0 at n = 2: z1 w needs 1 pair in Horner (w - q0 = w) and Q's 2 rows
    # in the gate; at n = 3 a Horner step multiplies by the 4 terms of w - q0
    m2, m3 = normal_form_model([0.0, 0.0]), normal_form_model([0.1, 0.2, 0.3])
    f2 = mono(2, (1, 0), k=1).substitute_w(q_polynomial(m2))
    f3 = mono(3, (2, 0, 0), k=1).substitute_w(q_polynomial(m3))
    monkeypatch.setattr(polyalg, "MAX_TERM_PAIRS", 1)
    with pytest.raises(InputError, match=r"P_d\(z, Q\) has 2 pairs of terms, more than 1"):
        extend_general(f2, m2)
    monkeypatch.setattr(polyalg, "MAX_TERM_PAIRS", 2)
    assert extend_general(f2, m2).P == mono(2, (1, 0), k=1)
    with pytest.raises(InputError, match="Horner step has 4 pairs of terms, more than 2"):
        extend_general(f3, m3)


def test_certificate_comes_from_the_failing_degree():
    # a second obstruction above the failing degree no longer shows in the certificate
    f = Polynomial.z(2, 0) * Polynomial.zbar(2, 1)
    res = extend_general(f + 5 * mono(2, (3, 0), (0, 2)), normal_form_model([0.0, 0.0]))
    assert res.certificate.degree == 2
    assert Polynomial.from_json_dict(res.certificate.detail["field_applied"]) == Polynomial.z(2, 0) ** 2
    z, zb = Polynomial.z(1), Polynomial.zbar(1)
    res = extend_general(z * z + zb * zb + 10 * mono(1, (0,), (5,)), normal_form_model([0.25]))
    assert res.certificate.degree == 2
    assert res.certificate.detail["deviation"] == pytest.approx(16.0)  # zbar^5 alone would give 10 * 4^5
    res = extend_general(zb + mono(1, (1,), (3,)), normal_form_model([0.0]))
    assert res.certificate.detail["offending"] == (0, 1)


def test_extend_general_early_exit_builds_only_needed_q_powers(monkeypatch):
    # n = 3, degree 14 would need Q^2 .. Q^7 (six products by Q); an obstruction
    # at degree d0 stops the run with at most Q^(d0 // 2), and Q^1 is Q itself
    m = QuadricModel(A=2 * np.eye(3), B=np.diag([0.1, 0.2, 0.3]))
    Q = q_polynomial(m)
    mul = Polynomial.__mul__
    for bad, d0 in ((mono(3, (0, 0, 0), (2, 0, 0)), 2), (mono(3, (1, 0, 0), (5, 0, 0)), 6)):
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(Polynomial, "__mul__", lambda self, other: calls.append(other) or mul(self, other))
            res = extend_general(mono(3, (14, 0, 0)) + bad, m)
        assert res.status == "NotExtendible" and res.certificate.degree == d0
        assert sum(other == Q for other in calls) <= d0 // 2 - 1


@pytest.mark.parametrize("n", [2, 3])
def test_divided_p_ignores_terms_with_zbar_beyond_the_first(n):
    # such a term keeps its zbar_j through every division step, so it never reaches P
    rng = np.random.default_rng(401 + n)
    models = (normal_form_model(random_lambdas(rng, n)), QuadricModel(A=2 * np.eye(n), B=np.diag([0.1j] * n)))
    for m in models:
        Q = q_polynomial(m)
        f = random_holomorphic(rng, n, 8).substitute_w(Q) + random_polynomial(rng, n, 5)
        zbar_n = mono(n, (0,) * n, (0,) * (n - 1) + (1,))
        g = random_polynomial(rng, n, 6, nterms=20) * zbar_n + mono(n, (0,) * n, (0, 3) + (0,) * (n - 2), c=2.5)
        assert g.exps[:, n + 1 : 2 * n].any(axis=1).all()
        ref = extend_module._divided_P(f, Q)
        assert len(ref[1])
        for got, want in zip(extend_module._divided_P(f + g, Q), ref):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "f, degree, lower_bound",
    [
        (mono(2, (0, 0), (0, 1)), 1, 0.3571428571428003),
        (mono(2, (0, 3), (0, 2)), 5, 0.142857142857086),
    ],
    ids=["zbar2", "z2^3 zbar2^2"],
)
def test_data_that_never_reaches_the_division_is_still_obstructed(monkeypatch, f, degree, lower_bound):
    # every term of f carries zbar_2, so the division is left no term and P_d is empty
    m = normal_form_model([0.1, 0.3])
    with monkeypatch.context() as patch:
        calls = record_lstsq(patch)
        res = extend_general(f, m)
    assert res.status == "NotExtendible" and not calls
    assert res.certificate.condition == "CR field X f != 0" and res.certificate.degree == degree
    assert res.residual == res.certificate.residual == 1.0 and res.certificate.lower_bound == lower_bound
    assert res.degree_reports == (extend_module.DegreeReport(degree=degree, residual=1.0, condition=1.0),)


def per_degree_gate(f, powers, bounds):
    """Reference for _division_degrees: the gate one degree at a time, each
    degree's P_d(z, Q) - f_d expanded and summed on its own."""
    n = f.n
    rows, x, bound = extend_module._divided_P(f, powers.q)
    x[np.abs(x) < NOISE_ULPS * np.finfo(float).eps * bound] = 0
    wdeg = np.searchsorted(rows[:, :n].sum(axis=1) + 2 * rows[:, -1], np.arange(len(bounds)))
    for d in range(len(bounds) - 1):
        lo, hi = bounds[d], bounds[d + 1]
        if lo == hi:
            continue
        p0, p1 = wdeg[d], wdeg[d + 1]
        keep = np.flatnonzero(x[p0:p1]) + p0
        P_rows, P_x = rows[keep], x[keep]
        condition = max(1.0, bound[p0:p1].max() / np.abs(P_x).max()) if len(keep) else 1.0
        entries, src, count = powers.images(P_rows, "extend_general: P_d(z, Q)")
        entries = np.concatenate((entries, f.exps[lo:hi]))
        vals = np.concatenate((powers.vals[src] * P_x.repeat(count), -f.coeffs[lo:hi]))
        order, starts = polyalg.sorted_runs(entries)
        R = np.add.reduceat(vals[order], starts)
        report = extend_module.DegreeReport(degree=d, residual=extend_module._norm(R), condition=condition)
        yield P_rows, P_x, report


def assert_same_bits(res, ref):
    """Two ExtensionResults with the same status, P arrays, reports and certificate, bit for bit."""
    assert (res.status, repr(res.residual)) == (ref.status, repr(ref.residual))
    assert (res.P is None) == (ref.P is None)
    if res.P is not None:
        assert res.P.exps.tobytes() == ref.P.exps.tobytes() and res.P.coeffs.tobytes() == ref.P.coeffs.tobytes()
    assert repr(res.degree_reports) == repr(ref.degree_reports)
    assert repr(res.certificate) == repr(ref.certificate)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_batched_gate_matches_the_per_degree_gate_bit_for_bit(monkeypatch, n):
    # extendible, obstructed (at a random degree) and near-threshold data on the
    # diagonal models that take the division route; small and large batches
    rng = np.random.default_rng(211 + n)
    seen, warned = set(), False
    for trial in range(12):
        lambdas = random_lambdas(rng, n)
        m = [
            normal_form_model(lambdas),
            QuadricModel(A=2 * np.eye(n), B=np.diag(lambdas)),
            QuadricModel(A=np.eye(n), B=np.diag(rng.uniform(0.05, 0.45, n)) * np.exp(0.7j)),
        ][trial % 3]
        top = (14, 12, 10)[n - 1]
        f = random_holomorphic(rng, n, top, nterms=30).substitute_w(q_polynomial(m))
        d0 = int(rng.integers(1, top + 1))
        off = random_part(rng, n, d0, 2)
        scale = DEFAULT_EXTEND_TOL * (1 + f.max_coeff()) / off.max_coeff()
        for data in (f, f + 1e-3 * off, f + rng.uniform(0.05, 5) * scale * off):
            for gate in (extend_module.GATE_ENTRIES, 2**16):
                monkeypatch.setattr(extend_module, "GATE_ENTRIES", gate)
                res = extend_general(data, m)
                with monkeypatch.context() as patch:
                    patch.setattr(extend_module, "_division_degrees", per_degree_gate)
                    ref = extend_general(data, m)
                assert_same_bits(res, ref)
            seen.add(res.status)
            warned = warned or any(r.warning for r in res.degree_reports)
    assert seen == {"Extended", "NotExtendible"} and warned


def dense_P(rng, n, d):
    """Every z^alpha w^k with |alpha| + 2k <= d, with random coefficients."""
    rows = [(*a, *(0,) * n, k) for e in range(d + 1) for k in range(e // 2 + 1) for a in monomials(n, e - 2 * k)]
    return Polynomial(n, np.array(rows, dtype=np.int64), rng.standard_normal(len(rows)) + 0.5)


def test_gate_forms_at_most_one_batch_past_an_early_obstruction(monkeypatch):
    # a dense n = 3, degree-16 P(z, Q) with an obstruction at degree 2: the gate
    # expands degrees above 2 only within the batch that holds degree 2
    rng = np.random.default_rng(223)
    m = normal_form_model([0.1, 0.2, 0.3])
    P = dense_P(rng, 3, 16)
    f = P.substitute_w(q_polynomial(m))
    assert len(f.coeffs) > 10000
    images = polyalg.QPowers.images
    past = []

    def counted(self, rows, what=None):
        entries, src, count = images(self, rows, what)
        past.append(int((entries.sum(axis=1) > 2).sum()))
        return entries, src, count

    monkeypatch.setattr(polyalg.QPowers, "images", counted)
    res = extend_general(f + mono(3, (0, 0, 0), (2, 0, 0)), m)
    assert res.status == "NotExtendible" and res.certificate.degree == 2
    assert 0 < sum(past) <= extend_module.GATE_ENTRIES
    past.clear()
    res = extend_general(f, m)  # without the obstruction every degree is expanded
    assert res.extended and (res.P - P).max_coeff() <= 1e-9 * P.max_coeff()
    assert sum(past) > 100 * extend_module.GATE_ENTRIES


def test_failing_degree_wins_over_a_later_overflowing_q_power():
    # at A = 1e200 the gate's degree-4 P_4 = c w^2 needs Q^2, whose coefficients
    # overflow; a failing degree 1 in the same batch still ends the run NotExtendible
    m = QuadricModel(A=[[1e200]], B=[[2e199]])
    f = Polynomial(1, np.array([[2, 2, 0]]), [1e100])  # P_4 = 1e-300 w^2 + ...
    assert extend_module.GATE_ENTRIES >= 1 + comb(5, 1)  # Q^2 has at most 5 terms: one batch
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalFailure, match=r"^q\^2, substituted for w\^2, has a non-finite coefficient$"):
            extend_general(f, m)
        res = extend_general(f + 1e100 * Polynomial.zbar(1), m)
    assert res.status == "NotExtendible" and res.certificate.degree == 1
    assert [r.degree for r in res.degree_reports] == [1]


# A congruent n = 2 model: complex off-diagonal A, so Q is not even in each
# coordinate and every degree is one dense least-squares solve.
CONGRUENT_N2 = QuadricModel(A=np.array([[1, 0.3j], [-0.3j, 1]]), B=np.array([[0.1, 0.05], [0.05, 0.2]]))
SCALE_MODELS = pytest.mark.parametrize(
    "model",
    [CONGRUENT_N2, normal_form_model([0.2]), normal_form_model([0.1, 0.3])],
    ids=["congruent-n2", "nf-0.2", "nf-0.1-0.3"],
)


def cubic_P(n):
    """P = z1^3 + w z1 + w^2."""
    z1, w = Polynomial.z(n, 0), Polynomial.w(n)
    return z1 * z1 * z1 + w * z1 + w * w


@SCALE_MODELS
@pytest.mark.parametrize("scale", [1e150, 1e155, 1e160, 1e200, 1e250])
def test_extend_general_at_scales_whose_squares_overflow(model, scale):
    # the residual and the noise rule square coefficients: at 1e155 a plain
    # norm overflows, which pruned all of P, and at 1e200 it gave residual inf
    P = cubic_P(model.n)
    f = scale * P.substitute_w(q_polynomial(model))
    res = extend_general(f, model)
    assert res.extended and (res.P - scale * P).max_coeff() < 1e-9 * scale
    assert np.isfinite(res.residual)
    obstructed = extend_general(f + scale * Polynomial.zbar(model.n), model)
    assert obstructed.status == "NotExtendible" and obstructed.certificate.degree == 1
    assert np.isfinite(obstructed.residual) and obstructed.residual > 0.1 * scale


@pytest.mark.parametrize(
    "model, c, tol",
    [
        # no normal form, so no named condition
        (CONGRUENT_N2, 1.0, DEFAULT_EXTEND_TOL),
        # X f's largest coefficient is 2e-13, below CR_ZERO_TOL = 1e-12
        (normal_form_model([0.1, 0.3]), 1e-13, 1e-15),
        # the involution deviation is 1.1e-11, below INVOLUTION_TOL = 1e-10
        (normal_form_model([0.3]), 1e-12, 1e-15),
    ],
    ids=["congruent-n2", "nf-0.1-0.3", "nf-0.3"],
)
def test_unnamed_obstruction_gives_a_bare_certificate(model, c, tol):
    zb = Polynomial.zbar(model.n)
    f = cubic_P(model.n).substitute_w(q_polynomial(model)) + c * zb * zb
    res = extend_general(f, model, tol=tol)
    assert res.status == "NotExtendible" and res.P is None
    cert = res.certificate
    assert (cert.degree, cert.condition, cert.detail) == (2, None, {})
    assert cert.residual == res.residual > 0
