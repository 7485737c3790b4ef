"""Polynomial extension: monomial route, involution, graded solves, slicing."""

import math
import tracemalloc

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
from crextend.extend import NOISE_ULPS
from crextend.polyalg import monomials
from dictref import Exponent, extend_lambda0, from_terms, term_dict, term_sort_key
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

    Each degree is split as extend_general splits it: when every term of Q
    has alpha_j + beta_j even (n >= 2), column z^alpha w^k is in parity class
    alpha mod 2 and row z^alpha' zbar^beta' in class (alpha' + beta') mod 2,
    else everything is in one class.  Classes are solved in the order of
    sum_j parity_j 2^j, each with its rows in graded order and its columns in
    basis order.  Returns (P or None, [(degree, residual, condition), ...]).
    """
    Q = q_polynomial(model)
    n = f.n
    even = n > 1 and all((a + b) % 2 == 0 for e in term_dict(Q) for a, b in zip(e.alpha, e.beta))

    def parity_class(alpha, beta):
        return sum(((a + b) % 2) << j for j, (a, b) in enumerate(zip(alpha, beta))) if even else 0

    real = not Q.coeffs.imag.any()
    threshold = tol * (1.0 + f.max_coeff())
    P, reports = Polynomial.zero(n), []
    for d in range(f.degree() + 1):
        fd = term_dict(f.homogeneous_part(d))
        if not fd:
            continue
        basis = [(alpha, k) for k in range(d // 2, -1, -1) for alpha in monomials(n, d - 2 * k)]
        basis.sort(key=lambda col: parity_class(col[0], (0,) * n))
        images = [term_dict(mono(n, alpha) * Q**k) for alpha, k in basis]
        rows = sorted({e for img in images for e in img} | set(fd), key=term_sort_key)
        classes = sorted({parity_class(e.alpha, e.beta) for e in rows})
        x, norms, svs, kept = [], [], [], []
        for c in classes:
            cols = [j for j, (alpha, _) in enumerate(basis) if parity_class(alpha, (0,) * n) == c]
            row_index = {e: i for i, e in enumerate(e for e in rows if parity_class(e.alpha, e.beta) == c)}
            M = np.zeros((len(row_index), len(cols)), dtype=complex)
            for j, col in enumerate(cols):
                for e, coeff in images[col].items():
                    M[row_index[e], j] = coeff
            b = np.zeros(len(row_index), dtype=complex)
            for e, coeff in fd.items():
                if e in row_index:
                    b[row_index[e]] = coeff
            if real:
                # a real block is solved in real arithmetic, Re b and Im b as two right-hand sides
                M, b = M.real.copy(), np.column_stack((b.real, b.imag))
            xc, _, rank, sv = np.linalg.lstsq(M, b, rcond=None)
            norms.append(np.linalg.norm(M @ xc - b))
            x.extend(xc[:, 0] + 1j * xc[:, 1] if real else xc)
            svs.extend(sv)
            kept.extend(sv[:rank])
        x = np.array(x, dtype=complex)
        residual = math.hypot(*norms)
        reports.append((d, residual, float(max(svs) / min(svs))))
        if residual >= threshold:
            return None, reports
        noise = NOISE_ULPS * np.finfo(float).eps * max(svs) / min(kept) * np.linalg.norm(x)
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


def whole_block_solve(f, model, tol=1e-9):
    """The graded solve without the parity split: one dense least-squares solve per degree.

    Returns (status, [(degree, basis, x, rank, residual, condition), ...]);
    x of a passing degree is pruned of rounding noise as extend_general does.
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


def test_parity_split_matches_whole_block_solve(monkeypatch):
    rng = np.random.default_rng(59)
    statuses, split = set(), 0
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
                status, whole = whole_block_solve(data, m)
                with monkeypatch.context() as patch:
                    calls = record_lstsq(patch)
                    res = extend_general(data, m)
                assert res.status == status, (n, kind)
                statuses.add(status)
                assert [r.degree for r in res.degree_reports] == [w[0] for w in whole]
                coeffs = dict(zip(map(tuple, res.P.exps.tolist()), res.P.coeffs)) if res.P else {}
                for report, (d, basis, x, rank, residual, condition) in zip(res.degree_reports, whole):
                    # this degree's solves are the next calls whose columns add up to the basis
                    cols = ranks = solves = 0
                    while cols < len(basis):
                        (_, c), r = calls.pop(0)
                        cols, ranks, solves = cols + c, ranks + r, solves + 1
                    assert cols == len(basis) and ranks == rank
                    assert solves == 1 or (n > 1 and kind != "congruent")
                    split += solves > 1
                    assert report.condition == pytest.approx(condition, rel=1e-12, abs=0)
                    assert abs(report.residual - residual) <= 1e-13 + 1e-12 * residual
                    if res.P is not None:
                        got = np.array([coeffs.get((*a, *(0,) * n, k), 0) for a, k in basis])
                        assert np.max(np.abs(got - x)) <= 1e-13 * np.linalg.norm(x)
                assert not calls
    assert statuses == {"Extended", "NotExtendible"} and split


def test_parity_classes_set_the_solve_shapes(monkeypatch):
    # n = 3, degree 16 on a normal form: the even class and the three with two odd coordinates
    calls = record_lstsq(monkeypatch)
    res = extend_general(mono(3, (16, 0, 0)), normal_form_model([0.1, 0.2, 0.3]))
    assert res.extended
    assert [shape for shape, _ in calls] == [(5301, 165)] + [(3060, 120)] * 3
    # a congruent model's Q has odd terms: one class, one solve per degree
    calls.clear()
    m = congruent_model(np.random.default_rng(61), [0.1, 0.2, 0.3])
    res = extend_general(random_holomorphic(np.random.default_rng(61), 3, 6).substitute_w(q_polynomial(m)), m)
    assert res.extended and len(calls) == len(res.degree_reports) > 1


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


def exact_graded_solve(sp, lambdas, f_terms):
    """The graded solve over the rationals on the normal form with rational lambdas.

    f_terms maps alpha + beta (one exponent tuple) to a Gaussian-rational
    coefficient.  Returns ("Extended", {(alpha, k): coeff}) or
    ("NotExtendible", first degree without a solution).
    """
    n = len(lambdas)
    z, zb = sp.symbols(f"z1:{n + 1}"), sp.symbols(f"zb1:{n + 1}")
    Q = sum(z[j] * zb[j] + lambdas[j] * (z[j] ** 2 + zb[j] ** 2) for j in range(n))
    P = {}
    for d in sorted({sum(e) for e in f_terms}):
        fd = {e: c for e, c in f_terms.items() if sum(e) == d}
        basis = [(alpha, k) for k in range(d // 2, -1, -1) for alpha in monomials(n, d - 2 * k)]
        images = [sp.Poly(sp.Mul(*(zj**a for zj, a in zip(z, alpha))) * Q**k, *z, *zb).as_dict() for alpha, k in basis]
        rows = sorted(set(fd).union(*images))
        M = sp.Matrix([[image.get(e, 0) for image in images] for e in rows])
        b = sp.Matrix([[sp.re(fd.get(e, 0)), sp.im(fd.get(e, 0))] for e in rows])
        try:
            x, free = M.gauss_jordan_solve(b)
        except ValueError:  # no solution
            return "NotExtendible", d
        assert not free.free_symbols
        P.update({col: x[i, 0] + sp.I * x[i, 1] for i, col in enumerate(basis)})
    return "Extended", P


def test_extend_general_matches_exact_rational_solve():
    # rational lambda and P(z, Q), and the same f plus z1^a zbar1^b (a < b), for n <= 2 and degree <= 6
    sp = pytest.importorskip("sympy")
    rng = np.random.default_rng(67)
    verdicts = set()
    for n in (1, 2):
        z, zb, w = sp.symbols(f"z1:{n + 1}"), sp.symbols(f"zb1:{n + 1}"), sp.Symbol("w")
        for _ in range(4):
            lambdas = [sp.Rational(int(rng.choice([0, 2, 6, 9])), 20) for _ in range(n)]
            Q = sum(z[j] * zb[j] + lambdas[j] * (z[j] ** 2 + zb[j] ** 2) for j in range(n))
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
            for f in (sp.expand(P.subs(w, Q)), sp.expand(P.subs(w, Q)) + bad):
                f_terms = sp.Poly(f, *z, *zb).as_dict()
                status, exact = exact_graded_solve(sp, lambdas, f_terms)
                rows = [(*e, 0) for e in f_terms]
                data = Polynomial(n, np.array(rows).reshape(-1, 2 * n + 1), [complex(c) for c in f_terms.values()])
                res = extend_general(data, normal_form_model([float(lam) for lam in lambdas]))
                assert res.status == status
                verdicts.add(status)
                if status == "NotExtendible":
                    assert res.certificate.degree == exact
                    continue
                rows = [(*alpha, *(0,) * n, k) for alpha, k in exact]
                expected = Polynomial(n, np.array(rows).reshape(-1, 2 * n + 1), [complex(c) for c in exact.values()])
                assert (res.P - expected).max_coeff() <= 1e-12
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
