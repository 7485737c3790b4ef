"""Acceptance gate.

Eight end-to-end criteria, one verdict line each.  Run with

    pytest tests/test_acceptance.py -v -s

to see the PASS/FAIL lines as they are produced.
"""

import numpy as np

from conftest import (
    LAMBDA_CHOICES,
    random_coeff,
    random_holomorphic,
    random_lambdas,
    random_model,
    random_polynomial,
    random_unit_vector,
)
from crextend import (
    BoundaryData,
    Polynomial,
    cauchy_extend,
    check_moments,
    classify,
    ellipticity_oracle,
    extend_general,
    moment_integral,
    normal_derivative_probe,
    normal_form_model,
    normalize,
    q_polynomial,
    quadric_leaf_family,
    radial_leaf_family,
    slice_oracle,
    solve_leaf,
    zderiv_bound_check,
)
from dictref import term_dict

MOMENT_LEAVES = [0.1, 0.2, 0.3, 0.4]  # large enough for moments above 1e-8


def verdict(num, name, ok):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_criterion_1_normal_form_residuals():
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(200):
        n = int(rng.integers(1, 5))
        model = random_model(rng, n)
        nf = normalize(model)
        if nf.residual_a >= 1e-10 or nf.residual_b >= 1e-10:
            ok = False
        agrees = ellipticity_oracle(model) == (classify(model).classification == "elliptic")
        if not agrees:
            ok = False
    verdict(1, "normal form residuals + oracle agreement", ok)


def test_criterion_2_extension_round_trip():
    rng = np.random.default_rng(202)
    ok = True
    for i in range(100):
        n = (1, 2, 3)[i % 3]
        m = normal_form_model(random_lambdas(rng, n))
        P = random_holomorphic(rng, n, 8)
        f = P.substitute_w(q_polynomial(m))
        res = extend_general(f, m)
        if not res.extended or (res.P - P).max_coeff() >= 1e-9:
            ok = False
    verdict(2, "extension round trip, coefficient error < 1e-9", ok)


def test_criterion_3_weighted_degree_law():
    rng = np.random.default_rng(303)
    violations = 0
    for d in range(1, 11):
        for n in (1, 2):
            m = normal_form_model(random_lambdas(rng, n))
            for _ in range(3):
                full = random_holomorphic(rng, n, d, nterms=10)
                P = full.homogeneous_part(d, weighted=True)
                if P.is_zero():
                    P = Polynomial.monomial(n, (d,) + (0,) * (n - 1), (0,) * n, 0, 1.0)
                f = P.substitute_w(q_polynomial(m))
                res = extend_general(f, m)
                if not res.extended:
                    violations += 1
                    continue
                for e in term_dict(res.P):
                    if e.weighted_degree() != d:
                        violations += 1
    verdict(3, "weighted degree law, zero violations", violations == 0)


def test_criterion_4_certificates():
    ok = True
    res = extend_general(Polynomial.zbar(1), normal_form_model([0.0]))
    if res.extended or res.certificate.residual <= 0.1:
        ok = False
    if res.certificate.detail.get("offending") != (0, 1):
        ok = False

    z, zb = Polynomial.z(1), Polynomial.zbar(1)
    res = extend_general(z * z + zb * zb, normal_form_model([0.25]))
    if res.extended or res.certificate.residual <= 0.1:
        ok = False
    if res.certificate.condition != "not involution-invariant":
        ok = False

    res = extend_general(
        Polynomial.z(2, 0) * Polynomial.zbar(2, 1), normal_form_model([0.0, 0.0])
    )
    if res.extended or res.certificate.residual <= 0.1:
        ok = False
    applied = Polynomial.from_json_dict(res.certificate.detail["field_applied"])
    if applied != Polynomial.z(2, 0) * Polynomial.z(2, 0):
        ok = False
    verdict(4, "non-extendibility certificates", ok)


def build_moment_corpus(rng):
    """100 n = 1 data sets, half extendible and half obstructed."""
    corpus = []
    for i in range(50):
        lam = LAMBDA_CHOICES[i % 4]
        m = normal_form_model([lam])
        f = random_holomorphic(rng, 1, 8).substitute_w(q_polynomial(m))
        corpus.append((f, m))
    for i in range(25):
        m = normal_form_model([0.0])
        f = random_holomorphic(rng, 1, 6).substitute_w(q_polynomial(m))
        k = int(rng.integers(1, 6))
        j = int(rng.integers(0, k))
        f = f + Polynomial.monomial(1, (j,), (k,), 0, random_coeff(rng))
        corpus.append((f, m))
    for i in range(25):
        lam = (0.1, 0.3, 0.45)[i % 3]
        m = normal_form_model([lam])
        f = random_holomorphic(rng, 1, 6).substitute_w(q_polynomial(m))
        anti = Polynomial.zero(1)
        while anti.is_zero():
            h = random_polynomial(rng, 1, 5)
            anti = 0.5 * (h - h.involution_pullback(lam))
        corpus.append((f + (0.5 / anti.max_coeff()) * anti, m))
    return corpus


def test_criterion_5_moment_extension_equivalence():
    rng = np.random.default_rng(505)
    ok = True
    for f, m in build_moment_corpus(rng):
        report = check_moments(f, m, leaves=MOMENT_LEAVES, tol=1e-8, N=512)
        extended = extend_general(f, m).extended
        if report.passed != extended:
            ok = False
    # known failure: moment of zbar at ell = 0 is 2 pi i r^2 on every leaf
    m0 = normal_form_model([0.0])
    for r in MOMENT_LEAVES:
        leaf = solve_leaf(m0, r, 512)
        v = moment_integral(Polynomial.zbar(1), leaf, 0)
        if abs(v - 2j * np.pi * r * r) >= 1e-8:
            ok = False
    verdict(5, "moment check matches extension verdict", ok)


def test_criterion_6_cauchy_symbolic_agreement():
    rng = np.random.default_rng(606)
    ok = True
    for i in range(20):
        lam = LAMBDA_CHOICES[i % 4]
        m = normal_form_model([lam])
        P = random_holomorphic(rng, 1, 6)
        f = P.substitute_w(q_polynomial(m))
        leaf = solve_leaf(m, 0.3, 512)
        inradius = float(np.min(np.abs(leaf.points())))
        radii = 0.8 * inradius * np.sqrt(rng.uniform(0, 1, 50))
        pts = radii * np.exp(1j * rng.uniform(0, 2 * np.pi, 50))
        ext = cauchy_extend(BoundaryData.from_polynomial(f), leaf, pts)
        for zpt in pts:
            expected = P.evaluate(complex(zpt), leaf.level)
            if abs(ext.interior_values[complex(zpt)] - expected) >= 1e-7:
                ok = False
    verdict(6, "Cauchy integral matches symbolic extension", ok)


def test_criterion_7_degeneracy_probe():
    ladder = [1e-4 * 2.0**k for k in range(8)]
    data = BoundaryData.builtin("sqrt-re-w")  # equals |z|^2 on both models below

    degenerate_family = radial_leaf_family(lambda s: s**0.25, N=256)
    rep_deg = normal_derivative_probe(data, degenerate_family, ladder)
    ok = rep_deg.label == "power-law" and abs(rep_deg.exponent - (-0.5)) <= 0.05

    m = normal_form_model([0.0])
    flat_data = BoundaryData.from_polynomial(Polynomial.z(1) * Polynomial.zbar(1))
    rep_flat = normal_derivative_probe(flat_data, quadric_leaf_family(m, N=256), ladder)
    if not (rep_flat.exponent is not None and abs(rep_flat.exponent) <= 0.05):
        ok = False

    zd1 = zderiv_bound_check(data, degenerate_family(1e-2), [0.0, 0.02 + 0.01j])
    zd2 = zderiv_bound_check(flat_data, solve_leaf(m, 0.2, 256), [0.0, 0.05])
    if not (zd1.ok and zd2.ok):
        ok = False
    verdict(7, "degeneracy probe exponents and z-derivative bound", ok)


def test_criterion_8_slicing_consistency():
    rng = np.random.default_rng(808)
    ok = True
    for i in range(50):
        n = (2, 3)[i % 2]
        m = normal_form_model(random_lambdas(rng, n))
        P = random_holomorphic(rng, n, 6)
        f = P.substitute_w(q_polynomial(m))
        directions = [random_unit_vector(rng, n) for _ in range(20)]
        if slice_oracle(f, m, P, directions) >= 1e-8:
            ok = False
    verdict(8, "slice restrictions agree with re-extension", ok)
