"""Holomorphic polynomial extension of boundary data on elliptic quadrics.

Given a polynomial f(z, zbar) on the quadric w = Q(z, zbar), extendibility
means there is a holomorphic polynomial P(z, w) with P(z, Q(z, zbar)) = f.
Because Q is homogeneous of degree 2, matching the degree-d part of f only
involves monomials z^alpha w^k with |alpha| + 2k = d, so the problem splits
into one small linear least-squares solve per degree.  A failing degree is
reported together with its residual and, when the model is in normal form,
the structural obstruction behind it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .errors import InputError, NotElliptic, NumericalFailure
from .moments import cr_check
from .polyalg import Exponent, Polynomial, monomials, term_sort_key
from .quadform import QuadricModel, classify, default_radii, is_normal_form, q_polynomial

DEFAULT_EXTEND_TOL = 1e-9
CONDITIONING_WARN_FLOOR = 1e-11
INVOLUTION_TOL = 1e-10
# Largest graded block extend_general forms, in entries (rows x columns):
# 2**24 complex entries are 256 MiB.  n = 3, degree 16 (20349 x 525) fits.
MAX_GRADED_ENTRIES = 2**24


@dataclass(frozen=True)
class DegreeReport:
    """Least-squares diagnostics for one graded solve."""

    degree: int
    residual: float
    condition: float
    warning: str | None = None


@dataclass(frozen=True)
class Certificate:
    """Obstruction record for a NotExtendible verdict."""

    degree: int
    residual: float
    condition: str | None = None  # named structural condition when known
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ExtensionResult:
    status: str  # "Extended" | "NotExtendible"
    P: Polynomial | None
    residual: float
    certificate: Certificate | None = None
    degree_reports: tuple = ()

    @property
    def extended(self):
        return self.status == "Extended"


def extend_lambda0(f: Polynomial) -> ExtensionResult:
    """Extension on the sphere quadric w = z*zbar (n = 1, lambda = 0).

    Monomial by monomial, z^j zbar^k maps to z^(j-k) w^k; this works
    exactly when every term has j >= k, and the first term (in graded
    order) violating that is the certificate.
    """
    if f.n != 1:
        raise InputError("extend_lambda0: f must have n = 1")
    if f.has_w_terms():
        raise InputError("extend_lambda0: f must not contain w")
    offending = _offending_monomial(f)
    if offending is not None:
        d = sum(offending)
        bad = [
            abs(c)
            for e, c in f.terms.items()
            if e.alpha[0] < e.beta[0] and e.degree() == d
        ]
        residual = float(np.sqrt(sum(b * b for b in bad)))
        return ExtensionResult(
            status="NotExtendible",
            P=None,
            residual=residual,
            certificate=_monomial_certificate(d, residual, offending),
        )
    terms = {}
    for e, c in f.terms.items():
        j, k = e.alpha[0], e.beta[0]
        terms[Exponent((j - k,), (0,), k)] = c
    P = Polynomial(1, terms)
    rho = Polynomial.monomial(1, (1,), (1,), 0)
    residual = (P.substitute_w(rho) - f).max_coeff()
    return ExtensionResult(status="Extended", P=P, residual=residual)


def _offending_monomial(f: Polynomial):
    """(j, k) of the first term z^j zbar^k with j < k in graded order, else None."""
    bad = ((e.alpha[0], e.beta[0]) for e, _ in f.sorted_terms() if e.alpha[0] < e.beta[0])
    return next(bad, None)


def _monomial_certificate(degree, residual, offending):
    return Certificate(
        degree=degree,
        residual=residual,
        condition="monomial z^j zbar^k with j < k",
        detail={"offending": offending},
    )


def check_involution_invariance(f: Polynomial, lam):
    """(invariant?, max coefficient deviation) under zbar <- -z/lam - zbar.

    For n = 1 and 0 < lam < 1/2 the extendible polynomials are exactly the
    invariant ones.
    """
    if f.n != 1:
        raise InputError("check_involution_invariance: f must have n = 1")
    if not 0 < lam < 0.5:
        raise InputError(
            f"check_involution_invariance: lambda must be in (0, 1/2), got {lam}"
        )
    deviation = (f.involution_pullback(lam) - f).max_coeff()
    return deviation <= INVOLUTION_TOL, deviation


def _graded_basis(n, d):
    """Holomorphic monomials z^alpha w^k of weighted degree |alpha| + 2k = d."""
    basis = []
    for k in range(d // 2, -1, -1):
        for alpha in monomials(n, d - 2 * k):
            basis.append((alpha, k))
    return basis


def _structural_certificate(f, model, degree, residual):
    """Attach the named obstruction when the model's normal form exposes one."""
    ok, lambdas = is_normal_form(model)
    if not ok:
        return Certificate(degree=degree, residual=residual)
    if model.n >= 2:
        violations = cr_check(f, model)
        if violations:
            v = violations[0]
            return Certificate(
                degree=degree,
                residual=residual,
                condition="CR field X f != 0",
                detail={
                    "pair": (v.j, v.ell),
                    "field_applied": v.field_applied.to_json_dict(),
                    "field_applied_pretty": v.field_applied.pretty(),
                },
            )
        return Certificate(degree=degree, residual=residual)
    lam = float(lambdas[0])
    if lam <= 1e-12:
        offending = _offending_monomial(f)
        if offending is not None:
            return _monomial_certificate(degree, residual, offending)
    elif lam < 0.5:
        invariant, deviation = check_involution_invariance(f, lam)
        if not invariant:
            return Certificate(
                degree=degree,
                residual=residual,
                condition="not involution-invariant",
                detail={"deviation": deviation, "lambda": lam},
            )
    return Certificate(degree=degree, residual=residual)


def extend_general(f: Polynomial, model: QuadricModel, tol=DEFAULT_EXTEND_TOL) -> ExtensionResult:
    """Degree-by-degree least-squares extension over an elliptic quadric.

    For each total degree d of f, solves for coefficients of
    {z^alpha w^k : |alpha| + 2k = d} so that substituting w = Q matches
    the degree-d part of f.  The column of z^alpha w^k is Q^k with every
    z-exponent raised by alpha; Q^k is computed once, when a degree d with
    k <= d // 2 is first solved.  The solve is rank revealing (SVD) and the
    per-degree condition number is reported.  Failure threshold for the
    graded residual is tol * (1 + max |coeff f|); residuals inside
    (1e-11, tol) of that scale pass with a conditioning warning.  A degree
    whose block could exceed MAX_GRADED_ENTRIES is refused (InputError)
    before any Q power for it is formed.
    """
    if f.n != model.n:
        raise InputError(f"extend_general: f has n = {f.n}, model has n = {model.n}")
    if f.has_w_terms():
        raise InputError("extend_general: f must not contain w")
    if model.E is not None:
        raise InputError(
            "extend_general: model has a higher-order perturbation E; "
            "polynomial extension is only valid on the pure quadric"
        )
    verdict = classify(model)
    if verdict.classification != "elliptic":
        raise NotElliptic(
            f"extend_general: model is {verdict.classification}, not elliptic"
        )
    Q = q_polynomial(model)
    scale = 1.0 + f.max_coeff()
    threshold = tol * scale
    n = f.n

    qpowers = [Polynomial.constant(n, 1.0)]
    reports = []
    P_terms = {}
    for d in range(f.degree() + 1):
        fd = f.homogeneous_part(d)
        if fd.is_zero():
            continue
        # Counted, not enumerated: at n = 10, degree 40 the basis alone has 10^9 entries.
        rows = comb(d + 2 * n - 1, 2 * n - 1)
        cols = sum(comb(d - 2 * k + n - 1, n - 1) for k in range(d // 2 + 1))
        if rows * cols > MAX_GRADED_ENTRIES:
            raise InputError(
                f"extend_general: the degree-{d} block at n = {n} has up to {rows} x {cols} "
                f"entries, more than {MAX_GRADED_ENTRIES}"
            )
        while len(qpowers) <= d // 2:
            qpowers.append(qpowers[-1] * Q)
        basis = _graded_basis(n, d)
        row_index = {}
        rows, cols, vals = [], [], []
        for col, (alpha, k) in enumerate(basis):
            for e, c in qpowers[k].terms.items():
                shifted = Exponent(tuple(a + b for a, b in zip(alpha, e.alpha)), e.beta, 0)
                rows.append(row_index.setdefault(shifted, len(row_index)))
                cols.append(col)
                vals.append(c)
        for e, _ in fd.sorted_terms():
            row_index.setdefault(e, len(row_index))
        M = np.zeros((len(row_index), len(basis)), dtype=complex)
        M[rows, cols] = vals
        b = np.zeros(len(row_index), dtype=complex)
        for e, c in fd.terms.items():
            b[row_index[e]] = c
        x, _, rank, sv = np.linalg.lstsq(M, b, rcond=None)
        residual = float(np.linalg.norm(M @ x - b))
        condition = float(sv[0] / sv[-1]) if sv.size and sv[-1] > 0 else float("inf")
        warning = None
        if residual >= threshold:
            reports.append(DegreeReport(degree=d, residual=residual, condition=condition))
            return ExtensionResult(
                status="NotExtendible",
                P=None,
                residual=residual,
                certificate=_structural_certificate(f, model, d, residual),
                degree_reports=tuple(reports),
            )
        if residual > CONDITIONING_WARN_FLOOR * scale:
            warning = (
                f"degree {d} residual {residual:.3e} is close to the threshold; "
                f"condition number {condition:.3e}"
            )
        if rank < len(basis):
            warning = f"degree {d} solve is rank deficient ({rank} < {len(basis)})"
        reports.append(
            DegreeReport(degree=d, residual=residual, condition=condition, warning=warning)
        )
        for (alpha, k), coeff in zip(basis, x):
            P_terms[Exponent(alpha, (0,) * n, k)] = coeff
    P = Polynomial(n, P_terms)
    final_residual = (P.substitute_w(Q) - f).max_coeff()
    return ExtensionResult(
        status="Extended",
        P=P,
        residual=final_residual,
        degree_reports=tuple(reports),
    )


def restrict_to_plane(P: Polynomial, v) -> Polynomial:
    """Restrict a holomorphic P(z, w) to the complex line z = xi * v.

    v must be a unit vector in C^n; the result is an n = 1 polynomial in
    (xi, w).
    """
    if not P.is_holomorphic():
        raise InputError("restrict_to_plane: P must be holomorphic (no zbar terms)")
    v = np.asarray(v, dtype=complex).reshape(-1)
    if len(v) != P.n:
        raise InputError(f"restrict_to_plane: direction has length {len(v)}, expected {P.n}")
    if abs(np.linalg.norm(v) - 1.0) > 1e-10:
        raise InputError("restrict_to_plane: direction must be a unit vector")
    return _restrict(P, v)


def _restrict(p: Polynomial, v, rotation=0.0):
    """p(xi v, conj(xi v), w) with xi = exp(i rotation) * eta, as a polynomial in (eta, w)."""
    vb = np.conj(v)
    terms = {}
    for e, c in p.terms.items():
        factor = c
        for j, a in enumerate(e.alpha):
            if a:
                factor *= v[j] ** a
        for j, b in enumerate(e.beta):
            if b:
                factor *= vb[j] ** b
        ja, kb = sum(e.alpha), sum(e.beta)
        factor *= np.exp(1j * rotation * (ja - kb))
        key = Exponent((ja,), (kb,), e.k)
        terms[key] = terms.get(key, 0.0) + factor
    return Polynomial(1, terms)


def slice_oracle(f: Polynomial, model: QuadricModel, P: Polynomial, directions, tol=DEFAULT_EXTEND_TOL):
    """Cross-check P against independent one-variable extensions on slices.

    For each unit direction v, the model restricted to z = xi v is an
    n = 1 quadric with invariant lambda' = |sum_j lambda_j v_j^2| after a
    rotation of xi; the restricted data is extended from scratch there and
    compared with restrict_to_plane(P, v).  Returns the maximum coefficient
    deviation over all directions.
    """
    ok, lambdas = is_normal_form(model)
    if not ok:
        raise InputError("slice_oracle: model must be in Bishop normal form")
    max_dev = 0.0
    for v in directions:
        v = np.asarray(v, dtype=complex).reshape(-1)
        if len(v) != model.n:
            raise InputError("slice_oracle: direction length does not match model")
        nv = np.linalg.norm(v)
        if nv == 0:
            raise InputError("slice_oracle: zero direction")
        v = v / nv
        mu = complex(np.sum(lambdas * v**2))
        lam_prime = abs(mu)
        rotation = 0.0 if lam_prime == 0 else -np.angle(mu) / 2
        if lam_prime >= 0.5 - 1e-10:
            raise NumericalFailure(
                f"slice_oracle: restricted invariant {lam_prime} is not elliptic "
                "(cannot happen for an elliptic ambient model)"
            )
        sliced_model = QuadricModel(A=np.eye(1), B=np.array([[lam_prime]]))
        f_v = _restrict(f, v, rotation)
        result = extend_general(f_v, sliced_model, tol=tol)
        if not result.extended:
            return float("inf")
        expected = restrict_to_plane(P, v)
        rotated = Polynomial(
            1,
            {
                e: c * np.exp(1j * rotation * e.alpha[0])
                for e, c in expected.terms.items()
            },
        )
        dev = (result.P - rotated).max_coeff()
        max_dev = max(max_dev, dev)
    return max_dev


def verify_extension(P: Polynomial, f: Polynomial, model: QuadricModel, samples=50, seed=0, radius=None):
    """Max of |P(z, rho(z)) - f(z)| over random z in the model ball."""
    if not P.is_holomorphic():
        raise InputError("verify_extension: P must be holomorphic")
    rho = q_polynomial(model)
    if radius is None:
        radius, _ = default_radii(model)
    rng = np.random.default_rng(seed)
    n = model.n
    draws = []
    for _ in range(samples):
        direction = rng.standard_normal(2 * n)
        direction /= np.linalg.norm(direction)
        t = rng.uniform() ** (1.0 / (2 * n))
        draws.append(radius * t * direction)
    zr = np.reshape(draws, (samples, 2 * n))
    z = zr[:, :n] + 1j * zr[:, n:]
    err = np.abs(P.evaluate(z, rho.evaluate(z).real) - f.evaluate(z))
    return float(np.max(err, initial=0.0))
