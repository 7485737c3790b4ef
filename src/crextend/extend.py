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
from itertools import accumulate
from math import comb, hypot

import numpy as np

from .errors import InputError, NotElliptic, NumericalFailure
from .moments import cr_check
from .polyalg import Polynomial, monomials, sorted_runs
from .quadform import QuadricModel, classify, default_radii, is_normal_form, q_polynomial

DEFAULT_EXTEND_TOL = 1e-9
CONDITIONING_WARN_FLOOR = 1e-11
INVOLUTION_TOL = 1e-10
# A solved coefficient of modulus below NOISE_ULPS * eps * cond * |x|_2 (a
# margin over the forward error of the least-squares solve) is rounding
# noise and is left out of P.  On benchmark-corpus and dense degree-16
# inputs the noise stays below 16 of these units and true coefficients
# exceed 4e8 of them.
NOISE_ULPS = 256
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


def _offending_monomial(f: Polynomial):
    """(j, k) of the first term z^j zbar^k with j < k in graded order, else None."""
    bad = np.flatnonzero(f.exps[:, 0] < f.exps[:, 1])
    return tuple(f.exps[bad[0], :2].tolist()) if len(bad) else None


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
    """Rows alpha | 0 | k of the holomorphic monomials z^alpha w^k with |alpha| + 2k = d.

    k runs from d // 2 down to 0 and alpha in monomials() order.
    """
    rows = [
        (*alpha, *(0,) * n, k) for k in range(d // 2, -1, -1) for alpha in monomials(n, d - 2 * k)
    ]
    return np.array(rows, dtype=np.int64)


def _structural_certificate(f, model, degree, residual):
    """Attach the named obstruction when the model's normal form exposes one."""
    ok, lambdas = is_normal_form(model)
    if not ok:
        return Certificate(degree=degree, residual=residual)
    if model.n >= 2:
        violations = cr_check(f, model)
        if violations:
            return Certificate(
                degree=degree,
                residual=residual,
                condition="CR field X f != 0",
                detail=violations[0].to_json_dict(),
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
    k <= d // 2 is first solved.  When every term of Q has alpha_j + beta_j
    even (n >= 2), each block is block-diagonal over parity classes: column
    z^alpha w^k is in class alpha mod 2, row z^alpha' zbar^beta' in class
    (alpha' + beta') mod 2; any other Q has one class.  Each class is
    filled from one gather over the stacked Q powers and solved as its own
    dense block, rank revealing (SVD); the whole block is never formed.  A
    degree reports over the union of its classes: the residual's 2-norm and
    max sigma / min sigma over all their singular values.  Solved
    coefficients below the solve's own rounding noise (NOISE_ULPS) are left
    out of P.  Failure threshold for the graded residual is
    tol * (1 + max |coeff f|); residuals inside (1e-11, tol) of that scale
    pass with a conditioning warning.  A degree whose block could exceed
    MAX_GRADED_ENTRIES is refused (InputError) before any Q power for it is
    formed.  The reported residual is the largest coefficient of
    P(z, Q) - f, read off the blocks already solved.
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
    # a real Q (every normal form) gives real blocks, solved in real
    # arithmetic with Re f_d and Im f_d as two right-hand sides
    dtype = complex if Q.coeffs.imag.any() else float
    scale = 1.0 + f.max_coeff()
    threshold = tol * scale
    n = f.n
    # The parity class of an exponent is sum_j 2^j (alpha_j + beta_j mod 2) when Q is
    # even in each coordinate (z^alpha Q^k then keeps alpha's parities), else 0.
    even = n > 1 and not ((Q.exps[:, :n] + Q.exps[:, n : 2 * n]) & 1).any()
    bits = (1 << np.arange(n)) * even

    # f has no w-terms, so its rows are sorted by total degree: one slice per degree
    bounds = np.searchsorted(f.exps.sum(axis=1), np.arange(f.degree() + 2))
    # Q^0, Q^1, ... stacked: Q^k is rows qstart[k] : qstart[k] + qsize[k]
    Qk = Polynomial.constant(n, 1.0)
    qexps, qvals, qstart, qsize = Qk.exps, Qk.coeffs, np.zeros(1, np.int64), np.ones(1, np.int64)
    reports = []
    final_residual = 0.0
    P_exps, P_coeffs = [np.zeros((0, 2 * n + 1), dtype=np.int64)], [np.zeros(0, dtype=complex)]
    for d in range(f.degree() + 1):
        lo, hi = bounds[d], bounds[d + 1]
        if lo == hi:
            continue
        # Counted, not enumerated: at n = 10, degree 40 the basis alone has 10^9 entries.
        nrows = comb(d + 2 * n - 1, 2 * n - 1)
        ncols = sum(comb(d - 2 * k + n - 1, n - 1) for k in range(d // 2 + 1))
        if nrows * ncols > MAX_GRADED_ENTRIES:
            raise InputError(
                f"extend_general: the degree-{d} block at n = {n} has up to {nrows} x {ncols} "
                f"entries, more than {MAX_GRADED_ENTRIES}"
            )
        while len(qsize) <= d // 2:
            Qk = Qk * Q
            qstart, qsize = np.append(qstart, len(qvals)), np.append(qsize, len(Qk.coeffs))
            qexps, qvals = np.concatenate((qexps, Qk.exps)), np.concatenate((qvals, Qk.coeffs))
        # columns grouped by class, in basis order within a class
        basis = _graded_basis(n, d)
        colcls = (basis[:, :n] & 1) @ bits
        basis = basis[colcls.argsort(kind="stable")]
        # one ragged gather: column z^alpha w^k holds Q^k's rows plus alpha, Q^k's coefficients
        ks = basis[:, -1]
        count = qsize[ks]
        ends = count.cumsum()
        src = np.arange(ends[-1]) + (qstart[ks] + count - ends).repeat(count)
        entries = qexps[src]
        entries[:, :n] += basis[:, :n].repeat(count, axis=0)
        col = np.arange(len(basis)).repeat(count)
        vals = (qvals if dtype is complex else qvals.real)[src]
        # rows: the distinct exponents, f_d's included, grouped by class, graded within a class
        entries = np.concatenate((entries, f.exps[lo:hi]))
        order, starts = sorted_runs(entries)
        rows = entries[order[starts]]
        rowcls = ((rows[:, :n] + rows[:, n : 2 * n]) & 1) @ bits
        number = np.empty(len(rows), dtype=np.int64)
        number[rowcls.argsort(kind="stable")] = np.arange(len(rows))
        row_of = np.empty(len(entries), dtype=np.int64)
        row_of[order] = number.repeat(np.diff(np.append(starts, len(entries))))
        b = np.zeros(len(rows), dtype=complex)
        b[row_of[len(src) :]] = f.coeffs[lo:hi]
        rhs = b if dtype is complex else b.view(float).reshape(-1, 2)  # columns Re b, Im b
        # every column has entries, so a class without rows has no columns either
        rsizes = np.bincount(rowcls).tolist()
        csizes = np.bincount(colcls, minlength=len(rsizes)).tolist()
        ebounds = [0] + ends.tolist()
        blocks, xs, norms, sigmas, kept = [], [], [], [], []
        r0 = c0 = 0
        for r1, c1 in zip(accumulate(rsizes), accumulate(csizes)):
            if r1 == r0:
                continue
            e0, e1 = ebounds[c0], ebounds[c1]
            M = np.zeros((r1 - r0, c1 - c0), dtype=dtype)
            M[row_of[e0:e1] - r0, col[e0:e1] - c0] = vals[e0:e1]
            x, _, rank, sv = np.linalg.lstsq(M, rhs[r0:r1], rcond=None)
            norms.append(np.linalg.norm(M @ x - rhs[r0:r1]))
            blocks.append((M, r0, r1, c0, c1))
            xs.append(x)
            sv = sv.tolist()
            sigmas += sv
            kept += sv[:rank]
            r0, c0 = r1, c1
        # the degree's report covers the union of its classes
        residual = hypot(*norms)
        condition = max(sigmas) / min(sigmas) if min(sigmas) > 0 else float("inf")
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
        if len(kept) < len(basis):
            warning = f"degree {d} solve is rank deficient ({len(kept)} < {len(basis)})"
        reports.append(
            DegreeReport(degree=d, residual=residual, condition=condition, warning=warning)
        )
        X = np.concatenate(xs)
        x = X.view(complex).reshape(-1)  # a view: pruning x prunes X
        noise = NOISE_ULPS * np.finfo(float).eps * max(sigmas) / min(kept) * np.linalg.norm(x)
        x[np.abs(x) < noise] = 0
        # P(z, Q) - f in degree d is exactly M x - b, class by class
        for M, r0, r1, c0, c1 in blocks:
            R = (M @ X[c0:c1] - rhs[r0:r1]).view(complex)
            final_residual = max(final_residual, float(np.abs(R).max()))
        P_exps.append(basis)
        P_coeffs.append(x)
    P = Polynomial(n, np.concatenate(P_exps), np.concatenate(P_coeffs))
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
    n = p.n
    alpha, beta, k = p.exps[:, :n], p.exps[:, n : 2 * n], p.exps[:, -1]
    ja, kb = alpha.sum(axis=1), beta.sum(axis=1)
    factor = (
        p.coeffs
        * np.prod(v**alpha, axis=1)
        * np.prod(np.conj(v) ** beta, axis=1)
        * np.exp(1j * rotation * (ja - kb))
    )
    return Polynomial(1, np.stack((ja, kb, k), axis=1), factor)


def slice_oracle(f: Polynomial, model: QuadricModel, P: Polynomial, directions, tol=DEFAULT_EXTEND_TOL):
    """Cross-check P against independent one-variable extensions on slices.

    For each unit direction v, the model restricted to z = xi v is an
    n = 1 quadric with invariant lambda' = |sum_j lambda_j v_j^2| after a
    rotation of xi; the restricted data is extended from scratch there and
    compared with P restricted to the same rotated line.  Returns the
    maximum coefficient deviation over all directions.
    """
    if not P.is_holomorphic():
        raise InputError("slice_oracle: P must be holomorphic (no zbar terms)")
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
        dev = (result.P - _restrict(P, v, rotation)).max_coeff()
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
