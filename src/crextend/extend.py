"""Holomorphic polynomial extension of boundary data on elliptic quadrics.

Given a polynomial f(z, zbar) on the quadric w = Q(z, zbar), extendibility
means there is a holomorphic polynomial P(z, w) with P(z, Q(z, zbar)) = f.
Because Q is homogeneous of degree 2, matching the degree-d part of f only
involves monomials z^alpha w^k with |alpha| + 2k = d, so the problem splits
into one problem per degree.  On a diagonal Q (every normal form) P comes
from exact division by dQ/dzbar_1, and only a degree that does not match
is solved again by least squares; on any other Q each degree is one dense
least-squares solve.  A failing degree is reported together with its
residual and, when the model is in normal form, the structural obstruction
behind it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import accumulate
from math import comb, factorial, hypot, prod

import numpy as np

from .errors import InputError, NotElliptic, NumericalFailure
from .moments import cr_check
from .polyalg import Polynomial, check_pairs, monomials, sorted_runs
from .quadform import QuadricModel, classify, default_radii, is_normal_form, q_polynomial

DEFAULT_EXTEND_TOL = 1e-9
CONDITIONING_WARN_FLOOR = 1e-11
INVOLUTION_TOL = 1e-10
# A coefficient of P below NOISE_ULPS units of its rounding error bound is
# rounding noise and is left out of P.  The unit is eps * cond * |x|_2 for a
# least-squares solve (a margin over its forward error): on benchmark-corpus
# and dense degree-16 inputs the noise stays below 16 units and true
# coefficients exceed 4e8.  For the division it is eps times the sum of the
# moduli that make up the coefficient: on 80 random P(z, Q) (n <= 3, degree
# <= 20, lambda <= 0.49, scales 1e-6..1e6) the noise stays below 1.2 units
# and true coefficients exceed 7e11.
NOISE_ULPS = 256
# Largest graded block the dense route forms, in entries (rows x columns):
# 2**24 complex entries are 256 MiB.  n = 3, degree 16 (20349 x 525) fits.
# The division itself forms no graded block (polyalg.MAX_TERM_PAIRS bounds
# it); it solves a degree densely only to recheck a residual above the
# warning floor, and only when that degree's block fits.
MAX_GRADED_ENTRIES = 2**24


@dataclass(frozen=True)
class DegreeReport:
    """Diagnostics for one degree: the 2-norm of P_d(z, Q) - f_d, the
    solve's condition number (dense) or the recurrence's growth factor
    (division), and the largest division remainder (division only)."""

    degree: int
    residual: float
    condition: float
    warning: str | None = None
    remainder: float | None = None


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
    """Attach the named obstruction when the model's normal form exposes one.

    f is the part of the data in the failing degree.
    """
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


class _QPowers:
    """Q^0, Q^1, ... stacked in one array, each power built on first use as the last one times Q."""

    def __init__(self, Q):
        self.Q = self.last = Q
        one = Polynomial.constant(Q.n, 1.0)
        self.exps, self.vals = one.exps, one.coeffs
        self.start, self.size = np.zeros(1, np.int64), np.ones(1, np.int64)

    def images(self, rows, checked=False):
        """(entries, src, count) of the rows alpha | 0 | k of P's monomials z^alpha w^k.

        Row i expands to z^alpha Q^k: count[i] entries, Q^k's rows with
        alpha added, whose coefficients are vals[src] of those entries.  When
        checked, more than MAX_TERM_PAIRS entries in all are refused
        (InputError) before they are formed.
        """
        n = self.Q.n
        ks = rows[:, -1]
        while len(self.size) <= ks.max(initial=0):
            if len(self.size) > 1:
                self.last = self.last * self.Q
            self.start = np.append(self.start, len(self.vals))
            self.size = np.append(self.size, len(self.last.coeffs))
            self.exps = np.concatenate((self.exps, self.last.exps))
            self.vals = np.concatenate((self.vals, self.last.coeffs))
        count = self.size[ks]
        ends = count.cumsum()
        total = int(count.sum())
        if checked:
            check_pairs(total, "extend_general: P_d(z, Q)")
        src = np.arange(total) + (self.start[ks] + count - ends).repeat(count)
        entries = self.exps[src]
        entries[:, :n] += rows[:, :n].repeat(count, axis=0)
        return entries, src, count


def _block_shape(n, d):
    """(rows, columns) of the degree-d graded block at n.

    Counted, not enumerated: at n = 10, degree 40 the basis alone has 10^9
    entries.
    """
    nrows = comb(d + 2 * n - 1, 2 * n - 1)
    ncols = sum(comb(d - 2 * k + n - 1, n - 1) for k in range(d // 2 + 1))
    return nrows, ncols


def _dense_degree(f, powers, d, lo, hi, bits):
    """Degree d of f (rows lo:hi) by least squares over the graded block, class by class.

    Returns (basis, x, largest |P(z, Q) - f| coefficient, DegreeReport),
    with a rank-deficiency note as the report's warning.  The column of
    z^alpha w^k is Q^k (from powers) with every z-exponent raised by
    alpha; the rows are the distinct exponents, f_d's included.  bits
    gives the parity classes: column z^alpha w^k is in class
    (alpha mod 2) @ bits, row z^alpha' zbar^beta' in class
    ((alpha' + beta') mod 2) @ bits.  On a Q even in each coordinate
    z^alpha Q^k keeps alpha's parities, so with bits = 2^j the block is
    block-diagonal over the classes; bits = 0 makes the whole block one
    class.  Each class is one dense solve, rank revealing (SVD), and the
    degree reports over their union: the residual's 2-norm and max sigma /
    min sigma over all their singular values.  A real Q gives real blocks,
    solved in real arithmetic with Re f_d and Im f_d as two right-hand
    sides.  Solved coefficients below the solve's own rounding noise
    (NOISE_ULPS) are left out of x.  A degree whose block could exceed
    MAX_GRADED_ENTRIES is refused (InputError) before any Q power for it
    is formed.
    """
    n = f.n
    dtype = complex if powers.Q.coeffs.imag.any() else float
    nrows, ncols = _block_shape(n, d)
    if nrows * ncols > MAX_GRADED_ENTRIES:
        raise InputError(
            f"extend_general: the degree-{d} block at n = {n} has up to {nrows} x {ncols} "
            f"entries, more than {MAX_GRADED_ENTRIES}"
        )
    # columns grouped by class, in basis order within a class
    basis = _graded_basis(n, d)
    colcls = (basis[:, :n] & 1) @ bits
    basis = basis[colcls.argsort(kind="stable")]
    entries, src, count = powers.images(basis)
    col = np.arange(len(basis)).repeat(count)
    vals = (powers.vals if dtype is complex else powers.vals.real)[src]
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
    ebounds = [0, *count.cumsum().tolist()]
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
        sv = sv.tolist()  # descending
        sigmas += sv
        kept += sv[:rank]
        r0, c0 = r1, c1
    residual = hypot(*norms)
    condition = max(sigmas) / min(sigmas) if min(sigmas) > 0 else float("inf")
    note = None
    if len(kept) < len(basis):
        note = f"degree {d} solve is rank deficient ({len(kept)} < {len(basis)})"
    report = DegreeReport(degree=d, residual=residual, condition=condition, warning=note)
    X = np.concatenate(xs)
    x = X.view(complex).reshape(-1)  # a view: pruning x prunes X
    x[np.abs(x) < NOISE_ULPS * np.finfo(float).eps * max(sigmas) / min(kept) * np.linalg.norm(x)] = 0
    # P(z, Q) - f in degree d is exactly M x - b, class by class
    largest = max(float(np.abs((M @ X[c0:c1] - rhs[r0:r1]).view(complex)).max()) for M, r0, r1, c0, c1 in blocks)
    return basis, x, largest, report


def _dense_degrees(f, Q, bounds):
    """Per degree of f: _dense_degree's (basis, x, largest, report), the whole block one class."""
    powers = _QPowers(Q)
    bits = np.zeros(f.n, dtype=np.int64)
    for d in range(len(bounds) - 1):
        if bounds[d] < bounds[d + 1]:
            yield _dense_degree(f, powers, d, bounds[d], bounds[d + 1], bits)


def _coefficient(p, row):
    """The coefficient of the term row of p, 0 when p has no such term."""
    hit = np.flatnonzero((p.exps == row).all(axis=1))
    return complex(p.coeffs[hit[0]]) if len(hit) else 0j


def _divided_P(f, Q):
    """P with f = P(z, Q) for Q even in each coordinate, by exact division along z_1.

    Returns (rows, x, bound, remainder): P's rows alpha | 0 | k in graded
    order, their coefficients, for each a bound on the moduli summed into it,
    and the largest division remainder in each total degree of f.

    Such a Q is sum_j a_j z_j zbar_j + b_j z_j^2 + conj(b_j) zbar_j^2, so
    dQ/dzbar_1 = a_1 (z_1 + mu zbar_1) with mu = 2 conj(b_1) / a_1, and
    |mu| < 1 on an elliptic Q.  From H_0 = f, H_(m+1) = (dH_m/dzbar_1) /
    (dQ/dzbar_1) is d^m P / dw^m (z, Q).  The terms of f fall into fibres:
    the same exponents outside z_1, zbar_1 and the same degree e in z_1,
    zbar_1.  One row of a (fibres x (deg + 1)) array holds a fibre's
    coefficients by the exponent of z_1; d/dzbar_1 scales column a by
    e - a, and the division is one product with the Toeplitz matrix of
    (-mu)^j / a_1, exact from the top column down.  What is left at the
    bottom, the quotient's value at the root z_1 = -mu zbar_1, is the
    remainder.  The zbar-free parts H_m(z, 0) then give
    P = sum_m H_m(z, 0) / m! (w - q0)^m, q0 = Q(z, 0), summed by Horner.
    The same steps on the moduli, |f| through |Toeplitz| and |w - q0|,
    bound the rounding error of each coefficient of P.

    Work is bounded without a graded block: the fibre arrays hold at most
    (terms of f) x (deg f + 1) entries, MAX_TERMS x (DEGREE_CAP + 1) for
    a document, and each Horner step, like the gate's P_d(z, Q) in
    _division_degrees, is refused (InputError) beyond MAX_TERM_PAIRS pairs
    of terms before it is formed.
    """
    n = f.n
    unit = np.eye(2 * n + 1, dtype=np.int64)
    a1 = _coefficient(Q, unit[0] + unit[n]).real
    mu = 2 * _coefficient(Q, 2 * unit[n]) / a1
    # fibres: column 0 holds e = alpha_1 + beta_1, column n is cleared
    e = f.exps[:, 0] + f.exps[:, n]
    key = f.exps.copy()
    key[:, 0], key[:, n] = e, 0
    order, starts = sorted_runs(key)
    fibre = np.empty(len(e), dtype=np.int64)
    fibre[order] = np.arange(len(starts)).repeat(np.diff(np.append(starts, len(e))))
    rest = key[order[starts]]
    e, degree = rest[:, 0].copy(), rest.sum(axis=1)
    rest[:, 0] = 0
    holomorphic = ~rest[:, n : 2 * n].any(axis=1)
    top = int(e.max())
    G = np.zeros((len(rest), top + 1), dtype=complex)
    G[fibre, f.exps[:, 0]] = f.coeffs
    Gabs = np.abs(G)
    # T[b, a] = (-mu)^(b - a - 1) / a_1 for b > a, else 0
    lag = np.arange(top + 1)[:, None] - np.arange(top + 1) - 1
    T = np.where(lag >= 0, (-mu) ** np.maximum(lag, 0), 0) / a1
    Tabs = np.abs(T)
    root = (-mu) ** np.arange(top + 1)
    remainder = np.zeros(f.degree() + 1)
    H = []  # (rows, coefficients, bounds) of H_m(z, 0) / m!
    for m in range(top // 2 + 1):
        cur = e - 2 * m  # each fibre's degree in z_1, zbar_1
        live = cur >= 0
        G, Gabs, e, rest, degree, holomorphic, cur = (
            a[live] for a in (G, Gabs, e, rest, degree, holomorphic, cur)
        )
        width = int(cur.max()) + 1
        G, Gabs = G[:, :width], Gabs[:, :width]
        pick = np.flatnonzero(holomorphic & (Gabs[np.arange(len(cur)), cur] > 0))
        rows = rest[pick]
        rows[:, 0] = cur[pick]
        H.append((rows, G[pick, cur[pick]] / factorial(m), Gabs[pick, cur[pick]] / factorial(m)))
        scale = np.maximum(cur[:, None] - np.arange(width), 0)
        G, Gabs = G * scale, Gabs * scale
        np.maximum.at(remainder, degree, np.abs(G @ root[:width]))
        G, Gabs = G @ T[:width, :width], Gabs @ Tabs[:width, :width]
    # Horner: P = H_0 + (w - q0)(H_1 / 1! + (w - q0)(H_2 / 2! + ...)), with the moduli alongside
    q0 = ~Q.exps[:, n : 2 * n].any(axis=1)
    step = np.concatenate((unit[2 * n : 2 * n + 1], Q.exps[q0]))  # w - q0
    step_vals = np.concatenate(([1.0], -Q.coeffs[q0]))
    rows, x, bound = H.pop()
    while H:
        check_pairs(len(x) * len(step), "extend_general: a Horner step")
        h_rows, h_x, h_bound = H.pop()
        rows = np.concatenate(((rows[:, None, :] + step).reshape(-1, 2 * n + 1), h_rows))
        x = np.concatenate((np.multiply.outer(x, step_vals).ravel(), h_x))
        bound = np.concatenate((np.multiply.outer(bound, np.abs(step_vals)).ravel(), h_bound))
        if len(x):
            order, starts = sorted_runs(rows)
            rows = rows[order[starts]]
            x, bound = np.add.reduceat(x[order], starts), np.add.reduceat(bound[order], starts)
    return rows, x, bound, remainder


def _division_degrees(f, Q, bounds, recheck):
    """Per degree of f: P_d from _divided_P and the residual P_d(z, Q) - f_d.

    Yields (rows, x, largest |P(z, Q) - f| coefficient, DegreeReport) for
    each degree d of f.  Coefficients below NOISE_ULPS units of their
    rounding bound are left out of x.  The report's residual is the 2-norm
    of P_d(z, Q) - f_d, formed from the Q powers P_d needs, each built when
    a degree first needs it; its condition is the recurrence's growth
    factor, the largest rounding bound of P_d over its largest coefficient
    (at least 1, and 1 for an empty P_d); its remainder is the division's.

    The division's P_d need not minimise the residual: on data off the
    image it can exceed the least-squares minimum by a factor that grows
    with the degree and |mu| (about 1000 at n = 1, lambda = 0.49, degree
    20).  So a degree whose residual exceeds recheck is solved again by
    _dense_degree, class by class, which gives it the least-squares
    residual, condition and P_d, when its graded block fits
    MAX_GRADED_ENTRIES; beyond that the division's residual stands.
    """
    n = f.n
    rows, x, bound, remainder = _divided_P(f, Q)
    x[np.abs(x) < NOISE_ULPS * np.finfo(float).eps * bound] = 0
    wdeg = np.searchsorted(rows[:, :n].sum(axis=1) + 2 * rows[:, -1], np.arange(len(bounds)))
    powers = _QPowers(Q)
    # parity classes for a recheck; an n = 1 block is small enough whole
    bits = (1 << np.arange(n)) * (n > 1)
    for d in range(len(bounds) - 1):
        lo, hi = bounds[d], bounds[d + 1]
        if lo == hi:
            continue
        p0, p1 = wdeg[d], wdeg[d + 1]
        keep = np.flatnonzero(x[p0:p1]) + p0
        P_rows, P_x = rows[keep], x[keep]
        condition = max(1.0, bound[p0:p1].max() / np.abs(P_x).max()) if len(keep) else 1.0
        entries, src, count = powers.images(P_rows, checked=True)
        entries = np.concatenate((entries, f.exps[lo:hi]))
        vals = np.concatenate((powers.vals[src] * P_x.repeat(count), -f.coeffs[lo:hi]))
        order, starts = sorted_runs(entries)
        R = np.add.reduceat(vals[order], starts)
        residual = float(np.linalg.norm(R))
        if residual > recheck and prod(_block_shape(n, d)) <= MAX_GRADED_ENTRIES:
            P_rows, P_x, largest, report = _dense_degree(f, powers, d, lo, hi, bits)
            yield P_rows, P_x, largest, replace(report, remainder=float(remainder[d]))
            continue
        report = DegreeReport(degree=d, residual=residual, condition=condition, remainder=float(remainder[d]))
        yield P_rows, P_x, float(np.abs(R).max()), report


def extend_general(f: Polynomial, model: QuadricModel, tol=DEFAULT_EXTEND_TOL) -> ExtensionResult:
    """Degree-by-degree extension over an elliptic quadric.

    For each total degree d of f, finds coefficients of
    {z^alpha w^k : |alpha| + 2k = d} so that substituting w = Q matches
    the degree-d part of f.  When every term of Q is even in each
    coordinate (A and B diagonal: every normal form and every n = 1 model),
    P comes from exact division (_divided_P), and a degree whose residual
    exceeds the warning floor below is solved again by least squares
    (_division_degrees); any other Q gets one dense least-squares solve per
    degree (_dense_degrees).  Either way a degree's verdict and warning
    rest on the least-squares residual wherever its block fits
    MAX_GRADED_ENTRIES.  Degrees are gated in
    ascending order: the failure threshold for a degree's residual is
    tol * (1 + max |coeff f|), and residuals inside (1e-11, tol) of that
    scale pass with a conditioning warning.  The first failing degree ends
    the run with a certificate built from f's part in that degree.  The
    reported residual is the largest coefficient of P(z, Q) - f over the
    degrees.
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
    n = f.n
    scale = 1.0 + f.max_coeff()
    threshold = tol * scale
    # f has no w-terms, so its rows are sorted by total degree: one slice per degree
    bounds = np.searchsorted(f.exps.sum(axis=1), np.arange(f.degree() + 2))
    even = not ((Q.exps[:, :n] + Q.exps[:, n : 2 * n]) & 1).any()
    if even and len(f.coeffs):
        degrees = _division_degrees(f, Q, bounds, CONDITIONING_WARN_FLOOR * scale)
    else:
        degrees = _dense_degrees(f, Q, bounds)
    reports = []
    final_residual = 0.0
    P_exps, P_coeffs = [np.zeros((0, 2 * n + 1), dtype=np.int64)], [np.zeros(0, dtype=complex)]
    for rows, x, largest, report in degrees:
        d, residual = report.degree, report.residual
        if residual >= threshold:
            reports.append(replace(report, warning=None))
            return ExtensionResult(
                status="NotExtendible",
                P=None,
                residual=residual,
                certificate=_structural_certificate(f.homogeneous_part(d), model, d, residual),
                degree_reports=tuple(reports),
            )
        if report.warning is None and residual > CONDITIONING_WARN_FLOOR * scale:
            report = replace(
                report,
                warning=f"degree {d} residual {residual:.3e} is close to the threshold; "
                f"condition number {report.condition:.3e}",
            )
        reports.append(report)
        final_residual = max(final_residual, largest)
        P_exps.append(rows)
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
