"""Holomorphic polynomial extension of boundary data on elliptic quadrics.

Given a polynomial f(z, zbar) on the quadric w = Q(z, zbar), extendibility
means there is a holomorphic polynomial P(z, w) with P(z, Q(z, zbar)) = f.
Because Q is homogeneous of degree 2, matching the degree-d part of f only
involves monomials z^alpha w^k with |alpha| + 2k = d, so the problem splits
into one problem per degree.  On a diagonal Q (every normal form) P comes
from exact division by dQ/dzbar_1 for every degree at once, and the
degrees are checked in ascending batches, each P_d(z, Q) - f_d of a batch
expanded and summed together; only a degree that does not match is solved
again by least squares, unless its certificate already proves that the
least-squares residual fails.  On any other Q each degree is one dense
least-squares solve.  A failing degree is reported together with its
residual and, when the model exposes one, the structural obstruction
behind it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import comb, factorial, hypot, inf, isfinite, isnan, prod

import numpy as np

from . import polyalg
from .errors import InputError, NotElliptic, NumericalFailure
from .moments import cr_violations
from .polyalg import Polynomial, QPowers, check_pairs, monomials, sorted_runs
from .quadform import (
    ELLIPTIC_MARGIN,
    QuadricModel,
    _classify_lambdas,
    classify,
    default_radii,
    is_normal_form,
    q_polynomial,
)

DEFAULT_EXTEND_TOL = 1e-9
CONDITIONING_WARN_FLOOR = 1e-11
INVOLUTION_TOL = 1e-10
VERIFY_SAMPLES = 50
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
# Most image entries one batch of the division's gate expands (_division_degrees).
# Measured with extend_general on the 102 extend documents of the benchmark
# corpus extend-graded, seeds 7-8, blocks 0-2 (best of 15, one BLAS thread,
# 2-vCPU Xeon VM): 278 ms with one degree per batch, 225-228 ms for every
# bound from 2**8 to 2**12.  Larger batches speed up extendible data (n = 3,
# degree 10: 10.1 ms at 2**8, 8.7 ms at 2**12) and slow obstructions found
# at a low degree, which expand the rest of their batch for nothing (n = 3,
# degree 14: 16.1 and 18.0 ms).  2**9 sits between.
GATE_ENTRIES = 2**9


@dataclass(frozen=True)
class DegreeReport:
    """Diagnostics for one degree: the 2-norm of P_d(z, Q) - f_d and the
    solve's condition number (dense) or the recurrence's growth factor
    (division)."""

    degree: int
    residual: float
    condition: float
    warning: str | None = None


@dataclass(frozen=True)
class Certificate:
    """Obstruction record for a NotExtendible verdict.

    lower_bound, when not None, is a proven lower bound on the least-squares
    residual of the failing degree, read off the named condition (see
    _structural_certificate).
    """

    degree: int
    residual: float
    condition: str | None = None  # named structural condition when known
    detail: dict = field(default_factory=dict)
    lower_bound: float | None = None


@dataclass(frozen=True)
class ExtensionResult:
    """extend_general's verdict.  residual is the largest DegreeReport.residual
    (0.0 with no degrees); on NotExtendible data, the failing degree's."""

    status: str  # "Extended" | "NotExtendible"
    P: Polynomial | None
    residual: float
    certificate: Certificate | None = None
    degree_reports: tuple = ()

    @property
    def extended(self):
        return self.status == "Extended"


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
    """Attach the named obstruction when the model exposes one.

    f is the part of the data in the failing degree; the model is elliptic.
    At n >= 2 on a Q even in each coordinate (A and B diagonal) it is the
    first violated CR field X.  Every coefficient of X f is y . f for a
    functional y that vanishes on each P(z, Q), for any Q, so |y . f| <=
    |y|_2 times the least-squares residual, and |y|_2 <= d (|rho_j|_1 +
    |rho_ell|_1) with |.|_1 the sum of coefficient moduli: lower_bound is
    max |X f|, less a rounding allowance of NOISE_ULPS units, over that
    norm.  A congruent model's certificate stays bare (ROADMAP item 7).
    At n = 1 on a normal form with no z^2 term in Q every P(z, Q) has only
    terms z^j zbar^k with j >= k, so lower_bound is the largest
    |coefficient| with j < k.  Any other certificate has no lower_bound.
    """
    condition, detail, lower_bound = None, {}, None
    if model.n >= 2:
        rho = q_polynomial(model)
        violation = _even_coordinates(rho) and next(cr_violations(f, model), None)
        if violation:
            condition, detail = "CR field X f != 0", violation.to_json_dict()
            mass = sum(float(np.abs(rho.partial_derivative("zbar", j).coeffs).sum()) for j in detail["pair"])
            norm_y = degree * mass
            allowance = NOISE_ULPS * np.finfo(float).eps * norm_y * f.max_coeff()
            lower_bound = max(0.0, violation.field_applied.max_coeff() - allowance) / norm_y
        return Certificate(degree, residual, condition, detail, lower_bound)
    ok, lambdas = is_normal_form(model)
    if ok and lambdas[0] <= 1e-12:
        bad = np.flatnonzero(f.exps[:, 0] < f.exps[:, 1])  # terms z^j zbar^k with j < k, in graded order
        if len(bad):
            condition = "monomial z^j zbar^k with j < k"
            detail = {"offending": tuple(f.exps[bad[0], :2].tolist())}
            if not model.B.any():  # no z^2 term in Q
                lower_bound = float(np.abs(f.coeffs[bad]).max())
    elif ok:
        lam = float(lambdas[0])
        invariant, deviation = check_involution_invariance(f, lam)
        if not invariant:
            condition, detail = "not involution-invariant", {"deviation": deviation, "lambda": lam}
    return Certificate(degree, residual, condition, detail, lower_bound)


def _block_shape(n, d):
    """(rows, columns) of the degree-d graded block at n.

    Counted, not enumerated: at n = 10, degree 40 the basis alone has 10^9
    entries.
    """
    nrows = comb(d + 2 * n - 1, 2 * n - 1)
    ncols = sum(comb(d - 2 * k + n - 1, n - 1) for k in range(d // 2 + 1))
    return nrows, ncols


def _even_coordinates(Q):
    """Whether every term of Q is even in each coordinate: z_j and zbar_j together."""
    return not ((Q.exps[:, : Q.n] + Q.exps[:, Q.n : 2 * Q.n]) & 1).any()


def _norm(v):
    """The 2-norm of v, inf when it overflows or v is not finite, and never nan.

    np.linalg.norm squares the entries; where that overflows, v is scaled by
    its largest part first.  A nan would slip past the gate residual >= threshold.
    """
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if not isfinite(norm) and np.isfinite(v).all():
        top = float(max(np.abs(v.real).max(), np.abs(v.imag).max()))
        norm = top * float(np.linalg.norm(v / top))
    return inf if isnan(norm) else norm


def _dense_degree(f, powers, d, lo, hi):
    """Degree d of f (rows lo:hi) by least squares over the graded block, class by class.

    Returns (basis, x, DegreeReport), with a rank-deficiency note as the
    report's warning.  On a Q = powers.q even in each coordinate, z^alpha
    Q^k keeps alpha's parities, so the block is block-diagonal over the
    parity classes: (alpha mod 2) @ 2^j for column z^alpha w^k,
    ((alpha' + beta') mod 2) @ 2^j for row z^alpha' zbar^beta' (one class
    at n = 1, where all have the parity of d); any other Q makes the whole
    block one class.  Each class, in ascending order, is built as a whole block is:
    its columns' images under powers and its part of f_d give the rows,
    distinct and in graded order, for one rank-revealing solve (SVD); basis
    comes back in class order.  The degree reports over the union of the
    classes: the 2-norm (_norm) of the least-squares residual, before the
    prune below, and max sigma / min sigma over all their singular values.
    A real Q gives real blocks, solved in real arithmetic with Re f_d and Im
    f_d as two right-hand sides.  Solved coefficients below the solve's own
    rounding noise (NOISE_ULPS) are left out of x.  A degree whose block
    could exceed MAX_GRADED_ENTRIES is refused (InputError) before any Q
    power for it is formed.
    """
    n = f.n
    dtype = complex if powers.q.coeffs.imag.any() else float
    nrows, ncols = _block_shape(n, d)
    if nrows * ncols > MAX_GRADED_ENTRIES:
        raise InputError(
            f"extend_general: the degree-{d} block at n = {n} has up to {nrows} x {ncols} "
            f"entries, more than {MAX_GRADED_ENTRIES}"
        )
    basis = _graded_basis(n, d)
    bits = (1 << np.arange(n)) * _even_coordinates(powers.q)
    colcls = (basis[:, :n] & 1) @ bits
    f_exps, f_coeffs = f.exps[lo:hi], f.coeffs[lo:hi]
    rowcls = ((f_exps[:, :n] + f_exps[:, n : 2 * n]) & 1) @ bits
    # each class of f_d's rows has columns: z^alpha with |alpha| = d takes every parity of degree d
    cols, xs, norms, sigmas, kept = [], [], [], [], []
    for c in np.unique(colcls).tolist():
        basis_c, picked = basis[colcls == c], rowcls == c
        entries, src, count = powers.images(basis_c)
        vals = powers.vals[src] if dtype is complex else powers.vals.real[src]
        entries = np.concatenate((entries, f_exps[picked]))
        order, starts = sorted_runs(entries)
        row_of = np.empty(len(entries), dtype=np.int64)
        row_of[order] = np.arange(len(starts)).repeat(np.diff(np.append(starts, len(entries))))
        M = np.zeros((len(starts), len(basis_c)), dtype=dtype)
        M[row_of[: len(src)], np.arange(len(basis_c)).repeat(count)] = vals
        b = np.zeros(len(starts), dtype=complex)
        b[row_of[len(src) :]] = f_coeffs[picked]
        rhs = b if dtype is complex else b.view(float).reshape(-1, 2)  # columns Re b, Im b
        x, _, rank, sv = np.linalg.lstsq(M, rhs, rcond=None)
        norms.append(_norm(M @ x - rhs))
        cols.append(basis_c)
        xs.append(x)
        sv = sv.tolist()  # descending
        sigmas += sv
        kept += sv[:rank]
    basis = np.concatenate(cols)
    residual = hypot(*norms)
    condition = max(sigmas) / min(sigmas) if min(sigmas) > 0 else float("inf")
    note = None
    if len(kept) < len(basis):
        note = f"degree {d} solve is rank deficient ({len(kept)} < {len(basis)})"
    report = DegreeReport(degree=d, residual=residual, condition=condition, warning=note)
    x = np.concatenate(xs).view(complex).reshape(-1)
    x[np.abs(x) < NOISE_ULPS * np.finfo(float).eps * max(sigmas) / min(kept) * _norm(x)] = 0
    return basis, x, report


def _coefficient(p, row):
    """The coefficient of the term row of p, 0 when p has no such term."""
    hit = np.flatnonzero((p.exps == row).all(axis=1))
    return complex(p.coeffs[hit[0]]) if len(hit) else 0j


def _divided_P(f, Q):
    """P with f = P(z, Q) for Q even in each coordinate, by exact division along z_1.

    Returns (rows, x, bound): P's rows alpha | 0 | k in graded order, their
    coefficients, and for each a bound on the moduli summed into it.

    Such a Q is sum_j a_j z_j zbar_j + b_j z_j^2 + conj(b_j) zbar_j^2, so
    dQ/dzbar_1 = a_1 (z_1 + mu zbar_1) with mu = 2 conj(b_1) / a_1, and
    |mu| < 1 on an elliptic Q.  From H_0 = f, H_(m+1) = (dH_m/dzbar_1) /
    (dQ/dzbar_1) is d^m P / dw^m (z, Q).  A term with some zbar_j, j >= 2,
    keeps it through every step (dQ/dzbar_1 holds z_1, zbar_1 alone), so
    it is dropped first.  The rest fall into fibres: the same exponents of
    z_2 .. z_n and the same degree e in z_1, zbar_1.  One row of a
    (fibres x (deg + 1)) array holds a fibre's coefficients by the
    exponent of z_1; d/dzbar_1 scales column a by e - a, and the division
    is one product with the Toeplitz matrix of (-mu)^j / a_1, exact from
    the top column down.  The zbar-free parts H_m(z, 0) then give
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
    kept = ~f.exps[:, n + 1 : 2 * n].any(axis=1)
    exps = f.exps[kept]
    # fibres: column 0 holds e = alpha_1 + beta_1, column n is cleared
    e = exps[:, 0] + exps[:, n]
    key = exps.copy()
    key[:, 0], key[:, n] = e, 0
    order, starts = sorted_runs(key)
    fibre = np.empty(len(e), dtype=np.int64)
    fibre[order] = np.arange(len(starts)).repeat(np.diff(np.append(starts, len(e))))
    rest = key[order[starts]]
    e = rest[:, 0].copy()
    rest[:, 0] = 0
    top = int(e.max(initial=0))
    G = np.zeros((len(rest), top + 1), dtype=complex)
    G[fibre, exps[:, 0]] = f.coeffs[kept]
    Gabs = np.abs(G)
    # T[b, a] = (-mu)^(b - a - 1) / a_1 for b > a, else 0
    lag = np.arange(top + 1)[:, None] - np.arange(top + 1) - 1
    T = np.where(lag >= 0, (-mu) ** np.maximum(lag, 0), 0) / a1
    Tabs = np.abs(T)
    H = []  # (rows, coefficients, bounds) of H_m(z, 0) / m!
    for m in range(top // 2 + 1):
        cur = e - 2 * m  # each fibre's degree in z_1, zbar_1
        live = cur >= 0
        G, Gabs, e, rest, cur = (a[live] for a in (G, Gabs, e, rest, cur))
        width = int(cur.max(initial=0)) + 1
        G, Gabs = G[:, :width], Gabs[:, :width]
        pick = np.flatnonzero(Gabs[np.arange(len(cur)), cur] > 0)
        rows = rest[pick]
        rows[:, 0] = cur[pick]
        H.append((rows, G[pick, cur[pick]] / factorial(m), Gabs[pick, cur[pick]] / factorial(m)))
        scale = np.maximum(cur[:, None] - np.arange(width), 0)
        G, Gabs = G * scale, Gabs * scale
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
    return rows, x, bound


def _division_degrees(f, powers, bounds):
    """Per degree of f: P_d from _divided_P of Q = powers.q and the residual P_d(z, Q) - f_d.

    Yields (rows, x, DegreeReport) for each degree d of f.  Coefficients
    below NOISE_ULPS units of their rounding bound are left out of x.  The
    report's residual is the 2-norm (_norm) of P_d(z, Q) - f_d for that
    pruned P_d: the images of P_d's rows under powers and f_d's rows, summed
    by sorted_runs; its condition is the recurrence's growth factor, the
    largest rounding bound of P_d over its largest coefficient (at least 1,
    and 1 for an empty P_d).

    The degrees are gated in ascending groups, each expanded by one images,
    sorted_runs and reduceat and then split by degree: the runs come in
    graded order, so each degree's are one slice, summed in the order a
    degree alone would sum them.  A group takes the next degree while its
    image entries stay within GATE_ENTRIES (and MAX_TERM_PAIRS), counted
    with the size of each built Q power and the number of monomials of its
    degree for one not yet built.  The first degree of a group always
    joins, so a degree of more than MAX_TERM_PAIRS entries is refused
    (InputError) alone, with its own count.  A later degree whose Q power
    cannot be built (an overflow, NumericalFailure, or a product beyond the
    pair limit) closes the group before it and meets that error alone, so
    a failing degree ends the run before anything above it can.

    The division's P_d need not minimise the residual: on data off the
    image it can exceed the least-squares minimum by a factor that grows
    with the degree and |mu| (about 1000 at n = 1, lambda = 0.49, degree
    20).  extend_general decides which degrees are solved again.
    """
    n = f.n
    rows, x, bound = _divided_P(f, powers.q)
    x[np.abs(x) < NOISE_ULPS * np.finfo(float).eps * bound] = 0
    degrees = np.flatnonzero(np.diff(bounds))  # P has rows in these degrees only
    wdeg = np.searchsorted(rows[:, :n].sum(axis=1) + 2 * rows[:, -1], np.arange(len(bounds)))
    keep = np.flatnonzero(x)
    cut = np.searchsorted(keep, wdeg)  # P_d's kept rows are keep[cut[d]:cut[d + 1]]
    ks = rows[keep, -1]
    # per degree of f by reduceat: P has rows in those degrees only, so each
    # segment ends where the next one starts, and a sentinel closes the last
    nonempty = cut[degrees + 1] > cut[degrees]
    top = np.maximum.reduceat(np.append(ks, 0), cut[degrees]) * nonempty  # the highest Q power P_d needs
    bmax = np.maximum.reduceat(np.append(bound, 0), wdeg[degrees])
    xmax = np.maximum.reduceat(np.append(np.abs(x), 0), wdeg[degrees])
    # terms of Q^k: at most the monomials of degree 2k in z, zbar until it is built
    upper = np.array([comb(2 * k + 2 * n - 1, 2 * n - 1) for k in range(int(top.max()) + 1)], dtype=float)
    limit = min(GATE_ENTRIES, polyalg.MAX_TERM_PAIRS)
    i = 0
    while i < len(degrees):
        built = min(len(upper), len(powers.size))
        sizes = np.concatenate((powers.size[:built], upper[built:]))
        cost = np.append(0, np.cumsum(sizes[ks]))
        cost = cost[cut[degrees[i:] + 1]] - cost[cut[degrees[i]]]  # entries of degrees i, i + 1, ... together
        j = i + max(1, int(np.searchsorted(cost, limit, side="right")))
        for g in range(i, j):
            try:
                powers.grow(top[g])
            except (InputError, NumericalFailure):
                if g == i:
                    raise
                j = g
                break
        da, db = degrees[i], degrees[j - 1]
        lo, hi = bounds[da], bounds[db + 1]
        batch = keep[cut[da] : cut[db + 1]]
        P_rows, P_x = rows[batch], x[batch]
        entries, src, count = powers.images(P_rows, "extend_general: P_d(z, Q)")
        entries = np.concatenate((entries, f.exps[lo:hi]))
        vals = np.concatenate((powers.vals[src] * P_x.repeat(count), -f.coeffs[lo:hi]))
        order, starts = sorted_runs(entries)
        R = np.add.reduceat(vals[order], starts)
        split = np.searchsorted(entries[order[starts]].sum(axis=1), degrees[i:j], side="right")
        r0 = 0
        for g, r1 in zip(range(i, j), split.tolist()):
            d = int(degrees[g])
            p0, p1 = cut[d] - cut[da], cut[d + 1] - cut[da]
            condition = max(1.0, bmax[g] / xmax[g]) if nonempty[g] else 1.0
            residual = _norm(R[r0:r1])
            report = DegreeReport(degree=d, residual=residual, condition=condition)
            yield P_rows[p0:p1], P_x[p0:p1], report
            r0 = r1
        i = j


def extend_general(f: Polynomial, model: QuadricModel, tol=DEFAULT_EXTEND_TOL) -> ExtensionResult:
    """Degree-by-degree extension over an elliptic quadric.

    For each total degree d of f, finds coefficients of
    {z^alpha w^k : |alpha| + 2k = d} so that substituting w = Q matches
    the degree-d part of f.  When every term of Q is even in each coordinate
    (_even_coordinates; A and B diagonal: every normal form and every n = 1
    model), P comes from exact division (_division_degrees), and a degree
    whose residual exceeds the warning floor below is solved again by least
    squares (_dense_degree, by parity class, on the same QPowers) when its
    block fits MAX_GRADED_ENTRIES; any other Q gets one dense least-squares
    solve per degree (_dense_degree, whose classes read the same test: one
    class).  Each residual is an overflow-safe 2-norm (_norm), finite for
    data of any finite scale.  Degrees are gated in ascending order: the
    failure threshold for a degree's residual is tol * (1 + max |coeff f|),
    and residuals inside (1e-11, tol) of that scale pass with a conditioning
    warning.  The first failing degree ends the run with a certificate built
    from f's part in that degree, f's rows bounds[d]:bounds[d + 1].  On the
    division route that certificate is built first, and when its
    lower_bound on the least-squares residual reaches the threshold the
    degree fails on the division's residual and growth factor with no
    least-squares solve; otherwise a degree's verdict and warning rest on
    the least-squares residual wherever its block fits.  The result's
    residual is the largest of the degrees' gated residuals.
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
    powers = QPowers(Q)
    division = _even_coordinates(Q) and len(f.coeffs)
    if division:
        degrees = _division_degrees(f, powers, bounds)
    else:
        degrees = (
            _dense_degree(f, powers, d, bounds[d], bounds[d + 1])
            for d in range(len(bounds) - 1)
            if bounds[d] < bounds[d + 1]
        )
    reports = []
    P_exps, P_coeffs = [np.zeros((0, 2 * n + 1), dtype=np.int64)], [np.zeros(0, dtype=complex)]
    for rows, x, report in degrees:
        d, residual, certificate = report.degree, report.residual, None
        lo, hi = bounds[d], bounds[d + 1]  # f_d's rows, also the certificate's data
        recheck = division and residual > CONDITIONING_WARN_FLOOR * scale
        if recheck and prod(_block_shape(n, d)) <= MAX_GRADED_ENTRIES:
            if residual >= threshold:
                certificate = _structural_certificate(
                    Polynomial(n, f.exps[lo:hi], f.coeffs[lo:hi]), model, d, residual
                )
            if certificate is None or certificate.lower_bound is None or certificate.lower_bound < threshold:
                rows, x, report = _dense_degree(f, powers, d, lo, hi)
                residual = report.residual
        if residual >= threshold:
            reports.append(replace(report, warning=None))
            certificate = certificate or _structural_certificate(
                Polynomial(n, f.exps[lo:hi], f.coeffs[lo:hi]), model, d, residual
            )
            certificate = replace(certificate, residual=residual)
            break
        if report.warning is None and residual > CONDITIONING_WARN_FLOOR * scale:
            report = replace(
                report,
                warning=f"degree {d} residual {residual:.3e} is close to the threshold; "
                f"condition number {report.condition:.3e}",
            )
        reports.append(report)
        P_exps.append(rows)
        P_coeffs.append(x)
    else:
        certificate = None
    return ExtensionResult(
        status="NotExtendible" if certificate else "Extended",
        P=None if certificate else Polynomial(n, np.concatenate(P_exps), np.concatenate(P_coeffs)),
        residual=max((r.residual for r in reports), default=0.0),  # a failing degree's is the largest
        certificate=certificate,
        degree_reports=tuple(reports),
    )


def _restrict(p: Polynomial, v, rotation):
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


def slice_oracle(f: Polynomial, model: QuadricModel, P: Polynomial, directions):
    """Cross-check P against independent one-variable extensions on slices.

    For each unit direction v, the model restricted to z = xi v is an
    n = 1 quadric with invariant lambda' = |sum_j lambda_j v_j^2| after a
    rotation of xi; the restricted data is extended from scratch there and
    compared with P restricted to the same rotated line.  Returns the
    maximum coefficient deviation over all directions.  A model that is
    not elliptic by quadform's rule (some lambda_j >= 1/2 - ELLIPTIC_MARGIN)
    is refused (NotElliptic) before any slice; otherwise every
    lambda' <= max lambda_j is elliptic too.
    """
    if not P.is_holomorphic():
        raise InputError("slice_oracle: P must be holomorphic (no zbar terms)")
    ok, lambdas = is_normal_form(model)
    if not ok:
        raise InputError("slice_oracle: model must be in Bishop normal form")
    if _classify_lambdas(lambdas) != "elliptic":
        j = int(lambdas.argmax())
        raise NotElliptic(
            f"slice_oracle: invariant lambda_{j + 1} = {lambdas[j]} "
            f"is at least 1/2 - {ELLIPTIC_MARGIN:g}, not elliptic",
            eigenvalue=float(lambdas[j]),
        )
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
        sliced_model = QuadricModel(A=np.eye(1), B=np.array([[lam_prime]]))
        f_v = _restrict(f, v, rotation)
        result = extend_general(f_v, sliced_model)
        if not result.extended:
            return float("inf")
        dev = (result.P - _restrict(P, v, rotation)).max_coeff()
        max_dev = max(max_dev, dev)
    return max_dev


def verify_extension(P: Polynomial, f: Polynomial, model: QuadricModel, seed=0):
    """Max of |P(z, rho(z)) - f(z)| over VERIFY_SAMPLES random z in the ball of radius default_radii(model).

    The points are uniform in the ball: from the generator seeded with seed,
    one standard_normal draw gives every sample's direction (a row of 2n
    normals: Re z, then Im z) and one uniform draw every radius t^(1/2n).
    """
    if not P.is_holomorphic():
        raise InputError("verify_extension: P must be holomorphic")
    n = model.n
    rng = np.random.default_rng(seed)
    directions = rng.standard_normal((VERIFY_SAMPLES, 2 * n))
    t = rng.uniform(size=VERIFY_SAMPLES) ** (1.0 / (2 * n))
    zr = directions * (default_radii(model) * t / np.linalg.norm(directions, axis=1))[:, None]
    z = zr[:, :n] + 1j * zr[:, n:]
    err = np.abs(P.evaluate(z, q_polynomial(model).evaluate(z).real) - f.evaluate(z))
    return float(np.max(err, initial=0.0))
