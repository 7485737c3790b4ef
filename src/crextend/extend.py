"""Holomorphic polynomial extension of boundary data on elliptic quadrics.

Given a polynomial f(z, zbar) on the quadric w = Q(z, zbar), extendibility
means there is a holomorphic polynomial P(z, w) with P(z, Q(z, zbar)) = f.
Because Q is homogeneous of degree 2, matching the degree-d part of f only
involves monomials z^alpha w^k with |alpha| + 2k = d, so the problem splits
into one problem per degree.  On a diagonal model (every normal form) P
comes from exact division by dQ/dzbar_1 for every degree at once, and the
degrees are checked in ascending batches, each P_d(z, Q) - f_d of a batch
expanded and summed together; only a degree that does not match is solved
again by least squares, unless its certificate already proves that the
least-squares residual fails.  Any other elliptic Q is a linear change of
coordinates z = T zeta away from its Bishop normal form: its small degrees
are each one dense least-squares solve, and from the first larger degree
on f(T zeta) is divided in the normal form's coordinates, mapped back and
checked in the input's coordinates as on a diagonal Q.  A failing degree
is reported together with its residual and, when the model exposes one,
the structural obstruction behind it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import comb, factorial, hypot, inf, isfinite, isnan, prod

import numpy as np

from . import polyalg
from .errors import InputError, NotElliptic, NumericalFailure
from .moments import cr_violations
from .polyalg import Polynomial, QPowers, check_pairs, monomials, sorted_runs
from .quadform import (
    QuadricModel,
    _bishop,
    classification,
    default_radii,
    elliptic_normal_form,
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
# Largest graded block a model that is not diagonal solves by
# least squares (_congruent_degrees): n = 2 to degree 7, n = 3 to degree 4.
# From the first larger degree on it divides in normal-form coordinates, at
# a set-up cost of about 1 ms, which an obstruction found there pays on top
# of its least-squares recheck.  Measured with cli.main on extend-graded,
# seeds 8-10, blocks 0-6 (best of 5 per document, bounds interleaved, one
# BLAS thread, 2-vCPU Xeon VM), against every degree dense: the sum over
# documents fell 6.3-7.0% at 2**10, 5.7-6.6% at 2**12 and 4.7-5.0% at
# 2**13; the median document moved -0.3..+2.9% at 2**10 and -3.2..+0.7% at
# 2**12, where n = 3 obstructions at degree 4 stay below the median.
DENSE_ENTRIES = 2**12


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
    At n >= 2 on a diagonal model (QuadricModel.diagonal) it is the first
    violated CR field X.  Every coefficient of X f is y . f for a
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
        violation = model.diagonal and next(cr_violations(f, model), None)
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


def _dense_degree(f, powers, d, lo, hi, diagonal):
    """Degree d of f (rows lo:hi) by least squares over the graded block, class by class.

    Returns (basis, x, DegreeReport), with a rank-deficiency note as the
    report's warning.  When the model is diagonal, z^alpha Q^k keeps
    alpha's parities, so the block is block-diagonal over the parity
    classes: (alpha mod 2) @ 2^j for column z^alpha w^k,
    ((alpha' + beta') mod 2) @ 2^j for row z^alpha' zbar^beta' (one class
    at n = 1, where all have the parity of d); any other model makes the
    whole block one class.  Each class, in ascending order, is built as a whole block is:
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
    bits = (1 << np.arange(n)) * diagonal
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


def _divided_P(f, a, b, moduli=None):
    """P with f = P(z, Q) for Q = sum_j a_j z_j zbar_j + b_j z_j^2 + conj(b_j) zbar_j^2, by exact division along z_1.

    Returns (rows, x, bound): P's rows alpha | 0 | k in graded order, their
    coefficients, and for each a bound on the moduli summed into it, starting
    from moduli (one per term of f, |f|'s coefficients when not given).

    With a real and positive, dQ/dzbar_1 = a_1 (z_1 + mu zbar_1) with mu =
    2 conj(b_1) / a_1, and |mu| < 1 on an elliptic Q.  From H_0 = f, H_(m+1)
    = (dH_m/dzbar_1) / (dQ/dzbar_1) is d^m P / dw^m (z, Q).  A term with some zbar_j, j >= 2,
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
    a1 = float(a[0])
    # Python scalars: numpy divides a complex by a real through its reciprocal, which rounds differently
    mu = 2 * complex(b[0]).conjugate() / a1
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
    G, Gabs = np.zeros((len(rest), top + 1), dtype=complex), np.zeros((len(rest), top + 1))
    G[fibre, exps[:, 0]] = f.coeffs[kept]
    Gabs[fibre, exps[:, 0]] = (np.abs(f.coeffs) if moduli is None else moduli)[kept]
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
    q0 = Polynomial(n, 2 * unit[:n], b)
    step = np.concatenate((unit[2 * n : 2 * n + 1], q0.exps))  # w - q0
    step_vals = np.concatenate(([1.0], -q0.coeffs))
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


def _division_degrees(f, powers, bounds, divided):
    """Per degree of f: P_d from divided and the residual P_d(z, Q) - f_d, Q = powers.q.

    divided is (rows, x, bound) of P, rows sorted by weighted degree and in
    the degrees of f only (_divided_P or _normal_form_P).  Yields (rows, x,
    DegreeReport, True) for each degree d of f, True as every degree here
    is divided.  Coefficients below NOISE_ULPS units of their rounding
    bound are left out of x.  The report's residual is the 2-norm (_norm) of P_d(z, Q) - f_d for that pruned P_d: the
    images of P_d's rows under powers and f_d's rows, summed by sorted_runs;
    its condition is the recurrence's growth factor, the largest rounding
    bound of P_d over its largest coefficient (at least 1, and 1 for an
    empty P_d).

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
    rows, x, bound = divided
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
            yield P_rows[p0:p1], P_x[p0:p1], report, True
            r0 = r1
        i = j


def _normal_coordinates(model):
    """(T, T^-1, lambdas, s) with Q(T zeta) = s (|zeta|^2 + 2 Re sum_j lambdas_j zeta_j^2), lambdas ascending.

    Q = z^H H z + 2 Re z^T B z, H = model.hermitian and B's symmetric part,
    is brought to Bishop normal form (quadform._bishop) with Q's scale s =
    max |H_jk| taken out, so T has unit scale whatever Q's scale; T^H (H /
    s) T = I gives T^-1, refined by one Newton step.  The model is elliptic
    (extend_general refuses any model that quadform.classification does not
    call elliptic), so H is positive definite.
    """
    n, H = model.n, model.hermitian
    s = float(np.abs(H).max())
    H = (H + H.conj().T) / (2 * s)
    T, lambdas = _bishop(*np.linalg.eigh(H), (model.B + model.B.T) / (2 * s))
    T_inv = T.conj().T @ H
    return T, T_inv @ (2 * np.eye(n) - T @ T_inv), lambdas, s  # one Newton step on T^-1


def _rank(M, W):
    """Each row's place in monomials() order among the monomials of its degree.

    Before alpha come, for each m < n, the monomials that agree with alpha
    up to its last m entries and have a smaller sum there: W[sigma, m - 1]
    = C(sigma - 1 + m, m) of them, sigma the sum of alpha's last m entries.
    """
    return W[M[:, :0:-1].cumsum(axis=1), np.arange(M.shape[1] - 1)].sum(axis=1)


@lru_cache(maxsize=256)
def _monomial_plan(n, top):
    """Read-only index tables of the monomials of degree <= top in n >= 2 variables.

    Built on the tables for top - 1.  Returns (W, offset, monos, steps): W
    for _rank; monos the monomials by degree, each degree in monomials()
    order from offset[a]; steps[a - 1] = (parent, j, down) for degree a,
    where j[alpha] is a coordinate with alpha_j > 0, parent[alpha] the place
    of alpha - e_j in degree a - 1, and down[gamma, k] the place of gamma -
    e_k, or the size of degree a - 1 where gamma_k = 0.
    """
    W = np.array([[comb(sigma - 1 + m, m) for m in range(1, n)] for sigma in range(top + 1)], dtype=np.int64)
    if top == 0:
        plan = W, np.array([0, 1]), np.zeros((1, n), dtype=np.int64), ()
    else:
        _, offset, monos, steps = _monomial_plan(n, top - 1)
        M = monos[offset[-2] :]
        up = (M[:, None, :] + np.eye(n, dtype=np.int64)).reshape(-1, n)  # row i n + k: M[i] + e_k
        r = _rank(up, W)
        down = np.full((comb(top + n - 1, n - 1), n), len(M))
        down[r, np.tile(np.arange(n), len(M))] = np.arange(len(M)).repeat(n)
        new = np.empty((len(down), n), dtype=np.int64)
        new[r] = up
        j = new.argmax(axis=1)
        step = (down[np.arange(len(new)), j], j, down)
        plan = W, np.append(offset, offset[-1] + len(new)), np.concatenate((monos, new)), (*steps, step)
    for array in (*plan[:3], *(a for step in plan[3] for a in step)):
        array.setflags(write=False)
    return plan


def _symmetric_powers(Ts, steps):
    """Per degree a: S_a, S_a[i] the a-th symmetric power of Ts[i] on the monomials of _monomial_plan.

    (Ts[i] zeta)^alpha = sum_gamma S_a[i][alpha, gamma] zeta^gamma.  Row
    alpha of S_a is row alpha - e_j of S_(a-1) times row j of each T: entry
    gamma sums S_(a-1)[alpha - e_j, gamma - e_k] T[j, k] over k, an appended
    zero column standing in where gamma_k = 0.
    """
    out = [np.ones((len(Ts), 1, 1), dtype=complex)]
    for parent, j, down in steps:
        S = out[-1]
        padded = np.concatenate((S, np.zeros((*S.shape[:2], 1))), axis=2).reshape(len(Ts), -1)
        G = padded.take(parent[:, None, None] * (S.shape[1] + 1) + down.T, axis=1)  # [i, alpha, k, gamma]
        out.append((Ts[:, j, None, :] @ G)[:, :, 0])
    return out


def _table_entries(n, top):
    """Entries of _normal_form_P's tables up to degree top: (top + 1) x the
    monomials of degree <= top in z, and n x sum_a (dim S_a)^2 for the
    symmetric powers and their gathers."""
    sizes = [comb(a + n - 1, n - 1) for a in range(top + 1)]
    return (top + 1) * sum(sizes) + n * sum(size * size for size in sizes)


def _normal_form_P(f, model, lo, hi):
    """P with f_d = P_d(z, Q) for the degrees d of f's rows lo:hi, on any elliptic model.

    By division in normal-form coordinates; returns (rows, x, bound) as
    _divided_P does, rows sorted by weighted degree.  With Q(T zeta) = s
    Qn(zeta), Qn in Bishop normal form (_normal_coordinates), f(T zeta) =
    P~(zeta, s Qn) is divided along zeta_1, where lambda_1 is the smallest,
    by the diagonals s and s lambdas, and P(z, w) = P~(T^-1 z, w).
    _divided_P drops every term with some zetabar_j, j >= 2, so only the terms zeta^gamma zetabar_1^b of f(T zeta)
    are formed: zbar^beta gives prod_j conj(T_j1)^beta_j zetabar_1^|beta| in
    closed form, and z^alpha gives row alpha of the symmetric power
    S_|alpha|(T) (_symmetric_powers); P~'s coefficients go back through
    S_a(T^-1) = S_a(T)^-1.  The moduli go along, through |S_a(T)| into
    _divided_P and through |S_a(T^-1)| out of it, so bound covers P's
    rounding as on a diagonal Q.  The caller bounds the tables
    (_table_entries).
    """
    n, top = f.n, int(f.exps[hi - 1].sum())
    T, T_inv, lambdas, s = _normal_coordinates(model)
    W, offset, monos, steps = _monomial_plan(n, top)
    blocks = _symmetric_powers(np.stack((T, T_inv)), steps)

    def through(k, alpha, values, moduli, i):
        """(k, monomial, value, modulus) of each entry of X S_a(Ts[i]) with a nonzero
        modulus in |X| |S_a(Ts[i])|: X holds values, |X| moduli, at row k and alpha's column."""
        shape = (int(k.max(initial=0)) + 1, len(monos))
        X, Xabs = np.zeros(shape, dtype=complex), np.zeros(shape)
        where = (k, offset[alpha.sum(axis=1)] + _rank(alpha, W))
        np.add.at(X, where, values)
        np.add.at(Xabs, where, moduli)
        cols = [slice(offset[a], offset[a + 1]) for a in range(top + 1)]
        Y = np.concatenate([X[:, c] @ S[i] for c, S in zip(cols, blocks)], axis=1)
        Yabs = np.concatenate([Xabs[:, c] @ np.abs(S[i]) for c, S in zip(cols, blocks)], axis=1)
        k, g = np.divmod(np.flatnonzero(Yabs), len(monos))
        return k, monos[g], Y[k, g], Yabs[k, g]

    exps = f.exps[lo:hi]
    u = f.coeffs[lo:hi] * np.prod(np.conj(T[:, 0]) ** exps[:, n : 2 * n], axis=1)
    b, gamma, c, cabs = through(exps[:, n : 2 * n].sum(axis=1), exps[:, :n], u, np.abs(u), 0)
    rows = np.zeros((len(b), 2 * n + 1), dtype=np.int64)
    rows[:, :n], rows[:, n] = gamma, b  # zeta^gamma zetabar_1^b
    rows, x, bound = _divided_P(Polynomial._wrap(n, rows, c), s * np.ones(n), s * lambdas, cabs)
    k, alpha, x, bound = through(rows[:, -1], rows[:, :n], x, bound, 1)
    order = np.argsort(alpha.sum(axis=1) + 2 * k, kind="stable")
    return np.column_stack((alpha, 0 * alpha, k))[order], x[order], bound[order]


def _congruent_degrees(f, model, powers, bounds):
    """(rows, x, DegreeReport, divided) per degree of f on a model that is not diagonal.

    A degree whose graded block has at most DENSE_ENTRIES entries is solved
    by least squares (_dense_degree).  At the first larger degree the
    normal-form division (_normal_form_P) is set up once for it and every
    degree above whose tables fit MAX_GRADED_ENTRIES (_table_entries), and
    _division_degrees gates them in the input's coordinates.  The next
    degree of f, if any, is refused (InputError) when the run reaches it.
    Blocks and tables grow with the degree, so each route takes one range.
    """
    n, last = f.n, len(bounds) - 2
    for d in np.flatnonzero(np.diff(bounds)).tolist():
        if prod(_block_shape(n, d)) > DENSE_ENTRIES:
            break
        yield *_dense_degree(f, powers, d, bounds[d], bounds[d + 1], diagonal=False), False
    else:
        return
    top = d - 1
    while top < last and _table_entries(n, top + 1) <= MAX_GRADED_ENTRIES:
        top += 1
    if top >= d:
        lo, hi = bounds[d], bounds[top + 1]
        yield from _division_degrees(f, powers, np.clip(bounds, lo, hi), _normal_form_P(f, model, lo, hi))
    if top < last:
        d = int(f.exps[bounds[top + 1]].sum())
        raise InputError(
            f"extend_general: the normal-form division at n = {n}, degree {d} "
            f"needs {_table_entries(n, d)} table entries, more than {MAX_GRADED_ENTRIES}"
        )


def extend_general(f: Polynomial, model: QuadricModel, tol=DEFAULT_EXTEND_TOL) -> ExtensionResult:
    """Degree-by-degree extension over an elliptic quadric.

    For each total degree d of f, finds coefficients of
    {z^alpha w^k : |alpha| + 2k = d} so that substituting w = Q matches the
    degree-d part of f.  A model that quadform.classification does not call
    elliptic is refused (NotElliptic); on diagonal A and B that verdict is
    read off the diagonals, with no decomposition of A.  On a diagonal
    model (QuadricModel.diagonal: every normal form and every n = 1 model),
    P comes from exact division by the quadric of the model's diagonals
    (_divided_P) for every degree.  Any other model solves each degree whose
    graded block has at most DENSE_ENTRIES entries by least squares
    (_dense_degree, whose classes read the same test: one class), and
    divides every degree from the first larger one on in normal-form
    coordinates (_normal_form_P, via _congruent_degrees).  Divided degrees
    are gated in the input's coordinates (_division_degrees), and one whose
    residual exceeds the warning floor below is solved again by least
    squares (_dense_degree, by parity class, on the same QPowers) when its
    block fits MAX_GRADED_ENTRIES.  Each residual is an overflow-safe 2-norm
    (_norm), finite for data of any finite scale.  Degrees are gated in
    ascending order: the failure threshold for a degree's residual is
    tol * (1 + max |coeff f|), and residuals inside (1e-11, tol) of that
    scale pass with a conditioning warning.  The first failing degree ends
    the run with a certificate built from f's part in that degree, f's rows
    bounds[d]:bounds[d + 1].  On the division route that certificate is
    built first, and when its lower_bound on the least-squares residual
    reaches the threshold the degree fails on the division's residual and
    growth factor with no least-squares solve; otherwise a degree's verdict
    and warning rest on the least-squares residual wherever its block fits.
    The result's residual is the largest of the degrees' gated residuals.
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
    kind = classification(model)
    if kind != "elliptic":
        raise NotElliptic(f"extend_general: model is {kind}, not elliptic")
    n = f.n
    scale = 1.0 + f.max_coeff()
    threshold = tol * scale
    # f has no w-terms, so its rows are sorted by total degree: one slice per degree
    bounds = np.searchsorted(f.exps.sum(axis=1), np.arange(f.degree() + 2))
    powers = QPowers(q_polynomial(model))
    if model.diagonal and len(f.coeffs):
        degrees = _division_degrees(f, powers, bounds, _divided_P(f, model.A.diagonal().real, model.B.diagonal()))
    else:
        degrees = _congruent_degrees(f, model, powers, bounds)
    reports = []
    P_exps, P_coeffs = [np.zeros((0, 2 * n + 1), dtype=np.int64)], [np.zeros(0, dtype=complex)]
    for rows, x, report, divided in degrees:
        d, residual, certificate = report.degree, report.residual, None
        lo, hi = bounds[d], bounds[d + 1]  # f_d's rows, also the certificate's data
        recheck = divided and residual > CONDITIONING_WARN_FLOOR * scale
        if recheck and prod(_block_shape(n, d)) <= MAX_GRADED_ENTRIES:
            if residual >= threshold:
                certificate = _structural_certificate(
                    Polynomial(n, f.exps[lo:hi], f.coeffs[lo:hi]), model, d, residual
                )
            if certificate is None or certificate.lower_bound is None or certificate.lower_bound < threshold:
                rows, x, report = _dense_degree(f, powers, d, lo, hi, model.diagonal)
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
    maximum coefficient deviation over all directions.  A model that
    quadform.elliptic_normal_form refuses is refused before any slice;
    otherwise every lambda' <= max lambda_j is elliptic too.
    """
    if not P.is_holomorphic():
        raise InputError("slice_oracle: P must be holomorphic (no zbar terms)")
    lambdas = elliptic_normal_form(model, "slice_oracle")
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
