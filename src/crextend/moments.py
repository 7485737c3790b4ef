"""Leaf parametrization and moment conditions on n = 1 models, CR fields for n >= 2.

The hull leaf at level s = r^2 of the normal form w = z*zbar +
lam*(z^2 + zbar^2) is the ellipse zeta(t) = r w(t), parametrized by

    w(t) = p cos t + i q sin t = a e^(it) + b e^(-it),

with p = (1 + 2 lam)^(-1/2), q = (1 - 2 lam)^(-1/2) and a, b = (p +- q)/2,
so that Q(w(t)) = 1.  With a real higher order term E the leaf is
zeta(t) = r psi(t) w(t), where the radial factor psi > 0 solves

    psi^2 + E(zeta, conj(zeta)) / r^2 = 1.

Boundary data f extends holomorphically to the filled leaves exactly
when every moment integral over every leaf vanishes:

    integral over the leaf of f * zeta^ell d(zeta) = 0   for all ell >= 0.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass

import numpy as np

from .errors import InputError, LeafSolveError, NumericalError
from .polyalg import DEGREE_CAP, Polynomial
from .quadform import QuadricModel, default_radii, elliptic_normal_form, q_polynomial

NEWTON_TOL = 1e-13
NEWTON_MAX_ITER = 50
LEAF_RESIDUAL_TOL = 1e-12
CR_ZERO_TOL = 1e-12
DEFAULT_GRID_N = 512
DEFAULT_MOMENT_TOL = 1e-8
DEFAULT_LEAF_FRACTIONS = (0.05, 0.1, 0.2, 0.4)


def _check_grid_size(N):
    if not isinstance(N, (int, np.integer)) or N < 64 or (N & (N - 1)) != 0:
        raise InputError(f"grid size must be a power of two >= 64, got {N}")


def eval_on_grid(p: Polynomial, z):
    """Values of an n = 1 polynomial at an array of z (w = 0)."""
    if p.n != 1:
        raise InputError("eval_on_grid expects an n = 1 polynomial")
    return p.evaluate(np.asarray(z, dtype=complex)[..., None])


@dataclass(frozen=True)
class LeafParametrization:
    """One hull leaf of an n = 1 model, sampled on an equispaced grid in t.

    u is the leaf at r = 1 and du its exact t-derivative (with E, psi' w +
    psi w' with the implicit psi'): the leaf is r u.  The E = None leaves of
    one LeafGrid, and the leaves of one radial_leaf_family, share both arrays.
    A leaf with E also holds its grid's unit curve w and its real profile
    psi, u = psi w; without them u is the unit curve and psi = 1.
    """

    r: float
    level: float  # value of w on the leaf
    u: np.ndarray
    du: np.ndarray
    unit: np.ndarray | None = None
    psi: np.ndarray | None = None

    @property
    def N(self):
        return len(self.u)

    def points(self):
        """Curve samples zeta_j = r * u_j."""
        return self.r * self.u

    def tangent(self):
        """d(zeta)/dt on the grid."""
        return self.r * self.du


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)


@functools.lru_cache(maxsize=None)
def _unit_circle(N):
    """e^(2 pi i j / N) for 0 <= j < N, read-only: computed once per grid size and shared."""
    eit = np.exp(2j * np.pi * np.arange(N) / N)
    _read_only(eit)
    return eit


class LeafGrid:
    """The t grid of one n = 1 model in Bishop normal form, shared by its leaves.

    Built once per (model, N): it checks that the model has n = 1, is in
    normal form and elliptic (quadform.elliptic_normal_form), and that N
    is a power of two >= 64, and holds the unit leaf w(t) = p cos t +
    i q sin t (Q(w) = 1) and its derivative wt, both in closed form.
    Without E every leaf is r w, so the residual max |Q(w) - 1|
    is formed here once; with E, leaf(r) runs Newton for the radial factor
    psi of the leaf z = r psi w.  Then E = sum_d (r psi)^d G_d with the
    real parts G_d = Re E_d(w) of E's homogeneous parts on the grid; G
    holds them, row d - 3 for degree d, 3 <= d <= deg E, and Gt their
    t-derivatives G_d' = 2 Re(E_d,z(w) wt) (E_d is real).  One by-degree
    pass of E and one of E_z (Polynomial.evaluate_parts) give every row here,
    with the bits of one evaluate per part.
    """

    def __init__(self, model: QuadricModel, N=DEFAULT_GRID_N):
        if model.n != 1:
            raise InputError("solve_leaf: model must have n = 1")
        lam = float(elliptic_normal_form(model, "solve_leaf")[0])
        _check_grid_size(N)
        eit = _unit_circle(N)
        p, q = (1.0 + 2.0 * lam) ** -0.5, (1.0 - 2.0 * lam) ** -0.5
        self.w = p * eit.real + 1j * q * eit.imag
        self.wt = 1j * q * eit.real - p * eit.imag
        self.E = model.E
        if self.E is None:
            Q = np.abs(self.w) ** 2 + 2.0 * lam * (self.w * self.w).real
            self.residual = float(np.maximum.reduce(np.abs(Q - 1.0)))
        else:
            degrees = range(3, int(self.E.exps.sum(axis=1).max()) + 1)
            with np.errstate(all="ignore"):  # an overflowing G_d leaves Newton unconverged
                self.G = _part_rows(self.E, self.w, degrees, np.real)
                self.Gt = _part_rows(
                    self.E.partial_derivative("z"), self.w, [d - 1 for d in degrees], lambda F: 2.0 * (F * self.wt).real
                )
            _read_only(self.G, self.Gt)
        _read_only(self.w, self.wt)

    def leaf(self, r, tol=LEAF_RESIDUAL_TOL):
        """The leaf at label r, with the bits and errors of solve_leaf(model, r, N, tol)."""
        r = float(r)
        if not r > 0:
            raise InputError(f"solve_leaf: leaf label r must be positive, got {r}")
        if self.E is None:
            u, du, residual = self.w, self.wt, self.residual
        else:
            psi, psi_t, residual = self._newton(r)
            if np.any(psi <= 0):
                raise LeafSolveError(f"leaf profile is not positive at r = {r:g}")
            u, du = psi * self.w, psi_t * self.w + psi * self.wt
            _read_only(psi, u, du)
        if residual >= tol:
            raise LeafSolveError(f"leaf residual {residual:.3e} exceeds {tol:g}")
        if self.E is None:
            return LeafParametrization(r=r, level=r * r, u=u, du=du)
        return LeafParametrization(r=r, level=r * r, u=u, du=du, unit=self.w, psi=psi)

    def _newton(self, r):
        """psi at label r, its t-derivative and its residual, by Newton from psi = 1.

        Each pass takes g from _defect, with C_d = r^(d-2) G_d scaled
        once per leaf; the first g whose sup is below NEWTON_TOL ends the
        loop, and that sup is the residual.  Only a pass that goes on to
        step forms g_psi, from _slope.  At that psi, g(psi, t) = 0 gives
        psi_t = -g_t / g_psi with g_t = psi^3 sum_d r^(d-2) G_d' psi^(d-3).
        An r whose square overflows is refused by name; a larger power or
        an iterate that overflows is not warned about: it never meets
        NEWTON_TOL, so the loop ends in the LeafSolveError that reports
        the failure.
        """
        try:
            r**2  # only to refuse an r whose square overflows
        except OverflowError as exc:
            raise LeafSolveError(f"leaf solve at r = {r:g}: r^2 overflows {exc}") from exc
        psi = np.ones(len(self.w))
        with np.errstate(all="ignore"):
            degrees = np.arange(3, len(self.G) + 3)
            scale = (np.float64(r) ** (degrees - 2))[:, None]
            C = self.G * scale
            dC = C * degrees[:, None]
            for _ in range(NEWTON_MAX_ITER):
                g = _defect(psi, C)
                residual = float(np.maximum.reduce(np.abs(g)))
                if residual < NEWTON_TOL:
                    return psi, -psi * psi * psi * _horner(psi, self.Gt * scale) / _slope(psi, dC), residual
                psi = psi - g / _slope(psi, dC)
        raise LeafSolveError(
            f"leaf solve did not converge in {NEWTON_MAX_ITER} iterations at r = {r:g} "
            "(leaf may be outside the model's validity radius)"
        )


def _part_rows(p, w, degrees, form):
    """The rows form(p_d(w)) for d in degrees, p_d = 0 where p has no term of degree d, from one by-degree pass."""
    parts = p.evaluate_parts(w[:, None])
    return np.array([form(parts[d] if d in parts else np.zeros(len(w), dtype=complex)) for d in degrees])


def _horner(psi, C):
    """sum_d C_d psi^(d-3) at psi, by one Horner pass; row d - 3 of C is C_d."""
    h = C[-1]
    for c in C[-2::-1]:
        h = h * psi + c
    return h


def _defect(psi, C):
    """g = psi^2 - 1 + sum_d C_d psi^d at psi."""
    return psi * psi * (1.0 + psi * _horner(psi, C)) - 1.0


def _slope(psi, dC):
    """g_psi = dg/dpsi at psi; row d - 3 of dC is d C_d."""
    return psi * (2.0 + psi * _horner(psi, dC))


def solve_leaf(
    model: QuadricModel, r, N=DEFAULT_GRID_N, tol=LEAF_RESIDUAL_TOL
) -> LeafParametrization:
    """The leaf at level r^2 in the ellipse parameter t: one leaf of LeafGrid(model, N).

    The model must be n = 1 in Bishop normal form with lam < 1/2.  Without
    E the leaf is r w(t) in closed form and no Newton step is taken; with
    E, Newton solves for the radial factor psi from psi = 1.  The last
    defect's sup (without E, max |Q(w) - 1|) is the leaf residual: not
    below tol is a LeafSolveError, as is a Newton loop that does not
    converge or a psi that is not positive.
    """
    return LeafGrid(model, N).leaf(r, tol)


def _by_degree(rows, x):
    """sum_d x^d rows[d] by one Horner pass down from the top degree.

    rows maps each degree present to its N-entry row; x is a scalar or an
    N-entry row.  A lone degree-0 row is returned as it is, read-only.
    """
    top = max(rows)
    if not top:
        return rows[0]
    h = rows[top] * x
    for d in range(top - 1, -1, -1):
        if d in rows:
            h += rows[d]
        if d:
            h *= x
    return h


class LeafValues:
    """An n = 1 polynomial f on hull leaves, from its homogeneous parts on the leaves' unit curve.

    A leaf is zeta = r psi w, with w its unit curve and psi its real profile
    (psi = 1 without E), so f(zeta) = sum_d (r psi)^d F_d with F_d = f_d(w).
    The rows F_d, one N-entry row per degree present, come from one pass of
    evaluate's term loop (Polynomial.evaluate_parts) when the first leaf of a
    curve asks, and serve every later leaf of it: calling this on a leaf
    gives f at its points by one Horner pass in r psi.  On a leaf without E
    the moments need no values: f_d's moment on the leaf is r^(d + ell + 1)
    mu_(d,ell), with mu_(d,ell) the trapezoid sum of F_d w^ell dw 2pi/N,
    taken once per curve by a running product in w (unit_moments), so a
    leaf's moments are scalar sums over the degrees.
    """

    def __init__(self, f: Polynomial):
        self.f = f
        self.unit = None
        self.mu_key = (None, None, None)

    def rows(self, unit):
        """F on a unit curve, read-only, built once per curve."""
        if unit is not self.unit:
            rows = self.f.evaluate_parts(unit[:, None]) or {0: np.zeros(len(unit), dtype=complex)}
            _read_only(*rows.values())
            self.unit, self._rows = unit, rows
        return self._rows

    def __call__(self, leaf):
        """f at the leaf's points r u."""
        if leaf.psi is None:
            return _by_degree(self.rows(leaf.u), leaf.r)
        return _by_degree(self.rows(leaf.unit), leaf.r * leaf.psi)

    def unit_moments(self, leaf, top):
        """[{d: mu_(d,ell)} for ell <= top] on the curve of a leaf without psi, kept for the next leaf of it.

        Each degree's weight F_d du 2pi/N is multiplied by u once per order
        and summed at each, one degree at a time, so mu_(d,ell) has the
        same bits whatever top is.
        """
        rows = self.rows(leaf.u)
        u, du, top_done = self.mu_key
        if not (u is leaf.u and du is leaf.du and top_done == top):
            mu = [{} for _ in range(top + 1)]
            for d, F_d in rows.items():
                term = F_d * leaf.du
                term *= 2 * np.pi / leaf.N
                for ell in range(top + 1):
                    if ell:
                        term *= leaf.u
                    mu[ell][d] = complex(np.add.reduce(term))
            self.mu_key, self._mu = (leaf.u, leaf.du, top), mu
        return self._mu


def moment_integral(f: Polynomial, leaf: LeafParametrization, ell) -> complex:
    """Trapezoidal value of the leaf moment integral of f * zeta^ell d(zeta).

    With zeta = r u(t), the integral is r^(ell+1) times the sum of
    u^ell * f * du * 2pi/N over the grid; the rule is exact for a
    trigonometric polynomial integrand of degree below N (polynomial f
    on an E = None leaf) and spectrally accurate for smooth periodic ones.
    On a leaf of check_moments' grid it is that entry for (leaf.r, ell),
    bit for bit.
    """
    if ell < 0:
        raise InputError(f"moment order ell must be >= 0, got {ell}")
    if f.has_w_terms():
        raise InputError("moment_integral: f must not contain w")
    return _leaf_moments(LeafValues(f), leaf, ell)[ell]


def _leaf_moments(values: LeafValues, leaf, Lmax):
    """The moments of orders 0..Lmax of f (values) on one leaf.

    Every scale r^(ell + 1) is formed first, ell ascending, so an overflow
    is named before any moment is.  Without psi the moment is r^(ell + 1)
    times the scalar sum_d r^d mu_(d,ell) over unit_moments, degrees
    ascending, with r^d by repeated multiplication once per leaf.  With psi
    the weight f(r u) du 2pi/N is formed once and multiplied by u once per
    order, summed at each.  Either way an ell has the same bits whatever
    Lmax comes with it.
    """
    scales = []
    for ell in range(Lmax + 1):
        try:
            scales.append(leaf.r ** (ell + 1))
        except OverflowError as exc:
            raise NumericalError(
                f"moment of order ell = {ell} on the leaf of radius r = {leaf.r:g}: r^(ell + 1) overflows"
            ) from exc
    if leaf.psi is None:
        mu = values.unit_moments(leaf, Lmax)
        powers = [1.0]
        for _ in range(max(mu[0])):
            powers.append(powers[-1] * leaf.r)  # inf past overflow, which the finiteness check names
        return [scale * sum(powers[d] * m for d, m in mu_ell.items()) for scale, mu_ell in zip(scales, mu)]
    term = values(leaf) * leaf.du
    term *= 2 * np.pi / leaf.N
    moments = []
    for ell, scale in enumerate(scales):
        if ell:
            term *= leaf.u
        moments.append(complex(scale * np.add.reduce(term)))
    return moments


@dataclass(frozen=True)
class MomentReport:
    """Moments for every (leaf, ell) pair plus a pass/fail verdict."""

    entries: tuple  # ((r, ell, complex value), ...) ordered by (r, ell)
    max_modulus: float
    tol: float
    passed: bool
    leaves: tuple
    Lmax: int
    N: int

    def to_json_dict(self):
        return {
            "passed": self.passed,
            "max_modulus": self.max_modulus,
            "tol": self.tol,
            "Lmax": self.Lmax,
            "N": self.N,
            "leaves": list(self.leaves),
            "entries": [
                {"r": r, "ell": ell, "re": v.real, "im": v.imag} for r, ell, v in self.entries
            ],
        }


def check_moments(
    f: Polynomial,
    model: QuadricModel,
    leaves=None,
    Lmax=None,
    tol=DEFAULT_MOMENT_TOL,
    N=DEFAULT_GRID_N,
    leaf_tol=LEAF_RESIDUAL_TOL,
) -> MomentReport:
    """Evaluate all moments with ell <= Lmax on a ladder of leaves.

    Defaults: Lmax = deg f + 4, leaves = {0.05, 0.1, 0.2, 0.4} * delta_z
    with delta_z = default_radii(model).
    Lmax must lie in [0, DEGREE_CAP + 4] and leaves must not be empty, so
    that a pass always rests on some moments.  The ladder is solved leaf by
    leaf through one LeafGrid(model, N), each leaf with the bits and errors
    of solve_leaf; leaf_tol is its residual tolerance.  f's homogeneous
    parts are evaluated on the grid's unit curve once (LeafValues): without
    E every entry is a scalar sum in r over the grid's mu_(d,ell), with E
    each leaf's values are one Horner pass in r psi and their weight serves
    every ell.  Each entry has the bits of moment_integral.
    Passes iff every moment modulus is below tol.  A moment whose scale
    r^(ell + 1) overflows, or whose value is not finite, is a
    NumericalError naming r and ell, raised before any later leaf's error.
    f must not contain w.
    """
    if f.has_w_terms():
        raise InputError("check_moments: f must not contain w")
    if Lmax is None:
        Lmax = max(f.degree(), 0) + 4
    if not 0 <= Lmax <= DEGREE_CAP + 4:
        raise InputError(f"check_moments: Lmax must be in [0, {DEGREE_CAP + 4}], got {Lmax}")
    if leaves is None:
        delta_z = default_radii(model)
        leaves = tuple(c * delta_z for c in DEFAULT_LEAF_FRACTIONS)
    leaves = tuple(sorted(float(r) for r in leaves))
    if not leaves:
        raise InputError("check_moments: need at least one leaf")
    entries = []
    max_mod = 0.0
    grid = LeafGrid(model, N)
    values = LeafValues(f)
    values.rows(grid.w)  # before any leaf, so that F's power tables and a leaf's arrays never coexist
    for r in leaves:
        leaf = grid.leaf(r, leaf_tol)
        for ell, v in enumerate(_leaf_moments(values, leaf, Lmax)):
            if not cmath.isfinite(v):
                raise NumericalError(
                    f"moment of order ell = {ell} on the leaf of radius r = {leaf.r:g} is not finite: {v}"
                )
            entries.append((leaf.r, ell, v))
            max_mod = max(max_mod, abs(v))
    return MomentReport(
        entries=tuple(entries),
        max_modulus=max_mod,
        tol=tol,
        passed=max_mod < tol,
        leaves=leaves,
        Lmax=Lmax,
        N=N,
    )


@dataclass(frozen=True)
class CRFieldViolation:
    j: int
    ell: int
    field_applied: Polynomial  # X f, nonzero

    def to_json_dict(self):
        return {
            "pair": [self.j, self.ell],
            "field_applied": self.field_applied.to_json_dict(),
            "field_applied_pretty": self.field_applied.pretty(),
        }


def cr_check(f: Polynomial, model: QuadricModel):
    """Apply every tangential CR field to f symbolically (n >= 2).

    The fields are X = rho_zbar_j d/dzbar_ell - rho_zbar_ell d/dzbar_j
    for j < ell, with rho = Q + E.  Returns the list of violations, pairs
    (j, ell) in ascending order; f is a CR function on the model exactly
    when the list is empty.  cr_violations yields the same violations one
    at a time, so a caller that needs only the first applies no further
    field.
    """
    return list(cr_violations(f, model))


def cr_violations(f: Polynomial, model: QuadricModel):
    """The violations of cr_check, generated pair by pair."""
    if model.n < 2:
        raise InputError("cr_check requires n >= 2; use moment conditions for n = 1")
    if f.n != model.n:
        raise InputError(f"cr_check: f has n = {f.n}, model has n = {model.n}")
    if f.has_w_terms():
        raise InputError("cr_check: f must not contain w")
    rho = q_polynomial(model)
    rho_zb = [rho.partial_derivative("zbar", j) for j in range(model.n)]
    f_zb = [f.partial_derivative("zbar", j) for j in range(model.n)]
    for j in range(model.n):
        for ell in range(j + 1, model.n):
            Xf = rho_zb[j] * f_zb[ell] - rho_zb[ell] * f_zb[j]
            if Xf.max_coeff() >= CR_ZERO_TOL:
                yield CRFieldViolation(j=j, ell=ell, field_applied=Xf)
