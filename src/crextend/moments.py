"""Leaf parametrization and moment conditions on n = 1 models, CR fields for n >= 2.

The hull leaf at level s = r^2 of an elliptic model in normal form,
w = z*zbar + lam*(z^2 + zbar^2) + E, is parametrized as
zeta(theta) = r * phi(theta) * exp(i theta) where phi > 0 solves

    phi^2 + 2*lam*phi^2*cos(2 theta) + E(zeta, conj(zeta)) / r^2 = 1.

Boundary data f extends holomorphically to the filled leaves exactly
when every moment integral over every leaf vanishes:

    integral over the leaf of f * zeta^ell d(zeta) = 0   for all ell >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, LeafSolveError, NotElliptic, NumericalError
from .polyalg import DEGREE_CAP, Polynomial
from .quadform import QuadricModel, default_radii, is_normal_form, q_polynomial

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
    """One hull leaf of an n = 1 model, sampled on an equispaced theta grid.

    eit is e^(i theta) on the grid.  The leaves of one LeafGrid share it
    and theta; a leaf built without it computes it here, once.
    """

    r: float
    level: float  # value of w on the leaf
    theta: np.ndarray
    phi: np.ndarray
    phi_theta: np.ndarray
    eit: np.ndarray | None = None

    def __post_init__(self):
        if self.eit is None:
            object.__setattr__(self, "eit", np.exp(1j * self.theta))

    @property
    def N(self):
        return len(self.theta)

    def points(self):
        """Curve samples zeta_j = r * phi_j * exp(i theta_j)."""
        return self.r * self.phi * self.eit

    def tangent(self):
        """d(zeta)/d(theta) on the grid."""
        return self.r * (self.phi_theta + 1j * self.phi) * self.eit


def fourier_derivative(values):
    """Spectral derivative of a periodic grid function on [0, 2pi)."""
    N = len(values)
    freqs = np.fft.fftfreq(N, d=1.0 / N)
    if N % 2 == 0:
        freqs[N // 2] = 0.0  # drop the unpaired Nyquist mode
    out = np.fft.ifft(1j * freqs * np.fft.fft(values))
    return out.real if np.isrealobj(values) else out


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)


class LeafGrid:
    """The theta grid of one n = 1 model in Bishop normal form, shared by its leaves.

    Built once per (model, N): it checks that the model has n = 1, is in
    normal form with lam < 1/2, and that N is a power of two >= 64, and
    holds theta, e^(i theta), base = 1 + 2 lam cos 2theta, the closed-form
    profile phi0 = base^(-1/2), which is exact for E = 0, and E with E_z.
    Without E every leaf's profile is phi0, so phi0, its Fourier
    derivative and its residual are formed here once; with E, leaf(r)
    runs Newton from phi0 for that leaf alone.
    """

    def __init__(self, model: QuadricModel, N=DEFAULT_GRID_N):
        if model.n != 1:
            raise InputError("solve_leaf: model must have n = 1")
        ok, lambdas = is_normal_form(model)
        if not ok:
            raise InputError("solve_leaf: model must be in Bishop normal form (A = I, B = diag)")
        lam = float(lambdas[0])
        if lam >= 0.5 - 1e-10:
            raise NotElliptic(f"solve_leaf: model is not elliptic (lambda = {lam})", eigenvalue=lam)
        _check_grid_size(N)
        self.N = N
        self.theta = 2 * np.pi * np.arange(N) / N
        self.eit = np.exp(1j * self.theta)
        self.base = 1.0 + 2.0 * lam * np.cos(2 * self.theta)
        self.phi0 = self.base**-0.5
        self.E = model.E
        if self.E is None:
            self.phi0_theta = fourier_derivative(self.phi0)
            self.residual0 = float(np.max(np.abs(self.phi0**2 * self.base - 1.0)))
            _read_only(self.phi0_theta)
        else:
            self.Ez = self.E.partial_derivative("z")
        _read_only(self.theta, self.eit, self.base, self.phi0)

    def leaf(self, r, tol=LEAF_RESIDUAL_TOL):
        """The leaf at label r, with the bits and errors of solve_leaf(model, r, N, tol)."""
        r = float(r)
        if not r > 0:
            raise InputError(f"solve_leaf: leaf label r must be positive, got {r}")
        if self.E is None:
            phi, phi_theta, residual = self.phi0, self.phi0_theta, self.residual0
        else:
            phi, residual = self._newton(r)
            phi_theta = fourier_derivative(phi)
            _read_only(phi, phi_theta)
        if np.any(phi <= 0):
            raise LeafSolveError(f"leaf profile is not positive at r = {r:g}")
        if residual >= tol:
            raise LeafSolveError(f"leaf residual {residual:.3e} exceeds {tol:g}")
        return LeafParametrization(
            r=r, level=r * r, theta=self.theta, phi=phi, phi_theta=phi_theta, eit=self.eit
        )

    def _newton(self, r):
        """phi at label r and its residual, by Newton from phi0.

        The loop ends at the first defect whose sup is below NEWTON_TOL;
        that sup is the residual.  One set of power tables per pass serves
        E and E_z.  E is real, so E_zbar = conj(E_z) and
        dE/dphi = 2 r Re(E_z e^(i theta)).  Iterates that overflow are not
        warned about: they never meet NEWTON_TOL, so the loop ends in the
        LeafSolveError that reports the failure.
        """
        r2 = r**2  # Python's pow, not r * r: about 1 in 1000 differs in the last bit
        phi = self.phi0
        with np.errstate(all="ignore"):
            for _ in range(NEWTON_MAX_ITER):
                tables = self.E.power_tables((r * phi * self.eit)[..., None])
                g = phi**2 * self.base - 1.0
                g += self.E.sum_terms(tables).real / r2
                residual = float(np.max(np.abs(g)))
                if residual < NEWTON_TOL:
                    return phi, residual
                phi = phi - g / (2 * phi * self.base + 2 * (self.Ez.sum_terms(tables) * self.eit).real / r)
        raise LeafSolveError(
            f"leaf solve did not converge in {NEWTON_MAX_ITER} iterations at r = {r:g} "
            "(leaf may be outside the model's validity radius)"
        )


def solve_leaf(
    model: QuadricModel, r, N=DEFAULT_GRID_N, tol=LEAF_RESIDUAL_TOL
) -> LeafParametrization:
    """Solve for the leaf profile phi at level r^2: one leaf of LeafGrid(model, N).

    The model must be n = 1 in Bishop normal form with lam < 1/2.  Newton
    starts from the closed form phi = (1 + 2 lam cos 2theta)^(-1/2), which
    is exact for E = 0, so then no Newton step is taken.  The last defect's
    sup is the leaf residual: not below tol is a LeafSolveError, as is a
    Newton loop that does not converge or a profile that is not positive.
    """
    return LeafGrid(model, N).leaf(r, tol)


def moment_integral(f: Polynomial, leaf: LeafParametrization, ell) -> complex:
    """Trapezoidal value of the leaf moment integral of f * zeta^ell d(zeta).

    With zeta = r u, u = phi e^(i theta), the integral is r^(ell+1) times
    the sum of u^ell * f * (phi_theta + i phi) e^(i theta) * 2pi/N over the
    grid; the trapezoid rule is spectrally accurate for these periodic
    analytic integrands.
    """
    if ell < 0:
        raise InputError(f"moment order ell must be >= 0, got {ell}")
    if f.has_w_terms():
        raise InputError("moment_integral: f must not contain w")
    return _leaf_moments(f, leaf, (ell,))[0]


def _leaf_moments(f, leaf, ells):
    """Moments of f of each order in ells on one leaf, from one weight per leaf.

    The weight w = f * (phi_theta + i phi) e^(i theta) * 2pi/N and u = phi
    e^(i theta) are formed once.  ells must ascend: the running product
    w * u^ell is multiplied by u once per order and summed at each ell, so
    an ell has the same bits whatever ells come with it.
    """
    eit = leaf.eit
    u = leaf.phi * eit
    fvals = eval_on_grid(f, leaf.r * leaf.phi * eit)  # the bits of leaf.points()
    term = fvals * (leaf.phi_theta + 1j * leaf.phi) * eit * (2 * np.pi / leaf.N)
    order = 0
    values = []
    for ell in ells:
        try:
            scale = leaf.r ** (ell + 1)
        except OverflowError as exc:
            raise NumericalError(
                f"moment of order ell = {ell} on the leaf of radius r = {leaf.r:g}: r^(ell + 1) overflows"
            ) from exc
        for _ in range(ell - order):
            term *= u
        order = ell
        values.append(complex(scale * np.sum(term)))
    return values


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

    Defaults: Lmax = deg f + 4, leaves = {0.05, 0.1, 0.2, 0.4} * delta_z.
    Lmax must lie in [0, DEGREE_CAP + 4] and leaves must not be empty, so
    that a pass always rests on some moments.  The ladder is solved leaf by
    leaf through one LeafGrid(model, N), each leaf with the bits and errors
    of solve_leaf; leaf_tol is its residual tolerance.  f is evaluated on
    each leaf once and its weight serves every ell, as in moment_integral.
    Passes iff every moment modulus is below tol.  A moment whose scale
    r^(ell + 1) overflows is a NumericalError naming r and ell, raised
    before any later leaf's error.  f must not contain w.
    """
    if f.has_w_terms():
        raise InputError("check_moments: f must not contain w")
    if Lmax is None:
        Lmax = max(f.degree(), 0) + 4
    if not 0 <= Lmax <= DEGREE_CAP + 4:
        raise InputError(f"check_moments: Lmax must be in [0, {DEGREE_CAP + 4}], got {Lmax}")
    if leaves is None:
        delta_z, _ = default_radii(model)
        leaves = tuple(c * delta_z for c in DEFAULT_LEAF_FRACTIONS)
    leaves = tuple(sorted(float(r) for r in leaves))
    if not leaves:
        raise InputError("check_moments: need at least one leaf")
    entries = []
    max_mod = 0.0
    grid = LeafGrid(model, N)
    for r in leaves:
        leaf = grid.leaf(r, leaf_tol)
        for ell, v in enumerate(_leaf_moments(f, leaf, range(Lmax + 1))):
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
    for j < ell, with rho = Q + E.  Returns the list of violations; f is
    a CR function on the model exactly when the list is empty.
    """
    if model.n < 2:
        raise InputError("cr_check requires n >= 2; use moment conditions for n = 1")
    if f.n != model.n:
        raise InputError(f"cr_check: f has n = {f.n}, model has n = {model.n}")
    if f.has_w_terms():
        raise InputError("cr_check: f must not contain w")
    rho = q_polynomial(model)
    rho_zb = [rho.partial_derivative("zbar", j) for j in range(model.n)]
    f_zb = [f.partial_derivative("zbar", j) for j in range(model.n)]
    violations = []
    for j in range(model.n):
        for ell in range(j + 1, model.n):
            Xf = rho_zb[j] * f_zb[ell] - rho_zb[ell] * f_zb[j]
            if Xf.max_coeff() >= CR_ZERO_TOL:
                violations.append(CRFieldViolation(j=j, ell=ell, field_applied=Xf))
    return violations
