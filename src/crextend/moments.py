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

from .errors import InputError, LeafSolveError, NotElliptic
from .polyalg import Polynomial
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
    """One hull leaf of an n = 1 model, sampled on an equispaced theta grid."""

    lam: float
    rho: Polynomial | None
    r: float
    level: float  # value of w on the leaf
    theta: np.ndarray
    phi: np.ndarray
    phi_theta: np.ndarray

    @property
    def N(self):
        return len(self.theta)

    def points(self):
        """Curve samples zeta_j = r * phi_j * exp(i theta_j)."""
        return self.r * self.phi * np.exp(1j * self.theta)

    def tangent(self):
        """d(zeta)/d(theta) on the grid."""
        return self.r * (self.phi_theta + 1j * self.phi) * np.exp(1j * self.theta)


def fourier_derivative(values):
    """Spectral derivative of a periodic grid function on [0, 2pi)."""
    N = len(values)
    freqs = np.fft.fftfreq(N, d=1.0 / N)
    if N % 2 == 0:
        freqs[N // 2] = 0.0  # drop the unpaired Nyquist mode
    out = np.fft.ifft(1j * freqs * np.fft.fft(values))
    return out.real if np.isrealobj(values) else out


def solve_leaf(
    model: QuadricModel, r, N=DEFAULT_GRID_N, tol=LEAF_RESIDUAL_TOL
) -> LeafParametrization:
    """Solve for the leaf profile phi at level r^2 by vectorized Newton iteration.

    The model must be n = 1 in Bishop normal form with lam < 1/2.  For
    E = 0 the closed form phi = (1 + 2 lam cos 2theta)^(-1/2) is exact and
    Newton terminates immediately; with E present it is the initial guess.
    A leaf whose defining-equation residual is not below tol is a
    LeafSolveError.
    """
    if model.n != 1:
        raise InputError("solve_leaf: model must have n = 1")
    ok, lambdas = is_normal_form(model)
    if not ok:
        raise InputError("solve_leaf: model must be in Bishop normal form (A = I, B = diag)")
    lam = float(lambdas[0])
    if lam >= 0.5 - 1e-10:
        raise NotElliptic(f"solve_leaf: model is not elliptic (lambda = {lam})", eigenvalue=lam)
    r = float(r)
    if not r > 0:
        raise InputError(f"solve_leaf: leaf label r must be positive, got {r}")
    _check_grid_size(N)

    theta = 2 * np.pi * np.arange(N) / N
    c2 = np.cos(2 * theta)
    base = 1.0 + 2.0 * lam * c2
    phi = base**-0.5

    E = model.E
    if E is not None:
        eit = np.exp(1j * theta)
        Ez = E.partial_derivative("z")
        Ezb = E.partial_derivative("zbar")
        converged = False
        for _ in range(NEWTON_MAX_ITER):
            z = r * phi * eit
            g = phi**2 * base + eval_on_grid(E, z).real / r**2 - 1.0
            if np.max(np.abs(g)) < NEWTON_TOL:
                converged = True
                break
            dEdphi = (eval_on_grid(Ez, z) * eit + eval_on_grid(Ezb, z) * np.conj(eit)).real * r
            gp = 2 * phi * base + dEdphi / r**2
            phi = phi - g / gp
        if not converged:
            raise LeafSolveError(
                f"leaf solve did not converge in {NEWTON_MAX_ITER} iterations at r = {r:g} "
                "(leaf may be outside the model's validity radius)"
            )
    if np.any(phi <= 0):
        raise LeafSolveError(f"leaf profile is not positive at r = {r:g}")

    residual = _leaf_residual(lam, E, r, theta, phi)
    if residual >= tol:
        raise LeafSolveError(f"leaf residual {residual:.3e} exceeds {tol:g}")

    phi_theta = fourier_derivative(phi)
    theta.setflags(write=False)
    phi.setflags(write=False)
    phi_theta.setflags(write=False)
    return LeafParametrization(
        lam=lam,
        rho=q_polynomial(model),
        r=r,
        level=r * r,
        theta=theta,
        phi=phi,
        phi_theta=phi_theta,
    )


def _leaf_residual(lam, E, r, theta, phi):
    g = phi**2 * (1.0 + 2.0 * lam * np.cos(2 * theta)) - 1.0
    if E is not None:
        z = r * phi * np.exp(1j * theta)
        g = g + eval_on_grid(E, z).real / r**2
    return float(np.max(np.abs(g)))


def moment_integral(f: Polynomial, leaf: LeafParametrization, ell) -> complex:
    """Trapezoidal value of the leaf moment integral of f * zeta^ell d(zeta).

    The integrand in theta is f(zeta, conj zeta) * phi^ell * (phi_theta + i phi)
    * exp(i (ell+1) theta), scaled by r^(ell+1); the trapezoid rule is
    spectrally accurate for these periodic analytic integrands.
    """
    if ell < 0:
        raise InputError(f"moment order ell must be >= 0, got {ell}")
    if f.has_w_terms():
        raise InputError("moment_integral: f must not contain w")
    fvals = eval_on_grid(f, leaf.points())
    return _moment_from_values(fvals, leaf, ell)


def _moment_from_values(fvals, leaf, ell):
    integrand = (
        fvals
        * leaf.phi**ell
        * (leaf.phi_theta + 1j * leaf.phi)
        * np.exp(1j * (ell + 1) * leaf.theta)
    )
    return complex(leaf.r ** (ell + 1) * (2 * np.pi / leaf.N) * np.sum(integrand))


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
    Passes iff every moment modulus is below tol; leaf_tol is solve_leaf's
    residual tolerance.
    """
    if Lmax is None:
        Lmax = max(f.degree(), 0) + 4
    if leaves is None:
        delta_z, _ = default_radii(model)
        leaves = tuple(c * delta_z for c in DEFAULT_LEAF_FRACTIONS)
    leaves = tuple(sorted(float(r) for r in leaves))
    entries = []
    max_mod = 0.0
    for r in leaves:
        leaf = solve_leaf(model, r, N, leaf_tol)
        fvals = eval_on_grid(f, leaf.points())
        for ell in range(Lmax + 1):
            v = _moment_from_values(fvals, leaf, ell)
            entries.append((r, ell, v))
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
