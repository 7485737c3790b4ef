"""Leafwise Cauchy extension with per-point error estimates, and boundary-regularity probes.

Each hull leaf of an n = 1 model is a closed curve; continuous boundary
data f on the model restricts to the curve, and the Cauchy integral

    F(z) = (1 / 2 pi i) * integral of f(zeta) / (zeta - z) d(zeta)

extends it holomorphically to the enclosed disk.  The probes quantify
what survives at the CR singularity: F's z-derivatives stay bounded
(zderiv_bound_check), while the transverse derivative F_s(0, s) can blow
up like s^(-1/2) when the model degenerates (normal_derivative_probe).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError, NearBoundary
from .moments import DEFAULT_GRID_N, LEAF_RESIDUAL_TOL, LeafGrid, LeafParametrization
from .moments import _check_grid_size, _read_only, eval_on_grid
from .polyalg import Polynomial
from .quadform import QuadricModel

NEAR_BOUNDARY_FACTOR = 0.05
WINDING_TOL = 0.01
MIN_LADDER_RUNGS = 6
MAX_LADDER_RUNGS = 64
ZDERIV_SLACK = 1e-6


@dataclass(frozen=True)
class BoundaryData:
    """Boundary values on the model, evaluated a whole leaf at a time.

    evaluator maps (array of points z on a leaf, leaf level s = value of w)
    to the array of data values at those points, of the same shape.  fz and
    fzbar, when given, map the same arguments to the tangential derivatives
    f_z and f_zbar, which only zderiv_bound_check calls; from_polynomial
    differentiates inside them.
    """

    evaluator: Callable
    description: str
    fz: Callable | None = None
    fzbar: Callable | None = None

    @classmethod
    def from_polynomial(cls, p: Polynomial, description=None):
        if p.n != 1:
            raise InputError("BoundaryData.from_polynomial expects an n = 1 polynomial")
        if p.has_w_terms():
            raise InputError("BoundaryData.from_polynomial: polynomial must not contain w")
        return cls(
            evaluator=lambda z, s: eval_on_grid(p, z),
            description=description or p.pretty(),
            fz=lambda z, s: eval_on_grid(p.partial_derivative("z"), z),
            fzbar=lambda z, s: eval_on_grid(p.partial_derivative("zbar"), z),
        )

    @classmethod
    def builtin(cls, name, value=1.0):
        """Named data sets: "sqrt-re-w", "constant", "identity"."""
        if name == "sqrt-re-w":
            # equals |z|^2 on the degenerate model w = |z|^4
            def zero(z, s):
                return np.zeros(np.shape(z), dtype=complex)

            return cls(
                evaluator=lambda z, s: np.full(np.shape(z), complex(np.sqrt(s))),
                description="sqrt-re-w",
                fz=zero,
                fzbar=zero,
            )
        if name == "constant":
            return cls.from_polynomial(Polynomial.constant(1, value), f"constant {value}")
        if name == "identity":
            return cls.from_polynomial(Polynomial.z(1), description="identity")
        raise InputError(f"unknown builtin boundary data {name!r}")


@dataclass(frozen=True)
class LeafExtension:
    """Cauchy extension values on one leaf and their quadrature estimates, keyed by point."""

    interior_values: dict  # z -> F(z, s)
    winding_defects: dict  # z -> |winding sum - 1|
    error_estimates: dict  # z -> winding defect * max |f| over the leaf's nodes


def _cauchy_values(data: BoundaryData, leaf: LeafParametrization):
    """zeta, zeta', f and the Cauchy weights f zeta' on one leaf's nodes, each formed once."""
    zeta, dzeta = leaf.points(), leaf.tangent()
    fvals = data.evaluator(zeta, leaf.level)
    return zeta, dzeta, fvals, fvals * dzeta


def _cauchy_at(weights, diff):
    """The one trapezoid Cauchy sum: sum(weights / diff) / (i N), diff = zeta - z or a power of it."""
    return complex(np.sum(weights / diff) / (1j * len(diff)))


def _winding_defect(z, diff, dzeta, inradius):
    """|winding - 1| at z from diff = zeta - z; NearBoundary unless z is inside the curve, 0.05 * inradius from it."""
    if np.min(np.abs(diff)) < NEAR_BOUNDARY_FACTOR * inradius:
        raise NearBoundary(
            f"point {z} is within {NEAR_BOUNDARY_FACTOR} * inradius of the leaf curve",
            point=z,
        )
    winding = _cauchy_at(dzeta, diff)
    defect = abs(winding - 1.0)
    if defect > WINDING_TOL:
        raise NearBoundary(
            f"point {z} is not inside the leaf curve (winding number {winding.real:.3f})",
            point=z,
        )
    return defect


def cauchy_extend(data: BoundaryData, leaf: LeafParametrization, points) -> LeafExtension:
    """Trapezoidal Cauchy integral of the data over one leaf.

    Every requested point must lie strictly inside the leaf curve and at
    least 0.05 * inradius away from it, else NearBoundary names the point.
    Each point forms zeta - z once, for its _winding_defect and its value
    (_cauchy_at over the one weight array f zeta').  The winding sum is the
    same rule applied to f = 1, so |winding - 1| times max |f| over the nodes
    estimates the error of F: a measured bound on holomorphic data up to
    roundoff, not a proven one (data with zbar terms exceeded it by up to 5%).
    """
    zeta, dzeta, fvals, weights = _cauchy_values(data, leaf)
    inradius = float(np.min(np.abs(zeta)))
    sup_f = float(np.max(np.abs(fvals)))
    values, defects, estimates = {}, {}, {}
    for z in points:
        z = complex(z)
        diff = zeta - z
        defects[z] = _winding_defect(z, diff, dzeta, inradius)
        values[z] = _cauchy_at(weights, diff)
        estimates[z] = defects[z] * sup_f
    return LeafExtension(interior_values=values, winding_defects=defects, error_estimates=estimates)


def radial_leaf_family(radius_fn: Callable, N=DEFAULT_GRID_N):
    """Leaves of a radially symmetric model w = g(|z|^2).

    The leaf at level s is the circle of radius radius_fn(s); this covers
    degenerate models such as w = |z|^4 (radius_fn = s -> s**0.25), which
    the quadric leaf solver cannot represent.  N follows the LeafGrid rule.
    """
    _check_grid_size(N)
    u = np.exp(2j * np.pi * np.arange(N) / N)
    du = 1j * u
    _read_only(u, du)  # every leaf of the family holds these

    def family(s):
        r = float(radius_fn(s))
        if not r > 0:
            raise InputError(f"radial leaf radius must be positive, got {r} at s = {s}")
        return LeafParametrization(r=r, level=float(s), u=u, du=du)

    return family


def quadric_leaf_family(model: QuadricModel, N=DEFAULT_GRID_N, tol=LEAF_RESIDUAL_TOL):
    """Leaves of an n = 1 normal-form quadric model, labeled by level s = r^2.

    Every leaf comes from one LeafGrid(model, N), built when the first leaf
    is asked for, so a model solve_leaf refuses is refused then, after the
    caller's own input checks; tol is solve_leaf's residual tolerance.
    """
    grid = None

    def family(s):
        nonlocal grid
        if not s > 0:
            raise InputError(f"leaf level must be positive, got {s}")
        if grid is None:
            grid = LeafGrid(model, N)
        return grid.leaf(np.sqrt(s), tol)

    return family


@dataclass(frozen=True)
class DerivativeProbeReport:
    """Fitted growth law of the transverse derivative F_s(0, s)."""

    exponent: float | None
    label: str  # "power-law" or "bounded (≈0)"
    rows: tuple  # (s, F(0, s), F_s estimate or None)


def normal_derivative_probe(data: BoundaryData, leaf_family: Callable, s_ladder) -> DerivativeProbeReport:
    """Estimate d/ds of F(0, s) on a geometric ladder of leaf levels.

    F(0, s) is cauchy_extend's value at z = 0 on each leaf, NearBoundary
    checks included; F_s is formed by 3-point central differences on the
    (non-uniform) ladder and the exponent is the least-squares slope of
    log |F_s| against log s.  A blow-up rate of -1/2 is the signature of a
    degenerate model; 0 means the derivative stays bounded.
    """
    s_ladder = [float(s) for s in s_ladder]
    if not MIN_LADDER_RUNGS <= len(s_ladder) <= MAX_LADDER_RUNGS:
        raise InputError(
            f"s ladder needs at least {MIN_LADDER_RUNGS} and at most {MAX_LADDER_RUNGS} rungs"
        )
    s = np.array(s_ladder)
    h = np.diff(s)
    if s[0] <= 0 or np.any(h <= 0):
        raise InputError("s ladder must be positive and strictly increasing")
    ratios = s[1:] / s[:-1]
    if ratios.max() / ratios.min() > 1.0 + 1e-6:
        raise InputError("s ladder must be geometric (constant ratio)")

    F0 = np.array([cauchy_extend(data, leaf_family(v), [0.0]).interior_values[0.0] for v in s_ladder])
    h1, h2 = h[:-1], h[1:]
    Fs = (
        -h2 / (h1 * (h1 + h2)) * F0[:-2]
        + (h2 - h1) / (h1 * h2) * F0[1:-1]
        + h1 / (h2 * (h1 + h2)) * F0[2:]
    )
    rows = tuple(zip(s_ladder, F0.tolist(), [None, *Fs.tolist(), None]))
    # roundoff in F0 is amplified by the 1/h quotient; below this the
    # difference cannot resolve a derivative at all
    eps = float(np.finfo(float).eps)
    scale = max(1.0, float(np.max(np.abs(F0))))
    floors = 1e-13 * scale + 32 * eps * scale * (1.0 / h1 + 1.0 / h2)
    mags = np.abs(Fs)
    if np.all(mags < floors):
        return DerivativeProbeReport(exponent=None, label="bounded (≈0)", rows=rows)
    slope = float(np.polyfit(np.log(s[1:-1]), np.log(mags), 1)[0])
    return DerivativeProbeReport(exponent=slope, label="power-law", rows=rows)


@dataclass(frozen=True)
class ZDerivReport:
    ok: bool
    max_fz: float
    sup_bound: float


def zderiv_bound_check(data: BoundaryData, leaf: LeafParametrization, interior_points) -> ZDerivReport:
    """Check |F_z| <= sup over the leaf of (|f_z| + |f_zbar|) + ZDERIV_SLACK.

    Every interior sample must pass cauchy_extend's checks, else
    NearBoundary names it.  F_z there is _cauchy_at over (zeta - z)^2, the
    trapezoid rule for the differentiated Cauchy integral (1 / 2 pi i) *
    integral of f(zeta) / (zeta - z)^2 d(zeta), with no step size; the
    tangential derivatives of f come from the data's fz / fzbar.
    """
    if data.fz is None or data.fzbar is None:
        raise InputError("zderiv_bound_check: data carries no derivative information")
    zeta, dzeta, _, weights = _cauchy_values(data, leaf)
    inradius = float(np.min(np.abs(zeta)))
    sup_bound = float(np.max(np.abs(data.fz(zeta, leaf.level)) + np.abs(data.fzbar(zeta, leaf.level))))
    max_fz = 0.0
    for z in interior_points:
        z = complex(z)
        diff = zeta - z
        _winding_defect(z, diff, dzeta, inradius)
        max_fz = max(max_fz, abs(_cauchy_at(weights, diff**2)))
    return ZDerivReport(ok=max_fz <= sup_bound + ZDERIV_SLACK, max_fz=max_fz, sup_bound=sup_bound)
