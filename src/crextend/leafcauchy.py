"""Leafwise Cauchy extension and boundary-regularity probes.

Each hull leaf of an n = 1 model is a closed curve; continuous boundary
data f on the model restricts to the curve, and the Cauchy integral

    F(z) = (1 / 2 pi i) * integral of f(zeta) / (zeta - z) d(zeta)

extends it holomorphically to the enclosed disk.  The probes quantify
what survives at the CR singularity: F stays continuous (max principle)
and its z-derivatives stay bounded, while the transverse derivative
F_s(0, s) can blow up like s^(-1/2) when the model degenerates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError, NearBoundary
from .moments import LEAF_RESIDUAL_TOL, LeafParametrization, eval_on_grid, solve_leaf
from .polyalg import Polynomial
from .quadform import QuadricModel

NEAR_BOUNDARY_FACTOR = 0.05
WINDING_TOL = 0.01
MIN_LADDER_RUNGS = 6


@dataclass(frozen=True)
class BoundaryData:
    """Boundary values on the model, evaluated a whole leaf at a time.

    evaluator maps (array of points z on a leaf, leaf level s = value of w)
    to the array of data values at those points, of the same shape.  fz and
    fzbar, when given, map the same arguments to the tangential derivatives
    f_z and f_zbar; zderiv_bound_check needs them.
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
        pz = p.partial_derivative("z")
        pzb = p.partial_derivative("zbar")
        return cls(
            evaluator=lambda z, s: eval_on_grid(p, z),
            description=description or p.pretty(),
            fz=lambda z, s: eval_on_grid(pz, z),
            fzbar=lambda z, s: eval_on_grid(pzb, z),
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
    """Cauchy extension values on one leaf."""

    leaf: LeafParametrization
    interior_values: dict  # z -> F(z, s)
    boundary_sup_error: float


def _cauchy_values(data: BoundaryData, leaf: LeafParametrization):
    zeta = leaf.points()
    return zeta, leaf.tangent(), data.evaluator(zeta, leaf.level)


def _cauchy_at(z, zeta, dzeta, fvals):
    return complex(np.sum(fvals * dzeta / (zeta - z)) / (1j * len(zeta)))


def _winding_number(z, zeta, dzeta):
    return complex(np.sum(dzeta / (zeta - z)) / (1j * len(zeta)))


def cauchy_extend(data: BoundaryData, leaf: LeafParametrization, points) -> LeafExtension:
    """Trapezoidal Cauchy integral of the data over one leaf.

    Every requested point must lie strictly inside the leaf curve and at
    least 0.05 * inradius away from it; otherwise NearBoundary is raised
    naming the point (the quadrature is useless there).
    """
    zeta, dzeta, fvals = _cauchy_values(data, leaf)
    inradius = float(np.min(np.abs(zeta)))
    values = {}
    for z in points:
        z = complex(z)
        dist = float(np.min(np.abs(zeta - z)))
        if dist < NEAR_BOUNDARY_FACTOR * inradius:
            raise NearBoundary(
                f"point {z} is within {NEAR_BOUNDARY_FACTOR} * inradius of the leaf curve",
                point=z,
            )
        winding = _winding_number(z, zeta, dzeta)
        if abs(winding - 1.0) > WINDING_TOL:
            raise NearBoundary(
                f"point {z} is not inside the leaf curve (winding number {winding:.3f})",
                point=z,
            )
        values[z] = _cauchy_at(z, zeta, dzeta, fvals)
    # boundary fidelity diagnostic: compare F just inside against f on the curve
    probes = range(0, leaf.N, max(1, leaf.N // 16))
    sup_err = 0.0
    for j in probes:
        zp = 0.9 * zeta[j]
        sup_err = max(sup_err, abs(_cauchy_at(zp, zeta, dzeta, fvals) - fvals[j]))
    return LeafExtension(leaf=leaf, interior_values=values, boundary_sup_error=float(sup_err))


def continuity_probe(data: BoundaryData, model: QuadricModel, radii, f0=None, N=512):
    """sup over each leaf of |f - f(0)|, certifying continuity as r -> 0.

    f0 defaults to the average of the data over the smallest leaf.
    """
    radii = sorted(float(r) for r in radii)
    if not radii:
        raise InputError("continuity_probe: need at least one leaf radius")
    leaves = [solve_leaf(model, r, N) for r in radii]
    if f0 is None:
        _, _, fvals = _cauchy_values(data, leaves[0])
        f0 = complex(np.mean(fvals))
    rows = []
    for leaf in leaves:
        _, _, fvals = _cauchy_values(data, leaf)
        rows.append((leaf.r, float(np.max(np.abs(fvals - f0)))))
    return f0, rows


def radial_leaf_family(radius_fn: Callable, N=512, rho: Polynomial | None = None):
    """Leaves of a radially symmetric model w = g(|z|^2).

    The leaf at level s is the circle of radius radius_fn(s); this covers
    degenerate models such as w = |z|^4 (radius_fn = s -> s**0.25), which
    the quadric leaf solver cannot represent.
    """
    theta = 2 * np.pi * np.arange(N) / N
    ones = np.ones(N)
    zeros = np.zeros(N)

    def family(s):
        r = float(radius_fn(s))
        if not r > 0:
            raise InputError(f"radial leaf radius must be positive, got {r} at s = {s}")
        return LeafParametrization(
            lam=0.0, rho=rho, r=r, level=float(s), theta=theta, phi=ones, phi_theta=zeros
        )

    return family


def quadric_leaf_family(model: QuadricModel, N=512, tol=LEAF_RESIDUAL_TOL):
    """Leaves of an n = 1 normal-form quadric model, labeled by level s = r^2.

    tol is solve_leaf's residual tolerance.
    """

    def family(s):
        if not s > 0:
            raise InputError(f"leaf level must be positive, got {s}")
        return solve_leaf(model, float(np.sqrt(s)), N, tol)

    return family


@dataclass(frozen=True)
class DerivativeProbeReport:
    """Fitted growth law of the transverse derivative F_s(0, s)."""

    exponent: float | None
    label: str  # "power-law" or "bounded (≈0)"
    rows: tuple  # (s, F(0, s), F_s estimate or None)


def normal_derivative_probe(data: BoundaryData, leaf_family: Callable, s_ladder) -> DerivativeProbeReport:
    """Estimate d/ds of F(0, s) on a geometric ladder of leaf levels.

    F(0, s) comes from the Cauchy integral on each leaf; F_s is formed by
    3-point central differences on the (non-uniform) ladder and the
    exponent is the least-squares slope of log |F_s| against log s.  A
    blow-up rate of -1/2 is the signature of a degenerate model; 0 means
    the derivative stays bounded.
    """
    s_ladder = [float(s) for s in s_ladder]
    if len(s_ladder) < MIN_LADDER_RUNGS:
        raise InputError(f"s ladder needs at least {MIN_LADDER_RUNGS} rungs")
    if s_ladder[0] <= 0 or any(b <= a for a, b in zip(s_ladder, s_ladder[1:])):
        raise InputError("s ladder must be positive and strictly increasing")
    ratios = [s_ladder[i + 1] / s_ladder[i] for i in range(len(s_ladder) - 1)]
    if max(ratios) / min(ratios) > 1.0 + 1e-6:
        raise InputError("s ladder must be geometric (constant ratio)")

    F0 = []
    for s in s_ladder:
        leaf = leaf_family(s)
        ext = cauchy_extend(data, leaf, [0.0])
        F0.append(ext.interior_values[0.0])

    rows = []
    fs_values = []
    floors = []
    eps = float(np.finfo(float).eps)
    scale = max(1.0, max(abs(v) for v in F0))
    for i in range(len(s_ladder)):
        if i == 0 or i == len(s_ladder) - 1:
            rows.append((s_ladder[i], F0[i], None))
            continue
        h1 = s_ladder[i] - s_ladder[i - 1]
        h2 = s_ladder[i + 1] - s_ladder[i]
        fs = (
            -h2 / (h1 * (h1 + h2)) * F0[i - 1]
            + (h2 - h1) / (h1 * h2) * F0[i]
            + h1 / (h2 * (h1 + h2)) * F0[i + 1]
        )
        fs_values.append((s_ladder[i], fs))
        # roundoff in F0 is amplified by the 1/h quotient; below this the
        # difference cannot resolve a derivative at all
        floors.append(1e-13 * scale + 32 * eps * scale * (1.0 / h1 + 1.0 / h2))
        rows.append((s_ladder[i], F0[i], fs))

    mags = np.array([abs(fs) for _, fs in fs_values])
    if np.all(mags < np.array(floors)):
        return DerivativeProbeReport(exponent=None, label="bounded (≈0)", rows=tuple(rows))
    logs = np.log(np.array([s for s, _ in fs_values]))
    logm = np.log(mags)
    slope = float(np.polyfit(logs, logm, 1)[0])
    return DerivativeProbeReport(exponent=slope, label="power-law", rows=tuple(rows))


@dataclass(frozen=True)
class ZDerivReport:
    ok: bool
    max_fz: float
    sup_bound: float
    margin: float


def zderiv_bound_check(
    data: BoundaryData, leaf: LeafParametrization, interior_points, model=None, slack=1e-6
) -> ZDerivReport:
    """Check |F_z| <= sup over the leaf of (|f_z| + |f_zbar|) + slack.

    F_z is estimated by central finite differences of the Cauchy integral
    at the interior samples; the tangential derivatives of f come from the
    data's fz / fzbar.
    """
    if data.fz is None or data.fzbar is None:
        raise InputError("zderiv_bound_check: data carries no derivative information")
    zeta, dzeta, fvals = _cauchy_values(data, leaf)
    fz_vals = data.fz(zeta, leaf.level)
    fzb_vals = data.fzbar(zeta, leaf.level)
    sup_bound = float(np.max(np.abs(fz_vals) + np.abs(fzb_vals)))

    inradius = float(np.min(np.abs(zeta)))
    h = 1e-5 * inradius
    max_fz = 0.0
    for z in interior_points:
        z = complex(z)
        fp = _cauchy_at(z + h, zeta, dzeta, fvals)
        fm = _cauchy_at(z - h, zeta, dzeta, fvals)
        max_fz = max(max_fz, abs((fp - fm) / (2 * h)))
    return ZDerivReport(
        ok=max_fz <= sup_bound + slack,
        max_fz=max_fz,
        sup_bound=sup_bound,
        margin=sup_bound + slack - max_fz,
    )
