"""Leaf solves, moment integrals, and symbolic CR field checks."""

import warnings

import numpy as np
import pytest

from conftest import LAMBDA_CHOICES, random_coeff, random_holomorphic, random_polynomial
from crextend import (
    InputError,
    LeafSolveError,
    NotElliptic,
    NumericalError,
    Polynomial,
    QuadricModel,
    check_moments,
    cr_check,
    moment_integral,
    normal_form_model,
    q_polynomial,
    solve_leaf,
)
from crextend import moments
from crextend.moments import eval_on_grid
from crextend.polyalg import DEGREE_CAP


# -- leaves ------------------------------------------------------------------


def _unit_ellipse(lam, N):
    """a e^(it) + b e^(-it) and its t-derivative on the grid, a, b = (p +- q)/2, p, q = (1 +- 2 lam)^(-1/2)."""
    t = 2 * np.pi * np.arange(N) / N
    p, q = (1 + 2 * lam) ** -0.5, (1 - 2 * lam) ** -0.5
    a, b = (p + q) / 2, (p - q) / 2
    return a * np.exp(1j * t) + b * np.exp(-1j * t), 1j * (a * np.exp(1j * t) - b * np.exp(-1j * t))


def test_leaf_circle_at_lambda0():
    leaf = solve_leaf(normal_form_model([0.0]), 0.3, 256)
    t = 2 * np.pi * np.arange(256) / 256
    assert np.max(np.abs(leaf.u - np.exp(1j * t))) < 1e-15
    assert np.max(np.abs(leaf.du - 1j * leaf.u)) < 1e-15
    assert np.allclose(np.abs(leaf.points()), 0.3, atol=1e-14)
    assert leaf.level == pytest.approx(0.09)


def test_leaf_closed_form_profile(monkeypatch):
    # without E every leaf is r times the unit ellipse, Q(u) = 1 to rounding,
    # and no leaf runs Newton or the tangent's Horner kernel
    monkeypatch.setattr(moments, "_horner", None)
    for lam in LAMBDA_CHOICES:
        m = normal_form_model([lam])
        for N in (64, 512):
            leaf = solve_leaf(m, 0.25, N)
            u, du = _unit_ellipse(lam, N)
            scale = (1 - 2 * lam) ** -0.5
            assert np.max(np.abs(leaf.u - u)) <= 4e-16 * scale
            assert np.max(np.abs(leaf.du - du)) <= 4e-16 * scale
            assert np.max(np.abs(eval_on_grid(q_polynomial(m), leaf.u) - 1.0)) <= 1e-15 * scale**2
            # leaf stays on the level set rho = r^2
            rho = eval_on_grid(q_polynomial(m), leaf.points()).real
            assert np.max(np.abs(rho - leaf.level)) < 1e-15 * scale**2


def test_leaf_with_quartic_correction():
    # E = (z zbar)^2 is rotation invariant, so at lambda = 0 the leaf is a circle
    E = Polynomial.monomial(1, (2,), (2,), 0, 1.0)
    m = normal_form_model([0.0], E=E)
    r = 0.2
    leaf = solve_leaf(m, r, 256)
    assert np.max(np.abs(np.abs(leaf.u) - np.abs(leaf.u[0]))) < 1e-13
    assert np.max(np.abs(leaf.du - 1j * leaf.u)) < 1e-13
    z = leaf.points()
    rho = np.abs(z) ** 2 + np.abs(z) ** 4
    assert np.max(np.abs(rho - r * r)) < 1e-12


def test_leaf_perturbed_newton_converges():
    E = Polynomial.monomial(1, (3,), (1,), 0, 0.05) + Polynomial.monomial(1, (1,), (3,), 0, 0.05)
    m = normal_form_model([0.2], E=E)
    leaf = solve_leaf(m, 0.3, 512)
    z = leaf.points()
    rho_vals = eval_on_grid(q_polynomial(m), z)
    assert np.max(np.abs(rho_vals.real - leaf.level)) < 1e-12


def _generic_real_E(rng, lam, nterms=6):
    """p + conj(p) for random terms z^a zbar^b of degree 3..5, no symmetry imposed."""
    size = 0.3 * (1 - 2 * lam) ** 2
    p = Polynomial.zero(1)
    for _ in range(nterms):
        d = int(rng.integers(3, 6))
        a = int(rng.integers(0, d + 1))
        p = p + Polynomial.monomial(1, (a,), (d - a,), 0, size * random_coeff(rng))
    return p + p.conjugate()


def test_leaf_generic_real_E_matches_per_angle_roots():
    # with E the leaf is r psi(t) w(t) on the unit ellipse w: psi at each t
    # is the root of rho(r psi w(t)) = r^2 on the ray through w(t)
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(83)
    N = 512
    for lam in LAMBDA_CHOICES:
        E = _generic_real_E(rng, lam)
        m = normal_form_model([lam], E=E)
        w, _ = _unit_ellipse(lam, N)
        for r in (0.05, 0.1, 0.2):
            leaf = solve_leaf(m, r, N)
            rho = eval_on_grid(q_polynomial(m), leaf.points()).real
            assert np.max(np.abs(rho - leaf.level)) / leaf.level < 1e-12
            psi = leaf.u / w
            assert np.max(np.abs(psi.imag)) < 1e-14
            for j in range(0, N, N // 16):

                def defect(x):
                    return eval_on_grid(q_polynomial(m), np.array([r * x * w[j]]))[0].real / r**2 - 1.0

                root = optimize.brentq(defect, 0.5, 2.0, xtol=1e-15, rtol=1e-15)
                assert abs(psi[j].real - root) < 1e-12


def test_leaf_tangent_matches_a_high_precision_reference():
    # du = psi_t w + psi wt with psi_t = -g_t / g_psi in closed form; the
    # reference is psi(t) from mpmath's findroot on rho(r psi w(t)) = r^2 at
    # 40 digits, differentiated by mpmath's diff, at every 32nd node
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(83)
    N = 512
    with mpmath.workdps(40):
        for lam in LAMBDA_CHOICES:
            E = _generic_real_E(rng, lam)
            m = normal_form_model([lam], E=E)
            terms = [(mpmath.mpc(c), a, b) for (a, b, _), c in E.terms]
            lam_mp = mpmath.mpf(lam)
            p, q = (1 + 2 * lam_mp) ** -0.5, (1 - 2 * lam_mp) ** -0.5
            for r in (0.05, 0.2, 0.4):
                r_mp = mpmath.mpf(r)

                def u_ref(t):
                    w = mpmath.mpc(p * mpmath.cos(t), q * mpmath.sin(t))

                    def defect(x):
                        z = r_mp * x * w
                        zb = mpmath.conj(z)
                        rho = z * zb + lam_mp * (z * z + zb * zb) + sum(c * z**a * zb**b for c, a, b in terms)
                        return mpmath.re(rho) - r_mp**2

                    return mpmath.findroot(defect, mpmath.mpf(1)) * w

                leaf = solve_leaf(m, r, N)
                for j in range(0, N, 32):
                    du_ref = complex(mpmath.diff(u_ref, 2 * mpmath.pi * j / N))
                    assert abs(leaf.du[j] - du_ref) <= 2e-14, (lam, r, j)


def test_leaf_E_with_tolerated_imaginary_part_converges():
    # E is accepted as real within HERMITIAN_TOL; its angular parts G_d take
    # the real part, as the defect does, and Newton must still converge
    rng = np.random.default_rng(89)
    E = _generic_real_E(rng, 0.1) + Polynomial.monomial(1, (3,), (0,), 0, 1e-13j)
    m = normal_form_model([0.1], E=E)
    for r in (0.05, 0.2):
        leaf = solve_leaf(m, r, 256)
        rho = eval_on_grid(q_polynomial(m), leaf.points()).real
        assert np.max(np.abs(rho - leaf.level)) / leaf.level < 1e-12


def _real_E(rng, degrees, size, nterms=6):
    """p + conj(p) for random terms z^a zbar^b with a + b drawn from degrees."""
    p = Polynomial.zero(1)
    for _ in range(nterms):
        d = int(rng.choice(degrees))
        a = int(rng.integers(0, d + 1))
        p = p + Polynomial.monomial(1, (a,), (d - a,), 0, size * random_coeff(rng))
    return p + p.conjugate()


E_DEGREES = {"3 to 8": tuple(range(3, 9)), "6 only": (6,), "odd only": (3, 5, 7)}


@pytest.mark.parametrize("degrees", sorted(E_DEGREES))
def test_polar_form_of_E_is_E_on_the_leaf(degrees):
    # E in the radial factor psi along the unit ellipse w: G_d is Re E_d(w),
    # so at z = v w, v = r psi: sum_d v^d G_d = Re E, and the Horner defect
    # and slope of the grid are psi^2 - 1 + Re E / r^2 and
    # 2 psi + 2 Re(E_z w) / r, each within rounding of the coefficient mass
    # sum |c_ab| (v |w|)^(a+b) (times a + b for the slope)
    rng = np.random.default_rng(113)
    N = 512
    for lam in LAMBDA_CHOICES:
        E = _real_E(rng, E_DEGREES[degrees], 0.3)
        grid = moments.LeafGrid(normal_form_model([lam], E=E), N)
        w, _ = _unit_ellipse(lam, N)
        d = np.arange(3, len(grid.G) + 3)
        assert len(grid.G) == max(E_DEGREES[degrees]) - 2
        wmax = float(np.max(np.abs(w)))
        for k, G in zip(d, grid.G):
            E_k = E.homogeneous_part(int(k))
            mass = np.abs(E_k.coeffs).sum() * wmax**k
            assert np.max(np.abs(G - eval_on_grid(E_k, w).real)) <= 1e-14 * mass
        for r in (0.05, 0.3, 1.5):
            psi = rng.uniform(0.8, 1.2, N)
            v = r * psi
            top = np.abs(E.coeffs) * (v.max() * wmax) ** E.exps[:, :2].sum(axis=1)
            z = (v * w)[:, None]
            values = E.evaluate(z)
            assert np.max(np.abs(sum(v**k * G for k, G in zip(d, grid.G)) - values.real)) <= 1e-14 * top.sum()
            C = grid.G * r ** (d - 2.0)[:, None]
            g, slope = moments._defect(psi, C), moments._slope(psi, C * d[:, None])
            g_ref = psi**2 - 1.0 + values.real / r**2
            slope_ref = 2 * psi + 2 * (E.partial_derivative("z").evaluate(z) * w).real / r
            assert np.max(np.abs(g - g_ref)) <= 1e-14 * (4 + top.sum() / r**2)
            mass = (E.exps[:, :2].sum(axis=1) * top).sum() / v.max()
            assert np.max(np.abs(slope - slope_ref)) <= 1e-14 * (8 + mass / r)


@pytest.mark.parametrize("degrees", sorted(E_DEGREES))
def test_leaf_with_E_up_to_degree_8_stays_on_its_level_set(degrees):
    rng = np.random.default_rng(127)
    for lam in LAMBDA_CHOICES:
        m = normal_form_model([lam], E=_real_E(rng, E_DEGREES[degrees], 0.3 * (1 - 2 * lam) ** 2))
        for r in (0.05, 0.1, 0.2):
            leaf = solve_leaf(m, r, 512)
            rho = eval_on_grid(q_polynomial(m), leaf.points()).real
            assert np.max(np.abs(rho - leaf.level)) / leaf.level < 1e-12


def test_leaf_newton_evaluates_no_polynomial(monkeypatch):
    # a grid with E evaluates E's parts and their E_z once, in
    # LeafGrid.__init__, never per leaf, and solves its ladder from G and Gt
    # alone: no polynomial evaluation; its exact slope keeps Newton
    # quadratic, at most 7 passes a leaf on this ladder (3 to 7 measured),
    # and the slope is formed for each pass that steps and once more for
    # the tangent, so every leaf makes as many slopes as defects
    calls = []
    evaluate = Polynomial.evaluate
    monkeypatch.setattr(
        Polynomial, "evaluate", lambda self, *args: calls.append("evaluate") or evaluate(self, *args)
    )
    for name in ("_defect", "_slope"):
        method = getattr(moments, name)
        monkeypatch.setattr(moments, name, lambda *args, name=name, method=method: calls.append(name) or method(*args))
    rng = np.random.default_rng(131)
    for lam in LAMBDA_CHOICES:
        grid = moments.LeafGrid(normal_form_model([lam], E=_generic_real_E(rng, lam)), 512)
        assert set(calls) == {"evaluate"}
        assert not hasattr(grid, "Ez")
        for r in LADDER:
            calls.clear()
            leaf = grid.leaf(r)
            defects = calls.count("_defect")
            assert set(calls) == {"_defect", "_slope"} and defects <= 7, (lam, r, calls)
            assert calls.count("_slope") == defects and calls[-1] == "_slope", (lam, r, calls)
            assert not np.array_equal(leaf.u, grid.w)
        calls.clear()


def test_eval_on_grid_is_evaluate():
    rng = np.random.default_rng(29)
    p = random_polynomial(rng, 1, 6)
    z = rng.uniform(-1, 1, (5, 7)) + 1j * rng.uniform(-1, 1, (5, 7))
    vals = eval_on_grid(p, z)
    assert vals.shape == z.shape
    np.testing.assert_array_equal(vals, p.evaluate(z[..., None]))
    with pytest.raises(InputError):
        eval_on_grid(Polynomial.z(2), z)


def test_solve_leaf_residual_tolerance():
    m = normal_form_model([0.3])
    solve_leaf(m, 0.1, 128)
    with pytest.raises(LeafSolveError):
        solve_leaf(m, 0.1, 128, tol=1e-20)
    with pytest.raises(LeafSolveError):
        check_moments(Polynomial.z(1), m, leaves=[0.1], N=128, leaf_tol=1e-20)


def test_leaf_preconditions():
    with pytest.raises(InputError):
        solve_leaf(normal_form_model([0.0]), 0.1, 200)  # not a power of two
    with pytest.raises(InputError):
        solve_leaf(normal_form_model([0.0]), 0.1, 32)  # too coarse
    with pytest.raises(InputError):
        solve_leaf(normal_form_model([0.0]), -0.1)
    with pytest.raises(NotElliptic):
        solve_leaf(normal_form_model([0.6]), 0.1)
    with pytest.raises(InputError):
        solve_leaf(normal_form_model([0.1, 0.2]), 0.1)  # n = 1 only
    A = np.array([[2.0]], dtype=complex)
    B = np.array([[0.1]], dtype=complex)
    with pytest.raises(InputError):
        solve_leaf(QuadricModel(A, B), 0.1)  # not in normal form


def test_leaf_newton_divergence_raises():
    # strong quartic term at a radius where the level set pinches off
    E = Polynomial.monomial(1, (2,), (2,), 0, -30.0)
    m = normal_form_model([0.0], E=E)
    with pytest.raises(LeafSolveError):
        solve_leaf(m, 0.45, 256)


# -- one grid per (model, N) ----------------------------------------------------

LADDER = (0.02, 0.05, 0.1, 0.2, 0.3, 0.4)


def _leaf_bits(leaf):
    return leaf.r, leaf.level, leaf.u.tobytes(), leaf.du.tobytes(), leaf.points().tobytes()


@pytest.mark.parametrize("N", [64, 512, 4096])
@pytest.mark.parametrize("with_E", [False, True])
def test_leaf_grid_ladder_has_the_bits_of_solo_solves(N, with_E):
    rng = np.random.default_rng(101)
    for lam in LAMBDA_CHOICES:
        m = normal_form_model([lam], E=_generic_real_E(rng, lam) if with_E else None)
        grid = moments.LeafGrid(m, N)
        ladder = [grid.leaf(r) for r in LADDER]
        assert [_leaf_bits(leaf) for leaf in ladder] == [_leaf_bits(solve_leaf(m, r, N)) for r in LADDER]


def test_check_moments_entries_match_moments_on_solo_leaves():
    rng = np.random.default_rng(103)
    for lam in LAMBDA_CHOICES:
        m = normal_form_model([lam], E=_generic_real_E(rng, lam))
        f = random_polynomial(rng, 1, 6)
        report = check_moments(f, m, leaves=LADDER, Lmax=10, N=512)
        leaves = {r: solve_leaf(m, r, 512) for r in LADDER}
        assert len(report.entries) == len(LADDER) * 11
        for r, ell, v in report.entries:
            assert np.complex128(v).tobytes() == np.complex128(moment_integral(f, leaves[r], ell)).tobytes()


def _ladder_outcome(solve, radii):
    """(leaves solved, (type, message) of the error that stopped the ladder or None,
    the warnings raised on the way)."""
    count, error = 0, None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            for r in radii:
                solve(r)
                count += 1
        except (InputError, LeafSolveError, OverflowError) as exc:
            error = (type(exc), str(exc))
    return count, error, [(w.category, str(w.message)) for w in caught]


def _cubic_model(c):
    """lambda = 0 and E = c (z^3 + zbar^3): at N = 512 and c = 1 the leaves up to
    r = 0.1 solve and r = 0.2 does not converge; at c = 2 r = 1 goes negative."""
    E = Polynomial.monomial(1, (3,), (0,), 0, c) + Polynomial.monomial(1, (0,), (3,), 0, c)
    return normal_form_model([0.0], E=E)


# E = 30 |z|^4 at N = 512: r = 1e30 does not converge, quietly; Newton at
# r = 1e100 overflows, so a ladder must stop before it
QUARTIC = Polynomial.monomial(1, (2,), (2,), 0, 30.0)


@pytest.mark.parametrize(
    "case, expected",
    [
        ("no-convergence", "leaf solve did not converge in 50 iterations at r = 0.2"),
        ("not-positive", "leaf profile is not positive at r = 1"),
        ("residual", "exceeds 1e-15"),
        ("label", "solve_leaf: leaf label r must be positive, got -0.1"),
        ("square-overflow", "Numerical result out of range"),
        ("later-leaf-warns", "leaf solve did not converge in 50 iterations at r = 1e+30"),
    ],
)
def test_ladder_fails_where_the_solo_loop_fails(case, expected):
    N = 512
    m, tol = _cubic_model(1.0), moments.LEAF_RESIDUAL_TOL
    radii = {
        # r^2 of 1e200 overflows: a later leaf, whose error must never show
        "no-convergence": (0.05, 0.1, 0.2, 0.4, 1e200),
        "not-positive": (0.02, 0.05, 1.0),
        "residual": LADDER,
        "label": (0.05, -0.1, 0.2),
        "square-overflow": (0.05, 1e200, 0.1),
        "later-leaf-warns": (0.1, 0.3, 1e30, 1e100),
    }[case]
    if case == "not-positive":
        m = _cubic_model(2.0)
    if case == "residual":
        # leaf residuals of this model lie on both sides of 1e-15
        m, tol = normal_form_model([0.1], E=_generic_real_E(np.random.default_rng(107), 0.1)), 1e-15
    if case == "later-leaf-warns":
        m = normal_form_model([0.0], E=QUARTIC)
    solo = _ladder_outcome(lambda r: solve_leaf(m, r, N, tol), radii)
    count, (kind, message), caught = solo
    assert count >= 1 and expected in message and caught == []
    grid = moments.LeafGrid(m, N)
    assert _ladder_outcome(lambda r: grid.leaf(r, tol), radii) == solo
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(kind) as info:  # check_moments sorts the ladder; the first failure stays first
            check_moments(Polynomial.z(1), m, leaves=radii, N=N, leaf_tol=tol)
    assert str(info.value) == message and caught == []


# -- moments -----------------------------------------------------------------


def test_moment_zbar_sphere():
    # f = zbar on the lambda = 0 leaf: integral is 2 pi i r^2 at ell = 0
    for r in (0.1, 0.2, 0.4):
        leaf = solve_leaf(normal_form_model([0.0]), r, 256)
        v = moment_integral(Polynomial.zbar(1), leaf, 0)
        assert abs(v - 2j * np.pi * r * r) < 1e-12


def test_moment_zbar_general_lambda():
    # area law: 2 pi i r^2 / sqrt(1 - 4 lambda^2)
    for lam in (0.1, 0.3, 0.45):
        leaf = solve_leaf(normal_form_model([lam]), 0.3, 512)
        v = moment_integral(Polynomial.zbar(1), leaf, 0)
        expected = 2j * np.pi * 0.09 / np.sqrt(1.0 - 4.0 * lam * lam)
        assert abs(v - expected) < 1e-11


def test_moment_vanishes_for_extendible_data():
    rng = np.random.default_rng(5)
    for lam in (0.0, 0.3, 0.45):
        m = normal_form_model([lam])
        f = random_holomorphic(rng, 1, 8).substitute_w(q_polynomial(m))
        leaf = solve_leaf(m, 0.4, 512)
        fvals_worst = max(
            abs(moment_integral(f, leaf, ell)) for ell in range(f.degree() + 5)
        )
        assert fvals_worst < 1e-9


def test_moment_detects_obstruction():
    # f = z^j zbar^k with j < k shows up at ell = k - j - 1 with modulus 2 pi r^(2k)
    leaf = solve_leaf(normal_form_model([0.0]), 0.3, 256)
    f = Polynomial.monomial(1, (1,), (3,), 0, 1.0)
    v = moment_integral(f, leaf, 1)
    assert abs(abs(v) - 2.0 * np.pi * 0.3**6) < 1e-12
    assert abs(moment_integral(f, leaf, 0)) < 1e-14
    assert abs(moment_integral(f, leaf, 3)) < 1e-14


def test_moment_grid_doubling_invariance():
    m = normal_form_model([0.3])
    f = Polynomial.monomial(1, (0,), (2,), 0, 1.0) + Polynomial.z(1)
    v256 = moment_integral(f, solve_leaf(m, 0.35, 256), 2)
    v512 = moment_integral(f, solve_leaf(m, 0.35, 512), 2)
    assert abs(v256 - v512) < 1e-12


def test_moment_homogeneity_scaling():
    # f = zbar^k contributes at ell = k - 1 with modulus growing like r^(2k)
    f = Polynomial.monomial(1, (0,), (2,), 0, 1.0)
    m = normal_form_model([0.0])
    v1 = abs(moment_integral(f, solve_leaf(m, 0.2, 256), 1))
    v2 = abs(moment_integral(f, solve_leaf(m, 0.4, 256), 1))
    assert v2 / v1 == pytest.approx(2.0 ** 4, rel=1e-10)


def _moment_per_ell(f, leaf, ell):
    """The moment from its own polar power |u|^ell e^(i ell arg u) for each ell."""
    u = leaf.u
    integrand = eval_on_grid(f, leaf.points()) * np.abs(u) ** ell * np.exp(1j * ell * np.angle(u)) * leaf.du
    return complex(leaf.r ** (ell + 1) * (2 * np.pi / leaf.N) * np.sum(integrand))


def _moment_u_power(f, leaf, ell):
    """(moment, term mass) from numpy's u**ell for each ell: the running product's reference."""
    w = eval_on_grid(f, leaf.points()) * leaf.du * (2 * np.pi / leaf.N)
    scale = leaf.r ** (ell + 1)
    return complex(scale * np.sum(w * leaf.u**ell)), scale * float(np.sum(np.abs(w) * np.abs(leaf.u) ** ell))


def test_moments_from_one_weight_match_per_ell_formula():
    rng = np.random.default_rng(97)
    radii = (0.01, 0.1, 0.4, 1.0)
    Lmax = DEGREE_CAP + 4
    for lam in LAMBDA_CHOICES:
        m = normal_form_model([lam])
        for N in (64, 512, 4096):
            f = random_polynomial(rng, 1, 6)
            report = check_moments(f, m, leaves=radii, Lmax=Lmax, N=N)
            values = {(r, ell): v for r, ell, v in report.entries}
            short = check_moments(f, m, leaves=radii, Lmax=7, N=N)
            assert all(v == values[r, ell] for r, ell, v in short.entries)
            for r in radii:
                leaf = solve_leaf(m, r, N)
                sup_f = float(np.max(np.abs(eval_on_grid(f, leaf.points()))))
                sup_u = float(np.max(np.abs(leaf.u)))
                sup_du = float(np.max(np.abs(leaf.du)))
                for ell in range(Lmax + 1):
                    expected = _moment_per_ell(f, leaf, ell)
                    bound = 1e-13 * r ** (ell + 1) * sup_f * sup_u**ell * sup_du
                    assert abs(values[r, ell] - expected) <= bound
                    # one running product: the same bits whatever ells come with ell
                    assert moment_integral(f, leaf, ell) == values[r, ell]
                    old, mass = _moment_u_power(f, leaf, ell)
                    assert abs(values[r, ell] - old) <= 1e-13 * mass


def test_check_moments_default_ladder():
    m = normal_form_model([0.25])
    f = Polynomial.z(1) * Polynomial.zbar(1) + 0.25 * (
        Polynomial.z(1) * Polynomial.z(1) + Polynomial.zbar(1) * Polynomial.zbar(1)
    )
    report = check_moments(f, m)
    assert report.passed
    assert report.Lmax == f.degree() + 4
    assert len(report.leaves) == 4
    assert len(report.entries) == 4 * (report.Lmax + 1)
    assert report.max_modulus < report.tol


def test_check_moments_flags_obstruction():
    m = normal_form_model([0.0])
    f = Polynomial.monomial(1, (0,), (1,), 0, 0.5)
    report = check_moments(f, m, leaves=[0.1, 0.2, 0.3, 0.4])
    assert not report.passed
    assert report.max_modulus == pytest.approx(np.pi * 0.4**2, rel=1e-10)


def test_check_moments_refuses_a_non_finite_moment():
    # zbar^30 overflows on the leaf at r = 1e11 while its scale r does not:
    # the moment is nan, which a max over moduli would skip into a pass
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match=r"ell = 0 on the leaf of radius r = 1e\+11 "):
        check_moments(Polynomial.zbar(1) ** 30, normal_form_model([0.1]), leaves=[1e11], Lmax=0)


@pytest.mark.parametrize("lam, k, N", [(0.45, 3, 64), (0.45, 3, 128), (0.4, 6, 128)])
def test_holomorphic_data_passes_on_coarse_grids_near_parabolic(lam, k, N):
    # every moment of z^k vanishes; in the ellipse parameter its integrands
    # are trigonometric polynomials of degree below N, so the trapezoid rule
    # leaves only rounding (a polar profile read 3.7e2 for z^3 at N = 64)
    f = Polynomial.monomial(1, (k,), (0,), 0, 1.0)
    report = check_moments(f, normal_form_model([lam]), leaves=(0.25, 0.5, 1.0), N=N)
    assert report.passed, report.max_modulus


# -- CR fields ----------------------------------------------------------------


def test_cr_check_sphere_example():
    m = normal_form_model([0.0, 0.0])
    f = Polynomial.z(2, 0) * Polynomial.zbar(2, 1)
    violations = cr_check(f, m)
    assert len(violations) == 1
    v = violations[0]
    assert (v.j, v.ell) == (0, 1)
    assert v.field_applied == Polynomial.z(2, 0) * Polynomial.z(2, 0)


def test_cr_check_passes_for_cr_data():
    rng = np.random.default_rng(11)
    for n in (2, 3):
        m = normal_form_model([0.1] * n)
        f = random_holomorphic(rng, n, 6).substitute_w(q_polynomial(m))
        assert cr_check(f, m) == []


def test_cr_check_requires_n_at_least_2():
    with pytest.raises(InputError):
        cr_check(Polynomial.z(1), normal_form_model([0.0]))
