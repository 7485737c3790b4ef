"""Seeded generation of benchmark documents with construction references.

Every document is built from a known answer: f = P(z, rho) for a chosen
holomorphic P(z, w), optionally plus one non-extendible monomial injected at
a chosen degree, on a model whose Bishop invariants are chosen first.  The
expected report (exit code, verdict, recovered P, Cauchy values, probe
exponent) therefore follows from the construction, not from running the
program.  Polynomial arithmetic here is the benchmark's own, so the inputs
and references do not depend on the code under test.

A workload is a sequence of blocks.  Each block holds one document of every
stratum the workload defines, with fresh random coefficients, so any whole
number of blocks has the same mix of document kinds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

LAMBDAS = (0.0, 0.1, 0.3, 0.45)
# Rungs of every probe ladder: the work of a probe grows with them, so a fixed
# number keeps the cost of a run the same for every seed.
LADDER_RUNGS = 7


@dataclass
class Doc:
    """One CLI invocation: subcommand, input text, extra flags and reference."""

    kind: str
    command: str
    text: str
    flags: list = field(default_factory=list)
    expect: dict = field(default_factory=dict)


# -- polynomials in z, zbar: {(alpha, beta): coeff} ---------------------------


def _unit(n, j, d=1):
    v = [0] * n
    v[j] = d
    return tuple(v)


def _vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def poly_mul(p, q):
    out = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            key = (_vadd(a1, a2), _vadd(b1, b2))
            out[key] = out.get(key, 0.0) + c1 * c2
    return out


def poly_add(p, q):
    out = dict(p)
    for key, c in q.items():
        out[key] = out.get(key, 0.0) + c
    return out


def quadric(A, B):
    """Q(z, zbar) = z^H A z + z^T B z + conj(z^T B z) as a term dict."""
    n = A.shape[0]
    zero = (0,) * n
    Q = {}
    for j in range(n):
        for k in range(n):
            for key, c in (
                ((_unit(n, j), _unit(n, k)), A[j, k]),
                ((_vadd(_unit(n, j), _unit(n, k)), zero), B[j, k]),
                ((zero, _vadd(_unit(n, j), _unit(n, k))), np.conj(B[j, k])),
            ):
                Q[key] = Q.get(key, 0.0) + complex(c)
    return {key: c for key, c in Q.items() if c != 0}


def compose(P, rho, n):
    """f = P(z, rho) for P given as [(alpha, k, coeff)]."""
    zero = (0,) * n
    powers = [{(zero, zero): 1.0 + 0j}]
    f = {}
    for alpha, k, c in P:
        while len(powers) <= k:
            powers.append(poly_mul(powers[-1], rho))
        for (a, b), v in powers[k].items():
            key = (_vadd(a, alpha), b)
            f[key] = f.get(key, 0.0) + c * v
    return f


def poly_doc(p, n):
    terms = [
        {"alpha": list(a), "beta": list(b), "k": 0, "re": c.real, "im": c.imag}
        for (a, b), c in sorted(p.items())
    ]
    return {"n": n, "terms": terms}


def _monomials(n, d):
    if n == 1:
        return [(d,)]
    return [(first,) + rest for first in range(d, -1, -1) for rest in _monomials(n - 1, d - first)]


def _coeff(rng, lo=0.1):
    return complex(rng.uniform(lo, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)))


def random_P(rng, n, D, pure_w=0):
    """Holomorphic P(z, w) with one term z^alpha w^(d // 3) at each weighted
    degree d = 0..D, alpha random, plus c w^pure_w when pure_w > 0.

    One term per degree makes every graded solve of extend run, and a fixed
    power of w per degree fixes the number of terms of f = P(z, rho); so the
    cost of a document depends on its stratum, not on the draw.  P(0, w) is
    the constant term plus c w^pure_w.
    """
    P = []
    for d in range(D + 1):
        k = d // 3
        choices = _monomials(n, d - 2 * k)
        P.append((choices[int(rng.integers(len(choices)))], k, _coeff(rng)))
    if pure_w:
        P.append(((0,) * n, pure_w, _coeff(rng)))
    return P


def obstruction(rng, n, d0):
    """c z1^a zbar1^b with a < b and a + b = d0: never extendible."""
    a = int(rng.integers(0, (d0 + 1) // 2))
    return {(_unit(n, 0, a), _unit(n, 0, d0 - a)): _coeff(rng)}, (a, d0 - a)


# -- models ------------------------------------------------------------------


def _cmatrix(M):
    return [[{"re": float(v.real), "im": float(v.imag)} for v in row] for row in M]


def model_doc(A, B, E=None):
    doc = {"n": A.shape[0], "A": _cmatrix(A), "B": _cmatrix(B)}
    if E is not None:
        doc["E"] = poly_doc(E, 1)
    return doc


def normal_form(lams):
    n = len(lams)
    return np.eye(n, dtype=complex), np.diag(np.asarray(lams, dtype=complex))


def congruent(rng, diag_a, lams):
    """A = S^H diag_a S, B = S^T diag(lams) S for a random well-conditioned S.

    The Bishop invariants of (A, B) with diag_a = 1 are exactly lams.
    """
    n = len(lams)
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    U, _ = np.linalg.qr(G)
    S = np.diag(rng.uniform(0.7, 1.4, n)) @ U
    A = S.conj().T @ np.diag(np.asarray(diag_a, dtype=complex)) @ S
    B = S.T @ np.diag(np.asarray(lams, dtype=complex)) @ S
    return (A + A.conj().T) / 2, (B + B.T) / 2


def random_lams(rng, n):
    return sorted(rng.uniform(0.05, 0.45, n))


def random_E(rng, lam):
    """Real-valued n = 1 perturbation with terms of degree 3 and 4.

    Its size shrinks with the square of the ellipticity margin 1 - 2 lam, so
    that E stays small against Q along the leaf's long axis and the leaf
    solve converges on every leaf up to the default 0.4 * delta_z.
    """
    size = 0.3 * (1 - 2 * lam) ** 2
    E = {}
    for a, b in ((2, 1), (3, 0), (3, 1)):
        c = size * _coeff(rng)
        E[((a,), (b,))] = c
        E[((b,), (a,))] = np.conj(c)
    E[((2,), (2,))] = complex(size * rng.uniform(-1, 1))
    return E


# -- documents ----------------------------------------------------------------


def extend_doc(rng, n, D, kind, d0=None, lam=None):
    """extend on f = P(z, Q), plus an obstruction at degree d0 if given.

    kind 'nf' uses a normal-form model (lam fixes n = 1's invariant), 'nn' a
    random congruent (A, B).  The expected certificate names the condition
    the normal form exposes, or none for a non-normal-form model.
    """
    if kind == "nf":
        lams = [lam] if lam is not None else random_lams(rng, n)
        A, B = normal_form(lams)
    else:
        lams = random_lams(rng, n)
        A, B = congruent(rng, [1.0] * n, lams)
    P = random_P(rng, n, D)
    f = compose(P, quadric(A, B), n)
    expect = {"exit": 0}
    if d0 is not None:
        extra, (a, b) = obstruction(rng, n, d0)
        f = poly_add(f, extra)
        if kind != "nf":
            condition, detail = None, {}
        elif n >= 2:
            condition, detail = "CR field X f != 0", {}
        elif lams[0] == 0:
            condition, detail = "monomial z^j zbar^k with j < k", {"offending": [a, b]}
        else:
            condition, detail = "not involution-invariant", {}
        expect.update(status="NotExtendible", degree=d0, condition=condition, detail=detail)
    else:
        expect.update(status="Extended", P=[(list(a), k, c) for a, k, c in P])
    doc = {"model": model_doc(A, B), "f": poly_doc(f, n)}
    flags = ["--seed", str(int(rng.integers(0, 2**31)))]
    return Doc(f"extend n{n} d{D} {kind} {'ext' if d0 is None else 'obs'}", "extend", json.dumps(doc), flags, expect)


def _leaf_model(rng, lam, with_E):
    A, B = normal_form([lam])
    E = random_E(rng, lam) if with_E else None
    rho = quadric(A, B)
    if E is not None:
        rho = poly_add(rho, E)
    return model_doc(A, B, E), rho


def moment_doc(rng, lam, with_E, N, d0=None):
    """check (moments) on f = P(z, rho), which passes, plus an obstruction at degree d0 if given."""
    mdoc, rho = _leaf_model(rng, lam, with_E)
    f = compose(random_P(rng, 1, 4), rho, 1)
    if d0 is not None:
        f = poly_add(f, obstruction(rng, 1, d0)[0])
    doc = {"model": mdoc, "f": poly_doc(f, 1)}
    tag = f"check moments lam{lam} {'E' if with_E else 'noE'} N{N} {'ext' if d0 is None else 'obs'}"
    return Doc(tag, "check", json.dumps(doc), ["--grid-n", str(N)], {"exit": 0, "mode": "moments", "passed": d0 is None})


def zbar_moment_doc(k, lam):
    """check on f = zbar^k, which never extends; the moment check wrongly
    passes some of these (see check.known_defect)."""
    A, B = normal_form([lam])
    f = {((0,), (k,)): 1.0 + 0j}
    doc = {"model": model_doc(A, B), "f": poly_doc(f, 1)}
    return Doc(f"check zbar^{k} lam{lam}", "check", json.dumps(doc), [], {"exit": 0, "mode": "moments", "passed": False})


def cr_doc(rng, n, kind, d0=None):
    """check (CR fields, n >= 2) on f = P(z, Q), plus an obstruction at degree d0 if given."""
    lams = random_lams(rng, n)
    A, B = normal_form(lams) if kind == "nf" else congruent(rng, [1.0] * n, lams)
    f = compose(random_P(rng, n, 4), quadric(A, B), n)
    if d0 is not None:
        f = poly_add(f, obstruction(rng, n, d0)[0])
    doc = {"model": model_doc(A, B), "f": poly_doc(f, n)}
    return Doc(f"check cr n{n} {kind}", "check", json.dumps(doc), [], {"exit": 0, "mode": "cr-fields", "passed": d0 is None})


def _eval_P(P, z, w):
    return sum(c * z ** a[0] * w**k for a, k, c in P)


def leaf_extend_doc(rng, lam, with_E, N, data_kind, npoints=16):
    """leaf-extend at random points inside half the leaf's inradius.

    On the leaf rho = r^2, so f = P(z, rho) has Cauchy extension P(z, r^2);
    the built-ins extend to z, a constant and sqrt(r^2) = r.
    """
    mdoc, rho = _leaf_model(rng, lam, with_E)
    r = float(rng.uniform(0.08, 0.2))
    inradius = r / np.sqrt(1 + 2 * lam) * (0.85 if with_E else 1.0)
    rad = 0.5 * inradius * np.sqrt(rng.uniform(0, 1, npoints))
    pts = rad * np.exp(1j * rng.uniform(0, 2 * np.pi, npoints))
    if data_kind == "polynomial":
        P = random_P(rng, 1, 4)
        data = {"polynomial": poly_doc(compose(P, rho, 1), 1)}
        ref = [_eval_P(P, z, r * r) for z in pts]
    elif data_kind == "identity":
        data, ref = {"builtin": "identity"}, list(pts)
    elif data_kind == "constant":
        v = float(rng.uniform(-2, 2))
        data, ref = {"builtin": "constant", "value": v}, [complex(v)] * npoints
    else:
        data, ref = {"builtin": "sqrt-re-w"}, [complex(r)] * npoints
    doc = {
        "model": mdoc,
        "data": data,
        "r": r,
        "points": [{"re": float(z.real), "im": float(z.imag)} for z in pts],
    }
    tag = f"leaf-extend lam{lam} {'E' if with_E else 'noE'} N{N} {data_kind}"
    return Doc(tag, "leaf-extend", json.dumps(doc), ["--grid-n", str(N)], {"exit": 0, "values": ref})


def probe_doc(rng, family, N, data_kind, lam=0.0, with_E=False):
    """probe-degenerate with a construction-known growth law of F(0, s).

    sqrt-re-w gives F(0, s) = s^(1/2), exponent -1/2.  Polynomial data
    P(z, rho) with P(0, w) = c w^m gives exponent m - 1; with P(0, w)
    constant the derivative vanishes and the label is 'bounded (≈0)'.
    """
    ratio = float(rng.uniform(1.5, 2.0))
    if family == "radial":
        fam = {"kind": "radial", "power": 4}
        start = float(10 ** rng.uniform(-5, -3))
    else:
        mdoc, rho = _leaf_model(rng, lam, with_E)
        fam = {"kind": "quadric", "model": mdoc}
        start = float(10 ** rng.uniform(-4.5, -3.7))  # top rung stays below r = 0.2
    if data_kind == "sqrt-re-w":
        data, expect = {"builtin": "sqrt-re-w"}, {"label": "power-law", "exponent": -0.5}
    else:
        m = {"w": 1, "w2": 2, "bounded": 0}[data_kind]
        P = random_P(rng, 1, 4, pure_w=m)  # no pure w-terms but c w^m
        data = {"polynomial": poly_doc(compose(P, rho, 1), 1)}
        expect = {"label": "bounded (≈0)", "exponent": None} if m == 0 else {"label": "power-law", "exponent": m - 1.0}
    doc = {"family": fam, "data": data, "ladder": {"start": start, "ratio": ratio, "count": LADDER_RUNGS}}
    tag = f"probe {family} lam{lam} {'E' if with_E else 'noE'} N{N} {data_kind}"
    return Doc(tag, "probe-degenerate", json.dumps(doc), ["--grid-n", str(N)], {"exit": 0, **expect})


def classify_doc(rng, n, cls):
    """classify a random congruent model of a chosen class."""
    lams = random_lams(rng, n)
    diag_a = [1.0] * n
    expect = {"exit": 0, "classification": cls}
    if cls == "elliptic":
        expect["lambdas"] = lams
    elif cls == "parabolic":
        lams[-1] = 0.5
        expect["lambdas"] = lams
    elif cls == "hyperbolic" and n % 2:
        lams[-1] = float(rng.uniform(0.6, 1.5))
        expect["lambdas"] = lams
    elif cls == "hyperbolic":
        diag_a[0] = -1.0  # indefinite A: no Bishop invariants
        expect["lambdas"] = None
    else:
        diag_a[0] = 0.0
        expect["lambdas"] = None
    A, B = congruent(rng, diag_a, lams)
    return Doc(f"classify n{n} {cls}", "classify", json.dumps(model_doc(A, B)), [], expect)


def invalid_doc(rng, which):
    """Documents the CLI must reject with exit 2."""
    A, B = normal_form([0.2])
    good = model_doc(A, B)
    f = poly_doc({((1,), (1,)): 1.0 + 0j}, 1)
    if which == "malformed":
        return Doc("invalid malformed", "classify", '{"n": 1, "A": [[', [], {"exit": 2})
    if which == "missing-f":
        return Doc("invalid missing-f", "extend", json.dumps({"model": good}), [], {"exit": 2})
    if which == "non-hermitian":
        doc = model_doc(np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex), np.zeros((2, 2), dtype=complex))
        return Doc("invalid non-hermitian", "classify", json.dumps(doc), [], {"exit": 2})
    if which == "hyperbolic-extend":
        hyp = model_doc(*normal_form([float(rng.uniform(0.6, 1.5))]))
        return Doc("invalid hyperbolic-extend", "extend", json.dumps({"model": hyp, "f": f}), [], {"exit": 2})
    if which == "outside-leaf":
        doc = {"model": good, "data": {"builtin": "identity"}, "r": 0.1, "points": [{"re": 0.5, "im": 0.0}]}
        return Doc("invalid outside-leaf", "leaf-extend", json.dumps(doc), [], {"exit": 2})
    return Doc("invalid grid-n", "check", json.dumps({"model": good, "f": f}), ["--grid-n", "100"], {"exit": 2})


# -- workloads ------------------------------------------------------------------


def _extend_graded(rng, spread):
    docs = []
    for n, D, kind in (
        (1, 14, "nf"), (1, 10, "nn"), (2, 14, "nf"), (2, 12, "nn"),
        (2, 8, "nf"), (3, 10, "nf"), (3, 8, "nf"), (3, 6, "nn"),
    ):
        lam = LAMBDAS[int(rng.integers(4))] if n == 1 and kind == "nf" else None
        docs.append(extend_doc(rng, n, D, kind, lam=lam))
        docs.append(extend_doc(rng, n, D, kind, d0=spread(1, D), lam=lam))
    # degree 14 at n = 3 only as an early exit: cheap at the seed, costly for
    # any change that builds every power of Q before the first solve
    docs.append(extend_doc(rng, 3, 14, "nf", d0=spread(2, 8)))
    return docs


def _leaf_quadrature(rng, spread):
    docs = [zbar_moment_doc(k, lam) for lam in LAMBDAS for k in range(5, 11)]
    for _ in range(4):  # so that the fixed zbar^k set is a fifth of the block
        for i, lam in enumerate(LAMBDAS):
            docs.append(moment_doc(rng, lam, i % 2 == 1, 512, spread(1, 4) if i >= 2 else None))
            docs.append(moment_doc(rng, lam, i % 2 == 0, 4096, spread(1, 4) if i < 2 else None))
        for i, (lam, data_kind) in enumerate(
            zip(LAMBDAS, ("polynomial", "identity", "polynomial", "sqrt-re-w"))
        ):
            docs.append(leaf_extend_doc(rng, lam, i % 2 == 0, 512, data_kind))
            docs.append(leaf_extend_doc(rng, lam, i % 2 == 1, 4096, "polynomial" if i % 2 else "constant"))
        docs += [
            probe_doc(rng, "radial", 512, "sqrt-re-w"),
            probe_doc(rng, "radial", 4096, "sqrt-re-w"),
            probe_doc(rng, "quadric", 512, "w", lam=0.1, with_E=True),
            probe_doc(rng, "quadric", 4096, "w2", lam=0.3),
            probe_doc(rng, "quadric", 512, "bounded", lam=0.45, with_E=True),
            probe_doc(rng, "quadric", 4096, "sqrt-re-w", lam=0.0),
        ]
    return docs


def _cli_small(rng, spread):
    docs = [
        classify_doc(rng, n, cls)
        for n in (1, 2, 3, 4)
        for cls in ("elliptic", "hyperbolic", "parabolic", "degenerate")
    ]
    docs += [
        extend_doc(rng, 1, 4, "nf", lam=0.3),
        extend_doc(rng, 1, 4, "nf", d0=spread(1, 4), lam=0.0),
        extend_doc(rng, 2, 4, "nn"),
        extend_doc(rng, 2, 4, "nn", d0=spread(1, 4)),
        # a fifth costly stratum, so that p90 falls inside a group of similar
        # documents rather than on the step between two
        extend_doc(rng, 2, 4, "nf"),
        extend_doc(rng, 3, 3, "nf"),
        extend_doc(rng, 3, 3, "nf", d0=spread(1, 3)),
    ]
    for n in (2, 3, 4):
        docs += [cr_doc(rng, n, "nf" if n % 2 else "nn"), cr_doc(rng, n, "nf" if n % 2 else "nn", spread(1, 4))]
    docs += [
        leaf_extend_doc(rng, 0.0, False, 64, "polynomial", npoints=4),
        leaf_extend_doc(rng, 0.1, True, 128, "polynomial", npoints=4),
        leaf_extend_doc(rng, 0.3, False, 256, "identity", npoints=4),
        probe_doc(rng, "radial", 64, "sqrt-re-w"),
        probe_doc(rng, "quadric", 128, "w", lam=0.1),
        probe_doc(rng, "quadric", 256, "bounded", lam=0.3),
    ]
    docs += [
        invalid_doc(rng, which)
        for which in ("malformed", "missing-f", "non-hermitian", "hyperbolic-extend", "outside-leaf", "grid-n")
    ]
    return docs


WORKLOADS = {
    "extend-graded": _extend_graded,
    "leaf-quadrature": _leaf_quadrature,
    "cli-small": _cli_small,
}


# Obstruction degrees are stratified over this many consecutive blocks, about
# the number of blocks in one extend-graded run.
SPREAD_BLOCKS = 7


def block(workload, seed, index):
    """The index-th block of a workload: one document per stratum, shuffled."""
    key = sorted(WORKLOADS).index(workload)
    rng = np.random.default_rng([seed, key, index])
    offsets = np.random.default_rng([seed, key])

    def spread(lo, hi):
        """The degree in [lo, hi] at the middle of slice (index + offset) %
        SPREAD_BLOCKS of the range: any SPREAD_BLOCKS consecutive blocks take
        the same degrees, so the mix of early and late exits, and with it the
        cost of a run, does not depend on the seed."""
        part = (index + int(offsets.integers(SPREAD_BLOCKS))) % SPREAD_BLOCKS
        return lo + int((part + 0.5) / SPREAD_BLOCKS * (hi - lo + 1))

    docs = WORKLOADS[workload](rng, spread)
    order = rng.permutation(len(docs))
    return [docs[i] for i in order]
