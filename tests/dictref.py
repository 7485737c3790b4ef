"""Test-only reference arithmetic on term dicts {Exponent: complex}.

These are the dict loops crextend.polyalg used before its array core: every
operation walks the terms in Python, sums products into a dict at the
resulting exponent and prunes sums below ZERO_THRESHOLD.  The property tests
compare the array core against them.
"""

from __future__ import annotations

import math

from crextend.polyalg import ZERO_THRESHOLD, Exponent


def prune(terms):
    return {e: c for e, c in terms.items() if abs(c) >= ZERO_THRESHOLD}


def add(t1, t2, sign=1.0):
    out = dict(t1)
    for e, c in t2.items():
        out[e] = out.get(e, 0.0) + sign * c
    return prune(out)


def mul(t1, t2):
    out = {}
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            key = Exponent(
                tuple(a + b for a, b in zip(e1.alpha, e2.alpha)),
                tuple(a + b for a, b in zip(e1.beta, e2.beta)),
                e1.k + e2.k,
            )
            out[key] = out.get(key, 0.0) + c1 * c2
    return prune(out)


def substitute_w(t, q, n):
    """Replace w by the w-free term dict q; q^k is built once per k."""
    powers = [{Exponent((0,) * n, (0,) * n, 0): 1.0 + 0j}]
    out = {}
    for e, c in t.items():
        while len(powers) <= e.k:
            powers.append(mul(powers[-1], q))
        for e2, c2 in powers[e.k].items():
            alpha = tuple(a + b for a, b in zip(e.alpha, e2.alpha))
            key = Exponent(alpha, tuple(a + b for a, b in zip(e.beta, e2.beta)), 0)
            out[key] = out.get(key, 0.0) + c * c2
    return prune(out)


def partial_derivative(t, var, index=0):
    out = {}
    for e, c in t.items():
        if var == "z":
            m = e.alpha[index]
            alpha = list(e.alpha)
            alpha[index] -= 1
            key = Exponent(tuple(alpha), e.beta, e.k)
        elif var == "zbar":
            m = e.beta[index]
            beta = list(e.beta)
            beta[index] -= 1
            key = Exponent(e.alpha, tuple(beta), e.k)
        else:
            m = e.k
            key = Exponent(e.alpha, e.beta, e.k - 1)
        if m:
            out[key] = out.get(key, 0.0) + m * c
    return prune(out)


def conjugate(t):
    return prune({Exponent(e.beta, e.alpha, 0): c.conjugate() for e, c in t.items()})


def homogeneous_part(t, d, weighted=False):
    return {e: c for e, c in t.items() if (e.weighted_degree() if weighted else e.degree()) == d}


def involution_pullback(t, lam):
    """zbar <- -z/lam - zbar for n = 1, expanded binomially."""
    out = {}
    for e, c in t.items():
        j, kk = e.alpha[0], e.beta[0]
        for m in range(kk + 1):
            coeff = c * math.comb(kk, m) * (-1.0) ** kk * lam ** (m - kk)
            key = Exponent((j + kk - m,), (m,), 0)
            out[key] = out.get(key, 0.0) + coeff
    return prune(out)
