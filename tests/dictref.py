"""Test-only reference arithmetic on term dicts {Exponent: complex}.

These are the dict loops crextend.polyalg used before its array core: every
operation walks the terms in Python, sums products into a dict at the
resulting exponent and prunes sums below ZERO_THRESHOLD.  The property tests
compare the array core against them.  from_terms, term_dict and coefficient
convert between term dicts and Polynomial, and extend_lambda0 is the exact
monomial route on the sphere quadric that the graded solve is checked
against.  sorted_runs is the graded sort of exponent rows that the
array core's merge is checked against.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from crextend import InputError, Polynomial
from crextend.extend import Certificate, ExtensionResult
from crextend.polyalg import ZERO_THRESHOLD


class Exponent(NamedTuple):
    """Exponent triple of a single term z^alpha * zbar^beta * w^k."""

    alpha: tuple
    beta: tuple
    k: int

    def degree(self):
        """Total degree with w counted once."""
        return sum(self.alpha) + sum(self.beta) + self.k

    def weighted_degree(self):
        """Graded degree with deg z_j = deg zbar_j = 1 and deg w = 2."""
        return sum(self.alpha) + sum(self.beta) + 2 * self.k


def term_sort_key(e: Exponent):
    """The graded order of Polynomial's rows: weighted degree, then alpha, beta and k."""
    return (e.weighted_degree(), e.alpha, e.beta, e.k)


def sorted_runs(exps):
    """polyalg.sorted_runs by a stable Python sort of the rows by term_sort_key.

    (order, starts): the rows' indices in graded order, equal rows in the
    order they come, and the position in it of the first row of each run
    of equal rows.
    """
    n = (exps.shape[1] - 1) // 2
    keys = [term_sort_key(Exponent(tuple(r[:n]), tuple(r[n:-1]), r[-1])) for r in exps.tolist()]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    starts = [i for i, j in enumerate(order) if i == 0 or keys[j] != keys[order[i - 1]]]
    return np.array(order, dtype=np.intp), np.array(starts, dtype=np.intp)


def from_terms(n, terms):
    """The Polynomial of a term dict {(alpha, beta, k): coeff}."""
    rows = np.array([(*alpha, *beta, k) for alpha, beta, k in terms], dtype=np.int64)
    return Polynomial(n, rows.reshape(len(terms), 2 * n + 1), list(terms.values()))


def term_dict(p):
    """p's terms as {Exponent: complex}, in p's graded order."""
    n = p.n
    return {Exponent(tuple(row[:n]), tuple(row[n : 2 * n]), row[2 * n]): c for row, c in p.terms}


def coefficient(p, e):
    """p's coefficient of the term with exponent triple e, 0 when absent."""
    return term_dict(p).get(Exponent(*e), 0.0)


def extend_lambda0(f):
    """Extension on the sphere quadric w = z*zbar (n = 1, lambda = 0).

    Monomial by monomial, z^j zbar^k maps to z^(j-k) w^k; this works
    exactly when every term has j >= k, and the first term (in graded
    order) violating that is the certificate.
    """
    if f.n != 1:
        raise InputError("extend_lambda0: f must have n = 1")
    if f.has_w_terms():
        raise InputError("extend_lambda0: f must not contain w")
    terms = term_dict(f)
    offending = next(((e.alpha[0], e.beta[0]) for e in terms if e.alpha[0] < e.beta[0]), None)
    if offending is not None:
        d = sum(offending)
        bad = [abs(c) for e, c in terms.items() if e.alpha[0] < e.beta[0] and e.degree() == d]
        residual = float(np.sqrt(sum(b * b for b in bad)))
        return ExtensionResult(
            status="NotExtendible",
            P=None,
            residual=residual,
            certificate=Certificate(
                d, residual, "monomial z^j zbar^k with j < k", {"offending": offending}
            ),
        )
    P = from_terms(1, {((e.alpha[0] - e.beta[0],), (0,), e.beta[0]): c for e, c in terms.items()})
    rho = Polynomial.monomial(1, (1,), (1,), 0)
    residual = (P.substitute_w(rho) - f).max_coeff()
    return ExtensionResult(status="Extended", P=P, residual=residual)


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
