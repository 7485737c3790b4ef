"""Shared random-corpus builders; every test seeds its own generator."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from crextend import Polynomial, QuadricModel
from crextend.polyalg import monomials
from dictref import Exponent, from_terms, term_dict

LAMBDA_CHOICES = (0.0, 0.1, 0.3, 0.45)


def perfbench_corpus():
    """The benchmark's document generator, perfbench/corpus.py."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import corpus
    finally:
        sys.path.pop(0)
    return corpus


def random_coeff(rng, min_mod=0.1):
    """Complex coefficient with modulus bounded away from zero."""
    mod = rng.uniform(min_mod, 1.0)
    arg = rng.uniform(0, 2 * np.pi)
    return mod * np.exp(1j * arg)


def random_polynomial(rng, n, max_degree, nterms=8, with_w=False):
    terms = {}
    for _ in range(nterms):
        d = int(rng.integers(0, max_degree + 1))
        k = int(rng.integers(0, d // 2 + 1)) if with_w else 0
        left = d - (2 * k if with_w else 0)
        split = int(rng.integers(0, left + 1))
        alpha = _random_exponent_vector(rng, n, split)
        beta = _random_exponent_vector(rng, n, left - split)
        terms[Exponent(alpha, beta, k)] = random_coeff(rng)
    return from_terms(n, terms)


def random_holomorphic(rng, n, max_weighted_degree, nterms=8):
    """Random P(z, w) with |alpha| + 2k <= max_weighted_degree."""
    terms = {}
    for _ in range(nterms):
        d = int(rng.integers(0, max_weighted_degree + 1))
        k = int(rng.integers(0, d // 2 + 1))
        alpha = _random_exponent_vector(rng, n, d - 2 * k)
        terms[Exponent(alpha, (0,) * n, k)] = random_coeff(rng)
    return from_terms(n, terms)


def _random_exponent_vector(rng, n, total):
    choices = list(monomials(n, total))
    return choices[int(rng.integers(0, len(choices)))]


def random_model(rng, n, posdef_shift=0.5):
    """Unit-scale model with positive definite A and random symmetric B."""
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A = G @ G.conj().T / n + posdef_shift * np.eye(n)
    S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    B = (S + S.T) / 2
    return QuadricModel(A=A, B=B)


def congruent_model(rng, lambdas):
    """A = S^H S, B = S^T diag(lambdas) S for a random well-conditioned S.

    Its Bishop invariants are exactly lambdas.  Draws and rounding follow
    perfbench/corpus.py's congruent(), so a seed gives the same matrices.
    """
    n = len(lambdas)
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    U, _ = np.linalg.qr(G)
    S = np.diag(rng.uniform(0.7, 1.4, n)) @ U
    A = S.conj().T @ S
    B = S.T @ np.diag(np.asarray(lambdas, dtype=complex)) @ S
    return QuadricModel(A=(A + A.conj().T) / 2, B=(B + B.T) / 2)


def random_lambdas(rng, n):
    return [LAMBDA_CHOICES[int(rng.integers(0, len(LAMBDA_CHOICES)))] for _ in range(n)]


def random_unit_vector(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def per_term_evaluate(p, z, w=0.0):
    """Polynomial.evaluate as it was before it summed blocks of terms: one term at a time.

    A copy of the package's per-term loop, kept as the reference for its bits.
    """
    n = p.n
    z = np.asarray(z, dtype=complex)
    if n == 1 and z.ndim == 0:
        z = z[None]
    zb = np.conj(z)
    w = np.asarray(w, dtype=complex)
    columns = [z[..., j] for j in range(n)] + [zb[..., j] for j in range(n)] + [w]
    tops = p.exps.max(axis=0, initial=0).tolist()
    tables = []
    for x, top in zip(columns, tops):
        table = [None, x]
        for _ in range(top - 1):
            table.append(table[-1] * x)
        tables.append(table)
    total = np.zeros(np.broadcast(columns[0], w).shape, dtype=complex)
    for row, c in p.terms:
        val = c
        for table, e in zip(tables, row):
            if e:
                val = val * table[e]
        total += val
    return complex(total) if total.ndim == 0 else total


def loop_evaluate(p, z, w=0.0):
    """Reference evaluation at one point, term by term in Python complex arithmetic."""
    total = 0j
    for e, c in term_dict(p).items():
        val = c
        for j in range(p.n):
            val *= complex(z[j]) ** e.alpha[j] * complex(z[j]).conjugate() ** e.beta[j]
        total += val * complex(w) ** e.k
    return total
