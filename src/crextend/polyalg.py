"""Sparse polynomial arithmetic in z_1..z_n, zbar_1..zbar_n and w.

Terms are keyed by an exponent triple (alpha, beta, k) meaning
z^alpha * zbar^beta * w^k, with complex double coefficients.  zbar is
treated as an independent symbol during arithmetic; evaluate() plugs in
the actual conjugate.  All operations are pure: they return new
Polynomial objects and never mutate their arguments.

Coefficients with modulus below ZERO_THRESHOLD are pruned after every
arithmetic operation, so "is zero" means "has no stored terms".
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import InputError

ZERO_THRESHOLD = 1e-14
DEGREE_CAP = 64


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


def _as_exponent(n, alpha, beta, k):
    alpha = tuple(int(a) for a in alpha)
    beta = tuple(int(b) for b in beta)
    k = int(k)
    if len(alpha) != n or len(beta) != n:
        raise InputError(
            f"exponent vectors must have length n={n}, got {len(alpha)} and {len(beta)}"
        )
    if any(a < 0 for a in alpha) or any(b < 0 for b in beta) or k < 0:
        raise InputError(f"negative exponent in term ({alpha}, {beta}, {k})")
    return Exponent(alpha, beta, k)


def term_sort_key(e: Exponent):
    """Graded lexicographic order used for serialization and display."""
    return (e.weighted_degree(), e.alpha, e.beta, e.k)


class Polynomial:
    """Immutable sparse polynomial in z, zbar and w over the complex doubles."""

    __slots__ = ("n", "_terms")

    def __init__(self, n, terms=None):
        n = int(n)
        if n < 1:
            raise InputError(f"dimension n must be >= 1, got {n}")
        object.__setattr__(self, "n", n)
        clean = {}
        if terms:
            for key, coeff in terms.items():
                if not isinstance(key, Exponent):
                    key = _as_exponent(n, key[0], key[1], key[2])
                elif len(key.alpha) != n or len(key.beta) != n:
                    raise InputError("exponent length does not match dimension")
                c = complex(coeff)
                if abs(c) < ZERO_THRESHOLD:
                    continue
                clean[key] = clean.get(key, 0.0) + c
                if abs(clean[key]) < ZERO_THRESHOLD:
                    del clean[key]
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n):
        return cls(n, {})

    @classmethod
    def constant(cls, n, value):
        return cls.monomial(n, (0,) * n, (0,) * n, 0, value)

    @classmethod
    def monomial(cls, n, alpha, beta, k, coeff=1.0):
        e = _as_exponent(n, alpha, beta, k)
        return cls(n, {e: complex(coeff)})

    @classmethod
    def z(cls, n, j=0):
        alpha = [0] * n
        alpha[j] = 1
        return cls.monomial(n, alpha, (0,) * n, 0)

    @classmethod
    def zbar(cls, n, j=0):
        beta = [0] * n
        beta[j] = 1
        return cls.monomial(n, (0,) * n, beta, 0)

    @classmethod
    def w(cls, n):
        return cls.monomial(n, (0,) * n, (0,) * n, 1)

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponent, complex]:
        return self._terms

    def coefficient(self, alpha, beta=None, k=0):
        if isinstance(alpha, Exponent):
            return self._terms.get(alpha, 0.0)
        if beta is None:
            beta = (0,) * self.n
        return self._terms.get(_as_exponent(self.n, alpha, beta, k), 0.0)

    def sorted_terms(self) -> Iterator[tuple]:
        for e in sorted(self._terms, key=term_sort_key):
            yield e, self._terms[e]

    def is_zero(self):
        return not self._terms

    def degree(self):
        """Total degree (w counted once); -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(e.degree() for e in self._terms)

    def weighted_degree(self):
        if not self._terms:
            return -1
        return max(e.weighted_degree() for e in self._terms)

    def max_coeff(self):
        """Largest coefficient modulus, 0 for the zero polynomial."""
        if not self._terms:
            return 0.0
        return max(abs(c) for c in self._terms.values())

    def has_w_terms(self):
        return any(e.k > 0 for e in self._terms)

    def is_holomorphic(self):
        """True when no zbar appears (w-terms allowed)."""
        return all(sum(e.beta) == 0 for e in self._terms)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self):
        return hash((self.n, frozenset(self._terms.items())))

    def __repr__(self):
        return f"Polynomial(n={self.n}, {self.pretty()!r})"

    def pretty(self):
        """Deterministic human-readable form, e.g. 'z^2 w + 2 z'."""
        if not self._terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for j, a in enumerate(e.alpha):
                if a:
                    name = "z" if self.n == 1 else f"z{j + 1}"
                    factors.append(name if a == 1 else f"{name}^{a}")
            for j, b in enumerate(e.beta):
                if b:
                    name = "zb" if self.n == 1 else f"zb{j + 1}"
                    factors.append(name if b == 1 else f"{name}^{b}")
            if e.k:
                factors.append("w" if e.k == 1 else f"w^{e.k}")
            if c == 1 and factors:
                coeff = ""
            elif c.imag == 0:
                coeff = f"{c.real:g}"
            elif c.real == 0:
                coeff = f"{c.imag:g}i"
            else:
                sign = "+" if c.imag >= 0 else "-"
                coeff = f"({c.real:g}{sign}{abs(c.imag):g}i)"
            parts.append(" ".join(([coeff] if coeff else []) + factors) or coeff)
        return " + ".join(parts)

    # -- arithmetic --------------------------------------------------------

    def _require_same_dim(self, other):
        if self.n != other.n:
            raise InputError(f"dimension mismatch: n={self.n} vs n={other.n}")

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = Polynomial.constant(self.n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_dim(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0.0) + c
        return Polynomial(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.n, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = Polynomial.constant(self.n, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            c = complex(other)
            return Polynomial(self.n, {e: c * v for e, v in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_dim(other)
        if self._terms and other._terms:
            if self.degree() + other.degree() > DEGREE_CAP:
                raise InputError(
                    f"product degree {self.degree() + other.degree()} exceeds cap {DEGREE_CAP}"
                )
        out = {}
        n = self.n
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                key = Exponent(
                    tuple(a + b for a, b in zip(e1.alpha, e2.alpha)),
                    tuple(a + b for a, b in zip(e1.beta, e2.beta)),
                    e1.k + e2.k,
                )
                out[key] = out.get(key, 0.0) + c1 * c2
        return Polynomial(n, out)

    __rmul__ = __mul__

    def __pow__(self, m):
        m = int(m)
        if m < 0:
            raise InputError("negative power")
        result = Polynomial.constant(self.n, 1.0)
        for _ in range(m):
            result = result * self
        return result

    # -- structure operations ----------------------------------------------

    def conjugate(self):
        """Complex conjugate: swaps alpha and beta, conjugates coefficients.

        Refused on w-terms: w is only real on the hull slice Im w = 0, so
        conjugation is not well defined for them.
        """
        if self.has_w_terms():
            raise InputError("conjugate: polynomial has w-terms")
        return Polynomial(
            self.n,
            {Exponent(e.beta, e.alpha, 0): c.conjugate() for e, c in self._terms.items()},
        )

    def homogeneous_part(self, d, weighted=False):
        """Terms of exact degree d.

        With weighted=False the grading is |alpha| + |beta| + k; with
        weighted=True it is |alpha| + |beta| + 2k (deg w = 2).  Summing the
        parts over all d recovers the polynomial exactly.
        """
        if weighted:
            picked = {e: c for e, c in self._terms.items() if e.weighted_degree() == d}
        else:
            picked = {e: c for e, c in self._terms.items() if e.degree() == d}
        return Polynomial(self.n, picked)

    def substitute_w(self, q: "Polynomial"):
        """Replace w by the w-free polynomial q and expand."""
        self._require_same_dim(q)
        if q.has_w_terms():
            raise InputError("substitute_w: replacement polynomial contains w")
        if self._terms:
            qdeg = max(q.degree(), 0)
            worst = max(e.degree() - e.k + e.k * qdeg for e in self._terms)
            if worst > DEGREE_CAP:
                raise InputError("substitute_w: expanded degree exceeds cap")
        powers = {0: Polynomial.constant(self.n, 1.0)}
        result = Polynomial.zero(self.n)
        for e, c in self._terms.items():
            if e.k not in powers:
                p = powers[max(powers)]
                for m in range(max(powers) + 1, e.k + 1):
                    p = p * q
                    powers[m] = p
            mono = Polynomial.monomial(self.n, e.alpha, e.beta, 0, c)
            result = result + mono * powers[e.k]
        return result

    def involution_pullback(self, lam):
        """Substitute zbar <- -z/lam - zbar (n = 1 only, lam > 0).

        This is the pullback by the involution fixing the quadric
        z*zbar + lam*(z^2 + zbar^2); applying it twice is the identity.
        """
        if self.n != 1:
            raise InputError("involution_pullback: only defined for n = 1")
        if not lam > 0:
            raise InputError(f"involution_pullback: lambda must be positive, got {lam}")
        if self.has_w_terms():
            raise InputError("involution_pullback: polynomial has w-terms")
        out = {}
        for e, c in self._terms.items():
            j, kk = e.alpha[0], e.beta[0]
            # (-z/lam - zbar)^kk expanded binomially
            for m in range(kk + 1):
                coeff = c * math.comb(kk, m) * (-1.0) ** kk * lam ** (m - kk)
                key = Exponent((j + kk - m,), (m,), 0)
                out[key] = out.get(key, 0.0) + coeff
        return Polynomial(1, out)

    def partial_derivative(self, var, index=0):
        """Formal partial derivative with respect to z_index, zbar_index or w.

        var is one of "z", "zbar", "w"; zbar is differentiated as an
        independent symbol.
        """
        if var not in ("z", "zbar", "w"):
            raise InputError(f"partial_derivative: unknown symbol {var!r}")
        if var != "w" and not 0 <= index < self.n:
            raise InputError(f"partial_derivative: index {index} out of range for n={self.n}")
        out = {}
        for e, c in self._terms.items():
            if var == "z":
                m = e.alpha[index]
                if m == 0:
                    continue
                alpha = list(e.alpha)
                alpha[index] -= 1
                key = Exponent(tuple(alpha), e.beta, e.k)
            elif var == "zbar":
                m = e.beta[index]
                if m == 0:
                    continue
                beta = list(e.beta)
                beta[index] -= 1
                key = Exponent(e.alpha, tuple(beta), e.k)
            else:
                m = e.k
                if m == 0:
                    continue
                key = Exponent(e.alpha, e.beta, e.k - 1)
            out[key] = out.get(key, 0.0) + m * c
        return Polynomial(self.n, out)

    def evaluate(self, z, w=0.0):
        """Evaluate at points z of shape (..., n); zbar is the actual conjugate of z.

        For n = 1 a scalar is one point; w broadcasts over the point shape.
        Returns a complex for one point, else an array.  Terms are summed one
        at a time as c * z^alpha * zbar^beta * w^k: no points x terms array.
        """
        z = np.asarray(z, dtype=complex)
        if self.n == 1 and z.ndim == 0:
            z = z[None]
        if z.ndim == 0 or z.shape[-1] != self.n:
            raise InputError(
                f"evaluate: expected points with {self.n} coordinates, got shape {z.shape}"
            )
        zb = np.conj(z)
        w = np.asarray(w, dtype=complex)
        total = np.zeros(np.broadcast_shapes(z.shape[:-1], w.shape), dtype=complex)
        for e, c in self._terms.items():
            val = c
            for j in range(self.n):
                if e.alpha[j]:
                    val = val * z[..., j] ** e.alpha[j]
                if e.beta[j]:
                    val = val * zb[..., j] ** e.beta[j]
            if e.k:
                val = val * w**e.k
            total = total + val
        return complex(total) if total.ndim == 0 else total

    # -- serialization -------------------------------------------------------

    def to_json_dict(self):
        return {
            "n": self.n,
            "terms": [
                {
                    "alpha": list(e.alpha),
                    "beta": list(e.beta),
                    "k": e.k,
                    "re": c.real,
                    "im": c.imag,
                }
                for e, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, doc):
        if not isinstance(doc, dict):
            raise InputError("polynomial document must be a JSON object")
        for field in ("n", "terms"):
            if field not in doc:
                raise InputError(f"polynomial document missing field {field!r}")
        n = doc["n"]
        if not isinstance(n, int) or n < 1:
            raise InputError(f"polynomial field 'n' must be a positive integer, got {n!r}")
        if not isinstance(doc["terms"], list):
            raise InputError("polynomial field 'terms' must be a list")
        terms = {}
        for i, t in enumerate(doc["terms"]):
            if not isinstance(t, dict):
                raise InputError(f"terms[{i}] must be an object")
            for field in ("alpha", "beta", "k", "re", "im"):
                if field not in t:
                    raise InputError(f"terms[{i}] missing field {field!r}")
            if not isinstance(t["alpha"], list) or not isinstance(t["beta"], list):
                raise InputError(f"terms[{i}]: alpha and beta must be lists")
            if not all(isinstance(a, int) for a in t["alpha"] + t["beta"]):
                raise InputError(f"terms[{i}]: exponents must be integers")
            if not isinstance(t["k"], int):
                raise InputError(f"terms[{i}]: k must be an integer")
            e = _as_exponent(n, t["alpha"], t["beta"], t["k"])
            c = complex_from_json(t, f"terms[{i}]")
            if e in terms:
                raise InputError(f"terms[{i}]: duplicate exponent {tuple(e)}")
            terms[e] = c
        return cls(n, terms)


def complex_from_json(v, where):
    """The complex number of a {"re", "im"} object; finite parts only."""
    if not isinstance(v, dict) or "re" not in v or "im" not in v:
        raise InputError(f"{where} must be an object with 're' and 'im'")
    try:
        c = complex(float(v["re"]), float(v["im"]))
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where}: 're' and 'im' must be numbers") from exc
    if not cmath.isfinite(c):
        raise InputError(f"{where}: non-finite number {c}")
    return c


def monomials(n, d) -> Iterable[tuple]:
    """All exponent vectors of length n with entries summing to d, lex order."""
    if n == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in monomials(n - 1, d - first):
            yield (first,) + rest
