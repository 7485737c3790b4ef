"""Sparse polynomials in z_1..z_n, zbar_1..zbar_n and w, stored as two arrays.

A Polynomial holds ``exps``, an int64 matrix of shape (m, 2n + 1) whose row
alpha | beta | k is the term z^alpha * zbar^beta * w^k, and ``coeffs``, the
m complex double coefficients of those rows.  zbar is an independent symbol
during arithmetic; evaluate() plugs in the actual conjugate.  Both arrays
are read-only and canonical: the rows are distinct and sorted in graded
order (weighted degree |alpha| + |beta| + 2k, then alpha, beta and k
lexicographically), and no coefficient has modulus below ZERO_THRESHOLD, so
"is zero" means "has no rows" and equal polynomials have equal arrays.
``terms`` lists the (row, coefficient) pairs in that order.

Polynomial(n, exps, coeffs) is the one constructor: it checks the shape and
signs of the rows and merges them.  Every operation that can reorder rows or
make two rows equal (sums, products, substitution, conjugation) ends in the
same merge: a stable sort of the rows into graded order, a sum over each run
of equal rows (np.add.reduceat, in the order the rows were produced), and
pruning of the sums below ZERO_THRESHOLD.  The sort (sorted_runs) packs
each row into one int64 key, the weighted degree and the columns as digits
above the row's index, and sorts the keys: they are distinct, so numpy's
fastest sort gives the stable order, and runs are where the key's high
bits change.  Rows too wide or too large for 63 bits are sorted by
np.lexsort on the same order instead.  Operations that keep the
rows distinct and in order (negation, scalar multiples, derivatives,
homogeneous parts) only prune.  A zero real or imaginary part is stored as
+0.0, never -0.0.

Substituting q for w has one engine, QPowers(q), whose images() expands
rows alpha | beta | k into z^alpha zbar^beta q^k, each q^k built once.
A product allocates one row per pair of terms, so __mul__ and a labelled
images() (as substitute_w and extend's gate call it) refuse (InputError)
more than MAX_TERM_PAIRS pairs before allocating them, and from_json_dict
refuses a document of more than MAX_TERMS terms.  All operations are
pure: they return new Polynomial objects.
"""

from __future__ import annotations

import cmath
import math
from itertools import chain
from typing import Iterable

import numpy as np

from .errors import InputError, NumericalFailure

ZERO_THRESHOLD = 1e-14
DEGREE_CAP = 64
# Largest term list from_json_dict reads.
MAX_TERMS = 2**16
# Largest product (pairs of terms) that __mul__, QPowers.images (substitute_w,
# extend's gate) and extend's Horner steps form: at n = 3 a pair takes 72
# bytes of exponents and coefficient, 2**22 pairs about 300 MB, the size of
# extend.MAX_GRADED_ENTRIES complex entries.
MAX_TERM_PAIRS = 2**22


def sorted_runs(exps):
    """(order, starts): a stable sort of the rows into graded order and
    the position in it of the first row of each run of equal rows.

    The rows hold non-negative ints; a row's weighted degree is its sum
    plus its last entry.  Each row gets one int64 key: its weighted degree
    and then every entry but the last (which those fix) as digits in radix
    (largest entry + 1), shifted over the row's index.  The keys are
    distinct, so any sort of them is the stable sort of the rows.  Rows
    whose keys would not fit in 63 bits are sorted by np.lexsort instead.
    """
    m, p = exps.shape
    if m < 2:
        return np.arange(m), np.arange(m)
    top = int(exps.max())
    shift = (m - 1).bit_length()
    span = (top + 1) ** (p - 1)
    if span * ((p + 1) * top + 1) << shift < 2**63:
        v = [(span + (top + 1) ** j) << shift for j in range(p - 2, -1, -1)]
        key = exps @ [*v, 2 * span << shift]
        key += np.arange(m)
        key.sort()
        order, high = key & ((1 << shift) - 1), key >> shift
        new = high[1:] != high[:-1]
    else:
        wdeg = exps.sum(axis=1) + exps[:, -1]
        order = np.lexsort(np.vstack((exps[:, ::-1].T, wdeg)))
        rows = exps[order]
        new = np.any(rows[1:] != rows[:-1], axis=1)
    return order, np.flatnonzero(np.concatenate(([True], new)))


def _prune(exps, coeffs):
    """Drop coefficients below ZERO_THRESHOLD; turn -0.0 parts into +0.0."""
    coeffs = coeffs + 0.0
    keep = np.abs(coeffs) >= ZERO_THRESHOLD
    if not keep.all():
        exps, coeffs = exps[keep], coeffs[keep]
    return exps, coeffs


def _merge(exps, coeffs):
    """Canonical arrays of the sum of the rows: sorted, equal rows summed, pruned."""
    if len(coeffs) > 1:
        order, starts = sorted_runs(exps)
        coeffs = np.add.reduceat(coeffs[order], starts)
        exps = exps[order[starts]]
    return _prune(exps, coeffs)


def check_pairs(pairs, what):
    """Refuse (InputError) a product of more than MAX_TERM_PAIRS pairs of terms, before it is formed."""
    if pairs > MAX_TERM_PAIRS:
        raise InputError(f"{what} has {pairs} pairs of terms, more than {MAX_TERM_PAIRS}")


def _powers(x, top):
    """Entry e is x^e for 1 <= e <= top, by repeated multiplication; entry 0 is unused."""
    table = [None, x]
    for _ in range(top - 1):
        table.append(table[-1] * x)
    return table


_setattr = object.__setattr__


class Polynomial:
    """Immutable sparse polynomial in z, zbar and w over the complex doubles."""

    __slots__ = ("n", "exps", "coeffs")

    def __init__(self, n, exps, coeffs):
        """The sum of the terms coeffs[i] * (row i of exps), rows alpha | beta | k."""
        n = int(n)
        if n < 1:
            raise InputError(f"dimension n must be >= 1, got {n}")
        exps = np.asarray(exps, dtype=np.int64)
        coeffs = np.asarray(coeffs, dtype=complex)
        if exps.shape != (len(coeffs), 2 * n + 1):
            raise InputError(
                f"exponent rows of shape {exps.shape} for {len(coeffs)} terms, n = {n}"
            )
        if (exps < 0).any():
            raise InputError("negative exponent")
        self._set(n, *_merge(exps, coeffs))

    def _set(self, n, exps, coeffs):
        exps.setflags(write=False)
        coeffs.setflags(write=False)
        _setattr(self, "n", n)
        _setattr(self, "exps", exps)
        _setattr(self, "coeffs", coeffs)

    @classmethod
    def _wrap(cls, n, exps, coeffs):
        """A Polynomial on arrays that are already canonical."""
        p = object.__new__(cls)
        p._set(n, exps, coeffs)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n):
        return cls(n, np.zeros((0, 2 * n + 1), dtype=np.int64), ())

    @classmethod
    def constant(cls, n, value):
        return cls.monomial(n, (0,) * n, (0,) * n, 0, value)

    @classmethod
    def monomial(cls, n, alpha, beta, k, coeff=1.0):
        if len(alpha) != n or len(beta) != n:
            raise InputError(
                f"exponent vectors must have length n={n}, got {len(alpha)} and {len(beta)}"
            )
        return cls(n, [[*alpha, *beta, k]], [coeff])

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
    def terms(self):
        """The (row, coefficient) pairs in graded order, row the list alpha + beta + [k]."""
        return list(zip(self.exps.tolist(), self.coeffs.tolist()))

    def is_zero(self):
        return not len(self.coeffs)

    def degree(self):
        """Total degree (w counted once); -1 for the zero polynomial."""
        return int(self.exps.sum(axis=1).max()) if len(self.coeffs) else -1

    def max_coeff(self):
        """Largest coefficient modulus, 0 for the zero polynomial."""
        return float(np.abs(self.coeffs).max()) if len(self.coeffs) else 0.0

    def has_w_terms(self):
        return bool(self.exps[:, -1].any())

    def is_holomorphic(self):
        """True when no zbar appears (w-terms allowed)."""
        return not self.exps[:, self.n : 2 * self.n].any()

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.exps, other.exps)
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((self.n, self.exps.tobytes(), self.coeffs.tobytes()))

    def __repr__(self):
        return f"Polynomial(n={self.n}, {self.pretty()!r})"

    def pretty(self):
        """Deterministic human-readable form, e.g. 'z^2 w + 2 z'."""
        if self.is_zero():
            return "0"
        names = [s if self.n == 1 else f"{s}{j + 1}" for s in ("z", "zb") for j in range(self.n)]
        names.append("w")
        parts = []
        for row, c in self.terms:
            factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, row) if e]
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

    def _plus(self, other, sign):
        if isinstance(other, (int, float, complex)):
            other = Polynomial.constant(self.n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_dim(other)
        coeffs = other.coeffs if sign > 0 else -other.coeffs
        exps = np.concatenate((self.exps, other.exps))
        return Polynomial._wrap(self.n, *_merge(exps, np.concatenate((self.coeffs, coeffs))))

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._wrap(self.n, *_prune(self.exps, -self.coeffs))

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return Polynomial._wrap(self.n, *_prune(self.exps, self.coeffs * complex(other)))
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_dim(other)
        if len(self.coeffs) and len(other.coeffs):
            if self.degree() + other.degree() > DEGREE_CAP:
                raise InputError(
                    f"product degree {self.degree() + other.degree()} exceeds cap {DEGREE_CAP}"
                )
            check_pairs(len(self.coeffs) * len(other.coeffs), "product")
        # one row per pair of terms, self's terms outermost
        exps = (self.exps[:, None, :] + other.exps[None, :, :]).reshape(-1, 2 * self.n + 1)
        coeffs = np.multiply.outer(self.coeffs, other.coeffs).ravel()
        return Polynomial._wrap(self.n, *_merge(exps, coeffs))

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
        n = self.n
        exps = self.exps[:, np.r_[n : 2 * n, :n, 2 * n]]
        return Polynomial._wrap(n, *_merge(exps, self.coeffs.conj()))

    def homogeneous_part(self, d, weighted=False):
        """Terms of exact degree d.

        With weighted=False the grading is |alpha| + |beta| + k; with
        weighted=True it is |alpha| + |beta| + 2k (deg w = 2).  Summing the
        parts over all d recovers the polynomial exactly.
        """
        degrees = self.exps.sum(axis=1)
        if weighted:
            degrees += self.exps[:, -1]
        picked = degrees == d
        return Polynomial._wrap(self.n, self.exps[picked], self.coeffs[picked])

    def substitute_w(self, q: "Polynomial"):
        """Replace w by the w-free polynomial q and expand: QPowers(q).images, merged.

        The terms go in by ascending k, so each sum takes its w^0 products first.
        """
        self._require_same_dim(q)
        if q.has_w_terms():
            raise InputError("substitute_w: replacement polynomial contains w")
        k = self.exps[:, -1]
        if len(k):
            qdeg = max(q.degree(), 0)
            if int((self.exps.sum(axis=1) + k * (qdeg - 1)).max()) > DEGREE_CAP:
                raise InputError("substitute_w: expanded degree exceeds cap")
        by_k = np.argsort(k, kind="stable")
        powers = QPowers(q)
        entries, src, count = powers.images(self.exps[by_k], "substitute_w")
        return Polynomial._wrap(self.n, *_merge(entries, self.coeffs[by_k].repeat(count) * powers.vals[src]))

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
        # (-z/lam - zbar)^kk expanded binomially: a term with zbar^kk gives kk + 1 terms, m = 0..kk
        counts = self.exps[:, 1] + 1
        term = np.repeat(np.arange(len(counts)), counts)
        m = np.arange(len(term)) - np.repeat(np.cumsum(counts) - counts, counts)
        j, kk = self.exps[term, 0], self.exps[term, 1]
        binom = np.array([math.comb(a, b) for a, b in zip(kk.tolist(), m.tolist())], dtype=float)
        coeffs = self.coeffs[term] * binom * (-1.0) ** kk * lam ** (m - kk)
        exps = np.stack((j + kk - m, m, np.zeros_like(m)), axis=1)
        return Polynomial._wrap(1, *_merge(exps, coeffs))

    def partial_derivative(self, var, index=0):
        """Formal partial derivative with respect to z_index, zbar_index or w.

        var is one of "z", "zbar", "w"; zbar is differentiated as an
        independent symbol.  Lowering one exponent of every row that has it
        keeps the rows distinct and in order, so no merge is needed.
        """
        if var not in ("z", "zbar", "w"):
            raise InputError(f"partial_derivative: unknown symbol {var!r}")
        if var != "w" and not 0 <= index < self.n:
            raise InputError(f"partial_derivative: index {index} out of range for n={self.n}")
        col = {"z": index, "zbar": self.n + index, "w": 2 * self.n}[var]
        power = self.exps[:, col]
        keep = power > 0
        exps = self.exps[keep]
        exps[:, col] -= 1
        return Polynomial._wrap(self.n, *_prune(exps, power[keep] * self.coeffs[keep]))

    def evaluate(self, z, w=0.0):
        """Evaluate at points z of shape (..., n); zbar is the actual conjugate of z.

        For n = 1 a scalar is one point; w broadcasts over the point shape.
        Returns a complex for one point, else an array.  Each column (z_j,
        zbar_j, w) gets one table of its powers up to its largest exponent,
        by repeated multiplication, and the terms are summed one at a time
        in graded order, so memory is the tables plus one term, never a
        points x terms array.
        """
        n = self.n
        z = np.asarray(z, dtype=complex)
        if n == 1 and z.ndim == 0:
            z = z[None]
        if z.ndim == 0 or z.shape[-1] != n:
            raise InputError(
                f"evaluate: expected points with {n} coordinates, got shape {z.shape}"
            )
        zb = np.conj(z)
        w = np.asarray(w, dtype=complex)
        columns = [z[..., j] for j in range(n)] + [zb[..., j] for j in range(n)] + [w]
        tops = self.exps.max(axis=0, initial=0).tolist()
        tables = [_powers(x, top) for x, top in zip(columns, tops)]
        total = np.zeros(np.broadcast(columns[0], w).shape, dtype=complex)
        for row, c in self.terms:
            val = c
            for table, e in zip(tables, row):
                if e:
                    val = val * table[e]
            total += val
        return complex(total) if total.ndim == 0 else total

    # -- serialization -------------------------------------------------------

    def to_json_dict(self):
        n = self.n
        return {
            "n": n,
            "terms": [
                {"alpha": row[:n], "beta": row[n : 2 * n], "k": row[-1], "re": c.real, "im": c.imag}
                for row, c in self.terms
            ],
        }

    @classmethod
    def from_json_dict(cls, doc):
        """The Polynomial of a {"n", "terms"} document; InputError names the first bad term."""
        if not isinstance(doc, dict):
            raise InputError("polynomial document must be a JSON object")
        for field in ("n", "terms"):
            if field not in doc:
                raise InputError(f"polynomial document missing field {field!r}")
        n = real_from_json(doc["n"], "polynomial field 'n'", integer=True)
        if n < 1:
            raise InputError(f"polynomial field 'n' must be a positive integer, got {n!r}")
        terms = doc["terms"]
        if not isinstance(terms, list):
            raise InputError("polynomial field 'terms' must be a list")
        if len(terms) > MAX_TERMS:
            raise InputError(f"polynomial has {len(terms)} terms, more than {MAX_TERMS}")
        if not terms:
            try:
                exps = np.zeros((0, 2 * n + 1), dtype=np.int64)
            except ValueError as exc:  # with terms, the rows themselves hold 2n + 1 numbers each
                raise InputError(f"polynomial field 'n' is too large, got {n}") from exc
            return cls._wrap(n, exps, np.zeros(0, dtype=complex))
        exps, coeffs = _term_arrays(terms, n) or _checked_term_arrays(terms, n)
        if len(coeffs) > 1:
            order, starts = sorted_runs(exps)
            if len(starts) < len(order):
                # the first term that is not first in its run repeats an earlier one
                i = int(np.setdiff1d(order, order[starts]).min())
                row = exps[i].tolist()
                e = (tuple(row[:n]), tuple(row[n:-1]), row[-1])
                raise InputError(f"terms[{i}]: duplicate exponent {e}")
            exps, coeffs = exps[order], coeffs[order]
        return cls._wrap(n, *_prune(exps, coeffs))


class QPowers:
    """q^0, q^1, ... of a w-free q stacked in one array, each power built on first use as the last one times q."""

    def __init__(self, q):
        self.q = self.last = q
        one = Polynomial.constant(q.n, 1.0)
        self.exps, self.vals = one.exps, one.coeffs
        self.start, self.size = np.zeros(1, np.int64), np.ones(1, np.int64)

    def grow(self, top):
        """Build every power up to q^top.  A power with a non-finite coefficient
        is refused (NumericalFailure naming k) and not kept, so asking for it
        again meets the same refusal."""
        while len(self.size) <= top:
            last = self.last * self.q if len(self.size) > 1 else self.last
            if not np.isfinite(last.coeffs).all():
                k = len(self.size)
                raise NumericalFailure(f"q^{k}, substituted for w^{k}, has a non-finite coefficient")
            self.last = last
            self.start = np.append(self.start, len(self.vals))
            self.size = np.append(self.size, len(last.coeffs))
            self.exps = np.concatenate((self.exps, last.exps))
            self.vals = np.concatenate((self.vals, last.coeffs))

    def images(self, rows, what=None):
        """(entries, src, count) of the rows alpha | beta | k of terms z^alpha zbar^beta w^k.

        Row i expands to z^alpha zbar^beta q^k: count[i] entries, q^k's rows
        with alpha | beta added, whose coefficients are vals[src] of those
        entries.  Given what, more than MAX_TERM_PAIRS entries in all are
        refused (InputError naming what) before they are formed.  A power
        with a non-finite coefficient is refused (NumericalFailure naming k)
        as it is built (grow), so no inf or nan reaches a caller's solve.
        """
        p = 2 * self.q.n
        ks = rows[:, -1]
        self.grow(ks.max(initial=0))
        count = self.size[ks]
        total = int(count.sum())
        if what is not None:
            check_pairs(total, what)
        src = np.arange(total) + (self.start[ks] + count - count.cumsum()).repeat(count)
        entries = self.exps[src]
        entries[:, :p] += rows[:, :p].repeat(count, axis=0)
        return entries, src, count


def _term_arrays(terms, n):
    """(exps, coeffs) of a non-empty list of well-formed terms, read as whole arrays.

    None on any anomaly: a missing field, exponents that are not lists of n
    exact ints (bool is not), coefficients that are not exact ints or floats,
    a number out of range, or a negative exponent or degree above DEGREE_CAP.
    _checked_term_arrays then finds the first bad term.
    """
    if set(map(type, terms)) != {dict}:
        return None
    try:
        alphas = [t["alpha"] for t in terms]
        betas = [t["beta"] for t in terms]
        ks = [t["k"] for t in terms]
        res = [t["re"] for t in terms]
        ims = [t["im"] for t in terms]
    except KeyError:
        return None
    vectors = alphas + betas
    if not (set(map(type, vectors)) <= {list} and set(map(len, vectors)) == {n}):
        return None
    flat = list(chain.from_iterable(vectors))
    if not (
        set(map(type, flat)) | set(map(type, ks)) == {int}
        and set(map(type, res)) | set(map(type, ims)) <= {int, float}
    ):
        return None
    m = len(terms)
    exps = np.empty((m, 2 * n + 1), dtype=np.int64)
    coeffs = np.empty(m, dtype=complex)
    try:
        alpha, beta = np.array(flat, dtype=np.int64).reshape(2, m, n)  # every alpha, then every beta
        exps[:, :n] = alpha
        exps[:, n : 2 * n] = beta
        exps[:, 2 * n] = ks
        coeffs.real = res
        coeffs.imag = ims
    except OverflowError:  # an int beyond int64 or beyond the float range
        return None
    if exps.min() < 0 or exps.max() > DEGREE_CAP or exps.sum(axis=1).max() > DEGREE_CAP:
        return None
    if not np.isfinite(coeffs).all():
        return None
    return exps, coeffs


def _checked_term_arrays(terms, n):
    """(exps, coeffs) of a term list, checked term by term; raises on the first bad term."""
    rows, values = [], []
    for i, t in enumerate(terms):
        if not isinstance(t, dict):
            raise InputError(f"terms[{i}] must be an object")
        for field in ("alpha", "beta", "k", "re", "im"):
            if field not in t:
                raise InputError(f"terms[{i}] missing field {field!r}")
        alpha, beta, k = t["alpha"], t["beta"], t["k"]
        if not isinstance(alpha, list) or not isinstance(beta, list):
            raise InputError(f"terms[{i}]: alpha and beta must be lists")
        if not all(isinstance(a, int) and not isinstance(a, bool) for a in alpha + beta):
            raise InputError(f"terms[{i}]: exponents must be integers")
        if isinstance(k, bool) or not isinstance(k, int):
            raise InputError(f"terms[{i}]: k must be an integer")
        if len(alpha) != n or len(beta) != n:
            raise InputError(
                f"exponent vectors must have length n={n}, got {len(alpha)} and {len(beta)}"
            )
        row = [*alpha, *beta, k]
        if min(row) < 0:
            raise InputError(f"negative exponent in term ({tuple(alpha)}, {tuple(beta)}, {k})")
        if sum(row) > DEGREE_CAP:
            raise InputError(f"terms[{i}]: degree {sum(row)} exceeds cap {DEGREE_CAP}")
        rows.append(row)
        values.append(complex_from_json(t, f"terms[{i}]"))
    return np.array(rows, dtype=np.int64), np.array(values, dtype=complex)


def _float(x):
    """float(x), with an int beyond the float range read as inf of its sign."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def complex_from_json(v, where):
    """The complex number of a {"re", "im"} object.

    Each part must be a finite JSON number, as for real_from_json: strings,
    bools and null are input errors.
    """
    if not isinstance(v, dict) or "re" not in v or "im" not in v:
        raise InputError(f"{where} must be an object with 're' and 'im'")
    re, im = v["re"], v["im"]
    numbers = isinstance(re, (int, float)) and isinstance(im, (int, float))
    if not numbers or isinstance(re, bool) or isinstance(im, bool):
        raise InputError(f"{where}: 're' and 'im' must be numbers")
    c = complex(_float(re), _float(im))
    if not cmath.isfinite(c):
        raise InputError(f"{where}: non-finite number {c}")
    return c


def real_from_json(v, where, integer=False):
    """A JSON number as a finite float, or as an int when integer is set.

    Strings, bools, null, lists and non-finite values are input errors.
    """
    if isinstance(v, bool) or not isinstance(v, int if integer else (int, float)):
        raise InputError(f"{where} must be {'an integer' if integer else 'a number'}, got {v!r}")
    if integer:
        return v
    x = _float(v)
    if not math.isfinite(x):
        raise InputError(f"{where}: non-finite number {x}")
    return x


def monomials(n, d) -> Iterable[tuple]:
    """All exponent vectors of length n with entries summing to d, lex order."""
    if n == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in monomials(n - 1, d - first):
            yield (first,) + rest
