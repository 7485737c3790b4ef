"""Quadric models w = Q(z, zbar) + E and their Bishop normal form.

Q is carried as a pair of matrices: A Hermitian (the z*zbar block) and B
complex symmetric (the z*z block, whose conjugate gives the zbar*zbar
block), so that

    Q(z, zbar) = z^H A z + z^T B z + conj(z^T B z).

For positive definite A there is a linear change of coordinates T with
T^H A T = I and T^T B T real diagonal; the diagonal entries are the
Bishop invariants lambda_j.  E is an optional real-valued higher order
perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, NotElliptic, NumericalFailure
from .polyalg import ZERO_THRESHOLD, Polynomial, complex_from_json, real_from_json

HERMITIAN_TOL = 1e-12
DEGENERACY_TOL = 1e-10
ELLIPTIC_MARGIN = 1e-10
RESIDUAL_FAIL = 1e-8


def _maxabs(M):
    M = np.asarray(M)
    return float(np.max(np.abs(M))) if M.size else 0.0


def _frozen_array(M):
    out = np.array(M, dtype=complex)
    out.setflags(write=False)
    return out


def _is_diagonal(M):
    return np.count_nonzero(M) == np.count_nonzero(M.diagonal())


def _conjugation_deviation(E):
    """(E.conjugate() - E).max_coeff(), from E's rows and their alpha/beta swaps.

    A term whose swap is a term gives conj(c_swap) - c; one whose swap is
    not gives |c|, as it does twice in the difference.  Below ZERO_THRESHOLD
    the difference would be pruned, so the deviation is 0 there.
    """
    n = E.n
    rows = E.exps.tolist()
    where = {tuple(row): i for i, row in enumerate(rows)}
    swap = np.array([where.get((*row[n : 2 * n], *row[:n], *row[2 * n :]), -1) for row in rows])
    paired = swap >= 0
    diff = np.where(paired, E.coeffs[swap].conj() - E.coeffs, E.coeffs)
    dev = float(np.abs(diff).max())
    return dev if dev >= ZERO_THRESHOLD else 0.0


@dataclass(frozen=True)
class QuadricModel:
    """Validated quadric model; A Hermitian, B symmetric, E real higher order."""

    A: np.ndarray
    B: np.ndarray
    E: Polynomial | None = None

    def __post_init__(self):
        A = _frozen_array(self.A)
        B = _frozen_array(self.B)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise InputError(f"A must be square, got shape {A.shape}")
        if B.shape != A.shape:
            raise InputError(f"B shape {B.shape} does not match A shape {A.shape}")
        if _maxabs(A - A.conj().T) > HERMITIAN_TOL:
            raise InputError("A is not Hermitian within 1e-12")
        if _maxabs(B - B.T) > HERMITIAN_TOL:
            raise InputError("B is not symmetric within 1e-12")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        if self.E is not None:
            E = self.E
            if not isinstance(E, Polynomial):
                raise InputError("E must be a Polynomial")
            if E.n != A.shape[0]:
                raise InputError(f"E has dimension {E.n}, model has {A.shape[0]}")
            if E.has_w_terms():
                raise InputError("E must not contain w")
            if not E.is_zero():
                if E.exps.sum(axis=1).min() < 3:
                    raise InputError("E must contain only terms of total degree >= 3")
                dev = _conjugation_deviation(E)
                if dev > HERMITIAN_TOL:
                    raise InputError(f"E is not real-valued (deviation {dev:g})")
            if E.is_zero():
                object.__setattr__(self, "E", None)

    @property
    def n(self):
        return self.A.shape[0]

    @cached_property
    def eigh(self):
        """A's eigenvalues (ascending) and eigenvectors on first use, read-only.

        classify, normalize and default_radii all read them.  A diagonal A
        (every normal form, every n = 1 model) takes them in closed form: its
        real diagonal, stably sorted, and the matching identity columns.  Any
        other A takes one np.linalg.eigh.
        """
        A, n = self.A, self.n
        if _is_diagonal(A):
            d = A.diagonal().real
            order = np.argsort(d, kind="stable")
            eigs, V = d[order], np.zeros((n, n), dtype=complex)
            V[order, range(n)] = 1
        else:
            eigs, V = np.linalg.eigh(A)
        eigs.setflags(write=False)
        V.setflags(write=False)
        return eigs, V

    @cached_property
    def diagonal(self):
        """Whether A and B are both diagonal (every normal form, every n = 1 model)."""
        return _is_diagonal(self.A) and _is_diagonal(self.B)

    @property
    def hermitian(self):
        """H with rho = z^H H z + 2 Re z^T B z + E, which rho is built from.

        It is A^T, not the A of the module's formula (CHANGES.md FOUND 36).
        """
        return self.A.T

    @cached_property
    def rho(self):
        """The defining function rho = Q + E as a Polynomial in z, zbar, built on first use.

        The model and Polynomial are immutable, so every caller of one model
        shares this one Polynomial.
        """
        n = self.n
        unit = np.eye(n, dtype=np.int64)
        zj, zk = np.repeat(unit, n, axis=0), np.tile(unit, (n, 1))  # row j * n + k: e_j and e_k
        none = np.zeros((n * n, n), dtype=np.int64)
        k0 = np.zeros((n * n, 1), dtype=np.int64)
        exps = np.concatenate(
            (
                np.hstack((zk, zj, k0)),  # H_jk zbar_j z_k
                np.hstack((zj + zk, none, k0)),  # B_jk z_j z_k
                np.hstack((none, zj + zk, k0)),  # conj(B_jk) zbar_j zbar_k
            )
        )
        coeffs = np.concatenate((self.hermitian.ravel(), self.B.ravel(), self.B.conj().ravel()))
        rho = Polynomial(n, exps, coeffs)
        return rho if self.E is None else rho + self.E

    def to_json_dict(self):
        doc = {
            "n": self.n,
            "A": _matrix_to_json(self.A),
            "B": _matrix_to_json(self.B),
        }
        if self.E is not None:
            doc["E"] = self.E.to_json_dict()
        return doc

    @classmethod
    def from_json_dict(cls, doc):
        if not isinstance(doc, dict):
            raise InputError("model document must be a JSON object")
        for key in ("n", "A", "B"):
            if key not in doc:
                raise InputError(f"model document missing field {key!r}")
        n = real_from_json(doc["n"], "model field 'n'", integer=True)
        if n < 1:
            raise InputError(f"model field 'n' must be a positive integer, got {n!r}")
        A = _matrix_from_json(doc["A"], n, "A")
        B = _matrix_from_json(doc["B"], n, "B")
        E = None
        if doc.get("E") is not None:
            E = Polynomial.from_json_dict(doc["E"])
        return cls(A, B, E)


def _matrix_to_json(M):
    return [[{"re": v.real, "im": v.imag} for v in row] for row in np.asarray(M)]


def _matrix_from_json(rows, n, name):
    if not isinstance(rows, list) or len(rows) != n:
        raise InputError(f"model field {name!r} must be a list of {n} rows")
    M = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise InputError(f"model field {name!r} row {i} must have {n} entries")
        for j, v in enumerate(row):
            M[i, j] = complex_from_json(v, f"{name}[{i}][{j}]")
    return M


@dataclass(frozen=True)
class NondegeneracyReport:
    """classify's test that A is nonsingular relative to its scale: sigma_min > 1e-10 * max(sigma_max, 1)."""

    ok: bool
    sigma_min: float
    sigma_max: float


@dataclass(frozen=True)
class BishopNormalForm:
    """Result of normalize(): T^H A T = I, T^T B T = diag(lambdas)."""

    T: np.ndarray
    lambdas: np.ndarray
    classification: str
    residual_a: float
    residual_b: float


@dataclass(frozen=True)
class ClassificationResult:
    classification: str
    lambdas: np.ndarray | None
    nondegeneracy: NondegeneracyReport
    normal_form: BishopNormalForm | None = None
    note: str | None = None


def _nondegeneracy(eigs):
    # A is Hermitian, so its singular values are the moduli of its eigenvalues
    s = np.abs(eigs)
    sigma_min, sigma_max = (float(s.min()), float(s.max())) if s.size else (0.0, 0.0)
    ok = sigma_min > DEGENERACY_TOL * max(sigma_max, 1.0)
    return NondegeneracyReport(ok=ok, sigma_min=sigma_min, sigma_max=sigma_max)


def takagi(S):
    """Factor a complex symmetric S as U diag(sigma) U^T, U unitary, 0 <= sigma ascending.

    With S = R + iI, a unit vector u = a + ib satisfies S conj(u) = sigma u
    exactly when (a, b) is an eigenvector of the real symmetric matrix
    K = [[R, I], [I, -R]] with eigenvalue sigma; multiplying u by i maps it to
    the eigenvalue -sigma, so the spectrum of K is +-sigma_j and the upper
    half of one eigh call gives the Takagi vectors in ascending order.  Their
    polar factor keeps U unitary where those vectors are not orthogonal as
    complex vectors: inside a kernel of S, and where +sigma and -sigma nearly
    meet.  The sign of each column is free; U diag(sigma) U^T does not see it.
    """
    S = np.asarray(S, dtype=complex)
    m = S.shape[0]
    if _maxabs(S - S.T) > HERMITIAN_TOL * max(_maxabs(S), 1.0):
        raise InputError("takagi: matrix is not symmetric")
    R, I = S.real, S.imag
    evals, X = np.linalg.eigh(np.block([[R, I], [I, -R]]))
    W, _, Zh = np.linalg.svd(X[:m, m:] + 1j * X[m:, m:])
    return W @ Zh, np.clip(evals[m:], 0.0, None)


def _classify_lambdas(lambdas):
    lambdas = np.asarray(lambdas)
    if np.any(lambdas > 0.5 + ELLIPTIC_MARGIN):
        return "hyperbolic"
    if np.any(np.abs(lambdas - 0.5) <= ELLIPTIC_MARGIN):
        return "parabolic"
    return "elliptic"


def _bishop(eigs, V, B):
    """(T, lambdas) with T^H A T = I and T^T B T = diag(lambdas), lambdas ascending, for A = V diag(eigs) V^H, eigs > 0.

    T0 = V diag(eigs)^(-1/2) has T0^H A T0 = I; a Takagi factorization of
    T0^T B T0 = U diag(lambdas) U^T then yields T = T0 conj(U).
    """
    T0 = V / np.sqrt(eigs)
    Bp = T0.T @ B @ T0
    U, lambdas = takagi((Bp + Bp.T) / 2)
    return T0 @ U.conj(), lambdas


def _residual(M, target):
    """max |M - target|; NumericalFailure unless it is finite and within RESIDUAL_FAIL times max(|M|, |target|, 1).

    The scale is at least 1, so only a residual above RESIDUAL_FAIL (or nan) needs it.
    """
    residual = _maxabs(M - target)
    if not residual <= RESIDUAL_FAIL:
        bound = RESIDUAL_FAIL * max(_maxabs(M), _maxabs(target), 1.0)
        if not residual <= bound < np.inf:
            raise NumericalFailure(f"normal form residual {residual:.3e} exceeds {bound:g}")
    return residual


def _diagonal_lambdas(model):
    """Bishop's lambda_j = |B_jj| / A_jj, by j, for diagonal A and B with A positive definite."""
    return np.abs(model.B.diagonal()) / model.A.diagonal().real


def normalize(model: QuadricModel) -> BishopNormalForm:
    """Bishop normal form for positive definite A.

    On diagonal A and B (every normal form, every n = 1 model) it is in
    closed form (Bishop, Duke Math. J. 32 (1965)): T_jj = exp(-i arg B_jj /
    2) / sqrt(A_jj), phase 1 where B_jj = 0, and lambda_j = |B_jj| / A_jj
    (_diagonal_lambdas), columns stably sorted by lambda.  Any other T
    comes from the model's eigendecomposition of A (_bishop).  Each column
    of T is signed so that its first entry of largest modulus has positive
    real part (or, if that is 0, positive imaginary part); for distinct
    nonzero lambdas T then depends only on (A, B).  A lambda that is not
    finite is refused.  Both congruences are re-checked a posteriori: each
    residual, reported raw, must be finite and within RESIDUAL_FAIL of the
    scale of the two matrices it compares (at least 1), since rounding in
    T^T B T grows with |B|.
    """
    eigs, V = model.eigh
    if eigs[0] <= DEGENERACY_TOL:
        raise NotElliptic(
            f"A is not positive definite (eigenvalue {eigs[0]:.3e})", eigenvalue=float(eigs[0])
        )
    A, B, n = model.A, model.B, model.n
    if model.diagonal:
        lambdas = _diagonal_lambdas(model)
        order = np.argsort(lambdas, kind="stable")
        b = B.diagonal()[order]
        half = np.where(b == 0, 0.0, np.angle(b)) / 2
        T = np.zeros((n, n), dtype=complex)
        # cos - i sin: exp(-i half) gives T a -0.0 imaginary part where B_jj > 0
        T[order, range(n)] = (np.cos(half) - 1j * np.sin(half)) / np.sqrt(A.diagonal().real[order])
        lambdas = lambdas[order]
    else:
        T, lambdas = _bishop(eigs, V, B)
    if not np.isfinite(lambdas[-1]):  # ascending: the largest
        raise NumericalFailure(f"normal form invariant lambda_{n} = {lambdas[-1]} is not finite")
    lead = T[np.argmax(np.abs(T), axis=0), np.arange(n)]
    T *= np.where((lead.real < 0) | ((lead.real == 0) & (lead.imag < 0)), -1, 1)
    residual_a = _residual(T.conj().T @ A @ T, np.eye(n))
    residual_b = _residual(T.T @ B @ T, np.diag(lambdas))
    lambdas.setflags(write=False)
    T.setflags(write=False)
    return BishopNormalForm(
        T=T,
        lambdas=lambdas,
        classification=_classify_lambdas(lambdas),
        residual_a=residual_a,
        residual_b=residual_b,
    )


def classify(model: QuadricModel) -> ClassificationResult:
    """Total classification: degenerate, elliptic, parabolic or hyperbolic.

    The model's one eigendecomposition of A (QuadricModel.eigh) serves the
    nondegeneracy report, the positive definiteness test and the normal form.
    """
    eigs = model.eigh[0]
    report = _nondegeneracy(eigs)
    if not report.ok:
        return ClassificationResult(
            classification="degenerate",
            lambdas=None,
            nondegeneracy=report,
            note=f"A is singular to working precision (sigma_min = {report.sigma_min:.3e})",
        )
    if eigs[0] <= DEGENERACY_TOL:
        return ClassificationResult(
            classification="hyperbolic",
            lambdas=None,
            nondegeneracy=report,
            note="A is nonsingular but not positive definite; "
            "Bishop invariants in the elliptic sense are undefined",
        )
    nf = normalize(model)
    return ClassificationResult(
        classification=nf.classification,
        lambdas=nf.lambdas,
        nondegeneracy=report,
        normal_form=nf,
    )


def classification(model: QuadricModel) -> str:
    """classify(model).classification, the verdict alone when A and B are diagonal.

    There it reads the lambdas normalize reports (_diagonal_lambdas), so
    both decide a diagonal model from the same bits, and no route
    decomposes A (QuadricModel.eigh).  Any other model is classified.
    """
    eigs = model.eigh[0]
    if eigs[0] > DEGENERACY_TOL and _nondegeneracy(eigs).ok and model.diagonal:
        return _classify_lambdas(_diagonal_lambdas(model))
    return classify(model).classification


def real_quadratic_form(model: QuadricModel):
    """Q as a real symmetric 2n x 2n matrix in coordinates (Re z, Im z).

    With A = Ar + i Ai and B = Br + i Bi, z^H A z + 2 Re(z^T B z) is the
    form of [[Ar + 2 Br, -Ai - 2 Bi], [Ai - 2 Bi, Ar - 2 Br]].
    """
    Ar, Ai = model.A.real, model.A.imag
    Br, Bi = model.B.real, model.B.imag
    return np.block([[Ar + 2 * Br, -Ai - 2 * Bi], [Ai - 2 * Bi, Ar - 2 * Br]])


def ellipticity_oracle(model: QuadricModel) -> bool:
    """True iff the real quadratic form of Q is positive definite.

    Independent of normalize(): checks the smallest eigenvalue of the
    2n x 2n real symmetric matrix of Q in (Re z, Im z) coordinates.
    """
    S = real_quadratic_form(model)
    return bool(np.linalg.eigvalsh(S)[0] > ELLIPTIC_MARGIN)


def q_polynomial(model: QuadricModel) -> Polynomial:
    """The defining function rho = Q + E as a Polynomial in z, zbar (QuadricModel.rho)."""
    return model.rho


def is_normal_form(model: QuadricModel):
    """(True, lambdas) when A = I and B is real diagonal within tolerance."""
    n = model.n
    if _maxabs(model.A - np.eye(n)) > HERMITIAN_TOL:
        return False, None
    offdiag = model.B - np.diag(np.diag(model.B))
    if _maxabs(offdiag) > HERMITIAN_TOL:
        return False, None
    d = np.diag(model.B)
    if _maxabs(d.imag) > HERMITIAN_TOL or np.any(d.real < -HERMITIAN_TOL):
        return False, None
    return True, np.clip(d.real, 0.0, None)


def elliptic_normal_form(model: QuadricModel, caller):
    """is_normal_form's lambdas, refused for caller unless classify's rule calls them elliptic.

    InputError off the normal form; NotElliptic, naming the largest
    lambda_j, when some lambda_j >= 1/2 - ELLIPTIC_MARGIN.
    """
    ok, lambdas = is_normal_form(model)
    if not ok:
        raise InputError(f"{caller}: model must be in Bishop normal form (A = I, B = diag)")
    if _classify_lambdas(lambdas) != "elliptic":
        j = int(lambdas.argmax())
        raise NotElliptic(
            f"{caller}: invariant lambda_{j + 1} = {lambdas[j]} "
            f"is at least 1/2 - {ELLIPTIC_MARGIN:g}, not elliptic",
            eigenvalue=float(lambdas[j]),
        )
    return lambdas


def normal_form_model(lambdas, E=None) -> QuadricModel:
    """Convenience constructor: A = I, B = diag(lambdas)."""
    lambdas = np.atleast_1d(np.asarray(lambdas, dtype=float))
    return QuadricModel(A=np.eye(len(lambdas)), B=np.diag(lambdas), E=E)


def default_radii(model: QuadricModel) -> float:
    """Heuristic validity radius delta_z = 0.5 * sqrt(min eig A / max eig A) for positive definite A.

    The eigenvalues are the model's QuadricModel.eigh, in closed form for a
    diagonal A.  The sampling ball of verify_extension and the default leaf
    ladder of check_moments both scale with it.  Ellipticity is left to their
    callers: extend_general refuses a model that classification() does not
    call elliptic, and LeafGrid refuses lambda >= 1/2.
    """
    eigs = model.eigh[0]
    if eigs[0] <= DEGENERACY_TOL:
        raise NotElliptic("default_radii requires positive definite A", eigenvalue=float(eigs[0]))
    return 0.5 * float(np.sqrt(eigs[0] / eigs[-1]))
