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

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NotElliptic, NumericalFailure
from .polyalg import Exponent, Polynomial, complex_from_json

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
                if min(e.degree() for e in E.terms) < 3:
                    raise InputError("E must contain only terms of total degree >= 3")
                dev = (E.conjugate() - E).max_coeff()
                if dev > HERMITIAN_TOL:
                    raise InputError(f"E is not real-valued (deviation {dev:g})")
            if E.is_zero():
                object.__setattr__(self, "E", None)

    @property
    def n(self):
        return self.A.shape[0]

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
        n = doc["n"]
        if not isinstance(n, int) or n < 1:
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


def check_nondegenerate(model: QuadricModel) -> NondegeneracyReport:
    """A is nonsingular relative to its scale (smallest singular value test)."""
    return _nondegeneracy(np.linalg.eigvalsh(model.A))


def _nondegeneracy(eigs):
    # A is Hermitian, so its singular values are the moduli of its eigenvalues
    s = np.abs(eigs)
    sigma_min, sigma_max = (float(s.min()), float(s.max())) if s.size else (0.0, 0.0)
    ok = sigma_min > DEGENERACY_TOL * max(sigma_max, 1.0)
    return NondegeneracyReport(ok=ok, sigma_min=sigma_min, sigma_max=sigma_max)


def takagi(S, zero_tol=1e-12):
    """Factor a complex symmetric S as U diag(sigma) U^T, sigma >= 0.

    Works through the eigen-decomposition of the Hermitian matrix
    conj(S) @ S, whose eigenvalues are sigma_j^2.  Within each eigenspace
    the antilinear map x -> conj(S x) squares to sigma^2; its fixed
    vectors x (conj(S x) = sigma x) are built one at a time and deflated,
    which handles repeated singular values, and U gets their conjugates.
    """
    S = np.asarray(S, dtype=complex)
    m = S.shape[0]
    if _maxabs(S - S.T) > HERMITIAN_TOL * max(_maxabs(S), 1.0):
        raise InputError("takagi: matrix is not symmetric")
    evals, V = np.linalg.eigh(S.conj() @ S)
    sigma = np.sqrt(np.clip(evals, 0.0, None))
    scale = max(float(sigma[-1]) if m else 0.0, 1.0)
    U = np.zeros((m, m), dtype=complex)
    i = 0
    while i < m:
        j = i + 1
        while j < m and sigma[j] - sigma[i] <= 1e-8 * scale:
            j += 1
        cluster = list(range(i, j))
        E = V[:, cluster]
        if sigma[i] <= zero_tol * scale:
            # S annihilates these columns; conjugates keep U unitary
            U[:, cluster] = E.conj()
        else:
            sig = float(np.mean(sigma[cluster]))
            basis = E.copy()
            cols = []
            for _ in cluster:
                y = basis[:, 0]
                x = np.conj(S @ y) + sig * y
                nx = np.linalg.norm(x)
                if nx < 1e-6 * sig:
                    # y is nearly anti-fixed; multiplying by i flips the sign
                    x = 1j * y
                    nx = np.linalg.norm(x)
                x = x / nx
                # keep x inside the eigenspace before deflating
                x = E @ (E.conj().T @ x)
                x = x / np.linalg.norm(x)
                cols.append(x)
                rem = basis - np.outer(x, x.conj() @ basis)
                if rem.shape[1] > 1:
                    # orthonormal basis of the deflated space, staying inside E
                    uu, ss, _ = np.linalg.svd(rem, full_matrices=False)
                    basis = uu[:, : rem.shape[1] - 1]
                else:
                    basis = rem[:, :0]
            U[:, cluster] = np.column_stack(cols).conj()
        i = j
    # sign canonicalization: flipping a column preserves U diag U^T
    for col in range(m):
        lead = int(np.argmax(np.abs(U[:, col])))
        v = U[lead, col]
        if v.real < 0 or (v.real == 0 and v.imag < 0):
            U[:, col] = -U[:, col]
    return U, sigma


def _classify_lambdas(lambdas):
    lambdas = np.asarray(lambdas)
    if np.any(lambdas > 0.5 + ELLIPTIC_MARGIN):
        return "hyperbolic"
    if np.any(np.abs(lambdas - 0.5) <= ELLIPTIC_MARGIN):
        return "parabolic"
    return "elliptic"


def normalize(model: QuadricModel) -> BishopNormalForm:
    """Bishop normal form for positive definite A.

    Cholesky A = L L^H gives T0 = (L^H)^{-1} with T0^H A T0 = I; a Takagi
    factorization of T0^T B T0 = U diag(lambda) U^T then yields
    T = T0 conj(U).  Both congruences are re-checked a posteriori.
    """
    eigs = np.linalg.eigvalsh(model.A)
    if eigs[0] <= DEGENERACY_TOL:
        raise NotElliptic(
            f"A is not positive definite (eigenvalue {eigs[0]:.3e})", eigenvalue=float(eigs[0])
        )
    L = np.linalg.cholesky(model.A)
    T0 = np.linalg.inv(L.conj().T)
    Bp = T0.T @ model.B @ T0
    Bp = (Bp + Bp.T) / 2
    U, sigma = takagi(Bp)
    order = np.argsort(sigma, kind="stable")
    lambdas = sigma[order]
    T = (T0 @ U.conj())[:, order]
    residual_a = _maxabs(T.conj().T @ model.A @ T - np.eye(model.n))
    residual_b = _maxabs(T.T @ model.B @ T - np.diag(lambdas))
    if max(residual_a, residual_b) > RESIDUAL_FAIL:
        raise NumericalFailure(
            f"normal form residual {max(residual_a, residual_b):.3e} exceeds {RESIDUAL_FAIL:g}",
            residual=max(residual_a, residual_b),
        )
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
    """Total classification: degenerate, elliptic, parabolic or hyperbolic."""
    eigs = np.linalg.eigvalsh(model.A)
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
    """The defining function rho = Q + E as a Polynomial in z, zbar."""
    n = model.n
    terms = {}

    def bump(alpha, beta, c):
        key = Exponent(tuple(alpha), tuple(beta), 0)
        terms[key] = terms.get(key, 0.0) + c

    for j in range(n):
        for k in range(n):
            alpha = [0] * n
            beta = [0] * n
            alpha[j] += 1
            beta[k] += 1
            bump(alpha, beta, complex(model.A[j, k]))
            alpha2 = [0] * n
            alpha2[j] += 1
            alpha2[k] += 1
            bump(alpha2, [0] * n, complex(model.B[j, k]))
            beta2 = [0] * n
            beta2[j] += 1
            beta2[k] += 1
            bump([0] * n, beta2, complex(model.B[j, k]).conjugate())
    rho = Polynomial(n, terms)
    if model.E is not None:
        rho = rho + model.E
    return rho


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


def normal_form_model(lambdas, E=None) -> QuadricModel:
    """Convenience constructor: A = I, B = diag(lambdas)."""
    lambdas = np.atleast_1d(np.asarray(lambdas, dtype=float))
    return QuadricModel(A=np.eye(len(lambdas)), B=np.diag(lambdas), E=E)


def default_radii(model: QuadricModel):
    """Heuristic validity radii (delta_z, delta_w) for an elliptic model.

    delta_z = 0.5 * sqrt(min eig A / max eig A); delta_w is the largest
    leaf level whose leaf is guaranteed inside |z| < delta_z, using the
    smallest eigenvalue mu of the real form: Q >= mu |z|^2.
    """
    eigs = np.linalg.eigvalsh(model.A)
    if eigs[0] <= DEGENERACY_TOL:
        raise NotElliptic("default_radii requires positive definite A", eigenvalue=float(eigs[0]))
    mu = float(np.linalg.eigvalsh(real_quadratic_form(model))[0])
    if mu <= ELLIPTIC_MARGIN:
        raise NotElliptic("default_radii requires an elliptic model", eigenvalue=mu)
    delta_z = 0.5 * float(np.sqrt(eigs[0] / eigs[-1]))
    delta_w = mu * delta_z**2
    return delta_z, delta_w
