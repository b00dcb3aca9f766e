"""Dense symmetric-matrix primitives.

Everything downstream (attention perturbation, the sampling mechanism, the
privacy certificates) manipulates small dense symmetric matrices.  This module
fixes the conventions once: construction symmetrizes, eigendecompositions are
sorted descending with a deterministic sign choice, and positive-semidefinite
tolerances default to a cutoff relative to the spectral scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMatrix, NotPsd, ParamRange, SingularMatrix


def _relative_tol(eigenvalues: np.ndarray) -> float:
    """Default eigenvalue cutoff: 1e-9 relative to the spectral norm."""
    return 1e-9 * max(1.0, float(np.abs(eigenvalues).max()))


@dataclass(frozen=True)
class SymMatrix:
    """Immutable dense real symmetric matrix.

    Input is symmetrized on construction, ``(M + M.T) / 2``, so covariance
    accumulation round-off never leaks asymmetry into later spectral code.
    Entries must be finite; the backing array is marked read-only.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise InvalidMatrix(f"expected a non-empty square matrix, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise InvalidMatrix("matrix entries must be finite")
        sym = (arr + arr.T) / 2.0
        sym.flags.writeable = False
        object.__setattr__(self, "values", sym)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    @classmethod
    def identity(cls, n: int) -> "SymMatrix":
        return cls(np.eye(n))

    @classmethod
    def diagonal(cls, entries) -> "SymMatrix":
        return cls(np.diag(np.asarray(entries, dtype=float)))

    @classmethod
    def zeros(cls, n: int) -> "SymMatrix":
        return cls(np.zeros((n, n)))


def as_sym(m) -> SymMatrix:
    """Coerce an array-like into a :class:`SymMatrix` (no-op if it is one)."""
    if isinstance(m, SymMatrix):
        return m
    return SymMatrix(np.asarray(m, dtype=float))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs of a symmetric matrix.

    ``eigenvalues`` are sorted descending; ``eigenvectors`` holds the matching
    orthonormal columns.  Signs follow a fixed convention (first component of
    each column larger than 1e-12 in magnitude is positive) so repeated runs
    produce identical output.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eigendecompose(m) -> SpectralDecomposition:
    """Full eigendecomposition of a symmetric matrix.

    Deterministic for a fixed input: eigenvalues descending, eigenvector signs
    normalized.  Raises :class:`InvalidMatrix` for non-finite input.
    """
    mat = as_sym(m)
    w, v = np.linalg.eigh(mat.values)
    order = np.argsort(-w, kind="stable")
    w = w[order]
    v = v[:, order]
    for j in range(v.shape[1]):
        col = v[:, j]
        nonzero = np.flatnonzero(np.abs(col) > 1e-12)
        lead = nonzero[0] if nonzero.size else 0
        if col[lead] < 0:
            v[:, j] = -col
    w.flags.writeable = False
    v.flags.writeable = False
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)


def is_psd(m, tol: float | None = None) -> bool:
    """True iff the minimum eigenvalue is at least ``-tol``.

    ``tol`` defaults to 1e-9 relative to the spectral norm; pass an explicit
    value (possibly 0) to override.
    """
    w = np.linalg.eigvalsh(as_sym(m).values)
    if tol is None:
        tol = _relative_tol(w)
    elif tol < 0:
        raise ParamRange(f"tol must be non-negative, got {tol}")
    return bool(w.min() >= -tol)


def psd_sqrt(m, tol: float | None = None) -> SymMatrix:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues in ``[-tol, 0)`` are treated as round-off and clipped to zero;
    anything below ``-tol`` raises :class:`NotPsd`.
    """
    dec = sym_eigendecompose(m)
    w, v = dec.eigenvalues, dec.eigenvectors
    if tol is None:
        tol = _relative_tol(w)
    elif tol < 0:
        raise ParamRange(f"tol must be non-negative, got {tol}")
    if w.min() < -tol:
        raise NotPsd(f"minimum eigenvalue {w.min():.3e} is below -tol = {-tol:.3e}")
    root = np.sqrt(np.clip(w, 0.0, None))
    return SymMatrix((v * root) @ v.T)


def psd_inv_sqrt(m, rank_tol: float | None = None) -> SymMatrix:
    """Inverse symmetric square root; requires strict positive definiteness.

    Raises :class:`SingularMatrix` when any eigenvalue is at most ``rank_tol``
    (default: 1e-9 relative to the spectral norm).
    """
    dec = sym_eigendecompose(m)
    w, v = dec.eigenvalues, dec.eigenvectors
    if rank_tol is None:
        rank_tol = _relative_tol(w)
    if w.min() <= rank_tol:
        raise SingularMatrix(
            f"minimum eigenvalue {w.min():.3e} is at most rank_tol = {rank_tol:.3e}"
        )
    return SymMatrix((v / np.sqrt(w)) @ v.T)


def psd_project(m) -> SymMatrix:
    """Nearest-PSD projection: clip negative eigenvalues at zero."""
    dec = sym_eigendecompose(m)
    w = np.clip(dec.eigenvalues, 0.0, None)
    v = dec.eigenvectors
    return SymMatrix((v * w) @ v.T)


def loewner_within(a, b, eps: float, tol: float = 1e-9) -> bool:
    """Check the two-sided spectral sandwich ``(1-eps) b <= a <= (1+eps) b``.

    Evaluated in the whitened domain: every eigenvalue of
    ``b^{-1/2} a b^{-1/2}`` must lie in ``[1 - eps - tol, 1 + eps + tol]``.
    The comparison is scale-invariant.  Raises :class:`SingularMatrix` when
    ``b`` is not positive definite at tolerance ``tol``.
    """
    if eps < 0:
        raise ParamRange(f"eps must be non-negative, got {eps}")
    a = as_sym(a)
    b = as_sym(b)
    if a.dim != b.dim:
        raise ParamRange(f"dimension mismatch: {a.dim} vs {b.dim}")
    white = psd_inv_sqrt(b, rank_tol=tol).values
    w = np.linalg.eigvalsh(_symmetrized(white @ a.values @ white))
    return bool(w.min() >= 1.0 - eps - tol and w.max() <= 1.0 + eps + tol)


def relative_frobenius_distance(sigma, sigma_hat) -> float:
    """Frobenius norm of the whitened deviation from identity.

    Returns ``||sigma^{-1/2} sigma_hat sigma^{-1/2} - I||_F``; zero exactly
    when the two matrices agree.
    """
    sigma = as_sym(sigma)
    sigma_hat = as_sym(sigma_hat)
    if sigma.dim != sigma_hat.dim:
        raise ParamRange(f"dimension mismatch: {sigma.dim} vs {sigma_hat.dim}")
    white = psd_inv_sqrt(sigma).values
    dev = white @ sigma_hat.values @ white - np.eye(sigma.dim)
    return float(np.linalg.norm(dev))


def _symmetrized(arr: np.ndarray) -> np.ndarray:
    return (arr + arr.T) / 2.0
