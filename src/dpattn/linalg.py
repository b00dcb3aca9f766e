"""Dense symmetric-matrix primitives.

Everything downstream (attention perturbation, the sampling mechanism, the
privacy certificates) manipulates small dense symmetric matrices.  This module
fixes the conventions once: construction symmetrizes, eigendecompositions are
sorted descending with a deterministic sign choice, and the positive
semidefinite and singularity cutoffs are relative to the spectral scale, so
the checks give the same answer for ``c * m`` at any scale ``c > 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, InvalidMatrix, ParamRange, SingularMatrix


def relative_tol(eigenvalues: np.ndarray) -> float:
    """Eigenvalue cutoff: 1e-9 times the spectral norm (0 for a zero matrix)."""
    return 1e-9 * float(np.abs(eigenvalues).max())


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


def is_psd(m) -> bool:
    """True iff the minimum eigenvalue is at least -1e-9 times the spectral norm."""
    w = np.linalg.eigvalsh(as_sym(m).values)
    return bool(w.min() >= -relative_tol(w))


def psd_inv_sqrt(m) -> SymMatrix:
    """Inverse symmetric square root; requires strict positive definiteness.

    Raises :class:`SingularMatrix` when any eigenvalue is at most 1e-9 times
    the spectral norm.
    """
    dec = sym_eigendecompose(m)
    w, v = dec.eigenvalues, dec.eigenvectors
    rank_tol = relative_tol(w)
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


def whitened_eigenvalues(a, b) -> np.ndarray:
    """Eigenvalues of ``b^{-1/2} a b^{-1/2}``, descending.

    These are also the eigenvalues of ``a^{1/2} b^{-1} a^{1/2}``; swapping the
    arguments gives their reciprocals.  Raises :class:`SingularMatrix` when
    ``b`` is not positive definite at 1e-9 relative to its spectral norm and
    :class:`DimMismatch` when the shapes differ.
    """
    a = as_sym(a)
    b = as_sym(b)
    if a.dim != b.dim:
        raise DimMismatch(f"dimension mismatch: {a.dim} vs {b.dim}")
    white = psd_inv_sqrt(b).values
    m = white @ a.values @ white
    return np.linalg.eigvalsh((m + m.T) / 2.0)[::-1]


def spectrum_within(w: np.ndarray, eps: float) -> bool:
    """The sandwich test: every whitened eigenvalue lies in ``[1-eps-1e-9, 1+eps+1e-9]``."""
    return bool(w.min() >= 1.0 - eps - 1e-9 and w.max() <= 1.0 + eps + 1e-9)


def loewner_within(a, b, eps: float) -> bool:
    """Check the two-sided spectral sandwich ``(1-eps) b <= a <= (1+eps) b``.

    Evaluated in the whitened domain by :func:`spectrum_within` on the
    eigenvalues of ``b^{-1/2} a b^{-1/2}``.  The comparison is
    scale-invariant.  Raises :class:`SingularMatrix` when ``b`` is not
    positive definite at 1e-9 relative to its spectral norm.
    """
    if eps < 0:
        raise ParamRange(f"eps must be non-negative, got {eps}")
    return spectrum_within(whitened_eigenvalues(a, b), eps)
