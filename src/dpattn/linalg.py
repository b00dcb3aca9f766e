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
from functools import cached_property

import numpy as np

from .errors import DimMismatch, InvalidMatrix, ParamRange, SingularMatrix


def relative_tol(eigenvalues: np.ndarray) -> float:
    """Eigenvalue cutoff: 1e-9 times the spectral norm (0 for a zero matrix)."""
    return 1e-9 * float(np.abs(eigenvalues).max())


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Immutable dense real symmetric matrix.

    Input is symmetrized on construction, ``M / 2 + M.T / 2``, so covariance
    accumulation round-off never leaks asymmetry into later spectral code; halving
    before the sum keeps every finite entry finite, where ``(M + M.T) / 2`` would
    overflow above about 9e307.
    Entries must be finite; the backing array is marked read-only.  The
    eigendecomposition is computed on first use and kept, since the matrix
    cannot change: every :func:`sym_eigendecompose` of one ``SymMatrix``
    returns the same read-only arrays.  The Cholesky factor that
    :func:`rank_two_eigenvalues` reads is kept the same way.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise InvalidMatrix(f"expected a non-empty square matrix, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise InvalidMatrix("matrix entries must be finite")
        sym = 0.5 * arr + 0.5 * arr.T
        sym.flags.writeable = False
        object.__setattr__(self, "values", sym)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    @cached_property
    def _spectrum(self) -> SpectralDecomposition:
        w, v = np.linalg.eigh(self.values)
        order = np.argsort(-w, kind="stable")
        w = w[order]
        v = v[:, order]
        lead = np.argmax(np.abs(v) > 1e-12, axis=0)  # row 0 for an all-zero column
        v[:, v[lead, np.arange(v.shape[1])] < 0] *= -1.0
        w.flags.writeable = False
        v.flags.writeable = False
        return SpectralDecomposition(eigenvalues=w, eigenvectors=v)

    @cached_property
    def _cholesky(self) -> np.ndarray:
        """Lower Cholesky factor ``L``; raises :class:`SingularMatrix` (and keeps
        nothing) when the factorization fails or a pivot ``L_ii^2`` is at most 1e-9
        times the largest diagonal entry."""
        try:
            chol = np.linalg.cholesky(self.values)
        except np.linalg.LinAlgError:
            raise SingularMatrix("matrix is not positive definite")
        pivots = np.diagonal(chol) ** 2
        if pivots.min() <= relative_tol(np.diagonal(self.values)):
            raise SingularMatrix(
                f"Cholesky pivot {pivots.min():.3e} is at most 1e-9 of the largest diagonal entry"
            )
        chol.flags.writeable = False
        return chol

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


@dataclass(frozen=True, eq=False)
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
    normalized; the arrays are read-only.  A :class:`SymMatrix` is decomposed
    once and keeps the result; any other input is decomposed afresh.  Raises
    :class:`InvalidMatrix` for non-finite input.
    """
    return as_sym(m)._spectrum


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
    return np.linalg.eigvalsh(0.5 * m + 0.5 * m.T)[::-1]


_RANK_TWO = np.array([[0.0, 1.0], [1.0, 1.0]])


def rank_two_eigenvalues(b, y, e) -> np.ndarray:
    """The eigenvalues of ``b^{-1/2} a b^{-1/2} - I`` that can be nonzero, descending, where
    ``a = b - y y^T + (y + e)(y + e)^T``: one column ``y`` of ``b = X X^T`` moved by ``e``.

    ``a - b = [y e] C [y e]^T`` with ``C = [[0, 1], [1, 1]]`` has rank at most two, so the
    other ``n - 2`` eigenvalues are exactly zero.  With ``b = L L^T`` (Cholesky) and
    ``[L^{-1} y, L^{-1} e] = Q R``, the ``min(n, 2)`` returned ones are the eigenvalues of
    the symmetric ``R C R^T``.  The step enters as ``e``: forming ``(y + e)(y + e)^T - y y^T``
    cancels when ``e`` is small.  A :class:`SymMatrix` ``b`` keeps its factor ``L``, so
    repeated calls on one ``b`` factor it once.  Raises :class:`SingularMatrix` when ``b`` is
    not positive definite: its Cholesky factorization fails, or a pivot ``L_ii^2`` (at least
    the smallest eigenvalue of ``b``) is at most 1e-9 times the largest diagonal entry of ``b``.
    """
    chol = as_sym(b)._cholesky
    r = np.linalg.qr(np.linalg.solve(chol, np.column_stack([y, e])), mode="r")
    return np.linalg.eigvalsh(r @ _RANK_TWO @ r.T)[::-1]


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
