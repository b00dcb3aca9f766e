"""Dense symmetric-matrix primitives.

Everything downstream (attention perturbation, the sampling mechanism, the
privacy certificates) manipulates small dense symmetric matrices.  This module
fixes the conventions once: construction symmetrizes, a positive definite
matrix keeps one lower Cholesky factor, which factors the release and whitens
a neighbor's rank-two change, the sandwich test has one tolerance, and the
positive semidefinite and singularity cutoffs are relative to the matrix's
scale, so the checks give the same answer for ``c * m`` at any scale ``c > 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParamRange, SingularMatrix, check_array


def relative_tol(values: np.ndarray) -> float:
    """Cutoff 1e-9 times the largest magnitude in ``values`` (0 if all are zero): of
    eigenvalues, 1e-9 times the spectral norm; of a diagonal, the Cholesky pivot floor."""
    return 1e-9 * float(np.abs(values).max())


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Immutable dense real symmetric matrix: the type of a matrix the package checks or
    factors, a :class:`~dpattn.dataset.Dataset`'s Gram matrix or a caller's covariance.
    What the package returns (a release, its whitened draw, an attention map, a report's
    Gram matrix ``values``) is a read-only array instead, which the chain reads as it is.

    Input is symmetrized on construction, ``M / 2 + M.T / 2``, so covariance
    accumulation round-off never leaks asymmetry into later spectral code; halving
    before the sum keeps every finite entry finite, where ``(M + M.T) / 2`` would
    overflow above about 9e307.  ``values`` must pass :func:`~dpattn.errors.check_array`
    as a square, non-empty 2-d array (else :class:`ParamRange`), and is kept read-only.
    The lower Cholesky factor :attr:`cholesky` is computed on first use and kept, since
    the matrix cannot change: the release and :func:`rank_two_eigenvalues` of one
    ``SymMatrix`` both read that one factor.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = check_array("values", self.values, 2)
        if arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ParamRange(f"expected a non-empty square matrix, got shape {arr.shape}")
        sym = 0.5 * arr + 0.5 * arr.T
        sym.flags.writeable = False
        object.__setattr__(self, "values", sym)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    @cached_property
    def cholesky(self) -> np.ndarray:
        """Lower Cholesky factor ``L`` with ``L L^T = values``, read-only and kept.

        The package's positive-definiteness test of every matrix it factors (a
        :class:`~dpattn.dataset.Dataset` tests its Gram floor by ``eigvalsh`` on
        construction): raises :class:`SingularMatrix` (and keeps nothing) when the
        factorization fails or a pivot ``L_ii^2`` (at least the smallest eigenvalue) is at
        most 1e-9 times the largest diagonal entry.
        """
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


def as_sym(m) -> SymMatrix:
    """Coerce an array-like into a :class:`SymMatrix` (no-op if it is one)."""
    return m if isinstance(m, SymMatrix) else SymMatrix(m)


_RANK_TWO = np.array([[0.0, 1.0], [1.0, 1.0]])


def rank_two_eigenvalues(b, y, e) -> np.ndarray:
    """The eigenvalues of ``b^{-1/2} a b^{-1/2} - I`` that can be nonzero, descending, where
    ``a = b - y y^T + (y + e)(y + e)^T``: one column ``y`` of ``b = X X^T`` moved by ``e``.

    ``a - b = [y e] C [y e]^T`` with ``C = [[0, 1], [1, 1]]`` has rank at most two, so the
    other ``n - 2`` eigenvalues are exactly zero.  With ``b = L L^T`` (Cholesky) and
    ``[L^{-1} y, L^{-1} e] = Q R``, the ``min(n, 2)`` returned ones are the eigenvalues of
    the symmetric ``R C R^T``.  The step enters as ``e``: forming ``(y + e)(y + e)^T - y y^T``
    cancels when ``e`` is small.  A :class:`SymMatrix` ``b`` keeps its factor ``L``, so
    repeated calls on one ``b`` factor it once.  Raises :class:`SingularMatrix` when ``b``
    fails the Cholesky floor of :attr:`SymMatrix.cholesky`.
    """
    chol = as_sym(b).cholesky
    r = np.linalg.qr(np.linalg.solve(chol, np.column_stack([y, e])), mode="r")
    return np.linalg.eigvalsh(r @ _RANK_TWO @ r.T)[::-1]


def spectrum_within(w: np.ndarray, eps: float) -> bool:
    """The sandwich test: every whitened eigenvalue lies in ``[1-eps-1e-9, 1+eps+1e-9]``."""
    return bool(w.min() >= 1.0 - eps - 1e-9 and w.max() <= 1.0 + eps + 1e-9)
