"""Datasets with a spectral floor and a column-norm cap.

A dataset is a wide matrix ``X`` (n rows, d >= n columns) whose Gram matrix
``X X^T`` dominates ``eta * I`` and whose columns each have 2-norm at most
``alpha``.  Columns are the unit of privacy: two datasets are neighbors when
exactly one column differs, by 2-norm at most ``beta``.  Under those
constraints the whitened Gram deviation between neighbors is bounded by
``2 * alpha * beta / eta`` in spectral norm (``sqrt(n)`` times that in
Frobenius norm, which the deviation's rank of two tightens to ``sqrt(2)``),
which is what hands the pair to the privacy analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import rng
from .errors import (Infeasible, ParamRange, check_array, check_instance, check_integer,
                     check_real)
from .linalg import SymMatrix, rank_two_eigenvalues

GOODNESS_TOL = 1e-9


def _goodness(arr: np.ndarray, eta: float, alpha: float) -> tuple[np.ndarray, bool]:
    """The Gram matrix ``g = arr arr^T`` of the 2-d ``arr`` and whether
    ``g >= eta (1 - GOODNESS_TOL) I`` and every column norm is at most
    ``alpha (1 + GOODNESS_TOL)``: tolerances relative to the declared values, so the
    test gives the same answer for ``(c arr, c^2 eta, c alpha)`` at any scale ``c > 0``."""
    check_real("eta", eta, 0, np.inf, "()")
    check_real("alpha", alpha, 0, np.inf, "()")
    g = arr @ arr.T
    min_eig = float(np.linalg.eigvalsh(g).min())
    good = (min_eig >= eta * (1.0 - GOODNESS_TOL)
            and np.linalg.norm(arr, axis=0).max() <= alpha * (1.0 + GOODNESS_TOL))
    return g, bool(good)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable matrix with declared goodness parameters ``(eta, alpha)``.

    Construction validates the declaration: ``eta`` and ``alpha`` are reals in
    ``(0, inf)``, 1 <= n <= d, the Gram spectral floor and the column-norm cap (at
    relative tolerance ``GOODNESS_TOL``, by one ``eigvalsh``, not the Cholesky floor of
    :attr:`SymMatrix.cholesky`).  It keeps the Gram matrix ``gram_matrix``.
    """

    x: np.ndarray
    eta: float
    alpha: float
    gram_matrix: SymMatrix = field(init=False, repr=False)

    def __post_init__(self):
        arr = check_array("x", self.x, 2)
        n, d = arr.shape
        if not 1 <= n <= d:
            raise ParamRange(f"dataset requires 1 <= n <= d, got n={n}, d={d}")
        g, good = _goodness(arr, self.eta, self.alpha)
        if not good:
            raise Infeasible(f"dataset does not satisfy the declared (eta={self.eta}, "
                             f"alpha={self.alpha}) bounds")
        object.__setattr__(self, "x", arr)
        object.__setattr__(self, "gram_matrix", SymMatrix(g))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def column(self, i: int) -> np.ndarray:
        return self.x[:, i]


def generate_good_dataset(n: int, d: int, eta: float, alpha: float, seed) -> Dataset:
    """Construct a dataset meeting the (eta, alpha) bounds by design.

    Layout: ``[sqrt(eta) * I | G]`` where the d - n extra columns are random
    directions scaled to norm ``min(alpha, sqrt(eta))``.  The identity block
    guarantees the spectral floor without rejection sampling; the extra
    columns only add PSD mass.  Deterministic for a fixed seed.
    """
    check_integer("n", n, 1)
    check_integer("d", d, n)
    check_real("eta", eta, 0, np.inf, "()")
    check_real("alpha", alpha, 0, np.inf, "()")
    entropy = (rng.TAG_DATASET, *rng.normalize_entropy(seed))
    if alpha < np.sqrt(eta):
        raise Infeasible(
            f"columns of norm <= alpha = {alpha} cannot reach a spectral floor of "
            f"eta = {eta} (need alpha >= sqrt(eta))"
        )
    x = np.zeros((n, d))
    x[:, :n] = np.sqrt(eta) * np.eye(n)
    if d > n:
        extra = rng.standard_normals(n * (d - n), entropy).reshape(n, d - n)
        col_norms = np.linalg.norm(extra, axis=0)
        col_norms[col_norms == 0.0] = 1.0
        x[:, n:] = extra / col_norms * min(alpha, float(np.sqrt(eta)))
    return Dataset(x=x, eta=eta, alpha=alpha)


@dataclass(frozen=True, eq=False)
class NeighborPair:
    """A dataset and a perturbation of exactly one of its columns.

    Invariants checked on construction: ``beta`` is a real in ``[0, inf)``, all other
    columns are bit-identical and the changed column moved by 2-norm at most ``beta``.
    """

    base: Dataset
    perturbed: np.ndarray
    beta: float
    index: int

    def __post_init__(self):
        check_instance("base", self.base, Dataset)
        arr = check_array("perturbed", self.perturbed, 2)
        if arr.shape != self.base.x.shape:
            raise ParamRange(f"perturbed matrix shape {arr.shape} does not match base "
                             f"{self.base.x.shape}")
        check_real("beta", self.beta, 0, np.inf, "[)")
        check_integer("index", self.index, 0, self.base.d - 1)
        others = [j for j in range(self.base.d) if j != self.index]
        if not np.array_equal(self.base.x[:, others], arr[:, others]):
            raise ParamRange("neighbor pair may differ in exactly one column")
        moved = float(np.linalg.norm(self.base.x[:, self.index] - arr[:, self.index]))
        if moved > self.beta + 1e-12 * max(1.0, self.beta):
            raise ParamRange(f"changed column moved by {moved}, more than beta = {self.beta}")
        object.__setattr__(self, "perturbed", arr)


def make_neighbor(data: Dataset, beta: float, index: int, seed) -> NeighborPair:
    """Perturb one column along a random direction, staying inside the alpha ball.

    The step length, for ``beta`` in ``(0, inf)``, is ``min(beta, slack)`` where
    ``slack`` is the largest move along the drawn direction that keeps the column
    norm at most ``alpha``; the bound derivation needs both columns inside the ball,
    so the perturbation is projected rather than allowed to leave it.
    """
    check_instance("data", data, Dataset)
    check_real("beta", beta, 0, np.inf, "()")
    check_integer("index", index, 0, data.d - 1)
    direction = rng.standard_normals(data.n, (rng.TAG_NEIGHBOR, *rng.normalize_entropy(seed)))
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        direction = np.zeros(data.n)
        direction[0] = 1.0
    else:
        direction = direction / norm
    col = data.column(index)
    along = float(col @ direction)
    radicand = max(along * along + data.alpha**2 - float(col @ col), 0.0)
    slack = -along + float(np.sqrt(radicand))
    step = min(beta, slack)
    perturbed = data.x.copy()
    perturbed[:, index] = col + step * direction
    return NeighborPair(base=data, perturbed=perturbed, beta=beta, index=index)


def neighbor_deviation(pair: NeighborPair) -> np.ndarray:
    """The eigenvalues of ``D = (X X^T)^{-1/2} Xt Xt^T (X X^T)^{-1/2} - I`` that can be
    nonzero, descending, where ``X`` is the base and ``Xt`` the perturbed matrix.

    One column moved, so ``D`` has rank at most two: these are the ``min(n, 2)``
    :func:`~dpattn.linalg.rank_two_eigenvalues` of the base's kept Gram matrix with the
    base column and its step.  Raises :class:`SingularMatrix` when the base Gram matrix is
    not positive definite.
    """
    col = pair.base.column(pair.index)
    return rank_two_eigenvalues(pair.base.gram_matrix, col, pair.perturbed[:, pair.index] - col)


class SensitivityBound(NamedTuple):
    spectral_bound: float
    frobenius_bound: float


def sensitivity_bound(eta: float, alpha: float, beta: float, n: int) -> SensitivityBound:
    """Worst-case whitened deviation for (eta, alpha)-good, beta-close pairs.

    ``(2 alpha beta / eta, 2 sqrt(n) alpha beta / eta)``, the paper's bounds.  The
    Frobenius bound is loose by ``sqrt(n / 2)``: ``||D||_F <= sqrt(2) ||D||_2``, so
    ``2 sqrt(2) alpha beta / eta`` bounds it too.  Proof: ``D`` is symmetric, so
    ``||D||_F^2`` is the sum of its squared eigenvalues; a neighbor moves one column,
    so ``D = W (x' x'^T - x x^T) W`` with ``W = (X X^T)^{-1/2}`` has rank at most two,
    and at most two of those eigenvalues are nonzero, each at most ``||D||_2`` in
    magnitude.  Hence ``||D||_F^2 <= 2 ||D||_2^2``.
    """
    check_real("eta", eta, 0, np.inf, "()")
    check_real("alpha", alpha, 0, np.inf, "()")
    check_real("beta", beta, 0, np.inf, "[)")
    check_integer("n", n, 1)
    spectral = 2.0 * alpha * beta / eta
    return SensitivityBound(spectral, math.sqrt(n) * spectral)
