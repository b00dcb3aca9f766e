"""Datasets with a spectral floor and a column-norm cap.

A dataset is a wide matrix ``X`` (n rows, d >= n columns) whose Gram matrix
``X X^T`` dominates ``eta * I`` and whose columns each have 2-norm at most
``alpha``.  Columns are the unit of privacy: two datasets are neighbors when
exactly one column differs, by 2-norm at most ``beta``.  Under those
constraints the whitened Gram deviation between neighbors is bounded by
``2 * alpha * beta / eta`` in spectral norm (``sqrt(n)`` times that in
Frobenius norm), which is what hands the pair to the privacy analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import rng
from .errors import Infeasible, ParamRange
from .linalg import SymMatrix, whitened_eigenvalues

GOODNESS_TOL = 1e-9


def check_good(x, eta: float, alpha: float) -> bool:
    """True iff ``x x^T >= (eta - GOODNESS_TOL) I`` and column norms <= ``alpha + GOODNESS_TOL``."""
    if eta <= 0 or alpha <= 0:
        raise ParamRange(f"eta and alpha must be positive, got eta={eta}, alpha={alpha}")
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2:
        raise ParamRange(f"dataset must be a 2-d matrix, got shape {arr.shape}")
    min_eig = float(np.linalg.eigvalsh(arr @ arr.T).min())
    if min_eig < eta - GOODNESS_TOL:
        return False
    col_norms = np.linalg.norm(arr, axis=0)
    return bool(col_norms.max() <= alpha + GOODNESS_TOL)


@dataclass(frozen=True)
class Dataset:
    """Immutable matrix with declared goodness parameters ``(eta, alpha)``.

    Construction validates the declaration: d >= n, the Gram spectral floor,
    and the column-norm cap (at tolerance ``GOODNESS_TOL``).
    """

    x: np.ndarray
    eta: float
    alpha: float

    def __post_init__(self):
        arr = np.array(self.x, dtype=float, copy=True)
        if arr.ndim != 2:
            raise ParamRange(f"dataset must be a 2-d matrix, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ParamRange("dataset entries must be finite")
        n, d = arr.shape
        if d < n:
            raise ParamRange(f"dataset requires d >= n, got n={n}, d={d}")
        if not check_good(arr, self.eta, self.alpha):
            raise Infeasible(
                f"dataset does not satisfy the declared (eta={self.eta}, alpha={self.alpha}) bounds"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "x", arr)

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
    if n < 1:
        raise ParamRange(f"n must be at least 1, got {n}")
    if d < n:
        raise ParamRange(f"d must be at least n, got n={n}, d={d}")
    if eta <= 0 or alpha <= 0:
        raise ParamRange(f"eta and alpha must be positive, got eta={eta}, alpha={alpha}")
    if alpha < np.sqrt(eta):
        raise Infeasible(
            f"columns of norm <= alpha = {alpha} cannot reach a spectral floor of "
            f"eta = {eta} (need alpha >= sqrt(eta))"
        )
    x = np.zeros((n, d))
    x[:, :n] = np.sqrt(eta) * np.eye(n)
    if d > n:
        extra = rng.standard_normals(n * (d - n), (rng.TAG_DATASET, *rng.normalize_entropy(seed)))
        extra = extra.reshape(n, d - n)
        col_norms = np.linalg.norm(extra, axis=0)
        col_norms[col_norms == 0.0] = 1.0
        x[:, n:] = extra / col_norms * min(alpha, float(np.sqrt(eta)))
    return Dataset(x=x, eta=eta, alpha=alpha)


@dataclass(frozen=True)
class NeighborPair:
    """A dataset and a perturbation of exactly one of its columns.

    Invariants checked on construction: all other columns are bit-identical
    and the changed column moved by 2-norm at most ``beta``.
    """

    base: Dataset
    perturbed: np.ndarray
    beta: float
    index: int

    def __post_init__(self):
        arr = np.array(self.perturbed, dtype=float, copy=True)
        if arr.shape != self.base.x.shape:
            raise ParamRange(
                f"perturbed matrix shape {arr.shape} does not match base {self.base.x.shape}"
            )
        if not np.isfinite(arr).all():
            raise ParamRange("perturbed entries must be finite")
        if not 0 <= self.beta < np.inf:
            raise ParamRange(f"beta must be non-negative and finite, got {self.beta}")
        if not 0 <= self.index < self.base.d:
            raise ParamRange(f"index {self.index} out of range for d = {self.base.d}")
        others = [j for j in range(self.base.d) if j != self.index]
        if not np.array_equal(self.base.x[:, others], arr[:, others]):
            raise ParamRange("neighbor pair may differ in exactly one column")
        moved = float(np.linalg.norm(self.base.x[:, self.index] - arr[:, self.index]))
        if moved > self.beta + 1e-12 * max(1.0, self.beta):
            raise ParamRange(f"changed column moved by {moved}, more than beta = {self.beta}")
        arr.flags.writeable = False
        object.__setattr__(self, "perturbed", arr)


def make_neighbor(data: Dataset, beta: float, index: int, seed) -> NeighborPair:
    """Perturb one column along a random direction, staying inside the alpha ball.

    The step length is ``min(beta, slack)`` where ``slack`` is the largest
    move along the drawn direction that keeps the column norm at most
    ``alpha``; the bound derivation needs both columns inside the ball, so the
    perturbation is projected rather than allowed to leave it.
    """
    if not 0 < beta < np.inf:
        raise ParamRange(f"beta must be positive and finite, got {beta}")
    if not 0 <= index < data.d:
        raise ParamRange(f"index {index} out of range for d = {data.d}")
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


def gram(x) -> SymMatrix:
    """The Gram matrix ``X X^T``; PSD by construction."""
    arr = x.x if isinstance(x, Dataset) else np.asarray(x, dtype=float)
    if arr.ndim != 2:
        raise ParamRange(f"expected a 2-d matrix, got shape {arr.shape}")
    return SymMatrix(arr @ arr.T)


class SensitivityMeasurement(NamedTuple):
    spectral: float
    frobenius: float


def sensitivity_measured(pair: NeighborPair) -> SensitivityMeasurement:
    """Whitened Gram deviation of a neighbor pair.

    Returns the spectral and Frobenius norms of
    ``(X X^T)^{-1/2} Xt Xt^T (X X^T)^{-1/2} - I`` where ``X`` is the base and
    ``Xt`` the perturbed matrix.  Raises :class:`SingularMatrix` when the base
    Gram matrix is not positive definite.
    """
    dev = whitened_eigenvalues(gram(pair.perturbed), gram(pair.base)) - 1.0
    return SensitivityMeasurement(
        spectral=float(np.abs(dev).max()),
        frobenius=float(np.sqrt((dev * dev).sum())),
    )


class SensitivityBound(NamedTuple):
    spectral_bound: float
    frobenius_bound: float


def sensitivity_bound(eta: float, alpha: float, beta: float, n: int) -> SensitivityBound:
    """Worst-case whitened deviation for (eta, alpha)-good, beta-close pairs.

    ``(2 alpha beta / eta, 2 sqrt(n) alpha beta / eta)``.
    """
    if eta <= 0:
        raise ParamRange(f"eta must be positive, got {eta}")
    spectral = 2.0 * alpha * beta / eta
    return SensitivityBound(spectral, float(np.sqrt(n)) * spectral)
