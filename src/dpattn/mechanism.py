"""The Gaussian sampling mechanism and its utility radius.

The mechanism releases the empirical covariance of ``k`` draws from
``N(0, sigma)``:  ``sigma_hat = (1/k) * sum_i g_i g_i^T``, one
``Wishart(sigma, k) / k`` draw.  Privacy comes from the sampling noise alone;
no noise is added to the estimate.  The release draws that law by Bartlett's
decomposition (Odell & Feiveson 1966, JASA 61:199) from at most
``n * (n + 1) / 2`` variates, so its cost does not grow with ``k``.  It
factors ``sigma`` by its kept lower Cholesky factor ``L``: any ``L`` with
``L L^T = sigma`` gives the same law.  Utility is the usual
empirical-covariance concentration: with probability ``1 - gamma`` the
whitened deviation ``||sigma^{-1/2} sigma_hat sigma^{-1/2} - I||_F`` is at
most ``rho ~ sqrt((n^2 + log(1/gamma)) / k)``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import rng
from .errors import NotPsd, Overflow, SingularMatrix, check_integer, check_real
from .linalg import as_sym, relative_tol

_BLOCK_ENTRIES = 1 << 16  # entries of T T^T per stack of bartlett_factors: memory stays bounded


@dataclass(frozen=True, eq=False)
class MechanismOutput:
    """Covariance estimate released by the mechanism, with diagnostics.

    Both are read-only float64 arrays, products with their own transposes, which numpy
    forms exactly symmetric.  ``whitened = T T^T / k`` is the release whitened by the input
    covariance's Cholesky factor ``L``, ``L^{-1} sigma_hat L^{-T}`` (``None`` for a singular
    input); its Frobenius distance to ``I`` is the release's relative error.  At ``k < n``
    neither can be positive definite: both have rank at most ``k``.
    """

    sigma_hat: np.ndarray
    whitened: np.ndarray | None


@functools.lru_cache(maxsize=64)
def _bartlett_layout(n: int, m: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Where an ``n x m`` Bartlett factor keeps its variates: the diagonal's indices, the
    mask below it and that mask's count.  Kept per shape; the arrays are read-only."""
    diag = np.arange(m)
    below = np.tri(n, m, -1, dtype=bool)
    diag.flags.writeable = False
    below.flags.writeable = False
    return diag, below, int(below.sum())


def _bartlett_streams(seed) -> tuple[np.random.Generator, np.random.Generator]:
    """The two generators of the Bartlett factors under ``seed``: the diagonal's
    chi-squares on ``(TAG_MECHANISM, *seed, 0)`` and the normals below it on
    ``(TAG_MECHANISM, *seed, 1)`` (see :mod:`rng`)."""
    entropy = (rng.TAG_MECHANISM, *rng.normalize_entropy(seed))
    return rng.generator((*entropy, 0)), rng.generator((*entropy, 1))


def bartlett_factors(n: int, k: int, seed, trials: int) -> Iterator[np.ndarray]:
    """The ``n x min(n, k)`` Bartlett factors ``T`` of ``trials`` releases under ``seed``.

    Trial ``t`` is row ``t`` of one block on the two substreams of
    :func:`_bartlett_streams`, so trial 0 is the factor of the single release
    under ``seed``.  Each stack takes one array draw per substream, so a block
    costs O(1) numpy calls per stack, not per trial.  The block comes in stacks
    of at most ``max(1, _BLOCK_ENTRIES // n^2)`` trials, which bounds a stacked
    product ``T T^T``; the stacks continue the same two generators, so no drawn
    value depends on the stack size.  The arguments are checked at the call, before
    any stack is drawn.
    """
    check_integer("n", n, 1)
    check_integer("k", k, 1)
    check_integer("trials", trials, 0)
    m = min(n, k)
    diag, below, count = _bartlett_layout(n, m)
    chis, normals = _bartlett_streams(seed)

    def stack(rows: int) -> np.ndarray:
        factors = np.zeros((rows, n, m))
        factors[:, diag, diag] = np.sqrt(rng.chi_squares(k - diag, (rows, m), chis))
        factors[:, below] = normals.standard_normal((rows, count))
        return factors

    step = max(1, _BLOCK_ENTRIES // (n * n))
    return (stack(min(step, trials - start)) for start in range(0, trials, step))


def whitened_errors(factors: np.ndarray, k: int) -> list[float]:
    """The relative error ``||T T^T / k - I||_F`` of the release of each Bartlett factor
    ``T`` of the stack ``factors``, with ``T T^T / k`` formed as the release forms its
    ``whitened`` and summed by numpy's own sum over each matrix, whose bits depend on
    neither the BLAS kernel nor the matrix's place in the stack, as a BLAS dot's do."""
    whitened = factors @ factors.mT / k
    return np.sqrt(((whitened - np.eye(factors.shape[-2])) ** 2).sum(axis=(-2, -1))).tolist()


def gaussian_sampling_mechanism(sigma, k: int, seed) -> MechanismOutput:
    """Release ``sigma_hat = (1/k) sum_i g_i g_i^T`` with ``g_i ~ N(0, sigma)``.

    Drawn as ``(L T)(L T)^T / k``, with ``L`` the kept lower Cholesky factor of
    ``sigma`` (:attr:`~dpattn.linalg.SymMatrix.cholesky`).  ``T`` is the
    ``n x m`` lower-trapezoidal Bartlett factor, ``m = min(n, k)``:
    ``T_jj = sqrt(chi2(k - j))`` and ``T_ij ~ N(0, 1)`` for ``i > j``.  It is
    the transposed R factor of the QR decomposition of the ``k x n`` standard
    normal sample matrix, so the law is exact for ``k < n`` too.  ``T`` is
    trial 0 of :func:`bartlett_factors` under ``seed``, bit for bit, but drawn
    directly: ``m`` scalar chi-square draws and one draw of the normals below
    the diagonal, since numpy's array sampler costs more in set-up than
    ``m <= n`` variates do.  Output is bit-reproducible for fixed
    ``(sigma, k, seed)``; the stream layout is documented in :mod:`rng`.

    Since ``L^{-1} sigma_hat L^{-T} = T T^T / k``, the release whitened by
    ``L`` is ``whitened = T T^T / k`` whatever ``sigma`` is, and
    ``||T T^T / k - I||_F`` is its relative error.  ``whitened`` is ``None``
    when ``sigma`` fails the Cholesky floor; such a ``sigma`` (a singular PSD
    covariance, such as zero) is factored by a plain, unkept ``eigh`` as
    ``V sqrt(w)`` with every eigenvalue at most ``relative_tol(w)`` set to 0, so
    a rank-``r`` covariance gives a rank-``r`` factor, and only there is it
    checked for :class:`NotPsd`.  A release beyond the double range raises
    :class:`Overflow`, and so does a non-finite ``T``, which makes ``L T`` non-finite.
    """
    sigma = as_sym(sigma)
    check_integer("k", k, 1)
    try:
        factor, definite = sigma.cholesky, True
    except SingularMatrix:
        w, v = np.linalg.eigh(sigma.values)
        tol = relative_tol(w)
        if w.min() < -tol:
            raise NotPsd("covariance must be PSD")
        factor, definite = v * np.sqrt(np.where(w > tol, w, 0.0)), False
    n, m = sigma.dim, min(sigma.dim, k)
    _, below, count = _bartlett_layout(n, m)
    chis, normals = _bartlett_streams(seed)
    bartlett = np.zeros((n, m))
    for j in range(m):
        bartlett[j, j] = math.sqrt(rng.chi_squares(k - j, None, chis))
    bartlett[below] = normals.standard_normal(count)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises Overflow below
        root = factor @ bartlett
        sigma_hat = root @ root.T / k
    if not np.isfinite(sigma_hat).all():
        raise Overflow("the release exceeds the double range")
    sigma_hat.flags.writeable = False
    whitened = None
    if definite:
        whitened = bartlett @ bartlett.T / k
        whitened.flags.writeable = False
    return MechanismOutput(sigma_hat=sigma_hat, whitened=whitened)


def utility_radius(n: int, gamma: float, k: int, scale: float) -> float:
    """High-probability whitened deviation level for the mechanism.

    ``scale * (sqrt((n^2 + ln(1/gamma)) / k) + (n^2 + ln(1/gamma)) / k)`` for ``gamma``
    in ``(0, 1)``.  ``scale``, in ``(0, inf)``, is the empirically calibrated leading
    constant (1.0 by default throughout the package).
    """
    check_integer("n", n, 1)
    check_real("gamma", gamma, 0, 1, "()")
    check_integer("k", k, 1)
    check_real("scale", scale, 0, math.inf, "()")
    return _utility_radius(n, gamma, k, scale)


def _utility_radius(n: int, gamma: float, k: int, scale: float) -> float:
    """:func:`utility_radius` without its checks, for checked ``n``, ``gamma``, ``k`` and
    ``scale``."""
    mass = n * n + math.log(1.0 / gamma)
    return scale * (math.sqrt(mass / k) + mass / k)


def required_samples(n: int, gamma: float, radius_target: float, scale: float) -> int:
    """Smallest ``k`` with ``utility_radius(n, gamma, k, scale) <= radius_target``.

    The radius is strictly decreasing in ``k``, so an analytic starting point
    plus a local integer walk gives the exact minimizer.
    """
    check_real("radius_target", radius_target, 0, math.inf, "()")
    utility_radius(n, gamma, 1, scale)  # validates n, gamma and scale
    mass = n * n + math.log(1.0 / gamma)
    # Solve y + y^2 = target/scale for y = sqrt(mass / k).
    t = radius_target / scale
    y = (-1.0 + math.sqrt(1.0 + 4.0 * t)) / 2.0
    k = max(1, math.ceil(mass / (y * y)))
    while k > 1 and utility_radius(n, gamma, k - 1, scale) <= radius_target:
        k -= 1
    while utility_radius(n, gamma, k, scale) > radius_target:
        k += 1
    return k
