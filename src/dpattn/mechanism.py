"""The Gaussian sampling mechanism and its utility radius.

The mechanism releases the empirical covariance of ``k`` draws from
``N(0, sigma)``:  ``sigma_hat = (1/k) * sum_i g_i g_i^T``, one
``Wishart(sigma, k) / k`` draw.  Privacy comes from the sampling noise alone;
no noise is added to the estimate.  The release draws that law by Bartlett's
decomposition (Odell & Feiveson 1966, JASA 61:199) from at most
``n * (n + 1) / 2`` variates, so its cost does not grow with ``k``.  Utility
is the usual empirical-covariance concentration: with probability
``1 - gamma`` the whitened deviation
``||sigma^{-1/2} sigma_hat sigma^{-1/2} - I||_F`` is at most
``rho ~ sqrt((n^2 + log(1/gamma)) / k)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import NotPsd, ParamRange
from .linalg import SymMatrix, as_sym, relative_tol, sym_eigendecompose

WARN_SINGULAR_ESTIMATE = "SingularEstimate"


@dataclass(frozen=True)
class MechanismOutput:
    """Covariance estimate released by the mechanism, with diagnostics.

    ``whitened = T T^T / k`` is the release whitened by the input covariance,
    in its eigenbasis, and ``rel_frob_error`` its Frobenius distance to ``I``
    (``None`` and NaN for a singular input).  ``warnings`` flags
    ``SingularEstimate`` when k < n: the estimate cannot be positive definite.
    """

    sigma_hat: SymMatrix
    k: int
    seed: object
    rel_frob_error: float
    whitened: SymMatrix | None
    warnings: tuple[str, ...]


def gaussian_sampling_mechanism(sigma, k: int, seed) -> MechanismOutput:
    """Release ``sigma_hat = (1/k) sum_i g_i g_i^T`` with ``g_i ~ N(0, sigma)``.

    Drawn as ``(L T)(L T)^T / k``.  ``L = V diag(sqrt(max(w, 0)))`` is the
    eigenvector factor of ``sigma``, which tolerates exactly singular PSD
    covariances.  ``T`` is the ``n x m`` lower-trapezoidal Bartlett factor,
    ``m = min(n, k)``: ``T_jj = sqrt(chi2(k - j))`` and ``T_ij ~ N(0, 1)``
    for ``i > j``.  It is the transposed R factor of the QR decomposition
    of the ``k x n`` standard normal sample matrix, so the law is exact for
    ``k < n`` too.  Output is bit-reproducible for fixed
    ``(sigma, k, seed)``; the stream layout is documented in :mod:`rng`.
    Raises :class:`NotPsd` for an indefinite ``sigma``.

    Since ``sigma^{-1/2} L = V``, the whitened release is ``V (T T^T / k) V^T``:
    it has the spectrum of ``whitened = T T^T / k`` whatever ``sigma`` is,
    and ``rel_frob_error = ||T T^T / k - I||_F``.  Both are undefined when
    ``sigma`` is singular at 1e-9 relative to its spectral norm, the floor of
    :func:`linalg.psd_inv_sqrt`.
    """
    sigma = as_sym(sigma)
    if k < 1:
        raise ParamRange(f"k must be at least 1, got {k}")
    dec = sym_eigendecompose(sigma)
    if dec.eigenvalues.min() < -relative_tol(dec.eigenvalues):
        raise NotPsd("covariance must be PSD")
    factor = dec.eigenvectors * np.sqrt(np.clip(dec.eigenvalues, 0.0, None))
    n = sigma.dim
    m = min(n, k)
    entropy = (rng.TAG_MECHANISM, *rng.normalize_entropy(seed))
    bartlett = np.zeros((n, m))
    diag = np.arange(m)
    bartlett[diag, diag] = np.sqrt(rng.chi_squares(k - diag, (m,), (*entropy, 0)))
    below = np.tri(n, m, -1, dtype=bool)
    bartlett[below] = rng.standard_normals(int(below.sum()), (*entropy, 1))
    root = factor @ bartlett
    sigma_hat = SymMatrix(root @ root.T / k)
    warnings = (WARN_SINGULAR_ESTIMATE,) if k < sigma.dim else ()
    rel, whitened = float("nan"), None
    if dec.eigenvalues.min() > relative_tol(dec.eigenvalues):
        gram_t = bartlett @ bartlett.T / k
        rel, whitened = float(np.linalg.norm(gram_t - np.eye(n))), SymMatrix(gram_t)
    return MechanismOutput(sigma_hat=sigma_hat, k=k, seed=seed, rel_frob_error=rel,
                           whitened=whitened, warnings=warnings)


def utility_radius(n: int, gamma: float, k: int, scale: float) -> float:
    """High-probability whitened deviation level for the mechanism.

    ``scale * (sqrt((n^2 + ln(1/gamma)) / k) + (n^2 + ln(1/gamma)) / k)``.
    ``scale`` is the empirically calibrated leading constant (1.0 by default
    throughout the package).
    """
    if n < 1:
        raise ParamRange(f"n must be at least 1, got {n}")
    if not 0.0 < gamma < 1.0:
        raise ParamRange(f"gamma must lie in (0, 1), got {gamma}")
    if k < 1:
        raise ParamRange(f"k must be at least 1, got {k}")
    if scale <= 0:
        raise ParamRange(f"scale must be positive, got {scale}")
    mass = n * n + math.log(1.0 / gamma)
    return scale * (math.sqrt(mass / k) + mass / k)


def required_samples(n: int, gamma: float, radius_target: float, scale: float) -> int:
    """Smallest ``k`` with ``utility_radius(n, gamma, k, scale) <= radius_target``.

    The radius is strictly decreasing in ``k``, so an analytic starting point
    plus a local integer walk gives the exact minimizer.
    """
    if radius_target <= 0:
        raise ParamRange(f"radius_target must be positive, got {radius_target}")
    if scale <= 0:
        raise ParamRange(f"scale must be positive, got {scale}")
    if not 0.0 < gamma < 1.0:
        raise ParamRange(f"gamma must lie in (0, 1), got {gamma}")
    if n < 1:
        raise ParamRange(f"n must be at least 1, got {n}")
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
