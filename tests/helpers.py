"""Shared random-instance constructors, reference oracles and the BLAS kernel name for the
test suite."""

import ctypes
import glob
import math
import os
from typing import NamedTuple

import numpy as np

from dpattn import ParamRange, PrivacyLoss, SingularMatrix, SymMatrix, rng
from dpattn.dataset import neighbor_deviation
from dpattn.linalg import as_sym, relative_tol, spectrum_within


def blas_core():
    """The kernel name, such as ``SkylakeX`` or ``Haswell``, of the OpenBLAS bundled with
    numpy (``numpy.libs/libscipy_openblas64_*.so``), or ``None`` when that library or its
    ``scipy_openblas_get_corename64_`` is missing."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    try:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return None
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def gram_of(x):
    """The Gram matrix ``X X^T`` of a raw 2-d array, as a ``SymMatrix``."""
    return SymMatrix(x @ x.T)


class SensitivityMeasurement(NamedTuple):
    spectral: float
    frobenius: float


def sensitivity_measured(pair):
    """Whitened Gram deviation of a neighbor pair: the spectral and Frobenius norms of
    ``D = (X X^T)^{-1/2} Xt Xt^T (X X^T)^{-1/2} - I``, ``max |mu|`` and
    ``sqrt(mu_1^2 + mu_2^2)`` of its nonzero eigenvalues ``mu`` (``neighbor_deviation``).
    Raises ``SingularMatrix`` when the base Gram matrix is not positive definite."""
    mu = neighbor_deviation(pair)
    return SensitivityMeasurement(spectral=float(np.abs(mu).max()),
                                  frobenius=float(np.sqrt((mu * mu).sum())))


def is_psd(m):
    """True iff the minimum eigenvalue is at least -1e-9 times the spectral norm."""
    w = np.linalg.eigvalsh(as_sym(m).values)
    return bool(w.min() >= -relative_tol(w))


def whitened_eigenvalues(a, b):
    """Eigenvalues of ``b^{-1/2} a b^{-1/2}``, descending.

    Taken from the similar matrix ``L^{-1} a L^{-T}``, two solves on the kept
    factor ``L`` of ``b`` (``SymMatrix.cholesky``).  These are also the
    eigenvalues of ``a^{1/2} b^{-1} a^{1/2}``; swapping the arguments gives
    their reciprocals.  Raises ``SingularMatrix`` when ``b`` fails the Cholesky
    floor and ``ParamRange`` when the shapes differ.
    """
    a = as_sym(a)
    b = as_sym(b)
    if a.dim != b.dim:
        raise ParamRange(f"dimension mismatch: {a.dim} vs {b.dim}")
    chol = b.cholesky
    m = np.linalg.solve(chol, np.linalg.solve(chol, a.values).T)
    return np.linalg.eigvalsh(0.5 * m + 0.5 * m.T)[::-1]


def loewner_within(a, b, eps):
    """The two-sided spectral sandwich ``(1-eps) b <= a <= (1+eps) b``, by
    ``spectrum_within`` on :func:`whitened_eigenvalues`.  Scale-invariant; raises
    ``SingularMatrix`` when ``b`` fails the Cholesky floor."""
    if eps < 0:
        raise ParamRange(f"eps must be non-negative, got {eps}")
    return spectrum_within(whitened_eigenvalues(a, b), eps)


def privacy_loss(sigma1, sigma2, k=0):
    """The ``PrivacyLoss`` of ``k`` samples for any two positive definite covariances: the
    eigenvalues of ``sigma1^{1/2} sigma2^{-1} sigma1^{1/2}``, taken as
    :func:`whitened_eigenvalues` of ``(sigma1, sigma2)``.  Raises ``SingularMatrix`` when
    either input is singular: ``sigma2`` at the Cholesky floor, ``sigma1`` at the
    ``PrivacyLoss`` floor."""
    return PrivacyLoss(whitened_eigenvalues(sigma1, sigma2), k)


def chain_spectrum(a, b):
    """The ``mu`` that ``perturbation_chain_check(a, b, mu, ...)`` takes: the eigenvalues
    of ``a^{-1/2} b a^{-1/2}``, or ``None`` when ``a`` has no Cholesky factor."""
    try:
        return whitened_eigenvalues(b, a)
    except SingularMatrix:
        return None


def rand_orthogonal(gen, n):
    q, _ = np.linalg.qr(gen.standard_normal((n, n)))
    return q


def rand_pd(gen, n, eig_low=0.5, eig_high=2.0):
    q = rand_orthogonal(gen, n)
    eigs = gen.uniform(eig_low, eig_high, n)
    return (q * eigs) @ q.T


def rand_psd(gen, n, eig_high=2.0):
    q = rand_orthogonal(gen, n)
    eigs = gen.uniform(0.0, eig_high, n)
    return (q * eigs) @ q.T


def chain_pair(gen, n, eps, r):
    """Construct a (base, perturbed) PSD pair meeting the chain preconditions.

    The perturbed matrix has eigenvalues mu, and the base equals
    perturbed^{1/2} S perturbed^{1/2} with the eigenvalues of S drawn inside
    [1/(1+eps), 1+eps].  That subinterval of [1-eps, 1+eps] is the regime the
    sampling pipeline realizes (both directions of the spectral sandwich hold
    there); spectra touching 1-eps from below can push an entry of the
    perturbed matrix up to r/(1-eps), past the (1+eps) r entry-stage bound.
    Both matrices are rescaled so max |base entry| = r.
    """
    q = rand_orthogonal(gen, n)
    mu = gen.uniform(0.2, 2.0, n)
    perturbed = (q * mu) @ q.T
    perturbed = (perturbed + perturbed.T) / 2.0
    q2 = rand_orthogonal(gen, n)
    s_eigs = gen.uniform(1.0 / (1.0 + eps), 1.0 + eps, n)
    ratio = (q2 * s_eigs) @ q2.T
    w, v = np.linalg.eigh(perturbed)
    half = (v * np.sqrt(w)) @ v.T
    base = half @ ratio @ half
    base = (base + base.T) / 2.0
    scale = r / np.abs(base).max()
    return base * scale, perturbed * scale


def whitened_error(release):
    """A release's relative error ``||T T^T / k - I||_F``: its whitened release's
    Frobenius distance to ``I``, NaN when the input covariance is singular."""
    if release.whitened is None:
        return math.nan
    return float(np.linalg.norm(release.whitened - np.eye(len(release.whitened))))


def direct_loss_samples(lam, k, trials, seed):
    """Reference privacy-loss sampler: ``k * n`` standard normals per trial.

    Draws ``h_ij ~ N(0, 1)`` for every sample ``i`` and eigenvalue ``j`` on
    the per-trial substream ``(TAG_PRIVACY, seed, t)`` and returns
    ``(1/2) sum_ij ((lam_j - 1) h_ij^2 - ln lam_j)``, the privacy loss written
    out term by term.
    """
    lam = np.asarray(lam, dtype=float)
    out = np.empty(trials)
    for t in range(trials):
        h = rng.standard_normals(k * lam.size, (rng.TAG_PRIVACY, seed, t)).reshape(k, lam.size)
        chi = (h * h).sum(axis=0)
        out[t] = 0.5 * (float(((lam - 1.0) * chi).sum()) - k * float(np.log(lam).sum()))
    return out


def direct_gaussian_samples(sigma, k, seed):
    """Reference Gaussian sampler: ``k * n`` standard normals, shape ``(k, n)``.

    Sample ``i`` is ``L z_i`` with ``z_i`` the normals ``[i*n, (i+1)*n)`` of
    the stream ``(TAG_MECHANISM, *seed)`` and ``L = V diag(sqrt(max(w, 0)))``
    the eigenvector factor of ``sigma``; ``samples.T @ samples / k`` is one
    ``Wishart(sigma, k) / k`` draw written out sample by sample, the law of the
    mechanism's release.
    """
    sigma = np.asarray(sigma, dtype=float)
    w, v = np.linalg.eigh(sigma)
    factor = v * np.sqrt(np.clip(w, 0.0, None))
    n = len(sigma)
    z = rng.standard_normals(k * n, (rng.TAG_MECHANISM, *rng.normalize_entropy(seed)))
    return z.reshape(k, n) @ factor.T


def bartlett_block(n, k, seed, trials):
    """Reference Bartlett factors of ``trials`` releases under one seed, entry by entry.

    Trial ``t``'s ``T_jj`` is the root of entry ``(t, j)`` of one ``(trials, m)`` numpy
    ``chisquare`` block (``k - j`` degrees of freedom) on substream
    ``(TAG_MECHANISM, *seed, 0)``.  Its ``count`` entries below the diagonal take, in row
    order, the normals ``[t * count, (t + 1) * count)`` of ``(TAG_MECHANISM, *seed, 1)``.
    """
    m = min(n, k)
    entropy = (rng.TAG_MECHANISM, *rng.normalize_entropy(seed))
    chi = rng.generator((*entropy, 0)).chisquare(k - np.arange(m), size=(trials, m))
    count = m * n - m * (m + 1) // 2
    stream = rng.standard_normals(trials * count, (*entropy, 1))
    factors = np.zeros((trials, n, m))
    for t in range(trials):
        normals = iter(stream[t * count:(t + 1) * count])
        for i in range(n):
            for j in range(min(i + 1, m)):
                factors[t, i, j] = math.sqrt(chi[t, j]) if i == j else next(normals)
    return factors


def relative_frobenius_distance(sigma, sigma_hat):
    """Reference whitened deviation ``||sigma^{-1/2} sigma_hat sigma^{-1/2} - I||_F``.

    Computed from the actual matrices through :func:`whitened_eigenvalues`:
    the whitened matrix is symmetric, so its deviation from ``I`` has the
    Frobenius norm of its eigenvalues minus one.  Raises ``SingularMatrix``
    when ``sigma`` is singular and ``ParamRange`` when the shapes differ.
    """
    return float(np.linalg.norm(whitened_eigenvalues(sigma_hat, sigma) - 1.0))


def loewner_event(a, b, eps):
    """Reference sandwich event: ``loewner_within(a, b, eps)`` on the actual
    matrices, with a singular ``b`` (no whitening defined) read as ``False``.
    """
    try:
        return loewner_within(a, b, eps)
    except SingularMatrix:
        return False


def check_named(checks, name):
    """The check called ``name`` in a report's tuple of ``RequirementCheck``s."""
    return next(c for c in checks if c.name == name)


def conversion_holds(report):
    """The implication ``rho_event and rho <= 0.1 eps => eps_event`` of one
    ``DpAttentionReport``, with ``rho`` the ``utility`` check's measured value.
    """
    rho = check_named(report.requirement_checks, "utility").measured
    rho_tight = report.loewner_rho_event and rho <= 0.1 * report.params.eps
    return report.loewner_eps_event or not rho_tight
