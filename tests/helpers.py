"""Shared random-instance constructors for the test suite."""

import numpy as np

from dpattn import SingularMatrix, loewner_within, rng, whitened_eigenvalues


def rand_orthogonal(gen, n):
    q, _ = np.linalg.qr(gen.standard_normal((n, n)))
    return q


def rand_symmetric(gen, n, scale=1.0):
    m = gen.standard_normal((n, n)) * scale
    return (m + m.T) / 2.0


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
    the eigenvector factor of ``sigma``; ``samples.T @ samples / k`` is the
    mechanism's release written out sample by sample.
    """
    sigma = np.asarray(sigma, dtype=float)
    w, v = np.linalg.eigh(sigma)
    factor = v * np.sqrt(np.clip(w, 0.0, None))
    n = len(sigma)
    z = rng.standard_normals(k * n, (rng.TAG_MECHANISM, *rng.normalize_entropy(seed)))
    return z.reshape(k, n) @ factor.T


def relative_frobenius_distance(sigma, sigma_hat):
    """Reference whitened deviation ``||sigma^{-1/2} sigma_hat sigma^{-1/2} - I||_F``.

    Computed from the actual matrices through :func:`whitened_eigenvalues`:
    the whitened matrix is symmetric, so its deviation from ``I`` has the
    Frobenius norm of its eigenvalues minus one.  Raises ``SingularMatrix``
    when ``sigma`` is singular and ``DimMismatch`` when the shapes differ.
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
