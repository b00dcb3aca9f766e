"""Privacy-loss analysis for the Gaussian sampling mechanism.

For neighboring covariances ``sigma1`` (real input) and ``sigma2`` (the
neighbor's), the privacy loss of releasing ``k`` samples ``g_i ~ N(0, sigma1)``
is the log-likelihood ratio

    Z = sum_i log( density_{sigma1}(g_i) / density_{sigma2}(g_i) ).

Writing ``lam_j`` for the eigenvalues of the whitened comparison matrix
``sigma1^{1/2} sigma2^{-1} sigma1^{1/2}`` (equivalently of
``sigma2^{-1/2} sigma1 sigma2^{-1/2}``; the reverse ordering, real input
``sigma2``, has the spectrum ``1/lam_j``), the loss transforms into a weighted
chi-squared sum

    Z = (1/2) * sum_i sum_j ( (lam_j - 1) h_ij^2 - ln(lam_j) ),   h_ij iid N(0,1)
      = (1/2) * sum_j ( (lam_j - 1) chi_j - k ln(lam_j) ),        chi_j iid chi-square(k)

with closed-form mean ``E[Z] = (k/2) * sum_j (lam_j - 1 - ln(lam_j))``.  Z is
sub-exponential with parameters ``nu = sqrt(k) * F`` and ``alpha = 2 * F``
where ``F = ||comparison - I||_F``, giving the Bernstein-type tail

    Pr[Z - E[Z] > t] <= max( exp(-t^2 / (2 nu^2)), exp(-t / (2 alpha)) ).

``(eps, delta)``-differential privacy follows whenever ``Pr[Z > eps] <= delta``
for both orderings of the pair; :func:`dp_certificate` checks the sufficient
conditions (``F`` within the sensitivity budget, ``E[Z] <= eps/2``,
tail at ``eps/2`` below ``delta``) for ``lam`` and ``1/lam``, and
:func:`mc_privacy_verify` estimates the exceedance probability of the given
ordering directly by Monte Carlo.  All logarithms are natural.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from . import rng
from .dataset import NeighborPair, neighbor_deviation
from .errors import ParamRange, SingularMatrix
from .linalg import relative_tol, whitened_eigenvalues

# One-sided 99% normal quantile for the Wilson upper confidence bound.
_Z99 = statistics.NormalDist().inv_cdf(0.99)


def sensitivity_budget(eps: float, delta: float, k: int) -> float:
    """Admissible whitened Frobenius deviation between neighboring releases.

    ``0.1 * min(eps / sqrt(k log(1/delta)), eps / log(1/delta))`` for privacy
    parameters ``(eps, delta)`` and ``k``; the certificate and the end-to-end
    pipeline both use it.
    """
    if not 0.0 < eps < 1.0:
        raise ParamRange(f"eps must lie in (0, 1), got {eps}")
    if not 0.0 < delta < 1.0:
        raise ParamRange(f"delta must lie in (0, 1), got {delta}")
    if k < 1:
        raise ParamRange(f"k must be at least 1, got {k}")
    log_inv = math.log(1.0 / delta)
    return 0.1 * min(eps / math.sqrt(k * log_inv), eps / log_inv)


@dataclass(frozen=True, eq=False)
class PrivacySpectrum:
    """Spectrum of the whitened comparison of two covariances.

    ``eigenvalues`` are the (descending) eigenvalues of
    ``sigma1^{1/2} sigma2^{-1} sigma1^{1/2}``; construction raises
    :class:`ParamRange` unless they form a non-empty vector of finite values,
    and :class:`SingularMatrix` unless the smallest exceeds 1e-9 times
    ``max(1, largest)``.  The reverse ordering (real input ``sigma2``,
    neighbor ``sigma1``) has the spectrum ``1/lam``, :attr:`reverse`.  An
    eigenvalue 1 adds nothing to the loss, its mean or either deviation, so a
    spectrum may leave such eigenvalues out (:func:`neighbor_spectrum` does).
    """

    eigenvalues: np.ndarray

    def __post_init__(self):
        lam = np.array(self.eigenvalues, dtype=float, copy=True)
        if lam.ndim != 1 or lam.size < 1:
            raise ParamRange(f"eigenvalues must be a non-empty vector, got shape {lam.shape}")
        if not np.isfinite(lam).all():
            raise ParamRange(f"eigenvalues must be finite, got {lam}")
        floor = relative_tol(np.append(lam, 1.0))
        if lam.min() <= floor:
            raise SingularMatrix(
                f"minimum comparison eigenvalue {lam.min():.3e} is at most {floor:.3e}"
            )
        lam.flags.writeable = False
        object.__setattr__(self, "eigenvalues", lam)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @property
    def deviation_frob(self) -> float:
        """``||comparison - I||_F = sqrt(sum (lam - 1)^2)``."""
        return math.sqrt(float(((self.eigenvalues - 1.0) ** 2).sum()))

    @property
    def reverse(self) -> "PrivacySpectrum":
        """The reverse ordering's spectrum, ``1/lam`` (descending)."""
        return PrivacySpectrum(1.0 / self.eigenvalues[::-1])


def privacy_spectrum(sigma1, sigma2) -> PrivacySpectrum:
    """Spectrum of ``sigma1^{1/2} sigma2^{-1} sigma1^{1/2}`` for positive definite inputs.

    Computed as the eigenvalues of the similar matrix
    ``sigma2^{-1/2} sigma1 sigma2^{-1/2}``.  Raises :class:`SingularMatrix`
    when either input is singular: ``sigma2`` at its whitening, ``sigma1``
    at the :class:`PrivacySpectrum` floor (the smallest eigenvalue at most
    1e-9 times ``max(1, largest)``).
    """
    return PrivacySpectrum(whitened_eigenvalues(sigma1, sigma2))


def neighbor_spectrum(pair: NeighborPair) -> PrivacySpectrum:
    """The eigenvalues other than 1 of ``privacy_spectrum(gram(base), gram(perturbed))``.

    The pair differs in one column, so the Gram matrices differ by rank at most two.
    Whitened by the base's kept Gram matrix, the perturbed one has the eigenvalues
    ``1 + mu`` with ``mu`` from :func:`~dpattn.dataset.neighbor_deviation`, and the
    comparison has their reciprocals ``lam = 1 / (1 + mu)``, the :attr:`~PrivacySpectrum.reverse`
    of the spectrum ``1 + mu``: no ``n x n`` eigendecomposition and no second Gram
    product.  Raises :class:`SingularMatrix` when the base Gram matrix is not positive
    definite (see :func:`~dpattn.linalg.rank_two_eigenvalues`), or when ``1 + mu`` or
    ``lam`` fails the :class:`PrivacySpectrum` floor.  A singular perturbed Gram matrix
    shows as ``1 + mu`` near 0, and is caught before the division.
    """
    return PrivacySpectrum(1.0 + neighbor_deviation(pair)).reverse


def expected_privacy_loss(spectrum: PrivacySpectrum, k: int) -> float:
    """Closed-form mean ``(k/2) * sum_j (lam_j - 1 - ln(lam_j))``; non-negative."""
    if k < 0:
        raise ParamRange(f"k must be non-negative, got {k}")
    lam = spectrum.eigenvalues
    return 0.5 * k * float((lam - 1.0 - np.log(lam)).sum())


def privacy_loss_samples(spectrum: PrivacySpectrum, k: int, trials: int, seed) -> np.ndarray:
    """``trials`` independent draws of the privacy-loss variable Z.

    One ``(trials, spectrum.dim)`` block of chi-square(k) variates from the
    privacy stream of ``seed``; row ``t`` gives trial ``t``, so a longer run
    extends a shorter one.  Exactly zero when the spectrum is all ones or
    ``k == 0``.
    """
    if trials < 0:
        raise ParamRange(f"trials must be non-negative, got {trials}")
    if k < 0:
        raise ParamRange(f"k must be non-negative, got {k}")
    lam = spectrum.eigenvalues
    entropy = (rng.TAG_PRIVACY, *rng.normalize_entropy(seed))
    chi = rng.chi_squares(k, (trials, lam.size), rng.generator(entropy))
    # Summed in order, not ``chi @ (lam - 1)``: BLAS may round a row differently
    # depending on how many rows there are, which would break the prefix.  Column
    # by column, since numpy reduces a short row one row at a time; up to 7
    # eigenvalues this gives the same bits as ``(chi * (lam - 1)).sum(axis=1)``.
    weighted = chi[:, 0] * (lam[0] - 1.0)
    for j in range(1, lam.size):
        weighted += chi[:, j] * (lam[j] - 1.0)
    return 0.5 * (weighted - k * float(np.log(lam).sum()))


@dataclass(frozen=True)
class SubExpParams:
    """Sub-exponential parameters of Z derived from a spectrum.

    ``nu = sqrt(k) * F`` and ``alpha_se = 2 * F`` with
    ``F = ||comparison - I||_F``; ``mean`` is the closed-form expectation.
    """

    nu: float
    alpha_se: float
    mean: float


def sub_exp_params(spectrum: PrivacySpectrum, k: int) -> SubExpParams:
    dev = spectrum.deviation_frob
    return SubExpParams(
        nu=math.sqrt(k) * dev,
        alpha_se=2.0 * dev,
        mean=expected_privacy_loss(spectrum, k),
    )


def tail_bound(params: SubExpParams, t: float) -> float:
    """Bernstein-type tail level for ``Pr[Z - E[Z] > t]``.

    ``max(exp(-t^2 / (2 nu^2)), exp(-t / (2 alpha_se)))``; the max of the two
    branches equals the usual piecewise sub-exponential bound.  Degenerate
    parameters (``nu == 0``, a point mass at the mean) give 0 for any t > 0.
    """
    if t <= 0:
        raise ParamRange(f"t must be positive, got {t}")
    if params.nu < 0 or params.alpha_se < 0:
        raise ParamRange("sub-exponential parameters must be non-negative")
    if params.nu == 0.0 or params.alpha_se == 0.0:
        return 0.0
    gauss_branch = math.exp(-t * t / (2.0 * params.nu**2))
    linear_branch = math.exp(-t / (2.0 * params.alpha_se))
    return max(gauss_branch, linear_branch)


REASON_SENSITIVITY = "SensitivityExceeded"
REASON_MEAN = "MeanExceeded"
REASON_TAIL = "TailExceeded"


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of the sufficient-condition privacy check for one pair."""

    eps: float
    delta: float
    k: int
    sensitivity: float
    budget_used: float
    expected_loss: float
    tail_at_half_eps: float
    sensitivity_ok: bool
    mean_ok: bool
    tail_ok: bool
    granted: bool
    denial_reasons: tuple[str, ...]


def dp_certificate(spectrum: PrivacySpectrum, eps: float, delta: float,
                   k: int) -> CertificateReport:
    """Check the sufficient conditions for ``(eps, delta)``-privacy of one release.

    Neighboring is symmetric, so both orderings of the pair are checked:
    ``spectrum`` and its reverse ``1/lam``.  Grants iff, for both, the
    whitened deviation is within the sensitivity budget, the
    closed-form mean satisfies ``E[Z] <= eps/2``, and the sub-exponential
    tail at ``eps/2`` is at most ``delta``.  The report carries the worse
    ordering's value of each.
    """
    budget_used = sensitivity_budget(eps, delta, k)
    both = (spectrum, spectrum.reverse)
    sensitivity = max(s.deviation_frob for s in both)
    params = [sub_exp_params(s, k) for s in both]
    mean = max(p.mean for p in params)
    tail = max(tail_bound(p, eps / 2.0) for p in params)
    sensitivity_ok = sensitivity <= budget_used
    mean_ok = mean <= eps / 2.0
    tail_ok = tail <= delta
    reasons = tuple(
        reason
        for ok, reason in (
            (sensitivity_ok, REASON_SENSITIVITY),
            (mean_ok, REASON_MEAN),
            (tail_ok, REASON_TAIL),
        )
        if not ok
    )
    return CertificateReport(
        eps=eps,
        delta=delta,
        k=k,
        sensitivity=sensitivity,
        budget_used=budget_used,
        expected_loss=mean,
        tail_at_half_eps=tail,
        sensitivity_ok=sensitivity_ok,
        mean_ok=mean_ok,
        tail_ok=tail_ok,
        granted=not reasons,
        denial_reasons=reasons,
    )


@dataclass(frozen=True, eq=False)
class McTail:
    """Monte-Carlo exceedance rate, its Wilson upper bound and the draws behind them."""

    empirical_rate: float
    wilson_upper: float
    samples: np.ndarray


def wilson_upper(successes: int, trials: int) -> float:
    """One-sided 99% Wilson score upper confidence bound for a binomial rate."""
    if trials < 1:
        raise ParamRange(f"trials must be at least 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ParamRange(f"successes {successes} out of range for {trials} trials")
    p = successes / trials
    z2 = _Z99 * _Z99
    center = p + z2 / (2.0 * trials)
    half = _Z99 * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
    return (center + half) / (1.0 + z2 / trials)


def mc_privacy_verify(spectrum: PrivacySpectrum, k: int, eps: float, trials: int,
                      seed) -> McTail:
    """Monte-Carlo estimate of ``Pr[Z > eps]`` with a 99% Wilson upper bound.

    Requires at least 1000 trials.  The returned samples are the draws behind
    the rate, from :func:`privacy_loss_samples`.
    """
    if trials < 1000:
        raise ParamRange(f"trials must be at least 1000, got {trials}")
    losses = privacy_loss_samples(spectrum, k, trials, seed)
    exceed = int((losses > eps).sum())
    return McTail(
        empirical_rate=exceed / trials,
        wilson_upper=wilson_upper(exceed, trials),
        samples=losses,
    )
