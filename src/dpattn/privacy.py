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
conditions (``F`` within the strict sensitivity budget, ``E[Z] <= eps/2``,
tail at ``eps/2`` below ``delta``) for ``lam`` and ``1/lam``, and
:func:`mc_privacy_verify` estimates the exceedance probability of the given
ordering directly by Monte Carlo.  All logarithms are natural.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import rng
from .errors import ParamRange, SingularMatrix
from .linalg import relative_tol, whitened_eigenvalues

# One-sided 99% normal quantile for the Wilson upper confidence bound.
_Z99 = statistics.NormalDist().inv_cdf(0.99)


class SensitivityBudget(NamedTuple):
    """Admissible whitened Frobenius deviation between neighboring releases.

    Two calibrations of the same quantity: ``loose`` uses the
    ``1/sqrt(8k log(1/delta))`` and ``1/(8 log(1/delta))`` branches, ``strict``
    the 0.1-scaled variants the end-to-end pipeline quotes.  ``strict <
    loose`` holds term by term, as ``0.1 < 1/sqrt(8)`` and ``0.1 < 1/8``;
    certificates use ``strict`` and report ``loose`` alongside it.
    """

    loose: float
    strict: float


def sensitivity_budget(eps: float, delta: float, k: int) -> SensitivityBudget:
    """Both deviation budgets for privacy parameters ``(eps, delta)`` and ``k``."""
    if not 0.0 < eps < 1.0:
        raise ParamRange(f"eps must lie in (0, 1), got {eps}")
    if not 0.0 < delta < 1.0:
        raise ParamRange(f"delta must lie in (0, 1), got {delta}")
    if k < 1:
        raise ParamRange(f"k must be at least 1, got {k}")
    log_inv = math.log(1.0 / delta)
    loose = min(eps / math.sqrt(8.0 * k * log_inv), eps / (8.0 * log_inv))
    strict = 0.1 * min(eps / math.sqrt(k * log_inv), eps / log_inv)
    return SensitivityBudget(loose=loose, strict=strict)


@dataclass(frozen=True)
class PrivacySpectrum:
    """Spectrum of the whitened comparison of two covariances.

    ``eigenvalues`` are the (descending, strictly positive) eigenvalues of
    ``sigma1^{1/2} sigma2^{-1} sigma1^{1/2}``.  The reverse ordering (real
    input ``sigma2``, neighbor ``sigma1``) has the spectrum ``1/lam``.
    """

    eigenvalues: np.ndarray

    def __post_init__(self):
        lam = np.array(self.eigenvalues, dtype=float, copy=True)
        if lam.ndim != 1 or lam.size < 1:
            raise ParamRange(f"eigenvalues must be a non-empty vector, got shape {lam.shape}")
        if lam.min() <= 0.0:
            raise SingularMatrix("comparison spectrum must be strictly positive")
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
    def inverse_deviation_frob(self) -> float:
        """``||I - comparison^{-1}||_F = sqrt(sum (1 - 1/lam)^2)``: the reverse ordering's."""
        return math.sqrt(float(((1.0 - 1.0 / self.eigenvalues) ** 2).sum()))


def privacy_spectrum(sigma1, sigma2) -> PrivacySpectrum:
    """Spectrum of ``sigma1^{1/2} sigma2^{-1} sigma1^{1/2}`` for positive definite inputs.

    Computed as the eigenvalues of the similar matrix
    ``sigma2^{-1/2} sigma1 sigma2^{-1/2}``.  Raises :class:`SingularMatrix`
    when either input is singular: ``sigma2`` at its whitening, ``sigma1``
    when the smallest eigenvalue is at most 1e-9 relative to the largest.
    """
    lam = whitened_eigenvalues(sigma1, sigma2)
    floor = relative_tol(lam)
    if lam.min() <= floor:
        raise SingularMatrix(
            f"minimum comparison eigenvalue {lam.min():.3e} is at most {floor:.3e}"
        )
    return PrivacySpectrum(lam)


def expected_privacy_loss(spectrum: PrivacySpectrum, k: int) -> float:
    """Closed-form mean ``(k/2) * sum_j (lam_j - 1 - ln(lam_j))``; non-negative."""
    if k < 0:
        raise ParamRange(f"k must be non-negative, got {k}")
    lam = spectrum.eigenvalues
    return 0.5 * k * float((lam - 1.0 - np.log(lam)).sum())


def privacy_loss_samples(spectrum: PrivacySpectrum, k: int, trials: int, seed) -> np.ndarray:
    """``trials`` independent draws of the privacy-loss variable Z.

    One ``(trials, n)`` block of chi-square(k) variates from the privacy
    stream of ``seed``; row ``t`` gives trial ``t``, so a longer run extends a
    shorter one.  Exactly zero when the spectrum is all ones or ``k == 0``.
    """
    if trials < 0:
        raise ParamRange(f"trials must be non-negative, got {trials}")
    if k < 0:
        raise ParamRange(f"k must be non-negative, got {k}")
    lam = spectrum.eigenvalues
    entropy = (rng.TAG_PRIVACY, *rng.normalize_entropy(seed))
    chi = rng.chi_squares(k, (trials, lam.size), entropy)
    # A row sum, not ``chi @ (lam - 1)``: BLAS may round a row differently
    # depending on how many rows there are, which would break the prefix.
    return 0.5 * ((chi * (lam - 1.0)).sum(axis=1) - k * float(np.log(lam).sum()))


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
    budget: SensitivityBudget
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
    whitened deviation is within the strict sensitivity budget, the
    closed-form mean satisfies ``E[Z] <= eps/2``, and the sub-exponential
    tail at ``eps/2`` is at most ``delta``.  The report carries the worse
    ordering's value of each.
    """
    budget = sensitivity_budget(eps, delta, k)
    budget_used = budget.strict
    both = (spectrum, PrivacySpectrum(1.0 / spectrum.eigenvalues[::-1]))
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
        budget=budget,
        budget_used=budget_used,
        expected_loss=mean,
        tail_at_half_eps=tail,
        sensitivity_ok=sensitivity_ok,
        mean_ok=mean_ok,
        tail_ok=tail_ok,
        granted=not reasons,
        denial_reasons=reasons,
    )


class McTail(NamedTuple):
    empirical_rate: float
    wilson_upper: float
    samples: np.ndarray


def wilson_upper(successes: int, trials: int, z: float = _Z99) -> float:
    """One-sided Wilson score upper confidence bound for a binomial rate."""
    if trials < 1:
        raise ParamRange(f"trials must be at least 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ParamRange(f"successes {successes} out of range for {trials} trials")
    p = successes / trials
    z2 = z * z
    center = p + z2 / (2.0 * trials)
    half = z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
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
