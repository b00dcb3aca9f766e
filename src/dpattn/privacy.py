"""Privacy-loss analysis for the Gaussian sampling mechanism.

For neighboring covariances ``sigma1`` (real input) and ``sigma2`` (the
neighbor's), the privacy loss of releasing ``k`` samples ``g_i ~ N(0, sigma1)``
is the log-likelihood ratio

    Z = sum_i log( density_{sigma1}(g_i) / density_{sigma2}(g_i) ).

Writing ``lam_j`` for the eigenvalues of the whitened comparison matrix
``sigma1^{1/2} sigma2^{-1} sigma1^{1/2}``, the loss transforms into a weighted
chi-squared sum

    Z = (1/2) * sum_i sum_j ( (lam_j - 1) h_ij^2 - ln(lam_j) ),   h_ij iid N(0,1)

with closed-form mean ``E[Z] = (k/2) * sum_j (lam_j - 1 - ln(lam_j))``.  Z is
sub-exponential with parameters ``nu = sqrt(k) * F`` and ``alpha = 2 * F``
where ``F = ||comparison - I||_F``, giving the Bernstein-type tail

    Pr[Z - E[Z] > t] <= max( exp(-t^2 / (2 nu^2)), exp(-t / (2 alpha)) ).

``(eps, delta)``-differential privacy follows whenever ``Pr[Z > eps] <= delta``;
:func:`dp_certificate` checks the sufficient conditions (``F`` within the
strict sensitivity budget, ``E[Z] <= eps/2``, tail at ``eps/2`` below
``delta``) and :func:`mc_privacy_verify` estimates the exceedance probability
directly by Monte Carlo.  All logarithms are natural.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import rng
from .errors import DimMismatch, DpAttnError, ParamRange, SingularMatrix
from .linalg import as_sym, psd_inv_sqrt, psd_sqrt

# One-sided 99% normal quantile for the Wilson upper confidence bound.
_Z99 = statistics.NormalDist().inv_cdf(0.99)


class SensitivityBudget(NamedTuple):
    """Admissible whitened Frobenius deviation between neighboring releases.

    Two calibrations of the same quantity: ``loose`` uses the
    ``1/sqrt(8k log(1/delta))`` and ``1/(8 log(1/delta))`` branches, ``strict``
    the 0.1-scaled variants the end-to-end pipeline quotes.  ``strict <=
    loose`` holds term by term and is asserted at construction; certificates
    use ``strict`` and report ``loose`` alongside it.
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
    if strict > loose * (1.0 + 1e-12):
        raise DpAttnError(
            f"budget ordering violated: strict {strict} > loose {loose}"
        )
    return SensitivityBudget(loose=loose, strict=strict)


@dataclass(frozen=True)
class PrivacySpectrum:
    """Spectrum of the whitened comparison of two covariances.

    ``eigenvalues`` are the (descending, strictly positive) eigenvalues of
    ``sigma1^{1/2} sigma2^{-1} sigma1^{1/2}``.  The two Frobenius deviations
    are computed from the comparison matrix itself and must agree with the
    eigenvalue sums ``sum (lam - 1)^2`` and ``sum (1 - 1/lam)^2``.
    """

    eigenvalues: np.ndarray
    deviation_frob: float
    inverse_deviation_frob: float

    def __post_init__(self):
        lam = np.array(self.eigenvalues, dtype=float, copy=True)
        if lam.ndim != 1 or lam.size < 1:
            raise ParamRange(f"eigenvalues must be a non-empty vector, got shape {lam.shape}")
        if lam.min() <= 0.0:
            raise SingularMatrix("comparison spectrum must be strictly positive")
        for frob, summed in (
            (self.deviation_frob, float(((lam - 1.0) ** 2).sum())),
            (self.inverse_deviation_frob, float(((1.0 - 1.0 / lam) ** 2).sum())),
        ):
            if abs(frob * frob - summed) > 1e-9 * max(1.0, summed):
                raise DpAttnError(
                    f"spectrum inconsistency: frob^2 = {frob * frob} vs eigenvalue sum {summed}"
                )
        lam.flags.writeable = False
        object.__setattr__(self, "eigenvalues", lam)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


def privacy_spectrum(sigma1, sigma2) -> PrivacySpectrum:
    """Spectrum of ``sigma1^{1/2} sigma2^{-1} sigma1^{1/2}`` for positive definite inputs.

    The eigenvalues are cross-checked (to 1e-8 relative) against the similar
    matrix ``sigma2^{-1/2} sigma1 sigma2^{-1/2}``; swapping the arguments
    produces the elementwise reciprocal spectrum.
    """
    sigma1 = as_sym(sigma1)
    sigma2 = as_sym(sigma2)
    if sigma1.dim != sigma2.dim:
        raise DimMismatch(f"dimension mismatch: {sigma1.dim} vs {sigma2.dim}")
    eye = np.eye(sigma1.dim)
    root1 = psd_sqrt(sigma1).values
    inv_root2 = psd_inv_sqrt(sigma2).values
    # Gate sigma1 on positive definiteness too; the comparison needs both.
    psd_inv_sqrt(sigma1)
    inv2 = inv_root2 @ inv_root2
    comparison = root1 @ inv2 @ root1
    comparison = (comparison + comparison.T) / 2.0
    lam = np.sort(np.linalg.eigvalsh(comparison))[::-1]
    if lam.min() <= 0.0:
        raise SingularMatrix("comparison matrix is not positive definite")
    alt = np.sort(np.linalg.eigvalsh((inv_root2 @ sigma1.values @ inv_root2)))[::-1]
    if np.max(np.abs(lam - alt) / np.maximum(np.abs(lam), 1e-300)) > 1e-8:
        raise DpAttnError("eigenvalue cross-check failed between equivalent whitening routes")
    deviation = float(np.linalg.norm(comparison - eye))
    inverse_deviation = float(np.linalg.norm(eye - np.linalg.inv(comparison)))
    return PrivacySpectrum(
        eigenvalues=lam,
        deviation_frob=deviation,
        inverse_deviation_frob=inverse_deviation,
    )


def expected_privacy_loss(spectrum: PrivacySpectrum, k: int) -> float:
    """Closed-form mean ``(k/2) * sum_j (lam_j - 1 - ln(lam_j))``; non-negative."""
    if k < 0:
        raise ParamRange(f"k must be non-negative, got {k}")
    lam = spectrum.eigenvalues
    return 0.5 * k * float((lam - 1.0 - np.log(lam)).sum())


def _loss_from_spectrum(lam: np.ndarray, k: int, entropy) -> float:
    if k == 0:
        return 0.0
    h = rng.standard_normals(k * lam.size, entropy).reshape(k, lam.size)
    chi = (h * h).sum(axis=0)
    return 0.5 * (float(((lam - 1.0) * chi).sum()) - k * float(np.log(lam).sum()))


def privacy_loss_sample(sigma1, sigma2, k: int, seed) -> float:
    """One draw of the privacy-loss variable Z from the seeded stream.

    Uses the weighted chi-squared form: ``k * n`` standard normals ``h_ij``
    are drawn and ``(1/2) sum ((lam_j - 1) h_ij^2 - ln lam_j)`` is returned.
    Exactly zero when the two covariances coincide.
    """
    if k < 0:
        raise ParamRange(f"k must be non-negative, got {k}")
    spectrum = privacy_spectrum(sigma1, sigma2)
    entropy = (rng.TAG_PRIVACY, *rng.normalize_entropy(seed))
    return _loss_from_spectrum(spectrum.eigenvalues, k, entropy)


def privacy_loss_samples(sigma1, sigma2, k: int, trials: int, seed) -> np.ndarray:
    """Independent privacy-loss draws; trial ``t`` uses substream ``(seed, t)``.

    The per-trial substreams make the result independent of evaluation order.
    """
    if trials < 0:
        raise ParamRange(f"trials must be non-negative, got {trials}")
    if k < 0:
        raise ParamRange(f"k must be non-negative, got {k}")
    spectrum = privacy_spectrum(sigma1, sigma2)
    lam = spectrum.eigenvalues
    base = (rng.TAG_PRIVACY, *rng.normalize_entropy(seed))
    return np.array([_loss_from_spectrum(lam, k, (*base, t)) for t in range(trials)],
                    dtype=float)


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


def dp_certificate(sigma1, sigma2, eps: float, delta: float, k: int) -> CertificateReport:
    """Check the sufficient conditions for ``(eps, delta)``-privacy of one release.

    Grants iff the whitened deviation is within the strict sensitivity
    budget, the closed-form mean satisfies ``E[Z] <= eps/2``, and
    the sub-exponential tail at ``eps/2`` is at most ``delta``.
    """
    budget = sensitivity_budget(eps, delta, k)
    budget_used = budget.strict
    spectrum = privacy_spectrum(sigma1, sigma2)
    params = sub_exp_params(spectrum, k)
    tail = tail_bound(params, eps / 2.0)
    sensitivity_ok = spectrum.deviation_frob <= budget_used
    mean_ok = params.mean <= eps / 2.0
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
        sensitivity=spectrum.deviation_frob,
        budget=budget,
        budget_used=budget_used,
        expected_loss=params.mean,
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


def mc_privacy_verify(sigma1, sigma2, k: int, eps: float, trials: int, seed) -> McTail:
    """Monte-Carlo estimate of ``Pr[Z > eps]`` with a 99% Wilson upper bound.

    Requires at least 1000 trials.  The returned samples are the draws behind
    the rate, trial ``t`` from substream ``(seed, t)``.
    """
    if trials < 1000:
        raise ParamRange(f"trials must be at least 1000, got {trials}")
    losses = privacy_loss_samples(sigma1, sigma2, k, trials, seed)
    exceed = int((losses > eps).sum())
    return McTail(
        empirical_rate=exceed / trials,
        wilson_upper=wilson_upper(exceed, trials),
        samples=losses,
    )
