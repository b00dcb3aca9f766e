"""End-to-end private attention: dataset -> Gram matrix -> private surrogate.

:func:`dp_attention` runs the whole chain for one dataset: check every
requirement of the end-to-end guarantee, release a surrogate Gram matrix
through the Gaussian sampling mechanism, convert the mechanism's relative
closeness into the spectral sandwich the attention bound needs, and measure
the attention deviation against ``4 * (1 + eps + 2r) * r``.  Nothing is
taken on trust: each requirement and each implication is evaluated
numerically and recorded in the report.

:func:`verify_neighbor_privacy` runs the privacy side for one neighbor pair:
the sufficient-condition certificate plus a Monte-Carlo estimate of the
privacy-loss exceedance rate, both from one :class:`PrivacySpectrum`.  It
takes only the privacy parameters ``eps``, ``delta``, ``k`` and a seed;
:class:`DpParams` belongs to :func:`dp_attention`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attention import Activation, attention_matrix, theoretical_error_bound
from .dataset import GOODNESS_TOL, Dataset, NeighborPair, gram, sensitivity_bound
from .errors import ParamRange
from .linalg import SymMatrix, psd_project, spectrum_within
from .mechanism import gaussian_sampling_mechanism, utility_radius
from .privacy import (CertificateReport, dp_certificate, mc_privacy_verify, privacy_spectrum,
                      sensitivity_budget)


@dataclass(frozen=True)
class DpParams:
    """All privacy/utility/bound parameters for one end-to-end run.

    ``eps``/``delta`` are the privacy parameters, ``gamma`` the allowed
    utility failure probability, ``k`` the mechanism sample count, ``r`` the
    entrywise logit bound, ``utility_const`` the calibrated constant in the
    utility radius.  Ranges are validated on construction.
    """

    eps: float
    delta: float
    gamma: float
    k: int
    r: float
    kind: Activation
    utility_const: float
    seed: int

    def __post_init__(self):
        if not 0.0 < self.eps <= 0.1:
            raise ParamRange(f"eps must lie in (0, 0.1], got {self.eps}")
        if not 0.0 < self.delta <= 0.1:
            raise ParamRange(f"delta must lie in (0, 0.1], got {self.delta}")
        if not 0.0 < self.gamma < 1.0:
            raise ParamRange(f"gamma must lie in (0, 1), got {self.gamma}")
        if not isinstance(self.k, (int, np.integer)) or self.k < 1:
            raise ParamRange(f"k must be a positive integer, got {self.k}")
        if not 0.0 < self.r <= 0.1:
            raise ParamRange(f"r must lie in (0, 0.1], got {self.r}")
        if not isinstance(self.kind, Activation):
            raise ParamRange(f"kind must be an Activation, got {self.kind!r}")
        if not 0.0 < self.utility_const < math.inf:
            raise ParamRange(
                f"utility_const must be positive and finite, got {self.utility_const}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ParamRange(f"seed must be a non-negative integer, got {self.seed}")


@dataclass(frozen=True)
class RequirementCheck:
    """One named requirement with its measured value and threshold."""

    name: str
    passed: bool
    measured: float
    required: float
    warning_only: bool = False


@dataclass(frozen=True)
class DpAttentionReport:
    """Everything one end-to-end run produced and verified.

    ``certified`` means: every hard requirement passed, the released matrix
    landed spectrally within ``eps`` of the true Gram matrix (the event that
    holds with probability at least ``1 - gamma``), and the measured attention
    deviation respects the theoretical bound.  The relative-closeness event at
    level ``rho`` and its conversion to the ``eps`` sandwich are recorded
    separately so reports distinguish "the probabilistic event occurred" from
    "the bound held".
    """

    params: DpParams
    beta: float
    gram_matrix: SymMatrix
    released: SymMatrix
    attention_base: np.ndarray
    attention_released: np.ndarray
    measured_error: float
    error_bound: float
    rho: float
    budget_used: float
    sensitivity_bound_frob: float
    requirement_checks: tuple[RequirementCheck, ...]
    loewner_rho_event: bool
    loewner_eps_event: bool
    loewner_conversion_ok: bool
    psd_projection_applied: bool
    warnings: tuple[str, ...]
    certified: bool


def dp_attention(data: Dataset, beta: float, params: DpParams) -> DpAttentionReport:
    """Release a private attention surrogate for one dataset and verify it.

    Requirement checks, in order (``eta_below_r`` is advisory only; nothing
    in the verified chain uses it):

    1. ``d_ge_n``        dataset is wide
    2. ``r_range``       r in (0, 0.1]
    3. ``eps_range``     eps in (0, 0.1]
    4. ``delta_range``   delta in (0, 0.1]
    5. ``entry_bound``   max |gram entry| <= r
    6. ``dataset_good``  min Gram eigenvalue >= eta
    7. ``eta_below_r``   eta < r (warning)
    8. ``sensitivity``   2 alpha beta sqrt(n) / eta < deviation budget
    9. ``utility``       rho < 0.1 * eps

    A failed hard requirement does not abort the run; the full report is
    produced with ``certified=False`` and the failing check named.

    Both sandwich events are read off the spectrum ``mu`` of the mechanism's
    whitened release ``T T^T / k``: ``mu`` within ``rho`` and ``1/mu`` within
    ``eps``.  Both are false when the Gram matrix is singular.
    """
    if not 0.0 <= beta < math.inf:
        raise ParamRange(f"beta must be non-negative and finite, got {beta}")
    base = gram(data)
    n, d = data.n, data.d
    budget = sensitivity_budget(params.eps, params.delta, params.k)
    budget_used = budget.strict
    sens_frob = sensitivity_bound(data.eta, data.alpha, beta, n).frobenius_bound
    rho = utility_radius(n, params.gamma, params.k, params.utility_const)
    entry_max = float(np.abs(base.values).max())
    min_eig = float(np.linalg.eigvalsh(base.values).min())

    checks = (
        RequirementCheck("d_ge_n", d >= n, float(d), float(n)),
        RequirementCheck("r_range", 0.0 < params.r <= 0.1, params.r, 0.1),
        RequirementCheck("eps_range", 0.0 < params.eps <= 0.1, params.eps, 0.1),
        RequirementCheck("delta_range", 0.0 < params.delta <= 0.1, params.delta, 0.1),
        RequirementCheck("entry_bound", entry_max <= params.r, entry_max, params.r),
        RequirementCheck("dataset_good", min_eig >= data.eta - GOODNESS_TOL, min_eig, data.eta),
        RequirementCheck("eta_below_r", data.eta < params.r, data.eta, params.r,
                         warning_only=True),
        RequirementCheck("sensitivity", sens_frob < budget_used, sens_frob, budget_used),
        RequirementCheck("utility", rho < 0.1 * params.eps, rho, 0.1 * params.eps),
    )

    mech = gaussian_sampling_mechanism(base, params.k, params.seed)
    released = mech.sigma_hat
    projected = False
    if float(np.linalg.eigvalsh(released.values).min()) < 0.0:
        released = psd_project(released)
        projected = True

    # The mechanism's guarantee is relative closeness of the release to the
    # input at level rho (spectrum mu); the attention bound needs the inverted
    # sandwich at level eps (spectrum 1/mu).  rho <= 0.1 * eps makes the
    # implication exact, and both events are evaluated instead of trusting it.
    rho_event = eps_event = False
    if mech.whitened is not None:
        mu = np.linalg.eigvalsh(mech.whitened.values)
        rho_event = spectrum_within(mu, rho)
        eps_event = bool(mu.min() > 0.0) and spectrum_within(1.0 / mu, params.eps)
    conversion_ok = eps_event or not (rho_event and rho <= 0.1 * params.eps)

    attention_base = attention_matrix(base, params.kind)
    attention_released = attention_matrix(released, params.kind)
    measured = float(np.abs(attention_base - attention_released).max())
    bound = theoretical_error_bound(params.eps, params.r)

    hard_ok = all(c.passed for c in checks if not c.warning_only)
    certified = hard_ok and eps_event and measured <= bound
    return DpAttentionReport(
        params=params,
        beta=beta,
        gram_matrix=base,
        released=released,
        attention_base=attention_base,
        attention_released=attention_released,
        measured_error=measured,
        error_bound=bound,
        rho=rho,
        budget_used=budget_used,
        sensitivity_bound_frob=sens_frob,
        requirement_checks=checks,
        loewner_rho_event=rho_event,
        loewner_eps_event=eps_event,
        loewner_conversion_ok=conversion_ok,
        psd_projection_applied=projected,
        warnings=mech.warnings,
        certified=certified,
    )


@dataclass(frozen=True)
class NeighborPrivacyReport:
    """Certificate plus Monte-Carlo evidence for one neighbor pair."""

    certificate: CertificateReport
    empirical_rate: float
    wilson_upper: float
    trials: int
    samples: np.ndarray


def verify_neighbor_privacy(pair: NeighborPair, eps: float, delta: float, k: int,
                            trials: int, seed: int) -> NeighborPrivacyReport:
    """Certificate and empirical exceedance rate for one neighbor pair.

    Both covariances are the Gram matrices of the pair; their spectrum is
    computed once and feeds both sides.  ``eps`` and ``delta`` lie in
    ``(0, 1)``.  The Monte-Carlo side draws the privacy loss ``trials`` times
    from the privacy stream of ``seed``; at least 1000 trials are required.
    """
    spectrum = privacy_spectrum(gram(pair.base), gram(pair.perturbed))
    certificate = dp_certificate(spectrum, eps, delta, k)
    mc = mc_privacy_verify(spectrum, k, eps, trials, seed)
    return NeighborPrivacyReport(
        certificate=certificate,
        empirical_rate=mc.empirical_rate,
        wilson_upper=mc.wilson_upper,
        trials=trials,
        samples=mc.samples,
    )
