"""End-to-end private attention: dataset -> Gram matrix -> private surrogate.

:func:`dp_attention` runs the whole chain for one dataset: check every
requirement of the end-to-end guarantee, release a surrogate Gram matrix
through the Gaussian sampling mechanism, and run
:func:`~dpattn.attention.perturbation_chain_check` on the Gram matrix and the
release: the spectral sandwich, the entry range, the activation and
normalizer ratios and the attention deviation against
``4 * (1 + eps + 2r) * r``.  Nothing is taken on trust: each requirement and
each link is evaluated numerically and recorded in the report.

Its inputs are checked once.  A :class:`~dpattn.dataset.Dataset` and a
:class:`DpParams` check every field when they are made; :func:`dp_attention`
checks what arrives at the call, the types of ``data`` and ``params`` and
``beta`` (through :func:`~dpattn.dataset.sensitivity_bound`).  From there it runs
the unchecked cores of the bounds and of the chain, which re-check nothing.  Inputs
are :class:`~dpattn.linalg.SymMatrix`, outputs are read-only arrays: the mechanism
returns its release and whitened draw as arrays, checked only for the double range,
and the chain takes the Gram matrix's ``values`` and the release.  Each public
function keeps its own checks.

:func:`verify_neighbor_privacy` runs the privacy side for one neighbor pair:
the sufficient-condition certificate plus the Monte-Carlo exceedance rate of
the privacy loss with its Wilson upper bound, both from one
:class:`~dpattn.privacy.PrivacyLoss`.  It takes only the privacy parameters ``eps``,
``delta``, ``k`` and a seed; :class:`DpParams` belongs to :func:`dp_attention`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .attention import Activation, RequirementCheck, _chain, _check_kind
from .dataset import Dataset, NeighborPair, sensitivity_bound
from .errors import check_instance, check_integer, check_real
from .linalg import SymMatrix, spectrum_within
from .mechanism import _utility_radius, gaussian_sampling_mechanism
from .privacy import (CertificateReport, _sensitivity_budget, dp_certificate, neighbor_loss,
                      privacy_loss_samples, wilson_upper)


@dataclass(frozen=True)
class DpParams:
    """All privacy/utility/bound parameters for one end-to-end run.

    ``eps``/``delta`` are the privacy parameters, ``gamma`` the allowed
    utility failure probability, ``k`` the mechanism sample count, ``r`` the
    entrywise logit bound, ``utility_const`` the calibrated constant in the
    utility radius.  Construction checks every range: ``eps``, ``delta`` and ``r`` in
    ``(0, 0.1]``, ``gamma`` in ``(0, 1)``, ``utility_const`` in ``(0, inf)``, ``k`` at
    least 1 and ``seed`` in ``[0, rng.MAX_SEED]``.
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
        check_real("eps", self.eps, 0, 0.1, "(]")
        check_real("delta", self.delta, 0, 0.1, "(]")
        check_real("gamma", self.gamma, 0, 1, "()")
        check_integer("k", self.k, 1)
        check_real("r", self.r, 0, 0.1, "(]")
        _check_kind(self.kind)
        check_real("utility_const", self.utility_const, 0, math.inf, "()")
        check_integer("seed", self.seed, 0, rng.MAX_SEED)


@dataclass(frozen=True, eq=False)
class DpAttentionReport:
    """Everything one end-to-end run produced and verified.

    ``chain`` holds the checks of :func:`~dpattn.attention.perturbation_chain_check`
    on the Gram matrix and the release, ``loewner`` to ``attention_bound``.
    ``certified`` means: every hard requirement passed, the released matrix
    landed spectrally within ``eps`` of the true Gram matrix (the event that
    holds with probability at least ``1 - gamma``, the ``loewner`` check), and
    the measured attention deviation respects the theoretical bound (the
    ``attention_bound`` check).  The relative-closeness event at
    level ``rho`` is recorded next to the ``eps`` event, so reports distinguish
    "the probabilistic event occurred" from "the bound held".  Each compared
    value is stated once, in its check: ``rho`` is the ``utility`` check's
    ``measured``, the Frobenius sensitivity bound and the budget are the
    ``sensitivity`` check's ``measured`` and ``required``.  The exceptions are
    ``measured_error``, ``error_bound`` and ``loewner_eps_event``, copies of the
    ``attention_bound`` check's ``measured`` and ``required`` and of the
    ``loewner`` check's ``passed``, kept while readers of the report still
    take them from here.  ``released`` is the mechanism's draw as it is, a read-only
    float64 array like the attention maps: at ``k < n`` it is singular, and rounding may
    leave its smallest eigenvalues just below zero.
    """

    params: DpParams
    beta: float
    gram_matrix: SymMatrix
    released: np.ndarray
    attention_base: np.ndarray
    attention_released: np.ndarray
    measured_error: float
    error_bound: float
    requirement_checks: tuple[RequirementCheck, ...]
    chain: tuple[RequirementCheck, ...]
    loewner_rho_event: bool
    loewner_eps_event: bool
    certified: bool


def dp_attention(data: Dataset, beta: float, params: DpParams) -> DpAttentionReport:
    """Release a private attention surrogate for one dataset and verify it.

    Requirement checks, in order:

    1. ``entry_bound``   max |gram entry| <= r
    2. ``eta_below_r``   eta < r (warning)
    3. ``sensitivity``   2 alpha beta sqrt(n) / eta <= deviation budget
    4. ``utility``       rho <= 0.1 * eps

    ``eta_below_r`` is advisory only: a :class:`Dataset`'s Gram diagonal is
    at least ``eta (1 - 1e-9)``, so ``entry_bound`` already implies it up to that
    tolerance.  ``data`` not a :class:`Dataset`, ``params`` not a
    :class:`DpParams` or ``beta`` not a real in ``[0, inf)`` raise
    :class:`ParamRange`.  What :class:`Dataset` and :class:`DpParams` validate on
    construction (``d >= n``, the Gram floor ``eta``, every parameter's range)
    is not re-checked, and neither is what the release computes: the bounds and
    the chain run as unchecked cores.  A failed hard requirement does not abort
    the run; the full report is produced with ``certified=False`` and the
    failing check named.

    Both sandwich events are read off the spectrum ``mu`` of the mechanism's
    whitened release ``T T^T / k``, its one ``eigvalsh``: ``mu`` within ``rho``,
    and ``1/mu`` within ``eps``, the chain's ``loewner`` check, which hands
    ``mu`` to the chain.  Both are false when the Gram matrix is singular.  The
    attention maps, the error and its bound are the chain's.
    """
    check_instance("data", data, Dataset)
    check_instance("params", params, DpParams)
    base = data.gram_matrix
    sens_frob = sensitivity_bound(data.eta, data.alpha, beta, data.n).frobenius_bound
    budget_used = _sensitivity_budget(params.eps, params.delta, params.k)
    rho = _utility_radius(data.n, params.gamma, params.k, params.utility_const)
    entry_max = float(np.abs(base.values).max())

    checks = (
        RequirementCheck("entry_bound", entry_max <= params.r, entry_max, params.r),
        RequirementCheck("eta_below_r", data.eta < params.r, data.eta, params.r,
                         warning_only=True),
        RequirementCheck("sensitivity", sens_frob <= budget_used, sens_frob, budget_used),
        RequirementCheck("utility", rho <= 0.1 * params.eps, rho, 0.1 * params.eps),
    )

    # The checked seed as its one-word sequence: the same stream, and normalize_entropy
    # takes a sequence without raising and catching tuple()'s TypeError on an int.
    mech = gaussian_sampling_mechanism(base, params.k, (params.seed,))
    mu = None if mech.whitened is None else np.linalg.eigvalsh(mech.whitened)
    # The mechanism's guarantee is relative closeness of the release to the
    # input at level rho (spectrum mu); the attention bound needs the inverted
    # sandwich at level eps (spectrum 1/mu), the chain's loewner check.
    # rho <= 0.1 * eps makes the implication exact up to rounding, and both
    # events are evaluated instead of trusting it.
    rho_event = mu is not None and spectrum_within(mu, rho)
    chain = _chain(base.values, mech.sigma_hat, mu, params.eps, params.r, params.kind)
    loewner, error = chain.stages[0], chain.stages[-1]

    hard_ok = all(c.passed for c in checks if not c.warning_only)
    return DpAttentionReport(
        params=params,
        beta=beta,
        gram_matrix=base,
        released=mech.sigma_hat,
        attention_base=chain.attention_base,
        attention_released=chain.attention_perturbed,
        measured_error=error.measured,
        error_bound=error.required,
        requirement_checks=checks,
        chain=chain.stages,
        loewner_rho_event=rho_event,
        loewner_eps_event=loewner.passed,
        certified=hard_ok and loewner.passed and error.passed,
    )


@dataclass(frozen=True, eq=False)
class NeighborPrivacyReport:
    """Certificate plus Monte-Carlo evidence for one neighbor pair."""

    certificate: CertificateReport
    trials: int
    empirical_rate: float
    wilson_upper: float
    samples: np.ndarray


def verify_neighbor_privacy(pair: NeighborPair, eps: float, delta: float, k: int,
                            trials: int, seed: int) -> NeighborPrivacyReport:
    """Certificate and empirical exceedance rate for one neighbor pair.

    Both covariances are the Gram matrices of the pair; the law of their privacy loss,
    from the at most two eigenvalues other than 1 (:func:`~dpattn.privacy.neighbor_loss`),
    is built once and feeds both sides.  ``eps`` and ``delta`` lie in ``(0, 1)``.  The
    Monte-Carlo side draws the privacy loss ``trials`` times from the privacy
    stream of ``seed``, at most two chi-squares per trial, and counts the
    draws above ``eps``; at least 1000 trials are required, which is checked
    before anything is computed.
    """
    check_integer("trials", trials, 1000)
    loss = neighbor_loss(pair, k)
    certificate = dp_certificate(loss, eps, delta)
    losses = privacy_loss_samples(loss, trials, seed)
    exceed = int((losses > eps).sum())
    return NeighborPrivacyReport(
        certificate=certificate,
        trials=trials,
        empirical_rate=exceed / trials,
        wilson_upper=wilson_upper(exceed, trials),
        samples=losses,
    )
