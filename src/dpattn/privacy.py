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

The pair ``(lam, k)`` fixes the law of Z, so it is one type, :class:`PrivacyLoss`,
checked once when it is built; the mean, the tail and the reverse ordering are its
members, and :func:`neighbor_loss` builds it for a neighbor pair.
``(eps, delta)``-differential privacy follows whenever ``Pr[Z > eps] <= delta``
for both orderings of the pair; :func:`dp_certificate` checks the sufficient
conditions (``F`` within the sensitivity budget, ``E[Z] <= eps/2``,
tail at ``eps/2`` below ``delta``) for ``lam`` and ``1/lam``.  The Monte-Carlo
side draws Z with :func:`privacy_loss_samples`; the exceedance rate over those
draws estimates ``Pr[Z > eps]`` for the given ordering, and
:func:`wilson_upper` bounds it.  All logarithms are natural.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from . import rng
from .attention import RequirementCheck
from .dataset import NeighborPair, neighbor_deviation
from .errors import (ParamRange, SingularMatrix, check_array, check_instance, check_integer,
                     check_real)
from .linalg import relative_tol

# One-sided 99% normal quantile for the Wilson upper confidence bound.
_Z99 = statistics.NormalDist().inv_cdf(0.99)


def sensitivity_budget(eps: float, delta: float, k: int) -> float:
    """Admissible whitened Frobenius deviation between neighboring releases.

    ``0.1 * min(eps / sqrt(k log(1/delta)), eps / log(1/delta))`` for privacy
    parameters ``(eps, delta)``, reals in ``(0, 1)``, and ``k``; the certificate and the
    end-to-end pipeline both use it.
    """
    check_real("eps", eps, 0, 1, "()")
    check_real("delta", delta, 0, 1, "()")
    check_integer("k", k, 1)
    log_inv = math.log(1.0 / delta)
    return 0.1 * min(eps / math.sqrt(k * log_inv), eps / log_inv)


@dataclass(frozen=True, eq=False)
class PrivacyLoss:
    """The law of the privacy loss ``Z`` of ``k`` samples, checked once when it is built.

    ``eigenvalues`` are the (descending) eigenvalues ``lam`` of
    ``sigma1^{1/2} sigma2^{-1} sigma1^{1/2}``.  Construction raises :class:`ParamRange`
    unless they form a non-empty vector of finite values, then :class:`SingularMatrix`
    unless the smallest exceeds 1e-9 times ``max(1, largest)``, then :class:`ParamRange`
    unless ``k`` is an integer of at least 0 (``k == 0`` is the point mass at 0).  An
    eigenvalue 1 adds nothing to Z, its mean or either deviation, so a spectrum may leave
    such eigenvalues out (:func:`neighbor_loss` does).
    """

    eigenvalues: np.ndarray
    k: int

    def __post_init__(self):
        lam = check_array("eigenvalues", self.eigenvalues, 1)
        if lam.size < 1:
            raise ParamRange(f"eigenvalues must be a non-empty vector, got shape {lam.shape}")
        floor = relative_tol(np.append(lam, 1.0))
        if lam.min() <= floor:
            raise SingularMatrix(f"minimum comparison eigenvalue {lam.min():.3e} is at most "
                                 f"{floor:.3e}")
        check_integer("k", self.k, 0)
        object.__setattr__(self, "eigenvalues", lam)

    @property
    def deviation_frob(self) -> float:
        """``F = ||comparison - I||_F = sqrt(sum (lam - 1)^2)``."""
        return math.sqrt(float(((self.eigenvalues - 1.0) ** 2).sum()))

    @property
    def reverse(self) -> "PrivacyLoss":
        """The reverse ordering's loss: spectrum ``1/lam`` (descending), the same ``k``."""
        return PrivacyLoss(1.0 / self.eigenvalues[::-1], self.k)

    @property
    def mean(self) -> float:
        """Closed-form ``E[Z] = (k/2) * sum_j (lam_j - 1 - ln(lam_j))``; non-negative."""
        lam = self.eigenvalues
        return 0.5 * self.k * float((lam - 1.0 - np.log(lam)).sum())

    def tail(self, t: float) -> float:
        """Bernstein-type tail level for ``Pr[Z - E[Z] > t]``.

        ``max(exp(-t^2 / (2 nu^2)), exp(-t / (2 alpha)))`` with the sub-exponential
        parameters ``nu = sqrt(k) * F`` and ``alpha = 2 * F``, ``F =``
        :attr:`deviation_frob`; the max of the two branches equals the usual piecewise
        sub-exponential bound.  ``t`` is a real in ``(0, inf)``.  A point mass at the
        mean (``F == 0`` or ``k == 0``) gives 0 for any ``t``.
        """
        check_real("t", t, 0, math.inf, "()")
        dev = self.deviation_frob
        nu, alpha = math.sqrt(self.k) * dev, 2.0 * dev
        if nu == 0.0:
            return 0.0
        return max(math.exp(-t * t / (2.0 * nu**2)), math.exp(-t / (2.0 * alpha)))


def neighbor_loss(pair: NeighborPair, k: int) -> PrivacyLoss:
    """The privacy loss of ``k`` samples for a neighbor pair: the eigenvalues other than 1
    of the comparison ``sigma1^{1/2} sigma2^{-1} sigma1^{1/2}`` of the Gram matrices
    ``sigma1 = X X^T`` of the base and ``sigma2 = Xt Xt^T`` of the perturbed.

    The pair differs in one column, so the Gram matrices differ by rank at most two.
    Whitened by the base's kept Gram matrix, the perturbed one has the eigenvalues
    ``1 + mu`` with ``mu`` from :func:`~dpattn.dataset.neighbor_deviation`, and the
    comparison has their reciprocals ``lam = 1 / (1 + mu)``, the :attr:`~PrivacyLoss.reverse`
    of the spectrum ``1 + mu``: no ``n x n`` eigendecomposition and no second Gram
    product.  Raises :class:`SingularMatrix` when the base Gram matrix is not positive
    definite (see :func:`~dpattn.linalg.rank_two_eigenvalues`), or when ``1 + mu`` or
    ``lam`` fails the :class:`PrivacyLoss` floor.  A singular perturbed Gram matrix
    shows as ``1 + mu`` near 0, and is caught before the division.
    """
    check_instance("pair", pair, NeighborPair)
    return PrivacyLoss(1.0 + neighbor_deviation(pair), k).reverse


def privacy_loss_samples(loss: PrivacyLoss, trials: int, seed) -> np.ndarray:
    """``trials`` independent draws of the privacy loss ``Z`` with the law ``loss``.

    One ``(trials, loss.eigenvalues.size)`` block of chi-square(k) variates
    from the privacy stream of ``seed``; row ``t`` gives trial ``t``, so a longer
    run extends a shorter one.  Exactly zero when the spectrum is all ones or
    ``k == 0``.
    """
    check_instance("loss", loss, PrivacyLoss)
    check_integer("trials", trials, 0)
    lam, k = loss.eigenvalues, loss.k
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
class CertificateReport:
    """The sufficient-condition privacy checks of one pair (see :func:`dp_certificate`);
    ``granted`` is ``all(c.passed for c in checks)``."""

    eps: float
    delta: float
    k: int
    checks: tuple[RequirementCheck, ...]
    granted: bool


def dp_certificate(loss: PrivacyLoss, eps: float, delta: float) -> CertificateReport:
    """Check the sufficient conditions for ``(eps, delta)``-privacy of one release.

    Neighboring is symmetric, so both orderings of the pair are checked:
    ``loss`` and its :attr:`~PrivacyLoss.reverse`.  Grants iff, for both, the
    whitened deviation is within the sensitivity budget, the
    closed-form mean satisfies ``E[Z] <= eps/2``, and the sub-exponential
    tail at ``eps/2`` is at most ``delta``: the checks ``sensitivity`` (the
    deviation against :func:`sensitivity_budget`), ``mean`` (against ``eps/2``)
    and ``tail`` (against ``delta``), each passing when the worse ordering's
    value is at most the required one.  The budget needs ``loss.k`` of at least 1.
    """
    check_instance("loss", loss, PrivacyLoss)
    budget_used = sensitivity_budget(eps, delta, loss.k)  # validates eps, delta and k >= 1
    both = (loss, loss.reverse)
    checks = tuple(
        RequirementCheck(name, measured <= required, measured, required)
        for name, measured, required in (
            ("sensitivity", max(s.deviation_frob for s in both), budget_used),
            ("mean", max(s.mean for s in both), eps / 2.0),
            ("tail", max(s.tail(eps / 2.0) for s in both), delta),
        )
    )
    return CertificateReport(eps=eps, delta=delta, k=loss.k, checks=checks,
                             granted=all(c.passed for c in checks))


def wilson_upper(successes: int, trials: int) -> float:
    """One-sided 99% Wilson score upper confidence bound for a binomial rate."""
    check_integer("trials", trials, 1)
    check_integer("successes", successes, 0, trials)
    p = successes / trials
    z2 = _Z99 * _Z99
    center = p + z2 / (2.0 * trials)
    half = _Z99 * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
    return (center + half) / (1.0 + z2 / trials)

