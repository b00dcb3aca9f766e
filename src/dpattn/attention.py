"""Row-normalized attention maps and the deterministic perturbation chain.

The attention map sends a symmetric logit matrix ``M`` to ``diag(s)^{-1} g(M)``
where ``g`` applies ``exp`` or ``cosh`` entrywise and ``s`` holds the row sums
of ``g(M)``.  When two PSD logit matrices are entrywise bounded by ``r`` and
spectrally within a relative factor ``eps`` of each other, the resulting
attention matrices differ entrywise by at most ``4 * (1 + eps + 2r) * r``.
:func:`perturbation_chain_check` measures every intermediate step of that
bound on concrete inputs.

Throughout this module the matrix infinity-norm means the entrywise
max-absolute value.  ``eps`` and ``r`` are accepted on ``(0, 0.1]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimMismatch, Overflow, ParamRange, PreconditionFailed
from .linalg import SymMatrix, as_sym, is_psd, loewner_within


class Activation(Enum):
    """Entrywise similarity transform used by the attention map."""

    EXP = "exp"
    COSH = "cosh"


def entrywise_activation(m, kind: Activation) -> SymMatrix:
    """Apply the activation to every entry; symmetry is preserved exactly."""
    vals = as_sym(m).values
    with np.errstate(over="ignore"):
        out = np.exp(vals) if kind is Activation.EXP else np.cosh(vals)
    if not np.isfinite(out).all():
        raise Overflow(f"entrywise {kind.value} exceeds double range")
    return SymMatrix(out)


def attention_matrix(m, kind: Activation) -> np.ndarray:
    """Row-stochastic attention map: each activated row divided by its sum."""
    act = entrywise_activation(m, kind).values
    return act / act.sum(axis=1)[:, None]


def attention_error(a, b, kind: Activation) -> float:
    """Entrywise max-absolute difference of the two attention matrices."""
    a = as_sym(a)
    b = as_sym(b)
    if a.dim != b.dim:
        raise DimMismatch(f"dimension mismatch: {a.dim} vs {b.dim}")
    return float(np.abs(attention_matrix(a, kind) - attention_matrix(b, kind)).max())


def _check_ratio(name: str, value: float) -> None:
    if not 0.0 < value <= 0.1:
        raise ParamRange(f"{name} must lie in (0, 0.1], got {value}")


def theoretical_error_bound(eps: float, r: float) -> float:
    """The guaranteed attention error level ``4 * (1 + eps + 2r) * r``."""
    _check_ratio("eps", eps)
    _check_ratio("r", r)
    return 4.0 * (1.0 + eps + 2.0 * r) * r


@dataclass(frozen=True)
class ChainStage:
    name: str
    measured: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class ChainReport:
    """Per-stage measurements of the perturbation error chain."""

    eps: float
    r: float
    kind: Activation
    stages: tuple[ChainStage, ...]

    @property
    def all_passed(self) -> bool:
        return all(stage.passed for stage in self.stages)


def perturbation_chain_check(a, b, eps: float, r: float, kind: Activation) -> ChainReport:
    """Measure all four stages of the attention perturbation bound.

    Preconditions (violations raise :class:`PreconditionFailed` naming the
    requirement): ``eps, r`` in ``(0, 0.1]``; both matrices PSD; the base
    matrix entrywise bounded by ``r``; the pair spectrally within ``eps``
    (``loewner_within(a, b, eps)``).

    Stages, each reported as (measured, bound, passed):

    1. ``entry_range``       max |b_ij|                       vs (1 + eps) r
    2. ``activation_ratio``  max |g(a)-g(b)| / min(g(a),g(b)) vs (2 + 2 eps + 4r) r
    3. ``normalizer_ratio``  same ratio for the row sums      vs (2 + 2 eps + 4r) r
    4. ``attention_bound``   attention error                  vs 4 (1 + eps + 2r) r

    Stage 1's ``(1 + eps) r`` level is guaranteed only in the sandwich
    direction the sampling pipeline actually produces ((1-x) a <= b <= (1+x) a
    for some x <= eps); for pairs whose whitened spectrum touches ``1 - eps``
    from below, the attainable entry bound degrades to ``r / (1 - eps)`` and
    stage 1 reports the excess honestly (see the tests for the boundary case).
    """
    a = as_sym(a)
    b = as_sym(b)
    if a.dim != b.dim:
        raise DimMismatch(f"dimension mismatch: {a.dim} vs {b.dim}")
    if not 0.0 < eps <= 0.1:
        raise PreconditionFailed("eps_range", f"eps must lie in (0, 0.1], got {eps}")
    if not 0.0 < r <= 0.1:
        raise PreconditionFailed("r_range", f"r must lie in (0, 0.1], got {r}")
    max_a = float(np.abs(a.values).max())
    if max_a > r * (1.0 + 1e-12):
        raise PreconditionFailed("entry_bound", f"max |entry| = {max_a} exceeds r = {r}")
    if not is_psd(a):
        raise PreconditionFailed("psd_base", "base matrix is not PSD")
    if not is_psd(b):
        raise PreconditionFailed("psd_perturbed", "perturbed matrix is not PSD")
    if not loewner_within(a, b, eps):
        raise PreconditionFailed(
            "loewner", f"pair is not spectrally within eps = {eps} of each other"
        )

    act_a = entrywise_activation(a, kind).values
    act_b = entrywise_activation(b, kind).values
    sums_a = act_a.sum(axis=1)
    sums_b = act_b.sum(axis=1)

    ratio_bound = (2.0 + 2.0 * eps + 4.0 * r) * r
    entry_measured = float(np.abs(b.values).max())
    entry_bound = (1.0 + eps) * r
    act_measured = float((np.abs(act_a - act_b) / np.minimum(act_a, act_b)).max())
    sum_measured = float((np.abs(sums_a - sums_b) / np.minimum(sums_a, sums_b)).max())
    att_measured = float(np.abs(act_a / sums_a[:, None] - act_b / sums_b[:, None]).max())
    att_bound = theoretical_error_bound(eps, r)

    stages = (
        ChainStage("entry_range", entry_measured, entry_bound, entry_measured <= entry_bound),
        ChainStage("activation_ratio", act_measured, ratio_bound, act_measured <= ratio_bound),
        ChainStage("normalizer_ratio", sum_measured, ratio_bound, sum_measured <= ratio_bound),
        ChainStage("attention_bound", att_measured, att_bound, att_measured <= att_bound),
    )
    return ChainReport(eps=eps, r=r, kind=kind, stages=stages)
