"""Row-normalized attention maps and the deterministic perturbation chain.

The attention map sends a symmetric logit matrix ``M`` to ``diag(s)^{-1} g(M)`` where ``g``
applies ``exp`` or ``cosh`` entrywise and ``s`` holds the row sums of ``g(M)``:
:func:`attention_matrix`, the one public activation, which returns it read-only.  When two
PSD logit matrices are entrywise bounded by ``r`` and spectrally within a relative factor
``eps`` of each other, the resulting attention matrices differ entrywise by at most
``4 * (1 + eps + 2r) * r``.  :func:`perturbation_chain_check` measures every link of that
bound on a concrete pair, from the spectral sandwich to the attention error, and is the
package's one attention verifier: :func:`~dpattn.pipeline.dp_attention` runs it on every
release, on the Gram matrix's ``values`` and the read-only release, and takes its attention
maps, its error, its bound and its sandwich event from it.  It reads those arrays as they
are and checks only its scalars.  Both check ``kind`` by
:func:`~dpattn.errors.check_instance` and apply ``g`` by one core, ``_activation``.

Throughout this module the matrix infinity-norm means the entrywise
max-absolute value.  ``eps`` and ``r`` are finite reals in ``(0, 0.1]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import Overflow, check_instance, check_real
from .linalg import as_sym, spectrum_within


class Activation(Enum):
    """Entrywise similarity transform used by the attention map."""

    EXP = "exp"
    COSH = "cosh"


def _activation(values: np.ndarray, kind: Activation) -> np.ndarray:
    """The activation ``kind`` of every entry of a symmetric array, unchecked, finite and
    exactly symmetric: the one core of :func:`attention_matrix` and the chain; a non-finite
    result raises :class:`Overflow`."""
    with np.errstate(over="ignore"):
        out = np.exp(values) if kind is Activation.EXP else np.cosh(values)
    if not np.isfinite(out).all():
        raise Overflow(f"entrywise {kind.value} exceeds double range")
    return out


def attention_matrix(m, kind: Activation) -> np.ndarray:
    """Row-stochastic attention map of the symmetric ``m``, read-only: each row of the
    activation ``kind``, an :class:`Activation`, divided by its sum."""
    check_instance("kind", kind, Activation)
    act = _activation(as_sym(m).values, kind)
    att = act / act.sum(axis=1)[:, None]
    att.flags.writeable = False
    return att


def theoretical_error_bound(eps: float, r: float) -> float:
    """The guaranteed attention error level ``4 * (1 + eps + 2r) * r``."""
    check_real("eps", eps, 0, 0.1, "(]")
    check_real("r", r, 0, 0.1, "(]")
    return 4.0 * (1.0 + eps + 2.0 * r) * r


@dataclass(frozen=True)
class RequirementCheck:
    """One verdict of the package: a named measured value against the value it requires.

    ``passed`` is decided by the producer, which fixes the comparison (``<=`` or
    ``<``).  A ``warning_only`` check is reported but does not decide the verdict.
    """

    name: str
    passed: bool
    measured: float
    required: float
    warning_only: bool = False


@dataclass(frozen=True, eq=False)
class ChainReport:
    """Both attention maps of a pair and the checks of every link between them."""

    attention_base: np.ndarray
    attention_perturbed: np.ndarray
    stages: tuple[RequirementCheck, ...]


def perturbation_chain_check(a: np.ndarray, b: np.ndarray, mu: np.ndarray | None, eps: float,
                             r: float, kind: Activation) -> ChainReport:
    """Measure every link of the attention perturbation bound on the pair ``(a, b)``.

    ``a`` and ``b`` are finite, symmetric arrays of one size and ``mu`` is ``None`` or a
    finite vector of that length, read as they are, neither copied nor checked: the
    arrays :func:`~dpattn.pipeline.dp_attention` made and checked, the Gram matrix's
    ``values``, the release and its whitened spectrum.  ``mu`` holds the eigenvalues of
    ``a^{-1/2} b a^{-1/2}`` (the release's ``T T^T / k``), or is ``None`` when ``a`` has
    no Cholesky factor; nothing here factors a matrix.  The scalars are checked:
    ``eps`` or ``r`` not a real in ``(0, 0.1]``, then a ``kind`` not an
    :class:`Activation`, raise :class:`ParamRange`.  The base's own entry bound
    ``max |a_ij| <= r`` is the caller's requirement and is not checked here.  A failed
    link does not stop the chain: every check is measured and reported.  An activation
    beyond the double range raises :class:`Overflow`.

    Checks, in order; each but ``loewner`` passes when ``measured <= required``:

    1. ``loewner``           max |1/mu - 1|                   vs eps
    2. ``entry_range``       max |b_ij|                       vs (1 + eps) r
    3. ``activation_ratio``  max |g(a)-g(b)| / min(g(a),g(b)) vs (2 + 2 eps + 4r) r
    4. ``normalizer_ratio``  same ratio for the row sums      vs (2 + 2 eps + 4r) r
    5. ``attention_bound``   attention error                  vs 4 (1 + eps + 2r) r

    ``loewner`` is the sandwich ``(1 - eps) b <= a <= (1 + eps) b``: it passes when
    ``mu`` is positive and :func:`~dpattn.linalg.spectrum_within` holds for ``1/mu``,
    so its ``measured`` may exceed ``eps`` by that test's tolerance, 1e-9, and still
    pass.  Without a positive ``mu`` it fails and measures ``inf``.  A given ``mu``
    means ``a`` is positive definite and a positive one that ``b`` is too, so no
    separate PSD test is needed.

    Stage 2's ``(1 + eps) r`` level is guaranteed only in the sandwich direction
    the sampling pipeline actually produces ((1-x) a <= b <= (1+x) a for some
    x <= eps); for pairs whose whitened spectrum touches ``1 - eps`` from below,
    the attainable entry bound degrades to ``r / (1 - eps)`` and stage 2 reports
    the excess honestly (see the tests for the boundary case).
    """
    att_bound = theoretical_error_bound(eps, r)  # validates eps and r first
    check_instance("kind", kind, Activation)
    sandwich, deviation = False, math.inf
    if mu is not None and mu.min() > 0.0:
        inv = 1.0 / mu
        sandwich = spectrum_within(inv, eps)
        deviation = float(np.abs(inv - 1.0).max())

    act_a = _activation(a, kind)
    act_b = _activation(b, kind)
    sums_a = act_a.sum(axis=1)
    sums_b = act_b.sum(axis=1)
    att_a = act_a / sums_a[:, None]
    att_b = act_b / sums_b[:, None]
    att_a.flags.writeable = att_b.flags.writeable = False

    ratio_bound = (2.0 + 2.0 * eps + 4.0 * r) * r
    entry_max = float(np.abs(b).max())
    entry_bound = (1.0 + eps) * r
    act_ratio = float((np.abs(act_a - act_b) / np.minimum(act_a, act_b)).max())
    sum_ratio = float((np.abs(sums_a - sums_b) / np.minimum(sums_a, sums_b)).max())
    att_error = float(np.abs(att_a - att_b).max())

    stages = (
        RequirementCheck("loewner", sandwich, deviation, eps),
        RequirementCheck("entry_range", entry_max <= entry_bound, entry_max, entry_bound),
        RequirementCheck("activation_ratio", act_ratio <= ratio_bound, act_ratio, ratio_bound),
        RequirementCheck("normalizer_ratio", sum_ratio <= ratio_bound, sum_ratio, ratio_bound),
        RequirementCheck("attention_bound", att_error <= att_bound, att_error, att_bound),
    )
    return ChainReport(attention_base=att_a, attention_perturbed=att_b, stages=stages)
