"""Deterministic random stream: ``philox-boxmuller-v4``.

Every random draw in the library flows through one named stream so that any
result is reproducible from ``(domain tag, seed, ...)`` alone, on any machine
running the same numpy build:

* bit generator: numpy's Philox (a counter-based generator with a published
  fixed algorithm), keyed through ``numpy.random.SeedSequence`` on the word
  tuple ``(domain_tag + 1, seed + 1, *(extra_i + 1))``.  Every word is offset
  by one because ``SeedSequence`` absorbs trailing zero words, which would
  alias the substream of trial 0 with its parent stream.  Entropy values lie
  in ``[0, MAX_SEED]``, so every word lies in ``[1, 2**32 - 1]``:
  ``SeedSequence`` splits larger words into 32-bit pieces, which would alias
  ``(1, 2**32)`` with ``(1, 0, 0)``;
* uniforms: ``Generator.random()``, 53-bit doubles in ``[0, 1)``;
* normals: consecutive uniform pairs ``(u1, u2)`` mapped through the
  Box-Muller transform::

      radius = sqrt(-2 * ln(1 - u1))
      z1 = radius * cos(2 * pi * u2)
      z2 = radius * sin(2 * pi * u2)

  consumed in order; a block of rows gives each row its own pairs, so for an
  odd row length one surplus value per row is dropped;
* chi-square variates: ``2 * Generator.standard_gamma(df / 2)``, bit-equal to
  ``Generator.chisquare(df)`` and exactly zero at ``df == 0``; ``df`` may be
  an array, one degree of freedom per variate.  numpy does not promise to
  keep its gamma sampler stable across versions, so these values are
  reproducible only on the same numpy build.

Successive draws from one generator continue its stream, so a block drawn in
several pieces equals the block drawn at once.

Stream layouts:

* privacy ``(TAG_PRIVACY, seed)``: one row-major ``(trials, min(n, 2))``
  block of chi-square(k) values, row ``t`` for trial ``t``, so a longer run
  extends a shorter one.  A neighbor pair's comparison spectrum has at most
  two eigenvalues other than 1, and only those are drawn for;
* mechanism, ``trials`` releases of ``n x n`` covariance at ``k`` samples
  under one seed, with ``m = min(n, k)``: row ``t`` of each block is trial
  ``t``'s Bartlett factor.  A row-major ``(trials, m)`` block of its
  diagonal's ``T_jj^2``, chi-square(``k - j``) in order of ``j``, on
  ``(TAG_MECHANISM, seed, 0)``; a ``(trials, count)`` block of its
  below-diagonal entries ``T_ij`` (``i > j``, ``j < m``), standard normals
  in row-major order, on ``(TAG_MECHANISM, seed, 1)``.  A single release is
  trial 0; bench-utility keys the trials of its ``i``-th ``k`` by
  ``(seed, i)``.

The domain tags below keep unrelated operations on disjoint streams even when
they share a user-facing seed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ParamRange

STREAM_VERSION = "philox-boxmuller-v4"
MAX_SEED = 2**32 - 2

TAG_DATASET = 1
TAG_NEIGHBOR = 2
TAG_MECHANISM = 3
TAG_PRIVACY = 4


def normalize_entropy(entropy) -> tuple[int, ...]:
    """Coerce a seed (int or tuple of ints) into a validated entropy tuple."""
    if isinstance(entropy, (int, np.integer)):
        entropy = (int(entropy),)
    try:
        out = tuple(int(e) for e in entropy)
    except (TypeError, ValueError):
        raise ParamRange(f"seed entropy must be an int or a sequence of ints, got {entropy!r}")
    if not out:
        raise ParamRange("seed entropy must not be empty")
    if any(not 0 <= e <= MAX_SEED for e in out):
        raise ParamRange(f"seed entropy values must lie in [0, {MAX_SEED}], got {out}")
    return out


def generator(entropy: Sequence[int]) -> np.random.Generator:
    """Philox generator keyed by the given entropy tuple."""
    words = [e + 1 for e in normalize_entropy(entropy)]
    seq = np.random.SeedSequence(words)
    return np.random.Generator(np.random.Philox(seq))


def standard_normals(count: int, entropy: Sequence[int]) -> np.ndarray:
    """Draw ``count`` i.i.d. standard normals from the named stream.

    The stream position is a pure function of ``entropy``; two calls with the
    same arguments return bit-identical arrays.
    """
    return normal_rows(generator(entropy), 1, count)[0]


def normal_rows(gen: np.random.Generator, rows: int, count: int) -> np.ndarray:
    """The next ``(rows, count)`` block of standard normals from ``gen``, row by row.

    Each row maps its own ``count + (count & 1)`` uniforms through Box-Muller
    and drops the surplus of an odd ``count``, so row 0 equals
    :func:`standard_normals` and a later call continues with the next row.
    """
    if count < 0:
        raise ParamRange(f"count must be non-negative, got {count}")
    paired = count + (count & 1)
    u = gen.random((rows, paired))
    # 1 - u lies in (0, 1], so the log is finite.
    radius = np.sqrt(-2.0 * np.log1p(-u[:, 0::2]))
    theta = (2.0 * np.pi) * u[:, 1::2]
    z = np.empty((rows, paired))
    z[:, 0::2] = radius * np.cos(theta)
    z[:, 1::2] = radius * np.sin(theta)
    return z[:, :count]


def chi_squares(df, shape, gen: np.random.Generator) -> np.ndarray:
    """Array of independent chi-square(``df``) variates, the next ones from ``gen``.

    ``df`` is a scalar or an array that broadcasts to ``shape``.  Drawn in
    row-major order, so the leading rows of a larger ``shape`` equal a
    smaller request with the same trailing dimensions, and a later call
    continues with the next rows.
    """
    df = np.asarray(df, dtype=float)
    if (df < 0).any():
        raise ParamRange(f"df must be non-negative, got {df}")
    return 2.0 * gen.standard_gamma(df / 2.0, size=shape)
