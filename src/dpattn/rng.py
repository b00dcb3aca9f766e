"""Deterministic random stream: ``philox-v6``.

Every random draw in the library flows through one named stream, so every draw is
reproducible from ``(domain tag, seed, ...)`` alone on the same numpy build; a result
that also passes through BLAS or LAPACK (a release, a bench-utility matmul) needs the
same BLAS kernel too, since kernels round differently.  The stream:

* bit generator: numpy's Philox-4x64 (a counter-based generator with a
  published fixed algorithm), keyed directly by the entropy words, with no
  seeding hash.  The entropy tuple ``(domain_tag, seed, *extra)`` has at
  most ``MAX_WORDS = 8`` values, each an integer in ``[0, MAX_SEED]``.
  Value ``i`` plus one fills the ``i``-th 32-bit slot of a 256-bit integer,
  low slot first, and a slot with no value is 0.  The low 128 bits ``K`` are the
  Philox key and the high 128 bits ``H`` the high half of the starting
  counter: the state of ``Philox(key=K, counter=H << 128)``.  The offset by
  one keeps ``(t, s)`` apart from ``(t, s, 0)``, so distinct tuples get
  distinct ``(key, counter)`` pairs, and ``MAX_SEED`` is the largest value
  whose word still fits its slot;
* normals: ``Generator.standard_normal``, numpy's ziggurat sampler;
* chi-square variates: ``2 * Generator.standard_gamma(df / 2)``, bit-equal to
  ``Generator.chisquare(df)`` and exactly zero at ``df == 0``; ``df`` may be
  an array, one degree of freedom per variate.  A number ``df`` with no
  shape draws one variate through numpy's scalar sampler, with the same
  bits as an array draw at that position.  numpy does not promise to
  keep either sampler stable across versions, so normals and chi-squares
  are reproducible only on the same numpy build.

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
  trial 0, drawn by ``m`` scalar chi-square calls in order of ``j`` and one
  call for its ``count`` normals, with the same bits as the block's row 0;
  bench-utility keys the trials of its ``i``-th ``k`` by ``(seed, i)``.

The domain tags below keep unrelated operations on disjoint streams even when
they share a user-facing seed.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .errors import ParamRange, check_integer, check_real

STREAM_VERSION = "philox-v6"
MAX_SEED = 2**32 - 2
MAX_WORDS = 8

TAG_DATASET = 1
TAG_NEIGHBOR = 2
TAG_MECHANISM = 3
TAG_PRIVACY = 4


def normalize_entropy(entropy) -> tuple[int, ...]:
    """A seed, one word or a non-empty sequence of them, as a tuple of ``int``.  Each word
    passes :func:`~dpattn.errors.check_integer` with the maximum ``MAX_SEED``, so a ``bool``,
    a float or a string raises :class:`ParamRange`."""
    try:
        words = tuple(entropy)
    except TypeError:  # not a sequence: one word
        words = (entropy,)
    if not words:
        raise ParamRange("seed entropy must not be empty")
    for word in words:
        check_integer("seed word", word, 0, MAX_SEED)
    return tuple(int(word) for word in words)


@functools.cache
def _philox_key() -> type:
    """The seed-sequence type that hands Philox a fixed key.

    Built on first use, so that importing the package does not import
    ``numpy.random``.
    """
    from numpy.random.bit_generator import ISeedSequence

    class PhiloxKey(ISeedSequence):
        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            # Philox asks for its 128-bit key as generate_state(2, np.uint64).
            return self.key

    return PhiloxKey


def generator(entropy: Sequence[int]) -> np.random.Generator:
    """Philox generator keyed directly by the given entropy tuple (see above)."""
    words = [e + 1 for e in normalize_entropy(entropy)]
    if len(words) > MAX_WORDS:
        raise ParamRange(f"seed entropy has at most {MAX_WORDS} values, got {len(words)}")
    words += [0] * (MAX_WORDS - len(words))
    key = np.array([words[0] | words[1] << 32, words[2] | words[3] << 32], dtype=np.uint64)
    bits = np.random.Philox(_philox_key()(key))
    high = words[4] | words[5] << 32 | words[6] << 64 | words[7] << 96
    if high:
        bits.advance(high << 128)
    return np.random.Generator(bits)


def standard_normals(count: int, entropy: Sequence[int]) -> np.ndarray:
    """Draw ``count`` i.i.d. standard normals from the named stream.

    The stream position is a pure function of ``entropy``; two calls with the
    same arguments return bit-identical arrays, and a shorter request is a
    prefix of a longer one.
    """
    check_integer("count", count, 0)
    return generator(entropy).standard_normal(count)


def chi_squares(df, shape, gen: np.random.Generator) -> np.ndarray | float:
    """Independent chi-square(``df``) variates, the next ones from ``gen``.

    ``df`` is a real in ``[0, inf)``, or an integer or float array of them that
    broadcasts to ``shape``.  ``shape=None`` with a number ``df`` draws one variate
    and returns it as a ``float``: numpy's scalar sampler, with the same bits as
    the first entry of a block, and without the broadcast and array checks of its
    array path.  A block is drawn in row-major order, so the leading rows of a
    larger ``shape`` equal a smaller request with the same trailing dimensions,
    and a later call continues with the next rows.
    """
    if isinstance(df, (int, float, np.number)):
        check_real("df", df, 0, math.inf, "[)")
    else:
        df = np.asarray(df)
        if df.dtype.kind not in "iuf" or not ((df >= 0) & (df < math.inf)).all():
            raise ParamRange(f"df must be a non-negative finite integer or float array, got {df!r}")
    return 2.0 * gen.standard_gamma(df / 2.0, size=shape)
