"""Deterministic random stream: ``philox-boxmuller-v1``.

Every random draw in the library flows through one named stream so that any
result is reproducible from ``(domain tag, seed, ...)`` alone, on any machine
running the same numpy build:

* bit generator: numpy's Philox (a counter-based generator with a published
  fixed algorithm), keyed through ``numpy.random.SeedSequence`` on the word
  tuple ``(domain_tag + 1, seed + 1, *(extra_i + 1))``.  Every word is offset
  by one because ``SeedSequence`` absorbs trailing zero words, which would
  alias the substream of trial 0 with its parent stream;
* uniforms: ``Generator.random()``, 53-bit doubles in ``[0, 1)``;
* normals: consecutive uniform pairs ``(u1, u2)`` mapped through the
  Box-Muller transform::

      radius = sqrt(-2 * ln(1 - u1))
      z1 = radius * cos(2 * pi * u2)
      z2 = radius * sin(2 * pi * u2)

  consumed in order; for an odd request the surplus value is dropped.

The domain tags below keep unrelated operations on disjoint streams even when
they share a user-facing seed.  Trial-level substreams append the trial index
to the entropy tuple, which makes batch results independent of execution
order.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ParamRange

STREAM_VERSION = "philox-boxmuller-v1"

TAG_DATASET = 1
TAG_NEIGHBOR = 2
TAG_MECHANISM = 3
TAG_PRIVACY = 4
TAG_BENCH = 5


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
    if any(e < 0 for e in out):
        raise ParamRange(f"seed entropy values must be non-negative, got {out}")
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
    if count < 0:
        raise ParamRange(f"count must be non-negative, got {count}")
    gen = generator(entropy)
    paired = count + (count & 1)
    u = gen.random(paired)
    # 1 - u lies in (0, 1], so the log is finite.
    radius = np.sqrt(-2.0 * np.log1p(-u[0::2]))
    theta = (2.0 * np.pi) * u[1::2]
    z = np.empty(paired)
    z[0::2] = radius * np.cos(theta)
    z[1::2] = radius * np.sin(theta)
    return z[:count]
