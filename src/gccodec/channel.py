"""q-ary symmetric channel with erasures, deterministically seeded.

The generator is numpy's PCG64, documented and reproducible across
platforms; trial t of an experiment uses PCG64(seed + t), so any trial can
be replayed in isolation.  Symbols are visited in row-major order; each is
erased with probability erasure_rate (its value is transmitted as 0 and the
position recorded, decoders never read erased values) and otherwise flipped
to a uniformly random different symbol with probability error_rate.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class ChannelModel:
    error_rate: float
    erasure_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        """Rates must be int or float and the seed a non-negative integer
        (operator.index); bool, str and float seeds raise ConfigError
        instead of being coerced."""
        for rate in (self.error_rate, self.erasure_rate):
            if isinstance(rate, bool) or not isinstance(rate, (int, float)):
                raise ConfigError(f"channel rates must be numbers, got {rate!r}")
        try:
            seed = None if isinstance(self.seed, bool) else operator.index(self.seed)
        except TypeError:
            seed = None
        if seed is None or seed < 0:
            raise ConfigError(f"the channel seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "seed", seed)
        if not 0 <= self.error_rate <= 1 or not 0 <= self.erasure_rate <= 1:
            raise ConfigError("rates must lie in [0, 1]")
        if self.error_rate + self.erasure_rate > 1:
            raise ConfigError("error_rate + erasure_rate must not exceed 1")


def trial_rng(channel: ChannelModel, trial: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(channel.seed + trial))


def apply_channel(word, field, channel: ChannelModel, rng=None, trial: int = 0):
    """Corrupt a codeword matrix (or flat vector).

    Returns (received, erasure pattern, error matrix): the pattern is a
    tuple of per-row frozensets (a single frozenset for vectors) and the
    error matrix is zero at erased positions.
    """
    if rng is None:
        rng = trial_rng(channel, trial)
    flat = word and isinstance(word[0], int)
    rows = (word,) if flat else tuple(tuple(r) for r in word)
    q = field.q
    out_rows, patterns, err_rows = [], [], []
    for row in rows:
        received, erased, errs = [], set(), []
        for j, sym in enumerate(row):
            u = rng.random()
            if u < channel.erasure_rate:
                erased.add(j)
                received.append(0)
                errs.append(0)
            elif u < channel.erasure_rate + channel.error_rate:
                delta = int(rng.integers(1, q))
                received.append(field.add(sym, delta))
                errs.append(delta)
            else:
                received.append(sym)
                errs.append(0)
        out_rows.append(tuple(received))
        patterns.append(frozenset(erased))
        err_rows.append(tuple(errs))
    if flat:
        return out_rows[0], patterns[0], err_rows[0]
    return tuple(out_rows), tuple(patterns), tuple(err_rows)
