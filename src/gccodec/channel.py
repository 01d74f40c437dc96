"""q-ary symmetric channel with erasures, deterministically seeded.

The generator is numpy's PCG64, documented and reproducible across
platforms; trial t of an experiment uses PCG64(seed + t), so any trial can
be replayed in isolation.  Symbols are visited in row-major order; each is
erased with probability erasure_rate (its value is transmitted as 0 and the
position recorded, decoders never read erased values) and otherwise flipped
to a uniformly random different symbol with probability error_rate.

The stream is PCG64's raw 64-bit outputs, read the way numpy's
Generator.random() and scalar Generator.integers(lo, hi) read them: a draw
u is the top 53 bits of one output, an error value is numpy's Lemire
rejection on 32-bit halves (low half first, the high half kept for the next
draw).  RawStream reads them in blocks, bit for bit what the per-symbol
numpy calls give.
"""

from __future__ import annotations

import math
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


class RawStream:
    """Generator.random() and scalar Generator.integers(lo, hi), bit for
    bit, read from blocks of a bit generator's raw outputs.

    integers() runs numpy's Lemire rejection on 32-bit halves when
    hi - lo < 2^32, takes one plain half when hi - lo = 2^32, and runs
    Lemire on whole outputs for larger ranges; a range of one draws
    nothing.  A stream never reads ahead: reserve(n) fetches only the
    shortfall of n outputs the caller will surely read, and a draw that
    finds the block empty fetches one (apply_channel, which reads the block
    in place, fetches one per symbol still to come).  So the bit
    generator's position is always exact.  The buffered high half lives in
    the stream; release() writes it back to a borrowed generator.
    """

    def __init__(self, bit_generator, has_uint32=0, uinteger=0):
        self.bit_generator = bit_generator
        self._block = []  # fetched outputs, the next one last
        self._has, self._half = has_uint32, uinteger
        self._lent = None  # (has_uint32, uinteger) as borrowed from a Generator

    @classmethod
    def borrow(cls, generator):
        """A stream that continues a numpy Generator, buffered half included."""
        state = generator.bit_generator.state
        stream = cls(generator.bit_generator, state["has_uint32"], state["uinteger"])
        stream._lent = (stream._has, stream._half)
        return stream

    def release(self):
        """Hand the buffered half back to the borrowed generator, if it changed."""
        if self._lent is not None and self._lent != (self._has, self._half):
            state = self.bit_generator.state
            state["has_uint32"], state["uinteger"] = self._lent = (self._has, self._half)
            self.bit_generator.state = state

    def reserve(self, n):
        """Buffer n outputs, fetching only what the block lacks."""
        short = n - len(self._block)
        if short > 0:
            fresh = self.bit_generator.random_raw(short).tolist()
            fresh.reverse()
            self._block[:0] = fresh

    def _next(self):
        if not self._block:
            self.reserve(1)
        return self._block.pop()

    def _uint32(self):
        if self._has:
            self._has = 0
            return self._half
        raw = self._next()
        self._has, self._half = 1, raw >> 32
        return raw & 0xFFFFFFFF

    def random(self):
        """Generator.random(): the top 53 bits of one output, in [0, 1)."""
        return (self._next() >> 11) * 2.0**-53

    def integers(self, lo, hi):
        """Generator.integers(lo, hi) for one int: uniform on [lo, hi)."""
        span = hi - lo
        if 1 < span < 1 << 32:
            m = self._uint32() * span
            if m & 0xFFFFFFFF < span:
                m = _lemire(m, span, 32, self._uint32)
            return lo + (m >> 32)
        if span == 1:
            return lo
        if span == 1 << 32:
            return lo + self._uint32()
        return lo + (_lemire(self._next() * span, span, 64, self._next) >> 64)


def _lemire(m, span, bits, draw):
    """Lemire's rejection: redraw m = draw() * span while its low bits
    fall below 2^bits mod span; the draw is then m >> bits."""
    threshold = (1 << bits) % span
    while m & ((1 << bits) - 1) < threshold:
        m = draw() * span
    return m


def _below(rate) -> int:
    """The raw outputs whose random() is below rate are those below this:
    (raw >> 11) * 2^-53 < rate  <=>  raw >> 11 < rate * 2^53, exactly."""
    return math.ceil(rate * 2.0**53) << 11


def trial_rng(channel: ChannelModel, trial: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(channel.seed + trial))


def trial_stream(channel: ChannelModel, trial: int = 0) -> RawStream:
    """The stream of trial_rng(channel, trial): a fresh PCG64, no half buffered."""
    return RawStream(np.random.PCG64(channel.seed + trial))


def apply_channel(word, field, channel: ChannelModel, rng=None, trial: int = 0):
    """Corrupt a codeword matrix (or flat vector).

    Returns (received, erasure pattern, error matrix): the pattern is a
    tuple of per-row frozensets (a single frozenset for vectors) and the
    error matrix is zero at erased positions.  rng is a numpy Generator,
    which the channel continues as its own scalar calls would, or a
    RawStream; by default the stream of trial_stream(channel, trial).
    """
    if rng is None:
        stream = trial_stream(channel, trial)
    else:
        stream = rng if isinstance(rng, RawStream) else RawStream.borrow(rng)
    flat = word and isinstance(word[0], int)
    rows = (word,) if flat else tuple(tuple(r) for r in word)
    q = field.q
    erase = _below(channel.erasure_rate)
    flip = _below(channel.erasure_rate + channel.error_rate)
    block, out_rows, patterns, err_rows = stream._block, [], [], []
    left = sum(map(len, rows))  # symbols to come, one output each
    try:
        for row in rows:
            received, erased, errs = [], set(), []
            for j, sym in enumerate(row):
                if not block:
                    stream.reserve(left - j)
                raw = block.pop()  # this symbol's random()
                if raw < erase:
                    erased.add(j)
                    received.append(0)
                    errs.append(0)
                elif raw < flip:
                    delta = stream.integers(1, q)
                    received.append(field.add(sym, delta))
                    errs.append(delta)
                else:
                    received.append(sym)
                    errs.append(0)
            left -= len(row)
            out_rows.append(tuple(received))
            patterns.append(frozenset(erased))
            err_rows.append(tuple(errs))
    finally:
        stream.release()
    if flat:
        return out_rows[0], patterns[0], err_rows[0]
    return tuple(out_rows), tuple(patterns), tuple(err_rows)
