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
draw).  RawStream reads them in blocks, and in batches, bit for bit what
the per-draw numpy calls give: integers_many() forms a run of draws in one
pass over the halves, with no call per draw, and apply_channel() scans
the outputs its symbols will read for those below the flip threshold, so
only the erased and flipped symbols take a Python step.
"""

from __future__ import annotations

import functools
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, islice

import numpy as np

from .errors import ConfigError, InvalidParams

_LOW = 0xFFFFFFFF  # the low 32-bit half of an output or a Lemire product


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
        object.__setattr__(self, "seed", _index(self.seed, "the channel seed"))
        if not 0 <= self.error_rate <= 1 or not 0 <= self.erasure_rate <= 1:
            raise ConfigError("rates must lie in [0, 1]")
        if self.error_rate + self.erasure_rate > 1:
            raise ConfigError("error_rate + erasure_rate must not exceed 1")

    @functools.cached_property
    def thresholds(self) -> tuple:
        """The raw outputs below which a symbol is erased, and below which
        it is erased or flipped (see _below)."""
        return _below(self.erasure_rate), _below(self.erasure_rate + self.error_rate)


class RawStream:
    """Generator.random() and scalar Generator.integers(lo, hi), bit for
    bit, read from blocks of a bit generator's raw outputs.

    integers() runs numpy's Lemire rejection on 32-bit halves when
    hi - lo < 2^32, takes one plain half when hi - lo = 2^32, and runs
    Lemire on whole outputs for larger ranges; a range of one draws
    nothing.  A stream never reads ahead: reserve(n) fetches only the
    shortfall of n outputs the caller will surely read, and a draw that
    finds the block empty fetches one (apply_channel, which reads the block
    in place, reserves one per symbol still to come).  So the bit
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
        return raw & _LOW

    def integers_many(self, lo, hi, count):
        """count successive integers(lo, hi) draws, as a list.

        For 1 < hi - lo < 2^32 one pass reads the halves the draws take
        (the buffered one, then each output's low half and its high half)
        and forms each draw from its Lemire product inline; a draw whose
        low word falls below the span, a possible rejection, runs numpy's
        rejection loop.  Other spans draw one by one.
        """
        span = hi - lo
        if not 1 < span < 1 << 32:
            return [self.integers(lo, hi) for _ in range(count)]
        block, has, half = self._block, self._has, self._half
        need = (count - has + 1) // 2  # outputs the count draws surely read
        if len(block) < need:
            self.reserve(need)
        draws = []
        for _ in range(count):
            if has:
                has, m = 0, half * span
            else:
                raw = block.pop() if block else self._next()
                has, half, m = 1, raw >> 32, (raw & _LOW) * span
            if m & _LOW < span:
                self._has, self._half = has, half
                m = _lemire(m, span, 32, self._uint32)
                has, half = self._has, self._half
            draws.append(lo + (m >> 32))
        self._has, self._half = has, half
        return draws

    def random(self):
        """Generator.random(): the top 53 bits of one output, in [0, 1)."""
        return (self._next() >> 11) * 2.0**-53

    def integers(self, lo, hi):
        """Generator.integers(lo, hi) for one int: uniform on [lo, hi)."""
        span = hi - lo
        if 1 < span < 1 << 32:
            m = self._uint32() * span
            if m & _LOW < span:
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


def _index(value, what: str) -> int:
    """value as a non-negative int (operator.index, so numpy integers
    pass); bool, float, str and negative values raise ConfigError."""
    try:
        index = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        index = None
    if index is None or index < 0:
        raise ConfigError(f"{what} must be a non-negative integer, got {value!r}")
    return index


def trial_rng(channel: ChannelModel, trial: int = 0) -> np.random.Generator:
    """PCG64(seed + trial) as a Generator; the trial index follows the
    seed's rule (ConfigError otherwise)."""
    return np.random.Generator(np.random.PCG64(channel.seed + _index(trial, "the trial index")))


def trial_stream(channel: ChannelModel, trial: int = 0) -> RawStream:
    """The stream of trial_rng(channel, trial): a fresh PCG64, no half buffered."""
    return RawStream(np.random.PCG64(channel.seed + _index(trial, "the trial index")))


def apply_channel(word, field, channel: ChannelModel, rng=None, trial: int = 0):
    """Corrupt a codeword matrix (or flat vector).

    Returns (received, erasure pattern, error matrix): the pattern is a
    tuple of per-row frozensets (a single frozenset for vectors) and the
    error matrix is zero at erased positions.  word is a sequence of rows
    or of symbols, or an integer numpy array of either.  rng is a numpy
    Generator, which the channel continues as its own scalar calls would,
    or a RawStream; by default the stream of trial_stream(channel, trial).
    Anything else raises InvalidParams.
    """
    if rng is None:
        stream = trial_stream(channel, trial)
    elif isinstance(rng, RawStream):
        stream = rng
    elif isinstance(rng, np.random.Generator):
        stream = RawStream.borrow(rng)
    else:
        raise InvalidParams(f"rng must be a numpy Generator or a RawStream, got {rng!r}")
    if isinstance(word, np.ndarray):
        if word.dtype.kind not in "iu":
            raise InvalidParams(f"expected an integer word, got a {word.dtype} array")
        word = word.tolist()
    flat = len(word) > 0 and isinstance(word[0], (int, np.integer))
    rows = [tuple(word)] if flat else list(map(tuple, word))
    lengths = list(map(len, rows))
    total = sum(lengths)
    try:
        erased, flipped = _corrupt(total, field.q, channel.thresholds, stream)
    finally:
        stream.release()
    patterns = [frozenset()] * len(rows)
    if erased:
        ends = list(accumulate(lengths))
        cols = {}
        for s in erased:
            r = bisect_right(ends, s)
            cols.setdefault(r, []).append(s - ends[r] + lengths[r])
        for r, js in cols.items():
            patterns[r] = frozenset(js)
    if flipped:
        errors = [0] * total
        for s, delta in flipped:
            errors[s] = delta
        errors = _cut(errors, lengths)
    else:  # no error: the rows of a length share one zero row
        zeros = {n: (0,) * n for n in set(lengths)}
        errors = list(map(zeros.get, lengths))
    if erased or flipped:
        received = list(chain.from_iterable(rows))
        for s in erased:
            received[s] = 0
        for s, delta in flipped:
            received[s] = field.add(received[s], delta)
        rows = _cut(received, lengths)
    if flat:
        return rows[0], patterns[0], errors[0]
    return tuple(rows), tuple(patterns), tuple(errors)


def _cut(values, lengths) -> list:
    """A flat list cut into tuples of the given lengths."""
    n = lengths[0]
    if n and lengths.count(n) == len(lengths):
        return list(zip(*[iter(values)] * n))
    it = iter(values)
    return [tuple(islice(it, k)) for k in lengths]


def _corrupt(total, q, thresholds, stream: RawStream):
    """The erased and flipped symbols among total, read from stream.

    Symbol s reads one output for its random(); an error's value then reads
    the buffered half or the outputs after it, which shifts every later
    symbol.  So each pass reserves one output per symbol still to come,
    finds those below the flip threshold in one scan, and steps only
    through them: flagged outputs an error value has read are skipped, and
    outputs past the scanned ones are fetched by the next pass.  Returns
    the erased indices and the (index, value) pairs of the errors.
    """
    erase, flip = thresholds
    span = q - 1
    block, has, half = stream._block, stream._has, stream._half
    erased, flipped = [], []
    s = 0  # the next symbol
    while s < total:
        need = total - s
        if len(block) < need:
            stream.reserve(need)
        top = len(block)  # the output at offset i from here is block[top - 1 - i]
        flagged = [i for i, raw in enumerate(islice(reversed(block), need)) if raw < flip]
        pos = 0  # the offset of symbol s's output
        for i in flagged:
            if i < pos:
                continue  # an error value read it
            s += i - pos  # the symbols in between pass unchanged
            pos = i + 1
            if block[top - pos] < erase:
                erased.append(s)
            elif span == 1:  # GF(2): the one other symbol, with no draw
                flipped.append((s, 1))
            elif span < 1 << 32 and (has or pos < top):  # 32-bit Lemire, read here
                if has:
                    has, m = 0, half * span
                else:
                    raw = block[top - 1 - pos]
                    pos += 1
                    has, half, m = 1, raw >> 32, (raw & _LOW) * span
                if m & _LOW < span:  # a possible rejection: the scalar loop redraws
                    del block[top - pos :]
                    stream._has, stream._half = has, half
                    m = _lemire(m, span, 32, stream._uint32)
                    has, half, pos = stream._has, stream._half, top - len(block)
                flipped.append((s, 1 + (m >> 32)))
            else:  # a span past 32 bits, or an emptied block
                del block[top - pos :]  # read up to this output
                stream._has, stream._half = has, half
                flipped.append((s, stream.integers(1, q)))
                has, half, pos = stream._has, stream._half, top - len(block)
            s += 1
        if pos < need:
            s += need - pos
            pos = need
        del block[top - pos :]
    stream._has, stream._half = has, half
    return erased, flipped
