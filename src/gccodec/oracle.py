"""Brute-force reference decoders.

These enumerate every codeword and serve two roles: ground truth in the
test suite, and the working decoder for small generic codes (the nested
subcodes of a layered construction are tiny at the scales this package
targets).  oracle_sigma additionally checks the uniqueness of the
bound-satisfying codeword during the scan (ContractViolation).
"""

from __future__ import annotations

import itertools

from . import linalg
from .block_codes import ENUMERATION_CAP, FAILURE, DecodeOutcome, LinearCode, check_erasures
from .errors import ContractViolation, InvalidParams, LengthMismatch, TooLargeToEnumerate


def _enumerable(code: LinearCode):
    if code.num_codewords() > ENUMERATION_CAP:
        raise TooLargeToEnumerate(f"{code.num_codewords()} codewords exceeds enumeration cap {ENUMERATION_CAP}")


def _word(code: LinearCode, word) -> tuple:
    """word as a tuple, once code is enumerable and word has length n."""
    _enumerable(code)
    word = tuple(word)
    if len(word) != code.n:
        raise LengthMismatch(f"word length {len(word)} != n={code.n}")
    return word


def _scan(code: LinearCode, word, keep):
    """(c, number of positions in keep where word and c differ) for every
    codeword c, in enumeration order."""
    for c in code.codewords():
        yield c, sum(1 for i in keep if word[i] != c[i])


def _outcome(code: LinearCode, word, c, w) -> DecodeOutcome:
    """c decoded from word, with the apparent error word - c of weight w."""
    f = code.field
    return DecodeOutcome(c, tuple(f.sub(a, b) for a, b in zip(word, c)), w)


def oracle_sigma(code: LinearCode, word, erasures=frozenset()) -> DecodeOutcome:
    """Unique codeword with 2*wt_E(word - c) + |E| < d, or failure."""
    word = _word(code, word)
    erasures = check_erasures(erasures, code.n)
    d = code.distance()
    if len(erasures) >= d:
        return FAILURE
    keep = [i for i in range(code.n) if i not in erasures]
    hit = None
    for c, w in _scan(code, word, keep):
        if 2 * w + len(erasures) < d:
            if hit is not None:
                raise ContractViolation("two codewords inside the error-and-erasure bound")
            hit = c, w
    return FAILURE if hit is None else _outcome(code, word, *hit)


def oracle_nearest(code: LinearCode, word):
    """All Hamming-nearest codewords and their common distance."""
    word = _word(code, word)
    best = code.n + 1
    ties = []
    for c, dist in _scan(code, word, range(code.n)):
        if dist < best:
            best = dist
            ties = [c]
        elif dist == best:
            ties.append(c)
    return tuple(ties), best


def oracle_radius(code: LinearCode, word, radius: int) -> DecodeOutcome:
    """Unique codeword within Hamming distance radius; ambiguity is failure."""
    if radius < 0:
        raise InvalidParams("radius must be nonnegative")
    word = _word(code, word)
    hit = None
    for c, dist in _scan(code, word, range(code.n)):
        if dist <= radius:
            if hit is not None:
                return FAILURE
            hit = c, dist
    return FAILURE if hit is None else _outcome(code, word, *hit)


class ExhaustiveDecoder:
    """EE decoder backed by oracle_sigma, with a cached errors-only table.

    For codes with at most linalg.TABLE_CAP possible received words the full
    errors-only decode map is materialized once, which makes per-row decoding
    in the layered decoders a dictionary lookup.
    """

    def __init__(self, code: LinearCode):
        _enumerable(code)
        self.code = code
        self._table = None

    def _build_table(self):
        code = self.code
        words = itertools.product(range(code.field.q), repeat=code.n)
        self._table = {w: oracle_sigma(code, w) for w in words}

    def __call__(self, word, erasures) -> DecodeOutcome:
        if not erasures:
            if self._table is None and self.code.field.q**self.code.n <= linalg.TABLE_CAP:
                self._build_table()
            if self._table is not None:
                return self._table[tuple(word)]
        return oracle_sigma(self.code, word, erasures)
