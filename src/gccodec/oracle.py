"""Brute-force reference decoders.

These enumerate every codeword and are the ground truth of the test suite,
and of the selftest's one round trip per decoder family on an installed
package: generic codes decode by syndrome (block_codes.SyndromeDecoder),
RS codes by the same table or, above its budget, by their algebraic
decoder, codes with few codewords by vote (block_codes.CodebookDecoder),
and all are checked against oracle_sigma.
ExhaustiveDecoder, oracle_sigma's scan, is the decoder of a low-rate
generic code only, one with too many error patterns inside its radius for
a syndrome table and too many codewords for the vote's tables, but few
enough to enumerate.  oracle_sigma additionally checks the uniqueness
of the bound-satisfying codeword during the scan (ContractViolation).
Every oracle checks its word as ee_decode does (block_codes.check_symbols).
"""

from __future__ import annotations

from .block_codes import (
    ENUMERATION_CAP,
    FAILURE,
    DecodeOutcome,
    LinearCode,
    check_erasures,
    check_symbols,
)
from .errors import ContractViolation, TooLargeToEnumerate, integer


def _enumerable(code: LinearCode):
    if code.num_codewords() > ENUMERATION_CAP:
        raise TooLargeToEnumerate(f"{code.num_codewords()} codewords exceeds enumeration cap {ENUMERATION_CAP}")


def _word(code: LinearCode, word) -> tuple:
    """word as a tuple of n field elements, once code is enumerable."""
    _enumerable(code)
    return check_symbols(code.field, word, code.n)


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
    radius = integer(radius, "radius must be an integer >= 0", least=0)
    word = _word(code, word)
    hit = None
    for c, dist in _scan(code, word, range(code.n)):
        if dist <= radius:
            if hit is not None:
                return FAILURE
            hit = c, dist
    return FAILURE if hit is None else _outcome(code, word, *hit)


class ExhaustiveDecoder:
    """EE decoder that scans every codeword (oracle_sigma): generic_code
    attaches it to a code whose error patterns inside its radius exceed
    block_codes.ENUMERATION_CAP and whose vote tables exceed
    block_codes.VOTE_CAP, while its codewords do not exceed
    ENUMERATION_CAP."""

    def __init__(self, code: LinearCode):
        _enumerable(code)
        self.code = code

    def __call__(self, word, erasures) -> DecodeOutcome:
        return oracle_sigma(self.code, word, erasures)
