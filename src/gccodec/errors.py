"""Exception types shared across the package, and the one rule that reads
an integer handed in from outside (index, integer).

Every module of the package imports this one, galois included, which
imports no other.
"""

import operator


class CodecError(Exception):
    """Base class for all library errors."""


class NotPrime(CodecError):
    pass


class ReducibleModulus(CodecError):
    pass


class FieldMismatch(CodecError):
    pass


class LengthMismatch(CodecError):
    pass


class InvalidParams(CodecError):
    pass


class ErasureIndexError(InvalidParams, IndexError):
    """An erasure position outside 0..n-1."""


class TooLargeToEnumerate(CodecError):
    pass


class UnknownDistance(CodecError):
    pass


class NoDecoder(CodecError):
    pass


class ShapeError(CodecError):
    pass


class ConfigError(CodecError):
    pass


class ContractViolation(CodecError):
    """A decoder broke one of its own guarantees (trial, distance or subcode bounds)."""


class DecodeFailure(CodecError):
    """A multistage decoder gave up; carries the partial report when available."""

    def __init__(self, message, report=None, level=None):
        super().__init__(message)
        self.report = report
        self.level = level


def index(x) -> int:
    """x as an int, as operator.index reads it, so numpy integers pass;
    a bool raises TypeError (True is not read as 1), as does a float, a
    str or any other non-integer."""
    if isinstance(x, bool):
        raise TypeError(f"{x!r} is not an index")
    return operator.index(x)


def integer(x, what: str, error=InvalidParams, *, least=None) -> int:
    """x read by index(), and at least least when that is given; anything
    else raises error, a CodecError subclass, in the caller's wording:
    f"{what}, got {x!r}", what being the rule, such as "n must be an
    integer"."""
    try:
        i = index(x)
        if least is None or i >= least:
            return i
    except TypeError:
        pass
    raise error(f"{what}, got {x!r}")
