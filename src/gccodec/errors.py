"""Exception types shared across the package."""


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
