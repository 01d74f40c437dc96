"""JSON (de)serialization of field, code and construction specs.

Field: {"p": int, "m": int, "modulus": [int, ...]} with an optional "base"
entry when the field is an extension of a non-prime field (m and the
modulus coefficients are then relative to the base).  Elements serialize as
integers in [0, q) (base-p digit packing, little-endian coefficients).

Codes: {"kind": "rs" | "generic", "field": ..., "n": ..., "k": ...,
"generator": [[...]] (generic only), "d": int | null}; "rs" marks a code whose
generator is rs_code's (block_codes.rs_generator), whichever decoder it has,
unless it declares a distance other than n - k + 1.  Only this module knows
the kinds.

Constructions: concatenated {"outer": code, "inner": code, "s": int};
generalized {"outers": [code...], "s": [int...], "inner_generator": [[...]],
"field": ...}; matrix-product {"outers": [code...], "B": [[...]],
"field": ...}.  Words and matrices travel as row-major integer sequences.

Simulation configs: {"spec": file name or spec, "channel": {"error_rate",
"erasure_rate", "seed"}, "trials": int, "decoder": {"mode", "carry_over",
"radius"}, "output": file name, "threads": 1}.
NSC checks: {"field": ..., "matrix": [[...]], "outer_distances": [int...]}.
A non-object where an object belongs, a missing entry, an unknown code kind,
an "rs" d other than n - k + 1 or an outer distance below 1 is a ConfigError.
"""

from __future__ import annotations

import json
import operator

from .block_codes import LinearCode, generic_code, rs_code, rs_generator
from .channel import ChannelModel
from .concat import ConcatCode, DecodeOptions
from .errors import ConfigError
from .experiment import ExperimentConfig
from .galois import Field, extend_field, make_field
from .gcc import GccSpec, gcc_spec
from .mpc import MpcSpec, mpc_spec

# what a non-integer spec field is reported as
FIELD_PARAMS = "field parameters p and m"
CODE_PARAMS = "code parameters n and k"
WIDTHS = "expansion degrees s"
DISTANCES = "distances d and subcode_distances"
RUN_PARAMS = "trials, radius and threads"


def field_to_json(f: Field) -> dict:
    out = {"p": f.p, "m": f.degree, "modulus": list(f.modulus)}
    if f.base is not None and f.base.base is not None:
        out["base"] = field_to_json(f.base)
    return out


def field_from_json(d: dict) -> Field:
    m, modulus, base = _entries(d, "a field", "m", modulus="auto", base=None)
    m = _integer(m, FIELD_PARAMS)
    if base is not None:
        return extend_field(field_from_json(base), m, modulus)
    (p,) = _entries(d, "a field", "p")
    return make_field(_integer(p, FIELD_PARAMS), m, modulus)


def code_to_json(code: LinearCode) -> dict:
    f, n, k, d = code.field, code.n, code.k, code.declared_distance()
    rs = d in (None, n - k + 1) and n <= f.q and code.generator == rs_generator(f, n, k)
    out = {"kind": "rs" if rs else "generic", "field": field_to_json(f), "n": n, "k": k, "d": d}
    if not rs:
        out["generator"] = [list(row) for row in code.generator]
    return out


def code_from_json(d: dict) -> LinearCode:
    field, kind, declared = _entries(d, "a code", "field", kind="generic", d=None)
    field = field_from_json(field)
    declared = _optional_integer(declared, DISTANCES)
    if kind == "rs":
        n, k = _entries(d, "a code", "n", "k")
        code = rs_code(field, _integer(n, CODE_PARAMS), _integer(k, CODE_PARAMS))
        if declared not in (None, code.distance()):
            raise ConfigError(f"rs code [{code.n},{code.k}] has d={code.distance()}, not {declared}")
        return code
    if kind != "generic":
        raise ConfigError(f"unknown code kind {kind!r}: expected 'rs' or 'generic'")
    (generator,) = _entries(d, "a code", "generator")
    return generic_code(field, _matrix(generator, "generator"), d=declared)


def concat_to_json(cc: ConcatCode) -> dict:
    return {
        "outer": code_to_json(cc.outer),
        "inner": code_to_json(cc.inner),
        "s": cc.tower.s,
    }


def concat_from_json(d: dict) -> ConcatCode:
    outer, inner, s = _entries(d, "a concatenated spec", "outer", "inner", "s")
    cc = ConcatCode(code_from_json(outer), code_from_json(inner))
    s = _integer(s, WIDTHS)
    if cc.tower.s != s:
        raise ConfigError(f"expansion degree mismatch: spec says {s}, fields give {cc.tower.s}")
    return cc


def gcc_to_json(spec: GccSpec) -> dict:
    return {
        "outers": [code_to_json(a) for a in spec.outers],
        "s": list(spec.widths),
        "inner_generator": [list(row) for row in spec.inner_generator],
        "field": field_to_json(spec.field),
        "subcode_distances": [sub.distance() for sub in spec.subcodes],
    }


def gcc_from_json(d: dict) -> GccSpec:
    field, outers, widths, generator, dists = _entries(
        d, "a GCC spec", "field", "outers", "s", "inner_generator", subcode_distances=None
    )
    widths = [_integer(s, WIDTHS) for s in _sequence(widths, WIDTHS)]
    if dists is not None:
        dists = [_optional_integer(x, DISTANCES) for x in _sequence(dists, DISTANCES)]
    generator = _matrix(generator, "inner_generator")
    return gcc_spec(_codes(outers), widths, generator, field_from_json(field), dists)


def mpc_to_json(spec: MpcSpec) -> dict:
    return {
        "outers": [code_to_json(a) for a in spec.outers],
        "B": [list(row) for row in spec.matrix],
        "field": field_to_json(spec.field),
    }


def mpc_from_json(d: dict) -> MpcSpec:
    field, outers, matrix = _entries(d, "a matrix-product spec", "field", "outers", "B")
    return mpc_spec(_codes(outers), _matrix(matrix, "B"), field_from_json(field))


def _codes(data) -> list:
    return [code_from_json(a) for a in _sequence(data, "outers")]


def load_spec(d: dict):
    """Dispatch a spec dict to its constructor by shape."""
    _entries(d, "a spec")
    if "outer" in d and "inner" in d:
        return concat_from_json(d)
    if "B" in d:
        return mpc_from_json(d)
    if "inner_generator" in d:
        return gcc_from_json(d)
    if "kind" in d:
        return code_from_json(d)
    raise ConfigError("unrecognized spec layout")


def load_spec_file(path):
    with open(path) as fh:
        return load_spec(json.load(fh))


def experiment_from_json(d: dict) -> ExperimentConfig:
    """A simulation config; non-integer counts, non-numeric rates and a
    non-boolean carry_over raise ConfigError instead of coercing."""
    spec, channel, trials, decoder, output, threads = _entries(
        d, "a simulation config", "spec", "channel", "trials", decoder={}, output=None, threads=None
    )
    spec = load_spec_file(spec) if isinstance(spec, str) else load_spec(spec)
    mode, carry_over, radius = _entries(
        decoder, "decoder", mode="upto", carry_over=False, radius=None
    )
    if not isinstance(carry_over, bool):
        raise ConfigError(f"carry_over must be true or false, got {carry_over!r}")
    channel = ChannelModel(*_entries(channel, "channel", "error_rate", erasure_rate=0.0, seed=0))
    return ExperimentConfig(
        spec=spec,
        channel=channel,
        trials=_integer(trials, RUN_PARAMS),
        options=DecodeOptions(mode, carry_over, _optional_integer(radius, RUN_PARAMS)),
        output=output,
        threads=_optional_integer(threads, RUN_PARAMS),
    )


def nsc_check_from_json(d: dict) -> tuple:
    """(field, matrix, outer distances or None) of an NSC-check file."""
    field, rows, dists = _entries(d, "an nsc-check file", "field", "matrix", outer_distances=None)
    field = field_from_json(field)
    matrix = [field.vector(row) for row in _matrix(rows, "a matrix")]
    if not matrix or any(len(row) != len(matrix[0]) for row in matrix):
        raise ConfigError("the matrix must be a non-empty list of rows of one length")
    if dists is not None:
        dists = [_integer(x, DISTANCES) for x in _sequence(dists, DISTANCES)]
        if len(dists) != len(matrix):
            raise ConfigError(f"outer_distances must have one entry per matrix row: {dists}")
        if min(dists) < 1:
            raise ConfigError(f"outer_distances must be at least 1: {dists}")
    return field, matrix, dists


def matrix_to_json(matrix) -> list:
    return [int(x) for row in matrix for x in row]


def _integer(x, what):
    """x as an int; bool, float and str raise ConfigError instead of coercing."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise ConfigError(f"{what} must be integers, got {x!r}")


def _entries(obj, what, *keys, **defaults) -> list:
    """The values of keys, then of the keys of defaults (the default where
    absent), in obj read as `what`; a non-object obj, or a missing entry
    that has no default, raises ConfigError naming it."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object, got {obj!r}")
    for key in keys:
        if key not in obj:
            raise ConfigError(f"{what} lacks the entry {key!r}")
    return [obj[key] for key in keys] + [obj.get(key, v) for key, v in defaults.items()]


def _optional_integer(x, what):
    return None if x is None else _integer(x, what)


def _sequence(data, what):
    if not isinstance(data, (list, tuple)):
        raise ConfigError(f"{what} must be a list, got {data!r}")
    return data


def _matrix(data, what) -> list:
    """data as a list of rows that are lists, else ConfigError."""
    return [_sequence(row, f"a row of {what}") for row in _sequence(data, what)]


def matrix_from_json(data, m: int, n: int) -> tuple:
    """An m x n word from a flat row-major list or a list of rows."""
    data = _sequence(data, "a word")
    if data and isinstance(data[0], (list, tuple)):
        rows = [_sequence(r, "a word row") for r in data]
        if len(rows) != m or any(len(r) != n for r in rows):
            raise ConfigError(f"expected a {m} x {n} matrix")
    else:
        if len(data) != m * n:
            raise ConfigError(f"expected {m * n} symbols, got {len(data)}")
        rows = [data[i * n : (i + 1) * n] for i in range(m)]
    return tuple(tuple(_integer(x, "word symbols") for x in r) for r in rows)


def pattern_from_json(data, m: int):
    if len(_sequence(data, "an erasure pattern")) != m:
        raise ConfigError(f"erasure pattern must have {m} rows")
    return tuple(
        frozenset(_integer(i, "erasure indices") for i in _sequence(row, "an erasure row"))
        for row in data
    )
