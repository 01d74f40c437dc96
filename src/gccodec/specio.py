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
"field": ...}, each s an outer field's degree over the inner one (else a
ConfigError); matrix-product {"outers": [code...], "B": [[...]],
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

from .block_codes import LinearCode, generic_code, rs_code, rs_generator
from .channel import ChannelModel
from .concat import ConcatCode, DecodeOptions
from .errors import ConfigError, integer
from .experiment import ExperimentConfig
from .galois import Field, extend_field, make_field
from .gcc import GccSpec, gcc_spec
from .mpc import MpcSpec, mpc_spec

# the rule a spec's integers are read by (errors.integer, ConfigError)
FIELD_PARAMS = "field parameters p and m must be integers"
CODE_PARAMS = "code parameters n and k must be integers"
WIDTHS = "expansion degrees s must be integers"
DISTANCES = "distances d and subcode_distances must be integers"
WORD = "word symbols must be integers"
ERASURES = "erasure indices must be integers"


def field_to_json(f: Field) -> dict:
    out = {"p": f.p, "m": f.degree, "modulus": list(f.modulus)}
    if f.base is not None and f.base.base is not None:
        out["base"] = field_to_json(f.base)
    return out


def field_from_json(d: dict) -> Field:
    m, modulus, base = _entries(d, "a field", "m", modulus="auto", base=None)
    m = integer(m, FIELD_PARAMS, ConfigError)
    if base is not None:
        return extend_field(field_from_json(base), m, modulus)
    (p,) = _entries(d, "a field", "p")
    return make_field(integer(p, FIELD_PARAMS, ConfigError), m, modulus)


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
    declared = None if declared is None else integer(declared, DISTANCES, ConfigError)
    if kind == "rs":
        n, k = _entries(d, "a code", "n", "k")
        code = rs_code(field, integer(n, CODE_PARAMS, ConfigError), integer(k, CODE_PARAMS, ConfigError))
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
    s = integer(s, WIDTHS, ConfigError)
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
    widths = tuple(integer(s, WIDTHS, ConfigError) for s in _sequence(widths, WIDTHS))
    if dists is not None:
        dists = [None if x is None else integer(x, DISTANCES, ConfigError) for x in _sequence(dists, DISTANCES)]
    generator = _matrix(generator, "inner_generator")
    spec = gcc_spec(_codes(outers), generator, field_from_json(field), dists)
    if spec.widths != widths:
        raise ConfigError(f"expansion degree mismatch: spec says {list(widths)}, fields give {list(spec.widths)}")
    return spec


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
    """A simulation config; a non-integer count or threads and non-numeric
    rates raise ConfigError instead of coercing (ExperimentConfig and
    ChannelModel read their entries), and another mode, a non-boolean
    carry_over or a non-integer radius InvalidParams (DecodeOptions)."""
    spec, channel, trials, decoder, output, threads = _entries(
        d, "a simulation config", "spec", "channel", "trials", decoder={}, output=None, threads=None
    )
    spec = load_spec_file(spec) if isinstance(spec, str) else load_spec(spec)
    mode, carry_over, radius = _entries(
        decoder, "decoder", mode="upto", carry_over=False, radius=None
    )
    channel = ChannelModel(*_entries(channel, "channel", "error_rate", erasure_rate=0.0, seed=0))
    return ExperimentConfig(
        spec=spec,
        channel=channel,
        trials=trials,
        options=DecodeOptions(mode, carry_over, radius),
        output=output,
        threads=None if threads is None else integer(threads, "threads must be an integer", ConfigError),
    )


def nsc_check_from_json(d: dict) -> tuple:
    """(field, matrix, outer distances or None) of an NSC-check file."""
    field, rows, dists = _entries(d, "an nsc-check file", "field", "matrix", outer_distances=None)
    field = field_from_json(field)
    matrix = field.matrix(_matrix(rows, "a matrix"))
    if not matrix:
        raise ConfigError("the matrix must be a non-empty list of rows")
    if dists is not None:
        dists = [integer(x, DISTANCES, ConfigError) for x in _sequence(dists, DISTANCES)]
        if len(dists) != len(matrix):
            raise ConfigError(f"outer_distances must have one entry per matrix row: {dists}")
        if min(dists) < 1:
            raise ConfigError(f"outer_distances must be at least 1: {dists}")
    return field, matrix, dists


def matrix_to_json(matrix) -> list:
    return [int(x) for row in matrix for x in row]


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
    return tuple(tuple(integer(x, WORD, ConfigError) for x in r) for r in rows)


def pattern_from_json(data, m: int):
    if len(_sequence(data, "an erasure pattern")) != m:
        raise ConfigError(f"erasure pattern must have {m} rows")
    return tuple(
        frozenset(integer(i, ERASURES, ConfigError) for i in _sequence(row, "an erasure row"))
        for row in data
    )
