#!/usr/bin/env python3
"""Hash every decoding decision on seeded words, one line per spec file.

Usage: python scripts/decode_digest.py SPEC... [--words N] [--seed S]

For each concatenated, GCC or matrix-product spec file, N seeded codewords
are corrupted with 0..d* random symbol errors (so about half land beyond
d*/2) and decoded in the upto and beyond modes:

- concatenated specs with and without carry-over, each with no erasures and
  with random per-row erasures, and, when the inner code is small enough to
  enumerate, errors-only at the extended radius t+1 of the inner code (rows
  the inner decoder rejects go to oracle_radius);
- GCC and matrix-product specs through gcc_decode_basic and
  gcc_decode_improved, plus decode_uuv and decode_uuv_naive or decode_uvw,
  with their counters, when the spec's matrix is one they accept.

Each decode gives a record: the report, or the failure's message, level and
report.  The line is "name decodes sha256", the hash taken over the
canonical JSON of every record in order, so two versions of the library
that print the same line made the same decisions.  Other JSON files (a
single code, or the matrix and the simulation config that
make_demo_specs.py writes) are skipped with a note on stderr.
"""

import argparse
import hashlib
import json
import pathlib
import random
import sys

import gccodec as g
from gccodec import specio
from gccodec.block_codes import ENUMERATION_CAP
from gccodec.experiment import construction

MODES = ("upto", "beyond")


def _record(decode):
    """A JSON-able record of one decode call's result or failure."""
    try:
        out = decode()
    except g.DecodeFailure as exc:
        report = None if exc.report is None else exc.report.to_json()
        return {"failure": str(exc), "level": exc.level, "report": report}
    if isinstance(out, g.DecodeReport):
        return out.to_json()
    return out


def _uuv_decoders(spec):
    """The hand-rolled decoders that accept spec's matrix, by name."""
    found = {}
    if isinstance(spec, g.MpcSpec):
        zero = tuple(tuple(0 for _ in range(spec.n)) for _ in range(spec.m))
        for name in ("decode_uuv", "decode_uuv_naive", "decode_uvw"):
            try:
                getattr(g, name)(spec, zero)
            except g.InvalidParams:
                continue
            found[name] = getattr(g, name)
    return found


def _calls(spec, received, pattern):
    """(label, thunk) for every decode of one received word."""
    if isinstance(spec, g.ConcatCode):
        for mode in MODES:
            for carry in (False, True):
                for erasures in (None, pattern):
                    options = g.DecodeOptions(mode=mode, carry_over=carry)
                    yield "cc", lambda o=options, e=erasures: g.cc_decode(spec, received, e, o)[1]
            if spec.inner.num_codewords() <= ENUMERATION_CAP:
                options = g.DecodeOptions(mode=mode, radius=(spec.inner.distance() - 1) // 2 + 1)
                yield "cc-radius", lambda o=options: g.cc_decode(spec, received, None, o)[1]
        return
    for mode in MODES:
        options = g.DecodeOptions(mode=mode)
        yield "basic", lambda o=options: g.gcc_decode_basic(spec, received, o)
        yield "improved", lambda o=options: g.gcc_decode_improved(spec, received, o)
    for name, decoder in _uuv_decoders(spec).items():

        def hand_rolled(decoder=decoder):
            counter = {}
            words = decoder(spec, received, counter)
            return {"codewords": [list(w) for w in words], "counter": counter}

        yield name, hand_rolled


def digest(spec, words: int, seed: int):
    """(decodes, sha256 hex) over words seeded words of spec."""
    c = construction(spec)
    d_star = c.info()["d_star"]
    f = c.field
    rng = random.Random(seed)
    h = hashlib.sha256()
    count = 0
    for _ in range(words):
        msgs = [tuple(rng.randrange(a.field.q) for _ in range(a.k)) for a in c.outers]
        rows = [list(r) for r in c.encode(msgs)]
        for p in rng.sample(range(c.m * c.n), rng.randint(0, d_star)):
            i, j = divmod(p, c.n)
            rows[i][j] = f.add(rows[i][j], rng.randrange(1, f.q))
        received = tuple(tuple(r) for r in rows)
        pattern = tuple(
            frozenset(j for j in range(c.n) if rng.random() < 0.05) for _ in range(c.m)
        )
        for label, call in _calls(spec, received, pattern):
            record = {"decoder": label, "out": _record(call)}
            h.update(json.dumps(record, sort_keys=True).encode() + b"\n")
            count += 1
    return count, h.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("specs", nargs="+", metavar="SPEC", help="spec JSON files")
    parser.add_argument("--words", type=int, default=300, help="words per spec (default 300)")
    parser.add_argument("--seed", type=int, default=1, help="word seed (default 1)")
    args = parser.parse_args()
    for path in args.specs:
        name = pathlib.Path(path).name
        try:
            count, hexdigest = digest(specio.load_spec_file(path), args.words, args.seed)
        except g.ConfigError as exc:
            # make_demo_specs.py writes a matrix and a simulation config beside the specs
            print(f"{name}: skipped, not a construction spec ({exc})", file=sys.stderr)
            continue
        print(name, count, hexdigest)


if __name__ == "__main__":
    main()
