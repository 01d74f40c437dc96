"""Command-line interface.

Subcommands: encode, decode, simulate, nsc-check, code-info, selftest.
Exit codes: 0 success, 1 decode failure, 2 usage error, 3 invariant
violation.
"""

from __future__ import annotations

import argparse
import json
import sys

from .block_codes import LinearCode
from .concat import DecodeOptions
from .errors import CodecError, ContractViolation, DecodeFailure, TooLargeToEnumerate
from .experiment import construction, run_experiment
from .linalg import rank
from .mpc import is_nsc, is_triangular, matrix_designed_distance
from . import specio

EXIT_OK = 0
EXIT_DECODE_FAILURE = 1
EXIT_USAGE = 2
EXIT_VIOLATION = 3


def _load_json_arg(text):
    if text.startswith("@"):
        with open(text[1:]) as fh:
            return json.load(fh)
    return json.loads(text)


def _print(obj):
    print(json.dumps(obj, sort_keys=True))


def _cmd_encode(args) -> int:
    spec = specio.load_spec_file(args.spec)
    msgs = _load_json_arg(args.msg)
    if isinstance(spec, LinearCode):
        word = spec.encode(msgs)
        _print({"codeword": list(word), "shape": [spec.n]})
        return EXIT_OK
    c = construction(spec)
    _print({"codeword": specio.matrix_to_json(c.encode(msgs)), "shape": [c.m, c.n]})
    return EXIT_OK


def _decode_options(args) -> DecodeOptions:
    return DecodeOptions(
        mode=args.mode,
        carry_over=getattr(args, "carry_over", False),
        radius=args.radius,
    )


def _cmd_decode(args) -> int:
    spec = specio.load_spec_file(args.spec)
    word = _load_json_arg(args.word)
    options = _decode_options(args)
    if isinstance(spec, LinearCode):
        erasures = _load_json_arg(args.erasures) if args.erasures else ()
        out = spec.decode(word, erasures)
        if not out.ok:
            print("decoding failed", file=sys.stderr)
            return EXIT_DECODE_FAILURE
        _print({"codeword": list(out.codeword), "message": list(spec.message_of(out.codeword))})
        return EXIT_OK
    c = construction(spec)
    matrix = specio.matrix_from_json(word, c.m, c.n)
    pattern = None
    if args.erasures:
        pattern = specio.pattern_from_json(_load_json_arg(args.erasures), c.m)
    try:
        report = c.decode(matrix, pattern, options)
    except DecodeFailure as exc:
        print(f"decoding failed: {exc}", file=sys.stderr)
        if args.report and exc.report is not None:
            _print({"report": exc.report.to_json()})
        return EXIT_DECODE_FAILURE
    out = {"messages": [list(m) for m in report.messages]}
    if args.report:
        out["report"] = report.to_json()
    _print(out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    with open(args.config) as fh:
        config = specio.experiment_from_json(json.load(fh))
    stats = run_experiment(config)
    _print(stats.to_json())
    return EXIT_VIOLATION if stats.violation else EXIT_OK


def _cmd_nsc_check(args) -> int:
    with open(args.matrix) as fh:
        field, matrix, dists = specio.nsc_check_from_json(json.load(fh))
    nsc = is_nsc(field, matrix)
    triangular = is_triangular(field, matrix)
    d_star = None  # without distances, for a rank-deficient matrix, or past enumeration
    if dists and rank(field, matrix) == len(matrix):
        try:
            d_star = matrix_designed_distance(field, matrix, dists, nsc)
        except TooLargeToEnumerate:
            pass
    _print({"nsc": nsc, "triangular": triangular, "d_star": d_star, "exact": nsc and triangular})
    return EXIT_OK


def _cmd_code_info(args) -> int:
    spec = specio.load_spec_file(args.spec)
    if isinstance(spec, LinearCode):
        _print({"n": spec.n, "k": spec.k, "d": spec.distance(), "exact": True})
    else:
        _print(construction(spec).info())
    return EXIT_OK


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    return EXIT_OK if run_selftest(verbose=True) else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gccodec")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode messages with a code spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--msg", required=True, help="JSON messages, or @file")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decode a received word")
    p.add_argument("--spec", required=True)
    p.add_argument("--word", required=True, help="JSON word (row-major), or @file")
    p.add_argument("--erasures", help="JSON erasure positions, or @file")
    p.add_argument("--mode", choices=["upto", "beyond"], default="upto")
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--carry-over", dest="carry_over", action="store_true")
    p.add_argument("--report", action="store_true")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("simulate", help="run a channel experiment from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("nsc-check", help="check a matrix for the NSC and triangular properties")
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=_cmd_nsc_check)

    p = sub.add_parser("code-info", help="print parameters of a code spec")
    p.add_argument("--spec", required=True)
    p.set_defaults(func=_cmd_code_info)

    p = sub.add_parser(
        "selftest",
        help="check what an install can shift: the field arithmetic, numpy's draws and kernels,"
        " and one oracle round trip per decoder family",
    )
    p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ContractViolation as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (CodecError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
