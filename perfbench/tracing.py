"""Spans and counters around gccodec's public functions, installed from outside.

Each wrapper replaces a name where its caller looks it up (a module global
or a class attribute), so ``gccodec.gmd.ee_decode`` and
``gccodec.concat.ee_decode`` are timed separately even though both are
``block_codes.ee_decode``.  A span is the tuple
``(word, name, start_ns, end_ns, parent, ok)``: ``word`` is the trial index
the caller set (-1 outside a word), ``parent`` the index of the enclosing
span (-1 for none) and ``ok`` the returned object's ``ok`` flag when it has
one (False when the call raised).  Spans stay in memory until the caller
writes them out.

Field operations are counted in a pass of their own (``install_counters``):
wrapping every ``Field.mul`` in a span would inflate the span times it
sits under.
"""

from __future__ import annotations

import json
import time
from collections import Counter

WORD, NAME, START, END, PARENT, OK = range(6)


def _ok(out, exc):
    if exc is not None:
        return False
    return getattr(out, "ok", None)


class Patches:
    """Replaced attributes, restored in reverse order by ``undo``."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, wrapper_for):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper_for(original))

    def undo(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    def __init__(self):
        self.spans = []
        self.word = -1
        self.observed = Counter()  # counts read from returned objects
        self._stack = []
        self.patches = Patches()

    def wrap(self, owner, attr, name, observe=None):
        spans, stack, clock, observed = self.spans, self._stack, time.perf_counter_ns, self.observed

        def wrapper_for(fn):
            def traced(*args, **kwargs):
                idx = len(spans)
                spans.append(None)
                stack.append(idx)
                out = exc = None
                start = clock()
                try:
                    out = fn(*args, **kwargs)
                    return out
                except Exception as e:
                    exc = e
                    raise
                finally:
                    end = clock()
                    stack.pop()
                    parent = stack[-1] if stack else -1
                    spans[idx] = (self.word, name, start, end, parent, _ok(out, exc))
                    if observe is not None:
                        observe(observed, out, exc)

            return traced

        self.patches.replace(owner, attr, wrapper_for)


# -- observers: counts read from what a wrapped call returned ---------------


def _observe_gmd(observed, report, exc):
    if report is None:
        return
    observed["gmd.trials"] += report.trials
    observed["gmd.accepted"] += report.accepted_index is not None
    for _, reason in report.skips:
        observed[f"gmd.skip.{reason}"] += 1


def _observe_rows(observed, rd, exc):
    if rd is None:
        return
    observed["concat.rows"] += len(rd.failed)
    observed["concat.rows_failed"] += sum(rd.failed)


def _observe_gcc(observed, report, exc):
    if exc is not None:
        report = getattr(exc, "report", None)
    if report is None:
        return
    from gccodec.report import SKIP_EQ8, SKIP_REUSED, SKIP_T_NO_GAIN

    observed["gcc.rows_decoded"] += report.total_inner
    for skips in report.row_skips:
        observed["gcc.rows_reused"] += skips.get(SKIP_REUSED, 0)
        observed["gcc.rows_skipped"] += skips.get(SKIP_EQ8, 0) + skips.get(SKIP_T_NO_GAIN, 0)


def _observe_channel(observed, out, exc):
    if out is not None:
        observed["channel.symbols"] += sum(len(row) for row in out[0])


def install_spans(tracer: Tracer):
    """Wrap the public functions of every gccodec module the workloads reach."""
    from gccodec import block_codes, concat, experiment, galois, gcc, gmd, mpc, oracle

    wrap = tracer.wrap
    wrap(experiment, "run_trial", "experiment.run_trial")
    wrap(experiment, "apply_channel", "experiment.apply_channel", _observe_channel)
    wrap(experiment, "gcc_encode", "experiment.gcc_encode")
    # run_trial's encode closure imports cc_encode from concat at call time
    wrap(concat, "cc_encode", "concat.cc_encode")
    wrap(experiment, "correctable_cc", "experiment.correctable_cc")
    wrap(experiment, "correctable_gcc", "experiment.correctable_gcc")
    wrap(experiment, "cc_decode", "experiment.cc_decode")
    wrap(experiment, "mpc_decode", "experiment.mpc_decode")
    wrap(mpc, "gcc_decode_improved", "mpc.gcc_decode_improved", _observe_gcc)
    wrap(gcc, "decode_rows", "gcc.decode_rows")
    wrap(concat, "decode_rows", "concat.decode_rows", _observe_rows)
    wrap(concat, "fold_message_columns", "concat.fold_message_columns")
    wrap(concat, "encode_columns", "concat.encode_columns")
    wrap(concat, "ee_decode", "concat.ee_decode")
    wrap(gmd, "gmd_decode", "gmd.gmd_decode", _observe_gmd)
    wrap(gmd, "ee_decode", "gmd.ee_decode")
    wrap(block_codes.LinearCode, "decode", "block_codes.LinearCode.decode")
    wrap(block_codes.ReedSolomonDecoder, "__call__", "block_codes.ReedSolomonDecoder.__call__")
    wrap(oracle.ExhaustiveDecoder, "__call__", "oracle.ExhaustiveDecoder.__call__")
    wrap(oracle, "oracle_sigma", "oracle.oracle_sigma")
    # the first Field.mul/add/inv on a handle builds its tables here
    wrap(galois.Field, "_build_mul_table", "galois.Field._build_mul_table")
    wrap(galois.Field, "_build_add_table", "galois.Field._build_add_table")


def install_counters(counts: Counter, patches: Patches):
    """Count Field.mul, poly_mul and poly_divmod calls into counts."""
    from gccodec import galois

    def counter_for(name):
        def wrapper_for(fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        return wrapper_for

    patches.replace(galois.Field, "mul", counter_for("mul"))
    patches.replace(galois, "poly_mul", counter_for("poly_mul"))
    patches.replace(galois, "poly_divmod", counter_for("poly_divmod"))


# -- span arithmetic ---------------------------------------------------------


def self_times(spans) -> list:
    """Per span: its duration minus the time its child spans cover.

    Calls are nested and single-threaded, so a span's children are disjoint
    and the time they cover is the sum of their durations.
    """
    covered = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


def write_spans(spans, path):
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")


def layer_metrics(spans, observed, words: int) -> dict:
    """Per-layer metrics, named after gccodec's modules, normalised per word.

    ``spans`` and ``observed`` come from a traced pass: per-word metrics use
    the spans of words 1..``words`` and ``galois.table_build_s`` every span,
    set-up and warm-up word 0 included.  The field-operation counts come from
    the counting pass (``install_counters``) and are added by the caller.
    """
    selfs = self_times(spans)
    calls, total, own, ok = Counter(), Counter(), Counter(), Counter()
    under = Counter()  # total time keyed by (name, parent's name)
    for s, self_ns in zip(spans, selfs):
        name = s[NAME]
        if name.startswith("galois.Field._build"):
            total[name] += s[END] - s[START]
            continue
        if s[WORD] < 1:
            continue
        calls[name] += 1
        total[name] += s[END] - s[START]
        own[name] += self_ns
        ok[name] += s[OK] is True
        if s[PARENT] >= 0:
            under[name, spans[s[PARENT]][NAME]] += s[END] - s[START]

    def per_word(counter, *names):
        return sum(counter[n] for n in names) / words

    def sec_per_word(counter, *names):
        return per_word(counter, *names) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    outer = ("gmd.ee_decode",)
    inner = ("concat.ee_decode", "block_codes.LinearCode.decode")
    gmd_calls = calls["gmd.gmd_decode"]
    exhaustive = calls["oracle.ExhaustiveDecoder.__call__"]
    decodes = outer + inner
    m = {
        "galois.table_build_s": (total["galois.Field._build_mul_table"] + total["galois.Field._build_add_table"]) / 1e9,
        "block_codes.outer_calls_per_word": per_word(calls, *outer),
        "block_codes.outer_s_per_word": sec_per_word(total, *outer),
        "block_codes.outer_us_per_call": ratio(total["gmd.ee_decode"], calls["gmd.ee_decode"]) / 1e3,
        "block_codes.inner_calls_per_word": per_word(calls, *inner),
        "block_codes.inner_s_per_word": sec_per_word(total, *inner),
        "block_codes.rs_s_per_word": sec_per_word(total, "block_codes.ReedSolomonDecoder.__call__"),
        "block_codes.ok_ratio": ratio(sum(ok[n] for n in decodes), sum(calls[n] for n in decodes)),
        "oracle.exhaustive_s_per_word": sec_per_word(total, "oracle.ExhaustiveDecoder.__call__"),
        "oracle.sigma_calls_per_word": per_word(calls, "oracle.oracle_sigma"),
        # every oracle_sigma call the workloads make comes from ExhaustiveDecoder
        "oracle.table_ratio": ratio(exhaustive - calls["oracle.oracle_sigma"], exhaustive),
        "gmd.calls_per_word": per_word(calls, "gmd.gmd_decode"),
        "gmd.s_per_word": sec_per_word(total, "gmd.gmd_decode"),
        "gmd.self_s_per_word": sec_per_word(own, "gmd.gmd_decode"),
        "gmd.trials_per_call": ratio(observed["gmd.trials"], gmd_calls),
        "gmd.accept_ratio": ratio(observed["gmd.accepted"], gmd_calls),
    }
    for reason in ("duplicate", "parity", "size", "carried"):
        m[f"gmd.skips_per_call.{reason}"] = ratio(observed[f"gmd.skip.{reason}"], gmd_calls)
    m.update(
        {
            "concat.decode_s_per_word": sec_per_word(total, "experiment.cc_decode"),
            "concat.rows_s_per_word": sec_per_word(total, "concat.decode_rows"),
            "concat.row_fail_ratio": ratio(observed["concat.rows_failed"], observed["concat.rows"]),
            "concat.fold_s_per_word": sec_per_word(total, "concat.fold_message_columns"),
            # cc_encode calls encode_columns too; only the decoder's call re-encodes
            "concat.reencode_s_per_word": sec_per_word(under, ("concat.encode_columns", "experiment.cc_decode")),
            "concat.self_s_per_word": sec_per_word(own, "experiment.cc_decode"),
            "gcc.decode_s_per_word": sec_per_word(total, "mpc.gcc_decode_improved"),
            "gcc.self_s_per_word": sec_per_word(own, "mpc.gcc_decode_improved"),
            "gcc.rows_decoded_per_word": observed["gcc.rows_decoded"] / words,
            "gcc.rows_reused_per_word": observed["gcc.rows_reused"] / words,
            "gcc.rows_skipped_per_word": observed["gcc.rows_skipped"] / words,
            "mpc.decode_s_per_word": sec_per_word(total, "experiment.mpc_decode"),
            "channel.s_per_word": sec_per_word(total, "experiment.apply_channel"),
            "channel.symbols_per_s": ratio(observed["channel.symbols"], total["experiment.apply_channel"] / 1e9),
            "experiment.encode_s_per_word": sec_per_word(total, "concat.cc_encode", "experiment.gcc_encode"),
            "experiment.region_s_per_word": sec_per_word(
                total, "experiment.correctable_cc", "experiment.correctable_gcc"
            ),
            "experiment.self_s_per_word": sec_per_word(own, "experiment.run_trial"),
        }
    )
    return m
