"""One pass of a benchmark workload, in a fresh interpreter.

run.py starts this script with ``python -I`` and reads the JSON object it
prints.  Modes:

- ``ref``: the reference for set-up times; imports numpy only (not
  gccodec) and runs the calibration kernel for ``REF_KERNEL_NS``.
- ``setup``: import gccodec, build the workload's config, decode word
  ``--word`` (0 by default).
- ``time``: set up, then decode words 1, 2, ... for ``--seconds`` seconds
  (and at least up to word ``rss_words``, where ``peak_rss_mb`` is read),
  untraced, and check the counts against ``run_experiment``.
- ``trace``: the same loop with a span around every wrapped gccodec call;
  writes the spans to ``--spans``.
- ``count``: decode words 1..``--words`` counting field operations.

In the other modes word 0 is decoded during set-up, so tables and caches that
every invocation fills are ready before timing starts.

The host's speed drifts by up to 1.7x within a minute (other tenants share
its cores), far more than the changes the benchmark must resolve.  So after
each timed word the loop runs a fixed pure-Python calibration kernel for
``CAL_SHARE`` of that word's time, and times are also reported scaled to a
reference speed: within each ``BLOCK_NS`` block of words, by the ratio of
``CAL_REF_NS`` to the kernel's mean time per repetition.  ``CAL_REF_NS`` is
near the median kernel time measured on a shared 2-vCPU x86-64 cloud host,
so there scaled figures read within about a fifth of the raw ones.  Raw
times are reported as well.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import platform
import resource
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

CROSSCHECK_NS = 1_000_000_000  # decode time of the word prefix run_experiment repeats
CAL_SHARE = 0.05  # calibration time after a word, as a share of the word's time
CAL_REF_NS = 11_000  # kernel time per repetition at the reference speed
REF_KERNEL_NS = 100_000_000  # calibration in a reference pass
BLOCK_NS = 50_000_000  # words scaled by one speed factor
MAX_SPANS = 200_000  # a traced pass also ends here, to bound its memory and file
OUTCOMES = ("success", "failure", "miscorrection", "error")

_TABLE = [[(a * b) % 251 for b in range(16)] for a in range(16)]


def kernel():
    acc = 0
    for i in range(128):
        acc ^= _TABLE[i & 15][(i >> 4) & 15]
    return acc


def calibrate(budget_ns):
    """Run the kernel for at least budget_ns (one repetition at least);
    returns (repetitions, elapsed ns)."""
    clock = time.perf_counter_ns
    reps, start = 0, clock()
    while True:
        kernel()
        reps += 1
        elapsed = clock() - start
        if elapsed >= budget_ns:
            return reps, elapsed


class Capture:
    """Keeps the codeword of the last decode the experiment harness ran."""

    def __init__(self):
        self.codeword = None

    def install(self, patches):
        from gccodec import experiment

        def wrapper_for(fn):
            def captured(*args, **kwargs):
                out = fn(*args, **kwargs)
                report = out[1] if isinstance(out, tuple) else out
                self.codeword = report.codeword
                return out

            return captured

        for name in ("cc_decode", "mpc_decode"):
            patches.replace(experiment, name, wrapper_for)


@dataclasses.dataclass
class Words:
    """Per-word results of a loop, compact; they grow with the words decoded,
    so peak RSS is read at a fixed word, not at the end."""

    latency_ns: array = dataclasses.field(default_factory=lambda: array("q"))
    cal_ns: array = dataclasses.field(default_factory=lambda: array("q"))
    cal_reps: array = dataclasses.field(default_factory=lambda: array("q"))
    outcome: array = dataclasses.field(default_factory=lambda: array("b"))
    digests: bytearray = dataclasses.field(default_factory=bytearray)
    failed: int = 0
    errors: set = dataclasses.field(default_factory=set)

    def __len__(self):
        return len(self.latency_ns)

    def add(self, t, rec, exc, codeword, latency_ns):
        """Check one word: it fails on an unexpected exception or an in-region miss."""
        if exc is not None:
            outcome = "error"
            self.errors.add(type(exc).__name__)
            self.failed += 1
        else:
            outcome = rec["outcome"]
            if rec["in_region"] and outcome != "success":
                self.failed += 1
        key = repr((t, outcome, codeword if outcome in ("success", "miscorrection") else None))
        self.digests += hashlib.blake2b(key.encode(), digest_size=8).digest()
        self.outcome.append(OUTCOMES.index(outcome))
        self.latency_ns.append(latency_ns)

    def word_errors(self) -> int:
        return sum(1 for o in self.outcome if o != 0)

    def scaled_latency_ns(self, first: int) -> list:
        """Latencies of words[first:] at the reference speed, one speed factor
        per block."""
        out, start = [], first
        n = len(self)
        while start < n:
            end, wall = start, 0
            while end < n and wall < BLOCK_NS:
                wall += self.latency_ns[end] + self.cal_ns[end]
                end += 1
            per_rep = sum(self.cal_ns[start:end]) / sum(self.cal_reps[start:end])
            factor = CAL_REF_NS / per_rep
            out.extend(lat * factor for lat in self.latency_ns[start:end])
            start = end
        return out


def decode_words(config, capture, words, first, last=None, deadline=None, tracer=None, cal=True):
    """Decode words first, first+1, ... until ``last`` or the ``deadline``
    (a ``perf_counter_ns`` value)."""
    from gccodec import experiment

    clock = time.perf_counter_ns
    t = first
    while True:
        if tracer is not None:
            tracer.word = t
        capture.codeword = None
        rec = exc = None
        s = clock()
        try:
            rec = experiment.run_trial(config, t)
        except Exception as e:  # counted as a failed word, never fatal
            exc = e
        e = clock()
        words.add(t, rec, exc, capture.codeword, e - s)
        reps, cal_ns = calibrate(CAL_SHARE * (e - s)) if cal else (0, 0)
        words.cal_reps.append(reps)
        words.cal_ns.append(cal_ns)
        if (
            (last is not None and t >= last)
            or (deadline is not None and clock() >= deadline)
            or (tracer is not None and len(tracer.spans) >= MAX_SPANS)
        ):
            return
        t += 1


def nearest_rank(sorted_values, p):
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def crosscheck(config, words: Words) -> dict:
    """run_experiment over a word prefix must count outcomes as the loop did."""
    from gccodec import run_experiment

    budget, k = CROSSCHECK_NS, 1  # word 0 always
    for lat in words.latency_ns[1:]:
        budget -= lat
        if budget < 0:
            break
        k += 1
    mine = Counter(OUTCOMES[o] for o in words.outcome[:k])
    stats = run_experiment(dataclasses.replace(config, trials=k)).to_json()
    theirs = {"success": stats["successes"], "failure": stats["failures"], "miscorrection": stats["miscorrections"]}
    return {"words": k, "ok": all(mine[key] == v for key, v in theirs.items()), "run_experiment": theirs}


def timing(words: Words, first: int) -> dict:
    """Throughput and percentiles of words[first:], raw and at the reference speed."""
    out = {"words": len(words) - first}
    scaled = words.scaled_latency_ns(first)
    for prefix, lat in (("", scaled), ("raw_", list(words.latency_ns[first:]))):
        ordered = sorted(lat)
        out[prefix + "words_per_s"] = len(lat) / (sum(lat) / 1e9)
        out[prefix + "word_ms_p50"] = nearest_rank(ordered, 0.5) / 1e6
        out[prefix + "word_ms_p90"] = nearest_rank(ordered, 0.9) / 1e6
    out["beyond_p90"] = out["words"] - math.ceil(0.9 * out["words"])
    out["speed"] = sum(words.cal_reps) * CAL_REF_NS / sum(words.cal_ns)
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("ref", "setup", "time", "trace", "count"), required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--words", type=int)
    ap.add_argument("--word", type=int, default=0)
    ap.add_argument("--spans")
    args = ap.parse_args()
    if args.mode == "ref":
        import numpy  # noqa: F401  (every gccodec process pays this import)

        reps, ns = calibrate(REF_KERNEL_NS)
        print(json.dumps({"kernel_s": ns / 1e9, "speed": reps * CAL_REF_NS / ns}))
        return
    sys.path[:0] = [args.src, str(Path(__file__).resolve().parent)]

    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    patches = tracing.Patches()
    capture = Capture()
    capture.install(patches)
    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracing.install_spans(tracer)  # before set-up, to time table builds
    start = time.perf_counter_ns()
    config = workloads.experiment_config(workload, args.seed)
    words = Words()
    decode_words(config, capture, words, args.word, last=args.word, tracer=tracer, cal=False)
    compute_s = (time.perf_counter_ns() - start) / 1e9
    import numpy

    out = {"python": platform.python_version(), "numpy": numpy.__version__}
    if args.mode == "setup":
        out["failed"] = words.failed
        out["compute_s"] = compute_s
        print(json.dumps(out))
        return

    counts = Counter()
    rss_mb = None
    if args.mode == "count":
        tracing.install_counters(counts, patches)
        decode_words(config, capture, words, 1, last=args.words, cal=False)
    else:
        if tracer is not None:
            tracer.observed.clear()  # keep counts of the timed words only
        end = time.perf_counter_ns() + int(args.seconds * 1e9)
        decode_words(config, capture, words, 1, last=workload.rss_words, tracer=tracer)
        # at a fixed word, so neither the loop's own per-word records nor
        # caches filled by extra words make a faster decoder read larger
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if time.perf_counter_ns() < end and (tracer is None or len(tracer.spans) < MAX_SPANS):
            decode_words(config, capture, words, workload.rss_words + 1, deadline=end, tracer=tracer)
    patches.undo()
    out.update(
        {
            "peak_rss_mb": rss_mb,
            "checked": len(words),
            "word_errors": words.word_errors(),
            "failed": words.failed,
            "errors": sorted(words.errors),
            "digests": words.digests.hex(),
        }
    )
    if args.mode == "count":
        out["words"] = len(words) - 1
        out["counts"] = dict(counts)
    else:
        out.update(timing(words, 1))
    if args.mode == "time":
        out["crosscheck"] = crosscheck(config, words)
    elif args.mode == "trace":
        tracing.write_spans(tracer.spans, args.spans)
        out["layers"] = tracing.layer_metrics(tracer.spans, tracer.observed, len(words) - 1)
        out["spans"] = len(tracer.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
