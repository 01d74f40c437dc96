#!/usr/bin/env python3
"""gccodec benchmark: seeded channel workloads decoded through the public API.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each word is one ``run_trial(config, t)`` call (message draw, encode,
channel, guarantee-region check, decode) in a closed loop: one caller, one
thread, the next word starts when the last one is decoded.  Every pass runs
in a fresh ``python -I`` interpreter, so environment variables such as
``GCC_CODEC_THREADS`` or ``PYTHONOPTIMIZE`` cannot change the numbers and
``setup_s`` and ``peak_rss_mb`` belong to one workload.

Times are reported at a reference machine speed: the workers interleave a
fixed calibration kernel with the words and scale each time by the kernel's
speed around it (see worker.py), and set-up passes are scaled by reference
interpreters run around them (``setup_times``), because the shared host's
speed drifts far more than the changes the benchmark must resolve.  The
unscaled times are printed as ``raw_*`` and recorded.

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1`` runs
an untraced pass and a traced pass of ``TRACE_SHARE * S`` seconds each (the
traced pass stops early at ``worker.MAX_SPANS`` spans) plus a
field-operation counting pass, writes the spans and every per-layer metric
under ``perfbench/out/`` and reports the per-layer metrics listed in
BENCHMARK.json (see ``reported``); ``perfbench/layers.json`` says which
end-to-end metric each one should move, on which workload.

Every decoded word is checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Each
result is also appended, with its context, to ``perfbench/out/results.jsonl``,
and the run-to-run spread of each metric over the records of the same
workload and source is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 9  # fresh set-up interpreters per run; setup_s is their median
REF_START_S = 0.2  # start-up of a reference interpreter at the reference speed
TRACE_SHARE = 0.4  # of --seconds, for each of the untraced and traced passes
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "words_per_s": "words/s",
    "word_ms_p50": "ms",
    "word_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed and recorded too, but not bounded: error_frac is 0 when nothing is
# wrong, and wer over the ~300 words of a cc-rs256-gf16 run spreads ~0.17
# from seed to seed, more than any bound the comparison allows.
CHECKS = {"wer": "ratio", "error_frac": "ratio"}


class BenchError(Exception):
    pass


def worker(workload, seed, mode, **extra) -> tuple:
    """Run one worker pass; returns (its JSON result, wall seconds)."""
    cmd = [
        sys.executable, "-I", str(HERE / "worker.py"), "--src", str(SRC),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
    ]
    for key, value in extra.items():
        cmd += [f"--{key}", str(value)]
    env = {k: v for k, v in os.environ.items() if k != "GCC_CODEC_THREADS"}
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=WORKER_TIMEOUT_S)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass of {workload} failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def load_layers() -> dict:
    with open(HERE / "layers.json") as fh:
        return json.load(fh)["metrics"]


TIME_UNITS = ("s", "s/word", "us/call")


def reported(spec) -> bool:
    """Whether a per-layer metric goes in the result line of every workload.

    Every count and ratio does (0 where the layer is not exercised).  A time
    does only where every workload exercises its layer: elsewhere it would
    read exactly 0 on every run, which cannot pass for a measured time.
    """
    return spec["unit"] not in TIME_UNITS or set(spec["applies"]) == set(WORKLOADS)


def source_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def split_digests(hexdigests) -> list:
    """Per-word digests from a worker's concatenated hex string."""
    return [hexdigests[i : i + 16] for i in range(0, len(hexdigests), 16)]


def run_digest(digests) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()[:16]


def reference():
    """A reference pass: (start-up seconds without its kernel, kernel speed)."""
    ref, wall = worker("", 0, "ref")
    return wall - ref["kernel_s"], ref["speed"]


def setup_times(workload, seed) -> tuple:
    """setup_s at the reference speed, its raw median, and the set-up passes.

    Set-up pass i decodes word i, so the median does not hang on one word's
    decode time.  Each set-up pass sits between two reference passes.  Its
    start-up and imports (wall time less the config build and decode) are
    scaled by the start-up time of the references, which follows the host's
    process and import costs; its config build and decode, pure Python, by
    their kernel speed.  The in-process kernel alone does not follow
    start-up costs.
    """
    refs = [reference()]
    setups = []
    for i in range(SETUP_RUNS):
        setups.append(worker(workload, seed, "setup", word=i))
        refs.append(reference())
    scaled = []
    for (s, wall), before, after in zip(setups, refs, refs[1:]):
        start_ref = (before[0] + after[0]) / 2
        speed = (before[1] + after[1]) / 2
        scaled.append((wall - s["compute_s"]) * REF_START_S / start_ref + s["compute_s"] * speed)
    raw = statistics.median(wall for _, wall in setups)
    return statistics.median(scaled), raw, setups


def untraced(workload, seed, seconds):
    setup_s, raw_setup_s, setups = setup_times(workload, seed)
    timed, _ = worker(workload, seed, "time", seconds=seconds)
    failed = timed["failed"] + sum(s["failed"] for s, _ in setups)
    metrics = {name: timed[name] for name in ("words_per_s", "word_ms_p50", "word_ms_p90", "peak_rss_mb")}
    metrics["setup_s"] = setup_s
    raw = {name: timed["raw_" + name] for name in ("words_per_s", "word_ms_p50", "word_ms_p90")}
    raw["setup_s"] = raw_setup_s
    return {
        "attempted": timed["checked"],
        "failed": failed,
        "correct": failed == 0 and timed["crosscheck"]["ok"],
        "metrics": {name: (metrics[name], unit) for name, unit in END_TO_END.items()},
        "info": {
            "error_frac": failed / timed["checked"],
            "wer": timed["word_errors"] / timed["checked"],
            "raw": raw,
            "speed": timed["speed"],
            "words": timed["words"],
            "samples": {
                "word_ms_p50": timed["words"],
                "word_ms_p90": timed["words"],
                "setup_s": SETUP_RUNS,
                "peak_rss_mb": WORKLOADS[workload].rss_words,
            },
            "beyond_p90": timed["beyond_p90"],
            "digest": run_digest(split_digests(timed["digests"])),
            "crosscheck": timed["crosscheck"],
            "errors": timed["errors"],
            "python": timed["python"],
            "numpy": timed["numpy"],
        },
    }


def traced(workload, seed, seconds):
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}.jsonl"
    share = seconds * TRACE_SHARE
    plain, _ = worker(workload, seed, "time", seconds=share)
    traced_run, _ = worker(workload, seed, "trace", seconds=share, spans=spans_path)
    counted, _ = worker(workload, seed, "count", words=WORKLOADS[workload].count_words)

    # the same trial must give the same outcome and codeword traced or not
    reference = split_digests(plain["digests"])
    traced_digests = split_digests(traced_run["digests"])
    mismatches = 0
    for other in (traced_digests, split_digests(counted["digests"])):
        mismatches += sum(a != b for a, b in zip(reference, other))
    common = min(len(reference), len(traced_digests))

    values = dict(traced_run["layers"])
    for name in ("mul", "poly_mul", "poly_divmod"):
        values[f"galois.{name}_calls_per_word"] = counted["counts"].get(name, 0) / counted["words"]
    values["trace.overhead_ratio"] = plain["words_per_s"] / traced_run["words_per_s"]
    layers = load_layers()
    report = {name: {"value": values[name], **spec} for name, spec in layers.items()}
    with open(OUT / f"layers-{workload}.json", "w") as fh:
        json.dump(report, fh, indent=1)

    failed = traced_run["failed"] + counted["failed"] + mismatches
    attempted = traced_run["checked"] + counted["checked"]
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and plain["failed"] == 0 and plain["crosscheck"]["ok"],
        "metrics": {
            name: (values[name], spec["unit"]) for name, spec in layers.items() if reported(spec)
        },
        "all_layers": {name: (values[name], spec["unit"]) for name, spec in layers.items()},
        "info": {
            "error_frac": failed / attempted,
            "words": traced_run["words"],
            "untraced_words": plain["words"],
            "counted_words": counted["words"],
            "spans": traced_run["spans"],
            "spans_file": str(spans_path.relative_to(ROOT)),
            "digest_traced": run_digest(traced_digests[:common]),
            "digest_untraced": run_digest(reference[:common]),
            "digest_words": common,
            "mismatches": mismatches,
            "untraced_words_per_s": plain["words_per_s"],
            "traced_words_per_s": traced_run["words_per_s"],
            "errors": sorted(set(traced_run["errors"] + counted["errors"])),
        },
    }


def spreads(record) -> dict:
    """Spread (IQR / median) of each metric over the recorded runs of the same
    workload, mode, run length and source, this one included."""
    key = ("workload", "trace", "seconds", "source")
    values = {}
    try:
        with open(OUT / "results.jsonl") as fh:
            for line in fh:
                past = json.loads(line)
                if all(past.get(k) == record[k] for k in key):
                    for name, (value, _) in past["metrics"].items():
                        values.setdefault(name, []).append(value)
    except FileNotFoundError:
        return {}
    out = {}
    for name, vals in values.items():
        if len(vals) >= 2 and statistics.median(vals):
            q1, _, q3 = statistics.quantiles(vals, n=4)
            out[name] = {"spread": (q3 - q1) / statistics.median(vals), "runs": len(vals)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "gccodec" / "__init__.py").is_file():
        print(f"error: gccodec sources not found under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    try:
        result = (traced if args.trace else untraced)(args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload,
        "why": workload.why,
        "config": workload.describe(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "source": source_fingerprint(),
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
        **result["info"],
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    spread = spreads(record)

    shown = result.get("all_layers", result["metrics"])
    for name, (value, unit) in shown.items():
        extra = ""
        if name in spread:
            extra = f"  (spread {spread[name]['spread']:.4f} over {spread[name]['runs']} runs)"
        elif name not in result["metrics"]:
            extra = "  (written to the layer report only)"
        print(f"{name} {value!r} {unit}{extra}")
    for name, value in result["info"].get("raw", {}).items():
        print(f"raw_{name} {value!r} {END_TO_END[name]}  (unscaled)")
    for name, unit in CHECKS.items():
        if name in result["info"]:
            print(f"{name} {result['info'][name]!r} {unit}")
    context = {k: v for k, v in record.items() if k != "metrics"}
    context["spread"] = spread
    print("context " + json.dumps(context))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
