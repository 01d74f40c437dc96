"""Smoke tests of the benchmark itself, at a tiny run length.

Run from the repository root:  python -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
from run import END_TO_END, load_layers, reported  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    context = json.loads(next(l for l in lines if l.startswith("context "))[len("context "):])
    return lines, context, json.loads(lines[-1])


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def untraced(request):
    return request.param, *bench(request.param, 0)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced(request):
    return request.param, *bench(request.param, 1)


def test_prints_every_end_to_end_metric_with_unit(untraced):
    _, lines, _, result = untraced
    for name, unit in END_TO_END.items():
        assert any(l.startswith(f"{name} ") and l.split()[2] == unit for l in lines), name
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
    for name in ("wer", "error_frac"):
        assert any(l.startswith(f"{name} ") for l in lines), name


def test_no_failed_words(untraced):
    _, _, context, result = untraced
    assert result["correct"] and result["failed"] == 0
    assert context["error_frac"] == 0
    assert context["crosscheck"]["ok"]


def test_traced_digest_matches_untraced(traced):
    _, _, context, result = traced
    assert context["digest_words"] > 0
    assert context["digest_traced"] == context["digest_untraced"]
    assert context["mismatches"] == 0
    assert result["correct"] and result["failed"] == 0


def test_self_time_within_span(traced):
    _, _, context, _ = traced
    with open(ROOT / context["spans_file"]) as fh:
        spans = [tuple(json.loads(line)) for line in fh]
    assert spans
    for span, own in zip(spans, tracing.self_times(spans)):
        assert 0 <= own <= span[tracing.END] - span[tracing.START], span


def test_traced_run_reports_every_layer_metric(traced):
    workload, lines, _, result = traced
    layers = load_layers()
    printed = {l.split()[0] for l in lines}
    assert set(layers) <= printed
    assert set(result["metrics"]) == {n for n, spec in layers.items() if reported(spec)}
    # times and call counts of a layer the workload exercises cannot be 0;
    # ratios and skip counts can, on a short run
    for name, spec in layers.items():
        if workload in spec["applies"] and spec["unit"] in ("s", "s/word", "us/call", "calls/word"):
            value = next(float(l.split()[1]) for l in lines if l.split()[0] == name)
            assert value > 0, name


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    layers = load_layers()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        n: s["unit"] for n, s in layers.items() if reported(s)
    }
    for m in spec["per_layer"]:
        assert m["better"] == layers[m["name"]]["better"]
