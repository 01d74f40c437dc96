"""The routes the benchmark's spans see: perfbench/tracing.py wraps
concat.decode_rows and concat.ee_decode where concat looks them up, so the
inner rows of a word must reach the decoder through those names.  A
Hamming inner code has no decode_arrays, so each row is one
concat.ee_decode call; the 64 RS(15,8)/GF(16) rows of cc-rs256-gf16 are
one decode_arrays solve inside decode_rows."""

import importlib.util
import sys
from pathlib import Path

from gccodec import block_codes, concat, experiment

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORDS = 3


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


def traced_spans(name):
    """(spans, observed counts, construction) of WORDS seeded words of the
    workload, decoded with every wrapper of tracing.install_spans on."""
    config = workloads.experiment_config(workloads.WORKLOADS[name], seed=1)
    tracer = tracing.Tracer()
    tracing.install_spans(tracer)
    try:
        for t in range(1, WORDS + 1):
            experiment.run_trial(config, t)
    finally:
        tracer.patches.undo()
    assert concat.ee_decode is block_codes.ee_decode
    return tracer.spans, tracer.observed, config.spec


def named(spans, name):
    return [i for i, s in enumerate(spans) if s[tracing.NAME] == name]


def test_hamming_rows_decode_one_ee_decode_each():
    spans, observed, cc = traced_spans("cc-hamming-erasures")
    rows = named(spans, "concat.decode_rows")
    assert len(rows) == WORDS
    calls = named(spans, "concat.ee_decode")
    assert len(calls) == cc.m * WORDS == observed["concat.rows"]
    for i in rows:
        assert sum(spans[j][tracing.PARENT] == i for j in calls) == cc.m


def test_rs_rows_decode_in_one_array_solve():
    spans, observed, cc = traced_spans("cc-rs256-gf16")
    assert cc.m == 64
    assert len(named(spans, "concat.decode_rows")) == WORDS
    assert observed["concat.rows"] == cc.m * WORDS
    assert named(spans, "concat.ee_decode") == []
