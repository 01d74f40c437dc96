"""The routes the benchmark's spans see: perfbench/tracing.py wraps
concat.decode_rows and concat.ee_decode where concat looks them up, so the
inner rows of a word must reach the decoder through those names.  A
Hamming inner code has no decode_arrays, so each row is one
concat.ee_decode call; the 64 RS(15,8)/GF(16) rows of cc-rs256-gf16 are
one decode_arrays solve inside decode_rows, and since they carry no
erasures, its rows with a nonzero syndrome are one errors-only array
solve."""

import importlib.util
import sys
from pathlib import Path

from gccodec import block_codes, concat, experiment
from gccodec.block_codes import ReedSolomonDecoder

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


def test_rs_rows_take_the_errors_only_array_solve(monkeypatch):
    # per decode_arrays call: its rows with a nonzero syndrome, the sizes of
    # its _solve_arrays calls and its count of scalar _solve calls (the
    # outer GMD trials call _solve too, outside decode_arrays)
    calls, inside = [], []
    decode_arrays, solve_arrays, solve = (
        ReedSolomonDecoder.decode_arrays,
        ReedSolomonDecoder._solve_arrays,
        ReedSolomonDecoder._solve,
    )

    def spy_decode_arrays(self, words, erasure_sets):
        call = {"rows": sum(any(self._syndromes.row(w)) for w in words), "arrays": [], "scalar": 0}
        calls.append(call)
        inside.append(call)
        try:
            return decode_arrays(self, words, erasure_sets)
        finally:
            inside.pop()

    def spy_solve_arrays(self, received, synd):
        inside[-1]["arrays"].append(len(received))
        return solve_arrays(self, received, synd)

    def spy_solve(self, word, erasures, synd):
        if inside:
            inside[-1]["scalar"] += 1
        return solve(self, word, erasures, synd)

    monkeypatch.setattr(ReedSolomonDecoder, "decode_arrays", spy_decode_arrays)
    monkeypatch.setattr(ReedSolomonDecoder, "_solve_arrays", spy_solve_arrays)
    monkeypatch.setattr(ReedSolomonDecoder, "_solve", spy_solve)
    traced_spans("cc-rs256-gf16")
    assert len(calls) == WORDS
    for call in calls:
        assert call["rows"] and call["arrays"] == [call["rows"]] and call["scalar"] == 0
