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
from collections import Counter
from pathlib import Path

from gccodec import block_codes, concat, experiment, oracle
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


def generic_traffic(name, monkeypatch):
    """Counts of the generic decoders' work over WORDS seeded words of the
    workload, decoded after word 0: codeword scans (oracle_sigma, directly
    or through ExhaustiveDecoder), SyndromeDecoder calls with and without
    erasures, the erased calls with |X| < d and those of them whose decode
    is their set's kept table's, the errors-only decodes outside a table build (word-table
    misses), and the erasure set of every table build, word 0's included."""
    syndrome = block_codes.SyndromeDecoder
    counts, builds, building = Counter(), [], []
    call, decode, build = syndrome.__call__, syndrome._decode, syndrome._build

    def spy_call(self, word, erasures):
        counts["erased" if erasures else "clean"] += 1
        if erasures and len(erasures) < self.d:
            counts["bounded"] += 1
            out = call(self, word, erasures)
            counts["served"] += out == decode(self, word, self._tables[erasures])
            return out
        return call(self, word, erasures)

    def spy_decode(self, word, tables):
        counts["misses"] += not building and not tables.locs
        return decode(self, word, tables)

    def spy_build(self, erasures):
        builds.append((id(self), erasures))
        building.append(erasures)
        try:
            return build(self, erasures)
        finally:
            building.pop()

    def spy_scan(*args):
        counts["scans"] += 1
        return sigma(*args)

    sigma = oracle.oracle_sigma
    monkeypatch.setattr(syndrome, "__call__", spy_call)
    monkeypatch.setattr(syndrome, "_decode", spy_decode)
    monkeypatch.setattr(syndrome, "_build", spy_build)
    monkeypatch.setattr(oracle, "oracle_sigma", spy_scan)
    monkeypatch.setattr(oracle.ExhaustiveDecoder, "__call__", spy_scan)
    config = workloads.experiment_config(workloads.WORKLOADS[name], seed=1)
    experiment.run_trial(config, 0)
    counts.clear()
    for t in range(1, WORDS + 1):
        experiment.run_trial(config, t)
    return counts, builds


def test_hamming_erased_rows_read_their_sets_tables(monkeypatch):
    # an erased row of the Hamming [7,4,3] inner code is a syndrome lookup
    # in its erasure set's kept table, never a codeword scan; an errors-only
    # row is a word-table lookup; and no set's table is built twice
    counts, builds = generic_traffic("cc-hamming-erasures", monkeypatch)
    assert counts["erased"] and counts["clean"]
    assert counts["scans"] == counts["misses"] == 0
    assert counts["served"] == counts["bounded"] > 0
    assert len(builds) == len(set(builds))


def test_mpc_subcodes_decode_by_word_table(monkeypatch):
    # the (u | u+v) subcodes [2,1,2] and [2,2,1] over GF(8) have 64 words each
    counts, builds = generic_traffic("mpc-uuv-gf8", monkeypatch)
    assert counts["clean"] and not counts["erased"]
    assert counts["scans"] == counts["misses"] == 0
    assert len(builds) == len(set(builds))
