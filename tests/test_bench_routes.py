"""The routes the benchmark's spans see: perfbench/tracing.py wraps
concat.decode_rows and concat.ee_decode where concat looks them up, and
gmd.ee_decode where gmd does, so the inner rows and the outer GMD trials
of a word must reach the decoder through those names (both are the
unchecked bounded step, block_codes.bounded_decode).  A Hamming inner code
has no decode_arrays, so each row is one concat.ee_decode call; the 64
RS(15,8)/GF(16) rows of cc-rs256-gf16 are one decode_arrays solve inside
decode_rows, and since they carry no erasures, its rows with a nonzero
syndrome are one errors-only array solve."""

from collections import Counter

import pytest

from gccodec import block_codes, concat, experiment, gmd, oracle
from gccodec.block_codes import ReedSolomonDecoder
from conftest import load_perfbench

WORDS = 3

tracing = load_perfbench("tracing")
workloads = load_perfbench("workloads")


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
    # the wraps are undone: both names are the bounded step again
    assert concat.ee_decode is gmd.ee_decode is block_codes.bounded_decode
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


@pytest.mark.parametrize("name", ["mpc-uuv-gf8", "cc-hamming-erasures", "cc-rs256-gf16"])
def test_every_gmd_trial_is_one_gmd_ee_decode(name):
    # each trial of gmd_decode runs the bounded step through gmd.ee_decode,
    # inside the gmd.gmd_decode span that counts it
    spans, observed, _ = traced_spans(name)
    calls = named(spans, "gmd.gmd_decode")
    trials = named(spans, "gmd.ee_decode")
    assert calls and len(trials) == observed["gmd.trials"]
    assert all(spans[j][tracing.PARENT] in calls for j in trials)


def test_outer_rs_codes_take_the_decoder_rule():
    # block_codes.attach_decoder: the outer RS codes of the two small
    # workloads fit linalg.TABLE_CAP's error patterns and decode by
    # syndrome table, except RS(7,1)/GF(8), whose 8 codewords decode by
    # vote; both codes of cc-rs256-gf16 keep ReedSolomonDecoder, its batch
    # paths and kept syndromes
    def decoders(name):
        spec = workloads.experiment_config(workloads.WORKLOADS[name], seed=1).spec
        codes = spec.outers if name == "mpc-uuv-gf8" else (spec.outer, spec.inner)
        return [type(code.decoder) for code in codes]

    syndrome = block_codes.SyndromeDecoder
    assert decoders("mpc-uuv-gf8") == [syndrome, block_codes.CodebookDecoder]
    assert decoders("cc-hamming-erasures") == [syndrome, syndrome]
    assert decoders("cc-rs256-gf16") == [ReedSolomonDecoder, ReedSolomonDecoder]


def test_mpc_level_1_trials_are_votes(monkeypatch):
    # each GMD trial on RS(7,1)/GF(8), the level-1 outer of mpc-uuv-gf8,
    # is one CodebookDecoder call, every vote is such a trial, and no call
    # of the workload reaches ReedSolomonDecoder
    config = workloads.experiment_config(workloads.WORKLOADS["mpc-uuv-gf8"], seed=1)
    level1 = config.spec.outers[1]
    counts = Counter()
    trial, vote, rs = gmd.ee_decode, block_codes.CodebookDecoder.__call__, ReedSolomonDecoder.__call__

    def spy_trial(code, word, erasures):
        counts["trials"] += code is level1
        return trial(code, word, erasures)

    def spy_vote(self, word, erasures):
        counts["votes"] += 1
        counts["level-1 votes"] += self is level1.decoder
        return vote(self, word, erasures)

    def spy_rs(self, word, erasures):
        counts["rs"] += 1
        return rs(self, word, erasures)

    monkeypatch.setattr(gmd, "ee_decode", spy_trial)
    monkeypatch.setattr(block_codes.CodebookDecoder, "__call__", spy_vote)
    monkeypatch.setattr(ReedSolomonDecoder, "__call__", spy_rs)
    for t in range(1, WORDS + 1):
        experiment.run_trial(config, t)
    assert counts["trials"] >= WORDS
    assert counts["votes"] == counts["level-1 votes"] == counts["trials"]
    assert counts["rs"] == 0


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


def generic_traffic(name, monkeypatch, codes):
    """Counts of the generic decoders' work over WORDS seeded words of the
    workload, decoded after word 0: codeword scans (oracle_sigma, directly
    or through ExhaustiveDecoder), calls of the SyndromeDecoders of
    codes(spec) with and without erasures, the erased calls with |X| < d
    and those of them whose decode is their set's kept table's, the
    errors-only decodes outside a table build (word-table misses), and the
    erasure set of every table build, word 0's included.  (The outer RS
    codes of both small workloads decode by syndrome table too, except
    RS(7,1)/GF(8), which decodes by vote.)"""
    syndrome = block_codes.SyndromeDecoder
    counts, builds, building = Counter(), [], []
    call, decode, build = syndrome.__call__, syndrome._decode, syndrome._build
    config = workloads.experiment_config(workloads.WORKLOADS[name], seed=1)
    counted = [code.decoder for code in codes(config.spec)]

    def spy_call(self, word, erasures):
        if self not in counted:
            return call(self, word, erasures)
        counts["erased" if erasures else "clean"] += 1
        if erasures and len(erasures) < self.d:
            counts["bounded"] += 1
            out = call(self, word, erasures)
            counts["served"] += out == decode(self, word, self._tables[erasures])
            return out
        return call(self, word, erasures)

    def spy_decode(self, word, tables):
        counts["misses"] += self in counted and not building and not tables.locs
        return decode(self, word, tables)

    def spy_build(self, erasures):
        if self in counted:
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
    experiment.run_trial(config, 0)
    counts.clear()
    for t in range(1, WORDS + 1):
        experiment.run_trial(config, t)
    return counts, builds


def test_hamming_erased_rows_read_their_sets_tables(monkeypatch):
    # an erased row of the Hamming [7,4,3] inner code is a syndrome lookup
    # in its erasure set's kept table, never a codeword scan; an errors-only
    # row is a word-table lookup; and no set's table is built twice
    counts, builds = generic_traffic("cc-hamming-erasures", monkeypatch, lambda cc: [cc.inner])
    assert counts["erased"] and counts["clean"]
    assert counts["scans"] == counts["misses"] == 0
    assert counts["served"] == counts["bounded"] > 0
    assert len(builds) == len(set(builds))


def test_mpc_subcodes_decode_by_word_table(monkeypatch):
    # the (u | u+v) subcodes [2,1,2] and [2,2,1] over GF(8) have 64 words each
    counts, builds = generic_traffic("mpc-uuv-gf8", monkeypatch, lambda spec: spec.subcodes)
    assert counts["clean"] and not counts["erased"]
    assert counts["scans"] == counts["misses"] == 0
    assert len(builds) == len(set(builds))
