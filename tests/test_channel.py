import hashlib
import json
import operator
from types import SimpleNamespace

import numpy as np
import pytest

import gccodec as g
from gccodec.channel import RawStream, trial_stream
from conftest import load_perfbench

# 3 * 2^30 and 3 * 2^61 reject about a quarter of their Lemire draws
HIGHS = (2, 3, 8, 9, 256, 3 * 2**30, 2**32 - 1, 2**32, 2**32 + 1, 2**33 - 1, 3 * 2**61, 2**62)
# (error_rate, erasure_rate): noiseless, certain flips, erasures only, mixed
RATES = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.3), (0.3, 0.0), (0.2, 0.1), (0.5, 0.5))


def reference_channel(word, field, channel, rng):
    """apply_channel as one numpy call per draw: the stream RawStream must match."""
    flat = word and isinstance(word[0], int)
    rows = (word,) if flat else tuple(tuple(r) for r in word)
    out_rows, patterns, err_rows = [], [], []
    for row in rows:
        received, erased, errs = [], set(), []
        for j, sym in enumerate(row):
            u = rng.random()
            if u < channel.erasure_rate:
                erased.add(j)
                received.append(0)
                errs.append(0)
            elif u < channel.erasure_rate + channel.error_rate:
                delta = int(rng.integers(1, field.q))
                received.append(field.add(sym, delta))
                errs.append(delta)
            else:
                received.append(sym)
                errs.append(0)
        out_rows.append(tuple(received))
        patterns.append(frozenset(erased))
        err_rows.append(tuple(errs))
    if flat:
        return out_rows[0], patterns[0], err_rows[0]
    return tuple(out_rows), tuple(patterns), tuple(err_rows)


def _generators(seed, half):
    """Two equal Generators, with a 32-bit half buffered when half is set."""
    pair = [np.random.Generator(np.random.PCG64(seed)) for _ in range(2)]
    if half:
        for rng in pair:
            rng.integers(0, 5)
    return pair


class TestApplyChannel:
    def test_noiseless_identity(self, gf8):
        word = ((1, 2), (3, 4), (5, 6))
        ch = g.ChannelModel(error_rate=0.0, erasure_rate=0.0, seed=1)
        received, pattern, errors = g.apply_channel(word, gf8, ch)
        assert received == word
        assert all(not x for x in pattern)
        assert all(all(e == 0 for e in row) for row in errors)

    def test_certain_flip_binary_complements(self, gf2):
        word = ((1, 0, 1, 1, 0),)
        ch = g.ChannelModel(error_rate=1.0, erasure_rate=0.0, seed=2)
        received, pattern, errors = g.apply_channel(word, gf2, ch)
        assert received == ((0, 1, 0, 0, 1),)
        assert all(e == 1 for e in errors[0])

    def test_seed_determinism(self, gf8):
        word = tuple(tuple((i + j) % 8 for j in range(4)) for i in range(5))
        ch = g.ChannelModel(error_rate=0.3, erasure_rate=0.2, seed=42)
        assert g.apply_channel(word, gf8, ch) == g.apply_channel(word, gf8, ch)
        other = g.ChannelModel(error_rate=0.3, erasure_rate=0.2, seed=43)
        assert g.apply_channel(word, gf8, other) != g.apply_channel(word, gf8, ch)

    def test_erasures_zeroed_and_recorded(self, gf8):
        word = ((7,) * 8,) * 4
        ch = g.ChannelModel(error_rate=0.0, erasure_rate=0.5, seed=3)
        received, pattern, errors = g.apply_channel(word, gf8, ch)
        seen = 0
        for row, erased, err_row in zip(received, pattern, errors):
            for j, value in enumerate(row):
                if j in erased:
                    seen += 1
                    assert value == 0
                    assert err_row[j] == 0
                else:
                    assert value == 7
        assert seen > 0

    def test_flat_word(self, gf4):
        ch = g.ChannelModel(error_rate=0.5, erasure_rate=0.0, seed=4)
        received, erased, errors = g.apply_channel((0, 1, 2, 3, 0, 1), gf4, ch)
        assert isinstance(erased, frozenset)
        assert len(received) == 6

    def test_validation(self):
        with pytest.raises(g.ConfigError):
            g.ChannelModel(error_rate=0.7, erasure_rate=0.5)
        with pytest.raises(g.ConfigError):
            g.ChannelModel(error_rate=-0.1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"error_rate": 0.1, "seed": 3.7},
            {"error_rate": 0.1, "seed": "3"},
            {"error_rate": 0.1, "seed": True},
            {"error_rate": 0.1, "seed": None},
            {"error_rate": 0.1, "seed": -1},
            {"error_rate": True},
            {"error_rate": "0.1"},
            {"error_rate": None},
            {"error_rate": 0.1, "erasure_rate": "0"},
            {"error_rate": 0.1, "erasure_rate": False},
        ],
        ids=repr,
    )
    def test_malformed_rates_and_seeds_are_config_errors(self, kwargs):
        with pytest.raises(g.ConfigError):
            g.ChannelModel(**kwargs)

    def test_integer_seed_types_are_accepted(self):
        ch = g.ChannelModel(error_rate=1, erasure_rate=0, seed=np.int64(7))
        assert type(ch.seed) is int and ch == g.ChannelModel(error_rate=1, seed=7)


class TestRawStream:
    @pytest.mark.parametrize("half", [False, True], ids=["no-half", "half"])
    @pytest.mark.parametrize("hi", HIGHS)
    def test_draws_match_numpy(self, hi, half):
        # random() and integers() interleaved, ranges with and without
        # rejections, a 32-bit half buffered or not at the start
        mine, theirs = _generators(hi % 1000 + 17, half)
        stream = RawStream.borrow(mine)
        for step in range(300):
            lo = (0, 1, hi // 3)[step % 3]
            if step % 4 == 3:
                assert stream.random() == theirs.random()
            else:
                assert stream.integers(lo, hi) == int(theirs.integers(lo, hi))
        stream.release()
        assert mine.bit_generator.state == theirs.bit_generator.state
        assert mine.integers(0, 7, size=5).tolist() == theirs.integers(0, 7, size=5).tolist()

    def test_a_range_of_one_draws_nothing(self):
        stream = trial_stream(g.ChannelModel(0.1, seed=3))
        assert [stream.integers(4, 5) for _ in range(3)] == [4] * 3
        assert stream.random() == g.trial_rng(g.ChannelModel(0.1, seed=3)).random()

    def test_reserve_fetches_only_the_shortfall(self):
        stream = trial_stream(g.ChannelModel(0.1, seed=4))
        stream.reserve(5)
        stream.random()
        stream.reserve(5)  # four buffered: fetches one
        rng = g.trial_rng(g.ChannelModel(0.1, seed=4))
        rng.bit_generator.advance(6)
        assert stream.bit_generator.state == rng.bit_generator.state

    def test_release_writes_the_half_back_only_when_changed(self):
        class Spy:
            """A bit generator that records the states written to it."""

            def __init__(self, bit_generator):
                self.bit_generator, self.writes = bit_generator, []
                self.random_raw = bit_generator.random_raw

            @property
            def state(self):
                return self.bit_generator.state

            @state.setter
            def state(self, value):
                self.writes.append(value)
                self.bit_generator.state = value

        spy = Spy(_generators(5, True)[0].bit_generator)
        stream = RawStream.borrow(SimpleNamespace(bit_generator=spy))
        stream.random()
        stream.release()
        assert spy.writes == []
        stream.integers(0, 3)  # takes the buffered half
        stream.release()
        assert [(w["has_uint32"], w["uinteger"]) for w in spy.writes] == [(0, stream._half)]

    @pytest.mark.parametrize("half", [False, True], ids=["no-half", "half"])
    @pytest.mark.parametrize("hi", HIGHS)
    def test_batch_draws_match_numpy(self, hi, half):
        # integers_many against numpy's scalar calls: counts of either
        # parity, an empty batch, and random() between batches; 3 * 2^30
        # rejects inside nearly every batch, so the rejection loop runs too
        mine, theirs = _generators(hi % 1000 + 29, half)
        stream = RawStream.borrow(mine)
        for step, count in enumerate((0, 1, 2, 3, 40, 41, 7, 160, 1)):
            lo = (0, 1, hi // 3)[step % 3]
            assert stream.integers_many(lo, hi, count) == [int(theirs.integers(lo, hi)) for _ in range(count)]
            assert stream.random() == theirs.random()
        stream.release()
        assert mine.bit_generator.state == theirs.bit_generator.state
        assert mine.integers(0, 7, size=5).tolist() == theirs.integers(0, 7, size=5).tolist()

    @pytest.mark.parametrize("count", [1, 2, 5, 40])
    def test_a_batch_reads_only_its_own_outputs(self, count):
        # from a fresh stream and after a reserve that covers more
        channel = g.ChannelModel(0.1, seed=6)
        for extra in (0, 9):
            stream, rng = trial_stream(channel), g.trial_rng(channel)
            stream.reserve((count + 1) // 2 + extra)
            assert stream.integers_many(0, 256, count) == rng.integers(0, 256, size=count).tolist()
            state = rng.bit_generator.state
            assert (stream._has, stream._half) == (state["has_uint32"], state["uinteger"])
            assert stream._block[::-1] == rng.bit_generator.random_raw(extra).tolist()
            assert stream.bit_generator.state["state"] == rng.bit_generator.state["state"]


class TestChannelStream:
    """apply_channel against the per-draw reference loop, bit for bit."""

    @pytest.fixture(scope="class")
    def fields(self):
        gf2, gf16 = g.make_field(2, 1), g.make_field(2, 4)
        out = [g.make_field(p, m) for p, m in ((2, 1), (3, 1), (7, 1), (2, 3), (3, 2), (2, 4))]
        out += [g.extend_field(gf2, 2), g.extend_field(gf16, 2)]
        # past the 32-bit Lemire path: a plain 32-bit draw and 64-bit Lemire
        # (only q and add are read, so stand-ins spare building GF(2^33))
        out += [SimpleNamespace(q=q, add=operator.xor) for q in (2**32 + 1, 2**33)]
        return out

    @pytest.mark.parametrize("half", [False, True], ids=["no-half", "half"])
    @pytest.mark.parametrize("flat", [False, True], ids=["matrix", "flat"])
    @pytest.mark.parametrize("rates", RATES, ids=str)
    def test_matches_reference_loop(self, fields, rates, flat, half):
        for f in fields:
            seed = f.q % 997 + int(flat) + 2 * int(half)
            channel = g.ChannelModel(error_rate=rates[0], erasure_rate=rates[1], seed=seed)
            word = tuple(tuple((7 * i + 3 * j) % f.q for j in range(9)) for i in range(6))
            if flat:
                word = word[0] + word[1]
            mine, theirs = _generators(seed, half)
            got = g.apply_channel(word, f, channel, rng=mine)
            assert got == reference_channel(word, f, channel, theirs), f.q
            assert mine.bit_generator.state == theirs.bit_generator.state, f.q
            assert mine.random() == theirs.random()
            assert mine.integers(0, 3, size=4).tolist() == theirs.integers(0, 3, size=4).tolist()

    @pytest.mark.parametrize("rates", RATES, ids=str)
    def test_trial_stream_matches_trial_rng(self, fields, rates):
        channel = g.ChannelModel(error_rate=rates[0], erasure_rate=rates[1], seed=21)
        for trial, f in enumerate(fields):
            word = tuple(tuple((i + j) % f.q for j in range(5)) for i in range(4))
            expect = reference_channel(word, f, channel, g.trial_rng(channel, trial))
            assert g.apply_channel(word, f, channel, trial=trial) == expect
            stream = trial_stream(channel, trial)
            assert g.apply_channel(word, f, channel, rng=stream) == expect
            assert stream._block == []  # nothing was read ahead

    @pytest.mark.parametrize("half", [False, True], ids=["no-half", "half"])
    @pytest.mark.parametrize("rates", [(0.3, 0.1), (1.0, 0.0), (0.5, 0.5)], ids=str)
    def test_long_words_match_reference_loop(self, fields, rates, half):
        # 64 x 15 words on a stream whose caller reserved one output per
        # symbol: error values shift the symbols past the reserved block,
        # so the channel scans again and fetches the rest
        gf16 = next(f for f in fields if f.q == 16)
        for f in (gf16, *(f for f in fields if f.q > 1 << 32)):
            seed = f.q % 991 + 2 * int(half)
            channel = g.ChannelModel(error_rate=rates[0], erasure_rate=rates[1], seed=seed)
            word = tuple(tuple((5 * i + 11 * j) % f.q for j in range(15)) for i in range(64))
            mine, theirs = _generators(seed, half)
            stream = RawStream.borrow(mine)
            stream.reserve(64 * 15)
            assert g.apply_channel(word, f, channel, rng=stream) == reference_channel(word, f, channel, theirs)
            assert stream._block == []
            assert mine.bit_generator.state == theirs.bit_generator.state, f.q
            assert mine.integers(0, 3, size=4).tolist() == theirs.integers(0, 3, size=4).tolist()

    @pytest.mark.parametrize("rate", [0.0, 0.1, 0.3, 1 / 3, 0.5, 0.9999, 1.0, 2.0**-60])
    def test_thresholds_match_random(self, rate):
        # raw outputs around the threshold classify as random() < rate does
        from gccodec.channel import _below

        bound = _below(rate)
        for raw in range(max(0, bound - 4100), min(2**64, bound + 4100), 7):
            assert (raw < bound) == ((raw >> 11) * 2.0**-53 < rate)

    @pytest.mark.parametrize("rates", [(0.3, 0.1), (1.0, 0.0), (0.0, 1.0)], ids=str)
    def test_ragged_rows_match_reference_loop(self, fields, rates):
        channel = g.ChannelModel(error_rate=rates[0], erasure_rate=rates[1], seed=13)
        for f in fields:
            word = tuple(tuple((3 * i + j) % f.q for j in range(n)) for i, n in enumerate((4, 0, 9, 1, 6)))
            got = g.apply_channel(word, f, channel, rng=g.trial_rng(channel))
            assert got == reference_channel(word, f, channel, g.trial_rng(channel)), f.q


class TestChannelArguments:
    """Malformed trial indices, words and generators end in CodecErrors."""

    @pytest.mark.parametrize("entry", ["trial_stream", "trial_rng", "run_trial", "apply_channel"])
    @pytest.mark.parametrize("trial", [-1, 1.5, True, "2", None], ids=repr)
    def test_malformed_trial_indices_are_config_errors(self, cc_small, gf2, trial, entry):
        channel = g.ChannelModel(0.1, seed=3)
        config = g.ExperimentConfig(spec=cc_small, channel=channel, trials=1)
        calls = {
            "trial_stream": lambda: trial_stream(channel, trial),
            "trial_rng": lambda: g.trial_rng(channel, trial),
            "run_trial": lambda: g.experiment.run_trial(config, trial),
            "apply_channel": lambda: g.apply_channel((1, 0, 1), gf2, channel, trial=trial),
        }
        with pytest.raises(g.ConfigError, match="trial index"):
            calls[entry]()

    def test_integer_trial_types_are_accepted(self, cc_small):
        config = g.ExperimentConfig(spec=cc_small, channel=g.ChannelModel(0.1, seed=3), trials=1)
        record = g.experiment.run_trial(config, np.int64(2))
        assert type(record["trial"]) is int
        assert record == g.experiment.run_trial(config, 2)

    def test_integer_numpy_words_read_as_their_tuples(self, gf8):
        channel = g.ChannelModel(error_rate=0.5, erasure_rate=0.2, seed=9)
        matrix = ((1, 2), (3, 4), (5, 6))
        for dtype in (np.int64, np.uint8):
            assert g.apply_channel(np.array(matrix, dtype=dtype), gf8, channel) == g.apply_channel(matrix, gf8, channel)
            got = g.apply_channel(np.array(matrix[0], dtype=dtype), gf8, channel)
            assert got == g.apply_channel(matrix[0], gf8, channel)
        flat = g.apply_channel((np.int64(1), 2, 3), gf8, channel)
        assert flat == g.apply_channel((1, 2, 3), gf8, channel)
        assert isinstance(flat[1], frozenset)

    @pytest.mark.parametrize("word", [np.array([[0.5, 1.0]]), np.array([True, False]), np.array(["1"])], ids=repr)
    def test_non_integer_arrays_are_refused(self, gf8, word):
        with pytest.raises(g.InvalidParams):
            g.apply_channel(word, gf8, g.ChannelModel(0.1, seed=1))

    @pytest.mark.parametrize("rng", [5, "7", np.random.PCG64(1), np.random.default_rng(1).bit_generator.state], ids=repr)
    def test_other_generators_are_refused(self, gf8, rng):
        with pytest.raises(g.InvalidParams, match="rng"):
            g.apply_channel(((1, 2),), gf8, g.ChannelModel(0.1, seed=1), rng=rng)


# sha256 over the JSON lines of run_trial's records, recorded with numpy's
# per-symbol Generator.random()/integers() calls
STREAM_DIGESTS = {
    "cc_small": "e462c0c6b17ed8590869d550ed0984f50499c5bda34df11ed4b44c791cb15f14",
    "mpc_uuv8": "9ce8187e265ff90b9dcb7fdbccc5a2447b95ce1fdad5e30239f308e0effa136f",
    "cc_two_cols": "133d761ff6305b53228df9fedb6c4f81aeefbf0aea026602f5a8b83644dea1a7",
    "cc_gf16_inner": "f6eeb78dca02587c0d3f461f4606a9689e652df0cd2e20c36cfdb707f7add485",
}


@pytest.mark.parametrize(
    "name,rates,mode,trials",
    [
        ("cc_small", (0.1, 0.05), "upto", 200),
        ("mpc_uuv8", (0.08, 0.0), "upto", 200),
        ("cc_two_cols", (0.05, 0.02), "beyond", 200),
        ("cc_gf16_inner", (0.1, 0.03), "upto", 40),
    ],
)
def test_run_trial_records_are_pinned(request, name, rates, mode, trials):
    """The simulation stream: seeded messages, channel and decodes."""
    if name == "cc_gf16_inner":
        gf16 = g.make_field(2, 4)
        spec = g.ConcatCode(g.rs_code(g.extend_field(gf16, 2), 16, 8), g.rs_code(gf16, 15, 8))
    else:
        spec = request.getfixturevalue(name)
    config = g.ExperimentConfig(
        spec=spec,
        channel=g.ChannelModel(error_rate=rates[0], erasure_rate=rates[1], seed=11),
        trials=trials,
        options=g.DecodeOptions(mode=mode),
    )
    digest = hashlib.sha256()
    for t in range(trials):
        digest.update(json.dumps(g.experiment.run_trial(config, t), sort_keys=True).encode())
    assert digest.hexdigest() == STREAM_DIGESTS[name]


# the same digest over the first words of each benchmark workload
# (perfbench/workloads.py, benchmark seed 1): the words the benchmark
# times decode as they did when these were recorded
WORKLOAD_DIGESTS = {
    "mpc-uuv-gf8": (300, "21efab44b944284f2ff774e0b96b5d6fe5d4045865616f7aaf1ecd159a6f68c1"),
    "cc-hamming-erasures": (300, "9ddfb09eb57ea40c4b7fd5aba48370f3db3c76aa4c62cbdef0efdd21f5de6201"),
    "cc-rs256-gf16": (100, "5414a961fa1c1ffc228a17ba45e9edb1792bae4f97762314e8581f33618b28c3"),
}


@pytest.mark.parametrize("name", sorted(WORKLOAD_DIGESTS))
def test_benchmark_workload_records_are_pinned(name):
    workloads = load_perfbench("workloads")
    config = workloads.experiment_config(workloads.WORKLOADS[name], seed=1)
    words, expect = WORKLOAD_DIGESTS[name]
    digest = hashlib.sha256()
    for t in range(words):
        digest.update(json.dumps(g.experiment.run_trial(config, t), sort_keys=True).encode())
    assert digest.hexdigest() == expect


class TestRunExperiment:
    def test_noiseless_run(self, cc_small):
        config = g.ExperimentConfig(
            spec=cc_small,
            channel=g.ChannelModel(error_rate=0.0, erasure_rate=0.0, seed=5),
            trials=20,
        )
        stats = g.run_experiment(config)
        assert stats.successes == 20
        assert stats.word_errors == 0
        assert stats.trials_max == 1
        assert not stats.violation

    def test_parallel_trials_are_rejected(self, cc_small):
        channel = g.ChannelModel(error_rate=0.15, erasure_rate=0.05, seed=6)
        for threads in (None, 1):
            g.ExperimentConfig(spec=cc_small, channel=channel, trials=60, threads=threads)
        for threads in (4, 0, 2):
            with pytest.raises(g.ConfigError):
                g.ExperimentConfig(spec=cc_small, channel=channel, trials=60, threads=threads)

    def test_jsonl_output(self, cc_small, tmp_path):
        out = tmp_path / "run.jsonl"
        config = g.ExperimentConfig(
            spec=cc_small,
            channel=g.ChannelModel(error_rate=0.1, erasure_rate=0.0, seed=7),
            trials=10,
            output=str(out),
        )
        stats = g.run_experiment(config)
        lines = out.read_text().splitlines()
        assert len(lines) == 11
        import json

        records = [json.loads(x) for x in lines]
        assert [r["trial"] for r in records[:-1]] == list(range(10))
        assert records[-1]["summary"]["trials"] == 10
        assert records[-1]["summary"]["violation"] == stats.violation

    def test_erasures_rejected_for_multistage(self, mpc_uuv8):
        config = g.ExperimentConfig(
            spec=mpc_uuv8,
            channel=g.ChannelModel(error_rate=0.1, erasure_rate=0.1, seed=8),
            trials=5,
        )
        with pytest.raises(g.ConfigError):
            g.run_experiment(config)

    def test_region_trials_never_fail(self, mpc_uuv8):
        config = g.ExperimentConfig(
            spec=mpc_uuv8,
            channel=g.ChannelModel(error_rate=0.1, erasure_rate=0.0, seed=9),
            trials=300,
        )
        stats = g.run_experiment(config)
        assert stats.in_region_failures == 0
        assert not stats.violation

    def test_gcc_channel_draws_inner_field_symbols(self, mixed_spec):
        # level 1 lives over GF(4), the word over GF(2): the channel must
        # draw GF(2) errors, not symbols of the first outer code's field
        config = g.ExperimentConfig(
            spec=mixed_spec,
            channel=g.ChannelModel(error_rate=0.1, erasure_rate=0.0, seed=3),
            trials=200,
        )
        stats = g.run_experiment(config)
        assert stats.trials == 200
        assert stats.in_region > 0
        assert stats.in_region_failures == 0
        assert not stats.violation
