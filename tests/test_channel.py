import numpy as np
import pytest

import gccodec as g


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
