import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gccodec as g
from gccodec import linalg, specio
from gccodec.block_codes import DecodeOutcome, ReedSolomonDecoder, ee_decode_many
from gccodec.concat import decode_rows


def _field(params):
    """make_field(p, m), extended by a degree s when params is (p, m, s)."""
    field = g.make_field(*params[:2])
    return g.extend_field(field, params[2]) if len(params) == 3 else field


class TestEncode:
    def test_repetition(self, gf2):
        code = g.repetition_code(gf2, 3)
        assert code.encode((1,)) == (1, 1, 1)

    def test_zero_message(self, gf8):
        code = g.rs_code(gf8, 7, 3)
        assert code.encode((0, 0, 0)) == (0,) * 7

    def test_rs_codeword_weights(self, gf8):
        code = g.rs_code(gf8, 7, 3)
        rng = random.Random(1)
        for _ in range(50):
            msg = tuple(rng.randrange(8) for _ in range(3))
            if msg == (0, 0, 0):
                continue
            assert g.wt(code.encode(msg)) >= 5

    def test_length_mismatch(self, gf2):
        with pytest.raises(g.LengthMismatch):
            g.repetition_code(gf2, 3).encode((1, 0))

    def test_message_roundtrip(self, gf8):
        code = g.rs_code(gf8, 6, 4)
        msg = (3, 0, 7, 1)
        assert code.message_of(code.encode(msg)) == msg
        assert code.contains(code.encode(msg))
        assert not code.contains((1, 0, 0, 0, 0, 0))


class TestWtPunctured:
    def test_examples(self):
        v = (1, 0, 1, 0)
        assert g.wt_punctured(v, frozenset()) == 2
        assert g.wt_punctured(v, frozenset({0})) == 1
        assert g.wt_punctured(v, frozenset({0, 2})) == 0

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            g.wt_punctured((1, 0), {5})

    def test_out_of_range_is_codec_error(self, gf8):
        with pytest.raises(g.ErasureIndexError):
            g.wt_punctured((1, 0), {-1})
        code = g.rs_code(gf8, 7, 3)
        for bad in ([99], [1.5], [[1]], 5):
            with pytest.raises(g.ErasureIndexError):
                code.decode((0,) * 7, bad)


class TestSigmaContract:
    def test_codeword_decodes_to_itself(self, gf2):
        code = g.repetition_code(gf2, 3)
        out = code.decode((1, 1, 1))
        assert out.codeword == (1, 1, 1)
        assert out.error == (0, 0, 0)
        assert out.weight == 0

    def test_single_error(self, gf2):
        code = g.repetition_code(gf2, 3)
        out = code.decode((1, 1, 0))
        assert out.codeword == (1, 1, 1)

    def test_all_erased_fails(self, gf2):
        code = g.repetition_code(gf2, 3)
        assert not code.decode((1, 1, 0), frozenset({0, 1, 2})).ok

    def test_decoder_breaching_bound_is_caught(self, gf2):
        code = g.LinearCode(gf2, [[1, 1, 1]], d=3)
        code.attach(lambda word, erasures: DecodeOutcome((0, 0, 0), word, g.wt(word)))
        with pytest.raises(g.ContractViolation):
            code.decode((1, 1, 0))

    def test_decoder_breaching_bound_is_caught_in_a_batch(self, gf2):
        # a plain callable decodes row by row, a decode_batch method in one
        # call; both outcomes meet the same bound check
        class Breaching:
            def __call__(self, word, erasures):
                return DecodeOutcome((0, 0, 0), word, g.wt(word))

            def decode_batch(self, words, erasure_sets):
                return list(map(self, words, erasure_sets))

        for decoder in (Breaching(), Breaching().__call__):
            code = g.LinearCode(gf2, [[1, 1, 1]], d=3).attach(decoder)
            assert ee_decode_many(code, [(0, 0, 0), (1, 0, 0)], [(), ()])[1].weight == 1
            with pytest.raises(g.ContractViolation):
                ee_decode_many(code, [(0, 0, 0), (1, 1, 0)], [(), ()])
            with pytest.raises(g.ContractViolation):
                ee_decode_many(code, [(1, 0, 0)], [{1}])

    def test_no_decoder(self, gf2):
        code = g.LinearCode(gf2, [[1, 1, 1]], d=3)
        with pytest.raises(g.NoDecoder):
            code.decode((1, 1, 1))
        with pytest.raises(g.NoDecoder):
            ee_decode_many(code, [(1, 1, 1)], [()])

    def test_batch_entry_point_checks_every_row(self, gf8):
        code = g.rs_code(gf8, 7, 3)
        words = [(0,) * 7] * 20
        with pytest.raises(g.LengthMismatch):
            ee_decode_many(code, words[:-1] + [(0,) * 6], [()] * 20)
        with pytest.raises(g.ErasureIndexError):
            ee_decode_many(code, words, [()] * 19 + [{7}])
        with pytest.raises(g.LengthMismatch):
            ee_decode_many(code, words, [()] * 19)
        assert ee_decode_many(code, [], []) == []

    @pytest.mark.parametrize("p,m,bad", [(7, 1, 8), (2, 3, 300), (2, 3, -1)])
    def test_symbols_are_validated(self, p, m, bad):
        field = g.make_field(p, m)
        code = g.rs_code(field, 5, 2)
        with pytest.raises(g.InvalidParams):
            code.decode((bad, 0, 0, 0, 0))


    @pytest.mark.parametrize(
        "bad", [(1.5, 0, 0, 0, 0), (0, 0, 0, 0, "1"), (True, 0, 0, 0, 0), 5, None, "00000"]
    )
    def test_malformed_words_are_rejected(self, gf8, bad):
        # symbols are not coerced with int(), which would read 1.5 and "1" as 1
        code = g.rs_code(gf8, 5, 2)
        with pytest.raises(g.InvalidParams):
            code.decode(bad)


class TestReedSolomon:
    def test_parameters(self, gf8):
        assert g.rs_code(gf8, 7, 3).distance() == 5
        assert g.rs_code(gf8, 7, 7).distance() == 1

    def test_full_rate_decoder_is_identity(self, gf8):
        code = g.rs_code(gf8, 7, 7)
        word = (5, 0, 1, 2, 7, 7, 3)
        assert code.decode(word).codeword == word
        assert not code.decode(word, frozenset({0})).ok  # |E| >= d

    def test_invalid_params(self, gf4):
        with pytest.raises(g.InvalidParams):
            g.rs_code(gf4, 5, 2)  # n > q
        with pytest.raises(g.InvalidParams):
            g.rs_code(gf4, 3, 0)

    def test_two_errors_corrected(self, gf8):
        code = g.rs_code(gf8, 7, 3)
        rng = random.Random(2)
        for _ in range(200):
            msg = tuple(rng.randrange(8) for _ in range(3))
            word = code.encode(msg)
            r = list(word)
            for p in rng.sample(range(7), 2):
                r[p] = gf8.add(r[p], rng.randrange(1, 8))
            assert code.decode(tuple(r)).codeword == word

    @pytest.mark.parametrize(
        "q_params,n,k",
        [
            ((2, 3), 7, 3),
            ((2, 3), 7, 1),
            ((2, 2), 3, 1),
            ((5, 1), 4, 2),
            ((2, 3), 6, 4),
            ((3, 2), 9, 4),  # odd characteristic
            ((7, 1), 7, 3),
            ((2, 2, 2), 8, 3),  # GF(16) as a degree-2 tower over GF(4)
        ],
    )
    def test_decoder_equals_oracle(self, q_params, n, k):
        field = _field(q_params)
        code = g.rs_code(field, n, k)
        rng = random.Random(n * 100 + k)
        for _ in range(250):
            word = tuple(rng.randrange(field.q) for _ in range(n))
            erasures = frozenset(rng.sample(range(n), rng.randrange(0, n)))
            fast = code.decode(word, erasures)
            slow = g.oracle_sigma(code, word, erasures)
            assert fast.codeword == slow.codeword
            if fast.ok:
                assert fast.weight == slow.weight
                assert code.contains(fast.codeword)

    @pytest.mark.parametrize("q_params,n,k", [((2, 3), 8, 3), ((3, 2), 9, 4), ((2, 2, 2), 8, 3)])
    @pytest.mark.parametrize("erase", [False, True])
    def test_position_zero(self, q_params, n, k, erase):
        # evaluation point 0 is the one a reciprocal locator cannot express
        field = _field(q_params)
        code = g.rs_code(field, n, k)
        rng = random.Random(n + k)
        for _ in range(20):
            sent = code.encode(tuple(rng.randrange(field.q) for _ in range(k)))
            word = list(sent)
            word[0] = field.add(word[0], rng.randrange(1, field.q))
            erasures = frozenset({0}) if erase else frozenset()
            t = (n - k - len(erasures)) // 2
            for pos in rng.sample(range(1, n), t - (not erase)):
                word[pos] = field.add(word[pos], rng.randrange(1, field.q))
            out = code.decode(tuple(word), erasures)
            assert out.codeword == sent
            assert out == g.oracle_sigma(code, word, erasures)

    @pytest.mark.parametrize(
        "q_params,n,k",
        [((2, 4, 2), 64, 40), ((2, 9), 24, 12)],  # too large for the oracle; q > 256
    )
    def test_bounded_distance_roundtrip(self, q_params, n, k):
        field = _field(q_params)
        code = g.rs_code(field, n, k)
        d = n - k + 1
        rng = random.Random(n * 100 + k)
        for _ in range(20):
            sent = code.encode(tuple(rng.randrange(field.q) for _ in range(k)))
            n_erased = rng.randrange(0, d)
            n_errors = (d - 1 - n_erased) // 2
            positions = rng.sample(range(n), n_erased + n_errors)
            erasures = frozenset(positions[:n_erased])
            word = list(sent)
            for pos in positions:
                word[pos] = field.add(word[pos], rng.randrange(1, field.q))
            out = code.decode(tuple(word), erasures)
            assert out.codeword == sent
            assert 2 * out.weight + n_erased < d

    @pytest.mark.parametrize("q_params,n,k", [((2, 3), 7, 3), ((3, 2), 9, 4), ((2, 4, 2), 40, 24)])
    def test_array_and_loop_paths_agree(self, monkeypatch, q_params, n, k):
        # syndromes and root search as array products, and as the row loop
        field = _field(q_params)
        codes = []
        for threshold in (0, 1 << 62):
            monkeypatch.setattr(linalg, "ARRAY_MIN_PRODUCTS", threshold)
            codes.append(g.rs_code(field, n, k))
        array, loop = codes
        assert array.decoder._syndromes.array is not None and loop.decoder._syndromes.array is None
        assert array.decoder._roots.array is not None and loop.decoder._roots.array is None
        rng = random.Random(n + k)
        for _ in range(150):
            sent = loop.encode(tuple(rng.randrange(field.q) for _ in range(k)))
            assert array.encode(loop.message_of(sent)) == sent
            erasures = frozenset(rng.sample(range(n), rng.randrange(0, n - k + 1)))
            word = list(sent)
            for pos in rng.sample(range(n), rng.randrange(0, n - k)):
                word[pos] = rng.randrange(field.q)
            out = array.decode(word, erasures)
            assert out == loop.decode(word, erasures)
            if q_params != (2, 4, 2):
                assert out == g.oracle_sigma(loop, word, erasures)

    @pytest.mark.parametrize("q_params,n,k", [((2, 3), 7, 3), ((2, 4), 15, 8), ((2, 8), 64, 40)])
    def test_root_search_takes_the_syndrome_path(self, q_params, n, k):
        # the two maps have the same size, so the default threshold sends
        # both to the row loop for the small codes and to arrays for RS(64,40)
        decoder = g.rs_code(_field(q_params), n, k).decoder
        assert (decoder._roots.array is None) == (decoder._syndromes.array is None) == (n < 64)

    def test_gf1024_bounded_distance_roundtrip(self):
        # RS(255,223) over GF(1024): full-length code on log tables above q = 256
        field = g.make_field(2, 10)
        n, k = 255, 223
        code = g.rs_code(field, n, k)
        d = n - k + 1
        rng = random.Random(1024)
        for trial in range(20):
            sent = code.encode(tuple(rng.randrange(field.q) for _ in range(k)))
            n_erased = rng.randrange(0, d) if trial else 0
            n_errors = (d - 1 - n_erased) // 2
            positions = rng.sample(range(n), n_erased + n_errors)
            erasures = frozenset(positions[:n_erased])
            word = list(sent)
            for pos in positions:
                word[pos] = field.add(word[pos], rng.randrange(1, field.q))
            out = code.decode(tuple(word), erasures)
            assert out.codeword == sent
            assert out.weight == n_errors and 2 * out.weight + n_erased < d

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_decoder_equals_oracle_hypothesis(self, data):
        field = g.make_field(2, 3)
        code = g.rs_code(field, 7, 3)
        word = tuple(data.draw(st.integers(0, 7)) for _ in range(7))
        erasures = frozenset(
            data.draw(st.sets(st.integers(0, 6), max_size=6))
        )
        assert code.decode(word, erasures).codeword == g.oracle_sigma(code, word, erasures).codeword


BATCH_FIELDS = {
    "GF(2)": lambda: g.make_field(2, 1),
    "GF(4)": lambda: g.make_field(2, 2),
    "GF(8)": lambda: g.make_field(2, 3),
    "GF(16)": lambda: g.make_field(2, 4),
    "GF(5)": lambda: g.make_field(5, 1),
    "GF(7)": lambda: g.make_field(7, 1),
    "GF(9)": lambda: g.make_field(3, 2),
    "GF(27)/GF(3)": lambda: g.extend_field(g.make_field(3, 1), 3),
}


def random_batch(code, rng, size, beyond=2):
    """size received words of code, each with its own erasure set (up to d
    erasures) and up to `beyond` errors past the error-and-erasure radius."""
    f, n, d = code.field, code.n, code.distance()
    words, erasure_sets = [], []
    for _ in range(size):
        word = list(code.encode([rng.randrange(f.q) for _ in range(code.k)]))
        erasures = rng.sample(range(n), rng.randrange(0, min(n, d) + 1))
        kept = [i for i in range(n) if i not in erasures]
        errors = rng.sample(kept, min(len(kept), rng.randrange(0, (d - len(erasures)) // 2 + beyond + 1)))
        for i in erasures + errors:
            word[i] = f.add(word[i], rng.randrange(1, f.q) if i in errors else rng.randrange(f.q))
        words.append(tuple(word))
        erasure_sets.append(frozenset(erasures))
    return words, erasure_sets


def per_row_twin(code):
    """code with its decoder attached as a plain callable, which has no
    decode_batch, so every row goes through ee_decode on its own."""
    twin = g.LinearCode(code.field, code.generator, d=code.distance())
    return twin.attach(code.decoder.__call__)


class TestBatchDecode:
    """ReedSolomonDecoder.decode_batch against the scalar decoder and the oracle."""

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_batch_equals_scalar_and_oracle_hypothesis(self, data):
        field = BATCH_FIELDS[data.draw(st.sampled_from(sorted(BATCH_FIELDS)))]()
        n = data.draw(st.integers(1, min(field.q, 12)))
        k = data.draw(st.integers(1, max(k for k in range(1, n + 1) if field.q**k <= 1024 or k == 1)))
        size = data.draw(st.sampled_from([1, 7, linalg.BATCH_MIN_ROWS - 1, linalg.BATCH_MIN_ROWS, 32, 48, 64]))
        code = g.rs_code(field, n, k)
        rng = random.Random(data.draw(st.integers(0, 1 << 32)))
        words, erasure_sets = random_batch(code, rng, size)
        batch = code.decoder.decode_batch(words, erasure_sets)
        assert batch == [code.decoder(w, x) for w, x in zip(words, erasure_sets)]
        assert batch == [g.oracle_sigma(code, w, x) for w, x in zip(words, erasure_sets)]
        # decode_rows: the same RowDecodeResult through the batch and the per-row path
        twin = per_row_twin(code)
        assert decode_rows(code, words, erasure_sets) == decode_rows(twin, words, erasure_sets)
        t = (n - k) // 2
        if t + 1 < n:
            errors_only = [frozenset()] * size
            assert decode_rows(code, words, errors_only, t + 1) == decode_rows(twin, words, errors_only, t + 1)

    @pytest.mark.parametrize(
        "make,n,k",
        [
            (lambda: g.make_field(2, 4), 15, 8),
            (lambda: g.extend_field(g.make_field(2, 4), 2), 64, 40),
            (lambda: g.make_field(3, 2), 9, 3),
            (lambda: g.make_field(65537, 1), 20, 9),  # a prime field above 2^16 is vectorised
        ],
    )
    def test_crossover_picks_the_path(self, monkeypatch, make, n, k):
        solved = []
        solve = ReedSolomonDecoder._solve_arrays
        monkeypatch.setattr(
            ReedSolomonDecoder, "_solve_arrays", lambda self, w, x, s: solved.append(len(w)) or solve(self, w, x, s)
        )
        code = g.rs_code(make(), n, k)
        f, rng, edge = code.field, random.Random(n), linalg.BATCH_MIN_ROWS
        for size, nonzero, calls in [(edge - 1, edge - 1, []), (40, edge - 1, []), (40, edge, [edge]), (40, 40, [40])]:
            # rows below `nonzero` carry one error, erased on every other row
            words, erasure_sets = [], []
            for i in range(size):
                word = list(code.encode([rng.randrange(f.q) for _ in range(k)]))
                pos = rng.randrange(n)
                if i < nonzero:
                    word[pos] = f.add(word[pos], rng.randrange(1, f.q))
                words.append(tuple(word))
                erasure_sets.append(frozenset({pos}) if i < nonzero and i % 2 else frozenset())
            solved.clear()
            batch = code.decoder.decode_batch(words, erasure_sets)
            assert batch == [code.decoder(w, x) for w, x in zip(words, erasure_sets)]
            assert all(out.ok for out in batch)
            assert solved == calls

    def test_fields_above_the_tables_stay_scalar(self, monkeypatch):
        monkeypatch.setattr(ReedSolomonDecoder, "_solve_arrays", None)
        code = g.rs_code(g.make_field(2, 17), 12, 6)
        words, erasure_sets = random_batch(code, random.Random(17), 40)
        assert code.decoder.decode_batch(words, erasure_sets) == [
            code.decoder(w, x) for w, x in zip(words, erasure_sets)
        ]


class TestMinDistance:
    def test_examples(self, gf2, gf8):
        assert g.min_distance(g.repetition_code(gf2, 3)) == 3
        assert g.min_distance(g.rs_code(gf8, 7, 3)) == 5
        full = g.LinearCode(gf2, [[1, 0], [0, 1]])
        assert g.min_distance(full) == 1

    def test_mds_sweep(self):
        for p, m in ((2, 2), (5, 1), (2, 3)):
            field = g.make_field(p, m)
            for n in range(2, min(field.q, 6) + 1):
                for k in range(1, n + 1):
                    if field.q**k > 1 << 16:
                        continue
                    assert g.min_distance(g.rs_code(field, n, k)) == n - k + 1

    def test_cap(self, gf2):
        identity = [[int(i == j) for j in range(21)] for i in range(21)]  # 2^21 codewords
        with pytest.raises(g.TooLargeToEnumerate):
            g.min_distance(g.LinearCode(gf2, identity))

    def test_uniqueness_within_half_distance(self, gf2, inner_523):
        # no received word has two codewords within (d-1)/2
        d = inner_523.distance()
        for word in itertools.product(range(2), repeat=5):
            close = [
                c
                for c in inner_523.codewords()
                if 2 * sum(1 for a, b in zip(word, c) if a != b) < d
            ]
            assert len(close) <= 1


class TestSerialization:
    def test_rs_roundtrip(self, gf8):
        code = g.rs_code(gf8, 7, 3)
        d = specio.code_to_json(code)
        code2 = specio.code_from_json(d)
        assert code2.generator == code.generator
        assert code2.distance() == 5

    def test_generic_roundtrip(self, inner_523):
        d = specio.code_to_json(inner_523)
        code2 = specio.code_from_json(d)
        assert code2.generator == inner_523.generator
        assert code2.distance() == 3
