import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gccodec as g
from gccodec import block_codes, linalg, specio
from gccodec.block_codes import BATCH_MIN_ROWS, DecodeOutcome, ReedSolomonDecoder, _berlekamp_massey
from gccodec.concat import decode_rows
from gccodec.selftest import odd_syndrome_word, per_row_twin, solve_batch_words
from conftest import GEN_HAMMING_7_4_3, array_kernel


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

    @pytest.mark.parametrize(
        "make,n,k",
        [
            (lambda: g.make_field(2, 1), 7, 4),  # a Hamming code, on a table
            (lambda: g.make_field(2, 3), 7, 3),  # RS(7,3): tables
            (lambda: g.make_field(2, 3), 7, 5),  # RS(7,5): row loops
            (lambda: g.make_field(3, 2), 8, 3),
            (lambda: g.make_field(2, 4), 15, 8),
            (lambda: g.extend_field(g.make_field(2, 4), 2), 64, 40),  # arrays
        ],
    )
    def test_contains_agrees_with_reencoding(self, make, n, k):
        f = make()
        code = g.generic_code(f, GEN_HAMMING_7_4_3) if f.q == 2 else g.rs_code(f, n, k)
        rng = random.Random(n * k)
        for trial in range(40):
            word = code.encode([rng.randrange(f.q) for _ in range(k)])
            if trial % 2:
                pos = rng.randrange(n)
                word = word[:pos] + (f.add(word[pos], rng.randrange(1, f.q)),) + word[pos + 1 :]
            assert code.contains(word) == (code.encode(code.message_of(word)) == word) == (trial % 2 == 0)
            assert code.holds(word) == code.contains(word)

    @pytest.mark.parametrize("symbol", [-1, "q", 1.5, True, "1"])
    @pytest.mark.parametrize("rs", [True, False], ids=["RS(7,5)/GF(8)", "Hamming"])
    def test_message_of_and_contains_check_symbols(self, gf2, gf8, rs, symbol):
        # as encode and decode do: a word whose symbols are not elements
        code = g.rs_code(gf8, 7, 5) if rs else g.generic_code(gf2, GEN_HAMMING_7_4_3)
        word = (code.field.q if symbol == "q" else symbol,) + (0,) * (code.n - 1)
        with pytest.raises(g.InvalidParams):
            code.message_of(word)
        with pytest.raises(g.InvalidParams):
            code.contains(word)


class TestMessageChecks:
    """encode and encode_all check each message in one pass and fall back
    to Field.vector, which names a bad symbol."""

    @pytest.mark.parametrize("bad", [8, -1, True, 1.5, "1", None], ids=repr)
    def test_a_bad_symbol_is_named(self, gf8, bad):
        code = g.rs_code(gf8, 7, 3)
        for encode in (code.encode, lambda msg: code.encode_all([(1, 2, 3), msg])):
            for msg in ((1, bad, 3), [bad, 2, 3]):
                with pytest.raises(g.InvalidParams, match=re.escape(repr(bad))):
                    encode(msg)

    def test_other_integer_sequences_read_as_their_tuples(self, gf8):
        code = g.rs_code(gf8, 7, 3)
        plain = code.encode((1, 2, 3))
        for msg in ([1, 2, 3], np.array([1, 2, 3]), (np.int64(1), 2, 3), range(1, 4)):
            assert code.encode(msg) == plain
            assert code.encode_all([msg, (1, 2, 3)]) == [plain, plain]

    @pytest.mark.parametrize("msg", [(1, 2), (), (1, 2, 3, 4), 5], ids=repr)
    def test_wrong_lengths_and_non_sequences(self, gf8, msg):
        code = g.rs_code(gf8, 7, 3)
        error = g.InvalidParams if msg == 5 else g.LengthMismatch
        for encode in (code.encode, lambda m: code.encode_all([(1, 2, 3), m])):
            with pytest.raises(error):
                encode(msg)

    def test_plain_messages_take_no_symbol_calls(self, monkeypatch):
        f = g.extend_field(g.make_field(2, 4), 2)
        code = g.rs_code(f, 64, 40)
        msgs = [tuple(range(i, i + 40)) for i in range(4)]
        expect = code.encode_all(msgs)
        monkeypatch.setattr(f, "validate", lambda a: pytest.fail(f"validate({a!r})"))
        assert code.encode_all(msgs) == expect
        assert code.encode(msgs[0]) == expect[0]


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
        # a plain callable has no decode_arrays, so decode_rows sends each
        # row through concat.ee_decode, the unchecked bounded step
        # (block_codes.bounded_decode), which still holds it to the bound
        code = g.LinearCode(gf2, [[1, 1, 1]], d=3)
        code.attach(lambda word, erasures: DecodeOutcome((0, 0, 0), word, g.wt(word)))
        assert decode_rows(code, [(0, 0, 0), (1, 0, 0)], [frozenset()] * 2).weights == [3, 1]
        with pytest.raises(g.ContractViolation):
            decode_rows(code, [(0, 0, 0), (1, 1, 0)], [frozenset()] * 2)
        with pytest.raises(g.ContractViolation):
            decode_rows(code, [(1, 0, 0)], [frozenset({1})])

    def test_decoder_breaching_bound_is_caught_in_its_arrays(self, gf2):
        # decode_rows reads a decoder's decode_arrays and holds every decoded
        # row to the bound there: (0, 0, 0) is 2 errors from (1, 1, 0), and
        # 1 error plus 1 erasure from (1, 0, 0) with {1} erased
        class Breaching:
            def __init__(self, ok):
                self.ok = ok

            def decode_arrays(self, words, erasure_sets):
                errors = np.array(words, dtype=np.int64)
                weights = np.array([g.wt_punctured(w, x) for w, x in zip(words, erasure_sets)])
                return errors ^ errors * self.ok, errors * self.ok, weights * self.ok, np.full(len(words), self.ok)

        code = g.LinearCode(gf2, [[1, 1, 1]], d=3).attach(Breaching(True))
        rd = decode_rows(code, [(0, 0, 0), (1, 0, 0)], [frozenset()] * 2)
        assert rd.weights == [3, 1] and rd.apparents == [0, 1] and rd.estimates == [(0, 0, 0)] * 2
        with pytest.raises(g.ContractViolation):
            decode_rows(code, [(0, 0, 0), (1, 1, 0)], [frozenset()] * 2)
        with pytest.raises(g.ContractViolation):
            decode_rows(code, [(1, 0, 0)], [frozenset({1})])
        # a failed row is not held to the bound
        code.attach(Breaching(False))
        rd = decode_rows(code, [(1, 1, 0)], [frozenset()])
        assert rd.failed == [True] and rd.estimates == [(1, 1, 0)] and rd.weights == [0]

    def test_no_decoder(self, gf2):
        code = g.LinearCode(gf2, [[1, 1, 1]], d=3)
        with pytest.raises(g.NoDecoder):
            code.decode((1, 1, 1))
        with pytest.raises(g.NoDecoder):
            decode_rows(code, [(1, 1, 1)], [frozenset()])

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
    def test_array_and_loop_paths_agree(self, monkeypatch, array_calls, q_params, n, k):
        # syndromes and root search as array products (packed tables over
        # GF(8) and GF(256)/GF(16), Field.matmul over GF(9)), and as the row
        # loop, pinned per call by ARRAY_MIN_PRODUCTS
        field = _field(q_params)
        code = g.rs_code(field, n, k)
        for rowmap in (code.decoder._syndromes, code.decoder._roots):
            assert rowmap.table is None and rowmap.array is not None

        def decode_at(threshold, word, erasures):
            monkeypatch.setattr(linalg, "ARRAY_MIN_PRODUCTS", threshold)
            array_calls.clear()
            out = code.decode(word, erasures)
            kernels = {kernel for kernel, _ in array_calls}
            assert kernels == ({array_kernel(field)} if threshold == 0 else set())
            return out

        rng = random.Random(n + k)
        for _ in range(150):
            sent = code.encode(tuple(rng.randrange(field.q) for _ in range(k)))
            assert code.encode(code.message_of(sent)) == sent
            erasures = frozenset(rng.sample(range(n), rng.randrange(0, n - k + 1)))
            word = list(sent)
            for pos in rng.sample(range(n), rng.randrange(0, n - k)):
                word[pos] = rng.randrange(field.q)
            out = decode_at(0, word, erasures)
            assert out == decode_at(1 << 62, word, erasures)
            if q_params != (2, 4, 2):
                assert out == g.oracle_sigma(code, word, erasures)

    @pytest.mark.parametrize("q_params,n,k", [((2, 3), 7, 3), ((2, 4), 15, 8), ((2, 8), 64, 40)])
    def test_root_search_takes_the_syndrome_path(self, array_calls, q_params, n, k):
        # a word makes as many products in the root search as in the
        # syndromes, so the default threshold sends both to the row loop for
        # the small codes and to packed tables for RS(64,40)
        code = g.rs_code(_field(q_params), n, k)
        word = list(code.encode((1,) * k))
        word[3] ^= 1
        array_calls.clear()
        assert code.decode(word).weight == 1
        assert array_calls == ([("packed", (1, 64)), ("packed", (1, 24))] if n == 64 else [])

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


@pytest.mark.parametrize(
    "params,sizes",
    [
        ((7, 1), [(7, 1), (7, 3), (7, 7), (5, 2)]),
        ((2, 3), [(8, 4), (7, 5), (8, 1)]),
        ((3, 2), [(9, 4), (9, 9), (6, 2)]),
        ((2, 4), [(16, 8), (15, 8), (16, 16), (4, 2)]),
        ((2, 8), [(64, 40), (255, 20), (20, 3)]),
    ],
    ids=str,
)
def test_rs_inverse_is_the_eliminations(params, sizes):
    """rs_code's Lagrange-basis right inverse is the matrix that
    linalg.right_inverse gives for the same generator."""
    f = g.make_field(*params)
    for n, k in sizes:
        code = g.rs_code(f, n, k)
        assert code.inverse.matrix == linalg.right_inverse(f, code.generator)


class TestErasureOnlySolve:
    """A zero Forney syndrome means no errors past the erasures: the solve
    skips Berlekamp-Massey and corrects only the erased symbols."""

    @pytest.mark.parametrize("params", [(2, 3), (3, 2), (7, 1), (2, 4, 2)], ids=str)
    def test_berlekamp_massey_of_zeros(self, params):
        f = _field(params)
        for length in range(31):
            assert _berlekamp_massey(f, [0] * length) == ([1], 0)

    @pytest.mark.parametrize(
        "q_params,n,k",
        [((2, 4, 2), 64, 40), ((2, 3), 7, 5), ((3, 2), 9, 4), ((7, 1), 7, 3)],
        ids=["RS(64,40)/GF(256)", "RS(7,5)/GF(8)", "RS(9,4)/GF(9)", "RS(7,3)/GF(7)"],
    )
    def test_erasures_alone_are_corrected(self, q_params, n, k):
        field = _field(q_params)
        code = g.rs_code(field, n, k)
        d = n - k + 1
        rng = random.Random(n * k)
        for size in range(1, d):
            for _ in range(4):
                sent = code.encode(tuple(rng.randrange(field.q) for _ in range(k)))
                erasures = frozenset(rng.sample(range(n), size))
                word = list(sent)
                for i in erasures:
                    word[i] = field.add(word[i], rng.randrange(1, field.q))
                out = code.decode(tuple(word), erasures)
                assert out.codeword == sent
                assert out.error == tuple(field.sub(a, b) for a, b in zip(word, sent))
                assert out.weight == 0
                if n <= 9:
                    assert out == g.oracle_sigma(code, word, erasures)


ERASURE_MAP_CODES = {
    "RS(7,3)/GF(7)": ((7, 1), 7, 3),
    "RS(7,3)/GF(8)": ((2, 3), 7, 3),
    "RS(9,4)/GF(9)": ((3, 2), 9, 4),
    "RS(15,3)/GF(16)": ((2, 4), 15, 3),
    "RS(64,40)/GF(256)": ((2, 4, 2), 64, 40),
}


def spy_on_full_solve(monkeypatch, dec):
    """The erasure sets of the calls that reach dec._solve, in order."""
    seen = []
    solve = dec._solve
    monkeypatch.setattr(dec, "_solve", lambda word, x, synd: seen.append(x) or solve(word, x, synd))
    return seen


def full_solve(dec, word, erasures):
    """What the decoder returned before the erasure-only solve: _solve on
    every word with fewer than d erasures."""
    return ReedSolomonDecoder._solve(dec, word, erasures, dec._syndromes.row(word))


def erased_word(code, rng, erasures):
    """(sent codeword, received word) with random symbols at the erasures,
    some of which may equal the sent ones."""
    f = code.field
    sent = code.encode(tuple(rng.randrange(f.q) for _ in range(code.k)))
    word = list(sent)
    for i in erasures:
        word[i] = rng.randrange(f.q)
    return sent, tuple(word)


class TestErasureMaps:
    """The erasure-only solve from a per-set map W_X against the full solve
    and the oracle.  Where the map is wrong the re-check hands the word to
    the full solve, which still decodes it, so a spy on _solve checks the
    path too: exactly the words whose decode has no error past X (with X
    nonempty and a nonzero syndrome) must not reach it."""

    @pytest.mark.parametrize("name", sorted(ERASURE_MAP_CODES))
    def test_equals_the_full_solve_and_the_oracle(self, monkeypatch, name):
        q_params, n, k = ERASURE_MAP_CODES[name]
        field = _field(q_params)
        code = g.rs_code(field, n, k)
        dec, d = code.decoder, n - k + 1
        seen = spy_on_full_solve(monkeypatch, dec)
        rng = random.Random(n * k + field.q)
        kinds = {"erasures": 0, "errors": 0, "zero syndrome": 0}
        for size in range(d):
            for kind in ("erasures", "errors", "codeword") * 3:
                erasures = frozenset(rng.sample(range(n), size))
                sent, word = erased_word(code, rng, erasures)
                if kind == "errors":  # 1 to t_X + 1 errors past the erasures
                    kept = [i for i in range(n) if i not in erasures]
                    word = list(word)
                    for i in rng.sample(kept, min(len(kept), rng.randint(1, (d - 1 - size) // 2 + 1))):
                        word[i] = field.add(word[i], rng.randrange(1, field.q))
                    word = tuple(word)
                elif kind == "codeword":
                    word = sent
                seen.clear()
                out = dec(word, erasures)
                assert out == full_solve(dec, word, erasures)
                if field.q**k <= 4096:
                    assert out == g.oracle_sigma(code, word, erasures)
                nonzero = any(dec._syndromes.row(word))
                fast = bool(erasures) and nonzero and out.ok and out.weight == 0
                assert seen == ([] if fast else [erasures])
                if fast and kind == "erasures":
                    assert out.codeword == sent
                    kinds["erasures"] += any(word[i] == sent[i] for i in erasures)
                kinds["errors"] += kind == "errors" and bool(erasures) and bool(seen)
                kinds["zero syndrome"] += bool(erasures) and not nonzero
        # the draws reach each case: an erased symbol received correctly,
        # an error past a nonempty X, a nonempty X with a zero syndrome
        assert all(kinds.values()), kinds

    def test_sets_lists_and_tuples_share_one_map(self, monkeypatch):
        code = g.rs_code(g.make_field(2, 4), 15, 3)
        dec = code.decoder
        seen = spy_on_full_solve(monkeypatch, dec)
        rng = random.Random(3)
        erasures = frozenset({1, 4, 6, 9, 13})
        _, word = erased_word(code, rng, erasures)
        while not any(dec._syndromes.row(word)):
            _, word = erased_word(code, rng, erasures)
        want = full_solve(dec, word, erasures)
        for form in (frozenset, set, list, tuple, lambda x: sorted(x, reverse=True)):
            assert dec(word, form(erasures)) == want
        assert want.ok and not seen
        assert list(dec._erasure_maps) == [erasures]

    def test_the_cache_keeps_the_last_sets(self, monkeypatch):
        code = g.rs_code(_field((2, 4, 2)), 64, 40)
        dec = code.decoder
        seen = spy_on_full_solve(monkeypatch, dec)
        rng = random.Random(5)
        bound = block_codes._ERASURE_MAPS

        def decode(x):
            sent, word = erased_word(code, rng, x)
            i = min(x)
            word = word[:i] + (code.field.add(sent[i], 1),) + word[i + 1 :]  # a nonzero syndrome
            out = dec(word, x)
            assert out == full_solve(dec, word, x) and out.codeword == sent

        sets = []
        while len(sets) < 3 * bound:
            x = frozenset(rng.sample(range(64), rng.randint(1, 24)))
            if x not in sets:
                sets.append(x)
        for _ in range(2):
            for x in sets:
                decode(x)
                assert list(dec._erasure_maps)[-1] == x
                assert len(dec._erasure_maps) <= bound
        assert list(dec._erasure_maps) == sets[-bound:]
        # a set in use moves to the back, and the least recently used goes
        decode(sets[-bound])
        assert list(dec._erasure_maps) == sets[1 - bound :] + [sets[-bound]]
        decode(frozenset(range(10)))
        assert list(dec._erasure_maps) == sets[2 - bound :] + [sets[-bound], frozenset(range(10))]
        assert not seen

    def test_nothing_is_built_without_an_erasure_only_solve(self):
        code = g.rs_code(_field((2, 4, 2)), 64, 40)
        dec = code.decoder
        assert dec._erasure_maps == {}
        sent = code.encode(tuple(range(40)))
        word = (sent[0] ^ 1,) + sent[1:]
        assert dec(word, frozenset()).codeword == sent  # no erasures
        assert dec(sent, frozenset({0, 5})).codeword == sent  # a zero syndrome
        assert dec(word, frozenset(range(25))) == block_codes.FAILURE  # |X| >= d
        assert dec._erasure_maps == {}


class TestBatchDecode:
    """ReedSolomonDecoder.decode_arrays, read through decode_rows, against
    the scalar decoder row by row and the oracle."""

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_batch_equals_scalar_and_oracle_hypothesis(self, data):
        field = BATCH_FIELDS[data.draw(st.sampled_from(sorted(BATCH_FIELDS)))]()
        n = data.draw(st.integers(1, min(field.q, 12)))
        k = data.draw(st.integers(1, max(k for k in range(1, n + 1) if field.q**k <= 1024 or k == 1)))
        size = data.draw(st.sampled_from([1, 7, BATCH_MIN_ROWS - 1, BATCH_MIN_ROWS, 32, 48, 64]))
        code = g.rs_code(field, n, k)
        rng = random.Random(data.draw(st.integers(0, 1 << 32)))
        words, erasure_sets = random_batch(code, rng, size)
        scalar = [code.decoder(w, x) for w, x in zip(words, erasure_sets)]
        assert scalar == [g.oracle_sigma(code, w, x) for w, x in zip(words, erasure_sets)]
        # decode_rows: the same RowDecodeResult from decode_arrays and row by row
        twin = per_row_twin(code)
        assert decode_rows(code, words, erasure_sets) == decode_rows(twin, words, erasure_sets)
        # the extended radius takes the per-row path for every decoder; it
        # keeps each row the plain decode (from decode_arrays) takes, and
        # retries each row it fails once more
        t = (n - k) // 2
        if t + 1 < n:
            errors_only = [frozenset()] * size
            plain, wide = decode_rows(code, words, errors_only), decode_rows(code, words, errors_only, t + 1)
            assert wide.arrays is None and wide.invocations == size + sum(plain.failed)
            for row in zip(plain.estimates, plain.residuals, plain.failed, wide.estimates, wide.residuals):
                assert row[2] or row[:2] == row[3:]

    @pytest.mark.parametrize(
        "make,n,k",
        [
            (lambda: g.make_field(2, 4), 15, 8),
            (lambda: g.extend_field(g.make_field(2, 4), 2), 64, 40),
            (lambda: g.make_field(7, 1), 7, 3),
            (lambda: g.make_field(3, 2), 9, 3),  # an odd-characteristic extension: always scalar
            (lambda: g.make_field(65537, 1), 20, 9),  # a prime field above 2^16 is vectorised
        ],
    )
    def test_crossover_picks_the_path(self, monkeypatch, make, n, k):
        # rows with erasures go to _solve one by one; erasure-free rows with
        # a nonzero syndrome go to one _solve_arrays call from BATCH_MIN_ROWS
        # of them up, else to _solve as well
        solved, scalar = [], []
        solve_arrays, solve = ReedSolomonDecoder._solve_arrays, ReedSolomonDecoder._solve
        monkeypatch.setattr(
            ReedSolomonDecoder, "_solve_arrays", lambda self, w, s: solved.append(len(w)) or solve_arrays(self, w, s)
        )
        monkeypatch.setattr(
            ReedSolomonDecoder, "_solve", lambda self, w, x, s: scalar.append(bool(x)) or solve(self, w, x, s)
        )
        code = g.rs_code(make(), n, k)
        twin = per_row_twin(code)
        f, rng, edge = code.field, random.Random(n), BATCH_MIN_ROWS
        batched = f.p == 2 or f.base is None
        cases = [(edge - 1, edge - 1, 0), (40, edge - 1, 6), (40, edge, 6), (40, 20, 20), (40, 34, 6)]
        for size, clean, erased in cases:
            # `clean` rows carry one error and `erased` rows one erased error,
            # in random order; the others are codewords
            kinds = ["clean"] * clean + ["erased"] * erased + [None] * (size - clean - erased)
            rng.shuffle(kinds)
            words, erasure_sets = [], []
            for kind in kinds:
                word = list(code.encode([rng.randrange(f.q) for _ in range(k)]))
                pos = rng.randrange(n)
                if kind:
                    word[pos] = f.add(word[pos], rng.randrange(1, f.q))
                words.append(tuple(word))
                erasure_sets.append(frozenset({pos}) if kind == "erased" else frozenset())
            solved.clear()
            scalar.clear()
            rd = decode_rows(code, words, erasure_sets)
            # decode_arrays declines below the edge and in odd-characteristic
            # extensions; the decoder's __call__ then sends every erasure-free
            # row to _solve and the erasure-only solve takes the erased ones
            arrays = size >= edge and batched
            assert (rd.arrays is None) == (not arrays)
            assert solved == ([clean] if arrays and clean >= edge else [])
            assert scalar.count(True) == (erased if arrays else 0)
            assert scalar.count(False) == ((0 if clean >= edge else clean) if arrays else size - erased)
            assert rd == decode_rows(twin, words, erasure_sets)
            assert not any(rd.failed)

    def test_fields_above_the_tables_stay_scalar(self, monkeypatch):
        monkeypatch.setattr(ReedSolomonDecoder, "_solve_arrays", None)
        code = g.rs_code(g.make_field(2, 17), 12, 6)
        words, erasure_sets = random_batch(code, random.Random(17), 40)
        assert code.decoder.decode_arrays(words, erasure_sets) is None
        assert decode_rows(code, words, erasure_sets) == decode_rows(per_row_twin(code), words, erasure_sets)


LARGE_CODES = {
    "RS(15,8)/GF(16)": ((2, 4), 15, 8),
    "RS(64,40)/GF(256)": ((2, 4, 2), 64, 40),
    "RS(31,15)/GF(31)": ((31, 1), 31, 15),
    "RS(31,16)/GF(31)": ((31, 1), 31, 16),  # an odd d - 1 in a prime field
}


class TestBatchOnLargeCodes:
    """decode_arrays, read through decode_rows, against the scalar decoder
    beyond the hypothesis test's range, on the benchmark's inner code, its
    outer code and a prime field."""

    @pytest.mark.parametrize("name", sorted(LARGE_CODES))
    def test_batch_equals_scalar(self, monkeypatch, name):
        params, n, k = LARGE_CODES[name]
        code = g.rs_code(_field(params), n, k)
        solved = []
        solve = ReedSolomonDecoder._solve_arrays
        monkeypatch.setattr(
            ReedSolomonDecoder, "_solve_arrays", lambda self, w, s: solved.append(w.tolist()) or solve(self, w, s)
        )
        words, erasure_sets, odd = solve_batch_words(code, random.Random(n))
        clean = [w for w, x in zip(words, erasure_sets) if not x and not code.holds(w)]
        assert len(clean) >= BATCH_MIN_ROWS and odd
        rd = decode_rows(code, words, erasure_sets)
        # the array solve ran once, on every erasure-free row that needs a
        # solve, odd-syndrome words among them where d - 1 is odd
        assert solved == [list(map(list, clean))]
        clean_odd = [i for i in odd if not erasure_sets[i]]
        assert bool(clean_odd) == (code.distance() % 2 == 0)
        assert rd == decode_rows(per_row_twin(code), words, erasure_sets)
        # every decode is a codeword within the bound (a positive weight),
        # and the odd-syndrome words fail
        for est, weight, bad in zip(rd.estimates, rd.weights, rd.failed):
            assert bad or (code.holds(est) and weight > 0)
        assert all(rd.failed[i] for i in odd)

    @pytest.mark.parametrize("name", sorted(LARGE_CODES))
    def test_odd_syndrome_words_fool_a_short_recheck(self, name):
        # the words are built as promised: the decode the first 2t_X
        # syndromes point to is t_X errors away and misses only the last
        params, n, k = LARGE_CODES[name]
        code = g.rs_code(_field(params), n, k)
        f, d, rng = code.field, code.distance(), random.Random(k)
        for size in range(d % 2, d - 2, 2):
            erasures = frozenset(rng.sample(range(n), size))
            word = odd_syndrome_word(code, rng, erasures)
            synd = code.decoder._syndromes.row(word)
            gamma = [1]
            for i in erasures:
                gamma = block_codes._times_linear(f, gamma, code.decoder.points[i])
            forney = [f.dot(gamma, synd[l:]) for l in range(d - 1 - size)]
            conn, L = _berlekamp_massey(f, forney[:-1])
            assert 2 * L + size < d  # the short sequence looks decodable
            assert _berlekamp_massey(f, forney)[1] > L  # the whole one does not
            assert code.decoder(word, erasures) == block_codes.FAILURE


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

    def test_an_rs_code_is_rs_whatever_decodes_it(self, gf4, gf8):
        # the kind follows the generator: RS(4,2)/GF(4) decodes by syndrome
        # table and RS(7,1)/GF(8) by ReedSolomonDecoder, and both are "rs";
        # so is a generic code with the RS generator, unless it declares
        # another distance, which an "rs" spec could not hold
        for code in (g.rs_code(gf4, 4, 2), g.rs_code(gf8, 7, 1), g.generic_code(gf8, g.rs_code(gf8, 7, 5).generator)):
            d = specio.code_to_json(code)
            assert d["kind"] == "rs" and "generator" not in d
            assert specio.code_from_json(d).generator == code.generator
        overstated = g.generic_code(gf8, g.rs_code(gf8, 7, 5).generator, d=4)
        assert specio.code_to_json(overstated)["kind"] == "generic"
        other = g.generic_code(gf8, [[1, 2, 3, 4, 5, 6, 7]])
        assert specio.code_to_json(other)["kind"] == "generic"
