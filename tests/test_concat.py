import itertools
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gccodec as g
from gccodec import block_codes, linalg, specio
from gccodec.concat import (
    RowDecodeResult,
    check_pattern,
    decode_rows,
    encode_columns,
    extended_trial_chain,
    fold_message_columns,
)
from conftest import corrupt, error_matrix, has_array_kernel
from twins import column_by_column, decode_outcome, extended_chain_set_by_set, fresh_twin, noisy_concat_words


@st.composite
def radius_rows(draw):
    """(RowDecodeResult, radius) as decode_rows gives them at a radius past
    t = (d - 1) // 2: each row failed (weight 0) or decoded with an
    apparent weight v up to the radius (weight d - 2v, or 0 from 2v >= d)."""
    d = draw(st.integers(1, 12))
    radius = draw(st.integers((d - 1) // 2 + 1, (d - 1) // 2 + 4))
    apparents = draw(st.lists(st.one_of(st.none(), st.integers(0, radius)), min_size=1, max_size=12))
    weights = [0 if v is None or 2 * v >= d else d - 2 * v for v in apparents]
    failed = [v is None for v in apparents]
    return RowDecodeResult([], [], weights, failed, apparents, d, 0), radius


class TestEncode:
    def test_zero_messages(self, cc_small):
        assert g.cc_encode(cc_small, [(0,)]) == ((0,) * 5,) * 3

    def test_degree_one_two_columns(self, gf2):
        # two repetition [3,1,3] words through the (u | u+v) matrix
        outer = g.repetition_code(gf2, 3)
        inner = g.LinearCode(gf2, [[1, 1], [0, 1]], d=1)
        cc = g.ConcatCode(outer, inner)
        assert g.cc_encode(cc, [(1,), (1,)]) == ((1, 0), (1, 0), (1, 0))

    def test_rows_are_inner_codewords(self, cc_small):
        rng = random.Random(0)
        for _ in range(20):
            word = g.cc_encode(cc_small, [(rng.randrange(4),)])
            assert all(cc_small.inner.contains(row) for row in word)

    def test_dimension_validation(self, gf4, gf2):
        outer = g.rs_code(gf4, 3, 1)
        inner = g.generic_code(gf2, [[1, 0, 1], [0, 1, 1], [1, 1, 1]])  # K = 3, not 2k
        with pytest.raises(g.InvalidParams):
            g.ConcatCode(outer, inner)

    def test_message_count_checked(self, cc_small):
        with pytest.raises(g.LengthMismatch):
            g.cc_encode(cc_small, [(1,), (2,)])


class TestRowWeights:
    def test_single_error_no_erasures(self, gf8):
        code = g.rs_code(gf8, 5, 1)  # d = 5
        word = code.encode((3,))
        r = list(word)
        r[2] = gf8.add(r[2], 1)
        rd = decode_rows(code, [tuple(r)], [frozenset()])
        assert rd.weights == [3] and not rd.failed[0]  # score 2, weight 5-2

    def test_error_plus_erasure(self, gf8):
        code = g.rs_code(gf8, 5, 1)
        word = code.encode((3,))
        r = list(word)
        r[2] = gf8.add(r[2], 1)
        r[0] = 0
        rd = decode_rows(code, [tuple(r)], [frozenset({0})])
        assert rd.weights == [2]  # score 2*1 + 1 = 3

    def test_failure_row(self, gf2, inner_523):
        word = inner_523.encode((1, 0))
        r = list(word)
        r[0] ^= 1
        r[1] ^= 1
        rd = decode_rows(inner_523, [tuple(r)], [frozenset()])
        if rd.failed[0]:
            assert rd.weights == [0]
        else:  # a miscorrection also carries a valid score below d
            assert 0 < rd.weights[0] < 3

    def test_erasure_weights_reduce_to_plain(self, cc_small):
        # with empty erasure sets the general scoring equals the errors-only one
        rng = random.Random(1)
        inner = cc_small.inner
        d = inner.distance()
        for _ in range(200):
            row = tuple(rng.randrange(2) for _ in range(5))
            rd = decode_rows(inner, [row], [frozenset()])
            out = inner.decode(row)
            if out.ok:
                plain = 2 * g.wt(out.error)
                plain = plain if plain < d else d
                assert rd.weights[0] == d - plain
            else:
                assert rd.weights[0] == 0 and rd.failed[0]


class TestDecode:
    def test_clean_word_one_trial_per_column(self, cc_small):
        word = g.cc_encode(cc_small, [(3,)])
        cols, report = g.cc_decode(cc_small, word)
        assert report.codeword == word
        assert report.gmd_trials == [1]

    def test_half_designed_distance_region(self, cc_small):
        rng = random.Random(2)
        for _ in range(300):
            msg = [(rng.randrange(4),)]
            word = g.cc_encode(cc_small, msg)
            positions = rng.sample(range(15), rng.randrange(0, 5))  # 2*4 < 9
            received = corrupt(cc_small.inner.field, word, positions, rng)
            cols, report = g.cc_decode(cc_small, received)
            assert report.codeword == word

    def test_bursty_patterns(self, cc_small):
        # one fully corrupted row plus one stray error: 2*(1 + 1*3) < 9
        rng = random.Random(3)
        f = cc_small.inner.field
        for _ in range(200):
            word = g.cc_encode(cc_small, [(rng.randrange(4),)])
            rows = [list(r) for r in word]
            burst = rng.randrange(3)
            for c in range(5):
                if rng.random() < 0.8:
                    rows[burst][c] ^= 1
            other = rng.choice([j for j in range(3) if j != burst])
            rows[other][rng.randrange(5)] ^= 1
            received = tuple(tuple(r) for r in rows)
            errors = error_matrix(f, word, received)
            if not g.correctable_cc(errors, None, cc_small):
                continue
            cols, report = g.cc_decode(cc_small, received)
            assert report.codeword == word

    def test_error_and_erasure_region(self, cc_small):
        rng = random.Random(4)
        f = cc_small.inner.field
        for _ in range(300):
            word = g.cc_encode(cc_small, [(rng.randrange(4),)])
            positions = rng.sample(range(15), rng.randrange(0, 9))
            rng.shuffle(positions)
            erased = positions[: rng.randrange(0, len(positions) + 1)]
            flipped = positions[len(erased) :]
            if 2 * len(flipped) + len(erased) >= 9:
                continue
            rows = [list(r) for r in word]
            pattern = [set() for _ in range(3)]
            for p in erased:
                rows[p // 5][p % 5] = 0
                pattern[p // 5].add(p % 5)
            for p in flipped:
                rows[p // 5][p % 5] ^= 1
            received = tuple(tuple(r) for r in rows)
            cols, report = g.cc_decode(
                cc_small, received, [frozenset(x) for x in pattern]
            )
            assert report.codeword == word

    def test_failure_reports_columns(self, cc_small):
        # every row set to a word the inner decoder rejects: all weights are
        # zero, so the first erasure set already covers d_a coordinates
        inner = cc_small.inner
        stuck = next(
            word
            for word in itertools.product(range(2), repeat=5)
            if not inner.decode(word).ok
        )
        with pytest.raises(g.DecodeFailure) as info:
            g.cc_decode(cc_small, (stuck,) * 3)
        assert info.value.report is not None
        assert info.value.report.failed_levels == [1]

    def test_trial_bound_per_column(self, cc_two_cols):
        rng = random.Random(5)
        bound = g.trial_bound_cc(cc_two_cols)  # min(3,3)+1 // 2 = 2
        assert bound == 2
        assert g.trial_bound_cc(cc_two_cols, erasure_mode=True) == 2
        for _ in range(200):
            word = g.cc_encode(cc_two_cols, [tuple(rng.randrange(4) for _ in range(2)) for _ in range(2)])
            received = corrupt(
                cc_two_cols.inner.field, word, rng.sample(range(28), rng.randrange(0, 5)), rng
            )
            try:
                _, report = g.cc_decode(cc_two_cols, received)
            except g.DecodeFailure as exc:
                report = exc.report
            assert max(report.gmd_trials) <= bound

    def test_carry_over_total_budget(self, cc_two_cols):
        rng = random.Random(6)
        k = cc_two_cols.k
        m = g.trial_bound_cc(cc_two_cols)
        opts = g.DecodeOptions(carry_over=True)
        for _ in range(200):
            word = g.cc_encode(cc_two_cols, [tuple(rng.randrange(4) for _ in range(2)) for _ in range(2)])
            positions = rng.sample(range(28), rng.randrange(0, 5))
            errors_rows = corrupt(cc_two_cols.inner.field, word, positions, rng)
            errors = error_matrix(cc_two_cols.inner.field, word, errors_rows)
            if not g.correctable_cc(errors, None, cc_two_cols):
                continue
            cols, report = g.cc_decode(cc_two_cols, errors_rows, options=opts)
            assert report.codeword == word
            assert report.total_outer <= k + m - 1

    def test_carry_over_agrees_with_plain(self, cc_two_cols):
        rng = random.Random(7)
        for _ in range(200):
            word = g.cc_encode(cc_two_cols, [tuple(rng.randrange(4) for _ in range(2)) for _ in range(2)])
            received = corrupt(
                cc_two_cols.inner.field, word, rng.sample(range(28), rng.randrange(0, 4)), rng
            )
            try:
                _, plain = g.cc_decode(cc_two_cols, received)
                plain_word = plain.codeword
            except g.DecodeFailure:
                plain_word = None
            try:
                _, carry = g.cc_decode(cc_two_cols, received, options=g.DecodeOptions(carry_over=True))
                carry_word = carry.codeword
            except g.DecodeFailure:
                carry_word = None
            errors = error_matrix(cc_two_cols.inner.field, word, received)
            if g.correctable_cc(errors, None, cc_two_cols):
                assert plain_word == carry_word == word


class TestCorrectablePredicate:
    def test_zero_pattern(self, cc_small):
        zero = ((0,) * 5,) * 3
        assert g.correctable_cc(zero, None, cc_small)

    def test_single_ruined_row(self, cc_small):
        errors = [[0] * 5 for _ in range(3)]
        errors[1] = [1, 1, 1, 1, 1]
        # capped load 2*d_b = 6 < 9
        assert g.correctable_cc(tuple(tuple(r) for r in errors), None, cc_small)

    def test_spread_errors_and_erasures(self, cc_small):
        errors = ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 0, 0))
        pattern = (frozenset(), frozenset(), frozenset({0, 1, 2, 3}))
        # 2*2 + 4 = 8 < 9
        assert g.correctable_cc(errors, pattern, cc_small)
        pattern = (frozenset({1}), frozenset({0}), frozenset({0, 1, 2}))
        # 2*2 + 5 = 9, not strictly below
        assert not g.correctable_cc(errors, pattern, cc_small)


class TestTrialBounds:
    def test_formulas(self, gf8, gf4, gf2):
        a, b = g.rs_code(gf8, 7, 1), g.rs_code(gf8, 5, 3)  # d_a = 7, d_b = 3

        class Dummy:
            outer, inner = a, b

        assert g.trial_bound_cc(Dummy) == 2
        assert g.trial_bound_cc(Dummy, erasure_mode=True) == 3

        c = g.rs_code(gf4, 3, 1)  # d = 3

        class Dummy2:
            outer, inner = c, g.rs_code(gf8, 7, 1)  # hypothetical d_b = 7... p

        # d_a = 3, d_b large: errors-only bound 2
        assert g.trial_bound_cc(Dummy2) == 2


@pytest.fixture(scope="module")
def cc_rep5():
    gf2 = g.make_field(2, 1)
    outer = g.generic_code(gf2, [[1, 0, 1, 1, 0, 1, 1], [0, 1, 1, 0, 1, 1, 0]])
    inner = g.repetition_code(gf2, 5)
    return g.ConcatCode(outer, inner)


class TestExtendedRadius:

    def test_superset_of_default(self, cc_rep5):
        rng = random.Random(8)
        f = cc_rep5.inner.field
        for _ in range(400):
            word = g.cc_encode(cc_rep5, [tuple(rng.randrange(2) for _ in range(2))])
            received = corrupt(f, word, rng.sample(range(35), rng.randrange(0, 9)), rng)
            try:
                _, base = g.cc_decode(cc_rep5, received)
                base_word = base.codeword
            except g.DecodeFailure:
                base_word = None
            try:
                _, ext = g.cc_decode(
                    cc_rep5, received, options=g.DecodeOptions(radius=3)
                )
                ext_word = ext.codeword
            except g.DecodeFailure:
                ext_word = None
            if base_word is not None:
                assert ext_word == base_word

    def test_extended_radius_recovers_heavier_row(self, cc_rep5):
        # one row with three flips: apparent weight 3 exceeds the plain radius
        word = g.cc_encode(cc_rep5, [(1, 0)])
        rows = [list(r) for r in word]
        for c in (0, 2, 4):
            rows[3][c] ^= 1
        received = tuple(tuple(r) for r in rows)
        _, ext = g.cc_decode(cc_rep5, received, options=g.DecodeOptions(radius=3))
        assert ext.codeword == word

    def test_chain_structure(self, cc_rep5):
        rd = decode_rows(
            cc_rep5.inner,
            [(1, 1, 1, 0, 0), (0, 0, 0, 0, 0), (1, 1, 1, 1, 1)],
            [frozenset()] * 3,
            radius=3,
        )
        chain = extended_trial_chain(rd, 3)
        assert chain.sets[0] == frozenset()
        assert chain.sets[1] == frozenset()  # no failures at radius 3
        assert frozenset({0}) in chain.sets  # the apparent-weight-3 row peels next

    @settings(max_examples=400, deadline=None)
    @given(radius_rows())
    def test_chain_matches_its_set_by_set_twin(self, case):
        rd, radius = case
        chain = extended_trial_chain(rd, radius)
        assert chain.sets == extended_chain_set_by_set(rd, radius).sets
        assert chain.built_over == len(rd.weights)

    def test_radius_refuses_erasures(self, cc_rep5):
        word = g.cc_encode(cc_rep5, [(0, 0)])
        with pytest.raises(g.InvalidParams, match="errors-only"):
            g.cc_decode(cc_rep5, word, [(1,)] + [()] * (cc_rep5.m - 1), g.DecodeOptions(radius=3))

    def test_radius_validation(self, cc_rep5):
        with pytest.raises(g.InvalidParams):
            g.cc_decode(
                cc_rep5,
                g.cc_encode(cc_rep5, [(0, 0)]),
                options=g.DecodeOptions(radius=1),
            )


@pytest.fixture(scope="module")
def cc_rs256():
    """RS(64,40)/GF(256) over RS(15,8)/GF(16), the benchmark's construction."""
    gf16 = g.make_field(2, 4)
    return g.ConcatCode(g.rs_code(g.extend_field(gf16, 2), 64, 40), g.rs_code(gf16, 15, 8))


class TestColumnBatch:
    """cc_decode moves a word's k columns as one batch: folded from the row
    solve's arrays, syndromed in one product that every GMD trial reads,
    their messages in one product.  Its reports equal column_by_column's,
    which decodes each column on its own, on words decoded in a row, so
    that a syndrome kept from another word would show."""

    @pytest.mark.parametrize("carry", [False, True], ids=["plain", "carry-over"])
    @pytest.mark.parametrize("mode", ["upto", "beyond"])
    @pytest.mark.parametrize("name", ["cc_rs256", "cc_small", "cc_two_cols"])
    def test_reports_equal_column_by_column(self, request, name, mode, carry):
        cc = request.getfixturevalue(name)
        twin = fresh_twin(cc.outer)
        options = g.DecodeOptions(mode, carry)
        seen, failed_rows = set(), 0
        for received, pattern in noisy_concat_words(cc, random.Random(len(name)), 24):
            got = decode_outcome(g.cc_decode, cc, received, pattern, options)
            assert got == decode_outcome(column_by_column, cc, twin, received, pattern, options)
            seen.add(got[0])
            failed_rows += sum(decode_rows(cc.inner, list(received), check_pattern(pattern, cc.m, cc.inner.n)).failed)
        # cc_small's one column rarely exhausts its trials
        assert failed_rows and "ok" in seen and (name == "cc_small" or "failure" in seen)

    @pytest.mark.parametrize("mode", ["upto", "beyond"])
    def test_extended_radius_equals_column_by_column(self, cc_small, mode):
        twin = fresh_twin(cc_small.outer)
        options = g.DecodeOptions(mode, radius=2)
        for received, _ in noisy_concat_words(cc_small, random.Random(2), 24):
            got = decode_outcome(g.cc_decode, cc_small, received, None, options)
            assert got == decode_outcome(column_by_column, cc_small, twin, received, None, options)

    def test_one_syndrome_and_one_message_product_per_word(self, monkeypatch, cc_rs256):
        outer = cc_rs256.outer
        calls = {"syndromes": [], "messages": []}
        for name, rowmap in (("syndromes", outer.decoder._syndromes), ("messages", outer.inverse)):
            product = rowmap.product
            monkeypatch.setattr(rowmap, "product", lambda x, c=calls[name], p=product: c.append(len(x)) or p(x))
        trials = 0
        for received, pattern in noisy_concat_words(cc_rs256, random.Random(3), 12):
            calls["syndromes"].clear()
            calls["messages"].clear()
            report = decode_outcome(g.cc_decode, cc_rs256, received, pattern)[2]
            decoded = sum(c is not None for c in report["columns"])
            assert calls["syndromes"] == [cc_rs256.k]
            assert calls["messages"] == ([decoded] if decoded else [])
            trials += sum(report["gmd_trials"])
        assert trials > 12  # the trials read the kept syndromes

    def test_array_fold_zeroes_failed_rows(self, cc_rs256):
        failed = 0
        for received, pattern in noisy_concat_words(cc_rs256, random.Random(4), 8):
            rd = decode_rows(cc_rs256.inner, list(received), check_pattern(pattern, cc_rs256.m, 15))
            assert rd.arrays is not None
            columns = fold_message_columns(cc_rs256.inverse, rd)
            assert "estimates" not in vars(rd)  # the fold built no row tuples
            assert columns == packed_fold(cc_rs256.inverse, rd)
            failed += sum(rd.failed)
        assert failed


@pytest.mark.parametrize(
    "options",
    [
        {"mode": "fast"},
        {"mode": None},
        {"carry_over": "yes"},
        {"carry_over": 1},
        {"carry_over": None},
        {"radius": 4.5},
        {"radius": True},
        {"radius": "3"},
    ],
    ids=lambda options: "-".join(f"{k}={v!r}" for k, v in options.items()),
)
def test_decode_options_are_checked(options):
    with pytest.raises(g.InvalidParams):
        g.DecodeOptions(**options)


def test_valid_decode_options_construct():
    assert g.DecodeOptions() == g.DecodeOptions("upto", False, None)
    for radius in (3, np.int64(3)):
        options = g.DecodeOptions("beyond", True, radius)
        assert options.radius == 3 and type(options.radius) is int


@pytest.mark.parametrize("array", [False, True], ids=["row-loop", "array"])
def test_custom_basis_encode_and_decode(monkeypatch, array_calls, gf4, array):
    """RS(15,5)/GF(16) over RS(4,2)/GF(4): symbols expand into their
    coordinates in the polynomial basis (1, x), and every word within the
    guarantee region decodes back, on the two kernels of symbol maps
    without a table (the array one is packed tables over GF(4)), pinned by
    ARRAY_MIN_PRODUCTS."""
    monkeypatch.setattr(linalg, "TABLE_CAP", 0)
    monkeypatch.setattr(linalg, "ARRAY_MIN_PRODUCTS", 0 if array else 1 << 62)
    # the 15 rows decode one by one, so every array product is a symbol map's
    monkeypatch.setattr(block_codes, "BATCH_MIN_ROWS", 16)
    gf16 = g.extend_field(gf4, 2)
    cc = g.ConcatCode(g.rs_code(gf16, 15, 5), g.rs_code(gf4, 4, 2))
    assert cc.encoder.table is None and cc.inverse.table is None
    rng = random.Random(17)
    for trial in range(40):
        msg = tuple(rng.randrange(gf16.q) for _ in range(5))
        array_calls.clear()
        word = g.cc_encode(cc, [msg])
        assert (("packed", (15, 2)) in array_calls) == array  # the encoder's 15 rows of 2 digits
        column = cc.outer.encode(msg)
        assert word == tuple(cc.inner.encode((x % gf4.q, x // gf4.q)) for x in column)
        received = [list(row) for row in word]
        for j in rng.sample(range(cc.m), rng.randrange(0, 8)):
            for pos in rng.sample(range(cc.inner.n), rng.choice((1, 1, 2))):
                received[j][pos] = gf4.add(received[j][pos], rng.randrange(1, gf4.q))
        pattern = [frozenset()] * cc.m
        if trial % 2:
            pattern[rng.randrange(cc.m)] = frozenset({rng.randrange(cc.inner.n)})
        errors = error_matrix(gf4, word, received)
        errors = [[0 if i in x else e for i, e in enumerate(row)] for row, x in zip(errors, pattern)]
        assert g.correctable_cc(errors, pattern, cc)  # loads at most 7 * 4 + 1 < 33
        array_calls.clear()
        columns, report = g.cc_decode(cc, received, pattern)
        assert (("packed", (15, 4)) in array_calls) == array  # the inverse's 15 rows of 4 digits
        assert columns == [column] and report.messages == [msg]
        assert report.codeword == word


def test_symbols_past_int64_keep_the_row_loop(monkeypatch, array_calls, gf2):
    # a tower above 2^63 could not expand into int64 arrays, so its maps
    # build no array and take the row loop at any batch size; the view is a
    # degree-one GF(2) view that claims a wider big field
    wide = g.TowerView(gf2, gf2)
    wide.big = SimpleNamespace(q=1 << 64, validate=gf2.validate)
    monkeypatch.setattr(linalg, "TABLE_CAP", 0)
    monkeypatch.setattr(linalg, "ARRAY_MIN_PRODUCTS", 0)
    gen = [[1, 0, 1]]
    for tower, arrays in ((wide, 0), (g.TowerView(gf2, gf2), 2)):
        encoder = linalg.RowMap(gf2, gen, split=(tower,))
        inverse = linalg.RowMap(gf2, tuple(zip(*gen)), join=(tower,))
        assert (encoder.array is None) == (inverse.array is None) == (not arrays)
        array_calls.clear()
        assert encoder([(1,), (0,)]) == [(1, 0, 1), (0, 0, 0)]
        assert inverse([(1, 0, 1), (0, 1, 1)]) == [(0,), (1,)]
        assert array_calls == [("packed", (2, 1)), ("packed", (2, 3))][:arrays]


class TestSerialization:
    def test_roundtrip(self, cc_small):
        d = specio.concat_to_json(cc_small)
        cc2 = specio.load_spec(d)
        assert specio.concat_to_json(cc2) == d
        word = g.cc_encode(cc_small, [(2,)])
        assert g.cc_encode(cc2, [(2,)]) == word
        flat = specio.matrix_to_json(word)
        assert specio.matrix_from_json(flat, 3, 5) == word

    def test_matrix_rows_form(self, cc_small):
        word = g.cc_encode(cc_small, [(2,)])
        assert specio.matrix_from_json([list(r) for r in word], 3, 5) == word

    @pytest.mark.parametrize(
        "bad",
        [
            7,
            None,
            "abc",
            [0.9] + [0] * 14,
            [0] * 14 + ["1"],
            [True] + [0] * 14,
            [[0] * 5, 3, [0] * 5],
        ],
    )
    def test_malformed_word_is_config_error(self, bad):
        with pytest.raises(g.ConfigError):
            specio.matrix_from_json(bad, 3, 5)

    @pytest.mark.parametrize(
        "bad", [5, None, [1, 2, 3], [[1.5], [], []], [["0"], [], []], [[True], [], []]]
    )
    def test_malformed_pattern_is_config_error(self, bad):
        with pytest.raises(g.ConfigError):
            specio.pattern_from_json(bad, 3)

    def test_malformed_symbols_reach_no_decoder(self, cc_small):
        word = [list(r) for r in g.cc_encode(cc_small, [(2,)])]
        word[0][0] = 0.9
        with pytest.raises(g.InvalidParams):
            g.cc_decode(cc_small, word)


def expanded_encode(generator, words):
    """encode_columns by expanding every symbol through its tower, row by row."""
    expanded = [tuple(map(tower.to_base_vector, word)) for tower, word in zip(generator.split, words)]
    rows = [sum(parts, ()) for parts in zip(*expanded)]
    return tuple(linalg.vec_mat(generator.field, row, generator.matrix) for row in rows)


def packed_fold(inverse, rd):
    """fold_message_columns by packing every message slice through its tower."""
    zero = (0,) * inverse.n
    messages = [
        zero if bad else linalg.vec_mat(inverse.field, est, inverse.matrix)
        for est, bad in zip(rd.estimates, rd.failed)
    ]
    columns, start = [], 0
    for tower in inverse.join:
        end = start + tower.s
        columns.append(tuple(tower.from_base_vector(msg[start:end]) for msg in messages))
        start = end
    return columns


def test_encode_columns_hands_the_array_kernel_one_array(monkeypatch):
    # RS(64,40)/GF(256) over RS(15,8)/GF(16): the (64, 4) input is built from
    # the outer words, not from 64 row tuples
    gf16 = g.make_field(2, 4)
    cc = g.ConcatCode(g.rs_code(g.extend_field(gf16, 2), 64, 40), g.rs_code(gf16, 15, 8))
    assert cc.encoder.takes_arrays(cc.m)
    rng = random.Random(31)
    words = cc.outer.encode_all([[rng.randrange(256) for _ in range(40)] for _ in range(cc.k)])
    expect = expanded_encode(cc.encoder, words)
    monkeypatch.setattr(linalg.RowMap, "__call__", lambda rowmap, rows: pytest.fail("row tuples built"))
    assert encode_columns(cc.encoder, words) == expect
    assert encode_columns(cc.encoder, tuple(map(list, words))) == expect


@pytest.mark.parametrize("kernel", ["as-built", "row-loop", "array"])
def test_symbol_maps_match_the_tower_expansion(
    monkeypatch, array_calls, mpc_uuv8, mixed_spec, cc_small, gf4, kernel
):
    """encode_columns and fold_message_columns against the expansion through
    TowerView, on degree-one towers (MPC levels, a CC over one field),
    degree-two towers and a spec that mixes both."""
    cc_one_field = g.ConcatCode(g.rs_code(gf4, 4, 2), g.rs_code(gf4, 3, 2))
    cases = []  # (generator map, inverse map or None, outer codes, row code)
    for spec in (mpc_uuv8, mixed_spec):
        cases.append((spec.encoder, None, spec.outers, None))
        for i, sub in enumerate(spec.subcodes):
            maps = spec.level_encoders[i], spec.level_inverses[i]
            cases.append((*maps, spec.outers[i : i + 1], sub))
    for cc in (cc_small, cc_one_field):
        cases.append((cc.encoder, cc.inverse, (cc.outer,) * cc.k, cc.inner))
    for generator, inverse, outers, _ in cases:
        assert [tower.big for tower in generator.split] == [a.field for a in outers]
        assert inverse is None or inverse.join == generator.split
    degrees = {tuple(tower.s for tower in generator.split) for generator, *_ in cases}
    assert degrees == {(1,), (1, 1), (2,), (2, 1)}

    def rebuilt(rowmap):
        if kernel == "as-built" or rowmap is None:
            return rowmap
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "TABLE_CAP", 0)
            return linalg.RowMap(rowmap.field, rowmap.matrix, split=rowmap.split, join=rowmap.join)

    threshold = {"as-built": linalg.ARRAY_MIN_PRODUCTS, "row-loop": 1 << 62, "array": 0}[kernel]
    monkeypatch.setattr(linalg, "ARRAY_MIN_PRODUCTS", threshold)
    rng = random.Random(29)
    for generator, inverse, outers, row_code in cases:
        generator, inverse = rebuilt(generator), rebuilt(inverse)
        for _ in range(8):
            words = [a.encode([rng.randrange(a.field.q) for _ in range(a.k)]) for a in outers]
            assert encode_columns(generator, words) == expanded_encode(generator, words)
            if inverse is None:
                continue
            f = row_code.field
            estimates = [row_code.encode([rng.randrange(f.q) for _ in range(row_code.k)]) for _ in words[0]]
            failed = [rng.random() < 0.3 for _ in estimates]
            rd = RowDecodeResult(estimates, None, None, failed, None, row_code.distance(), 0)
            assert fold_message_columns(inverse, rd) == packed_fold(inverse, rd)
    if kernel != "as-built":
        packed = {"packed" for generator, *_ in cases if has_array_kernel(generator.field)}
        assert {name for name, _ in array_calls} == (packed if kernel == "array" else set())
