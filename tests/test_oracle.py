import itertools
import random

import pytest

import gccodec as g
from conftest import GEN_HAMMING_7_4_3


class TestOracleSigma:
    def test_codeword_plain(self, gf2):
        code = g.repetition_code(gf2, 3)
        out = g.oracle_sigma(code, (1, 1, 1))
        assert out.codeword == (1, 1, 1)

    def test_erasure_placement_matters(self, gf2):
        code = g.repetition_code(gf2, 3)
        # erasing the error position leaves 0 discrepancies: 0 + 1 < 3
        assert g.oracle_sigma(code, (1, 0, 0), frozenset({0})).codeword == (0, 0, 0)
        # erasing a correct position leaves the error: 2 + 1 = 3, not < 3
        assert not g.oracle_sigma(code, (1, 0, 0), frozenset({1})).ok

    def test_large_erasure_set_fails(self, gf2):
        code = g.repetition_code(gf2, 3)
        for erasures in itertools.combinations(range(3), 3):
            assert not g.oracle_sigma(code, (1, 1, 0), frozenset(erasures)).ok

    def test_cap(self, gf8):
        code = g.rs_code(gf8, 8, 8)
        code._codewords = None
        with pytest.raises(g.TooLargeToEnumerate):
            g.oracle_sigma(code, (0,) * 8)


@pytest.mark.parametrize("word", [(1, 0), (1, 0, 1, 1)], ids=["short", "long"])
@pytest.mark.parametrize(
    "oracle",
    [
        g.oracle_sigma,
        lambda code, word: g.oracle_sigma(code, word, {0, 1, 2}),
        g.oracle_nearest,
        lambda code, word: g.oracle_radius(code, word, 1),
    ],
    ids=["sigma", "sigma-all-erased", "nearest", "radius"],
)
def test_word_of_the_wrong_length_is_rejected(gf2, oracle, word):
    # the scans used to index past a short word or ignore a long word's tail;
    # the length is checked before sigma's early failure on |E| >= d
    with pytest.raises(g.LengthMismatch):
        oracle(g.repetition_code(gf2, 3), word)


class TestOracleNearest:
    def test_codeword_is_singleton(self, gf2, inner_523):
        word = inner_523.encode((1, 0))
        ties, dist = g.oracle_nearest(inner_523, word)
        assert ties == (word,) and dist == 0

    def test_tie(self, gf2):
        code = g.repetition_code(gf2, 2)
        ties, dist = g.oracle_nearest(code, (1, 0))
        assert set(ties) == {(0, 0), (1, 1)} and dist == 1

    def test_cross_check_with_sigma(self, gf8):
        code = g.rs_code(gf8, 7, 3)
        rng = random.Random(3)
        for _ in range(40):
            word = tuple(rng.randrange(8) for _ in range(7))
            ties, dist = g.oracle_nearest(code, word)
            out = g.oracle_sigma(code, word)
            if dist <= 2:  # within half distance: sigma must find that word
                assert len(ties) == 1
                assert out.codeword == ties[0]
            if out.ok:
                assert out.codeword in ties and dist == out.weight


class TestOracleRadius:
    def test_radius_zero(self, gf2):
        code = g.repetition_code(gf2, 3)
        assert g.oracle_radius(code, (1, 1, 1), 0).codeword == (1, 1, 1)
        assert not g.oracle_radius(code, (1, 1, 0), 0).ok

    def test_ambiguity_fails(self, gf2):
        code = g.repetition_code(gf2, 2)
        assert not g.oracle_radius(code, (1, 0), 1).ok

    def test_ball_decode(self, gf2):
        code = g.repetition_code(gf2, 3)
        assert g.oracle_radius(code, (1, 1, 0), 1).codeword == (1, 1, 1)

    def test_matches_sigma_at_half_distance(self, gf2, inner_523):
        t = (inner_523.distance() - 1) // 2
        for word in itertools.product(range(2), repeat=5):
            a = g.oracle_sigma(inner_523, word)
            b = g.oracle_radius(inner_523, word, t)
            assert a.codeword == b.codeword


class TestExhaustiveDecoder:
    def test_table_path_matches_scan(self, gf2, inner_523):
        dec = g.ExhaustiveDecoder(inner_523)
        for word in itertools.product(range(2), repeat=5):
            assert dec(word, frozenset()).codeword == g.oracle_sigma(inner_523, word).codeword

    def test_erasure_path(self, gf2, inner_523):
        rng = random.Random(4)
        dec = g.ExhaustiveDecoder(inner_523)
        for _ in range(100):
            word = tuple(rng.randrange(2) for _ in range(5))
            erasures = frozenset(rng.sample(range(5), rng.randrange(0, 4)))
            assert dec(word, erasures).codeword == g.oracle_sigma(inner_523, word, erasures).codeword


@pytest.mark.parametrize(
    "oracle,symbol",
    [
        (g.oracle_sigma, 2),
        (g.oracle_sigma, 1.0),
        (lambda code, word: g.oracle_sigma(code, word, {1}), 2),
        (lambda code, word: g.oracle_radius(code, word, 1), 2),
        (lambda code, word: g.oracle_radius(code, word, 1), 1.0),
        (g.oracle_nearest, 9),
        (g.oracle_nearest, True),
    ],
    ids=["sigma-2", "sigma-float", "sigma-erased-2", "radius-2", "radius-float", "nearest-9", "nearest-True"],
)
def test_a_symbol_outside_the_field_is_rejected(gf2, oracle, symbol):
    # the scans used to compare it as it was: 2 read as a mismatch and gave
    # the zero codeword, 1.0 came back in the error, 9 had a "nearest"
    # codeword; they now check the word as ee_decode does
    code = g.generic_code(gf2, GEN_HAMMING_7_4_3)
    with pytest.raises(g.InvalidParams, match=f"{symbol!r} is not an element"):
        oracle(code, (symbol, 0, 0, 0, 0, 0, 0))
