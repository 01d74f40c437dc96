"""block_codes.SyndromeDecoder, the decoder generic_code attaches, against
the codeword scan oracle_sigma: random small codes, every word and every
erasure set of the package's small codes, the tables it keeps, and codes
too large for any scan."""

import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gccodec as g
from gccodec import block_codes, linalg
from gccodec.block_codes import SyndromeDecoder
from conftest import GEN_HAMMING_7_4_3, TERNARY_7_1_7, TERNARY_7_2_5, TERNARY_7_4_3, corrupt

FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3)]


def every_set(n):
    return [frozenset(x) for size in range(n + 1) for x in itertools.combinations(range(n), size)]


def agrees_everywhere(code):
    """Every word under every erasure set decodes as oracle_sigma does:
    codeword, error and weight.  Sets with |X| >= d fail in both at once,
    so the scan runs on the others."""
    assert isinstance(code.decoder, SyndromeDecoder)
    f, n, d = code.field, code.n, code.distance()
    sets = [x for x in every_set(n) if len(x) < d]
    for word in itertools.product(range(f.q), repeat=n):
        for erasures in sets:
            assert code.decode(word, erasures) == g.oracle_sigma(code, word, erasures), (word, set(erasures))
        assert not code.decode(word, range(d)).ok


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_decoder_equals_the_oracle_on_random_codes(data):
    p, m = data.draw(st.sampled_from(FIELDS))
    f = g.make_field(p, m)
    n = data.draw(st.integers(1, 8))
    k = data.draw(st.integers(1, max(j for j in range(1, n + 1) if f.q**j <= 4096)))
    symbols = st.integers(0, f.q - 1)
    generator = [[data.draw(symbols) for _ in range(n)] for _ in range(k)]
    assume(linalg.rank(f, generator) == k)
    code = g.generic_code(f, generator)
    assert isinstance(code.decoder, SyndromeDecoder)
    for _ in range(4):
        word = tuple(data.draw(symbols) for _ in range(n))
        erasures = frozenset(data.draw(st.sets(st.integers(0, n - 1))))  # |X| >= d too
        assert code.decode(word, erasures) == g.oracle_sigma(code, word, erasures)


class TestEveryWordAndErasureSet:
    def test_hamming(self, gf2):
        agrees_everywhere(g.generic_code(gf2, GEN_HAMMING_7_4_3))

    def test_inner_523(self, inner_523):
        agrees_everywhere(inner_523)

    @pytest.mark.parametrize("generator", [TERNARY_7_1_7, TERNARY_7_2_5, TERNARY_7_4_3], ids=["717", "725", "743"])
    def test_mpc_uvw3_outers(self, gf3, generator):
        agrees_everywhere(g.generic_code(gf3, generator))

    def test_rm_chain_subcodes(self, rm_chain):
        assert [(sub.n, sub.k) for sub in rm_chain.subcodes] == [(8, 4), (8, 7), (8, 8)]
        for sub in rm_chain.subcodes:
            agrees_everywhere(sub)

    @pytest.mark.parametrize("params,n", [((2, 1), 5), ((3, 1), 4), ((2, 2), 3)])
    def test_full_space(self, params, n):
        # H has no rows: every word is its own codeword, with a zero error
        f = g.make_field(*params)
        code = g.generic_code(f, [[int(i == j) for j in range(n)] for i in range(n)])
        assert code.decoder.check == ()
        agrees_everywhere(code)


class TestTables:
    @pytest.mark.parametrize("budget", [None, 1])
    def test_a_set_is_built_once_and_evicted_past_the_budget(self, monkeypatch, gf3, budget):
        # [7,2,5] over GF(3): 3^7 words is past linalg.TABLE_CAP, so a decode
        # reads the syndrome tables.  Under the budget every set is built
        # once; with a budget of one entry each new set evicts the last
        # (the newest is kept at any size), and the decodes stay the oracle's
        if budget is not None:
            monkeypatch.setattr(block_codes, "_ERASED_ENTRIES", budget)
        code = g.generic_code(gf3, TERNARY_7_2_5)
        dec = code.decoder
        builds = []
        build = SyndromeDecoder._build

        def spy(self, erasures):
            builds.append(erasures)
            return build(self, erasures)

        monkeypatch.setattr(SyndromeDecoder, "_build", spy)
        rng = random.Random(5)
        sets = [frozenset(), frozenset({1}), frozenset({2, 5}), frozenset({0, 3, 6})]
        words = [tuple(rng.randrange(3) for _ in range(7)) for _ in range(20)]
        for erasures in sets + sets:
            for word in words:
                assert dec(word, erasures) == g.oracle_sigma(code, word, erasures)
        if budget is None:
            assert builds == sets and list(dec._tables) == sets[1:]
        else:
            assert builds == sets + sets[1:] and list(dec._tables) == sets[-1:]
        assert dec._entries == sum(t.entries for t in dec._tables.values())
        # the error-free set's table is kept apart: 1 + 7*2 + 21*4 errors
        assert dec._clean.words is None and len(dec._clean.patterns) == 99

    def test_small_codes_decode_errors_only_by_word_table(self, monkeypatch, gf2):
        code = g.generic_code(gf2, GEN_HAMMING_7_4_3)
        dec = code.decoder
        dec((0,) * 7, frozenset())
        assert len(dec._clean.words) == 2**7
        monkeypatch.setattr(SyndromeDecoder, "_decode", None)  # a decode outside the table would fail
        for word in itertools.product(range(2), repeat=7):
            assert dec(word, frozenset()) == g.oracle_sigma(code, word)

    def test_overstated_distance_with_erasures(self, gf2):
        # [4,2,2] declared d = 4: two erasures on the support of (1,1,0,0)
        # leave H_X rank-deficient, and one erasure leaves two weight-one
        # errors off it with one projected syndrome
        code = g.generic_code(gf2, [[1, 1, 0, 0], [0, 0, 1, 1]], d=4)
        with pytest.raises(g.ContractViolation, match="erasures"):
            code.decode((0, 0, 0, 0), {0, 1})
        with pytest.raises(g.ContractViolation, match="share a syndrome"):
            code.decode((0, 0, 0, 0), {0})


class TestWhoDecodes:
    def test_a_low_rate_code_keeps_the_codeword_scan(self):
        # RS(15,3)/GF(16) as a generic code: t = 6 gives ~6e10 error patterns
        # against 4096 codewords, so the scan is its only decoder
        gf16 = g.make_field(2, 4)
        sub = g.generic_code(gf16, g.rs_code(gf16, 15, 3).generator, d=13)
        assert block_codes.error_patterns(gf16, 15, 13) > block_codes.ENUMERATION_CAP
        assert isinstance(sub.decoder, g.ExhaustiveDecoder)
        rng = random.Random(6)
        for _ in range(3):
            sent = sub.encode(tuple(rng.randrange(16) for _ in range(3)))
            word = list(sent)
            for i in rng.sample(range(15), 6):
                word[i] ^= rng.randrange(1, 16)
            out = sub.decode(word)
            assert out.codeword == sent and out.weight == 6

    def test_a_large_code_without_a_known_distance_has_no_decoder(self, gf2):
        code = g.generic_code(gf2, [[int(i == j) for j in range(22)] + [1] for i in range(21)])
        assert code.decoder is None

    def test_the_31_26_3_hamming_code(self, gf2):
        # 2^26 codewords, past any scan; 32 error patterns
        columns = [c for c in range(1, 32) if c & (c - 1)]
        generator = [[int(i == j) for j in range(26)] + [c >> b & 1 for b in range(5)] for i, c in enumerate(columns)]
        code = g.generic_code(gf2, generator, d=3)
        assert isinstance(code.decoder, SyndromeDecoder) and len(code.decoder.check) == 5
        rng = random.Random(31)
        for _ in range(200):
            sent = code.encode(tuple(rng.randrange(2) for _ in range(26)))
            word = list(sent)
            if rng.random() < 0.5:
                erasures = frozenset()
                word[rng.randrange(31)] ^= 1
            else:
                erasures = frozenset(rng.sample(range(31), rng.randint(1, 2)))
                for i in erasures:
                    word[i] = rng.randrange(2)
            out = code.decode(word, erasures)
            assert out.codeword == sent
            assert out.weight == (0 if erasures else 1)


def rm14_chain():
    """The four-level RM(1,4) chain [16,5,8] c [16,11,4] c [16,15,2] c
    GF(2)^16: the monomials of degree 0 and 1, then 2, 3 and 4 in x0..x3
    at the points 0..15 of GF(2)^4 (x_v is bit v), under RS(16,14)/GF(32),
    RS(16,12)/GF(64), RS(16,8)/GF(16) and the [16,1,16] repetition code;
    d* = min(3*8, 5*4, 9*2, 16*1) = 16."""
    gf2 = g.make_field(2, 1)
    monomials = [m for size in range(5) for m in itertools.combinations(range(4), size)]
    rows = [[int(all(x >> v & 1 for v in m)) for x in range(16)] for m in monomials]
    outers = [
        g.rs_code(g.make_field(2, 5), 16, 14),
        g.rs_code(g.make_field(2, 6), 16, 12),
        g.rs_code(g.make_field(2, 4), 16, 8),
        g.repetition_code(gf2, 16),
    ]
    return g.gcc_spec(outers, (5, 6, 4, 1), rows, gf2)


def test_the_rm14_chain_decodes_inside_half_its_distance():
    spec = rm14_chain()
    assert [sub.distance() for sub in spec.subcodes] == [8, 4, 2, 1]
    assert g.designed_distance(spec) == 16
    assert all(isinstance(sub.decoder, SyndromeDecoder) for sub in spec.subcodes)
    rng = random.Random(14)
    for errors in (6, 7, 7):
        msgs = [tuple(rng.randrange(a.field.q) for _ in range(a.k)) for a in spec.outers]
        word = g.gcc_encode(spec, msgs)
        received = corrupt(spec.field, word, rng.sample(range(spec.m * spec.n), errors), rng)
        assert g.gcc_decode_improved(spec, received).codeword == word
        assert g.gcc_decode_basic(spec, received).codeword == word


# every field of at most 32 elements, as (p, m)
SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4), (17, 1)]
SMALL_FIELDS += [(19, 1), (23, 1), (5, 2), (3, 3), (29, 1), (31, 1), (2, 5)]


def largest_tabled_rs():
    """(field, n, k) of the RS code over a field of at most 32 elements
    with the most error patterns that rs_code still decodes by table."""
    best = None
    for p, m in SMALL_FIELDS:
        f = g.make_field(p, m)
        for n in range(1, f.q + 1):
            for k in range(1, n + 1):
                count = block_codes.error_patterns(f, n, n - k + 1)
                if count <= linalg.TABLE_CAP and (best is None or count > best[0]):
                    best = count, f, n, k
    return best[1:]


def rs_twins(f, n, k):
    """rs_code(f, n, k), which must decode by table, and its
    ReedSolomonDecoder on the same points."""
    code = g.rs_code(f, n, k)
    assert isinstance(code.decoder, SyndromeDecoder)
    return code, block_codes.ReedSolomonDecoder(f, range(n), k)


class TestRsCodesByTable:
    """rs_code attaches a SyndromeDecoder where its error patterns fit
    linalg.TABLE_CAP (block_codes.attach_decoder); it must return the
    DecodeOutcome that ReedSolomonDecoder returns on the same code."""

    def test_the_budget_picks_the_decoder(self, gf4, gf8):
        # three ways: by table where the error patterns fit
        # linalg.TABLE_CAP, else by vote where the vote's counters fit
        # VOTE_CAP, else by ReedSolomonDecoder; every code over GF(4) fits
        # the table, and GF(8) and GF(16) take all three
        gf16 = g.make_field(2, 4)
        vote, rs = block_codes.CodebookDecoder, block_codes.ReedSolomonDecoder
        seen = {}
        for f in (gf4, gf8, gf16):
            kinds = seen[f.q] = set()
            for n in range(1, f.q + 1):
                for k in range(1, n + 1):
                    tabled = block_codes.error_patterns(f, n, n - k + 1) <= linalg.TABLE_CAP
                    voted = block_codes.vote_counters(f, n, k) <= block_codes.VOTE_CAP
                    expected = SyndromeDecoder if tabled else vote if voted else rs
                    assert type(g.rs_code(f, n, k).decoder) is expected
                    kinds.add(expected)
        assert seen == {4: {SyndromeDecoder}, 8: {SyndromeDecoder, vote, rs}, 16: {SyndromeDecoder, vote, rs}}
        # the benchmark's RS codes: the outers of cc-hamming-erasures and
        # mpc-uuv-gf8 by table, RS(7,1)/GF(8) by vote, and the cc-rs256-gf16
        # codes by ReedSolomonDecoder
        assert [block_codes.error_patterns(f, n, n - k + 1) for f, n, k in ((gf4, 4, 2), (gf8, 7, 5), (gf8, 7, 1))] == [
            13,
            50,
            13084,
        ]
        assert block_codes.vote_counters(gf8, 7, 1) == 448
        assert isinstance(g.rs_code(gf8, 7, 1).decoder, vote)
        assert isinstance(g.rs_code(gf16, 15, 8).decoder, rs)
        assert isinstance(g.rs_code(g.extend_field(gf16, 2), 64, 40).decoder, rs)

    def test_rs_4_2_every_word_and_erasure_set(self, gf4):
        code, rs = rs_twins(gf4, 4, 2)
        sets = [x for x in every_set(4) if len(x) < 3]
        for word in itertools.product(range(4), repeat=4):
            for erasures in sets:
                assert code.decode(word, erasures) == rs(word, erasures), (word, set(erasures))

    @pytest.mark.parametrize("which", ["RS(7,5)/GF(8)", "largest"])
    def test_seeded_words(self, gf8, which):
        f, n, k = (gf8, 7, 5) if which == "RS(7,5)/GF(8)" else largest_tabled_rs()
        code, rs = rs_twins(f, n, k)
        d = n - k + 1
        rng = random.Random(n * k)
        outcomes = set()
        for _ in range(600):
            word = list(code.encode(tuple(rng.randrange(f.q) for _ in range(k))))
            erasures = frozenset(rng.sample(range(n), rng.randrange(d + 1)))
            for i in erasures:
                word[i] = rng.randrange(f.q)
            for i in rng.sample(sorted(set(range(n)) - erasures), min(rng.randrange(d), n - len(erasures))):
                word[i] = f.add(word[i], rng.randrange(1, f.q))
            out = code.decode(word, erasures)
            assert out == rs(tuple(word), erasures), (word, set(erasures))
            outcomes.add(out.ok)
        assert outcomes == {True, False}

    def test_the_largest_tabled_code(self):
        f, n, k = largest_tabled_rs()
        assert (f.q, n, k) == (31, 17, 14)  # d = 4: 1 + 17 * 30 patterns
        assert block_codes.error_patterns(f, n, n - k + 1) == 511
