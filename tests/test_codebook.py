"""block_codes.CodebookDecoder, the codeword vote that attach_decoder gives
codes with few codewords, against oracle_sigma and, on RS codes,
ReedSolomonDecoder: every word and erasure set of the smallest codes the
rule sends to it, seeded words on RS(7,1)/GF(8) and on the largest RS code
inside the budget, generic low-rate codes, and an overstated distance."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gccodec as g
from gccodec import block_codes, linalg
from gccodec.block_codes import CodebookDecoder, ReedSolomonDecoder

# every field of at most 32 elements, as (p, m)
SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4), (17, 1)]
SMALL_FIELDS += [(19, 1), (23, 1), (5, 2), (3, 3), (29, 1), (31, 1), (2, 5)]


def bounded_sets(n, d):
    """Every erasure set of fewer than d of the n positions."""
    return [frozenset(x) for size in range(min(d, n + 1)) for x in itertools.combinations(range(n), size)]


def seeded_words(code, rng, count):
    """(word, erasures) pairs: a codeword with 0-2 erasures (random symbols)
    and 0 to t_X + 1 errors past them, so some words fall outside the
    bound."""
    f, n, d = code.field, code.n, code.distance()
    out = []
    for _ in range(count):
        word = list(code.encode([rng.randrange(f.q) for _ in range(code.k)]))
        erasures = frozenset(rng.sample(range(n), rng.randint(0, min(2, d - 1))))
        for i in erasures:
            word[i] = rng.randrange(f.q)
        kept = [i for i in range(n) if i not in erasures]
        for i in rng.sample(kept, min(len(kept), rng.randint(0, (d - 1 - len(erasures)) // 2 + 1))):
            word[i] = f.add(word[i], rng.randrange(1, f.q))
        out.append((tuple(word), erasures))
    return out


def largest_voted_rs():
    """(field, n, k) of the RS code over a field of at most 32 elements
    with the most vote counters that rs_code still decodes by vote."""
    best = None
    for p, m in SMALL_FIELDS:
        f = g.make_field(p, m)
        for n in range(1, f.q + 1):
            for k in range(1, n + 1):
                counters = block_codes.vote_counters(f, n, k)
                tabled = block_codes.error_patterns(f, n, n - k + 1) <= linalg.TABLE_CAP
                if not tabled and counters <= block_codes.VOTE_CAP and (best is None or counters > best[0]):
                    best = counters, f, n, k
    return best[1:]


def test_rs_codes_under_a_zero_table_budget_every_word_and_erasure_set(monkeypatch):
    # with no table budget the rule sends every RS code over GF(2), GF(3)
    # and GF(4) to the vote; each word under each set with |X| < d decodes
    # as ReedSolomonDecoder and oracle_sigma decode it
    monkeypatch.setattr(linalg, "TABLE_CAP", 0)
    for p, m in ((2, 1), (3, 1), (2, 2)):
        f = g.make_field(p, m)
        for n in range(2, f.q + 1):
            for k in range(1, n + 1):
                code = g.rs_code(f, n, k)
                assert isinstance(code.decoder, CodebookDecoder)
                rs = ReedSolomonDecoder(f, range(n), k)
                for erasures in bounded_sets(n, code.distance()):
                    for word in itertools.product(range(f.q), repeat=n):
                        out = code.decode(word, erasures)
                        assert out == rs(word, erasures) == g.oracle_sigma(code, word, erasures), (code, word)


def test_the_smallest_voted_rs_code_every_word_and_erasure_set(gf8):
    # RS(5,1)/GF(8), 526 error patterns and 320 counters, is the RS code
    # with the fewest words that the rule sends to the vote.  Its 8^5 words
    # under its 31 sets with |X| < 5 are checked against oracle_sigma's
    # definition on arrays: the unique codeword c with 2*wt_X(y - c) + |X|
    # < d, its weight and the error y - c, or failure
    code = g.rs_code(gf8, 5, 1)
    assert isinstance(code.decoder, CodebookDecoder)
    dec, n, d = code.decoder, code.n, code.distance()
    codewords = np.array(code.codewords())
    words = list(itertools.product(range(8), repeat=n))
    received = np.array(words)
    for erasures in bounded_sets(n, d):
        kept = [i for i in range(n) if i not in erasures]
        wrong = (received[:, None, kept] != codewords[None, :, kept]).sum(axis=2)
        inside = 2 * wrong + len(erasures) < d
        assert inside.sum(axis=1).max() <= 1
        hit = inside.argmax(axis=1)
        for b, word in enumerate(words):
            out = dec(word, erasures)
            if inside[b, hit[b]]:
                c = code.codewords()[hit[b]]
                assert out.codeword == c and out.weight == wrong[b, hit[b]]
                assert out.error == tuple(x ^ y for x, y in zip(word, c))
            else:
                assert out == block_codes.FAILURE


@pytest.mark.parametrize("which", ["RS(7,1)/GF(8)", "largest"])
def test_seeded_words_with_erasures(gf8, which):
    # RS(7,1)/GF(8), the benchmark's level-1 outer, and the RS code with the
    # most counters inside VOTE_CAP, RS(19,2)/GF(19) (odd characteristic)
    f, n, k = (gf8, 7, 1) if which == "RS(7,1)/GF(8)" else largest_voted_rs()
    assert which != "largest" or (f.q, n, k) == (19, 19, 2)
    code = g.rs_code(f, n, k)
    assert isinstance(code.decoder, CodebookDecoder)
    rs = ReedSolomonDecoder(f, range(n), k)
    rng = random.Random(n * 100 + k)
    decoded = 0
    for word, erasures in seeded_words(code, rng, 300 if n < 10 else 60):
        out = code.decode(word, erasures)
        assert out == rs(word, erasures) == g.oracle_sigma(code, word, erasures)
        decoded += out.ok
    assert 0 < decoded


def generic_rs(p, m, n, k):
    """rs_code(GF(p^m), n, k) as a generic code with its distance declared."""
    f = g.make_field(p, m)
    return g.generic_code(f, g.rs_code(f, n, k).generator, d=n - k + 1)


@pytest.mark.parametrize(
    "make",
    [lambda: g.repetition_code(g.make_field(2, 1), 25), lambda: generic_rs(2, 4, 15, 2), lambda: generic_rs(13, 1, 13, 2)],
    ids=["repetition [25,1,25]/GF(2)", "RS(15,2)/GF(16) as a generic code", "RS(13,2)/GF(13) as a generic code"],
)
def test_generic_low_rate_codes_vote(make):
    # too many error patterns for a syndrome table (ENUMERATION_CAP), few
    # codewords: the vote, equal to oracle_sigma, where the scan was before
    code = make()
    assert block_codes.error_patterns(code.field, code.n, code.distance()) > block_codes.ENUMERATION_CAP
    assert isinstance(code.decoder, CodebookDecoder)
    rng = random.Random(code.n)
    for word, erasures in seeded_words(code, rng, 60):
        assert code.decode(word, erasures) == g.oracle_sigma(code, word, erasures)


def test_an_overstated_distance_raises(gf2):
    # [25,2,3] declared d = 25: more than ENUMERATION_CAP error patterns,
    # so it votes, and (1, 0, ..., 0) lies inside the declared bound of both
    # 0 and (1, 1, 1, 0, ..., 0)
    generator = [[1, 1, 1] + [0] * 22, [0] * 3 + [1] * 22]
    code = g.generic_code(gf2, generator, d=25)
    assert isinstance(code.decoder, CodebookDecoder)
    word = (1,) + (0,) * 24
    with pytest.raises(g.ContractViolation, match="two codewords"):
        code.decode(word)
    with pytest.raises(g.ContractViolation, match="two codewords"):
        g.oracle_sigma(code, word)
    # an erasure on the first position leaves both inside as well
    with pytest.raises(g.ContractViolation, match="two codewords"):
        code.decode(word, {0})


FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_random_low_rate_codes_vote_as_the_oracle(data):
    # a random full-rank generator of 1 or 2 rows over a small field,
    # its distance enumerated, decoded by a CodebookDecoder built on it
    # (whatever the rule attaches), against oracle_sigma on random words
    # and erasure sets of every size
    f = g.make_field(*data.draw(st.sampled_from(FIELDS)))
    n = data.draw(st.integers(2, 9))
    k = data.draw(st.integers(1, 2))
    generator = [[data.draw(st.integers(0, f.q - 1)) for _ in range(n)] for _ in range(k)]
    assume(linalg.rank(f, generator) == k)
    code = g.generic_code(f, generator)
    vote = CodebookDecoder(code)
    for _ in range(20):
        word = tuple(data.draw(st.integers(0, f.q - 1)) for _ in range(n))
        erasures = frozenset(data.draw(st.sets(st.integers(0, n - 1), max_size=n)))
        assert vote(word, erasures) == g.oracle_sigma(code, word, erasures) == code.decode(word, erasures)
