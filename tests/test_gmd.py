import random

import numpy as np
import pytest

import gccodec as g
from gccodec.gmd import MODE_BEYOND, MODE_UPTO, chain_with_failure_class


def rel(weights, denom):
    return g.ReliabilityVector(tuple(weights), denom)


class TestErasureChain:
    def test_single_class(self):
        chain = g.erasure_chain(rel((4, 4, 4), 4))
        assert chain.sets == (frozenset(), frozenset({0, 1, 2}))

    def test_three_classes(self):
        chain = g.erasure_chain(rel((0, 4, 2), 4))
        assert chain.sets == (
            frozenset(),
            frozenset({0}),
            frozenset({0, 2}),
            frozenset({0, 1, 2}),
        )

    def test_all_zero(self):
        chain = g.erasure_chain(rel((0, 0, 0, 0), 4))
        assert chain.sets == (frozenset(), frozenset({0, 1, 2, 3}))

    def test_failure_class_always_present(self):
        chain = chain_with_failure_class(rel((4, 4, 2), 4))
        assert chain.sets[1] == frozenset()  # zero class, empty here
        assert chain.sets[2] == frozenset({2})

    def test_weight_bounds_validated(self):
        with pytest.raises(g.InvalidParams):
            rel((5,), 4)
        with pytest.raises(g.InvalidParams):
            rel((0,), 0)

    @pytest.mark.parametrize("weight", [0.5, 1.0, True, False, np.int64(1)], ids=repr)
    def test_weights_must_be_ints(self, weight):
        # a float, a bool or a numpy scalar inside [0, denominator] is not
        # an exact scaled integer
        with pytest.raises(g.InvalidParams):
            rel((weight,) * 7, 1)
        with pytest.raises(g.InvalidParams):
            rel((1, 0, weight), 1)

    @pytest.mark.parametrize("denom", [True, 1.0, 2.5, np.int64(2), -1], ids=repr)
    def test_denominator_must_be_a_positive_int(self, denom):
        with pytest.raises(g.InvalidParams):
            rel((1,) * 7, denom)

    def test_int_weights_still_construct(self):
        assert rel((0, 1, 4), 4).classes() == (0, 1, 4)
        assert rel((), 3).n == 0


class TestViable:
    def test_empty_class_not_viable(self):
        chain = g.ErasureChain((frozenset(), frozenset({0}), frozenset({0}), frozenset({0, 1})))
        assert not g.viable(2, chain, 5)

    def test_parity_skip(self):
        chain = g.ErasureChain(
            (frozenset(), frozenset({0, 1}), frozenset({0, 1, 2}), frozenset(range(5)))
        )
        assert not g.viable(1, chain, 4)  # d - |E| even, next grows by one

    def test_viable_when_gap(self):
        chain = g.ErasureChain(
            (frozenset(), frozenset({0, 1}), frozenset({0, 1, 2, 3}), frozenset(range(6)))
        )
        assert g.viable(1, chain, 5)

    def test_oversized_set_not_viable(self):
        chain = g.ErasureChain((frozenset(), frozenset(range(4)), frozenset(range(6))))
        assert not g.viable(1, chain, 3)


class TestForneyCheck:
    def test_perfect_match(self):
        r = rel((4, 4, 4, 4), 4)
        assert g.forney_lhs((1, 2, 3, 0), (1, 2, 3, 0), r) == 0
        assert g.forney_check((1, 2, 3, 0), (1, 2, 3, 0), r, 3)

    def test_erased_mismatch_is_cheap(self):
        r = rel((0, 4, 4, 4), 4)
        # one mismatch at the zero-weight position costs D, the rest match fully
        assert g.forney_lhs((9, 2, 3, 0), (1, 2, 3, 0), r) == 4
        assert g.forney_check((9, 2, 3, 0), (1, 2, 3, 0), r, 3)

    def test_two_reliable_mismatches_fail(self):
        r = rel((4, 4, 4, 4), 4)
        assert g.forney_lhs((9, 9, 3, 0), (1, 2, 3, 0), r) == 16
        assert not g.forney_check((9, 9, 3, 0), (1, 2, 3, 0), r, 3)


class TestTrialBound:
    @pytest.mark.parametrize("d,expected", [(7, 4), (1, 1), (6, 3), (2, 1), (3, 2)])
    def test_values(self, d, expected):
        assert g.trial_bound(d) == expected


class TestGmdDecode:
    def test_codeword_single_trial(self, gf2, inner_523):
        word = inner_523.encode((1, 1))
        rng = random.Random(0)
        d = inner_523.distance()
        for _ in range(50):
            weights = tuple(rng.randrange(0, 4) for _ in range(5))
            r = rel(weights, 3)
            out = g.gmd_decode(inner_523, word, r)
            if g.forney_check(word, word, r, d):
                assert out.codeword == word
                assert out.trials == 1
            # in beyond mode the minimizer is the codeword for any weights
            beyond = g.gmd_decode(inner_523, word, r, mode=MODE_BEYOND)
            assert beyond.codeword == word

    def test_codeword_rejected_when_everything_unreliable(self, gf2, inner_523):
        # a clean word cannot pass the strict criterion if every coordinate
        # carries zero weight: the mismatch-free sum is already n >= d
        word = inner_523.encode((1, 1))
        out = g.gmd_decode(inner_523, word, rel((0,) * 5, 3))
        assert not out.ok

    def test_uniqueness_of_acceptable_candidate(self, gf2, inner_523):
        # no (word, weights) admits two codewords passing the criterion
        d = inner_523.distance()
        rng = random.Random(1)
        for _ in range(300):
            word = tuple(rng.randrange(2) for _ in range(5))
            weights = tuple(rng.randrange(0, 4) for _ in range(5))
            r = rel(weights, 3)
            passing = [
                c for c in inner_523.codewords() if g.forney_check(c, word, r, d)
            ]
            assert len(passing) <= 1

    def test_acceptance_criterion_reachable_by_some_trial(self, gf8):
        # whenever the transmitted word passes the criterion, the trial chain
        # recovers it, and the accepting erasure set satisfies the sigma bound
        code = g.rs_code(gf8, 7, 3)
        d = code.distance()
        rng = random.Random(2)
        found = 0
        for _ in range(400):
            word = code.encode(tuple(rng.randrange(8) for _ in range(3)))
            received = list(word)
            for p in rng.sample(range(7), rng.randrange(0, 4)):
                received[p] = gf8.add(received[p], rng.randrange(1, 8))
            received = tuple(received)
            weights = tuple(
                rng.choice((0, 1, 3, 5)) if received[i] != word[i] else rng.choice((3, 5))
                for i in range(7)
            )
            r = rel(weights, 5)
            if not g.forney_check(word, received, r, d):
                continue
            found += 1
            out = g.gmd_decode(code, received, r)
            assert out.codeword == word
            chain = g.erasure_chain(r)
            erased = chain.sets[out.accepted_index]
            assert 2 * g.wt_punctured(
                tuple(gf8.sub(a, b) for a, b in zip(received, word)), erased
            ) + len(erased) < d
        assert found > 50

    def test_beyond_matches_upto_when_upto_succeeds(self, gf8):
        code = g.rs_code(gf8, 7, 3)
        rng = random.Random(3)
        for _ in range(300):
            word = tuple(rng.randrange(8) for _ in range(7))
            weights = tuple(rng.choice((0, 1, 3, 5)) for _ in range(7))
            r = rel(weights, 5)
            upto = g.gmd_decode(code, word, r, mode=MODE_UPTO)
            beyond = g.gmd_decode(code, word, r, mode=MODE_BEYOND)
            if upto.ok:
                assert beyond.codeword == upto.codeword

    def test_trials_never_exceed_bound(self, gf8):
        code = g.rs_code(gf8, 7, 4)  # d = 4, even
        d = code.distance()
        rng = random.Random(4)
        for _ in range(300):
            word = tuple(rng.randrange(8) for _ in range(7))
            weights = tuple(rng.randrange(0, 5) for _ in range(7))
            for mode in (MODE_UPTO, MODE_BEYOND):
                out = g.gmd_decode(code, word, rel(weights, 4), mode=mode)
                assert out.trials <= g.trial_bound(d)

    def test_adversarial_consecutive_classes(self, gf8):
        # weight classes of sizes 1,2,3,... with even distance force the
        # parity rule to keep the count at the bound
        code = g.rs_code(gf8, 7, 4)
        word = tuple(range(7))
        weights = (0, 0, 0, 0, 1, 2, 3)
        out = g.gmd_decode(code, word, rel(weights, 4))
        assert out.trials <= g.trial_bound(4)

    def test_skip_zero_trial_with_empty_failure_class(self, gf2, inner_523):
        # with no zero-weight coordinates the first trial set is empty, so
        # skipping the index-0 trial must not lose the plain decode
        word = inner_523.encode((0, 1))
        r = rel((3, 3, 3, 3, 3), 3)
        out = g.gmd_decode(
            inner_523, word, r, skip_zero_trial=True, chain=chain_with_failure_class(r)
        )
        assert out.codeword == word
        assert out.trials == 1

    @pytest.mark.parametrize("start", [-3, -1, 3, 99, True, 1.0], ids=repr)
    def test_start_outside_the_chain_is_refused(self, gf2, inner_523, start):
        # chain_with_failure_class gives 3 sets here; -3 used to run as 0
        # and 99 to skip every trial and fail without a word
        word = inner_523.encode((0, 1))
        r = rel((0, 3, 3, 3, 3), 3)
        chain = chain_with_failure_class(r)
        assert len(chain) == 3
        with pytest.raises(g.InvalidParams):
            g.gmd_decode(inner_523, word, r, skip_zero_trial=True, chain=chain, start=start)
        for ok_start in range(len(chain)):
            assert g.gmd_decode(inner_523, word, r, skip_zero_trial=True, chain=chain, start=ok_start).trials <= 2

    def test_start_carry_over(self, gf2, inner_523):
        word = inner_523.encode((0, 1))
        r = rel((0, 3, 3, 3, 3), 3)
        chain = chain_with_failure_class(r)
        out = g.gmd_decode(inner_523, word, r, skip_zero_trial=True, chain=chain)
        assert out.ok
        again = g.gmd_decode(
            inner_523,
            word,
            r,
            skip_zero_trial=True,
            chain=chain,
            start=out.accepted_index,
        )
        assert again.codeword == word
        assert again.trials == 1
        assert any(reason == "carried" for _, reason in again.skips) or out.accepted_index == 1
