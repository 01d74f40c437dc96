import json
import random

import pytest

import gccodec as g
from gccodec import specio
from gccodec.block_codes import ENUMERATION_CAP
from gccodec.report import SKIP_REUSED
from conftest import GEN_HAMMING_7_4_3, GROWING_RADIUS_INNER, UUV_MATRIX, corrupt, error_matrix

# spec fixture: most errors per random word in the multistage decoder tests
MAX_ERRORS = {
    "gcc_growing_radius": 11,
    "mixed_spec": 4,
    "mpc_uuv8": 4,
    "mpc_uvw3": 5,
    "rm_chain": 3,
    "uuv_bin": 4,
}


def _gcc(request, name):
    spec = request.getfixturevalue(name)
    return getattr(spec, "gcc", spec)


@pytest.fixture(scope="module")
def uuv_bin():
    """Binary (u | u+v) with [7,4,3] and [7,1,7] outer codes."""
    gf2 = g.make_field(2, 1)
    a1 = g.generic_code(
        gf2,
        [
            [1, 0, 0, 0, 0, 1, 1],
            [0, 1, 0, 0, 1, 0, 1],
            [0, 0, 1, 0, 1, 1, 0],
            [0, 0, 0, 1, 1, 1, 1],
        ],
    )
    a2 = g.repetition_code(gf2, 7)
    return g.gcc_spec([a1, a2], (1, 1), UUV_MATRIX, gf2)


class TestEncode:
    def test_zero(self, mixed_spec):
        assert g.gcc_encode(mixed_spec, [(0,), (0, 0)]) == ((0,) * 7,) * 4

    def test_single_level_collapses_to_concat(self, gf4, inner_523):
        spec = g.gcc_spec([g.rs_code(gf4, 3, 1)], (2,), inner_523.generator, inner_523.field)
        cc = g.ConcatCode(g.rs_code(gf4, 3, 1), inner_523)
        for msg in range(4):
            assert g.gcc_encode(spec, [(msg,)]) == g.cc_encode(cc, [(msg,)])

    def test_rows_live_in_inner_code(self, mixed_spec):
        rng = random.Random(0)
        for _ in range(30):
            msgs = [
                tuple(rng.randrange(a.field.q) for _ in range(a.k))
                for a in mixed_spec.outers
            ]
            word = g.gcc_encode(mixed_spec, msgs)
            assert all(mixed_spec.inner.contains(row) for row in word)

    def test_level_difference_lands_in_prefix_subcode(self, mixed_spec):
        # messages differing only in level j produce row differences inside B^(j)
        rng = random.Random(1)
        f = mixed_spec.field
        for level in (1, 2):
            sub = g.prefix_subcode(mixed_spec, level)
            for _ in range(30):
                msgs = [
                    tuple(rng.randrange(a.field.q) for _ in range(a.k))
                    for a in mixed_spec.outers
                ]
                other = [list(m) for m in msgs]
                a = mixed_spec.outers[level - 1]
                other[level - 1] = [rng.randrange(a.field.q) for _ in range(a.k)]
                w1 = g.gcc_encode(mixed_spec, msgs)
                w2 = g.gcc_encode(mixed_spec, [tuple(m) for m in other])
                for r1, r2 in zip(w1, w2):
                    assert sub.contains(tuple(f.sub(x, y) for x, y in zip(r1, r2)))


class TestSpecValidation:
    def test_width_sum_checked(self, gf2, gf4):
        with pytest.raises(g.InvalidParams):
            g.gcc_spec([g.rs_code(gf4, 3, 1)], (1,), [[1, 1], [0, 1]], gf2)

    def test_widths_must_be_integers(self, gf4, inner_523):
        # int() would have truncated 2.6 to a valid width of 2
        with pytest.raises(g.InvalidParams):
            g.gcc_spec([g.rs_code(gf4, 3, 1)], (2.6,), inner_523.generator, inner_523.field)

    def test_outer_lengths_checked(self, gf2):
        a1 = g.repetition_code(gf2, 3)
        a2 = g.repetition_code(gf2, 4)
        with pytest.raises(g.LengthMismatch):
            g.gcc_spec([a1, a2], (1, 1), [[1, 1], [0, 1]], gf2)

    def test_prefix_subcodes(self, uuv_bin):
        assert g.prefix_subcode(uuv_bin, 2) is uuv_bin.inner
        b1 = g.prefix_subcode(uuv_bin, 1)
        assert (b1.n, b1.k, b1.distance()) == (2, 1, 2)
        with pytest.raises(IndexError):
            g.prefix_subcode(uuv_bin, 3)

    def test_uvw_subcode_distances(self, mpc_uvw3):
        spec = mpc_uvw3
        assert g.prefix_subcode(spec, 1).distance() == 3
        assert g.prefix_subcode(spec, 2).distance() == 2
        assert g.prefix_subcode(spec, 3).distance() == 1


class TestDesignedDistance:
    def test_uuv(self, uuv_bin):
        # outer distances (3, 7), prefix distances (2, 1)
        assert g.designed_distance(uuv_bin) == 6

    def test_single_level(self, gf4, inner_523):
        spec = g.gcc_spec([g.rs_code(gf4, 3, 1)], (2,), inner_523.generator, inner_523.field)
        assert g.designed_distance(spec) == 9

    def test_uvw(self, mpc_uvw3):
        # min(7*3, 5*2, 3*1)
        assert g.designed_distance(mpc_uvw3) == 3


def _random_trial(spec, rng, max_errors):
    msgs = [
        tuple(rng.randrange(a.field.q) for _ in range(a.k)) for a in spec.outers
    ]
    word = g.gcc_encode(spec, msgs)
    total = spec.m * spec.n
    positions = rng.sample(range(total), rng.randrange(0, max_errors + 1))
    received = corrupt(spec.field, word, positions, rng)
    return word, received


class TestDecoders:
    @pytest.mark.parametrize("which", ["basic", "improved"])
    def test_clean_roundtrip(self, mixed_spec, which):
        rng = random.Random(2)
        decode = g.gcc_decode_basic if which == "basic" else g.gcc_decode_improved
        msgs = [(3,), (1, 0)]
        word = g.gcc_encode(mixed_spec, msgs)
        report = decode(mixed_spec, word)
        assert report.codeword == word
        assert report.messages == msgs
        if which == "basic":
            assert report.total_inner == mixed_spec.m * mixed_spec.k

    def test_half_distance_region(self, uuv_bin):
        rng = random.Random(3)
        d_star = g.designed_distance(uuv_bin)
        for _ in range(400):
            word, received = _random_trial(uuv_bin, rng, 4)
            errors = error_matrix(uuv_bin.field, word, received)
            weight = sum(g.wt(row) for row in errors)
            if 2 * weight >= d_star:
                continue
            assert g.gcc_decode_basic(uuv_bin, received).codeword == word
            assert g.gcc_decode_improved(uuv_bin, received).codeword == word

    def test_capped_row_load_region(self, uuv_bin):
        rng = random.Random(4)
        hits = 0
        for _ in range(600):
            word, received = _random_trial(uuv_bin, rng, 6)
            errors = error_matrix(uuv_bin.field, word, received)
            if not g.correctable_gcc(errors, uuv_bin):
                continue
            hits += 1
            assert g.gcc_decode_basic(uuv_bin, received).codeword == word
            assert g.gcc_decode_improved(uuv_bin, received).codeword == word
        assert hits > 100

    def test_bursty_region(self, uuv_bin):
        # one ruined row plus stray errors: 2*(t + b*d_1) < d*
        rng = random.Random(5)
        f = uuv_bin.field
        d1 = uuv_bin.subcodes[0].distance()
        d_star = g.designed_distance(uuv_bin)
        for _ in range(300):
            msgs = [
                tuple(rng.randrange(2) for _ in range(a.k)) for a in uuv_bin.outers
            ]
            word = g.gcc_encode(uuv_bin, msgs)
            rows = [list(r) for r in word]
            burst = rng.randrange(7)
            rows[burst][0] ^= 1
            rows[burst][1] ^= rng.randrange(2)
            stray = 0
            if 2 * (1 + d1) < d_star:
                stray_row = rng.choice([j for j in range(7) if j != burst])
                rows[stray_row][rng.randrange(2)] ^= 1
                stray = 1
            if 2 * (stray + d1) >= d_star:
                continue
            received = tuple(tuple(r) for r in rows)
            assert g.gcc_decode_improved(uuv_bin, received).codeword == word

    def test_improved_matches_basic_in_region(self, request):
        for name in ("mixed_spec", "gcc_growing_radius"):
            spec = _gcc(request, name)
            rng = random.Random(6)
            for _ in range(500):
                word, received = _random_trial(spec, rng, MAX_ERRORS[name])
                errors = error_matrix(spec.field, word, received)
                if not g.correctable_gcc(errors, spec):
                    continue
                basic = g.gcc_decode_basic(spec, received)
                improved = g.gcc_decode_improved(spec, received)
                assert basic.codeword == improved.codeword == word, name

    def test_three_level_chain_region(self, rm_chain):
        # 1-3 bit errors are inside the region (d_1 = 4, d* = 8).  A row whose
        # decode a column contradicted stays known-wrong (erased) until the
        # radius reaches it, judged by the distance it was decoded with, and
        # is then re-decoded.
        spec = rm_chain
        rng = random.Random(10)
        for _ in range(2000):
            msgs = [tuple(rng.randrange(a.field.q) for _ in range(a.k)) for a in spec.outers]
            word = g.gcc_encode(spec, msgs)
            received = corrupt(spec.field, word, rng.sample(range(spec.m * spec.n), rng.randint(1, 3)), rng)
            assert g.correctable_gcc(error_matrix(spec.field, word, received), spec)
            assert g.gcc_decode_basic(spec, received).codeword == word
            assert g.gcc_decode_improved(spec, received).codeword == word

    def test_inner_invocation_budget(self, mpc_uvw3):
        spec = mpc_uvw3
        rng = random.Random(7)
        bound = spec.m + sum(a.distance() - 1 for a in spec.outers)
        for _ in range(300):
            word, received = _random_trial(spec, rng, 5)
            try:
                report = g.gcc_decode_improved(spec, received)
            except g.DecodeFailure as exc:
                report = exc.report
            assert report.total_inner <= bound

    def test_failure_aborts_with_level(self, gf4, inner_523):
        spec = g.gcc_spec([g.rs_code(gf4, 3, 1)], (2,), inner_523.generator, inner_523.field)
        stuck = None
        import itertools

        for word in itertools.product(range(2), repeat=5):
            if not inner_523.decode(word).ok:
                stuck = word
                break
        with pytest.raises(g.DecodeFailure) as info:
            g.gcc_decode_improved(spec, (stuck,) * 3)
        assert info.value.level == 1

    def test_skip_accounting(self, request):
        # every level the decoder reached decodes or skips each row once
        for name, max_errors in MAX_ERRORS.items():
            spec = _gcc(request, name)
            rng = random.Random(8)
            redecoded = 0
            for _ in range(300):
                _, received = _random_trial(spec, rng, max_errors)
                try:
                    report = g.gcc_decode_improved(spec, received)
                except g.DecodeFailure as exc:
                    report = exc.report
                for level in range(min(report.failed_levels, default=1), spec.k + 1):
                    skipped = sum(report.row_skips[level - 1].values())
                    assert skipped + report.inner_invocations[level - 1] == spec.m, name
                redecoded += sum(report.inner_invocations[:-1])
            if name == "gcc_growing_radius":
                assert redecoded > 0

    def test_redecodes_failed_and_contradicted_rows(self, gcc_growing_radius):
        # Row 0 gets two errors, which the [8,4,4] level-2 subcode detects but
        # cannot correct; row 1 gets three, which it decodes to a wrong
        # codeword that the level-2 column then contradicts.  The repetition
        # subcode corrects three errors, so level 1 re-decodes both rows.
        spec = gcc_growing_radius
        word = g.gcc_encode(spec, [(1, 0, 1, 1), (3, 5, 6)])
        received = corrupt(spec.field, word, [0, 5, 8, 11, 14], random.Random(9))
        report = g.gcc_decode_improved(spec, received)
        assert report.codeword == word
        assert report.inner_invocations == [2, spec.m]
        assert report.row_skips == [{SKIP_REUSED: spec.m - 2}, {}]
        assert g.gcc_decode_basic(spec, received).codeword == word


class TestSerialization:
    def test_roundtrip(self, mixed_spec):
        d = specio.gcc_to_json(mixed_spec)
        spec2 = specio.load_spec(d)
        assert specio.gcc_to_json(spec2) == d
        msgs = [(2,), (1, 1)]
        assert g.gcc_encode(spec2, msgs) == g.gcc_encode(mixed_spec, msgs)

    def test_declared_subcode_distances_roundtrip(self, gf2, gf8):
        # declared below the enumerated (8, 4): the reloaded spec keeps d* = 15
        spec = g.gcc_spec(
            [g.generic_code(gf2, GEN_HAMMING_7_4_3), g.rs_code(gf8, 7, 3)],
            (1, 3),
            GROWING_RADIUS_INNER,
            gf2,
            subcode_distances=(8, 3),
        )
        assert g.designed_distance(spec) == 15
        spec2 = specio.load_spec(json.loads(json.dumps(specio.gcc_to_json(spec))))
        assert [sub.distance() for sub in spec2.subcodes] == [8, 3]
        assert g.designed_distance(spec2) == 15

    def test_subcodes_past_the_enumeration_cap_reload(self):
        # level 2's subcode RS(15,6)/GF(16) has 16^6 > 2^20 codewords, so its
        # distance cannot be recomputed and must travel with the spec
        gf16 = g.make_field(2, 4)
        gf4096 = g.extend_field(gf16, 3)
        inner = g.rs_code(gf16, 15, 6)
        outers = [g.rs_code(gf4096, 4, 1), g.rs_code(gf4096, 4, 2)]
        spec = g.gcc_spec(outers, (3, 3), inner.generator, gf16, subcode_distances=(13, 10))
        assert spec.subcodes[1].num_codewords() > ENUMERATION_CAP
        spec2 = specio.load_spec(json.loads(json.dumps(specio.gcc_to_json(spec))))
        assert [sub.distance() for sub in spec2.subcodes] == [13, 10]
        assert g.designed_distance(spec2) == g.designed_distance(spec) == 30
        msgs = [(5,), (7, 4001)]
        assert g.gcc_encode(spec2, msgs) == g.gcc_encode(spec, msgs)
