import itertools
import random

import numpy as np
import pytest

import gccodec as g
from gccodec import specio
from gccodec.mpc import nsc_designed_distance

from conftest import UUV_MATRIX, UVW_MATRIX, corrupt, error_matrix


class TestIsNsc:
    def test_uuv_matrix(self, gf2):
        assert g.is_nsc(gf2, UUV_MATRIX)

    def test_uvw_matrix(self, gf3):
        assert g.is_nsc(gf3, UVW_MATRIX)

    def test_identity_fails(self, gf2):
        assert not g.is_nsc(gf2, [[1, 0], [0, 1]])

    def test_shape_error(self, gf2):
        with pytest.raises(g.ShapeError):
            g.is_nsc(gf2, [[1, 1], [0, 1], [1, 0]])

    def test_matches_minor_enumeration(self, gf3):
        # independent check: scan all prefix minors with a fresh determinant
        rng = random.Random(0)
        for _ in range(40):
            k = rng.randrange(1, 4)
            n = rng.randrange(k, 5)
            matrix = [[rng.randrange(3) for _ in range(n)] for _ in range(k)]
            expected = True
            for t in range(1, k + 1):
                for cols in itertools.combinations(range(n), t):
                    sub = np.array(
                        [[matrix[i][c] for c in cols] for i in range(t)], dtype=int
                    )
                    det = int(round(np.linalg.det(sub))) % 3
                    if det == 0:
                        expected = False
            assert g.is_nsc(gf3, matrix) == expected


class TestIsTriangular:
    def test_already_triangular(self, gf2):
        assert g.is_triangular(gf2, UUV_MATRIX)

    def test_column_reversal(self, gf3):
        assert g.is_triangular(gf3, UVW_MATRIX)  # reverse the columns

    def test_rank_deficient(self, gf2):
        assert not g.is_triangular(gf2, [[1, 1], [1, 1]])

    def test_wide_matrix(self, gf2):
        assert g.is_triangular(gf2, [[1, 0, 1, 1], [0, 1, 0, 1]])

    def test_matches_a_permutation_search(self):
        # random matrices, k > N and zero rows and columns included
        rng = random.Random(16)
        fields = [g.make_field(2, 1), g.make_field(3, 1), g.make_field(2, 2)]
        kinds = set()
        for _ in range(3000):
            f = rng.choice(fields)
            k, n = rng.randrange(1, 5), rng.randrange(1, 7)
            matrix = [[rng.choice((0, 0, 1, rng.randrange(f.q))) for _ in range(n)] for _ in range(k)]
            if rng.random() < 0.2:
                matrix[rng.randrange(k)] = [0] * n
            if rng.random() < 0.2:
                c = rng.randrange(n)
                for row in matrix:
                    row[c] = 0
            expected = triangular_by_permutation(matrix)
            kinds.add((k > n, expected))
            assert g.is_triangular(f, matrix) == expected, matrix
        assert kinds == {(False, False), (False, True), (True, False)}

    def test_wider_than_32_columns(self, gf2):
        # two rows over GF(2) cannot be NSC beyond N = 2, so only the
        # triangular flag is set
        matrix = [[1] * 40, [0] * 39 + [1]]
        assert g.is_triangular(gf2, matrix)
        a = g.repetition_code(gf2, 3)
        spec = g.mpc_spec([a, a], matrix, gf2)
        assert (spec.n, spec.nsc, spec.triangular) == (40, False, True)
        assert g.mpc_designed_distance(spec) == (3, False)


def triangular_by_permutation(matrix):
    """By definition: some k columns, taken in order as the diagonal, are
    nonzero on it and zero below it."""
    k, n = len(matrix), len(matrix[0])
    return any(
        all(
            matrix[i][c] != 0 and all(matrix[r][c] == 0 for r in range(i + 1, k))
            for i, c in enumerate(cols)
        )
        for cols in itertools.permutations(range(n), k)
    )


class TestDesignedDistance:
    def test_uuv8(self, mpc_uuv8):
        assert g.mpc_designed_distance(mpc_uuv8) == (6, True)

    def test_uvw3(self, mpc_uvw3):
        assert g.mpc_designed_distance(mpc_uvw3) == (3, True)

    def test_three_level_formula(self, gf3):
        a1 = g.generic_code(gf3, [[1, 1, 1, 1], [1, 0, 2, 1]])  # d = 2
        a2 = g.generic_code(gf3, [[1, 1, 1, 0], [0, 1, 2, 1]])
        a3 = g.repetition_code(gf3, 4)
        spec = g.mpc_spec([a1, a2, a3], UVW_MATRIX, gf3)
        n = 3
        expect = min(
            a.distance() * (n - i) for i, a in enumerate([a1, a2, a3])
        )
        assert g.mpc_designed_distance(spec)[0] == expect

    def test_non_nsc_spec_gets_the_gcc_bound(self, gf2):
        a = g.repetition_code(gf2, 3)
        spec = g.mpc_spec([a, a], [[1, 0], [0, 1]], gf2)
        assert not spec.nsc and spec.triangular
        assert g.mpc_designed_distance(spec) == (3, False)
        received = ((0, 1), (0, 0), (0, 0))
        assert g.mpc_decode(spec, received).codeword == ((0, 0),) * 3

    def test_exact_for_triangular_small_codes(self, gf2):
        a1 = g.repetition_code(gf2, 3)
        a2 = g.repetition_code(gf2, 3)
        spec = g.mpc_spec([a1, a2], UUV_MATRIX, gf2)
        d_star, exact = g.mpc_designed_distance(spec)
        assert exact
        assert g.exhaustive_min_distance(spec) == d_star


def test_exhaustive_min_distance_matches_a_weight_scan():
    """Against the lightest nonzero encoding of every message tuple, on
    small random specs whose matrices need not be NSC or triangular."""
    rng = random.Random(9)
    kinds = set()
    checked = 0
    while checked < 30:
        f = g.make_field(*rng.choice(((2, 1), (3, 1), (2, 2))))
        k = rng.randrange(1, 4)
        n = rng.randrange(k, 4)
        m = rng.randrange(2, 5)
        def rows(count, length):
            return [[rng.randrange(f.q) for _ in range(length)] for _ in range(count)]

        try:
            outers = [g.generic_code(f, rows(rng.randrange(1, 3), m)) for _ in range(k)]
            matrix = rows(k, n)
            spec = g.mpc_spec(outers, matrix, f)
        except g.InvalidParams:
            continue
        if spec.field.q ** sum(a.k for a in outers) > 4096:
            continue
        kinds.add((spec.nsc, spec.triangular))
        messages = [itertools.product(range(f.q), repeat=a.k) for a in outers]
        best = min(
            sum(x != 0 for row in g.mpc_encode(spec, msgs) for x in row)
            for msgs in itertools.product(*messages)
            if any(map(any, msgs))
        )
        assert g.exhaustive_min_distance(spec) == best
        checked += 1
    assert {(False, False), (False, True), (True, True)} <= kinds
    gf16 = g.make_field(2, 4)
    rs = g.rs_code(gf16, 15, 3)
    uuv = g.mpc_spec([rs, rs], [[1, 1], [0, 1]], gf16)  # 16^6 codewords
    with pytest.raises(g.TooLargeToEnumerate):
        g.exhaustive_min_distance(uuv)


def random_mpc_specs(rng, count, nsc):
    """count random specs over GF(2), GF(3) and GF(4) whose full-rank
    matrices are NSC or not as asked, small enough to enumerate errors."""
    fields = [g.make_field(2, 1), g.make_field(3, 1), g.make_field(2, 2)]
    specs = []
    while len(specs) < count:
        f = rng.choice(fields)
        k = rng.randrange(1, 4)
        n = rng.randrange(k, 4)
        m = rng.randrange(3, 6)

        def rows(count, length):
            return [[rng.randrange(f.q) for _ in range(length)] for _ in range(count)]

        try:
            outers = [g.generic_code(f, rows(rng.randrange(1, 3), m)) for _ in range(k)]
            spec = g.mpc_spec(outers, rows(k, n), f)
        except g.InvalidParams:  # rank-deficient, or prefix distances that grow
            continue
        if spec.nsc == nsc:
            specs.append(spec)
    return specs


class TestAnyFullRankMatrix:
    """A matrix-product code is the GCC of its matrix's row prefixes,
    whether or not the matrix is NSC."""

    def test_designed_distance_is_the_gcc_bound(self):
        rng = random.Random(160)
        for nsc in (False, True):
            for spec in random_mpc_specs(rng, 30, nsc):
                d_star, exact = g.mpc_designed_distance(spec)
                assert d_star == g.designed_distance(spec)
                assert exact == (nsc and spec.triangular)
                if nsc:
                    dists = [a.distance() for a in spec.outers]
                    assert d_star == nsc_designed_distance(dists, spec.n)

    def test_non_nsc_specs_decode_inside_the_region(self):
        # every error pattern of weight up to (d* - 1) / 2 on a few messages
        rng = random.Random(161)
        specs = [s for s in random_mpc_specs(rng, 60, False) if g.designed_distance(s) >= 3]
        assert len(specs) >= 20 and {s.field.q for s in specs} == {2, 3, 4}
        checked = 0
        for spec in specs[:24]:
            f = spec.field
            t = (g.designed_distance(spec) - 1) // 2
            cells = [(j, c) for j in range(spec.m) for c in range(spec.n)]
            for _ in range(2):
                msgs = [tuple(rng.randrange(f.q) for _ in range(a.k)) for a in spec.outers]
                word = g.mpc_encode(spec, msgs)
                for w in range(t + 1):
                    for where in itertools.combinations(cells, w):
                        for values in itertools.product(range(1, f.q), repeat=w):
                            rows = [list(r) for r in word]
                            for (j, c), e in zip(where, values):
                                rows[j][c] = f.add(rows[j][c], e)
                            received = tuple(map(tuple, rows))
                            assert g.correctable_gcc(error_matrix(f, word, received), spec)
                            assert g.mpc_decode(spec, received).codeword == word
                            checked += 1
        assert checked > 1000


class TestMpcDecode:
    def test_equals_improved_generic(self, mpc_uuv8):
        rng = random.Random(1)
        for _ in range(200):
            msgs = [
                tuple(rng.randrange(8) for _ in range(a.k)) for a in mpc_uuv8.outers
            ]
            word = g.mpc_encode(mpc_uuv8, msgs)
            received = corrupt(
                mpc_uuv8.field, word, rng.sample(range(14), rng.randrange(0, 4)), rng
            )
            try:
                got = g.mpc_decode(mpc_uuv8, received).codeword
            except g.DecodeFailure:
                got = None
            try:
                ref = g.gcc_decode_improved(mpc_uuv8, received).codeword
            except g.DecodeFailure:
                ref = None
            assert got == ref

    def test_round_schedule_odd_last_distance(self, mpc_uvw3):
        # prefix distances (3, 2, 1): rows are touched in rounds 3 and 1 only
        rng = random.Random(2)
        for _ in range(100):
            msgs = [
                tuple(rng.randrange(3) for _ in range(a.k)) for a in mpc_uvw3.outers
            ]
            word = g.mpc_encode(mpc_uvw3, msgs)
            received = corrupt(
                mpc_uvw3.field, word, rng.sample(range(21), rng.randrange(0, 3)), rng
            )
            try:
                report = g.mpc_decode(mpc_uvw3, received)
            except g.DecodeFailure as exc:
                report = exc.report
            touched = [i + 1 for i, c in enumerate(report.inner_invocations) if c]
            assert len(touched) <= 1 + (mpc_uvw3.k - 1) // 2
            assert 2 not in touched  # the even-distance round reuses everything

    def test_invocation_bound_odd_case(self, mpc_uvw3):
        # last prefix distance odd: M + (d_a2 - 1)
        rng = random.Random(3)
        bound = mpc_uvw3.m + (mpc_uvw3.outers[1].distance() - 1)
        for _ in range(300):
            msgs = [
                tuple(rng.randrange(3) for _ in range(a.k)) for a in mpc_uvw3.outers
            ]
            word = g.mpc_encode(mpc_uvw3, msgs)
            received = corrupt(
                mpc_uvw3.field, word, rng.sample(range(21), rng.randrange(0, 6)), rng
            )
            try:
                report = g.mpc_decode(mpc_uvw3, received)
            except g.DecodeFailure as exc:
                report = exc.report
            assert report.total_inner <= bound

    def test_invocation_bound_even_case(self, gf3):
        # two levels with N = 3... use a k=2 slice of the ternary matrix so the
        # last prefix distance is even (distances (3, 2))
        a1 = g.generic_code(gf3, [[1, 0, 2, 1, 0, 2, 2], [2, 1, 0, 1, 1, 1, 0]])
        a2 = g.generic_code(
            gf3,
            [
                [2, 1, 1, 1, 0, 2, 2],
                [0, 1, 0, 2, 2, 0, 1],
                [2, 0, 2, 0, 2, 0, 2],
                [1, 2, 1, 0, 2, 1, 1],
            ],
        )
        spec = g.mpc_spec([a1, a2], [[1, 2, 1], [1, 1, 0]], gf3)
        assert [c.distance() for c in spec.subcodes] == [3, 2]
        rng = random.Random(4)
        t = spec.k // 2
        bound = spec.m + sum(
            spec.outers[spec.k - 2 * i - 1].distance() - 1 for i in range(t)
        )
        for _ in range(200):
            msgs = [
                tuple(rng.randrange(3) for _ in range(a.k)) for a in spec.outers
            ]
            word = g.mpc_encode(spec, msgs)
            received = corrupt(
                spec.field, word, rng.sample(range(21), rng.randrange(0, 5)), rng
            )
            try:
                report = g.mpc_decode(spec, received)
            except g.DecodeFailure as exc:
                report = exc.report
            assert report.total_inner <= bound


class TestSpecializedUuv:
    def test_clean(self, mpc_uuv8):
        msgs = [(1, 2, 3, 4, 5), (6,)]
        word = g.mpc_encode(mpc_uuv8, msgs)
        counter = {}
        v1, v2 = g.decode_uuv(mpc_uuv8, word, counter)
        assert v1 == mpc_uuv8.outers[0].encode(msgs[0])
        assert v2 == mpc_uuv8.outers[1].encode(msgs[1])
        assert counter == {"outer:1": 1, "outer:2": 1}

    def test_exhaustive_half_distance(self, gf2):
        # small instance: repetition [3,1,3] levels, d* = 3, exhaustive weight 1
        spec = g.mpc_spec(
            [g.repetition_code(gf2, 3), g.repetition_code(gf2, 3)], UUV_MATRIX, gf2
        )
        for msgs in itertools.product(range(2), repeat=2):
            word = g.mpc_encode(spec, [(msgs[0],), (msgs[1],)])
            for p in range(6):
                rows = [list(r) for r in word]
                rows[p // 2][p % 2] ^= 1
                got = g.decode_uuv(spec, tuple(tuple(r) for r in rows))
                naive = g.decode_uuv_naive(spec, tuple(tuple(r) for r in rows))
                expect = (spec.outers[0].encode((msgs[0],)), spec.outers[1].encode((msgs[1],)))
                assert got == expect
                assert naive == expect

    @pytest.mark.parametrize("binary", [False, True], ids=["gf8", "gf2-repetition"])
    def test_matches_generic_wherever_generic_succeeds(self, mpc_uuv8, gf2, binary):
        # mpc_uuv8, or (u | u+v) over GF(2) with [2,1,2] repetition outers
        spec = g.mpc_spec([g.repetition_code(gf2, 2)] * 2, UUV_MATRIX, gf2) if binary else mpc_uuv8
        size = 2 * spec.m
        rng = random.Random(5)
        for _ in range(500):
            msgs = [
                tuple(rng.randrange(spec.field.q) for _ in range(a.k)) for a in spec.outers
            ]
            word = g.mpc_encode(spec, msgs)
            received = corrupt(
                spec.field, word, rng.sample(range(size), rng.randrange(0, 5)), rng
            )
            try:
                generic = tuple(g.mpc_decode(spec, received).columns)
            except g.DecodeFailure:
                continue
            special = g.decode_uuv(spec, received)
            assert tuple(special) == generic

    def test_wrong_matrix_rejected(self, gf2):
        a = g.repetition_code(gf2, 3)
        spec = g.mpc_spec([a, a], [[1, 1], [1, 0]], gf2)
        with pytest.raises(g.InvalidParams):
            g.decode_uuv(spec, ((0, 0),) * 3)


class TestSpecializedUuvNaive:
    def test_fallback_branch_used(self, mpc_uuv8):
        # errors concentrated in the first block: the direct first-level decode
        # miscorrects or overshoots, the re-derived second input is clean
        rng = random.Random(6)
        forced = 0
        for _ in range(300):
            msgs = [
                tuple(rng.randrange(8) for _ in range(a.k)) for a in mpc_uuv8.outers
            ]
            word = g.mpc_encode(mpc_uuv8, msgs)
            rows = [list(r) for r in word]
            for j in rng.sample(range(7), 2):
                rows[j][0] = mpc_uuv8.field.add(rows[j][0], rng.randrange(1, 8))
            received = tuple(tuple(r) for r in rows)
            errors = error_matrix(mpc_uuv8.field, word, received)
            if 2 * sum(g.wt(r) for r in errors) >= 6:
                continue
            counter = {}
            v1, v2 = g.decode_uuv_naive(mpc_uuv8, received, counter)
            assert (v1, v2) == (
                mpc_uuv8.outers[0].encode(msgs[0]),
                mpc_uuv8.outers[1].encode(msgs[1]),
            )
            if counter.get("outer:1") == 2:
                forced += 1
        assert forced > 0


class TestSpecializedUvw:
    def test_clean(self, mpc_uvw3):
        msgs = [(1,), (2, 0), (1, 0, 2, 1)]
        word = g.mpc_encode(mpc_uvw3, msgs)
        counter = {}
        cols = g.decode_uvw(mpc_uvw3, word, counter)
        assert cols == tuple(
            a.encode(m) for a, m in zip(mpc_uvw3.outers, msgs)
        )
        assert counter["outer:3"] == 1 and counter["outer:2"] == 1
        assert counter["outer:1"] <= 2 and counter.get("inner:1", 0) == 0

    def test_counter_budget(self, mpc_uvw3):
        rng = random.Random(7)
        limit = mpc_uvw3.outers[1].distance() - 1
        for _ in range(400):
            msgs = [
                tuple(rng.randrange(3) for _ in range(a.k)) for a in mpc_uvw3.outers
            ]
            word = g.mpc_encode(mpc_uvw3, msgs)
            received = corrupt(
                mpc_uvw3.field, word, rng.sample(range(21), rng.randrange(0, 4)), rng
            )
            counter = {}
            try:
                g.decode_uvw(mpc_uvw3, received, counter)
            except g.DecodeFailure:
                pass
            assert counter.get("outer:3", 0) <= 1
            assert counter.get("outer:2", 0) <= 1
            assert counter.get("outer:1", 0) <= 2
            assert counter.get("inner:1", 0) <= limit

    def test_characteristic_two_rejected(self, gf2, gf4):
        a = g.repetition_code(gf4, 3)
        spec = g.mpc_spec([a, a, a], [[1, 3, 1], [1, 1, 0], [1, 0, 0]], gf4)
        with pytest.raises(g.InvalidParams):
            g.decode_uvw(spec, ((0, 0, 0),) * 3)


class TestNscSearch:
    @pytest.mark.parametrize("fixed", [False, True], ids=["random", "uvw-matrix"])
    def test_prefix_codes_are_mds(self, gf3, fixed):
        # matrices the search finds over GF(2), GF(3) and GF(5), or UVW_MATRIX
        rng = np.random.Generator(np.random.PCG64(8))
        found = [(gf3, UVW_MATRIX)] if fixed else []
        for q, p, m in () if fixed else ((2, 2, 1), (3, 3, 1), (5, 5, 1)):
            field = g.make_field(p, m)
            for _ in range(8):
                k = int(rng.integers(1, min(4, q) + 1))
                n = int(rng.integers(k, min(6, q) + 1))
                matrix = g.random_nsc_matrix(field, k, n, rng, max_tries=4000)
                if matrix is not None:
                    found.append((field, matrix))
        assert len(found) >= (1 if fixed else 10)
        for field, matrix in found:
            n = len(matrix[0])
            for t in range(1, len(matrix) + 1):
                code = g.LinearCode(field, matrix[:t])
                assert g.min_distance(code) == n - t + 1

    def test_search_returns_none_when_impossible(self, gf2):
        rng = np.random.Generator(np.random.PCG64(9))
        # k = 2 over GF(2) cannot be NSC beyond N = 2
        assert g.random_nsc_matrix(gf2, 2, 4, rng, max_tries=500) is None


class TestSerialization:
    def test_roundtrip(self, mpc_uuv8):
        d = specio.mpc_to_json(mpc_uuv8)
        spec2 = specio.load_spec(d)
        assert specio.mpc_to_json(spec2) == d
        msgs = [(1, 2, 3, 4, 5), (6,)]
        assert g.mpc_encode(spec2, msgs) == g.mpc_encode(mpc_uuv8, msgs)
