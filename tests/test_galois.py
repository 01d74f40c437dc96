import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

import gccodec as g
from gccodec import galois, linalg, specio
from conftest import has_array_kernel
from twins import mul_by_division


def naive_digits(value, p, m):
    out = []
    for _ in range(m):
        out.append(value % p)
        value //= p
    return out


def naive_mul(p, modulus, m, a, b):
    """Schoolbook polynomial multiply-and-reduce over GF(p)."""
    da, db = naive_digits(a, p, m), naive_digits(b, p, m)
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    # long division by the monic modulus
    for i in range(len(prod) - 1, m - 1, -1):
        coef = prod[i]
        if coef:
            for j, c in enumerate(modulus):
                prod[i - m + j] = (prod[i - m + j] - coef * c) % p
    acc = 0
    for d in reversed(prod[:m]):
        acc = acc * p + d
    return acc


def has_factor(f, modulus):
    """Exhaustive check for a monic factor of degree 1..deg/2 over the field
    f: trial division by every candidate."""
    poly = galois.poly_trim(list(modulus))
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(f.q), repeat=d):
            if not galois.poly_divmod(f, poly, list(tail) + [1])[1]:
                return True
    return False


@pytest.mark.parametrize("p,m,top", [(2, 1, 6), (3, 1, 6), (2, 2, 3)], ids=["GF(2)", "GF(3)", "GF(4)"])
def test_rabin_test_agrees_with_trial_division(p, m, top):
    """_poly_is_irreducible (Rabin's test) against trial division on every
    monic polynomial up to degree top; degree 0 is a unit, not irreducible."""
    f = g.make_field(p, m)
    counts = [0] * (top + 1)
    for deg in range(top + 1):
        for tail in itertools.product(range(f.q), repeat=deg):
            poly = list(tail) + [1]
            irreducible = galois._poly_is_irreducible(f, poly)
            assert irreducible == (deg > 0 and not has_factor(f, poly)), poly
            counts[deg] += irreducible
    # Gauss's count of monic irreducibles of degree n: (1/n) sum_{d|n} mu(d) q^(n/d)
    q = f.q
    assert counts[1:4] == [q, (q * q - q) // 2, (q**3 - q) // 3]


class TestMakeField:
    def test_prime_field(self):
        f = g.make_field(2, 1)
        assert (f.p, f.q) == (2, 2)

    def test_gf8_modulus_accepted(self):
        f = g.make_field(2, 3, (1, 1, 0, 1))
        assert f.q == 8
        assert not has_factor(g.make_field(2, 1), (1, 1, 0, 1))

    def test_reducible_modulus_rejected(self):
        # x^2 + 1 = (x + 1)^2 over GF(2)
        assert has_factor(g.make_field(2, 1), (1, 0, 1))
        with pytest.raises(g.ReducibleModulus):
            g.make_field(2, 2, (1, 0, 1))

    def test_not_prime(self):
        with pytest.raises(g.NotPrime):
            g.make_field(4, 1)
        with pytest.raises(g.NotPrime):
            g.make_field(15, 2)

    @pytest.mark.parametrize("p, m", [(2, True), (2, 3.0), (3, 7.0), (2.0, 3), ("2", 3), (2, "3"), (2, 0)], ids=repr)
    def test_p_and_m_must_be_integers(self, p, m):
        # (3, 7.0) names no handle made before, so the float reaches no cache
        with pytest.raises(g.InvalidParams):
            g.make_field(p, m)

    @pytest.mark.parametrize("s", [True, False, "2", 2.0, 0, -1, None], ids=repr)
    def test_extension_degree_must_be_a_positive_integer(self, gf4, s):
        with pytest.raises(g.InvalidParams):
            g.extend_field(gf4, s)

    def test_numpy_integers_are_integers(self, gf4):
        f = g.make_field(np.int64(2), np.uint8(3))
        assert f is g.make_field(2, 3) and type(f.p) is int
        assert g.extend_field(gf4, np.int32(2)) is g.extend_field(gf4, 2)
        assert type(g.make_field(np.int16(7), 1).p) is int

    def test_auto_modulus_deterministic(self):
        assert g.make_field(2, 3).modulus == (1, 1, 0, 1)
        assert g.make_field(2, 2).modulus == (1, 1, 1)
        assert g.make_field(2, 3) is g.make_field(2, 3)

    def test_auto_modulus_is_smallest_irreducible(self):
        for p, m in ((2, 4), (3, 2), (5, 2)):
            f = g.make_field(p, m)
            packed = sum(c * p**i for i, c in enumerate(f.modulus))
            for smaller in range(p**m, packed):
                digits = naive_digits(smaller, p, m + 1)
                if digits[m] != 1:
                    continue
                assert has_factor(g.make_field(p, 1), digits)


class TestConstructor:
    """make_field is extend_field of the one prime handle."""

    def test_numpy_modulus_reads_like_the_list(self):
        assert g.make_field(2, 3, np.array([1, 1, 0, 1])) is g.make_field(2, 3, [1, 1, 0, 1])
        gf4 = g.make_field(2, 2)
        modulus = list(g.extend_field(gf4, 2).modulus)
        assert g.extend_field(gf4, 2, np.array(modulus)) is g.extend_field(gf4, 2, modulus)

    def test_one_prime_handle(self):
        assert g.make_field(2, 1, [1, 1]) is g.make_field(2, 1)

    def test_degree_one_modulus_is_checked(self):
        with pytest.raises(g.InvalidParams):
            g.extend_field(g.make_field(2, 2), 1, [7, 7])

    def test_tables_built_once_with_the_handle(self, monkeypatch):
        built = []
        build = galois.Field._build_mul_table

        def counted(f):
            built.append(f)
            build(f)

        monkeypatch.setattr(galois, "_FIELD_CACHE", {})
        monkeypatch.setattr(galois.Field, "_build_mul_table", counted)
        for _ in range(3):
            gf9 = g.make_field(3, 2)
            gf81 = g.extend_field(gf9, 2)
            gf16 = g.make_field(2, 4)
        # GF(2), made on the way to GF(16), keeps only the array tables
        assert [f.q for f in built] == [9, 81, 2, 16]
        assert built[0] is gf9 and built[1] is gf81 and built[2] is gf16.base and built[3] is gf16
        assert [bool(f._log) for f in built] == [True, True, False, True]


    @pytest.mark.parametrize(
        "make",
        [
            lambda: g.make_field(2, 8),
            lambda: g.make_field(2, 8, [1, 0, 1, 1, 1, 0, 0, 0, 1]),
            lambda: g.make_field(3, 3),
            lambda: g.extend_field(g.make_field(2, 4), 2),
            lambda: g.extend_field(g.make_field(3, 1), 2, [2, 2, 1]),
        ],
    )
    def test_repeated_call_finds_the_handle_first(self, monkeypatch, make):
        # the modulus search and the irreducibility test run once per handle
        first = make()

        def refuse(*args):
            raise AssertionError("irreducibility test on a repeated call")

        monkeypatch.setattr(galois, "_poly_is_irreducible", refuse)
        assert make() is first

    def test_auto_and_explicit_modulus_give_one_handle(self, monkeypatch):
        monkeypatch.setattr(galois, "_FIELD_CACHE", {})
        auto = g.make_field(2, 4)
        assert g.make_field(2, 4, list(auto.modulus)) is auto
        assert g.make_field(2, 4) is auto

    @pytest.mark.parametrize(
        "make",
        [lambda: g.make_field(2, 8), lambda: g.extend_field(g.make_field(2, 4), 2)],
        ids=["GF(256)", "GF(256)/GF(16)"],
    )
    def test_auto_modulus_is_tested_once(self, monkeypatch, make):
        # the search tests each candidate once and builds the handle from
        # the one it picked without testing it again
        tested = []
        test = galois._poly_is_irreducible

        def counted(f, poly):
            tested.append((f.key, tuple(poly)))
            return test(f, poly)

        monkeypatch.setattr(galois, "_FIELD_CACHE", {})
        monkeypatch.setattr(galois, "_poly_is_irreducible", counted)
        field = make()
        assert (field.base.key, field.modulus) in tested
        assert len(tested) == len(set(tested))


class TestArithmetic:
    def test_mod3(self):
        f = g.make_field(3, 1)
        assert f.add(2, 2) == 1

    def test_gf8_examples(self):
        f = g.make_field(2, 3)
        assert f.mul(2, 2) == 4  # x * x = x^2, no reduction
        assert f.mul(4, 2) == 3  # x^2 * x = x + 1 under x^3 + x + 1

    @pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 1), (3, 2), (2, 4)])
    def test_full_mul_table_matches_naive(self, p, m):
        f = g.make_field(p, m)
        for a in range(f.q):
            for b in range(f.q):
                assert f.mul(a, b) == naive_mul(p, f.modulus, m, a, b)

    @given(st.integers(0, 8**2 - 1), st.integers(0, 63), st.integers(0, 63))
    @settings(max_examples=150, deadline=None)
    def test_field_axioms(self, a, b, c):
        f = g.make_field(2, 6)
        a %= f.q
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        if a:
            assert f.mul(a, f.inv(a)) == 1
        assert f.sub(f.add(a, b), b) == a

    def test_axioms_odd_characteristic(self):
        f = g.make_field(5, 2)
        for a in range(f.q):
            assert f.add(a, f.neg(a)) == 0
            if a:
                assert f.mul(a, f.inv(a)) == 1
        for a in (3, 7, 12, 24):
            for b in (1, 5, 19):
                assert f.sub(a, b) == f.add(a, f.neg(b))

    def test_division_by_zero(self):
        f = g.make_field(2, 3)
        with pytest.raises(ZeroDivisionError):
            f.inv(0)
        with pytest.raises(ZeroDivisionError):
            f.div(3, 0)

    def test_gf512_products_read_the_log_tables(self):
        # q = 512 is below galois._LOG_LIMIT, so GF(512) has exp/log tables
        # and these products read them; TestBeyondLogTables covers the
        # polynomial path above the limit
        f = g.make_field(2, 9)
        assert f._log
        a, b = 273, 401
        assert f.mul(a, b) == naive_mul(2, f.modulus, 9, a, b)
        assert f.mul(a, f.inv(a)) == 1


KERNEL_FIELDS = {
    "GF(7)": lambda: g.make_field(7, 1),
    "GF(4)": lambda: g.make_field(2, 2),
    "GF(8)": lambda: g.make_field(2, 3),
    "GF(9)": lambda: g.make_field(3, 2),
    "GF(25)": lambda: g.make_field(5, 2),
    "GF(16)/GF(4)": lambda: g.extend_field(g.make_field(2, 2), 2),
    "GF(256)/GF(16)": lambda: g.extend_field(g.make_field(2, 4), 2),
    "GF(243)": lambda: g.make_field(3, 5),
    "GF(512)": lambda: g.make_field(2, 9),
    "GF(1024)": lambda: g.make_field(2, 10),
    # x^4 + x^3 + x^2 + x + 1 is irreducible but x has order 5 under it
    "GF(16)-nonprimitive": lambda: g.make_field(2, 4, (1, 1, 1, 1, 1)),
}


def ref_mul(f, a, b):
    if f.base is None:
        return a * b % f.p
    if f.base.base is None:
        return naive_mul(f.p, f.modulus, f.degree, a, b)
    return f._mul_slow(a, b)


def ref_digitwise(f, op, *args):
    """Digit-wise add/neg over the base field, down to schoolbook mod p."""
    if f.base is None:
        return op(*args) % f.p
    digits = [f.to_digits(a) for a in args]
    return f.from_digits([ref_digitwise(f.base, op, *ds) for ds in zip(*digits)])


def kernel_pairs(f, count=1500):
    if f.q <= 64:
        return [(a, b) for a in range(f.q) for b in range(f.q)]
    rng = random.Random(f.q)
    return [(rng.randrange(f.q), rng.randrange(f.q)) for _ in range(count)]


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
class TestLogKernel:
    """exp/log (and Zech) arithmetic against schoolbook references."""

    def test_mul_inv_against_reference(self, name):
        f = KERNEL_FIELDS[name]()
        for a, b in kernel_pairs(f):
            assert f.mul(a, b) == ref_mul(f, a, b)
            if a:
                assert ref_mul(f, a, f.inv(a)) == 1

    def test_add_sub_neg_against_digits(self, name):
        f = KERNEL_FIELDS[name]()
        for a, b in kernel_pairs(f):
            assert f.add(a, b) == ref_digitwise(f, lambda x, y: x + y, a, b)
            assert f.sub(a, b) == ref_digitwise(f, lambda x, y: x - y, a, b)
            assert f.neg(a) == ref_digitwise(f, lambda x: -x, a)

    def test_axpy_and_dot_against_scalar_loop(self, name):
        f = KERNEL_FIELDS[name]()
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randrange(1, 20)
            u = [rng.choice((0, rng.randrange(f.q))) for _ in range(n)]
            v = [rng.choice((0, rng.randrange(f.q))) for _ in range(n)]
            c = rng.choice((0, 1, rng.randrange(f.q)))
            out = list(u)
            f.axpy(out, c, v)
            assert out == [f.add(x, f.mul(c, y)) for x, y in zip(u, v)]
            acc = 0
            for x, y in zip(u, v):
                acc = f.add(acc, f.mul(x, y))
            assert f.dot(u, v) == acc

    def test_pow_is_repeated_mul(self, name):
        f = KERNEL_FIELDS[name]()
        rng = random.Random(11)
        for a in [0, 1] + [rng.randrange(2, f.q) for _ in range(4)]:
            acc = 1
            for e in range(40):
                assert f.pow(a, e) == acc
                acc = f.mul(acc, a)
            if a:
                assert f.pow(a, f.q - 1) == 1
                assert f.pow(a, -3) == f.inv(f.mul(a, f.mul(a, a)))


BEYOND_FIELDS = {
    "GF(2^17)": lambda: g.make_field(2, 17),
    "GF(3^11)": lambda: g.make_field(3, 11),  # q = 177147: Euclid inverse, digit-wise add and neg
}


@pytest.mark.parametrize("name", sorted(BEYOND_FIELDS))
class TestBeyondLogTables:
    def test_polynomial_path_above_the_limit(self, name):
        f = BEYOND_FIELDS[name]()
        rng = random.Random(3)
        for _ in range(20):
            a, b = rng.randrange(1, f.q), rng.randrange(f.q)
            assert f.mul(a, b) == naive_mul(f.p, f.modulus, f.degree, a, b)
            assert f.add(a, b) == ref_digitwise(f, lambda x, y: x + y, a, b)
            assert f.neg(a) == ref_digitwise(f, lambda x: -x, a)
            assert naive_mul(f.p, f.modulus, f.degree, a, f.inv(a)) == 1
        u = [rng.randrange(f.q) for _ in range(5)]
        v = [rng.randrange(f.q) for _ in range(5)]
        out = list(u)
        f.axpy(out, 12345, v)
        assert out == [ref_digitwise(f, lambda x, y: x + y, x, f.mul(12345, y)) for x, y in zip(u, v)]
        assert f.dot(u, v) == f.add(f.mul(u[0], v[0]), f.dot(u[1:], v[1:]))
        assert f._log is False


@pytest.mark.parametrize(
    "make",
    [
        lambda: g.make_field(2, 17),
        lambda: g.make_field(3, 11),
        lambda: g.extend_field(g.make_field(2, 8), 3),  # GF(2^24) over GF(256)'s tables
    ],
    ids=["GF(2^17)", "GF(3^11)", "GF(2^24)/GF(256)"],
)
def test_products_past_the_tables_match_the_division_twin(make):
    f = make()
    rng = random.Random(f.q)
    pairs = [(rng.randrange(f.q), rng.randrange(f.q)) for _ in range(300)]
    pairs += [(0, 5), (5, 0), (1, f.q - 1), (f.q - 1, f.q - 1)]
    assert [f.mul(a, b) for a, b in pairs] == [mul_by_division(f, a, b) for a, b in pairs]
    assert f._log is False


ROW_MAP_FIELDS = {
    **KERNEL_FIELDS,
    "GF(2)": lambda: g.make_field(2, 1),
    "GF(3)": lambda: g.make_field(3, 1),
    "GF(2^17)": lambda: g.make_field(2, 17),  # no tables
    "GF(2^32+15)": lambda: g.make_field(4294967311, 1),
}


def random_matrix(f, rng, rows, cols):
    """Random elements with zero row 0 and zero column 0 when there are two."""
    out = [[rng.choice((0, 1, rng.randrange(f.q))) for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            if (i == 0 and rows > 1) or (j == 0 and cols > 1):
                out[i][j] = 0
    return out


@pytest.mark.parametrize("name", sorted(ROW_MAP_FIELDS))
def test_row_map_paths_agree(name, monkeypatch, array_calls):
    # one map without a table, pinned to the row loop and then to the
    # packed tables (where the field has them: characteristic 2 up to 2^8
    # elements) by ARRAY_MIN_PRODUCTS; every other field keeps the row loop
    f = ROW_MAP_FIELDS[name]()
    rng = random.Random(f.q)
    b = random_matrix(f, rng, 5, 4)
    monkeypatch.setattr(linalg, "TABLE_CAP", 0)
    rowmap = linalg.RowMap(f, b)
    assert rowmap.table is None and (rowmap.array is not None) == has_array_kernel(f)
    rows = random_matrix(f, rng, 6, 5)
    expect = [linalg.vec_mat(f, row, b) for row in rows]
    for threshold, arrays in ((1 << 62, 0), (0, 2 * has_array_kernel(f))):
        monkeypatch.setattr(linalg, "ARRAY_MIN_PRODUCTS", threshold)
        array_calls.clear()
        assert rowmap(rows) == expect
        assert rowmap.row(rows[1]) == expect[1]
        assert array_calls == [("packed", (6, 5)), ("packed", (1, 5))][:arrays]


# (M, K, N): a single row, a single inner coordinate, a general block
ROW_MAP_SHAPES = [(1, 1, 1), (1, 6, 5), (4, 1, 3), (6, 5, 7)]


@pytest.mark.parametrize("name", sorted(ROW_MAP_FIELDS))
class TestRowMapShapes:
    """RowMap against linalg.vec_mat, row by row, on (M, K) @ (K, N) blocks
    of the edge shapes, through every kernel the field has: the table
    where q^K fits under TABLE_CAP, the row loop, and the packed tables in
    characteristic 2 up to 2^8 elements."""

    @pytest.mark.parametrize("shape", ROW_MAP_SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_against_vec_mat(self, name, shape, monkeypatch, array_calls):
        f = ROW_MAP_FIELDS[name]()
        m, k, n = shape
        rng = random.Random(f.q + m * k * n)
        packed = has_array_kernel(f)
        for _ in range(5):
            a = random_matrix(f, rng, m, k)
            b = random_matrix(f, rng, k, n)
            expect = [linalg.vec_mat(f, row, b) for row in a]
            assert all(len(row) == n for row in expect)
            assert linalg.RowMap(f, b)(a) == expect
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "TABLE_CAP", 0)
                rowmap = linalg.RowMap(f, b)
                assert rowmap.table is None and (rowmap.array is not None) == packed
                for threshold in (1 << 62, 0):
                    patch.setattr(linalg, "ARRAY_MIN_PRODUCTS", threshold)
                    array_calls.clear()
                    assert rowmap(a) == expect
                    assert array_calls == ([("packed", (m, k))] if threshold == 0 and packed else [])


@pytest.mark.parametrize("name", ["GF(7)", "GF(9)", "GF(256)/GF(16)"])
def test_row_map_on_large_blocks(name, array_calls):
    # 300 rows through a 3 x 260 map, past any table: the packed tables
    # span several 64-bit words of images per slice over GF(256)/GF(16),
    # and the odd fields run the row loop
    f = ROW_MAP_FIELDS[name]()
    rng = random.Random(5)
    a = random_matrix(f, rng, 300, 3)
    b = random_matrix(f, rng, 3, 260)
    rowmap = linalg.RowMap(f, b)
    assert rowmap(a) == [linalg.vec_mat(f, row, b) for row in a]
    assert array_calls == ([("packed", (300, 3))] if has_array_kernel(f) else [])


# the fields above whose RowMaps take packed tables: characteristic 2, at
# most 2^8 elements
PACKED_FIELDS = ["GF(2)", "GF(4)", "GF(8)", "GF(16)-nonprimitive", "GF(16)/GF(4)", "GF(256)/GF(16)"]


def test_packed_fields_are_the_small_binary_ones():
    fields = {name: make() for name, make in ROW_MAP_FIELDS.items()}
    assert sorted(PACKED_FIELDS) == sorted(n for n, f in fields.items() if has_array_kernel(f))
    assert all((linalg.RowMap(f, [[1]]).array is not None) == (n in PACKED_FIELDS) for n, f in fields.items())


@pytest.mark.parametrize("name", PACKED_FIELDS)
@pytest.mark.parametrize("rows", [1, 64])
def test_packed_product_matches_the_row_loop(name, rows):
    """RowMap's packed tables against the row loop on (rows, K) @ (K, N):
    K = 1 and 5, N = 1, one word of elements (64/m), one more, and 64; row
    and column 0 of every block are zero; then maps that split symbols and
    join digits through a tower (degree two up to 16 elements, degree one
    over GF(256)/GF(16)), N past one word."""
    f = ROW_MAP_FIELDS[name]()
    m = f.q.bit_length() - 1
    rng = random.Random(f.q * rows)
    for k in (1, 5):
        for n in sorted({1, 64 // m, 64 // m + 1, 64}):
            matrix = random_matrix(f, rng, k, n)
            rowmap = linalg.RowMap(f, matrix)
            x = random_matrix(f, rng, rows, k)
            expect = [list(linalg.vec_mat(f, row, matrix)) for row in x]
            assert rowmap.product(np.array(x, dtype=np.int64)).tolist() == expect
    tower = g.TowerView(g.extend_field(f, 2) if f.q <= 16 else f, f)
    n = 2 * (64 // m + 1)
    for split, join, k in (((tower,) * 3, (), 3 * tower.s), ((), (tower,) * (n // tower.s), 7)):
        rowmap = linalg.RowMap(f, random_matrix(f, rng, k, n), split=split, join=join)
        domains = [t.big.q for t in split] or [f.q] * k
        x = np.array([[rng.randrange(q) for q in domains] for _ in range(rows)], dtype=np.int64)
        assert rowmap.product(x).tolist() == [list(rowmap._loop(row)) for row in x.tolist()]


# the characteristic-2 fields with tables, GF(2) included: their handles
# keep the numpy tables of the array kernels
ARRAY_FIELDS = {name: ROW_MAP_FIELDS[name] for name in PACKED_FIELDS + ["GF(512)", "GF(1024)"]}


@pytest.mark.parametrize("name", sorted(ARRAY_FIELDS))
def test_elementwise_array_kernels(name):
    """mul/inv on arrays, and products and XOR sums in log form, against
    the scalar operations."""
    f = ARRAY_FIELDS[name]()
    pairs = kernel_pairs(f, count=400)
    a = np.array([x for x, _ in pairs], dtype=np.int64)
    b = np.array([y for _, y in pairs], dtype=np.int64)
    assert f.mul_array(a, b).tolist() == [f.mul(x, y) for x, y in pairs]
    assert f.inv_array(a).tolist() == [f.inv(x) if x else 0 for x in a.tolist()]
    # broadcasting
    assert f.mul_array(a[:5, None], b[None, :7]).tolist() == [[f.mul(x, y) for y in b[:7].tolist()] for x in a[:5].tolist()]
    # products of operands in log form, and their sums along either axis
    la, lb = f.log_array(a), f.log_array(b)
    assert f.mul_logs(la, lb).tolist() == [f.mul(x, y) for x, y in pairs]
    rows, cols = np.resize(a, (8, 50)), np.resize(b, (8, 50))
    for axis in (0, 1):
        got = f.dot_logs(f.log_array(rows), f.log_array(cols), axis).tolist()
        lines = zip(np.moveaxis(rows, axis, 0).T.tolist(), np.moveaxis(cols, axis, 0).T.tolist())
        assert got == [f.dot(x, y) for x, y in lines]


class TestVector:
    @pytest.mark.parametrize("bad", [[1.5], ["1"], [True], [None], 5, None])
    def test_rejects_non_integers(self, bad):
        with pytest.raises(g.InvalidParams):
            g.make_field(2, 3).vector(bad)

    def test_accepts_numpy_integers(self):
        assert g.make_field(2, 3).vector(np.array([1, 7])) == (1, 7)


class TestValidate:
    """Every entry point reads elements by the rules of Field.vector: any
    integer type in [0, q) passes as a plain int; bool, float, str do not."""

    @pytest.mark.parametrize("bad", [True, False, 1.0, "1", None, 9, -1])
    def test_rejects(self, gf3, bad):
        gf9 = g.extend_field(gf3, 2)
        view = g.TowerView(gf9, gf3)
        for check in (gf9.validate, view.to_base_vector, view.lift):
            with pytest.raises(g.InvalidParams):
                check(bad)
        with pytest.raises(g.InvalidParams):
            gf9.vector([bad])

    def test_accepts_numpy_integers(self, gf3):
        gf9 = g.extend_field(gf3, 2)
        view = g.TowerView(gf9, gf3)
        e = gf9.validate(np.int64(5))
        assert type(e) is int and e == 5
        assert view.to_base_vector(np.int64(5)) == (2, 1)
        assert view.lift(np.int8(2)) == 2 and type(view.lift(np.int8(2))) is int
        assert type(g.TowerView(gf3, gf3).to_base_vector(np.int64(2))[0]) is int
        assert gf9.vector([np.int64(5)]) == (gf9.validate(np.uint16(5)),)

    @pytest.mark.parametrize(
        "modulus", [[1, 1.9, 0, 1], ["1", "1", "0", "1"], [3, 1, 0, 1], [True, 1, 0, 1], 5]
    )
    def test_make_field_reads_the_modulus_as_elements(self, modulus):
        # int(c) % 2 would turn each of these into x^3 + x + 1
        with pytest.raises(g.InvalidParams):
            g.make_field(2, 3, modulus)

    @pytest.mark.parametrize("modulus", [[0, 2], [1.0, 1], (0, True)])
    def test_degree_one_modulus(self, modulus):
        with pytest.raises(g.InvalidParams):
            g.make_field(2, 1, modulus)


class TestTowerView:
    def test_zero_and_basis_vectors(self, gf2, gf4):
        big = g.extend_field(gf4, 2)  # GF(16) over GF(4)
        view = g.TowerView(big, gf4)
        assert view.to_base_vector(0) == (0, 0)
        for i in range(view.s):  # the polynomial basis 1, x
            vec = view.to_base_vector(gf4.q**i)
            assert vec == tuple(1 if j == i else 0 for j in range(view.s))

    def test_roundtrip_all_elements(self, gf4):
        big = g.extend_field(gf4, 2)
        view = g.TowerView(big, gf4)
        for e in range(big.q):
            assert view.from_base_vector(view.to_base_vector(e)) == e

    def test_expansion_is_linear_over_base(self, gf4):
        big = g.extend_field(gf4, 2)
        view = g.TowerView(big, gf4)
        for a in (1, 5, 9, 14):
            for b in (0, 3, 7, 11):
                for c in range(gf4.q):
                    lhs = view.to_base_vector(big.add(big.mul(view.lift(c), a), b))
                    rhs = tuple(
                        gf4.add(gf4.mul(c, x), y)
                        for x, y in zip(view.to_base_vector(a), view.to_base_vector(b))
                    )
                    assert lhs == rhs

    @pytest.mark.parametrize(
        "tower",
        [
            lambda: (g.extend_field(g.make_field(2, 2), 2), g.make_field(2, 2)),
            lambda: (g.make_field(2, 3), g.make_field(2, 1)),
            lambda: (g.make_field(3, 1), g.make_field(3, 1)),
        ],
        ids=["default", "gf8-over-gf2", "degree-one"],
    )
    def test_split_and_join_maps_match_the_scalar_maps(self, tower, monkeypatch):
        # "default": GF(16) over GF(4), the view ConcatCode builds by default.
        # RowMaps of the identity that split every symbol into its
        # coordinates, and join coordinates into symbols, on the table, the
        # row loop and (in characteristic 2) the packed tables
        view = g.TowerView(*tower())
        word = list(range(view.big.q))
        coords = [view.to_base_vector(e) for e in word]
        assert [view.from_base_vector(c) for c in coords] == word
        identity = [[int(i == j) for j in range(view.s)] for i in range(view.s)]
        for cap, threshold in ((linalg.TABLE_CAP, 1 << 62), (0, 1 << 62), (0, 0)):
            monkeypatch.setattr(linalg, "TABLE_CAP", cap)
            monkeypatch.setattr(linalg, "ARRAY_MIN_PRODUCTS", threshold)
            expand = linalg.RowMap(view.base, identity, split=(view,))
            pack = linalg.RowMap(view.base, identity, join=(view,))
            assert expand([(e,) for e in word]) == coords
            assert pack(coords) == [(e,) for e in word]

    def test_mismatched_fields(self, gf2, gf4):
        big = g.extend_field(gf4, 2)
        with pytest.raises(g.FieldMismatch):
            g.TowerView(big, gf2)

    def test_degree_one_view(self, gf3):
        view = g.TowerView(gf3, gf3)
        assert view.s == 1
        assert view.to_base_vector(2) == (2,)
        assert view.from_base_vector((2,)) == 2
        for e in range(gf3.q):
            assert view.from_base_vector(view.to_base_vector(e)) == e


class TestSerialization:
    def test_field_roundtrip(self):
        for f in (g.make_field(2, 1), g.make_field(2, 3), g.make_field(3, 2)):
            d = specio.field_to_json(f)
            assert specio.field_from_json(d) is f
            assert set(d) == {"p", "m", "modulus"}

    def test_tower_field_roundtrip(self, gf4):
        big = g.extend_field(gf4, 2)
        d = specio.field_to_json(big)
        assert "base" in d
        assert specio.field_from_json(d) is big

    def test_element_packing(self):
        f = g.make_field(3, 2)
        for v in range(f.q):
            digits = f.to_digits(v)
            assert f.from_digits(digits) == v
            assert v == digits[0] + 3 * digits[1]
