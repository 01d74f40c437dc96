import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gccodec as g
from gccodec import linalg
from gccodec.block_codes import ReedSolomonDecoder
from conftest import has_array_kernel

FIELDS = {
    "GF(2)": lambda: g.make_field(2, 1),
    "GF(3)": lambda: g.make_field(3, 1),
    "GF(8)": lambda: g.make_field(2, 3),
    "GF(9)": lambda: g.make_field(3, 2),
    "GF(16)/GF(4)": lambda: g.extend_field(g.make_field(2, 2), 2),
}


def span_size(f, m) -> int:
    """Number of distinct combinations of the rows of m: q^rank."""
    return len({linalg.vec_mat(f, c, m) for c in itertools.product(range(f.q), repeat=len(m))})


def det(f, m):
    """The determinant of a square matrix, by expansion along its first row."""
    if not m:
        return 1
    out = 0
    for j, a in enumerate(m[0]):
        term = f.mul(a, det(f, [row[:j] + row[j + 1 :] for row in m[1:]]))
        out = f.sub(out, term) if j % 2 else f.add(out, term)
    return out


def minor_rank(f, m) -> int:
    """The order of the largest nonzero minor of m: its rank, for fields
    whose spans are past enumeration."""
    k, n = len(m), len(m[0])
    minors = (
        (r, [[m[i][c] for c in cols] for i in rows])
        for r in range(1, k + 1)
        for rows in itertools.combinations(range(k), r)
        for cols in itertools.combinations(range(n), r)
    )
    return max((r for r, square in minors if det(f, square)), default=0)


@st.composite
def matrices(draw, fields=FIELDS):
    """(field, k x n matrix): sparse entries and rows copied from a linear
    combination of earlier rows make rank-deficient matrices common."""
    f = fields[draw(st.sampled_from(sorted(fields)))]()
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.integers(0, f.q - 1))
    m = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(k)]
    if k > 1 and draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(0, f.q - 1), min_size=k - 1, max_size=k - 1))
        m[-1] = list(linalg.vec_mat(f, coeffs, m[:-1]))
    return f, m


@given(matrices({**FIELDS, "GF(2^17)": lambda: g.make_field(2, 17)}))
@settings(max_examples=200, deadline=None)
def test_elimination_pins_down_rank_and_right_inverse(case):
    f, m = case
    k, n = len(m), len(m[0])
    rank = linalg.rank(f, m)
    # GF(2^17), past the log tables, has too many combinations to count
    assert f.q**rank == span_size(f, m) if f.q**k <= 4096 else rank == minor_rank(f, m)
    # column c is a pivot when it is independent of the columns before it
    columns = [[row[:c] for row in m] for c in range(n + 1)]
    pivots = [c for c in range(n) if linalg.rank(f, columns[c + 1]) > linalg.rank(f, columns[c])]
    assert len(pivots) == rank
    if rank < k:
        with pytest.raises(g.InvalidParams):
            linalg.right_inverse(f, m)
        with pytest.raises(g.InvalidParams):
            g.LinearCode(f, m)
        return
    r = linalg.right_inverse(f, m)
    assert len(r) == n and all(len(row) == k for row in r)
    identity = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    assert [linalg.vec_mat(f, row, r) for row in m] == identity
    assert [c for c in range(n) if any(r[c])] == pivots
    code = g.LinearCode(f, m)
    assert code.inverse.matrix == r
    for msg in itertools.islice(itertools.product(range(f.q), repeat=k), 64):
        assert code.message_of(code.encode(msg)) == msg


@given(matrices(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_parity_check_spans_the_dual_and_elimination_follows_its_order(case, rnd):
    f, m = case
    n = len(m[0])
    if linalg.rank(f, m) == len(m):
        h = linalg.parity_check(f, m)
        assert len(h) == n - len(m) and (not h or linalg.rank(f, h) == len(h))
        assert all(f.dot(row, check) == 0 for row in m for check in h)
    # pivots are sought in the given order: each is the first column of the
    # order that the columns before it in the order do not span, and the
    # reduced rows are the identity on the pivots
    order = rnd.sample(range(n), n)
    rows, pivots = linalg.eliminate(f, m, order=order)
    before = [linalg.rank(f, [[row[j] for j in order[:i]] for row in m]) for i in range(n + 1)]
    assert pivots == [c for i, c in enumerate(order) if before[i + 1] > before[i]]
    assert [[row[c] for c in pivots] for row in rows[: len(pivots)]] == [
        [int(i == j) for j in range(len(pivots))] for i in range(len(pivots))
    ]
    assert not any(map(any, rows[len(pivots) :]))
    assert linalg.rank(f, rows + m) == len(pivots)


ROW_MAP_FIELDS = {**FIELDS, "GF(4)": lambda: g.make_field(2, 2)}


def tower(f, s):
    """The degree-s view over f (s = 1 or 2): f itself, or its quadratic
    extension."""
    return g.TowerView(f if s == 1 else g.extend_field(f, 2), f)


def row_map_kernels(f, m, towers):
    """[(kernel, RowMap of m, ARRAY_MIN_PRODUCTS that pins it)]: the map as
    built, a lookup table when f.q**len(m) <= TABLE_CAP (the row loop
    otherwise), and the row loop and the array product of the map built
    without a table (the row loop again where f has no array kernel).
    towers holds RowMap's split or join keyword."""
    table = linalg.RowMap(f, m, **towers)
    with mock.patch.object(linalg, "TABLE_CAP", 0):
        bare = linalg.RowMap(f, m, **towers)
    assert (table.table is not None) == (f.q ** len(m) <= linalg.TABLE_CAP)
    assert bare.table is None and (bare.array is not None) == has_array_kernel(f)
    return [("table", table, 1 << 62), ("row loop", bare, 1 << 62), ("array", bare, 0)]


@st.composite
def row_maps(draw, fields=ROW_MAP_FIELDS, sides=("plain", "split", "join")):
    """(field, K x N matrix, towers, rows), K up to one past the largest
    domain the table cap admits.  towers is {} for a plain map, or the
    split or join keyword of a RowMap: towers of degree one and two over
    the field, their degrees summing to K or N.  A row holds K elements, or
    one symbol per split tower."""
    f = fields[draw(st.sampled_from(sorted(fields)))]()
    top = max((k for k in range(1, 12) if f.q**k <= linalg.TABLE_CAP), default=0) + 1
    k = draw(st.integers(1, top))
    n = draw(st.integers(1, 5))
    element = st.integers(0, f.q - 1)
    m = [draw(st.lists(element, min_size=n, max_size=n)) for _ in range(k)]
    side = draw(st.sampled_from(sides))
    towers, symbols = {}, [element] * k
    if side != "plain":
        degrees, left = [], k if side == "split" else n
        while left:
            degrees.append(draw(st.sampled_from([1, 2][:left])))
            left -= degrees[-1]
        towers = {side: tuple(tower(f, s) for s in degrees)}
        if side == "split":
            symbols = [st.integers(0, t.big.q - 1) for t in towers["split"]]
    rows = draw(st.lists(st.tuples(*symbols).map(list), min_size=1, max_size=4))
    return f, m, towers, rows


def checked_product(f, m, towers, x):
    """x . m by vec_mat, after to_base_vector on a split map's symbols and
    before from_base_vector on a join map's digits."""
    split, join = towers.get("split"), towers.get("join")
    if split:
        if len(x) != len(split):
            raise g.InvalidParams(f"expected {len(split)} symbols, got {len(x)}")
        x = sum((t.to_base_vector(e) for t, e in zip(split, x)), ())
    out = linalg.vec_mat(f, x, m)
    if join:
        ends = itertools.accumulate(t.s for t in join)
        out = tuple(t.from_base_vector(out[end - t.s : end]) for t, end in zip(join, ends))
    return out


def outcome(call):
    """("ok", value) or ("raises", exception type) of call()."""
    try:
        return "ok", call()
    except Exception as exc:
        return "raises", type(exc)


@given(row_maps())
@settings(max_examples=300, deadline=None)
def test_row_map_kernels_agree(case):
    f, m, towers, rows = case
    expect = [checked_product(f, m, towers, row) for row in rows]
    as_numpy = [tuple(map(np.int64, row)) for row in rows]
    for kernel, rowmap, threshold in row_map_kernels(f, m, towers):
        with mock.patch.object(linalg, "ARRAY_MIN_PRODUCTS", threshold):
            for given_rows in (rows, [tuple(row) for row in rows], as_numpy, [np.array(row) for row in rows]):
                assert rowmap(given_rows) == expect, kernel
                assert [rowmap.row(row) for row in given_rows] == expect, kernel


@given(row_maps(), st.data())
@settings(max_examples=300, deadline=None)
def test_row_map_table_misses_read_like_vec_mat(case, data):
    """A row the table does not hold reads, or fails with the same
    exception type, as checked_product would read it, and so does the row
    loop."""
    f, m, towers, rows = case
    (_, table, _), (_, loop, _), _ = row_map_kernels(f, m, towers)
    row = list(rows[0])
    how = data.draw(st.sampled_from(["short", "long", "entry", "scalar"]))
    if how == "short":
        row = row[:-1]
    elif how == "long":
        row = row + [0]
    elif how == "entry":
        i = data.draw(st.integers(0, len(row) - 1))
        split = towers.get("split")
        # True equals 1, which a table of symbols holds
        bad = [-1, 1 << 70, None, "1", 1.5, []] + ([] if split else [True])
        row[i] = data.draw(st.sampled_from(bad + [split[i].big.q if split else f.q]))
    else:
        row = data.draw(st.sampled_from([len(m), None]))
    with mock.patch.object(linalg, "ARRAY_MIN_PRODUCTS", 1 << 62):
        for x in (row, tuple(row)) if isinstance(row, list) else (row,):
            expect = outcome(lambda: checked_product(f, m, towers, x))
            for kernel in (table, loop):
                assert outcome(lambda: kernel.row(x)) == expect
                assert outcome(lambda: kernel([x])) == outcome(lambda: [checked_product(f, m, towers, x)])


def test_symbol_table_misses_raise_rather_than_yield_digits():
    """A row of GF(4) symbols, or of GF(2) digits, that the table does not
    hold goes through to_base_vector or from_base_vector and raises."""
    gf2 = g.make_field(2, 1)
    split = linalg.RowMap(gf2, [[1, 0, 1], [0, 1, 1]], split=(tower(gf2, 2),))
    join = linalg.RowMap(gf2, [[1, 0], [0, 1], [1, 1]], join=(tower(gf2, 2),))
    assert split.table is not None and join.table is not None
    for row in [(4,), (-1,), (None,), ("1",), (1.5,), (1, 2), ()]:
        with pytest.raises(g.InvalidParams):
            split.row(row)
    # vec_mat reads 1.5 over GF(2) as a float digit, which no symbol packs
    for row in [(1.5, 0, 0), (0, 0, 0.5)]:
        with pytest.raises(g.InvalidParams):
            join.row(row)


# fields past the table cap for every K, on plain maps (a quadratic tower
# over GF(2^17) would first search 2^17 reducible moduli x^2 + c)
LARGE_ROW_MAP_FIELDS = {
    "GF(31)": lambda: g.make_field(31, 1),
    "GF(65537)": lambda: g.make_field(65537, 1),
    "GF(1024)": lambda: g.make_field(2, 10),
    "GF(2^17)": lambda: g.make_field(2, 17),
}


@given(st.one_of(row_maps(), row_maps(LARGE_ROW_MAP_FIELDS, sides=("plain",))))
@settings(max_examples=100, deadline=None)
def test_row_map_batch_size_picks_the_kernel(case):
    """One map without a table gives the same tuples to a batch just below
    ARRAY_MIN_PRODUCTS products, on the row loop, and to one at it: in one
    packed product in characteristic 2 up to 2^8 elements, and on the row
    loop in every other field (GF(3), GF(9), GF(31), GF(65537), GF(1024),
    GF(2^17)), whose maps hold no array."""
    f, m, towers, rows = case
    with mock.patch.object(linalg, "TABLE_CAP", 0):
        rowmap = linalg.RowMap(f, m, **towers)
    assert (rowmap.array is not None) == has_array_kernel(f)
    products = len(m) * len(m[0])
    small = (linalg.ARRAY_MIN_PRODUCTS - 1) // products
    large = -(-linalg.ARRAY_MIN_PRODUCTS // products)
    batch = [rows[i % len(rows)] for i in range(large)]
    expect = [checked_product(f, m, towers, row) for row in batch]
    product = linalg.RowMap.product
    with mock.patch.object(linalg.RowMap, "product", autospec=True, side_effect=product) as tables:
        assert rowmap(batch[:small]) == expect[:small]
        assert tables.call_count == 0
        assert rowmap(batch) == expect
        assert tables.call_count == has_array_kernel(f)


def test_benchmark_maps_are_tabled(gf8, mpc_uuv8, cc_two_cols):
    """The small maps the (u | u+v) over GF(8) and the Hamming-inner
    constructions apply to every word are lookup tables: the symbol maps,
    the subcodes' encoders and inverses, and the erasure projections of
    the RS(7,5) syndrome table; every map of RS(4,2)/GF(4) over Hamming
    [7,4,3], the outer's word table included.  Both RS codes decode by
    syndrome table (block_codes.attach_decoder); ReedSolomonDecoder's
    root search on RS(7,5), attached explicitly, is a table too."""
    maps = [mpc_uuv8.encoder, *mpc_uuv8.level_encoders, *mpc_uuv8.level_inverses]
    for sub in mpc_uuv8.subcodes:
        maps += [sub._encoder, sub.inverse]
    rs75 = mpc_uuv8.outers[0].decoder
    maps += [rs75._table(frozenset({i})).project for i in range(7)]
    maps.append(ReedSolomonDecoder(gf8, range(7), 5)._roots)
    outer, inner = cc_two_cols.outer, cc_two_cols.inner
    maps += [cc_two_cols.encoder, cc_two_cols.inverse, inner._encoder, inner.inverse]
    maps += [outer._encoder, outer.inverse, outer.decoder._syndromes, outer.decoder._table(frozenset({0})).project]
    assert all(m.table is not None for m in maps)
    assert outer.decoder._clean.words is not None


@pytest.mark.parametrize(
    "field,k,n,split,join,slices,unpack",
    [
        ((2, 4), 15, 7, 0, 0, False, False),  # the RS(15,8) syndrome map: 28 bits out
        ((2, 1), 16, 64, 0, 0, False, False),  # 64 one-bit symbols fill one word
        ((2, 1), 16, 65, 0, 0, False, True),
        ((2, 4), 15, 8, 0, 4, False, False),  # the cc-rs256 fold: 4 joined symbols, 32 bits
        ((2, 4), 8, 15, 4, 0, True, False),  # the cc-rs256 encoder: split inputs
        ((2, 8), 64, 24, 0, 0, True, True),  # 8-bit inputs: two slices each
    ],
    ids=["gf16-syndromes", "gf2-one-word", "gf2-two-words", "gf16-join", "gf16-split", "gf256"],
)
def test_packed_products_skip_the_steps_that_do_nothing(field, k, n, split, join, slices, unpack):
    """_packed drops the slice step where the slices are the input symbols
    (unsplit, at most 4 bits) and the unpack's gather where the output is
    one 64-bit word; the products stay those of the row loop."""
    f = g.make_field(*field)
    tower = g.TowerView(g.extend_field(f, 2), f)
    towers = {"split": (tower,) * split, "join": (tower,) * join}
    rng = np.random.default_rng(k * n)
    rowmap = linalg.RowMap(f, rng.integers(0, f.q, (k, n)).tolist(), **towers)
    _, columns, _, _, word, _, _ = rowmap._packed
    assert (columns is not None, word is not None) == (slices, unpack)
    x = rng.integers(0, tower.big.q if split else f.q, (9, len(rowmap.split) or k))
    assert rowmap.product(x).tolist() == [list(rowmap._loop(row)) for row in x.tolist()]
