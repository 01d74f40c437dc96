import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gccodec as g
from gccodec import linalg

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


@st.composite
def matrices(draw):
    """(field, k x n matrix): sparse entries and rows copied from a linear
    combination of earlier rows make rank-deficient matrices common."""
    f = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]()
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.integers(0, f.q - 1))
    m = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(k)]
    if k > 1 and draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(0, f.q - 1), min_size=k - 1, max_size=k - 1))
        m[-1] = list(linalg.vec_mat(f, coeffs, m[:-1]))
    return f, m


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_elimination_pins_down_rank_and_right_inverse(case):
    f, m = case
    k, n = len(m), len(m[0])
    rank = linalg.rank(f, m)
    assert f.q**rank == span_size(f, m)
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


ROW_MAP_FIELDS = {**FIELDS, "GF(4)": lambda: g.make_field(2, 2)}


def row_map_kernels(f, m):
    """(default, row loop, array product) RowMaps of m; the default is a
    lookup table when f.q**len(m) <= TABLE_CAP and the row loop otherwise."""
    with mock.patch.object(linalg, "TABLE_CAP", 0):
        loop = linalg.RowMap(f, m, rows=0)
    return linalg.RowMap(f, m, rows=0), loop, linalg.RowMap(f, m, rows=1 << 20)


@st.composite
def row_maps(draw):
    """(field, K x N matrix, rows of K elements), K up to one past the
    largest domain the table cap admits."""
    f = ROW_MAP_FIELDS[draw(st.sampled_from(sorted(ROW_MAP_FIELDS)))]()
    top = max(k for k in range(1, 12) if f.q**k <= linalg.TABLE_CAP) + 1
    k = draw(st.integers(1, top))
    n = draw(st.integers(1, 5))
    element = st.integers(0, f.q - 1)
    m = [draw(st.lists(element, min_size=n, max_size=n)) for _ in range(k)]
    rows = draw(st.lists(st.lists(element, min_size=k, max_size=k), min_size=1, max_size=4))
    return f, m, rows


def outcome(call):
    """("ok", value) or ("raises", exception type) of call()."""
    try:
        return "ok", call()
    except Exception as exc:
        return "raises", type(exc)


@given(row_maps())
@settings(max_examples=200, deadline=None)
def test_row_map_kernels_agree(case):
    f, m, rows = case
    table, loop, array = row_map_kernels(f, m)
    assert (table.table is not None) == (f.q ** len(m) <= linalg.TABLE_CAP)
    assert table.array is None and loop.table is None and loop.array is None
    assert array.array is not None and array.table is None
    expect = [linalg.vec_mat(f, row, m) for row in rows]
    as_numpy = [tuple(map(np.int64, row)) for row in rows]
    for given_rows in (rows, [tuple(row) for row in rows], as_numpy, [np.array(row) for row in rows]):
        for kernel in (table, loop, array):
            assert kernel(given_rows) == expect
            assert [kernel.row(row) for row in given_rows] == expect


@given(row_maps(), st.data())
@settings(max_examples=200, deadline=None)
def test_row_map_table_misses_read_like_vec_mat(case, data):
    """A row the table does not hold reads, or fails with the same
    exception type, as vec_mat would read it."""
    f, m, rows = case
    table, loop, _ = row_map_kernels(f, m)
    row = list(rows[0])
    how = data.draw(st.sampled_from(["short", "long", "entry", "scalar"]))
    if how == "short":
        row = row[:-1]
    elif how == "long":
        row = row + [0]
    elif how == "entry":
        row[data.draw(st.integers(0, len(row) - 1))] = data.draw(
            st.sampled_from([f.q, -1, 1 << 70, None, "1", 1.5, [], True])
        )
    else:
        row = data.draw(st.sampled_from([len(m), None]))
    for x in (row, tuple(row)) if isinstance(row, list) else (row,):
        expect = outcome(lambda: linalg.vec_mat(f, x, m))
        for kernel in (table, loop):
            assert outcome(lambda: kernel.row(x)) == expect
            assert outcome(lambda: kernel([x])) == outcome(lambda: [linalg.vec_mat(f, x, m)])


def test_benchmark_maps_are_tabled(mpc_uuv8, cc_two_cols):
    """The small maps the (u | u+v) over GF(8) and the Hamming-inner
    constructions apply to every word are lookup tables: the symbol maps,
    the subcodes' encoders and inverses, and the RS(7,5) root search;
    every map of RS(4,2)/GF(4) over Hamming [7,4,3]."""
    maps = [mpc_uuv8.encoder, *mpc_uuv8.level_encoders, *mpc_uuv8.level_inverses]
    for sub in mpc_uuv8.subcodes:
        maps += [sub._encoder, sub.inverse]
    maps.append(mpc_uuv8.outers[0].decoder._roots)
    outer, inner = cc_two_cols.outer, cc_two_cols.inner
    maps += [cc_two_cols.encoder, cc_two_cols.inverse, inner._encoder, inner.inverse]
    maps += [outer._encoder, outer.inverse, outer.decoder._syndromes, outer.decoder._roots]
    assert all(m.table is not None for m in maps)
