import itertools

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
