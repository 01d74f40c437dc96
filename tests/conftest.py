import importlib.util
import sys
from pathlib import Path

import pytest

import gccodec as g
from gccodec import linalg

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# generator matrices frozen after a seeded search; distances are re-verified
# exhaustively at construction time by min_distance
GEN_5_2_3 = [[1, 0, 1, 1, 0], [0, 1, 1, 0, 1]]
GEN_HAMMING_7_4_3 = [
    [1, 0, 0, 0, 0, 1, 1],
    [0, 1, 0, 0, 1, 0, 1],
    [0, 0, 1, 0, 1, 1, 0],
    [0, 0, 0, 1, 1, 1, 1],
]
TERNARY_7_1_7 = [[1] * 7]
TERNARY_7_2_5 = [[1, 0, 2, 1, 0, 2, 2], [2, 1, 0, 1, 1, 1, 0]]
TERNARY_7_4_3 = [
    [2, 1, 1, 1, 0, 2, 2],
    [0, 1, 0, 2, 2, 0, 1],
    [2, 0, 2, 0, 2, 0, 2],
    [1, 2, 1, 0, 2, 1, 1],
]
# [8,1,8] repetition row, then the rest of an [8,4,4] extended Hamming code
GROWING_RADIUS_INNER = [
    [1] * 8,
    [1, 0, 0, 0, 0, 1, 1, 1],
    [0, 1, 0, 0, 1, 0, 1, 1],
    [0, 0, 1, 0, 1, 1, 0, 1],
]
# the Reed-Muller chain RM(1,3) [8,4,4] c RM(2,3) [8,7,2] c GF(2)^8: the
# monomials 1, x0, x1, x2, then x0x1, x0x2, x1x2, then x0x1x2 evaluated at
# the points 0..7 of GF(2)^3 (x_v is bit v)
RM3_CHAIN = [
    [1, 1, 1, 1, 1, 1, 1, 1],
    [0, 1, 0, 1, 0, 1, 0, 1],
    [0, 0, 1, 1, 0, 0, 1, 1],
    [0, 0, 0, 0, 1, 1, 1, 1],
    [0, 0, 0, 1, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 1, 0, 1],
    [0, 0, 0, 0, 0, 0, 1, 1],
    [0, 0, 0, 0, 0, 0, 0, 1],
]
UVW_MATRIX = [[1, 2, 1], [1, 1, 0], [1, 0, 0]]
UUV_MATRIX = [[1, 1], [0, 1]]


@pytest.fixture(scope="session")
def gf2():
    return g.make_field(2, 1)


@pytest.fixture(scope="session")
def gf3():
    return g.make_field(3, 1)


@pytest.fixture(scope="session")
def gf4(gf2):
    return g.extend_field(gf2, 2)


@pytest.fixture(scope="session")
def gf5():
    return g.make_field(5, 1)


@pytest.fixture(scope="session")
def gf8():
    return g.make_field(2, 3)


@pytest.fixture(scope="session")
def inner_523(gf2):
    code = g.generic_code(gf2, GEN_5_2_3)
    assert code.distance() == 3
    return code


@pytest.fixture(scope="session")
def cc_small(gf4, inner_523):
    """Outer [3,1,3] over GF(4), inner [5,2,3] over GF(2); d >= 9."""
    return g.ConcatCode(g.rs_code(gf4, 3, 1), inner_523)


@pytest.fixture(scope="session")
def cc_two_cols(gf2, gf4):
    """Outer [4,2,3] over GF(4), inner Hamming [7,4,3]; two message columns."""
    inner = g.generic_code(gf2, GEN_HAMMING_7_4_3)
    assert inner.distance() == 3
    return g.ConcatCode(g.rs_code(gf4, 4, 2), inner)


@pytest.fixture(scope="session")
def mpc_uuv8(gf8):
    """(u | u+v) over GF(8) with [7,5,3] and [7,1,7] outer codes; d* = 6."""
    return g.mpc_spec([g.rs_code(gf8, 7, 5), g.rs_code(gf8, 7, 1)], UUV_MATRIX, gf8)


@pytest.fixture(scope="session")
def mpc_uvw3(gf3):
    """(u+v+w | 2u+v | u) over GF(3) with outer distances (7, 5, 3), M = 7."""
    a1 = g.generic_code(gf3, TERNARY_7_1_7)
    a2 = g.generic_code(gf3, TERNARY_7_2_5)
    a3 = g.generic_code(gf3, TERNARY_7_4_3)
    assert (a1.distance(), a2.distance(), a3.distance()) == (7, 5, 3)
    return g.mpc_spec([a1, a2, a3], UVW_MATRIX, gf3)


@pytest.fixture(scope="session")
def mixed_spec(gf2, gf4):
    """Level 1 over GF(4) (width 2), level 2 over GF(2); inner 3x7 over GF(2)."""
    a1 = g.rs_code(gf4, 4, 1)  # [4,1,4] over GF(4)
    a2 = g.generic_code(gf2, [[1, 0, 1, 1], [0, 1, 1, 0]])  # [4,2,2]
    inner_gen = [
        [1, 0, 0, 1, 1, 1, 0],
        [0, 1, 0, 1, 1, 0, 1],
        [0, 0, 1, 1, 0, 1, 1],
    ]
    return g.gcc_spec([a1, a2], inner_gen, gf2)


@pytest.fixture(scope="session")
def gcc_growing_radius(gf2, gf8):
    """Hamming [7,4,3]/GF(2) over the [8,1,8] repetition subcode (width 1),
    RS(7,3)/GF(8) over the [8,4,4] code (width 3); d* = min(3*8, 5*4) = 20.

    The row radius grows from 1 at level 2 to 3 at level 1, so level 1
    re-decodes rows that failed or were contradicted at level 2.
    """
    a1 = g.generic_code(gf2, GEN_HAMMING_7_4_3)
    return g.gcc_spec(
        [a1, g.rs_code(gf8, 7, 3)], GROWING_RADIUS_INNER, gf2, subcode_distances=(8, 4)
    )


@pytest.fixture(scope="session")
def rm_chain(gf2, gf8):
    """Three levels on the RM3_CHAIN subcodes (distances 4, 2, 1):
    RS(8,7)/GF(16) (width 4), RS(8,5)/GF(8) (width 3) and the [8,1,8]
    repetition code (width 1); d* = min(2*4, 4*2, 8*1) = 8."""
    outers = [g.rs_code(g.make_field(2, 4), 8, 7), g.rs_code(gf8, 8, 5), g.repetition_code(gf2, 8)]
    spec = g.gcc_spec(outers, RM3_CHAIN, gf2)
    assert [sub.distance() for sub in spec.subcodes] == [4, 2, 1]
    return spec


def load_perfbench(name):
    """The module perfbench/<name>.py (perfbench is not a package), loaded
    once."""
    key = f"perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, PERFBENCH / f"{name}.py")
        module = sys.modules[key] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[key]


def has_array_kernel(f) -> bool:
    """Whether RowMaps over f have an array kernel, the packed tables:
    characteristic 2 up to 2^8 elements (every other field takes the row
    loop)."""
    return f.p == 2 and f.q <= 256


@pytest.fixture
def array_calls(monkeypatch):
    """("packed", (M, K)) of every array product the test makes, M rows of
    K digits: the RowMap calls that ran on the packed tables
    (RowMap.product) rather than a table or the row loop."""
    calls, product = [], linalg.RowMap.product

    def spy(rowmap, x):
        calls.append(("packed", (len(x), rowmap.k)))
        return product(rowmap, x)

    monkeypatch.setattr(linalg.RowMap, "product", spy)
    return calls


def corrupt(field, word, positions, rng):
    """Flip the given flat positions of a codeword matrix to random other values."""
    n = len(word[0])
    rows = [list(r) for r in word]
    for p in positions:
        rows[p // n][p % n] = field.add(rows[p // n][p % n], rng.randrange(1, field.q))
    return tuple(tuple(r) for r in rows)


def error_matrix(field, sent, received):
    return tuple(
        tuple(field.sub(a, b) for a, b in zip(r, w)) for r, w in zip(received, sent)
    )
