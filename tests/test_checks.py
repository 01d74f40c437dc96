"""The one-pass input checks and counting rules against their per-symbol
definitions, which are kept here as the references."""

import operator
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gccodec as g
from gccodec.block_codes import ReedSolomonDecoder, check_erasures, ee_decode, wt
from gccodec.concat import check_matrix, decode_rows
from gccodec.errors import ErasureIndexError, InvalidParams, LengthMismatch

from conftest import GEN_HAMMING_7_4_3

FIELDS = {"GF(2)": (2, 1), "GF(8)": (2, 3), "GF(9)": (3, 2)}


def reference_check_matrix(field, received, m, n):
    """The row-by-row check: Field.vector on every row in turn."""
    try:
        rows = list(received)
    except TypeError:
        raise InvalidParams(f"expected a sequence of {m} rows, got {received!r}") from None
    if len(rows) != m:
        raise LengthMismatch(f"expected {m} rows, got {len(rows)}")
    out = []
    for row in rows:
        row = field.vector(row)
        if len(row) != n:
            raise LengthMismatch(f"rows must have length {n}")
        out.append(row)
    return out


def reference_check_erasures(erasures, n):
    """The index-by-index check, with no shortcut for an empty set; a bool
    is not an index.  Every entry is read before any is range-checked, and
    the first index out of range in iteration order is named."""
    indices = []
    try:
        for i in erasures:
            if isinstance(i, bool):
                raise TypeError
            indices.append(operator.index(i))
    except TypeError:
        raise ErasureIndexError(f"erasures must be a collection of integers, got {erasures!r}") from None
    for i in indices:
        if not 0 <= i < n:
            raise ErasureIndexError(f"erasure index {i} out of range for length {n}")
    return frozenset(indices)


def reference_correctable_cc(errors, pattern, cc):
    d_a, d_b = cc.outer.distance(), cc.inner.distance()
    pattern = pattern or [frozenset()] * cc.m
    total = 0
    for row, x in zip(errors, pattern):
        load = 2 * sum(1 for i, v in enumerate(row) if v != 0 and i not in x) + len(x)
        total += min(load, 2 * d_b)
    return total < d_a * d_b


def reference_correctable_gcc(errors, spec):
    d1 = spec.subcodes[0].distance()
    return 2 * sum(min(wt(row), d1) for row in errors) < g.designed_distance(spec)


def outcome(check, *args):
    """check(*args), or the type and message of what it raised (with
    object addresses dropped, since each side reads its own iterator)."""
    try:
        return "ok", check(*args)
    except Exception as exc:
        return type(exc), re.sub(r" at 0x[0-9a-f]+", "", str(exc))


# symbols that are not plain ints in range: each builds a fresh value for q
BAD_SYMBOLS = {
    "bool": lambda q: True,
    "float": lambda q: 1.0,
    "str": lambda q: "1",
    "None": lambda q: None,
    "int64": lambda q: np.int64(q - 1),
    "uint8": lambda q: np.uint8(1),
    "negative": lambda q: -1,
    "q": lambda q: q,
    "huge": lambda q: 1 << 70,
}
ERASURE_KINDS = {"tuple": tuple, "list": list, "set": set, "frozenset": frozenset, "iterator": iter}
# how a row (given as a list of symbols) reaches the check
ROW_KINDS = {
    "tuple": tuple,
    "list": list,
    "array": lambda row: np.array(row, dtype=np.int64 if all(type(x) is int and abs(x) < 1 << 62 for x in row) else object),
    "iterator": iter,
    "short": lambda row: tuple(row[:-1]),
    "long": lambda row: tuple(row) + (0,),
    "int": lambda row: 7,
    "None": lambda row: None,
}


@st.composite
def received_words(draw):
    """(field, m, n, build): build() makes a fresh received word, so that
    both sides of a comparison read their own iterators."""
    field = g.make_field(*FIELDS[draw(st.sampled_from(sorted(FIELDS)))])
    m, n = draw(st.integers(0, 4)), draw(st.integers(1, 5))
    q = field.q
    rows = []
    for _ in range(m):
        symbols = [("int", draw(st.integers(0, q - 1))) for _ in range(n)]
        if draw(st.integers(0, 3)) == 0:
            symbols[draw(st.integers(0, n - 1))] = (draw(st.sampled_from(sorted(BAD_SYMBOLS))), None)
        kind = draw(st.sampled_from(["tuple"] * 6 + sorted(ROW_KINDS)))
        rows.append((kind, symbols))
    shape = draw(st.sampled_from(["list", "tuple", "generator", "short", "long", "int", "str"]))

    def build():
        built = [
            ROW_KINDS[kind]([x if tag == "int" else BAD_SYMBOLS[tag](q) for tag, x in symbols])
            for kind, symbols in rows
        ]
        if shape == "tuple":
            return tuple(built)
        if shape == "generator":
            return (row for row in built)
        if shape == "short":
            return built[:-1]
        if shape == "long":
            return built + [(0,) * n]
        if shape == "int":
            return 5
        if shape == "str":
            return "ab"[:m]
        return built

    return field, m, n, build


class TestOnePassChecks:
    @given(received_words())
    @settings(max_examples=600, deadline=None)
    def test_check_matrix_equals_the_row_by_row_check(self, word):
        field, m, n, build = word
        got = outcome(check_matrix, field, build(), m, n)
        assert got == outcome(reference_check_matrix, field, build(), m, n)
        if got[0] == "ok":
            assert all(type(x) is int for row in got[1] for x in row)
            assert all(type(row) is tuple for row in got[1])

    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_valid_words_are_returned_as_tuples(self, name):
        field = g.make_field(*FIELDS[name])
        rng = random.Random(field.q)
        for m, n in [(0, 3), (3, 0), (1, 1), (4, 5)]:
            word = [[rng.randrange(field.q) for _ in range(n)] for _ in range(m)]
            assert check_matrix(field, word, m, n) == [tuple(row) for row in word]

    def test_a_row_iterator_before_a_bad_row_reads_once(self, gf8):
        word = [iter([1, 2]), 5]
        assert outcome(check_matrix, gf8, word, 2, 2) == outcome(
            reference_check_matrix, gf8, [iter([1, 2]), 5], 2, 2
        )

    @given(
        st.lists(
            st.one_of(
                st.integers(-2, 9),
                st.sampled_from([True, False, 1.0, "1", None, np.int64(2), np.uint8(3)]),
            ),
            max_size=5,
        ),
        st.sampled_from(sorted(ERASURE_KINDS)),
        st.integers(0, 8),
    )
    @settings(max_examples=600, deadline=None)
    # hash(-1) == hash(-2), so the frozenset's own order, not the sorted
    # one, decides which of them comes first
    @example(items=[0, 1, -1, -2, np.int64(2)], kind="frozenset", n=3)
    def test_check_erasures_equals_the_index_by_index_check(self, items, kind, n):
        build = ERASURE_KINDS[kind]
        assert outcome(check_erasures, build(items), n) == outcome(reference_check_erasures, build(items), n)

    @pytest.mark.parametrize("erasures", [None, 3, 1.5, "ab", "", {}, {1: 2}, np.array([1, 9]), np.arange(3)])
    def test_check_erasures_of_other_objects(self, erasures):
        assert outcome(check_erasures, erasures, 4) == outcome(reference_check_erasures, erasures, 4)

    @pytest.mark.parametrize("empty", [(), [], set(), frozenset(), "", np.array([], dtype=np.int64)])
    def test_empty_erasure_sets(self, empty):
        assert check_erasures(empty, 4) == frozenset()


class TestRegionPredicatesCheckTheShape:
    @pytest.mark.parametrize(
        "errors,pattern,error",
        [
            ("abcd", None, LengthMismatch),
            ([(0,) * 7], None, LengthMismatch),  # one row where four are due
            ([(0,) * 7] * 5, None, LengthMismatch),
            ([(0,) * 7] * 3 + [(0,) * 8], None, LengthMismatch),
            ([(0,) * 7] * 3 + [(0,) * 6], None, LengthMismatch),
            (5, None, InvalidParams),
            (None, None, InvalidParams),
            ([(0,) * 7] * 3 + [None], None, InvalidParams),
            ([(0,) * 7] * 4, [frozenset()], LengthMismatch),
            ([(0,) * 7] * 4, 5, InvalidParams),
        ],
        ids=[
            "string", "one-row", "five-rows", "long-row", "short-row", "int", "None", "None-row", "short-pattern",
            "int-pattern",
        ],
    )
    def test_correctable_cc(self, cc_two_cols, errors, pattern, error):
        with pytest.raises(error):
            g.correctable_cc(errors, pattern, cc_two_cols)

    @pytest.mark.parametrize(
        "make_pattern", [lambda: 5, lambda: (frozenset() for _ in range(4))], ids=["int", "generator"]
    )
    def test_cc_decode_pattern(self, cc_two_cols, make_pattern):
        received = g.cc_encode(cc_two_cols, [(1, 2), (3, 0)])
        with pytest.raises(InvalidParams):
            g.cc_decode(cc_two_cols, received, make_pattern())

    @pytest.mark.parametrize(
        "errors,error",
        [
            ([[1, 1]], LengthMismatch),
            ([[0] * 9] * 7, LengthMismatch),
            ([[0] * 2] * 8, LengthMismatch),
            ([[0] * 2] * 6 + [[0]], LengthMismatch),
            (7, InvalidParams),
            ([[0] * 2] * 6 + [3], InvalidParams),
        ],
        ids=["one-row", "width-9", "eight-rows", "short-row", "int", "int-row"],
    )
    def test_correctable_gcc(self, mpc_uuv8, errors, error):
        with pytest.raises(error):
            g.correctable_gcc(errors, mpc_uuv8)

    def test_well_shaped_rows_of_any_sequence_type(self, cc_two_cols, mpc_uuv8):
        assert g.correctable_cc([[0] * 7, np.zeros(7, dtype=np.int64), (0,) * 7, [0] * 7], None, cc_two_cols)
        assert g.correctable_gcc([np.zeros(2, dtype=np.uint8)] * 7, mpc_uuv8)


# erasure sets that no public entry point may take, for rows of length 7;
# True and False would otherwise read as positions 1 and 0
BAD_ERASURES = [[7], [-1], [2, 9], [1.5], ["1"], [None], [True], [True, False], [False, 3], [np.bool_(True)]]
ENTRY_POINTS = ["ee_decode", "LinearCode.decode", "cc_decode", "correctable_cc", "gmd_decode"]


def entry_points(gf8, cc):
    """Each public entry point that takes an erasure set, as a call of one
    set for rows of length 7 (RS(7,3)/GF(8), and the Hamming rows of cc)."""
    rs = g.rs_code(gf8, 7, 3)
    word = rs.encode((1, 2, 3))
    received = g.cc_encode(cc, [(1, 2), (3, 0)])
    rel = g.ReliabilityVector((1,) * 7, 1)
    zeros = [(0,) * 7] * 4
    return {
        "ee_decode": lambda x: ee_decode(rs, word, x),
        "LinearCode.decode": lambda x: rs.decode(word, x),
        "cc_decode": lambda x: g.cc_decode(cc, received, [(), x, (), ()]),
        "correctable_cc": lambda x: g.correctable_cc(zeros, [(), (), x, ()], cc),
        "gmd_decode": lambda x: g.gmd_decode(
            rs, word, rel, skip_zero_trial=True, chain=g.ErasureChain((frozenset(), x))
        ),
    }


class TestEveryEntryPointChecksErasures:
    """Callers inside the library hand on the sets they checked, but every
    public entry point checks what it is handed."""

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_bad_indices_raise(self, gf8, cc_two_cols, name):
        call = entry_points(gf8, cc_two_cols)[name]
        for bad in BAD_ERASURES:
            for form in (list, tuple, frozenset):
                with pytest.raises(ErasureIndexError):
                    call(form(bad))
        call([1, 2])  # a good set goes through

    def test_bool_indices_are_not_positions(self, gf8):
        code = g.rs_code(gf8, 7, 3)
        word = code.encode((1, 2, 3))
        assert ee_decode(code, word, [1, 0]).ok
        with pytest.raises(ErasureIndexError, match="must be a collection of integers"):
            ee_decode(code, word, [True, False])
        with pytest.raises(ErasureIndexError):
            check_erasures({True}, 5)


def reference_ee_decode(code, word, erasures):
    """ee_decode after Field.vector has checked every symbol in turn."""
    return ee_decode(code, code.field.vector(word), erasures)


def symbol_codes(gf2, gf8):
    return {"RS(7,3)/GF(8)": g.rs_code(gf8, 7, 3), "Hamming": g.generic_code(gf2, GEN_HAMMING_7_4_3)}


class TestEveryEntryPointChecksSymbols:
    """ee_decode, and gmd_decode through it, refuses a symbol that is not a
    field element with InvalidParams naming it, and converts numpy
    integers, as Field.vector does."""

    @pytest.mark.parametrize("code_name", ["RS(7,3)/GF(8)", "Hamming"])
    @pytest.mark.parametrize("kind", ["tuple", "list", "array", "iterator", "short", "int", "None"])
    @pytest.mark.parametrize("symbol", sorted(BAD_SYMBOLS))
    def test_ee_decode_equals_the_symbol_by_symbol_check(self, gf2, gf8, code_name, kind, symbol):
        # numpy integers in range are elements and decode as plain ints
        code = symbol_codes(gf2, gf8)[code_name]
        sent = code.encode((1,) * code.k)

        def build():
            return ROW_KINDS[kind]([BAD_SYMBOLS[symbol](code.field.q)] + list(sent[1:]))

        got = outcome(ee_decode, code, build(), ())
        assert got == outcome(reference_ee_decode, code, build(), ())
        assert got[0] in ("ok", InvalidParams, LengthMismatch)

    @pytest.mark.parametrize(
        "code_name,symbol,erasures",
        [
            ("RS(64,40)/GF(256)", 259, ()),
            ("RS(7,3)/GF(8)", 8, ()),
            ("Hamming", 2, ()),
            ("Hamming", 2, (1,)),
            ("Hamming", True, ()),
            ("Hamming", 1.0, (1,)),
            ("RS(7,3)/GF(8)", True, ()),
            ("RS(7,3)/GF(8)", 1.0, ()),
        ],
        ids=[
            "RS64-259", "RS7-8", "Hamming-2", "Hamming-2-erased", "Hamming-True", "Hamming-float-erased", "RS7-True",
            "RS7-float",
        ],
    )
    def test_a_symbol_outside_the_field_raises(self, gf2, gf8, code_name, symbol, erasures):
        codes = symbol_codes(gf2, gf8)
        codes["RS(64,40)/GF(256)"] = g.rs_code(g.extend_field(g.make_field(2, 4), 2), 64, 40)
        code = codes[code_name]
        word = (symbol,) + code.encode((1,) * code.k)[1:]
        rel = g.ReliabilityVector((1,) * code.n, 1)
        with pytest.raises(InvalidParams, match=re.escape(f"{symbol!r} is not an element")):
            ee_decode(code, word, erasures)
        with pytest.raises(InvalidParams, match=re.escape(f"{symbol!r} is not an element")):
            g.gmd_decode(code, word, rel)


class TestCountingRules:
    @pytest.mark.parametrize("fixture", ["cc_small", "cc_two_cols"])
    def test_correctable_cc_counts_as_the_definition(self, request, fixture):
        # nonzero entries at erased positions, which the channel never makes,
        # must not count as errors
        cc = request.getfixturevalue(fixture)
        q, n = cc.inner.field.q, cc.inner.n
        rng = random.Random(n)
        verdicts = set()
        for _ in range(400):
            density, erase = rng.random() * 0.4, rng.random() * 0.4
            errors = tuple(
                tuple(rng.randrange(1, q) if rng.random() < density else 0 for _ in range(n)) for _ in range(cc.m)
            )
            pattern = tuple(frozenset(i for i in range(n) if rng.random() < erase) for _ in range(cc.m))
            for pat in (pattern, None):
                expected = reference_correctable_cc(errors, pat, cc)
                assert g.correctable_cc(errors, pat, cc) == expected
                assert g.correctable_cc([list(row) for row in errors], pat, cc) == expected
                verdicts.add(expected)
        assert verdicts == {True, False}

    def test_correctable_gcc_counts_as_the_definition(self, mpc_uuv8):
        rng = random.Random(8)
        verdicts = set()
        for _ in range(400):
            density = rng.random() * 0.5
            errors = tuple(
                tuple(rng.randrange(1, 8) if rng.random() < density else 0 for _ in range(2)) for _ in range(7)
            )
            expected = reference_correctable_gcc(errors, mpc_uuv8)
            assert g.correctable_gcc(errors, mpc_uuv8) == expected
            verdicts.add(expected)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("rows", [3, 20])  # the scalar decodes and one batch
    @pytest.mark.parametrize("code_name", ["rs", "hamming"])
    def test_apparents_are_the_weights_of_the_errors(self, gf2, gf8, rows, code_name):
        if code_name == "rs":
            # its ReedSolomonDecoder, whose decode_arrays takes the batch (the
            # rule gives this code the codeword vote, which has none)
            code = g.rs_code(gf8, 7, 3).attach(ReedSolomonDecoder(gf8, range(7), 3))
        else:
            code = g.generic_code(gf2, GEN_HAMMING_7_4_3)
            assert type(code.decoder).__name__ == "SyndromeDecoder"
        f, n, d = code.field, code.n, code.distance()
        rng = random.Random(rows + n)
        erased_errors = 0
        for _ in range(20):
            words, erasure_sets = [], []
            for _ in range(rows):
                word = list(code.encode(tuple(rng.randrange(f.q) for _ in range(code.k))))
                erasures = frozenset(rng.sample(range(n), rng.randrange(0, d)))
                for i in erasures | set(rng.sample(range(n), rng.randrange(0, 3))):
                    word[i] = rng.randrange(f.q)
                words.append(tuple(word))
                erasure_sets.append(erasures)
            outs = [ee_decode(code, w, x) for w, x in zip(words, erasure_sets)]
            rd = decode_rows(code, words, erasure_sets)
            assert rd.apparents == [wt(o.error) if o.ok else None for o in outs]
            erased_errors += sum(1 for o, x in zip(outs, erasure_sets) if o.ok and any(o.error[i] for i in x))
        assert erased_errors


class TestIntegerParameters:
    """rs_code, generic_code's d, repetition_code and oracle_radius read
    their integers as operator.index does, with bool refused: anything
    else raises InvalidParams, never a raw TypeError or a coerced value."""

    @pytest.mark.parametrize("bad", [1.0, "1", True, 1.5])
    def test_code_builders_refuse_non_integers(self, gf2, gf8, bad):
        builds = [
            lambda: g.rs_code(gf8, 7, bad),
            lambda: g.rs_code(gf8, bad, 1),
            lambda: g.generic_code(gf2, [[1, 1, 1]], d=bad),
            lambda: g.repetition_code(gf2, bad),
        ]
        for build in builds:
            with pytest.raises(InvalidParams, match="must be an integer"):
                build()

    @pytest.mark.parametrize("bad", [1.5, 1.0, "1", True])
    def test_oracle_radius_refuses_non_integers(self, gf2, bad):
        code = g.repetition_code(gf2, 3)
        with pytest.raises(InvalidParams, match="radius must be an integer"):
            g.oracle_radius(code, (0, 1, 0), bad)

    def test_numpy_integers_are_integers(self, gf2, gf8):
        code = g.rs_code(gf8, np.int64(7), np.uint8(1))
        assert (code.n, code.k, code.distance()) == (7, 1, 7) and type(code.distance()) is int
        assert g.generic_code(gf2, [[1, 1, 1]], d=np.int32(3)).distance() == 3
        assert g.repetition_code(gf2, np.int16(3)).n == 3
        out = g.oracle_radius(g.repetition_code(gf2, 3), (0, 1, 0), np.int64(1))
        assert out.codeword == (0, 0, 0) and out.weight == 1
