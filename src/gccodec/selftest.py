"""Built-in invariant suite backed by the brute-force oracles.

A condensed, fast subset of the property tests, runnable from the CLI on an
installed package.  Each check prints one line; any failure is a VIOLATION.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from . import gmd, linalg
from .block_codes import (
    _ERASURE_MAPS,
    BATCH_MIN_ROWS,
    LinearCode,
    ReedSolomonDecoder,
    SyndromeDecoder,
    generic_code,
    rs_code,
)
from .channel import ChannelModel, RawStream, apply_channel, trial_rng
from .concat import (
    ConcatCode,
    DecodeOptions,
    cc_decode,
    cc_encode,
    check_matrix,
    check_pattern,
    decode_rows,
    extended_trial_chain,
    fold_message_columns,
)
from .errors import DecodeFailure, InvalidParams
from .galois import TowerView, extend_field, make_field
from .mpc import decode_uuv, mpc_decode, mpc_encode, mpc_spec
from .oracle import oracle_sigma
from .report import DecodeReport


def _require(cond, msg):
    """An explicit check: unlike assert, it still runs under python -O."""
    if not cond:
        raise AssertionError(msg)


def _check_field_axioms(rng):
    # prime fields, exp/log tables in characteristic 2 and 3 (Zech addition),
    # a tower GF(16) over GF(4), GF(1024) beyond 256 elements and GF(2^17)
    # past the tables; the array product, where the field has one, runs mod
    # p, by XOR and by base-p digits
    gf4 = make_field(2, 2)
    fields = [make_field(2, 3), make_field(3, 2), make_field(5, 1)]
    fields += [extend_field(gf4, 2), make_field(3, 5), make_field(2, 10), make_field(2, 17)]
    for f in fields:
        for _ in range(200):
            a, b, c = (rng.randrange(f.q) for _ in range(3))
            _require(f.add(a, b) == f.add(b, a), f"{f}: add does not commute")
            _require(f.mul(a, b) == f.mul(b, a), f"{f}: mul does not commute")
            _require(
                f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c)),
                f"{f}: mul does not distribute over add",
            )
            _require(f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c)), f"{f}: mul is not associative")
            _require(f.add(a, f.neg(a)) == 0 and f.sub(f.add(a, b), b) == a, f"{f}: neg/sub")
            if a:
                _require(f.mul(a, f.inv(a)) == 1, f"{f}: inv({a}) is wrong")
        u = [rng.randrange(f.q) for _ in range(8)]
        v = [rng.randrange(f.q) for _ in range(8)]
        c = rng.randrange(f.q)
        out = list(u)
        f.axpy(out, c, v)
        _require(out == [f.add(x, f.mul(c, y)) for x, y in zip(u, v)], f"{f}: axpy")
        dot = 0
        for x, y in zip(u, v):
            dot = f.add(dot, f.mul(x, y))
        _require(f.dot(u, v) == dot, f"{f}: dot")
        # the array product against the scalar loop, zero row and column included
        a = [[rng.randrange(f.q) for _ in range(4)] for _ in range(3)] + [[0] * 4]
        b = [[0] + [rng.randrange(f.q) for _ in range(4)] for _ in range(4)]
        if not f.vectorised(4):  # drawn anyway, so later checks keep their draws
            continue
        prod = f.matmul(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)).tolist()
        for row, out in zip(a, prod):
            expect = []
            for j in range(5):
                acc = 0
                for x, col in zip(row, b):
                    acc = f.add(acc, f.mul(x, col[j]))
                expect.append(acc)
            _require(out == expect, f"{f}: matmul")


def _check_tower_roundtrip(rng):
    base = make_field(2, 2)
    big = extend_field(base, 2)
    view = TowerView(big, base)
    for e in range(big.q):
        _require(view.from_base_vector(view.to_base_vector(e)) == e, f"tower roundtrip of {e}")


def _check_elimination(rng):
    # rank and right inverse of matrices of known rank r: a (k x r, unit
    # lower triangular on top) times b (r x n, the columns of I_r among
    # random ones); GF(9) on log tables and GF(2^17) past them
    for f in (make_field(3, 2), make_field(2, 17)):
        for _ in range(25):
            n = rng.randrange(1, 7)
            k = rng.randrange(1, n + 1)
            r = rng.randrange(1, k + 1)
            a = [
                [rng.randrange(f.q) if j < i or i >= r else int(i == j) for j in range(r)]
                for i in range(k)
            ]
            cols = [[int(i == j) for i in range(r)] for j in range(r)]
            cols += [[rng.randrange(f.q) for _ in range(r)] for _ in range(n - r)]
            rng.shuffle(cols)
            m = [linalg.vec_mat(f, row, tuple(zip(*cols))) for row in a]
            _require(linalg.rank(f, m) == r, f"{f}: rank of {m} is not {r}")
            try:
                inverse = linalg.right_inverse(f, m)
            except InvalidParams:
                _require(r < k, f"{f}: full-rank {m} has no right inverse")
                continue
            _require(r == k, f"{f}: rank-deficient {m} got a right inverse")
            product = [linalg.vec_mat(f, row, inverse) for row in m]
            identity = [tuple(int(i == j) for j in range(k)) for i in range(k)]
            _require(product == identity, f"{f}: m . R is not the identity for {m}")


def _image(f, m, split, join, row):
    """row . m by dot products, through to_base_vector and from_base_vector."""
    digits = [d for t, e in zip(split, row) for d in t.to_base_vector(e)] if split else row
    out = [f.dot(digits, col) for col in zip(*m)]
    ends = itertools.accumulate(t.s for t in join)
    return tuple(t.from_base_vector(out[e - t.s : e]) for t, e in zip(join, ends)) if join else tuple(out)


def _check_row_maps(rng):
    # every RowMap kernel against dot products: the table (q^K up to the
    # cap), and past it the row loop and the array product (batches below
    # and at ARRAY_MIN_PRODUCTS products); plain maps over GF(2), GF(9) and
    # GF(16)/GF(4), and maps that split symbols or join digits through
    # towers of degree two and one, GF(4)/GF(2) and GF(16)/GF(4)
    seen = set()
    gf4 = make_field(2, 2)
    cases = [(make_field(2, 1), "plain"), (make_field(3, 2), "plain"), (extend_field(gf4, 2), "plain")]
    cases += [(f, side) for f in (make_field(2, 1), gf4) for side in ("split", "join")]
    for f, side in cases:
        top = max(k for k in range(1, 12) if f.q**k <= linalg.TABLE_CAP)
        for k in list(range(1, top + 2)) * 2:
            n = rng.randrange(1, 6)
            m = [[rng.randrange(f.q) for _ in range(n)] for _ in range(k)]
            width = k if side == "split" else n
            towers = [TowerView(extend_field(f, 2), f)] * (width // 2) + [TowerView(f, f)] * (width % 2)
            split, join = {"plain": ((), ()), "split": (towers, ()), "join": ((), towers)}[side]
            rowmap = linalg.RowMap(f, m, split=split, join=join)
            least = linalg.ARRAY_MIN_PRODUCTS
            for size in (min(5, (least - 1) // (k * n)), -(-least // (k * n))):
                domains = [t.big.q for t in split] or [f.q] * k
                rows = [[rng.randrange(q) for q in domains] for _ in range(size)]
                expect = [_image(f, m, split, join, row) for row in rows]
                kind = "table" if rowmap.table else "row loop" if size * k * n < least else "array"
                seen.add((side, kind))
                ok = rowmap(rows) == expect and rowmap.row(rows[0]) == expect[0]
                _require(ok, f"{f}: {side} {kind} products of {m}")
    _require(len(seen) == 9, f"kernels checked: {sorted(seen)}")


def _check_rs_against_oracle(rng):
    # GF(8) and the odd-characteristic GF(9); both codes have more error
    # patterns than the table budget, so ReedSolomonDecoder decodes them
    for (p, m), n, k, words in (((2, 3), 7, 3, 150), ((3, 2), 9, 4, 40)):
        f = make_field(p, m)
        code = rs_code(f, n, k)
        _require(isinstance(code.decoder, ReedSolomonDecoder), f"{code!r} does not decode by ReedSolomonDecoder")
        for _ in range(words):
            word = tuple(rng.randrange(f.q) for _ in range(n))
            erasures = frozenset(rng.sample(range(n), rng.randrange(0, n - k + 1)))
            fast = code.decode(word, erasures)
            slow = oracle_sigma(code, word, erasures)
            _require(fast.codeword == slow.codeword, f"{code!r}: {word} with erasures {set(erasures)}")


def _check_generic_against_oracle(rng):
    # the syndrome decoder against the codeword scan: Hamming [7,4,3] over
    # GF(2), whose erasure sets decode by word table, and [7,2,5] over GF(3)
    # and the [6,3,4] hexacode over GF(4), which decode by syndrome table;
    # words up to d - 1 symbols from a codeword, erasure sets of every size
    # up to d
    hamming = [[1, 0, 0, 0, 0, 1, 1], [0, 1, 0, 0, 1, 0, 1], [0, 0, 1, 0, 1, 1, 0], [0, 0, 0, 1, 1, 1, 1]]
    cases = [
        (make_field(2, 1), hamming),
        (make_field(3, 1), [[1, 0, 2, 1, 0, 2, 2], [2, 1, 0, 1, 1, 1, 0]]),
        (make_field(2, 2), [[1, 0, 0, 1, 1, 1], [0, 1, 0, 1, 2, 3], [0, 0, 1, 1, 3, 2]]),
    ]
    for f, generator in cases:
        code = generic_code(f, generator)
        n, d = code.n, code.distance()
        _require(isinstance(code.decoder, SyndromeDecoder), f"{code!r} has no syndrome decoder")
        for _ in range(100):
            word = list(code.encode([rng.randrange(f.q) for _ in range(code.k)]))
            for i in rng.sample(range(n), rng.randrange(d)):
                word[i] = rng.randrange(f.q)
            erasures = frozenset(rng.sample(range(n), rng.randrange(d + 1)))
            got = code.decode(word, erasures)
            _require(got == oracle_sigma(code, word, erasures), f"{code!r}: {word} with erasures {sorted(erasures)}")


def _check_nested_erasure_consistency(rng):
    f = make_field(2, 1)
    code = generic_code(f, [[1, 0, 1, 1, 0], [0, 1, 1, 0, 1]])
    d = code.distance()
    n = code.n
    for word in itertools.product(range(2), repeat=n):
        for size in range(n):
            if (d - size) % 2 != 0:
                continue
            for f1 in itertools.combinations(range(n), size):
                f1 = frozenset(f1)
                first = oracle_sigma(code, word, f1)
                if not first.ok:
                    continue
                for extra in range(n):
                    if extra in f1:
                        continue
                    second = oracle_sigma(code, word, f1 | {extra})
                    _require(
                        first.codeword == second.codeword,
                        f"{word}: erasing {extra} on top of {set(f1)} changed the codeword",
                    )


def _check_uuv_matches_generic(rng):
    f = make_field(2, 1)
    spec = mpc_spec(
        [rs_code(make_field(2, 1), 2, 1), rs_code(make_field(2, 1), 2, 1)],
        [[1, 1], [0, 1]],
        f,
    )
    # length-2 repetition outers over GF(2); exhaustive over small errors
    for msgs in itertools.product(range(2), repeat=2):
        word = mpc_encode(spec, [(msgs[0],), (msgs[1],)])
        for flip in range(4):
            rows = [list(r) for r in word]
            rows[flip // 2][flip % 2] ^= 1
            rows = tuple(tuple(r) for r in rows)
            try:
                report = mpc_decode(spec, rows, DecodeOptions())
                generic = report.columns
            except DecodeFailure:
                generic = None
            try:
                special = list(decode_uuv(spec, rows))
            except DecodeFailure:
                special = None
            if generic is not None:
                _require(
                    special is not None and list(generic) == special, f"decode_uuv differs on {rows}"
                )


def _check_nsc_prefixes(rng):
    from .block_codes import min_distance
    from .mpc import is_nsc

    f = make_field(3, 1)
    matrix = [[1, 2, 1], [1, 1, 0], [1, 0, 0]]
    _require(is_nsc(f, matrix), f"{matrix} is not NSC")
    for t in range(1, 4):
        code = generic_code(f, matrix[:t])
        _require(min_distance(code) == 3 - t + 1, f"prefix of {t} rows is not MDS")


def _check_channel_stream(rng):
    # the channel's block reader against numpy's scalar Generator.random()
    # and Generator.integers() calls, over every integers() branch: 32-bit
    # Lemire, a plain 32-bit half and 64-bit Lemire; 3 * 2^30 and 3 * 2^61
    # reject about a quarter of their draws.  Then its batches: message
    # draws and one long channel word
    highs = (2, 3, 8, 9, 256, 3 * 2**30, 2**32 - 1, 2**32, 2**32 + 1, 3 * 2**61, 2**62)
    for seed in (0, 1, 2**32 + 5):
        numpy_rng = np.random.Generator(np.random.PCG64(seed))
        stream = RawStream.borrow(np.random.Generator(np.random.PCG64(seed)))
        for _ in range(200):
            if rng.random() < 0.3:
                got, want = stream.random(), numpy_rng.random()
                _require(got == want, f"seed {seed}: random() gave {got}, numpy {want}")
            else:
                hi = rng.choice(highs)
                got, want = stream.integers(1, hi), int(numpy_rng.integers(1, hi))
                _require(got == want, f"seed {seed}: integers(1, {hi}) gave {got}, numpy {want}")
        stream.release()
        end = stream.bit_generator.state == numpy_rng.bit_generator.state
        _require(end, f"seed {seed}: the bit generator's end state differs from numpy's")
    # integers_many against the same scalar calls: batches of either parity,
    # after a buffered half and without one
    for seed, hi in enumerate(highs):
        numpy_rng = np.random.Generator(np.random.PCG64(seed))
        stream = RawStream.borrow(np.random.Generator(np.random.PCG64(seed)))
        for count in (3, 40, 1, 161):
            got = stream.integers_many(1, hi, count)
            want = [int(numpy_rng.integers(1, hi)) for _ in range(count)]
            _require(got == want, f"seed {seed}: integers_many(1, {hi}, {count}) differs from numpy's draws")
        stream.release()
        end = stream.bit_generator.state == numpy_rng.bit_generator.state
        _require(end, f"seed {seed}: after integers_many the end state differs from numpy's")
    # a 64 x 15 word over GF(16) through apply_channel, against the channel
    # read by scalar calls: error values shift it past the reserved block
    f, channel = make_field(2, 4), ChannelModel(error_rate=0.3, erasure_rate=0.1, seed=7)
    word = tuple(tuple((7 * i + j) % f.q for j in range(15)) for i in range(64))
    stream, numpy_rng = RawStream.borrow(trial_rng(channel)), trial_rng(channel)
    stream.reserve(64 * 15)
    erase, flip = channel.erasure_rate, channel.erasure_rate + channel.error_rate
    received, pattern, errors = [], [], []
    for row in word:
        out, erased, errs = [], set(), []
        for j, sym in enumerate(row):
            u = numpy_rng.random()
            errs.append(int(numpy_rng.integers(1, f.q)) if erase <= u < flip else 0)
            out.append(0 if u < erase else f.add(sym, errs[-1]))
            if u < erase:
                erased.add(j)
        received.append(tuple(out))
        pattern.append(frozenset(erased))
        errors.append(tuple(errs))
    got = apply_channel(word, f, channel, rng=stream)
    expect = (tuple(received), tuple(pattern), tuple(errors))
    _require(got == expect, "a 64 x 15 word through apply_channel differs from numpy's draws")
    end = stream.bit_generator.state == numpy_rng.bit_generator.state
    _require(end, "after apply_channel the end state differs from numpy's")


def _check_packed_products(rng):
    # RowMap's packed tables against Field.matmul and the row loop over
    # GF(2), GF(8), GF(16)/GF(4) and GF(256)/GF(16): K = 1, N past one
    # 64-bit word of elements, zero matrix rows, an empty batch, and maps
    # that split symbols or join digits (through degree-two towers, and
    # degree-one ones over GF(256)/GF(16)); each batch holds the zero row
    # and the first unit row, whose image is matrix row 0
    gf4, gf16 = make_field(2, 2), make_field(2, 4)
    for f in (make_field(2, 1), make_field(2, 3), extend_field(gf4, 2), extend_field(gf16, 2)):
        bits = f.q.bit_length() - 1
        tower = TowerView(extend_field(f, 2) if f.q <= 16 else f, f)
        wide = 64 // bits + 1
        cases = ((1, wide, "plain"), (5, 64 // bits, "plain"), (4, wide, "split"), (7, wide + wide % 2, "join"))
        for k, n, side in cases:
            matrix = [[rng.randrange(f.q) for _ in range(n)] for _ in range(k)]
            if k > 1:
                matrix[rng.randrange(1, k)] = [0] * n
            split = (tower,) * (k // tower.s) if side == "split" else ()
            join = (tower,) * (n // tower.s) if side == "join" else ()
            rowmap = linalg.RowMap(f, matrix, split=split, join=join)
            domains = [t.big.q for t in split] or [f.q] * k
            rows = [[0] * len(domains), [1] + [0] * (len(domains) - 1)]
            rows += [[rng.randrange(q) for q in domains] for _ in range(rng.randrange(1, 9))]
            x = np.array(rows, dtype=np.int64)
            packed = rowmap._packed_product(x).tolist()
            what = f"{f}: {side} {k} x {n} packed products"
            _require(rowmap.packed and packed == rowmap._matmul_product(x).tolist(), f"{what} against matmul")
            _require(packed == [list(rowmap._loop(row)) for row in rows], f"{what} against the row loop")
            _require(rowmap._packed_product(x[:0]).shape == (0, len(join) or n), f"{what} of no rows")


def _check_erasure_only_solves(rng):
    # the RS decoder's erasure-only solve from per-set maps against its full
    # solve, and against the oracle where it can enumerate: words in error
    # on the erasures alone (some erased symbols received right) and words
    # with an error past them, which the re-check hands to the full solve
    for f, n, k in ((make_field(2, 3), 7, 3), (make_field(3, 2), 9, 4), (extend_field(make_field(2, 4), 2), 64, 40)):
        code = rs_code(f, n, k)
        dec = code.decoder
        _require(isinstance(dec, ReedSolomonDecoder), f"{code!r} does not decode by ReedSolomonDecoder")
        for size in range(1, n - k + 1):
            for past in (0, 0, 1):
                sent = code.encode(tuple(rng.randrange(f.q) for _ in range(k)))
                erasures = frozenset(rng.sample(range(n), size))
                word = list(sent)
                for i in erasures:
                    word[i] = rng.randrange(f.q)
                for i in rng.sample(sorted(set(range(n)) - erasures), past):
                    word[i] = f.add(word[i], rng.randrange(1, f.q))
                word = tuple(word)
                got = dec(word, erasures)
                what = f"{code!r}: {word} with erasures {sorted(erasures)}"
                _require(got == dec._solve(word, erasures, dec._syndromes.row(word)), f"{what} against the full solve")
                _require(f.q**k > 4096 or got == oracle_sigma(code, word, erasures), f"{what} against the oracle")
                _require(past or (got.codeword == sent and got.weight == 0), f"{what} not corrected")
        _require(len(dec._erasure_maps) <= _ERASURE_MAPS, f"{code!r} keeps {len(dec._erasure_maps)} maps")


def odd_syndrome_word(code, rng, erasures):
    """A received word of the RS code whose first 2t_X Forney syndromes are
    those of an error of weight t_X past the erasures X, while the last one,
    T_{2t_X} (d - 1 - |X| must be odd), shows weight t_X + 1 there.

    v_i = 1 / (w_i prod_{j in P, j != i}(x_i - x_j)), w_i = u_i Gamma(x_i),
    on 2t_X + 1 points P past X has T_l(v) = sum_i v_i w_i x_i^l = 0 for
    l < 2t_X and T_{2t_X}(v) = 1 (the leading coefficients of the
    interpolants of z^l on P).  The word carries v on t_X + 1 points of P
    and random symbols on X, so Berlekamp-Massey over 2t_X syndromes finds
    the other t_X points of P; only the closing re-check refuses them."""
    f, dec, n, d = code.field, code.decoder, code.n, code.distance()
    t = (d - 1 - len(erasures)) // 2
    pts = dec.points
    support = rng.sample(sorted(set(range(n)) - erasures), 2 * t + 1)
    word = list(code.encode([rng.randrange(f.q) for _ in range(code.k)]))
    for i in support[: t + 1]:
        w = dec._u[i]
        for j in itertools.chain(erasures, support):
            if j != i:
                w = f.mul(w, f.sub(pts[i], pts[j]))
        word[i] = f.add(word[i], f.inv(w))
    for i in erasures:
        word[i] = rng.randrange(f.q)
    return tuple(word)


def solve_batch_words(code, rng):
    """(words, erasure sets, indices of the odd_syndrome_word words) of the
    RS code: for every |X| from 0 to d - 1 (both parities of d - 1 - |X|),
    words with random symbols on X and 0 .. t_X + 2 errors past it, 2 *
    BATCH_MIN_ROWS of them without erasures (enough for the array solve),
    and where d - 1 - |X| is odd and t_X >= 1, two odd_syndrome_word words."""
    f, n, d = code.field, code.n, code.distance()
    words, erasure_sets, odd = [], [], []
    for size in range(d):
        erasures = frozenset(rng.sample(range(n), size))
        t = (d - 1 - size) // 2
        for errors in range(2 * BATCH_MIN_ROWS if size == 0 else t + 3):
            word = list(code.encode([rng.randrange(f.q) for _ in range(code.k)]))
            for i in erasures:
                word[i] = rng.randrange(f.q)
            for i in rng.sample(sorted(set(range(n)) - erasures), min(errors % (t + 3), n - size)):
                word[i] = f.add(word[i], rng.randrange(1, f.q))
            words.append(tuple(word))
            erasure_sets.append(erasures)
        if (d - 1 - size) % 2 and t:
            for _ in range(2):
                odd.append(len(words))
                words.append(odd_syndrome_word(code, rng, erasures))
                erasure_sets.append(erasures)
    return words, erasure_sets, odd


def per_row_twin(code):
    """code with its decoder attached as a plain callable, which has no
    decode_arrays, so decode_rows sends every row through ee_decode."""
    twin = LinearCode(code.field, code.generator, d=code.distance(), _inverse=code.inverse.matrix)
    return twin.attach(code.decoder.__call__)


def _check_batch_solves(rng):
    # the RS decoder's array solve, read through decode_rows, against its
    # scalar decoder row by row, over GF(16) (the benchmark's inner code)
    # and GF(31): solve_batch_words, whose odd-syndrome words only a
    # re-check of every syndrome refuses (both codes have an odd d - 1, so
    # some of them have no erasures and take the array solve).
    # decode_rows holds every decoded row to the bound.
    for f, n, k in ((make_field(2, 4), 15, 8), (make_field(31, 1), 31, 16)):
        code = rs_code(f, n, k)
        words, erasure_sets, odd = solve_batch_words(code, rng)
        rd = decode_rows(code, words, erasure_sets)
        _require(rd.arrays is not None, f"{code!r}: the rows were not solved on arrays")
        _require(rd == decode_rows(per_row_twin(code), words, erasure_sets), f"{code!r}: differs row by row")
        for est, bad in zip(rd.estimates, rd.failed):
            _require(bad or code.holds(est), f"{code!r}: {est} is not a codeword")
        _require(all(rd.failed[b] for b in odd), f"{code!r}: a word decodes past its last Forney syndrome")


def fresh_twin(code):
    """code with a new decoder of the same kind, which shares no state with
    code's: a ReedSolomonDecoder on the same points, so no syndrome that
    cc_decode kept reaches it, or a SyndromeDecoder that builds its own
    tables (rs_code attaches either, see block_codes.attach_decoder)."""
    dec = code.decoder
    if isinstance(dec, ReedSolomonDecoder):
        dec = ReedSolomonDecoder(dec.field, dec.points, code.k)
    elif isinstance(dec, SyndromeDecoder):
        dec = SyndromeDecoder(dec.field, code.generator, dec.d)
    return LinearCode(code.field, code.generator, d=code.distance(), _inverse=code.inverse.matrix).attach(dec)


def fold_row_by_row(inverse, rd) -> list:
    """fold_message_columns from the row tuples, one row product each."""
    zero = (0,) * inverse.k
    return list(zip(*(inverse.row(zero if bad else est) for est, bad in zip(rd.estimates, rd.failed))))


def column_by_column(cc, outer, received, pattern=None, options=None):
    """cc_decode(cc, received, pattern, options), each column on its own:
    the rows' tuples folded one row at a time, every GMD trial syndroming
    its column afresh on outer (cc.outer's fresh_twin), one row product per
    message, and the codeword encoded from the messages."""
    options = options or DecodeOptions()
    rows = check_matrix(cc.inner.field, received, cc.m, cc.inner.n)
    erasure_sets = check_pattern(pattern, cc.m, cc.inner.n)
    rd = decode_rows(cc.inner, rows, erasure_sets, options.radius)
    rel = gmd.ReliabilityVector(tuple(rd.weights), rd.denominator)
    if options.radius is None:
        chain = gmd.chain_with_failure_class(rel)
    else:
        chain = extended_trial_chain(rd, options.radius)
    k = cc.k
    report = DecodeReport(
        columns=[None] * k, messages=[None] * k, inner_invocations=[rd.invocations], gmd_trials=[0] * k
    )
    start = 0
    for i, column in enumerate(fold_row_by_row(cc.inverse, rd)):
        g = gmd.gmd_decode(outer, column, rel, options.mode, skip_zero_trial=True, chain=chain, start=start)
        report.gmd_trials[i] = g.trials
        if g.ok:
            report.columns[i], report.messages[i] = g.codeword, outer.inverse.row(g.codeword)
            start = g.accepted_index if options.carry_over else 0
        else:
            report.failed_levels.append(i + 1)
            start = 0
    if report.failed_levels:
        raise DecodeFailure(f"columns {report.failed_levels} exhausted all trials", report=report)
    report.codeword = cc_encode(cc, report.messages)
    return report.columns, report


def decode_outcome(decode, *args) -> tuple:
    """("ok", columns, report as JSON) of a decode, or ("failure", message,
    report as JSON) of the DecodeFailure it raised."""
    try:
        columns, report = decode(*args)
    except DecodeFailure as exc:
        return "failure", str(exc), exc.report.to_json()
    return "ok", columns, report.to_json()


def noisy_concat_words(cc, rng, count):
    """count (received word, erasure pattern) pairs of cc: random symbol
    errors at a per-word rate from 0.05 to 0.45, so that some rows fail
    and some columns exhaust their trials, and every other word with up to
    two erased symbols in some rows."""
    f = cc.inner.field
    out = []
    for w in range(count):
        msgs = [tuple(rng.randrange(cc.outer.field.q) for _ in range(cc.outer.k)) for _ in range(cc.k)]
        rate = rng.choice((0.05, 0.1, 0.2, 0.3, 0.45))
        word = [
            [f.add(x, rng.randrange(1, f.q)) if rng.random() < rate else x for x in row]
            for row in cc_encode(cc, msgs)
        ]
        pattern = None
        if w % 2:
            pattern = [
                frozenset(rng.sample(range(cc.inner.n), rng.randrange(3))) if rng.random() < 0.3 else frozenset()
                for _ in word
            ]
        out.append((tuple(map(tuple, word)), pattern))
    return out


def _check_column_batch(rng):
    # cc_decode, which moves a word's k columns as one batch (the array
    # fold, one syndrome product for every trial, one message product),
    # against column_by_column on RS(64,40)/GF(256) over RS(15,8)/GF(16),
    # words in a row so that a syndrome kept from the word before shows;
    # and the array fold of rows that failed against the row-by-row fold
    gf16 = make_field(2, 4)
    cc = ConcatCode(rs_code(extend_field(gf16, 2), 64, 40), rs_code(gf16, 15, 8))
    twin = fresh_twin(cc.outer)
    failed = 0
    for received, pattern in noisy_concat_words(cc, rng, 6):
        for mode in (gmd.MODE_UPTO, gmd.MODE_BEYOND):
            for carry in (False, True):
                options = DecodeOptions(mode, carry)
                got = decode_outcome(cc_decode, cc, received, pattern, options)
                want = decode_outcome(column_by_column, cc, twin, received, pattern, options)
                _require(got == want, f"{mode} mode, carry-over {carry}: cc_decode differs column by column")
        rd = decode_rows(cc.inner, list(received), check_pattern(pattern, cc.m, cc.inner.n))
        columns = fold_message_columns(cc.inverse, rd)
        _require(columns == fold_row_by_row(cc.inverse, rd), "the array fold differs row by row")
        failed += sum(rd.failed)
    _require(failed, "no row failed")


CHECKS = [
    ("field-axioms", _check_field_axioms),
    ("tower-roundtrip", _check_tower_roundtrip),
    ("elimination", _check_elimination),
    ("row-maps", _check_row_maps),
    ("rs-vs-oracle", _check_rs_against_oracle),
    ("generic-vs-oracle", _check_generic_against_oracle),
    ("nested-erasure-consistency", _check_nested_erasure_consistency),
    ("uuv-vs-generic", _check_uuv_matches_generic),
    ("nsc-prefixes-mds", _check_nsc_prefixes),
    ("channel-stream", _check_channel_stream),
    ("packed-products", _check_packed_products),
    ("erasure-only-solves", _check_erasure_only_solves),
    ("batch-solves", _check_batch_solves),
    ("column-batch", _check_column_batch),
]


def run_selftest(verbose: bool = False) -> bool:
    rng = random.Random(20240901)
    ok = True
    for name, check in CHECKS:
        try:
            check(rng)
        except Exception as exc:  # a check that crashes is a violation too
            ok = False
            if verbose:
                print(f"VIOLATION {name}: {type(exc).__name__}: {exc}")
        else:
            if verbose:
                print(f"ok {name}")
    return ok
