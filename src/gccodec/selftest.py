"""The checks an installed package runs on itself: `gccodec selftest`.

The library leans on references that can shift under it from one install
to the next: the field arithmetic, numpy's scalar Generator draws (which
the channel's block reader replays) and numpy's uint64 kernels (which the
packed tables run on).  The selftest checks those on the installed
package, and runs one oracle round trip for each decoder family.  Each
check prints one line; any failure is a VIOLATION.  Everything else is
the test suite's (tests/).
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from . import linalg
from .block_codes import CodebookDecoder, ReedSolomonDecoder, SyndromeDecoder, generic_code, rs_code
from .channel import ChannelModel, RawStream, apply_channel, trial_rng
from .galois import TowerView, extend_field, make_field
from .oracle import oracle_sigma


def _require(cond, msg):
    """An explicit check: unlike assert, it still runs under python -O."""
    if not cond:
        raise AssertionError(msg)


def _check_field_axioms(rng):
    # prime fields, exp/log tables in characteristic 2 and 3 (Zech addition),
    # a tower GF(16) over GF(4), GF(1024) beyond 256 elements and GF(2^17)
    # past the tables
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


def _image(f, m, split, join, row):
    """row . m by dot products, through to_base_vector and from_base_vector."""
    digits = [d for t, e in zip(split, row) for d in t.to_base_vector(e)] if split else row
    out = [f.dot(digits, col) for col in zip(*m)]
    ends = itertools.accumulate(t.s for t in join)
    return tuple(t.from_base_vector(out[e - t.s : e]) for t, e in zip(join, ends)) if join else tuple(out)


def _check_rs_against_oracle(rng):
    # GF(8) and the odd-characteristic GF(9); both codes have more error
    # patterns than the table budget, so RS(7,3)/GF(8), with few codewords,
    # decodes by vote and RS(9,4)/GF(9) by ReedSolomonDecoder.  The
    # attached decoder and a ReedSolomonDecoder on the same points must
    # both return the oracle's outcome
    for (p, m), n, k, kind, words in (((2, 3), 7, 3, CodebookDecoder, 150), ((3, 2), 9, 4, ReedSolomonDecoder, 40)):
        f = make_field(p, m)
        code = rs_code(f, n, k)
        _require(isinstance(code.decoder, kind), f"{code!r} does not decode by {kind.__name__}")
        rs = ReedSolomonDecoder(f, range(n), k)
        for _ in range(words):
            word = tuple(rng.randrange(f.q) for _ in range(n))
            erasures = frozenset(rng.sample(range(n), rng.randrange(0, n - k + 1)))
            slow = oracle_sigma(code, word, erasures)
            ok = code.decode(word, erasures) == slow == rs(word, erasures)
            _require(ok, f"{code!r}: {word} with erasures {set(erasures)}")


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
    # RowMap's packed tables against dot products over GF(2), GF(8),
    # GF(16)/GF(4) and GF(256)/GF(16): K = 1, N past one 64-bit word of
    # elements, zero matrix rows, an empty batch, and maps that split
    # symbols or join digits (through degree-two towers, and degree-one
    # ones over GF(256)/GF(16)); each batch holds the zero row and the
    # first unit row, whose image is matrix row 0
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
            expect = [list(_image(f, matrix, split, join, row)) for row in rows]
            what = f"{f}: {side} {k} x {n} packed products"
            _require(rowmap.product(x).tolist() == expect, f"{what} against dot products")
            _require(rowmap.product(x[:0]).shape == (0, len(join) or n), f"{what} of no rows")


CHECKS = [
    ("field-axioms", _check_field_axioms),
    ("rs-vs-oracle", _check_rs_against_oracle),
    ("generic-vs-oracle", _check_generic_against_oracle),
    ("channel-stream", _check_channel_stream),
    ("packed-products", _check_packed_products),
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
