"""Dense exact linear algebra over a finite field handle.

Matrices are tuples (or lists) of row tuples holding field elements in their
integer encoding; all arithmetic goes through the field handle, which must
provide add/sub/mul/inv/neg and the in-place row update axpy(out, c, v)
(out[j] += c * v[j]) that the row loops run on.  RowMap applies one fixed
matrix to batches of rows, splitting outer symbols into inner digits or
joining them back, and picks one of three kernels per call: a lookup table
of every row's image for small domains; for a batch of enough products in
characteristic 2 up to 2^8 elements, packed split tables (one gather, one
XOR reduction); and the row loop otherwise, in every field.
"""

import functools
import itertools

import numpy as np

from .errors import InvalidParams

# Smallest product M*K*N (rows times matrix size) that a RowMap runs on
# arrays.  Measured through RowMap calls on one core of an Intel Xeon VM
# with numpy 2.4: the packed tables cost a fixed ~9 us per call and next to
# nothing per product, the vec_mat loop ~3 us per row plus 0.07-0.1 us per
# product over GF(8), GF(16) and GF(256), and they cross near 100-150
# products (loop / packed: GF(8) 1x8x8 6.4 / 8.9 us, 1x12x12 9.6 / 9.2 us;
# GF(256) 1x8x8 8.9 / 8.9 us, 1x15x7 12.6 / 9.1 us); over GF(2), where the
# loop runs on plain ints, near 200 (1x12x12 9.2 / 10.2 us, 1x16x16 10.2 /
# 9.2 us).
ARRAY_MIN_PRODUCTS = 128

# Most entries of a precomputed lookup table: the q^K images of a RowMap's
# domain, and the q^n errors-only decodes of a block_codes.SyndromeDecoder's
# word table.  Measured the same way: a RowMap.row lookup takes 0.13-0.18
# us against 1.4-3.8 us through vec_mat on GF(8) maps from 1 x 2 to 3 x 7,
# and filling 512 entries takes 1.4-2.1 ms (GF(8) 3 x 7, GF(2) 9 x 7), what
# ~1000 lookups save.  Every small map of the benchmark's constructions
# fits: at most 64 inputs on (u | u+v) over GF(8), 256 on the Hamming [7,4]
# and RS(4,2)/GF(4) codes; a Hamming [7,4,3] word table (128 words) takes
# 0.7-1.5 ms to fill and turns a 3.6-5.3 us syndrome decode into a ~0.5 us
# lookup.
TABLE_CAP = 512

_PACKED_BLOCK = 1 << 16  # most table words RowMap.product gathers at once


class RowMap:
    """The linear map x -> x . matrix over f, applied to lists of rows.

    With split=towers (galois.TowerView), a row holds one symbol per tower,
    which expands into its coordinates over f; with join=towers, the image
    packs into one symbol per tower.  Each call takes the lookup table
    `table`, if one was built (q^K at most TABLE_CAP); else the array
    kernel `product` when len(rows) * K * N reaches ARRAY_MIN_PRODUCTS and
    `array` holds the matrix (f in characteristic 2 with at most 2^8
    elements, no tower past 2^63); else the row loop, vec_mat between
    to_base_vector and from_base_vector.  All of them give the same tuples
    of ints for rows of elements.

    Only the row loop checks a row: it rejects a wrong length and entries
    that are not elements (see Field.validate), bool and float included.
    The table and array kernels read a row by value: a row the table does
    not hold goes through the row loop, but one that equals a row of
    elements (True, 1.0, numpy integers) reads as that row, and the array
    kernel converts every row to int64 unchecked.  So every public entry
    point validates its symbols before a map sees them.
    """

    def __init__(self, f, matrix, *, split=(), join=()):
        self.field = f
        self.matrix = tuple(tuple(row) for row in matrix)
        self.k = len(self.matrix)
        self.n = len(self.matrix[0]) if self.matrix else 0
        self.split, self.join = tuple(split), tuple(join)
        ends = itertools.accumulate(t.s for t in self.join)
        self._slices = [(t, end - t.s, end) for t, end in zip(self.join, ends)]
        self.array = self.table = None
        # the array kernel runs where sums are XORs of at most 8-bit elements
        if f.p == 2 and f.q <= 1 << 8 and all(t.big.q <= 1 << 63 for t in self.split + self.join):
            self.array = np.array(self.matrix, dtype=np.int64).reshape(self.k, self.n)
        if f.q**self.k <= TABLE_CAP:
            symbols = [range(tower.big.q) for tower in self.split] or [range(f.q)] * self.k
            self.table = {x: self._loop(x) for x in itertools.product(*symbols)}

    def takes_arrays(self, rows: int) -> bool:
        """Whether a call on that many rows runs the array kernel `product`
        (row() asks the same of one row inline: it runs per symbol)."""
        return self.table is None and self.array is not None and rows * self.k * self.n >= ARRAY_MIN_PRODUCTS

    def row(self, x) -> tuple:
        """x . matrix for one row x."""
        if self.table is not None:
            try:
                return self.table[tuple(x)]
            except (KeyError, TypeError):
                pass  # not a row of the domain: the row loop reads or rejects it
        elif self.array is not None and self.k * self.n >= ARRAY_MIN_PRODUCTS:
            return self((x,))[0]
        return self._loop(x)

    def __call__(self, rows) -> list:
        """[row . matrix for row in rows], as tuples, rows a sequence."""
        if self.table is not None:
            return list(map(self.row, rows))
        if not self.takes_arrays(len(rows)):
            return list(map(self._loop, rows))
        x = np.array(rows, dtype=np.int64).reshape(len(rows), len(self.split) or self.k)
        return list(map(tuple, self.product(x).tolist()))

    def _loop(self, x) -> tuple:
        """x . matrix by vec_mat, through to_base_vector and from_base_vector."""
        if self.split:
            if len(x) != len(self.split):
                raise InvalidParams(f"expected {len(self.split)} symbols, got {len(x)}")
            x = [d for t, e in zip(self.split, x) for d in t.to_base_vector(e)]
        out = vec_mat(self.field, x, self.matrix)
        if self.join:
            out = tuple(t.from_base_vector(out[lo:hi]) for t, lo, hi in self._slices)
        return out

    def product(self, x):
        """x . matrix on arrays, where `array` is set, by split tables: x is
        a (B, len(split) or K) int64 array of symbols, unchecked, and the
        (B, len(join) or N) int64 array of their images comes back.  One
        gather of the images of every 4-bit slice of x, one XOR reduction,
        one unpack (Plank, Greenan and Miller, FAST 2013).

        x . matrix is GF(2)-linear in the bits of x, so each symbol's image
        is the XOR of its 4-bit slices' images.  Those are kept packed, m
        bits per element, into uint64 words; an output symbol (m bits, or
        s * m for a joined tower) never straddles two words.
        """
        tables, columns, shifts, offsets, word, shift, mask = self._packed
        step = max(1, _PACKED_BLOCK // max(1, tables.shape[1] * len(offsets)))
        if len(x) > step:
            return np.concatenate([self.product(x[lo : lo + step]) for lo in range(0, len(x), step)])
        slices = x.T if columns is None else x.T.take(columns, axis=0) >> shifts & 15
        packed = np.bitwise_xor.reduce(tables.take(slices + offsets, axis=0), axis=0)
        if word is not None:
            packed = packed.take(word, axis=1)
        return (packed >> shift & mask).view(np.int64)

    @functools.cached_property
    def _packed(self):
        """(tables, columns, shifts, offsets, word, shift, mask) of
        product, built on its first call: row offsets[t] + v of
        tables is the packed image of the value v at bits shifts[t] of input
        symbol columns[t]; output symbol j is word[j] >> shift[j] & mask[j]
        of the XOR of those rows.  columns is None where the slices are the
        input symbols themselves (unsplit, at most 4 bits), and word None
        where the output is one word, which the shifts and masks read as
        it is."""
        f, m = self.field, self.field.q.bit_length() - 1
        ins = [t.s for t in self.split] or [1] * self.k
        outs = [t.s for t in self.join] or [1] * self.n
        # output layout: each symbol at the end of the last word, or at the
        # start of a new one where it does not fit
        word, shift, words, at = [], [], 0, 64
        for s in outs:
            if at + s * m > 64:
                words, at = words + 1, 0
            word.append(words - 1)
            shift.append(at)
            at += s * m
        # images of each bit of each input digit, packed (digit row r, bit b)
        digit_word = np.repeat(np.array(word, dtype=np.int64), outs)
        digit_shift = [lo + m * i for lo, s in zip(shift, outs) for i in range(s)]
        units = np.array([1 << b for b in range(m)], dtype=np.int64)
        images = f.mul_array(units[None, :, None], self.array[:, None, :]).astype(np.uint64)
        images <<= np.array(digit_shift, dtype=np.uint64)
        bits = np.zeros((self.k * m, words), dtype=np.uint64)
        for w in range(words):
            bits[:, w] = np.bitwise_or.reduce(images[..., digit_word == w], axis=2).reshape(-1)
        # slices of 4 bits per input symbol: the rows of their bits in
        # `bits`, -1 (a zero row) past the symbol's width
        columns, shifts, slots = [], [], []
        r = 0
        for c, s in enumerate(ins):
            width = s * m
            for lo in range(0, width, 4):
                columns.append(c)
                shifts.append(lo)
                slots.append([r + b if b < width else -1 for b in range(lo, lo + 4)])
            r += width
        padded = np.concatenate([bits, np.zeros((1, words), dtype=np.uint64)])
        slice_bits = padded[np.array(slots, dtype=np.int64).reshape(-1, 4)]
        # entry v of a slice's table is the XOR of the images of v's bits
        tables = np.zeros((len(slots), 16, words), dtype=np.uint64)
        for b in range(4):
            tables[:, 1 << b : 2 << b] = tables[:, : 1 << b] ^ slice_bits[:, b, None]
        masks = [(1 << s * m) - 1 for s in outs]
        return (
            tables.reshape(16 * len(slots), words),
            None if not self.split and m <= 4 else np.array(columns, dtype=np.int64),
            np.array(shifts, dtype=np.int64)[:, None],
            16 * np.arange(len(slots))[:, None],
            None if words == 1 else np.array(word, dtype=np.int64),
            np.array(shift, dtype=np.uint64),
            np.array(masks, dtype=np.uint64),
        )


def vec_mat(f, v, m):
    """Row vector times matrix."""
    if len(v) != len(m):
        raise InvalidParams(f"vector length {len(v)} does not match {len(m)} rows")
    out = [0] * (len(m[0]) if m else 0)
    axpy = f.axpy
    # any(row) skips the zero rows a right inverse has off its pivot columns
    for vi, row in zip(v, m):
        if vi and any(row):
            axpy(out, vi, row)
    return tuple(out)


def eliminate(f, m, reduced=True, order=None):
    """(rows, pivot columns) of m brought to row echelon form, reduced
    (zeros above each pivot too) when asked.  Pivots are sought column by
    column in `order` (every column in turn by default); columns it leaves
    out are carried along and never pivot."""
    rows = [list(r) for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols) if order is None else order:
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        scaled = [0] * ncols
        f.axpy(scaled, f.inv(rows[r][c]), rows[r])
        rows[r] = scaled
        for i in range(nrows) if reduced else range(r + 1, nrows):
            if i != r and rows[i][c] != 0:
                f.axpy(rows[i], f.neg(rows[i][c]), scaled)
        pivots.append(c)
        r += 1
    return rows, pivots


def rank(f, m):
    """Rank of m, by forward elimination."""
    return len(eliminate(f, m, reduced=False)[1])


def right_inverse(f, m):
    """N x K matrix R with m . R = I, m a full-rank K x N matrix.

    One reduced elimination of [m | I_K].  Its pivots among the first N
    columns are the lexicographically first K independent columns of m,
    and its right block is the inverse of those columns, which R holds at
    their indices (every other row of R is zero), so the choice is
    deterministic.  A pivot past column N means m is rank-deficient.
    """
    k, n = len(m), len(m[0])
    aug = [list(row) + [int(i == j) for j in range(k)] for i, row in enumerate(m)]
    rows, pivots = eliminate(f, aug)
    if pivots[-1] >= n:
        raise InvalidParams("matrix does not have full row rank")
    out = [(0,) * k] * n
    for c, row in zip(pivots, rows):
        out[c] = tuple(row[n:])
    return tuple(out)


def parity_check(f, m):
    """(N - K) x N matrix H with m . H^T = 0 whose rows are independent, m
    a full-rank K x N matrix: one reduced elimination of m, and row j of H
    holds 1 at the non-pivot column j and minus column j of the reduced m
    at the pivots.  H has no rows where K = N."""
    n = len(m[0])
    rows, pivots = eliminate(f, m)
    out = []
    for j in sorted(set(range(n)) - set(pivots)):
        h = [0] * n
        h[j] = 1
        for c, row in zip(pivots, rows):
            h[c] = f.neg(row[j])
        out.append(tuple(h))
    return tuple(out)
