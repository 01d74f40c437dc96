"""Dense exact linear algebra over a finite field handle.

Matrices are tuples (or lists) of row tuples holding field elements in their
integer encoding; all arithmetic goes through the field handle, which must
provide add/sub/mul/inv/neg and the in-place row update axpy(out, c, v)
(out[j] += c * v[j]) that the row loops run on.  RowMap applies one fixed
matrix to batches of rows, splitting outer symbols into inner digits or
joining them back, and picks one of three kernels per call: a lookup table
of every row's image for small domains, the field's array product matmul
for a batch of enough products, and the row loop otherwise.
"""

import itertools

import numpy as np

from .errors import InvalidParams

# Smallest product M*K*N (rows times matrix size) that a RowMap runs as one
# Field.matmul.  Measured on one core of an Intel Xeon VM with numpy 2.4:
# the array path costs a fixed 7-15 us per call (conversions and five numpy
# calls) plus ~10 ns per product, the vec_mat loop ~3 us per row plus
# 0.1-0.3 us per product; they cross near 100 products over GF(2), GF(3),
# GF(8), GF(16) and GF(256) alike (1x15x7: 25 us loop, 15 us array; 1x7x6:
# 12 us loop, 14 us array), and a map's own digit expansion and packing
# move the crossover up a little.
ARRAY_MIN_PRODUCTS = 128

# Fewest words that ReedSolomonDecoder.decode_batch solves together on
# arrays rather than one by one (words with a zero syndrome or with d or
# more erasures need no solve).  Measured the same way, solving B words
# that all carry errors, array solve against scalar solve: RS(15,8)/GF(16)
# 0.65 / 0.31 ms at B = 4, 0.78 / 0.95 ms at 12, 0.84 / 1.07 ms at 16,
# 1.34 / 2.41 ms at 48; RS(64,40)/GF(256) 1.76 / 0.96 ms at 4, 2.75 / 2.92
# ms at 12, 3.17 / 3.84 ms at 16, 4.13 / 5.36 ms at 24.  The array solve
# costs a fixed ~0.5-1.5 ms per call, so they cross between 8 and 16 words
# in characteristic 2.  Odd prime fields sum one digit mod p and cross a
# little later: RS(7,3)/GF(7) 0.72 / 0.56 ms at 16 words, 0.84 / 1.18 ms at
# 32; RS(31,15)/GF(31) 2.63 / 1.89 ms at 16, 3.45 / 4.23 ms at 32.  Odd-
# characteristic extensions sum digit by digit, and ReedSolomonDecoder
# solves them one by one at any size: the array solve wins only with two
# digits and many words (RS(9,3)/GF(9) 2.05-2.36 / 2.35-3.24 ms at 48
# words, 12.4-12.8 / 18.9-20.7 ms at 256; RS(25,15)/GF(25) even within
# noise from 48 words on) and loses with more digits at every size
# (RS(26,12)/GF(27) 14.9-18.2 / 9.8-13.4 ms at 64, 71.9-75.1 / 49.2-58.7 ms
# at 256; RS(80,60)/GF(81) 62.2 / 20.6-22.6 ms at 64), so no one crossover
# by words serves them.
BATCH_MIN_ROWS = 16

# Most entries of a precomputed lookup table: the q^K images of a RowMap's
# domain, and the q^n decodes of an ExhaustiveDecoder's errors-only table.
# Measured the same way: a RowMap.row lookup takes 0.13-0.18 us against
# 1.4-3.8 us through vec_mat on GF(8) maps from 1 x 2 to 3 x 7, and filling
# 512 entries takes 1.4-2.1 ms (GF(8) 3 x 7, GF(2) 9 x 7), what ~1000
# lookups save.  Every small map of the benchmark's constructions fits: at
# most 64 inputs on (u | u+v) over GF(8), 256 on the Hamming [7,4] and
# RS(4,2)/GF(4) codes.
TABLE_CAP = 512


class RowMap:
    """The linear map x -> x . matrix over f, applied to lists of rows.

    With split=towers (galois.TowerView), a row holds one symbol per tower,
    which expands into its coordinates over f; with join=towers, the image
    packs into one symbol per tower.  Each call takes the lookup table
    `table`, if one was built (q^K at most TABLE_CAP); else one f.matmul
    between TowerView.expand and pack, unchecked, when len(rows) * K * N
    reaches ARRAY_MIN_PRODUCTS and `array` holds the matrix (f.matmul is
    vectorised for K, no tower exceeds 2^63 elements); else the row loop,
    vec_mat between to_base_vector and from_base_vector.  All three give the
    same tuples of ints; a row the table does not hold (a wrong length,
    entries that are not elements) goes through the row loop, which reads or
    rejects it.  Keys compare by value, so a row that equals a row of
    elements (numpy integers, or floats such as 1.0) reads as that row.
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
        if f.vectorised(self.k) and all(t.big.q <= 1 << 63 for t in self.split + self.join):
            self.array = np.array(self.matrix, dtype=np.int64).reshape(self.k, self.n)
        if f.q**self.k <= TABLE_CAP:
            symbols = [range(tower.big.q) for tower in self.split] or [range(f.q)] * self.k
            self.table = {x: self._loop(x) for x in itertools.product(*symbols)}

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
        if self.array is None or len(rows) * self.k * self.n < ARRAY_MIN_PRODUCTS:
            return list(map(self._loop, rows))
        x = np.array(rows, dtype=np.int64).reshape(len(rows), len(self.split) or self.k)
        if self.split:
            x = np.concatenate([t.expand(col) for t, col in zip(self.split, x.T)], axis=1)
        out = self.field.matmul(x, self.array)
        if self.join:
            out = np.stack([t.pack(out[:, lo:hi]) for t, lo, hi in self._slices], axis=1)
        return list(map(tuple, out.tolist()))

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


def _eliminate(f, m, reduced):
    """(rows, pivot columns) of m brought to row echelon form, reduced
    (zeros above each pivot too) when asked."""
    rows = [list(r) for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
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
    return len(_eliminate(f, m, reduced=False)[1])


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
    rows, pivots = _eliminate(f, aug, reduced=True)
    if pivots[-1] >= n:
        raise InvalidParams("matrix does not have full row rank")
    out = [(0,) * k] * n
    for c, row in zip(pivots, rows):
        out[c] = tuple(row[n:])
    return tuple(out)
