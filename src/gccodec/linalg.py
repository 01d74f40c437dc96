"""Dense exact linear algebra over a finite field handle.

Matrices are tuples (or lists) of row tuples holding field elements in their
integer encoding; all arithmetic goes through the field handle, which must
provide add/sub/mul/inv/neg and the in-place row update axpy(out, c, v)
(out[j] += c * v[j]) that the row loops run on.  RowMap applies one fixed
matrix to batches of rows, through the field's array product matmul or
through the row loop, whichever its shape favours.
"""

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
# in characteristic 2.  Odd characteristic sums digit by digit and crosses
# later: RS(9,3)/GF(9) near 48 words.
BATCH_MIN_ROWS = 16


class RowMap:
    """The linear map x -> x . matrix over f, applied to lists of rows.

    Built once by the code or spec that owns the matrix, for batches of
    `rows` rows: the product runs on arrays (`array` holds the matrix) when
    rows * K * N reaches ARRAY_MIN_PRODUCTS and f.matmul is vectorised for
    K, and through vec_mat row by row otherwise (`array` is None).  Both
    give the same tuples of ints.
    """

    def __init__(self, f, matrix, rows: int = 1):
        self.field = f
        self.matrix = tuple(tuple(row) for row in matrix)
        self.k = len(self.matrix)
        self.n = len(self.matrix[0]) if self.matrix else 0
        self.array = None
        if rows * self.k * self.n >= ARRAY_MIN_PRODUCTS and f.vectorised(self.k):
            self.array = np.array(self.matrix, dtype=np.int64).reshape(self.k, self.n)

    def row(self, x) -> tuple:
        """x . matrix for one row x."""
        if self.array is None:
            return vec_mat(self.field, x, self.matrix)
        return self((x,))[0]

    def __call__(self, rows) -> list:
        """[row . matrix for row in rows], as tuples."""
        if self.array is None:
            return [vec_mat(self.field, row, self.matrix) for row in rows]
        x = np.array(rows, dtype=np.int64).reshape(len(rows), self.k)
        return list(map(tuple, self.field.matmul(x, self.array).tolist()))


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
