"""Matrix-product codes: k outer codes over GF(q) combined by a k x N matrix.

A matrix-product code is the expansion-degree-one case of the generalized
concatenated construction: the row prefixes of any full-rank matrix form
the inner chain B^(1) c ... c B^(k), so the GCC bound d* = min over i of
d_i * d(B^(i)) holds, and the multistage decoder corrects inside it, for
every such matrix.  When the matrix is non-singular by columns (every t x t
minor of the first t rows is invertible) each prefix code is MDS and the
bound reads min over i of d_i * (N - i + 1); it is the exact minimum
distance when the matrix is in addition a column permutation of an
upper-triangular matrix.

Besides the generic multistage decoder, two constructions get hand-rolled
decoders that exploit their shape: the two-level (u | u+v) matrix and the
three-level (u+v+w | 2u+v | u) matrix over odd characteristic.  Both are
useful as cross-checks for the generic path and as worked references.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import gmd, linalg
from .block_codes import ENUMERATION_CAP, LinearCode, ee_decode, min_distance
from .concat import DecodeOptions, check_matrix, decode_rows
from .errors import ContractViolation, DecodeFailure, InvalidParams, ShapeError, TooLargeToEnumerate
from .gcc import GccSpec, designed_distance, gcc_decode_improved, gcc_encode, gcc_spec
from .report import DecodeReport


def is_nsc(field, matrix) -> bool:
    """Every t x t minor drawn from the first t rows is non-singular."""
    k = len(matrix)
    n = len(matrix[0]) if k else 0
    if k > n:
        raise ShapeError(f"need k <= N, got {k} x {n}")
    rows = tuple(field.vector(row) for row in matrix)
    for t in range(1, k + 1):
        top = rows[:t]
        for cols in itertools.combinations(range(n), t):
            sub = tuple(tuple(row[c] for c in cols) for row in top)
            if linalg.rank(field, sub) < t:
                return False
    return True


def is_triangular(field, matrix) -> bool:
    """Whether some column permutation is upper-triangular (nonzero diagonal).

    Row i needs a column that is nonzero in row i and zero in every row
    below it.  No column serves two rows, since it would be both zero and
    nonzero in the lower one, so one such column per row is enough.
    """
    rows = tuple(field.vector(row) for row in matrix)
    return all(
        any(x != 0 and not any(below) for x, *below in zip(row, *rows[i + 1 :]))
        for i, row in enumerate(rows)
    )


@dataclass(repr=False)
class MpcSpec(GccSpec):
    """The GccSpec of a matrix-product code: width-one levels whose inner
    generator is the matrix."""

    nsc: bool
    triangular: bool

    @property
    def matrix(self) -> tuple:
        return self.inner_generator


def mpc_spec(outers, matrix, field) -> MpcSpec:
    """Validate and assemble a matrix-product spec (degree-one levels)."""
    outers = tuple(outers)
    matrix = tuple(field.vector(row) for row in matrix)
    if any(len(row) != len(matrix[0]) for row in matrix):
        raise InvalidParams("the matrix rows must all have one length")
    if len(outers) != len(matrix):
        raise InvalidParams("one outer code per matrix row is required")
    for a in outers:
        if a.field != field:
            raise InvalidParams("outer codes of a matrix-product spec live over the base field")
    nsc = is_nsc(field, matrix)
    triangular = is_triangular(field, matrix)
    levels = gcc_spec(outers, (1,) * len(outers), matrix, field)
    spec = MpcSpec(**vars(levels), nsc=nsc, triangular=triangular)
    if nsc:
        for i, sub in enumerate(spec.subcodes, start=1):
            if sub.distance() != spec.n - i + 1:
                raise ContractViolation(f"prefix {i} of an NSC matrix is not MDS")
    return spec


def mpc_designed_distance(spec: MpcSpec):
    """(d*, exact): the GCC bound, which is min d_i * (N - i + 1) on an NSC
    matrix and exact when that matrix is also triangular."""
    return designed_distance(spec), spec.nsc and spec.triangular


def nsc_designed_distance(distances, n: int) -> int:
    """d* = min over i of d_i * (N - i + 1), for outer distances d_1, d_2, ..."""
    return min(d * (n - i) for i, d in enumerate(distances))


def matrix_designed_distance(field, matrix, distances, nsc: bool) -> int:
    """d* = min over i of d_i * d(B^(i)), B^(i) the code of the first i rows
    of a full-rank matrix: the bound designed_distance gives its spec.  On
    an NSC matrix d(B^(i)) = N - i + 1; otherwise each prefix is
    enumerated, the largest first, so one past ENUMERATION_CAP raises
    TooLargeToEnumerate before any work."""
    if nsc:
        return nsc_designed_distance(distances, len(matrix[0]))
    prefixes = [LinearCode(field, matrix[:i]).distance() for i in range(len(matrix), 0, -1)]
    return min(d * b for d, b in zip(distances, reversed(prefixes)))


def mpc_encode(spec: MpcSpec, msgs) -> tuple:
    return gcc_encode(spec, msgs)


def mpc_decode(spec: MpcSpec, received, options: DecodeOptions | None = None) -> DecodeReport:
    """Multistage decoding of any matrix-product code; the round schedule
    that re-decodes failure rows only when the prefix-code radius grows
    falls out of the skip rules."""
    return gcc_decode_improved(spec, received, options)


def exhaustive_min_distance(spec: MpcSpec) -> int:
    """True minimum distance, by enumerating the code as a linear code over
    the base field: its generator rows are the flattened encodings of the
    unit messages."""
    if spec.field.q ** sum(a.k for a in spec.outers) > ENUMERATION_CAP:  # before building it
        raise TooLargeToEnumerate(f"the code has more than {ENUMERATION_CAP} codewords")
    rows = []
    for level, outer in enumerate(spec.outers):
        for j in range(outer.k):
            msgs = [[0] * a.k for a in spec.outers]
            msgs[level][j] = 1
            rows.append(sum(gcc_encode(spec, msgs), ()))
    return min_distance(LinearCode(spec.field, rows))


def random_nsc_matrix(field, k, n, rng, max_tries=20000):
    """Rejection-sample a k x N NSC matrix; None when the budget runs out."""
    for _ in range(max_tries):
        m = tuple(
            tuple(int(rng.integers(0, field.q)) for _ in range(n)) for _ in range(k)
        )
        if is_nsc(field, m):
            return m
    return None


# ---------------------------------------------------------------------------
# hand-rolled decoders for the two worked constructions


def _bump(counter, key):
    if counter is not None:
        counter[key] = counter.get(key, 0) + 1


def _uuv_level2(spec: MpcSpec, received, counter):
    """(rows of received, level-2 outcome): the second column block minus
    the first is the second-level word plus the difference of the errors."""
    if spec.k != 2 or spec.matrix != ((1, 1), (0, 1)):
        raise InvalidParams("this decoder handles the (u | u+v) matrix only")
    f = spec.field
    rows = check_matrix(f, received, spec.m, 2)
    out2 = ee_decode(spec.outers[1], tuple(f.sub(r[1], r[0]) for r in rows))
    _bump(counter, "outer:2")
    if not out2.ok:
        raise DecodeFailure("second-level decode failed", level=2)
    return rows, out2


def decode_uuv(spec: MpcSpec, received, counter=None):
    """Two-level (u | u+v) decoding with a single erasure trial per level.

    The second column block minus the first isolates the second-level word;
    rows the first decode had to correct are erased when the first-level
    word is recovered from the first column block.  One decode per level.
    """
    rows, out2 = _uuv_level2(spec, received, counter)
    unreliable = frozenset(j for j, e in enumerate(out2.error) if e != 0)
    out1 = ee_decode(spec.outers[0], tuple(r[0] for r in rows), unreliable)
    _bump(counter, "outer:1")
    if not out1.ok:
        raise DecodeFailure("first-level decode failed", level=1)
    return out1.codeword, out2.codeword


def decode_uuv_naive(spec: MpcSpec, received, counter=None):
    """(u | u+v) decoding without reliability weights.

    Recover the second level from the block difference, try the first level
    directly on the first block, keep it when the re-encoded word is within
    half the designed distance of the input, and otherwise retry on the
    second block minus the recovered second-level word.
    """
    rows, out2 = _uuv_level2(spec, received, counter)
    f = spec.field
    a1 = spec.outers[0]
    d_star, _ = mpc_designed_distance(spec)
    v2 = out2.codeword
    out1 = ee_decode(a1, tuple(r[0] for r in rows))
    _bump(counter, "outer:1")
    if out1.ok:
        v1 = out1.codeword
        mismatch = sum(
            (1 if v1[j] != rows[j][0] else 0) + (1 if f.add(v1[j], v2[j]) != rows[j][1] else 0)
            for j in range(spec.m)
        )
        if 2 * mismatch < d_star:
            return v1, v2
    out1b = ee_decode(a1, tuple(f.sub(r[1], v2[j]) for j, r in enumerate(rows)))
    _bump(counter, "outer:1")
    if not out1b.ok:
        raise DecodeFailure("first-level decode failed", level=1)
    return out1b.codeword, v2


def _require_uvw(spec: MpcSpec):
    f = spec.field
    if f.p == 2:
        raise InvalidParams(
            "the (u+v+w | 2u+v | u) matrix needs odd characteristic: its"
            " second column is singular over characteristic two"
        )
    two = f.add(1, 1)
    want = ((1, two, 1), (1, 1, 0), (1, 0, 0))
    if spec.k != 3 or spec.matrix != want:
        raise InvalidParams("this decoder handles the (u+v+w | 2u+v | u) matrix only")


def decode_uvw(spec: MpcSpec, received, counter=None):
    """Three-level (u+v+w | 2u+v | u) decoding.

    Level 3 comes from the alternating column sum, level 2 from the first
    minus third column after cancelling level 3 (rows touched by the level-3
    correction erased), and level 1 from the third column after re-decoding
    only the rows either correction touched with the weight-3 prefix code.
    The last level runs at most two erasure trials.
    """
    _require_uvw(spec)
    f = spec.field
    rows = check_matrix(f, received, spec.m, 3)
    a1, a2, a3 = spec.outers
    m = spec.m
    b1 = spec.subcodes[0]

    # level 3: R^1 - R^2 + R^3
    v3_in = tuple(f.add(f.sub(r[0], r[1]), r[2]) for r in rows)
    out3 = ee_decode(a3, v3_in)
    _bump(counter, "outer:3")
    if not out3.ok:
        raise DecodeFailure("third-level decode failed", level=3)
    v3 = out3.codeword

    # cancel level 3 (its matrix row is (1, 0, 0)) and decode level 2
    r1p = tuple(f.sub(rows[j][0], v3[j]) for j in range(m))
    r2p = tuple(r[1] for r in rows)
    r3p = tuple(r[2] for r in rows)
    touched3 = frozenset(j for j, e in enumerate(out3.error) if e != 0)
    v2_in = tuple(f.sub(r1p[j], r3p[j]) for j in range(m))
    out2 = ee_decode(a2, v2_in, touched3)
    _bump(counter, "outer:2")
    if not out2.ok:
        raise DecodeFailure("second-level decode failed", level=2)
    v2 = out2.codeword

    # cancel level 2 (matrix row (1, 1, 0)); re-decode touched rows with the
    # weight-3 prefix code, everything else keeps full reliability
    r1pp = tuple(f.sub(r1p[j], v2[j]) for j in range(m))
    r2pp = tuple(f.sub(r2p[j], v2[j]) for j in range(m))
    flagged = sorted(
        set(touched3) | {j for j, e in enumerate(out2.error) if e != 0}
    )
    d1 = b1.distance()
    weights = [d1] * m
    v1_in = list(r3p)  # third coordinate of each row estimate
    rows = [(r1pp[j], r2pp[j], r3p[j]) for j in flagged]
    rd = decode_rows(b1, rows, [frozenset()] * len(rows))
    for j, weight, estimate in zip(flagged, rd.weights, rd.estimates):
        _bump(counter, "inner:1")
        weights[j], v1_in[j] = weight, estimate[2]
    rel = gmd.ReliabilityVector(tuple(weights), d1)
    v1_in = tuple(v1_in)

    first = frozenset(j for j in range(m) if weights[j] <= 0)
    second = frozenset(j for j in range(m) if weights[j] <= 1)
    out1 = ee_decode(a1, v1_in, first)
    _bump(counter, "outer:1")
    if out1.ok and gmd.forney_check(out1.codeword, v1_in, rel, a1.distance()):
        return out1.codeword, v2, v3
    out1b = ee_decode(a1, v1_in, second)
    _bump(counter, "outer:1")
    if not out1b.ok:
        raise DecodeFailure("first-level decode failed", level=1)
    return out1b.codeword, v2, v3
