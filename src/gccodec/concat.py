"""Concatenated codes: outer code over GF(q^s), inner code over GF(q).

Encoding splits row j of the outer codewords into inner-field symbols and
re-encodes it with the inner code, one linalg.RowMap call for all rows; a
second map folds row estimates back into outer symbols.  Decoding runs the
inner decoder on every row, turns the apparent error-and-erasure load of
each row into a reliability weight, and recovers each of the k message
columns with the multi-trial driver from the gmd module.  The k columns
move as one batch between those steps (see cc_decode); their trials run
one column at a time.

Row weights follow the error-and-erasure scheme: with per-row erasure set X
and apparent error e, the raw score is 2*wt_X(e) + |X| on success and the
inner distance on failure, and the reliability weight is the distance minus
the score (zero exactly on failures).  With empty X this reduces to the
errors-only weighting.  The no-erasure outer trial is always skipped: any
column decodable without erasures is also decodable with the zero-weight
rows erased, because those rows are already counted as unreliable.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, fields

import numpy as np

from . import gmd, linalg
from .block_codes import LinearCode, check_erasures

# decode_rows' rows come checked (check_matrix, check_pattern), so each takes
# the bounded step without a re-check, under the name perfbench wraps to count
# inner decodes
from .block_codes import bounded_decode as ee_decode
from .errors import ContractViolation, DecodeFailure, InvalidParams, LengthMismatch, integer
from .galois import TowerView
from .oracle import oracle_radius
from .report import DecodeReport


@dataclass
class DecodeOptions:
    """How cc_decode and the multistage decoders run: the GMD mode, whether
    a column's accepted trial index carries over to the next column, and
    the extended inner radius (None: the half-distance one); the multistage
    decoders take the mode only and refuse the other two.  Anything else
    (another mode, a carry_over that is not a bool, a radius that
    errors.integer refuses) raises InvalidParams here, once per run; a
    numpy integer radius is read as an int."""

    mode: str = gmd.MODE_UPTO
    carry_over: bool = False
    radius: int | None = None

    def __post_init__(self):
        if self.mode not in (gmd.MODE_UPTO, gmd.MODE_BEYOND):
            raise InvalidParams(f"unknown mode {self.mode!r}")
        if type(self.carry_over) is not bool:
            raise InvalidParams(f"carry_over must be a bool, got {self.carry_over!r}")
        if self.radius is not None:
            self.radius = integer(self.radius, "radius must be an integer")


class ConcatCode:
    """Outer code of length M over GF(q^s), inner [N, K, d_b] code over GF(q).

    The inner dimension K must equal k*s; the construction carries k outer
    messages and has length M*N with designed distance d_a*d_b.
    """

    def __init__(self, outer: LinearCode, inner: LinearCode):
        tower = TowerView(outer.field, inner.field)
        if inner.k % tower.s != 0:
            raise InvalidParams(
                f"inner dimension {inner.k} is not a multiple of the expansion degree {tower.s}"
            )
        self.outer = outer
        self.inner = inner
        self.tower = tower
        self.k = inner.k // tower.s
        self.m = outer.n
        self.encoder = linalg.RowMap(inner.field, inner.generator, split=(tower,) * self.k)
        self.inverse = linalg.RowMap(inner.field, inner.inverse.matrix, join=(tower,) * self.k)

    @property
    def length(self) -> int:
        return self.m * self.inner.n

    def designed_distance(self) -> int:
        return self.outer.distance() * self.inner.distance()

    def __repr__(self):
        return f"ConcatCode({self.outer!r} over {self.inner!r}, k={self.k})"


def check_messages(msgs, count: int):
    """Raise unless msgs is a sequence of count messages: InvalidParams for
    a non-sequence, LengthMismatch for another count."""
    try:
        got = len(msgs)
    except TypeError:
        raise InvalidParams(f"expected a list of messages, got {msgs!r}") from None
    if got != count:
        raise LengthMismatch(f"expected {count} messages, got {got}")


def cc_encode(cc: ConcatCode, msgs) -> tuple:
    """Encode k outer messages into the M x N codeword matrix."""
    check_messages(msgs, cc.k)
    return encode_columns(cc.encoder, cc.outer.encode_all(msgs))


def encode_columns(generator: linalg.RowMap, words) -> tuple:
    """M x N matrix from outer words of a common length M: row j is symbol j
    of every word through the generator map; with a GCC level's generator
    rows alone, the level's contribution to the codeword.

    When the generator runs its array kernel on M rows, the words go in
    as one array, read by columns (fold_message_columns in reverse), and
    their row tuples are never built."""
    if words and generator.takes_arrays(len(words[0])):
        return tuple(map(tuple, generator.product(np.array(words, dtype=np.int64).T).tolist()))
    return tuple(generator(list(zip(*words))))


@dataclass(eq=False)
class RowDecodeResult:
    """Per-row inner decoding results and the derived reliability weights.

    Two results are equal when every list and count is, whichever class
    holds them (see _ArrayRows)."""

    estimates: list
    residuals: list
    weights: list
    failed: list
    apparents: list
    denominator: int
    invocations: int
    arrays = None  # (codewords, errors, ok) of decode_arrays, which _ArrayRows keeps

    def __eq__(self, other):
        if not isinstance(other, RowDecodeResult):
            return NotImplemented
        return all(getattr(self, f.name) == getattr(other, f.name) for f in fields(self))


class _ArrayRows(RowDecodeResult):
    """A RowDecodeResult read from a decoder's decode_arrays: it keeps the
    arrays (codewords, errors, ok) and builds estimates and residuals, its
    rows as tuples, on first read.  Only a ConcatCode whose inner code
    decodes by ReedSolomonDecoder (an RS code past the table budget of
    block_codes.attach_decoder), with at least block_codes.BATCH_MIN_ROWS
    rows over a field that decode_arrays takes, gets one (gcc_spec builds
    GCC subcodes with generic_code, whose decoder has no decode_arrays,
    and an RS code's SyndromeDecoder has none either); cc_decode's fold
    reads the codeword array, so the row tuples are built only where a
    caller reads them, such as a comparison of two results.
    (The lazy rows live in this class alone: on RowDecodeResult, a class
    attribute of the same name would slow every read of the plain lists.)"""

    def __init__(self, arrays, weights, failed, apparents, denominator, invocations):
        self.arrays = arrays
        self.weights, self.failed, self.apparents = weights, failed, apparents
        self.denominator, self.invocations = denominator, invocations

    @functools.cached_property
    def estimates(self) -> list:
        return list(map(tuple, self.arrays[0].tolist()))

    @functools.cached_property
    def residuals(self) -> list:
        return list(map(tuple, self.arrays[1].tolist()))


def decode_rows(code: LinearCode, rows, erasure_sets, radius: int | None = None) -> RowDecodeResult:
    """Decode each row with the inner code's EE decoder, by one of two
    paths: read straight from the arrays of its decode_arrays when it has
    one and returns arrays (ReedSolomonDecoder from
    block_codes.BATCH_MIN_ROWS rows), else one ee_decode call per row,
    which here is block_codes.bounded_decode, the decoder and the distance
    bound without the checks.  The rows are tuples of length n and the
    erasure sets frozensets that check_erasures returned (check_matrix and
    check_pattern give both), so neither path checks them again; every
    decoded row is held to the distance bound on either path.

    radius, when given, must exceed the half-distance radius; every row
    then takes the ee_decode path, and rows the regular decoder rejects are
    retried with the unique-in-ball reference decoder, so the result never
    loses a row the plain decoder handles.  Rows that decode with apparent
    weight above the half-distance radius get reliability weight zero
    without being marked as failures.
    """
    d = code.distance()
    t = (d - 1) // 2
    if radius is not None:
        if radius <= t:
            raise InvalidParams(f"extended radius {radius} must exceed {t}")
        if any(erasure_sets):
            raise InvalidParams("extended-radius decoding supports errors-only input")
    arrays = getattr(code.decoder, "decode_arrays", None)
    solved = arrays(rows, erasure_sets) if arrays and radius is None else None
    if solved is not None:
        return _rows_from_arrays(code, solved, erasure_sets)
    outs = [ee_decode(code, row, erasures) for row, erasures in zip(rows, erasure_sets)]
    estimates, residuals, weights, failed, apparents = [], [], [], [], []
    calls = len(outs)
    for row, erasures, out in zip(rows, erasure_sets, outs):
        if not out.ok and radius is not None:
            out = oracle_radius(code, row, radius)
            calls += 1
        if out.ok:
            # the score min(2*w + |X|, d), w the error outside the erasures:
            # only a radius-mode row, which has no erasures, reaches d
            score = 2 * out.weight + len(erasures)
            estimates.append(out.codeword)
            residuals.append(out.error)
            weights.append(d - score if score < d else 0)
            failed.append(False)
            apparents.append(out.weight + sum(1 for i in erasures if out.error[i]))
        else:
            estimates.append(tuple(row))
            residuals.append((0,) * code.n)
            weights.append(0)
            failed.append(True)
            apparents.append(None)
    return RowDecodeResult(estimates, residuals, weights, failed, apparents, d, calls)


def _rows_from_arrays(code: LinearCode, solved, erasure_sets) -> RowDecodeResult:
    """decode_rows' result from the arrays (codewords, errors, weights, ok)
    of a decoder's decode_arrays, which it keeps, once every decoded row is
    checked against 2*wt_E + |E| < d: a decoder that breaks the bound is a
    ContractViolation."""
    codewords, errors, weights, ok = solved
    d = code.distance()
    sizes = np.fromiter(map(len, erasure_sets), dtype=np.int64, count=len(erasure_sets))
    scores = 2 * weights + sizes
    if (ok & (scores >= d)).any():
        raise ContractViolation(f"decoder for {code!r} returned a codeword outside the distance bound")
    good = ok.tolist()
    apparents = (errors != 0).sum(axis=1).tolist()
    return _ArrayRows(
        (codewords, errors, ok),
        ((d - scores) * ok).tolist(),
        [not g for g in good],
        [a if g else None for a, g in zip(apparents, good)],
        d,
        len(good),
    )


def check_pattern(pattern, m, n):
    """pattern as m erasure sets that check_erasures returned (None: no
    erasures); a non-sequence pattern raises InvalidParams, another count
    of rows LengthMismatch."""
    if pattern is None:
        return [frozenset()] * m
    try:
        got = len(pattern)
    except TypeError:
        raise InvalidParams(f"expected an erasure pattern of {m} rows, got {pattern!r}") from None
    if got != m:
        raise LengthMismatch(f"erasure pattern must have {m} rows")
    return [check_erasures(x, n) for x in pattern]


def check_shape(matrix, m: int, n: int) -> list:
    """matrix as a list of m tuples of length n, its entries unread: a
    non-sequence matrix or row raises InvalidParams, another shape
    LengthMismatch."""
    try:
        rows = list(map(tuple, matrix))
    except TypeError:
        raise InvalidParams(f"expected {m} rows of {n} entries, got {matrix!r}") from None
    if len(rows) != m or set(map(len, rows)) - {n}:
        raise LengthMismatch(f"expected {m} rows of {n} entries")
    return rows


def check_matrix(field, received, m: int, n: int) -> list:
    """received as a list of m rows, each a tuple of n elements of field; a
    non-sequence word or row raises InvalidParams, a wrong shape
    LengthMismatch.

    A word of plain ints is checked in one pass: its rows as tuples, their
    lengths, the set of its symbol types and one min and max against
    [0, q).  Any other word goes row by row through Field.vector, which
    converts numpy integers and names the first bad row or symbol.
    """
    try:
        rows = list(received)
    except TypeError:
        raise InvalidParams(f"expected a sequence of {m} rows, got {received!r}") from None
    if len(rows) != m:
        raise LengthMismatch(f"expected {m} rows, got {len(rows)}")
    tuples = []
    try:
        tuples.extend(map(tuple, rows))
    except TypeError:
        pass  # the loop below names the row; extend kept the rows before it
    if len(tuples) == m and set(map(len, tuples)) <= {n}:
        symbols = list(itertools.chain.from_iterable(tuples))
        if not symbols or (set(map(type, symbols)) == {int} and min(symbols) >= 0 and max(symbols) < field.q):
            return tuples
    out = []
    for row in tuples + rows[len(tuples) :]:  # a row iterator reads only once
        row = field.vector(row)
        if len(row) != n:
            raise LengthMismatch(f"rows must have length {n}")
        out.append(row)
    return out


def fold_message_columns(inverse: linalg.RowMap, rd: RowDecodeResult) -> list:
    """Outer-symbol columns from row estimates, the inverse of encode_columns:
    row j of the columns is estimate j through inverse (a right inverse, or
    the columns of one that a GCC level reads); a failed row gives zeros.

    One inverse call for all rows.  A result that keeps decode_arrays'
    arrays, when inverse runs its array kernel on that many rows, is
    folded from the codeword array, its failed rows zeroed there, and its
    row tuples are never built."""
    if rd.arrays is not None and inverse.takes_arrays(len(rd.failed)):
        codewords, _, ok = rd.arrays
        return list(map(tuple, inverse.product(codewords * ok[:, None]).T.tolist()))
    messages = inverse([(0,) * inverse.k if bad else est for est, bad in zip(rd.estimates, rd.failed)])
    return list(zip(*messages))


def decode_column(
    report: DecodeReport, i: int, outer: LinearCode, column, rel, chain, mode, start, bound
):
    """One GMD column step, shared by cc_decode and multistage decoding.

    Decodes outer column i (0-based) along chain from index start, records
    its trial count, and its codeword or i + 1 as a failed level; more
    trials than bound (None: unchecked) is a ContractViolation.  The
    message is the caller's to record: cc_decode takes all k in one
    product, a GCC level its own.  Returns the GmdReport.
    """
    g = gmd.gmd_decode(outer, column, rel, mode=mode, skip_zero_trial=True, chain=chain, start=start)
    report.gmd_trials[i] = g.trials
    if bound is not None and g.trials > bound:
        raise ContractViolation(f"{g.trials} trials exceed the class bound {bound}")
    if g.ok:
        report.columns[i] = g.codeword
    else:
        report.failed_levels.append(i + 1)
    return g


def extended_trial_chain(rd: RowDecodeResult, radius: int) -> gmd.ErasureChain:
    """keyed_chain erasing the failed rows, then the rows decoded past t by
    falling apparent weight radius, ..., t+1 (one set each, empty or not),
    then the rest by weight classes; radius > t, as decode_rows takes it."""
    t = (rd.denominator - 1) // 2
    past = radius - t  # keys 1..past order the rows decoded past t
    keys = [
        0 if bad else radius + 1 - v if v > t else past + w
        for bad, v, w in zip(rd.failed, rd.apparents, rd.weights)
    ]
    return gmd.keyed_chain(keys, sorted(set(keys) | set(range(past + 1))))


def trial_bound_cc(cc: ConcatCode, erasure_mode: bool = False) -> int:
    d_a, d_b = cc.outer.distance(), cc.inner.distance()
    if erasure_mode:
        return min(d_b, (d_a + 1) // 2)
    return (min(d_a, d_b) + 1) // 2


def cc_decode(cc: ConcatCode, received, pattern=None, options: DecodeOptions | None = None):
    """Decode a received M x N matrix; returns (outer codewords, report).

    The k message columns move as one batch around their GMD trials, which
    run one column at a time: the fold gives all k columns in one product,
    their syndromes are one product (the outer decoder's keep_syndromes,
    where it has one) that every trial of every column reads, and the k
    messages are one outer.inverse call after the column loop.

    Raises DecodeFailure (with the report attached) when any message column
    exhausts its trials; remaining columns are still attempted so the report
    is complete.
    """
    options = options or DecodeOptions()
    rows = check_matrix(cc.inner.field, received, cc.m, cc.inner.n)
    erasure_sets = check_pattern(pattern, cc.m, cc.inner.n)
    erasure_mode = any(erasure_sets)

    rd = decode_rows(cc.inner, rows, erasure_sets, options.radius)
    rel = gmd.ReliabilityVector(tuple(rd.weights), rd.denominator)
    if options.radius is None:
        chain = gmd.chain_with_failure_class(rel)
    else:
        chain = extended_trial_chain(rd, options.radius)
    columns_in = fold_message_columns(cc.inverse, rd)
    keep_syndromes = getattr(cc.outer.decoder, "keep_syndromes", None)
    if keep_syndromes:
        keep_syndromes(columns_in)

    k = cc.k
    report = DecodeReport(
        columns=[None] * k, messages=[None] * k, inner_invocations=[rd.invocations], gmd_trials=[0] * k
    )
    bound = trial_bound_cc(cc, erasure_mode) if options.radius is None else None
    start = 0
    for i, column in enumerate(columns_in):
        g = decode_column(report, i, cc.outer, column, rel, chain, options.mode, start, bound)
        if not g.ok:
            start = 0
        elif options.carry_over:
            start = g.accepted_index
    if not report.failed_levels:
        report.messages = cc.outer.inverse(report.columns)
        report.codeword = encode_columns(cc.encoder, report.columns)
        return report.columns, report
    # each decoded column's message, None for a failed one
    decoded = [column for column in report.columns if column is not None]
    report.messages = list(map(dict(zip(decoded, cc.outer.inverse(decoded))).get, report.columns))
    raise DecodeFailure(
        f"columns {report.failed_levels} exhausted all trials", report=report
    )


def within_region(error_matrix, pattern, m: int, n: int, d_row: int, d_star: int) -> bool:
    """Guarantee region: the per-row loads min(2*wt_X(E_j) + |X_j|, 2*d_row)
    sum below d_star, for an error matrix of m rows of n entries (see
    check_shape) and an erasure pattern (see check_pattern)."""
    rows = check_shape(error_matrix, m, n)
    erasure_sets = check_pattern(pattern, m, n)
    total = 0
    for row, x in zip(rows, erasure_sets):
        errors = len(row) - row.count(0)
        if x:
            errors -= sum(1 for i in x if row[i] != 0)
        total += min(2 * errors + len(x), 2 * d_row)
    return total < d_star


def correctable_cc(error_matrix, pattern, cc: ConcatCode) -> bool:
    """Guarantee predicate: within_region with the inner distance d_b per
    row and d* = d_a*d_b; any pattern inside it is provably corrected."""
    return within_region(error_matrix, pattern, cc.m, cc.inner.n, cc.inner.distance(), cc.designed_distance())
