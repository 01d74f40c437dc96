"""Generalized concatenated codes: nested inner subcodes, multistage decoding.

A k-level spec pairs outer codes A_1..A_k (over GF(q^{s_i})) with the chain
of inner subcodes B^(1) c B^(2) c ... c B^(k) generated by growing prefixes
of the inner generator matrix.  Decoding runs k rounds from level k down to
level 1: each round row-decodes the current residual with B^(i), recovers
the level-i outer codeword through the reliability-weighted trial driver,
and subtracts its contribution from the residual.  Both decoders share that
round, built from concat's parts: rows decode through decode_rows, fold
through fold_message_columns, the column through decode_column, and the
contribution is encode_columns of the level alone.  The contributions sum
to the codeword, so it is the received word minus the final residual.

The basic decoder decodes every row in every round.  The improved decoder
decodes every row at level k and reuses work in the rounds below it, where
each row falls into one of four cases:

- decode it: a row that failed, when the new subcode's radius (d-1)/2 is
  larger than the one it failed with; a known-wrong row (a recovered
  column contradicted its last decode, in this round or an earlier one),
  when d_origin - wt(apparent error) fits within the new radius, d_origin
  being the distance of the subcode that made that decode, so the new
  decode can reach past the miscorrection;
- reuse it (NotInSuT): a row whose last decode no column contradicted
  keeps its apparent error, since residual minus apparent error is already
  a codeword of the next subcode;
- zero its weight as known-wrong (SkipCondEq8): a known-wrong row the new
  radius cannot reach keeps its estimate with weight zero, so every trial
  erases it, but it stays out of the failure set; its estimate is off by a
  nonzero codeword at every level until a decode replaces it;
- keep it failed (TNoGain): a failed row whose radius does not grow.

The rows to decode in a round go through one decode_rows call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import gmd, linalg
from .block_codes import LinearCode, generic_code
from .concat import (
    DecodeOptions,
    RowDecodeResult,
    check_matrix,
    check_messages,
    decode_column,
    decode_rows,
    encode_columns,
    fold_message_columns,
    within_region,
)
from .errors import ContractViolation, DecodeFailure, InvalidParams, LengthMismatch, UnknownDistance
from .galois import TowerView
from .report import SKIP_EQ8, SKIP_REUSED, SKIP_T_NO_GAIN, DecodeReport


@dataclass
class GccSpec:
    """A k-level spec as gcc_spec builds it.  encoder maps the M rows of
    outer symbols, one per level, through the whole inner generator; level i
    adds its contribution through level_encoders[i], its generator rows,
    and reads its symbols back through level_inverses[i], the columns of
    subcode i's right inverse that its outer code owns."""

    field: object
    outers: tuple
    widths: tuple
    inner_generator: tuple
    subcodes: tuple
    encoder: linalg.RowMap
    level_encoders: tuple
    level_inverses: tuple

    @property
    def k(self) -> int:
        return len(self.outers)

    @property
    def m(self) -> int:
        return self.outers[0].n

    @property
    def n(self) -> int:
        return len(self.inner_generator[0])

    @property
    def inner(self) -> LinearCode:
        return self.subcodes[-1]

    def __repr__(self):
        return f"{type(self).__name__}(k={self.k}, M={self.m}, N={self.n}, q={self.field.q})"


def gcc_spec(outers, inner_generator, field, subcode_distances=None) -> GccSpec:
    """Build a k-level spec; level i's width is the degree of outer i's field
    over field, and subcode distances are computed exactly unless given."""
    try:
        codes = tuple(outers)
    except TypeError:  # outers is not a sequence
        codes = ()
    if not codes or not all(isinstance(a, LinearCode) for a in codes):
        raise InvalidParams(f"outers must be a non-empty sequence of linear codes, got {outers!r}")
    outers = codes
    towers = tuple(TowerView(a.field, field) for a in outers)
    widths = tuple(tower.s for tower in towers)
    gen = field.matrix(inner_generator)
    if sum(widths) != len(gen):
        raise InvalidParams(
            f"inner generator has {len(gen)} rows but the outer degrees sum to {sum(widths)}"
        )
    m = outers[0].n
    if any(a.n != m for a in outers):
        raise LengthMismatch("all outer codes must share the same length")
    prefix = tuple(itertools.accumulate(widths))
    subcodes = []
    declared = (None,) * len(prefix) if subcode_distances is None else tuple(subcode_distances)
    if len(declared) != len(prefix):
        raise InvalidParams(f"{len(declared)} subcode distances given for {len(prefix)} levels")
    for i, (b, d) in enumerate(zip(prefix, declared)):
        sub = generic_code(field, gen[:b], d=d)
        if sub.declared_distance() is None:
            raise UnknownDistance(f"distance of level-{i + 1} subcode must be supplied")
        subcodes.append(sub)
    dists = [c.distance() for c in subcodes]
    if any(dists[i] < dists[i + 1] for i in range(len(dists) - 1)):
        raise InvalidParams("nested subcode distances must be non-increasing")
    level_encoders, level_inverses = [], []
    for sub, tower, lo, hi in zip(subcodes, towers, (0,) + prefix, prefix):
        level_encoders.append(linalg.RowMap(field, gen[lo:hi], split=(tower,)))
        columns = [row[lo:hi] for row in sub.inverse.matrix]
        level_inverses.append(linalg.RowMap(field, columns, join=(tower,)))
    encoder = linalg.RowMap(field, gen, split=towers)
    return GccSpec(
        field, outers, widths, gen, tuple(subcodes),
        encoder, tuple(level_encoders), tuple(level_inverses),
    )


def prefix_subcode(spec: GccSpec, i: int) -> LinearCode:
    if not 1 <= i <= spec.k:
        raise IndexError(f"level {i} out of range 1..{spec.k}")
    return spec.subcodes[i - 1]


def designed_distance(spec: GccSpec) -> int:
    return min(
        a.distance() * b.distance() for a, b in zip(spec.outers, spec.subcodes)
    )


def gcc_encode(spec: GccSpec, msgs) -> tuple:
    check_messages(msgs, spec.k)
    words = [a.encode(m) for a, m in zip(spec.outers, msgs)]
    return encode_columns(spec.encoder, words)


def correctable_gcc(error_matrix, spec: GccSpec) -> bool:
    """Guarantee predicate: concat.within_region without erasures, with
    d(B^(1)) per row and d* the designed distance."""
    return within_region(error_matrix, None, spec.m, spec.n, spec.subcodes[0].distance(), designed_distance(spec))


def _fresh_rows(spec: GccSpec, level: int, residual):
    """Decode every row of the residual with the level's subcode."""
    return decode_rows(spec.subcodes[level - 1], residual, [frozenset()] * spec.m), {}


def _multistage(spec: GccSpec, received, options: DecodeOptions | None, row_pass) -> DecodeReport:
    """Rounds from level k down to level 1, shared by both decoders.

    row_pass(level, residual, prev) returns the round's RowDecodeResult and
    its row-skip counts; prev is None at level k, and after that the
    previous round's RowDecodeResult with the set of rows whose decode its
    recovered column contradicted.
    """
    options = options or DecodeOptions()
    if options.radius is not None:
        raise InvalidParams("extended-radius decoding is not available here")
    if options.carry_over:  # each level has its own chain, so no index carries over
        raise InvalidParams("carry_over is not available here")
    f = spec.field
    received = check_matrix(f, received, spec.m, spec.n)
    residual = received
    k = spec.k
    report = DecodeReport(
        columns=[None] * k,
        messages=[None] * k,
        inner_invocations=[0] * k,
        gmd_trials=[0] * k,
        row_skips=[{} for _ in range(k)],
    )
    prev = None
    for level in range(k, 0, -1):
        i = level - 1
        outer = spec.outers[i]
        rd, skips = row_pass(level, residual, prev)
        report.inner_invocations[i] = rd.invocations
        report.row_skips[i] = skips
        (column,) = fold_message_columns(spec.level_inverses[i], rd)
        rel = gmd.ReliabilityVector(tuple(rd.weights), rd.denominator)
        chain = gmd.chain_with_failure_class(rel)
        bound = (min(outer.distance(), rd.denominator) + 1) // 2
        g = decode_column(report, i, outer, column, rel, chain, options.mode, 0, bound)
        if not g.ok:
            raise DecodeFailure(f"level {level} exhausted all trials", report=report, level=level)
        report.messages[i] = outer.inverse.row(g.codeword)
        contrib = encode_columns(spec.level_encoders[i], (g.codeword,))
        residual = [tuple(map(f.sub, row, crow)) for row, crow in zip(residual, contrib)]
        prev = rd, {j for j, e in enumerate(g.error) if e != 0 and not rd.failed[j]}
    # the level contributions sum to the codeword, which is received - residual
    report.codeword = tuple(tuple(map(f.sub, row, rest)) for row, rest in zip(received, residual))
    return report


def gcc_decode_basic(spec: GccSpec, received, options: DecodeOptions | None = None) -> DecodeReport:
    """Multistage decoding with a fresh row-decode pass every round."""
    return _multistage(
        spec, received, options, lambda level, residual, prev: _fresh_rows(spec, level, residual)
    )


def gcc_decode_improved(spec: GccSpec, received, options: DecodeOptions | None = None) -> DecodeReport:
    """Multistage decoding that skips redundant row decodes across rounds."""
    f = spec.field
    # rows whose carried estimate is known wrong: a column contradicted the
    # decode that gave it, and no re-decode has replaced it since
    tainted: set = set()
    origin = [spec.inner.distance()] * spec.m  # distance of the subcode that last decoded each row

    def row_pass(level, residual, prev):
        if prev is None:
            return _fresh_rows(spec, level, residual)
        carried, contradicted = prev
        sub = spec.subcodes[level - 1]
        d = sub.distance()
        t = (d - 1) // 2
        estimates, residuals, weights = list(residual), list(carried.residuals), [0] * spec.m
        failed, apparents = list(carried.failed), list(carried.apparents)
        skips = dict.fromkeys((SKIP_REUSED, SKIP_EQ8, SKIP_T_NO_GAIN), 0)
        redo = []
        tainted.update(contradicted)
        for j, apparent in enumerate(carried.apparents):
            if failed[j]:
                if t > (origin[j] - 1) // 2:
                    redo.append(j)
                else:
                    skips[SKIP_T_NO_GAIN] += 1
                continue
            # the wrong decode that gave this apparent error was made with
            # distance origin[j], so the row holds at least origin[j] - apparent
            # errors: a new decode can reach them once that fits the radius
            if j in tainted and origin[j] - apparent <= t:
                redo.append(j)
                continue
            estimates[j] = tuple(f.sub(a, b) for a, b in zip(residual[j], residuals[j]))
            if j in tainted:
                # Known-wrong estimate: its zero weight makes every trial
                # erase it, but it stays out of the failure set.
                skips[SKIP_EQ8] += 1
            else:
                skips[SKIP_REUSED] += 1
                weights[j] = d - 2 * apparent
                if not sub.holds(estimates[j]):
                    raise ContractViolation(f"carried row {j} left the subcode")
        fresh = decode_rows(sub, [residual[j] for j in redo], [frozenset()] * len(redo))
        for i, j in enumerate(redo):
            estimates[j], residuals[j] = fresh.estimates[i], fresh.residuals[i]
            weights[j], failed[j], apparents[j] = fresh.weights[i], fresh.failed[i], fresh.apparents[i]
            origin[j] = d
        tainted.difference_update(redo)
        rd = RowDecodeResult(estimates, residuals, weights, failed, apparents, d, fresh.invocations)
        return rd, {key: n for key, n in skips.items() if n}

    return _multistage(spec, received, options, row_pass)
