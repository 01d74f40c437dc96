"""Generalized concatenated codes: nested inner subcodes, multistage decoding.

A k-level spec pairs outer codes A_1..A_k (over GF(q^{s_i})) with the chain
of inner subcodes B^(1) c B^(2) c ... c B^(k) generated by growing prefixes
of the inner generator matrix.  Decoding runs k rounds from level k down to
level 1: each round row-decodes the current residual with B^(i), recovers
the level-i outer codeword through the reliability-weighted trial driver,
and subtracts its contribution from the residual.

The improved decoder reuses work across rounds.  A row whose decode was
consistent with the recovered column keeps its apparent error: residual
minus apparent error is already a codeword of the next subcode, so no fresh
decode is needed.  A row that decoded to the wrong codeword (the recovered
column disagreed) is re-decoded only when the next subcode's radius can
reach past the miscorrection, i.e. when d_i - wt(apparent) fits within the
new half-distance radius; otherwise its weight is forced to zero for the
next round but it is treated as a decodable row from then on.  A row that
failed outright is re-decoded only when the next subcode corrects strictly
more errors; otherwise its weight stays zero and it remains a failure row.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gmd, linalg
from .block_codes import LinearCode, ee_decode, generic_code, wt
from .concat import DecodeOptions, check_matrix, check_pattern, decode_rows, encode_columns
from .errors import ContractViolation, DecodeFailure, InvalidParams, LengthMismatch, UnknownDistance
from .galois import TowerView
from .report import SKIP_EQ8, SKIP_REUSED, SKIP_T_NO_GAIN, DecodeReport


@dataclass
class GccSpec:
    field: object
    outers: tuple
    widths: tuple
    inner_generator: tuple
    towers: tuple
    subcodes: tuple
    rinvs: tuple
    prefix: tuple

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
        return f"GccSpec(k={self.k}, M={self.m}, N={self.n}, q={self.field.q})"


def gcc_spec(outers, widths, inner_generator, field, subcode_distances=None) -> GccSpec:
    """Build a k-level spec; subcode distances are computed exactly unless given."""
    outers = tuple(outers)
    widths = tuple(int(s) for s in widths)
    if len(outers) != len(widths):
        raise InvalidParams("one expansion degree per outer code is required")
    gen = tuple(field.vector(row) for row in inner_generator)
    if sum(widths) != len(gen):
        raise InvalidParams(
            f"inner generator has {len(gen)} rows but the widths sum to {sum(widths)}"
        )
    m = outers[0].n
    if any(a.n != m for a in outers):
        raise LengthMismatch("all outer codes must share the same length")
    towers = []
    prefix = []
    total = 0
    for a, s in zip(outers, widths):
        towers.append(TowerView(a.field, field))
        if towers[-1].s != s:
            raise InvalidParams(
                f"outer field {a.field} does not have degree {s} over {field}"
            )
        total += s
        prefix.append(total)
    subcodes = []
    rinvs = []
    for i, b in enumerate(prefix):
        declared = None if subcode_distances is None else subcode_distances[i]
        sub = generic_code(field, gen[:b], d=declared)
        if sub.declared_distance() is None:
            raise UnknownDistance(f"distance of level-{i + 1} subcode must be supplied")
        subcodes.append(sub)
        rinvs.append(linalg.right_inverse(field, gen[:b]))
    dists = [c.distance() for c in subcodes]
    if any(dists[i] < dists[i + 1] for i in range(len(dists) - 1)):
        raise InvalidParams("nested subcode distances must be non-increasing")
    return GccSpec(field, outers, widths, gen, tuple(towers), tuple(subcodes), tuple(rinvs), tuple(prefix))


def prefix_subcode(spec: GccSpec, i: int) -> LinearCode:
    if not 1 <= i <= spec.k:
        raise IndexError(f"level {i} out of range 1..{spec.k}")
    return spec.subcodes[i - 1]


def designed_distance(spec: GccSpec) -> int:
    return min(
        a.distance() * b.distance() for a, b in zip(spec.outers, spec.subcodes)
    )


def gcc_encode(spec: GccSpec, msgs) -> tuple:
    if len(msgs) != spec.k:
        raise LengthMismatch(f"expected {spec.k} messages, got {len(msgs)}")
    words = [a.encode(m) for a, m in zip(spec.outers, msgs)]
    return encode_columns(spec.inner, spec.towers, words)


def correctable_gcc(error_matrix, spec: GccSpec) -> bool:
    """Guarantee predicate: sum of min(wt(E_j), d_1) strictly below d*/2."""
    d1 = spec.subcodes[0].distance()
    total = sum(min(wt(row), d1) for row in error_matrix)
    return 2 * total < designed_distance(spec)


def _fold_level(spec: GccSpec, level: int, estimates, failed):
    """Level symbols from row estimates via the prefix right inverse."""
    f = spec.field
    lo = spec.prefix[level - 2] if level >= 2 else 0
    hi = spec.prefix[level - 1]
    tower = spec.towers[level - 1]
    out = []
    for est, bad in zip(estimates, failed):
        if bad:
            out.append(0)
            continue
        base = linalg.vec_mat(f, est, spec.rinvs[level - 1])
        out.append(tower.from_base_vector(base[lo:hi]))
    return tuple(out)


def _level_contribution(spec: GccSpec, level: int, codeword):
    """M x N matrix contributed by the level's outer codeword."""
    f = spec.field
    lo = spec.prefix[level - 2] if level >= 2 else 0
    hi = spec.prefix[level - 1]
    gen_rows = spec.inner_generator[lo:hi]
    tower = spec.towers[level - 1]
    return tuple(
        linalg.vec_mat(f, tuple(tower.to_base_vector(sym)), gen_rows)
        for sym in codeword
    )


def _column_decode(spec, level, rd_weights, denom, column, mode, report):
    rel = gmd.ReliabilityVector(tuple(rd_weights), denom)
    chain = gmd.chain_with_failure_class(rel)
    g = gmd.gmd_decode(
        spec.outers[level - 1],
        column,
        rel,
        mode=mode,
        skip_zero_trial=True,
        chain=chain,
    )
    report.outer_invocations[level - 1] = g.trials
    report.gmd_trials[level - 1] = g.trials
    bound = (min(spec.outers[level - 1].distance(), denom) + 1) // 2
    if g.trials > bound:
        raise ContractViolation(f"{g.trials} trials exceed the class bound {bound}")
    return g


def _new_report(spec: GccSpec) -> DecodeReport:
    return DecodeReport(
        columns=[None] * spec.k,
        messages=[None] * spec.k,
        inner_invocations=[0] * spec.k,
        outer_invocations=[0] * spec.k,
        gmd_trials=[0] * spec.k,
        row_skips=[{} for _ in range(spec.k)],
    )


def _finish(spec: GccSpec, report: DecodeReport):
    report.codeword = encode_columns(spec.inner, spec.towers, report.columns)
    return report


def gcc_decode_basic(spec: GccSpec, received, options: DecodeOptions | None = None) -> DecodeReport:
    """Multistage decoding with a fresh row-decode pass every round."""
    options = options or DecodeOptions()
    if options.radius is not None:
        raise InvalidParams("extended-radius decoding is not available here")
    residual = check_matrix(spec.field, received, spec.m, spec.n)
    empty = check_pattern(None, spec.m, spec.n)
    report = _new_report(spec)
    for level in range(spec.k, 0, -1):
        sub = spec.subcodes[level - 1]
        rd = decode_rows(sub, residual, empty)
        report.inner_invocations[level - 1] = rd.invocations
        column = _fold_level(spec, level, rd.estimates, rd.failed)
        g = _column_decode(spec, level, rd.weights, rd.denominator, column, options.mode, report)
        if not g.ok:
            report.failed_levels.append(level)
            raise DecodeFailure(f"level {level} exhausted all trials", report=report, level=level)
        report.columns[level - 1] = g.codeword
        report.messages[level - 1] = spec.outers[level - 1].message_of(g.codeword)
        contrib = _level_contribution(spec, level, g.codeword)
        residual = [
            tuple(spec.field.sub(a, b) for a, b in zip(row, crow))
            for row, crow in zip(residual, contrib)
        ]
    return _finish(spec, report)


def gcc_decode_improved(spec: GccSpec, received, options: DecodeOptions | None = None) -> DecodeReport:
    """Multistage decoding that skips redundant row decodes across rounds."""
    options = options or DecodeOptions()
    if options.radius is not None:
        raise InvalidParams("extended-radius decoding is not available here")
    residual = check_matrix(spec.field, received, spec.m, spec.n)
    report = _new_report(spec)
    f = spec.field
    m = spec.m

    mis_rows: set = set()  # decoded rows contradicted by the recovered column
    fail_rows: set = set()  # rows with no usable decode
    tainted: set = set()  # rows whose carried estimate is known not to be trustworthy
    carried_residuals = [None] * m
    prev_d = None

    for level in range(spec.k, 0, -1):
        sub = spec.subcodes[level - 1]
        d_cur = sub.distance()
        estimates = [None] * m
        residuals = [None] * m
        weights = [0] * m
        failed = [False] * m
        calls = 0
        skips = {SKIP_REUSED: 0, SKIP_EQ8: 0, SKIP_T_NO_GAIN: 0}

        if level == spec.k:
            rd = decode_rows(sub, residual, [frozenset()] * m)
            estimates, residuals = rd.estimates, rd.residuals
            weights, failed = rd.weights, rd.failed
            calls = rd.invocations
        else:
            for j in range(m):
                row = residual[j]
                if j in fail_rows:
                    if (d_cur - 1) // 2 > (prev_d - 1) // 2:
                        out = ee_decode(sub, row)
                        calls += 1
                        if out.ok:
                            estimates[j] = out.codeword
                            residuals[j] = out.error
                            weights[j] = d_cur - 2 * out.weight
                            tainted.discard(j)
                        else:
                            estimates[j], residuals[j] = row, (0,) * spec.n
                            weights[j], failed[j] = 0, True
                    else:
                        skips[SKIP_T_NO_GAIN] += 1
                        estimates[j], residuals[j] = row, (0,) * spec.n
                        weights[j], failed[j] = 0, True
                elif j in mis_rows:
                    apparent = wt(carried_residuals[j])
                    if prev_d - apparent <= (d_cur - 1) // 2:
                        out = ee_decode(sub, row)
                        calls += 1
                        if out.ok:
                            estimates[j] = out.codeword
                            residuals[j] = out.error
                            weights[j] = d_cur - 2 * out.weight
                            tainted.discard(j)
                        else:
                            estimates[j], residuals[j] = row, (0,) * spec.n
                            weights[j], failed[j] = 0, True
                            tainted.discard(j)
                    else:
                        # Known-wrong estimate: zero its weight so every trial
                        # erases it, but keep it out of the failure set.
                        skips[SKIP_EQ8] += 1
                        estimates[j] = tuple(f.sub(a, b) for a, b in zip(row, carried_residuals[j]))
                        residuals[j] = carried_residuals[j]
                        weights[j] = 0
                        tainted.add(j)
                else:
                    skips[SKIP_REUSED] += 1
                    est = tuple(f.sub(a, b) for a, b in zip(row, carried_residuals[j]))
                    if j not in tainted and not sub.contains(est):
                        raise ContractViolation(f"carried row {j} left the subcode")
                    estimates[j] = est
                    residuals[j] = carried_residuals[j]
                    weights[j] = d_cur - 2 * wt(carried_residuals[j])

        report.inner_invocations[level - 1] = calls
        report.row_skips[level - 1] = {k: v for k, v in skips.items() if v}

        column = _fold_level(spec, level, estimates, failed)
        g = _column_decode(spec, level, weights, d_cur, column, options.mode, report)
        if not g.ok:
            report.failed_levels.append(level)
            raise DecodeFailure(f"level {level} exhausted all trials", report=report, level=level)
        report.columns[level - 1] = g.codeword
        report.messages[level - 1] = spec.outers[level - 1].message_of(g.codeword)

        contrib = _level_contribution(spec, level, g.codeword)
        residual = [
            tuple(f.sub(a, b) for a, b in zip(row, crow))
            for row, crow in zip(residual, contrib)
        ]
        if level > 1:
            fail_rows = {j for j in range(m) if failed[j]}
            mis_rows = {
                j for j in range(m) if g.error[j] != 0 and j not in fail_rows
            }
            carried_residuals = residuals
            prev_d = d_cur
    return _finish(spec, report)
