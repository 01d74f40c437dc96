"""Acceptance suite: every correction guarantee checked at desk scale.

Each test prints one line; run with -s to see them.  Tolerances are zero
failures throughout, and the first criterion also carries a wall-clock
budget.
"""

import itertools
import random
import time

import numpy as np
import pytest

import gccodec as g

from conftest import corrupt, error_matrix


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status} {detail}")
    assert ok, detail


def all_patterns_up_to_weight_two(field, m, n):
    """Every nonzero error matrix of weight <= 2 (values over the field)."""
    total = m * n
    nonzero = range(1, field.q)
    for p in range(total):
        for v in nonzero:
            yield ((p, v),)
    for p1, p2 in itertools.combinations(range(total), 2):
        for v1 in nonzero:
            for v2 in nonzero:
                yield ((p1, v1), (p2, v2))


def apply_flat(field, word, pattern, n):
    rows = [list(r) for r in word]
    for p, v in pattern:
        rows[p // n][p % n] = field.add(rows[p // n][p % n], v)
    return tuple(tuple(r) for r in rows)


def test_01_half_distance_exhaustive(mpc_uuv8):
    """All weight-<=2 patterns on 20 codewords of the d* = 6 construction."""
    field = mpc_uuv8.field
    d_star, _ = g.mpc_designed_distance(mpc_uuv8)
    assert d_star == 6
    patterns = list(all_patterns_up_to_weight_two(field, 7, 2))
    assert len(patterns) == 4557
    rng = random.Random(2024)
    start = time.time()
    failures = 0
    decodes = 0
    for _ in range(20):
        msgs = [
            tuple(rng.randrange(8) for _ in range(a.k)) for a in mpc_uuv8.outers
        ]
        word = g.mpc_encode(mpc_uuv8, msgs)
        for pattern in patterns:
            received = apply_flat(field, word, pattern, 2)
            decodes += 1
            try:
                out = g.mpc_decode(mpc_uuv8, received)
            except g.DecodeFailure:
                failures += 1
                continue
            if out.codeword != word:
                failures += 1
    elapsed = time.time() - start
    report(
        1,
        failures == 0 and elapsed < 60.0,
        f"{decodes} decodes, {failures} failures, {elapsed:.1f}s (< 60s)",
    )


def test_02_capped_row_sum_region(cc_small):
    """Exhaustive weight <= 4 plus 10k bursty patterns on the d >= 9 code."""
    field = cc_small.inner.field
    patterns = [()]
    for w in range(1, 5):
        patterns.extend(itertools.combinations(range(15), w))
    assert len(patterns) == 1941
    failures = 0
    for msg in range(4):
        word = g.cc_encode(cc_small, [(msg,)])
        for positions in patterns:
            rows = [list(r) for r in word]
            for p in positions:
                rows[p // 5][p % 5] ^= 1
            received = tuple(tuple(r) for r in rows)
            try:
                _, rep = g.cc_decode(cc_small, received)
            except g.DecodeFailure:
                failures += 1
                continue
            if rep.codeword != word:
                failures += 1

    rng = random.Random(777)
    bursty_failures = 0
    for _ in range(10000):
        msg = rng.randrange(4)
        word = g.cc_encode(cc_small, [(msg,)])
        rows = [list(r) for r in word]
        burst_row = rng.randrange(3)
        burst_weight = rng.choice((4, 5))
        stray = 1 if burst_weight == 4 else rng.randrange(2)
        for c in rng.sample(range(5), burst_weight):
            rows[burst_row][c] ^= 1
        if burst_weight + stray <= 4:
            stray = 1
        if stray:
            other = rng.choice([j for j in range(3) if j != burst_row])
            rows[other][rng.randrange(5)] ^= 1
        received = tuple(tuple(r) for r in rows)
        errors = error_matrix(field, word, received)
        weight = sum(g.wt(r) for r in errors)
        assert weight > 4
        assert g.correctable_cc(errors, None, cc_small)
        try:
            _, rep = g.cc_decode(cc_small, received)
        except g.DecodeFailure:
            bursty_failures += 1
            continue
        if rep.codeword != word:
            bursty_failures += 1
    report(
        2,
        failures == 0 and bursty_failures == 0,
        f"exhaustive failures {failures}, bursty failures {bursty_failures}",
    )


def _flattened_code(spec):
    """The matrix-product code as a plain linear code over the base field."""
    rows = []
    for level, outer in enumerate(spec.outers):
        for basis in range(outer.k):
            msgs = [
                tuple(
                    (1 if (a is outer and i == basis and lev == level) else 0)
                    for i in range(a.k)
                )
                for lev, a in enumerate(spec.outers)
            ]
            word = g.mpc_encode(spec, msgs)
            rows.append(tuple(x for row in word for x in row))
    return g.LinearCode(spec.field, rows)


def test_03_oracle_equivalence(gf2):
    """Inside half the true distance the decoder matches the nearest oracle."""
    rng = random.Random(31337)
    specs = []
    while len(specs) < 5:
        m = rng.choice((5, 6, 7))
        k1 = rng.randrange(1, 3)
        k2 = rng.randrange(1, 3)
        if k1 + k2 > 6:
            continue
        try:
            a1 = g.LinearCode(gf2, [[rng.randrange(2) for _ in range(m)] for _ in range(k1)])
            a2 = g.LinearCode(gf2, [[rng.randrange(2) for _ in range(m)] for _ in range(k2)])
        except g.InvalidParams:
            continue
        a1 = g.generic_code(gf2, a1.generator)
        a2 = g.generic_code(gf2, a2.generator)
        spec = g.mpc_spec([a1, a2], [[1, 1], [0, 1]], gf2)
        true_d = g.exhaustive_min_distance(spec)
        if true_d < 3:
            continue
        specs.append((spec, true_d))
    mismatches = 0
    samples = 0
    for spec, true_d in specs:
        flat = _flattened_code(spec)
        flat._d = true_d
        radius = (true_d - 1) // 2
        for _ in range(2000):
            msgs = [
                tuple(rng.randrange(2) for _ in range(a.k)) for a in spec.outers
            ]
            word = g.mpc_encode(spec, msgs)
            weight = rng.randrange(1, radius + 1)
            received = corrupt(
                spec.field, word, rng.sample(range(spec.m * spec.n), weight), rng
            )
            samples += 1
            flat_received = tuple(x for row in received for x in row)
            ties, dist = g.oracle_nearest(flat, flat_received)
            flat_word = tuple(x for row in word for x in row)
            ok_oracle = ties == (flat_word,)
            try:
                out = g.mpc_decode(spec, received)
                ok_dec = out.codeword == word
            except g.DecodeFailure:
                ok_dec = False
            if not (ok_oracle and ok_dec):
                mismatches += 1
    report(3, samples == 10000 and mismatches == 0, f"{samples} samples, {mismatches} mismatches")


def test_04_error_and_erasure_region(cc_small):
    """10k random (errors, erasures) with 2t + s < 9, plus weight equality."""
    field = cc_small.inner.field
    rng = random.Random(4040)
    failures = 0
    for _ in range(10000):
        msg = rng.randrange(4)
        word = g.cc_encode(cc_small, [(msg,)])
        s = rng.randrange(0, 9)
        t = rng.randrange(0, (9 - s + 1) // 2)
        positions = rng.sample(range(15), min(15, s + t))
        erased, flipped = positions[:s], positions[s : s + t]
        rows = [list(r) for r in word]
        pattern = [set() for _ in range(3)]
        for p in erased:
            rows[p // 5][p % 5] = 0
            pattern[p // 5].add(p % 5)
        for p in flipped:
            rows[p // 5][p % 5] ^= 1
        received = tuple(tuple(r) for r in rows)
        try:
            _, rep = g.cc_decode(cc_small, received, [frozenset(x) for x in pattern])
        except g.DecodeFailure:
            failures += 1
            continue
        if rep.codeword != word:
            failures += 1

    # with no erasures the general row scoring must equal the errors-only one
    from gccodec.concat import decode_rows

    inner = cc_small.inner
    d_b = inner.distance()
    weight_mismatches = 0
    for _ in range(500):
        row = tuple(rng.randrange(2) for _ in range(5))
        general = decode_rows(inner, [row], [frozenset()])
        out = inner.decode(row)
        if out.ok:
            score = 2 * g.wt(out.error)
            expected = d_b - (score if score < d_b else d_b)
        else:
            expected = 0
        if general.weights[0] != expected:
            weight_mismatches += 1
    report(
        4,
        failures == 0 and weight_mismatches == 0,
        f"region failures {failures}, weight mismatches {weight_mismatches}",
    )


def test_05_trial_bounds(cc_small, cc_two_cols):
    """Per-column trial budgets and the carry-over total budget."""
    rng = random.Random(55)
    violations = 0
    bound_plain = g.trial_bound_cc(cc_small)
    bound_erasure = g.trial_bound_cc(cc_small, erasure_mode=True)
    for _ in range(3000):
        word = g.cc_encode(cc_small, [(rng.randrange(4),)])
        s = rng.randrange(0, 6)
        t = rng.randrange(0, 4)
        positions = rng.sample(range(15), min(15, s + t))
        rows = [list(r) for r in word]
        pattern = [set() for _ in range(3)]
        for p in positions[:s]:
            rows[p // 5][p % 5] = 0
            pattern[p // 5].add(p % 5)
        for p in positions[s : s + t]:
            rows[p // 5][p % 5] ^= 1
        received = tuple(tuple(r) for r in rows)
        use_erasures = s > 0
        try:
            _, rep = g.cc_decode(
                cc_small, received, [frozenset(x) for x in pattern]
            )
        except g.DecodeFailure as exc:
            rep = exc.report
        limit = bound_erasure if use_erasures else bound_plain
        if max(rep.gmd_trials) > limit:
            violations += 1

    k = cc_two_cols.k
    m = g.trial_bound_cc(cc_two_cols)
    carry_violations = 0
    checked = 0
    for _ in range(3000):
        word = g.cc_encode(
            cc_two_cols, [tuple(rng.randrange(4) for _ in range(2)) for _ in range(2)]
        )
        received = corrupt(
            cc_two_cols.inner.field, word, rng.sample(range(28), rng.randrange(0, 5)), rng
        )
        errors = error_matrix(cc_two_cols.inner.field, word, received)
        if not g.correctable_cc(errors, None, cc_two_cols):
            continue
        checked += 1
        _, rep = g.cc_decode(
            cc_two_cols, received, options=g.DecodeOptions(carry_over=True)
        )
        if rep.total_outer > k + m - 1:
            carry_violations += 1
    report(
        5,
        violations == 0 and carry_violations == 0 and checked > 500,
        f"trial violations {violations}, carry-over violations {carry_violations} ({checked} carry runs)",
    )


def test_06_invocation_bounds(mpc_uvw3):
    """Row-decoder budgets for the three-level ternary construction, M = 7."""
    spec = mpc_uvw3
    gcc_bound = spec.m + sum(a.distance() - 1 for a in spec.outers)
    t = (spec.k - 1) // 2  # last prefix distance is 1, odd
    nsc_bound = spec.m + sum(
        spec.outers[spec.k - 2 - 2 * i].distance() - 1 for i in range(t)
    )
    assert (gcc_bound, nsc_bound) == (19, 11)
    violations = 0
    rng = random.Random(66)
    for trial in range(3000):
        msgs = [tuple(rng.randrange(3) for _ in range(a.k)) for a in spec.outers]
        word = g.mpc_encode(spec, msgs)
        received = corrupt(
            spec.field, word, rng.sample(range(21), rng.randrange(0, 6)), rng
        )
        try:
            rep = g.mpc_decode(spec, received)
        except g.DecodeFailure as exc:
            rep = exc.report
        if rep.total_inner > min(gcc_bound, nsc_bound):
            violations += 1
    report(6, violations == 0, f"violations {violations} (bounds {gcc_bound}/{nsc_bound})")


@pytest.mark.parametrize("fixed", [False, True], ids=["random", "5-2-3"])
def test_07_nested_erasure_sets(gf2, inner_523, fixed):
    """Growing an even-residual erasure set by one never changes the result,
    on three random binary codes or on the [5,2,3] code (160 pairs)."""
    rng = random.Random(7007)
    codes = [inner_523] if fixed else []
    while len(codes) < 3 and not fixed:
        n = rng.choice((6, 7))
        k = rng.randrange(1, 4)
        try:
            code = g.generic_code(gf2, [[rng.randrange(2) for _ in range(n)] for _ in range(k)])
        except g.InvalidParams:
            continue
        if code.distance() < 2:
            continue
        codes.append(code)
    violations = 0
    checked = 0
    for code in codes:
        d, n = code.distance(), code.n
        for word in itertools.product(range(2), repeat=n):
            for size in range(min(d, n)):
                if (d - size) % 2 != 0:
                    continue
                for f1 in itertools.combinations(range(n), size):
                    f1 = frozenset(f1)
                    first = g.oracle_sigma(code, word, f1)
                    if not first.ok:
                        continue
                    for extra in range(n):
                        if extra in f1:
                            continue
                        checked += 1
                        second = g.oracle_sigma(code, word, f1 | {extra})
                        if second.codeword != first.codeword:
                            violations += 1
    report(7, violations == 0 and checked > (100 if fixed else 1000), f"{checked} pairs, {violations} violations")


def test_08_nsc_prefixes_and_exact_distance():
    """Random NSC matrices: MDS prefixes; triangular ones meet d* exactly."""
    rng = np.random.Generator(np.random.PCG64(88))
    msg_rng = random.Random(88)
    fields = [g.make_field(2, 1), g.make_field(3, 1), g.make_field(5, 1)]
    found = 0
    mds_violations = 0
    exact_checks = 0
    exact_violations = 0
    while found < 50:
        field = fields[int(rng.integers(0, 3))]
        k = int(rng.integers(1, min(4, field.q) + 1))
        n = int(rng.integers(k, min(6, field.q) + 1))
        matrix = g.random_nsc_matrix(field, k, n, rng, max_tries=3000)
        if matrix is None:
            continue
        found += 1
        for t in range(1, k + 1):
            prefix = g.LinearCode(field, matrix[:t])
            if g.min_distance(prefix) != n - t + 1:
                mds_violations += 1
        if not g.is_triangular(field, matrix):
            continue
        m = 4
        outers = []
        enumeration = 1
        ok = True
        for _ in range(k):
            for _ in range(200):
                dim = msg_rng.randrange(1, 3)
                if enumeration * field.q**dim > 1 << 14:
                    dim = 1
                try:
                    cand = g.generic_code(
                        field,
                        [[msg_rng.randrange(field.q) for _ in range(m)] for _ in range(dim)],
                    )
                    break
                except g.InvalidParams:
                    continue
            else:
                ok = False
                break
            outers.append(cand)
            enumeration *= field.q**cand.k
        if not ok or enumeration > 1 << 14:
            continue
        spec = g.mpc_spec(outers, matrix, field)
        d_star, exact = g.mpc_designed_distance(spec)
        assert exact
        exact_checks += 1
        if g.exhaustive_min_distance(spec) != d_star:
            exact_violations += 1
    report(
        8,
        mds_violations == 0 and exact_violations == 0 and exact_checks >= 10,
        f"50 matrices, {mds_violations} MDS violations, "
        f"{exact_violations}/{exact_checks} exact-distance violations",
    )


def test_09_specialized_decoders_cross_equivalence(mpc_uuv8, mpc_uvw3):
    """Hand-rolled decoders vs the generic path on seeded channel streams."""
    mismatches = 0
    counter_violations = 0

    def channel_word(spec, p_err, rng):
        msgs = [
            tuple(int(rng.integers(0, spec.field.q)) for _ in range(a.k))
            for a in spec.outers
        ]
        word = g.mpc_encode(spec, msgs)
        rows = [list(r) for r in word]
        for j in range(spec.m):
            for c in range(spec.n):
                if rng.random() < p_err:
                    rows[j][c] = spec.field.add(
                        rows[j][c], int(rng.integers(1, spec.field.q))
                    )
        return word, tuple(tuple(r) for r in rows)

    d_star_uuv, _ = g.mpc_designed_distance(mpc_uuv8)
    rng = np.random.Generator(np.random.PCG64(909))
    for _ in range(1000):
        word, received = channel_word(mpc_uuv8, 0.02, rng)
        weight = sum(1 for w, r in zip(word, received) for a, b in zip(w, r) if a != b)
        inside = 2 * weight < d_star_uuv
        try:
            generic = tuple(g.mpc_decode(mpc_uuv8, received).columns)
        except g.DecodeFailure:
            generic = None
        c1, c2 = {}, {}
        try:
            quick = tuple(g.decode_uuv(mpc_uuv8, received, c1))
        except g.DecodeFailure:
            quick = None
        try:
            naive = tuple(g.decode_uuv_naive(mpc_uuv8, received, c2))
        except g.DecodeFailure:
            naive = None
        if inside:
            if generic is None or quick != generic or naive != generic:
                mismatches += 1
        if generic is not None and quick != generic:
            mismatches += 1
        if c1.get("outer:1", 0) > 1 or c1.get("outer:2", 0) > 1:
            counter_violations += 1
        if c2.get("outer:1", 0) > 2 or c2.get("outer:2", 0) > 1:
            counter_violations += 1

    d_star_uvw, _ = g.mpc_designed_distance(mpc_uvw3)
    limit_b1 = mpc_uvw3.outers[1].distance() - 1
    rng = np.random.Generator(np.random.PCG64(910))
    for _ in range(1000):
        word, received = channel_word(mpc_uvw3, 0.002, rng)
        weight = sum(1 for w, r in zip(word, received) for a, b in zip(w, r) if a != b)
        inside = 2 * weight < d_star_uvw
        try:
            generic = tuple(g.mpc_decode(mpc_uvw3, received).columns)
        except g.DecodeFailure:
            generic = None
        ctr = {}
        try:
            special = tuple(g.decode_uvw(mpc_uvw3, received, ctr))
        except g.DecodeFailure:
            special = None
        if inside and (generic is None or special != generic):
            mismatches += 1
        if (
            ctr.get("outer:3", 0) > 1
            or ctr.get("outer:2", 0) > 1
            or ctr.get("outer:1", 0) > 2
            or ctr.get("inner:1", 0) > limit_b1
        ):
            counter_violations += 1
    report(
        9,
        mismatches == 0 and counter_violations == 0,
        f"mismatches {mismatches}, counter violations {counter_violations}",
    )


def test_10_beyond_gmd_dominance(mpc_uuv8):
    """Paired run at error rate 0.08: minimizing trials never does worse."""
    channel = g.ChannelModel(error_rate=0.08, erasure_rate=0.0, seed=1010)
    upto = g.DecodeOptions(mode="upto")
    beyond = g.DecodeOptions(mode="beyond")
    subset_violations = 0
    upto_errors = 0
    beyond_errors = 0
    for trial in range(10000):
        rng = g.trial_rng(channel, trial)
        msgs = [
            tuple(int(rng.integers(0, 8)) for _ in range(a.k)) for a in mpc_uuv8.outers
        ]
        word = g.mpc_encode(mpc_uuv8, msgs)
        received, _, _ = g.apply_channel(word, mpc_uuv8.field, channel, rng=rng)
        try:
            ok_upto = g.mpc_decode(mpc_uuv8, received, upto).codeword == word
        except g.DecodeFailure:
            ok_upto = False
        try:
            ok_beyond = g.mpc_decode(mpc_uuv8, received, beyond).codeword == word
        except g.DecodeFailure:
            ok_beyond = False
        if ok_upto and not ok_beyond:
            subset_violations += 1
        upto_errors += not ok_upto
        beyond_errors += not ok_beyond
    report(
        10,
        subset_violations == 0 and beyond_errors <= upto_errors,
        f"subset violations {subset_violations}, word errors {beyond_errors} (beyond) "
        f"vs {upto_errors} (up-to)",
    )
