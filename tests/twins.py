"""Reference twins and word generators that the fast decode paths are
tested against: RS words that only a re-check of the last syndrome
refuses, RS batches for the array solve, decoders that run row by row or
share no state with the code's own, and cc_decode column by column."""

import itertools

from gccodec import gmd
from gccodec.block_codes import BATCH_MIN_ROWS, LinearCode, ReedSolomonDecoder, SyndromeDecoder
from gccodec.concat import DecodeOptions, cc_encode, check_matrix, check_pattern, decode_rows, extended_trial_chain
from gccodec.errors import DecodeFailure
from gccodec.report import DecodeReport


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


def fresh_twin(code):
    """code with a new decoder of the same kind, which shares no state with
    code's: a ReedSolomonDecoder on the same points, so no syndrome that
    cc_decode kept reaches it, or a SyndromeDecoder that builds its own
    tables (rs_code attaches either, see block_codes.attach_decoder).  A
    CodebookDecoder keeps no state, so the twin shares it."""
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
