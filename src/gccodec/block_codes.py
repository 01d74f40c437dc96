"""Linear block codes over GF(q) and bounded-distance error-and-erasure decoding.

The decoding contract used everywhere in this package: given a received word
r and an erasure set E, a decoder must return the codeword c with
2*wt_E(r - c) + |E| < d when one exists (it is then unique) and report
failure otherwise.  A decoder is a callable (word, erasures) ->
DecodeOutcome; it may also have a decode_arrays(words, erasure_sets)
method that decodes a batch on arrays, or returns None where it declines.

bounded_decode is the one bounded step: the attached decoder, then the
distance bound, so a decoder that returns a codeword outside it raises
ContractViolation instead of passing it on.  It reads its word and
erasure set as given; ee_decode, the public entry point, checks both
(check_symbols, check_erasures) and then takes it, and the callers inside
the library that hold checked or self-built values take it directly:
concat.decode_rows row by row, and each trial of gmd.gmd_decode.
concat.decode_rows holds every row that decode_arrays decoded to the same
bound.

attach_decoder is the one rule that picks a code's decoder: a
SyndromeDecoder where the code's error patterns (error_patterns) fit the
table budget, else a CodebookDecoder, a vote of every codeword, where its
tables (vote_counters) fit VOTE_CAP, else the code's structured decoder,
else the codeword scan.  An RS code (rs_code) decodes by table up to
linalg.TABLE_CAP patterns, such as RS(4,2)/GF(4) (13) and RS(7,5)/GF(8)
(50); by vote above it where it has few codewords, such as RS(7,1)/GF(8)
(13,084 patterns, 448 counters) and RS(7,3)/GF(8); and by
ReedSolomonDecoder otherwise, such as RS(15,8)/GF(16).  A generic code
has no structured decoder, so it decodes by table up to ENUMERATION_CAP
patterns, then by vote, then by scan.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import galois, linalg
from .errors import (
    ContractViolation,
    ErasureIndexError,
    InvalidParams,
    LengthMismatch,
    NoDecoder,
    TooLargeToEnumerate,
)

ENUMERATION_CAP = 1 << 20
# Most counters (vote_counters) in the tables of a CodebookDecoder, whose
# build attach_decoder measures
VOTE_CAP = 1 << 17
_INT = frozenset({int})

# Erasure sets whose erasure-only map a ReedSolomonDecoder keeps.  A word's
# outer columns run the same chain of sets: over 300 cc-rs256-gf16 words
# (seed 5) the last 4 sets build 1.30 maps per word, an unbounded cache 1.28
# and the last set alone 3.28.
_ERASURE_MAPS = 4

# Most entries that a SyndromeDecoder keeps in the tables of its non-empty
# erasure sets together (the most recently built is kept at any size).
# cc-hamming-erasures draws its rows' sets from the 28 of the Hamming
# [7,4,3] code with 1 or 2 erasures, 9 entries each (t_X = 0 gives one
# error, and T's table has 8), 252 in all; the [16,5,8] subcode of the
# RM(1,4) chain holds up to 576 errors per set of one erasure, so ~110 of
# those sets fit.
_ERASED_ENTRIES = 1 << 16

# Fewest words that ReedSolomonDecoder.decode_arrays solves together on arrays
# rather than one by one (words with a zero syndrome need no solve, and words
# with erasures always take the scalar solve).  Measured as
# linalg.ARRAY_MIN_PRODUCTS is, with the array solve of 2t unmasked
# Berlekamp-Massey steps on log-form factors, before its steps dropped their
# inverse: solving B words that all carry errors and no erasures, array solve
# / scalar solve: RS(15,8)/GF(16) 0.10 / 0.09 ms at B = 4, 0.10 / 0.17 ms at
# 8, 0.10 / 0.27 ms at 12; RS(64,40)/GF(256) 0.28 / 0.36 ms at 4, 0.31 / 0.70
# ms at 8, 0.34 / 1.15 ms at 12.  So characteristic 2 crosses between 4 and 8
# words, and at 12 it gains 2.7-3.4x.  12 is kept from when prime fields,
# which crossed near 12 words, solved on arrays too.
BATCH_MIN_ROWS = 12


def wt(v) -> int:
    return sum(1 for x in v if x != 0)


def wt_punctured(v, erasures) -> int:
    """Hamming weight of v outside the erased coordinates."""
    check_erasures(erasures, len(v))
    return sum(1 for i, x in enumerate(v) if x != 0 and i not in erasures)


def check_erasures(erasures, n) -> frozenset:
    """erasures as a frozenset of indices in [0, n); anything else raises
    ErasureIndexError, a bool index too (True is not read as 1).  Every
    entry is read as an index before any is range-checked, and the error
    names the first index out of range in the caller's iteration order."""
    known = isinstance(erasures, (frozenset, set, tuple, list))
    if known and not erasures:
        return frozenset()
    try:
        entries = erasures if known else tuple(erasures)  # an iterator reads once
        out = frozenset(map(_index, entries))
    except TypeError:
        raise ErasureIndexError(
            f"erasures must be a collection of integers, got {erasures!r}"
        ) from None
    for i in out:
        if not 0 <= i < n:
            for bad in map(_index, entries):  # the first in the caller's order
                if not 0 <= bad < n:
                    raise ErasureIndexError(f"erasure index {bad} out of range for length {n}")
    return out


def _index(i) -> int:
    """i as an int, as operator.index reads it, except that a bool raises."""
    if isinstance(i, bool):
        raise TypeError(f"{i!r} is not an index")
    return operator.index(i)


def check_integer(x, what: str) -> int:
    """x as an int, as operator.index reads it; a bool, float, str or any
    other non-integer raises InvalidParams naming what x is."""
    try:
        return _index(x)
    except TypeError:
        raise InvalidParams(f"{what} must be an integer, got {x!r}") from None


@dataclass(frozen=True)
class DecodeOutcome:
    """Either a decoded codeword with its apparent error, or a failure."""

    codeword: tuple | None
    error: tuple | None
    weight: int | None  # punctured weight of the apparent error

    @property
    def ok(self) -> bool:
        return self.codeword is not None


FAILURE = DecodeOutcome(None, None, None)


class LinearCode:
    """A linear [n, k] code given by a full-rank generator matrix, with the
    decoder attached to it, which keeps its own parameters.

    The minimum distance may be declared at construction (trusted for MDS
    constructions) or computed on demand by exhaustive enumeration when the
    code is small enough.
    """

    def __init__(self, field, generator, d=None, *, _inverse=None):
        if d is not None:
            d = check_integer(d, "a declared distance")
            if d < 1:
                raise InvalidParams(f"a declared distance must be at least 1, got {d}")
        self.field = field
        self.generator = tuple(field.vector(row) for row in generator)
        self.k = len(self.generator)
        if self.k == 0:
            raise InvalidParams("generator matrix must have at least one row")
        self.n = len(self.generator[0])
        if any(len(row) != self.n for row in self.generator):
            raise InvalidParams("generator matrix must be rectangular")
        self._d = d
        self.decoder = None
        self._encoder = linalg.RowMap(field, self.generator)
        # codeword -> message: its elimination is also the full-rank check
        # (rs_code passes the matrix it builds without one)
        if _inverse is None:
            _inverse = linalg.right_inverse(field, self.generator)
        self.inverse = linalg.RowMap(field, _inverse)
        self._codewords = None

    def __repr__(self):
        d = self._d if self._d is not None else "?"
        return f"[{self.n},{self.k},{d}]_{self.field.q}"

    # -- encoding -------------------------------------------------------------

    def encode(self, msg) -> tuple:
        return self._encoder.row(check_symbols(self.field, msg, self.k, "message"))

    def encode_all(self, msgs) -> list:
        """The codewords of msgs, as one product with the generator; each
        message is checked as check_symbols checks it."""
        return self._encoder([check_symbols(self.field, msg, self.k, "message") for msg in msgs])

    def message_of(self, codeword) -> tuple:
        word = self.field.vector(codeword)
        if len(word) != self.n:
            raise LengthMismatch(f"word length {len(word)} != n={self.n}")
        return self.inverse.row(word)

    def contains(self, word) -> bool:
        return self._encoder.row(self.message_of(word)) == tuple(word)

    def holds(self, word: tuple) -> bool:
        """contains() for a tuple of n field elements the library made,
        read without validating it."""
        return self._encoder.row(self.inverse.row(word)) == word

    # -- distance and enumeration ----------------------------------------------

    def distance(self) -> int:
        if self._d is None:
            self._d = min_distance(self)
        return self._d

    def declared_distance(self):
        return self._d

    def num_codewords(self) -> int:
        return self.field.q**self.k

    def codewords(self) -> tuple:
        """Every codeword, messages in odometer order (first symbol fastest);
        moving message symbol i from a to b adds (b - a) * generator row i."""
        if self._codewords is None:
            num, f = self.num_codewords(), self.field
            if num > ENUMERATION_CAP:
                raise TooLargeToEnumerate(f"{num} codewords exceeds enumeration cap {ENUMERATION_CAP}")
            msg, word, out = [0] * self.k, [0] * self.n, [(0,) * self.n]
            for _ in range(num - 1):
                i = 0
                while True:
                    old = msg[i]
                    msg[i] = (old + 1) % f.q
                    f.axpy(word, f.sub(msg[i], old), self.generator[i])
                    if msg[i]:
                        break
                    i += 1
                out.append(tuple(word))
            self._codewords = tuple(out)
        return self._codewords

    # -- decoding ----------------------------------------------------------------

    def attach(self, decoder) -> "LinearCode":
        self.decoder = decoder
        return self

    def decode(self, word, erasures=()) -> DecodeOutcome:
        return ee_decode(self, word, erasures)


def ee_decode(code: LinearCode, word, erasures=()) -> DecodeOutcome:
    """Run the code's error-and-erasure decoder on word (n field elements,
    see check_symbols) and enforce the distance bound: a decoder that
    returns a codeword outside 2*wt_E + |E| < d is a ContractViolation."""
    return bounded_decode(code, check_symbols(code.field, word, code.n), check_erasures(erasures, code.n))


def bounded_decode(code: LinearCode, word: tuple, erasures: frozenset) -> DecodeOutcome:
    """ee_decode on a word and an erasure set that are not read again:
    word a tuple of n elements of the code's field and erasures a
    frozenset of indices in [0, n), as check_symbols and check_erasures
    return them.  The decoder's codeword is still held to 2*wt_E + |E| < d
    (ContractViolation)."""
    if code.decoder is None:
        raise NoDecoder(f"{code!r} has no attached decoder")
    out = code.decoder(word, erasures)
    if out.ok and 2 * out.weight + len(erasures) >= code.distance():
        raise ContractViolation(f"decoder for {code!r} returned a codeword outside the distance bound")
    return out


def check_symbols(f, values, length: int, what: str = "word") -> tuple:
    """values as a tuple of `length` elements of f.  A tuple or list of
    plain ints is checked in one pass, as concat.check_matrix checks a
    word: its symbol types and one min and max against [0, q).  Anything
    else goes through Field.vector, which converts numpy integers and names
    the first bad symbol (InvalidParams); a wrong length raises
    LengthMismatch, naming what the values are."""
    if type(values) is not tuple:
        values = tuple(values) if isinstance(values, list) else f.vector(values)
    if not (values and _INT.issuperset(map(type, values)) and min(values) >= 0 and max(values) < f.q):
        values = f.vector(values)
    if len(values) != length:
        raise LengthMismatch(f"{what} length {len(values)} != {length}")
    return values


def min_distance(code: LinearCode) -> int:
    """Exact minimum distance by exhaustive enumeration of all codewords."""
    # a full-rank generator has k >= 1 rows, so a nonzero codeword exists
    return min(filter(None, map(wt, code.codewords())))


# ---------------------------------------------------------------------------
# Reed-Solomon codes


class ReedSolomonDecoder:
    """Syndrome error-and-erasure decoding of an evaluation-style RS code.

    The code {(f(x_0), ..., f(x_{n-1})) : deg f < k} lives on distinct
    evaluation points (0, 1, ..., n-1 for rs_code, so 0 is one of them) and
    is not cyclic.  Its dual is the generalized RS code with column multipliers
    u_i = 1 / prod_{j != i}(x_i - x_j), which gives the power-sum syndromes
    S_l = sum_i u_i r_i x_i^l, l < n - k: the word times the n x (n - k)
    matrix of u_i x_i^l.  Per call, the erasure locator is folded into
    Forney syndromes, Berlekamp-Massey finds the error locator sigma, a root
    search places the errors (sigma times the transposed matrix gives
    u_i sigma(x_i) at every point) and Forney's formula gives their values:
    O(n (n - k)) field operations.  Both products are RowMaps built once per
    code.  The output is re-checked for zero syndrome and 2*wt_E + |E| < d.
    An all-zero Forney syndrome means no errors past the erasures (the
    usual case of a GMD trial, whose unreliable rows are all erased): then
    sigma = 1 without a Berlekamp-Massey pass, there is no root search,
    and only the erased symbols are corrected.  The codeword is the word
    with the error taken off at the located positions alone.

    A call with erasures X and a nonzero syndrome first tries the
    erasure-only decode: e_X = S[:|X|] W_X, W_X the inverse of the
    |X| x |X| matrix (u_i x_i^l), i in X, l < |X|, which is the Lagrange
    basis on the erased points with row i divided by u_i.  When e_X carries
    the whole syndrome, it is the unique decode with no error past X, so it
    is what the full solve returns; otherwise the full solve runs.  W_X is
    built on first use, in O(|X|^2), and the last _ERASURE_MAPS sets keep
    theirs, so the outer columns of a word, which run the same erasure
    chain, share it.  Nothing is built with the code.

    keep_syndromes takes a concatenated word's k outer columns and
    computes their syndromes in one product; every call on one of those
    words then reads its kept syndrome instead of a product of its own, so
    the GMD trials of all k columns share one.  The kept syndromes are
    keyed by the word itself and replaced by the next batch, so a call
    never reads another word's.

    decode_arrays solves the words without erasures together on arrays,
    by the errors-only steps (Gamma = 1, so T = S and Lambda = sigma), and
    sends each word with erasures to the scalar solve.  It asks the two
    maps for three products (syndromes; the root search with Forney's
    Omega and sigma' at every point; re-check) through RowMap.product, the
    packed tables, so it runs where the syndrome map has them (`array`:
    characteristic 2 up to 2^8 elements) and declines elsewhere.  The other
    products take their factors in log form (Field.log_array), and its
    sums are XORs.  Berlekamp-Massey reads the
    first 2t syndromes, 2t = d - 1 rounded down to even: 2L syndromes fix a
    length-L register (Massey 1969), so a decode with 2w < d is found from
    them, and the closing re-check reads every syndrome, so nothing else
    passes.  (The scalar solve reads all d - 1: a word that the odd last
    one shows undecodable then fails at 2L >= d, before the root search.)
    Its steps take no inverse (Sarwate and Shanbhag 2001), which scales
    sigma but not its roots or Forney's ratio.  concat.decode_rows reads
    its arrays, and decodes row by row where it returns None.
    """

    def __init__(self, field, points, k: int):
        self.field = field
        self.points = tuple(points)
        self.n = len(self.points)
        self.d = self.n - k + 1
        f, pts, r = field, self.points, self.d - 1
        self._u = []
        ux = []  # ux[i][l] = u_i * x_i^l
        for xi in pts:
            prod = 1
            for xj in pts:
                if xj != xi:
                    prod = f.mul(prod, f.sub(xi, xj))
            u = f.inv(prod)
            row = [u]
            for _ in range(r - 1):
                row.append(f.mul(row[-1], xi))
            self._u.append(u)
            ux.append(row[:r])
        self._syndromes = linalg.RowMap(f, ux)
        self._roots = linalg.RowMap(f, zip(*ux))
        self._erasure_maps = {}  # erasure set -> (locs, W_X), least recently used first
        self._kept = {}  # word -> syndrome, of the words keep_syndromes was last given
        # one word's syndrome costs no more on its own where the syndrome
        # map runs no array kernel for it (a table, or the row loop)
        self._keeps = self._syndromes.takes_arrays(1)
        self._batched = self._syndromes.array is not None

    def __call__(self, word, erasures) -> DecodeOutcome:
        if len(erasures) >= self.d:
            return FAILURE
        synd = self._kept.get(tuple(word)) if self._kept else None
        if synd is None:
            synd = self._syndromes.row(word)
        if erasures and any(synd):
            out = self._erasures_only(word, erasures, synd)
            if out is not None:
                return out
        return self._solve(word, erasures, synd)

    def keep_syndromes(self, words):
        """Compute the syndromes of words, tuples of n elements, in one
        product, and keep them for the calls that decode these words, in
        place of those kept before: a concatenated word's k outer columns
        then share one product across all their GMD trials.  Where the
        syndrome map runs no array kernel for one word (a table, or the row
        loop; decided when the decoder is built), nothing is kept."""
        if self._keeps:
            x = np.array(words, dtype=np.int64).reshape(len(words), self.n)
            self._kept = dict(zip(words, map(tuple, self._syndromes.product(x).tolist())))

    def decode_arrays(self, words, erasure_sets):
        """[self(word, erasures) for each pair] as arrays (codewords,
        errors, weights, ok): row b is word b's codeword and error, (B, n),
        its weight and whether it decoded, (B,); a failed row has the word
        as its codeword, a zero error and weight 0.  None, for the caller
        to decode word by word, below BATCH_MIN_ROWS words or where the
        syndrome map has no array kernel (see RowMap.array).

        Otherwise the syndromes are one product.  When BATCH_MIN_ROWS
        words without erasures have a nonzero syndrome, they are solved
        together on arrays (_solve_arrays); every other word with a
        nonzero syndrome and fewer than d erasures goes through the scalar
        solve.
        """
        n, d = self.n, self.d
        if len(words) < BATCH_MIN_ROWS or not self._batched:
            return None
        received = np.array(words, dtype=np.int64).reshape(-1, n)
        synd = self._syndromes.product(received)
        sizes = np.fromiter(map(len, erasure_sets), dtype=np.int64, count=len(words))
        ok = sizes < d
        solve = np.flatnonzero(ok & synd.any(axis=1))
        codewords, errors = received.copy(), np.zeros_like(received)
        weights = np.zeros(len(words), dtype=np.int64)
        clean = solve[sizes[solve] == 0]
        if len(clean) >= BATCH_MIN_ROWS:
            solved = self._solve_arrays(received[clean], synd[clean])
            codewords[clean], errors[clean], weights[clean], ok[clean] = solved
            solve = solve[sizes[solve] > 0]
        for b in solve.tolist():
            out = self._solve(words[b], erasure_sets[b], tuple(synd[b].tolist()))
            ok[b] = out.ok
            if out.ok:
                codewords[b], errors[b], weights[b] = out.codeword, out.error, out.weight
        return codewords, errors, weights, ok

    def _erasures_only(self, word, erasures, synd):
        """The decode of word if its error lies on the erasures X alone,
        else None.  The error values are e_X = S[:|X|] W_X, W_X the inverse
        of the |X| x |X| matrix (u_i x_i^l), i in X, l < |X|, kept per set
        (see _ERASURE_MAPS); the re-check S = sum_i e_i u_i x_i^l over all
        l < d - 1 then makes the decode the unique one with no error past
        X, the one _solve finds."""
        f, maps, ux = self.field, self._erasure_maps, self._syndromes.matrix
        key = frozenset(erasures)
        entry = maps.pop(key, None)
        if entry is None:
            locs = sorted(key)
            entry = locs, _lagrange_inverse(f, [self.points[i] for i in locs], [ux[i] for i in locs])
            if len(maps) == _ERASURE_MAPS:
                del maps[next(iter(maps))]  # the least recently used
        maps[key] = entry
        locs, rows = entry
        head = synd[: len(locs)]
        values = [f.dot(row, head) for row in rows]
        check = [0] * len(synd)
        for i, e in zip(locs, values):
            f.axpy(check, e, ux[i])
        if tuple(check) != synd:
            return None
        codeword, error = list(word), [0] * self.n
        for i, e in zip(locs, values):
            codeword[i] = f.sub(codeword[i], e)
            error[i] = e
        return DecodeOutcome(tuple(codeword), tuple(error), 0)

    def _solve(self, word, erasures, synd) -> DecodeOutcome:
        """The decode of one word with fewer than d erasures, from its
        syndrome tuple."""
        f = self.field
        axpy, dot, mul = f.axpy, f.dot, f.mul
        n, d = self.n, self.d
        pts, ux = self.points, self._syndromes.matrix
        ne = len(erasures)
        if not any(synd):
            return DecodeOutcome(tuple(word), (0,) * n, 0)

        # erasure locator Gamma(z) = prod_{i in E}(z - x_i), folded into the
        # Forney syndromes T_l = sum_j gamma_j S_{l+j}, which see errors only
        gamma = [1]
        for i in erasures:
            gamma = _times_linear(f, gamma, pts[i])
        forney = [dot(gamma, synd[l:]) for l in range(d - 1 - ne)]
        conn, L = _berlekamp_massey(f, forney)
        if 2 * L + ne >= d:
            return FAILURE
        # characteristic form z^L C(1/z): its roots are the error points,
        # including x = 0, which the reciprocal form C cannot express
        conn = conn + [0] * (L + 1 - len(conn))
        sigma = conn[L::-1]

        # roots of sigma away from the erasures (zeros of u_i sigma(x_i));
        # Lambda = Gamma * sigma must split into distinct linear factors
        # over the points
        locs = sorted(erasures)
        lam = gamma
        if L:
            values = self._roots.row(sigma + [0] * (d - 2 - L))
            errs = [i for i, v in enumerate(values) if not v and i not in erasures]
            if len(errs) != L:
                return FAILURE
            locs += errs
            for i in errs:
                lam = _times_linear(f, lam, pts[i])

        # Forney: u_i e_i = Omega(x_i) / Lambda'(x_i), Omega the polynomial
        # part of Lambda(z) * sum_l S_l z^(-l-1)
        nu = len(lam) - 1
        omega = [dot(lam[m + 1 :], synd) for m in range(nu)]
        p = f.p
        dlam = [mul(j % p, lam[j]) for j in range(1, nu + 1)]
        error = [0] * n
        for i in locs:
            # both dot products carry the factor u_i, which cancels
            y = f.div(dot(omega, ux[i]), dot(dlam, ux[i]))
            error[i] = f.div(y, self._u[i])

        # re-check: the error must carry the whole syndrome and fit the bound
        check = [0] * len(synd)
        for i in locs:
            if error[i]:
                axpy(check, error[i], ux[i])
        w = sum(1 for i in locs if error[i] and i not in erasures)
        if tuple(check) != synd or 2 * w + ne >= d:
            return FAILURE
        codeword = list(word)
        for i in locs:
            codeword[i] = f.sub(codeword[i], error[i])
        return DecodeOutcome(tuple(codeword), tuple(error), w)

    @functools.cached_property
    def _constants(self):
        """_solve_arrays' constants, built on its first call: factors in log
        form, and the gathers of the syndrome history (into d - 1 zeros
        then S_0 .. S_{d-2}) and of Omega's Hankel product (into sigma then
        zeros)."""
        f, r = self.field, self.d - 1
        log = f.log_array
        zero, one = log(np.array([0, 1], dtype=np.int64)).tolist()
        degrees = np.arange(r)
        return SimpleNamespace(
            zero=zero,
            one=one,
            u=log(np.array(self._u, dtype=np.int64)),
            derivative=log(np.arange(1, r + 1) % f.p)[:, None],
            degrees=degrees,
            omega=degrees[:, None] + degrees + 1,
            history=r + degrees[:, None] - np.arange(r + 1),
        )

    def _solve_arrays(self, received, synd):
        """_solve for the rows of the (B, n) array received at once, none
        of them with erasures: row b of the (B, d - 1) array synd is the
        nonzero syndrome of received[b].  Returns decode_arrays' four
        arrays for these rows.  Every step is the scalar one on a whole
        array; polynomials are (coefficients, B) arrays, and each factor of
        many products is put in log form once (see Field.log_array).  The
        field has characteristic 2, so a sum or difference is an XOR.  A row
        that a step fails is dropped at the end."""
        f, c = self.field, self._constants
        log, mul, dot = f.log_array, f.mul_logs, f.dot_logs
        d, r = self.d, self.d - 1
        batch = len(received)
        synd_logs = log(synd.T)

        # Berlekamp-Massey over S_0 .. S_{2t-1}, 2t = d - 1 rounded down to
        # even (see the class docstring), without inverses (Sarwate and
        # Shanbhag 2001): each step sets C to last * C - delta * z^shift B,
        # last the discrepancy when B was set, which scales C but not its
        # roots or Forney's ratio.  history[k] is S_k, ..., S_{k-d+1} in log
        # form (0 before S_0).  deg C <= L <= d - 1.  Window k of `shifted`
        # (its rows steps - k to steps - k + d) holds z^shift B in log
        # form; window k + 1 starts one row before it, so it reads z times
        # what step k leaves in window k.  `twice` is 2L.
        steps = r & ~1
        history = np.concatenate([np.full((r, batch), c.zero), synd_logs])[c.history[:steps]]
        conn = np.zeros((d, batch), dtype=np.int64)
        conn[0] = 1
        shifted = np.full((steps + d, batch), c.zero)
        shifted[steps + 1] = c.one
        last, twice = np.full(batch, c.one), np.zeros(batch, dtype=np.int64)
        for k in range(steps):
            window = shifted[steps - k : steps - k + d]
            conn_logs = log(conn)
            delta = dot(conn_logs, history[k], 0)
            delta_logs = log(delta)
            conn = mul(last, conn_logs) ^ mul(delta_logs, window)
            grow = np.logical_and(delta, twice <= k)
            np.copyto(window, conn_logs, where=grow)
            np.copyto(last, delta_logs, where=grow)
            np.copyto(twice, 2 * k + 2 - twice, where=grow)
        L = twice >> 1
        ok = twice < d

        # sigma = z^L C(1/z), padded to d - 1 (a negative degree wraps to a
        # coefficient that the mask drops), and Omega by a Hankel gather of
        # sigma.  One product with the transposed matrix gives u_i sigma(x_i),
        # u_i Omega(x_i) and u_i sigma'(x_i) at every point.  The roots of
        # sigma must number L; sigma then has those L roots, and Forney's
        # formula gives the error values
        back = L - c.degrees[:, None]
        sigma = np.where(back >= 0, conn[back, np.arange(batch)], 0)
        sigma_logs = log(np.concatenate([sigma, np.zeros((d, batch), dtype=np.int64)]))
        omega = dot(sigma_logs[c.omega], synd_logs, 1)
        dsigma = mul(c.derivative, sigma_logs[1:d])
        values = self._roots.product(np.concatenate([sigma, omega, dsigma], axis=1).T)
        roots = values[:batch] == 0
        ok &= roots.sum(axis=1) == L
        den = log(f.inv_array(mul(log(values[2 * batch :]), c.u)))
        error = np.where(roots & ok[:, None], mul(log(values[batch : 2 * batch]), den), 0)

        # re-check, as in _solve
        ok &= (self._syndromes.product(error) == synd).all(axis=1)
        error[~ok] = 0
        weight = (error != 0).sum(axis=1)
        ok &= 2 * weight < d
        return received ^ error, error, weight, ok


def _times_linear(f, poly, x):
    """poly(z) * (z - x), little endian."""
    out = [0] + poly
    f.axpy(out, f.neg(x), poly)
    return out


def _berlekamp_massey(f, seq):
    """Shortest LFSR generating seq: connection polynomial C (C[0] = 1),
    length L; ([1], 0) at once for an all-zero seq."""
    if not any(seq):
        return [1], 0
    conn, prev = [1], [1]
    L, shift, last = 0, 1, 1
    for k in range(len(seq)):
        # deg C <= L <= k, so seq[k - j] never wraps
        delta = f.dot(conn, seq[k::-1])
        if delta == 0:
            shift += 1
            continue
        new = conn + [0] * (shift + len(prev) - len(conn))
        f.axpy(new, f.neg(f.div(delta, last)), [0] * shift + prev)
        if 2 * L <= k:
            L, prev, last, shift = k + 1 - L, conn, delta, 1
        else:
            shift += 1
        conn = galois.poly_trim(new)
    return conn, L


def rs_code(field, n: int, k: int) -> LinearCode:
    """An [n, k, n-k+1] Reed-Solomon code, decoded by syndrome table where
    its error patterns fit linalg.TABLE_CAP, else by vote where its
    codewords are few (VOTE_CAP), else by ReedSolomonDecoder
    (attach_decoder).

    Evaluation points are the first n field elements in integer encoding
    order, so serialized specs are portable.
    """
    n, k = check_integer(n, "n"), check_integer(k, "k")
    if not 1 <= k <= n or n > field.q:
        raise InvalidParams(f"need 1 <= k <= n <= q, got n={n}, k={k}, q={field.q}")
    points = tuple(range(n))
    gen = rs_generator(field, n, k)
    inverse = _lagrange_inverse(field, points[:k], list(zip(*gen))) + ((0,) * k,) * (n - k)
    code = LinearCode(field, gen, d=n - k + 1, _inverse=inverse)
    return attach_decoder(code, lambda: ReedSolomonDecoder(field, points, k))


def rs_generator(field, n: int, k: int) -> tuple:
    """The generator matrix of rs_code(field, n, k): row i holds x^i at
    the points x = 0, 1, ..., n - 1 (0^0 = 1)."""
    gen = [(1,) * n]
    for _ in range(k - 1):
        gen.append(tuple(field.mul(a, x) for a, x in zip(gen[-1], range(n))))
    return tuple(gen)


def _lagrange_inverse(f, points, powers):
    """The inverse of the k x k matrix (w_j x_j^i), i the row and j the
    column, on k distinct points, in O(k^2): powers[j] holds w_j x_j^i
    from i = 0, at least k of them, with w_j nonzero.  Row j of the
    inverse holds the coefficients of the Lagrange polynomial L_j, which is
    1 at x_j and 0 at the other points, divided by w_j; with every w_j = 1
    it inverts the Vandermonde matrix (x_j^i).

    Any k columns of an RS generator are independent, so
    linalg.right_inverse takes the first k as its pivots and returns this
    matrix on them, with zero rows below it.
    """
    k = len(points)
    prod = [1]  # prod_m (z - x_m)
    for x in points:
        prod = _times_linear(f, prod, x)
    add, mul = f.add, f.mul
    rows = []
    for xj, pj in zip(points, powers):
        # prod / (z - x_j) by synthetic division; its value at x_j times
        # w_j is one dot product with powers[j]
        quot, acc = [0] * k, 0
        for i in range(k, 0, -1):
            acc = add(prod[i], mul(xj, acc))
            quot[i - 1] = acc
        row = [0] * k
        f.axpy(row, f.inv(f.dot(quot, pj)), quot)
        rows.append(tuple(row))
    return tuple(rows)


# ---------------------------------------------------------------------------
# Generic codes


class SyndromeDecoder:
    """Syndrome error-and-erasure decoding with coset leaders (MacWilliams
    and Sloane, ch. 1), the erasures projected out as in Forney 1966.

    H is a parity-check matrix, from one reduced elimination of the
    generator (linalg.parity_check).  For an erasure set X with |X| < d,
    one reduced elimination of [H | I] that takes its pivots on X first
    gives the invertible T for which T H is the identity on X in its first
    |X| rows and zero on X below them, since the columns of H on X are
    independent (any d - 1 of them are).  For a word with syndrome s, the
    entries of T s below |X| are the projected syndrome, which the error
    off X alone makes, and the first |X| then give the erased values.  X's
    table maps the projected syndrome of each error e off X of weight at
    most t_X = (d - 1 - |X|) // 2, in weight order, to e with the part of
    the erased values that e makes already taken off, so the error is that
    entry plus the first |X| entries of T s at X.  Two errors with one
    projected syndrome would differ, erased part and all, by a codeword of
    weight below d: the declared distance is overstated, and the build
    raises ContractViolation, as it does where H's columns on X are
    dependent.

    A decode is one syndrome product, T s (for X non-empty) and one
    lookup; a miss is FAILURE, so the codeword returned is the unique one
    with 2*wt_X + |X| < d, at a cost independent of q^k.  A set's table is
    built on its first decode: the error-free set's is kept with the
    decoder, the others least recently used first within _ERASED_ENTRIES
    entries.  Where q^n is at most linalg.TABLE_CAP, the errors-only
    decodes of every word are one more table, built from the error-free
    one, and such a decode is one lookup.
    """

    def __init__(self, field, generator, d: int):
        self.field = field
        self.n = len(generator[0])
        self.d = d
        self.check = linalg.parity_check(field, generator)
        self._syndromes = linalg.RowMap(field, [tuple(h[c] for h in self.check) for c in range(self.n)])
        self._tables = {}  # non-empty erasure set -> its table, least recently used first
        self._entries = 0  # entries of the tables in _tables

    def __call__(self, word, erasures) -> DecodeOutcome:
        if not erasures:
            tables = self._clean
            if tables.words is not None:
                return tables.words[tuple(word)]
        elif len(erasures) < self.d:
            tables = self._table(frozenset(erasures))
        else:
            return FAILURE
        return self._decode(word, tables)

    def _decode(self, word, tables) -> DecodeOutcome:
        f, locs = self.field, tables.locs
        synd = self._syndromes.row(word)
        if locs:
            synd = tables.project.row(synd)
        hit = tables.patterns.get(synd[len(locs) :] if locs else synd)
        if hit is None:
            return FAILURE
        error, weight = hit
        if locs:
            error = list(error)
            for x, value in zip(locs, synd):
                error[x] = f.add(error[x], value)
            error = tuple(error)
        return DecodeOutcome(tuple(map(f.sub, word, error)), error, weight)

    def _table(self, erasures):
        """The table of a non-empty erasure set, built on first use and
        kept least recently used first within _ERASED_ENTRIES entries."""
        kept = self._tables
        tables = kept.pop(erasures, None)
        if tables is None:
            tables = self._build(erasures)
            self._entries += tables.entries
            while kept and self._entries > _ERASED_ENTRIES:
                self._entries -= kept.pop(next(iter(kept))).entries  # the least recently used
        kept[erasures] = tables
        return tables

    @functools.cached_property
    def _clean(self):
        return self._build(frozenset())

    def _build(self, erasures):
        """The tables of an erasure set: locs, its sorted indices; project,
        T as a RowMap (None for the empty set); patterns, from projected
        syndromes to (error, weight off X); words, for the empty set where
        q^n <= linalg.TABLE_CAP, from every word to its decode, else None;
        and entries, the size of patterns and of T's table."""
        f, n, check = self.field, self.n, self.check
        locs = sorted(erasures)
        off = [c for c in range(n) if c not in erasures]
        project = None
        if locs:
            r = len(check)
            aug = [list(h) + [int(i == j) for j in range(r)] for i, h in enumerate(check)]
            rows, pivots = linalg.eliminate(f, aug, order=locs + off)
            if pivots[: len(locs)] != locs:
                raise ContractViolation(f"a codeword lies on the {len(locs)} erasures: d={self.d} is overstated")
            check = [row[:n] for row in rows]
            project = linalg.RowMap(f, [tuple(row[n + i] for row in rows) for i in range(r)])
        columns = [[h[c] for h in check] for c in off]
        radius = (self.d - 1 - len(locs)) // 2
        patterns = {}
        # the errors of one weight as (next index into off, (position,
        # value) pairs, T H e)
        layer = [(0, (), [0] * len(check))]
        for w in range(radius + 1):
            for _, pattern, synd in layer:
                key = tuple(synd[len(locs) :])
                if key in patterns:
                    raise ContractViolation(f"two errors of weight <= {w} share a syndrome: d={self.d} is overstated")
                error = [0] * n
                for c, value in pattern:
                    error[c] = value
                for x, value in zip(locs, synd):
                    error[x] = f.neg(value)
                patterns[key] = tuple(error), w
            if w < radius:
                layer = [
                    (i + 1, pattern + ((off[i], value),), _plus(f, synd, value, columns[i]))
                    for start, pattern, synd in layer
                    for i in range(start, len(off))
                    for value in range(1, f.q)
                ]
        tables = SimpleNamespace(locs=locs, project=project, patterns=patterns, words=None)
        if not locs and self._syndromes.table is not None:  # q^n <= linalg.TABLE_CAP
            tables.words = {w: self._decode(w, tables) for w in self._syndromes.table}
        tables.entries = len(patterns) + (len(project.table or ()) if project else 0)
        return tables


def _plus(f, v, c, w) -> list:
    """v + c * w, a new list."""
    out = list(v)
    f.axpy(out, c, w)
    return out


def error_patterns(field, n: int, d: int) -> int:
    """Errors of weight at most (d - 1) // 2 in n symbols over the field,
    the entries of a SyndromeDecoder's error-free table."""
    radius = (d - 1) // 2
    return sum(math.comb(n, w) * (field.q - 1) ** w for w in range(radius + 1))


class CodebookDecoder:
    """Error-and-erasure decoding by a vote of every codeword at once:
    majority-logic decoding of a repetition code (MacWilliams and Sloane,
    ch. 13) carried to any short codebook, its counters packed into one
    int (SWAR, Lamport 1975).

    Codeword c owns the b-bit slot c of an int, with 2^(b-1) > n.
    table[i][v] is 1 in slot c exactly when codeword c has v at position
    i, so the sum of table[i][y_i] over the positions off an erasure set X
    counts in each slot its codeword's agreements with y off X.  The bias
    of |X| adds 2^(b-1) - T to every slot, T = (n - |X|) - t_X the fewest
    agreements with 2*wt_X + |X| < d (t_X = (d - 1 - |X|) // 2), so a
    slot's top bit is set exactly when its codeword lies inside the bound,
    and no slot carries into the next.  No top bit set is FAILURE; two
    mean the declared distance is overstated (ContractViolation, as
    oracle_sigma raises); one names the codeword, and its slot's count
    gives the weight off X.  So a decode is n lookups, one sum and a few
    operations on one int, and it returns oracle_sigma's DecodeOutcome.
    """

    def __init__(self, code: LinearCode):
        n, d = code.n, code.distance()
        self.d = d
        self.codewords = code.codewords()
        b = n.bit_length() + 1
        self._width, self._mask = b, (1 << b) - 1
        half = 1 << (b - 1)
        ones = ((1 << b * len(self.codewords)) - 1) // self._mask  # 1 in every slot
        self._tops = ones << (b - 1)
        # per |X| < d: the bias, and t_X + 2^(b-1), from which a count gives the weight
        self._bias = [(half - (n - x) + (d - 1 - x) // 2) * ones for x in range(d)]
        self._top = [(d - 1 - x) // 2 + half for x in range(d)]
        table = [[0] * code.field.q for _ in range(n)]
        for c, word in enumerate(self.codewords):
            bit = 1 << b * c
            for column, v in zip(table, word):
                column[v] |= bit
        self._table = table
        # the error's symbols: in characteristic 2 a difference is an XOR
        self._sub = operator.xor if code.field.p == 2 else code.field.sub

    def __call__(self, word, erasures) -> DecodeOutcome:
        x = len(erasures)
        if x >= self.d:
            return FAILURE
        table = self._table
        acc = self._bias[x] + sum(map(list.__getitem__, table, word))
        if x:
            acc -= sum(table[i][word[i]] for i in erasures)
        hits = acc & self._tops
        if not hits:
            return FAILURE
        if hits & (hits - 1):
            raise ContractViolation("two codewords inside the error-and-erasure bound")
        shift = hits.bit_length() - self._width
        c = self.codewords[shift // self._width]
        weight = self._top[x] - (acc >> shift & self._mask)
        return DecodeOutcome(c, tuple(map(self._sub, word, c)), weight)


def vote_counters(field, n: int, k: int) -> int:
    """Counters in a CodebookDecoder's tables of an [n, k] code over the
    field: one per position, symbol value and codeword."""
    return n * field.q ** (k + 1)


def generic_code(field, generator, d=None) -> LinearCode:
    """A generic linear code, its distance d computed by enumeration when
    not given (where q^k <= ENUMERATION_CAP), with attach_decoder's
    decoder: where d is known, by syndrome where it has at most
    ENUMERATION_CAP error patterns, else by vote where its tables fit
    VOTE_CAP; else by codeword scan where q^k <= ENUMERATION_CAP, else
    none."""
    code = LinearCode(field, generator, d=d)
    if d is None and code.num_codewords() <= ENUMERATION_CAP:
        code.distance()  # by enumeration, kept as the code's distance
    return attach_decoder(code)


def attach_decoder(code: LinearCode, structured=None) -> LinearCode:
    """Attach code's decoder by the one rule of rs_code and generic_code.
    Where the distance is known: a SyndromeDecoder where the error
    patterns (error_patterns) number at most the table budget, else a
    CodebookDecoder where its tables (vote_counters) fit VOTE_CAP.  Else
    structured(), the code's own decoder, where it has one; else the
    codeword scan (oracle.ExhaustiveDecoder) where q^k <= ENUMERATION_CAP;
    else none.

    The table budget is linalg.TABLE_CAP beside a structured decoder and
    ENUMERATION_CAP without one.  The table decodes faster at every size,
    but its build grows with the count.  Measured over two runs on 300
    seeded words per code (0-1 erasures, errors inside the radius), both
    decoders returning equal DecodeOutcomes; build of the table and its
    first decode, then us per decode by table / by ReedSolomonDecoder:
    RS(4,2)/GF(4) (13 patterns, and its 256-word table) 6.6-15 ms, 1.4-1.6
    / 4.1-4.6 us; RS(7,5)/GF(8) (50) 1.3-1.8 ms, 5.1-5.8 / 6.6-7.7 us;
    RS(15,13)/GF(16) (226) 5.4-6.2 ms, 8.3-9.3 / 9.5-10.2 us;
    RS(23,21)/GF(23) (507) 15 ms, 12.1-12.6 / 13.4-14.1 us;
    RS(31,29)/GF(32) (962) 22-30 ms, 15.9-16.0 / 17.3-17.6 us;
    RS(7,1)/GF(8) (13,084) 0.40-0.52 s and 7.3 MB, 7.3-12.0 / 24.5-37.0
    us; RS(15,11)/GF(16) (23,851) 0.71-0.74 s and 14 MB.  The build is
    paid before the first decode of a run (and a smaller one for each new
    erasure set), so TABLE_CAP keeps it near 15 ms and 0.2 MB.

    The vote also decodes faster than ReedSolomonDecoder at every size
    measured, and its build, paid with the code, grows with its counters.
    Build (best of 5) and memory (tracemalloc), then us per decode by vote
    / by ReedSolomonDecoder on 300 seeded words as above, equal
    DecodeOutcomes: RS(7,1)/GF(8) (448 counters) 0.02 ms and 2 kB, 2.5 /
    28 us; RS(7,3)/GF(8) (28,672) 1.0 ms and 23 kB, 3.2 / 20 us;
    RS(9,3)/GF(9) (59,049) 2.3 ms and 52 kB, 7.3 / 40 us; RS(15,2)/GF(16)
    (61,440) 0.8 ms and 54 kB, 4.4 / 71 us; past the cap, RS(11,3)/GF(11)
    (161,051) 3.7 ms and 132 kB, RS(8,4)/GF(8) (262,144) 14 ms and 0.44
    MB, RS(15,3)/GF(16) (983,040) 25 ms and 1.1 MB, RS(255,1)/GF(256)
    (16.7M) 12 ms and 13 MB.  So VOTE_CAP keeps the build within a few
    ms and 0.15 MB."""
    d = code.declared_distance()
    if d is not None:
        budget = linalg.TABLE_CAP if structured else ENUMERATION_CAP
        if error_patterns(code.field, code.n, d) <= budget:
            return code.attach(SyndromeDecoder(code.field, code.generator, d))
        if vote_counters(code.field, code.n, code.k) <= VOTE_CAP:
            return code.attach(CodebookDecoder(code))
    if structured:
        return code.attach(structured())
    if code.num_codewords() <= ENUMERATION_CAP:
        from .oracle import ExhaustiveDecoder

        code.attach(ExhaustiveDecoder(code))
    return code


def repetition_code(field, n: int) -> LinearCode:
    n = check_integer(n, "n")
    return generic_code(field, [[1] * n], d=n)
