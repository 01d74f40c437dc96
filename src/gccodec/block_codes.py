"""Linear block codes over GF(q) and bounded-distance error-and-erasure decoding.

The decoding contract used everywhere in this package: given a received word
r and an erasure set E, a decoder must return the codeword c with
2*wt_E(r - c) + |E| < d when one exists (it is then unique) and report
failure otherwise.  ee_decode and ee_decode_many re-check every decoded
codeword against the bound (_bounded), so a decoder that returns one
outside it raises ContractViolation instead of passing it on.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

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


def wt(v) -> int:
    return sum(1 for x in v if x != 0)


def wt_punctured(v, erasures) -> int:
    """Hamming weight of v outside the erased coordinates."""
    check_erasures(erasures, len(v))
    return sum(1 for i, x in enumerate(v) if x != 0 and i not in erasures)


def check_erasures(erasures, n) -> frozenset:
    try:
        out = frozenset(operator.index(i) for i in erasures)
    except TypeError:
        raise ErasureIndexError(
            f"erasures must be a collection of integers, got {erasures!r}"
        ) from None
    for i in out:
        if not 0 <= i < n:
            raise ErasureIndexError(f"erasure index {i} out of range for length {n}")
    return out


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

    def __init__(self, field, generator, d=None):
        if d is not None and d < 1:
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
        self.inverse = linalg.RowMap(field, linalg.right_inverse(field, self.generator))
        self._codewords = None

    def __repr__(self):
        d = self._d if self._d is not None else "?"
        return f"[{self.n},{self.k},{d}]_{self.field.q}"

    # -- encoding -------------------------------------------------------------

    def encode(self, msg) -> tuple:
        if len(msg) != self.k:
            raise LengthMismatch(f"message length {len(msg)} != k={self.k}")
        return self._encoder.row(self.field.vector(msg))

    def encode_all(self, msgs) -> list:
        """The codewords of msgs, as one product with the generator."""
        for msg in msgs:
            if len(msg) != self.k:
                raise LengthMismatch(f"message length {len(msg)} != k={self.k}")
        return self._encoder([self.field.vector(msg) for msg in msgs])

    def message_of(self, codeword) -> tuple:
        if len(codeword) != self.n:
            raise LengthMismatch(f"word length {len(codeword)} != n={self.n}")
        return self.inverse.row(tuple(codeword))

    def contains(self, word) -> bool:
        return self.encode(self.message_of(word)) == tuple(word)

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
        """ee_decode after checking that word is a sequence of field elements."""
        return ee_decode(self, self.field.vector(word), erasures)


def ee_decode(code: LinearCode, word, erasures=()) -> DecodeOutcome:
    """Run the code's error-and-erasure decoder and enforce the distance bound."""
    word, erasures = _checked(code, word, erasures)
    return _bounded(code, code.decoder(word, erasures), erasures)


def ee_decode_many(code: LinearCode, words, erasure_sets) -> list:
    """[ee_decode(code, word, erasures) for each pair], in one decode_batch
    call when the decoder has one (a plain callable decodes row by row)."""
    if len(words) != len(erasure_sets):
        raise LengthMismatch(f"{len(words)} words but {len(erasure_sets)} erasure sets")
    checked = [_checked(code, word, erasures) for word, erasures in zip(words, erasure_sets)]
    words, erasure_sets = [w for w, _ in checked], [x for _, x in checked]
    batch = getattr(code.decoder, "decode_batch", None)
    outs = batch(words, erasure_sets) if batch else list(map(code.decoder, words, erasure_sets))
    return [_bounded(code, out, erasures) for out, erasures in zip(outs, erasure_sets)]


def _checked(code: LinearCode, word, erasures):
    """(word as a tuple, erasures as a frozenset), once code has a decoder
    and both fit length n."""
    if code.decoder is None:
        raise NoDecoder(f"{code!r} has no attached decoder")
    if len(word) != code.n:
        raise LengthMismatch(f"word length {len(word)} != n={code.n}")
    return tuple(word), check_erasures(erasures, code.n)


def _bounded(code: LinearCode, out: DecodeOutcome, erasures) -> DecodeOutcome:
    """out, once a decoded codeword is checked against 2*wt_E + |E| < d: a
    decoder that breaks the bound is a ContractViolation."""
    if out.ok and 2 * out.weight + len(erasures) >= code.distance():
        raise ContractViolation(f"decoder for {code!r} returned a codeword outside the distance bound")
    return out


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
    code; they have the same size, so they run on the same path.  The output
    is re-checked for zero syndrome and 2*wt_E + |E| < d.

    decode_batch runs the same steps for a list of words on arrays: each
    product is one Field.matmul for the whole batch, and Berlekamp-Massey
    runs masked, every row with its own length, L and shift.
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
        if f.vectorised(self.n):
            self._ux = np.array(ux, dtype=np.int64).reshape(self.n, r)
            self._points_array = np.array(pts, dtype=np.int64)
            self._u_array = np.array(self._u, dtype=np.int64)

    def __call__(self, word, erasures) -> DecodeOutcome:
        if len(erasures) >= self.d:
            return FAILURE
        return self._solve(word, erasures, self._syndromes.row(word))

    def decode_batch(self, words, erasure_sets) -> list:
        """[self(word, erasures) for each pair].

        From linalg.BATCH_MIN_ROWS words on, where matmul is vectorised for
        n, the syndromes are one product, and when that many words have a
        nonzero syndrome and fewer than d erasures they are solved together
        on arrays; otherwise each goes through the scalar solve.
        """
        n, d = self.n, self.d
        if len(words) < linalg.BATCH_MIN_ROWS or not self.field.vectorised(n):
            return list(map(self, words, erasure_sets))
        received = np.array(words, dtype=np.int64).reshape(-1, n)
        synd = self.field.matmul(received, self._ux)
        out = [FAILURE] * len(words)
        solve = []
        for b, (word, erasures, nonzero) in enumerate(zip(words, erasure_sets, synd.any(axis=1).tolist())):
            if len(erasures) >= d:
                continue
            if nonzero:
                solve.append(b)
            else:
                out[b] = DecodeOutcome(tuple(word), (0,) * n, 0)
        if len(solve) < linalg.BATCH_MIN_ROWS:
            for b in solve:
                out[b] = self._solve(words[b], erasure_sets[b], tuple(synd[b].tolist()))
            return out
        solved = self._solve_arrays(received[solve], [erasure_sets[b] for b in solve], synd[solve])
        for b, outcome in zip(solve, solved):
            out[b] = outcome
        return out

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
        codeword = tuple(f.sub(a, e) for a, e in zip(word, error))
        return DecodeOutcome(codeword, tuple(error), w)

    def _solve_arrays(self, received, erasure_sets, synd) -> list:
        """_solve for the rows of the (B, n) array received at once: row b
        of the (B, n - k) array synd is the nonzero syndrome of received[b],
        which has fewer than d erasures.  Every step is the scalar one on a
        whole array; a row that a scalar step fails stays masked to its end."""
        f = self.field
        mul, add = f.mul_array, f.add_array
        n, d = self.n, self.d
        r = d - 1
        batch = len(received)
        ne = np.fromiter(map(len, erasure_sets), dtype=np.int64, count=batch)
        erased = np.zeros((batch, n), dtype=bool)
        erased[np.repeat(np.arange(batch), ne), list(itertools.chain.from_iterable(erasure_sets))] = True

        # erasure locator Gamma, one linear factor per step, and the Forney
        # syndromes T_l = sum_j gamma_j S_{l+j} by a Hankel gather of S
        # (T_l is read only for l < d - 1 - |E|)
        gamma = np.zeros((batch, d), dtype=np.int64)
        gamma[:, 0] = 1
        order = np.argsort(~erased, axis=1, kind="stable")  # erased positions first
        for j in range(int(ne.max())):
            new = mul(f.neg_array(self._points_array[order[:, j]])[:, None], gamma)
            new[:, 1:] = add(new[:, 1:], gamma[:, :-1])
            gamma = np.where((j < ne)[:, None], new, gamma)
        hankel = np.arange(r)[:, None] + np.arange(d)
        padded = np.concatenate([synd, np.zeros((batch, d), dtype=np.int64)], axis=1)
        forney = f.sum_array(mul(gamma[:, None, :], padded[:, hankel]), 2)

        # Berlekamp-Massey, row b over T_0 .. T_{d-2-|E_b|}.  deg C <= L
        # <= d - 1, and `shifted` holds z^shift B, so d coefficients hold
        # both; history[:, k : k + d] reversed is T_k, ..., T_0 and zeros
        length = r - ne
        conn = np.zeros((batch, d), dtype=np.int64)
        conn[:, 0] = 1
        shifted = _times_z(conn)
        last_inv, L = np.ones(batch, dtype=np.int64), np.zeros(batch, dtype=np.int64)
        history = np.concatenate([np.zeros((batch, r), dtype=np.int64), forney], axis=1)
        for k in range(int(length.max())):
            active = k < length
            delta = f.sum_array(mul(conn, history[:, k : k + d][:, ::-1]), 1)
            change = active & (delta != 0)
            grow = change & (2 * L <= k)
            new = add(conn, mul(f.neg_array(mul(delta, last_inv))[:, None], shifted))
            base = np.where(grow[:, None], conn, shifted)
            shifted = np.where(active[:, None], _times_z(base), shifted)
            last_inv = np.where(grow, f.inv_array(delta), last_inv)
            L = np.where(grow, k + 1 - L, L)
            conn = np.where(change[:, None], new, conn)
        ok = 2 * L + ne < d

        # sigma = z^L C(1/z), padded to d - 1, times the transposed matrix
        # gives u_i sigma(x_i); its roots away from the erasures must number L
        back = L[:, None] - np.arange(r)
        sigma = np.take_along_axis(conn, np.maximum(back, 0), axis=1) * (back >= 0)
        roots = (f.matmul(sigma, self._ux.T) == 0) & ~erased
        ok &= roots.sum(axis=1) == L
        locs = (erased | roots) & ok[:, None]

        # Forney: sigma is then monic with those L roots, so Lambda = Gamma *
        # sigma; Omega by a Hankel gather of Lambda, and Omega and Lambda' at
        # every point in one product
        conv = np.arange(d)[:, None] - np.arange(d)  # m - j, or r past sigma
        conv = np.where((conv >= 0) & (conv < r), conv, r)
        padded_sigma = np.concatenate([sigma, np.zeros((batch, 1), dtype=np.int64)], axis=1)
        lam = f.sum_array(mul(gamma[:, None, :], padded_sigma[:, conv]), 2)
        lam = np.concatenate([lam, np.zeros((batch, r), dtype=np.int64)], axis=1)
        omega = f.sum_array(mul(lam[:, hankel[:, :r] + 1], synd[:, None, :]), 2)
        dlam = mul(np.arange(1, d) % f.p, lam[:, 1:d])
        values = f.matmul(np.concatenate([omega, dlam]), self._ux.T)
        num, den = values[:batch], values[batch:]
        error = np.where(locs, mul(num, f.inv_array(mul(den, self._u_array))), 0)

        # re-check, as in _solve
        ok &= (f.matmul(error, self._ux) == synd).all(axis=1)
        weight = ((error != 0) & ~erased).sum(axis=1)
        ok &= 2 * weight + ne < d
        codewords = add(received, f.neg_array(error))
        return [
            DecodeOutcome(tuple(c), tuple(e), w) if good else FAILURE
            for c, e, w, good in zip(codewords.tolist(), error.tolist(), weight.tolist(), ok.tolist())
        ]


def _times_z(polys):
    """The rows of polys, little endian, times z (the top coefficient drops)."""
    out = np.zeros_like(polys)
    out[:, 1:] = polys[:, :-1]
    return out


def _times_linear(f, poly, x):
    """poly(z) * (z - x), little endian."""
    out = [0] + poly
    f.axpy(out, f.neg(x), poly)
    return out


def _berlekamp_massey(f, seq):
    """Shortest LFSR generating seq: connection polynomial C (C[0] = 1), length L."""
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
    """An [n, k, n-k+1] Reed-Solomon code with an algebraic EE decoder.

    Evaluation points are the first n field elements in integer encoding
    order, so serialized specs are portable.
    """
    if not 1 <= k <= n or n > field.q:
        raise InvalidParams(f"need 1 <= k <= n <= q, got n={n}, k={k}, q={field.q}")
    points = tuple(range(n))
    gen = [(1,) * n]  # row i holds x^i at every point
    for _ in range(k - 1):
        gen.append(tuple(field.mul(a, x) for a, x in zip(gen[-1], points)))
    return LinearCode(field, gen, d=n - k + 1).attach(ReedSolomonDecoder(field, points, k))


def generic_code(field, generator, d=None) -> LinearCode:
    """A generic linear code; small codes get an exhaustive EE decoder."""
    code = LinearCode(field, generator, d=d)
    if d is None and code.num_codewords() <= ENUMERATION_CAP:
        code.distance()
    if code.num_codewords() <= ENUMERATION_CAP:
        from .oracle import ExhaustiveDecoder

        code.attach(ExhaustiveDecoder(code))
    return code


def repetition_code(field, n: int) -> LinearCode:
    return generic_code(field, [[1] * n], d=n)
