"""Exact arithmetic in prime and extension finite fields.

Field handles are created with make_field (GF(p^m) over the prime subfield)
or extend_field (GF(q^s) as a degree-s extension of an existing handle, the
layered view needed when outer-code symbols must expand into inner-code
symbols).  Elements travel as plain integers in [0, q): for a prime field the
residue itself, otherwise the little-endian base-q' digit packing of the
coefficient vector in the polynomial basis.

Extension fields with q <= 2^16 build, when their handle is first made and
in O(q), exp/log tables of a primitive element: products, inverses and
negatives are table lookups, and odd-characteristic addition goes through
Zech logarithms (characteristic 2 adds by XOR, prime fields reduce mod p).
Larger fields fall back to polynomial arithmetic on the digit vectors.  The
vector kernels axpy (out += c * v, in place) and dot run whole rows on the
tables; the linear algebra and the Reed-Solomon decoder are written on
them.  In characteristic 2 such a handle, and GF(2)'s, also keeps numpy
copies of the tables for the array kernels, whose sums are XORs: RowMap's
packed tables are built with them, and the Reed-Solomon array solve runs
on them.  None of this changes any observable value.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import FieldMismatch, InvalidParams, NotPrime, ReducibleModulus

_LOG_LIMIT = 1 << 16  # largest q with exp/log tables


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def _prime_factors(n: int) -> list:
    out = []
    r = 2
    while r * r <= n:
        if n % r == 0:
            out.append(r)
            while n % r == 0:
                n //= r
        r += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# polynomials over a field handle: little-endian coefficient lists, trimmed


def poly_trim(a):
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def poly_sub(f, a, b):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = f.sub(out[i], c)
    return poly_trim(out)


def poly_scale(f, c, a):
    return poly_trim([f.mul(c, x) for x in a])


def poly_mul(f, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = f.add(out[i + j], f.mul(x, y))
    return poly_trim(out)


def poly_divmod(f, a, b):
    b = poly_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    db = len(b) - 1
    lead_inv = f.inv(b[-1])
    quot = [0] * max(0, len(rem) - db)
    while len(poly_trim(rem)) - 1 >= db and poly_trim(rem):
        rem = poly_trim(rem)
        shift = len(rem) - 1 - db
        coef = f.mul(rem[-1], lead_inv)
        quot[shift] = coef
        for i, c in enumerate(b):
            rem[shift + i] = f.sub(rem[shift + i], f.mul(coef, c))
    return poly_trim(quot), poly_trim(rem)


def _poly_is_irreducible(f, poly):
    """Rabin's test: poly, of degree s over f = GF(q), is irreducible when
    x^(q^s) = x mod poly and gcd(x^(q^(s/r)) - x, poly) = 1 for every
    prime r dividing s.

    The powers x^(q^j) mod poly follow one another through the Frobenius
    map h -> h^q, which is linear over f: h^q = sum_i h_i x^(q i), so
    its rows x^(q i) mod poly are found once and each step is s row
    updates.  O(s^3 + s^2 log q) field operations.
    """
    poly = poly_trim(list(poly))
    s = len(poly) - 1
    if s <= 0:
        return False
    if s == 1:
        return True
    lead = f.inv(poly[-1])
    tail = [f.neg(f.mul(lead, c)) for c in poly[:-1]]  # x^s = tail mod poly
    x = [0, 1] + [0] * (s - 2)
    xq = _power(lambda a, b: _mulmod(f, a, b, tail), x, f.q, [1] + [0] * (s - 1))
    rows = [[1] + [0] * (s - 1)]
    for _ in range(s - 1):
        rows.append(_mulmod(f, rows[-1], xq, tail))
    powers = [x]  # x^(q^j) mod poly
    for _ in range(s):
        h = [0] * s
        for c, row in zip(powers[-1], rows):
            f.axpy(h, c, row)
        powers.append(h)
    if powers[s] != x:
        return False
    for r in _prime_factors(s):
        a, b = poly, poly_sub(f, powers[s // r], x)
        while b:
            a, b = b, poly_divmod(f, a, b)[1]
        if len(a) > 1:
            return False
    return True


def _mulmod(f, a, b, tail):
    """a * b mod x^s - tail(x), a and b of s coefficients, by Horner's rule
    over the coefficients of a."""
    acc = [0] * len(tail)
    for c in reversed(a):
        top = acc.pop()
        acc.insert(0, 0)
        f.axpy(acc, top, tail)
        f.axpy(acc, c, b)
    return acc


def _power(mul, a, e, one=1):
    """a^e, e >= 0, by square and multiply with the product mul."""
    acc = one
    while e:
        if e & 1:
            acc = mul(acc, a)
        a = mul(a, a)
        e >>= 1
    return acc


# ---------------------------------------------------------------------------
# fields


class Field:
    """Handle for GF(q); elements are integers in [0, q).

    Prime fields have base None; extension fields hold a base handle, a
    degree and a monic irreducible modulus (coefficients are base-field
    integers, little endian).  Handles are immutable and safe to share.
    """

    def __init__(self, p, base, degree, modulus, _token=None):
        if _token is not _FIELD_TOKEN:
            raise InvalidParams("use make_field or extend_field")
        self.p = p
        self.base = base
        self.degree = degree
        self.modulus = tuple(modulus)
        self.q = (p if base is None else base.q) ** degree
        self._log = False  # the exp/log tables, where _cached builds them

    # -- identity ----------------------------------------------------------

    @property
    def key(self):
        if self.base is None:
            return ("prime", self.p, self.modulus)
        return ("ext", self.base.key, self.degree, self.modulus)

    def __eq__(self, other):
        return isinstance(other, Field) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"GF({self.q})"

    # -- element helpers ----------------------------------------------------

    def validate(self, a):
        """a as an element encoding: an integer in [0, q) of any integer
        type (numpy integers included); bool, float, str and the like raise
        InvalidParams rather than being coerced."""
        e = a
        if type(a) is not int and not isinstance(a, bool) and hasattr(a, "__index__"):
            e = operator.index(a)
        if type(e) is not int or not 0 <= e < self.q:
            raise InvalidParams(f"{a!r} is not an element encoding of {self}")
        return e

    def vector(self, values) -> tuple:
        """values as a tuple of element encodings (see validate); a
        non-sequence raises InvalidParams."""
        try:
            return tuple(map(self.validate, values))
        except TypeError:
            raise InvalidParams(f"expected a sequence of {self} elements, got {values!r}") from None

    def to_digits(self, a):
        """Coefficient vector over the base field (little endian)."""
        radix = self.p if self.base is None else self.base.q
        digits = []
        for _ in range(self.degree):
            a, digit = divmod(a, radix)
            digits.append(digit)
        return digits

    def from_digits(self, digits):
        radix = self.p if self.base is None else self.base.q
        acc = 0
        for d in reversed(digits):
            acc = acc * radix + d
        return acc

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b):
        if self.base is None:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        log = self._log
        if not log:
            return self._add_slow(a, b)
        if not a:
            return b
        if not b:
            return a
        la = log[a]
        return self._exp[la + self._zech[log[b] - la]]

    def sub(self, a, b):
        if self.base is None:
            return (a - b) % self.p
        if self.p == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def neg(self, a):
        if self.base is None:
            return (-a) % self.p
        if self.p == 2:
            return a
        log = self._log
        if log:
            # -1 = g^((q-1)/2), the one element of order 2
            return self._exp[log[a] + (self.q - 1) // 2]
        base = self.base
        return self.from_digits([base.neg(d) for d in self.to_digits(a)])

    def mul(self, a, b):
        if self.base is None:
            return (a * b) % self.p
        log = self._log
        if log:
            return self._exp[log[a] + log[b]]
        return self._mul_slow(a, b)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in {self}")
        if self.base is None:
            return pow(a, self.p - 2, self.p)
        log = self._log
        if log:
            return self._exp[self.q - 1 - log[a]]
        return self._inv_slow(a)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        if e < 0:
            a, e = self.inv(a), -e
        return _power(self.mul, a, e)

    def axpy(self, out, c, v):
        """out[j] += c * v[j] for every j < len(v), in place; out is a list."""
        if not c:
            return
        log = self._log
        if log:
            exp, lc = self._exp, log[c]
            if self.p == 2:
                for j, x in enumerate(v):
                    if x:
                        out[j] ^= exp[lc + log[x]]
                return
            zech = self._zech
            for j, x in enumerate(v):
                if x:
                    t = lc + log[x]
                    o = out[j]
                    if o:
                        lo = log[o]
                        out[j] = exp[lo + zech[t - lo]]
                    else:
                        out[j] = exp[t]
        elif self.base is None:
            p = self.p
            for j, x in enumerate(v):
                if x:
                    out[j] = (out[j] + c * x) % p
        else:
            add, mul = self.add, self._mul_slow
            for j, x in enumerate(v):
                out[j] = add(out[j], mul(c, x))

    def dot(self, u, v):
        """sum_j u[j] * v[j] over the common length of u and v."""
        log = self._log
        if log:
            exp = self._exp
            if self.p == 2:
                acc = 0
                for a, b in zip(u, v):
                    acc ^= exp[log[a] + log[b]]
                return acc
            add = self.add
            acc = 0
            for a, b in zip(u, v):
                acc = add(acc, exp[log[a] + log[b]])
            return acc
        if self.base is None:
            return sum(map(operator.mul, u, v)) % self.p
        add, mul = self.add, self._mul_slow
        acc = 0
        for a, b in zip(u, v):
            acc = add(acc, mul(a, b))
        return acc

    # -- array kernels, in characteristic 2 -----------------------------------
    #
    # Integer numpy arrays of element encodings, broadcast against each
    # other, on the numpy copies of the exp/log tables that characteristic-2
    # handles keep (see _build_mul_table).  Sums are XORs (^, and
    # np.bitwise_xor.reduce along an axis), and negation is the identity.

    def mul_array(self, a, b):
        """Elementwise products a * b."""
        return self.mul_logs(self.log_array(a), self.log_array(b))

    # Products of operands in log form: log_array(a) is the array of the
    # logarithms of a (log 0 = 2(q-1), whose sums read 0 through the zero
    # tail of exp).  A factor of many products is converted once, and each
    # product is then one addition and one gather.

    def log_array(self, a):
        """a in log form."""
        return self._log_array[a]

    def mul_logs(self, la, lb):
        """Elementwise products of la and lb, both in log form, as elements."""
        return self._exp_array[la + lb]

    def dot_logs(self, la, lb, axis):
        """The sums along axis (a nonnegative axis number) of the products
        mul_logs(la, lb)."""
        return np.bitwise_xor.reduce(self._exp_array[la + lb], axis=axis)

    def inv_array(self, a):
        """Elementwise inverses, with 0 for 0."""
        # log[0] = 2(q-1) sends 0 to a negative index, which wraps into the
        # zero tail of exp
        return self._exp_array[self.q - 1 - self._log_array[a]]

    # -- slow paths and tables ----------------------------------------------

    def _add_slow(self, a, b):
        base = self.base
        da, db = self.to_digits(a), self.to_digits(b)
        return self.from_digits([base.add(x, y) for x, y in zip(da, db)])

    def _mul_slow(self, a, b):
        if a == 0 or b == 0:
            return 0
        base = self.base
        prod = poly_mul(base, self.to_digits(a), self.to_digits(b))
        _, rem = poly_divmod(base, prod, self.modulus)
        rem = list(rem) + [0] * (self.degree - len(rem))
        return self.from_digits(rem)

    def _inv_slow(self, a):
        # extended Euclid on the coefficient polynomial and the modulus
        base = self.base
        r0, r1 = list(self.modulus), poly_trim(self.to_digits(a))
        t0, t1 = [], [1]
        while r1:
            q, r = poly_divmod(base, r0, r1)
            r0, r1 = r1, r
            t0, t1 = t1, poly_sub(base, t0, poly_mul(base, q, t1))
        # r0 is the gcd, a nonzero constant since the modulus is irreducible
        scale = base.inv(r0[0])
        t0 = poly_scale(base, scale, t0)
        t0 = list(t0) + [0] * (self.degree - len(t0))
        return self.from_digits(t0)

    def _build_mul_table(self):
        """exp/log tables of the first primitive element g in encoding order,
        and the Zech table for odd characteristic or numpy copies of exp/log
        for characteristic 2.

        The modulus need not be primitive, so x itself may have low order: a
        candidate is primitive when g^((q-1)/r) != 1 for every prime r of
        q - 1.  Walking the powers of g then takes q - 2 slow products.
        exp[i] = g^(i mod (q-1)) for i < 2(q-1), so a product of two nonzero
        elements is exp[log a + log b] with no modulo.  log[0] = 2(q-1)
        points into a zero tail of exp, so any index sum with a zero operand
        reads 0.  GF(2), whose one nonzero element is g = 1, has only the
        numpy copies: its scalar arithmetic stays mod 2.
        """
        q1 = self.q - 1
        cofactors = [q1 // r for r in _prime_factors(q1)]
        mul = self._mul_slow
        g = next((g for g in range(2, self.q) if all(_power(mul, g, e) != 1 for e in cofactors)), 1)
        powers = [1]
        for _ in range(q1 - 1):
            powers.append(mul(powers[-1], g))
        log = [0] * self.q
        for i, x in enumerate(powers):
            log[x] = i
        log[0] = 2 * q1
        self._exp = powers * 2 + [0] * (2 * q1 + 1)
        if self.p == 2:
            self._log_array = np.array(log, dtype=np.int64)
            self._exp_array = np.array(self._exp, dtype=np.int64)
        else:
            self._zech = self._build_add_table(log)
        if self.base is not None:
            self._log = log  # last: the arithmetic takes the table paths from here

    def _build_add_table(self, log):
        """Zech logarithms for odd characteristic: 1 + g^n = g^zech[n].

        Adding 1 touches only the lowest base-field digit.  Where 1 + g^n = 0
        the entry is log[0], which reads 0 through the zero tail of exp; the
        table is doubled so that any log difference indexes it directly.
        """
        radix, base_add = self.base.q, self.base.add
        zech = []
        for x in self._exp[: self.q - 1]:
            low = x % radix
            zech.append(log[x - low + base_add(low, 1)])
        return zech * 2


_FIELD_TOKEN = object()
_FIELD_CACHE: dict = {}  # handles by key, and by (..., "auto") for an auto modulus


def _auto_modulus(base, degree):
    """Smallest monic irreducible of the given degree over base, by
    packed-integer order."""
    for packed in range(base.q**degree):
        candidate = [0] * degree + [1]
        for i in range(degree):
            packed, candidate[i] = divmod(packed, base.q)
        if _poly_is_irreducible(base, candidate):
            return tuple(candidate)
    raise InvalidParams("no irreducible modulus found")  # unreachable for valid inputs


def make_field(p: int, m: int, modulus="auto") -> Field:
    """GF(p^m) over the prime subfield GF(p): extend_field of the one GF(p)
    handle.

    The modulus is a little-endian coefficient sequence over GF(p), monic of
    degree m, and must be irreducible; "auto" picks the monic irreducible
    with the smallest packed-integer encoding, so serialized field specs are
    reproducible.
    """
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return extend_field(_cached(Field(p, None, 1, (0, 1), _token=_FIELD_TOKEN)), m, modulus)


def _cached(field: Field) -> Field:
    """The one handle of field's key: field itself the first time, when an
    extension field with q <= _LOG_LIMIT, and GF(2), also builds its
    tables."""
    known = _FIELD_CACHE.get(field.key)
    if known is not None:
        return known
    if (field.base is not None or field.p == 2) and field.q <= _LOG_LIMIT:
        field._build_mul_table()
    _FIELD_CACHE[field.key] = field
    return field


def extend_field(base: Field, s: int, modulus="auto") -> Field:
    """GF(q^s) built as a degree-s extension of an existing handle; the
    modulus is read as in make_field, over base, and s = 1 gives base.

    A handle made before is found by (base, s, modulus or "auto") ahead of
    the modulus search and the irreducibility test.
    """
    if s < 1:
        raise InvalidParams("extension degree must be >= 1")
    if isinstance(modulus, str) and modulus == "auto":
        key = ("ext", base.key, s, "auto")
        if key not in _FIELD_CACHE:
            _FIELD_CACHE[key] = _extension(base, s, _auto_modulus(base, s))
        return _FIELD_CACHE[key]
    modulus = base.vector(modulus)
    if len(modulus) != s + 1 or modulus[-1] != 1:
        raise InvalidParams(f"modulus must be monic of degree {s}")
    if s > 1 and ("ext", base.key, s, modulus) not in _FIELD_CACHE:
        if not _poly_is_irreducible(base, list(modulus)):
            raise ReducibleModulus(f"modulus {list(modulus)} factors over {base}")
    return _extension(base, s, modulus)


def _extension(base: Field, s: int, modulus: tuple) -> Field:
    """The handle of base[x] / (modulus), a modulus known to be irreducible."""
    return base if s == 1 else _cached(Field(base.p, base, s, modulus, _token=_FIELD_TOKEN))


class TowerView:
    """Expansion of GF(q^s) elements into length-s vectors over GF(q).

    The basis is the polynomial basis 1, x, ..., x^(s-1) of the extension,
    under which expansion is plain digit unpacking by place value.
    """

    def __init__(self, big: Field, base: Field | None = None):
        if base is None:
            base = big if big.base is None else big.base
        if big == base:
            self.s = 1
        elif big.base == base:
            self.s = big.degree
        else:
            raise FieldMismatch(f"{big} is not built as an extension of {base}")
        self.big = big
        self.base = base

    def to_base_vector(self, e):
        e = self.big.validate(e)
        if self.s == 1:  # the degree-one views of MPC specs, on the hot path
            return (e,)
        return tuple(self.big.to_digits(e))

    def from_base_vector(self, vec):
        if len(vec) != self.s:
            raise InvalidParams(f"expected {self.s} coordinates, got {len(vec)}")
        digits = self.base.vector(vec)
        return digits[0] if self.s == 1 else self.big.from_digits(digits)

    def lift(self, a: int) -> int:
        """Embed a base-field element into the big field."""
        return self.base.validate(a)  # digit vector (a, 0, ..., 0) packs to a itself
