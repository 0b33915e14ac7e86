"""Arithmetic in a prime field F_q and its degree-N extension F_{q^N}.

Field elements are bare ints: the element c0 + c1*a + ... + c_{N-1}*a^(N-1),
where a is the residue class of x modulo the field polynomial, is stored as
sum(c_i * q**i).  For q = 2 an element is therefore exactly the bit pattern
of its coefficient vector, 0 and 1 are the additive and multiplicative
identities, and addition is xor.  F_{q^N} is unique up to isomorphism, so
(q, N) names it: a FieldCtx carries the one modulus ``default_modulus(q,
N)`` and implements all arithmetic; the ints do not know their context,
so values from different contexts must never be mixed (higher layers check
context equality at object boundaries such as codes and key files).
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache, partial, reduce
from itertools import compress, repeat
from operator import add, neg, pos, sub, xor

from .errors import ParameterError

__all__ = [
    "FieldCtx",
    "get_field",
    "default_modulus",
    "is_irreducible",
    "is_prime",
]

WORD_BITS = 64  # every field element fits in one machine word
_TABLE_LIMIT = 1 << 16

# Carry-less multiply for q = 2, done by C-level int and bytes operations.
# bin(a) translated one bit per byte reads back as an int whose ordinary
# product with another such int holds, in each byte, the number of bit
# pairs meeting in that column.  That count is at most N < 256, so no carry
# crosses a byte, and its low bit is the carry-less product's bit.
_SPREAD = bytes.maketrans(b"01b", b"\x00\x01\x00")
_PARITY = bytes(48 + (i & 1) for i in range(256))  # byte count -> b"0" or b"1"
# Bits of a product's high half folded back by one reduction-table lookup.
_WINDOW = 14
# Bits of an element mapped by one lookup in a q = 2 Frobenius table.
_FROB_WINDOW = 7
# Bits of a multiplier per lookup in a pivot row's window tables, and the
# number of row updates from which building those tables pays off.
_SPAN_WINDOW = 4
_SPAN_USES = 16
_LITTLE = sys.byteorder == "little"


def _span_tables(images: list[int], width: int) -> list[list[int]]:
    """Xor-span tables of an F_2-linear map given by its basis images.

    Table w lists, for every width-bit value k, the xor of images[width*w + b]
    over the set bits b of k, so the map sends a to the xor over w of
    table w at bits width*w .. width*w + width - 1 of a.
    """
    tabs = []
    for lo in range(0, len(images), width):
        tab = [0]
        for image in images[lo : lo + width]:  # second half: the first with this image added
            tab += [t ^ image for t in tab]
        tabs.append(tab)
    return tabs


def _lane_codec(bits: int):
    """The lane-packed row format with bits-bit lanes, as (pack, unpack).

    pack(row) is row as one int, entry c in bits bits*c .. bits*c + bits - 1;
    unpack(w, length) lists the first length lanes of such an int.
    """
    code = next(c for c in "ILQ" if array(c).itemsize * 8 == bits)
    size, order = bits // 8, sys.byteorder

    def pack(row) -> int:
        return int.from_bytes(array(code, row if _LITTLE else row[::-1]), order)

    def unpack(w: int, length: int) -> list[int]:
        row = memoryview(w.to_bytes(size * length, order)).cast(code).tolist()
        return row if _LITTLE else row[::-1]

    return pack, unpack


def _pack_bytes(values, width: int) -> bytes:
    """values as consecutive big-endian width-byte words, 1 <= width <= 8.

    Each value must be below 256**width: the high bytes are dropped unread.
    A value that is no int or does not fit 64 bits raises TypeError or
    OverflowError, as array("Q") does.
    """
    lanes = array("Q", values)
    if _LITTLE:
        lanes.byteswap()
    raw, out = lanes.tobytes(), bytearray(width * len(lanes))
    for j in range(width):  # byte j of each word is byte 8 - width + j of its lane
        out[j::width] = raw[8 - width + j :: 8]
    return bytes(out)


def _unpack_bytes(data: bytes, width: int) -> list[int]:
    """The big-endian width-byte words of data, whose length they divide."""
    raw = bytearray(8 * (len(data) // width))
    for j in range(width):
        raw[8 - width + j :: 8] = data[j::width]
    lanes = array("Q", raw)
    if _LITTLE:
        lanes.byteswap()
    return lanes.tolist()


def _list_row(row: list[int], length: int) -> list[int]:
    return row


def _list_column(rows, c, first):
    return [row[c] for row in rows[first:]]


def _check_counts(**counts) -> None:
    """Refuse any count that is not a plain int; a bool is not one."""
    for name, value in counts.items():
        if type(value) is not int:
            raise ParameterError(f"{name} must be an int, got {value!r:.40}")


def _check_field(q: int, N: int) -> None:
    """Refuse (q, N) unless both are ints, N >= 2, q**N fits in a word and q is prime."""
    _check_counts(q=q, N=N)
    if N < 2:
        raise ParameterError(f"extension degree N must be >= 2, got {N}")
    # before the primality test, whose trial division a huge q would stall
    if N > WORD_BITS or q**N > 1 << WORD_BITS:
        raise ParameterError(f"q**N = {q}**{N} does not fit in {WORD_BITS} bits")
    if not is_prime(q):
        raise ParameterError(
            f"q must be a prime, got {q} (prime-power base fields are not supported)"
        )


def is_prime(p: int) -> bool:
    """Deterministic primality check by trial division (p stays small here)."""
    return p >= 2 and _prime_factors(p) == [p]


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


# -- dense polynomials over F_q, for modulus validation and odd-q multiply ----
# Representation: list of int coefficients, constant term first.


def _poly_trim(c: list[int]) -> list[int]:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: list[int], b: list[int], q: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = (out[i + j] + ai * bj) % q
    return _poly_trim(out)


def _poly_mod(a: list[int], f: list[int], q: int) -> list[int]:
    # f must be monic
    a = _poly_trim(a)
    df = len(f) - 1
    while len(a) - 1 >= df and a:
        lead = a[-1]  # nonzero: a is kept trimmed
        shift = len(a) - 1 - df
        for i, fi in enumerate(f):
            a[shift + i] = (a[shift + i] - lead * fi) % q
        a = _poly_trim(a)
    return a


def _poly_sub(a: list[int], b: list[int], q: int) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] = ai
    for i, bi in enumerate(b):
        out[i] = (out[i] - bi) % q
    return _poly_trim(out)


def _poly_powmod(base: list[int], e: int, f: list[int], q: int) -> list[int]:
    result = [1]
    b = _poly_mod(list(base), f, q)
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, b, q), f, q)
        b = _poly_mod(_poly_mul(b, b, q), f, q)
        e >>= 1
    return result


def _monic(coeffs, q: int) -> list[int]:
    """coeffs reduced mod q, trimmed and scaled to leading coefficient 1."""
    c = _poly_trim([x % q for x in coeffs])
    if c and c[-1] != 1:
        inv_lead = pow(c[-1], q - 2, q)
        c = [(x * inv_lead) % q for x in c]
    return c


def _poly_gcd(a: list[int], b: list[int], q: int) -> list[int]:
    b = _monic(b, q)
    while b:
        a, b = b, _monic(_poly_mod(a, b, q), q)
    return a


def is_irreducible(q: int, coeffs) -> bool:
    """Rabin irreducibility test for a polynomial over F_q (q prime)."""
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    f = _monic(coeffs, q)
    if len(f) < 2:
        return False
    n = len(f) - 1
    if n == 1:
        return True
    x = [0, 1]
    chain = [x]  # chain[i] = x^(q^i) mod f
    for _ in range(n):
        chain.append(_poly_powmod(chain[-1], q, f, q))
    # x^(q^n) must reduce to x mod f, and x^(q^(n/p)) - x must be coprime
    # to f for every prime p | n
    return chain[n] == x and all(
        len(_poly_gcd(_poly_sub(chain[n // p], x, q), f, q)) == 1 for p in _prime_factors(n)
    )


def _digits(a: int, q: int, N: int) -> tuple[int, ...]:
    """The N base-q digits of a, lowest first."""
    out = []
    for _ in range(N):
        out.append(a % q)
        a //= q
    return tuple(out)


@lru_cache(maxsize=None, typed=True)  # typed: 12.0 and True are not the key 12 or 1
def default_modulus(q: int, N: int) -> tuple[int, ...]:
    """First monic irreducible of degree N over F_q, by low-coefficient order.

    The search is deterministic, so a given (q, N) always names the same
    field.  Coefficients are returned constant term first.
    """
    _check_field(q, N)
    # F_q has an irreducible of every degree, so the search ends; c[0] == 0: divisible by x
    monic = (_digits(low, q, N) + (1,) for low in range(1, q**N))
    return next(c for c in monic if c[0] and is_irreducible(q, c))


class FieldCtx:
    """Arithmetic context for F_{q^N}.

    F_{q^N} is named by (q, N) alone: its modulus is ``default_modulus(q,
    N)``, and construction refuses what ``_check_field`` refuses.

    For q = 2, ``add`` and ``sub`` are ``operator.xor`` and ``neg`` is
    ``operator.pos``; other primes add, subtract and negate digit by digit.
    When q**N is small enough, discrete log/exp tables are built eagerly
    and multiplication becomes two lookups.  Otherwise q = 2 multiplies
    carry-lessly with one integer product of byte-spread operands (see
    ``_SPREAD``), reduced by tables of x^(N+i) mod f over 14-bit windows of
    the high half, and inverts by the polynomial extended Euclid algorithm;
    other primes fall back to coefficient arithmetic.

    ``frobenius(a, i=1)`` is a**(q**i), with i reduced mod N.  Every power
    sigma^i, i < N, is built with the field from the basis images
    sigma^i(a^j), each the sigma^1 image of the one before.  sigma^i is
    F_q-linear, so for q = 2 it is kept as one 128-entry table per 7-bit
    window of a, holding the xors of that window's basis images, and applied
    as one lookup per window (27 powers x 4 windows x 128 = 13,824 ints at
    N = 28).  Other primes sum the basis images digit by digit.

    ``pack_lanes`` and ``unpack_lanes`` convert rows to and from one int,
    entry c in lane c, ``lane_bits`` wide: 32 bits when every element fits
    (N <= 32 at q = 2), else 64.  Elimination keeps its rows in a format
    chosen per field like ``mul``: for q = 2 without tables that int,
    otherwise a list.  ``pack_row(row)`` and ``unpack_row(w, length)``
    convert, and ``column(rows, c, first)`` lists entry c of rows[first],
    rows[first + 1], ...
    ``submul_row(prow, uses=1)`` returns ``upd(w, f)``, which returns
    w - f * prow for rows in that format (a list row is changed in place).
    Table fields precompute the logs of the pivot row's nonzero entries,
    and odd q loops per element over ``mul``.  Lane-packed rows xor the
    copies x^i * prow mod f that f's bits select; when the update is to be
    used at least ``_SPAN_USES`` times, it builds xor-span tables of those
    copies once and looks f up 4 bits at a time.  ``row_combiner(M)``
    returns ``times(v) = v M``, built once for a matrix that many vectors
    multiply: one ``submul_row`` update per row of M, except that q = 2
    without tables xors, in one pass, the lane-packed copies of all of M's
    rows that the bits of all of v select.

    ``scale_row(row, f)`` returns f * row, chosen per field like ``mul``:
    q = 2 without tables packs row into lanes of 64 bits (N <= 32) or 128
    bits, wide enough for a (2N-1)-bit carry-less product, xors one shifted
    copy per set bit of f and folds the high halves back with x^N mod f.
    ``power_basis_images(c)`` is L(a^j), j < N, for L = sum_i c_i x^(q^i):
    c times the Moore matrix [sigma^i(a^j)] kept from building the
    Frobenius tables, through a ``row_combiner`` kernel built on first use.

    ``check_elements(values, what)``, the one check of vectors from outside,
    raises ParameterError unless every value is an int in [0, q^N) (a bool
    is one); a numpy int would wrap silently in the lane kernels' shifts.
    """

    def __init__(self, q: int = 2, N: int = 2):
        mod = self.modulus = default_modulus(q, N)
        size = q**N
        self.q = q
        self.N = N
        self.size = size
        self.order = size - 1
        self._mod_int = sum(c << i for i, c in enumerate(mod)) if q == 2 else None

        if q == 2:  # -a = a in characteristic 2
            self.add = self.sub = xor
            self.neg = pos
        else:
            self.add = partial(self._digitwise, add)
            self.sub = partial(self._digitwise, sub)
            self.neg = partial(self._digitwise, neg)

        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        # power_basis_images' kernel; not a cached_property, whose write to
        # __dict__ slows every later attribute load on the field (CPython 3.11)
        self._moore_times = None
        self.lane_bits = 32 if self.order.bit_length() <= 32 else 64  # one element per lane
        self.pack_lanes, self.unpack_lanes = _lane_codec(self.lane_bits)
        if q == 2:
            self._clmul = self.mul = self._make_clmul()
        else:
            self.mul = self._mul_generic
        if size <= _TABLE_LIMIT:
            self._build_tables()
            self.mul = self._mul_table
        # the row format of elimination, and the row kernels that go with it:
        # one lane-packed int per row for q = 2 without tables, else a list
        if q == 2 and not self._log:
            self.pack_row, self.unpack_row = self.pack_lanes, self.unpack_lanes
            self.column = self._lane_column
            self.submul_row = self._submul_lanes
            self.row_combiner = self._combine_packed
            self.scale_row = self._make_scale_packed()
        else:
            self.pack_row, self.unpack_row = list, _list_row
            self.column = _list_column
            self.submul_row = self._submul_table if q == 2 else self._submul_generic
            self.row_combiner = self._combine_rows
            self.scale_row = self._scale_generic

        # _moore[i] lists the basis images sigma^i(a^j); for q = 2, _frob[i]
        # holds the window tables of those images, 1 <= i < N
        self.frobenius = self._frobenius_gf2 if q == 2 else self._frobenius_generic
        moore = self._moore = [[q**j for j in range(N)], [self.pow(q**j, q) for j in range(N)]]
        self._frob = [None]
        for i in range(1, N):
            if q == 2:
                self._frob.append(_span_tables(moore[i], _FROB_WINDOW))
            if i + 1 < N:  # sigma^(i+1)(a^j) = sigma(sigma^i(a^j))
                moore.append([self.frobenius(v) for v in moore[i]])

    # -- addition ----------------------------------------------------------

    def _digitwise(self, op, *operands: int) -> int:
        """op applied to the base-q digits of the operands (odd q)."""
        return self.from_coeffs(map(op, *map(self.coeffs, operands)))

    # -- multiplication ----------------------------------------------------

    def _mul_table(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def _make_clmul(self):
        """Carry-less multiply mod the field polynomial, for q = 2."""
        N = self.N
        mask = (1 << N) - 1
        width = 2 * N  # bytes: a product has at most 2N - 1 columns
        # x^(N+i) mod f for i < N - 1, the images of the high half's bits
        tabs = _span_tables(self._shifted(1 << (N - 1))[1:], _WINDOW)
        spread, parity, from_bytes = _SPREAD, _PARITY, int.from_bytes
        window = _WINDOW
        wmask = (1 << window) - 1

        def clmul(a: int, b: int) -> int:
            p = from_bytes(bin(a).encode().translate(spread), "big")
            p *= from_bytes(bin(b).encode().translate(spread), "big")
            r = int(p.to_bytes(width, "big").translate(parity), 2)
            h = r >> N
            r &= mask
            for tab in tabs:
                r ^= tab[h & wmask]
                h >>= window
            return r

        return clmul

    def _mul_generic(self, a: int, b: int) -> int:
        q = self.q
        prod = _poly_mul(self.coeffs(a), self.coeffs(b), q)
        return self.from_coeffs(_poly_mod(prod, self.modulus, q))

    def _build_tables(self) -> None:
        # runs while self.mul is still the table-less multiply
        raw_mul = self.mul
        factors = _prime_factors(self.order)
        # F_{q^N}* is cyclic, so a generator lies in 2 .. q^N - 1
        gen = next(
            c for c in range(2, self.size) if all(self.pow(c, self.order // p) != 1 for p in factors)
        )
        exp = [1] * (2 * self.order - 1)
        log = [-1] * self.size
        v = 1
        for i in range(self.order):
            exp[i] = v
            log[v] = i
            v = raw_mul(v, gen)
        for i in range(self.order, 2 * self.order - 1):
            exp[i] = exp[i - self.order]
        self._exp = exp
        self._log = log

    # -- inversion and powers ------------------------------------------------

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self._log is not None:
            return self._exp[self.order - self._log[a]]
        if self.q == 2:
            return self._inv_gf2(a)
        return self.pow(a, self.size - 2)

    def _inv_gf2(self, a: int) -> int:
        # extended Euclid on polynomials over F_2: g1*a = u, g2*a = v mod f
        u, v = a, self._mod_int
        g1, g2 = 1, 0
        while u != 1:
            j = u.bit_length() - v.bit_length()
            if j < 0:
                u, v, g1, g2, j = v, u, g2, g1, -j
            u ^= v << j
            g1 ^= g2 << j
        return g1

    def pow(self, a: int, e: int) -> int:
        if e < 0:  # the square-and-multiply loop below would never end
            raise ValueError(f"negative exponent {e}")
        r = 1
        mul = self.mul
        while e:
            if e & 1:
                r = mul(r, a)
            a = mul(a, a)
            e >>= 1
        return r

    # -- row formats and row updates -------------------------------------------

    def _submul_table(self, prow, uses=1):
        # q = 2 only: subtraction is xor
        log, exp = self._log, self._exp
        pairs = [(j, log[b]) for j, b in enumerate(prow) if b]

        def upd(wrow, f):
            if f:
                lf = log[f]
                for j, lb in pairs:
                    wrow[j] ^= exp[lf + lb]
            return wrow

        return upd

    def _submul_generic(self, prow, uses=1):
        mul, sub = self.mul, self.sub
        pairs = [(j, b) for j, b in enumerate(prow) if b]

        def upd(wrow, f):
            for j, b in pairs:
                wrow[j] = sub(wrow[j], mul(f, b))
            return wrow

        return upd

    def _lane_column(self, rows, c, first):
        shift, mask = self.lane_bits * c, self.order  # 2^N - 1
        return [w >> shift & mask for w in rows[first:]]

    def _shifted(self, p: int) -> list[int]:
        """x^i * row mod f for i < N, for a row lane-packed into p."""
        N = self.N
        ones = self.pack_lanes([1] * -(-p.bit_length() // self.lane_bits))
        low = ones * ((1 << (N - 1)) - 1)
        fold = self._mod_int ^ (1 << N)  # x^N mod f
        out = [p]
        for _ in range(N - 1):
            p = ((p & low) << 1) ^ ((p >> (N - 1) & ones) * fold)
            out.append(p)
        return out

    def _submul_lanes(self, prow: int, uses: int = 1):
        # f * prow is the xor of the x^i * prow copies that f's bits select
        shifted = self._shifted(prow)
        if uses < _SPAN_USES:
            spread = _SPREAD

            def upd(w, f):
                return reduce(xor, compress(shifted, bin(f)[:1:-1].encode().translate(spread)), w)

            return upd
        tabs = _span_tables(shifted, _SPAN_WINDOW)
        wmask = (1 << _SPAN_WINDOW) - 1

        def upd(w, f):
            for tab in tabs:
                w ^= tab[f & wmask]
                f >>= _SPAN_WINDOW
            return w

        return upd

    def _combine_rows(self, M):
        cols, neg = len(M[0]), self.neg
        updates = [self.submul_row(row) for row in M]

        def times(v):
            out = [0] * cols
            for a, upd in zip(v, updates):
                if a:
                    upd(out, neg(a))
            return out

        return times

    def _combine_packed(self, M):
        # bit i of lane r of v's packed int selects x^i * M[r] mod f
        pad = [0] * (self.lane_bits - self.N)
        cols, pack, unpack = len(M[0]), self.pack_lanes, self.unpack_lanes
        copies = [c for row in M for c in self._shifted(pack(row)) + pad]
        spread = _SPREAD

        def times(v):
            bits = bin(pack(v))[:1:-1].encode().translate(spread)
            return unpack(reduce(xor, compress(copies, bits), 0), cols)

        return times

    # -- scalar times row ----------------------------------------------------

    def _scale_generic(self, row, f):
        mul = self.mul
        return [mul(f, a) if a else 0 for a in row]

    def _make_scale_packed(self):
        """f * row for q = 2 without tables, in lanes that hold a (2N-1)-bit product."""
        N = self.N
        words = 1 if 2 * N - 1 <= WORD_BITS else 2  # 64-bit words per lane
        lo = 0 if sys.byteorder == "little" else words - 1  # the word holding the element
        lane_one = b"\1" + bytes(8 * words - 1)
        fold = [i for i in range(N) if self._mod_int >> i & 1]  # bits of x^N mod f
        order, spread, low_bits = sys.byteorder, _SPREAD, range(N)

        def scale(row, f):
            lanes = array("Q", bytes(8 * words * len(row)))
            lanes[lo::words] = array("Q", row)
            p = int.from_bytes(lanes, order)
            ones = int.from_bytes(lane_one * len(row), "little")  # bit 0 of each lane
            low, high = ones * ((1 << N) - 1), ones * ((1 << (N - 1)) - 1)
            prod = 0  # one shifted copy of the row per set bit of f
            for i in compress(low_bits, bin(f)[:1:-1].encode().translate(spread)):
                prod ^= p << i
            r, h = prod & low, prod >> N & high
            while h:  # fold each lane's high half h back: x^N h = (x^N mod f) h
                prod = 0
                for i in fold:
                    prod ^= h << i
                r, h = r ^ prod & low, prod >> N & high
            return memoryview(r.to_bytes(len(lanes) * 8, order)).cast("Q")[lo::words].tolist()

        return scale

    # -- Frobenius -----------------------------------------------------------

    def _frobenius_gf2(self, a: int, i: int = 1) -> int:
        i %= self.N
        if i == 0 or a < 2:
            return a
        r = 0
        for tab in self._frob[i]:
            r ^= tab[a & 127]  # the low _FROB_WINDOW bits
            a >>= _FROB_WINDOW
        return r

    def _frobenius_generic(self, a: int, i: int = 1) -> int:
        i %= self.N
        if i == 0 or a < 2:
            return a
        # sum_j a_j sigma^i(a^j), added up digit by digit
        coeffs = self.coeffs
        terms = [[d * c for c in coeffs(t)] for t, d in zip(self._moore[i], coeffs(a)) if d]
        return self.from_coeffs(map(sum, zip(*terms)))

    def power_basis_images(self, coeffs) -> list[int]:
        """L(a^j) for j < N, where L = sum_i coeffs[i] x^(q^i): coeffs times the Moore matrix."""
        v = [0] * self.N
        for i, c in enumerate(coeffs):  # sigma^N is the identity
            v[i % self.N] = self.add(v[i % self.N], c)
        if self._moore_times is None:
            self._moore_times = self.row_combiner(self._moore)
        return self._moore_times(v)

    # -- coordinates and encoding --------------------------------------------

    @property
    def alpha(self) -> int:
        """The residue class of x, i.e. the element with coefficient vector e_1."""
        return self.q

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Coordinate vector of a in the polynomial basis, constant term first."""
        return _digits(a, self.q, self.N)

    def from_coeffs(self, cs) -> int:
        cs = list(cs)
        if len(cs) > self.N:
            raise ValueError(f"expected at most {self.N} coordinates, got {len(cs)}")
        r = 0
        place = 1
        for c in cs:
            r += (c % self.q) * place
            place *= self.q
        return r

    def rand_elem(self, rng) -> int:
        return rng.randrange(self.size)

    def rand_nonzero(self, rng) -> int:
        return 1 + rng.randrange(self.order)

    def check_elements(self, values, what: str) -> None:
        ints = all(map(isinstance, values, repeat(int)))
        if not ints or values and (min(values) < 0 or max(values) >= self.size):
            raise ParameterError(f"{what} holds a value outside F_{self.q}^{self.N}")

    @property
    def element_hex_width(self) -> int:
        return ((self.size - 1).bit_length() + 3) // 4

    # -- identity ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldCtx) and (self.q, self.N) == (other.q, other.N)

    def __hash__(self) -> int:
        return hash((self.q, self.N))

    def __repr__(self) -> str:
        return f"FieldCtx(q={self.q}, N={self.N}, modulus={self.modulus})"


_FIELD_CACHE: dict[tuple[int, int], FieldCtx] = {}


def get_field(q: int = 2, N: int = 2) -> FieldCtx:
    """Shared FieldCtx for F_{q^N}.  Only plain ints look the cache up: (2, 12.0) == (2, 12)."""
    ctx = _FIELD_CACHE.get((q, N)) if type(q) is type(N) is int else None
    if ctx is None:
        ctx = _FIELD_CACHE[q, N] = FieldCtx(q, N)
    return ctx
