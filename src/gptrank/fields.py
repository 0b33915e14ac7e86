"""Arithmetic in a prime field F_q and its degree-N extension F_{q^N}.

Field elements are bare ints: the element c0 + c1*a + ... + c_{N-1}*a^(N-1),
where a is the residue class of x modulo the field polynomial, is stored as
sum(c_i * q**i).  For q = 2 an element is therefore exactly the bit pattern
of its coefficient vector, 0 and 1 are the additive and multiplicative
identities, and addition is xor.  A FieldCtx carries the modulus and
implements all arithmetic; the ints themselves do not know their context,
so values from different contexts must never be mixed (higher layers check
context equality at object boundaries such as codes and key files).
"""

from __future__ import annotations

import sys
from array import array
from functools import cache, partial, reduce
from itertools import compress
from operator import add, neg, sub, xor

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


def _span_tables(images: list[int], width: int) -> list[list[int]]:
    """Xor-span tables of an F_2-linear map given by its basis images.

    Table w lists, for every width-bit value k, the xor of images[width*w + b]
    over the set bits b of k, so the map sends a to the xor over w of
    table w at bits width*w .. width*w + width - 1 of a.
    """
    tabs = []
    for lo in range(0, len(images), width):
        basis = images[lo : lo + width]
        tab = [0] * (1 << len(basis))
        for k in range(1, len(tab)):
            low = k & -k
            tab[k] = tab[k ^ low] ^ basis[low.bit_length() - 1]
        tabs.append(tab)
    return tabs


def _check_field(q: int, N: int) -> None:
    """Refuse (q, N) unless N >= 2, q**N fits in a word and q is prime."""
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


@cache
def default_modulus(q: int, N: int) -> tuple[int, ...]:
    """First monic irreducible of degree N over F_q, by low-coefficient order.

    The search is deterministic, so a given (q, N) always names the same
    field.  Coefficients are returned constant term first.
    """
    _check_field(q, N)
    for low in range(1, q**N):
        coeffs = _digits(low, q, N) + (1,)
        if coeffs[0] and is_irreducible(q, coeffs):  # coeffs[0] == 0: divisible by x
            return coeffs
    raise RuntimeError(f"no irreducible of degree {N} over F_{q} found")


@cache
def _supplied_irreducible(q: int, mod: tuple[int, ...]) -> bool:
    return is_irreducible(q, mod)


def field_modulus(q: int, N: int, modulus=None) -> tuple[int, ...]:
    """The monic modulus, reduced mod q, that names F_{q^N}; None names the default.

    Checks q and N first.  The default modulus is trusted from the search
    that found it; any other is Rabin-tested once per process.
    """
    default = default_modulus(q, N)
    if modulus is None or tuple(modulus) == default:
        return default
    mod = tuple(_monic(modulus, q))
    if len(mod) - 1 != N:
        raise ParameterError(f"modulus must have degree {N}, got degree {len(mod) - 1}")
    if mod != default and not _supplied_irreducible(q, mod):
        raise ParameterError(f"modulus {mod} is reducible over F_{q}")
    return mod


class FieldCtx:
    """Arithmetic context for F_{q^N}.

    Construction takes its modulus from ``field_modulus``, which refuses
    what ``_check_field`` refuses and a modulus not irreducible of degree N.

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

    ``submul_row(prow, start)`` returns ``upd(wrow, f)``, which does
    ``wrow[j] -= f * prow[j]`` for every j >= start: the row update of an
    elimination, chosen per field like ``mul``.  For q = 2, table fields
    precompute the logs of the pivot row's nonzero entries, and fields
    without tables pack x^i * prow mod f for i < N into one int each and
    xor the copies that f's bits select; odd q loops per element over
    ``mul``.  ``row_combiner(M)`` returns ``times(v) = v M``, built once
    for a matrix that many vectors multiply: one ``submul_row`` update per
    row of M, except that q = 2 without tables xors, in one pass, the
    packed copies of all of M's rows that the bits of all of v select.
    """

    def __init__(self, q: int = 2, N: int = 2, modulus=None):
        mod = self.modulus = field_modulus(q, N, modulus)
        size = q**N
        self.q = q
        self.N = N
        self.size = size
        self.order = size - 1
        self._mod_int = sum(c << i for i, c in enumerate(mod)) if q == 2 else None

        if q == 2:
            self.add = self._add_xor
            self.sub = self._add_xor
            self.neg = self._neg_char2
        else:
            self.add = self._add_generic
            self.sub = self._sub_generic
            self.neg = self._neg_generic

        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        if q == 2:
            self._clmul = self.mul = self._make_clmul()
            self.submul_row = self._submul_packed
        else:
            self.mul = self._mul_generic
            self.submul_row = self._submul_generic
        if size <= _TABLE_LIMIT:
            self._build_tables()
            self.mul = self._mul_table
            if q == 2:
                self.submul_row = self._submul_table
        self.row_combiner = self._combine_rows if q != 2 or self._log else self._combine_packed

        # _frob[i] applies sigma^i for 1 <= i < N: the window tables of its
        # basis images for q = 2, otherwise the image list itself
        if q == 2:
            self.frobenius = self._frobenius_gf2
            pack = partial(_span_tables, width=_FROB_WINDOW)
        else:
            self.frobenius = self._frobenius_generic
            pack = list
        images = [self.pow(q**j, q) for j in range(N)]
        self._frob = [None, pack(images)]
        while len(self._frob) < N:
            images = [self.frobenius(v) for v in images]
            self._frob.append(pack(images))

    # -- addition ----------------------------------------------------------

    def _add_xor(self, a: int, b: int) -> int:
        return a ^ b

    def _neg_char2(self, a: int) -> int:
        return a

    def _add_generic(self, a: int, b: int) -> int:
        return self.from_coeffs(map(add, self.coeffs(a), self.coeffs(b)))

    def _sub_generic(self, a: int, b: int) -> int:
        return self.from_coeffs(map(sub, self.coeffs(a), self.coeffs(b)))

    def _neg_generic(self, a: int) -> int:
        return self.from_coeffs(map(neg, self.coeffs(a)))

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
        powers = []  # x^(N+i) mod f for i < N - 1, the high half's bits
        v = 1 << (N - 1)
        for _ in range(N - 1):
            v <<= 1
            if v >> N:
                v ^= self._mod_int
            powers.append(v)
        tabs = _span_tables(powers, _WINDOW)
        spread, parity, from_bytes = _SPREAD, _PARITY, int.from_bytes
        window = _WINDOW
        wmask = (1 << window) - 1

        if len(tabs) <= 2:  # N <= 29; below N = 16 the second table is [0]
            t0, t1 = (tabs + [[0]])[:2]

            def clmul(a: int, b: int) -> int:
                p = from_bytes(bin(a).encode().translate(spread), "big")
                p *= from_bytes(bin(b).encode().translate(spread), "big")
                r = int(p.to_bytes(width, "big").translate(parity), 2)
                h = r >> N
                return (r & mask) ^ t0[h & wmask] ^ t1[h >> window]

        else:

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
        gen = None
        for cand in range(2, self.size):
            if all(self.pow(cand, self.order // p) != 1 for p in factors):
                gen = cand
                break
        if gen is None:  # pragma: no cover - the group is cyclic
            raise RuntimeError("no multiplicative generator found")
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

    # -- row updates ---------------------------------------------------------

    def _submul_table(self, prow, start):
        # q = 2 only: subtraction is xor
        log, exp = self._log, self._exp
        pairs = [(j, log[prow[j]]) for j in range(start, len(prow)) if prow[j]]

        def upd(wrow, f):
            if f:
                lf = log[f]
                for j, lb in pairs:
                    wrow[j] ^= exp[lf + lb]

        return upd

    def _shifted(self, row) -> list[int]:
        """x^i * row mod f for i < N, each packing row's entries one per 64-bit lane."""
        N = self.N
        ones = int.from_bytes(b"\1\0\0\0\0\0\0\0" * len(row), "little")  # bit 0 of each lane
        low = ones * ((1 << (N - 1)) - 1)
        fold = self._mod_int ^ (1 << N)  # x^N mod f
        p = int.from_bytes(array("Q", row), sys.byteorder)
        out = [p]
        for _ in range(N - 1):
            p = ((p & low) << 1) ^ ((p >> (N - 1) & ones) * fold)
            out.append(p)
        return out

    def _submul_packed(self, prow, start):
        shifted = self._shifted(prow[start:])
        nbytes = 8 * (len(prow) - start)
        order, spread = sys.byteorder, _SPREAD

        def upd(wrow, f):
            u = reduce(xor, compress(shifted, bin(f)[:1:-1].encode().translate(spread)), 0)
            wrow[start:] = map(xor, wrow[start:], memoryview(u.to_bytes(nbytes, order)).cast("Q"))

        return upd

    def _submul_generic(self, prow, start):
        mul, sub = self.mul, self.sub
        pairs = [(j, prow[j]) for j in range(start, len(prow)) if prow[j]]

        def upd(wrow, f):
            for j, b in pairs:
                wrow[j] = sub(wrow[j], mul(f, b))

        return upd

    def _combine_rows(self, M):
        cols, neg = len(M[0]), self.neg
        updates = [self.submul_row(row, 0) for row in M]

        def times(v):
            out = [0] * cols
            for a, upd in zip(v, updates):
                if a:
                    upd(out, neg(a))
            return out

        return times

    def _combine_packed(self, M):
        # bit i of the lane of v's int that holds v[r] selects x^i * M[r] mod f;
        # lane r holds v[r] on little-endian machines, v[-1 - r] on others
        pad = [0] * (WORD_BITS - self.N)
        rows = M if sys.byteorder == "little" else M[::-1]
        copies = [c for row in rows for c in self._shifted(row) + pad]
        nbytes = 8 * len(M[0])
        order, spread = sys.byteorder, _SPREAD

        def times(v):
            bits = bin(int.from_bytes(array("Q", v), order))[:1:-1]
            u = reduce(xor, compress(copies, bits.encode().translate(spread)), 0)
            return memoryview(u.to_bytes(nbytes, order)).cast("Q").tolist()

        return times

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
        terms = [[d * c for c in coeffs(t)] for t, d in zip(self._frob[i], coeffs(a)) if d]
        return self.from_coeffs(map(sum, zip(*terms)))

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

    def check_element(self, a: int) -> int:
        if not isinstance(a, int) or a < 0 or a >= self.size:
            raise ParameterError(f"{a!r} is not an element of F_{self.q}^{self.N}")
        return a

    @property
    def element_hex_width(self) -> int:
        return ((self.size - 1).bit_length() + 3) // 4

    def to_hex(self, a: int) -> str:
        """Fixed-width hex of the packed coordinate vector, most significant first."""
        return format(a, f"0{self.element_hex_width}x")

    # -- identity ------------------------------------------------------------

    def modulus_str(self) -> str:
        terms = []
        for i in range(self.N, -1, -1):
            c = self.modulus[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("x" if c == 1 else f"{c}*x")
            else:
                terms.append(f"x^{i}" if c == 1 else f"{c}*x^{i}")
        return " + ".join(terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldCtx)
            and self.q == other.q
            and self.N == other.N
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.q, self.N, self.modulus))

    def __repr__(self) -> str:
        return f"FieldCtx(q={self.q}, N={self.N}, modulus={self.modulus_str()})"


_FIELD_CACHE: dict[tuple[int, int, tuple[int, ...]], FieldCtx] = {}


def get_field(q: int = 2, N: int = 2, modulus=None) -> FieldCtx:
    """Shared FieldCtx for F_{q^N}; every spelling of one modulus gives the same object."""
    key = (q, N, field_modulus(q, N, modulus))
    ctx = _FIELD_CACHE.get(key)
    if ctx is None:
        ctx = _FIELD_CACHE[key] = FieldCtx(*key)
    return ctx
