"""The GPT public-key cryptosystem over Gabidulin codes.

The public key is a disguised generator matrix.  Four layouts are
supported, named by their classical variant numbers:

* ``SIMPLE`` (3): G_pub = S G P, ciphertext error of rank exactly t1.
* ``EXTENDED`` (4): G_pub = S [X | G] P with a k x t1 distortion block X of
  column rank t1 over F_q; ciphertext error of rank exactly t2.
* ``RECTANGULAR_S`` (5): as EXTENDED but S is (k - p) x k of full row rank,
  so plaintexts are shorter than k.
* ``TWO_DISTORTION`` (6): G_pub = S ([O | G] + [X1 | X2]) P where X1 is an
  arbitrary k x m_cols block and X2 is k x n of column rank t1 over F_q.

The column scrambler P comes in two flavours.  With ``base_field`` every
entry of P lies in F_q; this is the classical choice and it is exactly what
the extended-rank distinguisher in `attacks` breaks.  With
``extension_field`` the *inverse* scrambler is drawn as
P^{-1} = [Q1 | Q2] Q: a bounded block of s_ext columns over the extension
field, the remaining columns over F_q, and a random invertible base-field
mask Q.  Because any rank-t error e factors as e = w A with A over F_q,
the product e P^{-1} keeps rank at most s_ext plus the error rank, so
decryption still lands inside the decoding radius while the Frobenius no
longer fixes P.  For the concatenation variants the mask mixes only the
kept block: the discarded columns are unconstrained over the extension
field and must not leak into the decoded coordinates.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass

from .errors import DecodeFailure, ParameterError
from .fields import WORD_BITS, FieldCtx, default_modulus, fits_in_word, get_field, is_prime
from .gabidulin import GabidulinCode
from .linalg import (
    column_rank_over_base,
    concat_cols,
    mat_add,
    mat_inv,
    mat_mul,
    rank_ext,
    random_full_row_rank,
    random_matrix,
    rank_over_base,
    sample_error,
    solve_linear,
    transpose,
    vec_add,
    vec_mat_mul,
    zeros_matrix,
)

__all__ = [
    "Variant",
    "ScramblerMode",
    "GptParams",
    "GptPublicKey",
    "GptPrivateKey",
    "build_scrambler",
    "keygen",
    "encrypt",
    "decrypt",
    "lemma1_check",
    "public_key_size_bits",
    "preset",
    "PRESET_NAMES",
]

_MAX_DRAWS = 200


class Variant(enum.IntEnum):
    SIMPLE = 3
    EXTENDED = 4
    RECTANGULAR_S = 5
    TWO_DISTORTION = 6

    @classmethod
    def parse(cls, value) -> "Variant":
        if isinstance(value, cls):
            return value
        if isinstance(value, int):
            try:
                return cls(value)
            except ValueError:
                raise ParameterError(f"unknown variant number {value}") from None
        name = str(value).strip().lower().replace("-", "_")
        aliases = {
            "simple": cls.SIMPLE,
            "extended": cls.EXTENDED,
            "rectangular_s": cls.RECTANGULAR_S,
            "two_distortion": cls.TWO_DISTORTION,
        }
        if name in aliases:
            return aliases[name]
        if name.isdigit():
            return cls.parse(int(name))
        raise ParameterError(f"unknown variant {value!r}")


class ScramblerMode(str, enum.Enum):
    BASE_FIELD = "base_field"
    EXTENSION_FIELD = "extension_field"

    @classmethod
    def parse(cls, value) -> "ScramblerMode":
        if isinstance(value, cls):
            return value
        name = str(value).strip().lower()
        if name in ("base_field", "base"):
            return cls.BASE_FIELD
        # the _V spelling is accepted for interface compatibility
        if name in ("extension_field", "extension_field_v"):
            return cls.EXTENSION_FIELD
        raise ParameterError(f"unknown scrambler mode {value!r}")


@dataclass(frozen=True)
class GptParams:
    """Validated parameter set for one key pair.

    ``t1`` is the ciphertext error rank for SIMPLE and the distortion
    column rank for the other variants; those use ``t2`` as the error rank
    instead.  The error rank must be positive so that every ciphertext
    carries an error.  ``s_ext`` is the number of extension-field columns
    inside the kept block of P^{-1} and defaults to the full decodability
    budget of the variant; ``x_ordinary_rank`` is the ordinary rank of the
    distortion block (defaults to t1).
    """

    N: int
    n: int
    k: int
    t1: int
    q: int = 2
    variant: Variant = Variant.SIMPLE
    t2: int = 0
    p: int = 0
    m_cols: int = 0
    scrambler_mode: ScramblerMode = ScramblerMode.EXTENSION_FIELD
    s_ext: int | None = None
    x_ordinary_rank: int | None = None
    modulus: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "variant", Variant.parse(self.variant))
        object.__setattr__(self, "scrambler_mode", ScramblerMode.parse(self.scrambler_mode))
        if not is_prime(self.q):
            raise ParameterError(f"q must be prime, got {self.q}")
        if self.N < 2:
            raise ParameterError("N must be at least 2")
        if not fits_in_word(self.q, self.N):
            raise ParameterError(f"q**N = {self.q}**{self.N} does not fit in {WORD_BITS} bits")
        if not 1 <= self.k < self.n <= self.N:
            raise ParameterError(f"need 1 <= k < n <= N, got k={self.k}, n={self.n}, N={self.N}")
        if self.n - self.k < 2:
            raise ParameterError("need n - k >= 2 so the code corrects at least one rank error")
        if self.modulus is not None:
            object.__setattr__(self, "modulus", tuple(self.modulus))
        else:
            object.__setattr__(self, "modulus", default_modulus(self.q, self.N))
        t = self.t
        v = self.variant
        if self.t1 < 0 or self.t2 < 0:
            raise ParameterError("t1 and t2 must be non-negative")
        if v == Variant.SIMPLE:
            if self.t2 or self.p or self.m_cols:
                raise ParameterError("t2, p, and m_cols do not apply to the SIMPLE variant")
            if self.x_ordinary_rank is not None:
                raise ParameterError("x_ordinary_rank does not apply to the SIMPLE variant")
            if not 1 <= self.t1 <= t:
                raise ParameterError(f"SIMPLE needs 1 <= t1 <= t = {t}, got t1 = {self.t1}")
        else:
            if v in (Variant.EXTENDED, Variant.RECTANGULAR_S):
                if self.t1 < 1:
                    raise ParameterError("the distortion block needs t1 >= 1 columns")
                if self.m_cols:
                    raise ParameterError("m_cols applies only to TWO_DISTORTION")
            else:
                if self.m_cols < 1:
                    raise ParameterError("TWO_DISTORTION needs m_cols >= 1")
            if v == Variant.RECTANGULAR_S:
                if not 1 <= self.p < self.k:
                    raise ParameterError(f"need 1 <= p < k, got p = {self.p}")
            elif self.p:
                raise ParameterError("p applies only to RECTANGULAR_S")
            if self.t2 < 1:
                raise ParameterError("the concatenation variants need an error rank t2 >= 1")
            if self.t1 > self.k * self.N:
                raise ParameterError("distortion column rank t1 cannot exceed k*N")
            rx = self.x_ordinary_rank
            if rx is None:
                rx = min(self.t1, self.k) if self.t1 else None
            if self.t1:
                if not 1 <= rx <= min(self.t1, self.k):
                    raise ParameterError(
                        f"x_ordinary_rank must lie in [1, min(t1, k)] = [1, {min(self.t1, self.k)}]"
                    )
                if self.t1 > rx * self.N:
                    raise ParameterError("column rank t1 cannot exceed x_ordinary_rank * N")
            object.__setattr__(self, "x_ordinary_rank", rx)
        budget_t1 = self.t1 if v in (Variant.SIMPLE, Variant.TWO_DISTORTION) else 0
        budget_t2 = self.t2 if v != Variant.SIMPLE else 0
        if self.scrambler_mode == ScramblerMode.BASE_FIELD:
            if self.s_ext not in (None, 0):
                raise ParameterError("s_ext must be 0 with a base-field scrambler")
            object.__setattr__(self, "s_ext", 0)
        elif self.s_ext is None:
            object.__setattr__(self, "s_ext", t - budget_t1 - budget_t2)
        if self.s_ext < 0 or self.s_ext + budget_t1 + budget_t2 > t:
            raise ParameterError(
                f"decodability budget violated: s_ext + error/distortion ranks = "
                f"{self.s_ext + budget_t1 + budget_t2} exceeds t = {t}"
            )
        if v != Variant.SIMPLE and self.t2 > min(self.pub_cols, self.N):
            raise ParameterError("t2 exceeds the maximal rank of an error vector")

    @property
    def t(self) -> int:
        return (self.n - self.k) // 2

    @property
    def pub_rows(self) -> int:
        return self.k - self.p if self.variant == Variant.RECTANGULAR_S else self.k

    @property
    def pub_cols(self) -> int:
        if self.variant in (Variant.EXTENDED, Variant.RECTANGULAR_S):
            return self.n + self.t1
        if self.variant == Variant.TWO_DISTORTION:
            return self.n + self.m_cols
        return self.n

    @property
    def kept_offset(self) -> int:
        """Leading coordinates of c P^{-1} discarded before decoding."""
        return self.pub_cols - self.n

    @property
    def error_rank(self) -> int:
        return self.t1 if self.variant == Variant.SIMPLE else self.t2

    def field(self) -> FieldCtx:
        return get_field(self.q, self.N, self.modulus)

    def describe_error_set(self) -> str:
        return (
            f"length-{self.pub_cols} vectors over F_{self.q}^{self.N}"
            f" of rank exactly {self.error_rank}"
        )


@dataclass
class GptPublicKey:
    params: GptParams
    matrix: list[list[int]]


@dataclass
class GptPrivateKey:
    params: GptParams
    code: GabidulinCode
    S: list[list[int]]
    S_inv: list[list[int]] | None
    P: list[list[int]]
    P_inv: list[list[int]]


def build_scrambler(ctx, size, s_ext, rng, kept=None, base_field=False):
    """Column scrambler pair (P, P_inv) of the given size.

    With ``base_field`` both matrices lie over F_q.  Otherwise P_inv is
    assembled from size - kept unconstrained extension-field columns (the
    ones a decryptor throws away), s_ext extension-field columns, and
    kept - s_ext base-field columns, with the kept block masked on the
    right by a random invertible base-field matrix.
    """
    if kept is None:
        kept = size
    if not 0 < kept <= size:
        raise ParameterError("kept block size out of range")
    if base_field:
        if s_ext:
            raise ParameterError("a base-field scrambler has no extension-field columns")
        P_inv = random_full_row_rank(ctx, size, size, rng, base_field=True)
        return mat_inv(ctx, P_inv), P_inv
    if not 0 <= s_ext <= kept:
        raise ParameterError(f"s_ext must lie in [0, {kept}]")
    discard = size - kept
    for _ in range(_MAX_DRAWS):
        block = concat_cols(
            random_matrix(ctx, size, s_ext, rng),
            random_matrix(ctx, size, kept - s_ext, rng, base_field=True),
        )
        mask = random_full_row_rank(ctx, kept, kept, rng, base_field=True)
        kept_block = mat_mul(ctx, block, mask)
        if discard:
            P_inv = concat_cols(random_matrix(ctx, size, discard, rng), kept_block)
        else:
            P_inv = kept_block
        if rank_ext(ctx, P_inv) == size:
            return mat_inv(ctx, P_inv), P_inv
    raise ParameterError("failed to draw an invertible scrambler")


def _distortion_matrix(ctx, k, width, col_rank, ord_rank, rng):
    """k x width block of column rank col_rank over F_q and ordinary rank ord_rank."""
    if col_rank == 0:
        return zeros_matrix(k, width)
    for _ in range(_MAX_DRAWS):
        if ord_rank == col_rank:
            C = random_matrix(ctx, k, col_rank, rng)
        else:
            C = mat_mul(
                ctx,
                random_matrix(ctx, k, ord_rank, rng),
                random_matrix(ctx, ord_rank, col_rank, rng),
            )
        if column_rank_over_base(ctx, C) != col_rank or rank_ext(ctx, C) != ord_rank:
            continue
        A = random_full_row_rank(ctx, col_rank, width, rng, base_field=True)
        return mat_mul(ctx, C, A)
    raise ParameterError("failed to draw a distortion block with the requested ranks")


def keygen(params: GptParams, rng=None):
    """Fresh (public, private) key pair; without rng, draws from the OS CSPRNG."""
    if rng is None:
        rng = random.SystemRandom()
    ctx = params.field()
    n, k, v = params.n, params.k, params.variant
    base = params.scrambler_mode == ScramblerMode.BASE_FIELD
    for _ in range(_MAX_DRAWS):
        code = GabidulinCode.random(ctx, n, k, rng)
        if v == Variant.RECTANGULAR_S:
            S = random_full_row_rank(ctx, k - params.p, k, rng)
            S_inv = None
        else:
            S = random_full_row_rank(ctx, k, k, rng)
            S_inv = mat_inv(ctx, S)
        if v == Variant.SIMPLE:
            core = code.G
        elif v in (Variant.EXTENDED, Variant.RECTANGULAR_S):
            X = _distortion_matrix(ctx, k, params.t1, params.t1, params.x_ordinary_rank, rng)
            core = concat_cols(X, code.G)
        else:
            X1 = random_matrix(ctx, k, params.m_cols, rng)
            X2 = _distortion_matrix(ctx, k, n, params.t1, params.x_ordinary_rank, rng)
            core = concat_cols(X1, mat_add(ctx, code.G, X2))
        P, P_inv = build_scrambler(
            ctx, params.pub_cols, params.s_ext, rng, kept=n, base_field=base
        )
        G_pub = mat_mul(ctx, S, mat_mul(ctx, core, P))
        if rank_ext(ctx, G_pub) == params.pub_rows:
            pub = GptPublicKey(params=params, matrix=G_pub)
            priv = GptPrivateKey(
                params=params, code=code, S=S, S_inv=S_inv, P=P, P_inv=P_inv
            )
            return pub, priv
    raise ParameterError("failed to draw a full-rank public key")


def encrypt(pk: GptPublicKey, m, rng=None):
    """c = m G_pub + e with e drawn from the variant's error set.

    Without rng, the error is drawn from the OS CSPRNG.
    """
    if rng is None:
        rng = random.SystemRandom()
    params = pk.params
    if len(m) != params.pub_rows:
        raise ParameterError(f"plaintext length must be {params.pub_rows}, got {len(m)}")
    ctx = params.field()
    for v in m:
        ctx.check_element(v)
    e = sample_error(ctx, params.pub_cols, params.error_rank, rng)
    return vec_add(ctx, vec_mat_mul(ctx, m, pk.matrix), e)


def decrypt(sk: GptPrivateKey, c):
    """Invert the scrambler, decode the kept block, unwind S."""
    params = sk.params
    if len(c) != params.pub_cols:
        raise ParameterError(f"ciphertext length must be {params.pub_cols}, got {len(c)}")
    ctx = params.field()
    inner = vec_mat_mul(ctx, c, sk.P_inv)
    kept = inner[params.kept_offset :]
    u, _ = sk.code.decode(kept)
    if params.variant == Variant.RECTANGULAR_S:
        try:
            return solve_linear(ctx, transpose(sk.S), u)
        except ValueError:
            raise DecodeFailure("decoded word does not match the row scrambler") from None
    return vec_mat_mul(ctx, u, sk.S_inv)


def lemma1_check(sk: GptPrivateKey, e) -> int:
    """Rank over F_q of the block of e P^{-1} that the decoder consumes.

    The leading ``kept_offset`` coordinates are discarded before decoding
    and may carry arbitrary rank; the budget s_ext + error rank <= t bounds
    only the kept slice, and that bound is what keeps decryption inside
    the decoding radius.
    """
    params = sk.params
    if len(e) != params.pub_cols:
        raise ParameterError(f"error length must be {params.pub_cols}, got {len(e)}")
    ctx = params.field()
    inner = vec_mat_mul(ctx, e, sk.P_inv)
    return rank_over_base(ctx, inner[params.kept_offset :])


def public_key_size_bits(params: GptParams) -> float:
    bits = params.pub_rows * params.pub_cols * params.N * math.log2(params.q)
    return round(bits, 6)


_PRESETS = {
    # recommended hardened setting at length 28
    "paper-28": dict(q=2, N=28, n=28, k=14, t1=3, s_ext=4),
    # small setting for tests and demos
    "desk-12": dict(q=2, N=12, n=12, k=6, t1=2, s_ext=1),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset(name: str, **overrides) -> GptParams:
    """Named parameter set, with optional field overrides."""
    try:
        base = dict(_PRESETS[name])
    except KeyError:
        raise ParameterError(
            f"unknown preset {name!r} (available: {', '.join(PRESET_NAMES)})"
        ) from None
    base.update(overrides)
    return GptParams(**base)
