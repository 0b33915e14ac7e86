"""The GPT public-key cryptosystem over Gabidulin codes.

The public key is a disguised generator matrix G_pub = S [X1 | G + X2] P:
X1 fills the ``kept_offset`` columns left of the k x n Gabidulin generator
G, and X2 lies on G.  The variants, named by their classical numbers,
differ only in X1, X2 and S:

* ``SIMPLE`` (3): no X1 and X2 = 0; ciphertext error of rank exactly t1.
* ``EXTENDED`` (4): X1 is k x t1 of column rank t1 over F_q and X2 = 0;
  ciphertext error of rank exactly t2.
* ``RECTANGULAR_S`` (5): as EXTENDED but S is (k - p) x k of full row rank,
  so plaintexts are shorter than k.
* ``TWO_DISTORTION`` (6): X1 is an arbitrary k x m_cols block and X2 is
  k x n of column rank t1 over F_q.

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

A private key is its file's (params, g, S, P, P^{-1}), which ``==`` compares;
`GptPrivateKey` derives the code of g and a k x k map W with S W = [I | 0]
once, so every variant decrypts alike: undo P, decode, multiply by W.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass

from .errors import DecodeFailure, ParameterError
from .fields import FieldCtx, field_modulus, get_field
from .gabidulin import GabidulinCode
from .linalg import (
    FixedMatrix,
    _transform,
    base_product,
    base_transform,
    column_rank_over_base,
    concat_cols,
    independent_elements,
    mat_add,
    mat_inv,
    mat_mul,
    rank_ext,
    random_full_row_rank,
    random_matrix,
    rank_over_base,
    sample_error,
    transpose,
    vec_add,
    vec_mat_mul,
    vec_sub,
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


def _parse_member(cls, value, what: str):
    """The member of the enum cls that value spells, else ParameterError."""
    if isinstance(value, cls):
        return value
    try:  # the exact value first: every key load passes one
        return cls(value)
    except ValueError:
        name = str(value).strip().upper().replace("-", "_")
    # the name in any case, with - for _; a variant's number; or a compatibility spelling
    name = next((m.name for m in cls if name.isdigit() and m == int(name)), name)
    name = {"BASE": "BASE_FIELD", "EXTENSION_FIELD_V": "EXTENSION_FIELD"}.get(name, name)
    try:
        return cls[name]
    except KeyError:
        raise ParameterError(f"unknown {what} {value!r}") from None


class Variant(enum.IntEnum):
    SIMPLE = 3
    EXTENDED = 4
    RECTANGULAR_S = 5
    TWO_DISTORTION = 6

    @classmethod
    def parse(cls, value) -> "Variant":
        return _parse_member(cls, value, "variant")


class ScramblerMode(str, enum.Enum):
    BASE_FIELD = "base_field"
    EXTENSION_FIELD = "extension_field"

    @classmethod
    def parse(cls, value) -> "ScramblerMode":
        return _parse_member(cls, value, "scrambler mode")


# the least value of each count a variant takes; a count it does not take must be 0
_COUNT_FLOORS = {
    Variant.SIMPLE: {"t1": 1},
    Variant.EXTENDED: {"t1": 1, "t2": 1},
    Variant.RECTANGULAR_S: {"t1": 1, "t2": 1, "p": 1},
    Variant.TWO_DISTORTION: {"t1": 0, "t2": 1, "m_cols": 1},
}


@dataclass(frozen=True)
class GptParams:
    """Validated parameter set for one key pair.

    ``t1`` is the ciphertext error rank for SIMPLE and the distortion
    column rank for the other variants; those use ``t2`` as the error rank
    instead.  A variant's counts are at least their `_COUNT_FLOORS` and the
    counts it does not take are 0, so every ciphertext carries an error.
    ``s_ext`` is the number of extension-field columns inside the kept
    block of P^{-1}; it defaults to what the decodability budget
    s_ext + error_rank + overlay_rank <= t leaves.  ``x_ordinary_rank`` is
    the ordinary rank of the distortion block (defaults to min(t1, k)).
    ``modulus`` is kept in the normal form of `fields.field_modulus`, so
    every spelling of one field is equal.
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
        object.__setattr__(self, "modulus", field_modulus(self.q, self.N, self.modulus))
        if not 1 <= self.k < self.n <= self.N:
            raise ParameterError(f"need 1 <= k < n <= N, got k={self.k}, n={self.n}, N={self.N}")
        if self.n - self.k < 2:
            raise ParameterError("need n - k >= 2 so the code corrects at least one rank error")
        v = self.variant
        floors = _COUNT_FLOORS[v]
        for name in ("t1", "t2", "p", "m_cols"):
            value = getattr(self, name)
            if name in floors and value < floors[name]:
                raise ParameterError(f"{v.name} needs {name} >= {floors[name]}, got {value}")
            if name not in floors and value:
                raise ParameterError(f"{name} does not apply to the {v.name} variant")
        if self.p >= self.k:
            raise ParameterError(f"need p < k, got p = {self.p}")
        rx = self.x_ordinary_rank
        if v != Variant.SIMPLE and self.t1:
            top = min(self.t1, self.k)
            rx = top if rx is None else rx
            if not 1 <= rx <= top:
                raise ParameterError(f"x_ordinary_rank must lie in [1, min(t1, k)] = [1, {top}]")
            if self.t1 > rx * self.N:
                raise ParameterError("column rank t1 cannot exceed x_ordinary_rank * N")
            object.__setattr__(self, "x_ordinary_rank", rx)
        elif rx is not None:
            raise ParameterError("x_ordinary_rank needs a distortion block, t1 >= 1")
        # the budget also caps the error rank at t < n <= min(pub_cols, N),
        # so an error of that rank always exists
        t = self.t
        spent = self.error_rank + self.overlay_rank
        if self.scrambler_mode == ScramblerMode.BASE_FIELD:
            if self.s_ext not in (None, 0):
                raise ParameterError("s_ext must be 0 with a base-field scrambler")
            object.__setattr__(self, "s_ext", 0)
        elif self.s_ext is None:
            object.__setattr__(self, "s_ext", t - spent)
        if self.s_ext < 0 or self.s_ext + spent > t:
            raise ParameterError(
                f"decodability budget: need s_ext >= 0 and s_ext + error rank + overlay rank"
                f" <= t, got {self.s_ext} + {self.error_rank} + {self.overlay_rank}, t = {t}"
            )

    @property
    def t(self) -> int:
        return (self.n - self.k) // 2

    @property
    def pub_rows(self) -> int:
        return self.k - self.p

    @property
    def pub_cols(self) -> int:
        """n plus the block left of the code: t1 columns for variants 4-5, else m_cols."""
        concatenated = (Variant.EXTENDED, Variant.RECTANGULAR_S)
        return self.n + (self.t1 if self.variant in concatenated else self.m_cols)

    @property
    def kept_offset(self) -> int:
        """Leading coordinates of c P^{-1} discarded before decoding."""
        return self.pub_cols - self.n

    @property
    def error_rank(self) -> int:
        return self.t1 if self.variant == Variant.SIMPLE else self.t2

    @property
    def overlay_rank(self) -> int:
        """Column rank of X2, the distortion added onto the code (variant 6)."""
        return self.t1 if self.variant == Variant.TWO_DISTORTION else 0

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
    """params, g, S, P and P_inv, as the key file stores them; ``==`` compares them.

    Construction builds ``code`` from g (ParameterError for a bad g) and
    ``unscramble`` = W from S: u W = [m | 0] exactly when u = m S, so W = S^{-1}
    for a square S.  ValueError when S does not have full row rank.
    """

    params: GptParams
    g: list[int]
    S: list[list[int]]
    P: list[list[int]]
    P_inv: list[list[int]]

    def __post_init__(self):
        ctx = self.params.field()
        self.code = GabidulinCode(ctx, self.g, self.params.k)
        self.P_inv = FixedMatrix(self.P_inv)
        # T S^T = [I; 0] with T invertible, so S T^T = [I | 0]
        T = _transform(ctx, transpose(self.S), "row scrambler does not have full row rank")
        self.unscramble = FixedMatrix(transpose(T))


def _times_base(ctx, B, A):
    """B A for A over F_q, as (A^T B^T)^T."""
    return transpose(base_product(ctx, transpose(A), transpose(B)))


def _split_inverse(ctx, X, F):
    """[X | F]^{-1} for F over F_q, inverting over F_{q^N} only an x x x block.

    With T F = [I; 0], T [X | F] = [[C1, I], [C2, 0]], whose inverse is
    [[0, C2^{-1}], [I, -C1 C2^{-1}]]; x is X's width, the rows of C2.
    Raises ValueError when [X | F] is singular: exactly when F's columns are
    dependent or C2 is singular.
    """
    T = base_transform(ctx, F)
    f = len(F[0])
    if f == len(F):  # X has no columns
        return T
    TX = base_product(ctx, T, X)
    Y = mat_mul(ctx, mat_inv(ctx, TX[f:]), T[f:])
    if not f:
        return Y
    return Y + [vec_sub(ctx, t, cy) for t, cy in zip(T, mat_mul(ctx, TX[:f], Y))]


def build_scrambler(ctx, size, s_ext, rng, kept=None, base_field=False):
    """Column scrambler pair (P, P_inv) of the given size.

    With ``base_field`` both matrices lie over F_q.  Otherwise P_inv is
    [X | F] diag(I, mask): X = [R | E] holds size - kept unconstrained
    extension-field columns R (the ones a decryptor throws away) and s_ext
    extension-field columns E, F holds kept - s_ext base-field columns, and
    the random invertible base-field mask mixes the kept block [E | F].
    P is diag(I, mask^{-1}) [X | F]^{-1}, whose only inverse over F_{q^N}
    is that of an x x x block, x the width of X (see ``_split_inverse``).
    """
    if kept is None:
        kept = size
    if not 0 < kept <= size:
        raise ParameterError("kept block size out of range")
    if base_field:
        if s_ext:
            raise ParameterError("a base-field scrambler has no extension-field columns")
        # most square draws over F_2 are singular; a rank test rejects them before any inverse
        P_inv = random_full_row_rank(ctx, size, size, rng, base_field=True)
        return base_transform(ctx, P_inv), P_inv
    if not 0 <= s_ext <= kept:
        raise ParameterError(f"s_ext must lie in [0, {kept}]")
    for _ in range(_MAX_DRAWS):
        E = random_matrix(ctx, size, s_ext, rng)
        F = random_matrix(ctx, size, kept - s_ext, rng, base_field=True)
        mask = random_full_row_rank(ctx, kept, kept, rng, base_field=True)
        # with nothing discarded R has no columns and draws nothing
        R = random_matrix(ctx, size, size - kept, rng)
        try:
            W = _split_inverse(ctx, concat_cols(R, E), F)
        except ValueError:  # a singular draw
            continue
        d = size - kept
        P = W[:d] + base_product(ctx, base_transform(ctx, mask), W[d:])
        return P, concat_cols(R, _times_base(ctx, concat_cols(E, F), mask))
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
        return _times_base(ctx, C, A)
    raise ParameterError("failed to draw a distortion block with the requested ranks")


def keygen(params: GptParams, rng=None):
    """Fresh (public, private) key pair; without rng, draws from the OS CSPRNG."""
    if rng is None:
        rng = random.SystemRandom()
    ctx = params.field()
    n, k = params.n, params.k
    base = params.scrambler_mode == ScramblerMode.BASE_FIELD
    g = independent_elements(ctx, n, rng)
    S = random_full_row_rank(ctx, params.pub_rows, k, rng)
    # core = [X1 | G + X2]; a block of rank 0 is zero and draws nothing
    w, rx = params.kept_offset, params.x_ordinary_rank
    if params.variant == Variant.TWO_DISTORTION:
        X1 = random_matrix(ctx, k, w, rng)
    else:
        X1 = _distortion_matrix(ctx, k, w, w, rx, rng)
    X2 = _distortion_matrix(ctx, k, n, params.overlay_rank, rx, rng)
    P, P_inv = build_scrambler(
        ctx, params.pub_cols, params.s_ext, rng, kept=n, base_field=base
    )
    priv = GptPrivateKey(params, g, S, P, P_inv)
    core = concat_cols(X1, mat_add(ctx, priv.code.G, X2))
    # one draw always has full row rank: S does, P is invertible and core has
    # rank k.  Variants 3-5 hold G; for variant 6, y (G + X2) = 0 with y != 0
    # would equate the codeword y G, of rank >= n - k + 1, with -y X2, of rank
    # <= t1 <= t (GptParams puts t1 in the decoding budget)
    G_pub = FixedMatrix(mat_mul(ctx, S, mat_mul(ctx, core, P)))
    return GptPublicKey(params=params, matrix=G_pub), priv


def _checked_field(params: GptParams, v, length: int, what: str) -> FieldCtx:
    """The field of params, once v is checked to be a length-long vector over it."""
    if len(v) != length:
        raise ParameterError(f"{what} length must be {length}, got {len(v)}")
    ctx = params.field()
    for a in v:
        ctx.check_element(a)
    return ctx


def encrypt(pk: GptPublicKey, m, rng=None):
    """c = m G_pub + e with e drawn from the variant's error set.

    Without rng, the error is drawn from the OS CSPRNG.
    """
    if rng is None:
        rng = random.SystemRandom()
    params = pk.params
    ctx = _checked_field(params, m, params.pub_rows, "plaintext")
    e = sample_error(ctx, params.pub_cols, params.error_rank, rng)
    return vec_add(ctx, vec_mat_mul(ctx, m, pk.matrix), e)


def decrypt(sk: GptPrivateKey, c):
    """Invert the scrambler, decode the kept block, unwind S."""
    params = sk.params
    ctx = _checked_field(params, c, params.pub_cols, "ciphertext")
    inner = vec_mat_mul(ctx, c, sk.P_inv)
    u, _ = sk.code.decode(inner[params.kept_offset :])
    m = vec_mat_mul(ctx, u, sk.unscramble)
    if any(m[params.pub_rows :]):
        raise DecodeFailure("decoded word is outside S's row space", "row_scrambler")
    return m[: params.pub_rows]


def lemma1_check(sk: GptPrivateKey, e) -> int:
    """Rank over F_q of the block of e P^{-1} that the decoder consumes.

    The leading ``kept_offset`` coordinates are discarded before decoding
    and may carry arbitrary rank; the budget s_ext + error rank <= t bounds
    only the kept slice, and that bound is what keeps decryption inside
    the decoding radius.
    """
    params = sk.params
    ctx = _checked_field(params, e, params.pub_cols, "error")
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
