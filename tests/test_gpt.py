"""Key generation, encryption, decryption, and the scrambler rank budget."""

import random

import pytest

from gptrank import gpt
from gptrank.attacks import distinguish_public_key, distinguisher_trials
from gptrank.errors import DecodeFailure, ParameterError
from gptrank.gpt import (
    GptParams,
    GptPrivateKey,
    GptPublicKey,
    ScramblerMode,
    Variant,
    build_scrambler,
    decrypt,
    encrypt,
    keygen,
    lemma1_check,
    preset,
    public_key_size_bits,
)
from gptrank.fields import FieldCtx, get_field
from gptrank.keyfiles import load_private_key, load_public_key, save_private_key, save_public_key
from gptrank.linalg import (
    column_rank_over_base,
    concat_cols,
    identity_matrix,
    mat_inv,
    mat_mul,
    random_full_row_rank,
    random_matrix,
    rank_ext,
    rank_over_base,
    sample_error,
    solve_linear,
    transpose,
    vec_mat_mul,
    vec_sub,
)
from parameter_sweep import sweep_grid, sweep_params

DESK = dict(q=2, N=12, n=12, k=6)

VARIANT_CASES = [
    GptParams(**DESK, t1=2, s_ext=1),
    GptParams(**DESK, t1=1, t2=2, s_ext=1, variant=4),
    GptParams(**DESK, t1=1, t2=2, s_ext=1, variant=5, p=1),
    GptParams(**DESK, t1=1, t2=1, s_ext=1, variant=6, m_cols=2),
]


def rand_message(params, rng):
    ctx = params.field()
    return [ctx.rand_elem(rng) for _ in range(params.pub_rows)]


# -- parameter validation ------------------------------------------------


def test_defaults_fill_the_decodability_budget():
    p3 = GptParams(q=2, N=28, n=28, k=14, t1=3)
    assert p3.t == 7 and p3.s_ext == 4
    p4 = GptParams(**DESK, t1=1, t2=1, variant=4)
    assert p4.s_ext == p4.t - 1
    p6 = GptParams(**DESK, t1=1, t2=1, variant=6, m_cols=1)
    assert p6.s_ext == p6.t - 2


def test_simple_variant_needs_an_error():
    with pytest.raises(ParameterError):
        GptParams(**DESK, t1=0)
    with pytest.raises(ParameterError):
        GptParams(**DESK, t1=0, scrambler_mode="base_field")


def test_concatenation_variants_need_an_error():
    with pytest.raises(ParameterError):
        GptParams(**DESK, t1=1, variant=4)
    with pytest.raises(ParameterError):
        GptParams(**DESK, t1=1, t2=0, variant=5, p=1)
    with pytest.raises(ParameterError):
        GptParams(**DESK, t1=1, t2=0, variant=6, m_cols=1)
    assert "rank exactly 2" in VARIANT_CASES[1].describe_error_set()


@pytest.mark.parametrize(
    "name", ["q", "N", "n", "k", "t1", "t2", "p", "m_cols", "s_ext", "x_ordinary_rank"]
)
def test_every_count_must_be_a_plain_int(name):
    # a float count would fail in keygen with a TypeError, and a bool one
    # would make key files that do not load
    kwargs = dict(q=2, N=14, n=14, k=6, t1=2, t2=1, variant=6, m_cols=2, s_ext=1,
                  x_ordinary_rank=1)  # fmt: skip
    if name == "p":
        kwargs = dict(q=2, N=12, n=12, k=6, t1=1, t2=2, variant=5, p=1, s_ext=1)
    GptParams(**kwargs)
    for bad in (float(kwargs[name]), bool(kwargs[name])):
        with pytest.raises(ParameterError, match=f"^{name} must be an int"):
            GptParams(**{**kwargs, name: bad})


def test_a_hand_built_public_key_keeps_its_product_kernel():
    pub, _ = keygen(preset("desk-12"), random.Random(3))
    built = GptPublicKey(pub.params, [list(row) for row in pub.matrix])
    encrypt(built, [1] * pub.params.pub_rows, random.Random(4))
    assert built.matrix.times is not None
    assert GptPublicKey(pub.params, built.matrix).matrix is built.matrix


def test_field_must_fit_a_machine_word():
    # the same 64-bit limit as FieldCtx, so analyze cannot accept a field
    # that keygen then refuses
    with pytest.raises(ParameterError):
        GptParams(q=2, N=70, n=70, k=40, t1=2)
    with pytest.raises(ParameterError):
        GptParams(q=3, N=41, n=41, k=30, t1=2)
    with pytest.raises(ValueError):
        FieldCtx(q=3, N=41)
    assert GptParams(q=2, N=64, n=64, k=40, t1=2).N == 64
    assert GptParams(q=3, N=40, n=40, k=30, t1=2).N == 40


def test_unseeded_calls_draw_from_the_os_csprng(monkeypatch):
    made = []

    class Recording(random.SystemRandom):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(random, "SystemRandom", Recording)
    params = VARIANT_CASES[0]
    pub, _ = keygen(params)
    assert len(made) == 1
    encrypt(pub, rand_message(params, random.Random(1)))
    assert len(made) == 2
    distinguisher_trials(params, trials=1)
    assert len(made) == 3


def test_budget_overflow_rejected():
    with pytest.raises(ParameterError):
        GptParams(**DESK, t1=4)  # t1 > t
    with pytest.raises(ParameterError):
        GptParams(**DESK, t1=2, s_ext=2)  # 2 + 2 > t = 3
    with pytest.raises(ParameterError):
        GptParams(**DESK, t1=1, t2=2, s_ext=2, variant=4)  # 2 + 2 > 3
    with pytest.raises(ParameterError):
        GptParams(**DESK, t1=2, t2=1, s_ext=1, variant=6, m_cols=1)  # 1+2+1 > 3


def test_base_field_mode_forbids_extension_columns():
    p = GptParams(**DESK, t1=3, scrambler_mode="base_field")
    assert p.s_ext == 0
    with pytest.raises(ParameterError):
        GptParams(**DESK, t1=2, s_ext=1, scrambler_mode="base_field")
    # the full radius is available when no budget goes to the scrambler
    assert GptParams(**DESK, t1=3, scrambler_mode="base_field").t1 == 3


def test_variant_field_applicability():
    with pytest.raises(ParameterError):
        GptParams(**DESK, t1=2, t2=1)  # t2 without a concatenation variant
    with pytest.raises(ParameterError):
        GptParams(**DESK, t1=1, t2=1, variant=4, p=1)  # p needs variant 5
    with pytest.raises(ParameterError):
        GptParams(**DESK, t1=1, t2=1, variant=4, m_cols=2)  # m_cols needs 6
    with pytest.raises(ParameterError):
        GptParams(**DESK, t1=1, t2=1, variant=5)  # p required
    with pytest.raises(ParameterError):
        GptParams(**DESK, t1=1, t2=1, variant=6)  # m_cols required
    with pytest.raises(ParameterError, match="need p < k"):
        GptParams(**DESK, t1=1, t2=2, variant=5, p=6)


def test_code_must_correct_one_error():
    with pytest.raises(ParameterError, match="n - k >= 2"):
        GptParams(q=2, N=12, n=12, k=11, t1=1)


def test_variant_and_mode_parsing():
    assert Variant.parse("simple") == Variant.SIMPLE
    assert Variant.parse(4) == Variant.EXTENDED
    assert Variant.parse("rectangular_s") == Variant.RECTANGULAR_S
    assert Variant.parse("6") == Variant.TWO_DISTORTION
    assert Variant.parse(" Two-Distortion ") == Variant.TWO_DISTORTION
    assert Variant.parse("EXTENDED") == Variant.EXTENDED
    for bad in ("7", "simples", "variant"):
        with pytest.raises(ParameterError):
            Variant.parse(bad)
    assert ScramblerMode.parse("extension_field_V") == ScramblerMode.EXTENSION_FIELD
    assert ScramblerMode.parse("base") == ScramblerMode.BASE_FIELD
    with pytest.raises(ParameterError):
        ScramblerMode.parse("ext??")


SPELLINGS = [
    (Variant, Variant.TWO_DISTORTION, Variant.TWO_DISTORTION),
    (Variant, 3, Variant.SIMPLE),
    (Variant, "5", Variant.RECTANGULAR_S),
    (Variant, " 06 ", Variant.TWO_DISTORTION),
    (Variant, "extended", Variant.EXTENDED),
    (Variant, "Rectangular-S", Variant.RECTANGULAR_S),
    (Variant, "two-distortion", Variant.TWO_DISTORTION),
    (ScramblerMode, ScramblerMode.BASE_FIELD, ScramblerMode.BASE_FIELD),
    (ScramblerMode, "base_field", ScramblerMode.BASE_FIELD),
    (ScramblerMode, "extension_field", ScramblerMode.EXTENSION_FIELD),
    (ScramblerMode, " BASE_FIELD ", ScramblerMode.BASE_FIELD),
    (ScramblerMode, "base-field", ScramblerMode.BASE_FIELD),
    (ScramblerMode, "Extension-Field", ScramblerMode.EXTENSION_FIELD),
    (ScramblerMode, "Base", ScramblerMode.BASE_FIELD),
    (ScramblerMode, "extension_field_v", ScramblerMode.EXTENSION_FIELD),
]


@pytest.mark.parametrize("enum, spelling, member", SPELLINGS)
def test_every_spelling_parses_to_its_member(enum, spelling, member):
    assert enum.parse(spelling) is member


@pytest.mark.parametrize(
    "enum, spelling, message",
    [
        (Variant, 7, "unknown variant 7"),
        (Variant, "2", "unknown variant '2'"),
        (Variant, "base", "unknown variant 'base'"),
        (ScramblerMode, "3", "unknown scrambler mode '3'"),
        (ScramblerMode, "simple", "unknown scrambler mode 'simple'"),
        (ScramblerMode, "extension", "unknown scrambler mode 'extension'"),
    ],
)
def test_unknown_spellings_are_named(enum, spelling, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        enum.parse(spelling)


def test_parsing_adds_no_members_and_files_keep_the_value_spelling():
    assert list(ScramblerMode) == [ScramblerMode.BASE_FIELD, ScramblerMode.EXTENSION_FIELD]
    params = GptParams(**DESK, t1=2, scrambler_mode="base-field")
    assert params.scrambler_mode.value == "base_field"


def test_x_ordinary_rank_bounds():
    p = GptParams(**DESK, t1=2, t2=1, s_ext=0, variant=4)
    assert p.x_ordinary_rank == 2
    q = GptParams(**DESK, t1=2, t2=1, s_ext=0, variant=4, x_ordinary_rank=1)
    assert q.x_ordinary_rank == 1
    with pytest.raises(ParameterError):
        GptParams(**DESK, t1=2, t2=1, s_ext=0, variant=4, x_ordinary_rank=3)
    # t1 = 13 columns of an ordinary-rank-1 block over F_2^12 have F_2-rank <= 12
    with pytest.raises(ParameterError, match="cannot exceed x_ordinary_rank"):
        GptParams(**DESK, t1=13, t2=1, variant=4, x_ordinary_rank=1)
    # without a distortion block there is no rank to record in the key header
    with pytest.raises(ParameterError, match="distortion block"):
        GptParams(q=2, N=12, n=12, k=4, t1=0, t2=1, variant=6, m_cols=2, x_ordinary_rank=3)


def test_parameter_rules_sweep():
    # every combination of counts around the legal ranges, at desk-12 size:
    # only ParameterError may escape, and what is accepted fits the budget
    accepted = 0
    for v, t1, t2, p, m_cols, mode, s_ext, rx in sweep_grid():
        try:
            params = sweep_params(v, t1, t2, p, m_cols, mode, s_ext, rx)
        except ParameterError:
            continue
        accepted += 1
        error_rank = t1 if v == 3 else t2
        overlay_rank = t1 if v == 6 else 0
        assert 0 <= params.s_ext and params.s_ext + error_rank + overlay_rank <= params.t
        assert mode == "extension_field" or params.s_ext == 0
        assert (params.x_ordinary_rank is None) == (v == 3 or t1 == 0)
    assert accepted == 690


def test_shape_properties():
    p = VARIANT_CASES[1]
    assert (p.pub_rows, p.pub_cols) == (6, 13)
    r = VARIANT_CASES[2]
    assert (r.pub_rows, r.pub_cols) == (5, 13)
    d = VARIANT_CASES[3]
    assert (d.pub_rows, d.pub_cols) == (6, 14)
    assert VARIANT_CASES[0].kept_offset == 0
    assert p.kept_offset == 1 and d.kept_offset == 2


def test_presets():
    p = preset("paper-28")
    assert (p.q, p.N, p.n, p.k, p.t1, p.s_ext) == (2, 28, 28, 28 // 2, 3, 4)
    d = preset("desk-12")
    assert (d.N, d.n, d.k, d.t1, d.s_ext) == (12, 12, 6, 2, 1)
    o = preset("desk-12", t1=1, s_ext=2)
    assert (o.t1, o.s_ext) == (1, 2)
    with pytest.raises(ParameterError):
        preset("desk-99")


def test_presets_leave_s_ext_to_the_budget():
    # paper-28 has t = 7: an extension-field key spends the rest on s_ext
    for t1 in range(1, 8):
        assert preset("paper-28", t1=t1).s_ext == 7 - t1
    assert preset("paper-28", scrambler_mode="base_field").s_ext == 0


def test_public_key_size():
    assert public_key_size_bits(preset("paper-28")) == 10976
    assert public_key_size_bits(preset("desk-12")) == 864


# -- scrambler structure ------------------------------------------------


# variant 6 at the edge of its budget: t1 + t2 = t and no extension columns,
# so X2's column rank is as large as a full-rank public key allows
V6_EDGE = GptParams(q=2, N=12, n=12, k=6, t1=2, t2=1, s_ext=0, variant=6, m_cols=1,
                    x_ordinary_rank=1)


@pytest.mark.parametrize(
    "seed,params",
    [(seed, V6_EDGE) for seed in range(40)] + list(enumerate(VARIANT_CASES, start=40)),
)
def test_one_keygen_draw_has_a_full_rank_public_key(seed, params):
    # keygen draws once and does not check the rank: S has full row rank, P
    # is invertible, and the core has rank k (for variant 6 because a
    # nonzero codeword y G has rank > t >= t1 >= rank y X2)
    rng = random.Random(seed)
    pub, priv = keygen(params, rng)
    assert rank_ext(params.field(), pub.matrix) == params.pub_rows
    m = rand_message(params, rng)
    assert decrypt(priv, encrypt(pub, m, rng)) == m


def test_singular_inverse_scrambler_draws_are_redrawn(monkeypatch):
    # over 40 % of desk-12 draws of [X | F] are singular; _split_inverse
    # rejects them, and build_scrambler draws again
    singular = []

    def counting_inverse(ctx, X, F):
        try:
            return split_inverse(ctx, X, F)
        except ValueError:
            singular.append(concat_cols(X, F))
            raise

    split_inverse = gpt._split_inverse
    monkeypatch.setattr(gpt, "_split_inverse", counting_inverse)
    ctx = get_field(2, 12)
    rng = random.Random(80)
    for _ in range(20):
        P, P_inv = build_scrambler(ctx, 12, 1, rng, kept=12)
        assert mat_mul(ctx, P, P_inv) == identity_matrix(12)
    assert singular and all(rank_ext(ctx, M) < 12 for M in singular)


def test_scrambler_pair_is_inverse():
    ctx = get_field(2, 12)
    rng = random.Random(61)
    for kept, s_ext in ((12, 0), (12, 2), (10, 1)):
        P, P_inv = build_scrambler(ctx, 12, s_ext, rng, kept=kept)
        assert mat_mul(ctx, P, P_inv) == identity_matrix(12)


def reference_scrambler(ctx, size, s_ext, rng, kept, base_field):
    """The scrambler drawn as build_scrambler draws it, inverted whole by mat_inv."""
    if base_field:
        P_inv = random_full_row_rank(ctx, size, size, rng, base_field=True)
        return mat_inv(ctx, P_inv), P_inv
    while True:
        block = concat_cols(
            random_matrix(ctx, size, s_ext, rng),
            random_matrix(ctx, size, kept - s_ext, rng, base_field=True),
        )
        mask = random_full_row_rank(ctx, kept, kept, rng, base_field=True)
        P_inv = concat_cols(random_matrix(ctx, size, size - kept, rng), mat_mul(ctx, block, mask))
        try:
            return mat_inv(ctx, P_inv), P_inv
        except ValueError:
            continue


@pytest.mark.parametrize("q,N", [(2, 12), (2, 28), (3, 5)])
@pytest.mark.parametrize(
    "kept, s_ext, base_field",
    [(9, 0, False), (9, 1, False), (9, 9, False), (6, 0, False), (6, 2, False), (9, 0, True)],
    ids=["kept=size,s_ext=0", "kept=size,s_ext=1", "kept=size,s_ext=kept", "kept<size,s_ext=0",
         "kept<size,s_ext=2", "base_field"],
)
def test_factored_scrambler_inverse_is_the_whole_inverse(q, N, kept, s_ext, base_field):
    # same draws as the reference, and P is the one inverse of P_inv
    ctx = get_field(q, N)
    for seed in range(4):
        got = build_scrambler(ctx, 9, s_ext, random.Random(seed), kept=kept, base_field=base_field)
        want = reference_scrambler(ctx, 9, s_ext, random.Random(seed), kept, base_field)
        assert got == want


def test_base_field_scrambler_is_base_field():
    ctx = get_field(2, 12)
    rng = random.Random(62)
    P, P_inv = build_scrambler(ctx, 12, 0, rng, kept=12, base_field=True)
    assert all(v < ctx.q for M in (P, P_inv) for row in M for v in row)
    assert mat_mul(ctx, P, P_inv) == identity_matrix(12)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(size=12, s_ext=0, kept=0), "kept block size out of range"),
        (dict(size=12, s_ext=0, kept=13), "kept block size out of range"),
        (dict(size=12, s_ext=1, kept=12, base_field=True),
         "a base-field scrambler has no extension-field"),
        (dict(size=12, s_ext=5, kept=4), r"s_ext must lie in \[0, 4\]"),
    ],
    ids=["kept 0", "kept size + 1", "base field with s_ext", "s_ext over kept"],
)
def test_scrambler_refusals_name_their_reason(kwargs, message):
    with pytest.raises(ParameterError, match=message):
        build_scrambler(get_field(2, 12), rng=random.Random(66), **kwargs)


class ZeroRandom(random.Random):
    """Draws every extension-field entry as 0, so every such draw is singular."""

    def randrange(self, *args):
        return 0


def test_draw_loops_give_up_after_max_draws():
    ctx = get_field(2, 12)
    with pytest.raises(ParameterError, match="failed to draw an invertible scrambler"):
        build_scrambler(ctx, 12, 1, ZeroRandom(67), kept=12)
    with pytest.raises(ParameterError, match="failed to draw a distortion block"):
        gpt._distortion_matrix(ctx, 6, 2, 2, 2, ZeroRandom(67))


def test_distortion_block_failing_the_column_rank_is_redrawn(monkeypatch):
    # at seed 32 the first C of this key has column rank 1 over F_q, not 2
    ranks = []

    def counting_rank(ctx, M):
        ranks.append(column_rank_over_base(ctx, M))
        return ranks[-1]

    monkeypatch.setattr(gpt, "column_rank_over_base", counting_rank)
    params = GptParams(q=2, N=8, n=8, k=2, t1=2, variant=6, t2=1, m_cols=1,
                       x_ordinary_rank=1, s_ext=0)
    rng = random.Random(32)
    pub, priv = keygen(params, rng)
    assert ranks == [1, 2]
    m = rand_message(params, rng)
    assert decrypt(priv, encrypt(pub, m, rng)) == m


def test_scrambled_error_rank_obeys_budget():
    # rank(e P_inv restricted to the kept block) <= rank(e) + s_ext
    ctx = get_field(2, 12)
    rng = random.Random(63)
    size, kept, s_ext = 14, 12, 2
    P, P_inv = build_scrambler(ctx, size, s_ext, rng, kept=kept)
    for r in (1, 2, 3):
        for _ in range(40):
            e = sample_error(ctx, size, r, rng)
            y = vec_mat_mul(ctx, e, P_inv)[size - kept :]
            assert rank_over_base(ctx, y) <= r + s_ext


def test_base_field_scrambler_preserves_rank_exactly():
    ctx = get_field(2, 12)
    rng = random.Random(64)
    P, P_inv = build_scrambler(ctx, 12, 0, rng, kept=12, base_field=True)
    for r in (1, 2, 4):
        e = sample_error(ctx, 12, r, rng)
        assert rank_over_base(ctx, vec_mat_mul(ctx, e, P_inv)) == r


def test_unbudgeted_extension_scrambler_breaks_the_radius():
    # an all-extension inverse scrambler inflates error ranks past t,
    # which is why s_ext has to be budgeted at all
    ctx = get_field(2, 12)
    rng = random.Random(65)
    P, P_inv = build_scrambler(ctx, 12, 12, rng, kept=12)
    t = (12 - 6) // 2
    blown = 0
    for _ in range(50):
        e = sample_error(ctx, 12, 2, rng)
        if rank_over_base(ctx, vec_mat_mul(ctx, e, P_inv)) > t:
            blown += 1
    assert blown > 0


# -- keygen, encrypt, decrypt ------------------------------------------------


@pytest.mark.parametrize("params", VARIANT_CASES, ids=lambda p: f"variant{int(p.variant)}")
def test_roundtrip_extension_scrambler(params):
    rng = random.Random(int(params.variant))
    pub, priv = keygen(params, rng)
    assert len(pub.matrix) == params.pub_rows
    assert all(len(row) == params.pub_cols for row in pub.matrix)
    assert rank_ext(params.field(), pub.matrix) == params.pub_rows
    for _ in range(20):
        m = rand_message(params, rng)
        c = encrypt(pub, m, rng)
        assert decrypt(priv, c) == m


@pytest.mark.parametrize("params", VARIANT_CASES, ids=lambda p: f"variant{int(p.variant)}")
def test_roundtrip_base_field_scrambler(params):
    from dataclasses import replace

    base = replace(params, scrambler_mode=ScramblerMode.BASE_FIELD, s_ext=0)
    rng = random.Random(100 + int(params.variant))
    pub, priv = keygen(base, rng)
    for _ in range(10):
        m = rand_message(base, rng)
        c = encrypt(pub, m, rng)
        assert decrypt(priv, c) == m


def test_variant6_without_a_distortion_block(tmp_path):
    # t1 = 0: X2 is the zero block, so the m_cols extra columns carry only the scrambler
    params = GptParams(**DESK, t1=0, variant=6, t2=2, m_cols=2)
    assert params.x_ordinary_rank is None and params.pub_cols == 14
    rng = random.Random(3)
    pub, priv = keygen(params, rng)
    for _ in range(20):
        m = rand_message(params, rng)
        assert decrypt(priv, encrypt(pub, m, rng)) == m
    for fmt in ("bin", "hex", "json"):
        save_public_key(tmp_path / "pub", pub, fmt)
        save_private_key(tmp_path / "priv", priv, fmt)
        loaded_pub = load_public_key(tmp_path / "pub")
        loaded_priv = load_private_key(tmp_path / "priv")
        assert (loaded_pub.params, loaded_pub.matrix) == (params, pub.matrix)
        assert (loaded_priv.params, loaded_priv.code.g) == (params, priv.code.g)
        assert (loaded_priv.S, loaded_priv.P) == (priv.S, priv.P)
    result = distinguish_public_key(pub)
    assert (result.u, result.observed_rank, result.full_rank) == (5, 14, 14)
    assert not result.distinguishable


@pytest.mark.parametrize("N", [40, 64])
def test_roundtrip_in_a_field_wider_than_32_bits(N):
    # 128-bit lanes in the packed scalar-times-row kernel of the decoder
    params = GptParams(q=2, N=N, n=12, k=6, t1=2)
    rng = random.Random(N)
    pub, priv = keygen(params, rng)
    for _ in range(5):
        m = rand_message(params, rng)
        assert decrypt(priv, encrypt(pub, m, rng)) == m


def test_simple_ciphertext_error_has_exact_rank():
    params = VARIANT_CASES[0]
    rng = random.Random(67)
    pub, priv = keygen(params, rng)
    ctx = params.field()
    for _ in range(20):
        m = rand_message(params, rng)
        c = encrypt(pub, m, rng)
        e = vec_sub(ctx, c, vec_mat_mul(ctx, m, pub.matrix))
        assert rank_over_base(ctx, e) == params.t1


def test_concatenation_variants_bound_error_rank():
    # a rank-0 error would leave the plaintext to a linear solve on the
    # public key, so every variant-4 error has rank exactly t2
    params = VARIANT_CASES[1]
    rng = random.Random(68)
    pub, priv = keygen(params, rng)
    ctx = params.field()
    for _ in range(300):
        m = rand_message(params, rng)
        c = encrypt(pub, m, rng)
        e = vec_sub(ctx, c, vec_mat_mul(ctx, m, pub.matrix))
        assert rank_over_base(ctx, e) == params.t2


PLAIN_SOLVE_CASES = {
    "desk12": (lambda: preset("desk-12"), 81),
    "desk12-basefield": (lambda: preset("desk-12", scrambler_mode="base_field", s_ext=0), 82),
    "paper28": (lambda: preset("paper-28"), 83),
    "v4": (lambda: GptParams(**DESK, t1=2, t2=2, s_ext=1, variant=4), 84),
    "v5": (lambda: GptParams(**DESK, t1=1, t2=2, s_ext=1, variant=5, p=1), 85),
    "v6": (
        lambda: GptParams(
            q=2, N=14, n=14, k=6, t1=2, t2=1, s_ext=1, variant=6, m_cols=2, x_ordinary_rank=1
        ),
        86,
    ),
    "q3": (lambda: GptParams(q=3, N=6, n=6, k=2, t1=1, s_ext=1), 87),
}


@pytest.mark.parametrize("name", PLAIN_SOLVE_CASES)
def test_plain_linear_solve_does_not_recover_the_plaintext(name):
    # c = m G_pub + e is inconsistent as a linear system in m: only the
    # error stands between a public-key holder and the plaintext
    make_params, seed = PLAIN_SOLVE_CASES[name]
    params = make_params()
    rng = random.Random(seed)
    pub, _ = keygen(params, rng)
    ctx = params.field()
    for _ in range(20):
        c = encrypt(pub, rand_message(params, rng), rng)
        with pytest.raises(ValueError):
            solve_linear(ctx, transpose(pub.matrix), c)


def test_lemma_one_rank_budget_all_variants():
    for params in VARIANT_CASES:
        rng = random.Random(200 + int(params.variant))
        _, priv = keygen(params, rng)
        ctx = params.field()
        for _ in range(50):
            e = sample_error(ctx, params.pub_cols, params.error_rank, rng)
            assert lemma1_check(priv, e) <= params.t


def test_rectangular_message_is_shorter():
    params = VARIANT_CASES[2]
    assert params.pub_rows == params.k - params.p
    rng = random.Random(69)
    pub, priv = keygen(params, rng)
    m = rand_message(params, rng)
    assert len(m) == 5
    assert decrypt(priv, encrypt(pub, m, rng)) == m


def test_odd_q_rectangular_row_scrambler_map():
    # S W = [I | 0], and seeded round trips decrypt through W
    params = GptParams(q=3, N=8, n=8, k=4, t1=1, t2=1, p=1, variant=5)
    rng = random.Random(76)
    pub, priv = keygen(params, rng)
    ctx, k, rows = params.field(), params.k, params.pub_rows
    assert mat_mul(ctx, priv.S, priv.unscramble) == [
        row + [0] * (k - rows) for row in identity_matrix(rows)
    ]
    for _ in range(5):
        m = rand_message(params, rng)
        assert decrypt(priv, encrypt(pub, m, rng)) == m


@pytest.mark.parametrize("params", [VARIANT_CASES[0], VARIANT_CASES[2]], ids=["square", "v5"])
def test_a_rank_deficient_row_scrambler_is_refused(params):
    _, priv = keygen(params, random.Random(77))
    S = [priv.S[0]] + priv.S[:-1]  # the first row twice
    with pytest.raises(ValueError, match="row scrambler does not have full row rank"):
        GptPrivateKey(params, priv.g, S, priv.P, priv.P_inv)


def test_locators_outside_the_field_are_refused():
    # several negative locators once sent the F_2 rank test into an endless loop
    params = VARIANT_CASES[0]
    _, priv = keygen(params, random.Random(77))
    for g in ([-1] + priv.g[1:], [-1, -2, -3] + priv.g[3:]):
        with pytest.raises(ParameterError, match="locator vector holds a value outside F_2"):
            GptPrivateKey(params, g, priv.S, priv.P, priv.P_inv)


def test_garbage_ciphertext_fails_loudly():
    params = VARIANT_CASES[0]
    rng = random.Random(70)
    pub, priv = keygen(params, rng)
    ctx = params.field()
    failures = 0
    for _ in range(20):
        junk = [ctx.rand_elem(rng) for _ in range(params.pub_cols)]
        try:
            decrypt(priv, junk)
        except DecodeFailure:
            failures += 1
    assert failures >= 18  # a random word essentially never sits near the code


def test_a_word_outside_the_row_scrambler_fails_at_that_stage():
    params = VARIANT_CASES[2]  # variant 5: S has k - 1 rows
    rng = random.Random(75)
    pub, priv = keygen(params, rng)
    ctx = params.field()
    u = [ctx.rand_elem(rng) for _ in range(params.k)]
    assert rank_ext(ctx, priv.S + [u]) == params.k
    # a codeword of u, with no error, decodes to u, which no plaintext gives
    inner = [ctx.rand_elem(rng) for _ in range(params.kept_offset)] + priv.code.encode(u)
    with pytest.raises(DecodeFailure) as info:
        decrypt(priv, vec_mat_mul(ctx, inner, priv.P))
    assert info.value.stage == "row_scrambler"


def test_encrypt_validates_input():
    params = VARIANT_CASES[0]
    rng = random.Random(71)
    pub, priv = keygen(params, rng)
    with pytest.raises(ParameterError):
        encrypt(pub, [0] * (params.pub_rows + 1), rng)
    with pytest.raises(ValueError):
        encrypt(pub, [1 << 12] + [0] * (params.pub_rows - 1), rng)
    with pytest.raises(ParameterError):
        decrypt(priv, [0] * (params.pub_cols - 1))


@pytest.fixture(scope="module")
def preset_keys():
    return {name: keygen(preset(name), random.Random(72)) for name in ("desk-12", "paper-28")}


@pytest.mark.parametrize("name", ["desk-12", "paper-28"])
@pytest.mark.parametrize("entry", ["size", -1, 1.5])
def test_vectors_with_entries_outside_the_field_are_rejected(preset_keys, name, entry):
    pub, priv = preset_keys[name]
    params = pub.params
    bad = params.field().size if entry == "size" else entry
    c = encrypt(pub, [0] * params.pub_rows, random.Random(73))
    c[0] = bad
    with pytest.raises(ParameterError, match="^ciphertext holds a value outside F_2"):
        decrypt(priv, c)
    with pytest.raises(ParameterError, match="^error holds a value outside F_2"):
        lemma1_check(priv, c)
    with pytest.raises(ParameterError, match="^plaintext holds a value outside F_2"):
        encrypt(pub, [bad] + [0] * (params.pub_rows - 1), random.Random(73))


def test_keygen_is_reproducible_from_seed():
    params = preset("desk-12")
    pub1, priv1 = keygen(params, random.Random(123))
    pub2, priv2 = keygen(params, random.Random(123))
    assert pub1.matrix == pub2.matrix
    assert priv1.code.g == priv2.code.g
    assert priv1.P == priv2.P and priv1.S == priv2.S
