"""Field arithmetic against independent oracles and frozen values."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptrank.fields import FieldCtx, default_modulus, get_field, is_irreducible, is_prime


def slow_poly_mul_mod(q, modulus, a_digits, b_digits):
    """Schoolbook polynomial product mod (modulus, q); independent of FieldCtx."""
    deg = len(modulus) - 1
    prod = [0] * (len(a_digits) + len(b_digits) - 1)
    for i, x in enumerate(a_digits):
        for j, y in enumerate(b_digits):
            prod[i + j] = (prod[i + j] + x * y) % q
    for top in range(len(prod) - 1, deg - 1, -1):
        c = prod[top]
        if not c:
            continue
        prod[top] = 0
        for i in range(deg + 1):
            prod[top - deg + i] = (prod[top - deg + i] - c * modulus[i]) % q
    return prod[:deg] + [0] * (deg - len(prod[:deg]))


def digits(q, n, a):
    out = []
    for _ in range(n):
        out.append(a % q)
        a //= q
    return out


def undigits(q, ds):
    v = 0
    for d in reversed(ds):
        v = v * q + d
    return v


def oracle_mul(ctx, a, b):
    ds = slow_poly_mul_mod(
        ctx.q, list(ctx.modulus), digits(ctx.q, ctx.N, a), digits(ctx.q, ctx.N, b)
    )
    return undigits(ctx.q, ds)


# -- frozen small-field values ------------------------------------------------


class TestFrozenGf16:
    """GF(2^4) with modulus x^4 + x + 1; alpha is the class of x (int 2)."""

    ctx = get_field(2, 4)

    def test_default_modulus(self):
        assert self.ctx.modulus == (1, 1, 0, 0, 1)

    def test_alpha_cubed_times_alpha_squared(self):
        a = 2
        assert self.ctx.mul(self.ctx.pow(a, 3), self.ctx.pow(a, 2)) == 6

    def test_alpha_inverse(self):
        assert self.ctx.inv(2) == 9

    def test_alpha_plus_alpha_squared(self):
        assert self.ctx.add(2, 4) == 6

    def test_all_inverses_exhaustive(self):
        for a in range(1, self.ctx.size):
            assert self.ctx.mul(a, self.ctx.inv(a)) == 1

    def test_mul_against_schoolbook_oracle(self):
        for a in range(self.ctx.size):
            for b in range(self.ctx.size):
                assert self.ctx.mul(a, b) == oracle_mul(self.ctx, a, b)


class TestFrozenGf9:
    ctx = get_field(3, 2)

    def test_mul_against_schoolbook_oracle(self):
        for a in range(9):
            for b in range(9):
                assert self.ctx.mul(a, b) == oracle_mul(self.ctx, a, b)

    def test_all_inverses_exhaustive(self):
        for a in range(1, 9):
            assert self.ctx.mul(a, self.ctx.inv(a)) == 1

    def test_char_three_addition(self):
        # 1 + 2 = 0 in the constant digit
        assert self.ctx.add(1, 2) == 0
        assert self.ctx.neg(1) == 2


# -- implementation paths cross-checked ------------------------------------------------


@pytest.mark.parametrize(
    "q,N",
    [
        (2, 12),  # table-backed
        (2, 17),  # first size without tables: carry-less multiply
        (2, 20),
        (2, 29),  # last size with two reduction windows
        (2, 30),  # first size with three
        (2, 64),  # largest size that fits a 64-bit word
        (3, 11),  # generic convolution path
    ],
)
def test_mul_paths_match_oracle(q, N):
    ctx = get_field(q, N)
    rng = random.Random(1000 * q + N)
    for _ in range(200):
        a, b = ctx.rand_elem(rng), ctx.rand_elem(rng)
        assert ctx.mul(a, b) == oracle_mul(ctx, a, b)
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1


def test_table_and_clmul_agree_on_shared_field():
    # the N = 12 field multiplies by log tables; its carry-less multiply,
    # which built those tables, must give the same products
    small = get_field(2, 12)
    assert small.mul == small._mul_table
    rng = random.Random(9)
    for _ in range(300):
        a, b = small.rand_elem(rng), small.rand_elem(rng)
        assert small.mul(a, b) == small._clmul(a, b) == oracle_mul(small, a, b)


@pytest.mark.parametrize("q,N", [(2, 12), (3, 5), (2, 28), (3, 11)])
def test_submul_row_matches_elementwise_loop(q, N):
    ctx = get_field(q, N)
    rng = random.Random(100 * q + N)
    for trial in range(40):
        length = 1 + trial % 9
        start = trial % length
        prow = [ctx.rand_elem(rng) if rng.random() < 0.8 else 0 for _ in range(length)]
        wrow = [ctx.rand_elem(rng) for _ in range(length)]
        f = ctx.rand_elem(rng) if trial % 10 else 0
        expected = list(wrow)
        for j in range(start, length):
            expected[j] = ctx.sub(expected[j], ctx.mul(f, prow[j]))
        ctx.submul_row(prow, start)(wrow, f)
        assert wrow == expected


def oracle_frobenius(ctx, a, i):
    """a^(q^i) by square-and-multiply on the schoolbook product."""
    r, e = 1, ctx.q**i
    while e:
        if e & 1:
            r = oracle_mul(ctx, r, a)
        a = oracle_mul(ctx, a, a)
        e >>= 1
    return r


@pytest.mark.parametrize("q,N", [(3, 5), (3, 11), (5, 3), (5, 7)])
def test_odd_q_add_sub_neg_frobenius_match_digit_oracle(q, N):
    ctx = get_field(q, N)
    # (3, 5) and (5, 3) multiply by log tables, (3, 11) and (5, 7) without
    assert (ctx._exp is None) == (q**N > 1 << 16)
    rng = random.Random(10 * q + N)
    for trial in range(60):
        a, b = ctx.rand_elem(rng), ctx.rand_elem(rng)
        da, db = digits(q, N, a), digits(q, N, b)
        assert ctx.add(a, b) == undigits(q, [(x + y) % q for x, y in zip(da, db)])
        assert ctx.sub(a, b) == undigits(q, [(x - y) % q for x, y in zip(da, db)])
        assert ctx.neg(a) == undigits(q, [-x % q for x in da])
        i = trial % N
        assert ctx.frobenius(a, i) == oracle_frobenius(ctx, a, i)


def test_inverse_random_large_field():
    ctx = get_field(2, 28)
    rng = random.Random(3)
    for _ in range(50):
        a = ctx.rand_nonzero(rng)
        assert ctx.mul(a, ctx.inv(a)) == 1


# -- frobenius ------------------------------------------------


def test_frobenius_is_qth_power():
    for ctx in (get_field(2, 12), get_field(3, 5)):
        rng = random.Random(ctx.N)
        for _ in range(100):
            a = ctx.rand_elem(rng)
            assert ctx.frobenius(a, 1) == ctx.pow(a, ctx.q)


def test_frobenius_powers_chain():
    ctx = get_field(2, 12)
    rng = random.Random(4)
    for _ in range(50):
        a = ctx.rand_elem(rng)
        assert ctx.frobenius(ctx.frobenius(a, 3), 4) == ctx.frobenius(a, 7)
        assert ctx.frobenius(a, ctx.N) == a
        assert ctx.frobenius(a, 0) == a


def test_frobenius_fixes_base_field():
    ctx = get_field(2, 12)
    assert ctx.frobenius(0, 1) == 0
    assert ctx.frobenius(1, 1) == 1
    ctx3 = get_field(3, 5)
    for a in range(3):
        assert ctx3.frobenius(a, 1) == a


# -- algebraic axioms ------------------------------------------------


elem12 = st.integers(min_value=0, max_value=(1 << 12) - 1)


@settings(deadline=None, max_examples=80)
@given(elem12, elem12, elem12)
def test_field_axioms_gf2_12(a, b, c):
    ctx = get_field(2, 12)
    assert ctx.add(a, b) == ctx.add(b, a)
    assert ctx.mul(a, b) == ctx.mul(b, a)
    assert ctx.mul(a, ctx.mul(b, c)) == ctx.mul(ctx.mul(a, b), c)
    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
    assert ctx.add(a, ctx.neg(a)) == 0
    assert ctx.mul(a, 1) == a


elem243 = st.integers(min_value=0, max_value=3**5 - 1)


@settings(deadline=None, max_examples=80)
@given(elem243, elem243, elem243)
def test_field_axioms_gf3_5(a, b, c):
    ctx = get_field(3, 5)
    assert ctx.add(a, b) == ctx.add(b, a)
    assert ctx.mul(a, ctx.mul(b, c)) == ctx.mul(ctx.mul(a, b), c)
    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
    assert ctx.sub(a, a) == 0


@settings(deadline=None, max_examples=60)
@given(elem12, elem12)
def test_frobenius_is_additive_and_multiplicative(a, b):
    ctx = get_field(2, 12)
    assert ctx.frobenius(ctx.add(a, b), 1) == ctx.add(ctx.frobenius(a, 1), ctx.frobenius(b, 1))
    assert ctx.frobenius(ctx.mul(a, b), 1) == ctx.mul(ctx.frobenius(a, 1), ctx.frobenius(b, 1))


# -- construction and validation ------------------------------------------------


def test_is_prime():
    assert [p for p in range(2, 20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert not is_prime(0)


def test_irreducibility_check():
    assert is_irreducible(2, (1, 1, 0, 0, 1))  # x^4 + x + 1
    assert not is_irreducible(2, (1, 0, 0, 0, 1))  # x^4 + 1 = (x + 1)^4
    assert is_irreducible(2, (1, 1, 1))  # x^2 + x + 1
    assert not is_irreducible(2, (0, 0, 1))  # x^2


def test_default_modulus_is_deterministic_and_irreducible():
    for q, N in ((2, 8), (2, 28), (3, 5), (5, 3)):
        m1 = default_modulus(q, N)
        m2 = default_modulus(q, N)
        assert m1 == m2
        assert m1[-1] == 1 and len(m1) == N + 1
        assert is_irreducible(q, m1)


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        FieldCtx(q=4, N=3)  # prime powers are not supported
    with pytest.raises(ValueError):
        FieldCtx(q=2, N=1)
    with pytest.raises(ValueError):
        FieldCtx(q=2, N=4, modulus=(1, 0, 0, 0, 1))  # reducible
    with pytest.raises(ValueError):
        FieldCtx(q=2, N=4, modulus=(1, 1, 0, 0, 2))  # not monic after reduction


def test_check_element_bounds():
    ctx = get_field(2, 4)
    ctx.check_element(15)
    with pytest.raises(ValueError):
        ctx.check_element(16)
    with pytest.raises(ValueError):
        ctx.check_element(-1)
    with pytest.raises(ValueError):
        ctx.check_element("3")


def test_hex_roundtrip():
    ctx = get_field(2, 12)
    rng = random.Random(5)
    for _ in range(50):
        a = ctx.rand_elem(rng)
        s = ctx.to_hex(a)
        assert len(s) == ctx.element_hex_width
        assert ctx.check_element(int(s, 16)) == a


def test_coeff_roundtrip():
    ctx = get_field(3, 5)
    rng = random.Random(6)
    for _ in range(50):
        a = ctx.rand_elem(rng)
        assert ctx.from_coeffs(ctx.coeffs(a)) == a


def test_field_identity_cache():
    assert get_field(2, 12) is get_field(2, 12)
    assert get_field(2, 12) == FieldCtx(2, 12)
    assert get_field(2, 12) != get_field(2, 13)
