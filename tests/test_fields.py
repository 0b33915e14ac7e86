"""Field arithmetic against independent oracles and frozen values."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptrank import fields
from gptrank.errors import ParameterError
from gptrank.fields import (
    FieldCtx,
    _check_field,
    default_modulus,
    get_field,
    is_irreducible,
    is_prime,
)
from gptrank.gabidulin import GabidulinCode
from gptrank.gpt import GptParams
from gptrank.linalg import independent_elements


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


# lane-packed rows on both sides of the switch from 32-bit to 64-bit lanes,
# and at N = 33 a last window of the multiplier with fewer than 4 bits
@pytest.mark.parametrize("q,N", [(2, 12), (3, 5), (2, 28), (2, 32), (2, 33), (2, 64), (3, 11)])
def test_submul_row_matches_elementwise_loop(q, N):
    ctx = FieldCtx(q, N)  # not the shared one: its cache of lane masks starts empty
    rng = random.Random(100 * q + N)
    # then rows of 9, 1 and 9 lanes, which use the masks cached for each
    # lane count again, after a larger and after a smaller count
    lengths = [1 + trial % 9 for trial in range(40)] + [9, 1, 9]
    for trial, length in enumerate(lengths):
        # a pivot row as elimination passes it: zero left of its pivot column
        start = trial % length
        prow = [0] * start + [
            ctx.rand_elem(rng) if rng.random() < 0.8 else 0 for _ in range(length - start)
        ]
        if trial >= 40:  # a nonzero last entry: the packed row spans every lane
            prow[-1] = ctx.rand_nonzero(rng)
        wrow = [ctx.rand_elem(rng) for _ in range(length)]
        f = ctx.rand_elem(rng) if trial % 10 else 0
        expected = list(wrow)  # its first start entries unchanged
        for j in range(start, length):
            expected[j] = ctx.sub(expected[j], ctx.mul(f, prow[j]))
        # rows in the field's own format
        upd = ctx.submul_row(ctx.pack_row(prow))
        assert ctx.unpack_row(upd(ctx.pack_row(wrow), f), length) == expected


def test_field_caches_add_no_attribute_after_construction():
    # a later write to an instance's __dict__ slows every attribute load on
    # it (CPython 3.11), so every per-field cache exists from __init__ on
    for N in (28, 12):  # lane-packed rows, and log tables
        ctx = FieldCtx(2, N)
        keys = sorted(vars(ctx))
        g = independent_elements(ctx, 5, random.Random(N))
        upd = ctx.submul_row(ctx.pack_row(g))
        upd(ctx.pack_row(g[::-1]), g[0])
        ctx.row_combiner([g, g[::-1]])([g[1], g[2]])
        ctx.scale_row(g, g[3])
        ctx.scale_packed_row(ctx.pack_row(g), g[3])
        ctx.power_basis_images(g)
        GabidulinCode(ctx, g, 2)
        assert sorted(vars(ctx)) == keys


@pytest.mark.parametrize("q,N,bits", [(2, 12, 32), (2, 32, 32), (2, 33, 64), (2, 64, 64),
                                      (3, 20, 32), (3, 21, 64)])  # fmt: skip
def test_lanes_are_as_wide_as_an_element_needs(q, N, bits):
    ctx = get_field(q, N)
    assert ctx.lane_bits == bits
    top = ctx.size - 1
    row = [top, 0, 1, top, top >> 1]
    w = ctx.pack_lanes(row)
    assert [w >> bits * c & (1 << bits) - 1 for c in range(5)] == row
    assert ctx.unpack_lanes(w, 5) == row
    assert ctx.unpack_lanes(w, 7) == row + [0, 0]


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


@pytest.mark.parametrize(
    "N",
    [
        12,  # table field
        28,  # four full 7-bit windows
        29,  # a one-bit last window
        64,  # the widest field allowed
    ],
)
def test_windowed_frobenius_matches_repeated_squaring(N):
    ctx = get_field(2, N)
    rng = random.Random(N)
    top = 1 << (N - 1)
    elems = [0, 1, ctx.alpha, top, ctx.order, top | 1]
    elems += [ctx.rand_elem(rng) | top for _ in range(3)] + [ctx.rand_elem(rng) for _ in range(3)]
    for a in elems:
        for i in range(N):
            assert ctx.frobenius(a, i) == ctx.pow(a, 2**i), (a, i)


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


@pytest.mark.parametrize(
    "q, N",
    [(2.0, 12), (True, 12), ("2", 12), (2, 12.0), (2, True)],
    ids=["float-q", "bool-q", "str-q", "float-N", "bool-N"],
)
def test_q_and_N_must_be_plain_ints(monkeypatch, q, N):
    # get_field and default_modulus refuse them on a cold cache and once
    # (2, 12) is cached, though 12.0 == 12 and True == 1
    monkeypatch.setattr(fields, "_FIELD_CACHE", {})
    default_modulus.cache_clear()
    for warm in (False, True):
        if warm:
            get_field(2, 12)
        for check in (_check_field, get_field, default_modulus):
            with pytest.raises(ParameterError, match="must be an int"):
                check(q, N)


def test_is_prime():
    assert [p for p in range(2, 20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert not is_prime(0)


def test_irreducibility_check():
    assert is_irreducible(2, (1, 1, 0, 0, 1))  # x^4 + x + 1
    assert not is_irreducible(2, (1, 0, 0, 0, 1))  # x^4 + 1 = (x + 1)^4
    assert is_irreducible(2, (1, 1, 1))  # x^2 + x + 1
    assert not is_irreducible(2, (0, 0, 1))  # x^2
    assert not is_irreducible(2, (0, 1, 0, 0, 1))  # x^4 + x: x^16 = x, but f | x^4 - x


@pytest.mark.parametrize("q,n,count", [(2, 6, 9), (2, 8, 30), (3, 4, 18), (5, 3, 40)])
def test_irreducible_count_matches_the_necklace_formula(q, n, count):
    # (1/n) sum over d | n of mu(d) q^(n/d) monic irreducibles of degree n;
    # at n = 6 the x^(q^(n/p)) test runs for both p = 2 and p = 3
    monic = (tuple(low // q**i % q for i in range(n)) + (1,) for low in range(q**n))
    assert sum(is_irreducible(q, f) for f in monic) == count


def test_pow_refuses_a_negative_exponent():
    with pytest.raises(ValueError, match="negative exponent"):
        get_field(2, 12).pow(5, -1)
    assert get_field(2, 12).pow(0, 0) == 1 and get_field(3, 5).pow(0, 4) == 0


def test_default_modulus_is_deterministic_and_irreducible():
    for q, N in ((2, 8), (2, 28), (3, 5), (5, 3)):
        m1 = default_modulus(q, N)
        m2 = default_modulus(q, N)
        assert m1 == m2
        assert m1[-1] == 1 and len(m1) == N + 1
        assert is_irreducible(q, m1)


@pytest.mark.parametrize("q,N", [(2, 12), (3, 5)])
def test_no_modulus_is_rabin_tested_twice(monkeypatch, q, N):
    tested = []

    def counted(q, coeffs):
        tested.append(tuple(coeffs))
        return is_irreducible(q, coeffs)

    monkeypatch.setattr(fields, "is_irreducible", counted)
    monkeypatch.setattr(fields, "_FIELD_CACHE", {})
    default_modulus.cache_clear()
    ctx = get_field(q, N)  # cold: the search tests each candidate once
    assert len(set(tested)) == len(tested) and tested[-1] == ctx.modulus
    searched = len(tested)
    # the default modulus is trusted from the search
    assert get_field(q, N) is ctx and FieldCtx(q, N).modulus == ctx.modulus
    assert GptParams(q=q, N=N, n=N, k=N - 2, t1=1).field() is ctx
    assert len(tested) == searched


def test_huge_q_is_refused_before_the_primality_test():
    # trial division up to sqrt(q) would not finish for a 100-bit q; a child
    # process keeps a regression from hanging the test run
    code = (
        "from gptrank.fields import default_modulus, get_field\n"
        "for f in (default_modulus, get_field):\n"
        "    try:\n"
        "        f(10**30 + 57, 4)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("does not fit in 64 bits") == 2


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        FieldCtx(q=4, N=3)  # prime powers are not supported
    with pytest.raises(ValueError):
        FieldCtx(q=2, N=1)


def test_check_elements_bounds():
    ctx = get_field(2, 4)
    for values in ([], [0, 15], [True, False], (3, 7)):
        assert ctx.check_elements(values, "v") is None
    for bad in (16, -1, "3", 3.0, 1 << 64):
        with pytest.raises(ParameterError, match="^v holds a value outside F_2\\^4$"):
            ctx.check_elements([0, bad, 1], "v")


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


@pytest.mark.parametrize(
    "call, outcome",
    [
        (lambda: is_irreducible(4, (1, 1, 1)), (ValueError, "q must be prime, got 4")),
        (lambda: is_irreducible(2, (1,)), False),  # units are not irreducible
        (lambda: is_irreducible(3, (2, 0)), False),  # trims to the constant 2
        (lambda: is_irreducible(2, (1, 1)), True),  # every degree-1 polynomial is
        (lambda: get_field(2, 8).inv(0), (ZeroDivisionError, "0 has no multiplicative inverse")),
        (lambda: get_field(3, 5).from_coeffs([1] * 6),
         (ValueError, "expected at most 5 coordinates, got 6")),
        (lambda: hash(FieldCtx(2, 12)) == hash(get_field(2, 12)), True),
        (lambda: repr(get_field(2, 4)), "FieldCtx(q=2, N=4, modulus=(1, 1, 0, 0, 1))"),
    ],
    ids=["composite q", "constant", "constant over F_3", "x + 1", "inverse of 0",
         "N + 1 coordinates", "hash of the cached field", "repr"],
)
def test_field_edge_cases(call, outcome):
    if isinstance(outcome, tuple):
        kind, message = outcome
        with pytest.raises(kind, match=f"^{message}$"):
            call()
    else:
        assert call() == outcome
