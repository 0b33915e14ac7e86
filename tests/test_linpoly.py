"""Linearized polynomial algebra: evaluation, composition, division, kernels."""

import random
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptrank.fields import get_field
from gptrank.gabidulin import GabidulinCode
from gptrank.linalg import base_relations, independent_elements, rank_over_base, sample_error
from gptrank.linpoly import LinPoly, lp_eea
from test_gabidulin import DECODE_CASES
from test_linalg import PRODUCT_FIELDS

ctx = get_field(2, 8)


def rand_poly(rng, max_qdeg=4, allow_zero=True, field=ctx):
    d = rng.randint(0, max_qdeg)
    coeffs = [field.rand_elem(rng) for _ in range(d)] + [field.rand_nonzero(rng)]
    if allow_zero and rng.random() < 0.1:
        return LinPoly.zero(field)
    return LinPoly(field, coeffs)


def oracle_eval(poly, x):
    """Direct sum of c_i * x^(q^i) without the class machinery."""
    acc = 0
    for i, c in enumerate(poly.coeffs):
        if c:
            acc = ctx.add(acc, ctx.mul(c, ctx.pow(x, ctx.q**i)))
    return acc


def test_evaluation_matches_power_sum():
    rng = random.Random(31)
    for _ in range(40):
        L = rand_poly(rng)
        for _ in range(5):
            x = ctx.rand_elem(rng)
            assert L(x) == oracle_eval(L, x)


elem8 = st.integers(min_value=0, max_value=255)


@settings(deadline=None, max_examples=60)
@given(elem8, elem8, st.integers(min_value=0, max_value=2**31))
def test_evaluation_is_additive(a, b, seed):
    L = rand_poly(random.Random(seed))
    assert L(ctx.add(a, b)) == ctx.add(L(a), L(b))


def test_base_field_scalars_commute():
    # L(c x) = c L(x) for c in the base field
    rng = random.Random(32)
    for _ in range(20):
        L = rand_poly(rng)
        x = ctx.rand_elem(rng)
        for c in range(ctx.q):
            scaled = 0
            for _ in range(c):
                scaled = ctx.add(scaled, x)
            want = 0
            for _ in range(c):
                want = ctx.add(want, L(x))
            assert L(scaled) == want


def test_compose_matches_pointwise():
    rng = random.Random(33)
    for _ in range(30):
        A = rand_poly(rng)
        B = rand_poly(rng)
        C = A.compose(B)
        for _ in range(6):
            x = ctx.rand_elem(rng)
            assert C(x) == A(B(x))


def test_monomial_is_frobenius_power():
    rng = random.Random(34)
    M = LinPoly.monomial(ctx, 3)
    for _ in range(20):
        x = ctx.rand_elem(rng)
        assert M(x) == ctx.frobenius(x, 3)
    assert LinPoly.identity(ctx)(5) == 5


def test_qdeg_and_trim():
    assert LinPoly.zero(ctx).qdeg == -1
    assert LinPoly(ctx, (0, 0, 0)).is_zero()
    assert LinPoly(ctx, (1, 0, 0)).qdeg == 0
    assert LinPoly(ctx, (0, 3)).qdeg == 1


def test_right_divmod_reconstructs():
    rng = random.Random(35)
    for _ in range(40):
        A = rand_poly(rng, max_qdeg=6)
        B = rand_poly(rng, max_qdeg=3, allow_zero=False)
        if B.is_zero():
            continue
        Q, R = A.right_divmod(B)
        assert R.qdeg < B.qdeg
        assert Q.compose(B).add(R) == A


@pytest.mark.parametrize("q,N", PRODUCT_FIELDS)
def test_right_divmod_reconstructs_in_every_product_field(q, N):
    field = get_field(q, N)
    rng = random.Random(q * 1000 + N)
    for _ in range(10):
        A = rand_poly(rng, max_qdeg=min(N - 1, 8), field=field)
        D = rand_poly(rng, max_qdeg=min(N - 1, 4), allow_zero=False, field=field)
        Q, R = A.right_divmod(D)
        assert R.qdeg < D.qdeg
        assert Q.compose(D).add(R) == A


def test_right_divmod_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        LinPoly.identity(ctx).right_divmod(LinPoly.zero(ctx))


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def reference_eea(field, a, b, stop):
    """lp_eea's (V, R) coefficient lists by the textbook step: divide r0 by
    r1 term by term, compose the whole quotient with v1, subtract from v0."""
    mul, sub, frob = field.mul, field.sub, field.frobenius

    def divide(r, d):
        r = list(r)
        quot = [0] * max(len(r) - len(d) + 1, 0)
        while len(r) >= len(d):
            s = len(r) - len(d)
            c = quot[s] = mul(r[-1], field.inv(frob(d[-1], s)))
            for j, dj in enumerate(d):
                r[s + j] = sub(r[s + j], mul(c, frob(dj, s)))
            _trim(r)
        return quot, r

    def compose(x, y):
        out = [0] * (len(x) + len(y) - 1)
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                out[i + j] = field.add(out[i + j], mul(xi, frob(yj, i)))
        return _trim(out)

    r0, r1, v0, v1 = list(a), list(b), [], [1]
    while r1 and len(r1) - 1 >= stop:
        quot, r2 = divide(r0, r1)
        qv = compose(quot, v1) if quot and v1 else []
        v2 = _trim([sub(x, y) for x, y in zip_longest(v0, qv, fillvalue=0)])
        r0, r1, v0, v1 = r1, r2, v1, v2
    return v1, r1


def assert_eea_matches_reference(A, B, stop):
    V, R = lp_eea(A, B, stop)
    assert (list(V.coeffs), list(R.coeffs)) == reference_eea(A.ctx, A.coeffs, B.coeffs, stop)
    return V, R


def check_eea_invariant_and_stop_degree(field, rng):
    for _ in range(30):
        A = rand_poly(rng, max_qdeg=6, allow_zero=False, field=field)
        B = rand_poly(rng, max_qdeg=5, allow_zero=False, field=field)
        stop = rng.randint(0, 4)
        V, R = assert_eea_matches_reference(A, B, stop)
        # the returned remainder satisfies the Bezout-style identity
        # R = U o A + V o B, so V o B - R is a right multiple of A
        assert V.compose(B).sub(R).right_divmod(A)[1].is_zero()
        assert R.qdeg < stop or B.qdeg < stop


def test_eea_invariant_and_stop_degree():
    check_eea_invariant_and_stop_degree(ctx, random.Random(36))


@pytest.mark.parametrize("q,N", PRODUCT_FIELDS)
def test_eea_invariant_and_stop_degree_in_every_product_field(q, N):
    check_eea_invariant_and_stop_degree(get_field(q, N), random.Random(q * 1000 + N + 3))


@pytest.mark.parametrize("q,N", PRODUCT_FIELDS)
def test_eea_matches_the_reference_euclid_at_the_edges(q, N):
    field = get_field(q, N)
    rng = random.Random(q * 1000 + N + 4)

    def poly(qdeg):
        return LinPoly(field, [field.rand_elem(rng) for _ in range(qdeg)] + [field.rand_nonzero(rng)])

    for _ in range(3):
        # a first quotient of q-degree 5, then the remainders run down to 0
        A, B = poly(7), poly(2)
        assert A.right_divmod(B)[0].qdeg == 5
        assert_eea_matches_reference(A, B, 0)
        # qdeg B > qdeg A: the first quotient is 0 and the first step swaps
        A, B = poly(2), poly(5)
        assert A.right_divmod(B) == (LinPoly.zero(field), A)
        assert_eea_matches_reference(A, B, 1)
        # stop_degree above qdeg B: no step runs
        assert lp_eea(A, B, 6) == (LinPoly.identity(field), B)


@pytest.mark.parametrize("q,N,n,k", DECODE_CASES)
def test_eea_matches_the_reference_euclid_on_decode_syndromes(q, N, n, k):
    field = get_field(q, N)
    rng = random.Random(100 * n + k + 1)
    code = GabidulinCode(field, independent_elements(field, n, rng), k)
    A = LinPoly.monomial(field, n - k)
    # rank 0 has zero syndromes, which the decoder answers without the key equation
    for r in range(1, code.t + 1):
        for _ in range(2):
            S = LinPoly(field, code.syndromes(sample_error(field, n, r, rng)))
            V, _ = assert_eea_matches_reference(A, S, (n - k + 1) // 2)
            assert len(V.kernel_basis()) == r


def test_kernel_basis_spans_exact_kernel():
    rng = random.Random(37)
    for field in (ctx, get_field(3, 5)):
        for _ in range(15):
            L = rand_poly(rng, max_qdeg=3, allow_zero=False, field=field)
            basis = L.kernel_basis()
            # every basis element is killed, and the kernel has q^dim elements
            for v in basis:
                assert L(v) == 0
            killed = sum(1 for x in range(field.size) if L(x) == 0)
            assert killed == field.q ** len(basis)
            if basis:
                assert rank_over_base(field, basis) == len(basis)


@pytest.mark.parametrize("q,N", PRODUCT_FIELDS)
def test_kernel_basis_matches_per_basis_evaluation(q, N):
    field = get_field(q, N)
    rng = random.Random(q * 1000 + N + 1)
    # every q-degree up to min(N - 1, 8), and one past N, where sigma^N = id
    degrees = list(range(min(N - 1, 8) + 1)) + [N + 1]
    for d in degrees:
        coeffs = [rng.choice((0, field.rand_elem(rng))) for _ in range(d)]
        L = LinPoly(field, coeffs + [field.rand_nonzero(rng)])
        images = [L(field.q**j) for j in range(N)]
        assert field.power_basis_images(L.coeffs) == images
        expected = [field.from_coeffs(c) for c in base_relations(field, images)]
        assert L.kernel_basis() == expected


def test_kernel_of_zero_poly_is_everything():
    basis = LinPoly.zero(ctx).kernel_basis()
    assert len(basis) == ctx.N


def test_scale_and_add():
    rng = random.Random(39)
    A = rand_poly(rng, allow_zero=False)
    c = ctx.rand_nonzero(rng)
    S = A.scale(c)
    x = ctx.rand_elem(rng)
    assert S(x) == ctx.mul(c, A(x))
    assert A.add(A).is_zero()  # characteristic two


def test_equal_polynomials_hash_alike_and_print_their_terms():
    A = LinPoly(ctx, [0, 3, 0, 1, 0])
    assert hash(A) == hash(LinPoly(ctx, (0, 3, 0, 1))) and len({A, LinPoly(ctx, [0, 3, 0, 1])}) == 1
    assert repr(A) == "LinPoly(3*x^[1] + 1*x^[3])"
    assert repr(LinPoly.zero(ctx)) == "LinPoly(0)"
