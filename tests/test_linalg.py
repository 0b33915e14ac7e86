"""Rank computations and samplers against enumeration oracles."""

import itertools
import random
from functools import reduce
from operator import xor

import pytest

from gptrank.fields import get_field
from gptrank.linalg import (
    FixedMatrix,
    _rref,
    base_combination,
    base_coordinates,
    base_relations,
    column_rank_over_base,
    concat_cols,
    ext_nullspace,
    identity_matrix,
    independent_elements,
    mat_inv,
    mat_mul,
    random_full_row_rank,
    random_matrix,
    rank_ext,
    rank_over_base,
    sample_error,
    sample_error_decomposed,
    solve_linear,
    transpose,
    vec_mat_mul,
    vec_sub,
)


def oracle_rank_over_base(ctx, vec):
    """log_q of the size of the base-field span, by full enumeration."""
    span = {0}
    for coeffs in itertools.product(range(ctx.q), repeat=len(vec)):
        acc = 0
        for c, v in zip(coeffs, vec):
            term = v
            # scalar multiple by repeated addition keeps the oracle independent
            s = 0
            for _ in range(c):
                s = ctx.add(s, term)
            acc = ctx.add(acc, s)
        span.add(acc)
    size = len(span)
    r = 0
    while ctx.q**r < size:
        r += 1
    assert ctx.q**r == size, "span size must be a power of q"
    return r


@pytest.mark.parametrize("q,N,n", [(2, 6, 5), (2, 8, 6), (3, 3, 4)])
def test_rank_over_base_matches_enumeration(q, N, n):
    ctx = get_field(q, N)
    rng = random.Random(q * 100 + n)
    for _ in range(40):
        vec = [ctx.rand_elem(rng) for _ in range(n)]
        assert rank_over_base(ctx, vec) == oracle_rank_over_base(ctx, vec)


def test_rank_over_base_frozen_example():
    # (alpha, alpha, 1 + alpha, 0) in GF(2^4): two independent entries
    ctx = get_field(2, 4)
    assert rank_over_base(ctx, [2, 2, 3, 0]) == 2


def test_rank_over_base_edge_cases():
    ctx = get_field(2, 6)
    assert rank_over_base(ctx, [0, 0, 0]) == 0
    assert rank_over_base(ctx, [1, 1, 1]) == 1
    assert rank_over_base(ctx, [5]) == 1


def test_rank_invariant_under_base_field_change_of_basis():
    ctx = get_field(2, 10)
    rng = random.Random(11)
    for _ in range(30):
        e = sample_error(ctx, 8, rng.randint(0, 4), rng)
        P = random_full_row_rank(ctx, 8, 8, rng, base_field=True)
        assert rank_over_base(ctx, vec_mat_mul(ctx, e, P)) == rank_over_base(ctx, e)


def test_column_rank_over_base_matches_transpose_trick():
    # column rank over F_q equals the rank of the stacked coordinate matrix;
    # cross-check small cases against enumeration of column combinations
    rng = random.Random(12)
    for q, N in ((2, 4), (3, 3)):
        ctx = get_field(q, N)
        for _ in range(20):
            M = random_matrix(ctx, 3, 3, rng)
            cols = transpose(M)
            span = {(0, 0, 0)}
            for coeffs in itertools.product(range(q), repeat=3):
                acc = [0, 0, 0]
                for c, col in zip(coeffs, cols):
                    if c:
                        acc = [ctx.add(a, ctx.mul(c, v)) for a, v in zip(acc, col)]
                span.add(tuple(acc))
            r = 0
            while q**r < len(span):
                r += 1
            assert column_rank_over_base(ctx, M) == r


@pytest.mark.parametrize("q,N", [(2, 12), (3, 5)])
def test_base_relations_coordinates_and_combination(q, N):
    ctx = get_field(q, N)
    rng = random.Random(13)
    basis = independent_elements(ctx, 3, rng)
    A = random_matrix(ctx, 3, 5, rng, base_field=True)
    vec = base_combination(ctx, basis, A)
    # the relations among the entries: each one vanishes, and they span a
    # space of dimension len(vec) - rank
    relations = base_relations(ctx, vec)
    assert len(relations) == len(vec) - rank_over_base(ctx, vec)
    assert rank_ext(ctx, relations) == len(relations)
    for c in relations:
        assert base_combination(ctx, vec, [[a] for a in c]) == [0]
    # coordinates in the basis are the columns of A; an element outside the
    # span has none
    assert base_coordinates(ctx, basis, vec) == transpose(A)
    outside = ctx.rand_nonzero(rng)
    while rank_over_base(ctx, basis + [outside]) < 4:
        outside = ctx.rand_nonzero(rng)
    with pytest.raises(ValueError):
        base_coordinates(ctx, basis, vec + [outside])


def bit_matrix(N, elems):
    """The 0/1 matrix whose column j holds the coordinates of elems[j] (q = 2)."""
    return [[a >> i & 1 for a in elems] for i in range(N)]


def span_draw(gens, rng):
    """A random F_2-combination of gens."""
    return reduce(xor, (g for g in gens if rng.random() < 0.5), 0)


@pytest.mark.parametrize("N,n", [(12, 12), (28, 28), (28, 11)])
def test_bit_packed_answers_equal_the_generic_path(N, n):
    # q = 2 answers come from the bit-packed eliminator; the extension-field
    # routines on the 0/1 coordinate matrix must give exactly the same
    ctx = get_field(2, N)
    rng = random.Random(100 * N + n)
    outcomes = set()
    for trial in range(40):
        gens = [ctx.rand_elem(rng) for _ in range(rng.randint(0, n))]
        vec = [span_draw(gens, rng) if trial % 5 else ctx.rand_elem(rng) for _ in range(n)]
        C = bit_matrix(N, vec)
        assert rank_over_base(ctx, vec) == rank_ext(ctx, C)
        assert base_relations(ctx, vec) == ext_nullspace(ctx, C)

        # coordinates: the _rref read-out of [basis | elems], or ValueError
        # exactly when the basis columns are not the pivot columns
        basis = independent_elements(ctx, rng.randint(0, n), rng)
        elems = [span_draw(basis, rng) if trial % 4 else ctx.rand_elem(rng) for _ in range(3)]
        work, pivots = _rref(ctx, bit_matrix(N, basis + elems))
        k = len(basis)
        if pivots == list(range(k)):
            expected = [[row[k + i] for row in work[:k]] for i in range(len(elems))]
            assert base_coordinates(ctx, basis, elems) == expected
            outcomes.add("inside")
        else:
            with pytest.raises(ValueError):
                base_coordinates(ctx, basis, elems)
            outcomes.add("outside")

        # column rank: the rank of the columns expanded to F_2 coordinates
        rows, cols = rng.randint(1, 3), rng.randint(1, n)
        col_gens = [[ctx.rand_elem(rng) for _ in range(rows)] for _ in range(rng.randint(1, cols))]
        columns = []
        for _ in range(cols):
            picked = [g for g in col_gens if rng.random() < 0.5]
            columns.append([reduce(xor, (g[i] for g in picked), 0) for i in range(rows)])
        M = transpose(columns)
        expanded = [[v >> b & 1 for v in col for b in range(N)] for col in columns]
        assert column_rank_over_base(ctx, M) == rank_ext(ctx, expanded)
    assert outcomes == {"inside", "outside"}


@pytest.mark.parametrize("q,N", [(2, 12), (3, 5)])
def test_base_coordinates_refuses_a_dependent_basis(q, N):
    ctx = get_field(q, N)
    rng = random.Random(14)
    basis = independent_elements(ctx, 4, rng)
    outside = basis.pop()
    # one relation inside the basis and one element outside its span still
    # make one relation per element; no coordinates exist all the same
    dependent = basis + [ctx.add(basis[0], basis[1])]
    assert len(base_relations(ctx, dependent + [outside])) == 1
    with pytest.raises(ValueError):
        base_coordinates(ctx, dependent, [outside])
    with pytest.raises(ValueError):
        base_coordinates(ctx, dependent, [])


# -- extension-field elimination ------------------------------------------------


def test_rank_ext_known_cases():
    ctx = get_field(2, 8)
    assert rank_ext(ctx, identity_matrix(4)) == 4
    M = [[1, 2, 3], [1, 2, 3], [0, 0, 0]]
    assert rank_ext(ctx, M) == 1
    rng = random.Random(13)
    A = random_matrix(ctx, 3, 5, rng)
    doubled = A + [list(r) for r in A]
    assert rank_ext(ctx, doubled) == rank_ext(ctx, A)


def test_mat_inv_roundtrip_and_singular():
    ctx = get_field(2, 10)
    rng = random.Random(14)
    for _ in range(10):
        M = random_full_row_rank(ctx, 5, 5, rng)
        assert mat_mul(ctx, M, mat_inv(ctx, M)) == identity_matrix(5)
    singular = [[1, 2], [1, 2]]
    with pytest.raises(ValueError):
        mat_inv(ctx, singular)


def test_solve_linear_consistent_and_not():
    ctx = get_field(2, 8)
    rng = random.Random(15)
    A = random_full_row_rank(ctx, 4, 4, rng)
    x = [ctx.rand_elem(rng) for _ in range(4)]
    b = vec_mat_mul(ctx, x, transpose(A))  # b = A x
    got = solve_linear(ctx, A, b)
    assert vec_mat_mul(ctx, got, transpose(A)) == b
    # inconsistent: duplicate equation with different right side
    A2 = [[1, 0], [1, 0]]
    with pytest.raises(ValueError):
        solve_linear(ctx, A2, [1, 2])


def test_ext_nullspace_annihilates():
    ctx = get_field(2, 8)
    rng = random.Random(16)
    M = random_matrix(ctx, 3, 6, rng)
    basis = ext_nullspace(ctx, M)
    assert len(basis) == 6 - rank_ext(ctx, M)
    for v in basis:
        assert any(v)
        for row in M:
            acc = 0
            for a, b in zip(row, v):
                acc = ctx.add(acc, ctx.mul(a, b))
            assert acc == 0


# -- samplers ------------------------------------------------


def test_sample_error_decomposed_witness():
    ctx = get_field(2, 12)
    rng = random.Random(17)
    for r in range(0, 5):
        e, w, A = sample_error_decomposed(ctx, 10, r, rng)
        assert rank_over_base(ctx, e) == r
        assert len(w) == r and len(A) == r
        rebuilt = [0] * 10
        for wi, row in zip(w, A):
            for j, a in enumerate(row):
                if a:
                    rebuilt[j] = ctx.add(rebuilt[j], ctx.mul(wi, a) if a != 1 else wi)
        assert rebuilt == e
        for row in A:
            assert all(v < ctx.q for v in row)


def test_sample_error_exact_rank():
    ctx = get_field(2, 12)
    rng = random.Random(18)
    for r in (0, 1, 3, 5):
        for _ in range(10):
            e = sample_error(ctx, 12, r, rng)
            assert rank_over_base(ctx, e) == r


def test_sample_error_rejects_impossible_rank():
    ctx = get_field(2, 6)
    rng = random.Random(20)
    with pytest.raises(ValueError):
        sample_error(ctx, 4, 5, rng)  # rank cannot exceed length
    with pytest.raises(ValueError):
        sample_error(ctx, 8, 7, rng)  # rank cannot exceed N


def test_independent_elements():
    ctx = get_field(2, 8)
    rng = random.Random(21)
    elems = independent_elements(ctx, 8, rng)
    assert rank_over_base(ctx, elems) == 8
    with pytest.raises(ValueError):
        independent_elements(ctx, 9, rng)


def test_random_full_row_rank_square_and_rectangular():
    ctx = get_field(2, 8)
    rng = random.Random(22)
    # a square full-row-rank draw is an invertible matrix
    M = random_full_row_rank(ctx, 6, 6, rng)
    assert rank_ext(ctx, M) == 6
    B = random_full_row_rank(ctx, 6, 6, rng, base_field=True)
    assert rank_ext(ctx, B) == 6
    assert all(v < ctx.q for row in B for v in row)
    F = random_full_row_rank(ctx, 3, 7, rng)
    assert rank_ext(ctx, F) == 3
    Fb = random_full_row_rank(ctx, 3, 7, rng, base_field=True)
    assert rank_ext(ctx, Fb) == 3
    assert all(v < ctx.q for row in Fb for v in row)


def test_concat_and_shapes():
    ctx = get_field(2, 6)
    rng = random.Random(23)
    A = random_matrix(ctx, 2, 3, rng)
    B = random_matrix(ctx, 2, 4, rng)
    C = concat_cols(A, B)
    assert len(C) == 2 and all(len(r) == 7 for r in C)
    assert [r[:3] for r in C] == A and [r[3:] for r in C] == B


def test_vec_sub_inverts_addition():
    ctx = get_field(3, 3)
    rng = random.Random(24)
    u = [ctx.rand_elem(rng) for _ in range(5)]
    v = [ctx.rand_elem(rng) for _ in range(5)]
    w = [ctx.add(a, b) for a, b in zip(u, v)]
    assert vec_sub(ctx, w, v) == u


# -- products ------------------------------------------------

# a table field, two table-less q = 2 fields (N = 64 fills every 64-bit lane)
# and two odd characteristics
PRODUCT_FIELDS = [(2, 12), (2, 28), (2, 64), (3, 5), (5, 3)]


def scalar_product(ctx, v, M):
    """v M as one sum of ctx.mul terms per entry."""
    cols = zip(*M)
    return [reduce(ctx.add, [ctx.mul(a, b) for a, b in zip(v, col)], 0) for col in cols]


@pytest.mark.parametrize("q,N", PRODUCT_FIELDS)
def test_products_match_the_scalar_sum(q, N):
    ctx = get_field(q, N)
    rng = random.Random(q * 1000 + N)

    def entry():
        return ctx.rand_elem(rng) if rng.random() < 0.7 else 0

    for rows, cols in [(1, 1), (1, 7), (7, 1), (5, 9), (9, 5)]:
        M = [[entry() for _ in range(cols)] for _ in range(rows)]
        M[0][0] = ctx.size - 1
        if rows > 1:
            M[-1] = [0] * cols
        vs = [[entry() for _ in range(rows)] for _ in range(6)]
        vs += [[0] * rows, [ctx.size - 1] * rows]
        for v in vs:
            assert vec_mat_mul(ctx, v, M) == scalar_product(ctx, v, M)
        assert mat_mul(ctx, vs, M) == [scalar_product(ctx, v, M) for v in vs]


@pytest.mark.parametrize("q,N", PRODUCT_FIELDS)
def test_fixed_matrix_keeps_its_kernel_and_equals_its_rows(q, N):
    ctx = get_field(q, N)
    rng = random.Random(q * 1000 + N + 1)
    rows = random_matrix(ctx, 6, 8, rng)
    fixed = FixedMatrix(rows)
    assert fixed == rows and rows == fixed and fixed.times is None
    vs = [[ctx.rand_elem(rng) for _ in range(6)] for _ in range(50)]
    got = [vec_mat_mul(ctx, v, fixed) for v in vs]
    kernel = fixed.times
    assert kernel is not None
    assert got == [vec_mat_mul(ctx, v, rows) for v in vs]
    assert mat_mul(ctx, vs, fixed) == got and fixed.times is kernel
