"""Rank computations and samplers against enumeration oracles."""

import itertools
import random
from functools import reduce
from operator import xor

import pytest

from gptrank.fields import get_field
from gptrank.linalg import (
    FixedMatrix,
    _gf2_coordinate_reader,
    _relation_elements,
    _rref,
    _span_combiner,
    _split_inverse,
    base_combination,
    base_coordinates,
    base_product,
    base_relations,
    base_transform,
    column_rank_over_base,
    concat_cols,
    ext_nullspace,
    identity_matrix,
    independent_elements,
    mat_add,
    mat_inv,
    mat_mul,
    random_full_row_rank,
    random_matrix,
    rank_ext,
    rank_over_base,
    sample_error,
    sample_error_decomposed,
    solve_linear,
    times_base,
    transpose,
    vec_add,
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


@pytest.mark.parametrize("N,n", [(12, 12), (28, 28), (28, 11), (32, 32), (33, 33)])
def test_bit_packed_answers_equal_the_generic_path(N, n):
    # the F_2 int cores that package code runs at q = 2; the extension-field
    # routines on the 0/1 coordinate matrix must give exactly the same
    ctx = get_field(2, N)
    rng = random.Random(100 * N + n)
    outcomes = set()
    for trial in range(40):
        gens = [ctx.rand_elem(rng) for _ in range(rng.randint(0, n))]
        vec = [span_draw(gens, rng) if trial % 5 else ctx.rand_elem(rng) for _ in range(n)]
        C = bit_matrix(N, vec)
        assert rank_over_base(ctx, vec) == rank_ext(ctx, C)
        # n <= N, so each relation is an element's coordinate list
        assert _relation_elements(ctx, vec) == list(map(ctx.from_coeffs, ext_nullspace(ctx, C)))

        # coordinates: the _rref read-out of [basis | elems], or ValueError
        # exactly when the basis columns are not the pivot columns
        basis = independent_elements(ctx, rng.randint(0, n), rng)
        elems = [span_draw(basis, rng) if trial % 4 else ctx.rand_elem(rng) for _ in range(3)]
        work, pivots = _rref(ctx, bit_matrix(N, basis + elems))
        k = len(basis)
        read = _gf2_coordinate_reader(ctx, basis)
        if pivots == list(range(k)):
            expected = [[row[k + i] for row in work[:k]] for i in range(len(elems))]
            assert [ctx.unpack_lanes(read(x), k) for x in elems] == expected
            outcomes.add("inside")
        else:
            with pytest.raises(ValueError):
                list(map(read, elems))
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


# n = N fills every lane of the packed rows at N = 32 (32-bit lanes) and N = 64
# (64-bit lanes); n < N leaves room outside
@pytest.mark.parametrize("q,N,n", [(2, 12, 12), (2, 28, 11), (2, 32, 32), (2, 64, 64), (3, 5, 3)])
def test_span_combiner_is_w_times_the_coordinates(q, N, n):
    ctx = get_field(q, N)
    rng = random.Random(1000 * q + N + n)
    basis = independent_elements(ctx, n, rng)
    combine = _span_combiner(ctx, basis)
    for r in range(1, 5):
        w = [ctx.rand_elem(rng) for _ in range(r)]
        # x_i = sum_j M_ji basis_j, so the coordinates of x are M's columns
        M = random_matrix(ctx, n, r, rng, base_field=True)
        x = base_combination(ctx, basis, M)
        assert base_coordinates(ctx, basis, x) == transpose(M)
        assert combine(w, x) == base_combination(ctx, w, transpose(M))
    if n < N:
        outside = ctx.rand_nonzero(rng)
        while rank_over_base(ctx, basis + [outside]) == n:
            outside = ctx.rand_nonzero(rng)
        with pytest.raises(ValueError):
            combine([1, 1], [basis[0], outside])
    if q != 2:  # base_coordinates' check; the q = 2 reader trusts its caller's h
        with pytest.raises(ValueError):
            _span_combiner(ctx, basis + [basis[0]])([1], [basis[0]])


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


# the eliminator against a textbook Gauss-Jordan: a table field, table-less
# q = 2 fields with 28 and 32 bits per 32-bit lane and 33, 40 and 64 bits
# per 64-bit lane (lane-packed rows), and an odd characteristic
ELIMINATION_FIELDS = [(2, 12), (2, 28), (2, 32), (2, 33), (2, 40), (2, 64), (3, 5)]


def reference_rref(ctx, M):
    """Reduced row echelon form by the textbook loop on ctx.mul and ctx.inv."""
    work = [list(row) for row in M]
    cols = len(M[0]) if M else 0
    pivots = []
    for c in range(cols):
        r = len(pivots)
        p = next((i for i in range(r, len(work)) if work[i][c]), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        a_inv = ctx.inv(work[r][c])
        work[r] = [ctx.mul(a_inv, x) for x in work[r]]
        for i, row in enumerate(work):
            if i != r and row[c]:
                f = row[c]
                work[i] = [ctx.sub(x, ctx.mul(f, y)) if y else x for x, y in zip(row, work[r])]
        pivots.append(c)
    return work, pivots


def elimination_cases(ctx, rng):
    """(name, matrix) pairs: every shape, full and rank-deficient, with zero rows and columns."""
    top = ctx.size - 1

    def rand(rows, cols):
        return [[rng.choice((top, ctx.rand_elem(rng))) for _ in range(cols)] for _ in range(rows)]

    def deficient(M):
        # row 1 a multiple of row 0 plus row 2, the last row and column 1 zero
        M = [list(row) for row in M]
        f = ctx.rand_nonzero(rng)
        M[1] = [ctx.add(ctx.mul(f, a), b) for a, b in zip(M[0], M[2])]
        M[-1] = [0] * len(M[0])
        for row in M:
            row[1] = 0
        return M

    def low_rank(rows, cols, rank, base_field=False):
        return mat_mul(ctx, rand(rows, rank), random_matrix(ctx, rank, cols, rng, base_field))

    def stack(M, depth=14):
        return [[ctx.frobenius(a, i) for a in row] for i in range(depth) for row in M]

    square = random_full_row_rank(ctx, 28, 28, rng)
    singular = deficient(square)
    cases = [
        ("1x1 zero", [[0]]),
        ("1x1 one", [[1]]),
        ("1x1", [[ctx.rand_nonzero(rng)]]),
        ("3x4", rand(3, 4)),
        ("3x4 deficient", deficient(rand(3, 4))),
        ("3x4 rank 1", low_rank(3, 4, 1)),
        ("14x28", rand(14, 28)),
        ("14x28 deficient", deficient(rand(14, 28))),
        ("14x28 rank 5", low_rank(14, 28, 5)),
        ("28x56 augmented", concat_cols(square, identity_matrix(28))),
        ("28x56 augmented singular", concat_cols(singular, identity_matrix(28))),
        ("196x28 stack", stack(rand(14, 28))),
        # sigma fixes a base-field factor, so this stack keeps rank <= 3
        ("196x28 stack rank 3", stack(low_rank(14, 28, 3, base_field=True))),
    ]
    return cases, square, singular


@pytest.mark.parametrize("q,N", ELIMINATION_FIELDS)
def test_elimination_matches_textbook_gauss_jordan(q, N):
    ctx = get_field(q, N)
    rng = random.Random(q * 1000 + N + 3)
    cases, square, singular = elimination_cases(ctx, rng)
    for name, M in cases:
        work, pivots = reference_rref(ctx, M)
        assert _rref(ctx, M) == (work, pivots), name
        assert rank_ext(ctx, M) == len(pivots), name
        # the null space read off the reduced form, one vector per free column
        cols = len(M[0])
        expected = []
        for free in sorted(set(range(cols)) - set(pivots)):
            x = [0] * cols
            x[free] = 1
            for r, pc in enumerate(pivots):
                x[pc] = ctx.neg(work[r][free])
            expected.append(x)
        assert ext_nullspace(ctx, M) == expected, name
        # M x = b for the last column b, solved with the free variables zero
        A, b = [row[:-1] for row in M], [row[-1] for row in M]
        if cols > 1:
            if pivots and pivots[-1] == cols - 1:
                with pytest.raises(ValueError):
                    solve_linear(ctx, A, b)
            else:
                x = [0] * (cols - 1)
                for r, pc in enumerate(pivots):
                    x[pc] = work[r][-1]
                assert solve_linear(ctx, A, b) == x, name
    work, _ = reference_rref(ctx, concat_cols(square, identity_matrix(28)))
    assert mat_inv(ctx, square) == [row[28:] for row in work]
    with pytest.raises(ValueError):
        mat_inv(ctx, singular)


# the F_q transform and product: a table field, table-less q = 2 fields with
# 28 and 32 bits per 32-bit lane and 33 and 64 bits per 64-bit lane, and two
# odd characteristics
BASE_FIELDS = [(2, 12), (2, 28), (2, 32), (2, 33), (2, 64), (3, 5), (5, 3)]


@pytest.mark.parametrize("q,N", BASE_FIELDS)
def test_base_transform_and_product_match_the_extension_field_algebra(q, N):
    ctx = get_field(q, N)
    rng = random.Random(q * 1000 + N + 5)
    # square: the inverse, equal to the textbook reduced form of [F | I]
    for size in (1, 4, 9):
        F = random_full_row_rank(ctx, size, size, rng, base_field=True)
        work, _ = reference_rref(ctx, concat_cols(F, identity_matrix(size)))
        T = base_transform(ctx, F)
        assert T == mat_inv(ctx, F) == [row[size:] for row in work]
    # rectangular: T invertible over F_q with T F = [I; 0], for every width
    for width in (0, 1, 3, 8):
        F = random_matrix(ctx, 9, width, rng, base_field=True)
        while rank_ext(ctx, F) < width:
            F = random_matrix(ctx, 9, width, rng, base_field=True)
        T = base_transform(ctx, F)
        assert all(a < q for row in T for a in row) and rank_ext(ctx, T) == 9
        if width:
            assert mat_mul(ctx, T, F) == [row[:width] for row in identity_matrix(9)]
    # dependent columns: a repeated column, a zero column, more columns than
    # rows, and a singular square
    F = random_matrix(ctx, 9, 3, rng, base_field=True)
    for bad in ([r + [r[0]] for r in F], [r + [0] for r in F], [[1, 0, 1], [0, 1, 1]],
                [[1, 1], [1, 1]]):
        with pytest.raises(ValueError, match="^the columns are dependent over F_q$"):
            base_transform(ctx, bad)
    # the product by an F_q matrix equals the generic product
    for rows, inner, cols in ((1, 1, 1), (5, 9, 4), (28, 28, 6), (9, 4, 1)):
        A = random_matrix(ctx, rows, inner, rng, base_field=True)
        M = random_matrix(ctx, inner, cols, rng)
        assert base_product(ctx, A, M) == mat_mul(ctx, A, M)
    # and so does the product on the right, M A
    for rows, inner, cols in ((1, 1, 1), (4, 9, 5), (6, 28, 28), (1, 4, 9)):
        M = random_matrix(ctx, rows, inner, rng)
        A = random_matrix(ctx, inner, cols, rng, base_field=True)
        assert times_base(ctx, M, A) == mat_mul(ctx, M, A)
    # [X | F]^{-1} for F over F_q equals the generic inverse for every split
    # of the columns, with none in X or none in F; both refuse a singular one
    for width in (0, 1, 4, 8, 9):
        X, F = [], []
        while not X or rank_ext(ctx, concat_cols(X, F)) < 9:
            X = random_matrix(ctx, 9, 9 - width, rng)
            F = random_matrix(ctx, 9, width, rng, base_field=True)
        assert _split_inverse(ctx, X, F) == mat_inv(ctx, concat_cols(X, F))
        X[0], F[0] = [0] * (9 - width), [0] * width  # a zero row
        with pytest.raises(ValueError):
            mat_inv(ctx, concat_cols(X, F))
        with pytest.raises(ValueError):
            _split_inverse(ctx, X, F)


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


@pytest.mark.parametrize("N,count", [(8, 8), (28, 28), (64, 12)])
def test_independent_elements_keeps_what_the_prefix_rank_test_keeps(N, count):
    # the running F_2 echelon accepts and rejects the same draws, so seeded
    # keys stay byte for byte
    ctx = get_field(2, N)
    rng = random.Random(N)
    want = []
    while len(want) < count:
        cand = ctx.rand_nonzero(rng)
        if rank_over_base(ctx, want + [cand]) == len(want) + 1:
            want.append(cand)
    assert independent_elements(ctx, count, random.Random(N)) == want


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


# 257 is above the byte-table range, where the draw keeps per-entry randrange
@pytest.mark.parametrize("q", [2, 3, 5, 7, 251, 257])
def test_base_field_draws_take_the_per_entry_randrange_stream(q):
    # seeded keys and ciphertexts stay byte for byte only if the bulk draw
    # returns what one randrange(q) per entry returns and leaves the
    # generator where those calls leave it
    ctx = get_field(q, 2)
    for seed in range(4):
        for rows, cols in [(0, 5), (5, 0), (1, 1), (3, 28), (28, 28)]:
            ref, rng = random.Random(seed), random.Random(seed)
            want = [[ref.randrange(q) for _ in range(cols)] for _ in range(rows)]
            assert random_matrix(ctx, rows, cols, rng, base_field=True) == want
            assert rng.random() == ref.random()
    # rejected full-row-rank draws consume the same words as accepted ones
    shapes = [(1, 1), (3, 28), (28, 28)] if q == 2 else [(1, 1), (3, 8), (5, 5)]
    rejected = 0
    for seed in range(8):
        for rows, cols in shapes:
            ref, rng = random.Random(seed), random.Random(seed)
            while True:
                want = [[ref.randrange(q) for _ in range(cols)] for _ in range(rows)]
                if rank_ext(ctx, want) == rows:
                    break
                rejected += 1
            assert random_full_row_rank(ctx, rows, cols, rng, base_field=True) == want
            assert rng.random() == ref.random()
    # at q >= 251 a 1 x 1 draw is singular once in q, and larger shapes less often
    assert rejected or q >= 251


def test_base_field_draws_from_the_os_csprng():
    rng = random.SystemRandom()
    for q in (2, 3, 251, 257):
        ctx = get_field(q, 2)
        M = random_matrix(ctx, 28, 28, rng, base_field=True)
        assert len(M) == 28 and all(len(row) == 28 for row in M)
        assert all(0 <= v < q for row in M for v in row)
        assert random_matrix(ctx, 3, 0, rng, base_field=True) == [[], [], []]
    B = random_full_row_rank(get_field(2, 2), 28, 28, rng, base_field=True)
    assert len(B) == 28 and all(len(row) == 28 and set(row) <= {0, 1} for row in B)


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

# a table field; table-less q = 2 fields on both sides of the switch from
# 32-bit to 64-bit row lanes and of scale_row's from 64-bit to 128-bit lanes
# (N = 32, 33), and N = 64, which fills every 64-bit lane of row_combiner;
# and two odd characteristics
PRODUCT_FIELDS = [(2, 12), (2, 28), (2, 32), (2, 33), (2, 64), (3, 5), (5, 3)]


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
def test_scale_row_matches_mul(q, N):
    ctx = get_field(q, N)
    rng = random.Random(q * 1000 + N + 2)
    top = ctx.size - 1
    rows = [[0], [top], [ctx.rand_nonzero(rng)]]
    for _ in range(3):
        row = [rng.choice((0, top, ctx.rand_elem(rng))) for _ in range(33)]
        rows.append([0, top] + row)
    for f in [0, 1, top] + [ctx.rand_elem(rng) for _ in range(5)]:
        for row in rows:
            assert ctx.scale_row(row, f) == [ctx.mul(f, a) for a in row]


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


F = get_field(2, 8)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: vec_add(F, [1, 2], [1, 2, 3]), "length mismatch: 2 vs 3"),
        (lambda: vec_sub(F, [1, 2, 3], [1]), "length mismatch: 3 vs 1"),
        (lambda: vec_mat_mul(F, [1, 2], [[1], [2], [3]]),
         "dimension mismatch: vector 2, matrix 3 rows"),
        (lambda: mat_mul(F, [[1, 2]], [[1], [2], [3]]), "dimension mismatch: 2 cols vs 3 rows"),
        (lambda: mat_add(F, [[1, 2]], [[1, 2], [3, 4]]), "shape mismatch"),
        (lambda: mat_add(F, [[1, 2]], [[1, 2, 3]]), "shape mismatch"),
        (lambda: concat_cols([[1]], [[1], [2]]), "row-count mismatch"),
        (lambda: solve_linear(F, [[1, 0], [0, 1]], [1]), "dimension mismatch"),
        (lambda: mat_inv(F, [[1, 0, 0], [0, 1, 0]]), "matrix must be square"),
        (lambda: base_product(F, [[1, 0]], [[1], [2], [3]]),
         "dimension mismatch: 2 cols vs 3 rows"),
        (lambda: random_full_row_rank(F, 3, 2, random.Random(1)),
         "cannot have row rank 3 with only 2 columns"),
    ],
    ids=["vec_add", "vec_sub", "vec_mat_mul", "mat_mul", "mat_add rows", "mat_add cols",
         "concat_cols", "solve_linear", "mat_inv", "base_product", "random_full_row_rank"],
)
def test_shape_refusals_name_their_reason(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_null_space_of_no_rows_is_empty():
    assert ext_nullspace(F, []) == []
