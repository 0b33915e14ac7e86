"""Dense vectors and matrices over F_{q^N}, plus rank queries over F_q.

Vectors are lists of field elements (ints) and matrices are lists of row
lists; every function takes the FieldCtx explicitly.  The rank of a vector
over the base field is the number of its entries that are linearly
independent over F_q -- the quantity the whole cryptosystem is built on.
Every F_q question -- ranks, the relations among a vector's entries,
coordinates in an F_q-basis, and the transform T with T F = [I; 0] of a
matrix F over F_q (base_transform, F's inverse when F is square) -- is
answered here.  The generic path serves every q: the transposed F_q
coordinate matrix goes through the extension-field eliminator, whose
entries 0..q-1 are the prime subfield, which elimination never leaves.
base_relations, base_coordinates and column_rank_over_base take only that
path.  At q = 2 the queries the package runs per key or per ciphertext
use an F_2 int core instead: rank_over_base, base_transform, the random
draws and the decoder's _relation_elements and _span_combiner reduce with
one bit-packed eliminator, _gf2_echelon.  There an element's int is its
F_2 coordinate vector, and each row is reduced on its highest bit.
Tagging the entries (or rows) with identity bits makes the same pass give
the relations, or the row operations, in the reduced form that _rref
gives.  The answers stay ints: a relation c has c_j at bit j, so one among
the images L(alpha^j) is itself a kernel element (_relation_elements),
and coordinates are lane-packed (ctx.pack_lanes), c_j in lane j, so w A
is an xor of products w_i row_i (_span_combiner).  Products by a matrix A
over F_q live here too: A M (base_product; at q = 2 one xor per row of
M's lane-packed rows), M A (times_base) and w A (base_combination), as
does [X | F]^{-1} for F over F_q (_split_inverse).

Over F_{q^N} there is one elimination loop, _eliminate.  rank_ext runs it
forward only: each pivot clears the rows below, and a pivot in the last
column clears nothing.  _rref runs it fully reduced, for null spaces,
solves and inverses; its nonzero rows are a reduced basis of the row space
(the distinguisher's rank_profile recurses on their free block).  The loop
never sees an entry directly: the field chooses its row format when it is
built (ctx.pack_row, ctx.unpack_row), reads a column (ctx.column) and
updates rows (ctx.submul_row) in that format.  A pivot a != 1 costs
products one of two ways.  Scaling its row by 1/a takes up to cols - c of
them, c the pivot column; ctx.scale_row does it, by the packed kernel at
q = 2 without tables, but the rule still counts those products.  Folding
1/a into the multipliers of the h rows it clears takes h, plus, in full
mode, one more submul_row call that scales the row.  The loop folds when
that is fewer, h + full < cols - c, except in full mode at odd q, where
that kernel call multiplies and subtracts per entry.  The reduced echelon
form is unique, so _rref's rows do not depend on the choice.

Random matrices over F_q draw their entries in bulk (_base_rows), from the
very 32-bit words that one rng.randrange(q) per entry takes, so seeded
output is unchanged; rng must provide getrandbits, as random.Random and
random.SystemRandom do.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import reduce
from itertools import compress
from operator import mul, xor

__all__ = [
    "FixedMatrix",
    "vec_add",
    "vec_sub",
    "vec_mat_mul",
    "mat_mul",
    "mat_add",
    "mat_inv",
    "transpose",
    "identity_matrix",
    "concat_cols",
    "mat_frobenius",
    "rank_ext",
    "ext_nullspace",
    "solve_linear",
    "rank_over_base",
    "column_rank_over_base",
    "base_relations",
    "base_coordinates",
    "base_combination",
    "base_transform",
    "base_product",
    "times_base",
    "random_matrix",
    "random_full_row_rank",
    "independent_elements",
    "sample_error",
    "sample_error_decomposed",
]


# -- basic arithmetic -------------------------------------------------------


def vec_add(ctx, u, v):
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    add = ctx.add
    return [add(a, b) for a, b in zip(u, v)]


def vec_sub(ctx, u, v):
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    sub = ctx.sub
    return [sub(a, b) for a, b in zip(u, v)]


class FixedMatrix(list):
    """A matrix, never changed once made, that keeps its product kernel.

    ``times`` is None until the first product by the matrix builds it with
    ``FieldCtx.row_combiner``; otherwise the matrix is its plain list of rows.
    """

    times = None


def _combiner(ctx, M):
    """v -> v M, kept on M when M is a FixedMatrix."""
    times = getattr(M, "times", None) or ctx.row_combiner(M)
    if isinstance(M, FixedMatrix):
        M.times = times
    return times


def vec_mat_mul(ctx, v, M):
    """Row vector times matrix."""
    if len(v) != len(M):
        raise ValueError(f"dimension mismatch: vector {len(v)}, matrix {len(M)} rows")
    return _combiner(ctx, M)(v)


def mat_mul(ctx, A, B):
    if len(A[0]) != len(B):
        raise ValueError(f"dimension mismatch: {len(A[0])} cols vs {len(B)} rows")
    return list(map(_combiner(ctx, B), A))


def mat_add(ctx, A, B):
    if len(A) != len(B) or len(A[0]) != len(B[0]):
        raise ValueError("shape mismatch")
    add = ctx.add
    return [[add(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def transpose(M):
    return [list(col) for col in zip(*M)]


def identity_matrix(size):
    return [[1 if i == j else 0 for j in range(size)] for i in range(size)]


def concat_cols(A, B):
    if len(A) != len(B):
        raise ValueError("row-count mismatch")
    return [ra + rb for ra, rb in zip(A, B)]


def mat_frobenius(ctx, M, i=1):
    """Entry-wise Frobenius power of a matrix."""
    frob = ctx.frobenius
    return [[frob(a, i) for a in row] for row in M]


# -- elimination over the extension field -----------------------------------


def _eliminate(ctx, M, full):
    """Gauss-Jordan elimination of M over F_{q^N}; returns (rows, pivot columns).

    The rows come back in the field's row format (``ctx.pack_row``).  With
    full, each pivot clears its column in every other row, which leaves the
    reduced echelon form.  Otherwise it clears only the rows below, and
    only while a column is left to find a pivot in: the pivot count is the
    rank, and the rows are left partly reduced.
    """
    cols = len(M[0]) if M else 0
    pack, unpack, column = ctx.pack_row, ctx.unpack_row, ctx.column
    submul, mul, inv, neg = ctx.submul_row, ctx.mul, ctx.inv, ctx.neg
    # a full pass scales a folded pivot row through its update kernel,
    # which is cheap only at q = 2
    may_fold = not full or ctx.q == 2
    work = list(map(pack, M))
    rows = len(work)
    pivots = []
    r = 0
    for c in range(cols):
        lo = 0 if full else r
        vals = column(work, c, lo)
        hits = list(compress(range(lo, rows), vals))
        k = bisect_left(hits, r)
        if k == len(hits):
            continue
        # row r holds a zero here unless it is the pivot, so after the swap
        # the rows to clear are the other hits
        p = hits.pop(k)
        work[r], work[p] = work[p], work[r]
        # forward only, a pivot with no row below it, or in the last
        # column, has nothing to clear that the rank depends on
        if full or hits and c + 1 < cols:
            a = vals[p - lo]
            if a == 1:
                fold = False
            else:
                # fold 1/a into the multipliers when that takes fewer
                # products (module docstring); the row is zero left of c
                piv_inv = inv(a)
                fold = may_fold and len(hits) + full < cols - c
                if not fold:
                    work[r] = pack(ctx.scale_row(unpack(work[r], cols), piv_inv))
            if hits or fold:
                upd = submul(work[r], len(hits) + fold * full)
                for i in hits:
                    f = vals[i - lo]
                    work[i] = upd(work[i], mul(f, piv_inv) if fold else f)
                if fold and full:
                    work[r] = upd(pack([0] * cols), neg(piv_inv))
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return work, pivots


def rank_ext(ctx, M):
    """Ordinary rank of a matrix, by elimination over F_{q^N}."""
    return len(_eliminate(ctx, M, full=False)[1])


def _rref(ctx, M):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    work, pivots = _eliminate(ctx, M, full=True)
    cols = len(M[0]) if M else 0
    return [ctx.unpack_row(w, cols) for w in work], pivots


def ext_nullspace(ctx, M):
    """Basis of the right null space {x : M x = 0}, as a list of vectors."""
    if not M:
        return []
    cols = len(M[0])
    work, pivots = _rref(ctx, M)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    neg = ctx.neg
    for f in free:
        x = [0] * cols
        x[f] = 1
        for r, pc in enumerate(pivots):
            x[pc] = neg(work[r][f])
        basis.append(x)
    return basis


def solve_linear(ctx, A, b):
    """One solution x of A x = b (free variables set to zero).

    Raises ValueError when the system is inconsistent.
    """
    if len(A) != len(b):
        raise ValueError("dimension mismatch")
    aug = [list(row) + [bv] for row, bv in zip(A, b)]
    cols = len(A[0])
    work, pivots = _rref(ctx, aug)
    x = [0] * cols
    for r, pc in enumerate(pivots):
        if pc == cols:
            raise ValueError("inconsistent linear system")
        x[pc] = work[r][cols]
    return x


def _transform(ctx, M, singular):
    """E with E M = [I; 0], from the reduced form of [M | I] over F_{q^N}.

    Raises ValueError(singular) when M's columns are dependent.
    """
    size, cols = len(M), len(M[0]) if M else 0
    aug = [list(row) + [1 if i == j else 0 for j in range(size)] for i, row in enumerate(M)]
    work, pivots = _rref(ctx, aug)
    if pivots[:cols] != list(range(cols)):
        raise ValueError(singular)
    return [row[cols:] for row in work]


def mat_inv(ctx, M):
    size = len(M)
    if any(len(row) != size for row in M):
        raise ValueError("matrix must be square")
    return _transform(ctx, M, "matrix is singular")


# -- bit-packed elimination over F_2 ----------------------------------------
# Rows and relations are ints whose bit j is entry j; coordinates that
# multiply a vector are lane-packed instead, entry j in lane j.


def _gf2_echelon(rows, basis=None):
    """Echelon basis of the row space of rows, as {leading bit: row}.

    Each row is reduced on its highest set bit; the dict keeps the order in
    which the basis rows were found.  A given basis is extended in place.
    """
    if basis is None:
        basis = {}
    for v in rows:
        while v:
            p = v.bit_length() - 1
            other = basis.get(p)
            if other is None:
                basis[p] = v
                break
            v ^= other
    return basis


def _gf2_coordinate_reader(ctx, basis):
    """x -> its coordinates in the F_2-independent basis, entry j in lane j.

    Entry j sits above the tag bit that starts lane j, so reducing x << top
    by their echelon leaves the tags of the entries that sum to x.  Raises
    ValueError for an x outside span(basis), and when built on a dependent
    basis (an echelon row led by a tag bit is a relation).
    """
    bits = ctx.lane_bits
    top = bits * len(basis)
    echelon = _gf2_echelon(a << top | 1 << bits * j for j, a in enumerate(basis))
    if min(echelon, default=top) < top:
        raise ValueError("the basis is dependent over F_q")

    def read(x):
        v = x << top
        while v >> top:
            row = echelon.get(v.bit_length() - 1)
            if row is None:
                raise ValueError("an element lies outside the F_q-span of the basis")
            v ^= row
        return v

    return read


# -- linear algebra over the base field ----------------------------------------


def rank_over_base(ctx, vec):
    """Number of entries of vec linearly independent over F_q."""
    if ctx.q == 2:
        return len(_gf2_echelon(vec))
    return rank_ext(ctx, list(map(ctx.coeffs, vec)))  # the transpose has the same rank


def column_rank_over_base(ctx, M):
    """Number of columns of M linearly independent over F_q."""
    # row j lists the F_q coordinates of every entry of column j; a matrix
    # over F_q has the same rank over F_{q^N}
    return rank_ext(ctx, [[a for x in col for a in ctx.coeffs(x)] for col in zip(*M)])


def base_relations(ctx, vec):
    """Basis of the F_q-linear relations among the entries of vec.

    Each relation is a coefficient list c over F_q with sum_j c_j vec_j = 0.
    Relation i is the one whose last nonzero coefficient, a 1, sits at the
    i-th entry of vec that depends on the entries before it.
    """
    return ext_nullspace(ctx, [list(row) for row in zip(*map(ctx.coeffs, vec))])


def _relation_elements(ctx, vec):
    """base_relations(ctx, vec), len(vec) <= N, relation c as sum_j c_j alpha^j."""
    if ctx.q != 2:
        return list(map(ctx.from_coeffs, base_relations(ctx, vec)))
    # Tag entry j with bit j below its coordinates.  Entry j whose
    # coordinates eliminate to zero leaves the row led by tag bit j: its
    # own bit plus tags of independent earlier entries, never another
    # relation's lead.  Those rows, found in order of j, are the relations,
    # and each relation's int is its element.
    n = len(vec)
    tagged = _gf2_echelon((a << n) | 1 << j for j, a in enumerate(vec))
    return [x for p, x in tagged.items() if p < n]


def base_coordinates(ctx, basis, elems):
    """Coordinates over F_q of each of elems in the F_q-independent basis.

    Returns one list a per element with sum_j a_j basis_j equal to it.  One
    elimination serves every element.  Raises ValueError when an element
    lies outside span_Fq(basis) or the basis is dependent.
    """
    n = len(basis)
    relations = base_relations(ctx, list(basis) + list(elems))
    # only an independent basis spanning every element leaves exactly one
    # relation per element, each ending in that element's coefficient 1
    if len(relations) != len(elems) or not all(any(x[n:]) for x in relations):
        raise ValueError("an element lies outside the F_q-span of the basis")
    neg = ctx.neg
    return [[neg(a) for a in x[:n]] for x in relations]


def _span_combiner(ctx, basis):
    """(w, x) -> w A, row i of A over F_q the coordinates of x_i in basis.

    Raises ValueError as base_coordinates does.  At q = 2 row i stays
    lane-packed, so w_i times it holds w_i in the lanes it selects.
    """
    if ctx.q != 2:
        return lambda w, x: base_combination(ctx, w, base_coordinates(ctx, basis, x))
    read, unpack, n = _gf2_coordinate_reader(ctx, basis), ctx.unpack_lanes, len(basis)
    return lambda w, x: unpack(reduce(xor, map(mul, w, map(read, x)), 0), n)


def base_transform(ctx, F):
    """An invertible T over F_q with T F = [I; 0], for a matrix F over F_q.

    For a square F, T is F^{-1}.  Raises ValueError when F's columns are
    dependent over F_q.
    """
    if ctx.q != 2:
        return _transform(ctx, F, "the columns are dependent over F_q")
    # Row i is F's row i, column c at bit 8c (bytes(row)), above tag bit i.
    # Each echelon row is a combination of F's rows that its tag bits name;
    # one led by an F bit is a pivot, one led by a tag bit has F part 0.
    size = len(F)
    tags = (1 << size) - 1
    basis = _gf2_echelon(
        int.from_bytes(bytes(row), "little") << size | 1 << i for i, row in enumerate(F)
    )
    leads = sorted(p for p in basis if p >= size)
    if len(leads) < len(F[0]):
        raise ValueError("the columns are dependent over F_q")
    # back-substitution, lowest pivot first, leaves pivot row c with F part e_c
    top = []
    for p in leads:
        v = basis[p]
        for lead, row in zip(leads, top):
            if v >> lead & 1:
                v ^= row
        top.append(v)
    rows = [v & tags for v in top] + [v for p, v in basis.items() if p < size]
    return [[v >> j & 1 for j in range(size)] for v in rows]


def base_product(ctx, A, M):
    """The matrix A M, for A over F_q and M over F_{q^N}.

    At q = 2 each row of the product is one xor of the lane-packed rows of
    M that the row of A selects.
    """
    if len(A[0]) != len(M):
        raise ValueError(f"dimension mismatch: {len(A[0])} cols vs {len(M)} rows")
    if ctx.q != 2:
        return mat_mul(ctx, A, M)
    cols, unpack = len(M[0]), ctx.unpack_lanes
    packed = list(map(ctx.pack_lanes, M))
    return [unpack(reduce(xor, compress(packed, row), 0), cols) for row in A]


def times_base(ctx, M, A):
    """The matrix M A, for M over F_{q^N} and A over F_q, as (A^T M^T)^T."""
    return transpose(base_product(ctx, transpose(A), transpose(M)))


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


def base_combination(ctx, w, A):
    """The vector w A, for w over F_{q^N} and a matrix A over F_q."""
    add = ctx.add
    mul = ctx.mul
    out = [0] * len(A[0])
    for wi, row in zip(w, A):
        for j, a in enumerate(row):
            if a == 1:
                out[j] = add(out[j], wi)
            elif a:
                out[j] = add(out[j], mul(wi, a))
    return out


# -- random generation ---------------------------------------------------------


_DRAW_TABLES = {}  # q -> (byte -> value, rejected bytes), the arguments of bytes.translate


def _base_rows(rng, q, rows, cols):
    """rows x cols uniform values in [0, q), as rows of bytes for q < 256.

    They are the values that rows * cols calls of rng.randrange(q) return,
    row by row, and the generator ends in the same state.  For q < 256,
    randrange(q) keeps the top k = q.bit_length() bits of one 32-bit word
    and draws again while they are >= q, and getrandbits(32 m) returns m
    such words, the first lowest.  So each pass draws one word per value
    still missing, keeps byte 4i + 3 of word i, and one translate maps the
    kept bytes to values and deletes the rejects: the same words in the
    same order, never one ahead.  Larger q keeps per-entry randrange.
    """
    count = rows * cols
    if q < 256:
        tables = _DRAW_TABLES.get(q)
        if tables is None:
            shift = 8 - q.bit_length()
            tables = _DRAW_TABLES[q] = (
                bytes(b >> shift for b in range(256)),
                bytes(b for b in range(256) if b >> shift >= q),
            )
        vals = b""
        while len(vals) < count:
            missing = count - len(vals)
            words = rng.getrandbits(32 * missing).to_bytes(4 * missing, "little")
            vals += words[3::4].translate(*tables)
    else:
        vals = [rng.randrange(q) for _ in range(count)]
    return [vals[i * cols : (i + 1) * cols] for i in range(rows)]


def random_matrix(ctx, rows, cols, rng, base_field=False):
    """Uniform rows x cols matrix over F_{q^N}, or over F_q with base_field.

    F_q entries are drawn in bulk (_base_rows) from the words that per-entry
    randrange(q) would take, so seeded output is the same; rng must provide
    getrandbits, as random.Random and random.SystemRandom do.
    """
    if base_field:
        return [list(row) for row in _base_rows(rng, ctx.q, rows, cols)]
    bound = ctx.size
    return [[rng.randrange(bound) for _ in range(cols)] for _ in range(rows)]


def random_full_row_rank(ctx, rows, cols, rng, base_field=False):
    """Uniform rows x cols matrix of row rank rows, by rejection.

    Draws as random_matrix does.  At q = 2 each drawn row of bytes is read
    as one int, whose bit 8j is entry j: an injective F_2-linear map, so
    the rank is unchanged, and a rejected draw never becomes lists.
    """
    if rows > cols:
        raise ValueError(f"cannot have row rank {rows} with only {cols} columns")
    while True:
        if base_field and ctx.q == 2:
            drawn = _base_rows(rng, 2, rows, cols)
            if len(_gf2_echelon(int.from_bytes(row, "little") for row in drawn)) == rows:
                return [list(row) for row in drawn]
        else:
            M = random_matrix(ctx, rows, cols, rng, base_field=base_field)
            if rank_ext(ctx, M) == rows:
                return M


def independent_elements(ctx, count, rng):
    """count elements of F_{q^N} linearly independent over F_q."""
    if count > ctx.N:
        raise ValueError(f"at most {ctx.N} independent elements exist, asked for {count}")
    out = []
    echelon = {}  # at q = 2, one echelon of out kept from draw to draw
    while len(out) < count:
        cand = ctx.rand_nonzero(rng)
        if ctx.q == 2:
            kept = len(_gf2_echelon((cand,), echelon)) > len(out)
        else:
            kept = rank_over_base(ctx, out + [cand]) == len(out) + 1
        if kept:
            out.append(cand)
    return out


# -- rank-bounded error vectors -------------------------------------------------


def sample_error_decomposed(ctx, n, rank, rng):
    """Error of rank exactly `rank`, returned with its witness factorisation.

    The vector is built as e = w A with w a list of `rank` elements
    independent over F_q and A a full-row-rank rank x n matrix over F_q,
    which is exactly what makes every entry of e live in the F_q-span of w.
    """
    if rank < 0 or rank > min(n, ctx.N):
        raise ValueError(f"rank must lie in [0, min(n, N)] = [0, {min(n, ctx.N)}]")
    if rank == 0:
        return [0] * n, [], []
    w = independent_elements(ctx, rank, rng)
    A = random_full_row_rank(ctx, rank, n, rng, base_field=True)
    return base_combination(ctx, w, A), w, A


def sample_error(ctx, n, rank, rng):
    """Random length-n vector of rank exactly `rank` over F_q."""
    return sample_error_decomposed(ctx, n, rank, rng)[0]

