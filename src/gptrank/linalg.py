"""Dense vectors and matrices over F_{q^N}, plus rank queries over F_q.

Vectors are lists of field elements (ints) and matrices are lists of row
lists; every function takes the FieldCtx explicitly.  The rank of a vector
over the base field is the number of its entries that are linearly
independent over F_q -- the quantity the whole cryptosystem is built on.
Every F_q question -- ranks, the relations among a vector's entries, and
coordinates in an F_q-basis -- is answered here.  For q = 2 one bit-packed
eliminator, _gf2_echelon, serves the questions about one vector: an
element's int is its F_2 coordinate vector, and each row is reduced on its
highest bit.  Tagging the entries with identity bits makes the same pass
give the relations in the reduced form that _rref gives.  For odd q, and
for the column rank of a matrix at every q, the coordinate matrix goes
through the extension-field routines; its entries 0..q-1 are the prime
subfield, which elimination never leaves.

Over F_{q^N} there are two eliminators.  rank_ext runs forward only and
stops at the last pivot row; _rref reduces fully, for null spaces, solves
and inverses, and its nonzero rows are a reduced basis of the row space
(the distinguisher stacks them in place of the public matrix).  They stay
apart: in micro-benchmarks on 12 x 12 to 28 x 28 matrices over GF(2^12)
and GF(2^28), a rank taken through _rref was 30-65 % slower, and a forward
pass plus back-substitution made mat_inv 6-12 % slower than one
Gauss-Jordan pass.
"""

from __future__ import annotations

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
    "zeros_matrix",
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


def zeros_matrix(rows, cols):
    return [[0] * cols for _ in range(rows)]


def concat_cols(A, B):
    if len(A) != len(B):
        raise ValueError("row-count mismatch")
    return [ra + rb for ra, rb in zip(A, B)]


def mat_frobenius(ctx, M, i=1):
    """Entry-wise Frobenius power of a matrix."""
    frob = ctx.frobenius
    return [[frob(a, i) for a in row] for row in M]


# -- elimination over the extension field -----------------------------------


def rank_ext(ctx, M):
    """Ordinary rank of a matrix, by elimination over F_{q^N}."""
    if not M:
        return 0
    work = [list(row) for row in M]
    rows = len(work)
    cols = len(work[0])
    mul = ctx.mul
    inv = ctx.inv
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if work[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        if r + 1 == rows:
            return rows
        work[r], work[pivot] = work[pivot], work[r]
        piv_inv = inv(work[r][c])
        prow = work[r]
        if piv_inv != 1:
            work[r] = prow = [mul(piv_inv, a) for a in prow]
        targets = [row for row in work[r + 1 :] if row[c]]
        if targets:
            upd = ctx.submul_row(prow, c)
            for row in targets:
                upd(row, row[c])
        r += 1
    return r


def _rref(ctx, M):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    work = [list(row) for row in M]
    rows = len(work)
    cols = len(work[0]) if work else 0
    mul = ctx.mul
    inv = ctx.inv
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if work[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        piv_inv = inv(work[r][c])
        prow = work[r]
        if piv_inv != 1:
            work[r] = prow = [mul(piv_inv, a) for a in prow]
        targets = [row for row in work if row[c] and row is not prow]
        if targets:
            upd = ctx.submul_row(prow, c)
            for row in targets:
                upd(row, row[c])
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return work, pivots


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


def mat_inv(ctx, M):
    size = len(M)
    if any(len(row) != size for row in M):
        raise ValueError("matrix must be square")
    aug = [list(row) + [1 if i == j else 0 for j in range(size)] for i, row in enumerate(M)]
    work, pivots = _rref(ctx, aug)
    if pivots != list(range(size)):
        raise ValueError("matrix is singular")
    return [row[size:] for row in work[:size]]


# -- bit-packed elimination over F_2 ----------------------------------------
# Rows are ints; bit j of a row is the entry in column j.


def _gf2_echelon(rows):
    """Echelon basis of the row space of rows, as {leading bit: row}.

    Each row is reduced on its highest set bit; the dict keeps the order in
    which the basis rows were found.
    """
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


# -- linear algebra over the base field ----------------------------------------


def _coord_matrix(ctx, elems):
    """The F_q matrix whose column j holds the coordinates of elems[j]."""
    return [list(row) for row in zip(*map(ctx.coeffs, elems))]


def rank_over_base(ctx, vec):
    """Number of entries of vec linearly independent over F_q."""
    if ctx.q == 2:
        return len(_gf2_echelon(vec))
    return rank_ext(ctx, _coord_matrix(ctx, vec))


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
    if ctx.q != 2:
        return ext_nullspace(ctx, _coord_matrix(ctx, vec))
    # Tag entry j with bit j below its coordinates.  Entry j whose
    # coordinates eliminate to zero leaves the row led by tag bit j: its
    # own bit plus tags of independent earlier entries, never another
    # relation's lead.  Those rows, found in order of j, are the relations.
    n = len(vec)
    tagged = _gf2_echelon((a << n) | 1 << j for j, a in enumerate(vec))
    return [[x >> j & 1 for j in range(n)] for p, x in tagged.items() if p < n]


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


def random_matrix(ctx, rows, cols, rng, base_field=False):
    bound = ctx.q if base_field else ctx.size
    return [[rng.randrange(bound) for _ in range(cols)] for _ in range(rows)]


def random_full_row_rank(ctx, rows, cols, rng, base_field=False):
    if rows > cols:
        raise ValueError(f"cannot have row rank {rows} with only {cols} columns")
    while True:
        M = random_matrix(ctx, rows, cols, rng, base_field=base_field)
        if rank_ext(ctx, M) == rows:
            return M


def independent_elements(ctx, count, rng):
    """count elements of F_{q^N} linearly independent over F_q."""
    if count > ctx.N:
        raise ValueError(f"at most {ctx.N} independent elements exist, asked for {count}")
    out = []
    while len(out) < count:
        cand = ctx.rand_nonzero(rng)
        if rank_over_base(ctx, out + [cand]) == len(out) + 1:
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

