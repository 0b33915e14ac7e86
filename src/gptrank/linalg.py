"""Dense vectors and matrices over F_{q^N}, plus rank queries over F_q.

Vectors are lists of field elements (ints) and matrices are lists of row
lists; every function takes the FieldCtx explicitly.  The rank of a vector
over the base field is the number of its entries that are linearly
independent over F_q -- the quantity the whole cryptosystem is built on.
Every F_q question -- ranks, the relations among a vector's entries, and
coordinates in an F_q-basis -- is answered here, by one eliminator per
algebra: bit-packed rows for q = 2 (one int per row of the coordinate
expansion), which keeps the distinguisher and the decoder fast, and the
extension-field elimination on the coordinate matrix for odd q.
"""

from __future__ import annotations

__all__ = [
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


def vec_mat_mul(ctx, v, M):
    """Row vector times matrix."""
    if len(v) != len(M):
        raise ValueError(f"dimension mismatch: vector {len(v)}, matrix {len(M)} rows")
    cols = len(M[0])
    add = ctx.add
    mul = ctx.mul
    out = [0] * cols
    for a, row in zip(v, M):
        if a == 0:
            continue
        if a == 1:
            for j, b in enumerate(row):
                if b:
                    out[j] = add(out[j], b)
        else:
            for j, b in enumerate(row):
                if b:
                    out[j] = add(out[j], mul(a, b))
    return out


def mat_mul(ctx, A, B):
    if len(A[0]) != len(B):
        raise ValueError(f"dimension mismatch: {len(A[0])} cols vs {len(B)} rows")
    cols = len(B[0])
    neg = ctx.neg
    updates = [ctx.submul_row(brow, 0) for brow in B]
    out = []
    for row in A:
        acc = [0] * cols
        for a, upd in zip(row, updates):
            if a:
                upd(acc, neg(a))
        out.append(acc)
    return out


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


def _gf2_rank(rows):
    pivots = {}
    rank = 0
    for v in rows:
        while v:
            p = v.bit_length() - 1
            other = pivots.get(p)
            if other is None:
                pivots[p] = v
                rank += 1
                break
            v ^= other
    return rank


def _gf2_rref(rows, ncols):
    work = [r for r in rows]
    nrows = len(work)
    pivots = []
    r = 0
    for c in range(ncols):
        mask = 1 << c
        pivot = None
        for i in range(r, nrows):
            if work[i] & mask:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        prow = work[r]
        for i in range(nrows):
            if i != r and (work[i] & mask):
                work[i] ^= prow
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return work, pivots


def _gf2_nullspace(rows, ncols):
    """Basis (as ints) of {x : M x = 0} for the bit matrix given by rows."""
    work, pivots = _gf2_rref(rows, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        x = 1 << f
        fmask = 1 << f
        for r, pc in enumerate(pivots):
            if work[r] & fmask:
                x |= 1 << pc
        basis.append(x)
    return basis


# -- linear algebra over the base field ----------------------------------------
# For odd q the coordinate matrices go through the extension-field routines:
# the ints 0..q-1 are the prime subfield, which elimination never leaves.


def _gf2_columns(elems, N):
    """Bit rows of the F_2 matrix whose column j holds the coordinates of elems[j]."""
    rows = [0] * N
    for j, a in enumerate(elems):
        col = 1 << j
        while a:
            low = a & -a
            rows[low.bit_length() - 1] |= col
            a ^= low
    return rows


def _coord_matrix(ctx, elems):
    """The F_q matrix whose column j holds the coordinates of elems[j]."""
    return [list(row) for row in zip(*map(ctx.coeffs, elems))]


def rank_over_base(ctx, vec):
    """Number of entries of vec linearly independent over F_q."""
    if ctx.q == 2:
        return _gf2_rank(list(vec))
    return rank_ext(ctx, _coord_matrix(ctx, vec))


def column_rank_over_base(ctx, M):
    """Number of columns of M linearly independent over F_q."""
    if not M:
        return 0
    cols = len(M[0])
    N = ctx.N
    if ctx.q == 2:
        packed = []
        for j in range(cols):
            v = 0
            for i, row in enumerate(M):
                v |= row[j] << (i * N)
            packed.append(v)
        return _gf2_rank(packed)
    expanded = []
    for j in range(cols):
        col = []
        for row in M:
            col.extend(ctx.coeffs(row[j]))
        expanded.append(col)
    return rank_ext(ctx, expanded)


def base_relations(ctx, vec):
    """Basis of the F_q-linear relations among the entries of vec.

    Each relation is a coefficient list c over F_q with sum_j c_j vec_j = 0.
    """
    n = len(vec)
    if ctx.q == 2:
        relations = _gf2_nullspace(_gf2_columns(vec, ctx.N), n)
        return [[x >> j & 1 for j in range(n)] for x in relations]
    return ext_nullspace(ctx, _coord_matrix(ctx, vec))


def base_coordinates(ctx, basis, elems):
    """Coordinates over F_q of each of elems in the F_q-independent basis.

    Returns one list a per element with sum_j a_j basis_j equal to it.  One
    elimination serves every element.  Raises ValueError when an element
    lies outside span_Fq(basis).
    """
    n = len(basis)
    m = len(elems)
    cols = list(basis) + list(elems)
    if ctx.q == 2:
        work, pivots = _gf2_rref(_gf2_columns(cols, ctx.N), n + m)
        coords = [[row >> (n + i) & 1 for row in work[:n]] for i in range(m)]
    else:
        work, pivots = _rref(ctx, _coord_matrix(ctx, cols))
        coords = [[row[n + i] for row in work[:n]] for i in range(m)]
    if pivots != list(range(n)):
        raise ValueError("an element lies outside the F_q-span of the basis")
    return coords


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
    if base_field:
        q = ctx.q
        return [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]
    size = ctx.size
    return [[rng.randrange(size) for _ in range(cols)] for _ in range(rows)]


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

