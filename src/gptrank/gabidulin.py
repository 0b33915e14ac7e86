"""Gabidulin maximum-rank-distance codes: construction, encoding, decoding.

The code of length n <= N and dimension k over F_{q^N} is generated by the
k x n matrix whose rows are successive Frobenius powers of a fixed vector g
with entries linearly independent over F_q.  Such codes attain the
Singleton bound in the rank metric (d = n - k + 1) and correct any error of
rank up to t = floor((n - k) / 2).  One Moore matrix of g builds the
code: its first k rows are G, and its null space, twisted by sigma^(k+1-n),
gives the parity vector h.

Decoding is syndrome based.  Write the received word as y = c + e with
e = w A, where w_1..w_r are independent over F_q and A is r x n over F_q,
and let x_i = sum_j A_ij h_j.  The syndromes collapse to
s_l = sum_i w_i x_i^(q^l); the minimal linearized polynomial annihilating
the w_i satisfies a key equation modulo x^(q^(n-k)) that the linearized
extended Euclidean algorithm solves.  Its kernel gives an F_q-basis of the
span of the w_i, which stands in for w.  The first r syndromes give the
system sum_i w_i^(q^-l) x_i = s_l^(q^-l), l < r, whose matrix is a Moore
matrix in sigma^-1.  Gabidulin's recursion (1985) solves it in O(r^2)
field operations: each stage applies sigma^-1 - c, with c chosen to kill
the lead unknown, and leaves a system of the same shape one smaller, so
back-substitution gives x.  The coordinates of each x_i in the F_q-basis
h are the rows of A, and one linalg step, the h-coordinate reader, takes
x through them to e = E A.  The message is m = c[:k] G_info^-1 for
c = y - e, so m G agrees with c on the first k places by construction,
and c is a codeword exactly when m G[:, k:] = c[k:]: the check before
returning multiplies by those n - k columns only.  A code builds
G_info^-1 and the reader on its first decode, as only decoding reads them.
"""

from __future__ import annotations

from .errors import DecodeFailure, ParameterError
from .fields import _check_counts
from .linalg import (
    FixedMatrix,
    _span_combiner,
    ext_nullspace,
    mat_inv,
    rank_over_base,
    transpose,
    vec_mat_mul,
    vec_sub,
)
from .linpoly import LinPoly, lp_eea

__all__ = ["GabidulinCode", "moore_matrix"]


def moore_matrix(ctx, g, rows):
    """rows x len(g) matrix with entry (i, j) = g_j^(q^i), by ctx.frobenius_rows."""
    return ctx.frobenius_rows(g, rows)


class GabidulinCode:
    """An (n, k) maximum-rank-distance code over F_{q^N}."""

    def __init__(self, ctx, g, k: int):
        n = len(g)
        _check_counts(k=k)
        if not 1 <= k < n:
            raise ParameterError(f"need 1 <= k < n, got k={k}, n={n}")
        if n > ctx.N:
            raise ParameterError(f"code length {n} exceeds extension degree {ctx.N}")
        # the rank test assumes field elements: at q = 2 a negative int never reduces
        ctx.check_elements(g, "locator vector")
        if rank_over_base(ctx, g) != n:
            raise ParameterError("code locators must be linearly independent over F_q")
        self.ctx = ctx
        self.g = list(g)
        self.n = n
        self.k = k
        self.d = n - k + 1
        self.t = (n - k) // 2
        # h0 spans the null space of the (n-1)-row Moore matrix, so
        # sum_j g_j^[i] h0_j = 0 for 0 <= i <= n-2.  With h = sigma^s(h0),
        # entry (i, l) of G H^T is sigma^(s+l) of sum_j g_j^[i-s-l] h0_j; for
        # s = k+1-n the index i-s-l lies in [0, n-2] for every i < k and
        # l < n-k, so every entry of G H^T is 0.
        moore = moore_matrix(ctx, g, n - 1)
        self.G = FixedMatrix(moore[:k])
        (h0,) = ext_nullspace(ctx, moore)
        self.h = [ctx.frobenius(v, k + 1 - n) for v in h0]
        self.H = moore_matrix(ctx, self.h, n - k)
        # per-column Frobenius powers of h, reused by every syndrome pass
        self._htab = FixedMatrix(transpose(self.H))
        self._tail = FixedMatrix([row[k:] for row in self.G])
        # decode-only; not a cached_property, for the reason FieldCtx.__init__ gives
        self._info_inv = self._span_error = None

    def encode(self, m):
        if len(m) != self.k:
            raise ParameterError(f"message length must be {self.k}, got {len(m)}")
        return vec_mat_mul(self.ctx, m, self.G)

    def syndromes(self, y):
        return vec_mat_mul(self.ctx, y, self._htab)

    def _decoding_tables(self):
        """(G_info^-1, the combiner (w, x) -> w A of `_span_combiner` on h), built once."""
        if self._info_inv is None:  # set last, so a table is never half built
            ctx, k = self.ctx, self.k
            self._span_error = _span_combiner(ctx, self.h)
            self._info_inv = FixedMatrix(mat_inv(ctx, [row[:k] for row in self.G]))
        return self._info_inv, self._span_error

    def _solve_locations(self, E, synd):
        """The x_i = sum_j A_ij h_j of e = E A, from the first r = len(E) syndromes.

        With x_i = sum_j A_ij h_j the syndromes read s_l = sum_i E_i x_i^[l],
        so x solves sum_i sigma^-l(F_i) x_i = sigma^-l(b_l), l < r, for
        F = E and b = s_0..s_(r-1) (Gabidulin 1985).  A stage keeps equation
        0 and the inverse of its lead F_0.  With c = sigma^-1(F_0) / F_0,
        equation l + 1 less sigma^-l(c) times equation l reads
        sum_i sigma^-l(F'_i) x_i = sigma^-l(b'_l) for F' = sigma^-1(F[1:]) -
        c F[1:] and b' = sigma^-1(b[1:]) - c b[:-1]: a system of the same
        shape in x_1.., one smaller.  Back-substitution from the last stage
        gives x.
        """
        # Every lead is nonzero.  After j stages F_i = A_j(E_i) for the
        # F_q-linear map A_j = (sigma^-1 - c_(j-1)) ... (sigma^-1 - c_0).  For
        # c = sigma^-1(u) / u with u != 0, sigma^-1(v) = c v iff
        # sigma^-1(v / u) = v / u, that is v / u in F_q: the kernel of
        # sigma^-1 - c is F_q u.  With u = F_j = A_j(E_j) this gives
        # ker A_(j+1) = ker A_j + F_q E_j, so ker A_j = span_Fq(E_0..E_(j-1)).
        # It does not hold E_j, as the E_i are F_q-independent: F_j != 0.
        ctx = self.ctx
        frob, mul, sub, scale = ctx.frobenius, ctx.mul, ctx.sub, ctx.scale_row
        F, b = E, synd[: len(E)]
        stages = []
        while True:
            lead_inv = ctx.inv(F[0])
            stages.append((F, b[0], lead_inv))
            m = len(F) - 1
            if not m:
                break
            # c F[1:] and c b[:-1] in one scale_row
            cb = scale(F[1:] + b[:-1], mul(frob(F[0], -1), lead_inv))
            F = [sub(frob(v, -1), w) for v, w in zip(F[1:], cb)]
            b = [sub(frob(v, -1), w) for v, w in zip(b[1:], cb[m:])]
        x = []
        for F, b0, lead_inv in reversed(stages):
            for v, xi in zip(F[1:], x):
                b0 = sub(b0, mul(v, xi))
            x.insert(0, mul(b0, lead_inv))
        return x

    def decode(self, y):
        """Message and error with y = encode(m) + e and rank(e) <= t.

        Raises DecodeFailure when no such pair exists (the result is
        verified before it is returned, so a success is always genuine).
        """
        ctx = self.ctx
        n, k, t = self.n, self.k, self.t
        if len(y) != n:
            raise ParameterError(f"received word length must be {n}, got {len(y)}")
        info_inv, span_error = self._decoding_tables()
        synd = self.syndromes(y)
        if not any(synd):
            return vec_mat_mul(ctx, y[:k], info_inv), [0] * n
        S = LinPoly(ctx, synd)
        A = LinPoly.monomial(ctx, n - k)
        # V != 0 with qdeg V <= n - k - stop_degree = t: for S != 0, qdeg V is
        # n - k less the q-degree of the last remainder not below stop_degree
        V, _ = lp_eea(A, S, stop_degree=(n - k + 1) // 2)
        E = V.kernel_basis()
        if not E:  # len(E) <= qdeg V <= t, so only an empty span fails
            raise DecodeFailure("the key equation gives an empty error span", "span")
        # an x_i outside span_Fq(h), which needs n < N, fails here
        try:
            e = span_error(E, self._solve_locations(E, synd))
        except ValueError:
            raise DecodeFailure("error locations contradict the syndromes", "locations") from None
        # cannot fire: e's entries lie in the F_q-span of the len(E) <= t elements of E.
        # Kept until perfbench stops timing rank_over_base in decrypt, its one source.
        if rank_over_base(ctx, e) > t:
            raise DecodeFailure("reconstructed error exceeds the decoding radius", "radius")
        c = vec_sub(ctx, y, e)
        m = vec_mat_mul(ctx, c[:k], info_inv)
        # m G agrees with c on the first k places by the choice of m
        if vec_mat_mul(ctx, m, self._tail) != c[k:]:
            raise DecodeFailure("reconstructed word is not a codeword", "codeword")
        return m, e

    def __repr__(self) -> str:
        return (
            f"GabidulinCode(n={self.n}, k={self.k}, d={self.d}, t={self.t}, "
            f"q={self.ctx.q}, N={self.ctx.N})"
        )
