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
span of the w_i, which stands in for w.  The first r syndromes, raised to
q^(-l), give the r x r system s_l^(q^-l) = sum_i w_i^(q^-l) x_i over
F_{q^N} (Gabidulin 1985), and the coordinates of each x_i in the F_q-basis
h are the rows of A.  The message follows from the first k coordinates of
y - e, and the result is checked against the whole received word before
it is returned.
"""

from __future__ import annotations

from .errors import DecodeFailure, ParameterError
from .linalg import (
    FixedMatrix,
    base_combination,
    base_coordinates,
    ext_nullspace,
    mat_inv,
    rank_over_base,
    solve_linear,
    transpose,
    vec_mat_mul,
    vec_sub,
)
from .linpoly import LinPoly, lp_eea

__all__ = ["GabidulinCode", "moore_matrix"]


def moore_matrix(ctx, g, rows):
    """rows x len(g) matrix with entry (i, j) = g_j^(q^i)."""
    frob = ctx.frobenius
    return [[frob(gj, i) for gj in g] for i in range(rows)]


class GabidulinCode:
    """An (n, k) maximum-rank-distance code over F_{q^N}."""

    def __init__(self, ctx, g, k: int):
        n = len(g)
        if not 1 <= k < n:
            raise ParameterError(f"need 1 <= k < n, got k={k}, n={n}")
        if n > ctx.N:
            raise ParameterError(f"code length {n} exceeds extension degree {ctx.N}")
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
        self._info_inv = FixedMatrix(mat_inv(ctx, [row[:k] for row in self.G]))

    def encode(self, m):
        if len(m) != self.k:
            raise ParameterError(f"message length must be {self.k}, got {len(m)}")
        return vec_mat_mul(self.ctx, m, self.G)

    def syndromes(self, y):
        return vec_mat_mul(self.ctx, y, self._htab)

    def _solve_message(self, c):
        return vec_mat_mul(self.ctx, c[: self.k], self._info_inv)

    def _solve_locations(self, E, synd):
        """A over F_q with e = E A, from the first r = len(E) syndromes.

        With x_i = sum_j A_ij h_j the syndromes read s_l = sum_i E_i x_i^[l],
        so s_l^[-l] = sum_i E_i^[-l] x_i.  For l < r this is an r x r system
        over F_{q^N}, nonsingular because the E_i are F_q-independent.  Row
        i of A holds the coordinates of x_i in the F_q-basis h; raises
        ValueError when some x_i lies outside span_Fq(h), which needs n < N.
        """
        ctx = self.ctx
        frob = ctx.frobenius
        r = len(E)
        moore = [[frob(Ei, -l) for Ei in E] for l in range(r)]
        x = solve_linear(ctx, moore, [frob(synd[l], -l) for l in range(r)])
        return base_coordinates(ctx, self.h, x)

    def decode(self, y):
        """Message and error with y = encode(m) + e and rank(e) <= t.

        Raises DecodeFailure when no such pair exists (the result is
        verified before it is returned, so a success is always genuine).
        """
        ctx = self.ctx
        n, k, t = self.n, self.k, self.t
        if len(y) != n:
            raise ParameterError(f"received word length must be {n}, got {len(y)}")
        synd = self.syndromes(y)
        if not any(synd):
            return self._solve_message(y), [0] * n
        S = LinPoly(ctx, synd)
        A = LinPoly.monomial(ctx, n - k)
        # V != 0 with qdeg V <= n - k - stop_degree = t: for S != 0, qdeg V is
        # n - k less the q-degree of the last remainder not below stop_degree
        V, _ = lp_eea(A, S, stop_degree=(n - k + 1) // 2)
        E = V.kernel_basis()
        if not 0 < len(E) <= t:
            raise DecodeFailure("error span dimension outside the decoding radius", "span")
        try:
            A_loc = self._solve_locations(E, synd)
        except ValueError:
            raise DecodeFailure("error locations contradict the syndromes", "locations") from None
        e = base_combination(ctx, E, A_loc)
        # cannot fire: e's entries lie in the F_q-span of the len(E) <= t elements of E.
        # Kept until perfbench stops timing rank_over_base in decrypt, its one source.
        if rank_over_base(ctx, e) > t:
            raise DecodeFailure("reconstructed error exceeds the decoding radius", "radius")
        c = vec_sub(ctx, y, e)
        m = self._solve_message(c)
        if self.encode(m) != c:
            raise DecodeFailure("reconstructed word is not a codeword", "codeword")
        return m, e

    def __repr__(self) -> str:
        return (
            f"GabidulinCode(n={self.n}, k={self.k}, d={self.d}, t={self.t}, "
            f"q={self.ctx.q}, N={self.ctx.N})"
        )
