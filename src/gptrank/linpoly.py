"""Linearized polynomials over F_{q^N}.

A linearized polynomial L(x) = sum(a_i * x^(q^i)) induces an F_q-linear map
on F_{q^N}.  Under addition and composition these polynomials form a
non-commutative ring: composing A after B twists B's coefficients by the
Frobenius, (A o B)_p = sum over i+j=p of a_i * b_j^(q^i).  Composition,
right division, a Euclid algorithm that tracks only the cofactor the
decoder uses, and kernel computation are all the Gabidulin decoder needs.

Coefficients are stored lowest q-degree first with no trailing zeros; the
zero polynomial has an empty coefficient tuple and q-degree -1.
"""

from __future__ import annotations

from functools import reduce
from itertools import starmap, zip_longest

from .linalg import _relation_elements

__all__ = ["LinPoly", "lp_eea"]


class LinPoly:
    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.ctx = ctx
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, ctx) -> "LinPoly":
        return cls(ctx, ())

    @classmethod
    def identity(cls, ctx) -> "LinPoly":
        """The composition identity x."""
        return cls(ctx, (1,))

    @classmethod
    def monomial(cls, ctx, i: int) -> "LinPoly":
        """x^(q^i)."""
        return cls(ctx, (0,) * i + (1,))

    @property
    def qdeg(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def add(self, other: "LinPoly") -> "LinPoly":
        return self._termwise(self.ctx.add, other)

    def sub(self, other: "LinPoly") -> "LinPoly":
        return self._termwise(self.ctx.sub, other)

    def _termwise(self, op, other: "LinPoly") -> "LinPoly":
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return LinPoly(self.ctx, starmap(op, pairs))

    def scale(self, c: int) -> "LinPoly":
        """Left scalar multiple, (c*L)(x) = c * L(x)."""
        return LinPoly(self.ctx, self.ctx.scale_row(self.coeffs, c))

    def compose(self, other: "LinPoly") -> "LinPoly":
        """self o other, i.e. x -> self(other(x))."""
        ctx = self.ctx
        add = ctx.add
        frob = ctx.frobenius
        m = len(other.coeffs)
        out = [0] * (self.qdeg + other.qdeg + 1)
        for i, a in enumerate(self.coeffs):
            if a:  # out[i + j] += a * sigma^i(b_j), one row per term of self
                term = ctx.scale_row([frob(b, i) for b in other.coeffs], a)
                out[i : i + m] = map(add, out[i : i + m], term)
        return LinPoly(ctx, out)

    def __call__(self, beta: int) -> int:
        ctx = self.ctx
        terms = [ctx.mul(a, ctx.frobenius(beta, i)) for i, a in enumerate(self.coeffs) if a]
        return reduce(ctx.add, terms, 0)

    def right_divmod(self, divisor: "LinPoly") -> tuple["LinPoly", "LinPoly"]:
        """Q, R with self = Q o divisor + R and qdeg(R) < qdeg(divisor)."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        ctx = self.ctx
        dd = divisor.qdeg
        sub = ctx.sub
        frob = ctx.frobenius
        # one inverse per division: sigma^s(d^-1) = sigma^s(d)^-1
        dinv = ctx.inv(divisor.coeffs[-1])
        R = list(self.coeffs)
        Q = [0] * (self.qdeg - dd + 1)
        while len(R) - 1 >= dd:
            s = len(R) - 1 - dd
            c = Q[s] = ctx.mul(R[-1], frob(dinv, s))
            term = ctx.scale_row([frob(dk, s) for dk in divisor.coeffs], c)
            R[s:] = map(sub, R[s:], term)
            while R and R[-1] == 0:
                R.pop()
        return LinPoly(ctx, Q), LinPoly(ctx, R)

    def kernel_basis(self) -> list[int]:
        """Basis over F_q of {beta in F_{q^N} : L(beta) = 0}."""
        ctx = self.ctx
        # beta = sum_j c_j alpha^j is in the kernel iff c relates the images
        return _relation_elements(ctx, ctx.power_basis_images(self.coeffs))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinPoly)
            and self.ctx == other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.ctx, self.coeffs))

    def __repr__(self) -> str:
        return f"LinPoly({' + '.join(f'{a}*x^[{i}]' for i, a in enumerate(self.coeffs) if a) or 0})"


def lp_eea(A: LinPoly, B: LinPoly, stop_degree: int) -> tuple[LinPoly, LinPoly]:
    """Extended Euclid on (A, B) under composition, stopped early.

    Returns (V, R) with R = U o A + V o B for some U and qdeg(R) <
    stop_degree, taking the first remainder in the Euclidean sequence that
    drops below stop_degree.  U itself is not tracked.  B must be nonzero.
    """
    r0, v0 = A, LinPoly.zero(A.ctx)
    r1, v1 = B, LinPoly.identity(A.ctx)
    while not r1.is_zero() and r1.qdeg >= stop_degree:
        q, r2 = r0.right_divmod(r1)
        r0, v0, r1, v1 = r1, v1, r2, v0.sub(q.compose(v1))
    return v1, r1
