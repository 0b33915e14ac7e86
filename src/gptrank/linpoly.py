"""Linearized polynomials over F_{q^N}.

A linearized polynomial L(x) = sum(a_i * x^(q^i)) induces an F_q-linear map
on F_{q^N}.  Under addition and composition these polynomials form a
non-commutative ring: composing A after B twists B's coefficients by the
Frobenius, (A o B)_p = sum over i+j=p of a_i * b_j^(q^i).  The Gabidulin
decoder needs two things: ``lp_eea``, a Euclid algorithm that tracks only
the cofactor the decoder uses, and ``kernel_basis``.  Addition, scaling,
composition, evaluation and right division are public API; the tests check
``lp_eea`` against them, and perfbench's tracer wraps them by name.

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
        R = list(self.coeffs)
        Q = _divide(self.ctx, R, divisor.coeffs, (), [])
        return LinPoly(self.ctx, Q), LinPoly(self.ctx, R)

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


def _divide(ctx, R, d, rider, acc) -> list[int]:
    """Right-divide the list R by d in place, leaving the remainder; return Q.

    Each quotient term c x^[s] also takes c * sigma^s(rider), shifted by s,
    from the list acc, so acc ends as acc - Q o rider, trimmed.
    """
    sub, frob, mul = ctx.sub, ctx.frobenius, ctx.mul
    dd, m = len(d) - 1, len(rider)
    row = [*d, *rider]  # one scale_row per term serves R and acc
    # one inverse per division: sigma^s(d^-1) = sigma^s(d)^-1
    dinv = ctx.inv(d[-1])
    Q = [0] * (len(R) - dd)
    acc += [0] * (len(Q) + m - 1 - len(acc))
    while len(R) > dd:
        s = len(R) - 1 - dd
        if s:
            c = Q[s] = mul(R[-1], frob(dinv, s))
            term = ctx.scale_row([frob(a, s) for a in row], c)
        else:
            c = Q[0] = mul(R[-1], dinv)
            term = ctx.scale_row(row, c)
        R[s:] = map(sub, R[s:], term)  # the first dd + 1 entries of term
        acc[s : s + m] = map(sub, acc[s : s + m], term[dd + 1 :])
        while R and R[-1] == 0:
            R.pop()
    while acc and acc[-1] == 0:
        acc.pop()
    return Q


def lp_eea(A: LinPoly, B: LinPoly, stop_degree: int) -> tuple[LinPoly, LinPoly]:
    """Extended Euclid on (A, B) under composition, stopped early.

    Returns (V, R) with R = U o A + V o B for some U and qdeg(R) <
    stop_degree, taking the first remainder in the Euclidean sequence that
    drops below stop_degree.  U itself is not tracked.  B must be nonzero.

    Each step is one division loop that carries the cofactor: dividing
    r0 by r1 leaves the remainder in r0 and takes Q o v1 from v0 term by
    term, with one scale_row on sigma^s(r1) || sigma^s(v1) per quotient
    term, so the quotient is never composed as a polynomial.
    """
    ctx = A.ctx
    r0, r1 = list(A.coeffs), list(B.coeffs)
    v0, v1 = [], [1]
    while r1 and len(r1) > stop_degree:
        _divide(ctx, r0, r1, rider=v1, acc=v0)
        r0, r1, v0, v1 = r1, r0, v1, v0
    return LinPoly(ctx, v1), LinPoly(ctx, r1)
