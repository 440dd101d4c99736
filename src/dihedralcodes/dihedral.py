"""The group algebra F_q D_2n for the dihedral group <a, b | a^n, b^2, ab=ba^-1>.

Elements carry 2n coefficients in the monomial basis
(a^0, ..., a^(n-1), b a^0, ..., b a^(n-1)).  Multiplication follows the
relations a^i a^j = a^(i+j), a^i (b a^j) = b a^(j-i), (b a^i) a^j = b a^(i+j),
(b a^i)(b a^j) = a^(j-i), all exponents mod n.

The coordinate map phi sends a^i to position i and b a^i to position n+i
(zero-indexed), so coordinate weight equals support weight.
"""

from __future__ import annotations

import math

from .errors import CharDividesOrderError, LengthMismatchError, MixedContextsError
from .gf import FieldCtx, FieldElement
from .linalg import MatrixGF


class DihedralAlgebra:
    """Factory and context for elements of F_q D_2n."""

    __slots__ = ("ctx", "n")

    def __init__(self, ctx: FieldCtx, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        if math.gcd(2 * n, ctx.q) != 1:
            raise CharDividesOrderError(
                f"char {ctx.p} divides group order 2n={2 * n}"
            )
        self.ctx = ctx
        self.n = n

    def element(self, alpha, beta=None) -> "AlgebraElement":
        """Coerce coefficient lists (ints, lists, or field elements)."""
        beta = beta if beta is not None else [0] * self.n
        alpha = [self.ctx.element(c) for c in alpha]
        beta = [self.ctx.element(c) for c in beta]
        if len(alpha) != self.n or len(beta) != self.n:
            raise LengthMismatchError(f"coefficient lists must have length {self.n}")
        return AlgebraElement(self, tuple(alpha), tuple(beta))

    def zero(self) -> "AlgebraElement":
        z = self.ctx.zero()
        return AlgebraElement(self, (z,) * self.n, (z,) * self.n)

    def one(self) -> "AlgebraElement":
        return self.monomial(False, 0)

    def a(self, i: int = 1) -> "AlgebraElement":
        return self.monomial(False, i)

    def b(self, i: int = 0) -> "AlgebraElement":
        """The monomial b a^i."""
        return self.monomial(True, i)

    def monomial(self, reflected: bool, i: int) -> "AlgebraElement":
        z, o = self.ctx.zero(), self.ctx.one()
        coeffs = [z] * self.n
        coeffs[i % self.n] = o
        if reflected:
            return AlgebraElement(self, (z,) * self.n, tuple(coeffs))
        return AlgebraElement(self, tuple(coeffs), (z,) * self.n)

    def monomials(self) -> list["AlgebraElement"]:
        """All 2n basis monomials in phi coordinate order."""
        return [self.monomial(False, i) for i in range(self.n)] + [
            self.monomial(True, i) for i in range(self.n)
        ]

    def random_element(self, rng) -> "AlgebraElement":
        return AlgebraElement(
            self,
            tuple(self.ctx.random_element(rng) for _ in range(self.n)),
            tuple(self.ctx.random_element(rng) for _ in range(self.n)),
        )

    def __eq__(self, other):
        if not isinstance(other, DihedralAlgebra):
            return NotImplemented
        return self.ctx == other.ctx and self.n == other.n

    def __hash__(self):
        return hash((self.ctx, self.n))

    def __repr__(self):
        return f"DihedralAlgebra(GF({self.ctx.q}) D_{2 * self.n})"


class AlgebraElement:
    __slots__ = ("algebra", "alpha", "beta")

    def __init__(self, algebra: DihedralAlgebra, alpha, beta):
        self.algebra = algebra
        self.alpha = tuple(alpha)
        self.beta = tuple(beta)

    @property
    def n(self) -> int:
        return self.algebra.n

    @property
    def ctx(self) -> FieldCtx:
        return self.algebra.ctx

    def _check(self, other: "AlgebraElement"):
        if not isinstance(other, AlgebraElement):
            raise TypeError("expected an AlgebraElement")
        if other.algebra != self.algebra:
            raise MixedContextsError("operands from different group algebras")

    def __add__(self, other):
        self._check(other)
        return AlgebraElement(
            self.algebra,
            tuple(a + b for a, b in zip(self.alpha, other.alpha)),
            tuple(a + b for a, b in zip(self.beta, other.beta)),
        )

    def __sub__(self, other):
        self._check(other)
        return AlgebraElement(
            self.algebra,
            tuple(a - b for a, b in zip(self.alpha, other.alpha)),
            tuple(a - b for a, b in zip(self.beta, other.beta)),
        )

    def __neg__(self):
        return AlgebraElement(
            self.algebra,
            tuple(-a for a in self.alpha),
            tuple(-b for b in self.beta),
        )

    def __mul__(self, other):
        if isinstance(other, (FieldElement, int)):
            return self.scale(other)
        self._check(other)
        n, form = self.n, self.ctx.form
        (xa, xb), (ya, yb) = ([form.entries(h) for h in (u.alpha, u.beta)] for u in (self, other))
        halves = ([0] * n, [0] * n)  # (alpha, beta) of the product, unreduced
        # a^i or b a^i times a^j or b a^j: reflected when exactly one factor
        # is, at a^(j-i) when the right factor is reflected, else at a^(i+j):
        # coordinate k gains x_i y_(k+s), s = i if reflected, else -i
        for left, xs in enumerate((xa, xb)):
            for right, ys in enumerate((ya, yb)):
                out = halves[left ^ right]
                for i, x in enumerate(xs):
                    if x:
                        s = i if right else -i % n
                        out[:] = [a + x * y for a, y in zip(out, ys[s:] + ys[:s])]
        alpha, beta = (tuple(form.elements(form.canon(h))) for h in halves)
        return AlgebraElement(self.algebra, alpha, beta)

    def __rmul__(self, other):
        if isinstance(other, (FieldElement, int)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "AlgebraElement":
        c = self.ctx.element(c)
        return AlgebraElement(
            self.algebra,
            tuple(c * a for a in self.alpha),
            tuple(c * b for b in self.beta),
        )

    def involution(self) -> "AlgebraElement":
        """Coefficient of g moves to g^-1: a^i -> a^(n-i), b a^i fixed."""
        n = self.n
        return AlgebraElement(
            self.algebra,
            tuple(self.alpha[(n - i) % n] for i in range(n)),
            self.beta,
        )

    def phi(self) -> list[FieldElement]:
        """Coordinates (a^0..a^(n-1), b a^0..b a^(n-1)), length 2n."""
        return list(self.alpha) + list(self.beta)

    def weight(self) -> int:
        return sum(1 for c in self.alpha if c) + sum(1 for c in self.beta if c)

    def __bool__(self):
        return any(self.alpha) or any(self.beta)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return (
            self.algebra == other.algebra
            and self.alpha == other.alpha
            and self.beta == other.beta
        )

    def __hash__(self):
        return hash((self.algebra, self.alpha, self.beta))

    def text(self) -> str:
        """Readable form "c0 + c1*a + ... + d0*b + d1*b*a + ..."."""
        powers = ["a" * i if i < 2 else f"a^{i}" for i in range(self.n)]  # "", "a", "a^2", ...
        names = powers + [f"b*{a}" if a else "b" for a in powers]
        parts = []
        for name, c in zip(names, self.phi()):
            if c:
                coef = c.text()
                if "+" in coef:
                    coef = f"({coef})"
                parts.append(f"{coef}*{name}" if name else coef)
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {
            "alpha": [c.to_list() for c in self.alpha],
            "beta": [c.to_list() for c in self.beta],
        }

    def __repr__(self):
        return self.text()


def phi_inv(algebra: DihedralAlgebra, coords) -> AlgebraElement:
    """Inverse coordinate map; coords must have length 2n."""
    coords = list(coords)
    if len(coords) != 2 * algebra.n:
        raise LengthMismatchError(
            f"expected {2 * algebra.n} coordinates, got {len(coords)}"
        )
    return algebra.element(coords[: algebra.n], coords[algebra.n:])


def left_ideal_basis(gens) -> MatrixGF:
    """RREF basis, in phi coordinates, of the left ideal generated by gens.

    Spans {g * gen : g a group monomial, gen in gens} by AlgebraElement
    products and row-reduces: the orbit route, apart from P's forms, that
    the tests check code_from_ideal_spec and construct_code against.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    algebra = gens[0].algebra
    for g in gens:
        if g.algebra != algebra:
            raise MixedContextsError("generators from different group algebras")
    rows = []
    for gen in gens:
        for mono in algebra.monomials():
            rows.append((mono * gen).phi())
    matrix = MatrixGF(algebra.ctx, rows)
    reduced, _, _ = matrix.rref()
    return reduced.nonzero_rows()
