"""The group algebra F_q D_2n for the dihedral group <a, b | a^n, b^2, ab=ba^-1>.

Elements carry 2n coefficients in the monomial basis
(a^0, ..., a^(n-1), b a^0, ..., b a^(n-1)), held as integers in the
field's entry form (FieldCtx.form): + - * and scale work on them and
each ends in one form.canon, and FieldElements are built only where
alpha, beta or phi() hand them out (text() reads the entries).  Multiplication
follows the relations a^i a^j = a^(i+j), a^i (b a^j) = b a^(j-i),
(b a^i) a^j = b a^(i+j), (b a^i)(b a^j) = a^(j-i), all exponents mod n.

The coordinate map phi sends a^i to position i and b a^i to position n+i
(zero-indexed), so coordinate weight equals support weight.
"""

from __future__ import annotations

import math

from .errors import CharDividesOrderError, LengthMismatchError, MixedContextsError
from .gf import FieldCtx, FieldElement, poly_text
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
        return AlgebraElement(self, self.ctx.form.entries(alpha + beta))

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, (0,) * (2 * self.n))

    def one(self) -> "AlgebraElement":
        return self.monomial(False, 0)

    def a(self, i: int = 1) -> "AlgebraElement":
        return self.monomial(False, i)

    def b(self, i: int = 0) -> "AlgebraElement":
        """The monomial b a^i."""
        return self.monomial(True, i)

    def monomial(self, reflected: bool, i: int) -> "AlgebraElement":
        coords = [0] * (2 * self.n)  # 1 is the entry 1 in every form
        coords[(self.n if reflected else 0) + i % self.n] = 1
        return AlgebraElement(self, coords)

    def monomials(self) -> list["AlgebraElement"]:
        """All 2n basis monomials in phi coordinate order."""
        return [self.monomial(False, i) for i in range(self.n)] + [
            self.monomial(True, i) for i in range(self.n)
        ]

    def random_element(self, rng) -> "AlgebraElement":
        draws = [self.ctx.random_element(rng) for _ in range(2 * self.n)]
        return AlgebraElement(self, self.ctx.form.entries(draws))

    def __eq__(self, other):
        if not isinstance(other, DihedralAlgebra):
            return NotImplemented
        return self.ctx == other.ctx and self.n == other.n

    def __hash__(self):
        return hash((self.ctx, self.n))

    def __repr__(self):
        return f"DihedralAlgebra(GF({self.ctx.q}) D_{2 * self.n})"


class AlgebraElement:
    """An element of F_q D_2n held as its 2n phi coordinates in the field's
    entry form (FieldCtx.form), like a MatrixGF row; alpha, beta and phi()
    build FieldElements on access."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: DihedralAlgebra, coords):
        self.algebra = algebra
        self.coords = tuple(coords)

    @property
    def n(self) -> int:
        return self.algebra.n

    @property
    def ctx(self) -> FieldCtx:
        return self.algebra.ctx

    @property
    def alpha(self) -> tuple[FieldElement, ...]:
        """Coefficients of a^0 .. a^(n-1)."""
        return tuple(self.ctx.form.elements(self.coords[: self.n]))

    @property
    def beta(self) -> tuple[FieldElement, ...]:
        """Coefficients of b a^0 .. b a^(n-1)."""
        return tuple(self.ctx.form.elements(self.coords[self.n:]))

    def _check(self, other: "AlgebraElement"):
        if not isinstance(other, AlgebraElement):
            raise TypeError("expected an AlgebraElement")
        if other.algebra != self.algebra:
            raise MixedContextsError("operands from different group algebras")

    def _canon(self, values) -> "AlgebraElement":
        """The element of this algebra whose coordinates are values, built
        from entries by + - *, brought back to entries."""
        return AlgebraElement(self.algebra, self.ctx.form.canon(values))

    def __add__(self, other):
        self._check(other)
        return self._canon([x + y for x, y in zip(self.coords, other.coords)])

    def __sub__(self, other):
        self._check(other)
        return self._canon([x - y for x, y in zip(self.coords, other.coords)])

    def __neg__(self):
        return self._canon([-x for x in self.coords])

    def __mul__(self, other):
        if isinstance(other, (FieldElement, int)):
            return self.scale(other)
        self._check(other)
        n = self.n
        (xa, xb), (ya, yb) = ((u.coords[:n], u.coords[n:]) for u in (self, other))
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
        return self._canon(halves[0] + halves[1])

    def __rmul__(self, other):
        if isinstance(other, (FieldElement, int)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "AlgebraElement":
        (f,) = self.ctx.form.entries([self.ctx.element(c)])
        return self._canon([f * x for x in self.coords])

    def involution(self) -> "AlgebraElement":
        """Coefficient of g moves to g^-1: a^i -> a^(n-i), b a^i fixed."""
        n, coords = self.n, self.coords
        return AlgebraElement(self.algebra, [coords[-i % n] for i in range(n)] + list(coords[n:]))

    def phi(self) -> list[FieldElement]:
        """Coordinates (a^0..a^(n-1), b a^0..b a^(n-1)), length 2n."""
        return self.ctx.form.elements(self.coords)

    def weight(self) -> int:
        return sum(1 for x in self.coords if x)

    def __bool__(self):
        return any(self.coords)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra == other.algebra and self.coords == other.coords

    def __hash__(self):
        return hash((self.algebra, self.coords))

    def text(self) -> str:
        """Readable form "c0 + c1*a + ... + d0*b + d1*b*a + ...", from the entries."""
        n, coords, parts = self.n, self.coords, []
        support = [k for k, x in enumerate(coords) if x]
        for k, cs in zip(support, self.ctx.form.coeffs([coords[k] for k in support])):
            i, coef = k % n, poly_text(cs)
            name = "a" * i if i < 2 else f"a^{i}"  # "", "a", "a^2", ...
            if k >= n:
                name = f"b*{name}" if name else "b"
            coef = f"({coef})" if "+" in coef else coef
            parts.append(f"{coef}*{name}" if name else coef)
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        coeffs = self.ctx.form.coeffs(self.coords)
        return {"alpha": coeffs[: self.n], "beta": coeffs[self.n:]}

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
    rows = [list((mono * gen).coords) for gen in gens for mono in algebra.monomials()]
    reduced, _, _ = MatrixGF._trusted(algebra.ctx, rows, 2 * algebra.n).rref()
    return reduced.nonzero_rows()
