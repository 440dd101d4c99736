"""Explicit block decomposition of F_q D_2n for odd n with n | q-1.

The algebra splits as F_q + F_q (a pair gamma) plus (n-1)/2 copies of
M_2(F_q).  On an element with a-part coefficients alpha_i and b-part
coefficients beta_i, the map P evaluates to

  gamma   = (sum alpha_i + sum beta_i, sum alpha_i - sum beta_i)
  block j = [[sum alpha_i xi^(ij),  sum beta_i xi^(-ij)],
             [sum beta_i xi^(ij),   sum alpha_i xi^(-ij)]]   j = 1..(n-1)/2

with xi the canonical primitive n-th root of unity.  Each coordinate of P
is a linear form in phi coordinates whose entries are powers of xi;
coordinate_forms is the one table of them.  wedderburn_map takes their dot
products, and wedderburn_inverse sums them back, since they are orthogonal
up to n.  P is an algebra isomorphism, so left ideals of F_q D_2n
correspond exactly to direct sums of one ideal per summand; IdealSpec
names such a choice.  Each summand is cut out by at most four of the
forms and, by that orthogonality, spanned by the dual forms of the
coordinates it keeps.  So code_from_ideal_spec pulls the ideal back from
its smaller side, without inverting P: the RREF of its dim span rows
when dim <= n, else the null space of its 2n - dim constraint rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dihedral import AlgebraElement, DihedralAlgebra
from .errors import EvenNError, InvalidRowSpecError, MixedContextsError
from .gf import FieldCtx, FieldElement
from .idempotents import _xi_powers
from .linalg import MatrixGF, _entry_form, kernel_rref


@dataclass(frozen=True)
class WedderburnTuple:
    """Image of an algebra element: a pair in F_q^2 plus 2x2 blocks."""

    gamma: tuple[FieldElement, FieldElement]
    blocks: tuple[tuple[tuple[FieldElement, FieldElement], ...], ...]

    @property
    def ctx(self) -> FieldCtx:
        return self.gamma[0].ctx

    @property
    def n(self) -> int:
        return 2 * len(self.blocks) + 1

    @classmethod
    def zero(cls, ctx: FieldCtx, n: int) -> "WedderburnTuple":
        z = ctx.zero()
        blocks = tuple(((z, z), (z, z)) for _ in range((n - 1) // 2))
        return cls(gamma=(z, z), blocks=blocks)

    @classmethod
    def one(cls, ctx: FieldCtx, n: int) -> "WedderburnTuple":
        z, o = ctx.zero(), ctx.one()
        blocks = tuple(((o, z), (z, o)) for _ in range((n - 1) // 2))
        return cls(gamma=(o, o), blocks=blocks)

    def __add__(self, other: "WedderburnTuple") -> "WedderburnTuple":
        g = (self.gamma[0] + other.gamma[0], self.gamma[1] + other.gamma[1])
        blocks = tuple(
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(ba, bb))
            for ba, bb in zip(self.blocks, other.blocks)
        )
        return WedderburnTuple(gamma=g, blocks=blocks)

    def __mul__(self, other: "WedderburnTuple") -> "WedderburnTuple":
        """Componentwise product: pairwise on gamma, 2x2 matrix product on blocks."""
        g = (self.gamma[0] * other.gamma[0], self.gamma[1] * other.gamma[1])
        blocks = tuple(
            tuple(tuple(X[i][0] * Y[0][j] + X[i][1] * Y[1][j] for j in (0, 1)) for i in (0, 1))
            for X, Y in zip(self.blocks, other.blocks)
        )
        return WedderburnTuple(gamma=g, blocks=blocks)


# (half, sign) of each block form a11, a12, a21, a22: xi^(sign*ij) on that
# half of the phi coordinates (0: a-part, 1: b-part), zero on the other
_BLOCK_LAYOUT = ((0, 1), (1, -1), (1, 1), (0, -1))


def coordinate_forms(ctx: FieldCtx, n: int):
    """P's coordinates as linear forms on phi coordinates (a-part | b-part).

    Returns (g1, g2, blocks), with blocks[j-1] = (a11, a12, a21, a22) the
    forms of block j, laid out by _BLOCK_LAYOUT:

      g1 = (1..1 | 1..1),  g2 = (1..1 | -1..-1),
      a11 = (xi^(ij) | 0),  a12 = (0 | xi^(-ij)),
      a21 = (0 | xi^(ij)),  a22 = (xi^(-ij) | 0).

    This is the one statement of P's DFT convention: the map, its inverse,
    the constraint rows of an ideal spec and the paper-style generator rows
    all read it, the constraint rows through _summand_forms, one summand
    at a time.
    """
    xi_pows, units = _xi_powers(ctx, n), [ctx.zero(), ctx.one(), -ctx.one()]
    g1, g2 = _summand_forms(xi_pows, 0, units)
    return g1, g2, [_summand_forms(xi_pows, j, units) for j in range(1, (n - 1) // 2 + 1)]


def _summand_forms(xi_pows, j: int, units):
    """The forms of summand j of coordinate_forms: (g1, g2) of the pair at
    j = 0, (a11, a12, a21, a22) of block j above.  xi_pows = xi^0 .. xi^(n-1)
    and units = (0, 1, -1), in one form: FieldElements, or the entry form."""
    n, (z, o, minus_o) = len(xi_pows), units
    if j == 0:
        return [o] * (2 * n), [o] * n + [minus_o] * n
    zeros = [z] * n
    pows = {sign: [xi_pows[(sign * i * j) % n] for i in range(n)] for sign in (1, -1)}
    return tuple(zeros + pows[s] if h else pows[s] + zeros for h, s in _BLOCK_LAYOUT)


def wedderburn_map(u: AlgebraElement) -> WedderburnTuple:
    """Apply P to an algebra element (n odd, n | q-1)."""
    n = u.n
    if n % 2 == 0:
        raise EvenNError(f"block decomposition implemented for odd n, got n={n}")
    v, z = u.phi(), u.ctx.zero()
    # each block form is zero off the half _BLOCK_LAYOUT gives it
    halves = [slice(half * n, (half + 1) * n) for half, _ in _BLOCK_LAYOUT]

    def dot(form, half=slice(None)):
        return sum((w * x for w, x in zip(form[half], v[half]) if x), z)

    g1, g2, blocks = coordinate_forms(u.ctx, n)
    coords = [[dot(f, half) for f, half in zip(forms, halves)] for forms in blocks]
    return WedderburnTuple(
        gamma=(dot(g1), dot(g2)),
        blocks=tuple(((a11, a12), (a21, a22)) for a11, a12, a21, a22 in coords),
    )


def wedderburn_inverse(t: WedderburnTuple) -> AlgebraElement:
    """The unique algebra element mapping to t under P.

    The forms of coordinate_forms are orthogonal up to n: g1.g1 = g2.g2 = 2n,
    a11 pairs with a22 and a12 with a21 to n, and every other pair to 0.  So
    P^-1(t) = n^-1 ((t_g1/2) g1 + (t_g2/2) g2
                    + sum_j (t11 a22 + t12 a21 + t21 a12 + t22 a11)).
    """
    ctx, n = t.ctx, t.n
    inv2, inv_n = ctx.element(2).inverse(), ctx.element(n).inverse()
    g1, g2, blocks = coordinate_forms(ctx, n)
    terms = [(t.gamma[0] * inv2, g1), (t.gamma[1] * inv2, g2)]
    for ((t11, t12), (t21, t22)), (a11, a12, a21, a22) in zip(t.blocks, blocks):
        terms += [(t11, a22), (t12, a21), (t21, a12), (t22, a11)]
    v = [ctx.zero()] * (2 * n)
    for c, form in terms:
        if c:
            v = [x + c * w if w else x for x, w in zip(v, form)]
    v = [x * inv_n for x in v]
    return DihedralAlgebra(ctx, n).element(v[:n], v[n:])


# ---------------------------------------------------------------------------
# ideal specifications (one tag per summand)

FULL = "full"
ZERO = "zero"
ROW = "row"
PLUS_PIECE = "plus"    # F_q x {0}, the image of R((1+b)/2 e_0)
MINUS_PIECE = "minus"  # {0} x F_q, the image of R((1-b)/2 e_0)


@dataclass(frozen=True)
class Summand:
    kind: str
    x: FieldElement | None = None
    y: FieldElement | None = None


def full() -> Summand:
    return Summand(FULL)


def zero() -> Summand:
    return Summand(ZERO)


def plus_piece() -> Summand:
    return Summand(PLUS_PIECE)


def minus_piece() -> Summand:
    return Summand(MINUS_PIECE)


def row(x, y) -> Summand:
    """Left ideal M_2(F_q) * [[x, y], [0, 0]], canonicalized to (1, y/x) or (0, 1)."""
    if isinstance(x, FieldElement):
        ctx = x.ctx
    elif isinstance(y, FieldElement):
        ctx = y.ctx
    else:
        raise InvalidRowSpecError("row spec needs at least one field element")
    x, y = ctx.element(x), ctx.element(y)
    if not x and not y:
        raise InvalidRowSpecError("row spec (0,0) does not define an ideal")
    if x:
        return Summand(ROW, ctx.one(), y / x)
    return Summand(ROW, ctx.zero(), ctx.one())


_POSITION0_KINDS = {FULL, ZERO, PLUS_PIECE, MINUS_PIECE}
_BLOCK_KINDS = {FULL, ZERO, ROW}

_DIMS_POSITION0 = {FULL: 2, ZERO: 0, PLUS_PIECE: 1, MINUS_PIECE: 1}
_DIMS_BLOCK = {FULL: 4, ZERO: 0, ROW: 2}


@dataclass(frozen=True)
class IdealSpec:
    """One summand tag per factor: position 0 for the pair, then the blocks."""

    summands: tuple[Summand, ...]

    def __post_init__(self):
        if not self.summands:
            raise InvalidRowSpecError("empty ideal spec")
        if self.summands[0].kind not in _POSITION0_KINDS:
            raise InvalidRowSpecError(
                f"summand kind {self.summands[0].kind!r} not allowed at position 0"
            )
        for s in self.summands[1:]:
            if s.kind not in _BLOCK_KINDS:
                raise InvalidRowSpecError(f"summand kind {s.kind!r} not allowed at a matrix block")

    def dim(self) -> int:
        total = _DIMS_POSITION0[self.summands[0].kind]
        for s in self.summands[1:]:
            total += _DIMS_BLOCK[s.kind]
        return total

    def __len__(self):
        return len(self.summands)


def _constraint_rows(ctx: FieldCtx, n: int, spec: IdealSpec) -> list[list]:
    """Rows H (phi coordinates) with P^-1 of the chosen ideal = ker H, in
    ctx's entry form (linalg._entry_form): residues over GF(p).

    Each summand keeps the forms of coordinate_forms that vanish on it;
    the forms of a full block are never built.
    """
    form = _entry_form(ctx)
    xi_pows = form.entries(_xi_powers(ctx, n))
    units = form.entries([ctx.zero(), ctx.one(), -ctx.one()])
    g1, g2 = _summand_forms(xi_pows, 0, units)
    out = {ZERO: [g1, g2], MINUS_PIECE: [g1], PLUS_PIECE: [g2], FULL: []}[spec.summands[0].kind]
    for j, s in enumerate(spec.summands[1:], 1):
        if s.kind == ZERO:
            out += _summand_forms(xi_pows, j, units)
        elif s.kind == ROW:  # y*a11 - x*a12 = 0 and y*a21 - x*a22 = 0
            # a11 = (xi^(ij) | 0) and a12 = (0 | xi^(-ij)); a21, a22 swap the halves
            a11, a12, _, _ = _summand_forms(xi_pows, j, units)
            y, minus_x = form.entries([s.y, -s.x])
            ya = form.canon([y * u for u in a11[:n]])
            xb = form.canon([minus_x * w for w in a12[n:]])
            out += [ya + xb, xb + ya]
    return out


_COMPLEMENT = {FULL: ZERO, ZERO: FULL, PLUS_PIECE: MINUS_PIECE, MINUS_PIECE: PLUS_PIECE}


def _span_rows(ctx: FieldCtx, n: int, spec: IdealSpec) -> list[list]:
    """spec.dim() independent rows spanning P^-1 of the chosen ideal, in
    ctx's entry form: the constraint rows of its complementary spec.

    P^-1 sends the coordinates g1, g2, a11, a12, a21, a22 to the forms g1,
    g2, a22, a21, a12, a11 up to scalars (wedderburn_inverse), so each
    summand is spanned by the forms that cut out its complement: full and
    zero swap, plus and minus swap, and row(x, y) is spanned by
    x a22 + y a21 and x a12 + y a11, the constraint rows of row(-x, y).
    """
    complement = tuple(
        Summand(ROW, -s.x, s.y) if s.kind == ROW else Summand(_COMPLEMENT[s.kind])
        for s in spec.summands
    )
    return _constraint_rows(ctx, n, IdealSpec(complement))


def code_from_ideal_spec(ctx: FieldCtx, n: int, spec: IdealSpec) -> MatrixGF:
    """RREF generator matrix (phi coordinates) of P^-1 of the chosen ideal,
    reduced from its smaller side: the RREF of its dim span rows
    (_span_rows) when dim <= n, else the kernel of its 2n - dim constraint
    rows (_constraint_rows), by linalg.kernel_rref.  A row space has one
    RREF, so both sides give the same matrix.
    """
    if n % 2 == 0:
        raise EvenNError(f"ideal specs are defined for odd n, got n={n}")
    if len(spec) != 1 + (n - 1) // 2:
        raise InvalidRowSpecError(
            f"spec needs {1 + (n - 1) // 2} summands for n={n}, got {len(spec)}"
        )
    other = next((s.x.ctx for s in spec.summands[1:] if s.kind == ROW and s.x.ctx != ctx), None)
    if other is not None:
        raise MixedContextsError(f"row summand over {other.spec()} in a spec over {ctx.spec()}")
    dim = spec.dim()
    if dim == 0:
        return MatrixGF.zeros(ctx, 0, 2 * n)
    DihedralAlgebra(ctx, n)  # raises CharDividesOrderError
    if dim <= n:
        return MatrixGF._trusted(ctx, _span_rows(ctx, n, spec), 2 * n).rref()[0]
    return kernel_rref(ctx, _constraint_rows(ctx, n, spec), 2 * n)[0]


def random_ideal_spec(ctx: FieldCtx, n: int, rng) -> IdealSpec:
    """Uniform-ish random spec; resamples away the zero ideal."""
    half = (n - 1) // 2
    while True:
        first = rng.choice([FULL, ZERO, PLUS_PIECE, MINUS_PIECE])
        summands = [Summand(first)]
        for _ in range(half):
            kind = rng.choice([FULL, ZERO, ROW])
            if kind == ROW:
                x = ctx.random_element(rng)
                y = ctx.random_element(rng)
                if not x and not y:
                    x = ctx.one()
                summands.append(row(x, y))
            else:
                summands.append(Summand(kind))
        spec = IdealSpec(tuple(summands))
        if spec.dim() > 0:
            return spec
