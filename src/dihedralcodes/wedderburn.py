"""Explicit block decomposition of F_q D_2n for odd n with n | q-1.

The algebra splits as F_q + F_q (a pair gamma) plus (n-1)/2 copies of
M_2(F_q).  On an element with a-part coefficients alpha_i and b-part
coefficients beta_i, the map P evaluates to

  gamma   = (sum alpha_i + sum beta_i, sum alpha_i - sum beta_i)
  block j = [[sum alpha_i xi^(ij),  sum beta_i xi^(-ij)],
             [sum beta_i xi^(ij),   sum alpha_i xi^(-ij)]]   j = 1..(n-1)/2

with xi the canonical primitive n-th root of unity.  So P is one DFT per
half: with A and B the DFTs of the a-part and the b-part, gamma is
(A_0 + B_0, A_0 - B_0) and block j reads its coordinates at +-j mod n of
A and B, as _BLOCK_LAYOUT lists them.  wedderburn_map computes the two
DFTs on the field's entry form, and wedderburn_inverse fills the spectra
back and takes the inverse DFTs.  Each coordinate is also a linear form
in phi coordinates, orthogonal up to n: g1 = (1..1 | 1..1), g2 =
(1..1 | -1..-1), and block j's a11 = (xi^(ij) | 0), a12 = (0 | xi^(-ij)),
a21 = (0 | xi^(ij)), a22 = (xi^(-ij) | 0).  P is an algebra isomorphism,
so left ideals of F_q D_2n correspond exactly to direct sums of one
ideal per summand; IdealSpec names such a choice.  A block's ideal is 0,
all of M_2 or a row ideal M_2 [[x, y], [0, 0]], cut out by y a11 - x a12
and y a21 - x a22 (_row_rows, which builds every block row); 0 is the
meet of row(0, 1) and row(1, 0).  By the orthogonality each summand is
spanned by the dual forms of the coordinates it keeps.  So
code_from_ideal_spec pulls the ideal back from its smaller side, without
inverting P: the RREF of its dim span rows when dim <= n, else the null
space of its 2n - dim constraint rows.
"""

from __future__ import annotations

from .dihedral import AlgebraElement, DihedralAlgebra
from .errors import EvenNError, InvalidRowSpecError, MixedContextsError, _Record
from .gf import FieldCtx, FieldElement, _xi_entries
from .linalg import MatrixGF, echelon, kernel_rref


class WedderburnTuple(_Record):
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


# (half, sign) of each block coordinate a11, a12, a21, a22: block j's
# coordinate is entry sign*j mod n of that half's DFT (0: a-part, 1:
# b-part); as a form (_row_rows), xi^(sign*ij) on that half of phi coordinates
_BLOCK_LAYOUT = ((0, 1), (1, -1), (1, 1), (0, -1))


def _dft(form, xi_pows, v, sign=1):
    """sum_i v_i xi^(sign*ik) for k = 0..n-1, on v's entry form."""
    n, support = len(xi_pows), [(i, x) for i, x in enumerate(v) if x]
    return form.canon([sum(x * xi_pows[sign * i * k % n] for i, x in support) for k in range(n)])


def wedderburn_map(u: AlgebraElement) -> WedderburnTuple:
    """Apply P to an algebra element (n odd, n | q-1): the DFTs A and B of
    its halves give gamma = (A_0 + B_0, A_0 - B_0), and block j reads its
    coordinates off them by _BLOCK_LAYOUT."""
    n = u.n
    if n % 2 == 0:
        raise EvenNError(f"block decomposition implemented for odd n, got n={n}")
    form, xi_pows = u.ctx.form, _xi_entries(u.ctx, n)
    A, B = spectra = [form.elements(_dft(form, xi_pows, h)) for h in (u.coords[:n], u.coords[n:])]
    coords = ([spectra[h][s * j % n] for h, s in _BLOCK_LAYOUT] for j in range(1, (n + 1) // 2))
    return WedderburnTuple(
        gamma=(A[0] + B[0], A[0] - B[0]),
        blocks=tuple(((a11, a12), (a21, a22)) for a11, a12, a21, a22 in coords),
    )


def wedderburn_inverse(t: WedderburnTuple) -> AlgebraElement:
    """The unique algebra element mapping to t under P: the spectra A and B
    filled back from A_0, B_0 = (g1 + g2)/2, (g1 - g2)/2 and, by
    _BLOCK_LAYOUT, the blocks, then each half's inverse DFT, scaled by n^-1.
    """
    ctx, n = t.ctx, t.n
    algebra = DihedralAlgebra(ctx, n)  # raises CharDividesOrderError before 2 is inverted
    inv2, inv_n = ctx.element(2).inverse(), ctx.element(n).inverse()
    form, xi_pows = ctx.form, _xi_entries(ctx, n)
    g1, g2 = t.gamma
    spectra = [[(g1 + g2) * inv2] + [None] * (n - 1), [(g1 - g2) * inv2] + [None] * (n - 1)]
    for j, ((t11, t12), (t21, t22)) in enumerate(t.blocks, 1):
        for (h, s), c in zip(_BLOCK_LAYOUT, (t11, t12, t21, t22)):
            spectra[h][s * j % n] = c
    alpha, beta = (_dft(form, xi_pows, form.entries([c * inv_n for c in S]), -1) for S in spectra)
    return AlgebraElement(algebra, alpha + beta)


# ---------------------------------------------------------------------------
# ideal specifications (one tag per summand)

FULL = "full"
ZERO = "zero"
ROW = "row"
PLUS_PIECE = "plus"    # F_q x {0}, the image of R((1+b)/2 e_0)
MINUS_PIECE = "minus"  # {0} x F_q, the image of R((1-b)/2 e_0)


class Summand(_Record):
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


def _canonical_row(s: Summand) -> bool:
    """Whether row summand s is (1, y) or (0, 1) over one field, as row() gives it."""
    x, y = s.x, s.y
    if not (isinstance(x, FieldElement) and isinstance(y, FieldElement) and x.ctx == y.ctx):
        return False
    one = x.ctx.one()
    return x == one or (not x and y == one)


# the kinds allowed at position 0 and at a block, with their dimensions
_DIMS_POSITION0 = {FULL: 2, ZERO: 0, PLUS_PIECE: 1, MINUS_PIECE: 1}
_DIMS_BLOCK = {FULL: 4, ZERO: 0, ROW: 2}


class IdealSpec(_Record):
    """One summand tag per factor: position 0 for the pair, then the blocks."""

    summands: tuple[Summand, ...]

    def __init__(self, summands):
        if not summands:
            raise InvalidRowSpecError("empty ideal spec")
        if summands[0].kind not in _DIMS_POSITION0:
            raise InvalidRowSpecError(
                f"summand kind {summands[0].kind!r} not allowed at position 0"
            )
        for s in summands[1:]:
            if s.kind not in _DIMS_BLOCK:
                raise InvalidRowSpecError(f"summand kind {s.kind!r} not allowed at a matrix block")
        # Summand is public: a row summand built by hand is checked and
        # canonicalized as row() does, so its entries are elements of one field;
        # one row() returned is passed as it is, with no division
        summands = tuple(row(s.x, s.y) if s.kind == ROW and not _canonical_row(s) else s
                         for s in summands)
        object.__setattr__(self, "summands", summands)

    def dim(self) -> int:
        first, *blocks = self.summands
        return _DIMS_POSITION0[first.kind] + sum(_DIMS_BLOCK[s.kind] for s in blocks)

    def __len__(self):
        return len(self.summands)


def _position0_rows(ctx: FieldCtx, n: int, kind: str) -> list[list]:
    """The forms that vanish on position-0 summand kind, in ctx's entry
    form, where -1 is the residue p - 1: g1 = (1..1 | 1..1) and
    g2 = (1..1 | -1..-1) for zero, g1 for minus, g2 for plus, none for full."""
    rows = []
    if kind in (ZERO, MINUS_PIECE):
        rows.append([1] * (2 * n))  # g1
    if kind in (ZERO, PLUS_PIECE):
        rows.append([1] * n + [ctx.p - 1] * n)  # g2
    return rows


def _row_rows(form, xi_pows, j: int, x, y) -> list[list]:
    """Block j's two constraint rows for row(x, y), x and y entries of
    form: y a11 - x a12 and y a21 - x a22, from xi^0 .. xi^(n-1)
    (gf._xi_entries), with -x as scale's factor (any + - * value).  A
    nonzero multiple of (x, y) spans the same; no division.  Every block
    row comes from here: a zero block's, (0, 1) and (1, 0), and the
    paper's n e_j, n b e_j, (-1, 0) reversed (codes._paper_rows)."""
    n = len(xi_pows)
    plus = [xi_pows[k % n] for k in range(0, n * j, j)]  # k = ij, i = 0..n-1
    minus = plus[:1] + plus[:0:-1]  # xi^(-ij) = xi^((n-i)j)
    # a zero factor's half is zeros, and -x = 1's (the paper rows') is minus
    ya = form.scale(y, plus) if y else [0] * n
    xb = minus if x == -1 else form.scale(-x, minus) if x else [0] * n
    return [ya + xb, xb + ya]


def _constraint_rows(ctx: FieldCtx, n: int, summands) -> list[list]:
    """Rows H (phi coordinates) with P^-1 of the ideal these summands
    choose = ker H, in ctx's entry form (FieldCtx.form), whatever the field.

    Each summand keeps the forms that vanish on it: at position 0
    _position0_rows, at a row block _row_rows, at a zero block the rows of
    row(0, 1) and row(1, 0), a11, a21, -a12, -a22, and none at a full
    block.  A row summand need not be canonical, so IdealSpec's validation
    is not needed here.
    """
    out = _position0_rows(ctx, n, summands[0].kind)
    form, xi_pows = ctx.form, _xi_entries(ctx, n)  # RootUnavailableError unless n | q-1
    for j, s in enumerate(summands[1:], 1):
        if s.kind == ZERO:
            out += _row_rows(form, xi_pows, j, 0, 1) + _row_rows(form, xi_pows, j, 1, 0)
        elif s.kind == ROW:
            out += _row_rows(form, xi_pows, j, *form.entries([s.x, s.y]))
    return out


_COMPLEMENT = {FULL: ZERO, ZERO: FULL, PLUS_PIECE: MINUS_PIECE, MINUS_PIECE: PLUS_PIECE}


def _span_rows(ctx: FieldCtx, n: int, spec: IdealSpec) -> list[list]:
    """spec.dim() independent rows spanning P^-1 of the chosen ideal, in
    ctx's entry form: the constraint rows of its complementary summands.

    P^-1 sends the coordinates g1, g2, a11, a12, a21, a22 to the forms g1,
    g2, a22, a21, a12, a11 up to scalars (wedderburn_inverse), so each
    summand is spanned by the forms that cut out its complement: full and
    zero swap, plus and minus swap, and row(x, y) is spanned by
    x a22 + y a21 and x a12 + y a11, the constraint rows of row(-x, y).
    The complement goes to _constraint_rows as it is, (-x, y) not
    canonicalized, so no entry is divided.
    """
    complement = [
        Summand(ROW, -s.x, s.y) if s.kind == ROW else Summand(_COMPLEMENT[s.kind])
        for s in spec.summands
    ]
    return _constraint_rows(ctx, n, complement)


def code_from_ideal_spec(ctx: FieldCtx, n: int, spec: IdealSpec) -> MatrixGF:
    """RREF generator matrix (phi coordinates) of P^-1 of the chosen ideal,
    reduced from its smaller side: the RREF of its dim span rows
    (_span_rows) when dim <= n, else the kernel of its 2n - dim constraint
    rows (_constraint_rows), by linalg.kernel_rref, built dense from its
    (pivots, A) by linalg.echelon.  A row space has one RREF, so both sides
    give the same matrix, which carries its (pivots, A).
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
    return echelon(ctx, *kernel_rref(ctx, _constraint_rows(ctx, n, spec.summands), 2 * n), 2 * n)


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
