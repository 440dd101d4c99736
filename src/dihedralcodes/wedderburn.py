"""Explicit block decomposition of F_q D_2n for odd n with n | q-1.

The algebra splits as F_q + F_q (a pair gamma) plus (n-1)/2 copies of
M_2(F_q).  On an element with a-part coefficients alpha_i and b-part
coefficients beta_i, the map P evaluates to

  gamma   = (sum alpha_i + sum beta_i, sum alpha_i - sum beta_i)
  block j = [[sum alpha_i xi^(ij),  sum beta_i xi^(-ij)],
             [sum beta_i xi^(ij),   sum alpha_i xi^(-ij)]]   j = 1..(n-1)/2

with xi the canonical primitive n-th root of unity.  Each coordinate of P
is a linear form in phi coordinates whose entries are powers of xi, and
wedderburn_inverse undoes them as an inverse DFT.  P is an algebra
isomorphism, so left ideals of F_q D_2n correspond exactly to direct sums
of one ideal per summand; IdealSpec names such a choice.  Each summand is
cut out by at most four of those forms, so code_from_ideal_spec pulls the
ideal back as the null space of the forms its summands keep, without
inverting P.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dihedral import AlgebraElement, DihedralAlgebra
from .errors import EvenNError, InvalidRowSpecError
from .gf import FieldCtx, FieldElement
from .idempotents import _xi_powers
from .linalg import MatrixGF


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
        blocks = []
        for X, Y in zip(self.blocks, other.blocks):
            blocks.append(
                (
                    (
                        X[0][0] * Y[0][0] + X[0][1] * Y[1][0],
                        X[0][0] * Y[0][1] + X[0][1] * Y[1][1],
                    ),
                    (
                        X[1][0] * Y[0][0] + X[1][1] * Y[1][0],
                        X[1][0] * Y[0][1] + X[1][1] * Y[1][1],
                    ),
                )
            )
        return WedderburnTuple(gamma=g, blocks=tuple(blocks))

    def flatten(self) -> list[FieldElement]:
        """Coordinates (gamma_1, gamma_2, then each block row-major)."""
        out = [self.gamma[0], self.gamma[1]]
        for b in self.blocks:
            out.extend([b[0][0], b[0][1], b[1][0], b[1][1]])
        return out


def wedderburn_map(u: AlgebraElement) -> WedderburnTuple:
    """Apply P to an algebra element (n odd, n | q-1)."""
    n = u.n
    if n % 2 == 0:
        raise EvenNError(f"block decomposition implemented for odd n, got n={n}")
    ctx = u.ctx
    xi_pows = _xi_powers(ctx, n)
    z = ctx.zero()
    sum_a = sum(u.alpha, z)
    sum_b = sum(u.beta, z)
    blocks = []
    for j in range(1, (n - 1) // 2 + 1):
        a11 = a12 = a21 = a22 = z
        for i in range(n):
            ai, bi = u.alpha[i], u.beta[i]
            w_pos = xi_pows[(i * j) % n]
            w_neg = xi_pows[(-i * j) % n]
            if ai:
                a11 = a11 + ai * w_pos
                a22 = a22 + ai * w_neg
            if bi:
                a12 = a12 + bi * w_neg
                a21 = a21 + bi * w_pos
        blocks.append(((a11, a12), (a21, a22)))
    return WedderburnTuple(gamma=(sum_a + sum_b, sum_a - sum_b), blocks=tuple(blocks))


# ---------------------------------------------------------------------------
# inverse map: the inverse DFT of each half


def wedderburn_inverse(t: WedderburnTuple) -> AlgebraElement:
    """The unique algebra element mapping to t under P.

    The a-part has DFT A(k) = sum alpha_i xi^(ik) with A(0) = (g1+g2)/2,
    A(j) = block j (0,0) and A(-j) = block j (1,1); the b-part has
    B(0) = (g1-g2)/2, B(j) = block j (1,0) and B(-j) = block j (0,1).
    Each part is recovered as alpha_i = n^-1 sum_k A(k) xi^(-ik).
    """
    ctx, n = t.ctx, t.n
    algebra = DihedralAlgebra(ctx, n)
    xi_pows = _xi_powers(ctx, n)
    inv2, inv_n = ctx.element(2).inverse(), ctx.element(n).inverse()
    g1, g2 = t.gamma
    a_hat, b_hat = [(g1 + g2) * inv2] * n, [(g1 - g2) * inv2] * n
    for j, ((a11, a12), (a21, a22)) in enumerate(t.blocks, start=1):
        a_hat[j], a_hat[n - j] = a11, a22
        b_hat[j], b_hat[n - j] = a21, a12

    def inverse_dft(hat):
        return [
            sum((h * xi_pows[(-i * k) % n] for k, h in enumerate(hat)), ctx.zero()) * inv_n
            for i in range(n)
        ]

    return algebra.element(inverse_dft(a_hat), inverse_dft(b_hat))


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
                raise InvalidRowSpecError(
                    f"summand kind {s.kind!r} not allowed at a matrix block"
                )

    def dim(self) -> int:
        total = _DIMS_POSITION0[self.summands[0].kind]
        for s in self.summands[1:]:
            total += _DIMS_BLOCK[s.kind]
        return total

    def __len__(self):
        return len(self.summands)


def _constraint_rows(ctx: FieldCtx, n: int, spec: IdealSpec) -> list[list[FieldElement]]:
    """Rows H (phi coordinates) with P^-1 of the chosen ideal = ker H.

    P's coordinates are the linear forms g1 = (1..1 | 1..1),
    g2 = (1..1 | -1..-1) and, for block j, a11 = (xi^(ij) | 0),
    a12 = (0 | xi^(-ij)), a21 = (0 | xi^(ij)), a22 = (xi^(-ij) | 0).
    """
    z, o = ctx.zero(), ctx.one()
    out: list[list[FieldElement]] = []
    pos0 = spec.summands[0].kind
    if pos0 in (ZERO, MINUS_PIECE):
        out.append([o] * (2 * n))
    if pos0 in (ZERO, PLUS_PIECE):
        out.append([o] * n + [-o] * n)
    xi_pows = _xi_powers(ctx, n)
    for j, s in enumerate(spec.summands[1:], start=1):
        if s.kind == FULL:
            continue
        pos = [xi_pows[(i * j) % n] for i in range(n)]
        neg = [xi_pows[(-i * j) % n] for i in range(n)]
        if s.kind == ZERO:
            out += [pos + [z] * n, [z] * n + neg, [z] * n + pos, neg + [z] * n]
        else:  # row(x, y): y*a11 - x*a12 = 0 and y*a21 - x*a22 = 0
            y_pos = [s.y * w for w in pos]
            x_neg = [-s.x * w for w in neg]
            out += [y_pos + x_neg, x_neg + y_pos]
    return out


def code_from_ideal_spec(ctx: FieldCtx, n: int, spec: IdealSpec) -> MatrixGF:
    """RREF generator matrix (phi coordinates) of P^-1 of the chosen ideal.

    The free columns of H with its columns reversed are the lex-first
    information set of ker H, so the kernel basis of reversed H, read
    back in reversed column and row order, is already the unique RREF.
    """
    if n % 2 == 0:
        raise EvenNError(f"ideal specs are defined for odd n, got n={n}")
    if len(spec) != 1 + (n - 1) // 2:
        raise InvalidRowSpecError(
            f"spec needs {1 + (n - 1) // 2} summands for n={n}, got {len(spec)}"
        )
    if spec.dim() == 0:
        return MatrixGF.zeros(ctx, 0, 2 * n)
    DihedralAlgebra(ctx, n)  # raises CharDividesOrderError
    H = [r[::-1] for r in _constraint_rows(ctx, n, spec)]
    kernel = MatrixGF(ctx, H, cols=2 * n).kernel_basis()
    return MatrixGF(ctx, [r[::-1] for r in reversed(kernel.data)], cols=2 * n)


def random_ideal_spec(ctx: FieldCtx, n: int, rng, allow_zero: bool = False) -> IdealSpec:
    """Uniform-ish random spec; resamples away the zero ideal unless allowed."""
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
        if allow_zero or spec.dim() > 0:
            return spec
