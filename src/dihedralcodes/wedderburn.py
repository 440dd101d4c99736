"""Explicit block decomposition of F_q D_2n for odd n with n | q-1.

The algebra splits as F_q + F_q (a pair gamma) plus (n-1)/2 copies of
M_2(F_q).  On an element with a-part coefficients alpha_i and b-part
coefficients beta_i, the map P evaluates to

  gamma   = (sum alpha_i + sum beta_i, sum alpha_i - sum beta_i)
  block j = [[sum alpha_i xi^(ij),  sum beta_i xi^(-ij)],
             [sum beta_i xi^(ij),   sum alpha_i xi^(-ij)]]   j = 1..(n-1)/2

with xi the canonical primitive n-th root of unity.  P is an algebra
isomorphism, so left ideals of F_q D_2n correspond exactly to direct sums
of one ideal per summand; IdealSpec names such a choice and
code_from_ideal_spec pulls it back to a generator matrix in phi
coordinates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .dihedral import AlgebraElement, DihedralAlgebra, phi_inv
from .errors import EvenNError, InvalidRowSpecError, SingularTransformError
from .gf import FieldCtx, FieldElement
from .idempotents import _nth_root
from .linalg import MatrixGF

# Each cached (T, T^-1) pair holds 8n^2 field elements, so only the most
# recently used (field, n) pairs are kept.
TRANSFORM_CACHE_SIZE = 32


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
    xi = _nth_root(ctx, n)
    xi_pows = [ctx.one()]
    for _ in range(n - 1):
        xi_pows.append(xi_pows[-1] * xi)
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
# inverse map via the 2n x 2n transform on the monomial basis

@functools.lru_cache(maxsize=TRANSFORM_CACHE_SIZE)
def transform_matrices(ctx: FieldCtx, n: int) -> tuple[MatrixGF, MatrixGF]:
    """(T, T^-1) where T maps phi coordinates to flattened tuple coordinates."""
    algebra = DihedralAlgebra(ctx, n)
    cols = [wedderburn_map(m).flatten() for m in algebra.monomials()]
    T = MatrixGF(ctx, [[cols[j][i] for j in range(2 * n)] for i in range(2 * n)])
    try:
        T_inv = T.inverse()
    except ValueError as exc:
        raise SingularTransformError(
            f"decomposition transform is singular for q={ctx.q}, n={n}"
        ) from exc
    return T, T_inv


def wedderburn_inverse(t: WedderburnTuple) -> AlgebraElement:
    """The unique algebra element mapping to t under P."""
    ctx = t.ctx
    n = t.n
    _, T_inv = transform_matrices(ctx, n)
    coords = T_inv.mul_vector(t.flatten())
    return phi_inv(DihedralAlgebra(ctx, n), coords)


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


def _basis_vectors(ctx: FieldCtx, n: int, spec: IdealSpec) -> list[list[FieldElement]]:
    """Basis of the chosen ideal in WedderburnTuple.flatten coordinates."""
    z, o = ctx.zero(), ctx.one()
    half = (n - 1) // 2
    out: list[list[FieldElement]] = []

    def unit(offset, *entries):
        v = [z] * (2 * n)
        v[offset:offset + len(entries)] = entries
        return v

    pos0 = spec.summands[0].kind
    if pos0 in (FULL, PLUS_PIECE):
        out.append(unit(0, o))
    if pos0 in (FULL, MINUS_PIECE):
        out.append(unit(1, o))
    for j, s in enumerate(spec.summands[1:]):
        if j >= half:
            raise InvalidRowSpecError(
                f"spec has {len(spec)} summands but n={n} allows {1 + half}"
            )
        base = 2 + 4 * j  # block j row-major: (0,0), (0,1), (1,0), (1,1)
        if s.kind == FULL:
            out.extend(unit(base + t, o) for t in range(4))
        elif s.kind == ROW:
            out.append(unit(base, s.x, s.y))
            out.append(unit(base + 2, s.x, s.y))
    return out


def code_from_ideal_spec(ctx: FieldCtx, n: int, spec: IdealSpec) -> MatrixGF:
    """RREF generator matrix (phi coordinates) of P^-1 of the chosen ideal."""
    if n % 2 == 0:
        raise EvenNError(f"ideal specs are defined for odd n, got n={n}")
    if len(spec) != 1 + (n - 1) // 2:
        raise InvalidRowSpecError(
            f"spec needs {1 + (n - 1) // 2} summands for n={n}, got {len(spec)}"
        )
    vectors = _basis_vectors(ctx, n, spec)
    if not vectors:
        return MatrixGF.zeros(ctx, 0, 2 * n)
    _, T_inv = transform_matrices(ctx, n)
    reduced, _, _ = MatrixGF(ctx, [T_inv.mul_vector(v) for v in vectors]).rref()
    return reduced.nonzero_rows()


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
