"""Primitive idempotents of F_q C_n and central primitive idempotents of F_q D_2n.

With xi the canonical primitive n-th root of unity, the cyclic idempotents
are e_i = (1/n) * sum_{j=0}^{n-1} xi^(-i*j) a^j.  The sum must start at
j = 0: dropping the constant term breaks e*e = e.

The central family of F_q D_2n is
  n odd:  (1+b)/2 e_0, (1-b)/2 e_0, e_1+e_(n-1), ..., e_((n-1)/2)+e_((n+1)/2)
  n even: additionally (1+b)/2 e_(n/2) and (1-b)/2 e_(n/2), with the paired
          sums stopping at e_(n/2-1)+e_(n/2+1).
"""

from __future__ import annotations

from .dihedral import AlgebraElement, DihedralAlgebra
from .errors import _Record
from .gf import FieldCtx, FieldElement, primitive_nth_root


class IdempotentFamily(_Record):
    n: int
    ctx: FieldCtx
    xi: FieldElement
    members: tuple[AlgebraElement, ...]

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)


def _xi_powers(ctx: FieldCtx, n: int) -> list[FieldElement]:
    """xi^0 .. xi^(n-1) for the canonical primitive n-th root xi."""
    xi = primitive_nth_root(ctx, n)
    pows = [ctx.one()]
    for _ in range(n - 1):
        pows.append(pows[-1] * xi)
    return pows


def cyclic_idempotent(ctx: FieldCtx, n: int, i: int) -> AlgebraElement:
    """e_i of F_q C_n, embedded in F_q D_2n with zero reflected part."""
    if not 0 <= i < n:
        raise IndexError(f"idempotent index {i} out of range for n={n}")
    xi_pows = _xi_powers(ctx, n)
    algebra = DihedralAlgebra(ctx, n)
    inv_n = ctx.element(n).inverse()
    alpha = [inv_n * xi_pows[(-i * j) % n] for j in range(n)]
    return algebra.element(alpha)


def cyclic_family(ctx: FieldCtx, n: int) -> IdempotentFamily:
    """All primitive idempotents e_0 .. e_(n-1) of F_q C_n."""
    xi = primitive_nth_root(ctx, n)
    members = tuple(cyclic_idempotent(ctx, n, i) for i in range(n))
    return IdempotentFamily(n=n, ctx=ctx, xi=xi, members=members)


def central_primitive_idempotents(ctx: FieldCtx, n: int) -> IdempotentFamily:
    """Central primitive idempotents of F_q D_2n.

    Family size is 2 + (n-1)/2 for odd n and 4 + (n-2)/2 for even n.
    Requires gcd(2n, q) = 1 and n | q-1.
    """
    xi = primitive_nth_root(ctx, n)
    algebra = DihedralAlgebra(ctx, n)
    e = [cyclic_idempotent(ctx, n, i) for i in range(n)]
    b = algebra.b()
    one = algebra.one()
    inv2 = ctx.element(2).inverse()
    members = [
        ((one + b) * e[0]).scale(inv2),
        ((one - b) * e[0]).scale(inv2),
    ]
    if n % 2 == 0:
        members.append(((one + b) * e[n // 2]).scale(inv2))
        members.append(((one - b) * e[n // 2]).scale(inv2))
        pairs = range(1, n // 2)
    else:
        pairs = range(1, (n - 1) // 2 + 1)
    for i in pairs:
        members.append(e[i] + e[n - i])
    return IdempotentFamily(n=n, ctx=ctx, xi=xi, members=tuple(members))
