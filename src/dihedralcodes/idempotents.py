"""Primitive idempotents of F_q C_n and central primitive idempotents of F_q D_2n.

With xi the canonical primitive n-th root of unity, the cyclic idempotents
are e_i = (1/n) * sum_{j=0}^{n-1} xi^(-i*j) a^j.  The sum must start at
j = 0: dropping the constant term breaks e*e = e.

The central family of F_q D_2n is
  n odd:  (1+b)/2 e_0, (1-b)/2 e_0, e_1+e_(n-1), ..., e_((n-1)/2)+e_((n+1)/2)
  n even: additionally (1+b)/2 e_(n/2) and (1-b)/2 e_(n/2), with the paired
          sums stopping at e_(n/2-1)+e_(n/2+1),
built from the cyclic family by coordinates, with no group products.

The powers of xi are the field's (gf._xi_entries).  The idempotents are the
tests' oracle for P and the constructions, which do not import this module.
"""

from __future__ import annotations

from .dihedral import AlgebraElement, DihedralAlgebra
from .errors import _Record
from .gf import FieldCtx, FieldElement, _xi_entries


class IdempotentFamily(_Record):
    n: int
    ctx: FieldCtx
    xi: FieldElement
    members: tuple[AlgebraElement, ...]

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)


def cyclic_idempotent(ctx: FieldCtx, n: int, i: int) -> AlgebraElement:
    """e_i of F_q C_n, embedded in F_q D_2n with zero reflected part."""
    if not 0 <= i < n:
        raise IndexError(f"idempotent index {i} out of range for n={n}")
    xi_pows = _xi_entries(ctx, n)
    algebra = DihedralAlgebra(ctx, n)
    (inv_n,) = ctx.form.entries([ctx.element(n).inverse()])
    alpha = ctx.form.canon([inv_n * xi_pows[(-i * j) % n] for j in range(n)])
    return AlgebraElement(algebra, alpha + [0] * n)


def cyclic_family(ctx: FieldCtx, n: int) -> IdempotentFamily:
    """All primitive idempotents e_0 .. e_(n-1) of F_q C_n."""
    members = tuple(cyclic_idempotent(ctx, n, i) for i in range(n))
    (xi,) = ctx.form.elements([_xi_entries(ctx, n)[1 % n]])  # the root the e_i are built on
    return IdempotentFamily(n=n, ctx=ctx, xi=xi, members=members)


def central_primitive_idempotents(ctx: FieldCtx, n: int) -> IdempotentFamily:
    """Central primitive idempotents of F_q D_2n, from cyclic_family (_central).

    Family size is 2 + (n-1)/2 for odd n and 4 + (n-2)/2 for even n.
    Requires gcd(2n, q) = 1 and n | q-1.
    """
    return _central(cyclic_family(ctx, n))


def _central(cyc: IdempotentFamily) -> IdempotentFamily:
    """The central family from the cyclic family cyc, by coordinates: e_i has
    no reflected part and b times a^j is the monomial b a^j, so (1 +- b)/2 e_i
    holds e_i's a-part times 1/2 on the a-half and +- that on the b-half."""
    ctx, n, e = cyc.ctx, cyc.n, cyc.members
    (inv2,) = ctx.form.entries([ctx.element(2).inverse()])
    members = []
    for i in (0, n // 2) if n % 2 == 0 else (0,):
        half = ctx.form.canon([inv2 * x for x in e[i].coords[:n]])
        members.append(AlgebraElement(e[i].algebra, half + half))
        members.append(AlgebraElement(e[i].algebra, half + ctx.form.canon([-x for x in half])))
    members += [e[i] + e[n - i] for i in range(1, (n + 1) // 2)]
    return IdempotentFamily(n=n, ctx=ctx, xi=cyc.xi, members=tuple(members))
