"""Queries the tests check the library against, apart from its own routes:
ranks apart from its elimination, and left-ideal closure by group algebra
products apart from the dual engine's certificate; and the matrices only
the tests build: identities, stacks, kernel bases, and twisted and
Frobenius copies."""

from dihedralcodes.dihedral import phi_inv
from dihedralcodes.linalg import MatrixGF, null_rows


def identity(ctx, n: int) -> MatrixGF:
    z, o = ctx.zero(), ctx.one()
    return MatrixGF(ctx, [[o if i == j else z for j in range(n)] for i in range(n)])


def vstack(m: MatrixGF, other: MatrixGF) -> MatrixGF:
    """m's rows, then other's."""
    if m.ctx != other.ctx or m.cols != other.cols:
        raise ValueError("stack shape/field mismatch")
    return MatrixGF._trusted(m.ctx, m.entries + other.entries, m.cols)


def kernel_basis(m: MatrixGF) -> MatrixGF:
    """Basis of the right null space {v : m v^T = 0}, null_rows of m's RREF."""
    return MatrixGF._trusted(m.ctx, null_rows(m.ctx, *m.systematic(), m.cols), m.cols)


def twisted(m: MatrixGF, s: int, n: int) -> MatrixGF:
    """The RREF of m, a matrix on phi coordinates, after sigma_s: a -> a^s,
    b -> b, which moves column i of each half to column s i mod n, for
    gcd(s, n) = 1."""
    t = pow(s, -1, n)  # column j of a half takes column t j of m's
    rows = [[r[h + t * j % n] for h in (0, n) for j in range(n)] for r in map(m.row, range(m.rows))]
    return MatrixGF(m.ctx, rows, cols=m.cols).rref()[0]


def frobenius(m: MatrixGF) -> MatrixGF:
    """m with x -> x^p applied to each entry.  That is a field automorphism,
    fixing 0 and 1, so the copy of an RREF matrix is in RREF."""
    p = m.ctx.p
    return MatrixGF(m.ctx, [[e**p for e in m.row(i)] for i in range(m.rows)], cols=m.cols)


class DuplicateIndexError(ValueError):
    """Column index list contains repeats."""


def columns_rank(m: MatrixGF, cols) -> int:
    """Rank of m's column submatrix at cols, without materializing it.

    Incrementally reduces each selected column against the pivot columns
    accumulated so far, on FieldElements: a different code path from
    MatrixGF.rref, usable as a cross-check.
    """
    cols = list(cols)
    seen = set()
    for c in cols:
        if not isinstance(c, int) or not 0 <= c < m.cols:
            raise IndexError(f"column index {c} out of range")
        if c in seen:
            raise DuplicateIndexError(f"duplicate column index {c}")
        seen.add(c)
    data = m.data
    pivots = []
    for c in cols:
        v = [r[c] for r in data]
        for lead, pvec in pivots:
            f = v[lead]
            if f:
                v = [a - f * b for a, b in zip(v, pvec)]
        lead = next((i for i in range(m.rows) if v[i]), None)
        if lead is not None:
            inv = v[lead].inverse()
            pivots.append((lead, [e * inv for e in v]))
    return len(pivots)


def row_space_contains(m: MatrixGF, vec) -> bool:
    """Whether vec lies in m's row space: appending it leaves the rank unchanged."""
    return vstack(m, MatrixGF.from_rows(m.ctx, [vec])).rank() == m.rank()


def closed_by_products(code, algebra) -> bool:
    """Whether a * row and b * row lie in code's row space for every
    generator row, by AlgebraElement products and row_space_contains."""
    G = code.generator
    return all(
        row_space_contains(G, (g * phi_inv(algebra, G.row(i))).phi())
        for i in range(G.rows)
        for g in (algebra.a(), algebra.b())
    )
