"""Dense exact linear algebra over GF(q).

Gaussian elimination with first-nonzero pivoting; no floating point, no
sparsity.  Matrices hold FieldElement entries and are plain values: every
operation returns a new matrix.
"""

from __future__ import annotations

import json

from .errors import DuplicateIndexError, MixedContextsError
from .gf import FieldCtx, FieldElement, _is_int, parse_field_spec


class MatrixGF:
    __slots__ = ("ctx", "rows", "cols", "data")

    def __init__(self, ctx: FieldCtx, data, cols: int | None = None):
        self.ctx = ctx
        self.data = [list(row) for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else (cols or 0)
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")
            for e in row:
                if not isinstance(e, FieldElement) or (e.ctx is not ctx and e.ctx != ctx):
                    raise MixedContextsError("entry from a different field")

    @classmethod
    def _trusted(cls, ctx: FieldCtx, data: list, cols: int) -> "MatrixGF":
        """A matrix on data as it is, unchecked: data must be fresh lists of
        cols elements of ctx each, as elimination and kernel_rref build them."""
        m = cls.__new__(cls)
        m.ctx, m.data, m.rows, m.cols = ctx, data, len(data), cols
        return m

    @classmethod
    def from_rows(cls, ctx: FieldCtx, rows) -> "MatrixGF":
        """Build from rows of ints / lists / elements, coerced into ctx."""
        return cls(ctx, [[ctx.element(e) for e in row] for row in rows])

    @classmethod
    def zeros(cls, ctx: FieldCtx, rows: int, cols: int) -> "MatrixGF":
        z = ctx.zero()
        return cls(ctx, [[z] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, ctx: FieldCtx, n: int) -> "MatrixGF":
        z, o = ctx.zero(), ctx.one()
        return cls(ctx, [[o if i == j else z for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def row(self, i: int) -> list[FieldElement]:
        return list(self.data[i])

    # -- elimination ---------------------------------------------------------

    def rref(self) -> tuple["MatrixGF", int, list[int]]:
        """Reduced row echelon form; returns (R, rank, pivot columns)."""
        data = [list(row) for row in self.data]
        one = self.ctx.one()
        pivots = []
        r = 0
        for c in range(self.cols):
            pr = next((i for i in range(r, self.rows) if data[i][c]), None)
            if pr is None:
                continue
            data[r], data[pr] = data[pr], data[r]
            if data[r][c] != one:
                inv = data[r][c].inverse()
                data[r] = [e * inv for e in data[r]]
            for i in range(self.rows):
                if i != r and data[i][c]:
                    data[i] = _less_multiple(data[i], data[i][c], data[r])
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return MatrixGF._trusted(self.ctx, data, self.cols), r, pivots

    def rank(self) -> int:
        return self.rref()[1]

    def nonzero_rows(self) -> "MatrixGF":
        return MatrixGF._trusted(self.ctx, [list(r) for r in self.data if any(r)], self.cols)

    def kernel_basis(self) -> "MatrixGF":
        """Basis of the right null space {v : M v^T = 0}; see null_rows."""
        R, _, pivots = self.rref()
        return MatrixGF(self.ctx, null_rows(R, pivots), cols=self.cols)

    def columns_rank(self, cols) -> int:
        """Rank of the selected column submatrix, without materializing it.

        Incrementally reduces each selected column against the pivot columns
        accumulated so far (a different code path from rref, usable as a
        cross-check).
        """
        cols = list(cols)
        seen = set()
        for c in cols:
            if not isinstance(c, int) or not 0 <= c < self.cols:
                raise IndexError(f"column index {c} out of range")
            if c in seen:
                raise DuplicateIndexError(f"duplicate column index {c}")
            seen.add(c)
        pivots: list[tuple[int, list[FieldElement]]] = []
        for c in cols:
            v = [self.data[i][c] for i in range(self.rows)]
            for lead, pvec in pivots:
                f = v[lead]
                if f:
                    v = [a - f * b for a, b in zip(v, pvec)]
            lead = next((i for i in range(self.rows) if v[i]), None)
            if lead is not None:
                inv = v[lead].inverse()
                pivots.append((lead, [e * inv for e in v]))
        return len(pivots)

    # -- shaping ----------------------------------------------------------------

    def vstack(self, other: "MatrixGF") -> "MatrixGF":
        if self.ctx != other.ctx or self.cols != other.cols:
            raise ValueError("stack shape/field mismatch")
        return MatrixGF(self.ctx, self.data + other.data)

    # -- row-space queries ------------------------------------------------------

    def row_space_contains(self, vec) -> bool:
        """Whether vec lies in the row space: appending it leaves the rank unchanged."""
        return self.vstack(MatrixGF.from_rows(self.ctx, [vec])).rank() == self.rank()

    # -- value semantics and encoding -------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MatrixGF):
            return NotImplemented
        return (
            self.ctx == other.ctx
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def text(self) -> str:
        cells = [[e.text() for e in row] for row in self.data]
        widths = [
            max((len(cells[i][j]) for i in range(self.rows)), default=1)
            for j in range(self.cols)
        ]
        lines = [
            " ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in cells
        ]
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "field": self.ctx.spec(),
            "entries": [[list(e.coeffs) for e in row] for row in self.data],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "MatrixGF":
        if not isinstance(doc, dict):
            raise ValueError(f"matrix JSON must be an object, got {type(doc).__name__}")
        for key in ("field", "rows", "cols", "entries"):
            if key not in doc:
                raise ValueError(f'matrix JSON has no "{key}" key')
        if not isinstance(doc["field"], str):
            raise ValueError(f"matrix field is {json.dumps(doc['field'])}, not a spec string")
        for key in ("rows", "cols"):
            if not _is_int(doc[key]) or doc[key] < 0:
                raise ValueError(f"matrix {key} is {json.dumps(doc[key])}, not an integer >= 0")
        ctx = parse_field_spec(doc["field"])
        entries = doc["entries"]
        if (
            not isinstance(entries, list)
            or any(not isinstance(r, list) for r in entries)
            or len(entries) != doc["rows"]
            or any(len(r) != doc["cols"] for r in entries)
        ):
            raise ValueError("matrix JSON shape mismatch")
        if doc["rows"] == 0:
            return cls.zeros(ctx, 0, doc["cols"])
        rows = [[_json_entry(ctx, e, i, j) for j, e in enumerate(r)] for i, r in enumerate(entries)]
        return cls(ctx, rows)

    def __repr__(self):
        return f"MatrixGF({self.rows}x{self.cols} over GF({self.ctx.q}))\n{self.text()}"


def _less_multiple(u, f, v) -> list[FieldElement]:
    """u - f v, for rows u and v of f's field: elimination's row operation.

    Over GF(p) it is one residue expression per entry, not two element
    operations.
    """
    ctx = f.ctx
    if ctx.m > 1:
        return [a - f * b for a, b in zip(u, v)]
    p, c = ctx.p, f.coeffs[0]
    return [FieldElement(ctx, ((a.coeffs[0] - c * b.coeffs[0]) % p,)) for a, b in zip(u, v)]


def null_rows(R: MatrixGF, pivots) -> list[list[FieldElement]]:
    """Basis of the right null space of an RREF matrix R with these pivot columns.

    One row per free column: 1 there, 0 on the other free columns, and
    minus that column of R on the pivot columns.  For R = [I | A] this is
    the parity check [-A^T | I]; the rows are the identity on R's free
    columns and are not otherwise reduced.
    """
    pivot_set = set(pivots)
    z, o = R.ctx.zero(), R.ctx.one()
    rows = []
    for f in range(R.cols):
        if f in pivot_set:
            continue
        v = [z] * R.cols
        v[f] = o
        for i, pc in enumerate(pivots):
            v[pc] = -R.data[i][f]
        rows.append(v)
    return rows


def kernel_rref(ctx: FieldCtx, rows, cols: int) -> tuple[MatrixGF, list[int]]:
    """The RREF basis of {v : H v^T = 0}, H given by its rows, and its pivots.

    The free columns of H with its columns reversed are the lex-first
    information set of ker H, so the kernel basis of reversed H, null_rows
    of its RREF, read back in reversed column and row order, is already
    the unique RREF.  Its pivots are reversed H's free columns, read back.
    """
    R, _, pivots = MatrixGF(ctx, [r[::-1] for r in rows], cols=cols).rref()
    pivot_set = set(pivots)
    basis = MatrixGF._trusted(ctx, [r[::-1] for r in reversed(null_rows(R, pivots))], cols)
    return basis, [cols - 1 - f for f in reversed(range(cols)) if f not in pivot_set]


def _json_entry(ctx: FieldCtx, e, i: int, j: int) -> FieldElement:
    """Entry [i][j] of a matrix document: an integer, a list of integers or
    an element's text; a float, a bool or null is refused, not truncated,
    and so is a list holding one (by ctx.element)."""
    if not (_is_int(e) or isinstance(e, (str, list))):
        raise ValueError(
            f"matrix entry [{i}][{j}] is {json.dumps(e)}, not an integer or a list of integers"
        )
    try:
        return ctx.element(e)
    except ValueError as exc:
        raise ValueError(f"matrix entry [{i}][{j}] is {json.dumps(e)}, {exc}") from None
