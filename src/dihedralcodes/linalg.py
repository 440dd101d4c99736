"""Dense exact linear algebra over GF(q).

Gaussian elimination with first-nonzero pivoting; no floating point, no
sparsity.  Matrices are plain values: every operation returns a new matrix.
A matrix in RREF that the library built (rref, echelon) knows its pivots,
so its own rref() returns it with no second elimination; every other
matrix, whatever its constructor, is reduced when asked.
A matrix holds its rows in its field's entry form (FieldCtx.form, one per
field), the form the dual walk keeps its columns in too: integers always,
residues over GF(p), and over GF(p^m), m >= 2, coefficients packed into
one integer.  Elimination is written once, on any form's submul and point.
FieldElements are the API view: data, m[i, j], row(i), text() and to_json()
build them on access, and the constructors take them, refusing entries
from another field.

An RREF of rank k is also held in systematic form (pivots, A): its pivot
columns, and A, each row's entries on the other, free columns, in order
(MacWilliams-Sloane, ch. 1: G = [I | A] up to a column permutation).
kernel_rref gives a kernel in that form, null_rows reads [-A^T | I] off
it, echelon_rows rebuilds its rows one at a time, and echelon the dense
matrix.
"""

from __future__ import annotations

import json

from .errors import MixedContextsError
from .gf import FieldCtx, FieldElement, _is_int, parse_field_spec


class MatrixGF:
    __slots__ = ("ctx", "rows", "cols", "entries", "_pivots")

    def __init__(self, ctx: FieldCtx, data, cols: int | None = None):
        data = [list(row) for row in data]
        self.ctx, self.rows = ctx, len(data)
        self.cols = len(data[0]) if data else (cols or 0)
        for row in data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")
            for e in row:
                if not isinstance(e, FieldElement) or (e.ctx is not ctx and e.ctx != ctx):
                    raise MixedContextsError("entry from a different field")
        self.entries = [ctx.form.entries(row) for row in data]
        self._pivots = None

    @classmethod
    def _trusted(cls, ctx: FieldCtx, entries: list, cols: int, pivots=None) -> "MatrixGF":
        """A matrix on rows as they are, unchecked: lists of cols entries
        each, in ctx's entry form, as elimination and echelon build them.
        pivots, a tuple, is given only for a matrix in RREF."""
        m = cls.__new__(cls)
        m.ctx, m.entries, m._pivots = ctx, entries, pivots
        m.rows, m.cols = len(entries), cols
        return m

    @classmethod
    def from_rows(cls, ctx: FieldCtx, rows) -> "MatrixGF":
        """Build from rows of ints / lists / elements, coerced into ctx."""
        return cls(ctx, [[ctx.element(e) for e in row] for row in rows])

    @classmethod
    def zeros(cls, ctx: FieldCtx, rows: int, cols: int) -> "MatrixGF":
        z = ctx.zero()
        return cls(ctx, [[z] * cols for _ in range(rows)], cols=cols)

    @property
    def data(self) -> list[list[FieldElement]]:
        """The rows as FieldElements, built on each access."""
        return [self.ctx.form.elements(row) for row in self.entries]

    def __getitem__(self, ij):
        return self.ctx.form.elements([self.entries[ij[0]][ij[1]]])[0]

    def row(self, i: int) -> list[FieldElement]:
        return self.ctx.form.elements(self.entries[i])

    # -- elimination ---------------------------------------------------------

    def rref(self) -> tuple["MatrixGF", int, list[int]]:
        """Reduced row echelon form; returns (R, rank, pivot columns).

        R knows its pivots, so R.rref() is (R, rank, pivots) at once, with
        no elimination.  Rows are replaced, never changed in place, so they
        may be shared.
        """
        if self._pivots is not None:
            return self, len(self._pivots), list(self._pivots)
        form, data, rows = self.ctx.form, list(self.entries), self.rows
        pivots = []
        for c in range(self.cols):
            r = pr = len(pivots)
            while pr < rows and not data[pr][c]:
                pr += 1
            if pr == rows:
                continue
            data[r], data[pr] = data[pr], data[r]
            if data[r][c] != 1:  # scale it by its point: zero before c, so c is its lead
                data[r] = data[r][:c] + [1, *form.point(data[r])[1:]]
            v = data[r]
            for i in range(rows):
                f = data[i][c]
                if i != r and f:
                    data[i] = form.submul(data[i], f, v)
            pivots.append(c)
            if len(pivots) == rows:
                break
        return MatrixGF._trusted(self.ctx, data, self.cols, tuple(pivots)), len(pivots), pivots

    def rank(self) -> int:
        return self.rref()[1]

    def nonzero_rows(self) -> "MatrixGF":
        """The nonzero rows; those of an RREF keep its pivots."""
        return MatrixGF._trusted(self.ctx, [r for r in self.entries if any(r)], self.cols, self._pivots)

    # -- value semantics and encoding -------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MatrixGF):
            return NotImplemented
        same_shape = (self.ctx, self.rows, self.cols) == (other.ctx, other.rows, other.cols)
        return same_shape and self.entries == other.entries

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
            "entries": [self.ctx.form.coeffs(row) for row in self.entries],
        }

    def systematic(self) -> tuple[list[int], list[list]]:
        """The systematic form (pivots, A) of this matrix's RREF, by rref:
        at no cost past reading A for a matrix that elimination built."""
        R, rank, pivots = self.rref()
        free = free_columns(pivots, self.cols)
        return pivots, [[row[f] for f in free] for row in R.entries[:rank]]

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
        # every entry passes ctx.element: the rows enter unchecked
        rows = [ctx.form.entries([_json_entry(ctx, e, i, j) for j, e in enumerate(r)])
                for i, r in enumerate(entries)]
        return cls._trusted(ctx, rows, doc["cols"])

    def __repr__(self):
        return f"MatrixGF({self.rows}x{self.cols} over GF({self.ctx.q}))\n{self.text()}"


def free_columns(pivots, cols: int) -> list[int]:
    """The columns 0..cols-1 that are not pivots, in order."""
    taken = set(pivots)
    return [c for c in range(cols) if c not in taken]


def echelon_rows(pivots, A, cols: int, zero=0, one=1):
    """The rows of the RREF (pivots, A), built one at a time as they are
    read: one at the row's own pivot, zero at the other pivots, and its row
    of A on the free columns.  zero and one are the entries 0 and 1, or
    what stands for them where A's entries stand for theirs."""
    free = free_columns(pivots, cols)
    for c, a in zip(pivots, A):
        row = [zero] * cols
        row[c] = one
        for f, e in zip(free, a):
            row[f] = e
        yield row


def echelon(ctx: FieldCtx, pivots, A, cols: int) -> MatrixGF:
    """The RREF (pivots, A) as a dense matrix, which knows its pivots."""
    return MatrixGF._trusted(ctx, list(echelon_rows(pivots, A, cols)), cols, tuple(pivots))


def null_rows(ctx: FieldCtx, pivots, A, cols: int) -> list[list]:
    """Basis of the right null space of the RREF (pivots, A), its rows in
    ctx's entry form.

    One row per free column: 1 there, 0 on the other free columns, and
    minus that column of A on the pivot columns.  With the pivots first
    this is the parity check [-A^T | I] of [I | A]; the rows are the
    identity on the free columns and are not otherwise reduced.
    """
    free, r = free_columns(pivots, cols), cols - len(pivots)
    # A's entries negated by one submul, 0 - 1 A[i][j] at i * r + j
    minus = ctx.form.submul([0] * (len(pivots) * r), 1, [e for a in A for e in a])
    rows = []
    for j, f in enumerate(free):
        v = [0] * cols
        v[f] = 1
        for pc, e in zip(pivots, minus[j::r]):
            v[pc] = e
        rows.append(v)
    return rows


def kernel_rref(ctx: FieldCtx, rows, cols: int) -> tuple[list[int], list[tuple]]:
    """The RREF basis of {v : H v^T = 0}, H given by its rows in ctx's entry
    form, in systematic form (pivots, A), by one elimination, of H with its
    columns reversed; no row of the basis is formed.

    The free columns of reversed H are the lex-first information set of
    ker H, so its null space basis, read back in reversed column and row
    order (column f to cols - 1 - f), is already the unique RREF.  Read
    back, reversed H's free columns, last first, are the basis's pivots in
    order, and its pivot columns, last first, are the free columns.  So
    the row of A for the pivot cols - 1 - f is column f of reversed H's
    RREF R, negated, read from R's last nonzero row up.
    """
    R, rank, pivots = MatrixGF._trusted(ctx, [r[::-1] for r in rows], cols).rref()
    free = free_columns(pivots, cols)[::-1]
    minus = [ctx.form.submul([0] * cols, 1, r) for r in reversed(R.entries[:rank])]
    columns = list(zip(*minus)) or [()] * cols  # H of rank 0: A has no columns
    return [cols - 1 - f for f in free], [columns[f] for f in free]


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
