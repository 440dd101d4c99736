"""Dense exact linear algebra over GF(q).

Gaussian elimination with first-nonzero pivoting; no floating point, no
sparsity.  Matrices are plain values: every operation returns a new matrix.
An RREF that the library built (rref, echelon) carries its systematic
form, so its rref() and systematic() need no second elimination; every
other matrix, whatever its constructor, is reduced when asked.
A matrix holds its rows in its field's entry form (FieldCtx.form, one per
field), the form the dual walk keeps its columns in too: integers always,
residues over GF(p), and over GF(p^m), m >= 2, coefficients packed into
one integer.  Elimination is written once, on any form's submul and point.
FieldElements are the API view: data, m[i, j] and row(i) build them on
access, text() and to_json() read the entries' coefficients, and the
constructors take them, refusing entries from another field.

An RREF of rank k is also held in systematic form (pivots, A): its pivot
columns, and A, each row's entries on the other, free columns, in order
(MacWilliams-Sloane, ch. 1: G = [I | A] up to a column permutation).
dual gives the dual's form, (free columns, -A^T): null_rows builds its
rows, and kernel_rref reads ker H off the dual of reversed H's form.
echelon_rows rebuilds a form's rows one at a time, echelon the matrix.
"""

from __future__ import annotations

import json

from .errors import MixedContextsError
from .gf import FieldCtx, FieldElement, _is_int, parse_field_spec, poly_text


class MatrixGF:
    __slots__ = ("ctx", "rows", "cols", "entries", "_systematic")

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
        self._systematic = None

    @classmethod
    def _trusted(cls, ctx: FieldCtx, entries: list, cols: int, systematic=None) -> "MatrixGF":
        """A matrix on rows as they are, unchecked: lists of cols entries
        each, in ctx's entry form, as elimination and echelon build them.
        systematic, its (pivots, A), shared, is given only for an RREF."""
        m = cls.__new__(cls)
        m.ctx, m.entries, m._systematic = ctx, entries, systematic
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

        R carries its systematic form (pivots, A), read off its rows here,
        so R.rref() is (R, rank, pivots) at once, with no elimination.  Rows
        are replaced, never changed in place, so they may be shared.
        """
        if self._systematic is not None:
            return self, len(self._systematic[0]), list(self._systematic[0])
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
        rank = len(pivots)
        if not pivots or pivots[-1] == rank - 1:  # pivots first: A is each row's tail
            A = [row[rank:] for row in data[:rank]]
        else:
            free = free_columns(pivots, self.cols)
            A = [[row[f] for f in free] for row in data[:rank]]
        return MatrixGF._trusted(self.ctx, data, self.cols, (tuple(pivots), A)), rank, pivots

    def rank(self) -> int:
        return self.rref()[1]

    def nonzero_rows(self) -> "MatrixGF":
        """The nonzero rows; those of an RREF keep its systematic form."""
        return MatrixGF._trusted(self.ctx, [r for r in self.entries if any(r)], self.cols, self._systematic)

    # -- value semantics and encoding -------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MatrixGF):
            return NotImplemented
        same_shape = (self.ctx, self.rows, self.cols) == (other.ctx, other.rows, other.cols)
        return same_shape and self.entries == other.entries

    def text(self) -> str:
        cells = [[poly_text(cs) for cs in self.ctx.form.coeffs(row)] for row in self.entries]
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
        """The systematic form (pivots, A) that this matrix's RREF carries,
        a read for a matrix that elimination built, as the caller's copies."""
        pivots, A = self.rref()[0]._systematic
        return list(pivots), [list(a) for a in A]

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
    """The rows of the systematic form (pivots, A), an RREF or a dual,
    built one at a time as they are read: one at the row's own pivot, zero
    at the other pivots, and its row of A on the free columns.  zero and
    one are the entries 0 and 1, or what stands for them where A's entries
    stand for theirs."""
    free = free_columns(pivots, cols)
    for c, a in zip(pivots, A):
        row = [zero] * cols
        row[c] = one
        for f, e in zip(free, a):
            row[f] = e
        yield row


def echelon(ctx: FieldCtx, pivots, A, cols: int) -> MatrixGF:
    """The RREF (pivots, A) as a dense matrix, which carries that form."""
    return MatrixGF._trusted(ctx, list(echelon_rows(pivots, A, cols)), cols, (tuple(pivots), A))


def dual(ctx: FieldCtx, pivots, A, cols: int) -> tuple[list[int], list[tuple]]:
    """The systematic form of the dual of the code (pivots, A): its free
    columns and -A^T, each row minus a column of A on the pivots in the
    order given.  With the pivots first this is [-A^T | I], the parity
    check of [I | A] (MacWilliams-Sloane, ch. 1), not an RREF unless the
    pivots are last; dual of the dual is (pivots, A) again."""
    free = free_columns(pivots, cols)
    minus = [ctx.form.submul([0] * len(a), 1, a) for a in A]
    return free, list(zip(*minus)) or [()] * len(free)  # rank 0: -A^T has no columns


def null_rows(ctx: FieldCtx, pivots, A, cols: int) -> list[list]:
    """Basis of the right null space of the code (pivots, A), its rows in
    ctx's entry form: the rows of its dual, [-A^T | I] with the pivots
    first, one per free column (echelon_rows of dual)."""
    return list(echelon_rows(*dual(ctx, pivots, A, cols), cols))


def kernel_rref(ctx: FieldCtx, rows, cols: int) -> tuple[list[int], list[tuple]]:
    """The RREF basis of {v : H v^T = 0}, H given by its rows in ctx's entry
    form, in systematic form (pivots, A), by one elimination, of H with its
    columns reversed; no row of the basis is formed.

    The free columns of reversed H are the lex-first information set of
    ker H, so the dual of reversed H's carried form, read back (column f
    to cols - 1 - f, its rows and each row's entries last first), is
    already the unique RREF.
    """
    pivots, A = MatrixGF._trusted(ctx, [r[::-1] for r in rows], cols).rref()[0]._systematic
    free, minus = dual(ctx, pivots[::-1], A[::-1], cols)  # each row of -A^T comes out reversed
    return [cols - 1 - f for f in reversed(free)], minus[::-1]


def _json_entry(ctx: FieldCtx, e, i: int, j: int) -> FieldElement:
    """Entry [i][j] of a matrix document: an integer, a list of integers or
    an element's text; a float, a bool or null is refused, not truncated,
    and so is a list holding one (by ctx.element)."""
    if not (_is_int(e) or isinstance(e, (str, list))):
        raise ValueError(f"matrix entry [{i}][{j}] is {json.dumps(e)}, "
                         "not an integer, a list of integers or an element's text")
    try:
        return ctx.element(e)
    except ValueError as exc:
        raise ValueError(f"matrix entry [{i}][{j}] is {json.dumps(e)}, {exc}") from None
