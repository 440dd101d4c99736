"""Dense exact linear algebra over GF(q).

Gaussian elimination with first-nonzero pivoting; no floating point, no
sparsity.  Matrices are plain values: every operation returns a new matrix.
A matrix holds its rows in its field's entry form (_entry_form), the form
the dual walk keeps its columns in too: residues mod p over GF(p)
(_Residues), FieldElements over GF(p^m) (_Elements).  Elimination is
written once, on either form.  FieldElements are the API view: data,
m[i, j], row(i), text() and to_json() build them on access, and the
constructors take them, refusing entries from another field.
"""

from __future__ import annotations

import json

from .errors import MixedContextsError
from .gf import FieldCtx, FieldElement, _is_int, parse_field_spec


class MatrixGF:
    __slots__ = ("ctx", "rows", "cols", "form", "entries")

    def __init__(self, ctx: FieldCtx, data, cols: int | None = None):
        data = [list(row) for row in data]
        self.ctx, self.form, self.rows = ctx, _entry_form(ctx), len(data)
        self.cols = len(data[0]) if data else (cols or 0)
        for row in data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")
            for e in row:
                if not isinstance(e, FieldElement) or (e.ctx is not ctx and e.ctx != ctx):
                    raise MixedContextsError("entry from a different field")
        self.entries = [self.form.entries(row) for row in data]

    @classmethod
    def _trusted(cls, ctx: FieldCtx, entries: list, cols: int) -> "MatrixGF":
        """A matrix on rows as they are, unchecked: lists of cols entries
        each, in ctx's entry form, as elimination and kernel_rref build them."""
        m = cls.__new__(cls)
        m.ctx, m.form, m.entries = ctx, _entry_form(ctx), entries
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

    @classmethod
    def identity(cls, ctx: FieldCtx, n: int) -> "MatrixGF":
        z, o = ctx.zero(), ctx.one()
        return cls(ctx, [[o if i == j else z for j in range(n)] for i in range(n)])

    @property
    def data(self) -> list[list[FieldElement]]:
        """The rows as FieldElements, built on each access."""
        return [self.form.elements(row) for row in self.entries]

    def __getitem__(self, ij):
        return self.form.elements([self.entries[ij[0]][ij[1]]])[0]

    def row(self, i: int) -> list[FieldElement]:
        return self.form.elements(self.entries[i])

    # -- elimination ---------------------------------------------------------

    def rref(self) -> tuple["MatrixGF", int, list[int]]:
        """Reduced row echelon form; returns (R, rank, pivot columns).

        Rows are replaced, never changed in place, so they may be shared.
        """
        form, data = self.form, list(self.entries)
        one = form.entries([self.ctx.one()])[0]
        pivots = []
        for c in range(self.cols):
            r = len(pivots)
            pr = next((i for i in range(r, self.rows) if data[i][c]), None)
            if pr is None:
                continue
            data[r], data[pr] = data[pr], data[r]
            if data[r][c] != one:  # scale it by its point: zero before c, so c is its lead
                data[r] = data[r][:c] + [one, *form.point(data[r])[1:]]
            v = data[r]
            for i in range(self.rows):
                f = data[i][c]
                if i != r and f:
                    data[i] = form.canon([a - f * b for a, b in zip(data[i], v)])
            pivots.append(c)
            if len(pivots) == self.rows:
                break
        return MatrixGF._trusted(self.ctx, data, self.cols), len(pivots), pivots

    def rank(self) -> int:
        return self.rref()[1]

    def nonzero_rows(self) -> "MatrixGF":
        return MatrixGF._trusted(self.ctx, [r for r in self.entries if any(r)], self.cols)

    def kernel_basis(self) -> "MatrixGF":
        """Basis of the right null space {v : M v^T = 0}; see null_rows."""
        R, _, pivots = self.rref()
        return MatrixGF._trusted(self.ctx, null_rows(R, pivots), self.cols)

    # -- shaping ----------------------------------------------------------------

    def vstack(self, other: "MatrixGF") -> "MatrixGF":
        if self.ctx != other.ctx or self.cols != other.cols:
            raise ValueError("stack shape/field mismatch")
        return MatrixGF._trusted(self.ctx, self.entries + other.entries, self.cols)

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
            "entries": [self.form.coeffs(row) for row in self.entries],
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
        rows = [[_json_entry(ctx, e, i, j) for j, e in enumerate(r)] for i, r in enumerate(entries)]
        return cls(ctx, rows, cols=doc["cols"])

    def __repr__(self):
        return f"MatrixGF({self.rows}x{self.cols} over GF({self.ctx.q}))\n{self.text()}"


def null_rows(R: MatrixGF, pivots) -> list[list]:
    """Basis of the right null space of an RREF matrix R with these pivot
    columns, its rows in R's entry form.

    One row per free column: 1 there, 0 on the other free columns, and
    minus that column of R on the pivot columns.  For R = [I | A] this is
    the parity check [-A^T | I]; the rows are the identity on R's free
    columns and are not otherwise reduced.
    """
    pivot_set = set(pivots)
    z, o = R.form.entries([R.ctx.zero(), R.ctx.one()])
    rows = []
    for f in range(R.cols):
        if f in pivot_set:
            continue
        v = [z] * R.cols
        v[f] = o
        for pc, e in zip(pivots, R.form.canon([-r[f] for r in R.entries[: len(pivots)]])):
            v[pc] = e
        rows.append(v)
    return rows


def kernel_rref(ctx: FieldCtx, rows, cols: int) -> tuple[MatrixGF, list[int]]:
    """The RREF basis of {v : H v^T = 0}, H given by its rows in ctx's entry
    form, and its pivots.

    The free columns of H with its columns reversed are the lex-first
    information set of ker H, so the kernel basis of reversed H, null_rows
    of its RREF, read back in reversed column and row order, is already
    the unique RREF.  Its pivots are reversed H's free columns, read back.
    """
    R, _, pivots = MatrixGF._trusted(ctx, [r[::-1] for r in rows], cols).rref()
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


def _entry_form(ctx: FieldCtx):
    """The form ctx's entries are held in: residues over GF(p), else elements."""
    return _Residues(ctx) if ctx.m == 1 else _Elements()


class _Residues:
    """GF(p) entries as residues mod p, canonical in [0, p)."""

    def __init__(self, ctx: FieldCtx):
        self.ctx, self.p = ctx, ctx.p

    def entries(self, elements) -> list[int]:
        return [e.coeffs[0] for e in elements]

    def elements(self, entries) -> list[FieldElement]:
        ctx = self.ctx
        return [FieldElement(ctx, (a,)) for a in entries]

    def coeffs(self, entries) -> list[list[int]]:  # as FieldElement.to_list gives them
        return [[a] for a in entries]

    def canon(self, values) -> list[int]:  # integers built from entries by + - *
        p = self.p
        return [a % p for a in values]

    def is_zero(self, a) -> bool:
        """Whether a, an integer built from entries by + - *, is 0 in GF(p)."""
        return a % self.p == 0

    def point(self, v):
        """v's projective point: its lead (first nonzero index) and v/v[lead]
        past it; None for v = 0."""
        p = self.p
        for lead, a in enumerate(v):
            if a:
                inv = pow(a, -1, p)
                return lead, *[b * inv % p for b in v[lead + 1:]]
        return None

    def reduce(self, c, vs, keys=False):
        """Each v less v[lead] c, off c's lead, for c given as its point; with
        keys, their points instead.  Two coordinates (x, y) left have the
        point y/x: p for x = 0, None for x = y = 0."""
        p = self.p
        lead, *tail = c
        unit = [0] * lead + [1] + tail
        rest = [t for t in range(len(unit)) if t != lead]
        if keys and len(rest) == 2:
            (s, t), a, b = rest, unit[rest[0]], unit[rest[1]]
            xs = [(v[s] - v[lead] * a) % p for v in vs]
            # Montgomery's batch inversion: one pow for all the x, then
            # 1/x_k = (x_0 ... x_(k-1)) / (x_0 ... x_k), skipping x = 0
            prefix, acc = [], 1
            for x in xs:
                prefix.append(acc)
                if x:
                    acc = acc * x % p
            inv, points = pow(acc, -1, p), [p] * len(xs)
            for k in range(len(xs) - 1, -1, -1):
                v = vs[k]
                y = v[t] - v[lead] * b
                if xs[k]:
                    points[k] = y * inv * prefix[k] % p
                    inv = inv * xs[k] % p
                elif y % p == 0:
                    points[k] = None
            return points
        out = [[(v[t] - v[lead] * unit[t]) % p for t in rest] for v in vs]
        return [self.point(v) for v in out] if keys else out


class _Elements:
    """GF(p^m) entries as FieldElements, with their own arithmetic."""

    def entries(self, elements) -> list[FieldElement]:
        return list(elements)

    elements = entries

    def coeffs(self, entries) -> list[list[int]]:
        return [e.to_list() for e in entries]

    def canon(self, values) -> list[FieldElement]:  # already canonical
        return values

    def is_zero(self, a) -> bool:
        return not a

    def point(self, v):
        """v's projective point: its lead and v/v[lead] past it; None for v = 0."""
        for lead, a in enumerate(v):
            if a:
                inv = a.inverse()
                return lead, *[b * inv for b in v[lead + 1:]]
        return None

    def reduce(self, c, vs, keys=False):
        """Each v less v[lead] c, off c's lead, for c given as its point; with
        keys, their points instead."""
        lead, *tail = c
        out = [v[:lead] + [b - v[lead] * a for a, b in zip(tail, v[lead + 1:])] for v in vs]
        return [self.point(v) for v in out] if keys else out
