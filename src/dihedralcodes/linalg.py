"""Dense exact linear algebra over GF(q).

Gaussian elimination with first-nonzero pivoting; no floating point, no
sparsity.  Matrices are plain values: every operation returns a new matrix.
A matrix holds its rows in its field's entry form (_entry_form, one per
field), the form the dual walk keeps its columns in too: integers always,
residues over GF(p) (_Residues), and over GF(p^m), m >= 2, coefficients
packed into one integer (_Packed), with closed forms at m = 2 (_Pairs).
Each is a _Form, written once on the closed forms a form supplies.
Elimination is written once, on any form's submul and point.
FieldElements are the API view: data, m[i, j], row(i), text() and to_json()
build them on access, and the constructors take them, refusing entries
from another field.
"""

from __future__ import annotations

import json

from .errors import MixedContextsError
from .gf import FieldCtx, FieldElement, _is_int, _pmod, parse_field_spec


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
        pivots = []
        for c in range(self.cols):
            r = len(pivots)
            pr = next((i for i in range(r, self.rows) if data[i][c]), None)
            if pr is None:
                continue
            data[r], data[pr] = data[pr], data[r]
            if data[r][c] != 1:  # scale it by its point: zero before c, so c is its lead
                data[r] = data[r][:c] + [1, *form.point(data[r])[1:]]
            v = data[r]
            for i in range(self.rows):
                f = data[i][c]
                if i != r and f:
                    data[i] = form.submul(data[i], f, v)
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
        form = _entry_form(ctx)  # every entry passes ctx.element: the rows enter unchecked
        rows = [form.entries([_json_entry(ctx, e, i, j) for j, e in enumerate(r)])
                for i, r in enumerate(entries)]
        return cls._trusted(ctx, rows, doc["cols"])

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
    pivot_set, r = set(pivots), len(pivots)
    free = [f for f in range(R.cols) if f not in pivot_set]
    # the free columns of R, negated by one submul: 0 - 1 R[i][f]
    minus = R.form.submul([0] * (len(free) * r), 1, [row[f] for f in free for row in R.entries[:r]])
    rows = []
    for i, f in enumerate(free):
        v = [0] * R.cols
        v[f] = 1
        for pc, e in zip(pivots, minus[i * r:(i + 1) * r]):
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


def _entry_form(ctx: FieldCtx) -> _Form:
    """The form ctx's entries are held in: residues over GF(p), packed pairs
    over GF(p^2), else packed coefficients.  One per ctx, built on first use
    and kept on it (FieldCtx._form)."""
    if ctx._form is None:
        ctx._form = (_Residues if ctx.m == 1 else _Pairs if ctx.m == 2 else _Packed)(ctx)
    return ctx._form


def _inverses(xs, p: int) -> list[int]:
    """x^-1 mod p for each residue x in xs, 0 for x = 0, by one pow:
    Montgomery's batch inversion, 1/x_k = (x_0 ... x_(k-1)) / (x_0 ... x_k)."""
    prefix, acc = [], 1
    for x in xs:
        prefix.append(acc)
        if x:
            acc = acc * x % p
    inv, out = pow(acc, -1, p), [0] * len(xs)
    for k in range(len(xs) - 1, -1, -1):
        if xs[k]:
            out[k] = inv * prefix[k] % p
            inv = inv * xs[k] % p
    return out


class _Form:
    """An entry form's generic operations, elements, is_zero, point, reduce
    and the lead scan, written once on what each form supplies: entries,
    coeffs, canon (a value built by + - * back to an entry), submul, points.
    Every form holds an element of GF(p) as its residue: 0 and 1 are the
    entries 0 and 1.
    """

    def __init__(self, ctx: FieldCtx):
        self.ctx, self.p = ctx, ctx.p

    def elements(self, entries) -> list[FieldElement]:
        ctx = self.ctx
        return [FieldElement(ctx, tuple(c)) for c in self.coeffs(entries)]

    def is_zero(self, a) -> bool:
        """Whether a, a value built from entries by + - *, is 0."""
        return not self.canon([a])[0]

    def point(self, v):
        """v's projective point: its lead (first nonzero index) and v/v[lead]
        past it; None for v = 0."""
        return self.points([v])[0]

    def reduce(self, c, vs, keys=False):
        """Each v less v[lead] c, off c's lead, for c given as its point; with
        keys, their points."""
        (lead, *tail), submul = c, self.submul
        out = [v[:lead] + submul(v[lead + 1:], v[lead], tail) for v in vs]
        return self.points(out) if keys else out

    @staticmethod
    def _leads(vs) -> list[int]:
        """Each v's first nonzero index, len(v) for v = 0."""
        leads = []
        for v in vs:
            lead = 0
            while lead < len(v) and not v[lead]:
                lead += 1
            leads.append(lead)
        return leads


class _Residues(_Form):
    """GF(p) entries as residues mod p, canonical in [0, p)."""

    def entries(self, elements) -> list[int]:
        return [e.coeffs[0] for e in elements]

    def coeffs(self, entries) -> list[list[int]]:  # as FieldElement.to_list gives them
        return [[a] for a in entries]

    def canon(self, values) -> list[int]:  # integers built from entries by + - *
        p = self.p
        return [a % p for a in values]

    def submul(self, xs, f, ys) -> list[int]:
        """xs - f ys, entrywise."""
        p = self.p
        return [(a - f * b) % p for a, b in zip(xs, ys)]

    def point(self, v):  # one pow, no batch
        p = self.p
        for lead, a in enumerate(v):
            if a:
                inv = pow(a, -1, p)
                return lead, *[b * inv % p for b in v[lead + 1:]]
        return None

    def points(self, vs):
        """The point of each v, by one batched inversion of their leads."""
        p, leads = self.p, self._leads(vs)
        invs = _inverses([v[lead] if lead < len(v) else 0 for v, lead in zip(vs, leads)], p)
        return [(lead, *[b * inv % p for b in v[lead + 1:]]) if inv else None
                for v, lead, inv in zip(vs, leads, invs)]

    def reduce(self, c, vs, keys=False):
        """As _Form.reduce, but the keys of vectors of length 3, two
        coordinates (x, y) left, are y/x by one batched inversion, never
        forming them: p for x = 0, None for x = y = 0."""
        p, lead = self.p, c[0]
        if not keys or lead + len(c) != 3:
            return super().reduce(c, vs, keys)
        (s, a), (t, b) = [(i, u) for i, u in enumerate([0] * lead + [1, *c[1:]]) if i != lead]
        xs = [(v[s] - v[lead] * a) % p for v in vs]
        return [(v[t] - v[lead] * b) * inv % p if x else (p if (v[t] - v[lead] * b) % p else None)
                for v, x, inv in zip(vs, xs, _inverses(xs, p))]


class _Packed(_Form):
    """GF(p^m) entries, m >= 2, sum c_i t^i as the integers sum c_i X^i,
    X = 2^w (Kronecker substitution), canonical with 0 <= c_i < p.

    + - * act on them as on polynomials in X, exact and unreduced until
    canon reads back slots 0..3m-3, each biased by a multiple of p near
    2^(w-1), reduces each mod p and folds them by the modulus (gf._pmod).
    w holds the deepest expression the library forms, six cubic products
    summed (_on_a_conic, slots under 6 m^2 p^3), and sums of under 2^32
    products (slots under m p^2), with a sign bit to spare.
    """

    def __init__(self, ctx: FieldCtx):
        super().__init__(ctx)
        m, b = ctx.m, ctx.p.bit_length()
        self.w = w = max(3 * b + (6 * m * m - 1).bit_length(), 2 * b + (m - 1).bit_length() + 32) + 2
        self.slots = range(0, (3 * m - 2) * w, w)
        self.mask, self.shifts = (1 << w) - 1, self.slots[:m]
        self.bias = (1 << w - 1) // ctx.p * ctx.p * sum(1 << s for s in self.slots)

    def entries(self, elements) -> list[int]:
        shifts = self.shifts
        return [sum(c << s for c, s in zip(e.coeffs, shifts)) for e in elements]

    def coeffs(self, entries) -> list[list[int]]:
        mask, shifts = self.mask, self.shifts
        return [[e >> s & mask for s in shifts] for e in entries]

    def canon(self, values) -> list[int]:
        p, f, mask, slots, shifts = self.p, self.ctx.modulus, self.mask, self.slots, self.shifts
        return [sum(c << s for c, s in zip(_pmod([(e >> s & mask) % p for s in slots], f, p), shifts))
                for e in map(self.bias.__add__, values)]  # each slot biased into [0, 2^w)

    def submul(self, xs, f, ys) -> list[int]:
        return self.canon([a - f * b for a, b in zip(xs, ys)])

    def points(self, vs):
        """The point of each v, its lead inverted as a FieldElement."""
        out = []
        for v, lead in zip(vs, self._leads(vs)):
            inv = self.entries([x.inverse() for x in self.elements(v[lead:lead + 1])])
            out.append((lead, *self.canon([b * inv[0] for b in v[lead + 1:]])) if inv else None)
        return out


class _Pairs(_Packed):
    """GF(p^2) entries a + b t, for the modulus t^2 + c1 t + c0, on _Packed's
    layout, in closed form: canon folds t^2 = -c1 t - c0 and
    t^3 = (c1^2 - c0) t + c0 c1 into the slots, and submul and points work
    on the pairs, inverting by the norm map
    (a + b t)((a - b c1) - b t) = a^2 - a b c1 + b^2 c0.
    """

    def coeffs(self, entries) -> list[list[int]]:
        m, w = self.mask, self.w
        return [[e & m, e >> w] if e else [0, 0] for e in entries]

    def canon(self, values) -> list[int]:
        (c0, c1, _), p, w, m, bias = self.ctx.modulus, self.p, self.w, self.mask, self.bias
        c01, c11, w2 = c0 * c1, c1 * c1 - c0, 2 * w
        out = []
        for e in values:
            e += bias
            s2, s3 = e >> w2 & m, e >> w2 + w
            out.append(((e & m) - c0 * s2 + c01 * s3) % p
                       | ((e >> w & m) - c1 * s2 + c11 * s3) % p << w)
        return out

    def submul(self, xs, f, ys) -> list[int]:
        # f b = (f0 b0 - g0 b1) + (f1 b0 + g1 b1) t, g0 = f1 c0, g1 = f0 - f1 c1
        (c0, c1, _), p, w, m = self.ctx.modulus, self.p, self.w, self.mask
        f0, f1 = f & m, f >> w
        g0, g1 = f1 * c0, f0 - f1 * c1
        return [((a & m) - f0 * (b & m) + g0 * (b >> w)) % p
                | ((a >> w) - f1 * (b & m) - g1 * (b >> w)) % p << w for a, b in zip(xs, ys)]

    def points(self, vs):
        """The point of each v, by one batched inversion of their leads' norms."""
        (c0, c1, _), p, w, m = self.ctx.modulus, self.p, self.w, self.mask
        leads, norms = self._leads(vs), []
        for v, lead in zip(vs, leads):
            a0, a1 = (v[lead] & m, v[lead] >> w) if lead < len(v) else (0, 0)
            norms.append((a0 * a0 - a0 * a1 * c1 + a1 * a1 * c0) % p)
        out = []
        for v, lead, n in zip(vs, leads, _inverses(norms, p)):
            if not n:
                out.append(None)
                continue
            a0, a1 = v[lead] & m, v[lead] >> w
            f0, f1 = (a0 - a1 * c1) * n % p, -a1 * n % p  # 1/a, as submul multiplies
            g0, g1 = f1 * c0, f0 - f1 * c1
            out.append((lead, *[(f0 * (b & m) - g0 * (b >> w)) % p
                                | (f1 * (b & m) + g1 * (b >> w)) % p << w for b in v[lead + 1:]]))
        return out
