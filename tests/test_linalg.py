import json
import random

import pytest

from dihedralcodes.codes import FAMILY_2N_MINUS_3_PLUS, CodeFamily, LinearCode, construct_code, load_code
from dihedralcodes.errors import MixedContextsError
from dihedralcodes.gf import FieldElement, _Form, _Packed, _Residues, make_field
from dihedralcodes.linalg import MatrixGF, dual, echelon, kernel_rref, null_rows
from rank_oracle import DuplicateIndexError, columns_rank, identity, kernel_basis, row_space_contains, vstack

GF13 = make_field(13, [0, 1])
GF25 = make_field(5, [2, 0, 1])


def random_matrix(ctx, rows, cols, rng):
    return MatrixGF(
        ctx, [[ctx.random_element(rng) for _ in range(cols)] for _ in range(rows)]
    )


def test_rref_proportional_rows():
    m = MatrixGF.from_rows(GF13, [[1, 1, 1], [2, 2, 2]])
    _, rank, pivots = m.rref()
    assert rank == 1
    assert pivots == [0]


def test_rref_identity():
    m = identity(GF13, 4)
    reduced, rank, pivots = m.rref()
    assert rank == 4
    assert pivots == [0, 1, 2, 3]
    assert reduced == m


def deficient_matrix(ctx, rng):
    """A 5x7 matrix of rank at most 2 with a zero row: rows a, b, a + c b,
    0 and c a, rows of a span of dimension 2."""
    a, b = (random_matrix(ctx, 1, 7, rng).row(0) for _ in range(2))
    c = ctx.random_element(rng)
    return MatrixGF(ctx, [a, b, [x + c * y for x, y in zip(a, b)], [ctx.zero()] * 7, [c * x for x in a]])


def test_rref_of_rref_inverts_nothing(monkeypatch):
    rng = random.Random(1)
    matrices = [random_matrix(ctx, 4, 7, rng) for ctx in (GF13, GF25)]
    matrices += [deficient_matrix(ctx, rng) for ctx in (GF13, GF25)]
    reduced = [m.rref() for m in matrices]
    assert [rank for _, rank, _ in reduced] == [4, 4, 2, 2]

    def refuse(self, *args):
        raise AssertionError("inverse called on a matrix already in RREF")

    # GF(13) rows are residues and GF(25) rows packed pairs, each scaled by
    # its form's point, which inverts their lead.  An RREF that elimination
    # built returns itself; a fresh copy of its rows, which does not know
    # its pivots, is eliminated again, and needs no inverse either
    monkeypatch.setattr(FieldElement, "inverse", refuse)
    monkeypatch.setattr(_Residues, "point", refuse)
    monkeypatch.setattr(_Packed, "point", refuse)
    for m, rank, pivots in reduced:
        assert m.rref() == (m, rank, pivots)
        fresh = MatrixGF(m.ctx, m.data)
        again = fresh.rref()
        assert again[0] is not fresh
        assert again == (m, rank, pivots)


def test_rref_is_row_equivalent_and_idempotent():
    rng = random.Random(0)
    for i in range(12):
        m = random_matrix(GF13, 4, 6, rng) if i < 10 else deficient_matrix(GF13, rng)
        reduced, rank, pivots = m.rref()
        again, rank2, _ = reduced.rref()
        assert again == reduced
        assert rank == rank2
        # a fresh copy of the rows is reduced by elimination, to the same RREF
        assert MatrixGF(GF13, reduced.data).rref() == (reduced, rank, pivots)
        # same row space: stacking does not increase the rank
        assert vstack(m, reduced).rank() == rank


def test_only_elimination_marks_a_matrix():
    # rref and echelon build matrices that carry their systematic form, and
    # their rref() returns them as they are; a matrix from any constructor is
    # reduced when asked, whether its rows are in RREF or not
    rows = [[2, 4, 1], [1, 2, 0], [0, 0, 0]]
    R, rank, pivots = MatrixGF.from_rows(GF13, rows).rref()
    assert (rank, pivots) == (2, [0, 2])
    for entries in (rows, [[e.coeffs[0] for e in r] for r in R.data]):
        elements = [[GF13.element(e) for e in r] for r in entries]
        doc = {"field": GF13.spec(), "rows": 3, "cols": 3, "entries": entries}
        for m in (
            MatrixGF(GF13, elements),
            MatrixGF.from_rows(GF13, entries),
            MatrixGF.from_json(doc),
            MatrixGF._trusted(GF13, [list(r) for r in entries], 3),
        ):
            again = m.rref()
            assert again[0] is not m
            assert again == (R, rank, pivots)
    zeros = MatrixGF.zeros(GF13, 2, 3)
    assert zeros.rref()[0] is not zeros
    assert zeros.rref() == (zeros, 0, [])
    # what elimination built: the RREF, its nonzero rows, a kernel basis
    free, A = kernel_rref(GF13, R.entries[:rank], 3)
    basis = echelon(GF13, free, A, 3)
    for m, pivots in ((R, pivots), (R.nonzero_rows(), pivots), (basis, free)):
        again = m.rref()
        assert again[0] is m
        assert again == (m, len(pivots), pivots)
    # an echelon-built matrix's systematic() reads its carried (pivots, A),
    # no row, and hands out copies
    carried = echelon(GF13, free, A, 3)
    carried.entries = None  # any read of a row fails
    assert carried.systematic() == (free, [list(a) for a in A])
    assert carried.systematic()[1][0] is not carried.systematic()[1][0]


def test_kernel_of_all_ones_row():
    m = MatrixGF.from_rows(GF13, [[1, 1, 1]])
    ker = kernel_basis(m)
    assert ker.rows == 2
    for i in range(ker.rows):
        row = ker.row(i)
        assert sum(row[1:], row[0]) == GF13.zero()


def test_kernel_of_identity_is_empty():
    ker = kernel_basis(identity(GF13, 5))
    assert ker.rows == 0
    assert ker.cols == 5


def test_kernel_identity_block_on_free_columns():
    m = MatrixGF.from_rows(GF13, [[1, 2, 3, 4], [0, 0, 1, 5]])
    ker = kernel_basis(m)
    reduced, rank, pivots = m.rref()
    free = [c for c in range(4) if c not in pivots]
    assert ker.rows == len(free)
    for i, f in enumerate(free):
        for j, g in enumerate(free):
            expected = GF13.one() if i == j else GF13.zero()
            assert ker[i, g] == expected


def test_rank_nullity_and_annihilation_random():
    rng = random.Random(1)
    for ctx in (GF13, GF25):
        for _ in range(10):
            rows = rng.randrange(1, 6)
            cols = rng.randrange(1, 7)
            m = random_matrix(ctx, rows, cols, rng)
            ker = kernel_basis(m)
            assert m.rank() + ker.rows == cols
            # every kernel row is orthogonal to every row of m: M K^T = 0
            assert all(
                sum((a * b for a, b in zip(mr, kr)), ctx.zero()) == ctx.zero()
                for mr in m.data
                for kr in ker.data
            )


def test_columns_rank_examples():
    ident = identity(GF13, 3)
    assert columns_rank(ident, [0, 1]) == 2
    prop = MatrixGF.from_rows(GF13, [[1, 2], [2, 4]])
    assert columns_rank(prop, [0, 1]) == 1


def test_columns_rank_errors():
    m = identity(GF13, 3)
    with pytest.raises(IndexError):
        columns_rank(m, [0, 3])
    with pytest.raises(DuplicateIndexError):
        columns_rank(m, [1, 1])


def test_columns_rank_matches_materialized_submatrix():
    rng = random.Random(2)
    for _ in range(20):
        m = random_matrix(GF25, 4, 7, rng)
        size = rng.randrange(1, 7)
        cols = rng.sample(range(7), size)
        submatrix = MatrixGF(GF25, [[row[c] for c in cols] for row in m.data])
        assert columns_rank(m, cols) == submatrix.rank()


def test_row_space_contains():
    m = MatrixGF.from_rows(GF13, [[1, 0, 2], [0, 1, 3]]).rref()[0]
    assert row_space_contains(m, [1, 1, 5])
    assert not row_space_contains(m, [0, 0, 1])


def test_row_space_contains_needs_no_echelon_form():
    # leading-entry elimination against [1,1] then [1,0] leaves [0,1] nonzero
    m = MatrixGF.from_rows(GF13, [[1, 1], [1, 0]])
    assert row_space_contains(m, [0, 1])
    assert not row_space_contains(MatrixGF.from_rows(GF13, [[1, 1], [2, 2]]), [0, 1])
    with pytest.raises(ValueError):
        row_space_contains(m, [0, 1, 0])


def test_null_rows_of_rref_is_the_parity_check():
    # R = [I | A] on its pivots gives [-A^T | I]; no reduction of its own
    R = MatrixGF.from_rows(GF13, [[1, 0, 2, 5], [0, 1, 3, 7]])
    assert R.systematic() == ([0, 1], [[2, 5], [3, 7]])
    assert dual(GF13, *R.systematic(), 4) == ([2, 3], [(11, 10), (8, 6)])
    assert null_rows(GF13, *R.systematic(), 4) == MatrixGF.from_rows(
        GF13, [[-2, -3, 1, 0], [-5, -7, 0, 1]]
    ).entries
    # pivots need not lead: free columns 0 and 2 carry the identity
    R = MatrixGF.from_rows(GF13, [[0, 1, 4, 0], [0, 0, 0, 1]])
    assert R.systematic() == ([1, 3], [[0, 4], [0, 0]])
    assert null_rows(GF13, *R.systematic(), 4) == MatrixGF.from_rows(
        GF13, [[1, 0, 0, 0], [0, -4, 1, 0]]
    ).entries


def test_mixed_context_entries_rejected():
    with pytest.raises(MixedContextsError):
        MatrixGF(GF13, [[GF25.one()]])


def test_json_roundtrip():
    m = MatrixGF.from_rows(GF25, [[[4, 3], [0, 1]], [[2, 0], [1, 1]]])
    doc = m.to_json()
    assert doc["rows"] == 2 and doc["cols"] == 2
    assert doc["field"] == "p=5;mod=[2,0,1]"
    assert MatrixGF.from_json(doc) == m


def test_text_grid():
    m = MatrixGF.from_rows(GF13, [[1, 10], [0, 2]])
    assert m.text().splitlines() == ["1 10", "0  2"]


def test_text_builds_no_field_element(monkeypatch):
    # each cell is poly_text of its entry's coefficients, as FieldElement.text
    # prints it, right-aligned to its column
    m13 = MatrixGF.from_rows(GF13, [[0, 1, 12], [10, 0, 0]])
    m25 = MatrixGF.from_rows(GF25, [[0, 1, [3, 1]], [[0, 1], [4, 0], 0]])
    empty, no_cols = MatrixGF.zeros(GF13, 0, 3), MatrixGF.zeros(GF13, 2, 0)

    def refuse(self, ctx, coeffs):
        raise AssertionError("text() built a FieldElement")

    monkeypatch.setattr(FieldElement, "__init__", refuse)
    assert m13.text() == " 0 1 12\n10 0  0"
    assert m25.text() == "0 1 x+3\nx 4   0"
    assert (empty.text(), no_cols.text()) == ("", "\n")


GF8 = make_field(2, [1, 1, 0, 1])


@pytest.mark.parametrize("ctx", [GF13, GF25, GF8])
def test_views_are_field_elements_of_the_matrix_field(ctx):
    # entries are held in the field's entry form; data, m[i, j] and row(i)
    # build FieldElements of m.ctx, equal to the ones the matrix was given
    rng = random.Random(ctx.q)
    rows = [[ctx.random_element(rng) for _ in range(5)] for _ in range(3)]
    for m in (MatrixGF(ctx, rows), MatrixGF(ctx, rows).rref()[0]):
        views = [e for r in m.data for e in r]
        views += [m[i, j] for i in range(m.rows) for j in range(m.cols)]
        views += [e for i in range(m.rows) for e in m.row(i)]
        assert all(isinstance(e, FieldElement) and e.ctx is ctx for e in views)
    m = MatrixGF(ctx, rows)
    assert m.data == rows
    assert [m.row(i) for i in range(3)] == rows
    assert all(m[i, j] == rows[i][j] for i in range(3) for j in range(5))


def test_constructors_refuse_foreign_and_ragged_rows():
    with pytest.raises(MixedContextsError):
        MatrixGF(GF13, [[GF25.one()]])
    with pytest.raises(MixedContextsError):
        MatrixGF(GF13, [[1, 2]])  # plain ints are coerced by from_rows only
    with pytest.raises(ValueError):
        MatrixGF(GF13, [[GF13.one()], [GF13.one(), GF13.zero()]])
    with pytest.raises(ValueError):
        MatrixGF.from_rows(GF25, [[1, 2], [3]])


@pytest.mark.parametrize("ctx", [GF13, GF25, GF8])
def test_to_json_entries_are_the_elements_coefficients(ctx):
    rng = random.Random(ctx.q + 1)
    rows = [[ctx.random_element(rng) for _ in range(4)] for _ in range(3)]
    for m in (MatrixGF(ctx, rows), MatrixGF(ctx, rows).rref()[0]):
        assert m.to_json() == {
            "rows": m.rows,
            "cols": m.cols,
            "field": ctx.spec(),
            "entries": [[list(e.coeffs) for e in r] for r in m.data],
        }
    assert MatrixGF(ctx, rows).to_json()["entries"] == [[list(e.coeffs) for e in r] for r in rows]


@pytest.mark.parametrize("ctx", [GF13, GF25, GF8])
def test_from_json_enters_its_rows_in_the_entry_form(ctx, monkeypatch):
    # from_json has checked the shape and passed every entry through
    # ctx.element, so its rows enter through _trusted, never __init__
    rng = random.Random(ctx.q + 2)
    m = random_matrix(ctx, 3, 4, rng)
    doc = m.to_json()

    def refuse(self, *args, **kwargs):
        raise AssertionError("from_json checked its entries twice")

    monkeypatch.setattr(MatrixGF, "__init__", refuse)
    loaded = MatrixGF.from_json(doc)
    assert loaded == m and loaded.entries == m.entries and type(loaded.ctx.form) is type(m.ctx.form)
    empty = MatrixGF.from_json({**doc, "rows": 0, "entries": []})
    assert (empty.rows, empty.cols, empty.entries) == (0, 4, [])


@pytest.mark.parametrize("ctx", [GF13, GF25, GF8])
def test_one_entry_form_per_field(ctx, monkeypatch):
    # make_field builds one form, kept on ctx itself and not shared between
    # equal fields: each matrix's elements name its own ctx.  A code's round
    # trip builds no other: only the field its document names gets one.
    built, init = [], _Form.__init__

    def spy(self, field):
        built.append(self)
        init(self, field)

    monkeypatch.setattr(_Form, "__init__", spy)
    twin = make_field(ctx.p, list(ctx.modulus))
    assert built == [twin.form] and twin.form.ctx is twin and twin.form is not ctx.form
    assert type(twin.form) is type(ctx.form)
    built.clear()
    if ctx.p == 2:  # no D_2n code over GF(2^m): a generator of its own
        code = LinearCode(random_matrix(ctx, 3, 7, random.Random(ctx.q + 5)))
    else:
        code = construct_code(ctx, 3, CodeFamily(tag=FAMILY_2N_MINUS_3_PLUS))
    d = code.min_distance("dual")
    doc = json.loads(json.dumps(code.to_json()))
    assert built == []
    loaded = load_code(doc)
    assert loaded.min_distance("exhaustive") == loaded.min_distance("dual") == d
    assert loaded.generator == code.generator and loaded.generator.ctx is loaded.ctx
    assert built == [loaded.ctx.form] and loaded.ctx.form.ctx is loaded.ctx


def test_matrix_equality_with_other_types():
    m = identity(GF13, 2)
    assert m.__eq__([[1, 0], [0, 1]]) is NotImplemented
    assert m != [[1, 0], [0, 1]] and m == identity(GF13, 2)
