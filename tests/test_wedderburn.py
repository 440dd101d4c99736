import copy
import pickle
import random
import re

import pytest

from dihedralcodes.codes import CodeFamily, Provenance, construct_code
from dihedralcodes.dihedral import DihedralAlgebra, left_ideal_basis, phi_inv
from dihedralcodes.errors import (
    CharDividesOrderError,
    EvenNError,
    InvalidRowSpecError,
    MixedContextsError,
    RootUnavailableError,
)
from dihedralcodes.gf import FieldElement, make_field, primitive_nth_root
from dihedralcodes.idempotents import (
    IdempotentFamily,
    central_primitive_idempotents,
    cyclic_family,
    cyclic_idempotent,
)
from dihedralcodes.linalg import MatrixGF, echelon, kernel_rref
from dihedralcodes.wedderburn import (
    FULL,
    ROW,
    ZERO,
    IdealSpec,
    Summand,
    WedderburnTuple,
    _constraint_rows,
    _span_rows,
    code_from_ideal_spec,
    full,
    minus_piece,
    plus_piece,
    random_ideal_spec,
    row,
    wedderburn_inverse,
    wedderburn_map,
    zero,
)
from rank_oracle import row_space_contains

GF13 = make_field(13, [0, 1])
GF25 = make_field(5, [2, 0, 1])
GF31 = make_field(31, [0, 1])
D6 = DihedralAlgebra(GF13, 3)


def test_map_of_identity_is_unit_tuple():
    assert wedderburn_map(D6.one()) == WedderburnTuple.one(GF13, 3)


def test_map_of_generators():
    t = wedderburn_map(D6.a())
    assert t.gamma == (GF13.one(), GF13.one())
    assert t.blocks[0] == (
        (GF13.element(3), GF13.zero()),
        (GF13.zero(), GF13.element(9)),
    )
    t = wedderburn_map(D6.b())
    assert t.gamma == (GF13.one(), GF13.element(-1))
    assert t.blocks[0] == (
        (GF13.zero(), GF13.one()),
        (GF13.one(), GF13.zero()),
    )


def test_even_n_rejected():
    alg = DihedralAlgebra(GF13, 4)
    with pytest.raises(EvenNError):
        wedderburn_map(alg.one())


def test_root_unavailable():
    alg = DihedralAlgebra(GF13, 5)  # 5 does not divide 12
    with pytest.raises(RootUnavailableError):
        wedderburn_map(alg.one())


def test_homomorphism_random():
    rng = random.Random(0)
    for ctx, n in ((GF13, 3), (GF25, 3), (GF31, 5)):
        alg = DihedralAlgebra(ctx, n)
        for _ in range(60):
            u = alg.random_element(rng)
            v = alg.random_element(rng)
            assert wedderburn_map(u * v) == wedderburn_map(u) * wedderburn_map(v)
            assert wedderburn_map(u + v) == wedderburn_map(u) + wedderburn_map(v)


def test_transform_is_bijective():
    # P after the closed-form inverse fixes every unit tuple: T @ T^-1 = I
    for ctx, n in ((GF13, 3), (GF25, 3), (GF31, 5)):
        z, o = ctx.zero(), ctx.one()
        for i in range(2 * n):
            flat = [o if j == i else z for j in range(2 * n)]
            blocks = tuple(
                (tuple(flat[2 + 4 * b:4 + 4 * b]), tuple(flat[4 + 4 * b:6 + 4 * b]))
                for b in range((n - 1) // 2)
            )
            t = WedderburnTuple(gamma=(flat[0], flat[1]), blocks=blocks)
            assert wedderburn_map(wedderburn_inverse(t)) == t


def test_roundtrip_on_monomials_and_randoms():
    rng = random.Random(1)
    for ctx, n in ((GF13, 3), (GF31, 5)):
        alg = DihedralAlgebra(ctx, n)
        for g in alg.monomials():
            assert wedderburn_inverse(wedderburn_map(g)) == g
        for _ in range(20):
            u = alg.random_element(rng)
            assert wedderburn_inverse(wedderburn_map(u)) == u


def formula_map(u):
    """P(u) straight from the formula in wedderburn.py's module docstring,
    on plain FieldElement sums: an oracle independent of the DFT layout."""
    ctx, n = u.ctx, u.n
    xi = primitive_nth_root(ctx, n)

    def total(coeffs, sign, j):
        return sum((c * xi ** (sign * i * j % n) for i, c in enumerate(coeffs)), ctx.zero())

    alpha, beta = u.alpha, u.beta
    gamma = (total(alpha, 1, 0) + total(beta, 1, 0), total(alpha, 1, 0) - total(beta, 1, 0))
    blocks = tuple(
        ((total(alpha, 1, j), total(beta, -1, j)), (total(beta, 1, j), total(alpha, -1, j)))
        for j in range(1, (n - 1) // 2 + 1)
    )
    return WedderburnTuple(gamma=gamma, blocks=blocks)


@pytest.mark.parametrize(
    "ctx, n",
    [(make_field(43, [0, 1]), 7), (make_field(13, [2, 0, 1]), 7),
     (make_field(3, [1, 2, 0, 1]), 13)],
    ids=["GF43-n7", "GF169-n7", "GF27-n13"],
)
def test_map_matches_the_docstring_formula_and_inverts(ctx, n):
    rng = random.Random(ctx.q + n)
    alg = DihedralAlgebra(ctx, n)
    for u in alg.monomials() + [alg.random_element(rng) for _ in range(10)]:
        t = wedderburn_map(u)
        assert t == formula_map(u)
        assert wedderburn_inverse(t) == u


@pytest.mark.parametrize("p, modulus", [(13, [0, 1]), (13, [2, 0, 1])], ids=["GF13", "GF169"])
def test_map_and_inverse_name_their_own_field(p, modulus):
    # the xi powers are cached by field equality; the elements P and P^-1
    # build name the field they were given, not an equal one mapped first
    F1, F2 = make_field(p, modulus), make_field(p, modulus)
    assert F1 == F2 and F1 is not F2
    wedderburn_map(DihedralAlgebra(F1, 3).a())
    t = wedderburn_map(DihedralAlgebra(F2, 3).a())
    u = wedderburn_inverse(t)
    entries = [*t.gamma, *(e for block in t.blocks for r in block for e in r), *u.alpha, *u.beta]
    assert len(entries) == 12 and all(e.ctx is F2 for e in entries)


def test_inverse_refuses_a_characteristic_dividing_2n_before_inverting_2():
    # over GF(8), 7 | q-1 gives xi, but 2 has no inverse: P^-1 names the
    # algebra that cannot exist, as DihedralAlgebra(GF(8), 7) does
    gf8 = make_field(2, [1, 1, 0, 1])
    message = "^char 2 divides group order 2n=14$"
    with pytest.raises(CharDividesOrderError, match=message):
        DihedralAlgebra(gf8, 7)
    with pytest.raises(CharDividesOrderError, match=message):
        wedderburn_inverse(WedderburnTuple.one(gf8, 7))


def test_inverse_of_gamma_unit_is_e0():
    t = WedderburnTuple.zero(GF13, 3)
    t = WedderburnTuple(gamma=(GF13.one(), GF13.one()), blocks=t.blocks)
    assert wedderburn_inverse(t) == cyclic_idempotent(GF13, 3, 0)


def test_inverse_of_matrix_unit_is_e1():
    z, o = GF13.zero(), GF13.one()
    t = WedderburnTuple(gamma=(z, z), blocks=(((o, z), (z, z)),))
    assert wedderburn_inverse(t) == cyclic_idempotent(GF13, 3, 1)


def test_idempotent_images_are_matrix_units():
    for ctx, n in ((GF13, 3), (GF31, 5)):
        z, o = ctx.zero(), ctx.one()
        half = (n - 1) // 2
        for i in range(1, n):
            t = wedderburn_map(cyclic_idempotent(ctx, n, i))
            assert t.gamma == (z, z)
            if 1 <= i <= half:
                target, pos = i - 1, (0, 0)
            else:
                target, pos = n - i - 1, (1, 1)
            for j, block in enumerate(t.blocks):
                for r in range(2):
                    for c in range(2):
                        expected = o if (j == target and (r, c) == pos) else z
                        assert block[r][c] == expected
        t0 = wedderburn_map(cyclic_idempotent(ctx, n, 0))
        assert t0.gamma == (o, o)
        assert all(
            block[r][c] == z for block in t0.blocks for r in range(2) for c in range(2)
        )


def test_plus_minus_pieces_map_to_coordinates():
    alg = DihedralAlgebra(GF13, 3)
    e0 = cyclic_idempotent(GF13, 3, 0)
    inv2 = GF13.element(2).inverse()
    plus = ((alg.one() + alg.b()) * e0).scale(inv2)
    minus = ((alg.one() - alg.b()) * e0).scale(inv2)
    assert wedderburn_map(plus).gamma == (GF13.one(), GF13.zero())
    assert wedderburn_map(minus).gamma == (GF13.zero(), GF13.one())


# ---------------------------------------------------------------------------
# ideal specs


def test_row_canonicalization():
    r = row(GF13.element(3), GF13.element(6))
    assert (r.x, r.y) == (GF13.one(), GF13.element(2))
    r = row(GF13.zero(), GF13.element(6))
    assert (r.x, r.y) == (GF13.zero(), GF13.one())
    with pytest.raises(InvalidRowSpecError):
        row(GF13.zero(), GF13.zero())
    with pytest.raises(InvalidRowSpecError, match="^row spec needs at least one field element$"):
        row(1, 5)


def test_spec_validation():
    with pytest.raises(InvalidRowSpecError):
        IdealSpec((row(GF13.one(), GF13.one()),))  # row at position 0
    with pytest.raises(InvalidRowSpecError):
        IdealSpec((full(), plus_piece()))  # piece at a block position
    with pytest.raises(InvalidRowSpecError):
        code_from_ideal_spec(GF13, 3, IdealSpec((full(),)))  # wrong length
    with pytest.raises(EvenNError):
        code_from_ideal_spec(GF13, 4, IdealSpec((full(), full())))


def test_spec_refusals_keep_their_order_and_messages():
    # each case but the last two also fails a later check, so the order shows;
    # specs of dim <= n and dim > n take the two sides, and are refused alike
    GF3 = make_field(3, [0, 1])
    cases = (
        (GF13, 4, (full(),), EvenNError, "ideal specs are defined for odd n, got n=4"),
        (GF3, 3, (full(),), InvalidRowSpecError, "spec needs 2 summands for n=3, got 1"),
        (GF3, 3, (plus_piece(), zero()), CharDividesOrderError, "char 3 divides group order 2n=6"),
        (GF3, 3, (full(), full()), CharDividesOrderError, "char 3 divides group order 2n=6"),
        (GF13, 5, (plus_piece(), zero(), zero()), RootUnavailableError, "5 does not divide q-1=12"),
        (GF13, 5, (full(), full(), full()), RootUnavailableError, "5 does not divide q-1=12"),
    )
    for ctx, n, summands, error, message in cases:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            code_from_ideal_spec(ctx, n, IdealSpec(summands))
    # the zero ideal is answered before the algebra or its root is checked
    for ctx, n in ((GF3, 3), (GF13, 5)):
        spec = IdealSpec((zero(),) * (1 + (n - 1) // 2))
        assert code_from_ideal_spec(ctx, n, spec) == MatrixGF.zeros(ctx, 0, 2 * n)


def test_spec_with_a_row_from_another_field_is_refused():
    # over GF(p) the residue form would read the row's coefficients unchecked
    foreign = row(GF13.one(), GF13.element(5))
    for ctx in (make_field(43, [0, 1]), make_field(13, [2, 0, 1])):
        # dim 2 enters from the span rows, dim 12 from the constraint rows
        for first, other in ((zero(), zero()), (full(), full())):
            spec = IdealSpec((first, foreign, other, other))
            message = f"row summand over p=13;mod=[0,1] in a spec over {ctx.spec()}"
            with pytest.raises(MixedContextsError, match=f"^{re.escape(message)}$"):
                code_from_ideal_spec(ctx, 7, spec)
        own = row(ctx.one(), ctx.element(5))
        assert code_from_ideal_spec(ctx, 7, IdealSpec((zero(), own, zero(), zero()))).rows == 2


GF43 = make_field(43, [0, 1])


@pytest.mark.parametrize(
    "x, y, error, message",
    [
        (1, 5, InvalidRowSpecError, "row spec needs at least one field element"),
        (GF43.zero(), GF43.zero(), InvalidRowSpecError, "row spec (0,0) does not define an ideal"),
        (GF43.one(), GF13.one(), MixedContextsError, "element belongs to a different field"),
    ],
    ids=["ints", "zero-row", "two-fields"],
)
def test_spec_refuses_a_hand_built_row_summand(x, y, error, message):
    # Summand is public: the spec checks a row summand as row() does.  A (0,0)
    # row used to give a 2 x 14 zero generator on the span side for a spec of
    # dim 2, and the 14 x 14 identity on the constraint side for dim 12.
    for other in (zero(), full()):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            IdealSpec((other, Summand(ROW, x, y), other, other))


def test_hand_built_row_summand_gives_the_row_ideal_on_both_sides():
    # the spec canonicalizes a hand-built row summand as row() does; its
    # complement on the span side, Summand(ROW, -x, y), reaches the row builder
    # as it stands, and spans the same rows
    alg = DihedralAlgebra(GF43, 7)
    for x, y in ((GF43.element(3), GF43.element(6)), (GF43.one(), 5), (GF43.zero(), 7)):
        for other in (zero(), full()):  # dim 2 and dim 12: the span and constraint sides
            spec = IdealSpec((other, Summand(ROW, x, y), other, other))
            assert spec == IdealSpec((other, row(x, y), other, other))
            basis = code_from_ideal_spec(GF43, 7, spec)
            rows = [phi_inv(alg, basis.row(i)) for i in range(basis.rows)]
            assert basis.rows == spec.dim() and left_ideal_basis(rows) == basis


def test_spec_passes_a_canonical_row_summand_without_division(monkeypatch):
    # row() already divided: (1, y) and (0, 1) are kept as they are, while a
    # hand-built (3, 6) is still divided down to (1, 2)
    canonical = [row(GF43.element(3), GF43.element(6)), row(GF43.zero(), GF43.element(7))]
    assert [(s.x, s.y) for s in canonical] == [(1, 2), (0, 1)]
    hand_built = Summand(ROW, GF43.element(3), GF43.element(6))

    def refuse(*args):
        raise AssertionError("a canonical row summand was divided again")

    monkeypatch.setattr(FieldElement, "__truediv__", refuse)
    spec = IdealSpec((full(), *canonical, Summand(ROW, GF43.one(), GF43.element(2))))
    assert spec.summands[1:3] == tuple(canonical)
    with pytest.raises(AssertionError, match="divided again"):
        IdealSpec((full(), hand_built))
    monkeypatch.undo()
    assert IdealSpec((full(), hand_built)).summands[1] == canonical[0]


@pytest.mark.parametrize(
    "ctx, n", [(GF13, 3), (GF25, 3), (make_field(3, [1, 2, 0, 1]), 13)], ids=["GF13", "GF25", "GF27"]
)
def test_span_rows_take_no_division(ctx, n, monkeypatch):
    # _span_rows hands the complement (-x, y) to _constraint_rows as it is,
    # never canonicalized: no element is divided, for row(1, y), row(0, 1) and
    # y = 0, and the rows span what the constraint side cuts out
    y = ctx.element([2, 1] if ctx.m > 1 else 2)
    rest = (zero(),) * ((n - 1) // 2 - 1)
    specs = [IdealSpec((position0(), r) + rest)
             for r in (row(ctx.one(), y), row(ctx.zero(), ctx.one()), row(ctx.one(), ctx.zero()))
             for position0 in (zero, plus_piece, full)]

    def refuse(*args):
        raise AssertionError("an element was divided while building span rows")

    monkeypatch.setattr(FieldElement, "__truediv__", refuse)
    monkeypatch.setattr(FieldElement, "__rtruediv__", refuse)
    spans = [_span_rows(ctx, n, spec) for spec in specs]
    monkeypatch.undo()
    for spec, span in zip(specs, spans):
        R, rank, _ = MatrixGF._trusted(ctx, span, 2 * n).rref()
        assert len(span) == rank == spec.dim()
        assert R == echelon(ctx, *kernel_rref(ctx, _constraint_rows(ctx, n, spec.summands), 2 * n), 2 * n)


# n = 7 and 15 where n | q - 1; GF(7^3) has neither (q - 1 = 342), so 9 and 19
@pytest.mark.parametrize(
    "p, modulus, n",
    [(61, [0, 1], 15), (61, [0, 1], 5), (13, [2, 0, 1], 7), (13, [2, 0, 1], 21),
     (7, [1, 1, 0, 1], 9), (7, [1, 1, 0, 1], 19)],
    ids=["GF61-15", "GF61-5", "GF169-7", "GF169-21", "GF343-9", "GF343-19"],
)
def test_row_block_rows_are_y_a11_minus_x_a12_and_y_a21_minus_x_a22(p, modulus, n):
    # H of row(x, y) at block j, built from the powers of xi, against the same
    # combinations of block j's four forms taken on FieldElements, each form
    # read off P itself: its value at the 2n monomials by wedderburn_map, the
    # DFT route.  A zero block's rows span exactly those four forms.
    ctx, rng = make_field(p, modulus), random.Random(n)
    form, z, o = ctx.form, ctx.zero(), ctx.one()
    rows = [row(z, o), row(o, z), row(o, o), row(o, -o)] + [row(o, ctx.random_element(rng)) for _ in range(2)]
    images = [wedderburn_map(u).blocks for u in DihedralAlgebra(ctx, n).monomials()]
    for j in range(1, (n + 1) // 2):
        a11, a12, a21, a22 = ([t[j - 1][r][c] for t in images] for r, c in ((0, 0), (0, 1), (1, 0), (1, 1)))
        blocks = [full()] * ((n - 1) // 2)
        for r in rows:
            blocks[j - 1] = r
            got = _constraint_rows(ctx, n, (full(), *blocks))
            want = [[r.y * a - r.x * b for a, b in zip(a11, a12)],
                    [r.y * a - r.x * b for a, b in zip(a21, a22)]]
            assert [form.elements(g) for g in got] == want
            assert got == [form.entries(w) for w in want]
        blocks[j - 1] = zero()
        got = MatrixGF._trusted(ctx, _constraint_rows(ctx, n, (full(), *blocks)), 2 * n).rref()
        want = MatrixGF.from_rows(ctx, [a11, a12, a21, a22]).rref()
        assert got[1] == 4 and got[0] == want[0]


def test_spec_dims():
    assert IdealSpec((full(), full())).dim() == 6
    assert IdealSpec((plus_piece(), zero())).dim() == 1
    assert IdealSpec((minus_piece(), row(GF13.one(), GF13.one()))).dim() == 3


def test_full_spec_is_whole_algebra():
    spec = IdealSpec((full(), full()))
    assert code_from_ideal_spec(GF13, 3, spec).rows == 6


def test_spec_matches_principal_ideal_of_e0():
    spec = IdealSpec((full(), zero()))
    basis = code_from_ideal_spec(GF13, 3, spec)
    assert basis.rows == 2
    assert basis == left_ideal_basis([cyclic_idempotent(GF13, 3, 0)])


def test_spec_matches_twisted_generator_ideal():
    eta = GF13.element(2)
    spec = IdealSpec((zero(), row(GF13.one(), eta)))
    basis = code_from_ideal_spec(GF13, 3, spec)
    assert basis.rows == 2
    e1 = cyclic_idempotent(GF13, 3, 1)
    e2 = cyclic_idempotent(GF13, 3, 2)
    gen = e1 + (D6.b() * e2).scale(eta)
    assert basis == left_ideal_basis([gen])


def test_spec_dimension_matches_basis_rank_random():
    rng = random.Random(2)
    for ctx, n in ((GF13, 3), (GF31, 5)):
        for _ in range(25):
            spec = random_ideal_spec(ctx, n, rng)
            basis = code_from_ideal_spec(ctx, n, spec)
            assert basis.rows == spec.dim()


def test_resulting_basis_spans_a_left_ideal():
    rng = random.Random(3)
    for _ in range(10):
        spec = random_ideal_spec(GF13, 3, rng)
        basis = code_from_ideal_spec(GF13, 3, spec)
        for i in range(basis.rows):
            u = phi_inv(D6, basis.row(i))
            for g in D6.monomials():
                assert row_space_contains(basis, (g * u).phi())


def test_summand_kinds_exported():
    assert Summand(FULL).kind == "full"
    assert Summand(ZERO).kind == "zero"


def _records():
    """(record, an equal one built by keyword, a different one, field names,
    repr as a frozen dataclass printed it) for each of the six value records."""
    GF7 = make_field(7, [0, 1])
    prov = construct_code(GF25, 3, CodeFamily(tag="2n-3-plus")).provenance
    cyclic = cyclic_family(GF7, 3)
    spec = IdealSpec((plus_piece(), row(GF25.one(), GF25.element(3))))
    return [
        (CodeFamily("2n-2"), CodeFamily(tag="2n-2", s=1, beta=None), CodeFamily("2n-2", 2),
         ("tag", "s", "beta"), "CodeFamily(tag='2n-2', s=1, beta=None)"),
        (Provenance(GF25, 3, "2n-3-plus", 1, GF25.element([1, 1])), prov,
         Provenance(GF25, 3, "2n-3-minus", 1, prov.beta), ("ctx", "n", "tag", "s", "beta"),
         "Provenance(ctx=FieldCtx(GF(25), p=5;mod=[2,0,1]), n=3, tag='2n-3-plus', s=1, beta=x+1)"),
        (WedderburnTuple.one(GF7, 3),
         WedderburnTuple(gamma=(GF7.one(),) * 2, blocks=(((GF7.one(), GF7.zero()), (GF7.zero(), GF7.one())),)),
         WedderburnTuple.zero(GF7, 3), ("gamma", "blocks"),
         "WedderburnTuple(gamma=(1, 1), blocks=(((1, 0), (0, 1)),))"),
        (Summand(ROW, GF25.one(), GF25.element(3)), row(GF25.one(), GF25.element(3)), Summand(ROW),
         ("kind", "x", "y"), "Summand(kind='row', x=1, y=3)"),
        (spec, IdealSpec(summands=(Summand(kind="plus"), Summand(kind=ROW, x=GF25.one(), y=GF25.element(3)))),
         IdealSpec((plus_piece(), row(GF25.one(), GF25.element(4)))), ("summands",),
         "IdealSpec(summands=(Summand(kind='plus', x=None, y=None), Summand(kind='row', x=1, y=3)))"),
        (cyclic, IdempotentFamily(n=3, ctx=GF7, xi=cyclic.xi, members=cyclic_family(GF7, 3).members),
         central_primitive_idempotents(GF7, 3), ("n", "ctx", "xi", "members"),
         "IdempotentFamily(n=3, ctx=FieldCtx(GF(7), p=7;mod=[0,1]), xi=2, "
         "members=(5 + 5*a + 5*a^2, 5 + 6*a + 3*a^2, 5 + 3*a + 6*a^2))"),
    ]


@pytest.mark.parametrize("case", range(6))
def test_records_are_frozen_values(case):
    record, same, other, fields, text = _records()[case]
    values = tuple(getattr(record, f) for f in fields)
    assert type(record).__match_args__ == fields
    assert record == same and not record != same and record is not same
    assert record != other and not record == other
    assert record != values and record.__eq__(values) is NotImplemented
    assert hash(record) == hash(same)
    assert len({record, same, other}) == 2 and {record: case}[same] == case
    assert repr(record) == repr(same) == text
    assert copy.copy(record) == pickle.loads(pickle.dumps(record)) == record
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(record, f, None)
        with pytest.raises(AttributeError):
            delattr(record, f)
    with pytest.raises(AttributeError):
        record.extra = None
    assert tuple(getattr(record, f) for f in fields) == values


def test_records_take_defaults_and_refuse_wrong_fields():
    assert (CodeFamily("2n-2").s, CodeFamily("2n-2").beta) == (1, None)
    assert (Summand(FULL).x, Summand(FULL).y) == (None, None)
    assert CodeFamily("2n-2", beta=3) == CodeFamily(tag="2n-2", s=1, beta=3)
    for args, kwargs in [((), {}), (("2n-2", 1, None, 4), {}), (("2n-2",), {"tag": "2n-2"}),
                         ((), {"tag": "2n-2", "t": 1})]:
        with pytest.raises(TypeError):
            CodeFamily(*args, **kwargs)
    with pytest.raises(TypeError):
        Provenance(GF25, 3, "2n-2", 1)  # no default for beta


def test_row_takes_its_field_from_either_entry():
    # only y a FieldElement: x is read in y's field, and the pair is scaled to (1, y/x)
    assert row(2, GF13.element(6)) == Summand(ROW, GF13.one(), GF13.element(3))
    assert row(0, GF13.element(6)) == Summand(ROW, GF13.zero(), GF13.one())
    with pytest.raises(InvalidRowSpecError, match="^empty ideal spec$"):
        IdealSpec(())
