"""Property tests: field axioms, RREF, prime expansions, the dual engine's two walks, P,
the two sides an ideal is reduced from, the entry forms, the conic certificate and the
left-ideal certificate."""

import functools
import itertools
import math
import random
import re
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dihedralcodes.codes as codes_module
from dihedralcodes.codes import (
    DEFAULT_CAP,
    FAMILIES,
    CodeFamily,
    LinearCode,
    _hyperplane_distance,
    _min_dependent_columns,
    _on_a_conic,
    _rank,
    construct_code,
)
from dihedralcodes.dihedral import DihedralAlgebra
from dihedralcodes.errors import CapExceededError, DihedralCodesError
from dihedralcodes.gf import _Packed, _Pairs, make_field, primitive_nth_root
from dihedralcodes.linalg import MatrixGF, dual, echelon, echelon_rows, kernel_rref, null_rows
from dihedralcodes.wedderburn import (
    FULL,
    MINUS_PIECE,
    PLUS_PIECE,
    ROW,
    ZERO,
    IdealSpec,
    Summand,
    _constraint_rows,
    _span_rows,
    code_from_ideal_spec,
    row,
    wedderburn_inverse,
    wedderburn_map,
)
from rank_oracle import closed_by_products, columns_rank, frobenius, kernel_basis, twisted, vstack
from test_codes import expansion_rows, swap_columns

# prime fields and degree-2 extensions, small enough for exhaustive search
FIELDS = (
    make_field(5, [0, 1]),
    make_field(7, [0, 1]),
    make_field(3, [1, 0, 1]),
    make_field(5, [2, 0, 1]),
)

# FIELDS, a GF(p^2) field at a larger p, and the generic packed form at p = 2 and 3
EXPANSION_FIELDS = FIELDS + (
    make_field(13, [2, 0, 1]),
    make_field(2, [1, 1, 0, 1]),
    make_field(3, [1, 2, 0, 1]),
)

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)


@st.composite
def matrices(draw, max_rows, max_cols, fields=FIELDS):
    """A matrix over one of fields, rows drawn from a span of random dimension."""
    ctx = draw(st.sampled_from(fields))
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    rank = draw(st.integers(0, rows))
    element = st.integers(0, ctx.q - 1).map(ctx.from_index)
    basis = [draw(st.lists(element, min_size=cols, max_size=cols)) for _ in range(rank)]
    data = []
    for _ in range(rows):
        scalars = draw(st.lists(element, min_size=rank, max_size=rank))
        data.append([sum((c * b[j] for c, b in zip(scalars, basis)), ctx.zero()) for j in range(cols)])
    return MatrixGF(ctx, data, cols=cols)


@PROPERTY
@given(matrices(max_rows=5, max_cols=6))
def test_rref_invariants(m):
    reduced, rank, pivots = m.rref()
    assert reduced.rref() == (reduced, rank, pivots)
    # reduced carries its systematic form; a fresh copy of its rows is eliminated again
    assert MatrixGF(m.ctx, reduced.data, cols=m.cols).rref() == (reduced, rank, pivots)
    # same row space: neither matrix adds a dimension to the other
    assert vstack(m, reduced).rank() == reduced.nonzero_rows().rows == rank
    assert all(not any(reduced.row(i)) for i in range(rank, reduced.rows))
    assert pivots == sorted(set(pivots))
    for i, c in enumerate(pivots):
        column = [reduced[r, c] for r in range(reduced.rows)]
        assert column == [m.ctx.one() if r == i else m.ctx.zero() for r in range(reduced.rows)]
    kernel = kernel_basis(m)
    assert rank + kernel.rows == m.cols
    # every kernel row is orthogonal to every row of m: M K^T = 0
    zero = m.ctx.zero()
    assert not any(sum((a * b for a, b in zip(r, v)), zero) for r in m.data for v in kernel.data)


# one field per shape of entry: small and 31-bit residues, GF(p^2) in closed
# form, GF(2^3) by extended Euclid on coefficient lists
STORE_FIELDS = (
    make_field(13, [0, 1]),
    make_field(2**31 - 1, [0, 1]),
    make_field(3, [1, 0, 1]),
    make_field(2, [1, 1, 0, 1]),
)

# the GF(p^2) fields, in closed form, and checked against the generic packed form
PACKED_FIELDS = (
    make_field(2, [1, 1, 1]),  # p = 2, and c1 != 0
    make_field(3, [1, 0, 1]),
    make_field(5, [2, 0, 1]),
    make_field(7, [3, 1, 1]),  # a linear term
    make_field(13, [2, 0, 1]),
    make_field(2003, [1, 0, 1]),
    make_field(2**31 - 1, [1, 0, 1]),
)

# residues at a small and a 31-bit p, the GF(p^2) fields, and the generic
# packed form at m = 3, 7 and 8; at a 31-bit p and m = 3 the conic's cubic and
# the long sums fill the widest slots
FORM_FIELDS = (
    (make_field(13, [0, 1]), make_field(2**31 - 1, [0, 1]))
    + PACKED_FIELDS
    + (make_field(2, [1, 1, 0, 1]), make_field(3, [1, 2, 0, 1]), make_field(7, [1, 1, 0, 1]))
    + (make_field(3, [1, 0, 2, 0, 0, 0, 0, 1]), make_field(2, [1, 0, 0, 0, 1, 1, 1, 0, 1]))
    + (make_field(2**31 - 1, [5, 0, 0, 1]),)
)


@st.composite
def element_rows(draw):
    """A field of STORE_FIELDS and random rows of its FieldElements, some
    dependent: each row is a random combination of a few drawn ones."""
    ctx = draw(st.sampled_from(STORE_FIELDS))
    cols = draw(st.integers(1, 7))
    element = st.integers(0, ctx.q - 1).map(ctx.from_index)
    # entries of the combinations are mostly small indices, so zeros and
    # repeated columns are common even over GF(2^31 - 1)
    small = st.one_of(st.integers(0, 3), st.integers(0, ctx.q - 1)).map(ctx.from_index)
    basis = draw(st.lists(st.lists(element, min_size=cols, max_size=cols), min_size=1, max_size=4))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        scalars = draw(st.lists(small, min_size=len(basis), max_size=len(basis)))
        rows.append([sum((c * b[j] for c, b in zip(scalars, basis)), ctx.zero()) for j in range(cols)])
    return ctx, rows


@PROPERTY
@given(element_rows())
def test_rref_staircase_rank_and_null_rows_on_the_entry_store(ctx_rows):
    # checked through the FieldElement view and FieldElement arithmetic, so
    # that nothing here rests on how the matrix stores its entries
    ctx, rows = ctx_rows
    m = MatrixGF(ctx, rows)
    R, rank, pivots = m.rref()
    zero, one = ctx.zero(), ctx.one()
    assert rank == len(pivots) == columns_rank(m, range(m.cols))
    assert pivots == sorted(set(pivots))
    for i in range(R.rows):
        row = R.row(i)
        lead = next((j for j, e in enumerate(row) if e), None)
        assert lead == (pivots[i] if i < rank else None)  # zero rows last
        if i < rank:
            column = [R[r, lead] for r in range(R.rows)]
            assert column == [one if r == i else zero for r in range(R.rows)]
    # the systematic form is R's pivots and its rows' free entries
    assert m.systematic()[0] == pivots
    assert echelon(ctx, *m.systematic(), m.cols) == R.nonzero_rows()
    kernel = null_rows(ctx, *m.systematic(), m.cols)
    assert len(kernel) == m.cols - rank
    for v in MatrixGF._trusted(ctx, kernel, m.cols).data:
        assert all(sum((a * b for a, b in zip(r, v)), zero) == zero for r in rows)


@PROPERTY
@given(matrices(max_rows=5, max_cols=6, fields=FORM_FIELDS))
@example(MatrixGF.zeros(FORM_FIELDS[1], 2, 4))  # rank 0: A has no rows
@example(MatrixGF.from_rows(FORM_FIELDS[-1], [[1, 0, 0], [0, 0, 1], [0, 1, 0]]))  # full rank
def test_dual_of_the_systematic_form(m):
    # on every entry form: dual is an involution, its rows annihilate the
    # code's, and the two ranks sum to the length
    ctx, cols = m.ctx, m.cols
    pivots, A = m.systematic()
    free, minus = dual(ctx, pivots, A, cols)
    assert len(pivots) + len(free) == cols == len(pivots) + len(minus)
    again = dual(ctx, free, minus, cols)
    assert (list(again[0]), [list(a) for a in again[1]]) == (pivots, A)
    G = MatrixGF._trusted(ctx, list(echelon_rows(pivots, A, cols)), cols).data
    H = MatrixGF._trusted(ctx, list(echelon_rows(free, minus, cols)), cols).data
    zero = ctx.zero()
    assert all(sum((a * b for a, b in zip(g, h)), zero) == zero for g in G for h in H)
    assert null_rows(ctx, pivots, A, cols) == list(echelon_rows(free, minus, cols))


@PROPERTY
@given(matrices(max_rows=4, max_cols=5, fields=EXPANSION_FIELDS))
def test_expansion_rank_is_m_times_rank(m):
    prime = make_field(m.ctx.p, [0, 1])
    expanded = MatrixGF.from_rows(prime, expansion_rows(m.ctx, m))
    assert expanded.rank() == m.ctx.m * m.rank()


@PROPERTY
@given(matrices(max_rows=3, max_cols=7))
def test_engines_agree_on_random_generator_matrices(m):
    code = LinearCode(m)
    assume(code.k > 0)
    d = code.min_distance("exhaustive")
    assert code.min_distance("dual") == d
    assert 1 <= d <= code.singleton_bound


# GF(p), GF(p^2) and GF(3^3): exhaustive search with m = 1, 2 and 3 planes
EXHAUSTIVE_FIELDS = (
    make_field(2, [0, 1]),
    make_field(7, [0, 1]),
    make_field(5, [2, 0, 1]),
    make_field(3, [1, 2, 0, 1]),
)


@st.composite
def exhaustive_generators(draw):
    """A k x ncols generator with q^k - 1 <= 10^4 and ncols <= 14; zero
    entries are common, so pivots off the front, zero columns and k = ncols
    all occur."""
    ctx = draw(st.sampled_from(EXHAUSTIVE_FIELDS))
    k = draw(st.integers(1, max(t for t in range(1, 14) if ctx.q**t - 1 <= 10**4)))
    ncols = draw(st.integers(k, 14))
    entry = st.one_of(st.just(0), st.integers(0, ctx.q - 1)).map(ctx.from_index)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=k, max_size=k))
    return MatrixGF(ctx, rows)


@PROPERTY
@given(exhaustive_generators())
def test_exhaustive_matches_dual_on_generators(m):
    # exhaustive search forms only the free columns; the dual engine reads
    # the parity check or the generator's hyperplanes
    code = LinearCode(m)
    assume(code.k > 0)
    assert code.min_distance("exhaustive", cap=10**4) == code.min_distance("dual")


LOW_RATE_FIELDS = (make_field(13, [0, 1]), make_field(3, [1, 0, 1]), make_field(2, [1, 1, 0, 1]))


@st.composite
def low_rate_generators(draw):
    """A k x ncols generator over GF(13), GF(9) or GF(2^3), k <= 3 and
    ncols <= 14; mostly small entries, so zero and repeated columns (d <= 3
    on the parity-check side) are common."""
    ctx = draw(st.sampled_from(LOW_RATE_FIELDS))
    k = draw(st.integers(1, 3))
    ncols = draw(st.integers(k, 14))
    entry = st.one_of(st.integers(0, 2), st.integers(0, ctx.q - 1)).map(ctx.from_index)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=k, max_size=k))
    return MatrixGF(ctx, rows)


@PROPERTY
@given(low_rate_generators())
def test_dual_cap_outcomes_on_low_rate_codes(m):
    # the side is chosen before depth 0, the generator side first only where
    # its whole walk fits under cap: no answer of the parity-check walk (walk,
    # with its free depths 0 and 1 and its depth-2 switch) is lost, and a cap
    # of C(ncols, k-2) or more always answers
    code = LinearCode(m)
    assume(code.k > 0)
    d, k = code.min_distance("exhaustive"), code.k
    gen_subsets = math.comb(code.length, max(k - 2, 0))
    field = code.ctx.form
    h_cols = [list(c) for c in zip(*null_rows(code.ctx, *code.generator.systematic(), code.length))]
    for cap in (0, gen_subsets - 1, gen_subsets, DEFAULT_CAP):
        cap = max(cap, 0)
        try:
            walk = _min_dependent_columns(h_cols or [[]] * code.length, field, cap, LinearCode(m))
        except CapExceededError:
            walk = None
        try:
            dual = LinearCode(m).min_distance("dual", cap=cap)
        except CapExceededError:
            dual = None
        assert dual in (d, None) and walk in (d, None)
        assert dual == d or walk is None
        assert dual == d or (cap < gen_subsets and not (cap == 0 and d <= 3))


# (field, least and most parity checks r, most information symbols k): q^k
# <= 10^4, but GF(9) needs [9,5] to have k > r >= 4.  Smaller r would seldom
# leave room for k + r columns with no 3 dependent: PG(3,2) holds at most 8
# such points, PG(3,3) 10, and random greedy choices in PG(4,2) stop early.
HIGH_RATE_FIELDS = (
    (make_field(2, [0, 1]), 6, 6, 13),
    (make_field(3, [0, 1]), 5, 6, 8),
    (make_field(3, [1, 0, 1]), 4, 4, 5),
)


@functools.lru_cache(maxsize=None)
def index_tables(ctx):
    """+, * and inverse of a small field on element indices (index 0 is zero)."""
    els = list(ctx.elements())
    index = {e: i for i, e in enumerate(els)}
    add = [[index[a + b] for b in els] for a in els]
    mul = [[index[a * b] for b in els] for a in els]
    return add, mul, [0] + [index[a.inverse()] for a in els[1:]]


def projective_point(v, tables):
    """Index vector v scaled to 1 at its first nonzero entry (None if zero)."""
    _, mul, inv = tables
    lead = next((x for x in v if x), None)
    return lead and tuple(mul[inv[lead]][x] for x in v)


@functools.lru_cache(maxsize=None)
def projective_points(ctx, r):
    vectors = itertools.product(range(ctx.q), repeat=r)
    return sorted({projective_point(v, index_tables(ctx)) for v in vectors if any(v)})


@st.composite
def high_rate_codes(draw):
    """A code with k > r >= 4, the null space of r x (k + r) random columns.

    Each column is drawn off the lines through two earlier ones while any
    such point is left, so mostly no 3 columns are dependent, d >= 4, and
    the parity-check side's walk from w = 4 decides the distance.
    """
    ctx, r_min, r_max, k_max = draw(st.sampled_from(HIGH_RATE_FIELDS))
    r = draw(st.integers(r_min, r_max))
    k = draw(st.integers(r + 1, k_max))
    tables = index_tables(ctx)
    add, mul, _ = tables
    cols, lines = [], set()
    for _ in range(k + r):
        free = [pt for pt in projective_points(ctx, r) if pt not in lines]
        col = draw(st.sampled_from(free) if free else st.tuples(*[st.integers(0, ctx.q - 1)] * r))
        lines.add(projective_point(col, tables))
        for c in cols:
            for s in range(1, ctx.q):
                lines.add(projective_point([add[a][mul[s][b]] for a, b in zip(c, col)], tables))
        cols.append(col)
    H = MatrixGF(ctx, [[ctx.from_index(i) for i in row] for row in zip(*cols)])
    code = LinearCode(kernel_basis(H))
    assume(code.length - code.k == r)
    return code


@PROPERTY
@given(high_rate_codes())
def test_engines_agree_on_random_high_rate_codes(code):
    assert code.k > code.length - code.k >= 4
    d = code.min_distance("exhaustive", cap=10**5)
    assert code.min_distance("dual") == d
    # the parity-check walk alone, though the dual engine may take the
    # generator side where its subsets are fewer
    # null_rows gives H in the entry form already
    field = code.ctx.form
    h_cols = [list(c) for c in zip(*null_rows(code.ctx, *code.generator.systematic(), code.length))]
    assert _min_dependent_columns(h_cols, field) == d


@PROPERTY
@given(matrices(max_rows=4, max_cols=8))
def test_generator_side_matches_parity_check_side(m):
    # G counts columns on hyperplanes; its parity check H, read off G's
    # pivots, finds dependent columns: both give d(C), and swapped, d(C^perp)
    code = LinearCode(m)
    assume(0 < code.k < code.length)
    G, field = code.generator, code.ctx.form
    H = null_rows(code.ctx, *G.systematic(), code.length)
    g_cols = [field.entries(c) for c in zip(*G.data)]
    h_cols = [list(c) for c in zip(*H)]  # null_rows gives the entry form
    assert _hyperplane_distance(g_cols, field) == _min_dependent_columns(h_cols, field)
    assert _min_dependent_columns(g_cols, field) == _hyperplane_distance(h_cols, field)


# GF(p) at p = 2, 3, 5 and 7, and GF(2^3) and GF(3^3) on the generic packed form
WALK_FIELDS = (
    make_field(2, [0, 1]),
    make_field(3, [0, 1]),
    make_field(5, [0, 1]),
    make_field(7, [0, 1]),
    make_field(2, [1, 1, 0, 1]),
    make_field(3, [1, 2, 0, 1]),
)


@st.composite
def planted_generators(draw):
    """A full-rank k x ncols generator, k <= 5 and ncols <= 11, drawn column
    by column: half of them random, the rest zero, a copy or a nonzero
    multiple of an earlier one.  Drawn afresh until its rank is k."""
    ctx = draw(st.sampled_from(WALK_FIELDS))
    k = draw(st.integers(1, 5))
    ncols = draw(st.integers(k, 11))
    rng = random.Random(draw(st.integers(0, 2**32)))
    while True:
        cols = []
        for _ in range(ncols):
            kind = rng.randrange(6) if cols else 0
            if kind < 3:
                cols.append([ctx.random_element(rng) for _ in range(k)])
            elif kind == 3:
                cols.append([ctx.zero()] * k)
            else:
                x = ctx.one() if kind == 4 else ctx.from_index(rng.randrange(1, ctx.q))
                cols.append([x * e for e in rng.choice(cols)])
        m = MatrixGF(ctx, [list(r) for r in zip(*cols)])
        if m.rank() == k:
            return m


@settings(PROPERTY, max_examples=300)
@given(planted_generators())
def test_hyperplane_walk_matches_exhaustive_search(m):
    # the walk counts each hyperplane once, from its index-first basis, stops
    # a level once it cannot pass the best count, and takes the conic
    # certificate at k = 3; it reads G's columns as they are, not in RREF
    field = m.ctx.form
    cols = [list(c) for c in zip(*m.entries)]
    assert _hyperplane_distance(cols, field) == LinearCode(m).min_distance("exhaustive", cap=m.ctx.q**m.rows)


# the (q, n) pairs of the acceptance sweep
ALGEBRAS = tuple(
    DihedralAlgebra(make_field(p, mod), n)
    for p, mod, n in (
        (13, [0, 1], 3),
        (5, [2, 0, 1], 3),
        (31, [0, 1], 5),
        (41, [0, 1], 5),
        (29, [0, 1], 7),
        (43, [0, 1], 7),
    )
)


def elements(ctx):
    return st.integers(0, ctx.q - 1).map(ctx.from_index)


# prime, extension and large prime fields
AXIOM_FIELDS = (
    make_field(13, [0, 1]),
    make_field(5, [2, 0, 1]),
    make_field(13, [2, 0, 1]),
    make_field(2**31 - 1, [0, 1]),
)


@st.composite
def field_triples(draw):
    ctx = draw(st.sampled_from(AXIOM_FIELDS))
    return [draw(elements(ctx)) for _ in range(3)]


@PROPERTY
@given(field_triples())
def test_field_axioms(xyz):
    x, y, z = xyz
    zero, one = x.ctx.zero(), x.ctx.one()
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x and x * y == y * x
    assert x + -x == zero and x - y == x + -y
    if x:
        assert x * x.inverse() == one
        assert x ** (x.ctx.q - 1) == one


@st.composite
def algebra_elements(draw, count):
    """count random elements of one algebra from ALGEBRAS."""
    alg = draw(st.sampled_from(ALGEBRAS))
    coeffs = st.lists(elements(alg.ctx), min_size=alg.n, max_size=alg.n)
    return [alg.element(draw(coeffs), draw(coeffs)) for _ in range(count)]


@st.composite
def ideal_specs(draw):
    """An algebra from ALGEBRAS and a spec with every summand kind, zero ideal included."""
    alg = draw(st.sampled_from(ALGEBRAS))
    summands = [Summand(draw(st.sampled_from([FULL, ZERO, PLUS_PIECE, MINUS_PIECE])))]
    for _ in range((alg.n - 1) // 2):
        kind = draw(st.sampled_from([FULL, ZERO, ROW]))
        if kind == ROW:
            x, y = draw(elements(alg.ctx)), draw(elements(alg.ctx))
            assume(x or y)
            summands.append(row(x, y))
        else:
            summands.append(Summand(kind))
    return alg, IdealSpec(tuple(summands))


def in_summands(t, spec):
    """Whether the tuple t lies in the direct sum of spec's summands."""
    g1, g2 = t.gamma
    ok = {FULL: True, ZERO: not g1 and not g2, PLUS_PIECE: not g2, MINUS_PIECE: not g1}
    if not ok[spec.summands[0].kind]:
        return False
    for s, ((a11, a12), (a21, a22)) in zip(spec.summands[1:], t.blocks):
        if s.kind == ZERO and (a11 or a12 or a21 or a22):
            return False
        # row(x, y): both block rows are multiples of (x, y)
        if s.kind == ROW and (s.y * a11 - s.x * a12 or s.y * a21 - s.x * a22):
            return False
    return True


@PROPERTY
@given(algebra_elements(2))
def test_map_is_multiplicative(uv):
    u, v = uv
    assert wedderburn_map(u * v) == wedderburn_map(u) * wedderburn_map(v)


@PROPERTY
@given(algebra_elements(1))
def test_inverse_undoes_map(u):
    assert wedderburn_inverse(wedderburn_map(u[0])) == u[0]


@PROPERTY
@given(ideal_specs())
def test_spec_code_maps_into_its_summands(alg_spec):
    alg, spec = alg_spec
    gen = code_from_ideal_spec(alg.ctx, alg.n, spec)
    assert gen.rows == gen.rank() == spec.dim()
    assert gen.rref()[0] == gen
    for i in range(gen.rows):
        coords = gen.row(i)
        assert in_summands(wedderburn_map(alg.element(coords[: alg.n], coords[alg.n:])), spec)


# GF(p), GF(p^2) and GF(3^3), the three entry forms' arithmetic
SIDE_ALGEBRAS = tuple(
    DihedralAlgebra(make_field(p, mod), n)
    for p, mod, n in (
        (43, [0, 1], 7),
        (13, [2, 0, 1], 7),
        (5, [2, 0, 1], 3),
        (3, [1, 2, 0, 1], 13),
    )
)


@st.composite
def crossover_specs(draw):
    """An algebra from SIDE_ALGEBRAS and a spec of dim n - 1, n or n + 1, where
    code_from_ideal_spec changes sides, or of any dim."""
    alg = draw(st.sampled_from(SIDE_ALGEBRAS))
    n, half = alg.n, (alg.n - 1) // 2
    target = draw(st.sampled_from([n - 1, n, n + 1, None]))
    if target is None:
        first = draw(st.sampled_from([FULL, ZERO, PLUS_PIECE, MINUS_PIECE]))
        kinds = draw(st.lists(st.sampled_from([FULL, ZERO, ROW]), min_size=half, max_size=half))
    else:
        # position 0 gives the odd part; the blocks give 4 per full and 2 per row
        first = draw(st.sampled_from([PLUS_PIECE, MINUS_PIECE] if target % 2 else [FULL, ZERO]))
        pairs = (target - {FULL: 2, ZERO: 0}.get(first, 1)) // 2
        fulls = draw(st.integers(max(0, pairs - half), pairs // 2))
        rows, zeros = pairs - 2 * fulls, half - pairs + fulls
        kinds = draw(st.permutations([FULL] * fulls + [ROW] * rows + [ZERO] * zeros))
    summands = [Summand(first)]
    for kind in kinds:
        if kind == ROW:
            x, y = draw(elements(alg.ctx)), draw(elements(alg.ctx))
            assume(x or y)
            summands.append(row(x, y))
        else:
            summands.append(Summand(kind))
    spec = IdealSpec(tuple(summands))
    assert target in (None, spec.dim())
    return alg, spec


@PROPERTY
@given(crossover_specs())
def test_span_side_and_constraint_side_give_one_rref(alg_spec):
    alg, spec = alg_spec
    ctx, n = alg.ctx, alg.n
    span = _span_rows(ctx, n, spec)
    R, rank, _ = MatrixGF._trusted(ctx, span, 2 * n).rref()
    assert len(span) == rank == spec.dim()
    assert R == echelon(ctx, *kernel_rref(ctx, _constraint_rows(ctx, n, spec.summands), 2 * n), 2 * n)
    assert code_from_ideal_spec(ctx, n, spec) == R


# ---------------------------------------------------------------------------
# the entry forms against FieldElement arithmetic, and the GF(p^2) closed forms
# against the generic packed form


@PROPERTY
@given(matrices(max_rows=5, max_cols=6, fields=FORM_FIELDS))
def test_rref_of_a_fresh_copy_is_the_rref(m):
    # every entry form, rank-deficient matrices and zero rows among them: the
    # RREF that elimination built returns itself, and a fresh copy of its
    # rows, which carries no systematic form, is eliminated to the same RREF
    reduced, rank, pivots = m.rref()
    assert reduced.rref() == (reduced, rank, pivots)
    fresh = MatrixGF(m.ctx, reduced.data, cols=m.cols)
    again = fresh.rref()
    assert again[0] is not fresh
    assert again == (reduced, rank, pivots)


@st.composite
def rank_rows(draw):
    """A field of FORM_FIELDS and 1-4 rows of up to 6 FieldElements, drawn
    often as 0 or as the element whose coefficients are all p - 1, the
    largest the entry forms hold; a row may be a multiple of an earlier one
    or the sum of two."""
    ctx = draw(st.sampled_from(FORM_FIELDS))
    edge = ctx.from_index(ctx.q - 1)
    element = st.one_of(st.sampled_from([ctx.zero(), edge, -edge]), field_elements(ctx, 1).map(lambda v: v[0]))
    cols = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        how = draw(st.sampled_from(["drawn", "drawn", "multiple", "sum"]) if rows else st.just("drawn"))
        if how == "drawn":
            rows.append(draw(st.lists(element, min_size=cols, max_size=cols)))
        elif how == "multiple":
            c = draw(element)
            rows.append([c * a for a in draw(st.sampled_from(rows))])
        else:
            rows.append([a + b for a, b in zip(draw(st.sampled_from(rows)), draw(st.sampled_from(rows)))])
    return ctx, rows


@PROPERTY
@given(rank_rows())
def test_rank_of_constraint_rows_is_the_rank(case):
    # codes._rank, by the leading block's determinant or else by elimination,
    # against MatrixGF.rank and the rank oracle's column walk
    ctx, rows = case
    m = MatrixGF(ctx, rows)
    assert _rank(m.entries, ctx.form) == m.rank() == columns_rank(m, range(m.cols))


def field_elements(ctx, size):
    coeffs = st.lists(st.integers(0, ctx.p - 1), min_size=ctx.m, max_size=ctx.m)
    return st.lists(coeffs.map(ctx.element), min_size=size, max_size=size)


def three_plus_t(ctx):
    """3 + t over an extension field, 3 over GF(p)."""
    return ctx.element([3, 1] if ctx.m > 1 else 3)


@st.composite
def form_cases(draw, size, fields=FORM_FIELDS):
    """A field of fields, its entry form, and size of its elements, zero
    and small ones drawn often."""
    ctx = draw(st.sampled_from(fields))
    small = st.sampled_from([ctx.zero(), ctx.one(), -ctx.one(), three_plus_t(ctx)])
    els = [draw(st.one_of(small, field_elements(ctx, 1).map(lambda v: v[0]))) for _ in range(size)]
    return ctx, ctx.form, els


# expressions in + - * as the library forms them, each on 9 values
EXPRESSIONS = (
    lambda a, b, c, d, e, f, g, h, i: a - f * b,  # elimination
    lambda a, b, c, d, e, f, g, h, i: -a,  # null_rows
    lambda a, b, c, d, e, f, g, h, i: a * b - c * d,  # a line through two points
    lambda a, b, c, d, e, f, g, h, i: a * (b * c + d * e) - f * (g * h + i * i),  # a conic's coefficient
    lambda a, b, c, d, e, f, g, h, i: a * (d * a + e * b + f * c) + b * (g * b + h * c) + i * c * c,
    lambda a, b, c, d, e, f, g, h, i: -(a * b * c) - d * e * f - g * h * i,
    lambda a, b, c, d, e, f, g, h, i: (b * f - c * e) * g + (c * d - a * f) * h + (a * e - b * d) * i,
    lambda a, b, c, d, e, f, g, h, i: (a * b + c * d + e * f + g * h) * 64 - i * i * 255,  # long sums
)


@PROPERTY
@given(form_cases(9), st.integers(0, len(EXPRESSIONS) - 1))
def test_entry_form_canon_and_is_zero_match_field_elements(case, k):
    ctx, form, els = case
    entries = form.entries(els)
    assert form.elements(entries) == els
    assert form.entries(form.elements(entries)) == entries
    assert form.coeffs(entries) == [e.to_list() for e in els]
    assert all(0 <= c < ctx.p for cs in form.coeffs(entries) for c in cs)
    assert [form.is_zero(a) for a in entries] == [not e for e in els]
    want = EXPRESSIONS[k](*els)
    got = EXPRESSIONS[k](*entries)  # unreduced
    assert form.elements(form.canon([got])) == [want]
    assert form.is_zero(got) == (not want)
    assert form.is_zero(got - form.canon([got])[0])
    # submul, each form's closed form of a - f b
    a, f, b = entries[:3]
    assert form.elements(form.submul([a], f, [b])) == [els[0] - els[1] * els[2]]


def field_point(form, u):
    """The point of u, a list of FieldElements, by FieldElement.inverse: its
    lead and u/u[lead] past it, in form's entries; None for u = 0."""
    lead = next((i for i, e in enumerate(u) if e), None)
    if lead is None:
        return None
    inv = u[lead].inverse()
    return (lead, *form.entries([e * inv for e in u[lead + 1:]]))


@PROPERTY
@given(form_cases(4))
def test_entry_form_point_matches_field_elements(case):
    ctx, form, v = case
    vs = [v, v[1:], v[2:], [ctx.zero()] * 2 + v, [ctx.zero()] * 2, []]  # leads 0.., 2.., none
    want = [field_point(form, u) for u in vs]
    entries = [form.entries(u) for u in vs]
    assert [form.point(u) for u in entries] == want
    assert form.points(entries) == want  # one batch


@PROPERTY
@given(form_cases(4))
def test_entry_form_points_of_batches_led_at_index_0(case):
    # every vector of the batch led at index 0, so no lead is scanned for:
    # lengths 1 to 5, leads 1 and p - 1 each repeated; then the same batch
    # with one zero vector among them
    ctx, form, v = case
    one = ctx.one()
    batch = [[lead] + v[:length - 1] for length in range(1, 6) for lead in (one, -one, one, -one)]
    for vs in (batch, batch[:9] + [[ctx.zero()] * 3] + batch[9:]):
        want = [field_point(form, u) for u in vs]
        assert [key[0] for key in want if key is not None] == [0] * len(batch)
        entries = [form.entries(u) for u in vs]
        assert form.points(entries) == want
        assert [form.point(u) for u in entries] == want


@PROPERTY
@given(form_cases(3), st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=6),
       st.integers(2, 4), st.integers(0, 2))
def test_entry_form_reduce_matches_field_elements(case, picks, length, shift):
    ctx, form, seed = case
    pool = seed + [three_plus_t(ctx), ctx.zero(), ctx.one()]
    u = ([ctx.zero()] * shift + pool * 2)[:length]  # c's lead past shift zeros
    assume(any(u))
    c = form.point(form.entries(u))
    lead, unit = c[0], [ctx.zero()] * c[0] + [ctx.one(), *form.elements(c[1:])]
    # vs: drawn vectors, a multiple of u (x = y = 0), and, with two
    # coordinates left, one with x = 0 and y != 0
    vs = [[pool[(i + k) % len(pool)] * pool[(j + k) % len(pool)] for k in range(length)]
          for i, j in picks]
    vs.append([pool[0] * e for e in u])
    vs.append([ctx.zero() if k <= lead else pool[k] for k in range(length)])  # v[lead] = 0
    if length == 3:
        s, t = [k for k in range(3) if k != lead]
        v = [ctx.zero()] * 3
        v[lead], v[s], v[t] = ctx.one(), unit[s], unit[t] + ctx.one()
        vs.append(v)
    less = [[v[k] - v[lead] * unit[k] for k in range(length) if k != lead] for v in vs]
    out = form.reduce(c, [form.entries(v) for v in vs])
    assert [form.elements(r) for r in out] == less
    keys = form.reduce(c, [form.entries(v) for v in vs], keys=True)
    # columns as zip gives them, tuples, reduce to the same lists and keys
    assert form.reduce(c, [tuple(form.entries(v)) for v in vs]) == out
    assert form.reduce(c, [tuple(form.entries(v)) for v in vs], keys=True) == keys
    points = [form.point(form.entries(r)) for r in less]
    if length == 3 and type(form).__name__ == "_Residues":
        # two coordinates (x, y) left: the key is y/x, by one batched
        # inversion, p for x = 0 and y != 0
        assert keys == [(y / x).coeffs[0] if x else (ctx.p if y else None) for x, y in less]
        assert None in keys and ctx.p in keys
    else:
        assert keys == points
        if length == 3:
            assert None in keys and (1,) in keys
    # keys name points: equal exactly where the points are, None where they are
    assert [keys.index(key) for key in keys] == [points.index(point) for point in points]
    assert [key is None for key in keys] == [point is None for point in points]


@PROPERTY
@given(form_cases(9, PACKED_FIELDS), st.integers(0, len(EXPRESSIONS) - 1))
def test_pair_closed_forms_match_the_generic_packed_form(case, k):
    # _Pairs keeps closed forms of _Packed's canon, submul, points and coeffs
    # at m = 2, on the same layout, whose slot width there is the closed
    # forms' own: a cubic under 2^(3b + 5) and sums of under 2^32 products
    ctx, pairs, els = case
    generic, b = _Packed(ctx), ctx.p.bit_length()
    assert type(pairs) is _Pairs and pairs.w == generic.w == max(3 * b + 7, 2 * b + 35)
    entries = generic.entries(els)
    assert pairs.entries(els) == entries
    assert pairs.coeffs(entries) == generic.coeffs(entries)
    got = EXPRESSIONS[k](*entries)
    assert pairs.canon([got, -got]) == generic.canon([got, -got])
    f = entries[0]
    assert pairs.submul(entries, f, entries[::-1]) == generic.submul(entries, f, entries[::-1])
    vs = [entries, entries[3:], [0, 0] + entries[:4], [0, 0], []]  # 0 is the packed zero
    assert pairs.points(vs) == generic.points(vs)


# ---------------------------------------------------------------------------
# the conic certificate: its five-point test and its conic, against the rank
# oracle, over every entry form


def nonzero_elements(ctx):
    return st.integers(1, ctx.q - 1).map(ctx.from_index)


@st.composite
def conic_columns(draw):
    """A field of FORM_FIELDS, its entry form, and nine columns as
    FieldElements: points of the conic y^2 = xz, the first five distinct,
    under a random invertible transform, each column scaled by a nonzero
    element.  Parameter q is the conic's point (0, 0, 1)."""
    ctx = draw(st.sampled_from(FORM_FIELDS))
    params = st.integers(0, ctx.q)
    ts = draw(st.lists(params, min_size=5, max_size=5, unique=True))
    ts += draw(st.lists(params, min_size=4, max_size=4))
    points = [[ctx.zero(), ctx.zero(), ctx.one()] if t == ctx.q
              else [ctx.one(), ctx.from_index(t), ctx.from_index(t) ** 2] for t in ts]
    transform = [draw(field_elements(ctx, 3)) for _ in range(3)]
    assume(MatrixGF(ctx, transform).rank() == 3)
    scales = [draw(nonzero_elements(ctx)) for _ in points]
    cols = [[c * sum((a * b for a, b in zip(r, v)), ctx.zero()) for r in transform]
            for c, v in zip(scales, points)]
    return ctx, ctx.form, cols


def plant(data, ctx, five, kind, i):
    """five with column i made zero, s times another column j, or s P_j +
    r P_k, with j, k and the nonzero s, r drawn."""
    j, k = data.draw(st.permutations([x for x in range(5) if x != i]))[:2]
    s, r = data.draw(nonzero_elements(ctx)), data.draw(nonzero_elements(ctx))
    five = list(five)
    if kind == "zero":
        five[i] = [ctx.zero()] * 3
    elif kind == "repeat":
        five[i] = [s * a for a in five[j]]
    elif kind == "collinear":
        five[i] = [s * a + r * b for a, b in zip(five[j], five[k])]
    return five


PLANTS = [(None, 0)] + [(kind, i) for kind in ("zero", "repeat", "collinear") for i in range(5)]


@settings(PROPERTY, max_examples=60)
@given(conic_columns(), st.data())
def test_five_point_test_matches_the_rank_oracle(case, data):
    # the certificate's ten determinants of P1..P5 are all nonzero exactly
    # when the rank oracle finds every three of them independent: with no
    # plant, and with a zero column, a scaled repeat or a point on the line
    # through two others planted at each of the five positions.  A sixth
    # column P1 lies on every conic through P1..P5, so the verdict is the
    # five-point test's; the walk on the five agrees with it.
    ctx, form, cols = case
    for kind, i in PLANTS:
        five = plant(data, ctx, cols[:5], kind, i)
        m = MatrixGF(ctx, [list(row) for row in zip(*five)])
        arc = all(columns_rank(m, T) == 3 for T in itertools.combinations(range(5), 3))
        assert arc == (kind is None)
        entries = [form.entries(c) for c in five]
        assert _on_a_conic(entries + entries[:1], form) == arc
        assert (_min_dependent_columns(entries, form) == 4) == arc


@PROPERTY
@given(conic_columns(), st.sampled_from(PLANTS), st.data())
def test_conic_certificate_is_the_walk_and_the_conic_through_five(case, planted, data):
    # _on_a_conic holds exactly when the walk finds no three of the first
    # five columns dependent and every later column lies on the conic
    # through them, that is, the six points' quadratic monomials are
    # dependent (rank oracle).  Later columns are kept on the conic, moved
    # to a drawn column, or zero (on every conic).
    ctx, form, cols = case
    five = plant(data, ctx, cols[:5], *planted)
    later = []
    for col in cols[5:]:
        move = data.draw(st.sampled_from(["on", "on", "off", "zero"]))
        if move == "off":
            col = data.draw(field_elements(ctx, 3))
        elif move == "zero":
            col = [ctx.zero()] * 3
        later.append(col)
    entries = [form.entries(c) for c in five + later]

    def monomials(x):
        return [x[0] * x[0], x[0] * x[1], x[0] * x[2], x[1] * x[1], x[1] * x[2], x[2] * x[2]]

    def on_the_conic(y):
        m = MatrixGF(ctx, [list(row) for row in zip(*map(monomials, five + [y]))])
        return columns_rank(m, range(6)) < 6

    walk = _min_dependent_columns(entries[:5], form) == 4
    assert walk == (planted[0] is None)
    assert _on_a_conic(entries, form) == (walk and all(map(on_the_conic, later)))


@pytest.mark.parametrize("p, m", [(2003, 2), (3, 7), (2**31 - 1, 3)])
def test_conic_certificate_at_the_budget_edge(p, m):
    # entries whose coefficients are all p - 1 (E) put the unreduced lines,
    # l14(P5), l23(P5) and each later column's cubic at the largest slots the
    # entry forms hold.  Over every order of the first five columns,
    # _on_a_conic answers as the five-point oracle (no three of the five
    # dependent, by the rank oracle and by the walk) and the conic through
    # them (each later column's quadratic monomials dependent on theirs) do:
    # five points of y^2 = xz, later ones on it or off it, a collinear
    # triple among five that every later column's conic test passes, and
    # six columns (E, E, E)
    ctx = next(f for f in FORM_FIELDS if (f.p, f.m) == (p, m))
    form, zero, e = ctx.form, ctx.zero(), ctx.from_index(ctx.q - 1)
    t = three_plus_t(ctx)
    conic = [[e, zero, zero], [zero, zero, e], [e, e, e], [e, -e, e], [e, e * t, e * t * t]]
    later = [[e, e, e], [e, e * t * t, e * t**4]]
    cases = [
        (conic, later, True),
        (conic, later + [[e, e, zero]], False),
        (conic, [[e, e, zero]] + later, False),
        ([[e, e, e], [e, zero, zero], [zero, e, e], [zero, zero, e], [e, -e, e]], [[e, e, e]], False),
        ([[e, e, e]] * 5, [[e, e, e]], False),
    ]

    def monomials(x):
        return [x[0] * x[0], x[0] * x[1], x[0] * x[2], x[1] * x[1], x[1] * x[2], x[2] * x[2]]

    for five, rest, verdict in cases:
        m5 = MatrixGF(ctx, [list(r) for r in zip(*five)])
        arc = all(columns_rank(m5, T) == 3 for T in itertools.combinations(range(5), 3))
        on = [columns_rank(MatrixGF(ctx, [list(r) for r in zip(*map(monomials, five + [y]))]), range(6)) < 6
              for y in rest]
        assert (arc and all(on)) == verdict
        for order in itertools.permutations(five):
            entries = [form.entries(c) for c in list(order) + rest]
            assert (_min_dependent_columns(entries[:5], form) == 4) == arc
            assert _on_a_conic(entries, form) == verdict

# the left-ideal certificate (a/b symmetry) against algebra products, and the
# walk from column 0 it allows against the walk from every column

# for each odd-characteristic field of FORM_FIELDS with an odd n <= 7 dividing
# q - 1, the algebra of the largest: residues, GF(p^2) and packed m = 3
SYMMETRY_ALGEBRAS = tuple(
    DihedralAlgebra(ctx, n)
    for ctx in FORM_FIELDS if ctx.p > 2
    for n in [next((n for n in (7, 5, 3) if (ctx.q - 1) % n == 0), 0)] if n
)
# those whose codes of dimension 2 fit under the exhaustive engine's cap
SMALL_ALGEBRAS = tuple(alg for alg in SYMMETRY_ALGEBRAS if alg.ctx.q**2 - 1 <= DEFAULT_CAP)
DIMS = {FULL: 2, ZERO: 0, PLUS_PIECE: 1, MINUS_PIECE: 1}
BLOCK_DIMS = {FULL: 4, ZERO: 0, ROW: 2}


def exhaustive_room(ctx) -> int:
    """The largest k with q^k - 1 <= DEFAULT_CAP."""
    k = 0
    while ctx.q ** (k + 1) - 1 <= DEFAULT_CAP:
        k += 1
    return k


@st.composite
def symmetric_codes(draw, algebras=SYMMETRY_ALGEBRAS, exhaustive=False):
    """An algebra of algebras and the code of a nonzero ideal spec over it,
    with exhaustive of a dimension the exhaustive engine takes."""
    alg = draw(st.sampled_from(algebras))
    ctx = alg.ctx
    room = exhaustive_room(ctx) if exhaustive else 2 * alg.n
    first = draw(st.sampled_from([kind for kind, dim in DIMS.items() if dim <= room]))
    summands, room = [Summand(first)], room - DIMS[first]
    for _ in range((alg.n - 1) // 2):
        kind = draw(st.sampled_from([kind for kind, dim in BLOCK_DIMS.items() if dim <= room]))
        room -= BLOCK_DIMS[kind]
        if kind == ROW:
            x, y = draw(elements(ctx)), draw(elements(ctx))
            assume(x or y)
            summands.append(row(x, y))
        else:
            summands.append(Summand(kind))
    spec = IdealSpec(tuple(summands))
    assume(spec.dim() > 0)
    return alg, LinearCode(code_from_ideal_spec(ctx, alg.n, spec))


@settings(PROPERTY, max_examples=100)
@given(symmetric_codes())
def test_certified_walk_from_column_0_matches_the_walk_from_every_column(case):
    # a left ideal's a/b symmetry is certified, as the products show, and its
    # dual distance, walked from column 0 alone, is the walk's from every
    # column (the certificate forced off) and, where it fits, exhaustive search
    alg, code = case
    assert code._is_left_ideal() and closed_by_products(code, alg)
    d = code.min_distance("dual")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codes_module, "_closed", lambda *args: False)
        assert LinearCode(code.generator).min_distance("dual") == d
    if code.ctx.q**code.k - 1 <= DEFAULT_CAP:
        assert code.min_distance("exhaustive") == d


@settings(PROPERTY, max_examples=100)
@given(symmetric_codes(SMALL_ALGEBRAS, exhaustive=True), st.data())
def test_certificate_refuses_column_swapped_ideals(case, data):
    # swapping two columns keeps the distance but, unless the swap is an
    # automorphism, breaks the symmetry: the certificate says so exactly when
    # the products do, and the dual engine still finds exhaustive search's d
    alg, code = case
    i, j = data.draw(st.permutations(range(code.length)))[:2]
    swapped = swap_columns(code, i, j)
    assert swapped._is_left_ideal() == closed_by_products(swapped, alg)
    assert swapped.min_distance("dual") == swapped.min_distance("exhaustive") == code.min_distance("dual")


@settings(PROPERTY, max_examples=100)
@given(st.sampled_from(SMALL_ALGEBRAS), st.data())
def test_certificate_matches_products_on_random_generators(alg, data):
    ctx = alg.ctx
    k = data.draw(st.integers(1, exhaustive_room(ctx)))
    rows = [data.draw(field_elements(ctx, 2 * alg.n)) for _ in range(k)]
    code = LinearCode(MatrixGF(ctx, rows))
    assume(code.k > 0)
    assert code._is_left_ideal() == closed_by_products(code, alg)
    assert code.min_distance("dual") == code.min_distance("exhaustive")


# (field, n) of the twist test: prime fields, GF(13^2) and GF(7^3)
TWIST_CASES = tuple(
    (make_field(p, mod), n)
    for p, mod, n in (
        (61, [0, 1], 15), (31, [0, 1], 15), (43, [0, 1], 21), (13, [0, 1], 3), (29, [0, 1], 7),
        (13, [2, 0, 1], 7), (13, [2, 0, 1], 21), (7, [1, 1, 0, 1], 19),
    )
)


@PROPERTY
@given(st.sampled_from(TWIST_CASES), st.sampled_from(FAMILIES), st.data())
def test_twist_sends_each_code_to_its_s_1_sibling(case, tag, data):
    # sigma_s: a -> a^s, b -> b is an automorphism of D_2n for gcd(s, n) = 1,
    # and it carries code(family, s, beta) onto code(family, 1, beta), as
    # RREF generators; a beta refused at s is refused at 1 with the same words
    ctx, n = case
    s = data.draw(st.sampled_from([s for s in range(1, (n + 1) // 2) if math.gcd(s, n) == 1]))
    beta = data.draw(elements(ctx).filter(bool))
    try:
        code = construct_code(ctx, n, CodeFamily(tag, s=s, beta=beta))
    except DihedralCodesError as refusal:
        with pytest.raises(type(refusal), match=f"^{re.escape(str(refusal))}$"):
            construct_code(ctx, n, CodeFamily(tag, beta=beta))
        return
    assert twisted(code.generator, s, n) == construct_code(ctx, n, CodeFamily(tag, beta=beta)).generator


GF169 = make_field(13, [2, 0, 1])


@pytest.mark.parametrize("n", [3, 7, 21])
@pytest.mark.parametrize("tag", FAMILIES)
@settings(PROPERTY, max_examples=12)
@given(st.data())
def test_frobenius_sends_each_code_to_its_conjugate_sibling(tag, n, data):
    # x -> x^p entrywise carries code(family, s, beta) over GF(13^2) onto
    # code(family, s', beta'), as RREF generators: s' = s p mod n, folded
    # into 1..(n-1)/2, and beta' = beta^p, or beta^-p when s p folds; a beta
    # refused at s is refused at s' the same way
    ctx, p = GF169, GF169.p
    s = data.draw(st.sampled_from([s for s in range(1, (n + 1) // 2) if math.gcd(s, n) == 1]))
    beta = data.draw(elements(ctx).filter(bool))
    t = s * p % n
    sibling = CodeFamily(tag, s=t, beta=beta**p) if 2 * t < n else CodeFamily(tag, s=n - t, beta=beta**-p)
    try:
        code = construct_code(ctx, n, CodeFamily(tag, s=s, beta=beta))
    except DihedralCodesError as refusal:
        with pytest.raises(type(refusal)):
            construct_code(ctx, n, sibling)
        return
    assert frobenius(code.generator) == construct_code(ctx, n, sibling).generator


# (field, n) of the exact-condition test: q - 1 = 2n at (7, 3), (11, 5) and (23, 11)
EXACT_CONDITION_CASES = tuple(
    (make_field(p, mod), n)
    for p, mod, n in (
        (13, [0, 1], 3), (7, [0, 1], 3), (11, [0, 1], 5), (23, [0, 1], 11),
        (31, [0, 1], 5), (61, [0, 1], 15), (5, [2, 0, 1], 3), (13, [2, 0, 1], 7),
    )
)
# position 0 of each family's spec, and when its code is MDS: its GRS evaluation
# points are distinct exactly when this holds
EXACT_CONDITIONS = {
    "2n-2": (FULL, lambda beta, n: beta ** (2 * n) != 1),
    "2n-3-minus": (MINUS_PIECE, lambda beta, n: beta**n != -1),
    "2n-3-plus": (PLUS_PIECE, lambda beta, n: beta**n != 1),
}


@pytest.mark.parametrize("case", EXACT_CONDITION_CASES, ids=lambda c: f"q{c[0].q}-n{c[1]}")
def test_each_family_is_mds_exactly_under_its_point_condition(case):
    # the ideal behind construct_code's family, built from its spec so that codes
    # the gate refuses are covered too, for every nonzero beta and coprime s
    ctx, n = case
    assert set(EXACT_CONDITIONS) == set(FAMILIES)
    for (tag, (kind, mds)), s in itertools.product(
        EXACT_CONDITIONS.items(), [s for s in range(1, (n + 1) // 2) if math.gcd(s, n) == 1]
    ):
        for beta in list(ctx.elements())[1:]:
            blocks = [Summand(FULL)] * ((n - 1) // 2)
            blocks[s - 1] = row(ctx.one(), beta)
            code = LinearCode(code_from_ideal_spec(ctx, n, IdealSpec((Summand(kind), *blocks))))
            assert code.is_mds("dual") == mds(beta, n), (tag, s, beta)


# (field, n) of the GRS oracle: prime fields, GF(13^2) and a 31-bit p
GRS_CASES = tuple(
    (make_field(p, mod), n)
    for p, mod, n in ((61, [0, 1], 15), (211, [0, 1], 21), (13, [2, 0, 1], 21), (2**31 - 1, [0, 1], 9))
)


@pytest.mark.parametrize("case", GRS_CASES, ids=lambda c: f"q{c[0].q}-n{c[1]}")
def test_2n_2_parity_check_columns_are_its_grs_points(case):
    # the [2n, 2n-2] code's H has two rows, and its columns (x, y), read as the
    # points y/x of PG(1, q), are -beta u^2 and -(beta u^2)^-1 for u = xi^(s i),
    # i < n: the 2n distinct evaluation points of a GRS code of redundancy 2
    # (MacWilliams-Sloane, ch. 10-11), compared as multisets, for every
    # coprime s at the default beta
    ctx, n = case
    xi, beta = primitive_nth_root(ctx, n), ctx.generator()
    for s in [s for s in range(1, (n + 1) // 2) if math.gcd(s, n) == 1]:
        code = construct_code(ctx, n, CodeFamily("2n-2", s=s))
        H = [ctx.form.elements(r) for r in code._parity_check()]
        assert len(H) == 2
        squares = [beta * xi ** (2 * s * i) for i in range(n)]
        want = Counter([-b for b in squares] + [-b.inverse() for b in squares])
        assert Counter(y / x for x, y in zip(*H)) == want
        assert len(want) == 2 * n
