"""Property tests: field axioms, RREF, the integer kernel the distance engines share, and P."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dihedralcodes.codes import LinearCode
from dihedralcodes.dihedral import DihedralAlgebra
from dihedralcodes.gf import make_field, prime_expansion
from dihedralcodes.linalg import MatrixGF
from dihedralcodes.wedderburn import (
    FULL,
    MINUS_PIECE,
    PLUS_PIECE,
    ROW,
    ZERO,
    IdealSpec,
    Summand,
    code_from_ideal_spec,
    row,
    wedderburn_inverse,
    wedderburn_map,
)

# prime fields and degree-2 extensions, small enough for exhaustive search
FIELDS = (
    make_field(5, [0, 1]),
    make_field(7, [0, 1]),
    make_field(3, [1, 0, 1]),
    make_field(5, [2, 0, 1]),
)

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)


@st.composite
def matrices(draw, max_rows, max_cols):
    """A matrix over one of FIELDS, rows drawn from a span of random dimension."""
    ctx = draw(st.sampled_from(FIELDS))
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
    # same row space: neither matrix adds a dimension to the other
    assert m.vstack(reduced).rank() == reduced.nonzero_rows().rows == rank
    assert all(not any(reduced.row(i)) for i in range(rank, reduced.rows))
    assert pivots == sorted(set(pivots))
    for i, c in enumerate(pivots):
        column = [reduced[r, c] for r in range(reduced.rows)]
        assert column == [m.ctx.one() if r == i else m.ctx.zero() for r in range(reduced.rows)]
    kernel = m.kernel_basis()
    assert rank + kernel.rows == m.cols
    assert not any(any(r) for r in (m @ kernel.transpose()).data)


@PROPERTY
@given(matrices(max_rows=4, max_cols=5))
def test_expansion_rank_is_m_times_rank(m):
    prime = make_field(m.ctx.p, [0, 1])
    stacked = [v for i in range(m.rows) for v in prime_expansion(m.row(i))]
    expanded = MatrixGF(prime, [[prime.element(c) for c in v] for v in stacked])
    assert expanded.rank() == m.ctx.m * m.rank()


@PROPERTY
@given(matrices(max_rows=3, max_cols=7))
def test_engines_agree_on_random_generator_matrices(m):
    code = LinearCode(m)
    assume(code.k > 0)
    d = code.min_distance("exhaustive")
    assert code.min_distance("dual") == d
    assert 1 <= d <= code.singleton_bound


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
