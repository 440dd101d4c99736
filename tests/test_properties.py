"""Property tests of the integer kernel the distance engines share."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dihedralcodes.codes import LinearCode
from dihedralcodes.gf import make_field, prime_expansion
from dihedralcodes.linalg import MatrixGF

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
