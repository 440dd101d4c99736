"""MDS code constructions in F_q D_2n (n odd) and exact verification.

Three families, each a left ideal named by the idempotents that generate
it (s is the twist index, beta the twist scalar):

  "2n-2"        sum of R e_j over j not in {s, n-s}, plus R(e_s + beta b e_(n-s));
                dimension 2n-2, distance 3; needs ord(beta) > 2n.
  "2n-3-minus"  drops R e_0 and adds R((1-b)/2 e_0); dimension 2n-3,
                distance 4; needs ord(beta) > 2n.
  "2n-3-plus"   same with (1+b)/2 e_0; dimension 2n-3, distance 4; needs
                beta != 0 and beta^n != 1 (2n <= q-1 holds automatically
                whenever n | q-1 and q is odd).

Under P each family is the Wedderburn spec {position 0: full / minus /
plus; block s: row(1, beta); other blocks: full}, the kernel of its 2 or 3
closed-form constraint rows H.  construct_code keeps H
(LinearCode._from_parity_check) and builds the RREF generator from it only
on first use (linalg.kernel_rref); the public constructor, load_code and
from_generator_rows reduce the generator they are given and take
H = [-A^T | I] off G = [I | A] (linalg.null_rows).  Either way H is the one
parity check: contains tests H v^T = 0.  H, like every matrix, holds the
field's entry form (linalg._entry_form): residues over GF(p), packed pairs
over GF(p^2), FieldElements above, each with the same canon, submul, point and
reduce.  The paper-style presentation reads its rows, n e_j and n b e_j,
off P's forms (wedderburn._summand_forms) on that form.

Minimum distance is computed two independent ways, both exact, with no
limit on q: exhaustive enumeration, in numpy, of one codeword per
GF(q)-line, gated at q^k - 1 <= cap, which forms only the RREF
generator's free columns, on their prime-field expansions (each row
times x^j, on the entry form: _expansion_planes), and counts the pivot
columns as the word's nonzero message coefficients; and the dual engine, the
least number of dependent columns of H by one depth-first walk over
independent column subsets (_min_dependent_columns), or, for a low-rate
code, the most generator columns on one hyperplane (_hyperplane_distance),
each hyperplane counted once, from its index-first basis, the side chosen
before depth 0 (_dual_distance).  The paper's codes have 2 or 3 parity
checks, so depths 0 and 1 settle them and never build the generator; the
2n-3 codes' columns lie on one conic, an arc, so d = 4 with no depth-1
walk (_on_a_conic).  Their duals, [2n,3,2n-2] ideals, are arcs on the
generator side in turn: d = 2n - 2 with no walk.  numpy is imported on
the first exhaustive call only.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

from .dihedral import DihedralAlgebra, phi_inv
from .errors import (
    BadOrderError,
    BetaIsNthRootError,
    CapExceededError,
    EvenNError,
    NotCoprimeError,
    UnsupportedStyleError,
    ZeroElementError,
    _Record,
)
from .gf import FieldCtx, FieldElement, _is_int, element_order, primitive_nth_root
from .linalg import MatrixGF, _entry_form, kernel_rref, null_rows
from .wedderburn import (
    IdealSpec,
    _constraint_rows,
    _summand_forms,
    _xi_entries,
    full,
    minus_piece,
    plus_piece,
    row,
)

FAMILY_2N_MINUS_2 = "2n-2"
FAMILY_2N_MINUS_3_MINUS = "2n-3-minus"
FAMILY_2N_MINUS_3_PLUS = "2n-3-plus"
FAMILIES = (FAMILY_2N_MINUS_2, FAMILY_2N_MINUS_3_MINUS, FAMILY_2N_MINUS_3_PLUS)

DEFAULT_CAP = 10**6

# position-0 summand of each family: the image of R e_0, R((1-b)/2 e_0), R((1+b)/2 e_0)
_POSITION0 = {
    FAMILY_2N_MINUS_2: full,
    FAMILY_2N_MINUS_3_MINUS: minus_piece,
    FAMILY_2N_MINUS_3_PLUS: plus_piece,
}


class CodeFamily(_Record):
    """Which construction to run: family tag, twist index s, twist scalar beta.

    beta=None selects the canonical primitive element of F_q (order q-1).
    """

    tag: str
    s: int = 1
    beta: object = None


class Provenance(_Record):
    ctx: FieldCtx
    n: int
    tag: str
    s: int
    beta: FieldElement


class LinearCode:
    """A linear code of length 2n, held by its parity check H and its RREF
    generator (with its pivot columns, an information set), each derived
    from the other on first use.

    LinearCode(G) reduces G; construct_code enters through
    _from_parity_check with H, the spec's constraint rows, and k = 2n -
    rank H.  contains reads only H, and so does the dual engine unless the
    code's rate is low enough for the generator side (_dual_distance).
    """

    def __init__(self, generator: MatrixGF):
        reduced, _, pivots = generator.rref()
        self._start(generator.ctx, generator.cols, None, reduced=(reduced.nonzero_rows(), pivots))

    @classmethod
    def _from_parity_check(cls, ctx: FieldCtx, rows, provenance) -> "LinearCode":
        """Trusted entry for construct_code: the code is ker H, H given by its
        rows in ctx's entry form (linalg._entry_form)."""
        code = cls.__new__(cls)
        code._start(ctx, len(rows[0]), provenance, rows=rows)
        return code

    def _start(self, ctx: FieldCtx, length: int, provenance, rows=None, reduced=None):
        self.ctx, self.length, self.provenance = ctx, length, provenance
        self._rows, self._reduced, self._parity = rows, reduced, None
        self._distance: dict[str, int] = {}
        # the generator's rank, else the length less H's, found on the walk's entries
        self.k = len(reduced[1]) if reduced else length - _rank(*self._parity_check())

    def _rref(self) -> tuple[MatrixGF, list[int]]:
        if self._reduced is None:
            self._reduced = kernel_rref(self.ctx, self._rows, self.length)
        return self._reduced

    def _parity_check(self):
        """H's rows in the entry form, and that form; built once.  H is a
        constructed code's constraint rows, else [-A^T | I] read off the RREF
        generator [I | A] (linalg.null_rows); both come in the entry form."""
        if self._parity is None:
            rows = null_rows(*self._rref()) if self._rows is None else self._rows
            self._parity = rows, _entry_form(self.ctx)
        return self._parity

    @property
    def generator(self) -> MatrixGF:
        return self._rref()[0]

    @property
    def pivots(self) -> list[int]:
        return self._rref()[1]

    @property
    def singleton_bound(self) -> int:
        return self.length - self.k + 1

    def min_distance(self, method: str = "auto", cap: int = DEFAULT_CAP) -> int:
        """Exact minimum weight of a nonzero codeword.

        method "exhaustive" enumerates one codeword per GF(q)-line,
        (q^k-1)/(q-1) in all, since a word's nonzero multiples share its
        weight (still requires q^k - 1 <= cap); it forms each word on the
        free columns only, as a word is its message on the pivots.  "dual"
        visits at most cap column subsets, on one side (_dual_distance): the
        least number of dependent parity-check columns
        (_min_dependent_columns, whose depths 0 and 1, w <= 3, are free), or
        the length less the most generator columns on one hyperplane
        (_hyperplane_distance).  "auto" picks exhaustive when it fits under
        the cap.  A negative or bool cap is refused, whatever the method.
        """
        if not _is_int(cap) or cap < 0:
            raise ValueError(f"cap must be a count >= 0, got {cap}")
        if self.k == 0:
            raise ValueError("minimum distance of the zero code is undefined")
        if method == "auto":
            method = "exhaustive" if self.ctx.q**self.k - 1 <= cap else "dual"
        if method not in ("exhaustive", "dual"):
            raise ValueError(f"unknown distance method {method!r}")
        if method not in self._distance:
            if method == "exhaustive":
                self._distance[method] = _exhaustive_distance(self.generator, cap, self.pivots)
            else:
                self._distance[method] = _dual_distance(self, cap)
        return self._distance[method]

    def is_mds(self, method: str = "auto", cap: int = DEFAULT_CAP) -> bool:
        return self.min_distance(method, cap) == self.singleton_bound

    def contains(self, vector) -> bool:
        """Whether vector is a codeword: H v^T = 0, H the parity check, on
        the walk's entry form."""
        v = [self.ctx.element(e) for e in vector]
        if len(v) != self.length:
            raise ValueError(f"vector of length {len(v)}, code of length {self.length}")
        rows, field = self._parity_check()
        v = field.entries(v)
        return all(field.is_zero(sum(a * b for a, b in zip(h, v))) for h in rows)

    def parameters(self, method: str = "auto", cap: int = DEFAULT_CAP):
        return (self.length, self.k, self.min_distance(method, cap))

    def to_json(self) -> dict:
        doc = {
            "field": self.ctx.spec(),
            "length": self.length,
            "k": self.k,
            "generator": self.generator.to_json(),
        }
        if self.provenance is not None:
            doc["n"] = self.provenance.n
            doc["family"] = self.provenance.tag
            doc["s"] = self.provenance.s
            doc["beta"] = self.provenance.beta.to_list()
        return doc

    @classmethod
    def from_generator_rows(cls, ctx: FieldCtx, rows) -> "LinearCode":
        return cls(MatrixGF.from_rows(ctx, rows))

    def __repr__(self):
        return f"LinearCode([{self.length},{self.k}] over GF({self.ctx.q}))"


def load_code(doc: dict) -> LinearCode:
    """Rebuild a code from its JSON document (provenance not required)."""
    if not isinstance(doc, dict):
        raise ValueError(f"code document must be a JSON object, got {type(doc).__name__}")
    if "generator" not in doc:
        raise ValueError('code document has no "generator" key')
    return LinearCode(MatrixGF.from_json(doc["generator"]))


# ---------------------------------------------------------------------------
# construction


def _resolve_beta(ctx: FieldCtx, beta) -> FieldElement:
    if beta is None:
        return ctx.generator()
    beta = ctx.element(beta)
    if not beta:
        raise ZeroElementError("beta must be a nonzero field element")
    return beta


def require_odd_n(n: int) -> None:
    """Refuse an n that no code construction accepts: even, or below 3."""
    if n % 2 == 0:
        raise EvenNError(f"code constructions require odd n, got n={n}")
    if n < 3:
        raise ValueError(f"code constructions require n >= 3, got n={n}")


def construct_code(ctx: FieldCtx, n: int, family: CodeFamily) -> LinearCode:
    """Build one of the three ideal families as a LinearCode of length 2n."""
    require_odd_n(n)
    if family.tag not in FAMILIES:
        raise ValueError(f"unknown family tag {family.tag!r}")
    DihedralAlgebra(ctx, n)  # raises CharDividesOrderError
    s = family.s
    if not _is_int(s) or not 1 <= s <= (n - 1) // 2 or math.gcd(s, n) != 1:
        raise NotCoprimeError(
            f"s={s} must satisfy 1 <= s <= (n-1)/2={(n - 1) // 2} and gcd(s, n) = 1"
        )
    primitive_nth_root(ctx, n)  # the root check precedes the beta checks
    beta = _resolve_beta(ctx, family.beta)
    if family.tag in (FAMILY_2N_MINUS_2, FAMILY_2N_MINUS_3_MINUS):
        # the default beta is the canonical generator, of order q - 1
        ord_beta = ctx.q - 1 if family.beta is None else element_order(beta)
        if ord_beta <= 2 * n:
            raise BadOrderError(f"ord(beta)={ord_beta} <= 2n={2 * n}")
    else:
        if beta**n == ctx.one():
            raise BetaIsNthRootError(
                f"beta={beta.text()} satisfies beta^{n} = 1; need beta^n != 1"
            )
    blocks = [full()] * ((n - 1) // 2)
    blocks[s - 1] = row(ctx.one(), beta)
    spec = IdealSpec((_POSITION0[family.tag](), *blocks))
    prov = Provenance(ctx=ctx, n=n, tag=family.tag, s=s, beta=beta)
    return LinearCode._from_parity_check(ctx, _constraint_rows(ctx, n, spec), prov)


def generator_matrix_presentation(code: LinearCode, style: str = "rref") -> MatrixGF:
    """Generator matrix in the requested style.

    "rref" is the canonical reduced form.  "paper" lays out one row per
    ideal generator orbit, n e_j and n b e_j, which are P's coordinate
    forms (a22_j and a12_j for j <= (n-1)/2, a11_(n-j) and a21_(n-j)
    above): the constant row(s) first, then the twisted pair
    n (e_s + beta b e_(n-s)) and n (b e_s + beta e_(n-s)), then the
    remaining orbits in ascending index order.  Only available for codes
    built by construct_code.
    """
    if style == "rref":
        return code.generator
    if style != "paper":
        raise UnsupportedStyleError(f"unknown style {style!r}")
    prov = code.provenance
    if prov is None:
        raise UnsupportedStyleError(
            "structured presentation requires a code built by construct_code"
        )
    ctx, n, s = prov.ctx, prov.n, prov.s
    form, xi_pows, units = _xi_entries(ctx, n)
    if prov.tag == FAMILY_2N_MINUS_2:  # n e_0 = (1|0), n b e_0 = (0|1)
        z, o, _ = units
        rows = [[o] * n + [z] * n, [z] * n + [o] * n]
    else:  # n (1 -+ b) e_0
        g1, g2 = _summand_forms(xi_pows, 0, units)
        rows = [g2 if prov.tag == FAMILY_2N_MINUS_3_MINUS else g1]
    a11, a12, a21, a22 = _summand_forms(xi_pows, s, units)
    minus_beta = form.entries([-prov.beta])[0]
    rows += [form.submul(a22, minus_beta, a21), form.submul(a12, minus_beta, a11)]
    for j in range(1, n):
        if j not in (s, n - s):
            a11, a12, a21, a22 = _summand_forms(xi_pows, min(j, n - j), units)
            rows += [a22, a12] if j <= (n - 1) // 2 else [a11, a21]
    return MatrixGF._trusted(ctx, rows, 2 * n)


def left_ideal_closure_ok(code: LinearCode, algebra: DihedralAlgebra | None = None) -> bool:
    """Check a * row and b * row stay in the row space for every generator row.

    a and b generate D_2n, so a subspace closed under left multiplication
    by both is closed under every group monomial: it is a left ideal.
    """
    if algebra is None:
        if code.provenance is None:
            raise ValueError("need an algebra context for a hand-supplied code")
        algebra = DihedralAlgebra(code.provenance.ctx, code.provenance.n)
    if code.length != 2 * algebra.n:
        raise ValueError("code length does not match the algebra")
    gens, G = (algebra.a(), algebra.b()), code.generator
    return all(
        code.contains((g * phi_inv(algebra, G.row(i))).phi())
        for i in range(G.rows)
        for g in gens
    )


# ---------------------------------------------------------------------------
# distance engines


def _expansion_planes(ctx: FieldCtx, form, entries) -> list[list[list[int]]]:
    """The m planes x^j * entries (0 <= j < m) over GF(p): plane j holds the
    coefficient list of each entry times x^j.

    The entries are GF(q) entries in form, ctx's entry form
    (linalg._entry_form); plane j is form.canon of their native products by
    x^j, read out by form.coeffs.  Vectors over GF(p^m) have rank r exactly
    when their planes span a GF(p)-space of dimension m * r, so
    _exhaustive_distance enumerates codewords on these ints.
    """
    xs = form.entries([ctx.from_index(ctx.p**j) for j in range(1, ctx.m)])
    return [form.coeffs(entries)] + [form.coeffs(form.canon([x * e for e in entries])) for x in xs]


def _exhaustive_distance(gen: MatrixGF, cap: int, pivots: list[int]) -> int:
    """Least weight over one nonzero codeword per GF(q)-line, in numpy.

    A codeword and its q - 1 nonzero multiples have one weight, so only
    the words whose first nonzero row coefficient is 1 are enumerated:
    (q^k - 1)/(q - 1) of them.  The gate stays q^k - 1 <= cap.

    gen is in RREF with these pivot columns, so a word u gen is u itself
    on them and weighs wt(u) + wt(u A), A the free columns
    (MacWilliams-Sloane, ch. 1).  Only the free columns are enumerated, on
    the rows' prime-field expansions, built on gen's entry form by one path
    for every degree m (_expansion_planes); each word's count of nonzero
    coefficients rides along with it.

    numpy is imported here, on the first call, and nowhere else in the
    library: construction and the dual engine run on Python ints alone.
    """
    import numpy as np

    ctx = gen.ctx
    p, m = ctx.p, ctx.m
    count = ctx.q**gen.rows - 1
    if count > cap:
        raise CapExceededError(f"q^k - 1 = {count} exceeds cap = {cap}")
    if (p - 1) ** 2 >= 2**63:
        raise CapExceededError(f"exhaustive search needs (p-1)^2 < 2^63, got p = {p}")
    taken = set(pivots)
    free = [c for c in range(gen.cols) if c not in taken]
    if not free:  # k = length: the code is the whole space
        return 1
    # the multiples 0..p-1 of a vector, which a single row (k = 1) never takes
    f, scalars = len(free), np.arange(p if gen.rows > 1 else 0, dtype=np.int64)
    dtype = np.uint16 if p <= 2**15 else np.uint64  # holds a sum of two residues
    wtype = np.min_scalar_type(gen.cols)  # holds any weight

    def fold(span, v):  # word w, multiple s of v -> word s * words + w
        multiples = (v[:, None] * scalars % p).astype(dtype)
        span = np.add(span[:, None, :], multiples[:, :, None]).reshape(m * f, -1)
        # a sum s of two residues is below 2p; unsigned, s - p wraps past s when s < p
        return np.minimum(span, span - dtype(p), out=span)

    # lead row i, from the last up: its words are row i (expansion 0, coefficient 1)
    # plus each word of the GF(p)-span of the expansions of rows i+1..k-1.  span is
    # that span without its last vector, unfolded[-1], held plane-major (entry
    # t * f + c is plane t of free column c), one word per column; cw counts each
    # word's nonzero row coefficients, its weight on the pivot columns
    span, cw, unfolded, best = np.zeros((m * f, 1), dtype=dtype), np.zeros(1, dtype=wtype), [], gen.cols
    # row r's expansion j, plane-major: entry t * f + c is coefficient t of x^j A[r][c]
    planes = _expansion_planes(ctx, gen.form, [row[c] for row in gen.entries for c in free])
    expansions = np.array(planes).reshape(m, gen.rows, f, m).transpose(1, 0, 3, 2)
    for expansion in expansions.reshape(gen.rows, m, m * f)[::-1]:
        # row + w + s last is zero exactly where w == -row - s last mod p, so the
        # sums are never formed; a GF(q) entry is nonzero when any of its m planes is
        targets = (-expansion[0] % p)[:, None]
        if unfolded:
            for v in unfolded[:-1]:
                span = fold(span, v)
            # combination 0 of row i+1's m expansions, and only it, is its coefficient 0
            cw = np.add((np.arange(p**m) != 0)[:, None], cw, dtype=wtype).reshape(-1)
            targets = (targets - unfolded[-1][:, None] * scalars) % p
        planes, targets = span.reshape(m, f, 1, -1), targets.astype(dtype).reshape(m, f, -1, 1)
        nonzero = planes[0] != targets[0]
        for t in range(1, m):
            nonzero |= planes[t] != targets[t]
        best = min(best, 1 + int((cw + nonzero.sum(axis=0, dtype=wtype).reshape(-1)).min()))
        unfolded = unfolded[-1:] + list(expansion)
    return best


def _dual_distance(code: LinearCode, cap: int) -> int:
    """Distance of code from the columns of its generator or of its parity
    check H, the side chosen before H is built.

    The generator side goes first when its walk to depth k - 2 takes fewer
    subsets than the parity check's from depth 1 on, and cannot pass cap:
    it steps once per independent s-subset it reaches, s = 1..k-2, each
    with its last index below ncols - (k-2-s), so at most
    C(ncols + 1, k - 2) - 1 times.  That is an upper bound: the subsets
    its bound passes over, and the arc certificate, take no step.
    Otherwise the parity-check walk runs, its depths 0 and 1 free, so no
    call that it answers is refused here.
    """
    ncols, k = code.length, code.k
    steps = math.comb(ncols + 1, max(k - 2, 0)) - 1
    if steps <= cap and _subsets_over(ncols, range(1, ncols - k - 1), steps):
        columns = [list(c) for c in zip(*code.generator.entries)]
        return _hyperplane_distance(columns, _entry_form(code.ctx), cap)
    rows, field = code._parity_check()
    # zip drops every column of an H with no rows (k = length): those are empty
    cols = [list(c) for c in zip(*rows)] or [[] for _ in range(code.length)]
    return _min_dependent_columns(cols, field, cap, code)


def _rank(rows, field) -> int:
    """Rank of the matrix with these rows, held in field's entry form, found
    on its columns: each column, reduced modulo the independent ones before
    it (field.reduce, which drops their leads), is independent when it has
    a point (field.point).  The walk stops at as many as there are rows, so
    a paper code's H, of 2 or 3 rows, takes a few columns.
    """
    basis = []
    for v in zip(*rows):
        if len(basis) == len(rows):
            break
        v = list(v)
        for c in basis:
            v = field.reduce(c, [v])[0]
        c = field.point(v)
        if c is not None:
            basis.append(c)
    return len(basis)


def _subsets_over(ncols: int, depths, count: int) -> bool:
    """Whether the C(ncols, t) over these depths t sum to more than count.
    The sum stops once it passes count, so at length 2002 it takes a few
    binomials, not one per depth."""
    total = 0
    for t in depths:
        total += math.comb(ncols, t)
        if total > count:
            return True
    return False


def _budget(cap: int, side: str):
    """One next() per subset visited; past cap it raises CapExceededError."""
    yield from range(cap)
    raise CapExceededError(f"dual engine, {side} side: {cap + 1} column subsets > cap = {cap}")


def _independent_subsets(cols, field, t: int, budget, points=None, c=None, held=0, best=None):
    """Walk the independent t-subsets S of cols depth-first, in index order.

    At each S it yields held and the keys of the columns past S's last
    index modulo span(S): the projective points of what is left of them
    once reduced modulo S, None for a column in span(S).  held counts the
    columns up to that index known to lie in span(S): S's own, and each
    column whose point was None as a level passed over it.  A level hands
    the next the columns past the one it adds to S, reduced against c, the
    point of S's newest column (field.reduce, which drops c's lead), and
    the last level asks field.reduce for their keys straight away.  Column
    i joins S when what is left of it has a point.  Each subset reached
    takes one step of budget.  The first level takes the columns' points
    from points, depth 0's keys, if given.  With best, a one-item list of
    the most columns found on one hyperplane so far, a level stops at the
    first i where held and the columns from i on are no more than that:
    no subset past i can count more, so none is reached.
    """
    if t == 0:
        if c is not None:
            points = field.reduce(c, cols, True)
        yield held, field.points(cols) if points is None else points
        return
    if c is not None:
        cols = field.reduce(c, cols)
    for i in range(len(cols) - t + 1):
        if best is not None and held + len(cols) - i <= best[0]:
            return
        point = field.point(cols[i]) if points is None else points[i]
        if point is None:  # column i is in span(S)
            held += 1
        else:
            next(budget)
            yield from _independent_subsets(cols[i + 1:], field, t - 1, budget, None, point, held + 1, best)


def _hyperplane_distance(cols, field, cap: int = DEFAULT_CAP) -> int:
    """Minimum distance of the code whose full-rank generator has these columns.

    A codeword hG is zero exactly on the columns in the hyperplane h^perp,
    and the zero columns of a minimum-weight codeword span a hyperplane
    (were their span smaller, columns outside it would extend it to a
    hyperplane holding more columns).  So d is the length less the most
    columns on one hyperplane, each counted once, from its index-first
    basis: its first nonzero column, then each next one outside the span
    of those before, k - 1 in all, the first k - 2 of them S.  Its columns
    before S's last are then each in S or in the span of S's columns
    before it, held as the walk passes them (_independent_subsets), and
    those after are keyed None modulo span(S) or as its last basis column.
    So held, the key None and the largest other class at an S never count
    more columns than lie on one hyperplane, and at the index-first S of
    the fullest they count them all.  A level stops once it cannot pass
    the best count found, and only the subsets reached take budget.  With
    k = 3, columns that are nonzero, pairwise distinct points of one conic
    are an arc (_on_a_conic): a line holds at most 2 of them, so d is the
    length less 2, with no walk.  With k = 1 the hyperplane is 0: d counts
    nonzero columns.
    """
    k, points = len(cols[0]), field.points(cols)
    if k == 1:
        return sum(point is not None for point in points)
    if k == 3 and None not in points and len(set(points)) == len(points) and _on_a_conic(cols, field):
        return len(cols) - 2
    best = [0]
    for held, keys in _independent_subsets(cols, field, k - 2, _budget(cap, "generator"), points, best=best):
        classes = Counter(keys)
        best[0] = max(best[0], held + classes.pop(None, 0) + max(classes.values(), default=0))
    return len(cols) - best[0]


def _min_dependent_columns(cols, field, cap: int = DEFAULT_CAP, code: LinearCode | None = None):
    """Least w such that some w of the given columns are linearly dependent.

    Each column is a list of its GF(q) entries in field's form (_entry_form).
    One rule answers every size.  In a minimal dependent set, let S be its
    w - 2 first columns and j < l its last two: S is independent and
    span(S, j) = span(S, l).  So iterative deepening walks the independent
    subsets S at depth t = w - 2 and keys each later column modulo span(S)
    (_independent_subsets): a repeat is w dependent columns, and the key
    None, met only at depth 0, is a zero column (w = 1).  Depths 0 and 1
    (w <= 3) take O(ncols^2) keys and no budget; if they find nothing and
    h <= 3, any h + 1 columns are dependent, so the paper's codes (h = 2
    or 3) need no deeper walk.  With h = 3, a conic through the columns
    (_on_a_conic) answers 4 in place of depth 1; without one, depth 1 runs.

    From depth 2 on, each subset reached takes one step of the cap, on the
    side with fewer subsets: code, if given, is the null space of these
    columns' matrix, and when the C(ncols, k-2) subsets of its dimension k
    are no more than those of depths 2..h-2, _hyperplane_distance answers
    from its generator's columns.  (_dual_distance sends a code whose
    generator walk is shorter than depths 1..h-2 and fits under cap there
    before depth 0.)
    """
    ncols, h = len(cols), len(cols[0])
    budget, free = _budget(cap, "parity-check"), itertools.repeat(None)
    points = None  # every column's point: depth 0's keys, reused by each deeper first level
    for t in range(max(h - 1, 1)):  # depth t finds w = t + 2
        if t == 1 and h == 3 and _on_a_conic(cols, field):
            return 4
        if t == 2 and code is not None and _subsets_over(
            ncols, range(2, h - 1), math.comb(ncols, max(code.k - 2, 0)) - 1
        ):
            gen = code.generator.entries
            return _hyperplane_distance([list(c) for c in zip(*gen)], field, cap)
        for _, keys in _independent_subsets(cols, field, t, budget if t > 1 else free, points):
            if None in keys:
                return t + 1
            if len(set(keys)) < len(keys):
                return t + 2
            if t == 0:
                points = keys
    return h + 1  # any h+1 vectors in F_q^h are dependent


def _on_a_conic(cols, field) -> bool:
    """Whether these columns of 3 entries, six or more and pairwise distinct
    points, lie on one nondegenerate conic; then no three are collinear.

    A line meets a nondegenerate conic in at most 2 points (Segre 1955), so
    such columns form an arc in PG(2, q): any 3 are independent, and the
    least number of dependent ones is 4 (MacWilliams-Sloane, ch. 11).  When
    no three of the first five points P1..P5 are collinear (the walk, on
    those five alone), exactly one conic passes through them, and it is not
    a line pair.  With lij = Pi x Pj the line through Pi and Pj, the conics
    through P1..P4 are the pencil spanned by l12 l34 and l13 l24, and the
    one through P5 is Q = l13(P5) l24(P5) l12 l34 - l12(P5) l34(P5) l13 l24.
    Its coefficients q_ij on x_i x_j are found once, and every other column
    must satisfy x0 (q00 x0 + q01 x1 + q02 x2) + x1 (q11 x1 + q12 x2) +
    q22 x2^2 = 0: 9 products, the deepest expression the entry forms hold
    unreduced.  Only + - *, no division, so it holds in every
    characteristic.  False is never wrong, only slower: depth 1 then runs.
    """
    if len(cols) < 6 or _min_dependent_columns(cols[:5], field) != 4:
        return False
    canon = field.canon

    def line(u, v):
        return canon([u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]])

    def at(h, x):
        return h[0] * x[0] + h[1] * x[1] + h[2] * x[2]

    def times(h, g):  # h(x) g(x) on the monomials x_i x_j, i <= j
        pairs = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
        return [h[i] * g[i] if i == j else h[i] * g[j] + h[j] * g[i] for i, j in pairs]

    p1, p2, p3, p4, p5 = cols[:5]
    l12, l34, l13, l24 = line(p1, p2), line(p3, p4), line(p1, p3), line(p2, p4)
    v13, v24, v12, v34 = canon([at(h, p5) for h in (l13, l24, l12, l34)])
    a, b = canon([v13 * v24, v12 * v34])
    q00, q01, q02, q11, q12, q22 = canon(
        [a * u - b * w for u, w in zip(times(l12, l34), times(l13, l24))]
    )
    return not any(canon([x0 * (q00 * x0 + q01 * x1 + q02 * x2) + x1 * (q11 * x1 + q12 * x2)
                          + q22 * x2 * x2 for x0, x1, x2 in cols[5:]]))
