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
closed-form constraint rows H: none, g1 or g2 at position 0, and block
s's two.  construct_code builds them straight from the family, with no
Summand and no division, by the spec route's row builders
(wedderburn._position0_rows, _row_rows), keeps H
(LinearCode._from_parity_check), takes k = 2n - h from one determinant
of H's leading h x h block (_rank), and finds the RREF generator from it
only on first use (linalg.kernel_rref); the public constructor,
load_code and from_generator_rows reduce the generator they are given
(one that elimination built, as code_from_ideal_spec's,
carries its (pivots, A) and is taken as it is) and take H = [-A^T | I]
off G = [I | A] (linalg.dual).  Either way H is the one parity check:
contains tests H v^T = 0.  The generator is held in systematic form,
(pivots, A), A its rows' entries on the free columns: h of them per row
for a paper code, against 2n dense.  Its rows are built one at a time
where they are read (linalg.echelon_rows), and the dense matrix only for
the public LinearCode.generator.  H, like every matrix, holds the
field's entry form (FieldCtx.form): residues over GF(p), packed integers
over GF(p^m), each a gf._Form with the same canon, is_zero, submul,
point, points and reduce.  The paper-style presentation streams its
rows, n e_j and n b e_j, from the same two row builders on that form
(presentation_rows).

Minimum distance is computed two independent ways, both exact, with no
limit on q: exhaustive enumeration, in numpy, of every codeword up to a
nonzero multiple, gated at q^k - 1 <= cap, which forms only the RREF
generator's free columns, A, on their prime-field expansions (each row
times x^j, on the entry form: _expansion_planes, which reach numpy as
one flat list of ints, every row's multiples formed in one product
before any fold), and counts the pivot columns as the word's nonzero
message coefficients: the span of rows 2..k-1 is compared once against
a table of q + 2 targets, one per kind of lead (row 0 with each
coefficient of row 1, row 1, a row below), so q^(k-1) + 2 q^(k-2) words
are formed; and the dual engine, the
least number of dependent columns of H by one depth-first walk over
independent column subsets (_min_dependent_columns), or, for a low-rate
code, the most generator columns on one hyperplane (_hyperplane_distance),
each hyperplane counted once, from its index-first basis, the side chosen
before depth 0 (_dual_distance).  The paper's codes have 2 or 3 parity
checks, so depths 0 and 1 settle them and never build the generator; the
2n-3 codes' columns lie on one conic, an arc, so d = 4 with no depth-1
walk: ten 3x3 determinants show no three of the first five collinear,
and every other column lies on the conic through those five
(_on_a_conic).  Their duals, [2n,3,2n-2] ideals, are arcs on the
generator side in turn: d = 2n - 2 with no walk.  numpy is imported on
the first exhaustive call only.

Left multiplication by a and by b maps a left ideal to itself and
permutes its 2n phi coordinates, and the group they generate acts
regularly on them (Bernal, del Rio and Simon 2009): some minimum-weight
word holds column 0, and some fullest hyperplane passes through it.  So
once a code is certified a left ideal (LinearCode._is_left_ideal: each
row's images under a and b reduce to 0 against the smaller systematic
basis, the generator's or its dual's, _closed), each dual walk's top
level stops after column 0 (_independent_subsets).  The certificate is
found when a top level is about to take column 1, so a walk settled at
column 0, and a paper code, never pays for it; left_ideal_closure_ok
answers from it too.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

from .dihedral import DihedralAlgebra
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
from .gf import FieldCtx, FieldElement, _is_int, _xi_entries, element_order
from .linalg import MatrixGF, dual, echelon, echelon_rows, free_columns, kernel_rref, null_rows
from .wedderburn import FULL, MINUS_PIECE, PLUS_PIECE, _position0_rows, _row_rows

FAMILY_2N_MINUS_2 = "2n-2"
FAMILY_2N_MINUS_3_MINUS = "2n-3-minus"
FAMILY_2N_MINUS_3_PLUS = "2n-3-plus"
FAMILIES = (FAMILY_2N_MINUS_2, FAMILY_2N_MINUS_3_MINUS, FAMILY_2N_MINUS_3_PLUS)

DEFAULT_CAP = 10**6

# each family's position-0 summand, R e_0, R((1-b)/2 e_0), R((1+b)/2 e_0): H keeps none, g1, g2
_POSITION0 = {
    FAMILY_2N_MINUS_2: FULL,
    FAMILY_2N_MINUS_3_MINUS: MINUS_PIECE,
    FAMILY_2N_MINUS_3_PLUS: PLUS_PIECE,
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
    generator, each derived from the other on first use.  The generator is
    held in systematic form (pivots, A) and nothing denser: its k pivot
    columns, an information set, and A, each of its k rows' entries on the
    2n - k free columns (linalg.kernel_rref).  For a paper code, with
    h = 2 or 3 parity checks, A holds (2n - h) h entries, against
    (2n - h) 2n for the dense rows.

    LinearCode(G) shares the (pivots, A) that G's RREF carries, with no
    elimination when elimination built G;
    construct_code enters through _from_parity_check with H, the family's
    constraint rows, and k = 2n - rank H, one determinant for its 2 or 3
    rows (_rank).  contains reads only H, as does the dual engine unless
    the code's rate is low enough for the generator side (_dual_distance).
    The exhaustive engine reads A alone; the generator-side walk, _closed,
    to_json and the CLI's document writer build rows or columns from
    (pivots, A) as they go, and the public generator builds the dense
    matrix each time it is read.
    """

    def __init__(self, generator: MatrixGF):
        self._start(generator.ctx, generator.cols, None, systematic=generator.rref()[0]._systematic)

    @classmethod
    def _from_parity_check(cls, ctx: FieldCtx, rows, provenance) -> "LinearCode":
        """Trusted entry for construct_code: the code is ker H, H given by its
        rows in ctx's entry form (FieldCtx.form)."""
        code = cls.__new__(cls)
        code._start(ctx, len(rows[0]), provenance, rows=rows)
        return code

    def _start(self, ctx: FieldCtx, length: int, provenance, rows=None, systematic=None):
        self.ctx, self.length, self.provenance = ctx, length, provenance
        self._parity, self._systematic_form, self._left_ideal = rows, systematic, None
        self._distance: dict[str, int] = {}
        # the generator's rank, else the length less H's
        self.k = len(systematic[0]) if systematic else length - _rank(self._parity_check(), ctx.form)

    def _systematic(self) -> tuple[list[int], list]:
        """The RREF generator's (pivots, A), found once."""
        if self._systematic_form is None:
            self._systematic_form = kernel_rref(self.ctx, self._parity, self.length)
        return self._systematic_form

    def _parity_check(self) -> list[list]:
        """H's rows in the field's entry form; H is built once.  It is a
        constructed code's constraint rows, else [-A^T | I] read off the
        RREF generator [I | A] (linalg.null_rows)."""
        if self._parity is None:
            self._parity = null_rows(self.ctx, *self._systematic(), self.length)
        return self._parity

    def _generator_columns(self) -> list[tuple]:
        """The RREF generator's columns, read off (pivots, A) row by row."""
        return list(zip(*echelon_rows(*self._systematic(), self.length)))

    def _is_left_ideal(self) -> bool:
        """Whether left multiplication by a and by b maps the code to
        itself (_closed), found once, on the smaller systematic basis: the
        RREF generator's, or its dual's (linalg.dual) when that has fewer
        rows (C is invariant under a coordinate permutation exactly when its
        dual is)."""
        if self._left_ideal is None:
            pivots, A = self._systematic()
            if 2 * self.k > self.length:
                pivots, A = dual(self.ctx, pivots, A, self.length)
            n, odd = divmod(self.length, 2)
            self._left_ideal = not odd and _closed(pivots, A, self.ctx.form, n)
        return self._left_ideal

    @property
    def generator(self) -> MatrixGF:
        """The dense RREF generator, built from (pivots, A) on each read."""
        return echelon(self.ctx, *self._systematic(), self.length)

    @property
    def pivots(self) -> list[int]:
        return list(self._systematic()[0])

    @property
    def singleton_bound(self) -> int:
        return self.length - self.k + 1

    def min_distance(self, method: str = "auto", cap: int = DEFAULT_CAP) -> int:
        """Exact minimum weight of a nonzero codeword.

        method "exhaustive" weighs every codeword up to a nonzero multiple,
        which shares its weight (still requires q^k - 1 <= cap): the span of
        rows 2..k-1 against a table of q + 2 targets, q^(k-1) + 2 q^(k-2)
        words (_exhaustive_distance), each formed on the free columns only,
        as a word is its message on the pivots.  "dual"
        visits at most cap column subsets, on one side (_dual_distance): the
        least number of dependent parity-check columns
        (_min_dependent_columns, whose depths 0 and 1, w <= 3, are free), or
        the length less the most generator columns on one hyperplane
        (_hyperplane_distance).  "auto" picks exhaustive when it fits under
        the cap.  A negative or bool cap is refused, whatever the method,
        and so is an exhaustive call over the cap, even once an answer is
        cached.  A cached dual answer is returned whatever the cap, since the
        dual cap bounds the subsets a walk visits, and a cached answer
        visits none.
        """
        if not _is_int(cap) or cap < 0:
            raise ValueError(f"cap must be a count >= 0, got {cap}")
        if self.k == 0:
            raise ValueError("minimum distance of the zero code is undefined")
        if method not in ("auto", "exhaustive", "dual"):
            raise ValueError(f"unknown distance method {method!r}")
        if method != "dual":  # the exhaustive gate, checked before the cache
            count = self.ctx.q**self.k - 1
            if method == "auto":
                method = "exhaustive" if count <= cap else "dual"
            elif count > cap:
                raise CapExceededError(f"q^k - 1 = {count} exceeds cap = {cap}")
        if method not in self._distance:
            if method == "exhaustive":
                self._distance[method] = _exhaustive_distance(self.ctx, self._systematic()[1], self.length)
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
        rows, field = self._parity_check(), self.ctx.form
        v = field.entries(v)
        return all(field.is_zero(sum(a * b for a, b in zip(h, v))) for h in rows)

    def parameters(self, method: str = "auto", cap: int = DEFAULT_CAP):
        return (self.length, self.k, self.min_distance(method, cap))

    def to_json(self) -> dict:
        """The code's document, its generator the RREF's: the entries are
        built row by row from (pivots, A) (linalg.echelon_rows), each the
        coefficient list of its value.  One list is made per distinct value
        per document and shared by every entry that holds it (json.dumps
        reads a shared list as it reads equal ones), so a document makes at
        most q lists, not one per entry, and no two documents share one."""
        pivots, A = self._systematic()
        values = list({0, 1}.union(*A))
        lists = dict(zip(values, self.ctx.form.coeffs(values)))
        A = [list(map(lists.__getitem__, a)) for a in A]
        entries = list(echelon_rows(pivots, A, self.length, lists[0], lists[1]))
        generator = {"rows": self.k, "cols": self.length, "field": self.ctx.spec(), "entries": entries}
        doc = {"field": self.ctx.spec(), "length": self.length, "k": self.k, "generator": generator}
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
    """Build one of the three ideal families as a LinearCode of length 2n, held
    by H: its position-0 row, if any, and block s's rows for (1, beta)."""
    require_odd_n(n)
    if family.tag not in FAMILIES:
        raise ValueError(f"unknown family tag {family.tag!r}")
    DihedralAlgebra(ctx, n)  # raises CharDividesOrderError
    s = family.s
    if not _is_int(s) or not 1 <= s <= (n - 1) // 2 or math.gcd(s, n) != 1:
        raise NotCoprimeError(
            f"s={s} must satisfy 1 <= s <= (n-1)/2={(n - 1) // 2} and gcd(s, n) = 1"
        )
    xi_pows = _xi_entries(ctx, n)  # the root check precedes the beta checks
    beta = _resolve_beta(ctx, family.beta)
    if family.tag in (FAMILY_2N_MINUS_2, FAMILY_2N_MINUS_3_MINUS):
        # the default beta is the canonical generator, of order q - 1
        ord_beta = ctx.q - 1 if family.beta is None else element_order(beta)
        if ord_beta <= 2 * n:
            raise BadOrderError(f"ord(beta)={ord_beta} <= 2n={2 * n}")
    elif family.beta is not None and beta**n == ctx.one():  # q - 1 > n: the default is no n-th root
        raise BetaIsNthRootError(f"beta={beta.text()} satisfies beta^{n} = 1; need beta^n != 1")
    # block s is row(1, beta), canonical as it stands: no division, and no IdealSpec to check it
    (y,) = ctx.form.entries([beta])
    rows = _position0_rows(ctx, n, _POSITION0[family.tag]) + _row_rows(ctx.form, xi_pows, s, 1, y)
    prov = Provenance(ctx=ctx, n=n, tag=family.tag, s=s, beta=beta)
    return LinearCode._from_parity_check(ctx, rows, prov)


def generator_matrix_presentation(code: LinearCode, style: str = "rref") -> MatrixGF:
    """Generator matrix in the requested style (presentation_rows); the
    rref one is code.generator, which carries its systematic form."""
    if style == "rref":
        return code.generator
    return MatrixGF._trusted(code.ctx, list(presentation_rows(code, style)), code.length)


def presentation_rows(code: LinearCode, style: str = "rref"):
    """The generator's rows in the requested style, in the field's entry
    form, each built as it is read; the style is checked at the call.

    "rref" is the canonical reduced form, from (pivots, A).  "paper" lays
    out one row per ideal generator orbit, n e_j and n b e_j, P's forms
    a22_j and a12_j, block j's rows of row(-1, 0) reversed (_row_rows):
    the constant row(s) first (n e_0 and n b e_0, or the position-0 form of
    the other piece), then the twisted pair n (e_s + beta b e_(n-s)) and
    n (b e_s + beta e_(n-s)), row(-1, beta)'s at block s, then the
    remaining orbits in ascending index order.  Only available for codes
    built by construct_code.
    """
    if style == "rref":
        return echelon_rows(*code._systematic(), code.length)
    if style != "paper":
        raise UnsupportedStyleError(f"unknown style {style!r}")
    if code.provenance is None:
        raise UnsupportedStyleError(
            "structured presentation requires a code built by construct_code"
        )
    return _paper_rows(code.provenance)


def _paper_rows(prov: Provenance):
    ctx, n, s = prov.ctx, prov.n, prov.s
    form, xi_pows = ctx.form, _xi_entries(ctx, n)
    if prov.tag == FAMILY_2N_MINUS_2:  # n e_0 = (1|0), n b e_0 = (0|1)
        yield from ([1] * n + [0] * n, [0] * n + [1] * n)
    else:  # n (1 -+ b) e_0, the form that vanishes on the other piece
        other = PLUS_PIECE if prov.tag == FAMILY_2N_MINUS_3_MINUS else MINUS_PIECE
        yield from _position0_rows(ctx, n, other)
    (y,) = form.entries([prov.beta])
    yield from reversed(_row_rows(form, xi_pows, s, -1, y))  # a22 + beta a21, a12 + beta a11
    for j in range(1, n):
        if j not in (s, n - s):
            yield from reversed(_row_rows(form, xi_pows, j, -1, 0))  # a22_j, a12_j


def left_ideal_closure_ok(code: LinearCode) -> bool:
    """Check a * row and b * row stay in the row space for every generator row.

    a and b generate D_2n, so a subspace of F_q^2n in phi coordinates closed
    under left multiplication by both is closed under every group monomial:
    it is a left ideal.  The code alone gives the answer, the dual engine's
    certificate (LinearCode._is_left_ideal); a code of odd length is none.
    """
    return code._is_left_ideal()


def _closed(pivots, A, field, n: int) -> bool:
    """Whether the row space of the systematic form (pivots, A), an RREF
    or its dual's, of length 2n in phi coordinates held in field's entry
    form, is closed under left multiplication by a and b.

    On phi coordinates a moves a^i to a^(i+1) and b a^j to b a^(j-1), and
    b swaps the halves a^i and b a^i (dihedral.py).  Each row, rebuilt from
    (pivots, A), has its two images reduced against the rows by their
    entries at the pivots, on the free columns, where the rows are A; the
    span is closed when every image leaves 0 there.
    """
    free = free_columns(pivots, 2 * n)
    for r in echelon_rows(pivots, A, 2 * n):
        for v in (r[n - 1:n] + r[:n - 1] + r[n + 1:] + r[n:n + 1], r[n:] + r[:n]):  # a r, b r
            left = [v[j] for j in free]
            for c, w in zip(pivots, A):
                if v[c]:
                    left = [x - v[c] * y for x, y in zip(left, w)]
            if any(field.canon(left)):
                return False
    return True


# ---------------------------------------------------------------------------
# distance engines


def _expansion_planes(ctx: FieldCtx, entries) -> list[int]:
    """The m planes x^j * entries (0 <= j < m) over GF(p), as one flat list
    of ints: plane j, then entry i, then coefficient t, at index
    (j * len(entries) + i) * m + t, the coefficient t of entries[i] x^j.

    The entries are GF(q) entries in ctx's entry form (FieldCtx.form);
    plane j is form.canon of their native products by x^j, read out by
    form.flat_coeffs, one path for every m (over GF(p), the residues
    themselves).  Vectors over GF(p^m) have rank r exactly when their
    planes span a GF(p)-space of dimension m * r, so _exhaustive_distance
    enumerates codewords on these ints.
    """
    form = ctx.form
    xs = form.entries([ctx.from_index(ctx.p**j) for j in range(1, ctx.m)])
    return form.flat_coeffs(list(entries) + form.canon([x * e for x in xs for e in entries]))


def _exhaustive_distance(ctx: FieldCtx, A, length: int) -> int:
    """Least weight over one nonzero codeword per GF(q)-line, in numpy.

    A codeword and its q - 1 nonzero multiples have one weight, so only
    the words whose first nonzero row coefficient is 1 need weighing.  The
    caller gates q^k - 1 <= cap (LinearCode.min_distance).

    A is the free block of an RREF generator of this length, held in
    ctx's entry form (LinearCode._systematic), so a word u G is u itself
    on the pivots and weighs wt(u) + wt(u A) (MacWilliams-Sloane, ch. 1).
    Only the free columns are formed, on the prime-field expansions of A's
    rows, which reach numpy as one flat list of ints, built on the entry
    form by one path for every degree m
    (_expansion_planes).  The multiples s x^j row r, every s in GF(p), of
    rows 1..k-1 are formed in one product before any fold, and a fold
    adds one expansion's multiples to every word.  The span of the
    expansions of rows 2..k-1 is folded once, q^(k-2) words w, each with
    its count of nonzero coefficients, and compared once against a table
    of q + 2 targets t, one fold of row 0 by row 1 with row 1 and the zero
    word appended: row 0 + c row 1, one per c in GF(q), for the words led
    by row 0; row 1, for those led by row 1; and 0, for those led by a row
    below, the zero word left out.  Against t, w stands for the codeword
    t - w, zero exactly where w equals t (the span is its own negative, and
    w and -w have one count), which weighs t's offset (1 + [c != 0], 1 or
    0) plus w's count plus its nonzero free entries.  So q^(k-1) + 2 q^(k-2)
    words are formed, for (q^k - 1)/(q - 1) lines, in a fixed number of
    numpy calls plus one fold per expansion of rows 1..k-1.  With k = 1
    there is no span: d is 1 plus row 0's nonzero free entries.

    k = 1 and k = length are answered before any word is formed, at any p.
    numpy is imported only past them, when words are formed, and nowhere
    else in the library: construction and the dual engine run on Python
    ints alone.
    """
    p, m, q, k = ctx.p, ctx.m, ctx.q, len(A)
    f = length - k
    if not f:  # k = length: the code is the whole space
        return 1
    if k == 1:  # entries are canonical, so 0 is the only zero
        return 1 + sum(1 for e in A[0] if e)
    if (p - 1) ** 2 >= 2**63:
        raise CapExceededError(f"exhaustive search needs (p-1)^2 < 2^63, got p = {p}")
    import numpy as np

    dtype = np.uint16 if p <= 2**15 else np.uint64  # holds a sum of two residues
    wtype = np.min_scalar_type(length)  # holds any weight

    def fold(span, multiples):  # word w, multiple s of one expansion -> word s * words + w
        span = np.add(span[:, None, :], multiples[:, :, None]).reshape(m * f, -1)
        # a sum s of two residues is below 2p; unsigned, s - p wraps past s when s < p
        return np.minimum(span, span - dtype(p), out=span)

    # row r's expansion j, plane-major: entry t * f + c is coefficient t of x^j A[r][c]
    flat = _expansion_planes(ctx, [e for row in A for e in row])
    expansions = np.array(flat, dtype=np.int64).reshape(m, k, f, m).transpose(1, 0, 3, 2).reshape(k, m, m * f)
    # multiples[r - 1, j, :, s] = s x^j row r, for rows 1..k-1, in one product:
    # no int64 passes (p-1)^2 < 2^63
    multiples = (expansions[1:, :, :, None] * np.arange(p, dtype=np.int64) % p).astype(dtype)
    # the GF(p)-span of rows 2..k-1's expansions, one word per column; cw counts
    # each word's nonzero row coefficients, its weight on the pivot columns
    span, cw, coefficient = np.zeros((m * f, 1), dtype=dtype), np.zeros(1, dtype=wtype), np.arange(q) != 0
    for row in multiples[1:]:
        for expansion in row:
            span = fold(span, expansion)
        # combination 0 of a row's m expansions, and only it, is its coefficient 0
        cw = np.add(coefficient[:, None], cw, dtype=wtype).reshape(-1)
    # targets: row 0 + c row 1 for each c, then row 1 and 0, its multiples 1 and 0
    led = expansions[0, 0][:, None].astype(dtype)
    for expansion in multiples[0]:
        led = fold(led, expansion)
    targets = np.concatenate((led, multiples[0, 0, :, 1::-1]), axis=1)
    offsets = np.full(q + 2, 2, dtype=wtype)  # rows 0 and 1's nonzero coefficients
    offsets[0] = offsets[q] = 1
    offsets[-1] = 0
    # a GF(q) entry is nonzero when any of its m planes is
    planes, targets = span.reshape(m, f, 1, -1), targets.reshape(m, f, -1, 1)
    nonzero = planes[0] != targets[0]
    for t in range(1, m):
        nonzero |= planes[t] != targets[t]
    weights = nonzero.sum(axis=0, dtype=wtype)
    weights += cw
    weights += offsets[:, None]
    weights[-1, 0] = length  # the zero word, which no row leads
    return int(weights.min())


def _dual_distance(code: LinearCode, cap: int) -> int:
    """Distance of code from the columns of its generator or of its parity
    check H, the side chosen before H is built.

    The generator side goes first when its walk to depth k - 2 takes fewer
    subsets than the parity check's from depth 1 on, and cannot pass cap:
    it steps once per independent s-subset it reaches, s = 1..k-2, each
    with its last index below ncols - (k-2-s), so at most
    C(ncols + 1, k - 2) - 1 times.  That is an upper bound: the subsets
    its bound passes over, those a left ideal's walk skips past column 0,
    and the arc certificate take no step.
    Otherwise the parity-check walk runs, its depths 0 and 1 free, so no
    call that it answers is refused here.
    """
    ncols, k = code.length, code.k
    steps = math.comb(ncols + 1, max(k - 2, 0)) - 1
    if steps <= cap and _subsets_over(ncols, range(1, ncols - k - 1), steps):
        return _hyperplane_distance(code._generator_columns(), code.ctx.form, cap, code._is_left_ideal)
    # H's columns as zip gives them, tuples; zip drops every column of an H
    # with no rows (k = length): those are empty
    cols = list(zip(*code._parity_check())) or [()] * code.length
    return _min_dependent_columns(cols, code.ctx.form, cap, code)


def _rank(rows, field) -> int:
    """Rank of the matrix with these rows, held in field's entry form.  Two
    or three rows whose leading square block has a nonzero determinant, one
    expression of at most six cubic products (field.is_zero), are
    independent; every paper code's H is such.  Any other matrix is
    eliminated (MatrixGF.rref).
    """
    h, cols = len(rows), len(rows[0])
    if h in (2, 3) and cols >= h:
        if h == 3:
            (a, b, c), (d, e, f), (g, i, j) = (r[:3] for r in rows)
            det = a * (e * j - f * i) - b * (d * j - f * g) + c * (d * i - e * g)
        else:
            (a, b), (c, d) = (r[:2] for r in rows)
            det = a * d - b * c
        if not field.is_zero(det):
            return h
    return MatrixGF._trusted(field.ctx, rows, cols).rref()[1]


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


def _independent_subsets(cols, field, t: int, budget, points=None, c=None, held=0, best=None,
                         symmetric=None):
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
    no subset past i can count more, so none is reached.  With symmetric,
    the certificate that the columns' code is a left ideal
    (LinearCode._is_left_ideal), the first level stops after column 0
    once it holds, so every S starts there; it is asked only when that
    level is about to take column 1.
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
        if i == 1 and symmetric is not None and symmetric():
            return
        point = field.point(cols[i]) if points is None else points[i]
        if point is None:  # column i is in span(S)
            held += 1
        else:
            next(budget)
            yield from _independent_subsets(cols[i + 1:], field, t - 1, budget, None, point, held + 1, best)


def _hyperplane_distance(cols, field, cap: int = DEFAULT_CAP, symmetric=None) -> int:
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
    nonzero columns.  With symmetric, the certificate that the code is a
    left ideal, whose a/b symmetry moves column 0 onto some fullest
    hyperplane, where it is its first basis column (no column of an ideal
    of k >= 1 is zero), only the S that start at column 0 are walked once
    it holds.
    """
    k, points = len(cols[0]), field.points(cols)
    if k == 1:
        return sum(point is not None for point in points)
    if k == 3 and None not in points and len(set(points)) == len(points) and _on_a_conic(cols, field):
        return len(cols) - 2
    best = [0]
    budget = _budget(cap, "generator")
    for held, keys in _independent_subsets(cols, field, k - 2, budget, points, best=best, symmetric=symmetric):
        classes = Counter(keys)
        best[0] = max(best[0], held + classes.pop(None, 0) + max(classes.values(), default=0))
    return len(cols) - best[0]


def _min_dependent_columns(cols, field, cap: int = DEFAULT_CAP, code: LinearCode | None = None):
    """Least w such that some w of the given columns are linearly dependent.

    Each column is a list of its GF(q) entries in field, their field's
    entry form (FieldCtx.form).
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
    before depth 0.)  When code is a certified left ideal
    (LinearCode._is_left_ideal), its a/b symmetry moves some minimum-weight
    word onto column 0, the first of its dependent columns, so from depth
    1 on only the S that start at column 0 are walked, on either side.
    """
    ncols, h = len(cols), len(cols[0])
    budget, free = _budget(cap, "parity-check"), itertools.repeat(None)
    symmetric = None if code is None else code._is_left_ideal
    points = None  # every column's point: depth 0's keys, reused by each deeper first level
    for t in range(max(h - 1, 1)):  # depth t finds w = t + 2
        if t == 1 and h == 3 and _on_a_conic(cols, field):
            return 4
        if t == 2 and code is not None and _subsets_over(
            ncols, range(2, h - 1), math.comb(ncols, max(code.k - 2, 0)) - 1
        ):
            return _hyperplane_distance(code._generator_columns(), field, cap, symmetric)
        walk = _independent_subsets(cols, field, t, budget if t > 1 else free, points, symmetric=symmetric)
        for _, keys in walk:
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
    least number of dependent ones is 4 (MacWilliams-Sloane, ch. 11).  With
    lij = Pi x Pj the line through Pi and Pj, det(Pi, Pj, Pk) = lij(Pk).
    The ten of the first five points P1..P5, i < j < k, are all nonzero
    exactly when no column among them is zero, no two are proportional and
    no three are collinear; then exactly one conic passes through them, and
    it is not a line pair.  The conics through P1..P4 are the pencil spanned
    by l12 l34 and l13 l24, and the one through P5 is Q = l13(P5) l24(P5)
    l12 l34 - l12(P5) l34(P5) l13 l24, whose four values are four of the ten.
    Its coefficients q_ij on x_i x_j are found once, and every other column
    must satisfy x0 (q00 x0 + q01 x1 + q02 x2) + x1 (q11 x1 + q12 x2) +
    q22 x2^2 = 0.  Two of the ten, l14(P5) and l23(P5), are taken on
    unreduced lines: six cubic products each, as in that test, the deepest
    expressions the entry forms hold unreduced.  All of it is written out on
    the points' coordinates, + - * alone, so it holds in every
    characteristic.  False is never wrong, only slower: depth 1 then runs.
    """
    if len(cols) < 6:
        return False
    canon = field.canon
    (x1, y1, z1), (x2, y2, z2), (x3, y3, z3), (x4, y4, z4), (x5, y5, z5) = cols[:5]
    a12, b12, c12, a34, b34, c34, a13, b13, c13, a24, b24, c24 = canon([  # l12, l34, l13, l24
        y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2,
        y3 * z4 - z3 * y4, z3 * x4 - x3 * z4, x3 * y4 - y3 * x4,
        y1 * z3 - z1 * y3, z1 * x3 - x1 * z3, x1 * y3 - y1 * x3,
        y2 * z4 - z2 * y4, z2 * x4 - x2 * z4, x2 * y4 - y2 * x4,
    ])
    dets = canon([
        a13 * x5 + b13 * y5 + c13 * z5, a24 * x5 + b24 * y5 + c24 * z5,  # 135, 245
        a12 * x5 + b12 * y5 + c12 * z5, a34 * x5 + b34 * y5 + c34 * z5,  # 125, 345
        a12 * x3 + b12 * y3 + c12 * z3, a12 * x4 + b12 * y4 + c12 * z4,  # 123, 124
        a34 * x1 + b34 * y1 + c34 * z1, a34 * x2 + b34 * y2 + c34 * z2,  # 134, 234
        (y1 * z4 - z1 * y4) * x5 + (z1 * x4 - x1 * z4) * y5 + (x1 * y4 - y1 * x4) * z5,  # 145
        (y2 * z3 - z2 * y3) * x5 + (z2 * x3 - x2 * z3) * y5 + (x2 * y3 - y2 * x3) * z5,  # 235
    ])
    if not all(dets):
        return False
    a, b = canon([dets[0] * dets[1], dets[2] * dets[3]])  # l13 l24 and l12 l34 at P5
    q00, q01, q02, q11, q12, q22 = canon([  # a l12 l34 - b l13 l24 on x_i x_j, i <= j
        a * a12 * a34 - b * a13 * a24,
        a * (a12 * b34 + b12 * a34) - b * (a13 * b24 + b13 * a24),
        a * (a12 * c34 + c12 * a34) - b * (a13 * c24 + c13 * a24),
        a * b12 * b34 - b * b13 * b24,
        a * (b12 * c34 + c12 * b34) - b * (b13 * c24 + c13 * b24),
        a * c12 * c34 - b * c13 * c24,
    ])
    return not any(canon([x0 * (q00 * x0 + q01 * x1 + q02 * x2) + x1 * (q11 * x1 + q12 * x2)
                          + q22 * x2 * x2 for x0, x1, x2 in cols[5:]]))
