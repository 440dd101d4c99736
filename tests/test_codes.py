import inspect
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from test_gf import within_one_second

import dihedralcodes.codes as codes_module
from dihedralcodes.cli import _write_code
from dihedralcodes.codes import (
    FAMILIES,
    FAMILY_2N_MINUS_2,
    FAMILY_2N_MINUS_3_MINUS,
    FAMILY_2N_MINUS_3_PLUS,
    CodeFamily,
    LinearCode,
    _expansion_planes,
    construct_code,
    generator_matrix_presentation,
    left_ideal_closure_ok,
    load_code,
)
from dihedralcodes.dihedral import DihedralAlgebra, left_ideal_basis
from dihedralcodes.errors import (
    BadOrderError,
    BetaIsNthRootError,
    CapExceededError,
    CharDividesOrderError,
    EvenNError,
    NotCoprimeError,
    RootUnavailableError,
    UnsupportedStyleError,
    ZeroElementError,
)
from dihedralcodes.gf import FieldElement, _Packed, make_field
from dihedralcodes.idempotents import cyclic_idempotent
from dihedralcodes.linalg import MatrixGF
from dihedralcodes.wedderburn import (
    ROW,
    IdealSpec,
    Summand,
    _constraint_rows,
    code_from_ideal_spec,
    full,
    minus_piece,
    plus_piece,
    random_ideal_spec,
    row,
    zero,
)
from rank_oracle import columns_rank, identity, kernel_basis, row_space_contains, twisted, vstack

GF13 = make_field(13, [0, 1])
GF9 = make_field(3, [1, 0, 1])
GF25 = make_field(5, [2, 0, 1])
GF8 = make_field(2, [1, 1, 0, 1])
GF2, GF3, GF5 = (make_field(p, [0, 1]) for p in (2, 3, 5))
GF4 = make_field(2, [1, 1, 1])


def code_13_2n2():
    return construct_code(GF13, 3, CodeFamily(tag=FAMILY_2N_MINUS_2, beta=2))


# ---------------------------------------------------------------------------
# construction and gates


def test_construct_dimensions():
    assert code_13_2n2().k == 4
    plus = construct_code(GF13, 3, CodeFamily(tag=FAMILY_2N_MINUS_3_PLUS, beta=2))
    assert plus.k == 3
    minus = construct_code(GF13, 3, CodeFamily(tag=FAMILY_2N_MINUS_3_MINUS, beta=2))
    assert minus.k == 3


def test_generator_has_rank_four():
    # the 4x6 generator of the [6,4] code row-reduces to rank 4
    assert code_13_2n2().generator.rank() == 4


def test_bad_order_gate():
    with pytest.raises(BadOrderError) as exc:
        construct_code(GF13, 3, CodeFamily(tag=FAMILY_2N_MINUS_2, beta=3))
    assert "ord(beta)=3 <= 2n=6" in str(exc.value)
    with pytest.raises(BadOrderError):
        construct_code(GF13, 3, CodeFamily(tag=FAMILY_2N_MINUS_3_MINUS, beta=3))


def test_nth_root_gate_for_plus_family():
    with pytest.raises(BetaIsNthRootError, match="^beta=3 satisfies beta\\^3 = 1; need beta\\^n != 1$"):
        construct_code(GF13, 3, CodeFamily(tag=FAMILY_2N_MINUS_3_PLUS, beta=3))


def test_default_beta_takes_no_nth_root_power(monkeypatch):
    # the default beta has order q - 1 >= 2n > n, so the 2n-3-plus gate
    # beta^n = 1 is not tested for it; an explicit beta still is
    ctx = make_field(13, [2, 0, 1])
    family = CodeFamily(tag=FAMILY_2N_MINUS_3_PLUS)
    want = construct_code(ctx, 21, family).to_json()  # the generator and the powers of xi, cached
    calls, power = [], FieldElement.__pow__
    monkeypatch.setattr(FieldElement, "__pow__", lambda x, e: calls.append(e) or power(x, e))
    assert construct_code(ctx, 21, family).to_json() == want
    assert calls == []
    beta = ctx.generator() ** 8  # of order 168 / 8 = 21
    with pytest.raises(BetaIsNthRootError) as exc:
        construct_code(ctx, 21, CodeFamily(tag=FAMILY_2N_MINUS_3_PLUS, beta=beta.to_list()))
    assert str(exc.value) == "beta=x+12 satisfies beta^21 = 1; need beta^n != 1"
    assert calls[-1] == 21


def test_zero_beta_rejected():
    for tag in (FAMILY_2N_MINUS_2, FAMILY_2N_MINUS_3_PLUS):
        with pytest.raises(ZeroElementError):
            construct_code(GF13, 3, CodeFamily(tag=tag, beta=0))


def test_twist_index_gate():
    gf19 = make_field(19, [0, 1])
    with pytest.raises(NotCoprimeError):
        construct_code(gf19, 9, CodeFamily(tag=FAMILY_2N_MINUS_2, s=3))  # gcd(3,9)=3
    with pytest.raises(NotCoprimeError):
        construct_code(GF13, 3, CodeFamily(tag=FAMILY_2N_MINUS_2, s=2))  # s > (n-1)/2
    with pytest.raises(NotCoprimeError):
        construct_code(GF13, 3, CodeFamily(tag=FAMILY_2N_MINUS_2, s=0))


def test_bool_twist_index_is_refused():
    # True is not read as s = 1
    message = r"s=True must satisfy 1 <= s <= \(n-1\)/2=1 and gcd\(s, n\) = 1"
    with pytest.raises(NotCoprimeError, match=message):
        construct_code(GF13, 3, CodeFamily(tag=FAMILY_2N_MINUS_2, s=True))


def test_even_n_rejected():
    with pytest.raises(EvenNError):
        construct_code(GF13, 4, CodeFamily(tag=FAMILY_2N_MINUS_2))
    with pytest.raises(ValueError):
        construct_code(GF13, 1, CodeFamily(tag=FAMILY_2N_MINUS_2))


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        construct_code(GF13, 3, CodeFamily(tag="2n-1"))


def test_default_beta_is_canonical_generator():
    code = construct_code(GF13, 3, CodeFamily(tag=FAMILY_2N_MINUS_2))
    assert code.provenance.beta == GF13.element(2)


def test_explicit_generator_beta_matches_the_default():
    # the default beta's order is q - 1 by definition and is not computed; the
    # same generator passed explicitly goes through element_order: same codes,
    # same refusals (q = 7, n = 3: ord = 6 <= 2n)
    refused = []
    for ctx, n in ((GF13, 3), (GF25, 3), (make_field(43, [0, 1]), 7), (make_field(7, [0, 1]), 3)):
        for tag in FAMILIES:
            outcomes = []
            for beta in (None, ctx.generator()):
                try:
                    outcomes.append(construct_code(ctx, n, CodeFamily(tag, beta=beta)).to_json())
                except BadOrderError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
            if isinstance(outcomes[0], str):
                refused.append(outcomes[0])
    assert refused == ["ord(beta)=6 <= 2n=6"] * 2


# ---------------------------------------------------------------------------
# the idempotent route as an oracle for construct_code

FAMILY_TAGS = (FAMILY_2N_MINUS_2, FAMILY_2N_MINUS_3_MINUS, FAMILY_2N_MINUS_3_PLUS)
ACCEPTANCE_PAIRS = [
    (GF13, 3),
    (GF25, 3),
    (make_field(31, [0, 1]), 5),
    (make_field(41, [0, 1]), 5),
    (make_field(29, [0, 1]), 7),
    (make_field(43, [0, 1]), 7),
]


def idempotent_route(ctx, n, tag, s, beta):
    """left_ideal_basis over the family's idempotent generators.

    The generators are R e_j (j not in {s, n-s}, and j != 0 for the 2n-3
    families), R((1 -/+ b)/2 e_0) for the 2n-3 families, and
    R(e_s + beta b e_(n-s)); the gates on beta use a brute-force order.
    """
    algebra = DihedralAlgebra(ctx, n)
    e = [cyclic_idempotent(ctx, n, i) for i in range(n)]
    beta = ctx.generator() if beta is None else ctx.element(beta)
    if not beta:
        raise ZeroElementError("beta = 0")
    order = next(t for t in range(1, ctx.q) if beta**t == ctx.one())
    if tag == FAMILY_2N_MINUS_3_PLUS:
        if beta**n == ctx.one():
            raise BetaIsNthRootError("beta^n = 1")
    elif order <= 2 * n:
        raise BadOrderError("ord(beta) <= 2n")
    b, one = algebra.b(), algebra.one()
    gens = [e[s] + (b * e[n - s]).scale(beta)]
    skip = {s, n - s} if tag == FAMILY_2N_MINUS_2 else {0, s, n - s}
    gens += [e[j] for j in range(n) if j not in skip]
    if tag != FAMILY_2N_MINUS_2:
        sign = one - b if tag == FAMILY_2N_MINUS_3_MINUS else one + b
        gens.append((sign * e[0]).scale(ctx.element(2).inverse()))
    return left_ideal_basis(gens)


def outcome(build):
    try:
        return build()
    except Exception as exc:  # the exception type is the outcome compared
        return type(exc)


def assert_matches_idempotent_route(ctx, n, tag, s, beta):
    family = CodeFamily(tag=tag, s=s, beta=beta)
    built = outcome(lambda: construct_code(ctx, n, family).generator)
    expected = outcome(lambda: idempotent_route(ctx, n, tag, s, beta))
    assert built == expected, (ctx.spec(), n, tag, s, beta)


@pytest.mark.parametrize(
    "ctx,n", ACCEPTANCE_PAIRS, ids=[f"q{ctx.q}-n{n}" for ctx, n in ACCEPTANCE_PAIRS]
)
def test_construct_matches_idempotent_route(ctx, n):
    for tag in FAMILY_TAGS:
        for s in range(1, (n - 1) // 2 + 1):
            if math.gcd(s, n) == 1:
                assert_matches_idempotent_route(ctx, n, tag, s, None)


@pytest.mark.parametrize("ctx", [GF13, GF25], ids=["GF13", "GF25"])
def test_construct_matches_idempotent_route_every_beta(ctx):
    for tag in FAMILY_TAGS:
        for i in range(ctx.q):
            assert_matches_idempotent_route(ctx, 3, tag, 1, ctx.from_index(i))


@pytest.mark.parametrize(
    "ctx,n,family,error",
    [
        (make_field(5, [0, 1]), 5, CodeFamily(tag=FAMILY_2N_MINUS_2), CharDividesOrderError),
        (GF13, 9, CodeFamily(tag=FAMILY_2N_MINUS_2, s=3), NotCoprimeError),
        (GF13, 5, CodeFamily(tag=FAMILY_2N_MINUS_2, beta=0), RootUnavailableError),
        (GF13, 3, CodeFamily(tag=FAMILY_2N_MINUS_2, beta=3), BadOrderError),
    ],
)
def test_validation_precedence(ctx, n, family, error):
    with pytest.raises(error):
        construct_code(ctx, n, family)


def test_construct_code_names_the_missing_root():
    # n | q-1 is checked before beta, here 0
    with pytest.raises(RootUnavailableError, match=r"^5 does not divide q-1=12$"):
        construct_code(GF13, 5, CodeFamily(tag=FAMILY_2N_MINUS_2, beta=0))


def test_construct_code_forms_no_root_of_its_own(monkeypatch):
    # the root check reads the xi powers wedderburn caches for H, so once
    # they are cached for (field, n) construct_code forms no root
    import dihedralcodes.idempotents as idempotents_module

    construct_code(GF13, 3, CodeFamily(tag=FAMILY_2N_MINUS_2))

    def refuse(ctx, n):
        raise AssertionError("a root was formed")

    for module in (codes_module, idempotents_module):
        monkeypatch.setattr(module, "primitive_nth_root", refuse, raising=False)
    for tag in FAMILIES:
        assert construct_code(GF13, 3, CodeFamily(tag=tag, beta=2)).length == 6


def test_entries_that_are_not_field_values_are_refused_by_name():
    # a ValueError naming the value, where ctx.element used to raise a TypeError
    with pytest.raises(ValueError, match=r"^2\.5 is not an integer"):
        construct_code(GF13, 3, CodeFamily(tag=FAMILY_2N_MINUS_3_PLUS, beta=2.5))
    with pytest.raises(ValueError, match=r"^2\.5 is not an integer"):
        LinearCode.from_generator_rows(GF13, [[1, 2.5, 3]])
    with pytest.raises(ValueError, match="^None is not an integer"):
        code_13_2n2().contains([1, 2, None, 0, 0, 0])


# ---------------------------------------------------------------------------
# presentations


def test_paper_style_rows_frozen():
    gm = generator_matrix_presentation(code_13_2n2(), "paper")
    expected = MatrixGF.from_rows(
        GF13,
        [
            [1, 1, 1, 0, 0, 0],
            [0, 0, 0, 1, 1, 1],
            [1, 9, 3, 2, 6, 5],
            [2, 6, 5, 1, 9, 3],
        ],
    )
    assert gm == expected


def test_paper_style_minus_first_row():
    code = construct_code(GF13, 3, CodeFamily(tag=FAMILY_2N_MINUS_3_MINUS, beta=2))
    gm = generator_matrix_presentation(code, "paper")
    assert gm.row(0) == [GF13.element(c) for c in [1, 1, 1, 12, 12, 12]]


def test_paper_style_plus_first_row():
    code = construct_code(GF13, 3, CodeFamily(tag=FAMILY_2N_MINUS_3_PLUS, beta=2))
    gm = generator_matrix_presentation(code, "paper")
    assert gm.row(0) == [GF13.one()] * 6


def test_styles_share_row_space():
    for tag in (FAMILY_2N_MINUS_2, FAMILY_2N_MINUS_3_MINUS, FAMILY_2N_MINUS_3_PLUS):
        code = construct_code(GF13, 3, CodeFamily(tag=tag, beta=2))
        paper = generator_matrix_presentation(code, "paper")
        rref = generator_matrix_presentation(code, "rref")
        assert paper.rows == code.k
        assert vstack(paper, rref).rank() == code.k


def idempotent_presentation(code):
    """The paper-style rows as products of idempotents in the algebra.

    n e_0 and n b e_0 (or n (1 -+ b) e_0), then n (e_s + beta b e_(n-s))
    and n (b e_s + beta e_(n-s)), then n e_j and n b e_j for the other j.
    """
    prov = code.provenance
    ctx, n, s, beta = prov.ctx, prov.n, prov.s, prov.beta
    algebra = DihedralAlgebra(ctx, n)
    e = [cyclic_idempotent(ctx, n, i).scale(ctx.element(n)) for i in range(n)]
    b, one = algebra.b(), algebra.one()
    if prov.tag == FAMILY_2N_MINUS_2:
        gens = [e[0], b * e[0]]
    else:
        gens = [(one - b if prov.tag == FAMILY_2N_MINUS_3_MINUS else one + b) * e[0]]
    gens += [e[s] + (b * e[n - s]).scale(beta), b * e[s] + e[n - s].scale(beta)]
    for j in range(1, n):
        if j not in (s, n - s):
            gens += [e[j], b * e[j]]
    return [g.phi() for g in gens]


# GF(7^3) at n = 19 has 2n | q - 1 and packed entries
@pytest.mark.parametrize(
    "ctx,n",
    ACCEPTANCE_PAIRS + [(make_field(13, [2, 0, 1]), 21), (make_field(7, [1, 1, 0, 1]), 19)],
    ids=[f"q{ctx.q}-n{n}" for ctx, n in ACCEPTANCE_PAIRS] + ["q169-n21", "q343-n19"],
)
def test_paper_style_matches_idempotent_products(ctx, n):
    # the default beta and a primitive one passed in: generator^k, the least
    # k > 1 coprime to q - 1
    k = next(k for k in range(2, ctx.q) if math.gcd(k, ctx.q - 1) == 1)
    for beta in (None, ctx.generator() ** k):
        for tag in FAMILY_TAGS:
            for s in range(1, (n - 1) // 2 + 1):
                if math.gcd(s, n) == 1:
                    code = construct_code(ctx, n, CodeFamily(tag=tag, s=s, beta=beta))
                    paper = generator_matrix_presentation(code, "paper")
                    expected = idempotent_presentation(code)
                    assert paper.rows == len(expected) == code.k
                    for i, r in enumerate(expected):
                        assert paper.row(i) == r, (ctx.spec(), n, tag, s, beta, i)


def test_paper_style_needs_provenance():
    hand = LinearCode(identity(GF13, 6))
    with pytest.raises(UnsupportedStyleError):
        generator_matrix_presentation(hand, "paper")
    with pytest.raises(UnsupportedStyleError):
        generator_matrix_presentation(hand, "fancy")


# ---------------------------------------------------------------------------
# distance and MDS verdicts


def test_min_distance_trivial_codes():
    repetition = LinearCode(MatrixGF.from_rows(GF13, [[1] * 6]))
    assert repetition.min_distance("exhaustive") == 6
    assert repetition.min_distance("dual") == 6
    whole = LinearCode(identity(GF13, 6))
    assert whole.min_distance("dual") == 1
    assert whole.min_distance("exhaustive", cap=13**6) == 1
    assert whole.is_mds()


def test_min_distance_construction():
    code = code_13_2n2()
    assert code.min_distance("exhaustive") == 3
    assert code.min_distance("dual") == 3
    assert code.is_mds()
    assert code.parameters() == (6, 4, 3)


def test_parity_check_columns_of_mds_code():
    # H of the [6,4,3] code: every pair of columns independent (d >= 3)
    from itertools import combinations

    H = kernel_basis(code_13_2n2().generator)
    assert H.rows == 2
    G = code_13_2n2().generator
    # every parity check is orthogonal to every generator row: G H^T = 0
    assert all(
        sum((a * b for a, b in zip(g, h)), GF13.zero()) == GF13.zero()
        for g in G.data
        for h in H.data
    )
    for pair in combinations(range(6), 2):
        assert columns_rank(H, pair) == 2


def test_cap_exceeded():
    code = code_13_2n2()
    with pytest.raises(CapExceededError):
        code.min_distance("exhaustive", cap=100)
    # above p ~ 3.0e9 the int64 products c * v could wrap: a code whose
    # words are formed is refused, whatever the cap.  k = 1 and k = length
    # form no word, so they answer there
    ctx, p = make_field(4294967311, [0, 1]), 4294967311
    wide = LinearCode.from_generator_rows(ctx, [[1, 0, 5, 3], [0, 1, 7, 2]])
    with pytest.raises(CapExceededError, match=f"needs \\(p-1\\)\\^2 < 2\\^63, got p = {p}$"):
        wide.min_distance("exhaustive", cap=p**2)
    line = LinearCode.from_generator_rows(ctx, [[1, 2, 0, 5]])
    assert line.min_distance("exhaustive", cap=p) == 3 == line.min_distance("dual")
    whole = LinearCode.from_generator_rows(ctx, [[1, 2, 0], [0, 1, 1], [2, 0, 1]])
    assert whole.min_distance("exhaustive", cap=p**3) == 1


def test_negative_cap_is_refused():
    # depths 0 and 1 of the dual walk spend no budget, so the refusal comes
    # before any engine runs; a cached distance does not let it through
    code = code_13_2n2()
    assert code.min_distance("dual", cap=0) == 3
    for method in ("auto", "exhaustive", "dual"):
        with pytest.raises(ValueError, match="cap must be a count >= 0, got -1"):
            code.min_distance(method, cap=-1)


def test_bool_cap_is_refused():
    # True is not read as cap = 1
    code = code_13_2n2()
    for method in ("auto", "exhaustive", "dual"):
        with pytest.raises(ValueError, match="cap must be a count >= 0, got True"):
            code.min_distance(method, cap=True)


def test_auto_method_selection():
    code = code_13_2n2()
    # under the default cap q^k - 1 = 28560 fits: auto = exhaustive
    assert code.min_distance("auto") == 3
    assert code.min_distance("auto", cap=100) == 3  # falls back to dual


def test_exhaustive_cap_gate_counts_every_codeword(monkeypatch):
    # q^(k-1) + 2 q^(k-2) = 2535 words are formed, but the gate stays q^k - 1 = 28560
    code = code_13_2n2()
    with pytest.raises(CapExceededError, match="q\\^k - 1 = 28560 exceeds cap = 28559"):
        code.min_distance("exhaustive", cap=28559)
    assert code.min_distance("exhaustive", cap=28560) == 3

    def refuse(*args):
        raise AssertionError("auto ran exhaustive search over the cap")

    monkeypatch.setattr(codes_module, "_exhaustive_distance", refuse)
    assert code_13_2n2().min_distance("auto", cap=28559) == 3  # the dual engine


def test_exhaustive_gate_holds_after_an_answer_is_cached():
    # the gate is on q and k alone, so a cached answer does not let cap = 1 through
    code = construct_code(GF13, 3, CodeFamily(tag=FAMILY_2N_MINUS_3_PLUS))
    assert code.min_distance("exhaustive") == 4
    with pytest.raises(CapExceededError, match="^q\\^k - 1 = 2196 exceeds cap = 1$"):
        code.min_distance("exhaustive", cap=1)
    assert code.min_distance("auto", cap=1) == 4  # the dual engine, from depth 1
    assert code.min_distance("dual", cap=0) == 4


def brute_force_lead_weights(code):
    """Least weight of the words led by each row, over all q^k - 1 coefficient vectors.

    Pure Python on FieldElements: row i leads a word when it has the
    first nonzero coefficient.
    """
    ctx, rows = code.ctx, code.generator.data
    scaled = [{c: [c * e for e in r] for c in ctx.elements()} for r in rows]
    best = {}
    for coeffs in itertools.product(list(ctx.elements()), repeat=len(rows)):
        if not any(coeffs):
            continue
        word = [sum(col, ctx.zero()) for col in zip(*(s[c] for s, c in zip(scaled, coeffs)))]
        lead = next(i for i, c in enumerate(coeffs) if c)
        best[lead] = min(best.get(lead, code.length), sum(map(bool, word)))
    return best


@pytest.mark.parametrize("ctx", [GF13, GF9, GF25, GF8, GF2, GF3, GF4, GF5], ids=lambda ctx: f"GF({ctx.q})")
def test_exhaustive_matches_brute_force(ctx):
    # up to k = 5 where brute force is cheap (q <= 5): rows 2..k-1 are folded
    # into the span, several expansions deep
    rng = random.Random(ctx.q)
    ks = (1, 2, 3, 4, 5) if ctx.q <= 5 else (1, 2, 3)
    gens = []
    for k in ks:
        rows = None
        while rows is None or MatrixGF(ctx, rows).rank() < k:  # k independent rows
            rows = [[ctx.random_element(rng) for _ in range(5 if k <= 3 else 9)] for _ in range(k)]
        gens.append(rows)
    gens.append([[1, 0, 2, 0, 1], [0, 1, 1, 0, 2]])  # column 3 is zero
    gens.append([[1, 0, 0, 2, 1], [0, 1, 0, 1, 0], [0, 0, 0, 3, 1]])  # column 2 is zero
    found = set()
    for rows in gens:
        code = LinearCode.from_generator_rows(ctx, rows)
        found.add(code.k)
        assert code.min_distance("exhaustive") == min(brute_force_lead_weights(code).values())
    assert found == set(ks)


@pytest.mark.parametrize("ctx", [GF13, GF9, GF25], ids=lambda ctx: f"GF({ctx.q})")
def test_exhaustive_finds_a_minimum_led_by_the_last_row(ctx):
    # the last RREF row has weight 1; every word led by an earlier row is heavier
    code = LinearCode.from_generator_rows(
        ctx, [[1, 0, 0, 1, 1, 1], [0, 1, 0, 1, 2, 3], [0, 0, 1, 0, 0, 0]]
    )
    weights = brute_force_lead_weights(code)
    assert weights[2] == 1 and min(weights[0], weights[1]) > 1
    assert code.min_distance("exhaustive") == 1


def light_row_code(ctx, k: int, light: int, rng):
    """An RREF [I | A | 0] code of length 2k + 1, A square, whose row light
    has one free entry, on A's column 0, and each other row i two, on A's
    columns i and i + 1 mod k, all random and nonzero; the last column is
    zero.  Row light's words weigh 2.  The other rows' supports differ, so
    no two are proportional, and every other word weighs 3 or more."""
    rows = []
    for i in range(k):
        support = {0} if i == light else {i, (i + 1) % k}
        free = [ctx.from_index(rng.randrange(1, ctx.q)) if j in support else 0 for j in range(k)]
        rows.append([int(j == i) for j in range(k)] + free + [0])
    return LinearCode.from_generator_rows(ctx, rows)


@pytest.mark.parametrize(
    "ctx, k",
    [(make_field(3, [0, 1]), 4), (make_field(3, [0, 1]), 5), (make_field(2, [1, 1, 1]), 4),
     (make_field(2, [1, 1, 1]), 5), (make_field(5, [0, 1]), 4), (make_field(5, [0, 1]), 5),
     (make_field(3, [1, 2, 0, 1]), 3)],
    ids=lambda x: f"GF({x.q})" if hasattr(x, "q") else f"k={x}",
)
def test_exhaustive_finds_a_minimum_led_by_row_1_or_a_row_below_alone(ctx, k):
    # the engine weighs the words led by row 0, by row 1 and by rows 2..k-1
    # against separate targets; each kind holds the one lightest word in turn
    for light in sorted({1, 2, k - 1}):
        code = light_row_code(ctx, k, light, random.Random(f"{ctx.q}:{k}:{light}"))
        weights = brute_force_lead_weights(code)
        kind = {0: weights[0], 1: weights[1], 2: min(weights[i] for i in range(2, k))}
        lightest = kind.pop(min(light, 2))
        assert lightest == 2 < min(kind.values()), (light, weights)
        assert code.min_distance("exhaustive") == 2 == code.min_distance("dual")


def test_exhaustive_on_the_largest_k_under_the_default_cap():
    # the [20,19,2] even-weight code over GF(2): 2^19 - 1 = 524,287 words
    # pass the default cap, and 19 rows are the most any code takes there
    GF2 = make_field(2, [0, 1])
    code = LinearCode.from_generator_rows(GF2, [[int(j in (i, 19)) for j in range(20)] for i in range(19)])
    assert (code.length, code.k) == (20, 19)
    assert code.min_distance("exhaustive") == 2 == code.min_distance("dual")


# exhaustive search forms the free columns alone and counts the pivot
# columns from each word's message; these codes reach its edges


def test_exhaustive_counts_weights_above_255():
    # the [300,1,300] repetition code and a [300,2,225] code over GF(3)
    GF3 = make_field(3, [0, 1])
    repetition = LinearCode.from_generator_rows(GF3, [[1] * 300])
    assert repetition.min_distance("exhaustive") == 300
    assert min(brute_force_lead_weights(repetition).values()) == 300
    # columns (1,0), (0,1), (1,1), (1,2), 75 times each: each nonzero word
    # vanishes on exactly one of the four
    code = LinearCode.from_generator_rows(GF3, [[1, 0, 1, 1] * 75, [0, 1, 1, 2] * 75])
    assert code.min_distance("exhaustive") == code.min_distance("dual") == 225
    assert min(brute_force_lead_weights(code).values()) == 225


@pytest.mark.parametrize("p", [32749, 65537], ids=["uint16-top", "uint64"])
def test_exhaustive_on_large_primes(p):
    # p = 32749 puts the sums of two residues near 2^16; p = 65537 takes the
    # uint64 dtype.  q^2 - 1 words pass a raised cap, (q^2 - 1)/(q - 1) are formed
    ctx = make_field(p, [0, 1])
    rows = [[1, 0, 5, p - 1, 3, 0], [0, 1, 7, 2, p - 2, 0]]  # no two columns proportional
    code = LinearCode.from_generator_rows(ctx, rows)
    assert code.min_distance("exhaustive", cap=p * p) == code.min_distance("dual") == 4
    rs = LinearCode.from_generator_rows(ctx, [[1, 1, 1, 1, 1], [0, 1, 2, 3, 4]])  # [5,2,4]
    assert rs.min_distance("exhaustive", cap=p * p) == rs.min_distance("dual") == 4


@pytest.mark.parametrize(
    "ctx", [make_field(3, [1, 2, 0, 1]), GF8], ids=lambda ctx: f"GF({ctx.q})"
)
def test_exhaustive_matches_brute_force_at_degree_three(ctx):
    rng = random.Random(ctx.q)
    for k in (1, 2, 3 if ctx.q == 8 else 2):
        for _ in range(3):
            rows = [[ctx.random_element(rng) for _ in range(6)] for _ in range(k)]
            code = LinearCode.from_generator_rows(ctx, rows)
            assert code.min_distance("exhaustive") == min(brute_force_lead_weights(code).values())


def test_exhaustive_with_pivots_off_the_front_and_a_zero_column():
    rows = [[0, 1, 2, 0, 0, 3, 0], [0, 0, 0, 1, 0, 4, 5], [0, 0, 0, 0, 1, 5, 7]]
    for ctx in (GF13, GF9):
        code = LinearCode.from_generator_rows(ctx, rows)
        assert code.pivots == [1, 3, 4]
        d = code.min_distance("exhaustive")
        assert d == min(brute_force_lead_weights(code).values()) == code.min_distance("dual")


def test_exhaustive_with_no_free_columns():
    # k = length: the whole space, whose least weight is 1
    for ctx in (GF13, GF9, GF8):
        code = LinearCode.from_generator_rows(ctx, [[1, 2, 0], [0, 1, 1], [2, 0, 1]])
        assert code.k == code.length == 3
        assert code.min_distance("exhaustive") == 1 == min(brute_force_lead_weights(code).values())


def test_exhaustive_k1_never_imports_numpy():
    # numpy loads only when words are formed: a k = 1 or k = length code
    # in a fresh interpreter answers without it
    script = """
import sys
from dihedralcodes import LinearCode, make_field
F = make_field(13, [0, 1])
assert LinearCode.from_generator_rows(F, [[1, 2, 0, 5]]).min_distance("exhaustive") == 3
assert LinearCode.from_generator_rows(F, [[1, 2], [0, 1]]).min_distance("exhaustive") == 1
assert "numpy" not in sys.modules
"""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


# every entry form: residues, packed pairs (p = 5, 13) and elements (p = 2, 3)
EXPANSION_FIELDS = (GF13, GF25, make_field(13, [2, 0, 1]), GF8, make_field(3, [1, 2, 0, 1]))


def test_expansion_planes_match_element_ops():
    rng = random.Random(3)
    for ctx in EXPANSION_FIELDS:
        x = ctx.element([0, 1] if ctx.m > 1 else [1])
        vec = [ctx.random_element(rng) for _ in range(6)]
        m = MatrixGF(ctx, [vec])
        flat, size = _expansion_planes(ctx, m.entries[0]), ctx.m * len(vec)
        assert len(flat) == ctx.m * size
        for j in range(ctx.m):  # plane j, then entry i, then coefficient t
            plane = flat[j * size:(j + 1) * size]
            assert [plane[i * ctx.m:(i + 1) * ctx.m] for i in range(len(vec))] == [(e * x**j).to_list() for e in vec]


def expansion_rows(ctx, m):
    """Each row of m as its ctx.m planes over GF(p), one list per plane."""
    rows = []
    for row in m.entries:
        flat, size = _expansion_planes(ctx, row), ctx.m * len(row)
        rows += [flat[j * size:(j + 1) * size] for j in range(ctx.m)]
    return rows


def test_expansion_planes_rank_is_m_times_rank():
    rng = random.Random(4)
    for ctx in EXPANSION_FIELDS:
        prime = make_field(ctx.p, [0, 1])
        for _ in range(20):
            rows, cols, rank = rng.randrange(1, 5), rng.randrange(1, 6), rng.randrange(0, 4)
            basis = [[ctx.random_element(rng) for _ in range(cols)] for _ in range(rank)]
            # rows drawn from a span of dimension <= rank, so some matrices are singular
            m = MatrixGF(ctx, [
                [sum((ctx.random_element(rng) * b[j] for b in basis), ctx.zero()) for j in range(cols)]
                for _ in range(rows)
            ], cols=cols)
            expanded = MatrixGF.from_rows(prime, expansion_rows(ctx, m))
            assert expanded.rank() == ctx.m * m.rank()


def spec_29_7(first, *ys):
    """An n = 7 ideal code over GF(29): position 0, then one row(1, y) or zero per block."""
    ctx = make_field(29, [0, 1])
    blocks = [row(ctx.one(), ctx.element(y)) if y else zero() for y in ys]
    return LinearCode(code_from_ideal_spec(ctx, 7, IdealSpec((first(), *blocks))))


def swap_columns(code, i=0, j=1):
    """code with its columns i and j swapped: an equivalent code, the same
    distance, that is no left ideal unless the swap is an automorphism."""
    rows = code.generator.data
    for r in rows:
        r[i], r[j] = r[j], r[i]
    return LinearCode(MatrixGF(code.ctx, rows))


def test_dual_cap_names_the_side():
    # [14,3,10] (k <= r), beta = 1, so not an arc.  The ideal's generator
    # side walks column 0 alone, its a/b symmetry certified; with columns 0
    # and 1 swapped no certificate holds, and the walk keys the columns
    # modulo 10 of the 14 before its bound stops it
    low = spec_29_7(plus_piece, 1, 0, 0)
    assert low.min_distance("dual", cap=1) == 10
    swapped = swap_columns(spec_29_7(plus_piece, 1, 0, 0))
    assert not left_ideal_closure_ok(swapped)
    message = "dual engine, generator side: 10 column subsets > cap = 9"
    with pytest.raises(CapExceededError, match=message):
        swapped.min_distance("dual", cap=9)
    assert swapped.min_distance("dual", cap=10) == swapped.min_distance("exhaustive") == 10
    # the [14,3,12] arc takes the conic certificate, which visits no subset
    assert spec_29_7(plus_piece, 5, 0, 0).min_distance("dual", cap=0) == 12
    # [14,8] (k > r = 6, d = 6): the parity-check side walks from depth 2
    # (w = 4).  The ideal walks subsets that start at column 0, 109 of them;
    # its column-swapped copy walks them all, 562
    high = spec_29_7(full, 8, 19, 18)
    message = "dual engine, parity-check side: 11 column subsets > cap = 10"
    with pytest.raises(CapExceededError, match=message):
        high.min_distance("dual", cap=10)
    with pytest.raises(CapExceededError, match="parity-check side: 109 column subsets > cap = 108"):
        spec_29_7(full, 8, 19, 18).min_distance("dual", cap=108)
    assert spec_29_7(full, 8, 19, 18).min_distance("dual", cap=109) == 6
    swapped = swap_columns(spec_29_7(full, 8, 19, 18))
    assert not left_ideal_closure_ok(swapped)
    with pytest.raises(CapExceededError, match="parity-check side: 562 column subsets > cap = 561"):
        swapped.min_distance("dual", cap=561)
    assert swapped.min_distance("dual", cap=562) == 6
    # depths 0 and 1 of the walk (sizes 1-3) and the r <= 3 shortcut come before
    # either side and spend no budget: [6,3,4] (k = r) and [6,4,3] answer
    plus = construct_code(GF13, 3, CodeFamily(tag=FAMILY_2N_MINUS_3_PLUS, beta=2))
    assert plus.min_distance("dual", cap=0) == 4
    assert code_13_2n2().min_distance("dual", cap=0) == 3
    ctx = make_field(607, [0, 1])
    for tag in FAMILIES:
        assert construct_code(ctx, 101, CodeFamily(tag=tag)).is_mds("dual", cap=0)


def test_dual_finds_two_dependent_columns_before_either_side():
    # [I | I] at n = 20, a [40,20,2] code with k = r: H = [-I | I] has
    # proportional columns, where the generator side would walk C(40, 19)
    # subsets
    rows = [[int(i == j) for j in range(20)] * 2 for i in range(20)]
    code = LinearCode.from_generator_rows(GF13, rows)
    assert within_one_second(lambda: code.min_distance("dual", cap=0)) == 2


def test_low_rate_dual_distance_is_prompt():
    # the [22,3,20] code at (67, 11): the parity-check side would walk subsets
    # of 22 columns up to size 17; the generator side walks its 22 columns
    ctx = make_field(67, [0, 1])
    spec = IdealSpec((plus_piece(), row(ctx.one(), ctx.element(5))) + (zero(),) * 4)
    code = LinearCode(code_from_ideal_spec(ctx, 11, spec))
    assert (code.length, code.k) == (22, 3)
    assert within_one_second(lambda: code.min_distance("dual")) == 20
    assert code.min_distance("exhaustive") == 20
    # its columns are an arc on a conic: the certificate visits no subset
    assert LinearCode(code_from_ideal_spec(ctx, 11, spec)).min_distance("dual", cap=0) == 20
    # with beta = 1 the [22,3,18] ideal is no arc, but its a/b symmetry is
    # certified: the walk keys the columns modulo column 0 alone
    spec = IdealSpec((plus_piece(), row(ctx.one(), ctx.one())) + (zero(),) * 4)
    assert LinearCode(code_from_ideal_spec(ctx, 11, spec)).min_distance("dual", cap=1) == 18
    # its copy with columns 0 and 1 swapped is no ideal: the walk stops at
    # depth k - 2, at 18 single columns, where a walk on to pairs would pass
    # the cap.  One short of it, the parity check's free depths 0 and 1 run
    # first, and the generator side still names itself past the cap
    swapped = swap_columns(LinearCode(code_from_ideal_spec(ctx, 11, spec)))
    assert not left_ideal_closure_ok(swapped)
    assert swapped.min_distance("dual", cap=18) == 18
    message = "dual engine, generator side: 18 column subsets > cap = 17"
    with pytest.raises(CapExceededError, match=message):
        swap_columns(LinearCode(code_from_ideal_spec(ctx, 11, spec))).min_distance("dual", cap=17)


def test_dual_check_of_a_length_2002_ideal_is_prompt():
    # the [2002,3,2000] ideal at (6007, 1001): its generator's columns are an
    # arc, so the conic certificate answers, where a walk would key 2002
    # columns modulo each of them
    ctx = make_field(6007, [0, 1])
    spec = IdealSpec((plus_piece(), row(ctx.one(), ctx.element(5))) + (zero(),) * 499)
    code = LinearCode(code_from_ideal_spec(ctx, 1001, spec))
    assert (code.length, code.k) == (2002, 3)
    assert within_one_second(lambda: code.min_distance("dual")) == 2000
    assert code._parity is None


def test_dual_check_of_a_length_2002_ideal_that_is_no_arc_is_prompt():
    # the [2002,3,1998] ideal at (6007, 1001), beta = 1, is no arc, but its
    # a/b symmetry is certified: its generator walk keys the columns modulo
    # column 0 alone, where a walk from every column took about 1.2 s
    F = make_field(6007, [0, 1])
    spec = IdealSpec((plus_piece(), row(F.one(), F.one())) + (zero(),) * 499)
    code = LinearCode(code_from_ideal_spec(F, 1001, spec))
    assert (code.length, code.k) == (2002, 3)
    assert within_one_second(lambda: code.min_distance("dual")) == 1998


def test_dual_check_of_a_202_4_ideal_is_prompt():
    # a [202,4,196] ideal at (607, 101): its generator walk to depth 2 starts
    # at column 0 alone, where a walk from every column took about 1.3 s
    F = make_field(607, [0, 1])
    spec = IdealSpec((zero(), row(F.one(), F.element(5)), row(F.one(), F.element(7))) + (zero(),) * 48)
    code = LinearCode(code_from_ideal_spec(F, 101, spec))
    assert (code.length, code.k) == (202, 4)
    assert within_one_second(lambda: code.min_distance("dual")) == 196


def test_arc_certificate_needs_every_column_on_the_conic(monkeypatch):
    # the columns (1, t, t^2), t = 1..10, lie on the conic X0 X2 = X1^2: no
    # line holds three, so d = 10 - 2 with no subset visited.  Put in place of
    # one of them, among the certificate's first five or after, the point
    # (2, 3, 5) = P1 + P2, on the line through P1 and P2 and off the conic:
    # the certificate, on depth 0's keys, refuses it.  After them, a zero
    # column or a second P1, which satisfy the conic's equation, are a key
    # None or a repeated key at depth 0, and the certificate is not asked.
    # Each time a line holds three columns, and d = 10 - 3, by the walk
    field, asked = GF13.form, []
    conic = codes_module._on_a_conic
    monkeypatch.setattr(codes_module, "_on_a_conic", lambda keys, field: asked.append(keys) or conic(keys, field))
    on = [[1, t, t * t % 13] for t in range(1, 11)]
    assert codes_module._hyperplane_distance(on, field, 0) == 8 and asked == [field.points(on)]
    for at, col in ((2, [2, 3, 5]), (7, [2, 3, 5]), (7, [0, 0, 0]), (7, [3, 3, 3])):
        cols = on[:at] + [col] + on[at + 1:]
        keys = field.points(cols)
        code = LinearCode.from_generator_rows(GF13, [list(r) for r in zip(*cols)])
        del asked[:]
        assert codes_module._hyperplane_distance(cols, field) == 7 == code.min_distance("exhaustive")
        if col == [2, 3, 5]:
            assert asked == [keys] and not conic(keys, field)
        else:  # depth 0's keys hold None, or P1's key twice
            assert asked == [] and (keys[at] is None or keys.count(keys[at]) == 2)
        with pytest.raises(CapExceededError, match="generator side"):
            codes_module._hyperplane_distance(cols, field, 0)


def test_low_rate_dual_check_leaves_parity_check_unbuilt():
    # the side is chosen before H: a low-rate code walks its generator's
    # hyperplanes and never reads H = [-A^T | I] off it
    ctx = make_field(67, [0, 1])
    spec = IdealSpec((plus_piece(), row(ctx.one(), ctx.element(5))) + (zero(),) * 4)
    for code, d in ((spec_29_7(plus_piece, 5, 0, 0), 12),
                    (LinearCode(code_from_ideal_spec(ctx, 11, spec)), 20)):
        assert code.k == 3
        assert code.min_distance("dual") == d
        assert code._parity is None


def test_generator_side_goes_first_only_within_its_whole_walk():
    # an [8,4,2] code over GF(13): a weight-2 row over the rows x, x^2, x^3
    # at x = 1..8.  Its generator walk to depth 2 steps at both levels at
    # most 7 + 28 = 35 = C(9, 2) - 1 times, past C(8, 2) = 28; at cap 28 the
    # parity check's free depth 0 answers
    rows = [[1, 1] + [0] * 6] + [[x**i for x in range(1, 9)] for i in (1, 2, 3)]
    code = LinearCode.from_generator_rows(GF13, rows)
    assert (code.length, code.k, code.min_distance("dual", cap=28)) == (8, 4, 2)
    assert code._parity is not None and code.min_distance("exhaustive") == 2
    code = LinearCode.from_generator_rows(GF13, rows)
    assert code.min_distance("dual", cap=35) == 2 and code._parity is None
    # the side rule counts that bound; the walk's own bound stops it after 11
    cols = [list(c) for c in zip(*code.generator.entries)]
    assert codes_module._hyperplane_distance(cols, GF13.form, 11) == 2
    with pytest.raises(CapExceededError, match="generator side: 11 column subsets > cap = 10"):
        codes_module._hyperplane_distance(cols, GF13.form, 10)


def test_side_rule_sums_few_binomials_at_length_2002(monkeypatch):
    # a [2002,3] code: the generator walk takes C(2003, 1) - 1 = 2002 steps,
    # and the parity-check side's count would sum 1,997 binomials; the sum
    # stops at depth 2, the first to pass 2002
    comb = math.comb
    ks = []
    monkeypatch.setattr(math, "comb", lambda n, t: ks.append(t) or comb(n, t))
    assert codes_module._subsets_over(2002, range(1, 2002 - 3 - 1), comb(2003, 1) - 1)
    assert ks == [1, 2]
    # a paper code of length 2002 has h = 3: one depth, C(2002, 1), against
    # the C(2002, 1997) of its generator, so H's side is kept
    ks.clear()
    assert not codes_module._subsets_over(2002, range(1, 2), comb(2002, 1997))
    assert ks == [1]


def test_parity_check_walk_stops_a_level_above_the_dependent_sets():
    # w dependent columns show as a repeated key at depth w - 2.  In this
    # MDS [14,8,7] code (k > r = 6) no 6 columns of H are dependent, so the
    # walk goes to depth 4, 1,922 subsets; on to depth 5 it visits 4,820
    mds = spec_29_7(full, 3, 8, 2)
    assert (mds.length, mds.k) == (14, 8)
    assert mds.min_distance("dual", cap=2000) == 7


def test_zero_code_distance_undefined():
    zero_code = LinearCode(MatrixGF.zeros(GF13, 1, 6))
    assert zero_code.k == 0
    with pytest.raises(ValueError):
        zero_code.min_distance()


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        code_13_2n2().min_distance("magic")


def test_methods_agree_on_random_ideal_codes():
    rng = random.Random(0)
    for ctx, n in ((GF13, 3), (GF25, 3)):
        for _ in range(25):
            spec = random_ideal_spec(ctx, n, rng)
            code = LinearCode(code_from_ideal_spec(ctx, n, spec))
            if ctx.q**code.k - 1 > 10**6:
                continue
            d_dual = code.min_distance("dual")
            d_exh = code.min_distance("exhaustive")
            assert d_dual == d_exh
            assert d_dual <= code.singleton_bound


def test_constructed_codes_are_left_ideals():
    for tag in (FAMILY_2N_MINUS_2, FAMILY_2N_MINUS_3_MINUS, FAMILY_2N_MINUS_3_PLUS):
        code = construct_code(GF13, 3, CodeFamily(tag=tag, beta=2))
        assert left_ideal_closure_ok(code)


def test_closure_refuses_a_code_that_is_not_a_left_ideal():
    # span(phi(1)) does not contain phi(a * 1) = phi(a)
    alg = DihedralAlgebra(GF13, 3)
    code = LinearCode(MatrixGF(GF13, [alg.one().phi()]))
    assert not left_ideal_closure_ok(code)
    # closed under a but not under b: the cyclic part F_13 C_3
    code = LinearCode(MatrixGF(GF13, [alg.a(i).phi() for i in range(3)]))
    assert not left_ideal_closure_ok(code)


def test_closure_answers_a_code_without_an_algebra(monkeypatch):
    # the certificate reads the code alone: a hand-supplied code, its load_code
    # round trip and a code of odd length are answered, and no algebra is built
    assert list(inspect.signature(left_ideal_closure_ok).parameters) == ["code"]
    ctx = make_field(29, [0, 1])
    spec = IdealSpec((plus_piece(), row(ctx.one(), ctx.one()), zero(), zero()))
    ideal = LinearCode(code_from_ideal_spec(ctx, 7, spec))
    codes = [
        (ideal, True),
        (load_code(ideal.to_json()), True),
        (swap_columns(ideal), False),
        (LinearCode(MatrixGF(GF13, [DihedralAlgebra(GF13, 3).one().phi()])), False),
        (LinearCode.from_generator_rows(GF13, [[1, 1, 1]]), False),  # odd length
        (LinearCode.from_generator_rows(GF13, [[1] * 6]), True),  # sum of the group, an ideal
    ]

    def refuse(*args):
        raise AssertionError("left_ideal_closure_ok built an algebra")

    monkeypatch.setattr(DihedralAlgebra, "__init__", refuse)
    for code, closed in codes:
        assert left_ideal_closure_ok(code) is closed
        assert left_ideal_closure_ok(code) == code._is_left_ideal()


def test_dual_distance_makes_no_row_reduction(monkeypatch):
    # the parity check is read off the generator and its pivots
    ctx = make_field(61, [0, 1])
    codes = [construct_code(ctx, 15, CodeFamily(tag=tag)) for tag in FAMILIES]

    def refuse(*args):
        raise AssertionError("row reduction in the dual engine")

    monkeypatch.setattr(MatrixGF, "rref", refuse)
    assert [c.min_distance("dual") for c in codes] == [3, 4, 4]


def test_random_ideal_codes_are_left_ideals():
    rng = random.Random(1)
    for _ in range(10):
        spec = random_ideal_spec(GF13, 3, rng)
        code = LinearCode(code_from_ideal_spec(GF13, 3, spec))
        assert left_ideal_closure_ok(code)


def test_json_roundtrip():
    code = code_13_2n2()
    doc = code.to_json()
    assert doc["family"] == FAMILY_2N_MINUS_2
    assert doc["beta"] == [2]
    loaded = load_code(doc)
    assert loaded.generator == code.generator
    assert loaded.parameters() == code.parameters()


def dense_document(code):
    """The code's document by the dense route: its generator's FieldElements,
    one coefficient list each."""
    G = code.generator
    doc = {"field": code.ctx.spec(), "length": code.length, "k": code.k,
           "generator": {"rows": G.rows, "cols": G.cols, "field": code.ctx.spec(),
                         "entries": [[e.to_list() for e in r] for r in G.data]}}
    if code.provenance is not None:
        prov = code.provenance
        doc.update(n=prov.n, family=prov.tag, s=prov.s, beta=prov.beta.to_list())
    return doc


def systematic_codes():
    """Every family and coprime twist at (61, 15), GF(13^2)/21 and GF(3^3)/13
    that construct_code builds, and generators whose pivots do not lead."""
    for ctx, n in ((make_field(61, [0, 1]), 15), (make_field(13, [2, 0, 1]), 21),
                   (make_field(3, [1, 2, 0, 1]), 13)):
        for tag in FAMILIES:
            for s in range(1, (n + 1) // 2):
                if math.gcd(s, n) == 1:
                    try:
                        yield construct_code(ctx, n, CodeFamily(tag, s=s))
                    except BadOrderError:  # over GF(27), beta = x has order 2n
                        assert ctx.m == 3 and tag != FAMILY_2N_MINUS_3_PLUS
    for ctx, rows in (
        (GF13, [[0, 1, 2, 0, 5], [0, 0, 0, 1, 3]]),  # a zero first column
        (GF13, [[2, 4, 1, 7], [1, 2, 0, 3], [0, 0, 5, 5]]),  # not in RREF, pivots 0 and 2
        (GF25, [[[0, 1], [1, 1], [3, 2]], [[2, 0], [0, 4], [1, 1]]]),
        (GF13, [[0, 0, 0], [0, 0, 0]]),  # k = 0
        (GF13, [[1, 2, 3], [0, 4, 5], [0, 0, 6]]),  # k = length
    ):
        yield LinearCode.from_generator_rows(ctx, rows)


def test_systematic_form_writes_the_dense_routes_bytes():
    # to_json builds each row from (pivots, A); the dense generator gives
    # the same bytes, and a loaded document the same code
    cases = list(systematic_codes())
    assert len(cases) == 4 * 3 + 6 * 3 + 6 + 5
    for code in cases:
        doc = code.to_json()
        assert json.dumps(doc) == json.dumps(dense_document(code)), code
        loaded = load_code(doc)
        assert (loaded.k, loaded.pivots, loaded.generator) == (code.k, code.pivots, code.generator)
    pivots = [code.pivots for code in cases[-5:]]
    assert pivots == [[1, 3], [0, 2], [0, 1], [], [0, 1, 2]]


def test_documents_share_no_list():
    # one list per distinct value within a document, none across two
    code = construct_code(make_field(61, [0, 1]), 15, CodeFamily(FAMILY_2N_MINUS_3_PLUS))
    docs = code.to_json(), code.to_json()

    def lists(doc):
        entries = doc["generator"]["entries"]
        return [id(x) for x in [doc["beta"], doc["generator"], entries, *entries, *(e for r in entries for e in r)]]

    first, second = map(lists, docs)
    assert not set(first) & set(second)
    entries = docs[0]["generator"]["entries"]
    assert len({id(e) for r in entries for e in r}) == len({tuple(e) for r in entries for e in r})


def test_gf27_matrices_and_dual_walk_hold_integers(monkeypatch):
    # m = 3 entries are packed integers (gf._Packed), in every matrix and
    # in the columns the dual engine walks
    F = make_field(3, [1, 2, 0, 1])
    code = construct_code(F, 13, CodeFamily(tag=FAMILY_2N_MINUS_3_PLUS, s=1))
    walked, walk = [], codes_module._min_dependent_columns

    def spy(cols, field, *args):
        walked.extend(cols)
        return walk(cols, field, *args)

    monkeypatch.setattr(codes_module, "_min_dependent_columns", spy)
    assert code.min_distance("dual") == 4
    G = code.generator
    assert type(F.form) is _Packed and G.ctx is F
    assert walked and all(type(e) is int for col in walked for e in col)
    assert all(type(e) is int for row in G.entries + code._parity_check() for e in row)


def test_min_dependent_columns_matches_subset_oracle():
    # third route: brute-force over all column subsets via columns_rank.
    # GF(25) and GF(13^2) columns check the walk on both packed forms; up to 5 rows
    # reach the search from w = 4.  Planted columns (zero, a scaled copy, a
    # combination of two others) make depths 0 and 1 answer over prime and
    # extension fields.
    from itertools import combinations

    from dihedralcodes.codes import _min_dependent_columns

    def check(m):
        # the walk on the entry form the dual engine picks for the field,
        # over an extension field also on the generic packed form, without
        # the GF(p^2) closed forms, and the dual engine on the code whose
        # parity check is m
        expected = None
        for w in range(1, m.cols + 1):
            if any(columns_rank(m, c) < w for c in combinations(range(m.cols), w)):
                expected = w
                break
        for field in (m.ctx.form,) + ((_Packed(m.ctx),) if m.ctx.m > 1 else ()):
            cols = [field.entries(col) for col in zip(*m.data)]
            assert _min_dependent_columns(cols, field) == expected
        assert LinearCode(kernel_basis(m)).min_distance("dual") == expected
        return expected

    def random_matrix(ctx, rows, cols):
        return [[ctx.random_element(rng) for _ in range(cols)] for _ in range(rows)]

    rng = random.Random(5)
    for ctx in (GF13, GF25):
        for _ in range(15):
            rows = rng.randrange(1, 4)
            check(MatrixGF(ctx, random_matrix(ctx, rows, rng.randrange(rows + 1, 7))))

    planted_hits = set()
    for ctx in (GF13, GF25, make_field(13, [2, 0, 1])):
        for trial in range(24):
            rows = rng.randrange(1, 6)
            data = random_matrix(ctx, rows, rng.randrange(max(rows + 1, 3), 8))
            a, b, c = rng.sample(range(len(data[0])), 3)
            plant = trial % 4
            # a scalar outside GF(p) when m > 1
            x = ctx.from_index(rng.randrange(ctx.p if ctx.m > 1 else 2, ctx.q))
            y = ctx.from_index(rng.randrange(1, ctx.q))
            for r in data:
                if plant == 1:
                    r[c] = ctx.zero()
                elif plant == 2:
                    r[c] = x * r[a]
                elif plant == 3:
                    r[c] = x * r[a] + y * r[b]
            got = check(MatrixGF(ctx, data))
            if plant and got == plant:
                planted_hits.add((ctx.m, plant))
    assert planted_hits == {(m, level) for m in (1, 2) for level in (1, 2, 3)}

    # the walk over GF(2), GF(4), GF(9), GF(13), GF(25), GF(13^2), GF(2^31-1)
    # and GF(257^2), with r = 1 to 5 rows and columns that lead in rows 1 and 2
    fields = (
        make_field(2, [0, 1]), make_field(2, [1, 1, 1]), GF9, GF13, GF25,
        make_field(13, [2, 0, 1]), make_field(2**31 - 1, [0, 1]), make_field(257, [3, 0, 1]),
    )
    answers, leads = set(), set()
    for ctx in fields:
        for trial in range(25):
            rows = trial % 5 + 1
            ncols = rng.randrange(max(5, rows + 1), rows + 6)
            m = random_columns_with_plants(ctx, rows, ncols, rng, sparse=True)
            answers.add((ctx.q, min(check(m), 4)))
            leads |= {
                (ctx.q, next(i for i, e in enumerate(col) if e)) for col in zip(*m.data) if any(col)
            }
    assert answers >= {(ctx.q, w) for ctx in fields for w in (1, 2, 3)}
    assert {w for _, w in answers} == {1, 2, 3, 4}
    assert leads >= {(ctx.q, lead) for ctx in fields for lead in (1, 2)}


def test_paper_families_above_former_table_limit():
    ctx = make_field(2**31 - 1, [0, 1])
    for tag in FAMILY_TAGS:
        code = construct_code(ctx, 9, CodeFamily(tag=tag))
        k = 16 if tag == FAMILY_2N_MINUS_2 else 15
        assert code.parameters("dual") == (18, k, 18 - k + 1)
        assert code.is_mds("dual")


def test_paper_families_at_n_101_promptly():
    # 202 | 606: the kernel of 2 or 3 closed-form constraint rows, no T^-1
    ctx = make_field(607, [0, 1])
    for tag, k in zip(FAMILY_TAGS, (200, 199, 199)):
        code = within_one_second(lambda: construct_code(ctx, 101, CodeFamily(tag=tag)))
        assert (code.length, code.k) == (202, k)
        # r = 2 or 3 parity checks: depths 0 and 1 of the walk decide, unbudgeted
        assert within_one_second(lambda: code.is_mds("dual")) is True


def test_methods_agree_on_gf169_ideal_codes():
    # m = 2: a GF(q) entry is zero only when both coefficient planes are
    ctx, n = make_field(13, [2, 0, 1]), 7
    rng = random.Random(6)
    zeros = (zero(),) * 3
    specs = [IdealSpec((first(),) + zeros) for first in (full, plus_piece, minus_piece)]
    for block in (0, 1, 2):
        blocks = [zero()] * 3
        blocks[block] = row(ctx.from_index(rng.randrange(1, ctx.q)), ctx.random_element(rng))
        specs.append(IdealSpec((zero(), *blocks)))
    for spec in specs:
        code = LinearCode(code_from_ideal_spec(ctx, n, spec))
        assert code.k <= 2
        assert code.min_distance("exhaustive") == code.min_distance("dual")


def test_gf25_example_codes():
    c1 = construct_code(GF25, 3, CodeFamily(tag=FAMILY_2N_MINUS_2))
    assert c1.parameters("exhaustive") == (6, 4, 3)
    c2 = construct_code(GF25, 3, CodeFamily(tag=FAMILY_2N_MINUS_3_PLUS))
    assert c2.parameters("exhaustive") == (6, 3, 4)
    assert c1.is_mds() and c2.is_mds()


# ---------------------------------------------------------------------------
# one reduction per code: the trusted entry, integer parity checks, the carried walk


# position-0 summand of each family's spec, as construct_code builds it
FAMILY_POSITION0 = {
    FAMILY_2N_MINUS_2: full,
    FAMILY_2N_MINUS_3_MINUS: minus_piece,
    FAMILY_2N_MINUS_3_PLUS: plus_piece,
}


def family_spec(ctx, n, tag, s, beta):
    blocks = [full()] * ((n - 1) // 2)
    blocks[s - 1] = row(ctx.one(), beta)
    return IdealSpec((FAMILY_POSITION0[tag](), *blocks))


def public_keys(doc):
    return {key: doc[key] for key in ("field", "length", "k", "generator")}


@pytest.mark.parametrize(
    "ctx, n",
    [
        (GF13, 3),
        (GF25, 3),
        (make_field(43, [0, 1]), 7),
        (make_field(61, [0, 1]), 15),
        (make_field(13, [2, 0, 1]), 21),
        (make_field(13, [2, 0, 1]), 7),
        (make_field(257, [3, 0, 1]), 3),  # past 2^16: the walk's entries are FieldElements
    ],
)
def test_trusted_entry_matches_a_fresh_reduction(ctx, n):
    # construct_code starts from the constraint rows H; the public route,
    # LinearCode of code_from_ideal_spec's generator for the same spec, reduces
    # that generator again and reads H off it: both must find the same code
    for tag in FAMILIES:
        for s in range(1, (n - 1) // 2 + 1):
            if math.gcd(s, n) != 1:
                continue
            code = construct_code(ctx, n, CodeFamily(tag=tag, s=s))
            spec = family_spec(ctx, n, tag, s, code.provenance.beta)
            public = LinearCode(code_from_ideal_spec(ctx, n, spec))
            assert (code.k, code.min_distance("dual")) == (public.k, public.min_distance("dual"))
            assert (code.generator, code.pivots) == (public.generator, public.pivots)
            assert public_keys(code.to_json()) == public.to_json()
            fresh = LinearCode(code.generator)
            assert (code.generator, code.k, code.pivots) == (
                fresh.generator, fresh.k, fresh.pivots
            )


@pytest.mark.parametrize(
    "ctx", [GF13, GF25, make_field(257, [3, 0, 1]), make_field(3, [1, 2, 0, 1])]
)
def test_parity_check_rank_is_computed(ctx, monkeypatch):
    # k = length - rank H on hand-made H whose leading h x h block has
    # determinant 0, so elimination settles the rank, once: dependent rows, a
    # zero row, all zeros, and 2 or 3 independent rows with a zero first
    # column or proportional first two columns.  Residues, GF(p^2) pairs and
    # packed GF(3^3) entries.
    rng = random.Random(ctx.q)
    r1, r2 = ([ctx.random_element(rng) for _ in range(6)] for _ in range(2))
    r1[0], r2[0], r2[1] = ctx.one(), ctx.zero(), ctx.one()  # independent rows
    zeros = [ctx.zero()] * 6
    two, field = ctx.element(2), ctx.form
    cases = [
        ([r1, r2, [a + two * b for a, b in zip(r1, r2)]], 4),
        ([r1, r1], 5),
        ([r1, zeros, r2], 4),
        ([zeros, zeros], 6),
    ]
    for h in (2, 3):
        for proportional in (False, True):
            rows = [zeros]
            while MatrixGF(ctx, rows).rank() < h:
                rows = [[ctx.random_element(rng) for _ in range(6)] for _ in range(h)]
                for r in rows:
                    r[0] = r[1] * ctx.element(3) if proportional else ctx.zero()
            cases.append((rows, 6 - h))
    calls = []
    rref = MatrixGF.rref
    monkeypatch.setattr(MatrixGF, "rref", lambda m: calls.append(m.rows) or rref(m))
    for rows, k in cases:
        # the trusted entry takes H in the entry form, as _constraint_rows makes it
        calls.clear()
        code = LinearCode._from_parity_check(ctx, [field.entries(r) for r in rows], None)
        assert calls == [len(rows)]
        assert code.k == k == 6 - MatrixGF(ctx, rows).rank()
        public = LinearCode(code.generator)
        assert code.generator.rows == k and public.k == k
        # every generator row is in ker H
        for g in code.generator.data:
            assert all(not sum((a * b for a, b in zip(h, g)), ctx.zero()) for h in rows)
        assert code.min_distance("dual") == public.min_distance("dual")


def test_construct_code_never_eliminates(monkeypatch):
    # every paper code's H has a leading block of nonzero determinant: the
    # 2n-3 codes' first three columns are distinct points of one conic, and
    # the 2n-2 codes' first two have determinant beta (xi^-s - xi^s), nonzero
    # for odd n.  So k = 2n - h takes no elimination, at every coprime twist
    calls = []
    rref = MatrixGF.rref
    monkeypatch.setattr(MatrixGF, "rref", lambda m: calls.append(m.rows) or rref(m))
    points = [
        (make_field(p, mod), n)
        for p, mod, n in (
            (13, [0, 1], 3), (43, [0, 1], 7), (61, [0, 1], 15), (211, [0, 1], 21),
            (1009, [0, 1], 9), (13, [2, 0, 1], 21), (2**31 - 1, [0, 1], 9),
            (5, [2, 0, 1], 3), (101, [2, 0, 1], 25), (31, [0, 1], 5), (607, [0, 1], 101),
        )
    ]
    taken = 0
    for ctx, n in points:
        for tag in FAMILIES:
            for s in range(1, (n + 1) // 2):
                if math.gcd(s, n) == 1:
                    code = construct_code(ctx, n, CodeFamily(tag, s=s))
                    assert code.k == 2 * n - (2 if tag == FAMILY_2N_MINUS_2 else 3)
                    taken += 1
    assert taken == 267 and calls == []


def test_dual_check_leaves_generator_unbuilt(monkeypatch):
    builds = []
    kernel_rref = codes_module.kernel_rref
    monkeypatch.setattr(
        codes_module, "kernel_rref", lambda *args: builds.append(1) or kernel_rref(*args)
    )
    family = CodeFamily(tag=FAMILY_2N_MINUS_3_PLUS, beta=2)
    for ctx, n, tag in ((GF13, 3, FAMILY_2N_MINUS_3_PLUS), (GF25, 3, FAMILY_2N_MINUS_2),
                        (make_field(43, [0, 1]), 7, FAMILY_2N_MINUS_3_MINUS)):
        code = construct_code(ctx, n, CodeFamily(tag))
        assert code.is_mds("dual") and code.min_distance("dual") == code.singleton_bound
        assert builds == []
    # each use of the generator builds it once, and gives the public route's values
    spec = family_spec(GF13, 3, family.tag, 1, GF13.element(2))
    public = LinearCode(code_from_ideal_spec(GF13, 3, spec))
    member = public.generator.data[0]
    # contains tests H v^T = 0, so it builds nothing either
    uses = {
        "to_json": (lambda c: public_keys(c.to_json()), [1]),
        "contains": (lambda c: (c.contains(member), c.contains([1] * 6)), []),
        "exhaustive": (lambda c: c.min_distance("exhaustive"), [1]),
        "auto": (lambda c: c.min_distance("auto"), [1]),
    }
    # none of them builds the dense generator: to_json, the CLI's writer and
    # exhaustive search read (pivots, A) alone
    dense = []
    echelon = codes_module.echelon
    monkeypatch.setattr(codes_module, "echelon", lambda *args: dense.append(1) or echelon(*args))
    for name, (use, expected) in uses.items():
        builds.clear()
        code = construct_code(GF13, 3, family)
        assert use(code) == use(public) == use(code), name
        assert (builds, dense) == (expected, []), name
    for ctx, n, tag in ((GF13, 3, FAMILY_2N_MINUS_3_PLUS), (make_field(43, [0, 1]), 7, FAMILY_2N_MINUS_2),
                        (make_field(3, [1, 2, 0, 1]), 13, FAMILY_2N_MINUS_3_PLUS)):
        for style in ("rref", "paper"):
            builds.clear()
            code = construct_code(ctx, n, CodeFamily(tag))
            _write_code(io.StringIO(), code, style)
            assert (builds, dense) == ([1] if style == "rref" else [], []), (ctx, style)
    # the public generator is built on each read
    assert code.generator == code.generator and dense == [1, 1]


def test_construct_code_reduces_once(monkeypatch):
    # construction reduces nothing: k is the rank of H, in the walk's entry
    # form; the one rref is the generator's, of the 3 reversed constraint rows
    calls = []
    rref = MatrixGF.rref
    monkeypatch.setattr(MatrixGF, "rref", lambda m: calls.append(m.rows) or rref(m))
    code = construct_code(make_field(61, [0, 1]), 15, CodeFamily(tag=FAMILY_2N_MINUS_3_PLUS))
    assert (calls, code.k) == ([], 27)
    assert (code.generator.rows, len(code.pivots)) == (27, 27)
    assert calls == [3]


def test_ideal_spec_code_is_eliminated_once(monkeypatch):
    # code_from_ideal_spec's RREF carries its systematic form, so LinearCode
    # takes it as it is: one elimination per code, of the dim span rows when
    # dim <= n, else of the 2n - dim constraint rows (kernel_rref).  Neither
    # LinearCode nor its left-ideal certificate, on the generator's form or
    # on its dual's (linalg.dual), eliminates again or reads a row of G
    eliminated = []
    rref = MatrixGF.rref

    def spy(m):
        out = rref(m)
        if out[0] is not m:
            eliminated.append(m.rows)
        return out

    F29, F27 = make_field(29, [0, 1]), make_field(3, [1, 2, 0, 1])
    cases = [
        (F29, 7, (plus_piece(), row(F29.one(), F29.element(5)), zero(), zero()), 3),
        (F29, 7, (full(), row(F29.zero(), F29.one()), full(), full()), 2),
        (GF25, 3, (minus_piece(), row(GF25.one(), GF25.element([1, 1]))), 3),
        (GF25, 3, (zero(), full()), 2),
        (F27, 13, (full(),) + (zero(),) * 5 + (row(F27.one(), F27.zero()),), 4),
        (F27, 13, (minus_piece(),) + (full(),) * 6, 1),
    ]
    for ctx, n, summands, rows in cases:
        spec = IdealSpec(summands)
        want = LinearCode(MatrixGF(ctx, code_from_ideal_spec(ctx, n, spec).data))
        monkeypatch.setattr(MatrixGF, "rref", spy)
        eliminated.clear()
        G = code_from_ideal_spec(ctx, n, spec)
        assert eliminated == [rows] == [min(spec.dim(), 2 * n - spec.dim())]
        G.entries = None  # any read of G's rows fails
        code = LinearCode(G)
        assert code._is_left_ideal()
        assert eliminated == [rows]
        monkeypatch.undo()
        assert (code.k, code.generator, code.pivots) == (spec.dim(), want.generator, want.pivots)
    # a constructed code's certificate is taken on the dual of its generator,
    # whose one elimination is kernel_rref's, of the h reversed constraint rows
    for ctx, n, tag in ((GF13, 3, FAMILY_2N_MINUS_3_PLUS), (F29, 7, FAMILY_2N_MINUS_2),
                        (F27, 13, FAMILY_2N_MINUS_3_PLUS)):
        monkeypatch.setattr(MatrixGF, "rref", spy)
        eliminated.clear()
        code = construct_code(ctx, n, CodeFamily(tag))
        assert left_ideal_closure_ok(code)
        code.to_json()
        assert eliminated == [2 * n - code.k]
        monkeypatch.undo()
        assert code.generator == LinearCode(MatrixGF(ctx, code.generator.data)).generator


def test_systematic_hands_out_copies():
    # a matrix's systematic() lists are its caller's: changing them changes
    # neither the matrix's carried form nor a code that shares it
    F27 = make_field(3, [1, 2, 0, 1])
    spec = IdealSpec((plus_piece(), row(F27.one(), F27.element([0, 1]))) + (zero(),) * 5)
    matrices = [
        MatrixGF.from_rows(GF13, [[0, 2, 4, 1], [0, 1, 2, 0]]).rref()[0],
        code_from_ideal_spec(F27, 13, spec),
        construct_code(GF13, 3, CodeFamily(FAMILY_2N_MINUS_3_PLUS)).generator,
    ]
    for G in matrices:
        want = G.systematic()
        code = LinearCode(G)
        doc = json.dumps(code.to_json())
        pivots, A = G.systematic()
        pivots.append(0)
        A[0][0] = A[0][-1] = 1 - A[0][0]
        A.append(A[0])
        assert G.systematic() == want
        assert (code.pivots, code.k) == (want[0], len(want[0]))
        assert code.generator == G.rref()[0].nonzero_rows()
        assert json.dumps(code.to_json()) == json.dumps(LinearCode(G).to_json()) == doc


def test_construct_code_divides_nothing(monkeypatch):
    # the family's block is row(1, beta) as it stands, canonical already, and
    # its summands reach the row builder with no IdealSpec to check them
    F27 = make_field(3, [1, 2, 0, 1])
    cases = [(GF13, 3, tag) for tag in FAMILIES] + [(F27, 13, FAMILY_2N_MINUS_3_PLUS)]
    want = [construct_code(ctx, n, CodeFamily(tag)).to_json() for ctx, n, tag in cases]

    def refuse(self, other):
        raise AssertionError("construct_code divided an element")

    monkeypatch.setattr(FieldElement, "__truediv__", refuse)
    monkeypatch.setattr(FieldElement, "__rtruediv__", refuse)
    codes = [construct_code(ctx, n, CodeFamily(tag)) for ctx, n, tag in cases]
    monkeypatch.undo()
    assert [code.to_json() for code in codes] == want


@pytest.mark.parametrize(
    "ctx, n",
    [(GF13, 3), (make_field(61, [0, 1]), 15), (make_field(13, [2, 0, 1]), 21),
     (make_field(7, [1, 1, 0, 1]), 57)],
    ids=["GF13-3", "GF61-15", "GF169-21", "GF343-57"],
)
def test_parity_rows_match_the_summand_route(ctx, n):
    # construct_code builds H from the family itself; the spec route,
    # _constraint_rows on the family's whole summand list, must give the same
    # rows, entry for entry, at every coprime twist, for the default beta and
    # for a primitive beta that construct_code passes through element_order
    k = next(k for k in range(2, ctx.q) if math.gcd(k, ctx.q - 1) == 1)
    checked = 0
    for beta in (None, ctx.generator() ** k):
        for tag in FAMILIES:
            for s in range(1, (n + 1) // 2):
                if math.gcd(s, n) != 1:
                    continue
                code = construct_code(ctx, n, CodeFamily(tag, s=s, beta=beta))
                summands = [FAMILY_POSITION0[tag]()] + [full()] * ((n - 1) // 2)
                summands[s] = Summand(ROW, ctx.one(), code.provenance.beta)
                assert code._parity_check() == _constraint_rows(ctx, n, summands), (tag, s, beta)
                checked += 1
    assert checked == 6 * sum(math.gcd(s, n) == 1 for s in range(1, (n + 1) // 2))


def test_construct_code_builds_no_summand(monkeypatch):
    # H comes straight from the family: no Summand record, no summand list,
    # and beta is negated on the entry form, not as a FieldElement
    F27 = make_field(3, [1, 2, 0, 1])
    cases = [(GF13, 3, tag, beta) for tag in FAMILIES for beta in (None, 6)]
    cases.append((F27, 13, FAMILY_2N_MINUS_3_PLUS, None))
    want = [construct_code(ctx, n, CodeFamily(tag, beta=beta)).to_json() for ctx, n, tag, beta in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("construct_code built a Summand or negated beta")

    monkeypatch.setattr(Summand, "__init__", refuse)
    monkeypatch.setattr(FieldElement, "__neg__", refuse)
    codes = [construct_code(ctx, n, CodeFamily(tag, beta=beta)) for ctx, n, tag, beta in cases]
    monkeypatch.undo()
    assert [code.to_json() for code in codes] == want


def test_public_constructor_still_reduces():
    # untrusted rows: scaled, out of order, with a zero row
    code = code_13_2n2()
    rows = [[e * 3 for e in r] for r in reversed(code.generator.data)]
    messy = LinearCode(MatrixGF(GF13, rows + [[GF13.zero()] * 6]))
    assert (messy.generator, messy.k, messy.pivots) == (code.generator, 4, code.pivots)
    assert load_code(code.to_json()).pivots == code.pivots


def test_contains_agrees_with_row_space_contains():
    # generator codes reach H by null_rows of their RREF, constructed codes keep
    # their constraint rows.  Each code is asked about a member of every code of
    # its (field, n): those satisfy some of its checks and not others.  Over
    # GF(67) the generator code is the README's low-rate [22,3], 19 checks.
    rng = random.Random(7)
    F67 = make_field(67, [0, 1])
    low_rate = IdealSpec((plus_piece(), row(F67.one(), F67.element(5))) + (zero(),) * 4)
    for ctx, n, specs in (
        (GF13, 3, None),
        (GF25, 3, None),
        (make_field(31, [0, 1]), 5, None),
        (make_field(43, [0, 1]), 7, None),
        (F67, 11, [low_rate]),
    ):
        specs = specs or [random_ideal_spec(ctx, n, rng) for _ in range(8)]
        codes = [LinearCode(code_from_ideal_spec(ctx, n, spec)) for spec in specs] + [
            construct_code(ctx, n, CodeFamily(tag, s=s))
            for tag in FAMILIES
            for s in range(1, (n + 1) // 2)
            if math.gcd(s, n) == 1
        ]
        members = []
        for code in codes:
            member = [ctx.zero()] * code.length
            for r in code.generator.data:
                c = ctx.random_element(rng)
                member = [a + c * b for a, b in zip(member, r)]
            assert code.contains(member)
            members.append(member)
        vectors = members + [[ctx.random_element(rng) for _ in range(2 * n)] for _ in range(4)]
        for code in codes:
            for v in vectors:
                assert code.contains(v) == row_space_contains(code.generator, v)
    assert codes[0].k == 3  # the last pair's generator code is the [22,3]
    with pytest.raises(ValueError):
        code_13_2n2().contains([0] * 5)


def random_columns_with_plants(ctx, rows, ncols, rng, sparse=False):
    """A random rows x ncols matrix, with one plant or none: a zero column, a
    scaled copy of a column, a combination of two columns, or of three (four
    dependent columns, found at depth 2).  With sparse, an entry of row 0 or
    1 is zero one time in three, so some columns lead in row 1 or 2."""
    data = [
        [ctx.zero() if sparse and i < 2 and rng.randrange(3) == 0 else ctx.random_element(rng)
         for _ in range(ncols)]
        for i in range(rows)
    ]
    a, b, c, d, e = rng.sample(range(ncols), 5)
    # a scalar outside GF(p) when m > 1, and not 1 unless q = 2
    x = ctx.from_index(rng.randrange(ctx.p if ctx.m > 1 else min(2, ctx.q - 1), ctx.q))
    y = ctx.from_index(rng.randrange(1, ctx.q))
    plant = rng.randrange(5)
    for r in data:
        if plant == 1:
            r[c] = ctx.zero()
        elif plant == 2:
            r[c] = x * r[a]
        elif plant == 3:
            r[c] = x * r[a] + y * r[b]
        elif plant == 4:  # four columns in one 3-space: found at depth 2
            r[e] = x * r[a] + y * r[b] + r[d]
    return MatrixGF(ctx, data)


def test_carried_walk_matches_subset_oracle():
    # at h >= 5 rows the parity-check walk runs to depth 2 and beyond, and a
    # k >= 5 generator's hyperplane walk to depth k - 2 >= 3, each level
    # handing its reduced columns down; the oracle ranks column subsets.
    # Each field's walk runs on residues (GF(13)) or packed pairs (GF(9),
    # GF(25)).
    from itertools import combinations

    from dihedralcodes.codes import _hyperplane_distance, _min_dependent_columns

    def least_dependent(m):
        return next(
            w for w in range(1, m.cols + 1)
            if any(columns_rank(m, c) < w for c in combinations(range(m.cols), w))
        )

    def most_on_a_hyperplane(m):
        k = m.rows
        return max(
            sum(c in T or columns_rank(m, T + (c,)) == k - 1 for c in range(m.cols))
            for T in combinations(range(m.cols), k - 1)
            if columns_rank(m, T) == k - 1
        )

    rng = random.Random(9)
    depths, hyperplanes, forms = set(), 0, set()
    for ctx in (GF13, GF9, GF25):
        field = ctx.form
        for _ in range(12):
            rows = rng.randrange(5, 7)
            m = random_columns_with_plants(ctx, rows, rng.randrange(rows + 1, rows + 4), rng)
            w = least_dependent(m)
            depths.add((ctx.q, min(w - 2, 2)))
            full_rank = rows == 5 and m.rank() == rows  # depth 3, C(ncols, 4) subsets
            d = m.cols - most_on_a_hyperplane(m) if full_rank else None
            cols = [field.entries(col) for col in zip(*m.data)]
            assert _min_dependent_columns(cols, field) == w
            if full_rank:
                assert _hyperplane_distance(cols, field) == d
                forms.add((ctx.q, type(field).__name__))
            hyperplanes += full_rank
    # every field had a zero column, dependent pairs and triples, and a
    # walk to depth 2 or deeper (w >= 4)
    assert depths == {(q, t) for q in (13, 9, 25) for t in (-1, 0, 1, 2)}
    assert hyperplanes >= 12
    assert forms == {(13, "_Residues"), (9, "_Pairs"), (25, "_Pairs")}


# ---------------------------------------------------------------------------
# the conic certificate of r = 3 parity checks, and twist equivalence


def conic_cases(ctx, rng):
    """Columns of 3 entries, each a kind with the certificate's verdict on it:
    points of the conic y^2 = xz, of two lines, of the conic with one column
    moved off it, and over GF(2^m) of the conic plus its nucleus (0, 1, 0),
    an arc on no conic; each under a random invertible transform, every column
    scaled by a random nonzero element."""
    el = ctx.from_index
    on_conic = [(ctx.one(), t, t * t) for t in ctx.elements()] + [(el(0), el(0), ctx.one())]
    on_lines = [(el(0), ctx.one(), t) for t in ctx.elements()]
    on_lines += [(ctx.one(), el(0), t) for t in ctx.elements() if t]
    kinds = [("conic", True), ("lines", False), ("moved", False)]
    if ctx.p == 2:
        kinds.append(("hyperoval", False))
    for kind, verdict in kinds:
        points = on_lines if kind == "lines" else on_conic
        cols = rng.sample(points, rng.randrange(min(6, len(points)), min(len(points), 9) + 1))
        if kind == "moved":
            v = on_conic[0]
            while v[1] * v[1] == v[0] * v[2]:
                v = [ctx.random_element(rng) for _ in range(3)]
            cols[rng.randrange(len(cols))] = v
        elif kind == "hyperoval":
            cols.append((el(0), ctx.one(), el(0)))
        while True:
            t = [[ctx.random_element(rng) for _ in range(3)] for _ in range(3)]
            if MatrixGF(ctx, t).rank() == 3:
                break
        scales = [el(rng.randrange(1, ctx.q)) for _ in cols]
        cols = [
            [c * sum((a * b for a, b in zip(r, v)), ctx.zero()) for r in t]
            for c, v in zip(scales, cols)
        ]
        yield kind, verdict, MatrixGF(ctx, [list(r) for r in zip(*cols)])


def test_conic_certificate_matches_walk_and_subset_oracle(monkeypatch):
    # the certificate answers d = 4 only where the brute-force oracle does,
    # and with it or without it (the plain depth-1 walk) the walk's d is the
    # oracle's.  A conic over GF(4) has 5 points, too few for the certificate.
    from itertools import combinations

    from dihedralcodes.codes import _min_dependent_columns, _on_a_conic

    rng = random.Random(18)
    taken = set()
    for ctx in (make_field(2, [1, 1, 1]), GF8, GF9, GF13, GF25):
        field = ctx.form
        for _ in range(8):
            for kind, verdict, m in conic_cases(ctx, rng):
                d = next(
                    w for w in range(1, 5)
                    if w == 4 or any(columns_rank(m, c) < w for c in combinations(range(m.cols), w))
                )
                cols = [field.entries(c) for c in zip(*m.data)]
                keys = field.points(cols)  # depth 0's keys: nonzero, pairwise distinct points
                assert None not in keys and len(set(keys)) == len(keys)
                took = _on_a_conic(keys, field)
                assert took == (verdict and ctx.q > 4)
                assert _min_dependent_columns(cols, field) == d
                if kind == "lines":
                    assert d == 3
                elif kind in ("conic", "hyperoval"):
                    assert d == 4
                taken.add((ctx.q, kind, took))
                with monkeypatch.context() as patch:
                    patch.setattr(codes_module, "_on_a_conic", lambda keys, field: False)
                    assert _min_dependent_columns(cols, field) == d
    assert {(q, "conic", True) for q in (8, 9, 13, 25)} <= taken
    assert (4, "conic", False) in taken


def test_conic_certificate_refuses_a_sixth_column_off_the_conic():
    # five points (1, t, t^2) of the conic y^2 = xz fix it; a sixth point
    # off it is refused, after the five or after a sixth on it, on every
    # entry form: residues, and packed integers over GF(5^2), GF(2^3),
    # GF(13^2) and GF(2003^2).  The certificate reads the points' keys
    from dihedralcodes.codes import _on_a_conic

    for ctx in (GF13, GF25, GF8, make_field(13, [2, 0, 1]), make_field(2003, [1, 0, 1])):
        field = ctx.form
        ts = [ctx.from_index(i) for i in range(1, 8)]
        on = [[ctx.one(), t, t * t] for t in ts]
        off = [ctx.one(), ts[0], ts[0] * ts[0] + ctx.one()]
        assert _on_a_conic(field.points([field.entries(c) for c in on]), field)
        for cols in (on[:5] + [off], on[:6] + [off], on[:5] + [off] + on[5:]):
            assert not _on_a_conic(field.points([field.entries(c) for c in cols]), field)


def test_conic_certificate_on_generator_keys_off_the_affine_plane(monkeypatch):
    from dihedralcodes.codes import _on_a_conic

    # the [2n,3,2n-2] duals of paper 2n-3 codes, on the generator side: the
    # RREF's pivot columns (1,0,0), (0,1,0), (0,0,1) are keyed (0,0,0), (1,0)
    # and (2,), the points (1,0,0), (0,1,0) and (0,0,1).  They lie on the
    # conic with the rest, among the first five or, the columns reversed,
    # after them, and the certificate answers d = 2n - 2 with no walk.  The
    # point (0,1,1) in place of (0,0,1) is off the conic through the rest,
    # and a walk finds that code's d as exhaustive search does
    walk, walked = codes_module._independent_subsets, []
    monkeypatch.setattr(codes_module, "_independent_subsets",
                        lambda *args, **options: walked.append(args[2]) or walk(*args, **options))
    for ctx, n in ((GF13, 3), (make_field(43, [0, 1]), 7), (make_field(13, [2, 0, 1]), 7)):
        field = ctx.form
        for tag in (FAMILY_2N_MINUS_3_MINUS, FAMILY_2N_MINUS_3_PLUS):
            rows = construct_code(ctx, n, CodeFamily(tag))._parity_check()
            code = LinearCode.from_generator_rows(ctx, [field.elements(r) for r in rows])
            cols = code._generator_columns()
            assert code.pivots == [0, 1, 2] and cols[:3] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
            for order in (cols, cols[::-1]):
                keys = field.points(order)
                assert [key[0] for key in keys if key[0]] == ([1, 2] if order is cols else [2, 1])
                assert _on_a_conic(keys, field)
                del walked[:]
                assert codes_module._hyperplane_distance(order, field, 0) == 2 * n - 2 and walked == []
                moved = [(0, 1, 1) if c == (0, 0, 1) else c for c in order]
                assert not _on_a_conic(field.points(moved), field)
                other = LinearCode.from_generator_rows(ctx, [field.elements(r) for r in zip(*moved)])
                d = codes_module._hyperplane_distance(moved, field)
                assert walked and d == other.min_distance("exhaustive", cap=10**7)


def test_paper_2n_minus_3_codes_take_the_conic_certificate(monkeypatch):
    # every 2n-3 code over every coprime twist: its 3 parity checks' columns
    # lie on one nondegenerate conic, so the dual engine walks no depth 1 at
    # all, the certificate's own first five columns included
    from dihedralcodes.codes import _on_a_conic

    walk, depth_1 = codes_module._independent_subsets, []

    def recorded(cols, field, t, *rest, **options):
        if t == 1:
            depth_1.append(len(cols))
        return walk(cols, field, t, *rest, **options)

    monkeypatch.setattr(codes_module, "_independent_subsets", recorded)

    points = [
        (make_field(p, mod), n)
        for p, mod, n in (
            (13, [0, 1], 3), (43, [0, 1], 7), (61, [0, 1], 15), (211, [0, 1], 21),
            (1009, [0, 1], 9), (13, [2, 0, 1], 21), (2**31 - 1, [0, 1], 9),
            (5, [2, 0, 1], 3), (101, [2, 0, 1], 25), (31, [0, 1], 5), (607, [0, 1], 101),
        )
    ]
    taken = 0
    for ctx, n in points:
        for tag in (FAMILY_2N_MINUS_3_MINUS, FAMILY_2N_MINUS_3_PLUS):
            for s in range(1, (n + 1) // 2):
                if math.gcd(s, n) == 1:
                    code = construct_code(ctx, n, CodeFamily(tag, s=s))
                    rows, field = code._parity_check(), ctx.form
                    assert _on_a_conic(field.points([list(c) for c in zip(*rows)]), field)
                    assert code.min_distance("dual") == 4
                    taken += 1
    assert taken == 178 and depth_1 == []


def test_twists_are_coordinate_permutations_of_twist_one():
    # sigma_s: a^i -> a^(s i), b a^i -> b a^(s i) (rank_oracle.twisted) moves
    # the twist-s code onto the twist-1 code, same beta; for s > 1 it does
    # not move the twist-1 code onto the twist-s code
    points = [
        (make_field(43, [0, 1]), 7), (make_field(61, [0, 1]), 15), (make_field(211, [0, 1]), 21),
        (make_field(13, [2, 0, 1]), 21), (make_field(31, [0, 1]), 5),
    ]
    for ctx, n in points:
        for tag in FAMILIES:
            one = construct_code(ctx, n, CodeFamily(tag))
            for s in range(2, (n + 1) // 2):
                if math.gcd(s, n) == 1:
                    code = construct_code(ctx, n, CodeFamily(tag, s=s, beta=one.provenance.beta))
                    assert twisted(code.generator, s, n) == one.generator
                    if n == 7:
                        assert twisted(one.generator, s, n) != code.generator


def test_repr_names_the_parameters_and_field():
    assert repr(code_13_2n2()) == "LinearCode([6,4] over GF(13))"
    assert repr(LinearCode.from_generator_rows(GF25, [[1, 0, 1]])) == "LinearCode([3,1] over GF(25))"
