import copy
import itertools
import pickle
import random
import re
import signal

import pytest

from dihedralcodes.errors import (
    MixedContextsError,
    NoSuchRootError,
    NotMonicError,
    NotPrimeError,
    ReducibleError,
    RootUnavailableError,
    ZeroElementError,
)
from dihedralcodes.gf import (
    PRIMALITY_LIMIT,
    FieldElement,
    element_order,
    factorize,
    is_prime,
    make_field,
    parse_element,
    parse_field_spec,
    poly_text,
    primitive_nth_root,
)
from dihedralcodes.gf import _inverses, _Packed, _Pairs, _pdivmod, _pxgcd, _xi_entries

GF13 = make_field(13, [0, 1])
GF25 = make_field(5, [2, 0, 1])
GF169 = make_field(13, [2, 0, 1])


# ---------------------------------------------------------------------------
# independent brute-force oracles (no reuse of library internals)


def brute_roots(coeffs, p):
    roots = []
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            roots.append(x)
    return roots


def _poly_mod(a, b, p):
    a = list(a)
    while len(a) >= len(b) and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(b):
            break
        c = (a[-1] * pow(b[-1], p - 2, p)) % p
        shift = len(a) - len(b)
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - c * bc) % p
        while a and a[-1] == 0:
            a.pop()
    return a


def _poly_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a, b, p):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for (i, x), (j, y) in itertools.product(enumerate(a), enumerate(b)):
        out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(out)


def _all_monic(degree, p):
    def rec(d):
        if d == 0:
            yield []
            return
        for tail in rec(d - 1):
            for c in range(p):
                yield [c] + tail

    for lower in rec(degree):
        yield lower + [1]


def brute_irreducible(coeffs, p):
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(coeffs) - 1
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for divisor in _all_monic(d, p):
            if not _poly_mod(coeffs, divisor, p):
                return False
    return True


def _find_irreducible(p, degree, rng):
    while True:
        coeffs = [rng.randrange(p) for _ in range(degree)] + [1]
        if brute_irreducible(coeffs, p):
            return coeffs


# ---------------------------------------------------------------------------
# construction


def test_make_field_rejects_reducible_quadratic():
    with pytest.raises(ReducibleError) as exc:
        make_field(5, [1, 0, 1])  # x^2 + 1 = (x-2)(x+2) over GF(5)
    assert exc.value.root == 2


def test_make_field_accepts_irreducible_quadratic():
    assert GF25.q == 25
    assert GF25.m == 2


def test_make_field_prime_field():
    assert GF13.q == 13
    assert GF13.m == 1


def test_make_field_rejects_nonprime():
    with pytest.raises(NotPrimeError):
        make_field(12, [0, 1])


def within_one_second(fn):
    """Run fn, failing (not hanging) if it takes more than one second."""

    def on_alarm(signum, frame):
        raise TimeoutError("took more than 1 s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        return fn()
    except TimeoutError:
        # raised afresh: a frame the alarm interrupted can have no line
        # number, and pytest then fails to render the traceback at all
        raise TimeoutError("took more than 1 s") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))

    assert [n for n in range(-3, 3000) if is_prime(n) != trial(n)] == []
    # a Carmichael number and strong pseudoprimes to the bases 2..7, 2..23, 2..37
    for n in (561, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not within_one_second(lambda: is_prime(n))


def test_factorize_matches_trial_division():
    def trial(n):
        out, f = [], 2
        while f * f <= n:
            if n % f == 0:
                out.append(f)
                while n % f == 0:
                    n //= f
            f += 1
        return out + [n] if n > 1 else out

    assert [n for n in range(1, 20000) if factorize(n) != trial(n)] == []
    # cofactors only Pollard rho can split promptly: two 31-bit primes, a cube
    semiprime = (2**31 - 1) * 2147483629
    assert within_one_second(lambda: factorize(semiprime)) == [2147483629, 2**31 - 1]
    assert within_one_second(lambda: factorize(2 * 1000003**3)) == [2, 1000003]


def test_generator_of_safe_prime_field_promptly():
    # (p - 1) / 2 is prime: trial division of p - 1 ran to 2^30
    p = 2305843009213699919
    assert within_one_second(lambda: factorize(p - 1)) == [2, (p - 1) // 2]
    gen = within_one_second(lambda: make_field(p, [0, 1]).generator())
    assert element_order(gen) == p - 1


def test_generator_of_large_quadratic_extension_promptly():
    # the p - 1 constants cannot have order p^2 - 1, so the search skips them
    ctx = make_field(2305843009213699919, [1, 0, 1])
    assert within_one_second(ctx.generator) == ctx.element("x+5")


def test_make_field_rejects_square_of_large_prime_promptly():
    with pytest.raises(NotPrimeError):
        within_one_second(lambda: make_field((2**31 - 1) ** 2, [0, 1]))


def test_factorize_splits_composite_cofactor_above_primality_limit():
    # after the bases, p^2 - 1 leaves a 113-bit cofactor with four prime factors
    p = 2305843009213699919
    assert within_one_second(lambda: factorize(p * p - 1)) == [
        2, 3, 5, 79, 823, 147771801299, (p - 1) // 2,
    ]


def test_factorize_refuses_probable_prime_above_limit_by_name():
    with pytest.raises(NotPrimeError) as exc:
        within_one_second(lambda: factorize(3 * (2**89 - 1)))
    assert str(2**89 - 1) in str(exc.value)
    assert str(PRIMALITY_LIMIT) in str(exc.value)


def test_quadratic_over_large_prime_decided_promptly():
    p = 2305843009213699919  # p = 3 mod 4, so x^2 + 1 has no root
    ctx = within_one_second(lambda: make_field(p, [1, 0, 1]))
    assert ctx.q == p * p


def test_reducible_over_large_prime_reports_least_root():
    p = 2305843009213699919
    # (x - 5)(x - (p - 3)) and (x - 7)(x - 3)(x + 1)
    for coeffs, least in (([5 * (p - 3) % p, -(p + 2) % p, 1], 5), ([21, 11, p - 9, 1], 3)):
        with pytest.raises(ReducibleError) as exc:
            within_one_second(lambda: make_field(p, coeffs))
        assert exc.value.root == least
        assert str(exc.value) == f"modulus has root {least} in GF({p})"


def test_make_field_large_mersenne_prime_promptly():
    ctx = within_one_second(lambda: make_field(2**61 - 1, [0, 1]))
    gen = within_one_second(ctx.generator)
    assert element_order(gen) == ctx.q - 1


def test_make_field_refuses_above_exact_primality_limit():
    with pytest.raises(NotPrimeError) as exc:
        within_one_second(lambda: make_field(2**89 - 1, [0, 1]))
    assert str(PRIMALITY_LIMIT) in str(exc.value)


def test_make_field_rejects_nonmonic():
    with pytest.raises(NotMonicError):
        make_field(5, [1, 0, 2])
    with pytest.raises(NotMonicError):
        make_field(5, [1])


def test_quadratic_residue_rule_over_gf5():
    # x^2 + c factors over GF(5) exactly when -c is a square
    squares = {(x * x) % 5 for x in range(5)}
    for c in range(5):
        reducible = (-c) % 5 in squares
        if reducible:
            with pytest.raises(ReducibleError):
                make_field(5, [c, 0, 1])
        else:
            make_field(5, [c, 0, 1])


def test_irreducibility_matches_root_search_small_degrees():
    rng = random.Random(0)
    for p in (2, 3, 5, 13, 47):
        for m in (2, 3):
            if p <= 3:
                candidates = list(_all_monic(m, p))
            else:
                candidates = [
                    [rng.randrange(p) for _ in range(m)] + [1] for _ in range(40)
                ]
            for coeffs in candidates:
                roots = brute_roots(coeffs, p)
                if roots:
                    with pytest.raises(ReducibleError) as exc:
                        make_field(p, coeffs)
                    assert exc.value.root == roots[0]
                else:
                    # degree 2 and 3: no root means irreducible
                    make_field(p, coeffs)


def test_irreducibility_ladder_degree_four():
    # degree 4 exercises the gcd-ladder path; oracle is trial division
    for coeffs in _all_monic(4, 3):
        expected = brute_irreducible(coeffs, 3)
        if expected:
            ctx = make_field(3, coeffs)
            assert ctx.q == 81
        else:
            with pytest.raises(ReducibleError):
                make_field(3, coeffs)


# ---------------------------------------------------------------------------
# arithmetic


def test_extension_square_reduces():
    y = GF25.element([0, 1])
    assert y * y == GF25.element(3)  # y^2 = -2 = 3


def test_inverse_in_prime_field():
    assert GF13.element(3).inverse() == GF13.element(9)
    assert GF13.element(2) ** -1 == GF13.element(7)


@pytest.mark.parametrize(
    "ctx",
    [make_field(2, [1, 1, 1]), make_field(3, [1, 0, 1]), make_field(3, [2, 1, 1]), GF25, GF169],
    ids=["GF4", "GF9", "GF9-linear-term", "GF25", "GF169"],
)
def test_quadratic_extension_inverse_and_product(ctx):
    # the GF(p^2) entry form (_Pairs) against FieldElement's polynomial
    # route: the compiled fold's canon of packed products and submul for the
    # first 30 elements, and the norm-map inverses of one batched points
    # call for every nonzero x, as the point (0, 1/x) of (x, 1)
    form = ctx.form
    assert type(form) is _Pairs
    els = list(ctx.elements())
    entries, one = form.entries(els), form.entries([ctx.one()])[0]
    for (x, a), (y, b) in itertools.product(list(zip(els, entries))[:30], repeat=2):
        assert form.elements(form.canon([a * b])) == [x * y]
        assert form.elements(form.submul([a], b, [a])) == [x - y * x]
    points = form.points([[a, one] for a in entries])
    assert points == [(1,)] + [(0, *form.entries([x.inverse()])) for x in els[1:]]
    assert all(x * x.inverse() == ctx.one() for x in els[1:])
    with pytest.raises(ZeroDivisionError):
        ctx.zero().inverse()


@pytest.mark.parametrize("ctx", [make_field(3, [1, 2, 0, 1]), make_field(7, [1, 1, 0, 1]),
                                 make_field(3, [1, 0, 2, 0, 0, 0, 0, 1])], ids=lambda ctx: ctx.spec())
def test_packed_points_make_one_inversion_per_call(ctx, monkeypatch):
    # m >= 3: points inverts the product of a call's leads once, as a
    # FieldElement, and reads each lead's inverse off the prefix products;
    # its keys are the per-lead FieldElement.inverse ones.  40 vectors of
    # lengths 0..4 with zero vectors and zero leads among them; then an
    # empty batch and a batch led by 1 and -1 alone, which invert nothing
    form, rng = ctx.form, random.Random(ctx.q)
    assert type(form) is _Packed
    vs = [[ctx.random_element(rng) if rng.random() < 0.6 else ctx.zero() for _ in range(i % 5)]
          for i in range(40)]
    vs[7], vs[8] = [ctx.zero()] * 4, [ctx.zero(), ctx.zero(), ctx.one(), -ctx.one()]
    want = []
    for u in vs:
        lead = next((i for i, e in enumerate(u) if e), None)
        inv = None if lead is None else u[lead].inverse()
        want.append(None if inv is None else (lead, *form.entries([e * inv for e in u[lead + 1:]])))
    assert want.count(None) >= 10 and {key[0] for key in want if key} >= {0, 1, 2}
    # _inverses' formula, which points mirrors: 1/x_k = (x_0 ... x_(k-1)) / (x_0 ... x_k)
    keyed = [k for k, key in enumerate(want) if key]
    prods = list(itertools.accumulate([vs[k][want[k][0]] for k in keyed], lambda a, b: a * b, initial=ctx.one()))
    inverse = dict(zip(keyed, [a * b.inverse() for a, b in zip(prods, prods[1:])]))
    assert want == [key and (key[0], *form.entries([e * inverse[k] for e in vs[k][key[0] + 1:]]))
                    for k, key in enumerate(want)]
    entries = [form.entries(u) for u in vs]
    leads, xs = form._leads(entries)  # the one lead scan, with each lead's entry, 0 for v = 0
    assert xs == [next((e for e in u if e), 0) for u in entries]
    assert [lead for lead, key in zip(leads, want) if key] == [key[0] for key in want if key]
    calls, inverse = [], FieldElement.inverse
    monkeypatch.setattr(FieldElement, "inverse", lambda x: calls.append(x) or inverse(x))
    assert form.points(entries) == want
    assert len(calls) == 1
    assert form.points([]) == [] and len(calls) == 1
    units = [[ctx.one(), *u[1:]] if i % 2 else [-ctx.one(), *u[1:]] for i, u in enumerate(vs) if u]
    keys = [(0, *form.entries([e * u[0] for e in u[1:]])) for u in units]  # u[0] is its own inverse
    assert form.points([form.entries(u) for u in units]) == keys and len(calls) == 1


@pytest.mark.parametrize("ctx", [GF25, GF169, make_field(2003, [1, 0, 1])], ids=lambda ctx: ctx.spec())
def test_packed_points_agree_with_the_inverses_path(ctx):
    # _Packed._points, run on GF(p^2) entries, keys a batch as _Pairs._points
    # does through _inverses on the leads' norms: the two copies of
    # Montgomery's loop give one answer.  Leads 0..2, zero vectors, lengths 0..4
    form, rng = ctx.form, random.Random(ctx.q)
    vs = [form.entries([ctx.random_element(rng) if rng.random() < 0.6 else ctx.zero() for _ in range(i % 5)])
          for i in range(40)]
    assert type(form) is _Pairs and None in form.points(vs)
    assert _Packed._points(form, vs) == form.points(vs)
    xs = [rng.randrange(ctx.p) for _ in range(30)] + [0]
    assert _inverses(xs, ctx.p) == [pow(x, -1, ctx.p) if x else 0 for x in xs]


def test_pow_signs():
    x = GF13.element(2)
    assert x**0 == GF13.one()
    assert x**-3 == (x**3).inverse()
    assert GF25.element([1, 1]) ** 24 == GF25.one()
    rng = random.Random(5)
    for ctx in (GF13, GF25, make_field(3, [1, 2, 0, 1])):
        assert ctx.zero() ** 0 == ctx.one()
        for _ in range(10):
            x, e = ctx.from_index(rng.randrange(1, ctx.q)), rng.randrange(1, 3 * ctx.q)
            assert x**-e == (x**e).inverse()


def test_pxgcd_is_a_monic_common_divisor_with_a_bezout_coefficient():
    # s b = g (mod a), g monic and dividing a and b, so every common divisor
    # of a and b divides g; zero arguments and trailing zeros included
    rng = random.Random(3)
    for p in (2, 3, 7, 13, 2**31 - 1):
        for _ in range(150):
            a, b = ([rng.randrange(p) for _ in range(rng.randrange(0, 7))] for _ in range(2))
            if rng.random() < 0.3:  # a shared factor
                f = [rng.randrange(p) for _ in range(rng.randrange(1, 4))] + [1]
                a, b = _poly_mul(a, f, p), _poly_mul(b, f, p)
            g, s = _pxgcd(a, b, p)
            a, b = _poly_trim(a), _poly_trim(b)
            if not a and not b:
                assert (g, s) == ([], [])
                continue
            assert g[-1] == 1
            assert not _poly_mod(a, g, p) and not _poly_mod(b, g, p)
            sb = _poly_mul(s, b, p)
            sb_less_g = _poly_trim([(x - y) % p for x, y in itertools.zip_longest(sb, g, fillvalue=0)])
            assert not (_poly_mod(sb_less_g, a, p) if a else sb_less_g)


@pytest.mark.parametrize("ctx", [make_field(3, [1, 2, 0, 1]), make_field(7, [1, 1, 0, 1])],
                         ids=["GF27", "GF343"])
def test_pow_matches_repeated_products(ctx):
    rng = random.Random(4)
    xs = [ctx.zero(), ctx.one()] + [ctx.random_element(rng) for _ in range(25)]
    for x in xs:
        acc = ctx.one()
        for e in range(31):
            assert x**e == acc
            acc = acc * x


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GF13.element(1) / GF13.zero()
    with pytest.raises(ZeroDivisionError):
        GF25.zero().inverse()
    with pytest.raises(ZeroDivisionError):
        GF13.zero() ** -1


def test_mixed_contexts_rejected():
    with pytest.raises(MixedContextsError):
        GF13.element(1) + GF25.element(1)
    with pytest.raises(MixedContextsError):
        GF25.element(1) * GF13.element(1)


def test_int_coercion_in_arithmetic():
    assert GF13.element(5) + 10 == GF13.element(2)
    assert 3 * GF13.element(5) == GF13.element(2)
    assert GF13.element(1) / 2 == GF13.element(7)


def test_bool_is_not_read_as_an_integer():
    # the scalar branch refuses True as the list branch refuses [True]
    for value in (True, False, [True]):
        with pytest.raises(ValueError, match="is not an integer"):
            GF13.element(value)
    # a bool operand is foreign: == is False, arithmetic raises TypeError
    one = GF13.element(1)
    assert not one == True
    assert one != True
    assert True not in [one] and one not in [True, False]
    with pytest.raises(TypeError):
        one + True
    with pytest.raises(TypeError):
        False * one


def test_field_axioms_random():
    rng = random.Random(1)
    cubic = _find_irreducible(7, 3, rng)
    for ctx in (GF13, GF25, make_field(7, cubic)):
        one = ctx.one()
        for _ in range(30):
            x = ctx.from_index(rng.randrange(1, ctx.q))
            assert x * x.inverse() == one
            assert x ** (ctx.q - 1) == one
            y = ctx.random_element(rng)
            z = ctx.random_element(rng)
            assert x * (y + z) == x * y + x * z


# ---------------------------------------------------------------------------
# orders and roots of unity


def test_element_order_examples():
    assert element_order(GF13.element(2)) == 12
    assert element_order(GF13.element(1)) == 1
    assert element_order(GF13.element(3)) == 3


def test_element_order_of_zero():
    with pytest.raises(ZeroElementError):
        element_order(GF13.zero())


def test_element_order_matches_iteration_oracle():
    rng = random.Random(2)
    for ctx in (GF13, GF25):
        for _ in range(20):
            x = ctx.from_index(rng.randrange(1, ctx.q))
            t = 1
            acc = x
            while acc != ctx.one():
                acc = acc * x
                t += 1
            assert element_order(x) == t
            assert (ctx.q - 1) % t == 0


def test_canonical_generator():
    assert GF13.generator() == GF13.element(2)
    assert GF25.generator() == GF25.element([1, 1])  # x+1, order 24


def test_extension_field_orders():
    assert element_order(GF25.element([1, 1])) == 24  # x+1
    assert element_order(GF25.element([2, 1])) == 3  # x+2 = (x+1)^8
    assert element_order(GF25.element([0, 1])) == 8  # x: x^2 = 3, ord(3) = 4


def test_primitive_nth_root_examples():
    assert primitive_nth_root(GF13, 3) == GF13.element(3)
    assert primitive_nth_root(GF13, 1) == GF13.one()
    with pytest.raises(NoSuchRootError):
        primitive_nth_root(GF13, 5)


def test_primitive_nth_root_has_exact_order():
    for ctx, n in ((GF13, 3), (GF13, 4), (GF13, 12), (GF25, 3), (GF25, 8), (GF25, 24)):
        xi = primitive_nth_root(ctx, n)
        assert xi**n == ctx.one()
        for k in range(1, n):
            assert xi**k != ctx.one()


def test_xi_entries_refuses_what_primitive_nth_root_refuses():
    # the slot answers only an n it computed: n = 0 and a non-divisor raise,
    # on a fresh field and with another n kept, and leave the kept n
    ctx = make_field(13, [0, 1])
    for _ in range(2):
        with pytest.raises(ValueError, match="n must be positive") as refusal:
            _xi_entries(ctx, 0)
        assert type(refusal.value) is ValueError
        with pytest.raises(RootUnavailableError):
            _xi_entries(ctx, 5)
        assert _xi_entries(ctx, 3) == (1, 3, 9)
    assert ctx._xi == (3, (1, 3, 9))
    assert _xi_entries(ctx, 4) == (1, 8, 12, 5)
    assert _xi_entries(GF169, 7) == tuple(GF169.form.entries(
        [primitive_nth_root(GF169, 7) ** i for i in range(7)]))


def test_equal_fields_each_keep_their_own_roots():
    f, g = make_field(13, [0, 1]), make_field(13, [0, 1])
    assert f == g and f is not g
    assert _xi_entries(f, 3) == (1, 3, 9)
    assert g._xi is None
    assert _xi_entries(g, 3) == _xi_entries(f, 3)
    assert g._xi == f._xi == (3, (1, 3, 9))


@pytest.mark.parametrize(
    "ctx",
    [GF13, GF169, make_field(7, [2, 0, 0, 1]), make_field(3, [1, 0, 2, 0, 0, 0, 0, 1])],
    ids=["m1", "m2", "m3", "m7"],
)
def test_a_field_pickles_and_copies_as_its_modulus(ctx):
    # a packed form's canon and submul are compiled per field and do not
    # pickle; the field is rebuilt from (p, modulus) and compiles its own
    x, y = ctx.from_index(ctx.q - 2), ctx.generator()
    a, b = ctx.form.entries([x, y])
    for twin in (pickle.loads(pickle.dumps(ctx)), copy.deepcopy(ctx), copy.copy(ctx)):
        assert twin == ctx and hash(twin) == hash(ctx) and twin is not ctx
        assert twin.form.elements(twin.form.canon([a * b])) == [x * y]


def test_compiled_folds_name_their_field():
    for ctx in (GF169, make_field(7, [2, 0, 0, 1])):
        for fold in (ctx.form.canon, ctx.form.submul, ctx.form.scale):
            assert fold.__code__.co_filename == f"<{fold.__name__} {ctx.spec()}>"
    assert GF169.form.canon.__code__.co_filename == "<canon p=13;mod=[2,0,1]>"


# ---------------------------------------------------------------------------
# encoding


def test_element_text_forms():
    assert GF25.element([4, 3]).text() == "3x+4"
    assert GF25.element([0, 1]).text() == "x"
    assert GF25.element([2, 0]).text() == "2"
    assert GF25.zero().text() == "0"
    cubic_ctx = make_field(2, [1, 1, 0, 1])
    assert cubic_ctx.element([1, 1, 1]).text() == "x^2+x+1"


def test_poly_text_formats_moduli_and_elements_alike():
    # one formatter for element text and the modulus that field-check prints
    assert poly_text(GF25.modulus) == "x^2+2"
    assert poly_text(make_field(2, [1, 1, 0, 1]).modulus) == "x^3+x+1"
    assert poly_text((0, 1)) == "x"
    assert poly_text([0, 0, 0]) == "0"


def test_parse_element_both_forms():
    assert parse_element(GF25, "3x+4") == GF25.element([4, 3])
    assert parse_element(GF25, "[4,3]") == GF25.element([4, 3])
    assert parse_element(GF25, "4 + 3x") == GF25.element([4, 3])
    assert parse_element(GF25, "x") == GF25.element([0, 1])
    assert parse_element(GF13, "7") == GF13.element(7)
    assert parse_element(GF25, "-x+1") == GF25.element([1, 4])
    assert parse_element(GF25, "3 * x - 1") == GF25.element([4, 3])


@pytest.mark.parametrize(
    "ctx, value, named",
    [
        (GF13, 2.5, "2.5 is not an integer, a coefficient list, text or an element"),
        (GF13, None, "None is not an integer"),
        (GF13, object(), "<object object at 0x[0-9a-f]+> is not an integer"),
        (GF13, b"1", "b'1' is not an integer"),  # not read as the coefficient 49
        (GF25, [1, 2, 3], "coefficient list longer than extension degree 2"),
    ],
    ids=["float", "none", "object", "bytes", "extra-coefficient"],
)
def test_element_refuses_what_it_cannot_read_by_name(ctx, value, named):
    # a ValueError naming the value, not "TypeError: 'float' object is not iterable"
    with pytest.raises(ValueError, match=f"^{named}"):
        ctx.element(value)


def test_element_reads_a_coefficient_tuple_and_trims_zero_extras():
    assert GF25.element((4, 3)) == GF25.element([4, 3])
    assert GF25.element([4, 3, 0, 0]) == GF25.element([4, 3])


@pytest.mark.parametrize(
    "ctx, text",
    [(GF13, "+"), (GF13, "-"), (GF13, "3-"), (GF25, "x+"), (GF25, "x--3"), (GF25, "3++x"),
     (GF25, "3 4"), (GF13, "3*4")],
    ids=["plus", "minus", "trailing-sign", "trailing-plus", "double-minus", "double-plus",
         "two-terms-no-sign", "star-between-digits"],
)
def test_parse_element_refuses_malformed_text_by_name(ctx, text):
    # not read as 0, 0, 3, x, x+2, x+3, 34 = 4 and 34 = 8
    with pytest.raises(ValueError, match=f"^cannot parse element {re.escape(repr(text))}$"):
        parse_element(ctx, text)


@pytest.mark.parametrize("text", ["[4,", "[4,3] x", "[", "[4]]"])
def test_parse_element_names_a_list_that_is_not_json(text):
    with pytest.raises(ValueError, match=f"^{re.escape(repr(text))} is not a field element: "):
        parse_element(GF25, text)


def test_parse_element_rejects_garbage():
    with pytest.raises(ValueError):
        parse_element(GF13, "x")  # degree 1 term in a prime field
    with pytest.raises(ValueError):
        parse_element(GF25, "3z+4")


def test_field_spec_roundtrip():
    assert GF25.spec() == "p=5;mod=[2,0,1]"
    assert parse_field_spec(GF25.spec()) == GF25
    assert parse_field_spec("p=13") == GF13
    with pytest.raises(ValueError):
        parse_field_spec("q=25")


def test_index_roundtrip():
    for ctx in (GF13, GF25):
        for i in range(ctx.q):
            coeffs = ctx.from_index(i).coeffs
            assert sum(c * ctx.p**t for t, c in enumerate(coeffs)) == i


def test_rare_refusals_and_reflected_operators():
    # division by the zero polynomial, an index outside 0..q-1, blank element
    # text; an int on the left of - and /; and a value that is no field
    # element, which each operator hands back to Python as NotImplemented
    with pytest.raises(ZeroDivisionError, match="^polynomial division by zero$"):
        _pdivmod([1, 2], [0, 0], 13)
    for i in (-1, 25):
        with pytest.raises(IndexError, match=f"^element index {i} out of range for q=25$"):
            GF25.from_index(i)
    with pytest.raises(ValueError, match="^empty element string$"):
        parse_element(GF13, "  ")
    x = GF25.element([0, 1])
    assert 3 - x == GF25.element([3, 4]) == -(x - 3)
    assert (1 / x) * x == GF25.one() and 1 / x == x.inverse()
    assert GF13.__eq__(13) is NotImplemented and GF13 != "p=13"
    for op in ("__sub__", "__rsub__", "__truediv__", "__rtruediv__"):
        assert getattr(x, op)(2.5) is NotImplemented
    for compute in (lambda: x - 2.5, lambda: 2.5 - x, lambda: x / 2.5, lambda: 2.5 / x):
        with pytest.raises(TypeError):
            compute()
