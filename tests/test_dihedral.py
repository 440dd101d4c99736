import random

import pytest

from dihedralcodes.dihedral import DihedralAlgebra, left_ideal_basis, phi_inv
from dihedralcodes.errors import (
    CharDividesOrderError,
    LengthMismatchError,
    MixedContextsError,
)
from dihedralcodes.gf import FieldElement, make_field
from dihedralcodes.idempotents import cyclic_idempotent
from dihedralcodes.linalg import MatrixGF
from rank_oracle import identity

GF13 = make_field(13, [0, 1])
D6 = DihedralAlgebra(GF13, 3)


def test_char_dividing_group_order_rejected():
    gf3 = make_field(3, [0, 1])
    with pytest.raises(CharDividesOrderError):
        DihedralAlgebra(gf3, 3)  # 3 | 6
    DihedralAlgebra(gf3, 5)  # gcd(10, 3) = 1, fine
    with pytest.raises(CharDividesOrderError):
        DihedralAlgebra(GF13, 13)


def test_group_relations():
    a, b = D6.a(), D6.b()
    ba = D6.b(1)
    assert a * ba == b
    assert ba * ba == D6.one()
    assert b * b == D6.one()
    assert a * b == b * a * a  # ab = ba^{-1} = ba^2


def test_product_expansion():
    one, a = D6.one(), D6.a()
    lhs = (one + a) * (one - a)
    assert lhs == one - a * a


def test_multiplication_table_against_group_law():
    # oracle: represent monomials as (reflected, i) and multiply by the rules
    def mono_mul(x, y):
        (rx, i), (ry, j) = x, y
        if not rx and not ry:
            return (False, (i + j) % 3)
        if not rx and ry:
            return (True, (j - i) % 3)
        if rx and not ry:
            return (True, (i + j) % 3)
        return (False, (j - i) % 3)

    for rx in (False, True):
        for i in range(3):
            for ry in (False, True):
                for j in range(3):
                    product = D6.monomial(rx, i) * D6.monomial(ry, j)
                    rz, k = mono_mul((rx, i), (ry, j))
                    assert product == D6.monomial(rz, k)


def test_product_matches_the_monomial_expansion():
    # u v = sum over monomials g, h of u_g v_h (g h), summed in FieldElements
    # at the position of the monomial g h; the product runs on each field's
    # entry form: residues, packed pairs over GF(13^2), packed integers over
    # GF(3^3); n = 4 is even
    rng = random.Random(7)
    for ctx, n in ((GF13, 4), (make_field(13, [2, 0, 1]), 5), (make_field(3, [1, 2, 0, 1]), 5)):
        alg = DihedralAlgebra(ctx, n)
        monos = alg.monomials()
        for _ in range(3):
            u, v = alg.random_element(rng), alg.random_element(rng)
            want = [ctx.zero()] * (2 * n)
            for g, x in zip(monos, u.phi()):
                for h, y in zip(monos, v.phi()):
                    k = monos.index(g * h)
                    want[k] = want[k] + x * y
            assert (u * v).phi() == want


def test_associativity_and_identity_random():
    rng = random.Random(0)
    for _ in range(40):
        u = D6.random_element(rng)
        v = D6.random_element(rng)
        w = D6.random_element(rng)
        assert (u * v) * w == u * (v * w)
        assert D6.one() * u == u
        assert u * D6.one() == u


def test_involution_examples():
    a = D6.a()
    assert a.involution() == D6.a(2)
    ba2 = D6.b(2)
    assert ba2.involution() == ba2


def test_involution_is_anti_automorphism():
    rng = random.Random(1)
    for _ in range(30):
        u = D6.random_element(rng)
        v = D6.random_element(rng)
        assert (u * v).involution() == v.involution() * u.involution()
        assert u.involution().involution() == u
        assert u.involution().weight() == u.weight()


def test_phi_unit_positions():
    assert D6.one().phi() == [GF13.one()] + [GF13.zero()] * 5
    vec = D6.b(2).phi()
    assert vec[5] == GF13.one()
    assert sum(1 for c in vec if c) == 1


def test_phi_linear_and_weight_preserving():
    # + - negation and scale against FieldElement operations on phi(), on
    # residues, packed pairs over GF(13^2) and packed integers over GF(3^3)
    rng = random.Random(2)
    for alg in (D6, DihedralAlgebra(make_field(13, [2, 0, 1]), 5),
                DihedralAlgebra(make_field(3, [1, 2, 0, 1]), 5)):
        for _ in range(30):
            u = alg.random_element(rng)
            v = alg.random_element(rng)
            c = alg.ctx.random_element(rng)
            assert (u + v).phi() == [x + y for x, y in zip(u.phi(), v.phi())]
            assert (u - v).phi() == [x - y for x, y in zip(u.phi(), v.phi())]
            assert (-u).phi() == [-x for x in u.phi()]
            assert u.scale(c).phi() == [c * x for x in u.phi()]
            assert sum(1 for x in u.phi() if x) == u.weight()


def test_phi_inv_roundtrip():
    rng = random.Random(3)
    for _ in range(20):
        u = D6.random_element(rng)
        assert phi_inv(D6, u.phi()) == u
    with pytest.raises(LengthMismatchError):
        phi_inv(D6, [GF13.one()] * 5)


def test_mixed_algebra_rejected():
    other = DihedralAlgebra(GF13, 5)
    with pytest.raises(MixedContextsError):
        D6.one() + other.one()
    with pytest.raises(MixedContextsError):
        D6.one() * other.one()


def test_left_ideal_of_unit_is_whole_algebra():
    basis = left_ideal_basis([D6.one()])
    assert basis.rows == 6
    assert basis == identity(GF13, 6)


def test_left_ideal_of_e0_has_rank_two():
    e0 = cyclic_idempotent(GF13, 3, 0)
    basis = left_ideal_basis([e0])
    assert basis.rows == 2
    expected = MatrixGF(GF13, [e0.phi(), (D6.b() * e0).phi()]).rref()[0]
    assert basis == expected.nonzero_rows()


def test_left_ideal_of_twisted_generator():
    e1 = cyclic_idempotent(GF13, 3, 1)
    e2 = cyclic_idempotent(GF13, 3, 2)
    gen = e1 + (D6.b() * e2).scale(GF13.element(2))
    basis = left_ideal_basis([gen])
    assert basis.rows == 2


def test_left_ideal_basis_idempotent():
    e1 = cyclic_idempotent(GF13, 3, 1)
    gen = e1 + (D6.b() * cyclic_idempotent(GF13, 3, 2)).scale(GF13.element(5))
    basis = left_ideal_basis([gen])
    rows = [phi_inv(D6, basis.row(i)) for i in range(basis.rows)]
    assert left_ideal_basis(rows) == basis


def test_left_ideal_empty_generators():
    with pytest.raises(ValueError):
        left_ideal_basis([])


def test_text_and_json():
    e0 = cyclic_idempotent(GF13, 3, 0)
    assert e0.text() == "9 + 9*a + 9*a^2"
    b = D6.b()
    assert b.text() == "1*b"
    gf25 = make_field(5, [2, 0, 1])
    alg25 = DihedralAlgebra(gf25, 3)
    e1 = cyclic_idempotent(gf25, 3, 1)
    assert e1.text() == "2 + (3x+4)*a + (2x+4)*a^2"
    doc = e0.to_json()
    assert doc == {"alpha": [[9], [9], [9]], "beta": [[0], [0], [0]]}
    rebuilt = D6.element(doc["alpha"], doc["beta"])
    assert rebuilt == e0


def test_text_builds_no_field_element(monkeypatch):
    # text() prints each nonzero entry's coefficients by poly_text, as
    # FieldElement.text prints them, and builds no FieldElement
    gf25 = make_field(5, [2, 0, 1])
    alg = DihedralAlgebra(gf25, 4)
    u = alg.element([0, 1, 0, [3, 1]], [1, 0, [0, 1], [2, 0]])
    zero, one, b_a2 = alg.zero(), alg.one(), alg.b(2)

    def refuse(self, ctx, coeffs):
        raise AssertionError("text() built a FieldElement")

    monkeypatch.setattr(FieldElement, "__init__", refuse)
    assert zero.text() == "0"
    assert one.text() == "1"
    assert b_a2.text() == "1*b*a^2"
    assert u.text() == "1*a + (x+3)*a^3 + 1*b + x*b*a^2 + 2*b*a^3"


def test_scalar_multiplication():
    a = D6.a()
    assert a.scale(5) == 5 * a
    assert (2 * a + a) == a.scale(3)


def test_refusals_and_operands_of_other_types():
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        DihedralAlgebra(GF13, 0)
    for alpha, beta in (([1, 2], None), ([1, 2, 3], [1, 2]), ([1, 2, 3, 4], [0, 0, 0])):
        with pytest.raises(LengthMismatchError, match="^coefficient lists must have length 3$"):
            D6.element(alpha, beta)
    a = D6.a()
    assert D6.__eq__(3) is NotImplemented and D6 != "D6"
    assert a.__eq__(3) is NotImplemented and a != "a"
    with pytest.raises(TypeError, match="^expected an AlgebraElement$"):
        a + 1
    # a scalar on either side is a scale; any other factor is refused
    assert a * 5 == a * GF13.element(5) == 5 * a == a.scale(5)
    assert a.__rmul__(2.5) is NotImplemented
    with pytest.raises(TypeError):
        2.5 * a
    assert bool(a) and not D6.zero() and not a - a
    with pytest.raises(MixedContextsError, match="^generators from different group algebras$"):
        left_ideal_basis([D6.one(), DihedralAlgebra(GF13, 5).one()])
