import ast
import pathlib

import pytest

import dihedralcodes
from dihedralcodes.dihedral import DihedralAlgebra, left_ideal_basis
from dihedralcodes.errors import RootUnavailableError
from dihedralcodes.gf import make_field, primitive_nth_root
from dihedralcodes.idempotents import (
    central_primitive_idempotents,
    cyclic_family,
    cyclic_idempotent,
)

GF13 = make_field(13, [0, 1])
GF25 = make_field(5, [2, 0, 1])


def test_frozen_values_gf13_n3():
    alg = DihedralAlgebra(GF13, 3)
    assert cyclic_idempotent(GF13, 3, 0) == alg.element([9, 9, 9])
    assert cyclic_idempotent(GF13, 3, 1) == alg.element([9, 3, 1])
    assert cyclic_idempotent(GF13, 3, 2) == alg.element([9, 1, 3])


def test_e0_coefficients_are_inverse_of_n():
    for ctx, n in ((GF13, 3), (GF13, 4), (GF25, 3), (make_field(31, [0, 1]), 5)):
        e0 = cyclic_idempotent(ctx, n, 0)
        inv_n = ctx.element(n).inverse()
        assert all(c == inv_n for c in e0.alpha)
        assert not any(e0.beta)


def test_cyclic_family_is_complete_orthogonal():
    for ctx, n in ((GF13, 3), (GF25, 3), (make_field(31, [0, 1]), 5)):
        fam = cyclic_family(ctx, n)
        alg = DihedralAlgebra(ctx, n)
        total = alg.zero()
        for i, ei in enumerate(fam):
            for j, ej in enumerate(fam):
                expected = ei if i == j else alg.zero()
                assert ei * ej == expected
            total = total + ei
        assert total == alg.one()


def test_eigenvalue_property():
    # a^t e_i = xi^{it} e_i and  b a^t e_i = xi^{it} b e_i
    for ctx, n in ((GF13, 3), (GF25, 3)):
        alg = DihedralAlgebra(ctx, n)
        xi = primitive_nth_root(ctx, n)
        b = alg.b()
        for i in range(n):
            ei = cyclic_idempotent(ctx, n, i)
            for t in range(n):
                at = alg.a(t)
                assert at * ei == ei.scale(xi ** (i * t))
                assert (b * at) * ei == (b * ei).scale(xi ** (i * t))


def test_central_family_frozen_gf13_n3():
    fam = central_primitive_idempotents(GF13, 3)
    alg = DihedralAlgebra(GF13, 3)
    assert len(fam) == 3
    assert fam.members[0] == alg.element([11, 11, 11], [11, 11, 11])
    assert fam.members[1] == alg.element([11, 11, 11], [2, 2, 2])
    assert fam.members[2] == alg.element([5, 4, 4])


def test_central_family_properties_odd():
    import random

    rng = random.Random(0)
    for ctx, n in ((GF13, 3), (GF25, 3), (make_field(31, [0, 1]), 5)):
        alg = DihedralAlgebra(ctx, n)
        fam = central_primitive_idempotents(ctx, n)
        assert len(fam) == 2 + (n - 1) // 2
        total = alg.zero()
        for i, zi in enumerate(fam):
            assert zi * zi == zi
            for j, zj in enumerate(fam):
                if i != j:
                    assert zi * zj == alg.zero()
            total = total + zi
            assert zi * alg.a() == alg.a() * zi
            assert zi * alg.b() == alg.b() * zi
            u = alg.random_element(rng)
            assert zi * u == u * zi
        assert total == alg.one()


def test_central_family_even_n():
    # n = 4 over GF(13): 4 | 12, gcd(8, 13) = 1
    fam = central_primitive_idempotents(GF13, 4)
    alg = DihedralAlgebra(GF13, 4)
    assert len(fam) == 4 + (4 - 2) // 2
    total = alg.zero()
    for i, zi in enumerate(fam):
        assert zi * zi == zi
        for j, zj in enumerate(fam):
            if i != j:
                assert zi * zj == alg.zero()
        total = total + zi
        assert zi * alg.a() == alg.a() * zi
        assert zi * alg.b() == alg.b() * zi
    assert total == alg.one()


def _central_by_group_products(ctx, n):
    """The central family by AlgebraElement products and sums: the reference
    for the library's family, which places coordinates instead."""
    alg = DihedralAlgebra(ctx, n)
    one, b, half = alg.one(), alg.b(), ctx.element(2).inverse()
    e = [cyclic_idempotent(ctx, n, i) for i in range(n)]
    members = []
    for i in (0, n // 2) if n % 2 == 0 else (0,):
        members += [((one + b) * e[i]).scale(half), ((one - b) * e[i]).scale(half)]
    pairs = range(1, n // 2) if n % 2 == 0 else range(1, (n - 1) // 2 + 1)
    return members + [e[i] + e[n - i] for i in pairs]


@pytest.mark.parametrize("ctx, n", [
    (GF13, 3), (GF13, 4), (GF13, 6), (GF25, 4),
    (make_field(13, [2, 0, 1]), 21), (make_field(3, [1, 2, 0, 1]), 13),
])
def test_central_family_equals_the_group_products(ctx, n):
    fam = central_primitive_idempotents(ctx, n)
    assert list(fam.members) == _central_by_group_products(ctx, n)
    assert (fam.n, fam.ctx, fam.xi) == (n, ctx, primitive_nth_root(ctx, n))
    assert cyclic_family(ctx, n).xi == fam.xi


def test_dimension_of_principal_ideals():
    for ctx, n in ((GF13, 3), (GF25, 3)):
        for i in range(n):
            ei = cyclic_idempotent(ctx, n, i)
            assert left_ideal_basis([ei]).rows == 2


def test_root_unavailable():
    with pytest.raises(RootUnavailableError):
        cyclic_idempotent(GF13, 5, 0)
    with pytest.raises(RootUnavailableError):
        central_primitive_idempotents(GF13, 5)


def test_index_range():
    with pytest.raises(IndexError):
        cyclic_idempotent(GF13, 3, 3)
    with pytest.raises(IndexError):
        cyclic_idempotent(GF13, 3, -1)


def test_the_library_path_never_imports_the_idempotents():
    # the idempotents are the tests' oracle for P and the constructions, so
    # the modules below them import nothing from idempotents.py; read from
    # the source, since the package __init__ imports every module at run time
    src = pathlib.Path(dihedralcodes.__file__).parent
    for name in ("gf", "linalg", "dihedral", "wedderburn", "codes"):
        tree = ast.parse((src / f"{name}.py").read_text())
        imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names]
        imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        imported += [f"{node.module or ''}.{alias.name}" for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) for alias in node.names]
        assert imported and not [m for m in imported if "idempotents" in m.split(".")], name
