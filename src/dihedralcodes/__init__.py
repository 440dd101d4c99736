"""MDS group codes in dihedral group algebras over finite fields."""

from .codes import (
    FAMILIES,
    FAMILY_2N_MINUS_2,
    FAMILY_2N_MINUS_3_MINUS,
    FAMILY_2N_MINUS_3_PLUS,
    CodeFamily,
    LinearCode,
    construct_code,
    generator_matrix_presentation,
    left_ideal_closure_ok,
    load_code,
)
from .dihedral import AlgebraElement, DihedralAlgebra, left_ideal_basis, phi_inv
from .gf import (
    FieldCtx,
    FieldElement,
    element_order,
    make_field,
    parse_element,
    parse_field_spec,
    primitive_nth_root,
)
from .idempotents import (
    IdempotentFamily,
    central_primitive_idempotents,
    cyclic_family,
    cyclic_idempotent,
)
from .linalg import MatrixGF
from .wedderburn import (
    IdealSpec,
    Summand,
    WedderburnTuple,
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

__all__ = [
    "AlgebraElement",
    "CodeFamily",
    "DihedralAlgebra",
    "FAMILIES",
    "FAMILY_2N_MINUS_2",
    "FAMILY_2N_MINUS_3_MINUS",
    "FAMILY_2N_MINUS_3_PLUS",
    "FieldCtx",
    "FieldElement",
    "IdealSpec",
    "IdempotentFamily",
    "LinearCode",
    "MatrixGF",
    "Summand",
    "WedderburnTuple",
    "central_primitive_idempotents",
    "code_from_ideal_spec",
    "construct_code",
    "cyclic_family",
    "cyclic_idempotent",
    "element_order",
    "full",
    "generator_matrix_presentation",
    "left_ideal_basis",
    "left_ideal_closure_ok",
    "load_code",
    "make_field",
    "minus_piece",
    "parse_element",
    "parse_field_spec",
    "phi_inv",
    "plus_piece",
    "primitive_nth_root",
    "random_ideal_spec",
    "row",
    "wedderburn_inverse",
    "wedderburn_map",
    "zero",
]

__version__ = "0.1.0"
