"""Defining equations of Rees algebras of height-two ideals in k[x0,x1].

The package computes, for an ideal presented by a graded n x (n-1) matrix,
certified generators of the Rees ideal in high x-degrees by climbing a tower
of approximations (one column of the presentation at a time), and
cross-validates everything against an independent Groebner-basis saturation
oracle.
"""
from .field import DEFAULT_PRIME, PrimeField, RationalField, field_from_json, field_to_json
from .ring import (
    GradingError,
    ParseError,
    Poly,
    PolyRing,
    RingMap,
    bidegree,
    linear_images,
    parse_poly,
    poly_to_str,
    promote,
    ring_R,
    ring_S,
    ring_scroll,
)
from .syzygy import (
    GradedMatrix,
    HeightError,
    KernelBudgetError,
    ScrollPresentation,
    SigmaInvariants,
    graded_kernel,
    matrix_from_rows,
    scroll_matrix,
    scroll_realization_images,
    signed_maximal_minors,
)
from .tower import (
    NormalizationError,
    PresentationInput,
    TowerLevel,
    build_level,
    check_truncation_equality,
    evaluation_membership,
    hull_embedding,
    hull_quotient_hilbert,
    load_presentation,
    sym_equations,
)
from .combinat import (
    BidegreeTable,
    below_weight_exponents,
    bidegree_table,
    minimal_weight_exponents,
    weight,
    weight_drop_monomials,
)
from .generators import (
    GeneratorRecord,
    almost_linear_generators,
    recursion_generators,
    slice_basis,
    slice_generators,
    tower_generators,
    trim_slice,
    u_span_dim,
)
from .oracle import (
    ExponentOverflowError,
    GroebnerBasis,
    WindowError,
    bigraded_hilbert,
    buchberger,
    minimal_generator_bidegrees,
    normal_form,
    saturated_ideal,
)

__all__ = [
    "DEFAULT_PRIME", "PrimeField", "RationalField", "field_from_json",
    "field_to_json",
    "GradingError", "ParseError", "Poly", "PolyRing", "RingMap",
    "bidegree", "linear_images", "parse_poly", "poly_to_str", "promote",
    "ring_R", "ring_S", "ring_scroll",
    "GradedMatrix", "HeightError", "KernelBudgetError", "ScrollPresentation",
    "SigmaInvariants", "graded_kernel", "matrix_from_rows", "scroll_matrix",
    "scroll_realization_images", "signed_maximal_minors",
    "NormalizationError", "PresentationInput", "TowerLevel",
    "build_level", "check_truncation_equality", "evaluation_membership",
    "hull_embedding", "hull_quotient_hilbert", "load_presentation",
    "sym_equations",
    "BidegreeTable", "below_weight_exponents", "bidegree_table",
    "minimal_weight_exponents", "weight", "weight_drop_monomials",
    "GeneratorRecord", "almost_linear_generators", "recursion_generators",
    "slice_basis", "slice_generators", "tower_generators", "trim_slice",
    "u_span_dim",
    "ExponentOverflowError", "GroebnerBasis", "WindowError",
    "bigraded_hilbert", "buchberger", "minimal_generator_bidegrees",
    "normal_form", "saturated_ideal",
]

__version__ = "0.1.0"
