"""Exact-arithmetic geometry of rational normal curves.

Construction of point configurations on rational normal curves (osculating
hyperplanes, simplex vertices), membership testing through bracket
equations, and symbolic verification that those equations hold identically.
All arithmetic is exact, over Q or over a prime field Z/p.
"""

from .curve import (
    BinaryForm,
    ParamPoint,
    RNCModel,
    apolar_operator,
    apolarity_apply,
    cross_value,
    curve_contains,
    curve_point,
    fit_rnc,
    model_from_json,
    model_to_json,
    osculating_coeffs,
    osculating_hyperplane,
    param_from_json,
    param_point,
    param_to_json,
    simplex_vertex,
    veronese_coords,
    veronese_embed,
    vertex_coords,
)
from .equations import (
    BracketEquation,
    EquationReport,
    MembershipResult,
    count_equations,
    enumerate_equations,
    equation_at,
    equation_from_json,
    evaluate_equation,
    evaluate_many,
    lies_on_rnc,
    membership,
    report_to_json,
    sample_equations,
)
from .errors import CharacteristicError, DegenerateInputError, MismatchError
from .fields import (
    QQ,
    Field,
    PrimeField,
    Rationals,
    Residue,
    Scalar,
    field_from_json,
    field_to_json,
)
from .identities import (
    SignAnalysis,
    SubsetSplit,
    equation_sign_analysis,
    factored_bracket,
    first_group,
    group_of,
    second_group,
    split_sign,
    two_bracket,
    verify_equation_identity,
    verify_factorization,
    vertex_bracket_poly,
    vertex_polys,
)
from .polynomials import MultiPoly, poly_det
from .projective import (
    Configuration,
    Hyperplane,
    ProjectivePoint,
    bracket,
    bracket_vectors,
    config_from_json,
    config_to_json,
    det,
    hyperplane_intersection,
    is_degenerate,
    is_general_linear_position,
    rank,
)
from .staudt import (
    Certificate,
    VonStaudtInstance,
    build_instance,
    castelnuovo_check,
    certificate_from_json,
    certificate_to_json,
    dual_configuration,
    instance_from_json,
    instance_to_json,
    reduce_instance_mod,
    sample_instance,
    verify_instance,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
