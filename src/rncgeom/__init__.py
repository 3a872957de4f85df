"""Exact-arithmetic geometry of rational normal curves.

Construction of point configurations on rational normal curves (osculating
hyperplanes, simplex vertices), membership testing through bracket
equations, and symbolic verification that those equations hold identically.
All arithmetic is exact, over Q or over a prime field Z/p.

The root exports the quick-start and certificate path; every other name is
imported from its own module.
"""

from .curve import param_point
from .fields import QQ, PrimeField
from .identities import (
    SubsetSplit,
    split_sign,
    two_bracket,
    verify_equation_identity,
    verify_factorization,
)
from .staudt import (
    Certificate,
    VonStaudtInstance,
    build_instance,
    certificate_from_json,
    certificate_to_json,
    instance_from_json,
    instance_to_json,
    reduce_instance_mod,
    sample_instance,
    verify_instance,
)

__version__ = "0.1.0"

__all__ = [
    "QQ",
    "Certificate",
    "PrimeField",
    "SubsetSplit",
    "VonStaudtInstance",
    "build_instance",
    "certificate_from_json",
    "certificate_to_json",
    "instance_from_json",
    "instance_to_json",
    "param_point",
    "reduce_instance_mod",
    "sample_instance",
    "split_sign",
    "two_bracket",
    "verify_equation_identity",
    "verify_factorization",
    "verify_instance",
]
