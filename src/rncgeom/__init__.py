"""Exact-arithmetic geometry of rational normal curves.

Construction of point configurations on rational normal curves (osculating
hyperplanes, simplex vertices), membership testing through bracket
equations, and symbolic verification that those equations hold identically.
All arithmetic is exact, over Q or over a prime field Z/p.

The root exports the quick-start and certificate path; every other name is
imported from its own module.  An export's module, or a submodule read as
an attribute, is imported on its first read (PEP 562), so importing the
package imports none of them.
"""

from importlib import import_module
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # the exports, for static tools; read lazily below
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

# the exports' home modules, each importing those before it, so the first
# that holds a name imports nothing its home does not
_HOMES = ("fields", "curve", "identities", "staudt")
_SUBMODULES = ("cli", "curve", "equations", "errors", "fields", "identities",
               "polynomials", "projective", "staudt")


def __getattr__(name: str):
    if name in _SUBMODULES:  # importing a submodule binds it here
        return import_module(f".{name}", __name__)
    for home in _HOMES if name in __all__ else ():
        namespace = vars(import_module(f".{home}", __name__))
        if name in namespace:
            value = globals()[name] = namespace[name]
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
