"""Level-N form class groups of imaginary quadratic orders, ray class
invariants built from Siegel and Fricke functions, and derivatives of order
L-functions at s = 0."""

from .numerics import (
    BigComplex,
    DomainError,
    FormatError,
    InvariantViolation,
    PrecisionPolicy,
    ResourceError,
    recognize_integer,
)
from .quadforms import (
    ClassGroup,
    Form,
    OrderContext,
    SL2,
    class_enumerate,
    compose_level,
    dirichlet_compose,
    enumerate_reduced,
    gamma1_equivalent,
    make_coprime,
    reduce_form,
)

__version__ = "0.1.0"

__all__ = [
    "BigComplex",
    "ClassGroup",
    "DomainError",
    "Form",
    "FormatError",
    "InvariantViolation",
    "OrderContext",
    "PrecisionPolicy",
    "ResourceError",
    "SL2",
    "class_enumerate",
    "compose_level",
    "dirichlet_compose",
    "enumerate_reduced",
    "gamma1_equivalent",
    "make_coprime",
    "recognize_integer",
    "reduce_form",
    "__version__",
]
