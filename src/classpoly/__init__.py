"""Exact minimal polynomials of modular function values at CM points.

The pipeline enumerates the extended form classes of an imaginary quadratic
order at a congruence level, evaluates a chosen modular function once per
class at certified precision, and rounds the resulting product polynomial to
its exact integer coefficients.
"""

from .conjugates import (
    CartanOrder,
    ClassFieldJob,
    ConjugateDatum,
    RunResult,
    assemble_poly,
    build_extended_classes,
    cartan_order,
    compute_conjugates,
    run,
)
from .errors import (
    ClasspolyError,
    CrossCheckError,
    NonConvergenceError,
    PoleError,
    PowerCheckError,
    PrecisionExhaustedError,
    RoundingFailureError,
)
from .modfunc import (
    DEFAULT_PRECISION,
    ModularFunctionSpec,
    PrecisionConfig,
    catalog_entries,
    catalog_lookup,
    check_icosahedral,
    check_klein_relation,
    eval_j,
    eval_rr,
)
from .modgroup import (
    CosetTable,
    UnimodularMatrix,
    enumerate_cosets,
    lift_vector_to_sl2,
    mobius_apply,
    normalize_vector,
)
from .polyalgebra import (
    IntPolynomial,
    eval_poly,
    power_check,
    round_coefficients,
    squarefree_part,
)
from .quadforms import (
    CMOrder,
    QuadraticForm,
    class_number,
    form_of_point,
    fundamental_domain_reduce,
    reduce_form,
    reduced_forms,
)

__version__ = "0.1.0"
