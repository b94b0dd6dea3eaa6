"""Symbolic mod-2 cohomology of no-k-equal configuration spaces on the line,
certified topological-complexity bounds, and a geometric motion planner."""

from .cohomology import (
    CohClass,
    betti,
    clear_caches,
    cup,
    cup_length,
    monomial_closure,
    normalize,
    oracle_normal_form,
)
from .errors import CertificateFailure, InputError, NoKEqualError, TooLarge
from .invariants import (
    InvariantReport,
    betti_closed_form,
    cat_formula,
    hdim_formula,
    invariant_report,
    tc_formula,
    tcs_formula,
    verify_range,
)
from .planner import (
    Path,
    SimplicialComplex,
    in_conf_complex,
    in_conf_k,
    inverse_reduce,
    plan_conf3_3,
    reduce_to_xn,
    validate_path,
)
from .preorder import (
    StringPreorder,
    classify,
    compose,
    enumerate_admissible,
    enumerate_basic,
    make_preorder,
    make_x,
    parse_preorder,
)
from .tensor import (
    TensorClass,
    p_witness,
    tensor_cup,
    witness_product,
    zcl_lower,
    zero_divisor,
)

__version__ = "0.1.0"

__all__ = [
    "CohClass", "betti", "clear_caches", "cup", "cup_length",
    "monomial_closure", "normalize", "oracle_normal_form",
    "CertificateFailure", "InputError", "NoKEqualError", "TooLarge",
    "InvariantReport", "betti_closed_form", "cat_formula", "hdim_formula",
    "invariant_report", "tc_formula", "tcs_formula", "verify_range",
    "Path", "SimplicialComplex", "in_conf_complex", "in_conf_k",
    "inverse_reduce", "plan_conf3_3", "reduce_to_xn",
    "validate_path",
    "StringPreorder", "classify", "compose",
    "enumerate_admissible", "enumerate_basic", "make_preorder", "make_x",
    "parse_preorder",
    "TensorClass", "p_witness", "tensor_cup",
    "witness_product", "zcl_lower", "zero_divisor",
    "__version__",
]
