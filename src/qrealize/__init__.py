"""Symbolic verification of physical realizability for nonlinear QSDE models.

The toolkit decides whether a nonlinear quantum stochastic model is a
representation of a nonlinear open quantum harmonic oscillator, extracts
the Hamiltonian and coupling operator, certifies the equivalent lossless
and storage-function conditions, and cross-checks every symbolic verdict
with a truncated Fock-space numerical oracle.
"""

from .algebra import (
    Algebra,
    CommutationMatrix,
    Monomial,
    OperatorPolynomial,
    format_scalar,
    normal_order,
    render,
    wirtinger_gradient,
)
from .checks import (
    CheckReport,
    Condition,
    check_class,
    check_lossless,
    check_physical_realizability,
    check_preservation,
    check_storage_condition,
    extract_hamiltonian,
    generator_identity_parts,
    reconstruct_generator,
    run_checks,
    synthesize_storage,
)
from .fock import guarded_indices, represent, verify_identity
from .matrices import (
    OperatorMatrix,
    matrix_vector_commutators,
    outer_commutator,
    row_commutator,
    scalar_vec_commutator,
)
from .model import (
    DoubledModel,
    ParseError,
    QsdeModel,
    compute_nbar,
    double,
    parse_expression,
    parse_model,
    render_model,
    structural_class_check,
)
from .scalars import Scalar

__all__ = [
    "Algebra",
    "CheckReport",
    "CommutationMatrix",
    "Condition",
    "DoubledModel",
    "Monomial",
    "OperatorMatrix",
    "OperatorPolynomial",
    "ParseError",
    "QsdeModel",
    "Scalar",
    "check_class",
    "check_lossless",
    "check_physical_realizability",
    "check_preservation",
    "check_storage_condition",
    "compute_nbar",
    "double",
    "extract_hamiltonian",
    "format_scalar",
    "generator_identity_parts",
    "guarded_indices",
    "matrix_vector_commutators",
    "normal_order",
    "outer_commutator",
    "parse_expression",
    "parse_model",
    "reconstruct_generator",
    "render",
    "render_model",
    "represent",
    "row_commutator",
    "run_checks",
    "scalar_vec_commutator",
    "structural_class_check",
    "synthesize_storage",
    "verify_identity",
    "wirtinger_gradient",
]

__version__ = "0.1.0"
