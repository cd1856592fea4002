"""lndkit: exact arithmetic for locally nilpotent derivations.

Sparse rational polynomials, derivations and their exponential flows,
Groebner bases with relation-ideal and subalgebra-membership tools, and
slice-based kernel computation, plus one bundled worked example with a
mechanical verification suite.
"""

from .casebook import (
    Check,
    PaperContext,
    Stratum,
    VerificationReport,
    builtin_context,
    random_suite,
    separates,
    separating_values,
    stratum_of,
    verify_paper,
)
from .derivation import (
    NILPOTENCY_CAP,
    Derivation,
    commutes_with_partial,
    intertwines,
)
from .errors import (
    ExponentOverflowError,
    InputError,
    LndError,
    NilpotencyCapError,
    NonInvariantCandidateError,
    NotDivisibleError,
    ParseError,
    RingMismatchError,
    SliceError,
    UnknownVariableError,
)
from .groebner import (
    MonomialOrder,
    RelationIdeal,
    SubalgebraTester,
    buchberger,
    ideal_equal,
    ideal_membership,
    normal_form,
    relation_ideal,
    subalgebra_membership,
)
from .kernel import (
    KernelCheckOutcome,
    KernelComputeResult,
    KernelStatus,
    RelationCheck,
    Slice,
    SufficiencyCheck,
    kernel_check,
    kernel_compute,
    seed_candidates,
    slice_kernel_generators,
)
from .parse import parse_polynomial, print_canonical
from .poly import (
    DegreeSpread,
    LaurentElement,
    Point,
    Polynomial,
    Ring,
    RingMap,
)

__version__ = "0.1.0"

__all__ = [
    "Check",
    "DegreeSpread",
    "Derivation",
    "ExponentOverflowError",
    "InputError",
    "KernelCheckOutcome",
    "KernelComputeResult",
    "KernelStatus",
    "LaurentElement",
    "LndError",
    "MonomialOrder",
    "NILPOTENCY_CAP",
    "NilpotencyCapError",
    "NonInvariantCandidateError",
    "NotDivisibleError",
    "PaperContext",
    "ParseError",
    "Point",
    "Polynomial",
    "RelationCheck",
    "RelationIdeal",
    "Ring",
    "RingMap",
    "RingMismatchError",
    "Slice",
    "SliceError",
    "Stratum",
    "SubalgebraTester",
    "SufficiencyCheck",
    "UnknownVariableError",
    "VerificationReport",
    "buchberger",
    "builtin_context",
    "commutes_with_partial",
    "ideal_equal",
    "ideal_membership",
    "intertwines",
    "kernel_check",
    "kernel_compute",
    "normal_form",
    "parse_polynomial",
    "print_canonical",
    "random_suite",
    "relation_ideal",
    "seed_candidates",
    "separates",
    "separating_values",
    "slice_kernel_generators",
    "stratum_of",
    "subalgebra_membership",
    "verify_paper",
    "__version__",
]
