"""Closed-form determinants and inverses via telescoping minor extraction.

Small-matrix determinants and inverses evaluated as fully unrolled signed
sums whose every subscript comes from a discrete step-function calculus,
plus the machinery around them: minor maps, standard-function encodings of
the step functions, brute-force oracles, a Monte-Carlo validation harness,
and vector-calculus applications.
"""

from .discrete import (
    ReprKind,
    bessel_j0,
    conformance_report,
    gamma_int,
    heav,
    kron,
    repr_delta,
    repr_heav,
)
from .engines import (
    CLOSED_FORM_SIZES,
    GENERAL_SIZE_CAP,
    Method,
    SignedTerm,
    closed_form_det,
    closed_form_inverse,
    element_inverse,
    expand_terms,
    general_det,
    general_inverse,
)
from .errors import (
    DomainError,
    NearSingularWarning,
    ParseError,
    RepresentationMismatchError,
    SingularMatrixError,
    UnsupportedCombinationError,
)
from .indices import (
    IndexHistory,
    kappa,
    primed_index,
    primed_index_expanded,
    reflected_primed_index,
    reflected_primed_index_expanded,
)
from .matrices import (
    Matrix,
    identity,
    minor_by_deletion,
    minor_by_formula,
    parse_matrix,
    random_matrix,
    sparse_case,
    write_matrix,
)
from .oracles import (
    GaussResult,
    cofactor_inverse,
    gauss_inverse,
    laplace_det,
    leibniz_det,
    leibniz_terms,
    residual_max_abs,
)
from .rng import SplitMix64, stream_seed
from .validation import (
    HistogramReport,
    SparseCheck,
    TrialConfig,
    histogram_csv,
    mse,
    run_trials,
    sparse_suite,
    summary_json,
)
from .vector_apps import CurlInput, Vec3, curl_components, scalar_triple

__version__ = "0.1.0"

__all__ = [
    "CLOSED_FORM_SIZES",
    "CurlInput",
    "DomainError",
    "GENERAL_SIZE_CAP",
    "GaussResult",
    "HistogramReport",
    "IndexHistory",
    "Matrix",
    "Method",
    "NearSingularWarning",
    "ParseError",
    "ReprKind",
    "RepresentationMismatchError",
    "SignedTerm",
    "SingularMatrixError",
    "SparseCheck",
    "SplitMix64",
    "TrialConfig",
    "UnsupportedCombinationError",
    "Vec3",
    "bessel_j0",
    "closed_form_det",
    "closed_form_inverse",
    "cofactor_inverse",
    "conformance_report",
    "curl_components",
    "element_inverse",
    "expand_terms",
    "gamma_int",
    "gauss_inverse",
    "general_det",
    "general_inverse",
    "heav",
    "histogram_csv",
    "identity",
    "kappa",
    "kron",
    "laplace_det",
    "leibniz_det",
    "leibniz_terms",
    "minor_by_deletion",
    "minor_by_formula",
    "mse",
    "parse_matrix",
    "primed_index",
    "primed_index_expanded",
    "random_matrix",
    "reflected_primed_index",
    "reflected_primed_index_expanded",
    "repr_delta",
    "repr_heav",
    "residual_max_abs",
    "run_trials",
    "scalar_triple",
    "sparse_case",
    "sparse_suite",
    "stream_seed",
    "summary_json",
    "write_matrix",
]
