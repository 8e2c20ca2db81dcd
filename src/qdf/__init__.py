"""Classical resource estimation for qubitized quantum phase estimation of
double-factorized electronic-structure Hamiltonians.

The pipeline is: parse molecular integrals (FCIDUMP), factorize the
two-electron tensor (pivoted Cholesky, then per-factor eigendecomposition),
truncate eigenpairs against an error budget, and evaluate fault-tolerant
Toffoli/qubit costs for phase estimation.  A dense exact-diagonalization
oracle validates the factorization identities and truncation error bounds at
small orbital counts.
"""

from qdf.integrals import (
    AdjustedOneBody,
    FcidumpError,
    MolecularIntegrals,
    adjusted_one_body,
    load_fcidump,
    parse_fcidump,
    validate_symmetry,
    write_fcidump,
)
from qdf.factorization import (
    CacheHeader,
    DoubleFactorization,
    NotACacheError,
    NotPositiveSemidefiniteError,
    SingleFactorization,
    alpha_df,
    double_factorize,
    load_cache,
    read_cache,
    reconstruct_two_body,
    save_cache,
    single_factorize,
)
from qdf.truncation import (
    TruncationPlan,
    TruncationScheme,
    default_grid,
    score_eigenpairs,
    threshold_sweep,
    truncate,
)
from qdf.costmodel import (
    CostReport,
    ErrorBudget,
    PrecisionParams,
    estimate,
    pe_repetitions,
    walk_operator_cost,
)
from qdf.oracle import (
    FockOperator,
    build_from_df,
    build_from_integrals,
    ground_energy,
    one_body_norm_check,
    spectral_norm,
)

__version__ = "0.1.0"

__all__ = [
    "AdjustedOneBody",
    "CacheHeader",
    "CostReport",
    "DoubleFactorization",
    "ErrorBudget",
    "FcidumpError",
    "FockOperator",
    "MolecularIntegrals",
    "NotACacheError",
    "NotPositiveSemidefiniteError",
    "PrecisionParams",
    "SingleFactorization",
    "TruncationPlan",
    "TruncationScheme",
    "adjusted_one_body",
    "alpha_df",
    "build_from_df",
    "build_from_integrals",
    "default_grid",
    "double_factorize",
    "estimate",
    "ground_energy",
    "load_cache",
    "load_fcidump",
    "one_body_norm_check",
    "parse_fcidump",
    "pe_repetitions",
    "read_cache",
    "reconstruct_two_body",
    "save_cache",
    "score_eigenpairs",
    "single_factorize",
    "spectral_norm",
    "threshold_sweep",
    "truncate",
    "validate_symmetry",
    "walk_operator_cost",
    "write_fcidump",
]
