"""Dense-matrix toolkit for generalized principal pivot transforms.

Everything is built around the 2x2 block partition of a square matrix.
The core objects are the generalized principal pivot transform and its
signature-symmetrized form, the generalized Schur complement (with the
Moore-Penrose pseudoinverse in place of the inverse), and the Loewner
order.  On top of those sit:

* order-preservation reports for Hermitian pairs, with three equivalent
  criteria cross-checked against each other;
* closed-form solutions and variational characterizations of the mixed
  block linear system;
* concavity and convexity gap computations with block-extraction
  identities;
* seeded structured generators and property suites that exercise all of
  the above, reproducibly.

All numeric decisions flow through a single ToleranceConfig.
"""

from .blockmat import BlockMatrix
from .convexity import (
    GapResult,
    bordered_embedding,
    jppt_concavity_gap,
    pinv_convexity_gap,
    schur_concavity_gap,
)
from .errors import (
    BlockpivotError,
    InclusionError,
    InvalidInputError,
    NoSolutionError,
    PreconditionError,
)
from .generate import (
    ORDERED_PAIR_MODES,
    GenSpec,
    rand_hermitian,
    rand_im_psd,
    rand_matrix,
    rand_ordered_pair,
    rand_psd_pair_same_kernel,
    rand_psd_with_kernel,
    rand_saddle_instance,
    rand_saddle_rhs,
    rand_with_invertible_pivot,
)
from .linalg import (
    Inertia,
    SubspaceBasis,
    adjoint,
    hermitian_part,
    imag_part,
    inertia,
    is_ep,
    is_hermitian,
    is_psd,
    kernel_basis,
    loewner_leq,
    max_abs,
    pinv,
    projector_corange,
    projector_range,
    range_basis,
    rank,
    subspace_eq,
    subspace_leq,
)
from .matrixio import (
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    save_matrix,
    vector_from_json,
)
from .monotone import (
    AlbertConditions,
    MonotonicityReport,
    OrderConditions,
    PinvMonotoneResult,
    RankPathReport,
    SchurDifferenceResult,
    SpectralPathResult,
    albert_psd_conditions,
    det_sign_path_check,
    pinv_monotone,
    ppt_monotonicity_report,
    ppt_order_conditions,
    rank_path_constant,
    rank_path_sampled,
    schur_difference_identity,
    spectral_path_check,
)
from .rng import Xoshiro256pp, derive_seed, splitmix64_stream
from .saddle import (
    AffineSet,
    MinimizationResult,
    SaddleSolution,
    objective,
    ppt_min,
    reconstruct_jppt_from_minima,
    schur_min,
    solve_saddle,
)
from .suites import SUITE_NAMES, SuiteResult, TrialFailure, run_suite
from .tolerances import DEFAULT_TOL, ToleranceConfig
from .transforms import (
    BlockDiagonalization,
    EpCongruence,
    ImCongruence,
    block_diagonalize,
    ep_congruence_schur,
    gppt,
    hat_embedding,
    jppt,
    jppt_im_congruence,
    schur_complement,
    signature_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "BlockMatrix",
    "GapResult",
    "bordered_embedding",
    "jppt_concavity_gap",
    "pinv_convexity_gap",
    "schur_concavity_gap",
    "BlockpivotError",
    "InclusionError",
    "InvalidInputError",
    "NoSolutionError",
    "PreconditionError",
    "ORDERED_PAIR_MODES",
    "GenSpec",
    "rand_hermitian",
    "rand_im_psd",
    "rand_matrix",
    "rand_ordered_pair",
    "rand_psd_pair_same_kernel",
    "rand_psd_with_kernel",
    "rand_saddle_instance",
    "rand_saddle_rhs",
    "rand_with_invertible_pivot",
    "Inertia",
    "SubspaceBasis",
    "adjoint",
    "hermitian_part",
    "imag_part",
    "inertia",
    "is_ep",
    "is_hermitian",
    "is_psd",
    "kernel_basis",
    "loewner_leq",
    "max_abs",
    "pinv",
    "projector_corange",
    "projector_range",
    "range_basis",
    "rank",
    "subspace_eq",
    "subspace_leq",
    "load_matrix",
    "matrix_from_json",
    "matrix_to_json",
    "save_matrix",
    "vector_from_json",
    "AlbertConditions",
    "MonotonicityReport",
    "OrderConditions",
    "PinvMonotoneResult",
    "RankPathReport",
    "SchurDifferenceResult",
    "SpectralPathResult",
    "albert_psd_conditions",
    "det_sign_path_check",
    "pinv_monotone",
    "ppt_monotonicity_report",
    "ppt_order_conditions",
    "rank_path_constant",
    "rank_path_sampled",
    "schur_difference_identity",
    "spectral_path_check",
    "Xoshiro256pp",
    "derive_seed",
    "splitmix64_stream",
    "AffineSet",
    "MinimizationResult",
    "SaddleSolution",
    "objective",
    "ppt_min",
    "reconstruct_jppt_from_minima",
    "schur_min",
    "solve_saddle",
    "SUITE_NAMES",
    "SuiteResult",
    "TrialFailure",
    "run_suite",
    "DEFAULT_TOL",
    "ToleranceConfig",
    "BlockDiagonalization",
    "EpCongruence",
    "ImCongruence",
    "block_diagonalize",
    "ep_congruence_schur",
    "gppt",
    "hat_embedding",
    "jppt",
    "jppt_im_congruence",
    "schur_complement",
    "signature_matrix",
    "__version__",
]
