"""Matrix-free multigrid-preconditioned CG for penalized tensor-product
B-spline smoothing of scattered multivariate data."""

from .bsplines import (
    SplineSpace1D,
    build_space,
    eval_basis_batch,
    gram_matrix,
    greville_points,
    subdivision_matrix,
)
from .datasets import generate_dataset, read_dataset, sigmoid_target, write_dataset
from .errors import (
    CapacityError,
    DomainError,
    NumericError,
    ParameterError,
    ShapeError,
    SplinemgError,
)
from .multigrid import Hierarchy, build_hierarchy, coarse_solve, jacobi_smooth, transfer, v_cycle
from .solvers import SolveReport, SolverConfig, cg_solve, mgcg_solve
from .system import (
    DENSE_CAP,
    LevelOperator,
    PenaltyTerm,
    ScatteredDataset,
    build_level,
    evaluate_spline,
    penalty_terms,
)
from .tensorops import (
    KhatriRaoFactors,
    khatri_rao_gram_diag,
    khatri_rao_gram_matvec,
    khatri_rao_matvec,
    khatri_rao_tmatvec,
    kron_diagonal,
    kron_matvec,
    kron_matvec_transposed,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "DENSE_CAP",
    "DomainError",
    "Hierarchy",
    "KhatriRaoFactors",
    "LevelOperator",
    "NumericError",
    "ParameterError",
    "PenaltyTerm",
    "ScatteredDataset",
    "ShapeError",
    "SolveReport",
    "SolverConfig",
    "SplinemgError",
    "SplineSpace1D",
    "build_hierarchy",
    "build_level",
    "build_space",
    "cg_solve",
    "coarse_solve",
    "eval_basis_batch",
    "evaluate_spline",
    "generate_dataset",
    "gram_matrix",
    "greville_points",
    "jacobi_smooth",
    "khatri_rao_gram_diag",
    "khatri_rao_gram_matvec",
    "khatri_rao_matvec",
    "khatri_rao_tmatvec",
    "kron_diagonal",
    "kron_matvec",
    "kron_matvec_transposed",
    "mgcg_solve",
    "penalty_terms",
    "read_dataset",
    "sigmoid_target",
    "subdivision_matrix",
    "transfer",
    "v_cycle",
    "write_dataset",
]
