"""solvspin: exact toolkit for pseudo-Riemannian solvmanifolds and Killing spinors."""

from .exact import (
    IncompatibleExtensionError,
    TowerScalar,
    sqrt_to_tower,
)
from .liealg import (
    LieAlgebra,
    MetricLieAlgebra,
    RicciData,
    StandardDecomposition,
    check_standard,
    curvature,
    einstein_check,
    einstein_extension,
    extend_by_derivation,
    jacobi_check,
    levi_civita,
    lower_central_series,
    metric_transpose,
    nilsoliton_solve,
    ricci,
    ricci_standard,
    standard_decomposition,
    symmetric_part,
)
from .clifford import (
    CliffordRep,
    build_gammas,
    symmetric_commutant_kernel,
    two_tensor_action,
)
from .killing import (
    classify_pseudo_iwasawa,
    lambda_candidates,
    ricci_filter,
    solve_invariant_killing,
)
from .halfspace import HalfSpaceModel, solve_killing_halfspace

__version__ = "0.1.0"
