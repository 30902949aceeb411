"""Filippov solutions and matrix-measure contraction certificates for
multi-modal piecewise-smooth systems."""

import time as _time

_IMPORT_T0 = _time.perf_counter()  # CLI manifests time a run from here

__version__ = "0.1.0"

from .measure import (
    Metric,
    is_positive_definite,
    matrix_measure,
    measure_many,
    sym_eig_max,
)
from .model import (
    AnalysisBox,
    AffineField,
    ConfigError,
    Manifold,
    Mode,
    PwsSystem,
    RegionLocation,
    TopologyError,
    builtin_config_path,
    check_box_invariance,
    check_intersection_assumption,
    check_transversality,
    load_system,
    load_system_file,
    locate,
)
from .filippov import (
    BoundaryClass,
    EscapingRegionError,
    IntersectionAssumptionError,
    Segment,
    SolverOptions,
    StepUnderflowError,
    Trajectory,
    classify_boundary,
    integrate,
    lie_derivative,
    sliding_coefficient,
    sliding_field,
    write_trajectory_csv,
)
from .regularize import (
    ConvergenceTable,
    RegularizedSystem,
    convergence_study,
    integrate_regularized,
    phi,
    phi_prime,
    reduced_sliding_field,
    regularized_field_chain,
    regularized_field_cross,
    regularized_jacobian_chain,
    regularized_jacobian_cross,
    write_convergence_csv,
)
from .certify import (
    CertificateError,
    CertificateReport,
    Condition,
    ConditionResult,
    ConditionTable,
    PairwiseReport,
    check_chain_certificate,
    check_cross_certificate,
    check_regularized_chain,
    check_regularized_cross,
    condition_table,
    pairwise_contraction_test,
)
from .qsearch import SearchOptions, SearchResult, margin, search_certificate

_IMPORT_S = _time.perf_counter() - _IMPORT_T0
