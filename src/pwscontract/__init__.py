"""Filippov solutions and matrix-measure contraction certificates for
multi-modal piecewise-smooth systems.

The public names below are resolved on first use (PEP 562), so importing the
package, or one of its modules, loads only the modules that are needed.
"""

import time as _time

_IMPORT_T0 = _time.perf_counter()  # CLI manifests time a run from here

__version__ = "0.1.0"

# public name -> the module that defines it
_HOMES = {
    **dict.fromkeys(("Metric", "is_positive_definite", "matrix_measure"), "measure"),
    **dict.fromkeys(("AnalysisBox", "AffineField", "ConfigError", "EscapingRegionError",
                     "IntersectionAssumptionError", "IntersectionCheck", "Manifold",
                     "Mode", "NonFiniteStateError", "PwsSystem", "RegionLocation",
                     "StepUnderflowError", "StiffStepError", "TopologyError",
                     "builtin_config_path", "check_box_invariance",
                     "check_intersection_assumption", "load_system", "load_system_file",
                     "locate"), "model"),
    **dict.fromkeys(("BoundaryClass", "Segment", "SolverOptions", "Trajectory",
                     "classify_boundary", "integrate", "sliding_field",
                     "write_trajectory_csv"), "filippov"),
    **dict.fromkeys(("ConvergenceTable", "RegularizedSystem", "convergence_study",
                     "integrate_regularized", "write_convergence_csv"),
                    "regularize"),
    **dict.fromkeys(("CertificateError", "CertificateReport", "Condition",
                     "ConditionResult", "ConditionTable", "PairwiseReport",
                     "check_chain_certificate", "check_cross_certificate",
                     "check_regularized_chain", "check_regularized_cross",
                     "condition_table", "pairwise_contraction_test"), "certify"),
    **dict.fromkeys(("SearchOptions", "SearchResult", "margin",
                     "search_certificate"), "qsearch"),
}

__all__ = list(_HOMES)


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
