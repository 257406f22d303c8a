"""Variable selection in sparse additive models via penalized projection norms."""

import os as _os
import sys as _sys

# Every matrix here is small (at most a few hundred columns), so a second
# OpenBLAS thread only spins while the main thread runs Python. OpenBLAS reads
# its thread count once, when the library loads: pin it to one for numpy's
# copy, loaded below, unless the caller chose a count or numpy is loaded
# already, and leave the environment as it was found, so child processes
# inherit nothing. No result depends on the thread count.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_pin_blas = "numpy" not in _sys.modules and not any(v in _os.environ for v in _BLAS_THREAD_VARS)
if _pin_blas:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    from .basis import BasisSpec, DesignBlocks, basis_matrix, build_design_blocks, \
        eval_basis, full_block_gram, population_gram
    from .densities import Density, GaussianCopulaDensity, TableDensity, UniformDensity
    from .diagnostics import bennett_truncation_bound, check_cprime, chi2_tail_bounds, \
        corollary_conditions, diagnose, event_A_check, event_E_check, rip_constant, \
        sample_subsets, selection_error_bound, subset_count_bound, \
        truncation_residual_norm_sq
    from .errors import AddselError, AssumptionError, BudgetError, ConfigError, \
        SingularBlockError
    from .estimate import ComponentEstimate, component_risk, default_m_target, \
        estimate_component, rate_experiment
    from .geometry import GeometryReport, PopulationGeometry, check_ric_chain, \
        geometry_report, kappa_values, min_angle_cos, phi_2qstar, \
        population_projection_gap, sup_norm_ratio, verify_angle_equivalence
    from .selection import Dataset, SelectionResult, empirical_projection_gap, project, \
        project_norm_sq, select_exhaustive, select_greedy, select_on_blocks
    from .simulate import AdditiveModel, approximation_decay_experiment, \
        density_from_config, gen_model, gen_response, m_lower_bound, run_trials
finally:
    if _pin_blas:
        del _os.environ["OPENBLAS_NUM_THREADS"]

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
