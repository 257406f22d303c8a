"""Variable selection in sparse additive models via penalized projection norms."""

from .basis import BasisSpec, DesignBlocks, basis_matrix, build_design_blocks, \
    eval_basis, full_block_gram, population_gram
from .densities import Density, GaussianCopulaDensity, TableDensity, UniformDensity
from .diagnostics import bennett_truncation_bound, check_cprime, chi2_tail_bounds, \
    corollary_conditions, diagnose, event_A_check, event_E_check, rip_constant, \
    sample_subsets, selection_error_bound, subset_count_bound, truncation_residual_norm_sq
from .errors import AddselError, AssumptionError, BudgetError, ConfigError, \
    SingularBlockError
from .estimate import ComponentEstimate, component_risk, default_m_target, \
    estimate_component, rate_experiment
from .geometry import GeometryReport, check_ric_chain, epsilon_constants, \
    geometry_report, kappa_values, min_angle_cos, phi_2qstar, \
    population_projection_gap, rho_qstar, sup_norm_ratio, verify_angle_equivalence
from .selection import Dataset, SelectionResult, empirical_projection_gap, project, \
    project_norm_sq, select_exhaustive, select_greedy
from .simulate import AdditiveModel, approximation_decay_experiment, density_from_config, \
    gen_model, gen_response, m_lower_bound, run_trials

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
