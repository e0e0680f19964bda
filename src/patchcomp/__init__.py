"""Competition dynamics on patchy landscapes with interface jump conditions."""

from ._allocator import keep_freed_memory as _keep_freed_memory
from .errors import (
    EigenSolveError,
    GridResolutionError,
    NumericalError,
    SimulationBlowUpError,
    SteadyConvergenceError,
    ValidationError,
)
from .landscape import (
    Landscape,
    PatchEnvironment,
    RegionLabel,
    SpeciesTraits,
    StrategyVector,
    classify_region,
    derive_jump_ratios,
    ifd_strategy,
    opposite_sides,
    recover_preferences,
    strict_dominates,
    weakly_dominates,
)
from .grid import Grid, PiecewiseField, build_grid, integrate_field
from .operators import LinearOperator, assemble_diffusion
from .transform import (
    TransformedProblem,
    pull_back,
    push_forward,
    solve_transformed_steady,
    to_transformed,
)
from .steady import (
    MonotonicityReport,
    SteadyConfig,
    monotonicity_report,
    solve_resident_steady,
    solve_resident_steady_states,
)
from .eigen import (
    EigenPair,
    ResidentContext,
    SIGN_TOL,
    assemble_linearization,
    fitness_table,
    invasion_fitness,
    principal_eigenpair,
    principal_eigenpairs,
    resident_self_eigenpair,
    signs,
)
from .identities import (
    CoexistenceResiduals,
    coexistence_identity_residuals,
    invasion_identity_residual,
)
from .dynamics import (
    OutcomeRecord,
    SimConfig,
    Stepper,
    classify_outcome,
    order_preservation_check,
    simulate,
)
from .analysis import (
    CrossValidationReport,
    PIPGrid,
    Prediction,
    StrategyTestResult,
    cross_validate,
    css_check,
    ess_check,
    nis_check,
    pip,
    predict_outcome,
    stability_table,
)

__all__ = [
    "CoexistenceResiduals",
    "CrossValidationReport",
    "EigenPair",
    "EigenSolveError",
    "Grid",
    "GridResolutionError",
    "Landscape",
    "LinearOperator",
    "MonotonicityReport",
    "NumericalError",
    "OutcomeRecord",
    "PIPGrid",
    "PatchEnvironment",
    "PiecewiseField",
    "Prediction",
    "RegionLabel",
    "ResidentContext",
    "SIGN_TOL",
    "SimConfig",
    "SimulationBlowUpError",
    "SpeciesTraits",
    "SteadyConfig",
    "SteadyConvergenceError",
    "Stepper",
    "StrategyTestResult",
    "StrategyVector",
    "TransformedProblem",
    "ValidationError",
    "assemble_diffusion",
    "assemble_linearization",
    "build_grid",
    "classify_outcome",
    "classify_region",
    "coexistence_identity_residuals",
    "cross_validate",
    "css_check",
    "derive_jump_ratios",
    "ess_check",
    "fitness_table",
    "ifd_strategy",
    "integrate_field",
    "invasion_fitness",
    "invasion_identity_residual",
    "monotonicity_report",
    "nis_check",
    "opposite_sides",
    "order_preservation_check",
    "pip",
    "predict_outcome",
    "principal_eigenpair",
    "principal_eigenpairs",
    "pull_back",
    "push_forward",
    "recover_preferences",
    "resident_self_eigenpair",
    "signs",
    "simulate",
    "solve_resident_steady",
    "solve_resident_steady_states",
    "solve_transformed_steady",
    "stability_table",
    "strict_dominates",
    "to_transformed",
    "weakly_dominates",
]

__version__ = "0.1.0"

# once per process: freed arrays stay in the heap (see ``_allocator``)
_ALLOCATOR_TUNED = _keep_freed_memory()
# whether the native kernel loaded (see ``operators``)
_LDLT_KERNEL = operators._ldlt is not None
