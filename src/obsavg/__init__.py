"""Estimating an observable's ensemble average from identical copies.

The collective optimum is the spectral measurement of the copy-averaged
observable; its error has the closed form sqrt((<A^2> - <A>^2) / n) and is
matched by repeated single-copy measurement plus averaging. The package
builds both strategies, validates arbitrary competing POVMs against them,
and provides product-state reconstruction identities for cross-checks.
"""

from .adversary import (
    ComparisonReport,
    FeasibilityResult,
    compare,
    project_unbiased_povm,
    run_trials,
    smear_povm,
)
from .errors import (
    ConditioningError,
    DimensionCapError,
    DimensionMismatchError,
    FormatError,
    InfeasibleError,
    NumericError,
    ObsavgError,
    OperatorValidationError,
    PovmValidationError,
    StateValidationError,
)
from .estimators import (
    EstimationReport,
    canonical_error,
    canonical_povm,
    estimate_canonical,
    repeated_measurement_distribution,
    simulate_repeated,
    single_copy_distribution,
    total_variation,
)
from .linops import (
    DensityMatrix,
    Observable,
    eigh,
    expect,
    pure_state,
    random_density,
    random_hermitian,
    tensor_power,
)
from .polarization import (
    MomentReconstruction,
    coefficient_extract,
    product_expectation,
    product_grid_expectations,
    random_probe_states,
    reconstruct_from_diagonal,
    reconstruct_from_moments,
    symmetrized_product_sum,
)
from .povm import (
    OutcomeDistribution,
    Povm,
    PovmValidation,
    moment_inequality_floor,
    random_povm,
)
from .symspace import (
    CopySpace,
    copy_average,
    invariant_basis,
    pair_orbit_labels,
    twirl,
)

__version__ = "0.1.0"
