"""Random power series with coefficients from a finite set, studied near x = 1.

The package simulates reproducible random coefficient sequences, evaluates
their power series just below the radius of convergence with certified
enclosures, constructs the sum-shifting word matchings and alphabet rotations
that drive the boundary dichotomies, and estimates the finite-scale property
frequencies by Monte Carlo.
"""

__version__ = "0.1.0"

from .boundary_scan import (
    PropertyVerdict,
    ScanGrid,
    ScanReport,
    Verdict,
    scan,
    verdict,
    verdicts_by_depth,
)
from .coefficients import (
    CoefficientModel,
    FinitePrefix,
    MeanSign,
    PatchedStream,
    SequenceStream,
    parse_model,
)
from .combinatorics import (
    MatchingReport,
    PositionClass,
    ShiftScanReport,
    domain_fraction,
    position_class,
    shift_down,
    shift_effect_on_scan,
    shift_up,
    verify_matching,
)
from .crossings import (
    CrossingReport,
    RootBracket,
    crossing_counts_by_depth,
    find_crossings,
)
from .errors import (
    BudgetExceededError,
    ConfigError,
    PreconditionError,
    WitnessImpossibleError,
)
from .montecarlo import (
    EstimateReport,
    ExperimentConfig,
    estimate_properties,
    walk_positivity,
    wilson_interval,
    zero_one_diagnostic,
)
from .series_eval import (
    BoundedValue,
    eval_abel_form,
    eval_prefix,
    eval_to_eps,
    eval_truncated,
    lower_bound_from_positive_walk,
    partial_sums,
    required_terms,
    tail_bound,
)
from .symmetry import SignWitness, apply_perm, orbit_sum, orbit_values, sign_witness
from .witnesses import (
    Cylinder,
    PositiveWitness,
    PrefixInfimum,
    prefix_infimum,
    witness_nonzero_coordinate,
    witness_positive,
)
