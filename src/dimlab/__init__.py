"""dimlab: exact dyadic set/measure trees, fractal-dimension estimators,
two-regime counterexample constructions, and Fourier-side dimension checks.

Everything scale-indexed lives on the dyadic grid of half-open cubes
(j 2^-n, (j+1) 2^-n] inside the unit cube. Counts, masses and the
inequalities between them are exact (integers and Fractions); slopes,
transforms and energies are floats that always carry their fitting window,
an enclosure or an error estimate.
"""

from .constructions import (
    AlternatingPlan,
    FrostmanStageReport,
    SweepPlan,
    alternating_measure,
    alternating_plan,
    alternating_set,
    stagewise_frostman_measures,
    sweep_plan,
    sweep_set,
    verify_alternating_plan,
    verify_stage_balls,
    verify_sweep_plan,
    verify_sweep_set,
)
from .dyadic import cube_of_point
from .estimators import (
    InequalityReport,
    PredicateReport,
    SlopeTriple,
    box_dims,
    correlation_dims,
    correlation_predicates,
    correlation_sandwich,
    default_window_len,
    frostman_slope,
    inequality_report,
    packing_predicate,
    packing_threshold,
    slope_fit,
)
from .exact import (
    ConstructionError,
    UnavailableError,
    UnsupportedModelError,
    ValidationError,
    cmp_pow2,
    cmp_rpow,
    format_rational,
    level_for_radius,
    parse_rational,
    pow2,
    to_fraction,
)
from .fourier import (
    FourierDimsReport,
    FourierEnergyReport,
    FourierSandwichReport,
    MeanSquareCurve,
    fourier_box_estimate,
    fourier_correlation_dims,
    fourier_energy,
    fourier_sandwich_report,
    mean_square_curve,
    mu_hat,
    near_zero_report,
)
from .io import (
    load_json,
    measure_from_dict,
    measure_to_dict,
    plan_from_dict,
    plan_to_dict,
    points_from_csv,
    save_json,
    set_from_dict,
    set_to_dict,
)
from .measure import (
    CorrelationBracket,
    DyadicMeasureTree,
    EnergyBracket,
    anti_frostman_check,
    anti_frostman_measure,
)
from .settree import DyadicSetTree, GeometricCounts, Segment, SegmentCounts

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
