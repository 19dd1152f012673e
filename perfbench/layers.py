"""Per-layer metrics derived from a traced run, and the end-to-end metric
each should move.

Each entry is (name, unit, value function, prediction). A value function
takes the tracer summaries {"setup": ..., "pass": ...} of one traced run:
metrics predicted to move setup_s read the traced set-up, all others the
traced pass. A metric reads 0 on a workload that never calls its function.

Predictions fixed before any optimisation lands: a one-pass packing
threshold moves batch_s on ineq-chain only; a single dual-tree pair walker
moves batch_s on ball-pairs only; caching the Fourier leaf table moves
batch_s on fourier only; a single integer-backed mass representation moves
all three, and its effect on the explicit and atomic jobs of ball-pairs is
the one to watch.
"""

from __future__ import annotations


def calls(label, phase="pass"):
    return lambda t: t[phase]["spans"][label]["calls"]


def self_s(*labels, phase="pass"):
    return lambda t: sum(t[phase]["spans"][lb]["self_s"] for lb in labels)


def tally(key, phase="pass"):
    return lambda t: t[phase]["tallies"][key]


def per(num, den):
    """Calls of num per call of den (0 when den was never called)."""
    def value(t):
        d = t["pass"]["spans"][den]["calls"]
        return t["pass"]["spans"][num]["calls"] / d if d else 0.0
    return value


BUILDERS = ("settree.from_digit_ifs", "settree.full", "settree.from_codes")
PLANS = ("constructions.alternating_plan", "constructions.sweep_plan")
SETS = ("constructions.alternating_set", "constructions.sweep_set")

INEQ = "batch_s on ineq-chain"
PAIRS = "batch_s on ball-pairs"
FOURIER = "batch_s on fourier"
SETUP = "setup_s on all workloads"

PER_LAYER = [
    ("exact.cmp_pow2.calls", "count", calls("exact.cmp_pow2"), INEQ),
    ("exact.cmp_pow2.self_s", "s", self_s("exact.cmp_pow2"), INEQ),
    ("exact.cmp_rpow.calls", "count", calls("exact.cmp_rpow"), PAIRS),
    ("exact.cmp_rpow.self_s", "s", self_s("exact.cmp_rpow"), PAIRS),
    ("dyadic.deinterleave.calls", "count", calls("dyadic.deinterleave"),
     "batch_s on ball-pairs and fourier"),
    ("dyadic.deinterleave.self_s", "s", self_s("dyadic.deinterleave"),
     "batch_s on ball-pairs and fourier"),
    ("settree.children_keys.calls", "count", calls("settree.children_keys"),
     "batch_s on all workloads"),
    ("settree.children_keys.self_s", "s", self_s("settree.children_keys"),
     "batch_s on all workloads"),
    ("settree.build_s", "s", self_s(*BUILDERS, phase="setup"), SETUP),
    ("measure.level_masses.calls", "count", calls("measure.level_masses"),
     "batch_s on ineq-chain and fourier"),
    ("measure.level_masses.rows", "count", tally("measure.level_masses.rows"),
     "batch_s on ineq-chain and fourier"),
    ("measure.level_masses.self_s", "s", self_s("measure.level_masses"),
     "batch_s on ineq-chain and fourier"),
    ("measure.ball_correlation_bracket.calls", "count",
     calls("measure.ball_correlation_bracket"), PAIRS),
    ("measure.ball_correlation_bracket.self_s", "s",
     self_s("measure.ball_correlation_bracket"), PAIRS),
    ("measure.energy_bracket.self_s", "s", self_s("measure.energy_bracket"),
     PAIRS),
    ("measure.random_split.self_s", "s", self_s("measure.random_split"),
     PAIRS),
    ("measure.dyadic_correlation_sum.self_s", "s",
     self_s("measure.dyadic_correlation_sum"), PAIRS),
    ("measure.ball_mass_atoms.calls", "count",
     calls("measure.ball_mass_atoms"), PAIRS),
    ("estimators.packing_threshold.calls", "count",
     calls("estimators.packing_threshold"), INEQ),
    ("estimators.packing_threshold.self_s", "s",
     self_s("estimators.packing_threshold"), INEQ),
    ("estimators.packing_predicate.calls", "count",
     calls("estimators.packing_predicate"), INEQ),
    ("estimators.packing_predicate.self_s", "s",
     self_s("estimators.packing_predicate"), INEQ),
    ("estimators.packing_predicate.calls_per_threshold", "calls/threshold",
     per("estimators.packing_predicate", "estimators.packing_threshold"),
     INEQ),
    ("estimators.inequality_report.calls", "count",
     calls("estimators.inequality_report"), INEQ),
    ("estimators.correlation_predicates.self_s", "s",
     self_s("estimators.correlation_predicates"), PAIRS),
    ("estimators.correlation_sandwich.self_s", "s",
     self_s("estimators.correlation_sandwich"), PAIRS),
    ("estimators.slope_fit.calls", "count", calls("estimators.slope_fit"),
     "batch_s on ineq-chain and fourier"),
    ("estimators.slope_fit.self_s", "s", self_s("estimators.slope_fit"),
     "batch_s on ineq-chain and fourier"),
    ("measure.level_masses.calls_per_report", "calls/report",
     per("measure.level_masses", "estimators.inequality_report"), INEQ),
    ("measure.level_masses.calls_per_curve", "calls/curve",
     per("measure.level_masses", "fourier.mean_square_curve"), FOURIER),
    ("fourier.mean_square_curve.calls", "count",
     calls("fourier.mean_square_curve"), FOURIER),
    ("fourier.mean_square_curve.self_s", "s",
     self_s("fourier.mean_square_curve"), FOURIER),
    ("fourier.fourier_correlation_dims.self_s", "s",
     self_s("fourier.fourier_correlation_dims"), FOURIER),
    ("fourier.fourier_box_estimate.self_s", "s",
     self_s("fourier.fourier_box_estimate"), FOURIER),
    ("fourier.fourier_energy.self_s", "s", self_s("fourier.fourier_energy"),
     FOURIER),
    ("fourier.halvings", "count", tally("fourier.halvings"), FOURIER),
    ("constructions.plan_s", "s", self_s(*PLANS, phase="setup"), SETUP),
    ("constructions.set_s", "s", self_s(*SETS, phase="setup"), SETUP),
    ("io.load_json.self_s", "s", self_s("io.load_json"), INEQ),
    ("io.report_to_json.self_s", "s", self_s("io.report_to_json"), INEQ),
    ("io.bytes_written", "bytes", tally("io.bytes_written"), INEQ),
    ("io.save_json.self_s", "s", self_s("io.save_json", phase="setup"),
     SETUP),
    ("cli.main.self_s", "s", self_s("cli.main"), INEQ),
]

# work counts that must repeat exactly from one traced pass to the next
COUNTS = [name for name, unit, _, _ in PER_LAYER if unit == "count"]


def layer_metrics(traced: dict) -> dict:
    return {name: {"value": fn(traced), "unit": unit}
            for name, unit, fn, _ in PER_LAYER}
