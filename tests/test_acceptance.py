"""Acceptance gate: ten end-to-end checks with pinned tolerances.

Each test prints one "ACCEPTANCE n: PASS/FAIL" line into the run summary
(see conftest.py) and then asserts the same verdict, so a red test and a
FAIL line always agree. Runtime ceilings are asserted where a criterion
pins one.
"""

import math
import time
from fractions import Fraction

from dimlab.constructions import (
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
from dimlab.estimators import (
    box_dims,
    correlation_dims,
    correlation_sandwich,
    inequality_report,
    slope_fit,
)
from dimlab.exact import pow2
from dimlab.fourier import fourier_correlation_dims, fourier_sandwich_report
from dimlab.measure import DyadicMeasureTree, anti_frostman_check
from dimlab.settree import DyadicSetTree

T_LOW = Fraction(2, 5)
S_HIGH = Fraction(7, 10)


def cantor_tree(depth):
    return DyadicSetTree.from_digit_ifs(1, group=2, keep=[0, 3], depth=depth)


def record(log, n, ok, detail):
    log.append(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_alternating_counts_exact(acceptance_log):
    t0 = time.perf_counter()
    plan = alternating_plan(T_LOW, S_HIGH, level_budget=10 ** 6)
    rep = verify_alternating_plan(plan)
    dt = time.perf_counter() - t0
    # the schedule must run out the whole budget: one more stage would
    # push the next odd-position breakpoint past 10^6
    exhausted = plan.breakpoints[-1] <= 10 ** 6
    names = {c["name"] for c in rep["checks"]}
    ok = (rep["ok"] and exhausted and rep["k_max"] == 8
          and len(rep["checks"]) == 3 * rep["k_max"]
          and names == {"recurrence", "low_pinch", "high_pinch"}
          and dt < 5.0)
    assert record(
        acceptance_log, 1, ok,
        f"count inequalities exact for k=1..{rep['k_max']} "
        f"(last level {plan.last_level}), {dt:.2f}s < 5s")


def test_criterion_02_sweep_counts_exact(acceptance_log):
    t0 = time.perf_counter()
    plan = sweep_plan(T_LOW, S_HIGH, level_budget=10 ** 5)
    prep = verify_sweep_plan(plan)
    tree = sweep_set(plan, 24)
    srep = verify_sweep_set(plan, tree)
    dt = time.perf_counter() - t0
    # designation levels lead the count levels: N_0 < n_1 < N_1 < n_2 < ...
    merged = [v for pair in zip(plan.big_n_seq, plan.n_seq) for v in pair]
    interleaved = all(a < b for a, b in zip(merged, merged[1:]))
    ok = (prep["ok"] and srep["ok"] and interleaved
          and plan.n_seq[-1] <= 10 ** 5 and dt < 30.0)
    assert record(
        acceptance_log, 2, ok,
        f"schedule and designation checks exact for k=1..{prep['k_max']}, "
        f"materialized bounds to level 24, {dt:.2f}s < 30s")


def test_criterion_03_stage_measures(acceptance_log):
    t0 = time.perf_counter()
    results = []
    cases = [
        ("full interval", DyadicSetTree.full(1, 16), Fraction(1, 2)),
        ("alternating set",
         alternating_set(alternating_plan(T_LOW, S_HIGH), 20),
         Fraction(1, 3)),
    ]
    for name, tree, s in cases:
        radii = [pow2(-(k + 2)) for k in range(1, tree.max_depth + 1)]
        measures, rep = stagewise_frostman_measures(tree, s, radii, stages=3)
        for mu in measures:
            mu.validate()  # mass conservation under every parent, exactly
        balls = verify_stage_balls(measures, rep)
        results.append((name, rep.ok and balls["ok"]
                        and not rep.heuristic_oracle, rep.stage_levels))
    dt = time.perf_counter() - t0
    ok = all(r[1] for r in results) and dt < 30.0
    assert record(
        acceptance_log, 3, ok,
        "stage measures conserve mass exactly and pass ball bounds at every "
        f"centre on {', '.join(f'{n} (levels {lv})' for n, _, lv in results)}"
        f", {dt:.2f}s < 30s")


def test_criterion_04_correlation_sandwich(acceptance_log):
    t0 = time.perf_counter()
    tree = cantor_tree(12)
    rep = correlation_sandwich(tree, range(4, 13), n_random=100, seed=20250819)
    dt = time.perf_counter() - t0
    net_rows = [r for r in rep["rows"] if r["measure"] == "net"]
    net_exact = all(r["corr_sum"] == r["floor"] and r.get("equality")
                    for r in net_rows)
    n_meas = len(rep["rows"])
    ok = rep["ok"] and net_exact and n_meas == 9 * 102 and dt < 10.0
    assert record(
        acceptance_log, 4, ok,
        f"1/box_count <= correlation sum on {n_meas} exact checks "
        f"(levels 4..12, 100 random measures); net measure achieves "
        f"equality at all 9 levels; {dt:.2f}s < 10s")


def test_criterion_05_slope_reproductions(acceptance_log):
    t0 = time.perf_counter()
    deep = cantor_tree(24)
    box = box_dims(deep, levels=range(8, 25)).full.value
    corr = correlation_dims(DyadicMeasureTree.uniform_on_set(deep),
                            levels=range(8, 25)).full.value

    plan = alternating_plan(T_LOW, S_HIGH, level_budget=10 ** 6)
    tree = alternating_set(plan, 24)
    # counts along the breakpoint subsequences are exact powers of two,
    # extended past depth 24 by the stored per-segment growth law
    evens = [n for n in plan.breakpoints[2::2] if n <= 10 ** 5]
    odds = [n for n in plan.breakpoints[1::2] if n <= 11 * 10 ** 4]
    def pts(levels):
        return [(n, tree.box_count(n).bit_length() - 1) for n in levels]
    low = slope_fit(pts(evens), window_len=len(evens)).full.value
    high = slope_fit(pts(odds), window_len=len(odds)).full.value
    dt = time.perf_counter() - t0

    ok = (abs(box - 0.5) <= 0.02 and abs(corr - 0.5) <= 0.02
          and abs(low - 0.4) <= 0.05 and abs(high - 0.7) <= 0.05
          and dt < 10.0)
    assert record(
        acceptance_log, 5, ok,
        f"middle-half Cantor box {box:.4f} and correlation {corr:.4f} "
        f"(0.5 +- 0.02); two-regime set slopes {low:.4f} along the slow "
        f"subsequence (0.4 +- 0.05) and {high:.4f} along the fast one "
        f"(0.7 +- 0.05); {dt:.2f}s < 10s")


def _three_measures():
    return [
        ("uniform", DyadicMeasureTree.uniform_on_set(DyadicSetTree.full(1, 10)),
         range(1, 11)),
        ("atom", DyadicMeasureTree.atomic([(Fraction(1, 3),)], [1], 1, 10),
         range(1, 11)),
        ("cantor", DyadicMeasureTree.uniform_on_set(cantor_tree(12)),
         range(1, 13)),
    ]


def test_criterion_06_fourier_ratio_flatness(acceptance_log):
    t0 = time.perf_counter()
    radii = [pow2(-k) for k in range(4, 11)]
    rows = []
    for name, mu, _ in _three_measures():
        rep = fourier_sandwich_report(mu, Fraction(1, 5), radii, tol=0.05)
        rows.append((name, rep.passed and not rep.inconclusive, rep.slope,
                     rep.meta["slope_bound"]))
    dt = time.perf_counter() - t0
    ok = all(r[1] for r in rows) and dt < 120.0
    assert record(
        acceptance_log, 6, ok,
        "ratio slopes within +-(d/5 + 0.05): " +
        ", ".join(f"{n} {s:+.4f} (band {b:.2f})" for n, _, s, b in rows) +
        f"; {dt:.1f}s < 120s")


def test_criterion_07_two_path_agreement(acceptance_log):
    window = [2.0 ** k for k in range(2, 11)]
    gaps = []
    for name, mu, levels in _three_measures():
        spatial = correlation_dims(mu, levels).full.value
        freq = fourier_correlation_dims(mu, window).dims.full.value
        gaps.append((name, spatial, freq, abs(spatial - freq)))
    ok = all(g[3] <= 0.07 for g in gaps)
    assert record(
        acceptance_log, 7, ok,
        "pair-counting vs frequency-decay correlation estimates: " +
        ", ".join(f"{n} {sp:.3f}/{fr:.3f} (gap {g:.3f})"
                  for n, sp, fr, g in gaps) + "; all gaps <= 0.07")


def test_criterion_08_inequality_chain(acceptance_log):
    plan = alternating_plan(T_LOW, S_HIGH, level_budget=10 ** 6)
    alt = alternating_set(plan, 24)
    examples = {
        "cantor": cantor_tree(12),
        "full": DyadicSetTree.full(1, 10),
        "alternating": alt,
        "sweep": sweep_set(sweep_plan(T_LOW, S_HIGH), 24),
    }
    chain_ok = {}
    for name, tree in examples.items():
        mu = DyadicMeasureTree.uniform_on_set(tree)
        rep = inequality_report(tree, [mu])
        chain_ok[name] = rep.ok

    # on the two-regime set the equal-split correlation sum equals
    # 1/box_count exactly at every materialized level, so the correlation
    # proxies along the deep subsequences can be read off the exact counts
    mu_alt = DyadicMeasureTree.uniform_on_set(alt)
    identity = all(mu_alt.dyadic_correlation_sum(n)
                   == Fraction(1, alt.box_count(n)) for n in range(1, 25))
    evens = [n for n in plan.breakpoints[2::2] if n <= 10 ** 5]
    odds = [n for n in plan.breakpoints[1::2] if n <= 11 * 10 ** 4]
    lower_box = (alt.box_count(evens[-1]).bit_length() - 1) / evens[-1]
    corr_upper = (alt.box_count(odds[-1]).bit_length() - 1) / odds[-1]
    margin = corr_upper - lower_box

    ok = (all(chain_ok.values()) and identity
          and abs(corr_upper - 0.7) <= 0.05 and abs(lower_box - 0.4) <= 0.05
          and margin >= 0.2)
    assert record(
        acceptance_log, 8, ok,
        f"proxy orderings hold on {', '.join(examples)}; two-regime set "
        f"separates correlation-upper {corr_upper:.4f} from lower-box "
        f"{lower_box:.4f} (margin {margin:.3f} >= 0.2)")


def test_criterion_09_energy(acceptance_log):
    uni = DyadicMeasureTree.uniform_on_set(DyadicSetTree.full(1, 4))
    br = uni.energy_bracket(Fraction(1, 2), refine_depth=12)
    width = br.upper - br.lower
    contains = Fraction(br.lower) <= Fraction(8, 3) <= Fraction(br.upper)
    atom = DyadicMeasureTree.atomic([(Fraction(1, 3),)], [1], 1, 6)
    flagged = atom.energy_bracket(Fraction(1, 2)).diverged
    ok = contains and width < 1e-3 and flagged and not br.diverged
    assert record(
        acceptance_log, 9, ok,
        f"uniform s=1/2 bracket [{br.lower:.12f}, {br.upper:.12f}] contains "
        f"8/3 with width {width:.2e} < 1e-3 at refinement depth 12; atom "
        f"energy flagged divergent")


def test_criterion_10_net_measure_ball_bound(acceptance_log):
    tree = cantor_tree(9)
    n_centers = len(tree.levels[9])
    rep = anti_frostman_check(tree, [2, 4, 6, 8])
    exhaustive = all(row["centers"] == n_centers for row in rep["rows"])
    ok = rep["ok"] and exhaustive and len(rep["rows"]) == 4
    detail = ", ".join(
        f"level {r['level']}: min mass {r['min_ball_mass']} >= {r['bound']}"
        for r in rep["rows"])
    assert record(
        acceptance_log, 10, ok,
        f"exact rational ball lower bound at all {n_centers} centers "
        f"({detail})")
