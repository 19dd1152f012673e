"""Tests for the two staged constructions and the stagewise measures.

Expected breakpoint schedules and counts were derived by hand from the
floor recurrences (exact rational arithmetic worked out independently, then frozen
here), so regressions in the plan code cannot hide behind the plan code.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimlab.constructions import (
    AlternatingPlan,
    FrostmanStageReport,
    _auto_oracle,
    _stage_measure,
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
from dimlab.exact import (
    ConstructionError,
    UnavailableError,
    ValidationError,
    cmp_rpow,
    pow2,
)
from dimlab.measure import DyadicMeasureTree
from dimlab.settree import DyadicSetTree
from oracles import (doubling_exponent, fraction_cmp_pow2,
                     fraction_cmp_rpow, oracle_cover,
                     oracle_frostman_stages, oracle_representatives,
                     set_trees)

T = Fraction(2, 5)
S = Fraction(7, 10)

# breakpoints n_0..n_17 for t=2/5, s=7/10, slack t/(k+2), budget 10^6
BREAKPOINTS = (0, 1, 4, 10, 24, 56, 122, 276, 580, 1290,
               2634, 5770, 11541, 25006, 49231, 105756, 205637, 438693)
# log2 cube count at each breakpoint
DOUBLED = (0, 1, 1, 7, 7, 39, 39, 193, 193, 903,
           903, 4039, 4039, 17504, 17504, 74029, 74029, 307085)

# sweep schedule for t=2/5, s=7/10, budget 10^5
SWEEP_N = (3, 16, 93, 540, 3150, 18373)
SWEEP_BIG_N = (1, 5, 28, 162, 945, 5512, 32152)


@pytest.fixture(scope="module")
def plan():
    return alternating_plan(T, S)


@pytest.fixture(scope="module")
def splan():
    return sweep_plan(T, S)


class TestAlternatingPlan:
    def test_frozen_schedule(self, plan):
        assert plan.breakpoints == BREAKPOINTS
        assert plan.doubled == DOUBLED
        assert plan.k_max == 8
        assert plan.last_level == 438693
        assert plan.slack == tuple(T / (k + 2) for k in range(1, 9))

    def test_exponents_between_breakpoints(self, plan):
        segs = plan.segment_counts()
        # doubling stretch (4, 10]: one new bit per level
        assert [segs.count(n) for n in range(4, 11)] == \
            [1 << e for e in (1, 2, 3, 4, 5, 6, 7)]
        # slow stretch (10, 24]: frozen
        assert segs.count(17) == 1 << 7
        assert segs.count(24) == 1 << 7

    def test_counts(self, plan):
        segs = plan.segment_counts()
        assert segs.count(0) == 1
        assert segs.count(1) == 2
        assert segs.count(10) == 128
        assert segs.count(438693) == 1 << 307085

    def test_method_flags(self, plan):
        # does the step from level m-1 to m double every cube?
        segs = plan.segment_counts()
        assert segs.segment(1).coef != 0
        assert segs.segment(4).coef == 0
        assert segs.segment(5).coef != 0
        assert segs.segment(10).coef != 0
        assert segs.segment(11).coef == 0

    def test_out_of_budget(self, plan):
        segs = plan.segment_counts()
        with pytest.raises(UnavailableError):
            segs.count(438694)
        with pytest.raises(UnavailableError):
            segs.segment(10 ** 7)

    def test_segment_counts_match_exponents(self, plan):
        segs = plan.segment_counts()
        assert segs.covers(438693)
        for n in (0, 1, 2, 4, 5, 10, 24, 56, 123, 5770, 438693):
            assert segs.count(n) == 1 << doubling_exponent(plan, n)

    def test_repeated_breakpoint_is_rejected(self):
        # a plan (a loaded one, say) whose breakpoints do not increase has
        # an empty stretch, which is refused rather than skipped
        bad = AlternatingPlan(Fraction(2, 5), Fraction(7, 10),
                              (Fraction(1, 5),), (0, 1, 4, 4), (0, 1, 1, 1),
                              10)
        with pytest.raises(ValidationError, match="segment with lo > hi"):
            bad.segment_counts()

    def test_verification_suite_passes(self, plan):
        res = verify_alternating_plan(plan)
        assert res["ok"]
        assert res["k_max"] == 8
        names = {c["name"] for c in res["checks"]}
        assert names == {"recurrence", "low_pinch", "high_pinch"}
        assert len(res["checks"]) == 3 * 8

    def test_explicit_slack_sequence(self):
        p = alternating_plan(T, S, slack=[Fraction(2, 15)], level_budget=100)
        assert p.breakpoints == (0, 1, 4, 10)
        assert p.doubled == (0, 1, 1, 7)
        assert p.k_max == 1

    def test_callable_slack(self):
        p = alternating_plan(T, S, slack=lambda k: T / (k + 2),
                             level_budget=100)
        assert p.breakpoints == (0, 1, 4, 10, 24, 56)

    def test_slack_validation(self):
        with pytest.raises(ValidationError):
            alternating_plan(T, S, slack=[Fraction(1, 2)])  # >= dim_low
        with pytest.raises(ValidationError):
            alternating_plan(T, S, slack=[Fraction(1, 10), Fraction(1, 10)])

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            alternating_plan(S, T)
        with pytest.raises(ValidationError):
            alternating_plan(T, S, level_budget=0)

    def test_budget_too_small(self):
        with pytest.raises(ConstructionError):
            alternating_plan(T, S, level_budget=5)


class TestAlternatingSet:
    def test_materialized_keys_match_direct_construction(self, plan):
        # within depth 24 the doubling levels are {1}u(4,10]; every key is
        # a choice of bits at exactly those levels
        depth = 24
        free = [1, 5, 6, 7, 8, 9, 10]
        tree = alternating_set(plan, depth)
        expect = sorted(
            sum(((mask >> i) & 1) << (depth - m)
                for i, m in enumerate(free))
            for mask in range(1 << len(free)))
        assert tree.levels[depth] == expect
        tree.validate()

    def test_counts_and_symbolic_agree(self, plan):
        tree = alternating_set(plan, 20)
        for n in range(21):
            assert tree.box_count(n) == 1 << doubling_exponent(plan, n)
        assert tree.box_count(105756) == 1 << 74029

    def test_meta(self, plan):
        tree = alternating_set(plan, 12)
        assert tree.meta["kind"] == "alternating"
        assert tree.meta["dim_low"] == "2/5"
        assert tree.meta["breakpoints"][:4] == [0, 1, 4, 10]

    def test_depth_validation(self, plan):
        with pytest.raises(ValidationError):
            alternating_set(plan, plan.last_level + 1)

    def test_stage_measure_is_uniform(self, plan):
        mu = alternating_measure(plan, 1)
        assert mu.max_depth == 10
        masses = mu.level_masses(10)
        assert len(masses) == 128
        assert all(m == Fraction(1, 128) for _, m in masses)

    def test_stage_measure_validation(self, plan):
        with pytest.raises(ValidationError):
            alternating_measure(plan, 0)
        # stage 3 truncates at level 276, past the 62-bit key budget
        with pytest.raises(UnavailableError):
            alternating_measure(plan, 3)


class TestSweepPlan:
    def test_frozen_schedule(self, splan):
        assert splan.n_seq == SWEEP_N
        assert splan.big_n_seq == SWEEP_BIG_N
        assert splan.k_max == 6
        assert splan.last_level == 32152

    def test_breakpoints_interleave(self, splan):
        merged = []
        for nk, nbig in zip(splan.n_seq, splan.big_n_seq[1:]):
            merged.extend([nk, nbig])
        assert merged == sorted(merged)
        assert splan.big_n_seq[0] == 1 < splan.n_seq[0]

    def test_counts(self, splan):
        assert splan.counts_at_stage[0] == 2
        assert splan.counts_at_stage[1] == 5
        assert splan.counts_at_stage[2] == 5 - 1 + (1 << 11)
        # closed form: sum of (2^{n_m - N_{m-1}} - 1) + 2
        for k in range(1, 7):
            closed = sum(
                (1 << (SWEEP_N[m] - SWEEP_BIG_N[m])) - 1 for m in range(k)
            ) + 2
            assert splan.counts_at_stage[k] == closed

    def test_level_counts(self, splan):
        segs = splan.segment_counts()
        assert segs.count(0) == 1
        assert segs.count(1) == 2
        assert segs.count(2) == 3
        assert segs.count(3) == 5
        assert segs.count(4) == 5   # frozen through N_1
        assert segs.count(5) == 5
        assert segs.count(6) == 6   # designated subtree doubles again
        assert segs.count(16) == 4 + (1 << 11)
        assert segs.count(20) == segs.count(16)

    def test_doubling_flags(self, splan):
        # the designated subtree doubles on (N_{k-1}, n_k], else all freeze
        segs = splan.segment_counts()
        doubling = [m for m in (1, 2, 3, 4, 5, 6, 28, 29)
                    if segs.segment(m).coef != 0]
        assert doubling == [1, 2, 3, 6, 29]
        assert segs.segment(0).coef != 0   # the unit cube's own level
        with pytest.raises(UnavailableError):
            segs.segment(-1)
        with pytest.raises(UnavailableError):
            segs.segment(32153)

    def test_verification_suite_passes(self, splan):
        res = verify_sweep_plan(splan)
        assert res["ok"]
        assert res["k_max"] == 6
        # recurrence/interleave/closed form at every stage; the pinches and
        # the count cap need the previous stage, so they start at k=2
        per_name = {}
        for c in res["checks"]:
            per_name.setdefault(c["name"], []).append(c["k"])
        assert per_name["recurrence"] == list(range(1, 7))
        assert per_name["interleave"] == list(range(1, 7))
        assert per_name["count_closed_form"] == list(range(1, 7))
        assert per_name["doubling_span_pinch"] == list(range(2, 7))
        assert per_name["stage_end_pinch"] == list(range(2, 7))
        assert per_name["count_cap"] == list(range(2, 7))

    def test_stage_one_overshoots_the_cap(self, splan):
        # the additive constant makes #C_{n_1} = 5 > 1 * 2^{n_1 s}, which is
        # why the cap check starts at stage 2
        assert cmp_rpow(Fraction(splan.counts_at_stage[1], 1),
                        Fraction(2), SWEEP_N[0] * S) > 0

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            sweep_plan(S, T)
        with pytest.raises(ConstructionError):
            sweep_plan(T, S, level_budget=2)


class TestSweepSet:
    def test_hand_materialization_to_level_8(self, splan):
        tree = sweep_set(splan, 8)
        assert tree.levels[0] == [0]
        assert tree.levels[1] == [0, 1]
        assert tree.levels[2] == [0, 1, 2]
        assert tree.levels[3] == [0, 1, 2, 3, 4]
        assert tree.levels[4] == [0, 2, 4, 6, 8]
        assert tree.levels[5] == [0, 4, 8, 12, 16]
        # designation moved to (5, 16); its subtree doubles, others stay
        assert tree.levels[6] == [0, 8, 16, 24, 32, 33]
        assert tree.levels[7] == [0, 16, 32, 48, 64, 65, 66, 67]
        assert tree.levels[8] == [0, 32, 64, 96] + list(range(128, 136))
        tree.validate()

    def test_designation_history_with_wrap(self, splan):
        tree = sweep_set(splan, 30)
        dz = tree.meta["designated"]
        assert dz[0] == {"stage": 0, "level": 1, "key": 0}
        assert dz[1] == {"stage": 1, "level": 5, "key": 16, "wrapped": False}
        # at N_2 = 28 the old designated interval is rightmost, so the
        # designation wraps to the global leftmost cube
        assert dz[2]["level"] == 28
        assert dz[2]["key"] == 0
        assert dz[2]["wrapped"] is True

    def test_counts_match_plan(self, splan):
        tree = sweep_set(splan, 30)
        segs = splan.segment_counts()
        for n in range(31):
            assert len(tree.levels[n]) == segs.count(n)
        assert tree.box_count(32152) == splan.counts_at_stage[6]

    def test_verify_suite_passes(self, splan):
        res = verify_sweep_set(splan, sweep_set(splan, 24))
        assert res["ok"]
        names = {c["name"] for c in res["checks"]}
        assert "level_count" in names
        assert "designated_doubling" in names
        assert "designated_lower" in names

    def test_verify_suite_past_the_wrap(self, splan):
        res = verify_sweep_set(splan, sweep_set(splan, 30))
        assert res["ok"]
        assert [dz.get("wrapped") for dz in res["designated"]] == [
            None, False, True]
        # the stage-0 interval is designated again at N_2 = 28 (the wrap),
        # which ends its lower range there
        assert res["ranges"][0] == {"stage": 0, "cube": (1, 0),
                                    "range": [5, 28], "truncated": False}
        # the stage-2 interval lies inside the stage-0 one: that pair of
        # nested intervals is not compared
        assert [c["pair"] for c in res["checks"]
                if c["name"] == "lower_range_disjoint"] == [[0, 1], [1, 2]]

    def test_depth_validation(self, splan):
        with pytest.raises(ValidationError):
            sweep_set(splan, 63)
        with pytest.raises(ValidationError):
            sweep_set(splan, splan.last_level + 1)


class TestFrostmanStages:
    def radii(self, depth):
        return [pow2(-(k + 2)) for k in range(1, depth + 1)]

    def test_full_interval_stage_levels(self):
        tree = DyadicSetTree.full(1, 8)
        measures, report = stagewise_frostman_measures(
            tree, Fraction(1, 2), self.radii(8), stages=3)
        assert report.stage_levels == [4, 5, 6]
        assert report.ok
        assert not report.heuristic_oracle
        assert [r["cubes"] for r in report.rows] == [16, 32, 64]
        assert report.rows[-1]["max_mass"] == Fraction(1, 64)
        assert all(r["mass_bound_ok"] for r in report.rows)

    def test_full_interval_masses_are_uniform(self):
        tree = DyadicSetTree.full(1, 8)
        measures, report = stagewise_frostman_measures(
            tree, Fraction(1, 2), self.radii(8), stages=2)
        mu = measures[-1]
        mu.validate()
        assert mu.max_depth == 5
        assert mu.dyadic_correlation_sum(5) == Fraction(1, 32)

    def test_alternating_stage_levels(self, plan):
        tree = alternating_set(plan, 20)
        measures, report = stagewise_frostman_measures(
            tree, Fraction(1, 3), self.radii(20))
        assert report.stage_levels[:4] == [7, 8, 9, 10]
        assert report.ok

    def test_ball_check_full_interval(self):
        tree = DyadicSetTree.full(1, 8)
        measures, report = stagewise_frostman_measures(
            tree, Fraction(1, 2), self.radii(8), stages=3)
        res = verify_stage_balls(measures, report)
        assert res["ok"] and "samples" not in res
        for row, r, stage in zip(res["rows"], report.stage_radii,
                                 report.rows):
            assert row["centers"] == stage["cubes"]
            # the heaviest block is two equal level-n cubes
            assert row["cover_bound"] == Fraction(2, stage["cubes"])
            assert cmp_rpow(row["cover_bound"], r, Fraction(1, 2)) <= 0

    def test_ball_check_finds_a_cube_between_evenly_spaced_centres(self):
        # one heavy cube among 4096 at level 12; a ball of radius r < 2^-13
        # about the upper corner of cube k meets cubes k and k + 1 only, so
        # a check at 1000 evenly spaced corners (every (j 4095 // 999)-th)
        # misses cube 2, and the block bound over every centre does not
        n, r, s = 12, pow2(-14), Fraction(1, 2)
        picks = {j * 4095 // 999 for j in range(1000)}
        assert not {1, 2} & picks
        # 1/64 on cube 2, 63 / (64 4095) on the other 4095 cubes
        light = Fraction(63, 64 * 4095)
        mu = _stage_measure(DyadicSetTree.full(1, n), n, list(range(1 << n)),
                            [4095 if k == 2 else 63 for k in range(1 << n)],
                            64 * 4095)
        assert mu.mass(n, 2) == Fraction(1, 64) and mu.mass(n, 3) == light
        report = FrostmanStageReport(s, [n], [r], False)
        res = verify_stage_balls([mu], report)
        [row] = res["rows"]
        assert not res["ok"] and not row["ok"]
        assert row["centers"] == 1 << n
        assert row["cover_bound"] == Fraction(1, 64) + light
        assert cmp_rpow(row["cover_bound"], r, s) > 0
        # every pick's cover mass (its cube and the next) stays below r^s
        assert cmp_rpow(2 * light, r, s) <= 0

    def test_oracle_rejects_everything(self):
        # s above the set's dimension: no cube is admissible
        tree = DyadicSetTree.from_digit_ifs(1, 2, [0, 3], 12)
        with pytest.raises(ConstructionError):
            stagewise_frostman_measures(tree, Fraction(3, 5), self.radii(12))

    def test_cantor_supports_s_below_half(self):
        tree = DyadicSetTree.from_digit_ifs(1, 2, [0, 3], 14)
        measures, report = stagewise_frostman_measures(
            tree, Fraction(1, 3), self.radii(14), stages=2)
        assert len(measures) == 2
        assert report.ok
        assert not report.heuristic_oracle

    def test_full_and_keep_all_digit_sets_admit_alike(self):
        # a full cube and the digit rule that keeps every digit are the same
        # set, of dimension d, and take the same admissibility rule
        for d in (1, 2, 3):
            full = DyadicSetTree.full(d, 3)
            every = DyadicSetTree.from_digit_ifs(d, 1, range(1 << d), 3)
            assert every.levels == full.levels
            for s in (Fraction(k, 4) for k in range(1, 4 * d + 3)):
                admit, heuristic = _auto_oracle(full, s)
                same, _ = _auto_oracle(every, s)
                assert not heuristic
                assert admit(1, 0) is same(1, 0) is (d > s), (d, s)

    def test_heuristic_oracle_flagged(self):
        # a tree with no construction metadata falls back to the slope
        # heuristic, and the report says so
        src = DyadicSetTree.from_digit_ifs(1, 2, [0, 3], 14)
        bare = DyadicSetTree(1, 14, src.levels, None, {})
        measures, report = stagewise_frostman_measures(
            bare, Fraction(1, 4), self.radii(14), stages=1)
        assert report.heuristic_oracle
        assert measures

    def test_heuristic_slope_is_exact(self):
        # the fallback decides log2(c_hi / c_lo) / width > s + 1/100 on
        # ints: against Fractions for every pair of counts c_lo <= 8 and
        # c_lo <= c_hi <= c_lo 2^width, widths 1..5, at exponents whose
        # threshold (s + 1/100) width is hit exactly by some count ratios
        class Counts:  # no construction metadata; chosen descendant counts
            meta, symbolic = {}, None

            def __init__(self, depth, c_lo, c_hi):
                self.max_depth, self.counts = depth, {depth: c_hi}
                self.c_lo = c_lo

            def descendant_count(self, level, key, n):
                return self.counts.get(n, self.c_lo)

        for s in (Fraction(0), Fraction(1, 4), Fraction(29, 100),
                  Fraction(49, 100), Fraction(1, 2), Fraction(99, 100),
                  Fraction(149, 100), Fraction(2)):
            for depth in range(2, 11):
                width = depth - depth // 2  # max_depth - lo at the root
                e = (s + Fraction(1, 100)) * width
                for c_lo in range(1, 9):
                    for c_hi in range(c_lo, (c_lo << width) + 1):
                        oracle, heuristic = _auto_oracle(
                            Counts(depth, c_lo, c_hi), s)
                        assert heuristic
                        want = fraction_cmp_pow2(Fraction(c_hi, c_lo), e) > 0
                        assert oracle(0, 0) is want, (s, depth, c_lo, c_hi)

    def test_radii_validation(self):
        tree = DyadicSetTree.full(1, 6)
        with pytest.raises(ValidationError):
            stagewise_frostman_measures(tree, Fraction(1, 2),
                                        [Fraction(1, 8), Fraction(1, 4)])
        with pytest.raises(ValidationError):
            stagewise_frostman_measures(tree, Fraction(1, 2), [])
        with pytest.raises(ValidationError):
            stagewise_frostman_measures(tree, 0, [Fraction(1, 8)])

    def test_report_dataclass_roundtrip(self):
        rep = FrostmanStageReport(Fraction(1, 2), [4], [Fraction(1, 8)],
                                  False)
        assert rep.ok and rep.rows == []


def check_stage_balls_against_oracle(tree, s) -> bool:
    """verify_stage_balls on the stage measures of `tree` at s (default
    radius ladder) against the per-centre cover mass at every stage-level
    corner; False when no stage exists."""
    radii = [pow2(-(k + 2)) for k in range(1, tree.max_depth + 1)]
    try:
        measures, report = stagewise_frostman_measures(tree, s, radii)
    except ConstructionError:  # no admissible stage 1
        return False
    res = verify_stage_balls(measures, report)
    assert set(res) == {"ok", "rows"}
    assert len(res["rows"]) == len(report.rows)
    for mu, row, stage in zip(measures, res["rows"], report.rows):
        n, r, bound = row["stage_level"], row["radius"], row["cover_bound"]
        assert (n, r) == (stage["level"], stage["radius"])
        assert row["centers"] == len(mu.support.levels[n]) == stage["cubes"]
        masses = dict(mu.level_masses(n))
        for x in oracle_representatives(mu.support, n):
            assert bound >= oracle_cover(masses, x, r, n, mu.d)
        assert row["ok"] == (fraction_cmp_rpow(bound, r, s) <= 0)
        # the stage mass bound implies the ball bound
        assert row["ok"] or not stage["mass_bound_ok"]
    assert res["ok"] == all(row["ok"] for row in res["rows"])
    return True


def check_stages_against_oracle(tree, s, radii, stages=None):
    """stagewise_frostman_measures and the per-cube Fraction loop give the
    same stage levels, report rows and stage tables, or both raise
    ConstructionError."""
    try:
        want = oracle_frostman_stages(tree, s, radii, stages)
    except ConstructionError:
        with pytest.raises(ConstructionError):
            stagewise_frostman_measures(tree, s, radii, stages)
        return
    measures, report = stagewise_frostman_measures(tree, s, radii, stages)
    assert (report.stage_levels, report.rows,
            [(mu.support.levels, mu.tables) for mu in measures]) == want


def _bare(tree):
    """The tree without its metadata: admissibility by the slope heuristic."""
    return DyadicSetTree(tree.d, tree.max_depth, tree.levels, None, {})


@settings(max_examples=300, deadline=None, database=None)
@given(set_trees(depths=(12, 6, 4), min_depth=4, sparse="codes", max_cubes=300),
       st.booleans(),
       st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(1, 3),
                        Fraction(1, 2), Fraction(2, 3), Fraction(1),
                        Fraction(3, 2)]),
       st.sampled_from([None, 1, 2, 3]), st.data())
def test_stages_match_fraction_oracle(tree, bare, s, stages, data):
    # the int stage loop against the per-cube Fraction loop, on trees with
    # their metadata (exact admissibility for digit-IFS trees) or without
    # it (the slope heuristic), over radius ladders of several shapes p/q
    # 2^-k, some of them sharing a level and some below the tree
    if bare:
        tree = _bare(tree)
    ks = data.draw(st.one_of(
        st.just(range(1, tree.max_depth + 1)),
        st.sets(st.integers(0, tree.max_depth + 1), min_size=1)))
    shapes = data.draw(st.sets(st.sampled_from(
        [Fraction(1), Fraction(3, 2), Fraction(5, 7)]), min_size=1))
    radii = sorted({c / (4 << k) for k in ks for c in shapes}, reverse=True)
    check_stages_against_oracle(tree, s, radii, stages)


def _two_densities(seed):
    """Depth-12 cubes kept at random, 3 in 5 in the left half and 3 in 20
    in the right: under the slope heuristic, stage cubes of unequal masses
    and counts."""
    rng = random.Random(seed)
    return DyadicSetTree.from_codes(1, 12, [
        k for k in range(4096) if rng.random() < (0.6 if k < 2048 else 0.15)])


@pytest.mark.parametrize("tree", [
    DyadicSetTree.full(1, 10),
    DyadicSetTree.full(2, 5),
    DyadicSetTree.from_digit_ifs(1, 2, [0, 3], 12),
    DyadicSetTree.from_digit_ifs(2, 1, [0, 1, 2], 6),
    alternating_set(alternating_plan(Fraction(2, 5), Fraction(7, 10)), 24),
    _bare(DyadicSetTree.full(1, 10)),
    _bare(DyadicSetTree.from_digit_ifs(2, 1, [0, 1, 2], 6)),
    # the left half full, the right half one chain down to level 11: the
    # slope heuristic leaves the chain out of the early stages but admits
    # its level-11 and level-12 cubes, which later stages must not take
    DyadicSetTree.from_codes(1, 12, [*range(2048), 3072, 3073]),
    _two_densities(18),
], ids=["full1-10", "full2-5", "cantor-12", "sierpinski-6", "alternating24",
        "full1-10-bare", "sierpinski-6-bare", "half-full", "two-densities"])
@pytest.mark.parametrize("s", [Fraction(1, 4), Fraction(1, 3),
                               Fraction(1, 2), Fraction(3, 5)])
def test_named_stages_match_fraction_oracle(tree, s):
    check_stages_against_oracle(
        tree, s, [pow2(-(k + 2)) for k in range(1, tree.max_depth + 1)])


# about a quarter of these trees admit a stage; the named sets below always do
@settings(max_examples=150, deadline=None, database=None)
@given(set_trees().filter(lambda t: t.d <= 2),
       st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)]))
def test_stage_ball_bound_dominates_every_centre(tree, s):
    check_stage_balls_against_oracle(tree, s)


@pytest.mark.parametrize("tree, s", [
    (DyadicSetTree.full(1, 9), Fraction(1, 2)),
    (DyadicSetTree.full(2, 4), Fraction(1, 2)),
    (DyadicSetTree.full(2, 4), Fraction(1)),
    (DyadicSetTree.from_digit_ifs(2, 1, [0, 1, 2], 5), Fraction(1, 2)),
    (DyadicSetTree.from_digit_ifs(1, 2, [0, 3], 14), Fraction(2, 5)),
], ids=["full1-9", "full2-4-half", "full2-4-one", "sierpinski-5",
        "cantor-14"])
def test_stage_ball_bound_on_named_sets(tree, s):
    assert check_stage_balls_against_oracle(tree, s)
