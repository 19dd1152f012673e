"""Tests for slope estimators, exact predicates, and the inequality chain."""

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dimlab import estimators
from dimlab.constructions import (alternating_measure, alternating_plan,
                                  alternating_set, sweep_plan, sweep_set)
from dimlab.estimators import (
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
from dimlab.exact import ValidationError, cmp_pow2, log2_fraction, pow2
from dimlab.measure import DyadicMeasureTree
from dimlab.settree import DyadicSetTree
from oracles import from_masses, oracle_slope_fit


def cantor_tree(depth):
    return DyadicSetTree.from_digit_ifs(1, group=2, keep=[0, 3], depth=depth)


def chain_set(name):
    """The four sets of the inequality-chain acceptance check."""
    low, high = Fraction(2, 5), Fraction(7, 10)
    return {
        "cantor": lambda: cantor_tree(12),
        "full": lambda: DyadicSetTree.full(1, 10),
        "alternating": lambda: alternating_set(
            alternating_plan(low, high, level_budget=10 ** 6), 24),
        "sweep": lambda: sweep_set(sweep_plan(low, high), 24),
    }[name]()


def hexed(triple):
    """A SlopeTriple as text, every float as float.hex."""
    def text(x):
        if isinstance(x, float):
            return x.hex()
        if isinstance(x, tuple):
            return "(" + " ".join(map(text, x)) + ")"
        return str(x)
    return " ".join(text((e.value, e.window, e.residual, e.variant,
                          e.npoints)) for e in (triple.lower, triple.upper,
                                                triple.full)) + (
        f" {triple.window_len} {text(triple.points)}")


def assert_same_fit(pts, window_len):
    got, want = slope_fit(pts, window_len), oracle_slope_fit(pts, window_len)
    assert got == want
    assert hexed(got) == hexed(want)


class TestSlopeFit:
    def test_exact_line(self):
        pts = [(n, 0.7 * n + 3.0) for n in range(1, 11)]
        tri = slope_fit(pts)
        for est in (tri.lower, tri.full, tri.upper):
            assert est.value == pytest.approx(0.7, abs=1e-12)
            assert est.residual == pytest.approx(0.0, abs=1e-9)
        assert tri.full.variant == "full-fit"
        assert tri.lower.variant == "liminf-proxy"
        assert tri.upper.variant == "limsup-proxy"

    def test_order_is_structural(self):
        rng = random.Random(2)
        pts = [(n, rng.uniform(0, 5)) for n in range(12)]
        tri = slope_fit(pts, window_len=4)
        assert tri.lower.value <= tri.full.value <= tri.upper.value

    def test_staircase_with_tiny_windows(self):
        # period-2 staircase: 2-point windows see slopes 0 and 1
        pts = [(n, (n + 1) // 2) for n in range(4, 16)]
        tri = slope_fit(pts, window_len=2)
        assert tri.lower.value == pytest.approx(0.0)
        assert tri.upper.value == pytest.approx(1.0)
        assert tri.full.value == pytest.approx(0.5, abs=0.02)

    def test_staircase_with_default_window(self):
        pts = [(n, (n + 1) // 2) for n in range(8, 25)]
        tri = slope_fit(pts)
        assert tri.window_len == default_window_len(17)
        assert tri.lower.value == pytest.approx(0.5, abs=0.02)
        assert tri.upper.value == pytest.approx(0.5, abs=0.02)

    def test_two_regimes(self):
        # slope 0.7 for 12 levels, then 0.4 for 12 more
        pts = []
        y = 0.0
        for n in range(24):
            pts.append((n, y))
            y += 0.7 if n < 12 else 0.4
        tri = slope_fit(pts, window_len=6)
        assert tri.lower.value == pytest.approx(0.4, abs=1e-9)
        assert tri.upper.value == pytest.approx(0.7, abs=1e-9)
        assert 0.4 < tri.full.value < 0.7

    def test_decreasing_scales_are_reversed(self):
        pts = [(n, 0.3 * n) for n in range(10)]
        tri = slope_fit(list(reversed(pts)))
        assert tri.full.value == pytest.approx(0.3)

    def test_matches_every_window_oracle_seeded(self):
        # windows ranked by slope alone, residuals only for the three
        # reported ones: the same floats as a fit of every window
        rng = random.Random(29)
        for case in range(300):
            n = rng.randint(4, 18)
            xs = sorted(rng.sample(range(-40, 40), n))
            if case % 3 == 0:  # integer ys: tied slopes
                ys = [rng.randint(0, 3) for _ in xs]
            elif case % 3 == 1:  # staircase with float steps
                ys = [0.5 * (x // 2) + 0.1 * rng.random() for x in xs]
            else:
                ys = [rng.uniform(-50, 50) for _ in xs]
            pts = list(zip(xs, ys))
            if case % 2:
                pts.reverse()  # decreasing scales
            for wl in (None, 2, n, rng.randint(2, n)):
                assert_same_fit(pts, wl)

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.lists(st.tuples(st.integers(-1000, 1000),
                              st.one_of(st.integers(-5, 5),
                                        st.floats(-1e6, 1e6))),
                    min_size=4, max_size=16,
                    unique_by=lambda p: p[0]),
           st.booleans(), st.sampled_from([None, 2, 3, "n"]))
    @example([(0, 0), (1, 1), (2, 0), (3, 1)], False, 2)
    @example([(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)], True, None)
    def test_matches_every_window_oracle(self, pts, decreasing, wl):
        pts = sorted(pts, reverse=decreasing)
        assert_same_fit(pts, len(pts) if wl == "n" else wl)

    def test_validation(self):
        with pytest.raises(ValidationError):
            slope_fit([(0, 0), (1, 1), (2, 2)])
        with pytest.raises(ValidationError):
            slope_fit([(0, 0), (2, 1), (1, 2), (3, 3)])
        with pytest.raises(ValidationError):
            slope_fit([(n, n) for n in range(6)], window_len=1)


class TestDimensionSlopes:
    def test_full_interval_box_slope_is_one(self):
        tri = box_dims(DyadicSetTree.full(1, 10))
        assert tri.full.value == pytest.approx(1.0, abs=1e-12)

    def test_cantor_box_slope_symbolic(self):
        # symbolic counts let the window run past the materialized depth
        tri = box_dims(cantor_tree(8), levels=range(8, 25))
        assert tri.full.value == pytest.approx(0.5, abs=0.02)
        assert tri.lower.value == pytest.approx(0.5, abs=0.02)
        assert tri.upper.value == pytest.approx(0.5, abs=0.02)

    def test_cantor_correlation_slope(self):
        mu = DyadicMeasureTree.uniform_on_set(cantor_tree(12))
        tri = correlation_dims(mu, levels=range(4, 13))
        assert tri.full.value == pytest.approx(0.5, abs=0.02)

    def test_atom_correlation_slope_is_zero(self):
        mu = DyadicMeasureTree.atomic([(Fraction(1, 2),)], [1], 1, 8)
        tri = correlation_dims(mu, levels=range(1, 9))
        assert tri.full.value == pytest.approx(0.0, abs=1e-12)
        assert tri.lower.value == pytest.approx(0.0, abs=1e-12)

    def test_frostman_slope_cantor(self):
        mu = DyadicMeasureTree.uniform_on_set(cantor_tree(12))
        tri = frostman_slope(mu, levels=range(4, 13))
        assert tri.full.value == pytest.approx(0.5, abs=0.02)

    def test_levels_default_sorted_and_distinct(self):
        # every estimator fits the sorted distinct levels, 1..max_depth
        # when none are given
        mu = DyadicMeasureTree.uniform_on_set(cantor_tree(9))
        for est, obj in [(box_dims, mu.support), (correlation_dims, mu),
                         (frostman_slope, mu)]:
            want = est(obj, levels=range(1, 10))
            assert est(obj) == want
            assert est(obj, levels=[9, 3, 1, 3, 5, 2, 8, 4, 7, 6, 9]) == want
            assert [x for x, _ in want.points] == list(range(1, 10))

    @pytest.mark.parametrize("name", ["cantor", "alternating", "sweep",
                                      "codes", "atoms"])
    def test_chains_match_directly_evaluated_levels(self, name):
        # one value per chain of one-child levels, repeated down it, gives
        # the fit of every level evaluated on its own: windows with gaps,
        # box windows past the materialized depth (symbolic counts), under
        # uniform, random-split and atomic measures
        rng = random.Random(name)
        if name == "atoms":
            pts = [(Fraction(rng.randint(1, 999), 999),) for _ in range(5)]
            atoms = DyadicMeasureTree.atomic(pts, [Fraction(1, 5)] * 5, 1, 18)
            tree, measures = atoms.support, [atoms]
        else:
            tree = chain_set(name) if name != "codes" else \
                DyadicSetTree.from_codes(2, 9, rng.sample(range(1 << 18), 7))
            measures = [DyadicMeasureTree.uniform_on_set(tree),
                        DyadicMeasureTree.random_split(tree, rng)]
        top = tree.max_depth
        assert any(len(a) == len(b) for a, b in zip(tree.levels[1:],
                                                    tree.levels[2:]))
        windows = [range(1, top + 1), range(top // 2, top + 1)]
        windows += [rng.sample(range(top + 1), rng.randint(4, top))
                    for _ in range(6)]
        box_windows = list(windows)
        if tree.symbolic is not None:
            box_windows += [range(top - 5, top + 9), [2, top, top + 3,
                                                      top + 40]]
        for levels in box_windows:
            got = box_dims(tree, levels)
            want = slope_fit([(n, math.log2(tree.box_count(n)))
                              for n in sorted(set(levels))])
            assert hexed(got) == hexed(want)
        for mu in measures:
            for levels in windows:
                for wl in (None, 2):
                    lv = sorted(set(levels))
                    corr = [(n, -log2_fraction(mu.dyadic_correlation_sum(n)))
                            for n in lv]
                    fro = [(n, -log2_fraction(mu.max_cube_mass(n)))
                           for n in lv]
                    assert hexed(correlation_dims(mu, levels, wl)) == \
                        hexed(slope_fit(corr, wl))
                    assert hexed(frostman_slope(mu, levels, wl)) == \
                        hexed(slope_fit(fro, wl))


class TestCorrelationPredicates:
    def radii(self):
        # cover level >= 4 so the two-cube ball bound stays under sqrt(r)
        return [pow2(-k) for k in range(6, 9)]

    def test_uniform_passes_below_dimension(self):
        mu = DyadicMeasureTree.uniform_on_set(DyadicSetTree.full(1, 10))
        reps = correlation_predicates(mu, Fraction(1, 2), self.radii())
        assert reps["pair-integral"].verdict == "holds-on-window"
        assert reps["ball-sup"].verdict == "holds-on-window"
        assert reps["cube-max"].verdict == "holds-on-window"

    def test_uniform_cube_max_at_exact_dimension(self):
        mu = DyadicMeasureTree.uniform_on_set(DyadicSetTree.full(1, 10))
        reps = correlation_predicates(mu, 1, self.radii())
        # equality 2^-n <= 2^-n passes exactly
        assert reps["cube-max"].verdict == "holds-on-window"

    def test_uniform_fails_above_dimension(self):
        mu = DyadicMeasureTree.uniform_on_set(DyadicSetTree.full(1, 10))
        reps = correlation_predicates(mu, Fraction(11, 10), self.radii())
        assert reps["cube-max"].verdict == "fails"

    def test_atom_fails_with_certificate(self):
        mu = DyadicMeasureTree.atomic([(Fraction(1, 2),)], [1], 1, 10)
        reps = correlation_predicates(mu, Fraction(1, 2), self.radii())
        assert reps["pair-integral"].verdict == "fails"
        assert reps["ball-sup"].verdict == "fails"
        assert all(r["status"] == "fail"
                   for r in reps["pair-integral"].records)

    def test_beyond_depth_is_inconclusive_not_fail(self):
        mu = DyadicMeasureTree.uniform_on_set(DyadicSetTree.full(1, 6))
        reps = correlation_predicates(mu, Fraction(1, 2), [pow2(-10)])
        assert reps["ball-sup"].verdict == "inconclusive"
        assert reps["cube-max"].verdict == "inconclusive"

    def test_radius_validation(self):
        mu = DyadicMeasureTree.uniform_on_set(DyadicSetTree.full(1, 4))
        with pytest.raises(ValidationError):
            correlation_predicates(mu, Fraction(1, 2), [Fraction(0)])


class TestPacking:
    def test_uniform_interval_holds_at_one(self):
        mu = DyadicMeasureTree.uniform_on_set(DyadicSetTree.full(1, 8))
        assert packing_predicate(mu, 1, range(2, 9)).verdict == \
            "holds-on-window"
        assert packing_predicate(mu, Fraction(11, 10), range(2, 9)).verdict \
            == "fails"

    def test_atom_fails_for_positive_s(self):
        mu = DyadicMeasureTree.atomic([(Fraction(1, 2),)], [1], 1, 8)
        rep = packing_predicate(mu, Fraction(1, 20), range(2, 9))
        assert rep.verdict == "fails"
        assert rep.records[-1]["status"] == "fail"
        # the atom 1/2 sits in the level-8 cube (127/256, 128/256]
        assert rep.records[-1]["failing_leaf_keys"] == [127]
        assert rep.records[-1]["leaf_level"] == 8

    def test_cantor_threshold_on_window(self):
        # at s = 11/20 the odd levels up to 10 still pass and land in both
        # window halves; at 12/20 the second half has no passing level
        mu = DyadicMeasureTree.uniform_on_set(cantor_tree(12))
        assert packing_predicate(mu, Fraction(11, 20),
                                 range(4, 13)).verdict == "holds-on-window"
        assert packing_predicate(mu, Fraction(12, 20),
                                 range(4, 13)).verdict == "fails"
        assert packing_threshold(mu, range(4, 13)) == Fraction(11, 20)

    def test_threshold_grid_runs_to_the_dimension(self):
        # the full square's level-n cubes weigh 4^-n = 2^-2n, so every
        # twentieth up to d = 2 holds and the threshold is the dimension
        mu = DyadicMeasureTree.uniform_on_set(DyadicSetTree.full(2, 4))
        assert packing_threshold(mu, range(1, 5)) == 2
        assert packing_predicate(mu, 2, range(1, 5)).verdict == \
            "holds-on-window"

    def test_level_validation(self):
        mu = DyadicMeasureTree.uniform_on_set(DyadicSetTree.full(1, 4))
        with pytest.raises(ValidationError):
            packing_predicate(mu, 1, [])
        with pytest.raises(ValidationError):
            packing_predicate(mu, 1, [3, 9])
        with pytest.raises(ValidationError):
            packing_threshold(mu, [])
        with pytest.raises(ValidationError):
            packing_threshold(mu, [3, 9])

    @pytest.mark.parametrize("name, expected", [
        ("cantor", Fraction(11, 20)), ("full", Fraction(1)),
        ("alternating", Fraction(1, 2)), ("sweep", Fraction(1, 5))])
    def test_inequality_chain_thresholds(self, name, expected, monkeypatch):
        # the four sets of the inequality-chain acceptance check, on their
        # default window 1..depth. The exact comparisons inequality_report
        # makes are a work count, pinned as an algorithmic regression check:
        # 403 in all before one-child levels were skipped, 27, 40, 34 and
        # 116 while the threshold bisected its grid, and none since each
        # cube mass passes an integer floor of the grid
        tree = chain_set(name)
        mu = DyadicMeasureTree.uniform_on_set(tree)
        calls = []
        with monkeypatch.context() as m:
            m.setattr(estimators, "cmp_pow2",
                      lambda a, e: calls.append(a) or cmp_pow2(a, e))
            rep = inequality_report(tree, [mu])
        assert calls == []
        assert rep.estimates["packing_threshold"] == expected
        assert packing_threshold(
            mu, range(1, tree.max_depth + 1)) == expected

    @pytest.mark.parametrize("name, values", [
        ("cantor", 6), ("full", 10), ("alternating", 7), ("sweep", 14)])
    def test_inequality_chain_work_counts(self, name, values, monkeypatch):
        # work counts of one inequality_report on the default window,
        # pinned like the comparisons above: one correlation sum and one
        # max cube mass per chain of one-child levels (12, 10, 24 and 24
        # before chains were evaluated once), and three residuals per
        # slope fit, one for each reported window
        tree = chain_set(name)
        mu = DyadicMeasureTree.uniform_on_set(tree)
        calls = {"corr": 0, "max": 0, "fit": 0, "rms": 0}

        def counting(key, f):
            def wrapper(*args):
                calls[key] += 1
                return f(*args)
            return wrapper

        for key, owner, attr in (
                ("corr", DyadicMeasureTree, "dyadic_correlation_sum"),
                ("max", DyadicMeasureTree, "max_cube_mass"),
                ("fit", estimators, "slope_fit"),
                ("rms", estimators, "_rms")):
            monkeypatch.setattr(owner, attr,
                                counting(key, getattr(owner, attr)))
        inequality_report(tree, [mu])
        assert calls == {"corr": values, "max": values, "fit": 3, "rms": 9}

    def test_threshold_makes_no_comparison_or_predicate_call(
            self, monkeypatch):
        # each cube mass's grid prefix is an integer floor, not a search
        mu = DyadicMeasureTree.uniform_on_set(cantor_tree(12))

        def refused(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} called")
            return call

        for name in ("cmp_pow2", "packing_predicate"):
            monkeypatch.setattr(estimators, name, refused(name))
        assert packing_threshold(mu, range(4, 13)) == Fraction(11, 20)


def _reference_threshold(mu, levels):
    """The threshold as one packing_predicate run per grid exponent k/20,
    k = 1..20 d, with each exponent's verdict."""
    best = Fraction(0)
    tested = []
    for sv in (Fraction(k, 20) for k in range(1, 20 * mu.d + 1)):
        verdict = packing_predicate(mu, sv, levels).verdict
        tested.append((sv, verdict))
        if verdict == "holds-on-window":
            best = sv
    return best, tested


def _reverse_order(mu):
    """The same measure with its tables in reverse key order, as a file may
    list them."""
    return from_masses(
        mu.support, [dict(mu.level_masses(n)[::-1])
                     for n in range(mu.max_depth + 1)], mu.leaf_model, mu.atoms)


@st.composite
def _packing_cases(draw):
    """(measure, window): digit-IFS trees in 1-D and 2-D, or sparse trees
    of a few deepest cubes (long one-child chains), with equal or random
    splits, or atomic measures, their tables in key order or not; any
    window inside the depth, a range or any set of levels."""
    d = draw(st.sampled_from([1, 2]))
    depth = draw(st.integers(1, 7 if d == 1 else 4))
    kind = draw(st.sampled_from(["uniform", "random_split", "atomic",
                                 "sparse"]))
    if kind == "sparse":
        depth = draw(st.integers(1, 12 if d == 1 else 6))
        codes = draw(st.sets(st.integers(0, (1 << (d * depth)) - 1),
                             min_size=1, max_size=4))
        tree = DyadicSetTree.from_codes(d, depth, codes)
        mu = (DyadicMeasureTree.uniform_on_set(tree) if draw(st.booleans())
              else DyadicMeasureTree.random_split(
                  tree, random.Random(draw(st.integers(0, 2 ** 16)))))
    elif kind == "atomic":
        k = draw(st.integers(1, 5))
        pts = [tuple(Fraction(draw(st.integers(1, 64)), 64)
                     for _ in range(d)) for _ in range(k)]
        ws = [draw(st.integers(1, 9)) for _ in range(k)]
        mu = DyadicMeasureTree.atomic(
            pts, [Fraction(w, sum(ws)) for w in ws], d, depth)
    else:
        group = draw(st.integers(1, 2))
        keep = draw(st.sets(st.integers(0, (1 << (d * group)) - 1),
                            min_size=1))
        tree = DyadicSetTree.from_digit_ifs(d, group, sorted(keep), depth)
        if kind == "uniform":
            mu = DyadicMeasureTree.uniform_on_set(tree)
        else:
            mu = DyadicMeasureTree.random_split(
                tree, random.Random(draw(st.integers(0, 2 ** 16))))
    if draw(st.booleans()):
        mu = _reverse_order(mu)
    if draw(st.booleans()):
        lo = draw(st.integers(0, depth))
        window = range(lo, draw(st.integers(lo, depth)) + 1)
    else:
        window = sorted(draw(st.sets(st.integers(0, depth), min_size=1)))
    return mu, window


_SIERPINSKI = DyadicMeasureTree.uniform_on_set(
    DyadicSetTree.from_digit_ifs(2, 1, [0, 1, 2], 4))
# one-child levels 2-7 and 9 between the branching levels 1, 8 and 10; in
# 2-D, levels 1-4 continue the root's chain, levels 5 and 6 branch
_CHAINS = DyadicMeasureTree.random_split(
    DyadicSetTree.from_codes(1, 10, [0, 1, 4, 5, 768]), random.Random(5))
_CHAIN_2D = DyadicMeasureTree.uniform_on_set(
    DyadicSetTree.from_codes(2, 6, [1000, 1001, 1006]))
_TINY = Fraction(1, 2 ** 521 - 1)  # 1/p, p the Mersenne prime 2^521 - 1


@settings(max_examples=200, deadline=None, database=None)
@given(_packing_cases())
@example((DyadicMeasureTree.uniform_on_set(cantor_tree(8)), range(0, 9)))
@example((_SIERPINSKI, range(3, 4)))
@example((DyadicMeasureTree.random_split(cantor_tree(6), random.Random(3)),
          range(0, 1)))
@example((DyadicMeasureTree.atomic([(Fraction(1, 3),)], [1], 1, 6),
          range(2, 7)))
@example((_SIERPINSKI, range(0, 5)))
@example((_CHAINS, range(2, 11)))
@example((_CHAINS, [1, 3, 5, 6, 8, 9]))
@example((_CHAINS, [0, 4, 7, 10]))
# level 10's runs under level 0 skip the branching levels 1 and 8, so they
# are not its runs under level 9
@example((_CHAINS, [0, 10]))
@example((_CHAIN_2D, [0, 2, 3, 5, 6]))
@example((_reverse_order(DyadicMeasureTree.random_split(
    DyadicSetTree.from_codes(1, 3, [3, 4, 5]), random.Random(3))),
    range(0, 4)))
@example((DyadicMeasureTree.atomic(
    [(Fraction(1, 3),), (Fraction(1, 3) + Fraction(1, 4096),),
     (Fraction(7, 8),)], [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)],
    1, 12), [1, 2, 5, 9, 11, 12]))
# 522-bit denominators: the level-1 masses 1/2 -+ 1/p sit on either side of
# the tie 2^-1 at k = 20, so level 1 passes 20 and 19 exponents and the
# threshold is 19/20 (a float log2 reads 20 for both)
@example((DyadicMeasureTree.atomic(
    [(Fraction(1, 3),), (Fraction(2, 3),)],
    [Fraction(1, 2) - _TINY, Fraction(1, 2) + _TINY], 1, 12), [0, 1]))
def test_packing_threshold_matches_predicate_loop(case):
    mu, window = case
    thr = packing_threshold(mu, window)
    best, tested = _reference_threshold(mu, window)
    assert thr == best
    assert all((verdict == "holds-on-window") == (sv <= thr)
               for sv, verdict in tested)


class TestInequalityReport:
    def test_cantor_chain(self):
        tree = cantor_tree(12)
        mu = DyadicMeasureTree.uniform_on_set(tree)
        rep = inequality_report(tree, [mu], levels=range(4, 13))
        assert rep.ok
        assert rep.estimates["box_full"] == pytest.approx(0.5, abs=0.02)
        assert rep.estimates["packing_threshold"] == Fraction(11, 20)
        assert rep.estimates["hausdorff_proxy"] <= \
            rep.estimates["lower_box"] + rep.tol
        assert {c["name"] for c in rep.checks} == {
            "lower_box <= upper_box",
            "hausdorff_proxy <= lower_box + tol",
            "corr_lower <= corr_upper",
            "corr_upper <= packing_threshold + tol",
        }
        assert rep.window == (4, 12)

    def test_no_measures_reports_gap(self):
        tree = cantor_tree(8)
        rep = inequality_report(tree, [], levels=range(2, 9))
        assert rep.ok  # only the box ordering is checkable
        assert rep.gaps
        assert "hausdorff_proxy" not in rep.estimates

    def test_shallow_measure_reports_gap(self):
        tree = cantor_tree(10)
        shallow = DyadicMeasureTree.uniform_on_set(cantor_tree(3))
        rep = inequality_report(tree, [shallow], levels=range(4, 11))
        assert rep.per_measure[0].get("gap")
        assert rep.gaps

    def test_measure_ending_inside_the_window_is_a_gap(self):
        # the stage-1 measure of the two-regime set ends at level 10: fit on
        # levels 1..10 only, its slopes would be compared with the set's on
        # 1..24 (Frostman 0.5 against lower box 0.056)
        plan = alternating_plan(Fraction(2, 5), Fraction(7, 10))
        tree = alternating_set(plan, 24)
        stage = alternating_measure(plan, 1)
        rep = inequality_report(
            tree, [DyadicMeasureTree.uniform_on_set(tree), stage])
        assert rep.ok
        assert rep.gaps == ["measure 1: depth 10 ends before the window"]
        assert rep.per_measure[1] == {
            "measure": 1, "levels": None,
            "gap": "depth 10 ends before the window"}
        assert rep.estimates["hausdorff_proxy"] == \
            rep.per_measure[0]["frostman"]

    @pytest.mark.parametrize("d, keep, depth, expected", [
        (2, range(4), 5, Fraction(2)),
        (2, [0, 1, 2], 5, Fraction(31, 20)),
        (3, range(8), 4, Fraction(3))], ids=["square", "sierpinski", "cube"])
    def test_chain_passes_above_dimension_one(self, d, keep, depth,
                                              expected):
        # the default grid runs to d, so the threshold reaches each set's
        # correlation slope (2, log2 3, 3) and corr_upper <= threshold holds
        tree = DyadicSetTree.from_digit_ifs(d, 1, keep, depth)
        rep = inequality_report(tree, [DyadicMeasureTree.uniform_on_set(
            tree)])
        assert rep.estimates["packing_threshold"] == expected
        assert rep.ok and all(c["ok"] for c in rep.checks)

    @pytest.mark.parametrize("d, depth", [(2, 2), (2, 5), (3, 2), (3, 3)])
    def test_full_cube_threshold_is_d(self, d, depth):
        mu = DyadicMeasureTree.uniform_on_set(DyadicSetTree.full(d, depth))
        assert packing_threshold(mu, range(1, depth + 1)) == d

    def test_needs_four_levels(self):
        tree = cantor_tree(6)
        with pytest.raises(ValidationError):
            inequality_report(tree, [], levels=[2, 3, 4])


class TestCorrelationSandwich:
    def test_cantor_with_random_measures(self):
        tree = cantor_tree(8)
        res = correlation_sandwich(tree, range(2, 9), n_random=5, seed=1)
        assert res["ok"]
        # one uniform + 5 random + 1 net row per level
        assert len(res["rows"]) == 7 * 7
        net_rows = [r for r in res["rows"] if r["measure"] == "net"]
        assert all(r["corr_sum"] == r["floor"] for r in net_rows)

    def test_random_measures_sit_strictly_above_floor(self):
        tree = cantor_tree(8)
        res = correlation_sandwich(tree, [8], n_random=3, seed=7)
        rand_rows = [r for r in res["rows"]
                     if r["measure"].startswith("random")]
        assert any(r["corr_sum"] > r["floor"] for r in rand_rows)

    def test_uniform_achieves_floor_exactly(self):
        # equal-split masses on this tree are equal at every level
        tree = cantor_tree(8)
        res = correlation_sandwich(tree, range(1, 9))
        uni = [r for r in res["rows"] if r["measure"] == "uniform"]
        assert all(r["corr_sum"] == r["floor"] for r in uni)

    def test_level_validation(self):
        with pytest.raises(ValidationError):
            correlation_sandwich(cantor_tree(4), [5])

    def test_benchmark_seeded_rows_pin(self):
        # the benchmark's corr-sandwich job at its default seed: the rows,
        # Fractions written "p/q", hash to the pinned digest, which ties
        # random_split's draws and tables to the pinned outputs
        res = correlation_sandwich(cantor_tree(12), range(4, 13),
                                   n_random=100, seed=20250819)
        rows = [{k: f"{v.numerator}/{v.denominator}"
                 if isinstance(v, Fraction) else v for k, v in row.items()}
                for row in res["rows"]]
        text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
        pins = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                           / "expected.json").read_text())
        assert len(rows) == pins["corr-sandwich"]["rows"]
        assert (hashlib.sha256(text.encode()).hexdigest()
                == pins["corr-sandwich"]["rows_sha256"])
