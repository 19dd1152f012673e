"""Log-log slope fitting and exact dimension predicates.

Two kinds of output live here and must not be conflated. Slope estimators
(box, correlation, Frostman-decay) are floating-point least-squares fits and
always carry their fitting window, because at finite depth a slope is only
evidence about the window it was fit on. Predicates (mass bounds of the form
mu(C) <= 2^-ns or mu(B(x,r)) <= r^s) are decided with exact integer
arithmetic and carry per-scale pass/fail records instead of tolerances.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, repeat
from numbers import Integral
from operator import add, mul, sub

from .exact import (ValidationError, cmp_pow2, cmp_rpow, diameter_level,
                    level_for_radius, log2_fraction, sorted_levels,
                    to_fraction)
from .measure import ATOMS, DyadicMeasureTree, net_measure
from .settree import DyadicSetTree


# ---------------------------------------------------------------------------
# least-squares slope fitting


@dataclass(frozen=True)
class SlopeEstimate:
    """A least-squares slope with the window it was fit on.

    variant is one of "liminf-proxy", "limsup-proxy", "full-fit". The proxies
    are the min/max windowed slopes; no convergence claim is attached.
    """

    value: float
    window: tuple[float, float]
    residual: float
    variant: str
    npoints: int


@dataclass(frozen=True)
class SlopeTriple:
    lower: SlopeEstimate
    upper: SlopeEstimate
    full: SlopeEstimate
    window_len: int
    points: tuple[tuple[float, float], ...]


def _ls(xs: list[float], ys: list[float]) -> tuple[float, float, float]:
    """Least-squares slope, with the means of xs and ys."""
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    dx = list(map(sub, xs, repeat(mx)))
    sxx = math.fsum(map(pow, dx, repeat(2)))
    if sxx == 0.0:
        raise ValidationError("degenerate abscissae in slope fit")
    return math.fsum(map(mul, dx, map(sub, ys, repeat(my)))) / sxx, mx, my


def _rms(xs, ys, slope: float, mx: float, my: float) -> float:
    """RMS residual of the line of that slope through (mx, my)."""
    icept = my - slope * mx
    fit = map(add, map(mul, repeat(slope), xs), repeat(icept))
    return math.sqrt(math.fsum(map(pow, map(sub, ys, fit), repeat(2)))
                     / len(xs))


def default_window_len(npoints: int) -> int:
    """Windows shorter than ~70% of the data read local staircase texture
    as slope; this default keeps single-step artifacts inside +-0.02 on
    period-2 staircases while still reporting a lower/upper spread."""
    return max(4, math.ceil(0.7 * npoints))


def slope_fit(points, window_len: int | None = None) -> SlopeTriple:
    """Full least-squares fit plus min/max slopes over all contiguous
    windows of at least window_len points.

    The full window is itself a candidate, so lower <= full <= upper holds
    structurally. Scales must be strictly monotone; at least 4 points.
    Windows are ranked by slope alone, the first of tied windows kept; the
    residual is computed for the three reported windows only.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 4:
        raise ValidationError("slope fit needs at least 4 points")
    xs = [p[0] for p in pts]
    inc = all(a < b for a, b in zip(xs, xs[1:]))
    dec = all(a > b for a, b in zip(xs, xs[1:]))
    if not (inc or dec):
        raise ValidationError("scales must be strictly monotone")
    if dec:
        pts.reverse()
        xs.reverse()
    ys = [p[1] for p in pts]
    n = len(pts)
    wl = default_window_len(n) if window_len is None else int(window_len)
    if wl < 2:
        raise ValidationError("window_len must be >= 2")
    wl = min(wl, n)

    # by length, then start: the full window comes last
    wins = [(a, a + length) for length in range(wl, n + 1)
            for a in range(n - length + 1)]
    fits = [_ls(xs[a:b], ys[a:b]) for a, b in wins]
    slope = [fit[0] for fit in fits].__getitem__

    def mk(i, tag):
        (a, b), fit = wins[i], fits[i]
        return SlopeEstimate(fit[0], (xs[a], xs[b - 1]),
                             _rms(xs[a:b], ys[a:b], *fit), tag, b - a)

    ids = range(len(wins))
    return SlopeTriple(mk(min(ids, key=slope), "liminf-proxy"),
                       mk(max(ids, key=slope), "limsup-proxy"),
                       mk(ids[-1], "full-fit"), wl, tuple(pts))


# ---------------------------------------------------------------------------
# box and correlation dimension proxies


def _level_slopes(tree, levels, window_len, value) -> SlopeTriple:
    """slope_fit of (n, value(n)) over the sorted distinct levels of the
    set tree, by default 1..max_depth. Cube counts never fall going down,
    so a materialized level with as many cubes as the last level evaluated
    ends a chain of one-child levels below it, and value(n) is called once
    per chain: a chain repeats the box count and every mass, so also the
    correlation sum and the max cube mass."""
    if levels is None:
        levels = range(1, tree.max_depth + 1)
    pts, last = [], None
    for n in sorted_levels(levels):
        if not (last and n <= tree.max_depth
                and len(tree.levels[n]) == len(tree.levels[last[0]])):
            last = n, value(n)
        pts.append((n, last[1]))
    return slope_fit(pts, window_len)


def box_dims(tree: DyadicSetTree, levels=None,
             window_len: int | None = None) -> SlopeTriple:
    """Slope estimates of log2 box_count(n) against n.

    Levels beyond the materialized depth are fine when the tree carries
    symbolic counts.
    """
    return _level_slopes(tree, levels, window_len,
                         lambda n: math.log2(tree.box_count(n)))


def correlation_dims(mu: DyadicMeasureTree, levels=None,
                     window_len: int | None = None) -> SlopeTriple:
    """Slope estimates of -log2 sum(mass^2) against n: the dyadic
    correlation-sum reading of correlation dimension."""
    return _level_slopes(
        mu.support, levels, window_len,
        lambda n: -log2_fraction(mu.dyadic_correlation_sum(n)))


def frostman_slope(mu: DyadicMeasureTree, levels=None,
                   window_len: int | None = None) -> SlopeTriple:
    """Slope estimates of -log2 max cube mass against n: the decay exponent
    of the measure's worst cube, a Frostman-exponent proxy."""
    return _level_slopes(mu.support, levels, window_len,
                         lambda n: -log2_fraction(mu.max_cube_mass(n)))


# ---------------------------------------------------------------------------
# exact predicates


@dataclass
class PredicateReport:
    """Per-scale records of an exactly decided mass-bound predicate.

    verdict: "holds-on-window" when every scale passed, "fails" when some
    scale failed with certainty, "inconclusive" otherwise (a bracket or a
    cover bound was too loose to decide).
    """

    predicate: str
    s: Fraction
    records: list[dict] = field(default_factory=list)
    verdict: str = "inconclusive"

    def settle(self) -> "PredicateReport":
        statuses = [r["status"] for r in self.records]
        if any(st == "fail" for st in statuses):
            self.verdict = "fails"
        elif statuses and all(st == "pass" for st in statuses):
            self.verdict = "holds-on-window"
        else:
            self.verdict = "inconclusive"
        return self


def correlation_predicates(mu: DyadicMeasureTree, s, radii,
                           extra_depth: int = 4) -> dict[str, PredicateReport]:
    """The three per-scale membership tests behind the upper correlation
    dimension, decided exactly where possible, in one pass over the radii:

    - "pair-integral": two-point bracket upper bound <= r^s; certified fail
      when the bracket lower bound already exceeds r^s.
    - "ball-sup": sup ball mass <= r^s via the 2^d-cube cover bound
      (DyadicMeasureTree.ball_cover_bound);
      certified fail when some materialized cube of diameter <= r carries
      mass > r^s.
    - "cube-max": max level-n cube mass <= 2^-ns at n = level_for_radius(r).
    """
    sf = to_fraction(s)
    rads = [to_fraction(r) for r in radii]
    if any(not (0 < r) for r in rads):
        raise ValidationError("radii must be positive")

    pair, sup, cmax = (PredicateReport(p, sf) for p in
                       ("pair-integral", "ball-sup", "cube-max"))
    for r in rads:
        br = mu.ball_correlation_bracket(r, extra_depth)
        st = ("pass" if cmp_rpow(br.upper, r, sf) <= 0 else
              "fail" if cmp_rpow(br.lower, r, sf) > 0 else "inconclusive")
        pair.records.append({"radius": r, "lower": br.lower,
                             "upper": br.upper, "status": st})

        n = level_for_radius(r)
        if n > mu.max_depth:
            for rep, why in ((sup, "cover level beyond depth"),
                             (cmax, "level beyond depth")):
                rep.records.append({"radius": r, "level": n,
                                    "status": "inconclusive", "why": why})
            continue
        # past the cover bound, the heaviest ball about an atom, or a cube
        # of diameter <= r, certifies a failure
        bound = mu.ball_cover_bound(n)
        if cmp_rpow(bound, r, sf) <= 0:
            st = "pass"
        elif mu.leaf_model == ATOMS:
            nums, wden = mu.ball_masses_atoms(None, r)
            heavy = cmp_rpow(Fraction(max(nums), wden), r, sf) > 0
            st = "fail" if heavy else "inconclusive"
        else:
            m = diameter_level(mu.d, r)
            heavy = (m <= mu.max_depth
                     and cmp_rpow(mu.max_cube_mass(m), r, sf) > 0)
            st = "fail" if heavy else "inconclusive"
        sup.records.append({"radius": r, "level": n, "cover_bound": bound,
                            "status": st})
        mmax = mu.max_cube_mass(n)
        ok = cmp_pow2(mmax, -(n * sf)) <= 0
        cmax.records.append({"radius": r, "level": n, "max_mass": mmax,
                             "status": "pass" if ok else "fail"})
    return {rep.predicate: rep.settle() for rep in (pair, sup, cmax)}


def _halves(levels, depth: int) -> tuple[list[int], list[int], list[int]]:
    """The sorted distinct window levels and its two halves, the first
    holding the extra level of an odd window."""
    lv = sorted_levels(levels)
    if not lv:
        raise ValidationError("empty level window")
    if lv[0] < 0 or lv[-1] > depth:
        raise ValidationError("levels must lie within the measure depth")
    half = len(lv) - len(lv) // 2  # first-half length (ceil)
    return lv, lv[:half], lv[half:]


def packing_predicate(mu: DyadicMeasureTree, s, levels) -> PredicateReport:
    """Finite proxy for "mu(C_n(x)) <= 2^-ns for infinitely many n".

    For every leaf cube (each stands for the support points it contains) the
    levels where its ancestor mass obeys the bound are recorded; the verdict
    is holds-on-window iff every leaf scores at least one such level in each
    half of the window. Exact comparisons throughout.
    """
    sf = to_fraction(s)
    lv, *halves = _halves(levels, mu.max_depth)
    first, second = map(set, halves)

    d = mu.d
    report = PredicateReport("dyadic-packing", sf)
    failing: list[int] = []
    per_level_pass = {n: 0 for n in lv}
    top = mu.max_depth
    leaves = mu.support.levels[top]
    for leaf in leaves:
        hits = []
        for n in lv:
            anc = leaf >> (d * (top - n))
            if cmp_pow2(mu.mass(n, anc), -(n * sf)) <= 0:
                hits.append(n)
                per_level_pass[n] += 1
        if len(failing) < 16 and not (first.intersection(hits)
                                      and second.intersection(hits)):
            failing.append(leaf)
    for n in lv:
        report.records.append({"level": n, "cubes_pass": per_level_pass[n],
                               "cubes_total": len(leaves),
                               "half": "first" if n in first else "second",
                               "status": "pass"})
    report.verdict = "fails" if failing else "holds-on-window"
    if failing:
        report.records.append({"failing_leaf_keys": failing,
                               "leaf_level": top,
                               "status": "fail"})
    return report


def packing_threshold(mu: DyadicMeasureTree, levels) -> Fraction:
    """Largest exponent k/20, k = 1..20 d, whose packing predicate holds on
    the window: the grid runs to the dimension d. 0 when none holds.

    Same verdicts as packing_predicate at every grid exponent, from one
    top-down pass over each half of the window. A level-n cube of mass N/D
    passes k/20 iff nk <= log2(D^20 / N^20), iff nk <= b - 1 with b the bit
    length of D^20 // N^20 (nk is an integer, the quotient >= 1): it passes
    the first (b - 1) // n exponents, and all of them at n = 0. A leaf
    passes the first k exponents, k the smaller of the longest prefixes
    passed by its ancestors in each half, so the predicate holds on the
    smaller of the two half minima (0 for the empty second half of a
    one-level window). A half keeps its best prefixes as a list in key order
    from its first level; before each later level the list repeats each
    entry over the cube's runs of descendants (parent_runs, level by level
    from the last level folded in), which keeps its minimum, then folds in
    that level's prefixes. A level with as many cubes as the last one folded
    only continues one-child chains, which repeat their masses, and a mass
    passes no more exponents deeper down (2^-ns falls with n for s > 0): it
    is skipped.
    """
    grid = 20 * mu.d
    _, *halves = _halves(levels, mu.max_depth)
    tree, holds = mu.support, grid
    for half in halves:
        # the best prefix passed by each level-`at` cube or an ancestor in
        # the half; an empty half keeps [0] at the root, so holds is 0
        at = half[0] if half else 0
        best = [0] * len(tree.levels[at])
        for n in half:
            if n != at:
                if len(tree.levels[n]) == len(tree.levels[at]):
                    continue
                for runs in filter(None, tree.parent_runs[at:n]):
                    best = list(chain.from_iterable(
                        map(repeat, best, runs[1])))
                at = n
            nums, den = mu.tables[n]
            den20 = den ** 20
            # numerator -> length of the grid prefix it passes
            passed = {num: min(grid, ((den20 // num ** 20).bit_length() - 1)
                               // n) if n else grid for num in set(nums)}
            best = [x if x > k else k for x, k in zip(
                best, map(passed.__getitem__, nums))]
        holds = min(holds, *best)
    return Fraction(holds, 20)


# ---------------------------------------------------------------------------
# the inequality chain


@dataclass
class InequalityReport:
    """Ordered summary of the dimension proxies for one set and its
    candidate measures, with the standard orderings checked up to a stated
    tolerance. Slope entries are floats with windows; threshold entries are
    exact grid values."""

    estimates: dict
    per_measure: list[dict]
    checks: list[dict]
    gaps: list[str]
    window: tuple[int, int]
    tol: float
    ok: bool


def inequality_report(tree: DyadicSetTree, measures, levels=None,
                      window_len: int | None = None,
                      tol: float = 0.05) -> InequalityReport:
    """Tabulate box, correlation, Frostman-decay and packing proxies on one
    shared level window and assert the dimension orderings:

        hausdorff_proxy <= lower_box + tol
        lower_box <= upper_box
        corr_lower <= corr_upper
        corr_upper <= packing_threshold + tol

    The Hausdorff proxy is the best (largest) Frostman decay slope over the
    supplied measures; correlation and packing proxies likewise take the
    best witness. Missing inputs produce explicit gaps, not failures: so
    does a measure whose depth ends before the window's last level.
    """
    if levels is None:
        levels = range(1, tree.max_depth + 1)
    lv = sorted_levels(levels)
    if len(lv) < 4:
        raise ValidationError("need at least 4 levels")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValidationError("tol must be finite and >= 0")

    box = box_dims(tree, lv, window_len)
    estimates = {"lower_box": box.lower.value, "upper_box": box.upper.value,
                 "box_full": box.full.value}

    gaps: list[str] = []
    per_measure: list[dict] = []
    for i, mu in enumerate(measures):
        if mu.d != tree.d:
            raise ValidationError(f"measure {i} has d = {mu.d}, "
                                  f"the set has d = {tree.d}")
        if mu.max_depth < lv[-1]:
            gap = f"depth {mu.max_depth} ends before the window"
            gaps.append(f"measure {i}: {gap}")
            per_measure.append({"measure": i, "levels": None, "gap": gap})
            continue
        corr = correlation_dims(mu, lv, window_len)
        fro = frostman_slope(mu, lv, window_len)
        thr = packing_threshold(mu, lv)
        per_measure.append({
            "measure": i, "levels": (lv[0], lv[-1]),
            "corr_lower": corr.lower.value, "corr_upper": corr.upper.value,
            "frostman": fro.lower.value, "packing_threshold": thr})

    if not measures:
        gaps.append("no measures supplied: correlation, Frostman and "
                    "packing rows missing")

    checks: list[dict] = []

    def add_check(name, lhs, rhs):
        checks.append({"name": name, "lhs": float(lhs), "rhs": float(rhs),
                       "ok": float(lhs) <= float(rhs)})

    add_check("lower_box <= upper_box", box.lower.value, box.upper.value)
    # each proxy's best witness over the measures that have a row of them
    rows = [row for row in per_measure if "gap" not in row]
    if rows:
        hdd, corr_lo, corr_hi, pack = (
            max(row[name] for row in rows) for name in
            ("frostman", "corr_lower", "corr_upper", "packing_threshold"))
        estimates["hausdorff_proxy"] = hdd
        add_check("hausdorff_proxy <= lower_box + tol", hdd,
                  box.lower.value + tol)
        # the minkowski-type lower dimension sits between these two
        estimates["lower_box_bracket"] = (hdd, box.lower.value)
        estimates["corr_lower"] = corr_lo
        estimates["corr_upper"] = corr_hi
        add_check("corr_lower <= corr_upper", corr_lo, corr_hi)
        estimates["packing_threshold"] = pack
        add_check("corr_upper <= packing_threshold + tol", corr_hi,
                  float(pack) + tol)

    ok = all(c["ok"] for c in checks)
    return InequalityReport(estimates, per_measure, checks, gaps,
                            (lv[0], lv[-1]), tol, ok)


# ---------------------------------------------------------------------------
# box-count vs correlation-sum sandwich


def correlation_sandwich(tree: DyadicSetTree, levels, n_random: int = 0,
                         seed: int = 0) -> dict:
    """Exact check that box counts floor the dyadic correlation sums.

    For any probability measure carried by the tree, Cauchy-Schwarz over
    the level-n cubes gives sum(m^2) >= 1/#C_n, with equality exactly at
    equal masses. Verified with rational arithmetic for the uniform-split
    measure, `n_random` seeded random-split measures, and the level-n net
    atomic measure, which must achieve equality. Each verdict compares
    ints, sum N^2 #C_n against D^2 for a level table N / D. One measure
    is built and checked at a time, its sums, corr_sum and verdict made
    once per distinct table (a one-child level shares the table above).
    """
    lv = sorted_levels(levels)
    if not lv or lv[0] < 0 or lv[-1] > tree.max_depth:
        raise ValidationError("levels outside the materialized range")
    if not isinstance(n_random, Integral) or n_random < 0:
        raise ValidationError("number of random measures must be an int >= 0")
    floors = [Fraction(1, tree.box_count(n)) for n in lv]
    per_level = [[] for _ in lv]  # each level's rows, in measure order

    def check(name, tables):
        last = None
        for rows, n, floor in zip(per_level, lv, floors):
            if tables[n] is not last:
                last = nums, den = tables[n]
                s2, den2 = sum(map(mul, nums, nums)), den * den
                corr, good = Fraction(s2, den2), s2 * len(nums) >= den2
            rows.append({"level": n, "measure": name, "corr_sum": corr,
                         "floor": floor, "ok": good})

    check("uniform", DyadicMeasureTree.uniform_on_set(tree).tables)
    rng = random.Random(seed)
    for i in range(n_random):
        check(f"random-{i}", DyadicMeasureTree.random_split(tree, rng).tables)
    for rows, n, floor in zip(per_level, lv, floors):
        nums, den = net_measure(tree, n).tables[n]
        s2, den2 = sum(map(mul, nums, nums)), den * den
        rows.append({"level": n, "measure": "net",
                     "corr_sum": Fraction(s2, den2), "floor": floor,
                     "ok": s2 * tree.box_count(n) == den2, "equality": True})
    rows = list(chain.from_iterable(per_level))
    return {"ok": all(row["ok"] for row in rows), "rows": rows, "levels": lv,
            "random_measures": n_random, "seed": seed}
