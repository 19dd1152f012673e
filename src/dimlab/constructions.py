"""Staged constructions with two scaling regimes, and stagewise Frostman
measures.

Two set constructions live here, both on the unit interval:

* The alternating construction interleaves long stretches where every cube
  keeps a single child (counts frozen) with stretches where every cube
  doubles, so the count exponent oscillates between a low and a high slope.

* The sweep construction keeps one designated interval doubling while all
  other chains stay single, re-designating in a left-to-right sweep with
  wraparound, so every local piece eventually takes a turn at both regimes.

Breakpoint schedules are computed with exact integer floors from rational
parameters; cube counts are powers of two (alternating) or small offsets of
powers of two (sweep), so every inequality asserted about them is checked in
integer arithmetic.

The stagewise Frostman routine builds the finite-stage measures used to
witness lower bounds: each stage refines the previous one at the least level
where the admissible-cube supply is large enough relative to the mass being
split, which is what keeps the per-cube mass below 2^-(d+2s) * 2^-ns.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import rshift
from typing import Callable, Sequence

from .exact import (
    ConstructionError,
    ValidationError,
    cmp_pow2,
    le_rpow,
    level_for_radius,
    to_fraction,
)
from .measure import DyadicMeasureTree, _split_step
from .settree import (DyadicSetTree, Segment, SegmentCounts, _check_cubes,
                      _runs)


# ---------------------------------------------------------------------------
# alternating construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlternatingPlan:
    """Breakpoint schedule n_0 < n_1 < ... < n_{2K+1} with slack sequence.

    Levels in (n_{2k-1}, n_{2k}] keep a single (left) child per cube;
    levels in (n_{2k}, n_{2k+1}] keep both children. doubled[i] is the
    number of doubling levels up to breakpoint i, so the cube count at
    breakpoint i is 2**doubled[i].
    """

    dim_low: Fraction
    dim_high: Fraction
    slack: tuple[Fraction, ...]
    breakpoints: tuple[int, ...]
    doubled: tuple[int, ...]
    level_budget: int

    @property
    def k_max(self) -> int:
        return len(self.breakpoints) // 2 - 1

    @property
    def last_level(self) -> int:
        return self.breakpoints[-1]

    def segment_counts(self) -> SegmentCounts:
        segs = []
        bps = self.breakpoints
        for i in range(1, len(bps)):
            lo = bps[i - 1] + 1 if i > 1 else 0
            hi = bps[i]
            if i % 2 == 1:
                # doubling: count(n) = 2^{E(bps[i]) - (bps[i] - n)}
                coef = 1 << (self.doubled[i] - (hi - lo))
                segs.append(Segment(lo, hi, 0, coef))
            else:
                segs.append(Segment(lo, hi, 1 << self.doubled[i], 0))
        return SegmentCounts(segs)


def _rates(dim_low, dim_high, level_budget: int) -> tuple[Fraction, Fraction]:
    """A plan's two rates as Fractions, once 0 < dim_low < dim_high < 1
    and the level budget is at least 1."""
    t = to_fraction(dim_low)
    s = to_fraction(dim_high)
    if not (0 < t < s < 1):
        raise ValidationError("need 0 < dim_low < dim_high < 1")
    if level_budget < 1:
        raise ValidationError("level budget must be >= 1")
    return t, s


def alternating_plan(dim_low, dim_high,
                     level_budget: int = 10 ** 6) -> AlternatingPlan:
    """Compute the breakpoint schedule by the two floor recurrences.

    With E_2k the doubling count before the k-th slow stretch ends and
    the slack eps_k = dim_low / (k + 2):
    n_2k = floor(E_2k / (t - eps_k)) + 1 and
    n_2k+1 = floor((n_2k - E_2k) / (1 - s)).
    """
    t, s = _rates(dim_low, dim_high, level_budget)
    bps = [0, 1]
    doubled = [0, 1]
    slacks: list[Fraction] = []
    k = 1
    while True:
        eps = t / (k + 2)
        e_2k = doubled[-1]
        n_2k = (e_2k / (t - eps)).__floor__() + 1
        if n_2k <= bps[-1]:
            raise ConstructionError(
                f"schedule collapsed at k={k}: n_2k={n_2k} <= {bps[-1]}")
        n_2k1 = ((n_2k - e_2k) / (1 - s)).__floor__()
        if n_2k1 <= n_2k:
            raise ConstructionError(
                f"schedule collapsed at k={k}: n_2k+1={n_2k1} <= {n_2k}")
        if n_2k1 > level_budget:
            break
        bps.extend([n_2k, n_2k1])
        doubled.extend([e_2k, e_2k + (n_2k1 - n_2k)])
        slacks.append(eps)
        k += 1
    if len(bps) < 4:
        raise ConstructionError("level budget too small for one full cycle")
    return AlternatingPlan(t, s, tuple(slacks), tuple(bps), tuple(doubled),
                           level_budget)


def verify_alternating_plan(plan: AlternatingPlan) -> dict:
    """Re-derive the recurrences and check the exponent inequalities.

    Counts are exact powers of two, so the count inequalities
    2^{n(t-eps)-1} <= #C_n < 2^{n(t-eps)} reduce to rational comparisons of
    exponents.
    """
    t, s = plan.dim_low, plan.dim_high
    checks = []
    bps, dbl = plan.breakpoints, plan.doubled
    for k in range(1, plan.k_max + 1):
        eps = plan.slack[k - 1]
        e_2k = dbl[2 * k - 1]
        n_2k_expect = (e_2k / (t - eps)).__floor__() + 1
        n_2k1_expect = ((n_2k_expect - e_2k) / (1 - s)).__floor__()
        checks.append({
            "k": k, "name": "recurrence",
            "ok": (bps[2 * k] == n_2k_expect
                   and bps[2 * k + 1] == n_2k1_expect)})
        # low-regime pinch: n(t-eps) - 1 <= E < n(t-eps)
        lhs = bps[2 * k] * (t - eps)
        e = dbl[2 * k]
        checks.append({"k": k, "name": "low_pinch",
                       "ok": lhs - 1 <= e < lhs,
                       "exponent": e, "target": str(lhs)})
        # high-regime pinch: n*s - 1 < E <= n*s
        rhs = bps[2 * k + 1] * s
        e1 = dbl[2 * k + 1]
        checks.append({"k": k, "name": "high_pinch",
                       "ok": rhs - 1 < e1 <= rhs,
                       "exponent": e1, "target": str(rhs)})
    ok = all(c["ok"] for c in checks)
    return {"ok": ok, "checks": checks, "k_max": plan.k_max,
            "last_level": plan.last_level}


def alternating_set(plan: AlternatingPlan,
                    materialize_depth: int) -> DyadicSetTree:
    """Materialize the alternating tree: single (left) child on slow
    stretches, both children on doubling stretches (the segments of the
    schedule with coef != 0)."""
    sym = _schedule(plan, materialize_depth)
    levels = [[0]]
    for m in range(1, materialize_depth + 1):
        prev = levels[-1]
        levels.append(_grow(prev, 0, len(prev) if sym.segment(m).coef else 0))
    meta = {"kind": "alternating",
            "dim_low": str(plan.dim_low), "dim_high": str(plan.dim_high),
            "breakpoints": list(plan.breakpoints)}
    return DyadicSetTree(1, materialize_depth, levels, sym, meta)


def _schedule(plan, depth: int) -> SegmentCounts:
    """The plan's segment counts, once depth lies in 0..last_level and its
    level holds no more cubes than a constructed set may materialize."""
    if not 0 <= depth <= plan.last_level:
        raise ValidationError(
            f"materialize depth must lie in 0..{plan.last_level}")
    sym = plan.segment_counts()
    _check_cubes(sym, depth)
    return sym


def _grow(keys: list[int], lo: int, hi: int) -> list[int]:
    """The level below 1-D `keys`: keys[lo:hi] keep both children, every
    other cube its left child (a merge of two sorted runs)."""
    left = [k << 1 for k in keys]
    return sorted(left + [k | 1 for k in left[lo:hi]]) if lo < hi else left


def alternating_measure(plan: AlternatingPlan, m: int) -> DyadicMeasureTree:
    """Stage-m measure: uniform over the surviving level-n_{2m+1} cubes.

    All cubes at a level share one doubling history, so the equal-split
    measure on the truncated tree has equal masses 1/#C_n at every level n
    up to the truncation.
    """
    if m < 1 or 2 * m + 1 >= len(plan.breakpoints):
        raise ValidationError(f"stage {m} outside plan range")
    depth = plan.breakpoints[2 * m + 1]
    tree = alternating_set(plan, depth)
    mu = DyadicMeasureTree.uniform_on_set(tree)
    mu.meta = {"kind": "alternating_stage", "stage": m, "level": depth}
    return mu


# ---------------------------------------------------------------------------
# sweep construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepPlan:
    """Breakpoints N_0=1 <= n_1 < N_1 < n_2 < N_2 < ... with counts.

    Between N_{k-1} and n_k one designated interval doubles while the other
    chains stay single; between n_k and N_k everything stays single. c[k] is
    the cube count at level N_k (also at n_k, counts freeze in between).
    """

    dim_low: Fraction
    dim_high: Fraction
    n_seq: tuple[int, ...]
    big_n_seq: tuple[int, ...]  # starts with N_0 = 1
    counts_at_stage: tuple[int, ...]  # c_0 = 2, c_k = #C_{n_k} = #C_{N_k}
    level_budget: int

    @property
    def k_max(self) -> int:
        return len(self.n_seq)

    @property
    def last_level(self) -> int:
        return self.big_n_seq[-1]

    def segment_counts(self) -> SegmentCounts:
        segs = [Segment(0, 1, 0, 1)]
        for k in range(1, self.k_max + 1):
            nk = self.n_seq[k - 1]
            nprev = self.big_n_seq[k - 1]
            nk_big = self.big_n_seq[k]
            # (N_{k-1}, n_k]: c_{k-1} - 1 singles plus a doubling subtree
            segs.append(Segment(nprev + 1, nk,
                                self.counts_at_stage[k - 1] - 1, 2))
            if nk + 1 <= nk_big:
                segs.append(Segment(nk + 1, nk_big,
                                    self.counts_at_stage[k], 0))
        return SegmentCounts(segs)


def sweep_plan(dim_low, dim_high, level_budget: int = 10 ** 5) -> SweepPlan:
    t, s = _rates(dim_low, dim_high, level_budget)
    n_seq: list[int] = []
    big_n: list[int] = [1]
    counts = [2]
    while True:
        prev_n = big_n[-1]
        nk = max((Fraction(prev_n) / (1 - s)).__floor__(),
                 (t / (s - t)).__ceil__())
        if nk > level_budget:
            break
        nk_big = max((s * nk / t).__floor__(), ((1 - s) / s).__ceil__())
        # the recurrences are supposed to force this chain; parameters for
        # which they do not cannot drive the sweep
        if not prev_n < nk < nk_big:
            raise ConstructionError(
                f"breakpoints fail to interleave at stage {len(n_seq) + 1}: "
                f"{prev_n}, {nk}, {nk_big}")
        n_seq.append(nk)
        big_n.append(nk_big)
        counts.append(counts[-1] - 1 + (1 << (nk - prev_n)))
    if not n_seq:
        raise ConstructionError("level budget too small for one stage")
    return SweepPlan(t, s, tuple(n_seq), tuple(big_n), tuple(counts),
                     level_budget)


def verify_sweep_plan(plan: SweepPlan) -> dict:
    """Recurrence recheck and interleaving at every stage; the two
    breakpoint pinches and the k * 2^{n_k s} count cap from stage 2 on (the
    pinch derivation needs the previous stage behind it, and stage 1 can
    overshoot the cap by the additive constant)."""
    t, s = plan.dim_low, plan.dim_high
    checks = []
    for k in range(1, plan.k_max + 1):
        nk = plan.n_seq[k - 1]
        nprev = plan.big_n_seq[k - 1]
        nk_big = plan.big_n_seq[k]
        expect_nk = max((Fraction(nprev) / (1 - s)).__floor__(),
                        (t / (s - t)).__ceil__())
        expect_big = max((s * nk / t).__floor__(),
                         ((1 - s) / s).__ceil__())
        checks.append({"k": k, "name": "recurrence",
                       "ok": nk == expect_nk and nk_big == expect_big})
        checks.append({"k": k, "name": "interleave",
                       "ok": nprev < nk < nk_big})
        # closed form: #C_{n_k} = sum_m (2^{n_m - N_{m-1}} - 1) + 2
        closed = sum((1 << (plan.n_seq[m - 1] - plan.big_n_seq[m - 1])) - 1
                     for m in range(1, k + 1)) + 2
        cnt = plan.counts_at_stage[k]
        checks.append({"k": k, "name": "count_closed_form",
                       "ok": cnt == closed})
        if k < 2:
            continue
        # s*n_k - (1-s) < n_k - N_{k-1} <= s*n_k
        gap = nk - nprev
        checks.append({"k": k, "name": "doubling_span_pinch",
                       "ok": s * nk - (1 - s) < gap <= s * nk,
                       "value": gap, "target": str(s * nk)})
        # s*n_k - t < N_k * t <= s*n_k
        checks.append({"k": k, "name": "stage_end_pinch",
                       "ok": s * nk - t < nk_big * t <= s * nk,
                       "value": nk_big, "target": str(s * nk / t)})
        # #C_{n_k} <= k * 2^{n_k * s}
        checks.append({"k": k, "name": "count_cap",
                       "ok": cmp_pow2(Fraction(cnt, k), nk * s) <= 0,
                       "count": cnt})
    ok = all(c["ok"] for c in checks)
    return {"ok": ok, "checks": checks, "k_max": plan.k_max}


def sweep_set(plan: SweepPlan, materialize_depth: int) -> DyadicSetTree:
    """Materialize the sweep tree, tracking designated intervals.

    The designated interval's whole subtree doubles during (N_{k-1}, n_k],
    the schedule's segments with coef != 0; every other cube keeps its
    left child. At level N_k the designation moves to the leftmost
    selected level-N_k cube strictly to the right of the old designated
    interval (compared through ancestors at the old level), wrapping to the
    global leftmost cube when the old interval was rightmost.
    """
    sym = _schedule(plan, materialize_depth)
    levels = [[0]]
    designated: list[dict] = []
    # the unit cube is designated for the doubling into level 1
    cur_level, cur_key = 0, 0
    for m in range(1, materialize_depth + 1):
        prev = levels[-1]
        lo = hi = 0
        if sym.segment(m).coef:
            shift = (m - 1) - cur_level
            lo = bisect.bisect_left(prev, cur_key << shift)
            hi = bisect.bisect_left(prev, (cur_key + 1) << shift)
        levels.append(_grow(prev, lo, hi))
        # designation events at N_0 = 1 and at each N_k
        if m == 1:
            cur_level, cur_key = 1, 0
            designated.append({"stage": 0, "level": 1, "key": 0})
        elif m in plan.big_n_seq:
            stage = plan.big_n_seq.index(m)
            keys = levels[m]
            shift = m - cur_level
            pos = bisect.bisect_left(keys, (cur_key + 1) << shift)
            new_key = keys[pos] if pos < len(keys) else keys[0]
            wrapped = pos >= len(keys)
            cur_level, cur_key = m, new_key
            designated.append({"stage": stage, "level": m, "key": new_key,
                               "wrapped": wrapped})
    meta = {"kind": "sweep", "dim_low": str(plan.dim_low),
            "dim_high": str(plan.dim_high), "designated": designated}
    return DyadicSetTree(1, materialize_depth, levels, sym, meta)


def verify_sweep_set(plan: SweepPlan, tree: DyadicSetTree) -> dict:
    """Materialized counts vs the symbolic schedule, within-designated
    counts with their three bounds, and lower-range disjointness."""
    t, s = plan.dim_low, plan.dim_high
    depth = tree.max_depth
    checks = []
    seg = plan.segment_counts()
    for m in range(depth + 1):
        checks.append({"name": "level_count", "level": m,
                       "ok": len(tree.levels[m]) == seg.count(m)})

    designated = tree.meta["designated"]
    ranges = []
    for i, dz in enumerate(designated):
        k = dz["stage"]
        lvl, key = dz["level"], dz["key"]
        if k + 1 > plan.k_max:
            continue
        nk1 = plan.n_seq[k]        # n_{k+1}
        nbig1 = plan.big_n_seq[k + 1]  # N_{k+1}
        # doubling range (N_k, n_{k+1}]: count inside = 2^{m - N_k} <= m 2^{ms}
        for m in range(lvl + 1, min(nk1, depth) + 1):
            cnt = tree.descendant_count(lvl, key, m)
            checks.append({
                "name": "designated_doubling", "stage": k, "level": m,
                "ok": (cnt == 1 << (m - lvl)
                       and cmp_pow2(Fraction(cnt, m), m * s) <= 0)})
        # frozen range (n_{k+1}, N_{k+1}]: constant count <= m 2^{ms}
        frozen = 1 << (nk1 - lvl) if nk1 <= depth else None
        for m in range(nk1 + 1, min(nbig1, depth) + 1):
            cnt = tree.descendant_count(lvl, key, m)
            checks.append({
                "name": "designated_frozen", "stage": k, "level": m,
                "ok": (cnt == frozen
                       and cmp_pow2(Fraction(cnt, m), m * s) <= 0)})
        # lower-count range [N_{k+1}, R]: R is the next re-entry of the
        # designation into this interval, or the horizon
        reentry = None
        for later in designated[i + 1:]:
            if (later["key"] >> (later["level"] - lvl)) == key:
                reentry = later["level"]
                break
        horizon = reentry if reentry is not None else depth
        truncated = reentry is None
        ranges.append({"stage": k, "cube": (lvl, key),
                       "range": [nbig1, horizon], "truncated": truncated})
        for m in range(nbig1, min(horizon, depth) + 1):
            cnt = tree.descendant_count(lvl, key, m)
            checks.append({
                "name": "designated_lower", "stage": k, "level": m,
                "ok": (cnt == frozen
                       and cmp_pow2(Fraction(cnt, m), m * t + 1) <= 0)})
    # disjoint designated intervals must have non-overlapping lower ranges
    for i in range(len(ranges)):
        for j in range(i + 1, len(ranges)):
            ci, cj = ranges[i]["cube"], ranges[j]["cube"]
            li, ki = ci
            lj, kj = cj
            nested = (lj >= li and (kj >> (lj - li)) == ki) or \
                     (li >= lj and (ki >> (li - lj)) == kj)
            if nested:
                continue
            a1, b1 = ranges[i]["range"]
            a2, b2 = ranges[j]["range"]
            overlap = min(b1, b2) - max(a1, a2)
            checks.append({"name": "lower_range_disjoint",
                           "pair": [i, j], "ok": overlap <= 0})
    ok = all(c["ok"] for c in checks)
    return {"ok": ok, "checks": checks, "ranges": ranges,
            "designated": designated}


# ---------------------------------------------------------------------------
# stagewise Frostman measures
# ---------------------------------------------------------------------------


def _auto_oracle(tree: DyadicSetTree, s: Fraction
                 ) -> tuple[Callable[[int, int], bool], bool]:
    """Admissibility of the cube (level, key) for exponent s: does the set
    inside the cube have lower box dimension exceeding s?

    For self-similar and staged constructions this is decided exactly from
    the known dimension; otherwise a windowed slope heuristic is used and
    flagged: its slope must exceed s by 1/100, decided exactly by cmp_pow2.
    Returns (oracle, heuristic_flag).
    """
    kind, sym = tree.meta.get("kind"), tree.symbolic
    admit = None
    if kind in ("ifs", "full") and getattr(sym, "branch", None) is not None:
        # count(a * group) = branch^a in every d, so the dimension is
        # log2(branch) / group; admissible iff dim > s
        admit = cmp_pow2(Fraction(sym.branch), s * sym.group) > 0
    elif kind == "alternating":
        if "dim_low" not in tree.meta:
            raise ValidationError("alternating set meta has no dim_low")
        admit = to_fraction(tree.meta["dim_low"]) > s
    if admit is not None:
        return (lambda level, key: admit), False

    max_depth = tree.max_depth

    def heuristic(level: int, key: int) -> bool:
        span = max_depth - level
        if span < 2:
            return False
        lo = level + span // 2
        c_lo = tree.descendant_count(level, key, lo)
        c_hi = tree.descendant_count(level, key, max_depth)
        # log2(c_hi / c_lo) / (max_depth - lo) > s + 1/100, on ints
        return cmp_pow2(Fraction(c_hi, c_lo),
                        (s + Fraction(1, 100)) * (max_depth - lo)) > 0

    return heuristic, True


@dataclass
class FrostmanStageReport:
    s: Fraction
    stage_levels: list[int]
    stage_radii: list[Fraction]
    heuristic_oracle: bool
    rows: list[dict] = field(default_factory=list)
    ok: bool = True


def stagewise_frostman_measures(tree: DyadicSetTree, s, radii,
                                stages: int | None = None
                                ) -> tuple[list[DyadicMeasureTree],
                                           FrostmanStageReport]:
    """Finite-stage Frostman measures on the set carried by `tree`.

    radii must decrease; each maps to the level n with
    2^-(n+2) <= r < 2^-(n+1). Stage i+1 splits every stage-i cube's mass
    uniformly over its admissible descendants at the least candidate level
    where, for every stage-i cube C,
        2^{-ns} #D_n(C) >= 2^{d+2s} mu_i(C).
    That inequality is checked exactly, which makes the per-cube mass bound
    mu(C_n) <= 2^-(d+2s) 2^-ns automatic at every stage.
    """
    sf = to_fraction(s)
    if not (0 < sf):
        raise ValidationError("s must be positive")
    rads = [to_fraction(r) for r in radii]
    if any(r2 >= r1 for r1, r2 in zip(rads, rads[1:])):
        raise ValidationError("radii must strictly decrease")
    if not rads:
        raise ValidationError("need at least one radius")
    if stages is not None and stages < 1:
        raise ValidationError("stages must be >= 1")

    admissible, heuristic = _auto_oracle(tree, sf)

    d = tree.d
    level_of: dict[int, Fraction] = {}
    for r in rads:
        n = level_for_radius(r)
        if n not in level_of:
            level_of[n] = r
    candidates = sorted(n for n in level_of if n <= tree.max_depth)
    if not candidates:
        raise ConstructionError("no radius maps to a materialized level")

    threshold_exp = d + 2 * sf  # 2^{d+2s}

    # stage state: the sorted keys at cur_level, their masses nums / den;
    # stage 1 splits the unit cube's mass 1 (the general test, mu(C) = 1)
    stage_levels: list[int] = []
    stage_radii: list[Fraction] = []
    measures: list[DyadicMeasureTree] = []
    rows: list[dict] = []
    keys, nums, den, cur_level = [0], [1], 1, 0

    max_stage = stages if stages is not None else len(candidates)
    for _ in range(max_stage):
        floor_level = stage_levels[-1] if stage_levels else -1
        inside = set(keys)
        for n in candidates:
            if n <= floor_level:
                continue
            # the stage cubes' admissible level-n descendants, one run each
            shift = d * (n - cur_level)
            kids = [k for k in tree.levels[n]
                    if k >> shift in inside and admissible(n, k)]
            ups, lens, _ = _runs(map(rshift, kids, repeat(shift)))
            # #D_n(C) >= 2^{d+2s+ns} * mu(C) at every stage cube C, decided
            # once per distinct (count, numerator) pair
            if len(ups) == len(keys) and all(
                    cmp_pow2(Fraction(c * den, m), threshold_exp + n * sf) >= 0
                    for c, m in set(zip(lens, nums))):
                break
        else:
            if not stage_levels:
                raise ConstructionError(
                    "stage 1 impossible: at no candidate level n does the "
                    "oracle admit at least 2^(d+2s+ns) cubes "
                    f"(s={sf}, candidates={candidates})")
            break
        nums, den = _split_step(nums, den, lens, None)
        keys, cur_level = kids, n
        stage_levels.append(n)
        stage_radii.append(level_of[n])
        measures.append(DyadicMeasureTree._from_leaves(
            d, n, keys, nums, den,
            {"kind": "frostman_stage", "from": tree.meta.get("kind")},
            {"kind": "frostman_stage", "level": n}))
        worst = Fraction(max(nums), den)
        # every stage cube mass <= 2^-(d+2s) 2^-ns, exactly
        mass_bound_ok = cmp_pow2(worst, -(threshold_exp + n * sf)) <= 0
        rows.append({"stage": len(stage_levels), "level": n,
                     "radius": level_of[n], "cubes": len(keys),
                     "max_mass": worst, "mass_bound_ok": mass_bound_ok})

    report = FrostmanStageReport(sf, stage_levels, stage_radii, heuristic,
                                 rows, all(r["mass_bound_ok"] for r in rows))
    return measures, report


def verify_stage_balls(measures: Sequence[DyadicMeasureTree],
                       report: FrostmanStageReport) -> dict:
    """Exact ball-mass check for each stage measure at its own radius:
    mu_i(B(x, r_i)) <= r_i^s at every centre x. The stage level n is
    level_for_radius(r_i), so the 2^d-block cover bound at level n
    (ball_cover_bound) bounds the ball mass at every x in one pass, and
    that bound is compared with r_i^s by rational power arithmetic. The
    stage mass bound implies this check: 2^d 2^-(d+2s) 2^-ns =
    2^-s(n+2) <= r^s.
    """
    rows = []
    for mu, n, r in zip(measures, report.stage_levels, report.stage_radii):
        bound = mu.ball_cover_bound(n)
        rows.append({"stage_level": n, "radius": r,
                     "centers": len(mu.support.levels[n]),
                     "cover_bound": bound, "ok": le_rpow(bound, r, report.s)})
    return {"ok": all(row["ok"] for row in rows), "rows": rows}
