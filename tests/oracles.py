"""Brute-force oracles that the tests compare dimlab's exact kernels with.

Each one is the plain definition, in Fraction arithmetic, with no window or
int scaling: the closed-ball mass of a finite atom list by a scan of every
atom, the ball-correlation pair sum of an atom list by a loop over every
pair, the signs of a - 2**e and a - r**s from Fraction powers, a Morton
key's index tuple by one bit per axis per level, the first
key defect of a set tree's levels by a scan of every key and the first
nesting defect by a scan of every cube pair, a tree's levels from its
deepest keys by a set and a sort per level, the alternating set's
doubling exponent read off its breakpoints, a digit-IFS level by a filter
of every key at that level, the closure
distances of two cubes per axis, and the dyadic levels of a radius by
stepping through the powers of two. The rest are slow paths of the
measure layer: the uniform-model ball bracket over every ordered pair of
cap-level cubes, the same bracket by a per-cube loop over each row pair
(no row paired with itself specially, no row index kept), top-down mass
tables split by one Fraction product per child, tables summed bottom-up
from leaf masses (in Fractions, and by ancestor_tables into the int form),
the stagewise Frostman loop with one Fraction mass per stage cube,
atomic() in Fractions, a level's upper corners in
Fractions, the cover mass at one centre and the 2^d-cube sup-ball cover
bound by scans of every cube, and the s-energy over every
leaf pair in 80-digit Decimals (1-D) or every pair of cap-level cubes
(d >= 2), with leaf_measure, deeper and from_masses (Fraction tables to a
measure, by the file loader's _from_rows) to build their inputs, and a
measure file written, and one read, with one Fraction per mass row. The slope fit is the float
one with a slope and an RMS residual for every window. Two closed forms
check the float results: the Riesz energies of the unit square from its
distance density, and the 1-D mean square I(R) from the leaf offset
histogram and the sine integral.

measure_cases is the one hypothesis strategy of measures that the measure
tests draw from (uniform, random-split, prime-leaf, atomic, from_masses in
key or reversed order, ancestor_tables; d = 1..3, on digit-IFS and sparse
trees of set_trees), each with its Fraction tables from these oracles.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import product

from hypothesis import assume
from hypothesis import strategies as st

from dimlab import io
from dimlab.constructions import _auto_oracle
from dimlab.dyadic import cube_of_point, deinterleave, interleave
from dimlab.estimators import SlopeEstimate, SlopeTriple, default_window_len
from dimlab.exact import (ConstructionError, ValidationError, format_rational,
                          parse_rational)
from dimlab.measure import DyadicMeasureTree, _below_leaves
from dimlab.settree import DyadicSetTree


def squared_distance(p, q) -> Fraction:
    return sum(((Fraction(a) - b) ** 2 for a, b in zip(p, q)), Fraction(0))


def atom_ball_mass(atoms, x, r) -> Fraction:
    """Closed-ball mass mu(B(x, r)) of (point, weight) atoms: every atom
    within distance r of x, the sphere included."""
    r = Fraction(r)
    return sum((w for p, w in atoms if squared_distance(p, x) <= r * r),
               Fraction(0))


def atom_pair_sum(atoms, r) -> Fraction:
    """(mu x mu){(x, y): |x - y| <= r} of (point, weight) atoms, over every
    ordered pair of atoms."""
    r = Fraction(r)
    return sum((w * v for p, w in atoms for q, v in atoms
                if squared_distance(p, q) <= r * r), Fraction(0))


def fraction_cmp_pow2(a, e) -> int:
    """Sign of a - 2**e, e = p/q, as the sign of a**q - 2**p in Fractions."""
    a, e = Fraction(a), Fraction(e)
    if a <= 0:
        return -1
    lhs, rhs = a ** e.denominator, Fraction(2) ** e.numerator
    return (lhs > rhs) - (lhs < rhs)


def fraction_cmp_rpow(a, r, s) -> int:
    """Sign of a - r**s, s = p/q, as the sign of a**q - r**p in Fractions."""
    a, r, s = Fraction(a), Fraction(r), Fraction(s)
    if a <= 0:
        return -1
    lhs, rhs = a ** s.denominator, r ** s.numerator
    return (lhs > rhs) - (lhs < rhs)


def bitwise_deinterleave(key: int, level: int, d: int) -> tuple[int, ...]:
    """Index tuple of a Morton key at a level, one bit per axis per level:
    bits come off the low end, level-bit b of each axis, axis d - 1 first."""
    idx = [0] * d
    for b in range(level):
        for i in range(d - 1, -1, -1):
            idx[i] |= (key & 1) << b
            key >>= 1
    return tuple(idx)


def first_key_defect(levels, d: int) -> str | None:
    """The message for the first key, level by level and in list order,
    that lies outside 0..2^(dn)-1 or is not above the key before it; None
    when every level is strictly sorted and in range."""
    for n, keys in enumerate(levels):
        top = 1 << (d * n)
        prev = -1
        for k in keys:
            if not (0 <= k < top):
                return f"key {k} out of range at level {n}"
            if k <= prev:
                return f"level {n} keys not strictly sorted"
            prev = k
    return None


def first_nesting_defect(levels, d: int) -> str | None:
    """The message for the first nesting defect of sorted in-range levels,
    level by level: a cube with no selected child, then a cube whose parent
    is not selected, each by a scan of every cube pair; None when nested."""
    for n in range(1, len(levels)):
        for k in levels[n - 1]:
            if not any(c >> d == k for c in levels[n]):
                return f"cube {k} at level {n - 1} has no selected child"
        for k in levels[n]:
            if k >> d not in levels[n - 1]:
                return f"cube {k} at level {n} has unselected parent"
    return None


def doubling_exponent(plan, n: int) -> int:
    """E(n), log2 of the alternating set's cube count at level n, read off
    the breakpoints: the doubling count at the first breakpoint at or past
    n, less the doubling levels of its stretch still to come."""
    i = bisect_left(plan.breakpoints, n)
    if i % 2 == 1:  # doubling stretch (n_{2k}, n_{2k+1}]
        return plan.doubled[i] - (plan.breakpoints[i] - n)
    return plan.doubled[i]


def oracle_digit_ifs_level(d: int, group: int, keep, n: int) -> list[int]:
    """Level n of a digit-IFS set by a filter of every level-n key: each
    whole group of `group` d-bit digits is a kept pattern, and the partial
    group after them is a prefix of one."""
    a, p = divmod(n, group)
    kept = set(keep)
    partial = {pat >> (d * (group - p)) for pat in kept}
    width = d * group
    return [key for key in range(1 << (d * n))
            if key & ((1 << (d * p)) - 1) in partial
            and all((key >> (d * p + width * j)) & ((1 << width) - 1) in kept
                    for j in range(a))]


def oracle_levels_from_deepest(d: int, depth: int, keys) -> list[list[int]]:
    """The levels generated by a family of deepest-level keys: each level
    above is the sorted set of k >> d over the one below."""
    levels = [sorted(set(keys))]
    for _ in range(depth):
        levels.append(sorted({k >> d for k in levels[-1]}))
    return levels[::-1]


@dataclass(frozen=True)
class CubePairGeometry:
    """Exact squared distances between the closures of two cubes."""

    min_dist_sq: Fraction
    max_dist_sq: Fraction


def cube_pair_geometry(a, b) -> CubePairGeometry:
    """Min and max distance between the closures of two cubes, each given
    as a (level, index tuple) pair, exactly.

    Works for cubes at different levels. Per axis, with intervals
    [lo1, hi1] and [lo2, hi2]: the gap is max(0, lo2-hi1, lo1-hi2) and the
    farthest separation is max(hi2-lo1, hi1-lo2).
    """
    (la, ja), (lb, jb) = a, b
    if len(ja) != len(jb):
        raise ValueError("dimension mismatch")
    sa, sb = Fraction(1, 1 << la), Fraction(1, 1 << lb)
    min_sq = Fraction(0)
    max_sq = Fraction(0)
    for i, j in zip(ja, jb):
        lo1, hi1 = i * sa, (i + 1) * sa
        lo2, hi2 = j * sb, (j + 1) * sb
        gap = max(Fraction(0), lo2 - hi1, lo1 - hi2)
        far = max(hi2 - lo1, hi1 - lo2)
        min_sq += gap * gap
        max_sq += far * far
    return CubePairGeometry(min_sq, max_sq)


def radius_level(r) -> int:
    """The level n with 2**-(n+2) <= r < 2**-(n+1), 0 for r >= 1/4, by
    halving the bound until it drops to r."""
    r = Fraction(r)
    n = 0
    while r < Fraction(1, 2 ** (n + 2)):
        n += 1
    return n


def cube_diameter_level(d: int, r) -> int:
    """The least level m with d * 4**-m <= r**2: the level whose cubes
    have diameter at most r."""
    r = Fraction(r)
    m = 0
    while d * Fraction(1, 4 ** m) > r * r:
        m += 1
    return m


def brute_force_ball_bracket(mu, r, cap):
    """Ball-correlation bracket summed over every ordered pair of cap-level
    cubes, each pair classified by its exact closure distances. Masses below
    the deepest materialized level split uniformly, as the leaf model says."""
    top = min(cap, mu.max_depth)
    extra = mu.d * (cap - top)
    cubes = []
    for key, m in mu.level_masses(top):
        share = m / (1 << extra)
        for t in range(1 << extra):
            idx = deinterleave((key << extra) + t, cap, mu.d)
            cubes.append(((cap, idx), share))
    r2 = r * r
    lower = upper = Fraction(0)
    for a, ma in cubes:
        for b, mb in cubes:
            g = cube_pair_geometry(a, b)
            if g.max_dist_sq <= r2:
                lower += ma * mb
                upper += ma * mb
            elif g.min_dist_sq <= r2:
                upper += ma * mb
    return lower, upper


def oracle_row_ranges(mu, r, extra_depth):
    """(lower, upper, cap_level) of the uniform-model ball bracket by a
    per-cube loop over each row pair: bisects for the inside run, summed by
    prefix sums, and a walk over the straddling cubes binned by lag."""
    r2 = r * r
    r2n, r2d, dd = r2.numerator, r2.denominator, mu.d
    cap = 0
    while dd * r2d > r2n << (2 * cap):
        cap += 1
    cap += extra_depth

    def resolve(level, offset):
        gaps = sum((x - 1) ** 2 for x in offset if x)
        reach = sum((x + 1) ** 2 for x in offset)
        if reach * r2d <= r2n << (2 * level):
            unit = 1 << (2 * dd * (cap - level))
            return unit, unit
        if gaps * r2d > r2n << (2 * level):
            return 0, 0
        return (0, 1) if level >= cap else None

    m = min(cap, mu.max_depth)
    nums, den = mu.tables[m]
    rho = (r2n << (2 * m)) // r2d
    cubes = defaultdict(list)
    for key, n in zip(mu.support.levels[m], nums):
        idx = deinterleave(key, m, dd)
        cubes[idx[:-1]].append((idx[-1], n))
    rows = []
    for u, row in sorted(cubes.items()):
        row.sort()
        ns = [n for _, n in row]
        rows.append((u, [j for j, _ in row], ns,
                     list(itertools.accumulate(ns, initial=0))))
    inside, hist = 0, defaultdict(int)
    for ia, (u, js_a, ns_a, _) in enumerate(rows):
        for v, js_b, ns_b, pre_b in rows[ia:]:
            off = [abs(x - y) for x, y in zip(u, v)]
            gaps = sum((x - 1) ** 2 for x in off if x)
            if gaps > rho:
                continue
            reach = sum((x + 1) ** 2 for x in off)
            t_in = math.isqrt(rho - reach) - 1 if reach <= rho else -1
            t_out = math.isqrt(rho - gaps) + 1
            ins, acc = 0, defaultdict(int)
            for j, na in zip(js_a, ns_a):
                if t_in >= 0:
                    lo = bisect_left(js_b, j - t_in)
                    hi = bisect_right(js_b, j + t_in, lo)
                    ins += na * (pre_b[hi] - pre_b[lo])
                else:
                    lo = hi = bisect_left(js_b, j)
                for i in range(bisect_left(js_b, j - t_out, 0, lo), lo):
                    acc[j - js_b[i]] += na * ns_b[i]
                for i in range(hi, bisect_right(js_b, j + t_out, hi)):
                    acc[js_b[i] - j] += na * ns_b[i]
            w = 1 if u == v else 2
            inside += w * ins
            for s, h in acc.items():
                hist[tuple(sorted(off + [s]))] += w * h
    unit = 1 << (2 * dd * (cap - m))
    below, _ = _below_leaves(resolve)
    lower = upper = inside * unit
    for off, h in hist.items():
        lo, hi = below(m, off)
        lower += h * lo
        upper += h * hi
    q = den * den * unit
    return Fraction(lower, q), Fraction(upper, q), cap


def oracle_split(tree, parts):
    """Per-level Fraction tables split top-down from root mass 1, one
    Fraction product per child: the slow path the int tables replace."""
    masses = [dict() for _ in range(tree.max_depth + 1)]
    masses[0][0] = Fraction(1)
    for level in range(tree.max_depth):
        below = masses[level + 1]
        for key, m in masses[level].items():
            kids = tree.children_keys(level, key)
            weights = parts(kids)
            tot = sum(weights)
            for k, p in zip(kids, weights):
                below[k] = m * Fraction(p, tot)
    return masses


def leaf_measure(tree, leaf):
    """Validated uniform-leaf measure whose deepest-level masses are the
    Fractions in `leaf`, ancestors summed by `ancestor_tables`."""
    mu = DyadicMeasureTree(tree, "uniform",
                           ancestor_tables(leaf, tree.d, tree.max_depth)[1])
    mu.validate()
    return mu


def oracle_measure_json(mu) -> str:
    """A measure's file text with every mass row written through one
    Fraction, format_rational(mass): the reference for measure_to_dict,
    which formats each row from its numerator."""
    data = io.measure_to_dict(mu)
    data["masses"] = [[[k, format_rational(m)] for k, m in mu.level_masses(n)]
                      for n in range(mu.max_depth + 1)]
    return json.dumps(io._encode(data, io._file_leaf),
                      separators=(",", ":")) + "\n"


def from_masses(tree, masses, leaf_model="uniform", atoms=None, meta=None):
    """The validated measure of per-level {key: Fraction} tables in any key
    order (and a (point, weight) atom list): each level split into keys,
    numerators and denominators for _from_rows, which loads measure files."""
    return DyadicMeasureTree._from_rows(tree, [
        (list(t), [m.numerator for m in t.values()],
         [m.denominator for m in t.values()]) for t in masses],
        leaf_model, atoms, meta)


def oracle_measure_from_dict(data):
    """A measure file read with one parse_rational Fraction per mass row,
    given to from_masses: the reference for measure_from_dict, which
    parses the rows to ints."""
    support = io.set_from_dict(data["support"])
    masses = [{k: parse_rational(m) for k, m in level}
              for level in data["masses"]]
    atoms = None if data.get("atoms") is None else [
        (tuple(map(parse_rational, p)), parse_rational(w))
        for p, w in data["atoms"]]
    return from_masses(support, masses, data["leaf_model"], atoms,
                       io._file_meta(data))


def oracle_sup_ball_cover(mu, n):
    """The cover bound by a loop over every level-n cube and every corner
    direction, summing the 2^d cubes of that block that lie in the unit
    cube."""
    d = mu.d
    nums, den = mu.tables[n]
    masses = dict(zip(mu.support.levels[n], nums))
    top = 1 << n
    best = 0
    for key in masses:
        idx = deinterleave(key, n, d)
        for dirs in product((-1, 1), repeat=d):
            total = 0
            for offs in product((0, 1), repeat=d):
                j = tuple(idx[i] + dirs[i] * offs[i] for i in range(d))
                if all(0 <= ji < top for ji in j):
                    total += masses.get(interleave(j, n), 0)
            best = max(best, total)
    return Fraction(best, den)


def deeper(mu, k):
    """mu materialised k levels deeper: each leaf mass split equally over
    all 2^(d k) descendant cubes, as the uniform leaf model says."""
    d, depth, spread = mu.d, mu.max_depth + k, mu.d * k
    leaf = {(key << spread) + t: m / (1 << spread)
            for key, m in mu.level_masses(mu.max_depth)
            for t in range(1 << spread)}
    return leaf_measure(DyadicSetTree.from_codes(d, depth, leaf), leaf)


def decimal_pow(x, p):
    """x^p for a Decimal x >= 0 and a Fraction p, in the context precision:
    by square roots when p's denominator is a power of two."""
    q = p.denominator
    if q & (q - 1):
        return x ** (Decimal(p.numerator) / q)
    while q > 1:
        x, q = x.sqrt(), q >> 1
    return x ** p.numerator


def oracle_energy_1d(mu, s):
    """1-D s-energy of a uniform-leaf measure summed over every ordered leaf
    pair in 80-digit Decimal arithmetic: leaves at index offset a add
    m_a m_b l^-s ((a + 1)^(2 - s) - 2 a^(2 - s) + |a - 1|^(2 - s)) /
    ((1 - s)(2 - s)), with l the leaf side. The mass products are summed
    per offset first."""
    with localcontext() as ctx:
        ctx.prec = 80
        sd = Decimal(s.numerator) / s.denominator
        p = 2 - s
        denom = (1 - sd) * (2 - sd)
        leaves = [(k, Decimal(m.numerator) / m.denominator)
                  for k, m in mu.level_masses(mu.max_depth)]
        bins = {}
        for ka, ma in leaves:
            for kb, mb in leaves:
                a = abs(ka - kb)
                bins[a] = bins.get(a, 0) + ma * mb
        total = sum(w * (decimal_pow(Decimal(a + 1), p)
                         - 2 * decimal_pow(Decimal(a), p)
                         + decimal_pow(Decimal(abs(a - 1)), p))
                    for a, w in bins.items()) / denom
        return float(total * Decimal(2) ** (mu.max_depth * sd))


def oracle_energy_cubes(mu, s, cap):
    """s-energy bracket summed over every ordered pair of cap-level cubes of
    deeper(mu, cap - depth), each bounded through its exact closure
    distances: max_dist^-s below, min_dist^-s above, and for a pair that
    touches, the integral of |x - y|^-s over the ball of radius max_dist
    around x, divided by the cube volume."""
    d, sv = mu.d, float(s)
    side = 2.0 ** -cap
    sphere = d * math.pi ** (d / 2) / math.gamma(d / 2 + 1)
    cubes = [((cap, deinterleave(k, cap, d)), float(m))
             for k, m in deeper(mu, cap - mu.max_depth).level_masses(cap)]
    lower, upper = [], []
    for a, ma in cubes:
        for b, mb in cubes:
            g = cube_pair_geometry(a, b)
            far = math.sqrt(g.max_dist_sq)
            lower.append(ma * mb * far ** -sv)
            upper.append(ma * mb * (
                math.sqrt(g.min_dist_sq) ** -sv if g.min_dist_sq > 0 else
                sphere * far ** (d - sv) / ((d - sv) * side ** d)))
    return math.fsum(lower), math.fsum(upper)


def square_distance_density(t):
    """Density of |X - Y| for X, Y independent and uniform on the unit
    square: 2t(pi - 4t + t^2) on [0, 1], 2t(4 sqrt(t^2 - 1) - (t^2 + 2 - pi)
    - 4 arcsec t) on [1, sqrt 2]."""
    if t <= 1:
        return 2 * t * (math.pi - 4 * t + t * t)
    return 2 * t * (4 * math.sqrt(t * t - 1) - (t * t + 2 - math.pi)
                    - 4 * math.acos(1 / t))


def square_riesz_energy(s):
    """The s-energy of Lebesgue measure on the unit square, the integral of
    t^-s against square_distance_density, by scipy's quad on [0, 1] and
    [1, sqrt 2]."""
    from scipy.integrate import quad

    def f(t):
        return t ** -s * square_distance_density(t)

    return quad(f, 0, 1)[0] + quad(f, 1, math.sqrt(2))[0]


def oracle_mean_square_1d(mu, R):
    """I(R), the integral of |mu_hat|^2 over [-R, R], of a 1-D uniform-leaf
    measure in closed form: with leaf side l and H(k) the sum of m_a m_b
    over ordered leaf pairs at index offset |a - b| = k,
    I(R) = (1/l) sum_k H(k) (G(k + 1) + G(|k - 1|) - 2 G(k)),
    G(a) = 2 (a Si(a R l) - (1 - cos(a R l)) / (R l)). H is the leaf-mass
    vector's autocorrelation (numpy), Si is scipy's sici."""
    import numpy as np
    from scipy.special import sici
    depth = mu.max_depth
    w = np.zeros(1 << depth)
    for k, m in mu.level_masses(depth):
        w[k] = float(m)
    hist = np.correlate(w, w, "full")[len(w) - 1:]
    hist[1:] *= 2  # k > 0: both orders of each pair
    a, x = np.arange(len(hist), dtype=float), R * 2.0 ** -depth

    def g(a):
        return 2 * (a * sici(a * x)[0] - (1 - np.cos(a * x)) / x)

    second = g(a + 1) + g(np.abs(a - 1)) - 2 * g(a)
    return float(np.sum(hist * second)) * 2.0 ** depth


def oracle_ancestors(leaf, d, depth):
    """Per-level Fraction tables summed bottom-up from the leaf masses."""
    masses = [dict() for _ in range(depth)] + [dict(leaf)]
    for n in range(depth, 0, -1):
        above = masses[n - 1]
        for key, m in masses[n].items():
            above[key >> d] = above.get(key >> d, Fraction(0)) + m
    return masses


def ancestor_tables(leaf, d, depth):
    """(levels, tables) in the int form, from the level-`depth` Fraction
    masses in `leaf`: the levels by oracle_levels_from_deepest, each
    level's Fraction sums by oracle_ancestors, over the lcm of that level's
    reduced denominators (so in lowest terms); a level equal to the one
    above (one child per cube) shares its table."""
    levels = oracle_levels_from_deepest(d, depth, leaf)
    tables = []
    for keys, masses in zip(levels, oracle_ancestors(leaf, d, depth)):
        den = math.lcm(*(masses[k].denominator for k in keys))
        t = ([masses[k].numerator * (den // masses[k].denominator)
              for k in keys], den)
        tables.append(tables[-1] if tables and t == tables[-1] else t)
    return levels, tables


def oracle_frostman_stages(tree, s, radii, stages=None):
    """stagewise_frostman_measures with one (key, Fraction) pair per stage
    cube: each candidate level tested cube by cube over its level-n keys
    by a Fraction power comparison, the masses split by Fraction division,
    and each stage's (levels, tables) summed by ancestor_tables. Returns
    (stage levels, report rows, per-stage (levels, tables)); raises
    ConstructionError where no radius maps to a materialized level or
    stage 1 is impossible."""
    s = Fraction(s)
    admissible, _ = _auto_oracle(tree, s)
    level_of = {}
    for r in map(Fraction, radii):
        level_of.setdefault(radius_level(r), r)
    candidates = sorted(n for n in level_of if n <= tree.max_depth)
    if not candidates:
        raise ConstructionError("no radius maps to a materialized level")
    e = tree.d + 2 * s
    stage_levels, rows, tables = [], [], []
    current, cur_level = [(0, Fraction(1))], 0
    for _ in range(stages or len(candidates)):
        floor_level = stage_levels[-1] if stage_levels else -1
        found = None
        for n in candidates:
            if n <= floor_level:
                continue
            selection = {}
            keys, shift = tree.levels[n], tree.d * (n - cur_level)
            for key, mass in current:
                lo = bisect_left(keys, key << shift)
                hi = bisect_left(keys, (key + 1) << shift)
                kids = [k for k in keys[lo:hi] if admissible(n, k)]
                if not kids or fraction_cmp_pow2(len(kids) / mass,
                                                 e + n * s) < 0:
                    break
                selection[key] = kids
            else:
                found = n, selection
                break
        if found is None:
            if not stage_levels:
                raise ConstructionError("stage 1 impossible")
            break
        n, selection = found
        current = [(k, mass / len(selection[key])) for key, mass in current
                   for k in selection[key]]
        cur_level = n
        worst = max(m for _, m in current)
        stage_levels.append(n)
        rows.append({"stage": len(stage_levels), "level": n,
                     "radius": level_of[n], "cubes": len(current),
                     "max_mass": worst,
                     "mass_bound_ok": fraction_cmp_pow2(
                         worst, -(e + n * s)) <= 0})
        tables.append(ancestor_tables(dict(current), tree.d, n))
    return stage_levels, rows, tables


def oracle_cover(masses, x, r, n, d):
    """Mass of the level-n cubes whose closure meets [x - r, x + r]^d."""
    side = Fraction(1, 1 << n)
    return sum((m for key, m in masses.items()
                if all(j * side <= c + r and (j + 1) * side >= c - r
                       for j, c in zip(deinterleave(key, n, d), x))),
               Fraction(0))


def oracle_representatives(tree, n):
    """Upper corners of the selected level-n cubes in key order, in
    Fractions: the net that measure._net lists on ints over 2^n."""
    side = Fraction(1, 1 << n)
    return [tuple((j + 1) * side for j in deinterleave(key, n, tree.d))
            for key in tree.levels[n]]


def oracle_atomic(pts, ws, d, depth):
    """atomic() in Fractions: (sorted merged atoms, per-level tables,
    support levels), or the message of the first check that fails: d and
    depth before the atoms."""
    if d < 1:
        return "d must be >= 1"
    if depth < 0:
        return "depth must be >= 0"
    if d * depth > 62:
        return f"materialized keys need d*depth <= 62, got {d * depth}"
    if len(pts) != len(ws) or not pts:
        return "points/weights length mismatch or empty"
    if any(w <= 0 for w in ws):
        return "atom weights must be positive"
    if sum(ws) != 1:
        return "atom weights must sum to 1"
    if any(len(p) != d or not all(0 < c <= 1 for c in p) for p in pts):
        return "atom outside the half-open unit cube"
    agg, leaf = {}, {}
    for p, w in zip(pts, ws):
        agg[p] = agg.get(p, Fraction(0)) + w
    for p, w in agg.items():
        key = cube_of_point(p, depth)
        leaf[key] = leaf.get(key, Fraction(0)) + w
    masses = oracle_ancestors(leaf, d, depth)
    return sorted(agg.items()), masses, [sorted(t) for t in masses]


def _oracle_ls(xs, ys):
    """Least-squares slope and RMS residual, five fsums."""
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    if sxx == 0.0:
        raise ValidationError("degenerate abscissae in slope fit")
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    icept = my - slope * mx
    rss = math.fsum((y - (slope * x + icept)) ** 2 for x, y in zip(xs, ys))
    return slope, math.sqrt(rss / n)


def oracle_slope_fit(points, window_len=None):
    """slope_fit with the slope and residual of every window of at least
    window_len points; the first window of least (greatest) slope is the
    lower (upper) estimate."""
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
    best_lo = best_hi = full = None
    for length in range(wl, n + 1):
        for start in range(0, n - length + 1):
            wx = xs[start:start + length]
            slope, rms = _oracle_ls(wx, ys[start:start + length])
            est = (slope, (wx[0], wx[-1]), rms, length)
            if best_lo is None or slope < best_lo[0]:
                best_lo = est
            if best_hi is None or slope > best_hi[0]:
                best_hi = est
            if length == n:
                full = est

    def mk(e, tag):
        return SlopeEstimate(e[0], e[1], e[2], tag, e[3])

    return SlopeTriple(mk(best_lo, "liminf-proxy"),
                       mk(best_hi, "limsup-proxy"), mk(full, "full-fit"),
                       wl, tuple(pts))


# ---------------------------------------------------------------------------
# one hypothesis strategy of measures, with their Fraction tables

# leaf denominators for the prime-table measures: distinct primes, and at
# most 20 leaves, so that the leaves but one have masses summing below 1
# and the last one takes the rest
LEAF_PRIMES = [17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73,
               79, 83, 89, 97]
# rational coordinates p/q in (0, 1], q <= 12
COORDS = st.integers(1, 12).flatmap(
    lambda q: st.builds(Fraction, st.integers(1, q), st.just(q)))
MEASURE_KINDS = ("uniform", "random_split", "primes", "atoms", "from_masses",
                 "reversed", "ancestor_tables")


@st.composite
def set_trees(draw, depths=(7, 4, 3), min_depth=1, max_keep=(None,) * 3,
              sparse="points", max_cubes=12, ifs=True):
    """Set trees in d = 1..3 of depth min_depth..depths[d - 1]: digit-IFS
    trees (digit groups of 1 or 2 bits per axis, 1 in 3-D, keeping up to
    max_keep[d - 1] digits, any number for None) when ifs and drawn, else
    sparse trees: the occupied cubes of 1..max_cubes grid points
    (sparse="points", from_points) or the ancestors of 1..max_cubes
    deepest cubes (sparse="codes", from_codes)."""
    d = draw(st.sampled_from([1, 2, 3]))
    depth = draw(st.integers(min_depth, depths[d - 1]))
    if ifs and draw(st.booleans()):
        group = draw(st.integers(1, 2 if d < 3 else 1))
        keep = draw(st.sets(st.integers(0, (1 << (d * group)) - 1),
                            min_size=1, max_size=max_keep[d - 1]))
        return DyadicSetTree.from_digit_ifs(d, group, sorted(keep), depth)
    if sparse == "codes":
        return DyadicSetTree.from_codes(d, depth, draw(st.sets(
            st.integers(0, (1 << (d * depth)) - 1), min_size=1,
            max_size=max_cubes)))
    coord = st.builds(Fraction, st.integers(1, 1 << depth),
                      st.just(1 << depth))
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=1,
                        max_size=max_cubes))
    return DyadicSetTree.from_points(pts, d, depth)


def split_case(tree, kind, seed=0):
    """(measure, oracle tables, rng states) for a top-down split: equal, or
    random_split seeded with `seed`, whose rng state afterwards is paired
    with that of the oracle's per-cube draws from the same seed."""
    if kind == "uniform":
        return (DyadicMeasureTree.uniform_on_set(tree),
                oracle_split(tree, lambda kids: [1] * len(kids)), None)
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    mu = DyadicMeasureTree.random_split(tree, rng)
    masses = oracle_split(tree, lambda kids: [oracle_rng.randint(1, 9)
                                              for _ in kids])
    return mu, masses, (rng.getstate(), oracle_rng.getstate())


def leaf_case(tree, kind, leaf):
    """(measure, oracle tables, None) for deepest-level Fraction masses:
    the summed tables given to from_masses in key order ("from_masses") or
    each reversed ("reversed"), else summed by ancestor_tables."""
    masses = oracle_ancestors(leaf, tree.d, tree.max_depth)
    if kind == "from_masses":
        return from_masses(tree, masses), masses, None
    if kind == "reversed":
        return from_masses(tree, [dict(reversed(t.items())) for t in masses]
                           ), masses, None
    return leaf_measure(tree, leaf), masses, None


@st.composite
def measure_cases(draw, kinds=MEASURE_KINDS, trees=set_trees()):
    """(measure, its Fraction tables from the oracles, rng states or None)
    on a drawn tree, of a drawn kind: uniform; random_split with parts
    1..9; "primes", leaf masses 1/p for distinct primes p, the last
    leaf the rest (trees of at most 20 leaves); atoms, 1..12 points of
    COORDS with weights 1..9, at the tree's d and depth; leaf weights
    1..60 given to from_masses in key or reversed order, or summed by
    ancestor_tables."""
    tree = draw(trees)
    d, depth, leaves = tree.d, tree.max_depth, tree.levels[-1]
    kind = draw(st.sampled_from(kinds))
    if kind in ("uniform", "random_split"):
        return split_case(tree, kind, draw(st.integers(0, 2 ** 32)))
    if kind == "atoms":
        pts = draw(st.lists(st.tuples(*[COORDS] * d), min_size=1,
                            max_size=12))
        ws = draw(st.lists(st.integers(1, 9), min_size=len(pts),
                           max_size=len(pts)))
        ws = [Fraction(w, sum(ws)) for w in ws]
        return (DyadicMeasureTree.atomic(pts, ws, d, depth),
                oracle_atomic(pts, ws, d, depth)[1], None)
    if kind == "primes":
        assume(len(leaves) <= len(LEAF_PRIMES) + 1)
        primes = draw(st.permutations(LEAF_PRIMES))
        leaf = {k: Fraction(1, p) for k, p in zip(leaves[:-1], primes)}
        leaf[leaves[-1]] = 1 - sum(leaf.values(), Fraction(0))
        return leaf_case(tree, "ancestor_tables", leaf)
    ws = draw(st.lists(st.integers(1, 60), min_size=len(leaves),
                       max_size=len(leaves)))
    return leaf_case(tree, kind, {k: Fraction(w, sum(ws))
                                  for k, w in zip(leaves, ws)})
