"""Brute-force oracles that the tests compare dimlab's exact kernels with.

Each one is the plain definition, in Fraction arithmetic, with no window or
int scaling: the closed-ball mass of a finite atom list by a scan of every
atom, the ball-correlation pair sum of an atom list by a loop over every
pair, the signs of a - 2**e and a - r**s from Fraction powers, the first
key defect of a set tree's levels by a scan of every key, the closure
distances of two cubes per axis, and the dyadic levels of a radius by
stepping through the powers of two. Three more are slow paths of the
measure layer: the uniform-model ball bracket over every ordered pair of
cap-level cubes, the same bracket by a per-cube loop over each row pair
(no row paired with itself specially, no row index kept), and top-down
mass tables split by one Fraction product per child.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from dimlab.dyadic import deinterleave
from dimlab.measure import _below_leaves


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

    def resolve(level, gaps, reach):
        if reach * r2d <= r2n << (2 * level):
            unit = 1 << (2 * dd * (cap - level))
            return unit, unit
        if gaps * r2d > r2n << (2 * level):
            return 0, 0
        return (0, 1) if level >= cap else None

    m = min(cap, mu.max_depth)
    tbl, den = mu.tables[m]
    rho = (r2n << (2 * m)) // r2d
    cubes = defaultdict(list)
    for key, n in tbl.items():
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
