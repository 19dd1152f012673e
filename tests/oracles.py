"""Brute-force oracles that the tests compare dimlab's exact kernels with.

Each one is the plain definition, in Fraction arithmetic, with no window or
int scaling: the closed-ball mass of a finite atom list by a scan of every
atom, the ball-correlation pair sum of an atom list by a loop over every
pair, the signs of a - 2**e and a - r**s from Fraction powers, the first
key defect of a set tree's levels by a scan of every key, the closure
distances of two cubes per axis, and the dyadic levels of a radius by
stepping through the powers of two.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


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
