"""Brute-force oracles that the tests compare dimlab's exact kernels with.

Each one is the plain definition, in Fraction arithmetic, with no window or
int scaling: the closed-ball mass of a finite atom list by a scan of every
atom, the ball-correlation pair sum of an atom list by a loop over every
pair, the signs of a - 2**e and a - r**s from Fraction powers, and the first
key defect of a set tree's levels by a scan of every key.
"""

from __future__ import annotations

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
