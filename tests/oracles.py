"""Brute-force oracles that the tests compare dimlab's exact kernels with.

Each one is the plain definition, in Fraction arithmetic, with no window or
int scaling: the closed-ball mass of a finite atom list by a scan of every
atom, and the ball-correlation pair sum of an atom list by a loop over every
pair.
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
