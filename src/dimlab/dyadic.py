"""Half-open dyadic cubes in the unit cube and their exact geometry.

A level-n cube in dimension d is a product of intervals
(j_i * 2^-n, (j_i + 1) * 2^-n], one per axis. The unit cube is tiled by the
2^(nd) such cubes; the right endpoint convention makes the tiling exact.

A cube is addressed by the pair (level n, Morton key), the key obtained by
interleaving the bits of the index tuple (j_1, ..., j_d). Morton keys order
each level so that the descendants of a cube occupy one contiguous key
range, which is what makes sorted-key level lists searchable with bisect.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import ValidationError, dyadic_index, pow2


def interleave(index: tuple[int, ...], level: int) -> int:
    """Morton key of an index tuple at a level. Axis 0 takes the high bit
    of each d-bit group."""
    d = len(index)
    key = 0
    for b in range(level - 1, -1, -1):
        for j in index:
            key = (key << 1) | ((j >> b) & 1)
    return key


def deinterleave(key: int, level: int, d: int) -> tuple[int, ...]:
    idx = [0] * d
    for b in range(level):
        for i in range(d - 1, -1, -1):
            idx[i] |= (key & 1) << b
            key >>= 1
        # bits come off the low end: level-bit b of each axis, axis d-1 first
    return tuple(idx)


def cube_of_point(point, level: int) -> int:
    """Morton key of the unique level-n cube containing a point of the
    (half-open) unit cube. Coordinates must lie in (0, 1]; 0 is rejected
    because no half-open cube contains it."""
    pt = point if isinstance(point, (tuple, list)) else (point,)
    return interleave(tuple(dyadic_index(x, level) for x in pt), level)


@dataclass(frozen=True)
class CubePairGeometry:
    """Exact squared distances between the closures of two cubes."""

    min_dist_sq: Fraction
    max_dist_sq: Fraction


def cube_pair_geometry(a: tuple[int, tuple[int, ...]],
                       b: tuple[int, tuple[int, ...]]) -> CubePairGeometry:
    """Min and max distance between the closures of two cubes, each given
    as a (level, index tuple) pair, exactly.

    Works for cubes at different levels. Per axis, with intervals
    [lo1, hi1] and [lo2, hi2]: the gap is max(0, lo2-hi1, lo1-hi2) and the
    farthest separation is max(hi2-lo1, hi1-lo2).
    """
    (la, ja), (lb, jb) = a, b
    if len(ja) != len(jb):
        raise ValidationError("dimension mismatch")
    sa, sb = pow2(-la), pow2(-lb)
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


def same_level_axis_bounds(d: int, j_a: tuple[int, ...], j_b: tuple[int, ...]) -> tuple[int, int]:
    """For two level-n cubes given by index tuples, returns integer
    (sum of squared per-axis gaps, sum of squared per-axis reaches) in units
    of the cube side: true min_dist^2 = gaps * 4^-n, max dist^2 = reach * 4^-n."""
    gaps = 0
    reach = 0
    for i in range(d):
        delta = j_a[i] - j_b[i]
        if delta < 0:
            delta = -delta
        g = delta - 1 if delta > 0 else 0
        m = delta + 1
        gaps += g * g
        reach += m * m
    return gaps, reach

