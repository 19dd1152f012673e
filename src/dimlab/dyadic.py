"""Half-open dyadic cubes in the unit cube and their exact geometry.

A level-n cube in dimension d is a product of intervals
(j_i * 2^-n, (j_i + 1) * 2^-n], one per axis. The unit cube is tiled by the
2^(nd) such cubes; the right endpoint convention makes the tiling exact.

Cubes are addressed two ways: by the index tuple (j_1, ..., j_d), and by the
Morton key obtained by interleaving index bits. Morton keys order each level
so that the descendants of a cube occupy one contiguous key range, which is
what makes sorted-key level lists searchable with bisect.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .exact import ValidationError, dyadic_index, pow2, to_fraction


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


@dataclass(frozen=True)
class DyadicCode:
    """Address of a half-open dyadic cube: level n and per-axis indices."""

    level: int
    index: tuple[int, ...]

    def __post_init__(self):
        if self.level < 0:
            raise ValidationError("level must be >= 0")
        if not self.index:
            raise ValidationError("index tuple must be non-empty")
        object.__setattr__(self, "index", tuple(int(j) for j in self.index))
        top = 1 << self.level
        for j in self.index:
            if not (0 <= j < top):
                raise ValidationError(
                    f"index {j} out of range at level {self.level}"
                )

    @property
    def d(self) -> int:
        return len(self.index)

    @property
    def side(self) -> Fraction:
        return pow2(-self.level)

    @property
    def key(self) -> int:
        return interleave(self.index, self.level)

    @classmethod
    def from_key(cls, level: int, key: int, d: int) -> "DyadicCode":
        return cls(level, deinterleave(key, level, d))

    def upper_corner(self) -> tuple[Fraction, ...]:
        s = self.side
        return tuple((j + 1) * s for j in self.index)

    def representative(self) -> tuple[Fraction, ...]:
        """The one point of the cube with all-dyadic coordinates at this
        level: the upper corner (it belongs to the half-open cube)."""
        return self.upper_corner()

    def center(self) -> tuple[Fraction, ...]:
        s = self.side
        return tuple((2 * j + 1) * s / 2 for j in self.index)

    def parent(self) -> "DyadicCode":
        if self.level == 0:
            raise ValidationError("the unit cube has no parent")
        return DyadicCode(self.level - 1, tuple(j >> 1 for j in self.index))

    def children(self) -> list["DyadicCode"]:
        d = self.d
        out = []
        for t in range(1 << d):
            idx = tuple(
                (self.index[i] << 1) | ((t >> (d - 1 - i)) & 1)
                for i in range(d)
            )
            out.append(DyadicCode(self.level + 1, idx))
        return out

    def ancestor(self, level: int) -> "DyadicCode":
        if not (0 <= level <= self.level):
            raise ValidationError("ancestor level out of range")
        shift = self.level - level
        return DyadicCode(level, tuple(j >> shift for j in self.index))

    def contains(self, other: "DyadicCode") -> bool:
        """True when other is this cube or one of its descendants."""
        if other.d != self.d or other.level < self.level:
            return False
        return other.ancestor(self.level) == self


def cube_of_point(point, level: int) -> DyadicCode:
    """The unique level-n cube containing a point of the (half-open) unit
    cube. Coordinates must lie in (0, 1]; 0 is rejected because no half-open
    cube contains it."""
    pt = point if isinstance(point, (tuple, list)) else (point,)
    idx = tuple(dyadic_index(x, level) for x in pt)
    return DyadicCode(level, idx)


@dataclass(frozen=True)
class CubePairGeometry:
    """Exact squared distances between the closures of two cubes."""

    min_dist_sq: Fraction
    max_dist_sq: Fraction


def cube_pair_geometry(a: DyadicCode, b: DyadicCode) -> CubePairGeometry:
    """Min and max distance between cube closures, exactly.

    Works for cubes at different levels. Per axis, with intervals
    [lo1, hi1] and [lo2, hi2]: the gap is max(0, lo2-hi1, lo1-hi2) and the
    farthest separation is max(hi2-lo1, hi1-lo2).
    """
    if a.d != b.d:
        raise ValidationError("dimension mismatch")
    sa, sb = a.side, b.side
    min_sq = Fraction(0)
    max_sq = Fraction(0)
    for i in range(a.d):
        lo1, hi1 = a.index[i] * sa, (a.index[i] + 1) * sa
        lo2, hi2 = b.index[i] * sb, (b.index[i] + 1) * sb
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


def squared_distance(p, q) -> Fraction:
    pp = tuple(to_fraction(x) for x in p)
    qq = tuple(to_fraction(x) for x in q)
    if len(pp) != len(qq):
        raise ValidationError("point dimension mismatch")
    return reduce(lambda acc, t: acc + (t[0] - t[1]) ** 2, zip(pp, qq), Fraction(0))
