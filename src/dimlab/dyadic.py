"""Half-open dyadic cubes in the unit cube and their exact geometry.

A level-n cube in dimension d is a product of intervals
(j_i * 2^-n, (j_i + 1) * 2^-n], one per axis. The unit cube is tiled by the
2^(nd) such cubes; the right endpoint convention makes the tiling exact.

A cube is addressed by the pair (level n, Morton key), the key obtained by
interleaving the bits of the index tuple (j_1, ..., j_d). Morton keys order
each level so that the descendants of a cube occupy one contiguous key
range, which is what makes sorted-key level lists searchable with bisect.
A step of one index along an axis is a dilated-integer increment on the
key itself (step_axis), with no decoding.
"""

from __future__ import annotations

from collections.abc import Collection
from itertools import repeat
from operator import add, and_, mul, or_

from .exact import dyadic_index


def interleave(index: tuple[int, ...], level: int) -> int:
    """Morton key of an index tuple at a level. Axis 0 takes the high bit
    of each d-bit group; a 1-D index is its own key."""
    d = len(index)
    if d == 1:
        return index[0]
    key = 0
    for b in range(level - 1, -1, -1):
        for j in index:
            key = (key << 1) | ((j >> b) & 1)
    return key


def deinterleave(key: int, level: int, d: int) -> tuple[int, ...]:
    """Index tuple of a Morton key at a level n, the inverse of interleave.
    The key must lie below 2^(nd), as every key of the level does: written
    as nd binary digits, axis i reads digit i of each d-digit group, the
    highest level first."""
    if d == 1:
        return (key,)
    bits = format(key, f"0{level * d}b")
    return tuple(int(bits[i::d] or "0", 2) for i in range(d))


def step_axis(keys: Collection[int], level: int, d: int,
              axis: int) -> list[int]:
    """Morton keys of the cubes one index up along an axis from the level-n
    cubes with the given keys (read twice: a list, or a dict's keys), in
    their order, each interleave(index + e_axis, n + 1).

    With M the axis's bits (digit axis of each d-digit group) over n + 1
    groups, the step is the dilated-integer increment
    ((k | ~M) + 1) & M | (k & ~M) (Schrack 1992): the other axes' bits,
    set to 1, pass the carry along M, and the extra group keeps the carry
    out of a cube on the top face (index 2^n - 1), so no two stepped keys
    coincide. Level-n keys already stepped along other axes (an index of
    2^n there) step the same way."""
    if d == 1:
        return list(map(add, keys, repeat(1)))
    m = int(("0" * axis + "1").ljust(d, "0") * (level + 1), 2)
    rest = ~m
    return list(map(or_, map(and_, map(add, map(or_, keys, repeat(rest)),
                                       repeat(1)), repeat(m)),
                    map(and_, keys, repeat(rest))))


def cube_of_point(point, level: int) -> int:
    """Morton key of the unique level-n cube containing a point of the
    (half-open) unit cube. Coordinates must lie in (0, 1]; 0 is rejected
    because no half-open cube contains it."""
    pt = point if isinstance(point, (tuple, list)) else (point,)
    return interleave(tuple(dyadic_index(x, level) for x in pt), level)


def offset_bounds(offsets) -> tuple[int, int]:
    """(gaps, reach) of two same-level cubes whose index tuples differ by
    the non-negative per-axis offsets (a list or tuple): the squared min
    and max distances between their closures, in units of the squared cube
    side. Per axis an offset x leaves a gap of x - 1 sides (none when
    x = 0) and a reach of x + 1 sides: sum x^2 -+ 2 sum x plus one per
    term summed (only x > 0 for the gaps, and x = 0 adds no x or x^2)."""
    sq, twice = sum(map(mul, offsets, offsets)), 2 * sum(offsets)
    return (sq - twice + len(offsets) - offsets.count(0),
            sq + twice + len(offsets))
