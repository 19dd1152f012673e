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


def cube_of_point(point, level: int) -> int:
    """Morton key of the unique level-n cube containing a point of the
    (half-open) unit cube. Coordinates must lie in (0, 1]; 0 is rejected
    because no half-open cube contains it."""
    pt = point if isinstance(point, (tuple, list)) else (point,)
    return interleave(tuple(dyadic_index(x, level) for x in pt), level)


def offset_bounds(offsets) -> tuple[int, int]:
    """(gaps, reach) of two same-level cubes whose index tuples differ by
    the non-negative per-axis offsets: the squared min and max distances
    between their closures, in units of the squared cube side. Per axis an
    offset x leaves a gap of x - 1 sides (none when x = 0) and a reach of
    x + 1 sides."""
    return (sum((x - 1) ** 2 for x in offsets if x),
            sum((x + 1) ** 2 for x in offsets))
