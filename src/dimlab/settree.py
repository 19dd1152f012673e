"""Nested families of dyadic cubes stored level by level.

A set tree holds, for each level n up to a materialization depth, the sorted
Morton keys of the selected cubes. Nesting is the structural invariant:
every selected cube's parent is selected, and every selected cube above the
deepest level has at least one selected child, so the levels are exactly the
cube families of a compact set's dyadic skeleton.

Counts beyond the materialized depth can be carried symbolically when the
construction has a closed form (digit IFS, staged constructions); the tree
then answers box_count for levels far past anything stored.
"""

from __future__ import annotations

import bisect
import functools
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from operator import lt, rshift
from typing import Iterable, Sequence

from .dyadic import cube_of_point
from .exact import UnavailableError, ValidationError


def _ints(values: list) -> list:
    """`values` if all are JSON integers (one C-level type pass)."""
    if set(map(type, values)) - {int}:
        raise TypeError("expected JSON integers")
    return values


class SymbolicCounts:
    """Closed-form cube counts past the materialized depth: a subclass
    gives count(n), covers(n) and to_dict()."""

    @staticmethod
    def from_dict(data: dict) -> "SymbolicCounts":
        kind = data.get("kind")
        if kind == GeometricCounts.kind:
            return GeometricCounts(*_ints([data["group"], data["branch"]]),
                                   _ints(list(data["prefix_counts"])))
        if kind == SegmentCounts.kind:
            segs = [Segment(*_ints([s["lo"], s["hi"], s["base"], s["coef"]]))
                    for s in data["segments"]]
            return SegmentCounts(segs)
        raise ValidationError(f"unknown symbolic counts kind {kind!r}")


class GeometricCounts(SymbolicCounts):
    """Counts for a digit IFS with group length g: count(a*g + p) =
    branch**a * prefix_counts[p]. Valid at every level."""

    kind = "geometric"

    def __init__(self, group: int, branch: int, prefix_counts: list[int]):
        if group < 1 or branch < 1 or len(prefix_counts) != group:
            raise ValidationError("malformed geometric counts")
        if min(prefix_counts) < 1:
            raise ValidationError("every prefix count must be >= 1")
        if prefix_counts[0] != 1:
            raise ValidationError("prefix_counts[0] must be 1 (the cube itself)")
        self.group = group
        self.branch = branch
        self.prefix_counts = list(prefix_counts)

    def count(self, n: int) -> int:
        if n < 0:
            raise ValidationError("negative level")
        a, p = divmod(n, self.group)
        return self.branch ** a * self.prefix_counts[p]

    def covers(self, n: int) -> bool:
        return n >= 0

    def to_dict(self) -> dict:
        return {"kind": self.kind, "group": self.group,
                "branch": self.branch, "prefix_counts": self.prefix_counts}


@dataclass(frozen=True)
class Segment:
    """Count rule on levels lo..hi inclusive: base + coef * 2**(n - lo)."""

    lo: int
    hi: int
    base: int
    coef: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValidationError("segment with lo > hi")
        if self.base < 0 or self.coef < 0 or self.base + self.coef < 1:
            raise ValidationError("segment counts need base >= 0, coef >= 0 "
                                  "and base + coef >= 1")

    def count(self, n: int) -> int:
        return self.base + (self.coef << (n - self.lo))


class SegmentCounts(SymbolicCounts):
    """Piecewise exponential count schedule for staged constructions: the
    levels of a segment with coef != 0 grow, those of one with coef == 0
    keep their count."""

    kind = "segments"

    def __init__(self, segments: Sequence[Segment]):
        segs = sorted(segments, key=lambda s: s.lo)
        if not segs:
            raise ValidationError("no segments")
        if any(s.lo != prev.hi + 1 for prev, s in zip(segs, segs[1:])):
            raise ValidationError("segments must tile a level range")
        self.segments = segs
        self._starts = [s.lo for s in segs]

    def segment(self, n: int) -> Segment:
        """The segment whose levels hold level n."""
        if not self.covers(n):
            raise UnavailableError(f"level {n} outside symbolic range")
        return self.segments[bisect.bisect_right(self._starts, n) - 1]

    def count(self, n: int) -> int:
        return self.segment(n).count(n)

    def covers(self, n: int) -> bool:
        return self.segments[0].lo <= n <= self.segments[-1].hi

    def to_dict(self) -> dict:
        return {"kind": self.kind,
                "segments": [{"lo": s.lo, "hi": s.hi, "base": s.base,
                              "coef": s.coef} for s in self.segments]}


@dataclass
class DyadicSetTree:
    """Levelwise sorted Morton keys of a nested cube family. The levels are
    never mutated after construction: parent_runs, and the measures built
    on the tree, keep what they derive from them. from_leaves (so every
    set or measure support built from its leaves) fills parent_runs;
    validate builds it once given levels pass order and range."""

    d: int
    max_depth: int
    levels: list[list[int]]
    symbolic: SymbolicCounts | None = None
    meta: dict = field(default_factory=dict)

    # -- construction -----------------------------------------------------

    @classmethod
    def full(cls, d: int, depth: int) -> "DyadicSetTree":
        _check_dims(d, depth)
        sym = GeometricCounts(1, 1 << d, [1])
        _check_cubes(sym, depth)
        levels = [list(range(1 << (d * n))) for n in range(depth + 1)]
        return cls(d, depth, levels, sym, {"kind": "full"})

    @classmethod
    def from_codes(cls, d: int, depth: int, keys: Iterable[int],
                   meta: dict | None = None) -> "DyadicSetTree":
        """Tree over the distinct deepest-level keys, in any order."""
        _check_dims(d, depth)
        return cls.from_leaves(d, depth, sorted(set(keys)), None, meta)

    @classmethod
    def from_leaves(cls, d: int, depth: int, leaves: list[int],
                    symbolic: SymbolicCounts | None = None,
                    meta: dict | None = None) -> "DyadicSetTree":
        """Tree over strictly sorted in-range `leaves` (else validate's text
        for the defect): one bottom-up pass derives each level above, the
        distinct k >> d of the one below, and its parent_runs, then checks
        the symbolic counts. As validate, it sets no 62-bit key budget, so
        deep saved sets load."""
        _check_shape(d, depth)
        if not leaves:
            raise ValidationError("empty cube family")
        _check_level(leaves, depth, d)
        levels, runs = [leaves], []
        for _ in range(depth):
            ups, run = _group(levels[-1], d)
            levels.append(ups)
            runs.append(run)
        tree = cls(d, depth, levels[::-1], symbolic, meta or {})
        tree.__dict__["parent_runs"] = runs[::-1]
        tree._check_counts()
        return tree

    @classmethod
    def from_points(cls, points: Sequence, d: int, depth: int) -> "DyadicSetTree":
        """Occupied-cube tree of a finite point set (coordinates in (0, 1])."""
        _check_dims(d, depth)
        pts = [p if isinstance(p, (tuple, list)) else (p,) for p in points]
        if any(len(p) != d for p in pts):
            raise ValidationError("point dimension mismatch")
        return cls.from_codes(d, depth, [cube_of_point(p, depth) for p in pts],
                              {"kind": "points", "count": len(pts)})

    @classmethod
    def from_digit_ifs(cls, d: int, group: int, keep: Sequence[int],
                       depth: int) -> "DyadicSetTree":
        """Self-similar set from a digit rule: levels are grouped in blocks
        of `group`; within each block only the Morton digit strings listed in
        `keep` survive. keep entries are integers below 2**(d*group) read as
        `group` Morton digits of d bits each, most significant first.
        """
        _check_dims(d, depth)
        if group < 1:
            raise ValidationError("group must be >= 1")
        top = 1 << (d * group)
        keep_sorted = sorted(set(int(k) for k in keep))
        if not keep_sorted:
            raise ValidationError("keep set is empty")
        if keep_sorted[0] < 0 or keep_sorted[-1] >= top:
            raise ValidationError("keep pattern out of range")

        # pre[p]: the kept patterns' distinct p-digit prefixes, sorted; a
        # level n = a * group + p (1 <= p <= group) is level a * group
        # extended by pre[p], so it holds branch**a * len(pre[p]) cubes
        pre = [sorted({pat >> (d * (group - p)) for pat in keep_sorted})
               for p in range(group + 1)]
        sym = GeometricCounts(group, len(keep_sorted),
                              [len(pre[p]) for p in range(group)])
        _check_cubes(sym, depth)
        levels = [[0]]
        for n in range(1, depth + 1):
            p = (n - 1) % group + 1
            levels.append([key << (d * p) | t for key in levels[n - p]
                           for t in pre[p]])
        meta = {"kind": "ifs", "group": group, "keep": keep_sorted,
                "dimension": math.log2(len(keep_sorted)) / group}
        return cls(d, depth, levels, sym, meta)

    # -- structure queries ------------------------------------------------

    def validate(self) -> None:
        """Raise ValidationError on the first defect: the shape, a key out
        of range or order, then a level not nested under the one above (a
        childless parent before an orphan), each level by level, then a
        symbolic count that contradicts a level. A sound level of one child
        per parent passes the nesting checks in one comparison."""
        if self.d < 1:
            raise ValidationError("d must be >= 1")
        if len(self.levels) != self.max_depth + 1:
            raise ValidationError("level list length != max_depth + 1")
        if self.levels[0] != [0]:
            raise ValidationError("root level must be exactly the unit cube")
        # a level with as many keys as the (checked) level above nests
        # under it iff its keys >> d equal that level, and is then strictly
        # sorted and in range too; any other level is iff its two ends are
        # in range and each key is above the one before, and the key-by-key
        # scan names the first defect of a bad one
        chained = set()
        for n, keys in enumerate(self.levels):
            if n and len(keys) == len(self.levels[n - 1]) and list(
                    map(rshift, keys, repeat(self.d))) == self.levels[n - 1]:
                chained.add(n)
            elif keys:
                _check_level(keys, n, self.d)
        # the distinct parents k >> d of a sorted level (all of its k >> d on
        # a one-child level), in order, equal the level above iff every cube
        # has a selected parent and every parent a child
        for n, runs in enumerate(self.parent_runs, 1):
            if n in chained:
                continue
            parents = self.levels[n - 1]
            ups = (runs[0] if runs else
                   list(map(rshift, self.levels[n], repeat(self.d))))
            if ups == parents:
                continue
            selected = set(parents)
            childless = selected.difference(ups)
            if childless:
                raise ValidationError(f"cube {min(childless)} at level "
                                      f"{n - 1} has no selected child")
            orphan = next(k for k in self.levels[n]
                          if k >> self.d not in selected)
            raise ValidationError(
                f"cube {orphan} at level {n} has unselected parent")
        self._check_counts()

    def _check_counts(self) -> None:
        """Raise where the symbolic counts contradict a stored level."""
        sym = self.symbolic
        for n, keys in enumerate(self.levels if sym else ()):
            if sym.covers(n) and sym.count(n) != len(keys):
                raise ValidationError(f"symbolic counts give {sym.count(n)} "
                                      f"cubes at level {n}, the set holds "
                                      f"{len(keys)}")

    def box_count(self, n: int) -> int:
        if n < 0:
            raise ValidationError("negative level")
        if n <= self.max_depth:
            return len(self.levels[n])
        if self.symbolic is not None and self.symbolic.covers(n):
            return self.symbolic.count(n)
        raise UnavailableError(
            f"level {n} beyond materialized depth {self.max_depth} "
            "and no symbolic counts cover it")

    @functools.cached_property
    def parent_runs(self) -> list[tuple[list[int], list[int], list[int]] | None]:
        """Per level n < max_depth, level n + 1 grouped under its parents:
        the sorted level holds each parent's children as one run, so the
        runs are (the distinct parent keys in order, the run lengths, the
        run ends as offsets 0, l_0, l_0 + l_1, ...); None on a level of
        one child per parent. Built once per tree (by from_leaves as it
        derives the levels) and read by validate, the mass splits and sums,
        measure validation and the packing threshold."""
        return [None if len(kids) == len(above) else
                _runs(map(rshift, kids, repeat(self.d)))
                for above, kids in zip(self.levels, self.levels[1:])]

    def children_keys(self, level: int, key: int) -> list[int]:
        if level >= self.max_depth:
            return []
        lo, hi = self._span(level, key, level + 1)
        return self.levels[level + 1][lo:hi]

    def _span(self, level: int, key: int, n: int) -> tuple[int, int]:
        """The slice of levels[n] under the level-`level` cube `key`."""
        shift = self.d * (n - level)
        arr = self.levels[n]
        return (bisect.bisect_left(arr, key << shift),
                bisect.bisect_left(arr, (key + 1) << shift))

    def descendant_count(self, level: int, key: int, n: int) -> int:
        """Number of selected level-n cubes inside the level-`level` cube."""
        if n < level:
            raise ValidationError("target level above the cube")
        if n > self.max_depth:
            raise UnavailableError("target level beyond materialized depth")
        lo, hi = self._span(level, key, n)
        return hi - lo


def _check_shape(d: int, depth: int) -> None:
    if d < 1:
        raise ValidationError("d must be >= 1")
    if depth < 0:
        raise ValidationError("depth must be >= 0")


def _check_dims(d: int, depth: int) -> None:
    _check_shape(d, depth)
    if d * depth > 62:
        raise ValidationError(
            f"materialized keys need d*depth <= 62, got {d * depth}")


# the most cubes a construction materializes on its deepest level: a
# 2^23-cube alternating set took 1.9 s and 780 MB to build
_MAX_CUBES = 1 << 24


def _check_cubes(sym: SymbolicCounts, depth: int) -> None:
    """Refuse, before building it, a set whose counts give more than
    _MAX_CUBES cubes at its deepest level."""
    count = sym.count(depth)
    if count > _MAX_CUBES:
        raise UnavailableError(
            f"level {depth} would hold {count} cubes, more than the "
            f"{_MAX_CUBES} a constructed set may materialize")


def _group(kids: list[int], d: int) -> tuple[list[int], tuple | None]:
    """A sorted level's parents k >> d and runs (None if one child each)."""
    ups = list(map(rshift, kids, repeat(d)))
    if all(map(lt, ups, ups[1:])):
        return ups, None
    return (runs := _runs(ups))[0], runs


def _runs(ups: Iterable[int]) -> tuple[list[int], list[int], list[int]]:
    """The runs of a sorted level's parent keys k >> d: (the distinct
    parents, the run lengths, the run ends 0, l_0, l_0 + l_1, ...)."""
    counts = Counter(ups)
    lens = list(counts.values())
    return list(counts), lens, list(accumulate(lens, initial=0))


def _check_level(keys: list[int], n: int, d: int) -> None:
    """Raise on the first key of level n out of range or order."""
    top = 1 << (d * n)
    if keys[0] >= 0 and keys[-1] < top and all(map(lt, keys, keys[1:])):
        return
    prev = -1
    for k in keys:
        if not (0 <= k < top):
            raise ValidationError(f"key {k} out of range at level {n}")
        if k <= prev:
            raise ValidationError(f"level {n} keys not strictly sorted")
        prev = k
