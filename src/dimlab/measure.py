"""Measures carried on dyadic set trees, with exact mass bookkeeping.

A measure assigns a rational mass to every selected cube, consistently
(parent mass = sum of selected-child masses, root mass 1, positive mass
exactly on selected cubes), stored in every measure as a list of int
numerators per level, in the order of the support tree's sorted level, over
one reduced denominator (a canonical form: equal tables mean equal
measures; the keys live only in the tree, and Fractions are made only where
a mass leaves the measure), built once, one level at a time: top-down by
splitting each cube's mass among its selected children (uniform; random,
its weights drawn in one pass in key order), each parent's children one run
of the sorted next level (the tree's parent_runs, built once per tree and
shared by every measure split on it), a level of one child per parent
sharing the list above; or bottom-up from the leaves along the same runs
(atomic, net, anti-Frostman and stage measures, through one constructor,
_from_leaves). Below the deepest materialized level a leaf model interprets
the measure: "uniform" spreads each leaf's mass as normalized Lebesgue
measure on the leaf cube, "atoms" on an explicit finite point list.

Atoms have one form, the ints _atom_ints = (q, points, weight numerators,
wden), merged, sorted and in lowest terms: atomic() and _from_rows (a
file's atom list) convert their input to it once, level-n nets and the
anti-Frostman net sum are built in it from the tree's level keys (upper
corners deinterleave(key) + 1 over 2^n), and (point, weight) Fractions are
made from it only where a point leaves the measure. Exact ball masses are
one batched query per radius over many centres (ball_masses_atoms): the
atoms grouped axis by axis down to sorted last-axis coordinates with prefix
sums, each centre's window bisected per axis on ints.

Ball quantities that a finite tree cannot pin down exactly are returned as
two-sided brackets; dyadic quantities (cube masses, correlation sums over
cube pairs) are exact rationals. Both pair sums are offset histograms times
per-offset kernels: the ball-correlation bracket sums the stored numerators
of one level's row pairs in C-level passes (no Python step per pair), over
a row index built once per measure and level, and the energy bracket sums a
kernel over a histogram of leaf-pair offsets.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import add, floordiv, getitem, itemgetter, mul, neg, sub
from typing import Sequence

from .dyadic import deinterleave, interleave, offset_bounds
from .exact import (
    UnsupportedModelError,
    ValidationError,
    diameter_level,
    to_fraction,
)
from .settree import DyadicSetTree, _check_dims, _runs

UNIFORM = "uniform"
ATOMS = "atoms"
# per level: (int numerators in support.levels order, reduced denominator)
Tables = list[tuple[list[int], int]]
# terms of the 1-D energy kernel's series at large offsets: from offset 4
# or 5 up its error bound is below the direct form's rounding bound
_SERIES_TERMS = 8


@dataclass(frozen=True)
class CorrelationBracket:
    """Exact rational enclosure of a ball-correlation value."""

    lower: Fraction
    upper: Fraction
    radius: Fraction
    cap_level: int

    def __post_init__(self):
        if not (0 <= self.lower <= self.upper <= 1):
            raise ValidationError("correlation bracket out of [0, 1] order")

    @property
    def midpoint(self) -> float:
        return float(self.lower + self.upper) / 2

    @property
    def width(self) -> float:
        return float(self.upper - self.lower)


@dataclass(frozen=True)
class EnergyBracket:
    """Float enclosure of an s-energy; diverged means the true value is
    infinite (or the refinement could not separate it from infinity)."""

    lower: float
    upper: float
    s: Fraction
    diverged: bool = False
    detail: dict = field(default_factory=dict)


class DyadicMeasureTree:
    """Mass assignment on a DyadicSetTree. tables[n] = (N, D) holds level
    n's masses as mass(n, support.levels[n][i]) = N[i] / D, in lowest
    terms. The tables are never mutated after construction: the measure
    keeps what it derives from them (the row index, the atom rows). An
    atomic measure holds its atoms only in the int form (ints,
    _atom_ints); a measure built from its leaves comes from _from_leaves."""

    def __init__(self, support: DyadicSetTree, leaf_model: str, tables: Tables,
                 meta: dict | None = None, ints: tuple | None = None):
        if leaf_model not in (UNIFORM, ATOMS):
            raise ValidationError(f"unknown leaf model {leaf_model!r}")
        if leaf_model == ATOMS and ints is None:
            raise ValidationError("atomic leaf model needs an atom list")
        if leaf_model == UNIFORM and ints is not None:
            raise ValidationError("uniform leaf model takes no atoms")
        self.support = support
        self.leaf_model = leaf_model
        self.tables = tables
        self._atom_ints = ints
        self.meta = meta or {}
        # level -> _level_rows of its table, filled by the ball bracket
        self._row_index: dict[int, list] = {}

    # -- constructors -------------------------------------------------------

    @classmethod
    def uniform_on_set(cls, tree: DyadicSetTree) -> "DyadicMeasureTree":
        """Equal split among selected children at every cube."""
        tables = _split_masses(tree)
        return cls(tree, UNIFORM, tables, {"kind": "uniform_on_set"})

    @classmethod
    def _from_rows(cls, tree: DyadicSetTree, rows: list, leaf_model: str,
                   atoms, meta) -> "DyadicMeasureTree":
        """Validated measure from per-level rows (keys, numerators,
        denominators): masses p/q, q > 0, distinct keys in any order, each
        level aligned with the sorted level once (by position when the
        keys come sorted) over the lcm of its q and reduced (a level equal
        to the one above shares its table); a broken parent is named in
        its row order."""
        tables = []
        for keys, (ks, ps, qs) in zip(tree.levels, rows):
            if ks != keys:  # another order: aligned by key, if the keys agree
                pos = dict(zip(ks, zip(ps, qs)))
                ps, qs = (zip(*map(pos.get, keys)) if pos.keys() == set(keys)
                          else ((), ()))
            den = math.lcm(*qs)
            t = _reduced(list(map(mul, ps, map(floordiv, repeat(den), qs))),
                         den)
            tables.append(tables[-1] if tables and t == tables[-1] else t)
        if rows:  # root mass 1, named before level 0's keys
            ks, ps, qs = rows[0]
            if 0 not in ks or ps[ks.index(0)] != qs[ks.index(0)]:
                tables[:1] = [([0], 1)]
        if atoms is not None and leaf_model == ATOMS:  # else refused as given
            atoms = _merged(*_int_atoms([p for p, _ in atoms],
                                        [w for _, w in atoms], tree.d))
        mu = cls(tree, leaf_model, tables, meta, atoms)
        mu._check([ks for ks, _, _ in rows])
        return mu

    @classmethod
    def atomic(cls, points: Sequence, weights: Sequence, d: int,
               depth: int) -> "DyadicMeasureTree":
        """Atoms, merged where they coincide: checked on ints once
        (_int_atoms), then built from those ints (_on_ints)."""
        _check_dims(d, depth)
        return cls._on_ints(*_int_atoms(points, weights, d), d, depth, None)

    @classmethod
    def _on_ints(cls, q: int, ips: list, ns: list[int], wden: int, d: int,
                 depth: int, meta: dict | None) -> "DyadicMeasureTree":
        """The atomic measure of points ips / q with weights ns / wden
        (positive, summing to wden) at `depth`: the merged atoms' keys,
        (a 2^depth - 1) // q per axis, one leaf per distinct key, summed up."""
        ints = q, ips, ns, wden = _merged(q, ips, ns, wden)
        idx = [((a << depth) - 1) // q for p in ips for a in p]
        keys = list(map(interleave, zip(*[iter(idx)] * d), repeat(depth)))
        keys, ns = zip(*sorted(zip(keys, ns), key=itemgetter(0)))
        leaves, _, ends = _runs(keys)
        return cls._from_leaves(d, depth, leaves, _run_sums(ns, ends), wden,
                                {"kind": "points", "count": len(ips)},
                                meta or {"kind": "atomic"}, ints)

    @classmethod
    def _from_leaves(cls, d: int, depth: int, leaves: list[int],
                     nums: list[int], den: int, set_meta: dict, meta: dict,
                     ints: tuple | None = None) -> "DyadicMeasureTree":
        """Masses nums / den on the sorted level-`depth` cubes leaves, summed
        up along the parent runs of their support from_leaves (_sums_up);
        atomic on the int atoms ints, else uniform below the leaves."""
        tree = DyadicSetTree.from_leaves(d, depth, leaves, None, set_meta)
        return cls(tree, UNIFORM if ints is None else ATOMS,
                   _sums_up(tree, nums, den), meta, ints)

    @classmethod
    def random_split(cls, tree: DyadicSetTree, rng) -> "DyadicMeasureTree":
        """Random exact-rational splits among selected children, for seeded
        property sweeps: each cube below the root, level by level in key
        order, draws rng.randint(1, 9), here by randint's 4-bit getrandbits
        rejection in batches of the draws still missing (the same stream)."""
        ws, n = [], sum(map(len, tree.levels)) - 1
        while len(ws) < n:
            ws += [r + 1 for r in map(rng.getrandbits, repeat(4, n - len(ws)))
                   if r < 9]
        tables = _split_masses(tree, ws)
        return cls(tree, UNIFORM, tables, {"kind": "random_split"})

    # -- mass queries --------------------------------------------------------

    @property
    def d(self) -> int:
        return self.support.d

    @property
    def max_depth(self) -> int:
        return self.support.max_depth

    def _table(self, n: int) -> tuple[list[int], int]:
        if not (0 <= n <= self.max_depth):
            raise ValidationError("level out of range")
        return self.tables[n]

    def mass(self, level: int, key: int) -> Fraction:
        """A level-n cube's mass (0 if unselected), by a bisect."""
        nums, den = self._table(level)
        keys = self.support.levels[level]
        i = bisect_left(keys, key)
        return Fraction(nums[i] if keys[i:i + 1] == [key] else 0, den)

    def level_masses(self, n: int) -> list[tuple[int, Fraction]]:
        """Sorted (key, mass) pairs over the selected level-n cubes."""
        nums, den = self._table(n)
        return [(k, Fraction(m, den)) for k, m in zip(self.support.levels[n],
                                                       nums)]

    def max_cube_mass(self, n: int) -> Fraction:
        nums, den = self._table(n)
        return Fraction(max(nums), den)

    # -- correlation ----------------------------------------------------------

    def dyadic_correlation_sum(self, n: int) -> Fraction:
        """Sum of squared level-n cube masses, exactly."""
        nums, den = self._table(n)
        return Fraction(sum(map(mul, nums, nums)), den * den)

    def ball_correlation_bracket(self, r, extra_depth: int = 4) -> CorrelationBracket:
        """Two-sided enclosure of (mu x mu){(x, y): |x - y| <= r}.

        Exact pair sum for atomic measures: sum_a w_a mu(B(a, r)), every
        atom's ball mass from one ball_masses_atoms pass.
        For the uniform leaf model the bracket classifies the ordered pairs
        of cap-level cubes, cap the smallest level with d 4^-cap <= r^2 plus
        extra_depth, by their exact closure distances: inside (max distance
        <= r), straddling, or outside (min distance > r). Leaf cubes refine
        as uniform splits, which is exactly what the leaf model asserts.

        The sums run at the one level m = min(cap, max_depth). With
        rho = floor(r^2 4^m), a level-m pair is inside if its integer reach
        is at most rho and outside if its gaps exceed rho; both depend only
        on the pair's axis offsets. The level-m cubes are grouped into rows
        along the last axis (_level_rows), once per measure and level. Each
        row pair within reach splits its last-axis lags into an inside
        window |lag| <= t_in, summed in one pass of bisects into prefix sums
        of the stored numerators, and the straddling lags, one pass of
        lookups each, binned by sorted axis offsets and weighted by the
        count of inside (or straddling) cap-level pairs under an offset
        (_below_leaves). A row paired with itself (every 1-D call, and the
        diagonal in d >= 2) meets lag -s as it meets lag s, so it sums
        each lag s > 0 once and counts it twice, and lag 0 once: its
        window is sum n_a^2 + 2 sum_a n_a (P[hi_a] - P[a + 1]), which is
        2 sum_a n_a P[hi_a] - S^2 for S = P[-1], since
        sum_a n_a P[a + 1] = (S^2 + sum n_a^2) / 2: one bisect per cube.
        A pair that is inside or outside at a level above m has all of its
        level-m descendant pairs on the same side, so these integer sums
        regroup the terms of a walk over every cap-level pair, and the
        bracket is the same rational.
        """
        rf = to_fraction(r)
        if rf <= 0:
            raise ValidationError("radius must be positive")
        if self.leaf_model == ATOMS:  # every atom's ball mass, one pass
            nums, wden = self.ball_masses_atoms(None, rf)
            total = Fraction(sum(map(mul, self._atom_ints[2], nums)),
                             wden * wden)
            return CorrelationBracket(total, total, rf, self.max_depth)

        r2 = rf * rf
        r2n, r2d = r2.numerator, r2.denominator
        dd = self.d
        # below the level whose cube diameter fits under r, so that
        # same-cube pairs resolve
        cap = diameter_level(dd, rf) + max(0, extra_depth)

        def resolve(level, offset):
            """(inside, inside or straddling) counts of the ordered cap-level
            cube pairs under a pair that needs no refinement, None for one
            that does."""
            gaps, reach = offset_bounds(offset)
            shift = 2 * level
            # reach * 4^-level <= r^2 ?
            if reach * r2d <= r2n << shift:
                unit = 1 << (2 * dd * (cap - level))
                return unit, unit
            # gaps * 4^-level > r^2 ?
            if gaps * r2d > r2n << shift:
                return 0, 0
            return (0, 1) if level >= cap else None

        m = min(cap, self.max_depth)
        nums, den = self.tables[m]
        rho = (r2n << (2 * m)) // r2d
        rows = self._row_index.get(m)
        if rows is None:
            rows = self._row_index[m] = _level_rows(self.support.levels[m],
                                                    nums, m, dd)

        inside = 0
        hist = defaultdict(int)  # sorted axis offsets -> sum of N_a N_b
        for ia, (u, js_a, ns_a, _, _) in enumerate(rows):
            for ib in range(ia, len(rows)):
                v, js_b, _, row_b, pre_b = rows[ib]
                off = [abs(x - y) for x, y in zip(u, v)]
                gaps, reach = offset_bounds(off)
                if gaps > rho:
                    # rows sort by their first axis: once that offset
                    # alone is out of reach, so are the rows after
                    if off[0] and (off[0] - 1) ** 2 > rho:
                        break
                    continue
                t_in = math.isqrt(rho - reach) - 1 if reach <= rho else -1
                t_out = math.isqrt(rho - gaps) + 1
                # a row paired with itself meets lag -s as it meets lag s:
                # each lag s > 0 is summed once and counted twice, lag 0
                # once; any other row pair counts twice (the mirrored pair)
                own = ia == ib
                if t_in >= 0:  # each j's window: bisects into prefix sums
                    hi = map(bisect_right, repeat(js_b),
                             map(add, js_a, repeat(t_in)))
                    if own:  # j with itself and lags 1..t_in after j, as above
                        inside += 2 * sum(map(mul, ns_a, map(
                            pre_b.__getitem__, hi))) - pre_b[-1] ** 2
                    else:
                        lo = map(bisect_left, repeat(js_b),
                                 map(add, js_a, repeat(-t_in)))
                        inside += 2 * sum(map(mul, ns_a, map(sub, map(
                            pre_b.__getitem__, hi), map(pre_b.__getitem__,
                                                        lo))))
                for s in range(t_in + 1, t_out + 1):  # straddling lags
                    h = sum(sum(map(mul, ns_a, map(row_b.get, map(
                        add, js_a, repeat(t)), repeat(0))))
                        for t in ((s,) if own else {s, -s}))
                    if h:
                        hist[tuple(sorted(off + [s]))] += (
                            h if own and not s else 2 * h)

        # a level-m pair splits into 4^(d (cap - m)) ordered cap-level pairs
        unit = 1 << (2 * dd * (cap - m))
        below, _ = _below_leaves(resolve)
        lower, upper = inside * unit, inside * unit
        for off, h in hist.items():
            lo, hi = below(m, off)
            lower += h * lo
            upper += h * hi
        q = den * den * unit
        return CorrelationBracket(Fraction(lower, q), Fraction(upper, q),
                                  rf, cap)

    # -- ball masses -----------------------------------------------------------

    def ball_cover_bound(self, n: int) -> Fraction:
        """Upper bound on mu(B(x, r)) at every centre x at once, for every
        r < 2^-(n+1) (so at n = level_for_radius(r)): the closed box
        [x - r, x + r]^d then meets at most two level-n cubes per axis, so
        the ball sits inside one of the 2^d blocks of two cubes per axis
        that hold x's cube. One pass adds each cube's numerator to those
        blocks, keyed by lower corner idx + c, c in {0, -1}^d; the bound is
        the largest block total."""
        nums, den = self._table(n)
        corners = list(itertools.product((0, -1), repeat=self.d))
        blocks = defaultdict(int)
        for key, m in zip(self.support.levels[n], nums):
            idx = deinterleave(key, n, self.d)
            for c in corners:
                blocks[tuple(map(add, idx, c))] += m
        return Fraction(max(blocks.values()), den)

    def ball_mass_atoms(self, point, r) -> Fraction:
        """Exact closed-ball mass mu(B(point, r)) of an atomic measure: the
        one-centre call of ball_masses_atoms."""
        nums, wden = self.ball_masses_atoms([point], r)
        return Fraction(nums[0], wden)

    def ball_masses_atoms(self, centres, r) -> tuple[list[int], int]:
        """Exact closed-ball masses of an atomic measure at many centres
        and one radius: (numerators, wden), mu(B(x, r)) = N / wden for each
        centre x in order, or at every atom (in _atom_ints order) when
        centres is None. The centres go to ints once (see _ball_nums)."""
        if self.leaf_model != ATOMS:
            raise UnsupportedModelError("exact ball mass needs atoms")
        pts = (None if centres is None else
               [tuple(map(to_fraction, x)) for x in centres])
        r = to_fraction(r)
        if pts is None:
            q, pts = self._atom_ints[:2]
        elif any(len(x) != self.d for x in pts):
            raise ValidationError("point dimension mismatch")
        else:
            q = math.lcm(*(c.denominator for x in pts for c in x))
            pts = [[c.numerator * (q // c.denominator) for c in x]
                   for x in pts]
        if r.numerator < 0:
            raise ValidationError("radius must be >= 0")
        return self._ball_nums(q, pts, r), self._atom_ints[3]

    def _ball_nums(self, cq: int, centres: list, r: Fraction) -> list[int]:
        """Ball-mass numerators over wden for int centres over cq, on ints
        over the lcm Q of q (see _atom_ints) and cq: atom a is in when
        sum (Q/q a - x)^2 <= r2 = floor(r^2 Q^2), summed over the atom rows
        (_ball_sums)."""
        q = self._atom_ints[0]
        big = math.lcm(q, cq)
        if big != cq:
            g = big // cq
            centres = [[c * g for c in x] for x in centres]
        r2 = (r.numerator * big) ** 2 // r.denominator ** 2
        if not centres:
            return []
        return _ball_sums(self._ball_rows, big // q, list(map(list, zip(
            *centres))), r2)

    @functools.cached_property
    def atoms(self) -> list[tuple[tuple[Fraction, ...], Fraction]] | None:
        """(point, weight) Fraction pairs made from _atom_ints where a point
        leaves the measure; None without atoms."""
        if self.leaf_model != ATOMS:
            return None
        q, pts, ns, wden = self._atom_ints
        return [(tuple(Fraction(a, q) for a in p), Fraction(n, wden))
                for p, n in zip(pts, ns)]

    @functools.cached_property
    def _ball_rows(self):
        """The atoms grouped for ball queries (_axis_rows), built from
        _atom_ints on the first query."""
        _, pts, ns, _ = self._atom_ints
        return _axis_rows(pts, ns, 0)

    # -- energy ------------------------------------------------------------------

    def energy_bracket(self, s, refine_depth: int = 8) -> EnergyBracket:
        """Enclosure of the s-energy (double integral of |x-y|^-s).

        Atomic measures come back with diverged=True: any point mass puts
        infinite weight on the diagonal for every s > 0, so the true value
        is known, not estimated. Under the uniform leaf model a leaf pair
        adds its mass product times a kernel K of its sorted per-axis
        index offsets, so the energy is sum_offsets H(offset) K(offset).
        The cost is the leaf pairs, binned into H in numpy blocks, plus one
        K per distinct offset: in 1-D the closed-form cube-pair integral,
        a second difference of |a|^(2-s) at offset a, or at large a its
        positive series, whichever has the smaller error bound, so the
        bracket has float rounding width at any depth; in higher dimensions a
        bound over every pair of cap-level cubes under the leaf pair through
        their closure distances, at cap level max_depth + refine_depth (see
        _below_leaves), with at most about 2^(d cap) kernel entries, not
        4^(d cap) cube pairs. detail counts the leaf pairs, the distinct
        offsets and the kernel entries.
        """
        sf = to_fraction(s)
        if sf <= 0:
            raise ValidationError("s must be positive")
        if self.leaf_model == ATOMS:
            return EnergyBracket(math.inf, math.inf, sf, True,
                                 {"reason": "point mass on the diagonal"})
        if sf >= self.d:
            return EnergyBracket(math.inf, math.inf, sf, True,
                                 {"reason": "s >= d with cube mass"})
        import numpy as np
        d, L, sv = self.d, self.max_depth, float(sf)
        hist, offsets, pairs = self._offset_histogram()
        if d == 1:
            a, p, eps = offsets[:, 0].astype(float), 2.0 - sv, math.ulp(1.0)
            f = np.power(np.abs(a + [[1.0], [0.0], [-1.0]]), p)
            # the second difference cancels about eps * (a + 1)^p
            j, err = f[0] - 2.0 * f[1] + f[2], 4 * eps * f[0]
            # for a >= 3 it is the positive series 2 sum_k C(p, 2k) a^(p-2k),
            # each term below the last times 1/a^2: the tail after term t is
            # below t / (a^2 - 1). It is used where its bound is smaller
            big = np.maximum(a, 3.0)
            inv2 = 1.0 / (big * big)
            term = p * (p - 1.0) * np.power(big, p) * inv2
            series = term.copy()
            for k in range(2, _SERIES_TERMS + 1):
                term = term * inv2 * ((p - 2 * k + 2) * (p - 2 * k + 1)
                                      / ((2 * k - 1) * 2 * k))
                series += term
            tail = term / (big * big - 1.0)
            series_err = 0.5 * tail + 64 * eps * series
            use = (a >= 3.0) & (series_err < err)
            j = np.where(use, series + 0.5 * tail, j)
            err = np.where(use, series_err, err)
            denom = (1.0 - sv) * (2.0 - sv)
            scale = (2.0 ** (-L)) ** (-sv)
            value = scale * float(np.sum(hist * j)) / denom
            width = (scale * float(np.sum(hist * err)) / denom
                     + 8 * eps * abs(value))
            lower, upper = value - width, value + width
            detail = {"offsets": len(j), "kernel_entries": len(j)}
        else:
            cap = L + max(0, refine_depth)
            side = 2.0 ** (-cap)
            unit = side ** (2 * d)
            # same cube: |x - y|^-s integrated over the ball of radius
            # max_dist around x, over the cube volume
            ball = unit * d * math.pi ** (d / 2) / math.gamma(d / 2 + 1)
            vol = (d - sv) * side ** d

            def resolve(level, offset):
                """(lower, upper) terms of a cap-level pair, for the pair's
                mass product taken as 4^(-d cap); None above the cap."""
                if level < cap:
                    return None
                gaps, reach = offset_bounds(offset)
                max_dist = math.sqrt(reach) * side
                lo = unit * max_dist ** (-sv)
                if gaps > 0:
                    return lo, unit * (math.sqrt(gaps) * side) ** (-sv)
                return lo, ball * max_dist ** (d - sv) / vol

            bins = defaultdict(float)  # H over sorted offsets
            for off, h in zip(offsets.tolist(), hist.tolist()):
                bins[tuple(sorted(off))] += h
            below, memo = _below_leaves(resolve)
            # mass product over 4^(-d L): the power of two scales exactly
            scale = float(1 << (2 * d * L))
            lower, upper = (scale * math.fsum(h * below(L, off)[i] for off, h
                                              in bins.items()) for i in (0, 1))
            detail = {"cap_level": cap, "offsets": len(bins),
                      "kernel_entries": len(memo)}
        detail["leaf_pairs"] = pairs
        return EnergyBracket(lower, upper, sf, False, detail)

    def _offset_histogram(self):
        """(H, offsets, ordered leaf pairs): H[i] sums m_a * m_b, as floats,
        over the ordered leaf pairs with per-axis offsets |j_a - j_b| in row
        i. Codes pack L bits per axis (d L <= 62); the bins are a dense
        table if the 2^(d L) codes are at most the leaf pairs and 2^24 (128
        MiB of floats), else the distinct codes."""
        import numpy as np
        d, L = self.d, self.max_depth
        nums, den = self.tables[L]
        keys = self.support.levels[L]
        n = len(keys)
        idx = np.array([deinterleave(k, L, d) for k in keys])
        w = np.array([m / den for m in nums])
        shifts = np.arange(d - 1, -1, -1, dtype=np.int64) * L
        rows = min(n, max(1, (1 << 20) // (n * d)))
        dense = 1 << (d * L) <= min(n * n, 1 << 24)
        hist, parts = np.zeros(1 << (d * L) if dense else 0), []
        for lo in range(0, n, rows):
            # each unordered pair once (b >= a), counted for both orders
            a, b = np.arange(lo, min(n, lo + rows))[:, None], np.arange(lo, n)
            keep = b >= a
            code = (np.abs(idx[a] - idx[b]) << shifts).sum(axis=-1)[keep]
            ww = (w[a] * w[b] * (1 + (b > a)))[keep]
            if dense:
                np.add.at(hist, code, ww)
            else:
                got, inv = np.unique(code, return_inverse=True)
                parts.append((got, np.bincount(inv, ww)))
        if dense:
            codes = np.flatnonzero(hist)
            hist = hist[codes]
        else:
            codes, inv = np.unique(np.concatenate([c for c, _ in parts]),
                                   return_inverse=True)
            hist = np.bincount(inv, np.concatenate([h for _, h in parts]))
        offsets = (codes[:, None] >> shifts) & ((1 << L) - 1)
        return hist, offsets, n * n

    # -- validation ----------------------------------------------------------------

    def validate(self) -> None:
        self._check(self.support.levels)

    def _check(self, order) -> None:
        """validate(), a level's first broken parent named in the order of
        order[n - 1]: the sorted level, or a _from_rows row."""
        self.support.validate()
        if not len(self.tables) == len(order) == self.max_depth + 1:
            raise ValidationError("mass table depth mismatch")
        levels, parent_runs = self.support.levels, self.support.parent_runs
        for n, (nums, den) in enumerate(self.tables):
            if len(nums) != len(levels[n]):
                raise ValidationError(
                    f"level {n}: mass support differs from selected cubes")
            if n == 0 and nums != [den]:
                raise ValidationError("root mass must be 1")
            if den <= 0 or min(nums) <= 0:
                raise ValidationError("non-positive cube mass")
            if math.gcd(den, *nums) != 1:
                raise ValidationError(f"level {n}: masses not in lowest terms")
            if n > 0:  # per parent, its run of children summed
                above, up = self.tables[n - 1]
                runs = parent_runs[n - 1]  # None: one child per parent
                sums = _run_sums(nums, runs[2]) if runs else nums
                broken = {pk for pk, s, pm in zip(levels[n - 1], sums, above)
                          if s * up != pm * den}
                if broken:
                    pk = next(k for k in order[n - 1] if k in broken)
                    raise ValidationError(
                        f"mass not conserved under cube {pk} at level {n-1}")
        if self.leaf_model == ATOMS:  # atoms as atomic() sums them
            nu = self._on_ints(*self._atom_ints, self.d, self.max_depth, None)
            if nu.support.levels != levels or nu.tables != self.tables:
                raise ValidationError("atoms inconsistent with leaf masses")


def _level_rows(keys: list[int], nums: list[int], m: int, d: int) -> list:
    """The row index of level m's sorted keys and their numerators: its
    cubes grouped into rows along the last axis, in the order of their
    other axis indices u, each row as (u, sorted last-axis indices js,
    their numerators ns, ns by js, prefix sums of ns)."""
    cubes = defaultdict(list)
    for key, n in zip(keys, nums):
        idx = deinterleave(key, m, d)
        cubes[idx[:-1]].append((idx[-1], n))
    rows = []
    for u, row in sorted(cubes.items()):
        row = dict(sorted(row))
        ns = list(row.values())
        rows.append((u, list(row), ns, row,
                     list(itertools.accumulate(ns, initial=0))))
    return rows


def _below_leaves(resolve):
    """(below, memo): the terms of a cube pair below the leaves, memoised
    per (level, sorted per-axis index offsets).

    Below max_depth the leaf model splits every cube uniformly, so what lies
    under a pair of same-level cubes depends only on its level and sorted
    offsets. below(level, offset) is resolve(level, offset), offset the
    sorted tuple of per-axis offsets, if that is not None (each resolve
    derives what it needs, such as offset_bounds, from the offset itself),
    else the sum over the child offsets, which per axis are
    2x - 1, 2x, 2x + 1 with multiplicities 1, 2, 1 for an offset x > 0 and
    0, 1 with multiplicities 2, 2 for x = 0, counting ordered child pairs.
    resolve scales its (lower, upper) values so that this sum needs no
    rescaling."""
    memo = {}  # (level, sorted axis offsets) -> below(level, offsets)

    def below(level, offset):
        got = memo.get((level, offset))
        if got is None:
            got = resolve(level, offset)
            if got is None:
                lo = hi = 0
                # per axis, child offsets with their multiplicities
                for axes in itertools.product(*(
                        ((0, 2), (1, 2)) if x == 0 else
                        ((2 * x - 1, 1), (2 * x, 2), (2 * x + 1, 1))
                        for x in offset)):
                    ks, ns = zip(*axes)
                    a, b = below(level + 1, tuple(sorted(ks)))
                    n = math.prod(ns)
                    lo += n * a
                    hi += n * b
                got = lo, hi
            memo[(level, offset)] = got
        return got

    return below, memo


def _reduced(nums: list[int], den: int) -> tuple[list[int], int]:
    """One level divided through by gcd(den, all numerators)."""
    g = math.gcd(den, *nums)
    if g == 1:
        return nums, den
    return list(map(floordiv, nums, repeat(g))), den // g


def _split_masses(tree: DyadicSetTree, ws=None) -> Tables:
    """Per-level tables built top-down from root mass 1 by _split_step,
    ws the positive integer weights in key order level by level below the
    root (equal weights when None), over the tree's parent runs (built once
    per tree); a level of one child per parent shares the table above."""
    tables: Tables = [([1], 1)]
    it = iter(ws or ())
    for level, runs in enumerate(tree.parent_runs):
        w = list(itertools.islice(it, len(tree.levels[level + 1])))
        if runs is None:
            tables.append(tables[level])
        else:
            nums, den = tables[level]
            tables.append(_split_step(nums, den, runs[1], runs[2],
                                      w if ws else None))
    return tables


def _split_step(nums: list[int], den: int, lens: list[int], ends,
                w: list[int] | None = None) -> tuple[list[int], int]:
    """The reduced table of the level below nums / den: cube i's mass N / D
    split among its lens[i] children, positions ends[i]:ends[i + 1] (read
    only with weights), by the positive int weights w in level order (equal
    when None): over the lcm L of the per-parent weight totals a child of
    weight p gets N * (L // total) * p, over D * L."""
    tots = lens if w is None else _run_sums(w, ends)
    lcm = math.lcm(*tots)
    # each parent's share, repeated over its run of children
    per = itertools.chain.from_iterable(map(repeat, map(
        mul, nums, map(floordiv, repeat(lcm), tots)), lens))
    return _reduced(list(per if w is None else map(mul, per, w)), den * lcm)


def _sums_up(tree: DyadicSetTree, nums: list[int], den: int) -> Tables:
    """Reduced tables per level from the deepest level's numerators nums
    over den, in key order, summed bottom-up along the tree's parent runs:
    a cube's numerator is the sum over its run of children (_run_sums); a
    level of one child per cube shares the table below."""
    tables = [_reduced(nums, den)]
    for runs in reversed(tree.parent_runs):
        if runs is not None:
            nums = _run_sums(nums, runs[2])
        tables.append(tables[-1] if runs is None else _reduced(nums, den))
    return tables[::-1]


def _run_sums(values, ends: list[int]) -> list[int]:
    """The sum of values over each run ends[i]:ends[i + 1]: prefix sums
    differenced at the run ends."""
    pre = list(itertools.accumulate(values, initial=0))
    return list(map(sub, map(pre.__getitem__, ends[1:]),
                    map(pre.__getitem__, ends)))


def _int_atoms(points, weights, d: int):
    """(q, points, weight numerators, wden): atoms checked on ints over q
    and wden, the lcms of the coordinate and weight denominators."""
    pts = [tuple(map(to_fraction, p)) for p in points]
    ws = list(map(to_fraction, weights))
    if len(pts) != len(ws) or not pts:
        raise ValidationError("points/weights length mismatch or empty")
    wden = math.lcm(*(w.denominator for w in ws))
    ns = [w.numerator * (wden // w.denominator) for w in ws]
    if min(ns) <= 0:
        raise ValidationError("atom weights must be positive")
    if sum(ns) != wden:
        raise ValidationError("atom weights must sum to 1")
    q = math.lcm(*(c.denominator for p in pts for c in p))
    xs = [c.numerator * (q // c.denominator) for p in pts for c in p]
    if set(map(len, pts)) != {d} or min(xs) <= 0 or max(xs) > q:
        raise ValidationError("atom outside the half-open unit cube")
    return q, list(zip(*[iter(xs)] * d)), ns, wden


def _merged(q: int, ips: list, ns: list[int], wden: int):
    """The int form of atoms ips / q with weights ns / wden: sorted,
    coincident points one atom, weights over their reduced denominator, and
    q divided by its gcd with every coordinate (so the lcm of the reduced
    coordinate denominators)."""
    pts, ns = zip(*sorted(zip(ips, ns), key=itemgetter(0)))
    pts, _, ends = _runs(pts)
    ns, wden = _reduced(_run_sums(ns, ends), wden)
    g = math.gcd(q, *itertools.chain.from_iterable(pts))
    if g > 1:
        q, pts = q // g, [tuple(a // g for a in p) for p in pts]
    return q, pts, ns, wden


def _axis_rows(pts: list, ns: list[int], i: int):
    """Sorted int atoms (all sharing their axes before i) grouped for ball
    queries: on the last axis (its sorted coordinates, prefix sums of the
    weight numerators), on any other (its distinct coordinates, for each
    the rows of its atoms on the axes after i)."""
    if i == len(pts[0]) - 1:
        return [p[i] for p in pts], list(itertools.accumulate(ns, initial=0))
    coords, _, ends = _runs(p[i] for p in pts)
    return coords, [_axis_rows(pts[a:b], ns[a:b], i + 1)
                    for a, b in zip(ends, ends[1:])]


def _ball_sums(rows, f: int, cols: list[list[int]], r2: int) -> list[int]:
    """For each centre, the weight numerators of the atoms under rows
    within squared distance r2 of it on the axes that rows and cols span
    (cols: the centres' int coordinates, one list per axis), an atom
    coordinate a standing at f a.

    On each axis the atoms in reach lie in the window
    |f a - x| <= isqrt(r2): two bisects, shared by the centres with that
    x. Below the window's rows the squared radius is r2 - (f a - x)^2. On
    the last axis a centre's sum is one prefix-sum difference, so in 1-D
    the query is two maps of bisects over the centres; on the last two
    axes each centre takes, for every row in its window at once, the
    prefix-sum difference over that row's own window, in maps over the
    rows; above them the centres that share x recurse into each row."""
    coords, below = rows
    t, xs = math.isqrt(r2), cols[0]
    if len(cols) == 1:
        lo = map(neg, map(floordiv, map(sub, repeat(t), xs), repeat(f)))
        hi = map(floordiv, map(add, xs, repeat(t)), repeat(f))
        return list(map(sub, map(below.__getitem__, map(
            bisect_right, repeat(coords), hi)), map(below.__getitem__, map(
                bisect_left, repeat(coords), lo))))
    groups = defaultdict(list)  # x -> positions of its centres
    for j, x in enumerate(xs):
        groups[x].append(j)
    out = [0] * len(xs)
    for x, js in groups.items():
        a, b = (bisect_left(coords, -((t - x) // f)),
                bisect_right(coords, (x + t) // f))
        if len(cols) == 2:  # per centre, every row of the window at once
            dx = [f * c - x for c in coords[a:b]]
            ts = list(map(math.isqrt, map(sub, repeat(r2), map(mul, dx, dx))))
            cs, pres = [row[0] for row in below[a:b]], [row[1] for row in
                                                        below[a:b]]
            for j in js:
                y = cols[1][j]
                hi = map(floordiv, map(add, ts, repeat(y)), repeat(f))
                lo = map(neg, map(floordiv, map(sub, ts, repeat(y)),
                                  repeat(f)))
                out[j] = sum(map(sub, map(getitem, pres, map(
                    bisect_right, cs, hi)), map(getitem, pres, map(
                        bisect_left, cs, lo))))
            continue
        rest = (cols[1:] if len(js) == len(xs) else
                [list(map(col.__getitem__, js)) for col in cols[1:]])
        parts = [_ball_sums(below[k], f, rest, r2 - (f * coords[k] - x) ** 2)
                 for k in range(a, b)]
        for j, v in zip(js, map(sum, zip(*parts)) if parts else repeat(0)):
            out[j] = v
    return out


def _net(tree: DyadicSetTree, n: int, shift: int = 0) -> list[tuple]:
    """The level-n net on ints over 2^(n + shift): per selected level-n
    cube in key order, its upper corner (deinterleave(key) + 1) 2^shift.
    Distinct corners are at least 2^-n apart on some axis, one per cube,
    so they form a maximal 2^-n-separated net."""
    if not (0 <= n <= tree.max_depth):
        raise ValidationError("level out of range")
    return [tuple((j + 1) << shift for j in deinterleave(k, n, tree.d))
            for k in tree.levels[n]]


def net_measure(tree: DyadicSetTree, n: int) -> "DyadicMeasureTree":
    """Equal weights on the level-n net at depth n, built on ints from the
    level's keys: atomic() on the level's upper corners with weights 1/N,
    without a Fraction per atom. A cube's mass is the number of net points
    in it over N; each level-n cube holds one, so the level-n correlation
    sum is 1/N."""
    pts = _net(tree, n)
    return DyadicMeasureTree._on_ints(1 << n, pts, [1] * len(pts), len(pts),
                                      tree.d, n, None)


def anti_frostman_measure(tree: DyadicSetTree,
                          levels: Sequence[int]) -> tuple["DyadicMeasureTree", dict]:
    """Measure that is heavy at every scale in `levels`: atoms on the
    level-k separated nets with per-level budgets proportional to k^-2.

    Every point of the underlying set then has ball mass
    mu(B(x, 2 * 2^-k)) >= c / (k^2 N_k) for each k in levels, where N_k is
    the net size: the net point of x's level-k cube is within 2^-k of x on
    the axis diagonal and carries at least the per-atom budget. The nets go
    to ints over 2^max(levels) (_net) and are merged where they share
    points.
    """
    lv = sorted(set(int(k) for k in levels))
    if not lv or lv[0] < 1:
        raise ValidationError("levels must be positive integers")
    if lv[-1] > tree.max_depth:
        raise ValidationError("level beyond materialized depth")
    c = 1 / sum(Fraction(1, k * k) for k in lv)
    net_sizes = {k: len(tree.levels[k]) for k in lv}
    bound = {k: c / (k * k * n) for k, n in net_sizes.items()}
    wden = math.lcm(*(b.denominator for b in bound.values()))
    pts, ns = [], []
    for k in lv:
        pts += _net(tree, k, lv[-1] - k)
        ns += [bound[k].numerator * (wden // bound[k].denominator)] * (
            net_sizes[k])
    mu = DyadicMeasureTree._on_ints(1 << lv[-1], pts, ns, wden, tree.d,
                                    tree.max_depth,
                                    {"kind": "anti_frostman", "levels": lv})
    return mu, {"normalizer": c, "net_sizes": net_sizes,
                "per_level_bound": bound}


def anti_frostman_check(tree: DyadicSetTree,
                        levels: Sequence[int]) -> dict:
    """Exact verification that the anti-frostman measure is heavy at every
    requested scale: mu(B(x, 2 * 2^-k)) >= c / (k^2 N_k) for every
    materialized center x (the deepest level's net) and every k in
    `levels`. All arithmetic is rational; `ok` is an exact verdict. Per
    level, one batched ball query over every centre, the centres on ints
    from the deepest level's keys.
    """
    if tree.d > 4:
        # the level-k net point of x's cube sits within sqrt(d) 2^-k <= 2*2^-k
        raise ValidationError("heaviness argument needs d <= 4")
    mu, info = anti_frostman_measure(tree, levels)
    centers = _net(tree, tree.max_depth)
    wden = mu._atom_ints[3]
    rows = []
    ok = True
    for k in sorted(set(int(k) for k in levels)):
        r, bound = Fraction(2, 1 << k), info["per_level_bound"][k]
        nums = mu._ball_nums(1 << tree.max_depth, centers, r)
        worst = Fraction(min(nums), wden) if nums else None
        ok &= worst is None or worst >= bound
        rows.append({"level": k, "radius": r, "bound": bound,
                     "net_size": info["net_sizes"][k],
                     "min_ball_mass": worst, "centers": len(centers),
                     "ok": worst is not None and worst >= bound})
    return {"ok": ok, "rows": rows, "normalizer": info["normalizer"],
            "measure": mu}
