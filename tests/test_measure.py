"""Unit tests for mass trees: masses, ball correlation, energy, heaviness."""

import functools
import hashlib
import itertools
import json
import math
import random
import re
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dimlab import constructions, io, measure
from dimlab.cli import main
from dimlab.dyadic import interleave
from dimlab.estimators import (correlation_predicates, correlation_sandwich,
                               inequality_report, packing_predicate,
                               packing_threshold)
from dimlab.exact import (UnsupportedModelError, ValidationError,
                          format_rational, level_for_radius, pow2)
from dimlab.measure import (
    CorrelationBracket,
    DyadicMeasureTree,
    anti_frostman_check,
    anti_frostman_measure,
    net_measure,
)
from dimlab.settree import DyadicSetTree
from oracles import (COORDS, MEASURE_KINDS, atom_ball_mass, atom_pair_sum,
                     brute_force_ball_bracket, deeper, from_masses, leaf_case,
                     measure_cases, oracle_atomic, oracle_energy_1d,
                     oracle_energy_cubes, oracle_representatives,
                     oracle_row_ranges, oracle_sup_ball_cover, set_trees,
                     split_case, square_riesz_energy, squared_distance)


def cantor_tree(depth):
    return DyadicSetTree.from_digit_ifs(1, group=2, keep=[0, 3], depth=depth)


def uniform_cantor(depth):
    return DyadicMeasureTree.uniform_on_set(cantor_tree(depth))


class TestUniformMasses:
    def test_full_interval(self):
        mu = DyadicMeasureTree.uniform_on_set(DyadicSetTree.full(1, 5))
        for n in range(6):
            for key in range(1 << n):
                assert mu.mass(n, key) == pow2(-n)
        assert mu.mass(3, 0) == Fraction(1, 8)

    def test_cantor_equal_split(self):
        mu = uniform_cantor(8)
        # each level splits evenly, so every selected cube at level n has
        # mass 1 / box_count(n)
        for n in range(9):
            cnt = mu.support.box_count(n)
            masses = mu.level_masses(n)
            assert len(masses) == cnt
            assert all(m == Fraction(1, cnt) for _, m in masses)
            assert sum(m for _, m in masses) == 1

    def test_unselected_cube_has_no_mass(self):
        mu = uniform_cantor(4)
        assert mu.mass(2, 1) == 0
        assert mu.mass(2, 3) == Fraction(1, 2)
        for level in (-1, 5):
            with pytest.raises(ValidationError):
                mu.mass(level, 0)

    def test_max_cube_mass(self):
        mu = uniform_cantor(6)
        assert mu.max_cube_mass(6) == Fraction(1, 8)


class TestExplicitMasses:
    def make_skewed(self):
        tree = DyadicSetTree.full(1, 2)
        masses = [
            {0: Fraction(1)},
            {0: Fraction(1, 3), 1: Fraction(2, 3)},
            {0: Fraction(1, 6), 1: Fraction(1, 6),
             2: Fraction(1, 3), 3: Fraction(1, 3)},
        ]
        return from_masses(tree, masses)

    def test_validates_and_queries(self):
        mu = self.make_skewed()
        assert mu.mass(1, 1) == Fraction(2, 3)
        assert mu.dyadic_correlation_sum(2) == (
            2 * Fraction(1, 36) + 2 * Fraction(1, 9))

    def test_mass_not_conserved_is_caught(self):
        tree = DyadicSetTree.full(1, 1)
        masses = [{0: Fraction(1)}, {0: Fraction(1, 2), 1: Fraction(1, 3)}]
        with pytest.raises(ValidationError):
            from_masses(tree, masses)

    def test_conservation_break_names_first_unconserved_parent(self):
        # breaks under the third and fourth level-1 cubes of a 2-D tree, at
        # its deepest level: the message names the first in table order
        tree = DyadicSetTree.full(2, 2)
        leaf = {k: Fraction(1, 16) for k in range(16)}
        leaf[9], leaf[13] = Fraction(1, 8), Fraction(1, 32)
        masses = [{0: Fraction(1)}, {k: Fraction(1, 4) for k in range(4)},
                  leaf]
        with pytest.raises(ValidationError,
                           match="^mass not conserved under cube 2 at "
                                 "level 1$"):
            from_masses(tree, masses)

    @pytest.mark.parametrize("d, depth, codes", [
        (1, 6, [0, 1, 4, 40]), (2, 4, [3, 12, 200, 201])])
    @pytest.mark.parametrize("branching", [False, True])
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("broken", [1, 2])
    def test_conservation_break_names_parent_in_table_order(
            self, tmp_path, capsys, d, depth, codes, branching, reverse,
            broken):
        # a child's mass doubled under the last, or the first and last,
        # parents of a one-child or a branching level, with the tables in
        # key order or reversed (as _reverse_order in test_estimators lists
        # them): from_masses and a measure file both name the first broken
        # parent in the order the level above is listed
        tree = DyadicSetTree.from_codes(d, depth, codes)
        mu = DyadicMeasureTree.random_split(tree, random.Random(7))
        n = next(n for n in range(2, depth + 1)
                 if (len(tree.levels[n]) > len(tree.levels[n - 1]))
                 == branching)
        parents = tree.levels[n - 1]
        cut = [parents[0], parents[-1]][-broken:]
        masses = [dict(mu.level_masses(m)) for m in range(depth + 1)]
        for pk in cut:
            masses[n][tree.children_keys(n - 1, pk)[0]] *= 2
        if reverse:
            masses = [dict(reversed(tbl.items())) for tbl in masses]
        first = max(cut) if reverse else min(cut)
        message = f"mass not conserved under cube {first} at level {n - 1}"
        with pytest.raises(ValidationError, match=f"^{message}$"):
            from_masses(tree, masses)
        data = io.measure_to_dict(mu)
        data["masses"] = [[[k, format_rational(m)] for k, m in tbl.items()]
                          for tbl in masses]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        assert main(["estimate", "box", "--in", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_root_mass_must_be_one(self):
        tree = DyadicSetTree.full(1, 1)
        masses = [{0: Fraction(1, 2)}, {0: Fraction(1, 4), 1: Fraction(1, 4)}]
        with pytest.raises(ValidationError):
            from_masses(tree, masses)

    def test_support_mismatch_is_caught(self):
        tree = cantor_tree(2)
        masses = [{0: Fraction(1)}, {0: Fraction(1)},
                  {0: Fraction(1, 2), 1: Fraction(1, 2)}]  # 1 not selected
        with pytest.raises(ValidationError):
            from_masses(tree, masses)

    def test_random_split_pinned(self):
        # seeded outputs of the top-down split: a change in the order of the
        # rng draws shows up here
        mu = DyadicMeasureTree.random_split(cantor_tree(4),
                                            random.Random(2025))
        assert mu.level_masses(2) == [(0, Fraction(9, 11)),
                                      (3, Fraction(2, 11))]
        assert mu.level_masses(4)[:3] == [(0, Fraction(81, 110)),
                                          (3, Fraction(9, 110)),
                                          (12, Fraction(12, 143))]

    def test_random_split_is_a_probability_measure(self):
        rng = random.Random(41)
        mu = DyadicMeasureTree.random_split(cantor_tree(7), rng)
        mu.validate()
        for n in range(8):
            assert sum(m for _, m in mu.level_masses(n)) == 1


def equal_split_mass(tree, level, key):
    """Mass of a selected cube under equal splitting: the product of
    1 / (selected-children count) over its ancestors."""
    m = Fraction(1)
    for n in range(level):
        m /= len(tree.children_keys(n, key >> (tree.d * (level - n))))
    return m


@settings(max_examples=150, deadline=None, database=None)
@given(set_trees())
def test_uniform_tables_are_equal_split(tree):
    mu = DyadicMeasureTree.uniform_on_set(tree)
    mu.validate()
    for n in range(tree.max_depth + 1):
        rows = mu.level_masses(n)
        assert [k for k, _ in rows] == tree.levels[n]
        assert sum(m for _, m in rows) == 1
        for key, m in rows:
            assert m == equal_split_mass(tree, n, key)


def _random_measures():
    """Uniform and random-split measures on set_trees."""
    return measure_cases(("uniform", "random_split")).map(
        lambda case: case[0])


@settings(max_examples=60, deadline=None, database=None)
@given(_random_measures())
def test_tables_conserve_mass(mu):
    mu.validate()  # root mass 1, each parent the sum of its children
    for n in range(mu.max_depth + 1):
        assert sum(m for _, m in mu.level_masses(n)) == 1


# radii p/q in [1/8, 1]
_unit_radii = st.integers(1, 8).flatmap(
    lambda q: st.builds(Fraction, st.integers(1, q), st.just(q)))


@settings(max_examples=60, deadline=None, database=None)
@given(_random_measures(), _unit_radii)
def test_ball_brackets_nest_as_cap_deepens(mu, r):
    # each extra level splits the straddling pairs at the old cap: the
    # lower sum only gains pairs and the upper sum only sheds them
    prev = mu.ball_correlation_bracket(r, extra_depth=0)
    for extra in (1, 2):
        b = mu.ball_correlation_bracket(r, extra_depth=extra)
        assert b.cap_level == prev.cap_level + 1
        assert prev.lower <= b.lower <= b.upper <= prev.upper
        prev = b


@settings(max_examples=60, deadline=None, database=None)
@given(_random_measures(), st.integers(0, 3), st.integers(0, 20),
       st.integers(0, 2))
def test_ball_upper_above_cauchy_schwarz_floor(mu, n, k, extra):
    # r >= sqrt(d) 2^-n puts every pair inside one level-n cube within r,
    # so the true value, and with it the upper end, is at least the sum
    # over level-n cubes of mu(Q)^2
    n = min(n, mu.max_depth)
    least = math.isqrt(mu.d - 1) + 1  # least integer >= sqrt(d)
    r = Fraction(7 * least + k, 7 << n)
    b = mu.ball_correlation_bracket(r, extra_depth=extra)
    assert b.upper >= mu.dyadic_correlation_sum(n)


class TestAtomic:
    def test_weights_validation(self):
        p = (Fraction(1, 2),)
        with pytest.raises(ValidationError):
            DyadicMeasureTree.atomic([p], [Fraction(1, 2)], 1, 4)
        with pytest.raises(ValidationError):
            DyadicMeasureTree.atomic([p, p], [Fraction(3, 2), Fraction(-1, 2)], 1, 4)
        with pytest.raises(ValidationError):
            DyadicMeasureTree.atomic([(Fraction(0),)], [Fraction(1)], 1, 4)

    def test_coincident_atoms_merge(self):
        p = (Fraction(1, 2),)
        mu = DyadicMeasureTree.atomic([p, p], [Fraction(1, 4), Fraction(3, 4)], 1, 4)
        assert mu.atoms == [(p, Fraction(1))]
        mu.validate()

    def test_support_is_the_point_tree(self):
        pts = [(Fraction(1, 4), Fraction(3, 4)), (Fraction(1, 3), Fraction(1)),
               (Fraction(1, 4), Fraction(3, 4))]
        mu = DyadicMeasureTree.atomic(pts, [Fraction(1, 4), Fraction(1, 4),
                                            Fraction(1, 2)], 2, 5)
        want = DyadicSetTree.from_points(pts, 2, 5)
        assert mu.support.levels == want.levels
        assert mu.support.meta == {"kind": "points", "count": 2}
        mu.validate()

    def test_negative_depth_rejected(self):
        with pytest.raises(ValidationError):
            DyadicMeasureTree.atomic([(Fraction(1, 2),)], [1], 1, -1)

    def test_atoms_only_on_the_atomic_leaf_model(self):
        # the uniform leaf model never reads atoms, so it takes none, and
        # the atomic one needs them
        mu = DyadicMeasureTree.atomic([(Fraction(1, 2),)], [1], 1, 3)
        tree, tables = mu.support, mu.tables
        with pytest.raises(ValidationError,
                           match="^uniform leaf model takes no atoms$"):
            DyadicMeasureTree(tree, "uniform", tables, ints=mu._atom_ints)
        with pytest.raises(ValidationError,
                           match="^atomic leaf model needs an atom list$"):
            DyadicMeasureTree(tree, "atoms", tables)

    def test_cube_masses_aggregate_atoms(self):
        mu = DyadicMeasureTree.atomic(
            [(Fraction(1, 4),), (Fraction(1),)],
            [Fraction(1, 3), Fraction(2, 3)], 1, 3)
        assert mu.mass(1, 0) == Fraction(1, 3)
        assert mu.mass(1, 1) == Fraction(2, 3)
        assert mu.mass(3, 1) == Fraction(1, 3)
        mu.validate()

    def test_ball_mass_atoms_closed_ball(self):
        mu = DyadicMeasureTree.atomic(
            [(Fraction(1, 4),), (Fraction(3, 4),)],
            [Fraction(1, 3), Fraction(2, 3)], 1, 4)
        assert mu.ball_mass_atoms((Fraction(1, 4),), Fraction(1, 2)) == 1
        assert mu.ball_mass_atoms((Fraction(1, 4),), Fraction(1, 4)) == Fraction(1, 3)
        assert mu.ball_mass_atoms((Fraction(1, 2),), Fraction(1, 8)) == 0

    def test_ball_mass_atoms_rejects_negative_radius(self):
        # a negative radius squares to the ball of radius |r|: reject it;
        # r = 0 is the centre's own atom
        line = DyadicMeasureTree.atomic(
            [(Fraction(1, 4),), (Fraction(3, 4),)],
            [Fraction(1, 2), Fraction(1, 2)], 1, 4)
        plane = DyadicMeasureTree.atomic(
            [(Fraction(1, 4), Fraction(1, 4)),
             (Fraction(3, 4), Fraction(1, 2))],
            [Fraction(1, 2), Fraction(1, 2)], 2, 3)
        for mu, pt, r, mass in (
                (line, (Fraction(1, 4),), Fraction(1, 4), Fraction(1, 2)),
                (plane, (Fraction(1, 4), Fraction(1, 4)), 1, 1)):
            assert mu.ball_mass_atoms(pt, r) == mass
            assert mu.ball_mass_atoms(pt, 0) == Fraction(1, 2)
            with pytest.raises(ValidationError, match="radius must be >= 0"):
                mu.ball_mass_atoms(pt, -r)

    def test_ball_mass_needs_atoms(self):
        with pytest.raises(UnsupportedModelError):
            uniform_cantor(4).ball_mass_atoms((Fraction(1, 2),), Fraction(1, 4))


class TestDyadicCorrelation:
    def test_full_interval(self):
        mu = DyadicMeasureTree.uniform_on_set(DyadicSetTree.full(1, 6))
        for n in range(7):
            assert mu.dyadic_correlation_sum(n) == pow2(-n)

    def test_cantor_staircase(self):
        mu = uniform_cantor(9)
        for n in range(10):
            cnt = mu.support.box_count(n)
            assert mu.dyadic_correlation_sum(n) == Fraction(1, cnt)

    def test_cauchy_schwarz_floor_random(self):
        # sum of squares over a fixed support is minimized by equal masses
        rng = random.Random(7)
        tree = cantor_tree(6)
        for _ in range(10):
            mu = DyadicMeasureTree.random_split(tree, rng)
            for n in (2, 4, 6):
                assert mu.dyadic_correlation_sum(n) >= Fraction(1, tree.box_count(n))

    def test_atom_correlation_is_one(self):
        mu = DyadicMeasureTree.atomic([(Fraction(1, 2),)], [1], 1, 6)
        for n in range(7):
            assert mu.dyadic_correlation_sum(n) == 1


class TestBallCorrelationBracket:
    def test_atomic_pair_sum_exact(self):
        mu = DyadicMeasureTree.atomic(
            [(Fraction(1, 4),), (Fraction(3, 4),)],
            [Fraction(1, 3), Fraction(2, 3)], 1, 6)
        near = mu.ball_correlation_bracket(Fraction(1, 4))
        assert near.lower == near.upper == Fraction(5, 9)
        far = mu.ball_correlation_bracket(Fraction(1, 2))
        assert far.lower == far.upper == 1

    def test_uniform_interval_closed_form(self):
        # (mu x mu){|x - y| <= r} = 2r - r^2 for the uniform interval
        mu = DyadicMeasureTree.uniform_on_set(DyadicSetTree.full(1, 4))
        for r in (Fraction(1, 4), Fraction(1, 8), Fraction(3, 16)):
            want = 2 * r - r * r
            b = mu.ball_correlation_bracket(r, extra_depth=8)
            assert b.lower <= want <= b.upper
            assert b.width < 0.01

    def test_bracket_tightens_with_depth(self):
        # denominator 7 keeps the sphere off every dyadic boundary, so
        # straddling pairs survive to the cap and the width is positive
        mu = DyadicMeasureTree.uniform_on_set(DyadicSetTree.full(1, 4))
        r = Fraction(1, 7)
        wide = mu.ball_correlation_bracket(r, extra_depth=2)
        tight = mu.ball_correlation_bracket(r, extra_depth=6)
        assert wide.lower <= tight.lower <= tight.upper <= wide.upper
        assert 0 < tight.width < wide.width

    def test_monotone_in_radius(self):
        mu = uniform_cantor(6)
        b1 = mu.ball_correlation_bracket(Fraction(1, 32))
        b2 = mu.ball_correlation_bracket(Fraction(1, 4))
        assert b1.upper <= b2.upper
        assert b1.lower <= b2.lower

    def test_radius_validation(self):
        with pytest.raises(ValidationError):
            uniform_cantor(4).ball_correlation_bracket(0)

    @pytest.mark.parametrize("kind", ["uniform", "random_split"])
    @pytest.mark.parametrize("r", [Fraction(3, 16), Fraction(1, 4)], ids=str)
    def test_matches_brute_force_sierpinski(self, kind, r):
        tree = DyadicSetTree.from_digit_ifs(2, 1, [0, 1, 2], 3)
        if kind == "uniform":
            mu = DyadicMeasureTree.uniform_on_set(tree)
        else:
            mu = DyadicMeasureTree.random_split(tree, random.Random(7))
        b = mu.ball_correlation_bracket(r, extra_depth=1)
        assert b.cap_level > mu.max_depth  # cubes split below the leaves
        assert (b.lower, b.upper) == brute_force_ball_bracket(
            mu, r, b.cap_level)

    def test_matches_brute_force_1d(self):
        mu = DyadicMeasureTree.random_split(DyadicSetTree.full(1, 5),
                                            random.Random(7))
        r = Fraction(1, 7)
        b = mu.ball_correlation_bracket(r, extra_depth=3)
        assert b.cap_level > mu.max_depth
        assert (b.lower, b.upper) == brute_force_ball_bracket(
            mu, r, b.cap_level)

    @pytest.mark.parametrize("tree, r, extra", [
        (DyadicSetTree.full(1, 3), Fraction(1, 32), 2),
        (DyadicSetTree.from_digit_ifs(2, 1, [0, 1, 2], 2), Fraction(1, 8), 0),
        (DyadicSetTree.full(3, 0), Fraction(1, 2), 0),
    ], ids=["d1-cap7", "d2-sierpinski-cap4", "d3-cap2"])
    def test_matches_brute_force_below_leaves(self, tree, r, extra):
        # leaf pairs at least two levels above the cap resolve through the
        # per-offset counts, recursing over child offsets
        mu = DyadicMeasureTree.random_split(tree, random.Random(3))
        b = mu.ball_correlation_bracket(r, extra_depth=extra)
        assert b.cap_level >= mu.max_depth + 2
        assert (b.lower, b.upper) == brute_force_ball_bracket(
            mu, r, b.cap_level)

    def test_matches_brute_force_3d_rows(self):
        # rows (0, 0) and (1, 0) are adjacent, while row (0, 2), between
        # them in row order, is out of reach at rho = floor(r^2 4^2) = 0
        keys = [interleave(j, 2) for j in ((0, 0, 0), (0, 2, 0), (1, 0, 0))]
        mu = DyadicMeasureTree.random_split(
            DyadicSetTree.from_codes(3, 2, keys), random.Random(11))
        r = Fraction(2, 9)
        b = mu.ball_correlation_bracket(r, extra_depth=0)
        assert b.cap_level == 3
        assert (b.lower, b.upper) == brute_force_ball_bracket(mu, r, 3)
        assert b.lower < b.upper

    @pytest.mark.parametrize("d, r", [(1, Fraction(1, 7)), (2, Fraction(1, 5)),
                                      (3, Fraction(2, 3))], ids=str)
    def test_single_leaf_matches_deeper_trees(self, d, r):
        # full(d, 0) is one leaf, so its whole bracket comes from the
        # zero-offset counts; deeper full trees are the same measure and
        # also use off-diagonal leaf pairs
        brackets = {(b.lower, b.upper, b.cap_level) for b in (
            DyadicMeasureTree.uniform_on_set(
                DyadicSetTree.full(d, depth)).ball_correlation_bracket(r, 1)
            for depth in range(3))}
        assert len(brackets) == 1
        lower, upper, cap = brackets.pop()
        assert 0 < lower <= upper and cap >= 2
        if d == 1:
            assert lower <= 2 * r - r * r <= upper

    def test_bracket_order_enforced(self):
        with pytest.raises(ValidationError):
            CorrelationBracket(Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), 3)


@st.composite
def _walker_cases(draw):
    """(measure, radius, extra_depth) on small digit-IFS trees and sparse
    from_codes trees in 1-D, 2-D and 3-D: uniform, random-split, and
    prime-denominator leaf tables."""
    mu, _, _ = draw(measure_cases(
        ("uniform", "random_split", "primes"),
        set_trees((3, 2, 2), max_keep=(3, 3, 2), sparse="codes",
                  max_cubes=4)))
    d, depth = mu.d, mu.max_depth
    q = draw(st.integers(1, 12))
    if d < 3:
        r = Fraction(draw(st.integers(max(1, q // (8 // d)), q)), q)
    else:
        # radii of 7/8 to 2 leaf sides keep the cap within one level of
        # the leaves, so at most 4 * 8 oracle cubes
        r = Fraction(draw(st.integers(q - q // 8, 2 * q)), q << depth)
    return mu, r, draw(st.integers(0, 2 if d < 3 else 0))


@settings(max_examples=200, deadline=None, database=None)
@given(_walker_cases())
def test_integer_walker_matches_brute_force(case):
    # the bracket sums integer numerators over one denominator at one
    # level; the oracle sums Fraction mass products over every ordered
    # cube pair
    mu, r, extra = case
    b = mu.ball_correlation_bracket(r, extra_depth=extra)
    top = min(b.cap_level, mu.max_depth)
    cubes = len(mu.level_masses(top)) << (mu.d * (b.cap_level - top))
    assume(cubes <= 32)  # the oracle is quadratic in the cap-level cubes
    assert (b.lower, b.upper) == brute_force_ball_bracket(mu, r, b.cap_level)


PINNED_MEASURES = {
    "full1-10": lambda: DyadicMeasureTree.uniform_on_set(
        DyadicSetTree.full(1, 10)),
    "full1-10-random": lambda: DyadicMeasureTree.random_split(
        DyadicSetTree.full(1, 10), random.Random(20250819)),
    "sierpinski5": lambda: DyadicMeasureTree.uniform_on_set(
        DyadicSetTree.from_digit_ifs(2, 1, [0, 1, 2], 5)),
    "cantor07-18": lambda: DyadicMeasureTree.uniform_on_set(
        DyadicSetTree.from_digit_ifs(1, 3, [0, 7], 18)),
    "full3-3": lambda: DyadicMeasureTree.uniform_on_set(
        DyadicSetTree.full(3, 3)),
}

# "lower upper cap_level" as the dual-tree pair walker that the row-range
# sums replaced gave them; the random-split brackets, with numerators of
# 50+ digits, by the first 16 hex digits of that string's sha256
BALL_BRACKET_PINS = [
    ("full1-10", 4, 4, "481/4096 4327/32768 8"),
    ("full1-10", 5, 4, "977/16384 8807/131072 9"),
    ("full1-10", 6, 4, "1969/65536 17767/524288 10"),
    ("full1-10", 7, 4, "3953/262144 35687/2097152 11"),
    ("full1-10", 8, 4, "7921/1048576 71527/8388608 12"),
    ("full1-10", 9, 4, "15857/4194304 143207/33554432 13"),
    ("full1-10", 10, 4, "31729/16777216 286567/134217728 14"),
    ("full1-10-random", 4, 4, "a22d47087d760198"),
    ("full1-10-random", 5, 4, "b79fc558fe04aa2e"),
    ("full1-10-random", 6, 4, "2083648c21a119f2"),
    ("full1-10-random", 7, 4, "11e936ac379fb225"),
    ("full1-10-random", 8, 4, "4e6c3ed3e49d0d1a"),
    ("full1-10-random", 9, 4, "08e74baa90b3c4d6"),
    ("full1-10-random", 10, 4, "01daf51e05395b59"),
    ("sierpinski5", Fraction(1, 8), 2, "6427/118098 14687/157464 6"),
    ("sierpinski5", Fraction(1, 16), 2, "34505/1889568 78937/2519424 7"),
    ("cantor07-18", 18, 4, "1/64 1/64 22"),
    ("cantor07-18", 20, 4, "109/16384 967/131072 24"),
    ("cantor07-18", Fraction(7, 1 << 18), 4, "11/512 29/1024 20"),
    ("full3-3", Fraction(1, 5), 2,
     "159455519/8589934592 38021741/1073741824 6"),
]


@lru_cache(maxsize=None)
def pinned_measure(name):
    return PINNED_MEASURES[name]()


@pytest.mark.parametrize("name, r, extra, want", BALL_BRACKET_PINS,
                         ids=lambda v: str(v)[:20])
def test_ball_brackets_pinned(name, r, extra, want):
    # an int r stands for the radius 2^-r
    rf = Fraction(1, 1 << r) if isinstance(r, int) else r
    b = pinned_measure(name).ball_correlation_bracket(rf, extra_depth=extra)
    got = f"{b.lower} {b.upper} {b.cap_level}"
    if " " not in want:
        got = hashlib.sha256(got.encode()).hexdigest()[:16]
    assert got == want


T_LOW, S_HIGH = Fraction(2, 5), Fraction(7, 10)
ROW_RANGE_MEASURES = {
    "full1-10-random": lambda: pinned_measure("full1-10-random"),
    # the inequality chain's depth-24 sets: sparse rows of width 2^24
    "alternating24": lambda: DyadicMeasureTree.uniform_on_set(
        constructions.alternating_set(constructions.alternating_plan(
            T_LOW, S_HIGH, level_budget=10 ** 6), 24)),
    "sweep24": lambda: DyadicMeasureTree.uniform_on_set(
        constructions.sweep_set(constructions.sweep_plan(T_LOW, S_HIGH), 24)),
    "sierpinski5": lambda: pinned_measure("sierpinski5"),
    "full3-3-random": lambda: DyadicMeasureTree.random_split(
        DyadicSetTree.full(3, 3), random.Random(5)),
}


@pytest.mark.parametrize("name", sorted(ROW_RANGE_MEASURES))
def test_ball_brackets_match_row_range_oracle(name):
    # radii 2^-k p/q; at k = 0 the radii 3/2 and 5/2 put t_in past the
    # row width, so every cube of a row is inside. mu keeps each level's
    # row index from one radius to the next; a measure built afresh on the
    # same tables, with none kept, gives the same bracket
    mu = ROW_RANGE_MEASURES[name]()
    deep = mu.max_depth + 2 if mu.d == 1 else 6
    for k in sorted({0, 3, deep // 2, deep}):
        for p, q in ((1, 3), (5, 7), (1, 1), (3, 2), (5, 2)):
            r = Fraction(p, q << k)
            for extra in range(5):
                b = mu.ball_correlation_bracket(r, extra_depth=extra)
                assert (b.lower, b.upper, b.cap_level) == oracle_row_ranges(
                    mu, r, extra)
                fresh = DyadicMeasureTree(mu.support, mu.leaf_model,
                                          mu.tables)
                assert fresh.ball_correlation_bracket(
                    r, extra_depth=extra) == b


def _cover_measures():
    """Uniform, random-split and prime-leaf measures on occupied-cube trees
    of up to 20 points, depth 0 up, and atomic measures on rational
    points, d = 1..3."""
    return measure_cases(
        ("uniform", "random_split", "primes", "atoms"),
        set_trees((8, 5, 3), min_depth=0, max_cubes=20, ifs=False)).map(
            lambda case: case[0])


@settings(max_examples=150, deadline=None, database=None)
@given(_cover_measures(), st.integers(1, 12), st.integers(0, 11))
@example(DyadicMeasureTree.uniform_on_set(DyadicSetTree.full(3, 2)), 1, 0)
@example(DyadicMeasureTree.atomic([(Fraction(1, 4),), (Fraction(3, 4),)],
                                  [Fraction(1, 3), Fraction(2, 3)], 1, 4),
         3, 2)
def test_sup_ball_cover_matches_direction_loop(mu, q, p):
    # r in [2^-(n+2), 2^-(n+1)): a closed ball of radius r meets at most
    # two level-n cubes per axis
    for n in range(mu.max_depth + 1):
        r = Fraction(q + p % q, q << (n + 2))
        assert level_for_radius(r) == n
        cover = mu.ball_cover_bound(n)
        assert cover == oracle_sup_ball_cover(mu, n)
        if mu.leaf_model == "atoms":
            assert cover >= max(mu.ball_mass_atoms(x, r) for x, _ in mu.atoms)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_below_leaves_hands_resolve_the_sorted_offset(d):
    # a resolve that settles each cap-level pair as (1, 1) and nothing
    # above the cap: below(l, off) then counts the 4^(d (cap - l)) ordered
    # cap-level pairs under a level-l pair, whatever its offset
    cap, seen = 3, []

    def resolve(level, offset):
        seen.append((level, offset))
        return (1, 1) if level >= cap else None

    below, memo = measure._below_leaves(resolve)
    for level in range(cap + 1):
        for off in itertools.combinations_with_replacement(range(4), d):
            assert below(level, off) == (4 ** (d * (cap - level)),) * 2
    assert all(len(off) == d and list(off) == sorted(off) for _, off in seen)
    assert sorted(seen) == sorted(memo)  # once per memo entry


class TestEnergy:
    def test_uniform_interval_family(self):
        # closed form for the uniform interval: 2 / ((1-s)(2-s))
        mu = DyadicMeasureTree.uniform_on_set(DyadicSetTree.full(1, 10))
        for s, want in [(Fraction(1, 2), 8 / 3),
                        (Fraction(1, 3), 9 / 5),
                        (Fraction(3, 4), 32 / 5)]:
            b = mu.energy_bracket(s)
            assert not b.diverged
            assert (b.lower <= want <= b.upper
                    or abs((b.lower + b.upper) / 2 - want) < 1e-9)
            assert b.upper - b.lower < 1e-6

    @pytest.mark.parametrize("s, want", [
        (Fraction(1, 2), 1.5844091716), (Fraction(1), 2.9732095982),
        (Fraction(3, 2), 8.0556092819)])
    def test_unit_square_encloses_closed_form(self, s, want):
        # Lebesgue measure on the unit square is uniform full(2, k) at any
        # k: each bracket, at every depth and refinement, holds the energy
        # integrated from the square's distance density
        truth = square_riesz_energy(float(s))
        assert truth == pytest.approx(want, abs=1e-9)
        for k in (1, 2, 3):
            mu = DyadicMeasureTree.uniform_on_set(DyadicSetTree.full(2, k))
            for refine in (1, 2, 3):
                b = mu.energy_bracket(s, refine_depth=refine)
                assert b.lower <= truth <= b.upper, (k, refine)

    def test_s_at_or_above_d_diverges(self):
        mu = DyadicMeasureTree.uniform_on_set(DyadicSetTree.full(1, 5))
        b = mu.energy_bracket(1)
        assert b.diverged
        assert b.upper == math.inf

    def test_atoms_diverge(self):
        mu = DyadicMeasureTree.atomic([(Fraction(1, 2),)], [1], 1, 5)
        b = mu.energy_bracket(Fraction(1, 2))
        assert b.diverged

    def test_s_validation(self):
        mu = uniform_cantor(4)
        with pytest.raises(ValidationError):
            mu.energy_bracket(0)

    def test_dualtree_2d_brackets_nest(self):
        mu = DyadicMeasureTree.uniform_on_set(DyadicSetTree.full(2, 1))
        rough = mu.energy_bracket(Fraction(1, 2), refine_depth=1)
        fine = mu.energy_bracket(Fraction(1, 2), refine_depth=3)
        assert not rough.diverged and not fine.diverged
        assert rough.lower <= fine.lower <= fine.upper <= rough.upper
        assert fine.upper - fine.lower < rough.upper - rough.lower
        assert fine.lower > 0
        # s = 1: the mean reciprocal distance in the unit square
        want = 4 / 3 * (1 - math.sqrt(2)) + 4 * math.log(1 + math.sqrt(2))
        one = mu.energy_bracket(1, refine_depth=3)
        assert one.lower <= want <= one.upper

    @pytest.mark.parametrize("case, want", [
        ("square", ("0x1.665ad2c59403dp+0", "0x1.d7e22785dbfe6p+1")),
        ("sierpinski_random", ("0x1.751f8ad61825bp+1",
                               "0x1.ef2b0edb3d741p+4")),
        ("cube_digits", ("0x1.209bec63e3d38p+0", "0x1.81f3814000ac3p+6")),
    ])
    def test_dualtree_bits_pinned(self, case, want):
        # float.hex of the d >= 2 brackets: the summation order and the
        # rounding of each leaf-pair weight are part of the output.
        # Re-pinned when leaf pairs began to resolve through the per-offset
        # memo: the terms below the leaves are summed per offset and then
        # scaled once by the leaf pair's weight, so they round differently
        # (at most 1.4e-13 relative, on "square"). Re-pinned again when the
        # walk gave way to the offset histogram: float products of the leaf
        # masses are summed per offset in numpy, and the kernel terms
        # weighted by those bins are summed with math.fsum (at most 6.9e-16
        # relative, on the upper end of "sierpinski_random")
        if case == "square":
            mu = DyadicMeasureTree.uniform_on_set(DyadicSetTree.full(2, 1))
            s, depth = Fraction(1, 2), 3
        elif case == "sierpinski_random":
            mu = DyadicMeasureTree.random_split(
                DyadicSetTree.from_digit_ifs(2, 1, [0, 1, 2], 3),
                random.Random(7))
            s, depth = Fraction(1), 1
        else:
            mu = DyadicMeasureTree.uniform_on_set(
                DyadicSetTree.from_digit_ifs(3, 1, [0, 3, 5, 6], 1))
            s, depth = Fraction(3, 2), 1
        b = mu.energy_bracket(s, refine_depth=depth)
        assert (b.lower.hex(), b.upper.hex()) == want

    @pytest.mark.parametrize("cap, tree", [
        (4, DyadicSetTree.full(2, 0)),
        (2, DyadicSetTree.full(3, 0)),
        (4, DyadicSetTree.from_digit_ifs(2, 1, [0, 1, 2], 2)),
    ], ids=["full2-cap4", "full3-cap2", "sierpinski-random-cap4"])
    @pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(1)], ids=str)
    def test_offset_memo_matches_deeper_trees(self, cap, tree, s):
        # the same measure materialised k levels deeper by equal splits, at
        # the same cap: at k = 0 every pair below the tree's leaves goes
        # through the per-offset memo, at k = cap - depth none does. On a
        # one-cube tree the measure, and every deeper copy, is uniform
        mu = DyadicMeasureTree.random_split(tree, random.Random(5))
        values = []
        for k in range(cap - mu.max_depth + 1):
            deep = deeper(mu, k)
            b = deep.energy_bracket(s, refine_depth=cap - deep.max_depth)
            assert b.detail["cap_level"] == cap and not b.diverged
            values.append((b.lower, b.upper))
        lo, hi = values[0]
        assert 0 < lo < hi
        for got in values[1:]:
            assert got == pytest.approx((lo, hi), rel=1e-12)

    def test_cantor_energy_finite_below_half(self):
        # the middle-half Cantor set carries a measure of dimension 1/2,
        # so s = 1/3 energy must come out finite and moderate
        b = uniform_cantor(10).energy_bracket(Fraction(1, 3))
        assert not b.diverged
        assert 1 < b.lower <= b.upper < 10


def clustered_leaves(d, depth, offsets, seed):
    """Random-split measure on a few leaves at `depth` whose axis indices
    sit at the given small offsets from the middle of the cube: a sparse,
    deep tree with 2^(d depth) far above its leaf pairs."""
    mid = 1 << (depth - 1)
    pts = [tuple(Fraction(mid + j + 1, 1 << depth) for j in off)
           for off in offsets]
    return DyadicMeasureTree.random_split(
        DyadicSetTree.from_points(pts, d, depth), random.Random(seed))


class TestEnergyOracle:
    """The offset histogram times the per-offset kernel against sums over
    every pair, computed here without the package's energy code."""

    @pytest.mark.parametrize("mu, s", [
        (DyadicMeasureTree.random_split(DyadicSetTree.full(1, 6),
                                        random.Random(7)), Fraction(1, 2)),
        (DyadicMeasureTree.random_split(cantor_tree(8), random.Random(8)),
         Fraction(1, 3)),
        (clustered_leaves(1, 40, [(0,), (1,), (3,), (4,), (9,)], 9),
         Fraction(2, 3)),
        # far leaf pairs, where the direct second difference cancels
        # about eps a^2 of its value: the series keeps these brackets tight
        (DyadicMeasureTree.uniform_on_set(DyadicSetTree.from_points(
            [(Fraction(1, 4),), (Fraction(3, 4),)], 1, 40)), Fraction(1, 2)),
        (DyadicMeasureTree.uniform_on_set(
            DyadicSetTree.from_digit_ifs(1, 3, [0, 7], 30)), Fraction(1, 4)),
    ], ids=["full6", "cantor8", "sparse-depth40", "two-leaves-depth40",
            "digits07-depth30"])
    def test_1d_matches_pair_sum(self, mu, s):
        want = oracle_energy_1d(mu, s)
        b = mu.energy_bracket(s)
        assert b.lower <= want <= b.upper
        assert b.upper - b.lower < 1e-6 * want
        assert (b.lower + b.upper) / 2 == pytest.approx(want, rel=1e-12)
        assert type(b.lower) is float and type(b.upper) is float

    @pytest.mark.parametrize("mu, s, cap", [
        (DyadicMeasureTree.uniform_on_set(DyadicSetTree.full(2, 0)),
         Fraction(1, 2), 3),
        (DyadicMeasureTree.random_split(
            DyadicSetTree.from_digit_ifs(2, 1, [0, 1, 2], 2),
            random.Random(7)), Fraction(1), 3),
        (DyadicMeasureTree.uniform_on_set(DyadicSetTree.full(3, 0)),
         Fraction(3, 2), 2),
        (clustered_leaves(2, 20, [(0, 0), (1, 3), (2, 0)], 5),
         Fraction(1, 2), 21),
    ], ids=["full2-cap3", "sierpinski-random-cap3", "full3-cap2",
            "sparse-depth20-cap21"])
    def test_cubes_match_pair_sum(self, mu, s, cap):
        lo, hi = oracle_energy_cubes(mu, s, cap)
        b = mu.energy_bracket(s, refine_depth=cap - mu.max_depth)
        assert b.detail["cap_level"] == cap
        assert (b.lower, b.upper) == pytest.approx((lo, hi), rel=1e-12)
        assert type(b.lower) is float and type(b.upper) is float

    def test_sparse_trees_outnumber_their_pairs(self):
        # the deep cases above have far more offset codes than leaf pairs,
        # so their bins are the distinct codes rather than a dense table
        for mu in (clustered_leaves(1, 40, [(0,), (1,), (3,), (4,), (9,)], 9),
                   clustered_leaves(2, 20, [(0, 0), (1, 3), (2, 0)], 5)):
            b = mu.energy_bracket(Fraction(1, 2), refine_depth=1)
            assert 1 << (mu.d * mu.max_depth) > b.detail["leaf_pairs"]

    def test_work_counts_repeat(self):
        # leaf pairs, distinct offsets and kernel entries are deterministic
        mu = DyadicMeasureTree.uniform_on_set(DyadicSetTree.full(1, 4))
        first, again = (mu.energy_bracket(Fraction(1, 2)).detail
                        for _ in range(2))
        assert first == again == {"leaf_pairs": 256, "offsets": 16,
                                  "kernel_entries": 16}
        sier = DyadicMeasureTree.uniform_on_set(
            DyadicSetTree.from_digit_ifs(2, 1, [0, 1, 2], 4))
        first, again = (sier.energy_bracket(Fraction(1, 2),
                                            refine_depth=2).detail
                        for _ in range(2))
        assert first == again == {"cap_level": 6, "leaf_pairs": 81 * 81,
                                  "offsets": 136, "kernel_entries": 2744}


class TestAntiFrostman:
    def test_cantor_exact_values(self):
        res = anti_frostman_check(cantor_tree(8), [2, 4, 6, 8])
        assert res["ok"]
        assert res["normalizer"] == Fraction(576, 205)
        by_level = {row["level"]: row for row in res["rows"]}
        assert by_level[2]["bound"] == Fraction(72, 205)
        assert by_level[8]["bound"] == Fraction(9, 3280)
        # at the deepest level every atom budget is hit exactly
        assert by_level[8]["min_ball_mass"] == Fraction(9, 3280)
        assert by_level[8]["net_size"] == 16

    def test_measure_structure(self):
        mu, info = anti_frostman_measure(cantor_tree(6), [2, 4])
        mu.validate()
        assert info["net_sizes"] == {2: 2, 4: 4}
        assert sum(w for _, w in mu.atoms) == 1
        # level-2 net points receive both their own budget and the finer one
        heavy = mu.ball_mass_atoms((Fraction(1, 4),), Fraction(0))
        assert heavy > info["per_level_bound"][2]

    def test_ball_bound_holds_everywhere(self):
        tree = cantor_tree(6)
        mu, info = anti_frostman_measure(tree, [2, 4, 6])
        for k in (2, 4, 6):
            r = Fraction(2, 1 << k)
            bound = info["per_level_bound"][k]
            for x in oracle_representatives(tree, 6):
                assert mu.ball_mass_atoms(x, r) >= bound

    def test_level_validation(self):
        with pytest.raises(ValidationError):
            anti_frostman_measure(cantor_tree(4), [0, 2])
        with pytest.raises(ValidationError):
            anti_frostman_measure(cantor_tree(4), [6])

    def test_dimension_cap(self):
        # the diagonal-step argument needs sqrt(d) <= 2
        with pytest.raises(ValidationError):
            anti_frostman_check(DyadicSetTree.full(5, 2), [1])



# -- int tables against a Fraction oracle -------------------------------------


# rationals in (0, 1] with denominators up to 12, not only dyadic ones
@st.composite
def _atomic_measures(draw):
    d = draw(st.sampled_from([1, 2]))
    pts = draw(st.lists(st.tuples(*[COORDS] * d), min_size=1, max_size=8))
    ws = draw(st.lists(st.integers(1, 9), min_size=len(pts),
                       max_size=len(pts)))
    return DyadicMeasureTree.atomic(pts, [Fraction(w, sum(ws)) for w in ws],
                                    d, draw(st.integers(0, 5)))


# d = 3, depth 2: the i-th level-1 cube has i + 1 selected children, so one
# level mixes child counts 1..8 (lcm 840)
MIXED_COUNTS = DyadicSetTree.from_codes(
    3, 2, [(p << 3) + j for p in range(8) for j in range(p + 1)])
# two leaves that part at level 1, then a chain of single-child cubes as in
# a sweep set: every equal split below level 1 has lcm 1
SINGLE_CHILD_CHAIN = DyadicSetTree.from_codes(1, 12, [0, (1 << 12) - 1])
# the same in 2-D: opposite corners part at level 1, then one child each
ONE_CHILD_CHAIN_2D = DyadicSetTree.from_codes(2, 6, [0, (1 << 12) - 1])


@settings(max_examples=150, deadline=None, database=None)
@given(measure_cases())
@example(split_case(MIXED_COUNTS, "uniform"))
@example(split_case(MIXED_COUNTS, "random_split", 5))
@example(split_case(SINGLE_CHILD_CHAIN, "uniform"))
@example(split_case(SINGLE_CHILD_CHAIN, "random_split", 11))
# one-child and two-child levels alternate
@example(split_case(cantor_tree(8), "random_split", 3))
@example(split_case(ONE_CHILD_CHAIN_2D, "uniform"))
@example(split_case(ONE_CHILD_CHAIN_2D, "random_split", 7))
def test_int_tables_match_fraction_oracle(case):
    mu, masses, states = case
    if states is not None:
        # the seeded stream is part of random_split's contract: one draw
        # per cube, in key order
        after_split, after_oracle = states
        assert after_split == after_oracle
    mu.validate()
    for n, want in enumerate(masses):
        nums, den = mu.tables[n]
        assert math.gcd(den, *nums) == 1  # each level reduced
        assert mu.level_masses(n) == sorted(want.items())
        assert all(mu.mass(n, k) == m for k, m in want.items())
        assert mu.mass(n, max(want) + 1) == 0
        assert mu.max_cube_mass(n) == max(want.values())
        assert mu.dyadic_correlation_sum(n) == sum(
            (m * m for m in want.values()), Fraction(0))
    if mu.max_depth >= 1:
        levels = range(1, mu.max_depth + 1)
        _, tested = packing_threshold(mu, levels)
        quarters = tested[4::5]  # the grid's exponents k/4
        assert [v for _, v in quarters] == [
            packing_predicate(mu, sv, levels).verdict for sv, _ in quarters]


@settings(max_examples=200, deadline=None, database=None)
@given(measure_cases(MEASURE_KINDS))
@example(split_case(MIXED_COUNTS, "random_split", 5))
@example(split_case(SINGLE_CHILD_CHAIN, "uniform"))
@example(split_case(SINGLE_CHILD_CHAIN, "random_split", 11))
@example(split_case(ONE_CHILD_CHAIN_2D, "random_split", 7))
@example(leaf_case(SINGLE_CHILD_CHAIN, "reversed", {
    0: Fraction(1, 3), (1 << 12) - 1: Fraction(2, 3)}))
@example(leaf_case(ONE_CHILD_CHAIN_2D, "from_masses", {
    0: Fraction(3, 7), (1 << 12) - 1: Fraction(4, 7)}))
def test_tables_in_support_order_match_fraction_oracle(case):
    # level n's numerators are listed in the order of the sorted level,
    # over the lcm of the oracle's denominators; a level of one child per
    # parent holds the very list of the level above
    mu, masses, states = case
    if states is not None:
        assert states[0] == states[1]
    levels = mu.support.levels
    for n, ((nums, den), want) in enumerate(zip(mu.tables, masses)):
        lcm = math.lcm(*(m.denominator for m in want.values()))
        assert den == lcm
        assert list(zip(levels[n], nums)) == [
            (k, m.numerator * (lcm // m.denominator))
            for k, m in sorted(want.items())]
        if n and len(levels[n]) == len(levels[n - 1]):
            assert nums is mu.tables[n - 1][0]


@settings(max_examples=150, deadline=None, database=None)
@given(_atomic_measures(), _unit_radii, st.lists(st.tuples(COORDS, COORDS),
                                                 max_size=3))
def test_atom_ball_masses_match_fraction_oracle(mu, r, extra):
    # the closed-ball tests run on ints; the oracle compares Fraction
    # squared distances, so atoms at distance exactly r count. Radii lie in
    # [1/16, 1/2], so some atoms fall outside.
    r = r / 2
    centres = [p for p, _ in mu.atoms] + [c[:mu.d] for c in extra]
    for x in centres:
        assert mu.ball_mass_atoms(x, r) == atom_ball_mass(mu.atoms, x, r)
    b = mu.ball_correlation_bracket(r)
    assert b.lower == b.upper == atom_pair_sum(mu.atoms, r)


def _check_batched_ball_masses(mu, centres, radii):
    """Every centre's batched ball mass, and the atoms' own (centres None),
    equal the scan of every atom, at each radius; so do the one-centre
    calls and the atomic pair sum."""
    atoms = mu.atoms
    for r in radii:
        nums, wden = mu.ball_masses_atoms(centres, r)
        assert [Fraction(n, wden) for n in nums] == [
            atom_ball_mass(atoms, x, r) for x in centres]
        assert [mu.ball_mass_atoms(x, r) for x in centres[:4]] == [
            Fraction(n, wden) for n in nums[:4]]
        nums, _ = mu.ball_masses_atoms(None, r)
        assert [Fraction(n, wden) for n in nums] == [
            atom_ball_mass(atoms, p, r) for p, _ in atoms]
        if r:
            b = mu.ball_correlation_bracket(r)
            assert b.lower == b.upper == atom_pair_sum(atoms, r)


@settings(max_examples=150, deadline=None, database=None)
@given(measure_cases(("atoms",)), st.lists(_unit_radii, min_size=1,
                                           max_size=3),
       st.lists(st.tuples(COORDS, COORDS, COORDS), max_size=4))
def test_batched_ball_masses_match_brute_force(case, radii, extra):
    # the shared strategy's atoms in d = 1..3, centres on the atoms and off
    # them, radii 0, in (0, 1] and 2 (at least sqrt(d): every atom)
    mu = case[0]
    centres = [p for p, _ in mu.atoms] + [x[:mu.d] for x in extra]
    _check_batched_ball_masses(mu, centres, [Fraction(0), Fraction(2)] + [
        r / 2 for r in radii])
    nums, wden = mu.ball_masses_atoms(centres, 2)
    assert nums == [wden] * len(centres)


def _atom_set(kind, d):
    """(points, weights) of an explicit atom set: collinear (on an axis
    line in 2-D, on the diagonal in 3-D), sharing coordinates (two values
    on the first axis, many on the others), or a lattice of step 1/5."""
    third, fifth = Fraction(1, 3), Fraction(1, 5)
    if kind == "collinear":
        pts = [((third,) * (d - 1) + (Fraction(k, 12),)) if d < 3 else
               (Fraction(k, 12),) * 3 for k in range(1, 13)]
    elif kind == "shared":
        pts = [(Fraction(1 + k % 2, 2),) + tuple(
            Fraction((k * (i + 2)) % 7 + 1, 7) for i in range(d - 1))
            for k in range(14)]
    else:  # 4^3 points in 3-D, to keep the pair-sum oracle short
        pts = list(itertools.product(
            *[[fifth * k for k in range(1, 6 if d < 3 else 5)]] * d))
    ws = [k % 4 + 1 for k in range(len(pts))]
    return pts, [Fraction(w, sum(ws)) for w in ws]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["collinear", "shared", "lattice"])
def test_batched_ball_masses_on_explicit_sets(kind, d):
    # on the 1/5 lattice the radii 1/5, 2/5 and 1 put atoms exactly on the
    # sphere (1 also at the offset (3/5, 4/5)); centres on the atoms, off
    # them and at the unit cube's far corner
    pts, ws = _atom_set(kind, d)
    mu = DyadicMeasureTree.atomic(pts, ws, d, 4)
    centres = pts + [tuple(Fraction(k, 10) for k in (3, 5, 9)[:d]),
                     tuple(Fraction(1, 2) for _ in range(d)),
                     (Fraction(1, 1),) * d]
    radii = [Fraction(0), Fraction(1, 12), Fraction(1, 7), Fraction(1, 5),
             Fraction(2, 5), Fraction(1, 2), Fraction(1), Fraction(2)]
    _check_batched_ball_masses(mu, centres, radii)


def test_ball_masses_reject_what_the_one_centre_call_rejects():
    mu = DyadicMeasureTree.atomic([(Fraction(1, 4), Fraction(1, 2))], [1],
                                  2, 3)
    assert mu.ball_masses_atoms([], Fraction(1, 2)) == ([], 1)
    with pytest.raises(ValidationError, match="point dimension mismatch"):
        mu.ball_masses_atoms([(Fraction(1, 4), Fraction(1, 2)),
                              (Fraction(1, 4),)], 1)
    with pytest.raises(ValidationError, match="radius must be >= 0"):
        mu.ball_masses_atoms(None, Fraction(-1, 2))
    with pytest.raises(UnsupportedModelError):
        uniform_cantor(3).ball_masses_atoms(None, 1)


@pytest.mark.parametrize("make", [
    lambda: DyadicSetTree.full(1, 6),
    lambda: cantor_tree(8),
    lambda: DyadicSetTree.from_codes(1, 9, [0, 5, 300, 301, 511]),
    lambda: DyadicSetTree.from_digit_ifs(2, 1, [0, 1, 2], 4),
    lambda: DyadicSetTree.from_digit_ifs(2, 1, [3], 3),  # odd corners only
    lambda: DyadicSetTree.from_codes(2, 5, [3, 12, 200, 201, 1023]),
    lambda: DyadicSetTree.full(3, 2),
    lambda: DyadicSetTree.from_codes(3, 3, [0, 7, 63, 64, 511]),
], ids=["full1-6", "cantor-8", "codes1-9", "sierpinski-4", "corner2-3",
        "codes2-5", "full3-2", "codes3-3"])
def test_net_measure_is_atomic_on_the_representatives(make, tmp_path):
    # the net built from the level's keys is atomic() on the level's upper
    # corners with equal weights, field by field and byte for byte in its
    # file; its q is the lcm of the corners' reduced denominators
    tree = make()
    for n in range(tree.max_depth + 1):
        net = oracle_representatives(tree, n)
        want = DyadicMeasureTree.atomic(net, [Fraction(1, len(net))] * len(
            net), tree.d, n)
        got = net_measure(tree, n)
        assert got.support.levels == want.support.levels
        assert got.support.meta == want.support.meta
        assert got.tables == want.tables
        assert got.meta == want.meta == {"kind": "atomic"}
        assert got.atoms == want.atoms == [
            (p, Fraction(1, len(net))) for p in sorted(net)]
        q = math.lcm(*(c.denominator for p in net for c in p))
        assert got._atom_ints == want._atom_ints
        assert got._atom_ints[0] == q
        assert got._atom_ints[1] == [tuple(c.numerator * (q // c.denominator)
                                           for c in p) for p in sorted(net)]
        io.save_json(got, tmp_path / "got.json")
        io.save_json(want, tmp_path / "want.json")
        assert ((tmp_path / "got.json").read_bytes()
                == (tmp_path / "want.json").read_bytes())
        got.validate()
        assert got.dyadic_correlation_sum(n) == Fraction(1, len(net))
    with pytest.raises(ValidationError, match="level out of range"):
        net_measure(tree, tree.max_depth + 1)


# rational unit vectors: an atom at x + r u lies exactly on the sphere of
# radius r about x
_UNIT_VECTORS = {
    1: [(1,), (-1,)],
    2: [(1, 0), (0, -1), (Fraction(3, 5), Fraction(4, 5)),
        (Fraction(-4, 5), Fraction(3, 5)), (Fraction(5, 13), Fraction(-12, 13))],
    3: [(1, 0, 0), (0, 0, -1), (Fraction(2, 3), Fraction(2, 3), Fraction(1, 3)),
        (Fraction(-2, 3), Fraction(1, 3), Fraction(-2, 3)),
        (Fraction(3, 5), 0, Fraction(-4, 5))],
}


@st.composite
def _sphere_cases(draw):
    """(atoms in the order drawn, centre x, radius r) in d = 1, 2, 3:
    random atoms, atoms exactly on the sphere of radius r about x and, when
    drawn, one at x itself, shuffled, so they come out of order. x lies in
    [1/3, 2/3]^d and r in (0, 1/4], so every atom lies in (0, 1]^d."""
    d = draw(st.sampled_from([1, 2, 3]))
    x = tuple(Fraction(draw(st.integers(4, 8)), 12) for _ in range(d))
    r = Fraction(draw(st.integers(1, 6)), draw(st.sampled_from([24, 25, 26])))
    pts = draw(st.lists(st.tuples(*[COORDS] * d), max_size=8))
    pts += [tuple(c + r * u for c, u in zip(x, v)) for v in draw(
        st.lists(st.sampled_from(_UNIT_VECTORS[d]), min_size=1, max_size=4))]
    if draw(st.booleans()):
        pts.append(x)
    pts = draw(st.permutations(pts))
    ws = draw(st.lists(st.integers(1, 9), min_size=len(pts),
                       max_size=len(pts)))
    return [(p, Fraction(w, sum(ws))) for p, w in zip(pts, ws)], x, r


@settings(max_examples=200, deadline=None, database=None)
@given(_sphere_cases(), st.integers(0, 5))
@example(([((Fraction(1, 4),), Fraction(1, 3)), ((Fraction(3, 4),),
                                                  Fraction(2, 3))],
          (Fraction(1, 2),), Fraction(1, 4)), 2)
def test_atom_windows_match_brute_force(case, depth):
    # ball masses and pair sums on ints, through the sorted first-axis
    # windows, equal the scans of every atom and every pair: at centres on
    # an atom and off the atoms, with atoms exactly on the sphere (and
    # pairs exactly r apart), for atomic() (sorted, merged) and for the
    # same atoms in the order given, as a measure file keeps them
    atoms, x, r = case
    d = len(x)
    assert any(squared_distance(p, x) == r * r for p, _ in atoms)
    mu = DyadicMeasureTree.atomic([p for p, _ in atoms],
                                  [w for _, w in atoms], d, depth)
    as_given = from_masses(
        mu.support, [dict(mu.level_masses(n)) for n in range(depth + 1)],
        "atoms", atoms)
    # eps is below one step of the atoms' grid and off it: a centre
    # rr + eps from an atom along the first axis has that atom just outside
    # the window, one grid step inside the bisect's rounding
    eps = Fraction(1, 97 * math.lcm(*(c.denominator for p, _ in atoms
                                      for c in p)))
    for m in (mu, as_given):
        for rr in (r, 2 * r, r / 3, r * Fraction(99, 100)):
            near = [(p[0] + t * (rr + eps),) + p[1:]
                    for p, _ in atoms[:3] for t in (1, -1)]
            for c in [x] + [p for p, _ in atoms] + near:
                assert m.ball_mass_atoms(c, rr) == atom_ball_mass(atoms, c,
                                                                  rr)
            b = m.ball_correlation_bracket(rr)
            assert b.lower == b.upper == atom_pair_sum(atoms, rr)
            assert b.cap_level == depth


@st.composite
def _atomic_inputs(draw):
    """(points, weights, d, depth) for atomic(): valid, or with a drawn
    defect of the atoms, of d or depth, or of both."""
    d = draw(st.sampled_from([1, 2, 3]))
    pts = draw(st.lists(st.tuples(*[COORDS] * d), min_size=1, max_size=8))
    pts += draw(st.lists(st.sampled_from(pts), max_size=3))  # coincident
    ws = draw(st.lists(st.integers(1, 9), min_size=len(pts),
                       max_size=len(pts)))
    ws = [Fraction(w, sum(ws)) for w in ws]
    depth = draw(st.integers(0, 5))
    i = draw(st.integers(0, len(pts) - 1))
    defect = draw(st.sampled_from([None, "length", "empty", "weight", "sum",
                                   "dimension", "zero", "above_one"]))
    dims = draw(st.sampled_from([None, None, "d0", "depth", "wide"]))
    if defect == "length":
        ws = ws[:-1] if draw(st.booleans()) else ws + ws[:1]
    elif defect == "empty":
        pts, ws = [], []
    elif defect == "weight":  # zero or negative, the total kept at 1
        j = (i + 1) % len(ws)
        w = draw(st.sampled_from([Fraction(0), -Fraction(1, 7)]))
        ws[j] += ws[i] - w
        ws[i] = w
    elif defect == "sum":
        ws[i] *= 2
    elif defect == "dimension":
        pts[i] = pts[i] + (Fraction(1, 2),) if draw(st.booleans()) \
            else pts[i][1:]
    elif defect in ("zero", "above_one"):
        bad = Fraction(0) if defect == "zero" else Fraction(13, 12)
        pts[i] = (bad,) + pts[i][1:]
    if dims == "d0":
        d = 0
        if draw(st.booleans()):  # points of dimension 0 as well
            pts = [() for _ in pts]
    elif dims == "depth":
        depth = -draw(st.integers(1, 3))
    elif dims == "wide":  # keys beyond 2^62
        depth = 62 // d + draw(st.integers(1, 3))
    return pts, ws, d, depth


@settings(max_examples=300, deadline=None, database=None)
@given(_atomic_inputs())
@example(([(), ()], [Fraction(1, 2)] * 2, 0, 3))
@example(([(Fraction(1, 2),)], [Fraction(1)], 1, 63))
@example(([(Fraction(1, 2), Fraction(1, 3))], [Fraction(1)], 2, 32))
@example(([], [], 1, -1))
def test_atomic_matches_fraction_oracle(case):
    # the int construction gives the Fraction construction's atom list,
    # tables and support, and the same ValidationError for each defect
    pts, ws, d, depth = case
    want = oracle_atomic(pts, ws, d, depth)
    if isinstance(want, str):
        with pytest.raises(ValidationError, match=f"^{re.escape(want)}$"):
            DyadicMeasureTree.atomic(pts, ws, d, depth)
        return
    atoms, masses, levels = want
    mu = DyadicMeasureTree.atomic(pts, ws, d, depth)
    assert mu.atoms == atoms
    assert mu.support.levels == levels
    assert [dict(mu.level_masses(n)) for n in range(depth + 1)] == masses
    mu.validate()


def test_atomic_seeds_its_int_atoms(monkeypatch):
    # atomic() checks its atoms on ints once and keeps them, merged, sorted
    # and in lowest terms, for the exact queries; a measure whose atom list
    # comes another way (from_masses, or a file, in any order) is converted
    # to the same ints once
    calls = []
    real = measure._int_atoms

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(measure, "_int_atoms", counting)
    a, b = (Fraction(3, 4), Fraction(1, 2)), (Fraction(1, 4), Fraction(1, 3))
    quarter = Fraction(1, 4)
    mu = DyadicMeasureTree.atomic([a, b, a], [quarter, 2 * quarter, quarter],
                                  2, 4)
    assert mu.atoms == [(b, Fraction(1, 2)), (a, Fraction(1, 2))]
    assert mu.ball_mass_atoms(a, Fraction(1, 8)) == Fraction(1, 2)
    assert len(calls) == 1
    seeded = mu._atom_ints
    # (q, points, weight numerators, wden): wden reduced from 4
    assert seeded == (12, [(3, 4), (9, 6)], [1, 1], 2)
    as_given = from_masses(
        mu.support, [dict(mu.level_masses(n)) for n in range(5)], "atoms",
        mu.atoms[::-1])
    assert as_given._atom_ints == seeded
    # a measure loaded from a file checks its atoms once, as it loads, and
    # keeps the ints for its queries
    calls.clear()
    loaded = io.measure_from_dict(io.measure_to_dict(mu))
    assert loaded.ball_mass_atoms(a, Fraction(1, 8)) == Fraction(1, 2)
    assert len(calls) == 1
    assert loaded._atom_ints == seeded


def test_ball_brackets_build_each_level_row_index_once(monkeypatch):
    # a level's row index depends only on the measure and the level: the
    # radii 2^-4..2^-10 at extra_depth 4 sum at levels 8, 9 and then 10
    # five times, and the index of each level is built once
    calls = []
    real = measure._level_rows

    def counting(keys, nums, m, d):
        calls.append(m)
        return real(keys, nums, m, d)

    monkeypatch.setattr(measure, "_level_rows", counting)
    mu = DyadicMeasureTree.uniform_on_set(DyadicSetTree.full(1, 10))
    radii = [Fraction(1, 1 << k) for k in range(4, 11)]
    pair = correlation_predicates(mu, 1, radii)["pair-integral"]
    assert len(pair.records) == 7
    assert calls == [8, 9, 10]


def counted_parent_runs(monkeypatch):
    """(calls, the real function): DyadicSetTree.parent_runs patched to
    record in calls each tree its cached property's function runs on."""
    calls = []
    real = DyadicSetTree.parent_runs.func

    def counting(tree):
        calls.append(tree)
        return real(tree)

    runs = functools.cached_property(counting)
    runs.__set_name__(DyadicSetTree, "parent_runs")
    monkeypatch.setattr(DyadicSetTree, "parent_runs", runs)
    return calls, real


def test_sandwich_builds_parent_runs_once(monkeypatch):
    # the uniform and the 100 random-split measures of one tree split its
    # levels along the same parent runs, built once for the tree
    calls, _ = counted_parent_runs(monkeypatch)
    tree = cantor_tree(12)
    rep = correlation_sandwich(tree, range(4, 13), n_random=100)
    assert rep["ok"] and len(rep["rows"]) == 9 * 102
    assert len(calls) == 1 and calls[0] is tree


def test_loaded_set_groups_its_levels_once(monkeypatch, tmp_path):
    # loading the depth-24 sweep set derives its levels from the leaves
    # and groups each level under its parents in the same pass, without
    # validate(); the uniform split, the inequality report (its packing
    # threshold) and a validation read those runs, so the cached
    # property's function never runs
    calls, real = counted_parent_runs(monkeypatch)
    validated, real_validate = [], DyadicSetTree.validate
    monkeypatch.setattr(DyadicSetTree, "validate", lambda tree: (
        validated.append(tree), real_validate(tree))[1])
    plan = constructions.sweep_plan(Fraction(2, 5), Fraction(7, 10))
    path = tmp_path / "sweep.json"
    io.save_json(constructions.sweep_set(plan, 24), path)
    tree = io.load_json(path)
    assert sum(map(len, tree.levels)) == 20575 and validated == []
    mu = DyadicMeasureTree.uniform_on_set(tree)
    rep = inequality_report(tree, [mu])  # what verify ineq-chain runs
    assert rep.ok and rep.estimates["packing_threshold"] == Fraction(1, 5)
    tree.validate()
    mu.validate()
    assert calls == [] and tree.parent_runs == real(tree)


def test_bottom_up_trees_are_grouped_once(monkeypatch):
    # atomic, net, anti-Frostman and stage measures take their supports
    # from from_leaves, whose one pass groups every level under its
    # parents; their sums, their ball checks and their validation read
    # those runs, so the cached property's function never runs
    calls, _ = counted_parent_runs(monkeypatch)
    pts = [(Fraction(k, 7), Fraction(k * k % 7 + 1, 7)) for k in range(1, 8)]
    atoms = DyadicMeasureTree.atomic(pts + pts[:2], [Fraction(1, 9)] * 9, 2, 6)
    tree = cantor_tree(10)
    net = net_measure(tree, 8)
    heavy = anti_frostman_check(tree, [2, 4, 6, 8, 10])
    assert heavy["ok"]
    full = DyadicSetTree.full(1, 10)
    stages, rep = constructions.stagewise_frostman_measures(
        full, Fraction(1, 2), [pow2(-(k + 2)) for k in range(11)])
    assert len(stages) > 1
    assert constructions.verify_stage_balls(stages, rep)["ok"]
    for mu in [atoms, net, heavy["measure"], *stages]:
        mu.validate()
    assert calls == []


@pytest.mark.parametrize("atoms, message", [
    ([((Fraction(1, 4),), Fraction(1, 3)), ((Fraction(3, 4),), Fraction(2, 3)),
      ((Fraction(3, 4),), Fraction(0))], "atom weights must be positive"),
    ([((Fraction(1, 4),), Fraction(1, 3)), ((Fraction(3, 4),), Fraction(1, 3))],
     "atom weights must sum to 1"),
    ([((Fraction(1, 4),), Fraction(1, 3)), ((Fraction(3, 2),), Fraction(2, 3))],
     "atom outside the half-open unit cube"),
    ([((Fraction(1, 4),), Fraction(1, 3)), ((Fraction(3, 4), Fraction(1)),
                                            Fraction(2, 3))],
     "atom outside the half-open unit cube"),
    ([((Fraction(1, 4),), Fraction(2, 3)), ((Fraction(3, 4),), Fraction(1, 3))],
     "atoms inconsistent with leaf masses"),
    ([], "points/weights length mismatch or empty"),
])
def test_atom_list_validation(atoms, message):
    # a measure file's atom list is checked on ints as atomic() checks it,
    # and must sum to the stored tables
    mu = DyadicMeasureTree.atomic([(Fraction(1, 4),), (Fraction(3, 4),)],
                                  [Fraction(1, 3), Fraction(2, 3)], 1, 3)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        from_masses(
            mu.support, [dict(mu.level_masses(n)) for n in range(4)],
            "atoms", atoms)
