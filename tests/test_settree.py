"""Unit tests for cube-family trees and their symbolic level counts."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimlab.exact import UnavailableError, ValidationError
from dimlab.measure import _net
from dimlab.settree import (
    DyadicSetTree,
    GeometricCounts,
    Segment,
    SegmentCounts,
    SymbolicCounts,
    _check_cubes,
)
from oracles import (first_key_defect, first_nesting_defect,
                     oracle_digit_ifs_level, oracle_levels_from_deepest)


def cantor_tree(depth):
    """Middle-half Cantor set: keep the first and last quarter."""
    return DyadicSetTree.from_digit_ifs(1, group=2, keep=[0, 3], depth=depth)


def cantor_keys_oracle(n):
    """Level-n keys of the middle-half Cantor set, derived directly from
    base-4 digit strings over {0, 3} (independent of the tree code)."""
    pairs = n // 2
    keys = [0]
    for _ in range(pairs):
        keys = [(k << 2) | q for k in keys for q in (0, 3)]
    if n % 2:
        keys = [(k << 1) | b for k in keys for b in (0, 1)]
    return sorted(keys)


class TestFullTree:
    def test_counts(self):
        t = DyadicSetTree.full(2, 4)
        for n in range(5):
            assert t.box_count(n) == 1 << (2 * n)

    def test_symbolic_extends_past_depth(self):
        t = DyadicSetTree.full(1, 5)
        assert t.box_count(100) == 1 << 100

    def test_validate(self):
        DyadicSetTree.full(3, 3).validate()

    def test_negative_level_rejected(self):
        with pytest.raises(ValidationError):
            DyadicSetTree.full(1, 4).box_count(-1)


class TestDigitIfs:
    def test_cantor_levels_match_oracle(self):
        t = cantor_tree(10)
        for n in range(11):
            assert t.levels[n] == cantor_keys_oracle(n)

    def test_cantor_counts(self):
        t = cantor_tree(8)
        for k in range(5):
            assert t.box_count(2 * k) == 1 << k
            if 2 * k + 1 <= 8:
                assert t.box_count(2 * k + 1) == 1 << (k + 1)

    def test_cantor_symbolic_counts(self):
        t = cantor_tree(6)
        assert t.box_count(20) == 1 << 10
        assert t.box_count(21) == 1 << 11

    def test_meta_dimension(self):
        # log2(branch) / group in every d: the digit rule keeps `branch`
        # of the level-(a * group) cubes' descendants `group` levels down
        assert cantor_tree(4).meta["dimension"] == 0.5
        for d, group, keep in [(2, 1, [0, 1, 2]), (2, 2, [0, 5, 15]),
                               (3, 1, range(8))]:
            t = DyadicSetTree.from_digit_ifs(d, group, keep, depth=4)
            assert t.meta["dimension"] == math.log2(len(keep)) / group
        quad = DyadicSetTree.from_digit_ifs(2, group=1, keep=[0, 3], depth=4)
        assert quad.meta["dimension"] == 1.0

    def test_2d_quadrant_rule(self):
        # keep the (0,0) and (1,1) quadrants at every level
        t = DyadicSetTree.from_digit_ifs(2, group=1, keep=[0, 3], depth=5)
        for n in range(6):
            assert t.box_count(n) == 1 << n
        assert t.levels[1] == [0, 3]
        t.validate()

    def test_rejects_bad_patterns(self):
        with pytest.raises(ValidationError):
            DyadicSetTree.from_digit_ifs(1, group=2, keep=[], depth=4)
        with pytest.raises(ValidationError):
            DyadicSetTree.from_digit_ifs(1, group=2, keep=[4], depth=4)
        with pytest.raises(ValidationError):
            DyadicSetTree.from_digit_ifs(1, group=0, keep=[0], depth=4)

    def test_validate_accepts_ifs(self):
        cantor_tree(9).validate()

    @settings(max_examples=150, deadline=None, database=None)
    @given(st.data())
    def test_from_digit_ifs_matches_oracle(self, data):
        # full, sparse and single-pattern keep sets in d = 1..3 with group
        # 1..3, against a filter of every key, with d * depth <= 12
        d = data.draw(st.integers(1, 3))
        group = data.draw(st.integers(1, 3))
        top = 1 << (d * group)
        keep = data.draw(st.one_of(
            st.just(list(range(top))),
            st.lists(st.integers(0, top - 1), min_size=1, max_size=12)))
        depth = data.draw(st.integers(0, 12 // d))
        tree = DyadicSetTree.from_digit_ifs(d, group, keep, depth)
        assert tree.levels == [oracle_digit_ifs_level(d, group, keep, n)
                               for n in range(depth + 1)]
        assert [tree.symbolic.count(n) for n in range(depth + 1)] == \
            list(map(len, tree.levels))


class TestFromPointsAndKeys:
    def test_two_points(self):
        t = DyadicSetTree.from_points([(Fraction(1, 4),), (Fraction(1),)], 1, 2)
        assert t.levels == [[0], [0, 1], [0, 3]]

    def test_ancestors_fill_in(self):
        t = DyadicSetTree.from_codes(1, 3, [5])
        assert t.levels == [[0], [1], [2], [5]]
        t.validate()

    def test_key_out_of_range(self):
        with pytest.raises(ValidationError):
            DyadicSetTree.from_codes(1, 3, [-1])
        with pytest.raises(ValidationError):
            DyadicSetTree.from_codes(1, 3, [8])  # 8 = 2^(d*depth)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            DyadicSetTree.from_codes(1, 3, [])

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.data())
    def test_from_codes_matches_oracle(self, data):
        # unsorted key families with duplicates in d = 1..3: the levels are
        # the sorted ancestors of the distinct keys, and the runs filled in
        # on the way up are those the cached property builds
        d = data.draw(st.integers(1, 3))
        depth = data.draw(st.integers(0, (10, 6, 4)[d - 1]))
        keys = data.draw(st.lists(st.integers(0, (1 << (d * depth)) - 1),
                                  min_size=1, max_size=40))
        keys = data.draw(st.permutations(
            keys + data.draw(st.lists(st.sampled_from(keys), max_size=8))))
        tree = DyadicSetTree.from_codes(d, depth, keys)
        assert tree.levels == oracle_levels_from_deepest(d, depth, keys)
        assert tree.parent_runs == DyadicSetTree.parent_runs.func(tree)
        tree.validate()

    def test_leaf_defects_give_validate_text(self):
        # from_leaves takes sorted leaves as they are: a key out of range
        # or order raises the text validate() gives for it at the deepest
        # level
        rng = random.Random(41)
        for _ in range(300):
            d, depth = rng.choice([1, 2, 3]), rng.randint(1, 4)
            top = 1 << (d * depth)
            leaves = sorted(rng.sample(range(top), rng.randint(1, min(8, top))))
            i = rng.randrange(len(leaves))
            kind = rng.choice(["range", "duplicate", "swap"])
            if kind == "range":
                leaves[i] = rng.choice([-1 - rng.randrange(top),
                                        top + rng.randrange(top)])
            elif kind == "duplicate" or len(leaves) == 1:
                leaves.insert(i, leaves[i])
            else:
                j = min(i, len(leaves) - 2)
                leaves[j], leaves[j + 1] = leaves[j + 1], leaves[j]
            want = first_key_defect([[]] * depth + [leaves], d)
            with pytest.raises(ValidationError) as err:
                DyadicSetTree.from_leaves(d, depth, leaves)
            assert str(err.value) == want
        for d, depth, leaves in ((1, 3, []), (0, 3, [1]), (1, -1, [0])):
            with pytest.raises(ValidationError):
                DyadicSetTree.from_leaves(d, depth, leaves)
        # the 62-bit key budget binds what is built, not what is loaded
        with pytest.raises(ValidationError, match="d\\*depth <= 62"):
            DyadicSetTree.from_codes(2, 32, [0])
        assert DyadicSetTree.from_leaves(2, 32, [0]).box_count(32) == 1

    def test_point_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            DyadicSetTree.from_points([(Fraction(1, 2), Fraction(1, 2))], 1, 3)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValidationError):
            DyadicSetTree.from_points([(Fraction(1, 2),)], 1, -1)


class TestValidate:
    def test_orphan_is_caught(self):
        bad = DyadicSetTree(1, 2, [[0], [0], [0, 2]], None, {})
        with pytest.raises(ValidationError,
                           match="cube 2 at level 2 has unselected parent"):
            bad.validate()

    def test_childless_cube_is_caught(self):
        bad = DyadicSetTree(1, 2, [[0], [0, 1], [0]], None, {})
        with pytest.raises(ValidationError,
                           match="cube 1 at level 1 has no selected child"):
            bad.validate()

    def test_unsorted_level_is_caught(self):
        bad = DyadicSetTree(1, 1, [[0], [1, 0]], None, {})
        with pytest.raises(ValidationError,
                           match="^level 1 keys not strictly sorted$"):
            bad.validate()

    def test_key_out_of_range_is_caught(self):
        bad = DyadicSetTree(1, 1, [[0], [2]], None, {})
        with pytest.raises(ValidationError,
                           match="^key 2 out of range at level 1$"):
            bad.validate()

    def test_key_defects_match_first_defect_oracle(self):
        # one to three defects injected into valid levels; the message names
        # the first one, level by level and in list order, as the oracle's
        # scan of every key does
        def inject(levels, d, rng):
            n = rng.randint(1, len(levels) - 1)
            keys, top = levels[n], 1 << (d * n)
            i = rng.randrange(len(keys))
            kind = rng.choice(["negative", "past-end", "past-middle",
                               "duplicate", "swap"])
            if kind == "negative":
                keys[i] = -rng.randint(1, top)
            elif kind == "past-end":
                keys[-1] = top + rng.randrange(top)
            elif kind == "past-middle":
                keys[i] = top + rng.randrange(top)
            elif kind == "duplicate" or len(keys) == 1:
                keys.insert(i, keys[i])
            else:
                j = rng.randrange(len(keys) - 1)
                keys[j], keys[j + 1] = keys[j + 1], keys[j]

        rng = random.Random(23)
        checked = 0
        for _ in range(600):
            d, depth = rng.choice([1, 2, 3]), rng.randint(1, 5)
            top = 1 << (d * depth)
            keys = rng.sample(range(top), rng.randint(1, min(12, top)))
            levels = DyadicSetTree.from_codes(d, depth, keys).levels
            for _ in range(rng.randint(1, 3)):
                inject(levels, d, rng)
            want = first_key_defect(levels, d)
            if want is None:  # a second swap undid the first
                continue
            checked += 1
            with pytest.raises(ValidationError) as err:
                DyadicSetTree(d, depth, levels, None, {}).validate()
            assert str(err.value) == want
        assert checked > 550

    @pytest.mark.parametrize("level, want", [
        ([0, 5, 2, 1], "key 5 out of range at level 1"),  # range first
        ([3, -1, 2], "key -1 out of range at level 1"),  # range, unsorted
        ([2, 1, 3, 7], "level 1 keys not strictly sorted"),  # order first
        ([1, 2, 3, 4], "key 4 out of range at level 1"),  # sorted, last key
        ([-2, 1, 2, 3], "key -2 out of range at level 1"),  # sorted, first
        ([1, 1, 2, 3], "level 1 keys not strictly sorted"),  # duplicate
    ])
    def test_first_key_defect_wins(self, level, want):
        bad = DyadicSetTree(2, 2, [[0], level, [0]], None, {})
        assert first_key_defect(bad.levels, 2) == want
        with pytest.raises(ValidationError) as err:
            bad.validate()
        assert str(err.value) == want

    def test_root_must_be_unit_cube(self):
        bad = DyadicSetTree(1, 1, [[], [0]], None, {})
        with pytest.raises(ValidationError):
            bad.validate()

    def test_nesting_matches_brute_force(self):
        rng = random.Random(13)
        for _ in range(300):
            d, depth = rng.choice([1, 2]), rng.randint(1, 4)
            top = 1 << (d * depth)
            keys = rng.sample(range(top), rng.randint(1, min(6, top)))
            levels = DyadicSetTree.from_codes(d, depth, keys).levels
            n = rng.randint(1, depth)  # drop or add one key at level n
            if len(levels[n]) > 1 and rng.random() < 0.5:
                levels[n].remove(rng.choice(levels[n]))
            else:
                levels[n] = sorted({*levels[n], rng.randrange(1 << (d * n))})
            bad = DyadicSetTree(d, depth, levels, None, {})
            want = first_nesting_defect(levels, d)
            if want is None:
                bad.validate()
            else:
                with pytest.raises(ValidationError, match=want):
                    bad.validate()

    def test_same_length_nesting_defects_match_brute_force(self):
        # one key of a level replaced by another in-range key keeps the
        # level's length, so a one-child level stays one and is compared
        # key by key with the level above; the message is the oracle's
        # whether parent_runs was built before validate() or by it
        rng = random.Random(31)
        one_child = 0
        for _ in range(300):
            d, depth = rng.choice([1, 2]), rng.randint(1, 4)
            top = 1 << (d * depth)
            keys = rng.sample(range(top), rng.randint(1, min(6, top)))
            levels = DyadicSetTree.from_codes(d, depth, keys).levels
            n = rng.randint(1, depth)
            free = sorted(set(range(1 << (d * n))).difference(levels[n]))
            if not free:
                continue
            kept = set(levels[n]) - {rng.choice(levels[n])}
            levels[n] = sorted(kept | {rng.choice(free)})
            want = first_nesting_defect(levels, d)
            one_child += want is not None and (
                len(levels[n]) == len(levels[n - 1])
                or n < depth and len(levels[n + 1]) == len(levels[n]))
            for prebuilt in (False, True):
                bad = DyadicSetTree(d, depth, levels, None, {})
                if prebuilt:
                    assert len(bad.parent_runs) == depth
                if want is None:
                    bad.validate()
                    continue
                with pytest.raises(ValidationError) as err:
                    bad.validate()
                assert str(err.value) == want
        assert one_child > 100


class TestCubeLimit:
    def test_limit_is_two_to_the_24_deepest_cubes(self):
        _check_cubes(GeometricCounts(1, 2, [1]), 24)
        with pytest.raises(UnavailableError, match="level 24 would hold "
                                                   "16777217 cubes"):
            _check_cubes(SegmentCounts([Segment(0, 24, 1, 1)]), 24)

    @pytest.mark.parametrize("build", [
        lambda: DyadicSetTree.full(2, 13),
        lambda: DyadicSetTree.from_digit_ifs(2, 1, [0, 1, 2], 16),
        # 3^15 * 2 cubes: a prefix of the next digit group
        lambda: DyadicSetTree.from_digit_ifs(1, 2, [0, 1, 3], 31),
    ], ids=["full", "ifs", "ifs-prefix"])
    def test_builders_refuse_before_building(self, build):
        with pytest.raises(UnavailableError, match="more than the 16777216"):
            build()


class TestQueries:
    def test_children_keys(self):
        t = cantor_tree(6)
        assert t.children_keys(1, 0) == [0]
        assert t.children_keys(2, 3) == [6, 7]
        assert t.children_keys(6, 0) == []  # deepest level

    def test_descendants(self):
        t = cantor_tree(8)
        assert t.descendant_count(0, 0, 8) == t.box_count(8)
        # brute force against the level lists
        for key in t.levels[2]:
            want = [k for k in t.levels[6] if (k >> 4) == key]
            assert t.descendant_count(2, key, 6) == len(want)

    def test_descendant_bounds(self):
        t = cantor_tree(4)
        with pytest.raises(ValidationError):
            t.descendant_count(3, 0, 2)
        with pytest.raises(UnavailableError):
            t.descendant_count(0, 0, 9)

    def test_box_count_unavailable_without_symbolic(self):
        t = DyadicSetTree.from_points([(Fraction(1, 2),)], 1, 4)
        with pytest.raises(UnavailableError):
            t.box_count(5)

    def test_representatives(self):
        # the level-n net: upper corners on ints over 2^n, 1/4 and 1 here
        t = cantor_tree(4)
        assert _net(t, 2) == [(1,), (4,)]
        assert _net(t, 2, 3) == [(8,), (32,)]  # the same over 2^5


class TestSeparatedNet:
    # the net on ints over 2^n: 2^-n separation is a distance of at least 1
    def test_same_level_representatives_always_qualify(self):
        # distinct level-n corners differ by >= 2^-n somewhere, and exact
        # ties count as separated
        t = cantor_tree(8)
        for n in range(9):
            net = _net(t, n)
            assert len(net) == t.box_count(n)
            for i, p in enumerate(net):
                for q in net[i + 1:]:
                    assert max(abs(a - b) for a, b in zip(p, q)) >= 1

    def test_separation_property(self):
        t = DyadicSetTree.full(2, 3)
        for n in (1, 2, 3):
            net = _net(t, n)
            for i, p in enumerate(net):
                for q in net[i + 1:]:
                    assert sum((a - b) ** 2 for a, b in zip(p, q)) >= 1

    def test_level_out_of_range(self):
        # below 0 the corners would leave the unit cube, and past the
        # deepest level there are no cubes to list
        for n in (-1, 4):
            with pytest.raises(ValidationError):
                _net(cantor_tree(3), n)


class TestSymbolicCounts:
    def test_geometric_prefix_validation(self):
        with pytest.raises(ValidationError):
            GeometricCounts(2, 2, [3, 2])  # prefix_counts[0] must be 1

    def test_geometric_count(self):
        g = GeometricCounts(2, 2, [1, 2])
        assert [g.count(n) for n in range(6)] == [1, 2, 2, 4, 4, 8]
        assert g.covers(10 ** 9)

    def test_segments_must_tile(self):
        a = Segment(0, 4, 0, 1)
        gap = Segment(6, 9, 3, 1)
        with pytest.raises(ValidationError):
            SegmentCounts([a, gap])

    def test_segment_counts_lookup(self):
        # doubling on [0,4], frozen on [5,9]
        segs = SegmentCounts([Segment(0, 4, 0, 1), Segment(5, 9, 15, 1 << 4)])
        assert segs.count(0) == 1
        assert segs.count(4) == 16
        assert segs.count(5) == 16 + 15
        assert segs.covers(9)
        assert not segs.covers(10)
        assert [segs.segment(n).lo for n in (0, 4, 5, 9)] == [0, 0, 5, 5]
        with pytest.raises(UnavailableError):
            segs.segment(10)

    def test_counts_must_be_positive(self):
        for lo, hi, base, coef in ((0, 3, 0, 0), (0, 3, -5, 0),
                                   (0, 3, 2, -1), (4, 3, 1, 0)):
            with pytest.raises(ValidationError):
                Segment(lo, hi, base, coef)
        for prefix_counts in ([1, 0], [1, -3]):
            with pytest.raises(ValidationError):
                GeometricCounts(2, 2, prefix_counts)

    def test_round_trip_both_kinds(self):
        for sym in (GeometricCounts(2, 2, [1, 2]),
                    SegmentCounts([Segment(0, 3, 0, 1)])):
            again = SymbolicCounts.from_dict(sym.to_dict())
            assert type(again) is type(sym)
            for n in range(4):
                assert again.count(n) == sym.count(n)


class TestRandomTrees:
    def test_random_subtree_invariants(self):
        rng = random.Random(19)
        for _ in range(20):
            d = rng.randrange(1, 3)
            depth = rng.randrange(1, 6)
            # random leaf family, then closure under parents
            top = 1 << (d * depth)
            leaves = sorted(rng.sample(range(top), rng.randrange(1, min(top, 12) + 1)))
            t = DyadicSetTree.from_codes(d, depth, leaves)
            t.validate()
            assert t.levels[depth] == leaves
            for n in range(depth):
                keys = {k >> (d * (depth - n)) for k in leaves}
                assert t.levels[n] == sorted(keys)
