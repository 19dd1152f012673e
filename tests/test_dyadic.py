"""Unit tests for Morton keys and exact cube geometry."""

import random
from fractions import Fraction

import pytest

from dimlab.dyadic import (cube_of_point, deinterleave, interleave,
                           offset_bounds, step_axis)
from dimlab.exact import ValidationError, pow2
from oracles import bitwise_deinterleave, cube_pair_geometry


class TestInterleave:
    def test_axis_zero_takes_the_high_bit(self):
        assert interleave((1, 0), 1) == 0b10
        assert interleave((0, 1), 1) == 0b01
        assert interleave((1, 1), 1) == 0b11

    def test_two_levels_two_axes(self):
        # per level the d bits are packed axis 0 first (most significant)
        assert interleave((0b10, 0b01), 2) == 0b10_01
        assert interleave((0b11, 0b00), 2) == 0b10_10

    def test_one_dimension_is_identity(self):
        for j in range(16):
            assert interleave((j,), 4) == j
            assert deinterleave(j, 4, 1) == (j,)

    def test_round_trip_random(self):
        rng = random.Random(11)
        for _ in range(300):
            d = rng.randrange(1, 5)
            n = rng.randrange(0, 10)
            idx = tuple(rng.randrange(0, 1 << n) for _ in range(d))
            key = interleave(idx, n)
            assert 0 <= key < (1 << (d * n))
            assert deinterleave(key, n, d) == idx


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_deinterleave_matches_bitwise_oracle(d):
    # every level up to 62 key bits: keys 0 and 2^(d level) - 1, and random
    # keys in between
    rng = random.Random(d)
    for n in range(62 // d + 1):
        top = (1 << (d * n)) - 1
        for key in [0, top] + [rng.randint(0, top) for _ in range(50)]:
            assert deinterleave(key, n, d) == bitwise_deinterleave(key, n, d)


def _stepped(key, n, d, axis):
    """The step's reference: decode, add e_axis, interleave over n + 1
    digit groups (so index 2^n, off the top face, keeps its carry)."""
    idx = list(deinterleave(key, n, d))
    idx[axis] += 1
    return interleave(tuple(idx), n + 1)


class TestStepAxis:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_every_key_of_small_levels(self, d):
        # levels 0..3 take in the top face, idx_j = 2^n - 1, whose carry
        # leaves the level (at n = 0 the root's one cube is all top face)
        for n in range(4):
            keys = list(range(1 << (d * n)))
            for axis in range(d):
                assert step_axis(keys, n, d, axis) == [
                    _stepped(k, n, d, axis) for k in keys]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_random_keys_at_level_20(self, d):
        rng = random.Random(20 + d)
        n, top = 20, (1 << 20) - 1
        keys = [rng.getrandbits(d * n) for _ in range(200)]
        # cubes on the top face of each axis, and the last cube
        keys += [interleave(tuple(top if i == j else rng.randrange(top)
                                  for i in range(d)), n) for j in range(d)]
        keys.append((1 << (d * n)) - 1)
        for axis in range(d):
            assert step_axis(keys, n, d, axis) == [
                _stepped(k, n, d, axis) for k in keys]

    def test_steps_compose_across_axes(self):
        # a key already stepped off the top face of one axis steps on
        # along another, as the ball cover's blocks do
        n, d = 3, 3
        keys = list(range(1 << (d * n)))
        got = step_axis(step_axis(keys, n, d, 0), n, d, 2)
        want = []
        for k in keys:
            idx = list(deinterleave(k, n, d))
            idx[0] += 1
            idx[2] += 1
            want.append(interleave(tuple(idx), n + 1))
        assert got == want
        assert len(set(got)) == len(keys)

    def test_reads_a_dicts_keys(self):
        keys = {interleave((1, 2), 2): 5, interleave((3, 3), 2): 7}
        assert step_axis(keys, 2, 2, 1) == [interleave((1, 3), 3),
                                            interleave((3, 4), 3)]


class TestCubeOfPoint:
    def test_scalar_becomes_1d(self):
        assert cube_of_point(Fraction(3, 10), 2) == 1

    def test_tuple_point(self):
        assert cube_of_point((Fraction(3, 10), 1), 2) == interleave((1, 3), 2)

    def test_cube_contains_its_point(self):
        rng = random.Random(3)
        for _ in range(100):
            d = rng.randrange(1, 4)
            p = tuple(Fraction(rng.randrange(1, 1000), 1000) for _ in range(d))
            idx = deinterleave(cube_of_point(p, 5), 5, d)
            # half-open: (j * side, (j + 1) * side] on every axis
            assert all(Fraction(j, 32) < x <= Fraction(j + 1, 32)
                       for x, j in zip(p, idx))

    def test_rejects_zero_coordinate(self):
        with pytest.raises(ValidationError):
            cube_of_point((0, Fraction(1, 2)), 3)


def test_offset_bounds_hand_values():
    # no axes; one cube with itself; touching, then separated neighbours
    assert offset_bounds(()) == (0, 0)
    assert offset_bounds((0, 0)) == (0, 2)
    assert offset_bounds((1,)) == (0, 4)
    assert offset_bounds((1, 1)) == (0, 8)
    assert offset_bounds((3, 0)) == (4, 17)
    assert offset_bounds((2, 5, 0)) == (17, 46)


class TestCubePairGeometry:
    """The closure-distance oracle that offset_bounds and the pair brackets
    are checked against."""

    def test_identical_cube(self):
        c = (2, (1, 2))
        g = cube_pair_geometry(c, c)
        assert g.min_dist_sq == 0
        assert g.max_dist_sq == 2 * Fraction(1, 16)

    def test_adjacent_intervals_touch(self):
        a = (1, (0,))
        b = (1, (1,))
        g = cube_pair_geometry(a, b)
        assert g.min_dist_sq == 0  # closures touch at 1/2
        assert g.max_dist_sq == 1

    def test_separated_intervals(self):
        a = (2, (0,))
        b = (2, (3,))
        g = cube_pair_geometry(a, b)
        assert g.min_dist_sq == Fraction(4, 16)
        assert g.max_dist_sq == 1

    def test_diagonal_neighbours_in_2d(self):
        a = (1, (0, 0))
        b = (1, (1, 1))
        g = cube_pair_geometry(a, b)
        assert g.min_dist_sq == 0
        assert g.max_dist_sq == 2

    def test_cross_level_containment(self):
        big = (0, (0, 0))
        small = (3, (5, 1))
        g = cube_pair_geometry(big, small)
        assert g.min_dist_sq == 0
        # farthest pair per axis: lo of big to hi of small or vice versa
        assert g.max_dist_sq == Fraction(36 + 49, 64)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cube_pair_geometry((1, (0,)), (1, (0, 0)))

    def test_symmetry_random(self):
        rng = random.Random(23)
        for _ in range(100):
            d = rng.randrange(1, 4)
            la, lb = rng.randrange(0, 5), rng.randrange(0, 5)
            a = (la, tuple(rng.randrange(1 << la) for _ in range(d)))
            b = (lb, tuple(rng.randrange(1 << lb) for _ in range(d)))
            g1 = cube_pair_geometry(a, b)
            g2 = cube_pair_geometry(b, a)
            assert g1.min_dist_sq == g2.min_dist_sq
            assert g1.max_dist_sq == g2.max_dist_sq
            assert g1.min_dist_sq <= g1.max_dist_sq


def test_offset_bounds_matches_geometry():
    rng = random.Random(5)
    for _ in range(200):
        d = rng.randrange(1, 4)
        n = rng.randrange(0, 6)
        ja = tuple(rng.randrange(1 << n) for _ in range(d))
        jb = tuple(rng.randrange(1 << n) for _ in range(d))
        gaps, reach = offset_bounds([abs(a - b) for a, b in zip(ja, jb)])
        g = cube_pair_geometry((n, ja), (n, jb))
        assert g.min_dist_sq == gaps * pow2(-2 * n)
        assert g.max_dist_sq == reach * pow2(-2 * n)

