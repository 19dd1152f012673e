"""Unit tests for the exact rational helpers."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dimlab.exact import (
    ValidationError,
    cmp_pow2,
    cmp_rpow,
    diameter_level,
    dyadic_index,
    format_rational,
    level_for_radius,
    log2_fraction,
    parse_rational,
    pow2,
    snap_to_dyadic,
    to_fraction,
)
from oracles import (cube_diameter_level, fraction_cmp_pow2,
                     fraction_cmp_rpow, radius_level)


class TestToFraction:
    def test_int_and_fraction_pass_through(self):
        assert to_fraction(7) == Fraction(7)
        f = Fraction(3, 8)
        assert to_fraction(f) is f

    def test_float_converts_to_exact_binary_value(self):
        # 0.1 is not 1/10 in binary; the conversion must keep the float's
        # true value rather than pretty-printing it.
        assert to_fraction(0.1) == Fraction(3602879701896397, 36028797018963968)
        assert to_fraction(0.25) == Fraction(1, 4)

    def test_string_forms(self):
        assert to_fraction("7/10") == Fraction(7, 10)
        assert to_fraction("-3") == Fraction(-3)

    def test_other_rationals_convert(self):
        # numpy integers register as numbers.Integral
        import numpy
        got = to_fraction(numpy.int64(3))
        assert got == 3 and type(got) is Fraction

    def test_rejects_bool_nonfinite_and_junk(self):
        with pytest.raises(ValidationError):
            to_fraction(True)
        with pytest.raises(ValidationError):
            to_fraction(math.inf)
        with pytest.raises(ValidationError):
            to_fraction(math.nan)
        with pytest.raises(ValidationError):
            to_fraction(object())


class TestParseRational:
    def test_basic(self):
        assert parse_rational("2/5") == Fraction(2, 5)
        assert parse_rational(" 7 / 10 ") == Fraction(7, 10)
        assert parse_rational("4") == Fraction(4)

    @pytest.mark.parametrize("bad", ["0.5", "a/b", "1/0", "", "1/2/3"])
    def test_rejects(self, bad):
        with pytest.raises(ValidationError):
            parse_rational(bad)

    def test_format_round_trip(self):
        assert parse_rational(format_rational(Fraction(-9, 4))) == Fraction(-9, 4)
        assert format_rational(2) == "2/1"


def test_pow2():
    assert pow2(0) == 1
    assert pow2(10) == 1024
    assert pow2(-3) == Fraction(1, 8)


class TestCmpPow2:
    def test_integer_exponents(self):
        assert cmp_pow2(Fraction(1, 4), -2) == 0
        assert cmp_pow2(Fraction(1, 4), -3) == 1
        assert cmp_pow2(Fraction(1, 4), -1) == -1

    def test_rational_exponent_vs_sqrt2(self):
        # 3/2 > sqrt(2) since 9/4 > 2, while 7/5 < sqrt(2) since 49/25 < 2
        assert cmp_pow2(Fraction(3, 2), Fraction(1, 2)) == 1
        assert cmp_pow2(Fraction(7, 5), Fraction(1, 2)) == -1

    def test_nonpositive_argument(self):
        assert cmp_pow2(0, -100) == -1
        assert cmp_pow2(Fraction(-1, 2), Fraction(1, 3)) == -1


class TestCmpRpow:
    def test_exact_tie(self):
        # (1/8)^(2/3) = 1/4, so a = 1/4 is <= r^s and a = 1/3 is not
        assert cmp_rpow(Fraction(1, 4), Fraction(1, 8), Fraction(2, 3)) == 0
        assert cmp_rpow(Fraction(1, 3), Fraction(1, 8), Fraction(2, 3)) == 1

    def test_strict_sides(self):
        # (1/3)^(1/2): compare a^2 against 1/3
        assert cmp_rpow(Fraction(4, 7), Fraction(1, 3), Fraction(1, 2)) == -1
        assert cmp_rpow(Fraction(3, 5), Fraction(1, 3), Fraction(1, 2)) == 1

    def test_base_above_one(self):
        # 4^(3/2) = 8
        assert cmp_rpow(9, 4, Fraction(3, 2)) == 1
        assert cmp_rpow(8, 4, Fraction(3, 2)) == 0

    def test_s_zero_compares_against_one(self):
        assert cmp_rpow(Fraction(1, 2), Fraction(1, 7), 0) == -1
        assert cmp_rpow(1, Fraction(1, 7), 0) == 0
        assert cmp_rpow(2, Fraction(1, 7), 0) == 1
        assert cmp_rpow(0, Fraction(1, 7), 0) == -1

    def test_nonpositive_a_with_positive_s(self):
        assert cmp_rpow(0, Fraction(1, 2), Fraction(1, 2)) == -1
        assert cmp_rpow(Fraction(-1, 2), Fraction(1, 3), Fraction(1, 2)) == -1

    def test_rejects_nonpositive_base(self):
        with pytest.raises(ValidationError):
            cmp_rpow(1, 0, Fraction(1, 2))

    def test_agrees_with_float_when_far_from_ties(self):
        vals = [Fraction(1, 3), Fraction(2, 5), Fraction(9, 8), Fraction(5, 1)]
        ss = [Fraction(1, 3), Fraction(7, 10), Fraction(3, 2)]
        for a in vals:
            for r in vals:
                for s in ss:
                    want = float(a) - float(r) ** float(s)
                    if abs(want) > 1e-9:
                        got = cmp_rpow(a, r, s)
                        assert got == (1 if want > 0 else -1)


# numerators from zero and below up past 2^200; exponents p/q with p < 0,
# p = 0 and p > 0, some written "kp/kq" (reducible, as a string)
_NUMS = st.one_of(st.integers(-3, 40), st.integers(2 ** 200, 2 ** 210))
_RATS = st.builds(Fraction, _NUMS,
                  st.one_of(st.integers(1, 40), st.integers(1, 2 ** 70)))
_EXPS = st.builds(lambda p, q, k: f"{k * p}/{k * q}" if k > 1 else
                  Fraction(p, q), st.integers(-40, 40), st.integers(1, 9),
                  st.integers(1, 3))


@st.composite
def _ties(draw):
    """(a, r, s) with a = r**s exactly: r = b**q and a = b**p, s = p/q."""
    b = draw(st.builds(Fraction, st.integers(1, 2 ** 70), st.integers(1, 99)))
    p, q = draw(st.integers(-12, 12)), draw(st.integers(1, 6))
    return b ** p, b ** q, Fraction(p, q)


@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(st.tuples(_RATS, _RATS.filter(lambda r: r > 0), _EXPS),
                 _ties()))
@example((Fraction(0), Fraction(1, 7), Fraction(0)))
@example((Fraction(1), Fraction(1, 7), Fraction(0)))
@example((Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 2)))
@example((Fraction(-3), Fraction(1, 7), Fraction(1, 2)))
@example((Fraction(4), Fraction(1, 8), Fraction(-2, 3)))
@example((Fraction(2 ** 201 + 1, 3), Fraction(2 ** 203, 5), Fraction(7, 4)))
def test_cmp_rpow_matches_fraction_powers(case):
    a, r, s = case
    assert cmp_rpow(a, r, s) == fraction_cmp_rpow(a, r, s)


@st.composite
def _pow2_near_ties(draw):
    """(a, e) with a = 2**k, or 2**k moved by 1/2^200, and e = k."""
    k = draw(st.integers(-30, 30))
    nudge = draw(st.sampled_from([0, 1, -1]))
    return Fraction(2) ** k + Fraction(nudge, 2 ** 200), Fraction(k)


@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(st.tuples(_RATS, _EXPS), _pow2_near_ties()))
@example((Fraction(0), Fraction(-3)))
@example((Fraction(-5, 2), Fraction(0)))
@example((Fraction(-3), Fraction(1, 2)))
@example((Fraction(1), Fraction(0)))
@example((Fraction(1, 3), Fraction(-1)))
@example((Fraction(2 ** 205 + 3, 2 ** 3), Fraction(1231, 6)))
def test_cmp_pow2_matches_fraction_powers(case):
    a, e = case
    assert cmp_pow2(a, e) == fraction_cmp_pow2(a, e)


class TestLogs:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            log2_fraction(Fraction(-1, 2))

    def test_log2_fraction_huge(self):
        assert log2_fraction(Fraction(1 << 5000)) == 5000.0
        assert log2_fraction(Fraction(1, 1 << 5000)) == -5000.0
        assert abs(log2_fraction(3) - math.log2(3)) < 1e-12


class TestLevelForRadius:
    def test_coarse_radii(self):
        assert level_for_radius(Fraction(1, 4)) == 0
        assert level_for_radius(Fraction(1, 3)) == 0
        assert level_for_radius(7) == 0

    def test_hand_values(self):
        assert level_for_radius(Fraction(1, 5)) == 1
        assert level_for_radius(Fraction(1, 8)) == 1
        assert level_for_radius(pow2(-10)) == 8

    def test_defining_sandwich(self):
        # 2^-(n+2) <= r < 2^-(n+1) whenever r < 1/4
        for num, den in [(1, 5), (1, 7), (3, 1000), (1, 1 << 30), (5, 163)]:
            r = Fraction(num, den)
            n = level_for_radius(r)
            assert pow2(-(n + 2)) <= r < pow2(-(n + 1))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            level_for_radius(0)


# positive radii: terms up to 2^200, exact powers of two and their
# neighbours, and radii at or above 1/4 and 1
_RADII = st.one_of(
    st.builds(Fraction, st.integers(1, 2 ** 200), st.integers(1, 2 ** 200)),
    st.builds(lambda k, num: Fraction(num, 1) * Fraction(2) ** k,
              st.integers(-200, 10), st.sampled_from([1, 3])),
    st.builds(lambda k, nudge: Fraction(2) ** -k + Fraction(nudge, 2 ** 220),
              st.integers(0, 200), st.sampled_from([1, -1])),
    st.builds(Fraction, st.integers(1, 2 ** 40), st.integers(1, 4)),
)


@settings(max_examples=400, deadline=None, database=None)
@given(_RADII)
@example(Fraction(1, 4))
@example(Fraction(1, 4) - Fraction(1, 2 ** 200))
@example(Fraction(1, 8))
@example(Fraction(1))
@example(Fraction(2 ** 200 + 1, 2 ** 200))
def test_level_for_radius_matches_halving_loop(r):
    assert level_for_radius(r) == radius_level(r)


@settings(max_examples=400, deadline=None, database=None)
@given(st.integers(1, 4), _RADII)
@example(1, Fraction(1))
@example(2, Fraction(1, 2))  # sqrt(2) 2^-m <= 1/2 first at m = 2
@example(4, Fraction(1, 4))  # 2 * 2^-m <= 1/4 at m = 3 exactly
@example(3, Fraction(2 ** 100 + 1, 2 ** 200))
def test_diameter_level_matches_loop(d, r):
    assert diameter_level(d, r) == cube_diameter_level(d, r)


class TestDiameterLevel:
    def test_hand_values(self):
        assert diameter_level(1, 1) == 0
        assert diameter_level(2, 1) == 1
        assert diameter_level(4, 1) == 1
        assert diameter_level(1, Fraction(1, 2)) == 1
        assert diameter_level(1, Fraction(1, 3)) == 2
        assert diameter_level(3, 7) == 0
        assert diameter_level(1, pow2(-10)) == 10

    def test_defining_sandwich(self):
        # d 4^-m <= r^2, and m = 0 or d 4^-(m-1) > r^2
        for d in range(1, 5):
            for num, den in [(1, 5), (2, 3), (3, 1000), (1, 1 << 30),
                             (5, 163), (9, 4)]:
                r = Fraction(num, den)
                m = diameter_level(d, r)
                assert d * pow2(-2 * m) <= r * r
                assert m == 0 or d * pow2(-2 * (m - 1)) > r * r


class TestDyadicIndex:
    def test_half_open_convention(self):
        # intervals are (j 2^-n, (j+1) 2^-n]: the left endpoint belongs to
        # the interval below
        assert dyadic_index(Fraction(1, 2), 1) == 0
        assert dyadic_index(Fraction(1, 2), 2) == 1
        assert dyadic_index(1, 3) == 7
        assert dyadic_index(Fraction(1, 8), 3) == 0

    def test_interior_point(self):
        assert dyadic_index(Fraction(3, 10), 2) == 1  # (1/4, 1/2]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            dyadic_index(0, 4)
        with pytest.raises(ValidationError):
            dyadic_index(Fraction(5, 4), 4)

    def test_index_bounds_random(self):
        import random

        rng = random.Random(7)
        for _ in range(200):
            n = rng.randrange(0, 12)
            x = Fraction(rng.randrange(1, 10_000), 10_000)
            j = dyadic_index(x, n)
            assert 0 <= j < (1 << n)
            assert Fraction(j, 1 << n) < x <= Fraction(j + 1, 1 << n)


class TestSnapToDyadic:
    def test_snaps_to_right_endpoint(self):
        assert snap_to_dyadic(0.3, 4) == Fraction(5, 16)
        assert snap_to_dyadic(Fraction(1, 2), 3) == Fraction(1, 2)
        assert snap_to_dyadic(1, 5) == 1

    def test_zero_goes_to_first_cell(self):
        assert snap_to_dyadic(0, 3) == Fraction(1, 8)

    def test_idempotent(self):
        for x in [0, 0.17, Fraction(2, 3), 1]:
            y = snap_to_dyadic(x, 6)
            assert snap_to_dyadic(y, 6) == y

    def test_rejects_outside_unit(self):
        with pytest.raises(ValidationError):
            snap_to_dyadic(-0.1, 4)
        with pytest.raises(ValidationError):
            snap_to_dyadic(1.5, 4)
