"""Exact rational arithmetic helpers.

Everything in the half-open dyadic world is decided with integer arithmetic:
comparisons against powers of two with rational exponents are reduced to
integer comparisons by raising both sides to the exponent's denominator.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from numbers import Rational


class ValidationError(ValueError):
    """Malformed input: bad parameters, files, or schema violations."""


class UnavailableError(RuntimeError):
    """Requested quantity is outside the materialized/symbolic budget."""


class ConstructionError(RuntimeError):
    """A construction could not proceed (e.g. no admissible cube)."""


class UnsupportedModelError(RuntimeError):
    """Operation not defined for this leaf model."""


def to_fraction(x) -> Fraction:
    """Convert int/Fraction/float/str to an exact Fraction.

    Floats convert exactly (binary value), which is the right thing for
    dyadic data. Strings accept 'p/q' and plain integers.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise ValidationError("booleans are not numbers here")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValidationError(f"non-finite value {x!r}")
        return Fraction(x)
    if isinstance(x, Rational):
        return Fraction(x.numerator, x.denominator)
    if isinstance(x, str):
        return parse_rational(x)
    raise ValidationError(f"cannot interpret {x!r} as a rational")


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or 'p' into a Fraction. Rejects decimals and junk."""
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/")
            return Fraction(int(num.strip()), int(den.strip()))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad rational literal {text!r}") from exc


def sorted_levels(levels) -> list[int]:
    """A level window's sorted distinct levels, each read by operator.index:
    an int or a numpy int passes, 2.5 or "3" is refused, not truncated."""
    try:
        return sorted(set(map(operator.index, levels)))
    except TypeError:
        raise ValidationError("levels must be integers") from None


def format_rational(x) -> str:
    f = to_fraction(x)
    return f"{f.numerator}/{f.denominator}"


def pow2(e: int) -> Fraction:
    """2**e as an exact Fraction, e may be negative."""
    if e >= 0:
        return Fraction(1 << e)
    return Fraction(1, 1 << (-e))


def cmp_pow2(a, e) -> int:
    """Sign of a - 2**e for rational a and rational exponent e = p/q,
    decided on ints: a**q against 2**p, times a's denominator**q."""
    a = to_fraction(a)
    e = to_fraction(e)
    if a.numerator <= 0:
        return -1
    q, p = e.denominator, e.numerator
    lhs, rhs = a.numerator ** q, a.denominator ** q
    if p >= 0:
        rhs <<= p
    else:
        lhs <<= -p
    return (lhs > rhs) - (lhs < rhs)


def cmp_rpow(a, r, s) -> int:
    """Sign of a - r**s for rationals a, r > 0 and s = p/q, decided on
    ints: a**q against r**p (= (1/r)**-p), cleared of denominators."""
    a = to_fraction(a)
    r = to_fraction(r)
    s = to_fraction(s)
    if r.numerator <= 0:
        raise ValidationError("r must be positive")
    if a.numerator <= 0:
        return -1
    q, p = s.denominator, s.numerator
    rn, rd = (r.numerator, r.denominator) if p >= 0 else \
        (r.denominator, r.numerator)
    lhs = a.numerator ** q * rd ** abs(p)
    rhs = a.denominator ** q * rn ** abs(p)
    return (lhs > rhs) - (lhs < rhs)


def level_for_radius(r) -> int:
    """The level n with 2**-(n+2) <= r < 2**-(n+1).

    Radii above 1/4 map to n = 0 (coarsest useful level); r must be > 0.
    With k = (den - 1) // num, the largest int below 1/r, 2**e <= k holds
    exactly when 2**e < 1/r, so n + 2 = k.bit_length() is the least e with
    1/r <= 2**e.
    """
    f = to_fraction(r)
    if f <= 0:
        raise ValidationError("radius must be positive")
    return max(0, ((f.denominator - 1) // f.numerator).bit_length() - 2)


def diameter_level(d: int, r) -> int:
    """The least level m whose cubes have diameter at most r: d 4**-m <= r**2.

    With c = ceil(d / r**2), 4**m >= c exactly when 2**(2m) > c - 1, that is
    2m >= (c - 1).bit_length().
    """
    f = to_fraction(r)
    c = -(-d * f.denominator ** 2 // f.numerator ** 2)
    return ((c - 1).bit_length() + 1) // 2


def dyadic_index(x, n: int) -> int:
    """Index j of the half-open level-n interval (j*2^-n, (j+1)*2^-n] containing x.

    Requires 0 < x <= 1.
    """
    f = to_fraction(x)
    if not (0 < f <= 1):
        raise ValidationError(f"coordinate {x!r} outside (0, 1]")
    j = math.ceil(f * (1 << n)) - 1
    return j


def snap_to_dyadic(x, depth: int) -> Fraction:
    """Snap a coordinate in [0, 1] to the representative (right endpoint)
    of its depth-level dyadic interval. 0 snaps into the first interval."""
    f = to_fraction(x)
    if f < 0 or f > 1:
        raise ValidationError(f"coordinate {x!r} outside [0, 1]")
    if depth < 0:
        raise ValidationError("depth must be >= 0")
    if f == 0:
        j = 0
    else:
        j = dyadic_index(f, depth)
    return Fraction(j + 1, 1 << depth)


def log2_fraction(x) -> float:
    """Float log2 of a positive rational, safe for huge numerators."""
    f = to_fraction(x)
    if f <= 0:
        raise ValidationError("log2 needs a positive argument")
    return math.log2(f.numerator) - math.log2(f.denominator)
