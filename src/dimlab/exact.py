"""Exact rational arithmetic helpers.

Everything in the half-open dyadic world is decided with integer arithmetic:
comparisons against powers of two with rational exponents are reduced to
integer comparisons by raising both sides to the exponent's denominator.
"""

from __future__ import annotations

import math
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


def le_rpow(a, r, s) -> bool:
    return cmp_rpow(a, r, s) <= 0


def floor_log2(x) -> int:
    """Largest integer e with 2**e <= x, for rational x > 0."""
    f = to_fraction(x)
    if f <= 0:
        raise ValidationError("floor_log2 needs a positive argument")
    num, den = f.numerator, f.denominator
    e = num.bit_length() - den.bit_length()
    # e is within 1 of the answer; fix up exactly.
    while not _ge_pow2_int(num, den, e):
        e -= 1
    while _ge_pow2_int(num, den, e + 1):
        e += 1
    return e


def _ge_pow2_int(num: int, den: int, e: int) -> bool:
    # num/den >= 2**e
    if e >= 0:
        return num >= den << e
    return num << (-e) >= den


def ceil_log2(x) -> int:
    """Smallest integer e with x <= 2**e, for rational x > 0."""
    e = floor_log2(x)
    if to_fraction(x) == pow2(e):
        return e
    return e + 1


def level_for_radius(r) -> int:
    """The level n with 2**-(n+2) <= r < 2**-(n+1).

    Radii above 1/4 map to n = 0 (coarsest useful level); r must be > 0.
    """
    f = to_fraction(r)
    if f <= 0:
        raise ValidationError("radius must be positive")
    if f >= Fraction(1, 4):
        return 0
    e = ceil_log2(1 / f)  # smallest e with 1/r <= 2**e, e >= 3 here
    return e - 2


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
