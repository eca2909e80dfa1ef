"""Exact rational membership grades.

Grades live in [0, 1] and are always `fractions.Fraction` values; nothing in
this package ever touches floating point.  Decimal literals such as "0.4"
parse to the exact rational 2/5.
"""
from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter

ZERO = Fraction(0)
ONE = Fraction(1)


class GradeError(ValueError):
    """A grade literal is malformed or falls outside [0, 1]."""


def validate_grade(value: Fraction) -> Fraction:
    if type(value) is not Fraction:
        if isinstance(value, float):
            raise GradeError(
                f"float grade {value!r} rejected: pass a Fraction or a string literal"
            )
        if not isinstance(value, (Fraction, int)):
            raise GradeError(f"grade must be rational, got {type(value).__name__}")
        value = Fraction(value)
    num, den = value.as_integer_ratio()
    if not 0 <= num <= den:  # denominators are positive: 0 <= value <= 1
        raise GradeError(f"grade {value} outside [0, 1]")
    return value


# --- exact order on integers ---------------------------------------------------
#
# Comparing two `Fraction`s costs a type dispatch and two multiplications in
# Python code.  The kernels instead read each grade's (numerator, denominator)
# once with `as_integer_ratio()` and compare integers: a/b <= c/d iff
# a*d <= c*b, as denominators are positive.  Grades stay stored as `Fraction`.


def grade_le(a: Fraction, b: Fraction) -> bool:
    """a <= b, by cross-multiplying."""
    an, ad = a.as_integer_ratio()
    bn, bd = b.as_integer_ratio()
    return an * bd <= bn * ad


def greatest(values) -> Fraction:
    """The first of the greatest grades, as `max` would return it."""
    values = iter(values)
    best = next(values)
    bn, bd = best.as_integer_ratio()
    for g in values:
        n, d = g.as_integer_ratio()
        if n * bd > bn * d:
            best, bn, bd = g, n, d
    return best


def scaled_column(values) -> list[int]:
    """Every grade as an integer over the grades' common denominator: equal
    grades get equal integers, and the integers order as the grades do."""
    ratios = [g.as_integer_ratio() for g in values]
    den = math.lcm(*[d for _, d in ratios])
    return [n * (den // d) for n, d in ratios]


def scaled_columns(grades) -> list[list[int]]:
    """`scaled_column` of each q label of a `grades[element][q_index]` table."""
    return [scaled_column(col) for col in zip(*grades)]


def sorted_grades(values) -> list[Fraction]:
    """The grades in ascending order; equal grades keep their given order."""
    values = list(values)
    ranked = sorted(zip(scaled_column(values), values), key=itemgetter(0))
    return [g for _, g in ranked]


def parse_grade(text: str) -> Fraction:
    """Parse a decimal ("0.4") or rational ("2/5") grade literal exactly."""
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise GradeError(f"bad grade literal {text!r}: {exc}") from None
    return validate_grade(value)


def format_grade(value: Fraction) -> str:
    """Canonical machine form: "p/q", or "p" when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
