"""Exact rational membership grades.

Grades live in [0, 1] and are exact rationals; nothing in this package ever
touches floating point.  Decimal literals such as "0.4" parse to the exact
rational 2/5.  At the edges (parsing, formatting, the codec and witnesses) a
grade is a `fractions.Fraction`; inside, it is an integer over a denominator
shared by its table.
"""
from __future__ import annotations

import math
from fractions import Fraction

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


# --- grades as integers ------------------------------------------------------
#
# Comparing two `Fraction`s costs a type dispatch and two multiplications in
# Python code.  Grade tables instead hold their grades as integers over one
# denominator, scaled once when the table is built from `Fraction`s
# (`scale_grades`); equal grades get equal integers, and the integers order
# as the grades do.  A grade pool is scaled once the same way (`GradePool`).


def scale_grades(values) -> tuple[tuple[int, ...], int]:
    """The grades as integers over their least common denominator, and that
    denominator."""
    ratios = [g.as_integer_ratio() for g in values]
    den = math.lcm(*[d for _, d in ratios])
    return tuple([n * (den // d) for n, d in ratios]), den


class GradePool(tuple):
    """Validated grades, in the given order, with `scaled`: the same grades
    as integers over `den`, their common denominator.  Generators draw from
    `scaled` and build tables over `den` without validating each draw.  As
    with `tuple`, a pool passed in is returned as it is."""

    def __new__(cls, grades):
        if type(grades) is cls:
            return grades
        pool = super().__new__(cls, [validate_grade(g) for g in grades])
        pool.scaled, pool.den = scale_grades(pool)
        return pool


def parse_grade(text: str) -> Fraction:
    """Parse a decimal ("0.4") or rational ("2/5") literal of ASCII digits exactly;
    `Fraction` would also read signs, exponents, bare dots, spaces and '_'."""
    head, sep, tail = text.partition("/" if "/" in text else ".")
    if not (text.isascii() and head.isdigit() and (tail.isdigit() or not sep)):
        why = "expected a decimal such as 0.4 or a ratio such as 2/5, in ASCII digits"
        if "_" in text or not text.isascii():
            why = "'_' and non-ASCII characters are refused"
        raise GradeError(f"bad grade literal {text!r}: {why}")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise GradeError(f"bad grade literal {text!r}: {exc}") from None
    return validate_grade(value)


def format_grade(value: Fraction) -> str:
    """Canonical machine form: "p/q", or "p" when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
