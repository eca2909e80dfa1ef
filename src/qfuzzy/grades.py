"""Exact rational membership grades.

Grades live in [0, 1] and are always `fractions.Fraction` values; nothing in
this package ever touches floating point.  Decimal literals such as "0.4"
parse to the exact rational 2/5.
"""
from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class GradeError(ValueError):
    """A grade literal is malformed or falls outside [0, 1]."""


def validate_grade(value: Fraction) -> Fraction:
    if type(value) is Fraction and 0 <= value.numerator <= value.denominator:
        return value  # denominators are positive, so this is 0 <= value <= 1
    if isinstance(value, float):
        raise GradeError(
            f"float grade {value!r} rejected: pass a Fraction or a string literal"
        )
    if not isinstance(value, (Fraction, int)):
        raise GradeError(f"grade must be rational, got {type(value).__name__}")
    value = Fraction(value)
    if not ZERO <= value <= ONE:
        raise GradeError(f"grade {value} outside [0, 1]")
    return value


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


def _decimal_form(value: Fraction) -> str | None:
    # Exact terminating decimal exists iff the denominator is 2^a * 5^b.
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return None
    digits = max(twos, fives)
    if digits == 0:
        return str(value.numerator)
    scaled = value.numerator * 10**digits // value.denominator
    text = f"{scaled:0{digits + 1}d}"
    return f"{text[:-digits]}.{text[-digits:]}"


def format_grade_text(value: Fraction) -> str:
    """Human form: "0.4 (=2/5)" when a terminating decimal exists, else "p/q"."""
    decimal = _decimal_form(value)
    if decimal is None or value.denominator == 1:
        return format_grade(value)
    return f"{decimal} (={format_grade(value)})"
