"""Reference implementations the integer kernels are checked against.

The four scans below compare grades as `Fraction`s, exactly as the checks
did before they moved to scaled integers; `check_*` compose them the way
`qfuzzy.checks` does, and `validate_grade` is the all-`Fraction` grade
validation.  Only the tests use this module.
"""
from __future__ import annotations

from fractions import Fraction

from qfuzzy.checks import CheckReport, ConditionResult, _first_failure, _violation
from qfuzzy.grades import ONE, ZERO, GradeError


def validate_grade(value: Fraction) -> Fraction:
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


def _closure_condition(group, q_labels, grades) -> ConditionResult:
    # grade(xy, q) >= min(grade(x, q), grade(y, q))
    table = group.table
    n = group.order
    for k, q in enumerate(q_labels):
        col = [grades[x][k] for x in range(n)]
        for x in range(n):
            gx = col[x]
            row = table[x]
            for y in range(n):
                bound = gx if gx <= col[y] else col[y]
                if col[row[y]] < bound:
                    at = (group.label(x), group.label(y), q)
                    return ConditionResult(
                        False, at, _violation(col[row[y]], bound, at)
                    )
    return ConditionResult(True)


def _anti_closure_condition(group, q_labels, grades) -> ConditionResult:
    # grade(xy, q) <= max(grade(x, q), grade(y, q))
    table = group.table
    n = group.order
    for k, q in enumerate(q_labels):
        col = [grades[x][k] for x in range(n)]
        for x in range(n):
            gx = col[x]
            row = table[x]
            for y in range(n):
                bound = gx if gx >= col[y] else col[y]
                if col[row[y]] > bound:
                    at = (group.label(x), group.label(y), q)
                    return ConditionResult(
                        False, at, _violation(bound, col[row[y]], at)
                    )
    return ConditionResult(True)


def _inverse_condition(group, q_labels, grades) -> ConditionResult:
    # grade(x^-1, q) >= grade(x, q)
    for k, q in enumerate(q_labels):
        for x in range(group.order):
            gx = grades[x][k]
            ginv = grades[group.inv(x)][k]
            if ginv < gx:
                at = (group.label(x), q)
                return ConditionResult(False, at, _violation(ginv, gx, at))
    return ConditionResult(True)


def _quotient_condition(group, q_labels, grades) -> ConditionResult:
    # grade(x y^-1, q) >= min(grade(x, q), grade(y, q))
    table = group.table
    inverses = group.inverses
    n = group.order
    for k, q in enumerate(q_labels):
        col = [grades[x][k] for x in range(n)]
        for x in range(n):
            gx = col[x]
            row = table[x]
            for y in range(n):
                bound = gx if gx <= col[y] else col[y]
                if col[row[inverses[y]]] < bound:
                    at = (group.label(x), group.label(y), q)
                    return ConditionResult(
                        False, at, _violation(col[row[inverses[y]]], bound, at)
                    )
    return ConditionResult(True)


def check_qfuzzy_subgroup(theta) -> CheckReport:
    closure = _closure_condition(theta.group, theta.q_labels, theta.grades)
    inverse = _inverse_condition(theta.group, theta.q_labels, theta.grades)
    witness, detail = _first_failure(closure, inverse)
    return CheckReport(
        verdict=closure.ok and inverse.ok,
        conditions={"closure": closure, "inverse": inverse},
        witness=witness,
        detail=detail,
    )


def check_alpha_subgroup(phi) -> CheckReport:
    group, q_labels, grades = phi.group, phi.q_labels, phi.restricted
    closure = _closure_condition(group, q_labels, grades)
    inverse = _inverse_condition(group, q_labels, grades)
    quotient = _quotient_condition(group, q_labels, grades)
    verdict = closure.ok and inverse.ok
    witness, detail = _first_failure(closure, inverse, quotient)
    return CheckReport(
        verdict=verdict,
        conditions={"closure": closure, "inverse": inverse, "quotient": quotient},
        witness=witness,
        detail=detail,
        forms_agree=(verdict == quotient.ok),
    )


def check_anti_subgroup(phi) -> CheckReport:
    group, q_labels, grades = phi.group, phi.q_labels, phi.restricted
    anti = _anti_closure_condition(group, q_labels, grades)
    inverse = _inverse_condition(group, q_labels, grades)
    witness, detail = _first_failure(anti, inverse)
    return CheckReport(
        verdict=anti.ok and inverse.ok,
        conditions={"anti_closure": anti, "inverse": inverse},
        witness=witness,
        detail=detail,
    )
