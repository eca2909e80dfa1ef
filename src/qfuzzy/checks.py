"""Decision procedures with witnesses for the fuzzy-subgroup predicates.

Conventions shared by every check:

* quantification is always exhaustive over all (x, y, q) -- never sampled;
* a false verdict carries the FIRST violation found when scanning q labels
  in order, then x, then y (row-major), so failures are reproducible;
* violation details render as "lhs = p/q < rhs = r/s at (x, y, q)".
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .grades import format_grade
from .fuzzy import AlphaQFuzzySubset, QFuzzySubset, achieved_grades, level_set
from .groups import analyze_subset


@dataclass(frozen=True)
class ConditionResult:
    ok: bool
    witness: tuple | None = None
    detail: str | None = None


@dataclass(frozen=True)
class CheckReport:
    verdict: bool
    conditions: dict[str, ConditionResult]
    witness: tuple | None
    detail: str | None
    forms_agree: bool | None = None

    def render(self) -> str:
        lines = [f"verdict: {'true' if self.verdict else 'false'}"]
        for name, cond in self.conditions.items():
            status = "holds" if cond.ok else "violated"
            line = f"  {name}: {status}"
            if cond.detail:
                line += f" -- {cond.detail}"
            lines.append(line)
        if self.forms_agree is not None:
            lines.append(
                "  two-condition and quotient forms "
                + ("agree" if self.forms_agree else "DISAGREE (audit event)")
            )
        return "\n".join(lines)


def _violation(lhs: Fraction, rhs: Fraction, at: tuple) -> str:
    place = ", ".join(at)
    return f"lhs = {format_grade(lhs)} < rhs = {format_grade(rhs)} at ({place})"


def _scaled_columns(grades) -> list[list[int]]:
    """Per q label, every grade as an integer over the column's common
    denominator, so the scans compare exactly without `Fraction` overhead."""
    columns = []
    for col in zip(*grades):
        dens = [g.denominator for g in col]
        den = math.lcm(*dens)
        columns.append([g.numerator * (den // d) for g, d in zip(col, dens)])
    return columns


def _closure_condition(group, q_labels, grades, columns) -> ConditionResult:
    # grade(xy, q) >= min(grade(x, q), grade(y, q))
    table = group.table
    n = group.order
    for k, q in enumerate(q_labels):
        col = columns[k]
        for x in range(n):
            gx = col[x]
            row = table[x]
            for y in range(n):
                gy = col[y]
                if col[row[y]] < (gx if gx <= gy else gy):
                    at = (group.label(x), group.label(y), q)
                    bound = grades[x][k] if gx <= gy else grades[y][k]
                    return ConditionResult(
                        False, at, _violation(grades[row[y]][k], bound, at)
                    )
    return ConditionResult(True)


def _anti_closure_condition(group, q_labels, grades, columns) -> ConditionResult:
    # grade(xy, q) <= max(grade(x, q), grade(y, q))
    table = group.table
    n = group.order
    for k, q in enumerate(q_labels):
        col = columns[k]
        for x in range(n):
            gx = col[x]
            row = table[x]
            for y in range(n):
                gy = col[y]
                if col[row[y]] > (gx if gx >= gy else gy):
                    at = (group.label(x), group.label(y), q)
                    bound = grades[x][k] if gx >= gy else grades[y][k]
                    return ConditionResult(
                        False, at, _violation(bound, grades[row[y]][k], at)
                    )
    return ConditionResult(True)


def _inverse_condition(group, q_labels, grades, columns) -> ConditionResult:
    # grade(x^-1, q) >= grade(x, q)
    inverses = group.inverses
    for k, q in enumerate(q_labels):
        col = columns[k]
        for x in range(group.order):
            if col[inverses[x]] < col[x]:
                at = (group.label(x), q)
                return ConditionResult(
                    False, at, _violation(grades[inverses[x]][k], grades[x][k], at)
                )
    return ConditionResult(True)


def _quotient_condition(group, q_labels, grades, columns) -> ConditionResult:
    # grade(x y^-1, q) >= min(grade(x, q), grade(y, q))
    table = group.table
    inverses = group.inverses
    n = group.order
    for k, q in enumerate(q_labels):
        col = columns[k]
        for x in range(n):
            gx = col[x]
            row = table[x]
            for y in range(n):
                gy = col[y]
                if col[row[inverses[y]]] < (gx if gx <= gy else gy):
                    at = (group.label(x), group.label(y), q)
                    bound = grades[x][k] if gx <= gy else grades[y][k]
                    return ConditionResult(
                        False, at, _violation(grades[row[inverses[y]]][k], bound, at)
                    )
    return ConditionResult(True)


def _first_failure(*conditions: ConditionResult):
    for cond in conditions:
        if not cond.ok:
            return cond.witness, cond.detail
    return None, None


def check_qfuzzy_subgroup(theta: QFuzzySubset) -> CheckReport:
    """Q-fuzzy subgroup test on the raw grades."""
    group, q_labels, grades = theta.group, theta.q_labels, theta.grades
    columns = _scaled_columns(grades)
    closure = _closure_condition(group, q_labels, grades, columns)
    inverse = _inverse_condition(group, q_labels, grades, columns)
    witness, detail = _first_failure(closure, inverse)
    return CheckReport(
        verdict=closure.ok and inverse.ok,
        conditions={"closure": closure, "inverse": inverse},
        witness=witness,
        detail=detail,
    )


def check_alpha_subgroup(phi: AlphaQFuzzySubset) -> CheckReport:
    """Threshold-restricted subgroup test, in both equivalent forms.

    Evaluates the two-condition form (closure + inverse on the restricted
    grades) and the single quotient-condition form; the verdict is the
    two-condition one and any disagreement is flagged as an audit event.
    """
    group, q_labels, grades = phi.group, phi.q_labels, phi.restricted
    columns = _scaled_columns(grades)
    closure = _closure_condition(group, q_labels, grades, columns)
    inverse = _inverse_condition(group, q_labels, grades, columns)
    quotient = _quotient_condition(group, q_labels, grades, columns)
    verdict = closure.ok and inverse.ok
    witness, detail = _first_failure(closure, inverse, quotient)
    return CheckReport(
        verdict=verdict,
        conditions={"closure": closure, "inverse": inverse, "quotient": quotient},
        witness=witness,
        detail=detail,
        forms_agree=(verdict == quotient.ok),
    )


def check_anti_subgroup(phi: AlphaQFuzzySubset) -> CheckReport:
    """Reversed inequalities: grade(xy) <= max(grade(x), grade(y)) plus
    inverse-monotonicity.  This is what complements of restricted subgroups
    actually satisfy."""
    group, q_labels, grades = phi.group, phi.q_labels, phi.restricted
    columns = _scaled_columns(grades)
    anti = _anti_closure_condition(group, q_labels, grades, columns)
    inverse = _inverse_condition(group, q_labels, grades, columns)
    witness, detail = _first_failure(anti, inverse)
    return CheckReport(
        verdict=anti.ok and inverse.ok,
        conditions={"anti_closure": anti, "inverse": inverse},
        witness=witness,
        detail=detail,
    )


@dataclass(frozen=True)
class KernelSet:
    per_label: dict[str, frozenset[int]]


def kernel_set(phi: AlphaQFuzzySubset) -> KernelSet:
    """Per q label: elements whose grade equals the identity's grade."""
    group = phi.group
    e = group.identity
    per_label = {}
    for k, q in enumerate(phi.q_labels):
        ge = phi.restricted[e][k]
        per_label[q] = frozenset(
            x for x in range(group.order) if phi.restricted[x][k] == ge
        )
    return KernelSet(per_label)


@dataclass(frozen=True)
class AbelianSlice:
    q_label: str
    kernel: frozenset[int]
    is_subgroup: bool
    is_abelian: bool

    @property
    def verdict(self) -> bool:
        return self.is_subgroup and self.is_abelian


def classify_abelian(phi: AlphaQFuzzySubset) -> dict[str, AbelianSlice]:
    """Per q label: is the kernel-style set an abelian crisp subgroup?"""
    kernels = kernel_set(phi).per_label
    out = {}
    for q, kernel in kernels.items():
        analysis = analyze_subset(phi.group, kernel)
        out[q] = AbelianSlice(q, kernel, analysis.is_subgroup, analysis.is_abelian)
    return out


@dataclass(frozen=True)
class LevelVerdict:
    cut: Fraction
    members: frozenset[int]
    is_subgroup: bool
    is_cyclic: bool


@dataclass(frozen=True)
class CyclicSlice:
    q_label: str
    levels: tuple[LevelVerdict, ...]

    @property
    def verdict(self) -> bool:
        return all(
            lv.is_subgroup and lv.is_cyclic for lv in self.levels if lv.members
        )


def classify_cyclic(phi: AlphaQFuzzySubset) -> dict[str, CyclicSlice]:
    """Per q label: every nonempty level set at an achieved cut (plus 0)
    must be a cyclic crisp subgroup.  Finitely many grades determine all
    level sets, so only achieved cuts are scanned; empty level sets are
    exempt."""
    out = {}
    for q in phi.q_labels:
        levels = []
        for cut in achieved_grades(phi, q):
            members = level_set(phi, cut, q)
            if members:
                analysis = analyze_subset(phi.group, members)
                levels.append(
                    LevelVerdict(cut, members, analysis.is_subgroup, analysis.is_cyclic)
                )
            else:
                levels.append(LevelVerdict(cut, members, False, False))
        out[q] = CyclicSlice(q, tuple(levels))
    return out
