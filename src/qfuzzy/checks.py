"""Decision procedures with witnesses for the fuzzy-subgroup predicates.

Conventions shared by every check:

* quantification is always exhaustive over all (x, y, q) -- never sampled;
* a false verdict carries the FIRST violation found when scanning q labels
  in order, then x, then y (row-major), so failures are reproducible;
* the pairwise scans skip the pairs that cannot fail: a pair with an element
  at its column's least grade has that grade as its bound, which every grade
  meets (for the anti-closure, the greatest grade).  The remaining pairs keep
  their row-major order, so the first violation is the same;
* violation details render as "lhs = p/q < rhs = r/s at (x, y, q)".

On a finite group the closure decides the subgroup test.  Let x have order
m, so x^-1 = x^(m-1).  Closure gives grade(x^k) >= grade(x) for every k >= 1,
by induction on k, so grade(x^-1) >= grade(x): the inverse condition holds.
The anti-closure likewise gives grade(x^-1) <= grade(x), and read at x^-1
the reverse, so the two grades are equal and the inverse condition holds
again.  A report's verdict and witness are therefore its (anti-)closure's,
and the inverse condition is scanned only to render a refuted table.

The scans read each table's integer columns (see `qfuzzy.fuzzy`); a grade
becomes a `Fraction` only to render a violation.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .grades import format_grade
from .fuzzy import QFuzzySubset, level_sets
from .groups import analyze_subset


class ConditionResult(NamedTuple):
    ok: bool
    witness: tuple | None = None
    detail: str | None = None


# every condition that holds reports this one immutable result
_HOLDS = ConditionResult(True)


@dataclass(slots=True)
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


def _violation(lhs: int, rhs: int, den: int, at: tuple) -> str:
    # lhs / den < rhs / den
    lhs, rhs = format_grade(Fraction(lhs, den)), format_grade(Fraction(rhs, den))
    return f"lhs = {lhs} < rhs = {rhs} at ({', '.join(at)})"


def _pair_condition(t, products, anti=False) -> ConditionResult:
    # grade(products[x][y], q) >= min(grade(x, q), grade(y, q)): the closure
    # over the group's table, the quotient form over its table of x y^-1.
    # The anti-closure, grade(xy, q) <= max(grade(x, q), grade(y, q)), is the
    # closure over the negated grades: the same pairs fail, in the same order,
    # and a violation is rendered with its two sides negated and swapped
    group, den = t.group, t.den
    for k, q in enumerate(t.q_labels):
        col = [-g for g in t.columns[k]] if anti else t.columns[k]
        lo = min(col)  # a pair with an element at lo is bounded by lo: it holds
        live = [x for x, g in enumerate(col) if g > lo]
        for x in live:
            gx = col[x]
            row = products[x]
            for y in live:
                gy = col[y]
                if col[row[y]] < (gx if gx <= gy else gy):
                    at = (group.label(x), group.label(y), q)
                    lhs, rhs = col[row[y]], (gx if gx <= gy else gy)
                    if anti:
                        lhs, rhs = -rhs, -lhs
                    return ConditionResult(False, at, _violation(lhs, rhs, den, at))
    return _HOLDS


def _inverse_condition(t) -> ConditionResult:
    # grade(x^-1, q) >= grade(x, q)
    group, inverses, den = t.group, t.group.inverses, t.den
    for k, q in enumerate(t.q_labels):
        col = t.columns[k]
        for x in range(group.order):
            if col[inverses[x]] < col[x]:
                at = (group.label(x), q)
                return ConditionResult(
                    False, at, _violation(col[inverses[x]], col[x], den, at)
                )
    return _HOLDS


def _subgroup_report(t, anti=False) -> CheckReport:
    # the (anti-)closure gives the verdict and the witness; the inverse
    # condition, which it implies, is scanned only when it fails.  The public
    # checks call this, not each other, so a wrapper around one never sees
    # the other's calls
    closure = _pair_condition(t, t.group.table, anti)
    inverse = _HOLDS if closure.ok else _inverse_condition(t)
    return CheckReport(
        closure.ok, {"anti_closure" if anti else "closure": closure, "inverse": inverse},
        closure.witness, closure.detail,
    )


def check_qfuzzy_subgroup(theta: QFuzzySubset) -> CheckReport:
    """Q-fuzzy subgroup test: closure and inverse on the table's grades.  On
    a restriction by alpha it is the alpha-subgroup test."""
    return _subgroup_report(theta)


def check_alpha_subgroup(phi: QFuzzySubset) -> CheckReport:
    """The subgroup test, with the single quotient-condition form as well.

    The verdict is the two-condition one; the quotient form is scanned
    after it, its first violation is the witness when the two conditions
    hold, and any disagreement is flagged as an audit event.
    """
    report = _subgroup_report(phi)
    quotient = _pair_condition(phi, phi.group.quotients)
    report.conditions["quotient"] = quotient
    if report.witness is None:
        report.witness, report.detail = quotient.witness, quotient.detail
    report.forms_agree = report.verdict == quotient.ok
    return report


def check_anti_subgroup(phi: QFuzzySubset) -> CheckReport:
    """Reversed inequalities: grade(xy) <= max(grade(x), grade(y)) plus
    inverse-monotonicity.  This is what complements of restricted subgroups
    actually satisfy."""
    return _subgroup_report(phi, anti=True)


def kernel_set(phi: QFuzzySubset) -> dict[str, frozenset[int]]:
    """Per q label: elements whose grade equals the identity's grade."""
    e = phi.group.identity
    kernels = {}
    for q, column in zip(phi.q_labels, phi.columns):
        top = column[e]
        kernels[q] = frozenset([x for x, g in enumerate(column) if g == top])
    return kernels


class AbelianSlice(NamedTuple):
    # immutable, and built with no per-field `object.__setattr__` call as a
    # frozen dataclass's `__init__` makes
    q_label: str
    kernel: frozenset[int]
    is_subgroup: bool
    is_abelian: bool

    @property
    def verdict(self) -> bool:
        return self.is_subgroup and self.is_abelian


def classify_abelian(phi: QFuzzySubset) -> dict[str, AbelianSlice]:
    """Per q label: is the kernel-style set an abelian crisp subgroup?"""
    out = {}
    for q, kernel in kernel_set(phi).items():
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
        return all(level.is_subgroup and level.is_cyclic for level in self.levels)


def classify_cyclic(phi: QFuzzySubset) -> dict[str, CyclicSlice]:
    """Per q label: the level set at every achieved cut (plus 0) must be a
    cyclic crisp subgroup.  Finitely many grades determine all level sets,
    so only achieved cuts are scanned, and none of their level sets is
    empty.  Each level set is read from the label's integer column."""
    out = {}
    for k, q in enumerate(phi.q_labels):
        levels = []
        for cut, members in level_sets(phi, k):
            analysis = analyze_subset(phi.group, members)
            levels.append(LevelVerdict(
                Fraction(cut, phi.den), members, analysis.is_subgroup, analysis.is_cyclic
            ))
        out[q] = CyclicSlice(q, tuple(levels))
    return out
