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

The scans read each table's integer columns (see `qfuzzy.fuzzy`); a grade
becomes a `Fraction` only to render a violation.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .grades import format_grade
from .fuzzy import QFuzzySubset, achieved_grades, level_set
from .groups import analyze_subset


@dataclass(slots=True)
class ConditionResult:
    ok: bool
    witness: tuple | None = None
    detail: str | None = None


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


def _pair_condition(t, products) -> ConditionResult:
    # grade(products[x][y], q) >= min(grade(x, q), grade(y, q)): the closure
    # over the group's table, the quotient form over its table of x y^-1
    group, dens = t.group, t.dens
    for k, q in enumerate(t.q_labels):
        col = t.columns[k]
        lo = min(col)  # a pair with an element at lo is bounded by lo: it holds
        live = [x for x, g in enumerate(col) if g > lo]
        for x in live:
            gx = col[x]
            row = products[x]
            for y in live:
                gy = col[y]
                if col[row[y]] < (gx if gx <= gy else gy):
                    at = (group.label(x), group.label(y), q)
                    bound = gx if gx <= gy else gy
                    return ConditionResult(
                        False, at, _violation(col[row[y]], bound, dens[k], at)
                    )
    return ConditionResult(True)


def _anti_closure_condition(t) -> ConditionResult:
    # grade(xy, q) <= max(grade(x, q), grade(y, q))
    group, table, dens = t.group, t.group.table, t.dens
    for k, q in enumerate(t.q_labels):
        col = t.columns[k]
        hi = max(col)  # a pair with an element at hi is bounded by hi: it holds
        live = [x for x, g in enumerate(col) if g < hi]
        for x in live:
            gx = col[x]
            row = table[x]
            for y in live:
                gy = col[y]
                if col[row[y]] > (gx if gx >= gy else gy):
                    at = (group.label(x), group.label(y), q)
                    bound = gx if gx >= gy else gy
                    return ConditionResult(
                        False, at, _violation(bound, col[row[y]], dens[k], at)
                    )
    return ConditionResult(True)


def _inverse_condition(t) -> ConditionResult:
    # grade(x^-1, q) >= grade(x, q)
    group, inverses, dens = t.group, t.group.inverses, t.dens
    for k, q in enumerate(t.q_labels):
        col = t.columns[k]
        for x in range(group.order):
            if col[inverses[x]] < col[x]:
                at = (group.label(x), q)
                return ConditionResult(
                    False, at, _violation(col[inverses[x]], col[x], dens[k], at)
                )
    return ConditionResult(True)


def _first_failure(*conditions: ConditionResult):
    for cond in conditions:
        if not cond.ok:
            return cond.witness, cond.detail
    return None, None


def _report(**conditions: ConditionResult) -> CheckReport:
    # the verdict is that every condition holds; the witness, the first that fails
    witness, detail = _first_failure(*conditions.values())
    return CheckReport(all([c.ok for c in conditions.values()]), conditions, witness, detail)


def _subgroup_report(t) -> CheckReport:
    # the two conditions; the public checks call this, not each other, so a
    # wrapper around one never sees the other's calls
    return _report(closure=_pair_condition(t, t.group.table), inverse=_inverse_condition(t))


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
    return _report(anti_closure=_anti_closure_condition(phi), inverse=_inverse_condition(phi))


@dataclass(frozen=True)
class KernelSet:
    per_label: dict[str, frozenset[int]]


def kernel_set(phi: QFuzzySubset) -> KernelSet:
    """Per q label: elements whose grade equals the identity's grade."""
    e = phi.group.identity
    per_label = {}
    for q, column in zip(phi.q_labels, phi.columns):
        top = column[e]
        per_label[q] = frozenset([x for x, g in enumerate(column) if g == top])
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


def classify_abelian(phi: QFuzzySubset) -> dict[str, AbelianSlice]:
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


def classify_cyclic(phi: QFuzzySubset) -> dict[str, CyclicSlice]:
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
