"""Q-fuzzy subsets over finite groups and their threshold restrictions.

A Q-fuzzy subset assigns an exact rational grade in [0, 1] to every
(element, q-label) pair.  The threshold restriction by alpha replaces each
grade with min(grade, alpha).  All operations are pure and exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .grades import (
    GradeError,
    ZERO,
    ONE,
    format_grade,
    grade_le,
    greatest,
    parse_grade,
    scaled_column,
    validate_grade,
)
from .groups import FiniteGroup, GroupMap, FileFormatError, direct_product, standard_group


class CarrierError(ValueError):
    """Two fuzzy subsets do not share a group / q-label carrier."""


class InvariantError(RuntimeError):
    """A restriction identity failed its re-check against the direct result."""


@dataclass(frozen=True)
class QFuzzySubset:
    group: FiniteGroup
    q_labels: tuple[str, ...]
    grades: tuple[tuple[Fraction, ...], ...]  # grades[element][q_index]

    def grade(self, x: int, k: int) -> Fraction:
        return self.grades[x][k]

    def q_index(self, label: str) -> int:
        try:
            return self.q_labels.index(label)
        except ValueError:
            raise CarrierError(f"unknown q label {label!r}") from None


@dataclass(frozen=True)
class AlphaQFuzzySubset:
    base: QFuzzySubset
    alpha: Fraction
    restricted: tuple[tuple[Fraction, ...], ...]

    @property
    def group(self) -> FiniteGroup:
        return self.base.group

    @property
    def q_labels(self) -> tuple[str, ...]:
        return self.base.q_labels

    def grade(self, x: int, k: int) -> Fraction:
        return self.restricted[x][k]


def make_qfuzzy(group: FiniteGroup, q_labels, grades) -> QFuzzySubset:
    """Validate dimensions and grade bounds; grades stored exactly."""
    q_labels = tuple(str(q) for q in q_labels)
    if not q_labels:
        raise CarrierError("q label set must be nonempty")
    if len(set(q_labels)) != len(q_labels):
        raise CarrierError("q labels must be distinct")
    rows = tuple(tuple(row) for row in grades)
    if len(rows) != group.order or any(len(row) != len(q_labels) for row in rows):
        raise GradeError(
            f"grade table must be {group.order}x{len(q_labels)} for group {group.name}"
        )
    checked = tuple(tuple(validate_grade(g) for g in row) for row in rows)
    return QFuzzySubset(group, q_labels, checked)


def constant_qfuzzy(group: FiniteGroup, q_labels, value: Fraction) -> QFuzzySubset:
    value = validate_grade(value)
    q_labels = tuple(q_labels)
    return make_qfuzzy(group, q_labels, [[value] * len(q_labels)] * group.order)


def indicator(group: FiniteGroup, q_labels, subset, inside=ONE, outside=ZERO) -> QFuzzySubset:
    """Two-valued subset: `inside` on the given crisp set, `outside` elsewhere."""
    subset = frozenset(subset)
    q_labels = tuple(q_labels)
    rows = [
        [inside if x in subset else outside] * len(q_labels)
        for x in range(group.order)
    ]
    return make_qfuzzy(group, q_labels, rows)


def alpha_restrict(theta: QFuzzySubset, alpha: Fraction) -> AlphaQFuzzySubset:
    alpha = validate_grade(alpha)
    # min(g, alpha) by `grade_le`'s cross-multiplication, inlined because it
    # runs on every grade of every restriction: n/d <= a/b iff n * b <= a * d
    a, b = alpha.as_integer_ratio()
    restricted = []
    for row in theta.grades:
        capped = []
        for g in row:
            n, d = g.as_integer_ratio()
            capped.append(g if n * b <= a * d else alpha)
        restricted.append(tuple(capped))
    return AlphaQFuzzySubset(theta, alpha, tuple(restricted))


def _require_shared_carrier(a, b) -> None:
    if a.group != b.group or a.q_labels != b.q_labels:
        raise CarrierError("operands live on different carriers")


def combine(kind: str, a: QFuzzySubset, b: QFuzzySubset) -> QFuzzySubset:
    """Pointwise max (union) or min (intersection)."""
    _require_shared_carrier(a, b)
    if kind == "union":
        rows = tuple(
            tuple([x if grade_le(y, x) else y for x, y in zip(ra, rb)])
            for ra, rb in zip(a.grades, b.grades)
        )
    elif kind == "intersection":
        rows = tuple(
            tuple([x if grade_le(x, y) else y for x, y in zip(ra, rb)])
            for ra, rb in zip(a.grades, b.grades)
        )
    else:
        raise ValueError(f"unknown combine kind {kind!r}")
    return QFuzzySubset(a.group, a.q_labels, rows)


def union(a: QFuzzySubset, b: QFuzzySubset) -> QFuzzySubset:
    return combine("union", a, b)


def intersection(a: QFuzzySubset, b: QFuzzySubset) -> QFuzzySubset:
    return combine("intersection", a, b)


def compare(kind: str, a: QFuzzySubset, b: QFuzzySubset):
    """Pointwise subset (<=) or equality test.

    Returns (verdict, witness) where the witness is the first failing
    (element label, q label) pair in element-major order, or None.
    """
    _require_shared_carrier(a, b)
    if kind not in ("subset", "equal"):
        raise ValueError(f"unknown compare kind {kind!r}")
    for x in range(a.group.order):
        for k, q in enumerate(a.q_labels):
            ga, gb = a.grades[x][k], b.grades[x][k]
            if kind == "subset":
                ok = grade_le(ga, gb)
            else:  # Fractions are kept in lowest terms
                ok = ga.as_integer_ratio() == gb.as_integer_ratio()
            if not ok:
                return False, (a.group.label(x), q)
    return True, None


def complement(theta: QFuzzySubset) -> QFuzzySubset:
    rows = tuple(tuple(ONE - g for g in row) for row in theta.grades)
    return QFuzzySubset(theta.group, theta.q_labels, rows)


def product(phi: AlphaQFuzzySubset, psi: AlphaQFuzzySubset) -> AlphaQFuzzySubset:
    """Grade at ((x, x'), q) = min(phi(x, q), psi(x', q)) over the direct product.

    Both factors must share q labels and the same alpha; min commutes with the
    restriction, so the result's base is the pointwise min of the bases.
    """
    if phi.q_labels != psi.q_labels:
        raise CarrierError("product factors have different q labels")
    if phi.alpha.as_integer_ratio() != psi.alpha.as_integer_ratio():
        raise CarrierError(
            f"product factors have different alphas: "
            f"{format_grade(phi.alpha)} vs {format_grade(psi.alpha)}"
        )
    prod_group = direct_product(phi.group, psi.group)

    def pairwise_min(left, right):
        return tuple(
            tuple([x if grade_le(x, y) else y for x, y in zip(rx, ry)])
            for rx in left
            for ry in right
        )

    base = QFuzzySubset(prod_group, phi.q_labels, pairwise_min(phi.base.grades, psi.base.grades))
    out = alpha_restrict(base, phi.alpha)
    # By construction min(min(a,b), alpha) = min(min(a,alpha), min(b,alpha)).
    if out.restricted != pairwise_min(phi.restricted, psi.restricted):
        raise InvariantError(
            "product: restricting the base differs from the direct product"
        )
    return out


def image_subset(f: GroupMap, theta: QFuzzySubset) -> QFuzzySubset:
    """Pointwise sup over fibers; an empty fiber yields grade 0.

    Zero is the only choice keeping the image monotone while staying inside
    [0, 1]; it is isolated here.
    """
    if theta.group != f.source:
        raise CarrierError("subset does not live on the map's source group")
    grades = theta.grades
    empty = (ZERO,) * len(theta.q_labels)
    rows = tuple(
        tuple(map(greatest, zip(*[grades[x] for x in bucket]))) if bucket else empty
        for bucket in f.fibers
    )
    return QFuzzySubset(f.target, theta.q_labels, rows)


def preimage_subset(f: GroupMap, sigma: QFuzzySubset) -> QFuzzySubset:
    if sigma.group != f.target:
        raise CarrierError("subset does not live on the map's target group")
    rows = tuple(sigma.grades[f.images[x]] for x in range(f.source.order))
    return QFuzzySubset(f.source, sigma.q_labels, rows)


def level_set(phi: AlphaQFuzzySubset, c: Fraction, q_label: str) -> frozenset[int]:
    """{ x : restricted grade(x, q) >= c }."""
    c = validate_grade(c)
    k = phi.base.q_index(q_label)
    # the cut goes over the column's common denominator with the grades
    *column, cut = scaled_column([row[k] for row in phi.restricted] + [c])
    return frozenset([x for x, g in enumerate(column) if g >= cut])


def achieved_grades(phi: AlphaQFuzzySubset, q_label: str) -> tuple[Fraction, ...]:
    """Distinct restricted grades for one q label, plus 0, ascending."""
    k = phi.base.q_index(q_label)
    column = [row[k] for row in phi.restricted]
    by_value = dict(zip(scaled_column(column), column))
    by_value.setdefault(0, ZERO)
    return tuple([by_value[v] for v in sorted(by_value)])


# --- fuzzy-set file format ---------------------------------------------------
#
#   group: klein4
#   q_labels: q
#   grades:
#   e q 0.2
#   a q 0.4
#   b q 2/5
#   c q 0.3


def parse_fuzzy_file(text: str, resolve_group=standard_group) -> QFuzzySubset:
    lines = text.splitlines()
    group = None
    q_labels: list[str] | None = None
    entries: dict[tuple[str, str], Fraction] = {}
    in_grades = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if in_grades:
            parts = line.split()
            if len(parts) != 3:
                raise FileFormatError(
                    f"expected 'element q-label grade', got {line!r}",
                    line=lineno, field="grades",
                )
            elem, q, literal = parts
            try:
                value = parse_grade(literal)
            except GradeError as exc:
                raise FileFormatError(str(exc), line=lineno, field="grades") from None
            if (elem, q) in entries:
                raise FileFormatError(
                    f"duplicate grade for ({elem}, {q})", line=lineno, field="grades"
                )
            entries[(elem, q)] = value
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise FileFormatError(f"expected 'key: value', got {line!r}", line=lineno)
        key = key.strip()
        value = value.strip()
        if key == "group":
            group = resolve_group(value)
        elif key == "q_labels":
            q_labels = value.split()
        elif key == "grades":
            in_grades = True
        else:
            raise FileFormatError(f"unknown key {key!r}", line=lineno, field=key)
    if group is None:
        raise FileFormatError("missing group reference", field="group")
    if not q_labels:
        raise FileFormatError("missing q labels", field="q_labels")
    rows = []
    for elem in group.elements:
        row = []
        for q in q_labels:
            if (elem, q) not in entries:
                raise FileFormatError(
                    f"missing grade for ({elem}, {q})", field="grades"
                )
            row.append(entries.pop((elem, q)))
        rows.append(row)
    if entries:
        stray = next(iter(entries))
        raise FileFormatError(
            f"grade for unknown pair ({stray[0]}, {stray[1]})", field="grades"
        )
    return make_qfuzzy(group, q_labels, rows)


def format_fuzzy_file(theta: QFuzzySubset) -> str:
    lines = [
        f"group: {theta.group.name}",
        "q_labels: " + " ".join(theta.q_labels),
        "grades:",
    ]
    for x, elem in enumerate(theta.group.elements):
        for k, q in enumerate(theta.q_labels):
            lines.append(f"{elem} {q} {format_grade(theta.grades[x][k])}")
    return "\n".join(lines) + "\n"
