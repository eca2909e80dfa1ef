"""Q-fuzzy subsets over finite groups and their threshold restrictions.

A Q-fuzzy subset assigns an exact rational grade in [0, 1] to every
(element, q-label) pair.  The threshold restriction by alpha replaces each
grade with min(grade, alpha); it is a Q-fuzzy subset too, one that also
holds the table it restricts and alpha.  All operations are pure and exact.

A table's working form is its integer columns: `columns[k][x]` is the grade
of element x at the k-th q label as a numerator over `den`, one denominator
for the whole table.  Operations build their results' columns from their
operands' columns; the `Fraction` table `grades` is a view built on first
read, for parsing, formatting, the codec and witnesses.  `compare` is the one
pointwise order between two tables: equality, and inclusion (<=); it returns
the verdict, and the checks in `checks` name witnesses.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import le

from .grades import (
    GradeError,
    format_grade,
    parse_grade,
    scale_grades,
    validate_grade,
)
from .groups import (
    FiniteGroup, GroupMap, FileFormatError, direct_product, read_sections, standard_group,
)


class CarrierError(ValueError):
    """Two fuzzy subsets do not share a group / q-label carrier."""


class InvariantError(RuntimeError):
    """A restriction identity failed its re-check against the direct result."""


def _over(t, den: int):
    """t's columns as integers over `den`, a multiple of `t.den`."""
    if den == t.den:
        return t.columns
    factor = den // t.den
    return tuple([tuple([g * factor for g in column]) for column in t.columns])


def _pairwise(a, b, merge):
    """Per q label, merge(column of a, column of b), the two over their
    common denominator: (columns, den)."""
    den = math.lcm(a.den, b.den)
    return tuple(map(merge, _over(a, den), _over(b, den))), den


@dataclass(eq=False, slots=True)
class QFuzzySubset:
    """Integer columns, `columns[k][x]` over `den`, with the `Fraction`
    view `grades[element][q_index]` built on first read.  A restriction
    holds the table it restricts as `base` and its `alpha`; both are None on
    an unrestricted table.  Tables are equal when their group, q labels,
    base and alpha are and so are their grades, whatever the denominators."""

    group: FiniteGroup
    q_labels: tuple[str, ...]
    columns: tuple[tuple[int, ...], ...]
    den: int
    base: QFuzzySubset | None = None
    alpha: Fraction | None = None
    _view: tuple | None = field(default=None, repr=False)

    @classmethod
    def from_grades(cls, group, q_labels, grades) -> QFuzzySubset:
        """From `grades[element][q_index]`, `Fraction`s taken as given; see
        `make_qfuzzy` for the validating constructor."""
        view = tuple(map(tuple, grades))
        scaled, den = scale_grades([g for row in view for g in row])
        width = len(q_labels)
        columns = tuple([scaled[k::width] for k in range(width)])
        return cls(group, q_labels, columns, den, _view=view)

    @property
    def grades(self) -> tuple[tuple[Fraction, ...], ...]:
        if self._view is None:
            den = self.den
            self._view = tuple(zip(*[
                [Fraction(g, den) for g in column] for column in self.columns
            ]))
        return self._view

    def grade(self, x: int, k: int) -> Fraction:
        return Fraction(self.columns[k][x], self.den)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (
            (self.group, self.q_labels, self.base, self.alpha)
            == (other.group, other.q_labels, other.base, other.alpha)
            and compare("equal", self, other)
        )


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
    return QFuzzySubset.from_grades(group, q_labels, checked)


def alpha_restrict(theta: QFuzzySubset, alpha: Fraction) -> QFuzzySubset:
    """min(grade, alpha) everywhere, as a table holding theta and alpha."""
    if type(alpha) is not Fraction:
        alpha = validate_grade(alpha)
    a, b = alpha.as_integer_ratio()
    if not 0 <= a <= b:
        validate_grade(alpha)  # raises, naming the grade
    den, columns = theta.den, theta.columns
    if den % b:  # alpha and every grade over one denominator
        den = math.lcm(den, b)
        columns = _over(theta, den)
    cap = a * (den // b)
    capped = tuple([tuple([g if g <= cap else cap for g in column]) for column in columns])
    return QFuzzySubset(theta.group, theta.q_labels, capped, den, theta, alpha)


def _require_shared_carrier(a, b) -> None:
    # identity first: the dataclass compare runs only for distinct groups
    if (a.group is not b.group and a.group != b.group) or a.q_labels != b.q_labels:
        raise CarrierError("operands live on different carriers")


def _pointwise(op, a: QFuzzySubset, b: QFuzzySubset) -> QFuzzySubset:
    _require_shared_carrier(a, b)
    columns = _pairwise(a, b, lambda ca, cb: tuple(map(op, ca, cb)))
    return QFuzzySubset(a.group, a.q_labels, *columns)


def union(a: QFuzzySubset, b: QFuzzySubset) -> QFuzzySubset:
    """Pointwise max."""
    return _pointwise(max, a, b)


def intersection(a: QFuzzySubset, b: QFuzzySubset) -> QFuzzySubset:
    """Pointwise min."""
    return _pointwise(min, a, b)


def compare(kind: str, a: QFuzzySubset, b: QFuzzySubset) -> bool:
    """Whether a <= b pointwise ("subset") or a == b ("equal")."""
    _require_shared_carrier(a, b)
    if kind not in ("subset", "equal"):
        raise ValueError(f"unknown compare kind {kind!r}")
    if a.den == b.den:
        columns_a, columns_b = a.columns, b.columns
    else:
        den = math.lcm(a.den, b.den)
        columns_a, columns_b = _over(a, den), _over(b, den)
    if kind == "equal":
        return columns_a == columns_b
    return all(all(map(le, ca, cb)) for ca, cb in zip(columns_a, columns_b))


def complement(theta: QFuzzySubset) -> QFuzzySubset:
    den = theta.den
    columns = tuple([tuple([den - g for g in c]) for c in theta.columns])
    return QFuzzySubset(theta.group, theta.q_labels, columns, den)


def product(phi: QFuzzySubset, psi: QFuzzySubset) -> QFuzzySubset:
    """Grade at ((x, x'), q) = min(phi(x, q), psi(x', q)) over the direct product.

    Both factors must be restrictions sharing q labels and alpha; min
    commutes with the restriction, so the result's base is the pointwise min
    of the bases.
    """
    if phi.base is None or psi.base is None:
        raise CarrierError("product factors must be restrictions")
    if phi.q_labels != psi.q_labels:
        raise CarrierError("product factors have different q labels")
    if phi.alpha.as_integer_ratio() != psi.alpha.as_integer_ratio():
        raise CarrierError(
            f"product factors have different alphas: "
            f"{format_grade(phi.alpha)} vs {format_grade(psi.alpha)}"
        )
    prod_group = direct_product(phi.group, psi.group)

    def pairwise_min(ca, cb):
        return tuple([x if x <= y else y for x in ca for y in cb])

    base = QFuzzySubset(prod_group, phi.q_labels, *_pairwise(phi.base, psi.base, pairwise_min))
    out = alpha_restrict(base, phi.alpha)
    # By construction min(min(a,b), alpha) = min(min(a,alpha), min(b,alpha)).
    direct = QFuzzySubset(prod_group, phi.q_labels, *_pairwise(phi, psi, pairwise_min))
    if not compare("equal", out, direct):
        raise InvariantError(
            "product: restricting the base differs from the direct product"
        )
    return out


def image_subset(f: GroupMap, theta: QFuzzySubset) -> QFuzzySubset:
    """Pointwise sup over fibers; an empty fiber yields grade 0.

    Zero is the only choice keeping the image monotone while staying inside
    [0, 1]; it is isolated here.
    """
    # identity first: the dataclass compare runs only for distinct groups
    if theta.group is not f.source and theta.group != f.source:
        raise CarrierError("subset does not live on the map's source group")
    take = f.push
    if take is not None:  # injective: one gather, the appended 0 for an empty fiber
        columns = tuple([take(column + (0,)) for column in theta.columns])
    else:
        fibers = f.fibers
        columns = tuple([
            tuple([max(map(column.__getitem__, bucket)) if bucket else 0 for bucket in fibers])
            for column in theta.columns
        ])
    return QFuzzySubset(f.target, theta.q_labels, columns, theta.den)


def preimage_subset(f: GroupMap, sigma: QFuzzySubset) -> QFuzzySubset:
    if sigma.group is not f.target and sigma.group != f.target:
        raise CarrierError("subset does not live on the map's target group")
    return QFuzzySubset(f.source, sigma.q_labels, tuple(map(f.pull, sigma.columns)), sigma.den)


def _at_or_above(column, cut: int) -> frozenset[int]:
    return frozenset([x for x, g in enumerate(column) if g >= cut])


def level_set(phi: QFuzzySubset, c: Fraction, q_label: str) -> frozenset[int]:
    """{ x : grade(x, q) >= c }."""
    n, d = validate_grade(c).as_integer_ratio()
    if q_label not in phi.q_labels:
        raise CarrierError(f"unknown q label {q_label!r}")
    k = phi.q_labels.index(q_label)
    # g / den >= n / d iff g >= ceil(n * den / d), g being an integer
    return _at_or_above(phi.columns[k], -(-n * phi.den // d))


def level_sets(phi: QFuzzySubset, k: int) -> list[tuple[int, frozenset[int]]]:
    """(cut, level set) of the k-th column at each of its grades, plus 0,
    ascending; a cut is an integer over `phi.den`, as the column is."""
    column = phi.columns[k]
    return [(cut, _at_or_above(column, cut)) for cut in sorted({0, *column})]


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
    header, body = read_sections(text, ("group", "q_labels"), "grades")
    if "group" not in header:
        raise FileFormatError("missing group reference", field="group")
    group = resolve_group(header["group"][0])
    labels, lineno = header.get("q_labels", ("", None))
    q_labels = tuple(labels.split())
    if not q_labels:
        raise FileFormatError("missing q labels", field="q_labels")
    column = {q: k for k, q in enumerate(q_labels)}  # a repeated label keeps its last k
    if len(column) < len(q_labels):  # name the first that repeats: its k is not its last
        q = next(q for k, q in enumerate(q_labels) if column[q] != k)
        raise FileFormatError(f"duplicate q label {q!r}", line=lineno, field="q_labels")
    # the carrier is known before the body, so a row naming something outside
    # it is refused at its line
    row = {elem: x for x, elem in enumerate(group.elements)}
    width = len(q_labels)
    table: dict[int, Fraction] = {}  # cell x * width + k -> grade, one per grade line
    parsed: dict[str, Fraction] = {}  # each distinct literal, parsed and validated once
    for lineno, line in body:
        parts = line.split()
        if len(parts) != 3:
            raise FileFormatError(
                f"expected 'element q-label grade', got {line!r}",
                line=lineno, field="grades",
            )
        elem, q, literal = parts
        if elem not in row or q not in column:
            raise FileFormatError(
                f"grade for unknown pair ({elem}, {q})", line=lineno, field="grades"
            )
        value = parsed.get(literal)
        if value is None:
            try:
                value = parsed[literal] = parse_grade(literal)
            except GradeError as exc:
                raise FileFormatError(str(exc), line=lineno, field="grades") from None
        cell = row[elem] * width + column[q]
        if cell in table:
            raise FileFormatError(
                f"duplicate grade for ({elem}, {q})", line=lineno, field="grades"
            )
        table[cell] = value
    cells = group.order * width
    if len(table) < cells:
        cell = next(i for i in range(cells) if i not in table)  # the first, row-major
        elem, q = group.elements[cell // width], q_labels[cell % width]
        raise FileFormatError(f"missing grade for ({elem}, {q})", field="grades")
    # the rows span the group's elements and the q labels, which are distinct,
    # and every grade is validated: the table needs no second check
    rows = [[table[x * width + k] for k in range(width)] for x in range(group.order)]
    return QFuzzySubset.from_grades(group, q_labels, rows)
