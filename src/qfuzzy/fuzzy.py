"""Q-fuzzy subsets over finite groups and their threshold restrictions.

A Q-fuzzy subset assigns an exact rational grade in [0, 1] to every
(element, q-label) pair.  The threshold restriction by alpha replaces each
grade with min(grade, alpha); it is a Q-fuzzy subset too, one that also
holds the table it restricts and alpha.  All operations are pure and exact.

A table's working form is its integer columns: `columns[k][x]` is the grade
of element x at the k-th q label as a numerator over `dens[k]`.  Operations
build their results' columns from their operands' columns; the `Fraction`
table `grades` is a view built on first read, for parsing, formatting, the
codec and witnesses.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .grades import (
    GradeError,
    ZERO,
    ONE,
    format_grade,
    parse_grade,
    scale_grades,
    validate_grade,
)
from .groups import FiniteGroup, GroupMap, FileFormatError, direct_product, standard_group


class CarrierError(ValueError):
    """Two fuzzy subsets do not share a group / q-label carrier."""


class InvariantError(RuntimeError):
    """A restriction identity failed its re-check against the direct result."""


def _pairwise(a, b, merge):
    """Per q label, merge(column of a, column of b), the two over their
    common denominator: (columns, dens)."""
    columns, dens = [], []
    for ca, da, cb, db in zip(a.columns, a.dens, b.columns, b.dens):
        if da != db:
            den = math.lcm(da, db)
            ca, cb, da = [g * (den // da) for g in ca], [g * (den // db) for g in cb], den
        columns.append(merge(ca, cb))
        dens.append(da)
    return tuple(columns), tuple(dens)


@dataclass(eq=False, slots=True)
class QFuzzySubset:
    """Integer columns, `columns[k][x]` over `dens[k]`, with the `Fraction`
    view `grades[element][q_index]` built on first read.  A restriction
    holds the table it restricts as `base` and its `alpha`; both are None on
    an unrestricted table.  Tables are equal when their group, q labels,
    base and alpha are and so are their grades, whatever the denominators."""

    group: FiniteGroup
    q_labels: tuple[str, ...]
    columns: tuple[tuple[int, ...], ...]
    dens: tuple[int, ...]
    base: QFuzzySubset | None = None
    alpha: Fraction | None = None
    _view: tuple | None = field(default=None, repr=False)

    @classmethod
    def from_grades(cls, group, q_labels, grades) -> QFuzzySubset:
        """From `grades[element][q_index]`, `Fraction`s taken as given; see
        `make_qfuzzy` for the validating constructor."""
        view = tuple(map(tuple, grades))
        scaled = [scale_grades(column) for column in zip(*view)]
        columns, dens = tuple([c for c, _ in scaled]), tuple([d for _, d in scaled])
        return cls(group, q_labels, columns, dens, _view=view)

    @property
    def grades(self) -> tuple[tuple[Fraction, ...], ...]:
        if self._view is None:
            self._view = tuple(zip(*[
                [Fraction(g, den) for g in column]
                for column, den in zip(self.columns, self.dens)
            ]))
        return self._view

    def grade(self, x: int, k: int) -> Fraction:
        return Fraction(self.columns[k][x], self.dens[k])

    def q_index(self, label: str) -> int:
        try:
            return self.q_labels.index(label)
        except ValueError:
            raise CarrierError(f"unknown q label {label!r}") from None

    def same_grades(self, other: QFuzzySubset) -> bool:
        """Every grade equals the other table's, on a carrier of the same
        size, whatever the denominators."""
        return len(self.columns) == len(other.columns) and all(
            a == b if da == db else all([x * db == y * da for x, y in zip(a, b)])
            for a, da, b, db in zip(self.columns, self.dens, other.columns, other.dens)
        )

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (
            (self.group, self.q_labels, self.base, self.alpha)
            == (other.group, other.q_labels, other.base, other.alpha)
            and self.same_grades(other)
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


def alpha_restrict(theta: QFuzzySubset, alpha: Fraction) -> QFuzzySubset:
    """min(grade, alpha) everywhere, as a table holding theta and alpha."""
    alpha = validate_grade(alpha)
    a, b = alpha.as_integer_ratio()
    columns, dens = [], []
    for column, den in zip(theta.columns, theta.dens):
        if den % b:  # alpha is not over the column's denominator: use their lcm
            factor = b // math.gcd(den, b)
            column, den = tuple([g * factor for g in column]), den * factor
        cap = a * (den // b)
        if max(column) > cap:
            column = tuple([g if g <= cap else cap for g in column])
        columns.append(column)
        dens.append(den)
    return QFuzzySubset(theta.group, theta.q_labels, tuple(columns), tuple(dens), theta, alpha)


def _require_shared_carrier(a, b) -> None:
    if a.group != b.group or a.q_labels != b.q_labels:
        raise CarrierError("operands live on different carriers")


def combine(kind: str, a: QFuzzySubset, b: QFuzzySubset) -> QFuzzySubset:
    """Pointwise max (union) or min (intersection)."""
    _require_shared_carrier(a, b)
    op = {"union": max, "intersection": min}.get(kind)
    if op is None:
        raise ValueError(f"unknown combine kind {kind!r}")
    columns = _pairwise(a, b, lambda ca, cb: tuple(map(op, ca, cb)))
    return QFuzzySubset(a.group, a.q_labels, *columns)


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
    pairs = _pairwise(a, b, lambda ca, cb: (ca, cb))[0]
    for x in range(a.group.order):
        for q, (ca, cb) in zip(a.q_labels, pairs):
            ok = ca[x] <= cb[x] if kind == "subset" else ca[x] == cb[x]
            if not ok:
                return False, (a.group.label(x), q)
    return True, None


def complement(theta: QFuzzySubset) -> QFuzzySubset:
    columns = tuple([tuple([den - g for g in c]) for c, den in zip(theta.columns, theta.dens)])
    return QFuzzySubset(theta.group, theta.q_labels, columns, theta.dens)


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
    if not out.same_grades(direct):
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
    fibers = f.fibers
    columns = tuple([
        tuple([max([column[x] for x in bucket]) if bucket else 0 for bucket in fibers])
        for column in theta.columns
    ])
    return QFuzzySubset(f.target, theta.q_labels, columns, theta.dens)


def preimage_subset(f: GroupMap, sigma: QFuzzySubset) -> QFuzzySubset:
    if sigma.group != f.target:
        raise CarrierError("subset does not live on the map's target group")
    images = f.images
    columns = tuple([tuple([column[y] for y in images]) for column in sigma.columns])
    return QFuzzySubset(f.source, sigma.q_labels, columns, sigma.dens)


def level_set(phi: QFuzzySubset, c: Fraction, q_label: str) -> frozenset[int]:
    """{ x : grade(x, q) >= c }."""
    n, d = validate_grade(c).as_integer_ratio()
    k = phi.q_index(q_label)
    cut = n * phi.dens[k]  # g / den >= n / d iff g * d >= n * den
    return frozenset([x for x, g in enumerate(phi.columns[k]) if g * d >= cut])


def achieved_grades(phi: QFuzzySubset, q_label: str) -> tuple[Fraction, ...]:
    """Distinct grades for one q label, plus 0, ascending."""
    k = phi.q_index(q_label)
    den = phi.dens[k]
    return tuple([Fraction(g, den) for g in sorted({0, *phi.columns[k]})])


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
