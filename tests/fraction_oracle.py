"""Reference implementations the integer kernels are checked against.

The four scans below compare grades as `Fraction`s over every pair, exactly
as the checks did before they moved to scaled integers and skipped the pairs
that cannot fail; `check_*` compose them the way `qfuzzy.checks` does, and
`validate_grade` is the all-`Fraction` grade validation.  The grade helpers
below are those the kernels used while tables stored `Fraction`s and were
scaled to integers on every call.  Only the tests use this module.
"""
from __future__ import annotations

import math
from fractions import Fraction

from qfuzzy.checks import (
    CheckReport,
    ConditionResult,
    KernelSet,
    _first_failure,
)
from qfuzzy.fuzzy import (
    CarrierError,
    InvariantError,
    QFuzzySubset,
    _require_shared_carrier,
    make_qfuzzy,
)
from qfuzzy.grades import ONE, ZERO, GradeError, format_grade, sorted_grades
from qfuzzy.groups import (
    CrispSubsetAnalysis,
    FiniteGroup,
    GroupError,
    GroupMap,
    all_subgroups,
    closure_of,
    direct_product,
)
from qfuzzy.lab import (
    GeneratorSoundnessError,
    _all_cyclic,
    _preimage_alpha,
)


def intersection(a: QFuzzySubset, b: QFuzzySubset) -> QFuzzySubset:
    return combine("intersection", a, b)


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


def _violation(lhs: Fraction, rhs: Fraction, at: tuple) -> str:
    place = ", ".join(at)
    return f"lhs = {format_grade(lhs)} < rhs = {format_grade(rhs)} at ({place})"


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
    group, q_labels, grades = phi.group, phi.q_labels, phi.grades
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
    group, q_labels, grades = phi.group, phi.q_labels, phi.grades
    anti = _anti_closure_condition(group, q_labels, grades)
    inverse = _inverse_condition(group, q_labels, grades)
    witness, detail = _first_failure(anti, inverse)
    return CheckReport(
        verdict=anti.ok and inverse.ok,
        conditions={"anti_closure": anti, "inverse": inverse},
        witness=witness,
        detail=detail,
    )


# --- fuzzy subsets, kernels and crisp subsets ----------------------------------
#
# The versions below compare grades as `Fraction`s (or, for `analyze_subset`,
# close every subset anew), exactly as `qfuzzy.fuzzy`, `qfuzzy.checks`,
# `qfuzzy.groups` and the `qfuzzy.lab` claim checks did before they moved to
# integer comparisons and the cached lattice table.  Each builds its result
# from a `Fraction` table, so its integer columns come from that table.


def restriction_of(theta: QFuzzySubset, alpha: Fraction, rows) -> QFuzzySubset:
    """The restriction of theta at alpha whose `Fraction` table is `rows`."""
    table = QFuzzySubset.from_grades(theta.group, theta.q_labels, rows)
    return QFuzzySubset(
        theta.group, theta.q_labels, table.columns, table.dens, theta, alpha, table.grades
    )


def alpha_restrict(theta: QFuzzySubset, alpha: Fraction) -> QFuzzySubset:
    alpha = validate_grade(alpha)
    restricted = tuple(tuple(min(g, alpha) for g in row) for row in theta.grades)
    return restriction_of(theta, alpha, restricted)


def complement(theta: QFuzzySubset) -> QFuzzySubset:
    rows = tuple(tuple(ONE - g for g in row) for row in theta.grades)
    return QFuzzySubset.from_grades(theta.group, theta.q_labels, rows)


def preimage_subset(f: GroupMap, sigma: QFuzzySubset) -> QFuzzySubset:
    if sigma.group != f.target:
        raise CarrierError("subset does not live on the map's target group")
    rows = tuple(sigma.grades[f.images[x]] for x in range(f.source.order))
    return QFuzzySubset.from_grades(f.source, sigma.q_labels, rows)


def combine(kind: str, a: QFuzzySubset, b: QFuzzySubset) -> QFuzzySubset:
    """Pointwise max (union) or min (intersection)."""
    _require_shared_carrier(a, b)
    if kind == "union":
        op = max
    elif kind == "intersection":
        op = min
    else:
        raise ValueError(f"unknown combine kind {kind!r}")
    rows = tuple(
        tuple(op(x, y) for x, y in zip(ra, rb))
        for ra, rb in zip(a.grades, b.grades)
    )
    return QFuzzySubset.from_grades(a.group, a.q_labels, rows)


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
            ok = ga <= gb if kind == "subset" else ga == gb
            if not ok:
                return False, (a.group.label(x), q)
    return True, None


def product(phi: QFuzzySubset, psi: QFuzzySubset) -> QFuzzySubset:
    """Grade at ((x, x'), q) = min(phi(x, q), psi(x', q)) over the direct product.

    Both factors must share q labels and the same alpha; min commutes with the
    restriction, so the result's base is the pointwise min of the bases.
    """
    if phi.q_labels != psi.q_labels:
        raise CarrierError("product factors have different q labels")
    if phi.alpha != psi.alpha:
        raise CarrierError(
            f"product factors have different alphas: "
            f"{format_grade(phi.alpha)} vs {format_grade(psi.alpha)}"
        )
    prod_group = direct_product(phi.group, psi.group)
    nq = len(phi.q_labels)
    base_rows = []
    for rx in phi.base.grades:
        for ry in psi.base.grades:
            base_rows.append(tuple(min(rx[k], ry[k]) for k in range(nq)))
    base = QFuzzySubset.from_grades(prod_group, phi.q_labels, tuple(base_rows))
    out = alpha_restrict(base, phi.alpha)
    # By construction min(min(a,b), alpha) = min(min(a,alpha), min(b,alpha)).
    direct = []
    for rx in phi.grades:
        for ry in psi.grades:
            direct.append(tuple(min(rx[k], ry[k]) for k in range(nq)))
    if out.grades != tuple(direct):
        raise InvariantError(
            "product: restricting the base differs from the direct product"
        )
    return out


def _fibers(f: GroupMap) -> list[list[int]]:
    buckets: list[list[int]] = [[] for _ in range(f.target.order)]
    for x, y in enumerate(f.images):
        buckets[y].append(x)
    return buckets


def image_subset(f: GroupMap, theta: QFuzzySubset) -> QFuzzySubset:
    """Pointwise sup over fibers; an empty fiber yields grade 0.

    Zero is the only choice keeping the image monotone while staying inside
    [0, 1]; it is isolated here.
    """
    if theta.group != f.source:
        raise CarrierError("subset does not live on the map's source group")
    nq = len(theta.q_labels)
    rows = []
    for bucket in _fibers(f):
        if bucket:
            rows.append(
                tuple(max(theta.grades[x][k] for x in bucket) for k in range(nq))
            )
        else:
            rows.append((ZERO,) * nq)
    return QFuzzySubset.from_grades(f.target, theta.q_labels, tuple(rows))


def level_set(phi: QFuzzySubset, c: Fraction, q_label: str) -> frozenset[int]:
    """{ x : restricted grade(x, q) >= c }."""
    c = validate_grade(c)
    k = phi.base.q_index(q_label)
    return frozenset(
        x for x in range(phi.group.order) if phi.grades[x][k] >= c
    )


def achieved_grades(phi: QFuzzySubset, q_label: str) -> tuple[Fraction, ...]:
    """Distinct restricted grades for one q label, plus 0, ascending."""
    k = phi.base.q_index(q_label)
    values = {phi.grades[x][k] for x in range(phi.group.order)}
    values.add(ZERO)
    return tuple(sorted(values))


def kernel_set(phi: QFuzzySubset) -> KernelSet:
    """Per q label: elements whose grade equals the identity's grade."""
    group = phi.group
    e = group.identity
    per_label = {}
    for k, q in enumerate(phi.q_labels):
        ge = phi.grades[e][k]
        per_label[q] = frozenset(
            x for x in range(group.order) if phi.grades[x][k] == ge
        )
    return KernelSet(per_label)


def analyze_subset(group: FiniteGroup, subset) -> CrispSubsetAnalysis:
    """Subgroup test for a crisp element set plus closure/abelian/cyclic data.

    Abelian/cyclic verdicts refer to the closure; cyclicity is decided by
    testing each closure element as a generator (smallest index wins).
    """
    subset = frozenset(subset)
    for x in subset:
        if not 0 <= x < group.order:
            raise GroupError(f"subset element {x} is not an element index")
    closed = closure_of(group, subset)
    is_subgroup = bool(subset) and closed == subset
    is_abelian = all(
        group.mul(x, y) == group.mul(y, x) for x in closed for y in closed
    )
    generator = None
    for x in sorted(closed):
        power = group.identity
        generated = {power}
        while True:
            power = group.mul(power, x)
            if power in generated:
                break
            generated.add(power)
        if generated == closed:
            generator = x
            break
    return CrispSubsetAnalysis(
        is_subgroup=is_subgroup,
        closure=closed,
        is_abelian=is_abelian,
        is_cyclic=generator is not None,
        generator=generator,
    )


def _check_p3_3(theta, sigma, alpha):
    lhs = alpha_restrict(intersection(theta, sigma), alpha).grades
    a = alpha_restrict(theta, alpha).grades
    b = alpha_restrict(sigma, alpha).grades
    rhs = tuple(
        tuple(min(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )
    if lhs == rhs:
        return True, None
    return False, "restriction of intersection differs from intersection of restrictions"


def _check_p3_4(f, theta, sigma, alpha):
    lhs = alpha_restrict(image_subset(f, theta), alpha).grades
    rhs = image_subset(f, alpha_restrict(theta, alpha)).grades
    if lhs != rhs:
        return False, "image does not commute with restriction"
    lhs = alpha_restrict(preimage_subset(f, sigma), alpha).grades
    rhs = preimage_subset(f, alpha_restrict(sigma, alpha)).grades
    if lhs != rhs:
        return False, "preimage does not commute with restriction"
    return True, None


def _check_p4_6(phi):
    group = phi.group
    for k, q in enumerate(phi.q_labels):
        column = [phi.grades[x][k] for x in range(group.order)]
        if column[group.identity] != max(column):
            return False, f"identity grade is not maximal for q label {q}"
        kernel = frozenset(
            x for x in range(group.order) if column[x] == column[group.identity]
        )
        if not analyze_subset(group, kernel).is_subgroup:
            return False, f"kernel set at q label {q} is not a crisp subgroup"
    return True, None


def _check_p4_7(phi):
    group = phi.group
    e = group.identity
    for k, q in enumerate(phi.q_labels):
        column = [phi.grades[x][k] for x in range(group.order)]
        for x in range(group.order):
            for y in range(group.order):
                if column[group.mul(x, group.inv(y))] == column[e]:
                    if column[x] != column[y]:
                        return False, (
                            f"lhs = {format_grade(column[x])} != "
                            f"rhs = {format_grade(column[y])} at "
                            f"({group.label(x)}, {group.label(y)}, {q})"
                        )
    return True, None


def _dominates_identity(phi, psi):
    # phi's identity grade bounds every grade of psi, per q label
    e = phi.group.identity
    for k in range(len(phi.q_labels)):
        top = phi.grades[e][k]
        if any(row[k] > top for row in psi.grades):
            return False
    return True


def _positive_at_identity(phi):
    e = phi.group.identity
    return all(g > 0 for g in phi.grades[e])


def _check_p5_11(f, psi):
    theta = _preimage_alpha(f, psi)
    inclusion = True
    for q in psi.q_labels:
        for cut in achieved_grades(psi, q):
            pulled = {
                x for x in range(f.source.order)
                if f.apply(x) in level_set(psi, cut, q)
            }
            if not pulled <= level_set(theta, cut, q):
                inclusion = False
    return inclusion, _all_cyclic(theta)


# --- the generators -------------------------------------------------------------
#
# `qfuzzy.lab`'s generators as they were while they drew `Fraction`s from the
# pool and built tables through `make_qfuzzy`, and, for the subgroup
# generator, before it read proper subgroups from a per-group table and wrote
# grades layer by layer.


def random_qfuzzy(group, q_labels, rng, pool) -> QFuzzySubset:
    """Each grade drawn independently and uniformly from the pool."""
    rows = [[rng.choice(pool) for _ in q_labels] for _ in range(group.order)]
    return make_qfuzzy(group, q_labels, rows)


def _random_chain(group, rng, max_depth=3):
    subs = all_subgroups(group)
    chain = [frozenset(range(group.order))]
    for _ in range(rng.randint(0, max_depth)):
        nested = [s for s in subs if s < chain[-1]]
        if not nested:
            break
        chain.append(rng.choice(nested))
    return chain


def random_qfuzzy_subgroup(group, q_labels, rng, pool) -> QFuzzySubset:
    """Genuine Q-fuzzy subgroup from a random descending subgroup chain.

    Per q label: pick a chain G = H0 > H1 > ... > Hk and a weakly increasing
    grade sequence; the grade of x is the grade of the deepest layer
    containing x.  The output is re-checked and generation aborts if the
    postcondition ever fails.
    """
    rows = [[ZERO] * len(q_labels) for _ in range(group.order)]
    for k in range(len(q_labels)):
        chain = _random_chain(group, rng)
        grades = sorted_grades([rng.choice(pool) for _ in chain])
        for x in range(group.order):
            depth = max(i for i, layer in enumerate(chain) if x in layer)
            rows[x][k] = grades[depth]
    theta = make_qfuzzy(group, q_labels, [tuple(r) for r in rows])
    report = check_qfuzzy_subgroup(theta)
    if not report.verdict:
        raise GeneratorSoundnessError(
            f"generated table on {group.name} is not a subgroup: {report.detail}"
        )
    return theta
