"""Randomized and exhaustive audits of the claim catalog.

Each claim about threshold-restricted Q-fuzzy subgroups is checked
mechanically: hypotheses are generated (random grade tables, genuine fuzzy
subgroups built from subgroup chains, enumerated group maps), the claimed
conclusion is evaluated exactly, and failures are materialized as fully
replayable counterexample records.

Claim ids follow the source catalog (P3.3, P4.2, ..., R4.9).  Each claim is
one `Claim` record in `CLAIMS`: its carriers, how its inputs are drawn, the
hypothesis a trial must meet, and the conclusion checked; one runner audits
every record and `replay_failure` re-evaluates any record's failures.  Claims
whose statement and proof disagree, or whose literal reading is known to be
interpretation-dependent, carry status "recorded": the audit reports the
empirical finding instead of asserting an expected verdict.

The bounded searches (`SEARCHES`: R4.3, R4.9 and P4.11's literal reading)
are records too, whose inputs come from a lazy candidate space: one loop
keeps the first input that meets the hypothesis and fails the conclusion,
and `validate_witness` re-checks a witness as replay re-checks a failure.

Determinism: every trial derives its own generator from
(seed, claim id, carrier, trial index), so the same AuditConfig always
produces identical reports regardless of execution order.
"""
from __future__ import annotations

import itertools
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .grades import (
    ZERO,
    ONE,
    GradePool,
    format_grade,
    parse_grade,
    sorted_grades,
    validate_grade,
)
from .groups import (
    ANTI_HOMOMORPHISM,
    HOMOMORPHISM,
    GroupMap,
    all_subgroups,
    analyze_subset,
    enumerate_maps,
    is_injective,
    is_surjective,
    make_map,
    standard_group,
)
from .fuzzy import (
    QFuzzySubset,
    achieved_grades,
    alpha_restrict,
    complement,
    image_subset,
    intersection,
    level_set,
    make_qfuzzy,
    preimage_subset,
    product,
    union,
)
from .checks import (
    check_alpha_subgroup,
    check_anti_subgroup,
    check_qfuzzy_subgroup,
    classify_abelian,
    classify_cyclic,
)


class GeneratorSoundnessError(RuntimeError):
    """A generated fuzzy subgroup failed its own postcondition check."""


class ReproductionError(AssertionError):
    """A worked-example reproduction diverged from the published values."""


DEFAULT_POOL = tuple(
    sorted_grades(
        Fraction(p)
        for p in ("0", "9/100", "1/10", "1/5", "3/10", "2/5", "1/2", "1")
    )
)

DEFAULT_CATALOG = tuple(
    [f"cyclic{n}" for n in range(2, 13)]
    + ["klein4", "symmetric3", "dihedral4", "quaternion8", "cyclic2xcyclic2"]
)

# Pairs for map-quantified claims; chosen to cover abelian and non-abelian
# sources/targets plus injective, surjective, and collapsing maps.
DEFAULT_MAP_PAIRS = (
    ("cyclic2", "cyclic2"),
    ("cyclic2", "cyclic4"),
    ("cyclic4", "cyclic2"),
    ("klein4", "cyclic2"),
    ("cyclic6", "cyclic6"),
    ("cyclic3", "symmetric3"),
    ("symmetric3", "cyclic2"),
    ("symmetric3", "symmetric3"),
    ("dihedral4", "dihedral4"),
)

DEFAULT_PRODUCT_PAIRS = (
    ("cyclic2", "cyclic2"),
    ("cyclic2", "cyclic3"),
    ("klein4", "cyclic2"),
    ("symmetric3", "cyclic2"),
    ("cyclic4", "cyclic3"),
)


@dataclass(frozen=True)
class AuditConfig:
    catalog: tuple[str, ...] = DEFAULT_CATALOG
    q_size: int = 1
    trials: int = 200
    seed: int = 7
    grade_pool: tuple[Fraction, ...] = DEFAULT_POOL  # a GradePool once built
    map_pairs: tuple[tuple[str, str], ...] = DEFAULT_MAP_PAIRS
    product_pairs: tuple[tuple[str, str], ...] = DEFAULT_PRODUCT_PAIRS
    max_source: int = 8

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.q_size < 1:
            raise ValueError("q_size must be >= 1")
        if not self.grade_pool:
            raise ValueError("grade pool must be nonempty")
        pool = GradePool(sorted_grades(validate_grade(g) for g in self.grade_pool))
        object.__setattr__(self, "grade_pool", pool)
        object.__setattr__(self, "catalog", tuple(self.catalog))
        object.__setattr__(self, "map_pairs", tuple(tuple(p) for p in self.map_pairs))
        object.__setattr__(
            self, "product_pairs", tuple(tuple(p) for p in self.product_pairs)
        )

    def q_labels(self) -> tuple[str, ...]:
        if self.q_size == 1:
            return ("q",)
        return tuple(f"q{i + 1}" for i in range(self.q_size))


@dataclass
class AuditReport:
    prop_id: str
    carrier: str
    trials: int  # trials whose conclusion was actually evaluated
    passes: int
    filtered: int
    failures: list
    status: str  # verified-exhaustive | verified-sampled | refuted | recorded
    notes: str = ""


# --- generators --------------------------------------------------------------


def _trial_rng(config: AuditConfig, prop_id: str, carrier: str, trial: int):
    return random.Random(f"{config.seed}|{prop_id}|{carrier}|{trial}")


def random_qfuzzy(group, q_labels, rng, pool) -> QFuzzySubset:
    """Each grade drawn independently and uniformly from the pool."""
    pool = GradePool(pool)  # AuditConfig's pool is validated and scaled already
    # `choice` draws an index into the pool, so drawing from its integers
    # uses the generator as drawing from its grades would
    rows = [[rng.choice(pool.scaled) for _ in q_labels] for _ in range(group.order)]
    return QFuzzySubset(group, q_labels, tuple(zip(*rows)), (pool.den,) * len(q_labels))


@lru_cache(maxsize=None)
def _proper_subgroups(group) -> dict[frozenset[int], tuple[frozenset[int], ...]]:
    # per subgroup, its proper subgroups in `all_subgroups` order
    subs = all_subgroups(group)
    return {h: tuple(s for s in subs if s < h) for h in subs}


def _random_chain(group, rng, max_depth=3):
    below = _proper_subgroups(group)
    chain = [frozenset(range(group.order))]
    for _ in range(rng.randint(0, max_depth)):
        nested = below[chain[-1]]
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
    pool = GradePool(pool)
    columns = []
    for _ in q_labels:
        chain = _random_chain(group, rng)
        grades = sorted([rng.choice(pool.scaled) for _ in chain])
        column = [0] * group.order
        # the chain descends strictly, so each element's deepest layer writes last
        for layer, grade in zip(chain, grades):
            for x in layer:
                column[x] = grade
        columns.append(tuple(column))
    theta = QFuzzySubset(group, q_labels, tuple(columns), (pool.den,) * len(q_labels))
    report = check_qfuzzy_subgroup(theta)
    if not report.verdict:
        raise GeneratorSoundnessError(
            f"generated table on {group.name} is not a subgroup: {report.detail}"
        )
    return theta


# --- the payload codec --------------------------------------------------------
#
# Failure records and search witnesses hold each input under its name:
# theta and sigma are Q-fuzzy subsets, phi and psi their restrictions, alpha
# a grade and map a group map.  Groups are stored by catalog name.

_RESTRICTED = ("phi", "psi")


def _encode(name: str, value):
    if name == "alpha":
        return format_grade(value)
    if name == "map":
        return {
            "kind": value.kind,
            "source": value.source.name,
            "target": value.target.name,
            "images": [value.target.label(y) for y in value.images],
        }
    subset = value.base if name in _RESTRICTED else value
    payload = {
        "group": subset.group.name,
        "q_labels": list(subset.q_labels),
        "grades": {
            elem: {q: format_grade(g) for q, g in zip(subset.q_labels, row)}
            for elem, row in zip(subset.group.elements, subset.grades)
        },
    }
    if name in _RESTRICTED:
        payload["alpha"] = format_grade(value.alpha)
    return payload


def _decode(name: str, payload):
    if name == "alpha":
        return parse_grade(payload)
    if name == "map":
        source = standard_group(payload["source"])
        target = standard_group(payload["target"])
        images = [target.index(label) for label in payload["images"]]
        return make_map(source, target, images, payload["kind"])
    group = standard_group(payload["group"])
    q_labels = tuple(payload["q_labels"])
    rows = [
        [parse_grade(payload["grades"][elem][q]) for q in q_labels]
        for elem in group.elements
    ]
    subset = make_qfuzzy(group, q_labels, rows)
    if name in _RESTRICTED:
        return alpha_restrict(subset, parse_grade(payload["alpha"]))
    return subset


# --- per-claim conclusion checks ---------------------------------------------
#
# Each takes a claim's named inputs, after the map when the claim quantifies
# over maps, and returns (ok, violation detail) unless its claim's `verdict`
# reads another shape; the audit runner and replay_failure share these, and
# the hypotheses are the predicates next to them.


def _outcome(report):
    # a check's verdict and first violation, as a conclusion's (ok, detail)
    return report.verdict, report.detail


def _check_p3_3(theta, sigma, alpha):
    lhs = alpha_restrict(intersection(theta, sigma), alpha)
    rhs = intersection(alpha_restrict(theta, alpha), alpha_restrict(sigma, alpha))
    if lhs.same_grades(rhs):
        return True, None
    return False, "restriction of intersection differs from intersection of restrictions"


def _first_per_image(maps) -> tuple[GroupMap, ...]:
    # the first map of each image array, in order: for maps between the same
    # groups, a later map with the same images fails P3.4 iff that one does
    first = {}
    for f in maps:
        first.setdefault(f.images, f)
    return tuple(first.values())


def _check_p3_4(maps, theta, sigma, alpha):
    # returns (ok, violation detail, first failing map)
    restricted_theta = alpha_restrict(theta, alpha)
    restricted_sigma = alpha_restrict(sigma, alpha)
    for f in maps:
        lhs = alpha_restrict(image_subset(f, theta), alpha)
        if not lhs.same_grades(image_subset(f, restricted_theta)):
            return False, "image does not commute with restriction", f
        lhs = alpha_restrict(preimage_subset(f, sigma), alpha)
        if not lhs.same_grades(preimage_subset(f, restricted_sigma)):
            return False, "preimage does not commute with restriction", f
    return True, None, None


def _check_p4_2(theta, alpha):
    return _outcome(check_qfuzzy_subgroup(alpha_restrict(theta, alpha)))


def _check_p4_6(phi):
    group = phi.group
    for q, column in zip(phi.q_labels, phi.columns):
        top = column[group.identity]
        if top != max(column):
            return False, f"identity grade is not maximal for q label {q}"
        kernel = frozenset([x for x, g in enumerate(column) if g == top])
        if not analyze_subset(group, kernel).is_subgroup:
            return False, f"kernel set at q label {q} is not a crisp subgroup"
    return True, None


def _check_p4_7(phi):
    group = phi.group
    table, inverses = group.table, group.inverses
    n = group.order
    for q, column, den in zip(phi.q_labels, phi.columns, phi.dens):
        top = column[group.identity]
        for x in range(n):
            row, gx = table[x], column[x]
            for y in range(n):
                if column[row[inverses[y]]] == top and gx != column[y]:
                    return False, (
                        f"lhs = {format_grade(Fraction(gx, den))} != "
                        f"rhs = {format_grade(Fraction(column[y], den))} at "
                        f"({group.label(x)}, {group.label(y)}, {q})"
                    )
    return True, None


def _check_p4_11(phi):
    comp = complement(phi)
    anti = check_anti_subgroup(comp)
    return (*_outcome(anti), *_outcome(check_qfuzzy_subgroup(comp)))


def _check_p4_12(phi):
    report = check_alpha_subgroup(phi)
    if report.forms_agree:
        return True, None
    return False, (
        f"two-condition verdict {report.verdict} disagrees with quotient-form "
        f"verdict {report.conditions['quotient'].ok}"
    )


def _dominates_identity(phi, psi):
    # phi's identity grade bounds every grade of psi, per q label
    e = phi.group.identity
    for top, den, column, d in zip(phi.columns, phi.dens, psi.columns, psi.dens):
        # max(column) / d <= top[e] / den
        if max(column) * den > top[e] * d:
            return False
    return True


def _positive_at_identity(phi):
    e = phi.group.identity
    return all(column[e] > 0 for column in phi.columns)


def _product_is_subgroup(phi, psi):
    return check_qfuzzy_subgroup(product(phi, psi)).verdict


def _check_p4_15(phi, psi):
    # assumes the product is a subgroup and one factor's identity dominates
    for case, top, other in (("i", phi, psi), ("ii", psi, phi)):
        if _dominates_identity(top, other):
            report = check_qfuzzy_subgroup(other)
            if not report.verdict:
                return False, f"case ({case}) conclusion fails: {report.detail}"
    return True, None


def _check_r4_16(phi, psi):
    # assumes the product is a subgroup
    disjunction = (
        check_qfuzzy_subgroup(phi).verdict or check_qfuzzy_subgroup(psi).verdict
    )
    return disjunction, None if disjunction else "neither factor is a subgroup"


def _image_alpha(f, phi):
    return alpha_restrict(image_subset(f, phi.base), phi.alpha)


def _preimage_alpha(f, psi):
    return alpha_restrict(preimage_subset(f, psi.base), psi.alpha)


def _all_abelian(phi):
    return all(s.verdict for s in classify_abelian(phi).values())


def _all_cyclic(phi):
    return all(s.verdict for s in classify_cyclic(phi).values())


def _check_p5_7(f, phi):
    if _all_abelian(_image_alpha(f, phi)):
        return True, None
    return False, "image kernel set is not an abelian crisp subgroup"


def _check_p5_8(f, psi):
    if _all_abelian(_preimage_alpha(f, psi)):
        return True, None
    return False, "preimage kernel set is not an abelian crisp subgroup"


def _check_p5_10(f, phi):
    sigma = _image_alpha(f, phi)
    inclusion = True
    for q in phi.q_labels:
        for cut in achieved_grades(phi, q):
            pushed = {f.apply(x) for x in level_set(phi, cut, q)}
            if not pushed <= level_set(sigma, cut, q):
                inclusion = False
    return inclusion, _all_cyclic(sigma)


def _check_p5_11(f, psi):
    theta = _preimage_alpha(f, psi)
    inclusion = True
    for q in psi.q_labels:
        for cut in achieved_grades(psi, q):
            upper = level_set(psi, cut, q)
            pulled = {x for x in range(f.source.order) if f.apply(x) in upper}
            if not pulled <= level_set(theta, cut, q):
                inclusion = False
    return inclusion, _all_cyclic(theta)


# --- search spaces ---------------------------------------------------------------
#
# A search claim's space gives, lazily, its candidate inputs on one catalog
# group in a fixed order: one-label tables over the grade pool (taken
# lexicographically over the ascending pool), then alpha ascending.  Each
# space bounds the group orders it enumerates.


def _pool_table(group, column, pool: GradePool) -> QFuzzySubset:
    return QFuzzySubset(group, ("q",), (column,), (pool.den,))


def _tables(group, pool: GradePool):
    # every table, enumerable only at tiny orders
    if group.order > 4:
        return
    for column in itertools.product(pool.scaled, repeat=group.order):
        theta = _pool_table(group, column, pool)
        for alpha in pool:
            yield theta, alpha


def _is_fuzzy_subgroup_by_levels(subgroups, column) -> bool:
    # independent oracle: every achieved level set must be a crisp subgroup
    for cut in set(column):
        members = frozenset(x for x, g in enumerate(column) if g >= cut)
        if members not in subgroups:
            return False
    return True


def _two_level_pairs(group, pool: GradePool):
    # pairs of indicator-style tables, hi on a subgroup and lo elsewhere with
    # hi > lo, restricted at alpha: only those whose union the level-set
    # oracle finds not a subgroup (Das 1981), so it runs before any check
    if group.order > 6:
        return
    subgroups = all_subgroups(group)
    lattice = set(subgroups)
    columns = [
        tuple(hi if x in sub else lo for x in range(group.order))
        for sub in subgroups for hi in pool.scaled for lo in pool.scaled if hi > lo
    ]
    by_levels = {}  # the oracle's verdict per restricted union column
    for a in columns:
        for b in columns:
            merged = tuple(map(max, a, b))
            for alpha, cap in zip(pool, pool.scaled):
                restricted = tuple(g if g <= cap else cap for g in merged)
                ok = by_levels.get(restricted)
                if ok is None:
                    ok = _is_fuzzy_subgroup_by_levels(lattice, restricted)
                    by_levels[restricted] = ok
                if not ok:
                    yield _pool_table(group, a, pool), _pool_table(group, b, pool), alpha


# --- the claim table -----------------------------------------------------------


def _pass_fail(result):
    # a conclusion's (ok, detail), with no finding
    return result[0], result[1], None


def _inclusion(violation):
    # _check_p5_10/_check_p5_11 give (inclusion, cyclic): the level-set
    # inclusion decides, and cyclicity is the finding
    return lambda result: (result[0], violation, (result[1], None))


@dataclass(frozen=True)
class Claim:
    """One claim of the catalog, declared once.

    A trial draws the named inputs on a carrier, is filtered when the
    hypothesis fails on them, and otherwise evaluates the conclusion, once
    per enumerated map when the claim has map kinds.  Both take the inputs
    in the order of `inputs`, the conclusion after the map.  A search claim
    instead takes its inputs from its space, group by group over the
    catalog, and its witness is the first that meets the hypothesis and
    fails the conclusion.  A record holds
    none of the generators, `check_*`/`classify_*` functions or fuzzy
    operations themselves: its callables look those up by their
    module-global names when they run, so a wrapper installed on the module
    sees every call.
    """

    description: str
    status: str  # "verified": the audit expects no failure; "recorded": a finding
    carriers: str  # the AuditConfig field audited over, or "search"
    draws: str = ""  # generator of each subset: "table", "subgroup" or "mixed"
    # theta (on the left group) and sigma (on the right) with alpha last, or
    # phi and psi: the same subsets restricted at alpha
    inputs: tuple[str, ...] = ()
    map_kinds: tuple[str, ...] = ()  # maps from left to right, enumerated
    hypothesis: Callable | None = None  # of the inputs
    conclusion: Callable | None = None  # a _check_*, given the map first
    verdict: Callable = _pass_fail  # conclusion result -> (ok, detail, finding)
    per_image: bool = False  # the conclusion takes the first map per image array
    criterion: Callable | None = None  # maps that decide; the others give findings
    split: Callable | None = None  # maps whose findings are also counted apart
    notes: Callable | None = None  # (tally, maps), or the witness of a search
    space: Callable | None = None  # of a search: (group, pool) -> its inputs, lazily
    prefiltered: bool = False  # the space yields only inputs its oracle finds failing

    def draw(self, left, right, q_labels, rng, pool) -> tuple:
        """The trial's inputs, in the order of `inputs`: the subsets drawn in
        that order, then alpha."""
        make = {
            "table": random_qfuzzy,
            "subgroup": random_qfuzzy_subgroup,
            "mixed": _mixed_subset,
        }[self.draws]
        subsets = [
            make(right if name in ("sigma", "psi") else left, q_labels, rng, pool)
            for name in self.inputs
            if name != "alpha"
        ]
        alpha = rng.choice(pool)
        if "alpha" in self.inputs:
            return (*subsets, alpha)
        return tuple([alpha_restrict(subset, alpha) for subset in subsets])


def _mixed_subset(group, q_labels, rng, pool):
    # half genuine subgroups, half unconstrained tables
    if rng.random() < 0.5:
        return random_qfuzzy_subgroup(group, q_labels, rng, pool)
    return random_qfuzzy(group, q_labels, rng, pool)


def _anti_maps_note(tally, maps):
    return f"quantified over all {len(maps)} anti-homomorphisms per trial"


def _p4_11_note(tally, maps):
    text = (
        f"proof's reversed inequalities audited as the pass criterion; "
        f"literal min-form claim for the complement held in "
        f"{tally.held}/{tally.held + tally.missed} trials"
    )
    if tally.first_miss:
        text += f"; first literal counterexample: {tally.first_miss['violation']}"
    return text


def _p5_8_note(tally, maps):
    injective = sum(1 for f in maps if is_injective(f))
    text = (
        f"pass criterion quantified over the {injective} injective of "
        f"{len(maps)} anti-homomorphisms"
    )
    if tally.held + tally.missed:
        text += (
            f"; literal claim over non-injective maps held in "
            f"{tally.held}/{tally.held + tally.missed} evaluations"
        )
    if tally.first_miss:
        text += f"; first counterexample: {tally.first_miss['violation']}"
    return text


def _cyclic_note(maps_split):
    def note(tally, maps):
        return (
            "pass criterion is the level-set inclusion; cyclicity conclusion "
            f"held in {tally.held}/{tally.held + tally.missed} map evaluations "
            f"overall and {tally.held_split}/{tally.held_split + tally.missed_split} "
            f"over {maps_split} maps"
        )

    return note


def _witness_note(witness):
    return f"witness on {witness['theta']['group']} with alpha = {witness['alpha']}"


CLAIMS = {
    "P3.3": Claim(
        "restriction distributes over intersection", "verified", "catalog",
        draws="table", inputs=("theta", "sigma", "alpha"), conclusion=_check_p3_3,
    ),
    "P3.4": Claim(
        "image and preimage commute with restriction", "verified", "map_pairs",
        draws="table", inputs=("theta", "sigma", "alpha"),
        map_kinds=(HOMOMORPHISM, ANTI_HOMOMORPHISM), conclusion=_check_p3_4,
        per_image=True,
        notes=lambda tally, maps: f"quantified over {len(maps)} enumerated maps per trial",
    ),
    "P4.2": Claim(
        "every Q-fuzzy subgroup stays one after restriction", "verified", "catalog",
        draws="subgroup", inputs=("theta", "alpha"), conclusion=_check_p4_2,
    ),
    "P4.6": Claim(
        "identity dominance and kernel-set subgroup", "verified", "catalog",
        draws="subgroup", inputs=("phi",), conclusion=_check_p4_6,
    ),
    "P4.7": Claim(
        "quotient at identity grade forces equal grades", "verified", "catalog",
        draws="subgroup", inputs=("phi",), conclusion=_check_p4_7,
    ),
    "P4.8": Claim(
        "intersection of restricted subgroups is one", "verified", "catalog",
        draws="subgroup", inputs=("theta", "sigma", "alpha"),
        conclusion=lambda theta, sigma, alpha: _check_p4_2(intersection(theta, sigma), alpha),
    ),
    # the proof's reversed inequalities decide; the literal min-form claim
    # for the complement is the finding
    "P4.11": Claim(
        "complement of a restricted subgroup (statement vs proof)", "recorded",
        "catalog", draws="subgroup", inputs=("phi",), conclusion=_check_p4_11,
        verdict=lambda result: (result[0], result[1], (result[2], result[3])),
        notes=_p4_11_note,
    ),
    "P4.12": Claim(
        "two-condition form equals quotient form", "verified", "catalog",
        draws="mixed", inputs=("phi",), conclusion=_check_p4_12,
    ),
    "P4.14": Claim(
        "product of restricted subgroups is one on the product group", "verified",
        "product_pairs", draws="subgroup", inputs=("phi", "psi"),
        conclusion=lambda phi, psi: _outcome(check_qfuzzy_subgroup(product(phi, psi))),
    ),
    "P4.15": Claim(
        "dominant-identity factor recovers the other factor", "verified",
        "product_pairs", draws="mixed", inputs=("phi", "psi"),
        hypothesis=lambda phi, psi: _product_is_subgroup(phi, psi) and (
            _dominates_identity(phi, psi) or _dominates_identity(psi, phi)
        ),
        conclusion=_check_p4_15,
    ),
    "R4.16": Claim(
        "product subgroup forces one factor to be a subgroup (weak form)",
        "recorded", "product_pairs", draws="mixed", inputs=("phi", "psi"),
        hypothesis=lambda phi, psi: _product_is_subgroup(phi, psi),
        conclusion=_check_r4_16,
        notes=lambda tally, maps: (
            "interpretation-dependent weak disjunctive reading; held in "
            f"{tally.passes}/{tally.passes + len(tally.failures)} applicable trials"
        ),
    ),
    "P5.2": Claim(
        "anti-homomorphic image preserves restricted subgroups", "verified",
        "map_pairs", draws="subgroup", inputs=("phi",),
        map_kinds=(ANTI_HOMOMORPHISM,),
        conclusion=lambda f, phi: _outcome(check_qfuzzy_subgroup(_image_alpha(f, phi))),
        notes=_anti_maps_note,
    ),
    "P5.4": Claim(
        "anti-homomorphic preimage preserves restricted subgroups", "verified",
        "map_pairs", draws="subgroup", inputs=("psi",),
        map_kinds=(ANTI_HOMOMORPHISM,),
        conclusion=lambda f, psi: _outcome(check_qfuzzy_subgroup(_preimage_alpha(f, psi))),
        notes=_anti_maps_note,
    ),
    # a nonzero identity grade is assumed too: the all-zero subset makes the
    # image kernel swallow elements outside the map's range
    "P5.7": Claim(
        "anti-homomorphic image preserves abelian kernels", "verified",
        "map_pairs", draws="subgroup", inputs=("phi",),
        map_kinds=(ANTI_HOMOMORPHISM,),
        hypothesis=lambda phi: _positive_at_identity(phi) and _all_abelian(phi),
        conclusion=_check_p5_7, notes=_anti_maps_note,
    ),
    # the cancellation step of the claim's argument needs injectivity, so
    # the injective maps decide and the rest give the literal finding
    "P5.8": Claim(
        "anti-homomorphic preimage preserves abelian kernels", "verified",
        "map_pairs", draws="subgroup", inputs=("psi",),
        map_kinds=(ANTI_HOMOMORPHISM,), hypothesis=lambda psi: _all_abelian(psi),
        conclusion=_check_p5_8, criterion=lambda f: is_injective(f),
        notes=_p5_8_note,
    ),
    "P5.10": Claim(
        "anti-homomorphic image preserves cyclic level structure", "recorded",
        "map_pairs", draws="subgroup", inputs=("phi",),
        map_kinds=(ANTI_HOMOMORPHISM,), hypothesis=lambda phi: _all_cyclic(phi),
        conclusion=_check_p5_10,
        verdict=_inclusion("pushed level set escapes the image level set"),
        split=lambda f: is_surjective(f), notes=_cyclic_note("surjective"),
    ),
    "P5.11": Claim(
        "anti-homomorphic preimage preserves cyclic level structure", "recorded",
        "map_pairs", draws="subgroup", inputs=("psi",),
        map_kinds=(ANTI_HOMOMORPHISM,), hypothesis=lambda psi: _all_cyclic(psi),
        conclusion=_check_p5_11,
        verdict=_inclusion("pulled level set escapes the preimage level set"),
        split=lambda f: is_injective(f), notes=_cyclic_note("injective"),
    ),
    # a search's conclusion is the statement its remark denies: a witness
    # that fails it settles the remark
    "R4.3": Claim(
        "restricted subgroups need not be plain Q-fuzzy subgroups", "verified",
        "search", inputs=("theta", "alpha"), space=_tables,
        hypothesis=lambda theta, alpha: _check_p4_2(theta, alpha)[0],
        conclusion=lambda theta, alpha: _outcome(check_qfuzzy_subgroup(theta)),
        notes=_witness_note,
    ),
    "R4.9": Claim(
        "unions of restricted subgroups need not be subgroups", "verified", "search",
        inputs=("theta", "sigma", "alpha"), space=_two_level_pairs, prefiltered=True,
        hypothesis=lambda theta, sigma, alpha: (
            _check_p4_2(theta, alpha)[0] and _check_p4_2(sigma, alpha)[0]
        ),
        conclusion=lambda theta, sigma, alpha: _check_p4_2(union(theta, sigma), alpha),
        notes=lambda witness: (
            f"{_witness_note(witness)}; union violation: {witness['violation']}"
        ),
    ),
}

# every bounded search: the search claims, and the literal reading of P4.11,
# which the audit records from P4.11's trials
SEARCHES = {
    "R4.3": CLAIMS["R4.3"],
    "R4.9": CLAIMS["R4.9"],
    "P4.11-literal": Claim(
        "complement of a restricted subgroup is a Q-fuzzy subgroup (literal)",
        "recorded", "search", inputs=("theta", "alpha"), space=_tables,
        hypothesis=lambda theta, alpha: _check_p4_2(theta, alpha)[0],
        conclusion=lambda theta, alpha: _check_p4_11(alpha_restrict(theta, alpha))[2:],
    ),
}

CLAIM_ORDER = tuple(CLAIMS)
EXPECTED_VERIFIED = frozenset(c for c in CLAIMS if CLAIMS[c].status == "verified")
RECORDED_CLAIMS = frozenset(c for c in CLAIMS if CLAIMS[c].status == "recorded")


# --- the runner -----------------------------------------------------------------


@dataclass
class _Tally:
    """Outcomes of one claim's trials on one carrier, with the findings of
    their evaluations, also counted apart over the claim's split maps."""

    passes: int = 0
    filtered: int = 0
    failures: list = field(default_factory=list)
    held: int = 0
    missed: int = 0
    held_split: int = 0
    missed_split: int = 0
    first_miss: dict | None = None  # record of the first finding with a violation

    def find(self, held: bool, split: bool, record: dict | None):
        if held:
            self.held += 1
            self.held_split += split
        else:
            self.missed += 1
            self.missed_split += split
            if self.first_miss is None:
                self.first_miss = record


def _record(claim: Claim, inputs: tuple, f, detail) -> dict:
    # the materialized inputs of an evaluation, with its violation
    record = {name: _encode(name, value) for name, value in zip(claim.inputs, inputs)}
    if f is not None:
        record["map"] = _encode("map", f)
    record["violation"] = detail
    return record


def _judge(claim: Claim, inputs: tuple, maps, tally: _Tally):
    """(ok, detail, failing map or None) of one trial whose hypothesis holds,
    stopping at the first failing map; findings go into the tally."""
    if claim.per_image:
        return claim.conclusion(maps, *inputs)
    for f in maps if claim.map_kinds else (None,):
        result = claim.conclusion(*inputs) if f is None else claim.conclusion(f, *inputs)
        ok, detail, finding = claim.verdict(result)
        if claim.criterion is not None and not claim.criterion(f):
            ok, finding = True, (ok, detail)
        if finding is not None:
            held, violation = finding
            # the tally keeps only the first missed finding with a violation
            keep = not held and violation is not None and tally.first_miss is None
            miss = _record(claim, inputs, f, violation) if keep else None
            tally.find(held, claim.split is not None and claim.split(f), miss)
        if not ok:
            return False, detail, f
    return True, None, None


def _audit_claim(prop_id: str, config: AuditConfig) -> list[AuditReport]:
    claim = CLAIMS[prop_id]
    if claim.carriers == "search":
        witness = search_counterexample(prop_id, config)
        found = witness is not None
        failures = [] if found else [
            {"claim": prop_id, "violation": "no witness found in the bounded search space"}
        ]
        status = "verified-exhaustive" if found else "refuted"
        notes = claim.notes(witness) if found else ""
        return [AuditReport(prop_id, "search", 1, int(found), 0, failures, status, notes)]
    reports = []
    q_labels = config.q_labels()
    for item in getattr(config, claim.carriers):
        if claim.carriers == "catalog":
            carrier, names = item, (item, item)
        else:
            carrier, names = "->".join(item), item
        left, right = standard_group(names[0]), standard_group(names[1])
        maps = _enumerated_maps(left, right, claim.map_kinds, config.max_source)
        evaluated = _first_per_image(maps) if claim.per_image else maps
        tally = _Tally()
        for t in range(config.trials):
            rng = _trial_rng(config, prop_id, carrier, t)
            inputs = claim.draw(left, right, q_labels, rng, config.grade_pool)
            if claim.hypothesis is not None and not claim.hypothesis(*inputs):
                tally.filtered += 1
                continue
            ok, detail, f = _judge(claim, inputs, evaluated, tally)
            if ok:
                tally.passes += 1
            else:
                tally.failures.append(
                    {"claim": prop_id, "carrier": carrier, "trial": t,
                     **_record(claim, inputs, f, detail)}
                )
        if tally.failures:
            status = "refuted"
        elif claim.status == "recorded":
            status = "recorded"
        else:
            status = "verified-sampled"
        reports.append(AuditReport(
            prop_id=prop_id,
            carrier=carrier,
            trials=tally.passes + len(tally.failures),
            passes=tally.passes,
            filtered=tally.filtered,
            failures=tally.failures,
            status=status,
            notes=claim.notes(tally, maps) if claim.notes else "",
        ))
    return reports


@lru_cache(maxsize=None)
def _enumerated_maps(left, right, kinds, max_source) -> tuple[GroupMap, ...]:
    maps = []
    for kind in kinds:
        maps.extend(enumerate_maps(left, right, kind, max_source))
    return tuple(maps)


def search_counterexample(claim_id: str, config: AuditConfig | None = None):
    """Bounded exhaustive search of one of `SEARCHES`: the witness record of
    the first input, over the catalog in order and then the claim's space,
    that meets the hypothesis and fails the conclusion; None on exhaustion."""
    config = config or AuditConfig()
    claim = SEARCHES.get(claim_id)
    if claim is None:
        raise ValueError(f"unknown search claim {claim_id!r}")
    for name in config.catalog:
        for inputs in claim.space(standard_group(name), config.grade_pool):
            if not claim.hypothesis(*inputs):
                continue
            ok, detail = claim.conclusion(*inputs)
            if not ok:
                return {"claim": claim_id, **_record(claim, inputs, None, detail)}
            if claim.prefiltered:
                raise GeneratorSoundnessError(
                    f"{claim_id}: the space's oracle disagrees with the subgroup check"
                )
    return None


def audit(props, config: AuditConfig | None = None) -> list[AuditReport]:
    """Run the audits for the given claim ids, in catalog order."""
    config = config or AuditConfig()
    props = set(props)
    unknown = props - set(CLAIM_ORDER)
    if unknown:
        raise ValueError(f"unknown claim ids: {sorted(unknown)}")
    reports = []
    for prop_id in CLAIM_ORDER:
        if prop_id in props:
            reports.extend(_audit_claim(prop_id, config))
    return reports


# --- replay -------------------------------------------------------------------


def _claim_of(claims: dict, record: dict, rule: str) -> Claim:
    claim = claims.get(record["claim"])
    if claim is None:
        raise ValueError(f"no {rule} rule for claim {record['claim']!r}")
    return claim


def _fails_again(claim: Claim, record: dict) -> bool:
    # True iff the hypothesis holds on the record's decoded inputs and the
    # conclusion still fails, on the record's map if the claim has maps
    inputs = tuple(_decode(name, record[name]) for name in claim.inputs)
    if claim.hypothesis is not None and not claim.hypothesis(*inputs):
        return False
    maps = (_decode("map", record["map"]),) if claim.map_kinds else ()
    return not _judge(claim, inputs, maps, _Tally())[0]


def replay_failure(record: dict) -> bool:
    """Re-evaluate a materialized failure record: True iff the claim's
    hypothesis holds on the record's inputs, its map is one the pass
    criterion quantifies over, and the conclusion still fails.  A search
    claim's record names no inputs and never replays as failing."""
    claim = _claim_of(CLAIMS, record, "replay")
    return claim.carriers != "search" and _fails_again(claim, record)


def validate_witness(record: dict) -> bool:
    """Re-validate a search witness the way `replay_failure` replays a
    failure: True iff its hypothesis holds and its conclusion still fails."""
    return _fails_again(_claim_of(SEARCHES, record, "witness"), record)


# --- worked-example reproductions ----------------------------------------------


def _expect(condition: bool, message: str):
    if not condition:
        raise ReproductionError(message)


def reproduce_example(example_id: str) -> AuditReport:
    """Re-run one of the two published worked examples exactly."""
    if example_id in ("4.5", "example-4.5"):
        return _reproduce_4_5()
    if example_id in ("4.10", "example-4.10"):
        return _reproduce_4_10()
    raise ValueError(f"unknown example id {example_id!r}")


def _reproduce_4_5() -> AuditReport:
    group = standard_group("klein4")
    q = ("q",)
    theta = make_qfuzzy(
        group, q,
        [[Fraction(1, 5)], [Fraction(2, 5)], [Fraction(2, 5)], [Fraction(3, 10)]],
    )
    base_report = check_qfuzzy_subgroup(theta)
    _expect(not base_report.verdict, "base table unexpectedly passed the subgroup check")
    a, b = group.index("a"), group.index("b")
    lhs = theta.grade(group.mul(a, b), 0)
    rhs = min(theta.grade(a, 0), theta.grade(b, 0))
    _expect(
        lhs == Fraction(3, 10) and rhs == Fraction(2, 5),
        f"published violation diverged: grade(ab) = {format_grade(lhs)}, "
        f"bound = {format_grade(rhs)}",
    )
    alpha = Fraction(9, 100)
    phi = alpha_restrict(theta, alpha)
    _expect(
        all(g == alpha for row in phi.grades for g in row),
        "restriction at 9/100 is not the constant 9/100",
    )
    alpha_report = check_alpha_subgroup(phi)
    _expect(alpha_report.verdict, f"restricted check failed: {alpha_report.detail}")
    return AuditReport(
        prop_id="example-4.5",
        carrier="klein4",
        trials=1,
        passes=1,
        filtered=0,
        failures=[],
        status="verified-exhaustive",
        notes=(
            "base table fails closure: lhs = 3/10 < rhs = 2/5 at (a, b, q); "
            "restriction at alpha = 9/100 is a subgroup"
        ),
    )


def example_4_10_subsets():
    """The integer-group construction transplanted onto cyclic12."""
    group = standard_group("cyclic12")
    q = ("q",)

    def table(fn):
        return make_qfuzzy(group, q, [[fn(x)] for x in range(12)])

    theta = table(lambda x: Fraction(2, 5) if x % 3 == 0 else ZERO)
    sigma = table(lambda x: Fraction(1, 5) if x % 2 == 0 else Fraction(1, 10))
    pi = table(lambda x: ONE if x % 2 == 0 else ZERO)
    return theta, sigma, pi


def _reproduce_4_10() -> AuditReport:
    theta, sigma, pi = example_4_10_subsets()
    group = theta.group
    alpha = ONE
    for name, subset in (("theta", theta), ("sigma", sigma), ("pi", pi)):
        report = check_alpha_subgroup(alpha_restrict(subset, alpha))
        _expect(report.verdict, f"{name} failed its subgroup check: {report.detail}")
    u = union(theta, sigma)
    _expect(u.grade(3, 0) == Fraction(2, 5), "union grade at 3 diverged")
    _expect(u.grade(2, 0) == Fraction(1, 5), "union grade at 2 diverged")
    _expect(u.grade(1, 0) == Fraction(1, 10), "union grade at 3 - 2 = 1 diverged")
    union_report = check_alpha_subgroup(alpha_restrict(u, alpha))
    _expect(not union_report.verdict, "union unexpectedly passed the subgroup check")
    # the published instance: u(3 - 2) = 1/10 < min(u(3), u(2)) = 1/5
    _expect(
        u.grade(1, 0) < min(u.grade(3, 0), u.grade(2, 0)),
        "published quotient violation at x = 3, y = 2 diverged",
    )
    quotient = union_report.conditions["quotient"]
    _expect(
        quotient.witness == ("2", "3", "q"),
        f"quotient witness diverged: {quotient.witness}",
    )
    _expect(
        quotient.detail == "lhs = 1/10 < rhs = 1/5 at (2, 3, q)",
        f"quotient violation diverged: {quotient.detail}",
    )
    sp_report = check_alpha_subgroup(alpha_restrict(union(sigma, pi), alpha))
    _expect(sp_report.verdict, f"union(sigma, pi) failed: {sp_report.detail}")
    return AuditReport(
        prop_id="example-4.10",
        carrier="cyclic12",
        trials=1,
        passes=1,
        filtered=0,
        failures=[],
        status="verified-exhaustive",
        notes=(
            "theta, sigma, pi individually pass; union(theta, sigma) fails with "
            "lhs = 1/10 < rhs = 1/5 at (2, 3, q); union(sigma, pi) passes"
        ),
    )
