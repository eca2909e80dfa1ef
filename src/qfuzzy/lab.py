"""Randomized and exhaustive audits of the claim catalog.

Each claim about threshold-restricted Q-fuzzy subgroups is checked
mechanically: hypotheses are generated (random grade tables, genuine fuzzy
subgroups built from subgroup chains, enumerated group maps), the claimed
conclusion is evaluated exactly, and failures are materialized as fully
replayable counterexample records.

Claim ids follow the source catalog (P3.3, P4.2, ..., R4.9).  Claims whose
statement and proof disagree, or whose literal reading is known to be
interpretation-dependent, carry status "recorded": the audit reports the
empirical finding instead of asserting an expected verdict.

Determinism: every trial derives its own generator from
(seed, claim id, carrier, trial index), so the same AuditConfig always
produces identical reports regardless of execution order.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache

from .grades import (
    ZERO,
    ONE,
    format_grade,
    grade_le,
    parse_grade,
    scaled_columns,
    sorted_grades,
    validate_grade,
)
from .groups import (
    ANTI_HOMOMORPHISM,
    HOMOMORPHISM,
    FiniteGroup,
    GroupMap,
    all_subgroups,
    analyze_subset,
    direct_product,
    enumerate_maps,
    is_injective,
    is_surjective,
    make_map,
    standard_group,
)
from .fuzzy import (
    AlphaQFuzzySubset,
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
    grade_pool: tuple[Fraction, ...] = DEFAULT_POOL
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
        pool = tuple(sorted_grades(validate_grade(g) for g in self.grade_pool))
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


EXPECTED_VERIFIED = frozenset(
    {
        "P3.3", "P3.4", "P4.2", "P4.6", "P4.7", "P4.8", "P4.12", "P4.14",
        "P4.15", "P5.2", "P5.4", "P5.7", "P5.8", "R4.3", "R4.9",
    }
)

RECORDED_CLAIMS = frozenset({"P4.11", "R4.16", "P5.10", "P5.11"})

CLAIM_ORDER = (
    "P3.3", "P3.4", "P4.2", "P4.6", "P4.7", "P4.8", "P4.11", "P4.12",
    "P4.14", "P4.15", "R4.16", "P5.2", "P5.4", "P5.7", "P5.8", "P5.10",
    "P5.11", "R4.3", "R4.9",
)

CLAIM_DESCRIPTIONS = {
    "P3.3": "restriction distributes over intersection",
    "P3.4": "image and preimage commute with restriction",
    "P4.2": "every Q-fuzzy subgroup stays one after restriction",
    "P4.6": "identity dominance and kernel-set subgroup",
    "P4.7": "quotient at identity grade forces equal grades",
    "P4.8": "intersection of restricted subgroups is one",
    "P4.11": "complement of a restricted subgroup (statement vs proof)",
    "P4.12": "two-condition form equals quotient form",
    "P4.14": "product of restricted subgroups is one on the product group",
    "P4.15": "dominant-identity factor recovers the other factor",
    "R4.16": "product subgroup forces one factor to be a subgroup (weak form)",
    "P5.2": "anti-homomorphic image preserves restricted subgroups",
    "P5.4": "anti-homomorphic preimage preserves restricted subgroups",
    "P5.7": "anti-homomorphic image preserves abelian kernels",
    "P5.8": "anti-homomorphic preimage preserves abelian kernels",
    "P5.10": "anti-homomorphic image preserves cyclic level structure",
    "P5.11": "anti-homomorphic preimage preserves cyclic level structure",
    "R4.3": "restricted subgroups need not be plain Q-fuzzy subgroups",
    "R4.9": "unions of restricted subgroups need not be subgroups",
}


# --- generators --------------------------------------------------------------


def _trial_rng(config: AuditConfig, prop_id: str, carrier: str, trial: int):
    return random.Random(f"{config.seed}|{prop_id}|{carrier}|{trial}")


def random_qfuzzy(group, q_labels, rng, pool) -> QFuzzySubset:
    """Each grade drawn independently and uniformly from the pool."""
    rows = [[rng.choice(pool) for _ in q_labels] for _ in range(group.order)]
    return make_qfuzzy(group, q_labels, rows)


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
    rows = [[ZERO] * len(q_labels) for _ in range(group.order)]
    for k in range(len(q_labels)):
        chain = _random_chain(group, rng)
        grades = sorted_grades([rng.choice(pool) for _ in chain])
        # the chain descends strictly, so each element's deepest layer writes last
        for layer, grade in zip(chain, grades):
            for x in layer:
                rows[x][k] = grade
    theta = make_qfuzzy(group, q_labels, [tuple(r) for r in rows])
    report = check_qfuzzy_subgroup(theta)
    if not report.verdict:
        raise GeneratorSoundnessError(
            f"generated table on {group.name} is not a subgroup: {report.detail}"
        )
    return theta


# --- serialization of materialized inputs ------------------------------------


def _subset_payload(theta: QFuzzySubset) -> dict:
    grades = {}
    for x, elem in enumerate(theta.group.elements):
        grades[elem] = {
            q: format_grade(theta.grades[x][k]) for k, q in enumerate(theta.q_labels)
        }
    return {
        "group": theta.group.name,
        "q_labels": list(theta.q_labels),
        "grades": grades,
    }


def _subset_from_payload(payload: dict) -> QFuzzySubset:
    group = standard_group(payload["group"])
    q_labels = tuple(payload["q_labels"])
    rows = [
        [parse_grade(payload["grades"][elem][q]) for q in q_labels]
        for elem in group.elements
    ]
    return make_qfuzzy(group, q_labels, rows)


def _alpha_payload(phi: AlphaQFuzzySubset) -> dict:
    payload = _subset_payload(phi.base)
    payload["alpha"] = format_grade(phi.alpha)
    return payload


def _alpha_from_payload(payload: dict) -> AlphaQFuzzySubset:
    return alpha_restrict(_subset_from_payload(payload), parse_grade(payload["alpha"]))


def _map_payload(m: GroupMap) -> dict:
    return {
        "kind": m.kind,
        "source": m.source.name,
        "target": m.target.name,
        "images": [m.target.label(y) for y in m.images],
    }


def _map_from_payload(payload: dict) -> GroupMap:
    source = standard_group(payload["source"])
    target = standard_group(payload["target"])
    images = [target.index(label) for label in payload["images"]]
    return make_map(source, target, images, payload["kind"])


# --- per-claim conclusion checks ---------------------------------------------
#
# Each takes fully materialized inputs and returns (ok, violation detail);
# the audit loop and replay_failure share these.


def _restricted_subset(phi: AlphaQFuzzySubset) -> QFuzzySubset:
    return QFuzzySubset(phi.group, phi.q_labels, phi.restricted)


def _check_p3_3(theta, sigma, alpha):
    lhs = alpha_restrict(intersection(theta, sigma), alpha).restricted
    rhs = intersection(
        _restricted_subset(alpha_restrict(theta, alpha)),
        _restricted_subset(alpha_restrict(sigma, alpha)),
    ).grades
    if lhs == rhs:
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
    restricted_theta = _restricted_subset(alpha_restrict(theta, alpha))
    restricted_sigma = _restricted_subset(alpha_restrict(sigma, alpha))
    for f in maps:
        lhs = alpha_restrict(image_subset(f, theta), alpha).restricted
        if lhs != image_subset(f, restricted_theta).grades:
            return False, "image does not commute with restriction", f
        lhs = alpha_restrict(preimage_subset(f, sigma), alpha).restricted
        if lhs != preimage_subset(f, restricted_sigma).grades:
            return False, "preimage does not commute with restriction", f
    return True, None, None


def _check_p4_2(theta, alpha):
    report = check_alpha_subgroup(alpha_restrict(theta, alpha))
    return report.verdict, report.detail


def _check_p4_6(phi):
    group = phi.group
    for q, column in zip(phi.q_labels, scaled_columns(phi.restricted)):
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
    for k, (q, column) in enumerate(zip(phi.q_labels, scaled_columns(phi.restricted))):
        top = column[group.identity]
        for x in range(n):
            row, gx = table[x], column[x]
            for y in range(n):
                if column[row[inverses[y]]] == top and gx != column[y]:
                    return False, (
                        f"lhs = {format_grade(phi.restricted[x][k])} != "
                        f"rhs = {format_grade(phi.restricted[y][k])} at "
                        f"({group.label(x)}, {group.label(y)}, {q})"
                    )
    return True, None


def _check_p4_8(theta, sigma, alpha):
    report = check_alpha_subgroup(alpha_restrict(intersection(theta, sigma), alpha))
    return report.verdict, report.detail


def _check_p4_11(phi):
    comp = complement(_restricted_subset(phi))
    anti = check_anti_subgroup(alpha_restrict(comp, ONE))
    literal = check_qfuzzy_subgroup(comp)
    return anti.verdict, anti.detail, literal.verdict, literal.detail


def _check_p4_12(phi):
    report = check_alpha_subgroup(phi)
    if report.forms_agree:
        return True, None
    return False, (
        f"two-condition verdict {report.verdict} disagrees with quotient-form "
        f"verdict {report.conditions['quotient'].ok}"
    )


def _check_p4_14(phi, psi):
    report = check_alpha_subgroup(product(phi, psi))
    return report.verdict, report.detail


def _dominates_identity(phi, psi):
    # phi's identity grade bounds every grade of psi, per q label
    e = phi.group.identity
    for k in range(len(phi.q_labels)):
        top = phi.restricted[e][k]
        if not all(grade_le(row[k], top) for row in psi.restricted):
            return False
    return True


def _check_p4_15(phi, psi):
    if not check_alpha_subgroup(product(phi, psi)).verdict:
        return None, None  # hypothesis fails; trial filtered
    applied = False
    if _dominates_identity(phi, psi):
        applied = True
        report = check_alpha_subgroup(psi)
        if not report.verdict:
            return False, f"case (i) conclusion fails: {report.detail}"
    if _dominates_identity(psi, phi):
        applied = True
        report = check_alpha_subgroup(phi)
        if not report.verdict:
            return False, f"case (ii) conclusion fails: {report.detail}"
    if not applied:
        return None, None
    return True, None


def _check_r4_16(phi, psi):
    if not check_alpha_subgroup(product(phi, psi)).verdict:
        return None, None
    disjunction = (
        check_alpha_subgroup(phi).verdict or check_alpha_subgroup(psi).verdict
    )
    return disjunction, None if disjunction else "neither factor is a subgroup"


def _check_p5_2(f, phi):
    report = check_alpha_subgroup(_image_alpha(f, phi))
    return report.verdict, report.detail


def _check_p5_4(f, psi):
    report = check_alpha_subgroup(_preimage_alpha(f, psi))
    return report.verdict, report.detail


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


# --- audit runners ------------------------------------------------------------


def _finish(prop_id, carrier, evaluated, passes, filtered, failures, notes=""):
    if failures:
        status = "refuted"
    elif prop_id in RECORDED_CLAIMS:
        status = "recorded"
    else:
        status = "verified-sampled"
    return AuditReport(
        prop_id=prop_id,
        carrier=carrier,
        trials=evaluated,
        passes=passes,
        filtered=filtered,
        failures=failures,
        status=status,
        notes=notes,
    )


def _run_group_claim(prop_id, config, trial_fn, note_fn=None):
    reports = []
    q_labels = config.q_labels()
    for gname in config.catalog:
        group = standard_group(gname)
        passes = filtered = 0
        failures = []
        tally: dict = {}
        for t in range(config.trials):
            rng = _trial_rng(config, prop_id, gname, t)
            outcome, record = trial_fn(group, q_labels, rng, config, tally)
            if outcome is None:
                filtered += 1
            elif outcome:
                passes += 1
            else:
                failures.append(
                    {"claim": prop_id, "carrier": gname, "trial": t, **record}
                )
        notes = note_fn(tally) if note_fn else ""
        reports.append(
            _finish(prop_id, gname, passes + len(failures), passes, filtered,
                    failures, notes)
        )
    return reports


def _run_pair_claim(prop_id, config, pairs, setup_fn, trial_fn, note_fn=None):
    reports = []
    q_labels = config.q_labels()
    for left_name, right_name in pairs:
        carrier = f"{left_name}->{right_name}"
        left = standard_group(left_name)
        right = standard_group(right_name)
        context = setup_fn(left, right, config)
        passes = filtered = 0
        failures = []
        tally: dict = {}
        for t in range(config.trials):
            rng = _trial_rng(config, prop_id, carrier, t)
            outcome, record = trial_fn(left, right, context, q_labels, rng, config, tally)
            if outcome is None:
                filtered += 1
            elif outcome:
                passes += 1
            else:
                failures.append(
                    {"claim": prop_id, "carrier": carrier, "trial": t, **record}
                )
        notes = note_fn(tally, context) if note_fn else ""
        reports.append(
            _finish(prop_id, carrier, passes + len(failures), passes, filtered,
                    failures, notes)
        )
    return reports


@lru_cache(maxsize=None)
def _enumerated_maps(left, right, kinds, max_source) -> tuple[GroupMap, ...]:
    maps = []
    for kind in kinds:
        maps.extend(enumerate_maps(left, right, kind, max_source))
    return tuple(maps)


def _random_alpha(rng, config):
    return rng.choice(config.grade_pool)


def _mixed_subset(group, q_labels, rng, config):
    # half genuine subgroups, half unconstrained tables
    if rng.random() < 0.5:
        return random_qfuzzy_subgroup(group, q_labels, rng, config.grade_pool)
    return random_qfuzzy(group, q_labels, rng, config.grade_pool)


def _audit_p3_3(config):
    def trial(group, q_labels, rng, config, tally):
        theta = random_qfuzzy(group, q_labels, rng, config.grade_pool)
        sigma = random_qfuzzy(group, q_labels, rng, config.grade_pool)
        alpha = _random_alpha(rng, config)
        ok, detail = _check_p3_3(theta, sigma, alpha)
        if ok:
            return True, None
        return False, {
            "theta": _subset_payload(theta),
            "sigma": _subset_payload(sigma),
            "alpha": format_grade(alpha),
            "violation": detail,
        }

    return _run_group_claim("P3.3", config, trial)


def _audit_p3_4(config):
    def setup(left, right, config):
        maps = _enumerated_maps(
            left, right, (HOMOMORPHISM, ANTI_HOMOMORPHISM), config.max_source
        )
        return maps, _first_per_image(maps)

    def trial(left, right, context, q_labels, rng, config, tally):
        theta = random_qfuzzy(left, q_labels, rng, config.grade_pool)
        sigma = random_qfuzzy(right, q_labels, rng, config.grade_pool)
        alpha = _random_alpha(rng, config)
        _, distinct = context
        ok, detail, f = _check_p3_4(distinct, theta, sigma, alpha)
        if ok:
            return True, None
        return False, {
            "map": _map_payload(f),
            "theta": _subset_payload(theta),
            "sigma": _subset_payload(sigma),
            "alpha": format_grade(alpha),
            "violation": detail,
        }

    def notes(tally, context):
        maps, _ = context
        return f"quantified over {len(maps)} enumerated maps per trial"

    return _run_pair_claim("P3.4", config, config.map_pairs, setup, trial, notes)


def _audit_p4_2(config):
    def trial(group, q_labels, rng, config, tally):
        theta = random_qfuzzy_subgroup(group, q_labels, rng, config.grade_pool)
        alpha = _random_alpha(rng, config)
        ok, detail = _check_p4_2(theta, alpha)
        if ok:
            return True, None
        return False, {
            "theta": _subset_payload(theta),
            "alpha": format_grade(alpha),
            "violation": detail,
        }

    return _run_group_claim("P4.2", config, trial)


def _generated_alpha_subgroup(group, q_labels, rng, config):
    theta = random_qfuzzy_subgroup(group, q_labels, rng, config.grade_pool)
    return alpha_restrict(theta, _random_alpha(rng, config))


def _simple_alpha_trial(prop_id, check):
    def trial(group, q_labels, rng, config, tally):
        phi = _generated_alpha_subgroup(group, q_labels, rng, config)
        ok, detail = check(phi)
        if ok:
            return True, None
        return False, {"phi": _alpha_payload(phi), "violation": detail}

    return trial


def _audit_p4_6(config):
    return _run_group_claim("P4.6", config, _simple_alpha_trial("P4.6", _check_p4_6))


def _audit_p4_7(config):
    return _run_group_claim("P4.7", config, _simple_alpha_trial("P4.7", _check_p4_7))


def _audit_p4_8(config):
    def trial(group, q_labels, rng, config, tally):
        theta = random_qfuzzy_subgroup(group, q_labels, rng, config.grade_pool)
        sigma = random_qfuzzy_subgroup(group, q_labels, rng, config.grade_pool)
        alpha = _random_alpha(rng, config)
        ok, detail = _check_p4_8(theta, sigma, alpha)
        if ok:
            return True, None
        return False, {
            "theta": _subset_payload(theta),
            "sigma": _subset_payload(sigma),
            "alpha": format_grade(alpha),
            "violation": detail,
        }

    return _run_group_claim("P4.8", config, trial)


def _audit_p4_11(config):
    def trial(group, q_labels, rng, config, tally):
        phi = _generated_alpha_subgroup(group, q_labels, rng, config)
        anti_ok, anti_detail, literal_ok, literal_detail = _check_p4_11(phi)
        tally.setdefault("literal_true", 0)
        tally.setdefault("literal_false", 0)
        if literal_ok:
            tally["literal_true"] += 1
        else:
            tally["literal_false"] += 1
            tally.setdefault("first_literal_counterexample", {
                "phi": _alpha_payload(phi),
                "violation": literal_detail,
            })
        if anti_ok:
            return True, None
        return False, {"phi": _alpha_payload(phi), "violation": anti_detail}

    def notes(tally):
        true_n = tally.get("literal_true", 0)
        false_n = tally.get("literal_false", 0)
        text = (
            f"proof's reversed inequalities audited as the pass criterion; "
            f"literal min-form claim for the complement held in "
            f"{true_n}/{true_n + false_n} trials"
        )
        first = tally.get("first_literal_counterexample")
        if first:
            text += f"; first literal counterexample: {first['violation']}"
        return text

    return _run_group_claim("P4.11", config, trial, notes)


def _audit_p4_12(config):
    def trial(group, q_labels, rng, config, tally):
        base = _mixed_subset(group, q_labels, rng, config)
        phi = alpha_restrict(base, _random_alpha(rng, config))
        ok, detail = _check_p4_12(phi)
        if ok:
            return True, None
        return False, {"phi": _alpha_payload(phi), "violation": detail}

    return _run_group_claim("P4.12", config, trial)


def _pair_subgroup_inputs(left, right, q_labels, rng, config):
    theta = random_qfuzzy_subgroup(left, q_labels, rng, config.grade_pool)
    sigma = random_qfuzzy_subgroup(right, q_labels, rng, config.grade_pool)
    alpha = _random_alpha(rng, config)
    return alpha_restrict(theta, alpha), alpha_restrict(sigma, alpha)


def _audit_p4_14(config):
    def setup(left, right, config):
        return None

    def trial(left, right, context, q_labels, rng, config, tally):
        phi, psi = _pair_subgroup_inputs(left, right, q_labels, rng, config)
        ok, detail = _check_p4_14(phi, psi)
        if ok:
            return True, None
        return False, {
            "phi": _alpha_payload(phi),
            "psi": _alpha_payload(psi),
            "violation": detail,
        }

    return _run_pair_claim("P4.14", config, config.product_pairs, setup, trial)


def _mixed_pair_inputs(left, right, q_labels, rng, config):
    theta = _mixed_subset(left, q_labels, rng, config)
    sigma = _mixed_subset(right, q_labels, rng, config)
    alpha = _random_alpha(rng, config)
    return alpha_restrict(theta, alpha), alpha_restrict(sigma, alpha)


def _audit_p4_15(config):
    def setup(left, right, config):
        return None

    def trial(left, right, context, q_labels, rng, config, tally):
        phi, psi = _mixed_pair_inputs(left, right, q_labels, rng, config)
        ok, detail = _check_p4_15(phi, psi)
        if ok is None:
            return None, None
        if ok:
            return True, None
        return False, {
            "phi": _alpha_payload(phi),
            "psi": _alpha_payload(psi),
            "violation": detail,
        }

    return _run_pair_claim("P4.15", config, config.product_pairs, setup, trial)


def _audit_r4_16(config):
    def setup(left, right, config):
        return None

    def trial(left, right, context, q_labels, rng, config, tally):
        phi, psi = _mixed_pair_inputs(left, right, q_labels, rng, config)
        ok, detail = _check_r4_16(phi, psi)
        if ok is None:
            return None, None
        tally.setdefault("held", 0)
        tally.setdefault("violated", 0)
        if ok:
            tally["held"] += 1
            return True, None
        tally["violated"] += 1
        return False, {
            "phi": _alpha_payload(phi),
            "psi": _alpha_payload(psi),
            "violation": detail,
        }

    def notes(tally, context):
        held = tally.get("held", 0)
        violated = tally.get("violated", 0)
        return (
            "interpretation-dependent weak disjunctive reading; held in "
            f"{held}/{held + violated} applicable trials"
        )

    return _run_pair_claim("R4.16", config, config.product_pairs, setup, trial, notes)


def _anti_maps_setup(left, right, config):
    return _enumerated_maps(left, right, (ANTI_HOMOMORPHISM,), config.max_source)


def _audit_p5_2(config):
    def trial(left, right, maps, q_labels, rng, config, tally):
        theta = random_qfuzzy_subgroup(left, q_labels, rng, config.grade_pool)
        phi = alpha_restrict(theta, _random_alpha(rng, config))
        for f in maps:
            ok, detail = _check_p5_2(f, phi)
            if not ok:
                return False, {
                    "map": _map_payload(f),
                    "phi": _alpha_payload(phi),
                    "violation": detail,
                }
        return True, None

    def notes(tally, maps):
        return f"quantified over all {len(maps)} anti-homomorphisms per trial"

    return _run_pair_claim("P5.2", config, config.map_pairs, _anti_maps_setup, trial, notes)


def _audit_p5_4(config):
    def trial(left, right, maps, q_labels, rng, config, tally):
        sigma = random_qfuzzy_subgroup(right, q_labels, rng, config.grade_pool)
        psi = alpha_restrict(sigma, _random_alpha(rng, config))
        for f in maps:
            ok, detail = _check_p5_4(f, psi)
            if not ok:
                return False, {
                    "map": _map_payload(f),
                    "psi": _alpha_payload(psi),
                    "violation": detail,
                }
        return True, None

    def notes(tally, maps):
        return f"quantified over all {len(maps)} anti-homomorphisms per trial"

    return _run_pair_claim("P5.4", config, config.map_pairs, _anti_maps_setup, trial, notes)


def _positive_at_identity(phi):
    e = phi.group.identity
    return all(g.numerator > 0 for g in phi.restricted[e])


def _audit_p5_7(config):
    # Hypothesis filters: the input must itself have an abelian kernel and a
    # nonzero identity grade (the all-zero degenerate subset makes the image
    # kernel swallow elements outside the map's range).
    def trial(left, right, maps, q_labels, rng, config, tally):
        theta = random_qfuzzy_subgroup(left, q_labels, rng, config.grade_pool)
        phi = alpha_restrict(theta, _random_alpha(rng, config))
        if not _positive_at_identity(phi) or not _all_abelian(phi):
            return None, None
        for f in maps:
            ok, detail = _check_p5_7(f, phi)
            if not ok:
                return False, {
                    "map": _map_payload(f),
                    "phi": _alpha_payload(phi),
                    "violation": detail,
                }
        return True, None

    def notes(tally, maps):
        return f"quantified over all {len(maps)} anti-homomorphisms per trial"

    return _run_pair_claim("P5.7", config, config.map_pairs, _anti_maps_setup, trial, notes)


def _audit_p5_8(config):
    # The cancellation step of the claim's argument needs injectivity; the
    # pass criterion quantifies over injective anti-homomorphisms, and the
    # literal outcome over the remaining maps is tallied as a finding.
    def trial(left, right, maps, q_labels, rng, config, tally):
        sigma = random_qfuzzy_subgroup(right, q_labels, rng, config.grade_pool)
        psi = alpha_restrict(sigma, _random_alpha(rng, config))
        if not _all_abelian(psi):
            return None, None
        tally.setdefault("literal_true", 0)
        tally.setdefault("literal_false", 0)
        for f in maps:
            ok, detail = _check_p5_8(f, psi)
            if is_injective(f):
                if not ok:
                    return False, {
                        "map": _map_payload(f),
                        "psi": _alpha_payload(psi),
                        "violation": detail,
                    }
            else:
                if ok:
                    tally["literal_true"] += 1
                else:
                    tally["literal_false"] += 1
                    tally.setdefault("first_literal_counterexample", {
                        "map": _map_payload(f),
                        "psi": _alpha_payload(psi),
                        "violation": detail,
                    })
        return True, None

    def notes(tally, maps):
        injective = sum(1 for f in maps if is_injective(f))
        text = (
            f"pass criterion quantified over the {injective} injective of "
            f"{len(maps)} anti-homomorphisms"
        )
        true_n = tally.get("literal_true", 0)
        false_n = tally.get("literal_false", 0)
        if true_n + false_n:
            text += (
                f"; literal claim over non-injective maps held in "
                f"{true_n}/{true_n + false_n} evaluations"
            )
        first = tally.get("first_literal_counterexample")
        if first:
            text += f"; first counterexample: {first['violation']}"
        return text

    return _run_pair_claim("P5.8", config, config.map_pairs, _anti_maps_setup, trial, notes)


def _audit_p5_10(config):
    def trial(left, right, maps, q_labels, rng, config, tally):
        theta = random_qfuzzy_subgroup(left, q_labels, rng, config.grade_pool)
        phi = alpha_restrict(theta, _random_alpha(rng, config))
        if not _all_cyclic(phi):
            return None, None
        tally.setdefault("cyclic_true", 0)
        tally.setdefault("cyclic_false", 0)
        tally.setdefault("cyclic_true_surjective", 0)
        tally.setdefault("cyclic_false_surjective", 0)
        for f in maps:
            inclusion_ok, cyclic_ok = _check_p5_10(f, phi)
            if not inclusion_ok:
                return False, {
                    "map": _map_payload(f),
                    "phi": _alpha_payload(phi),
                    "violation": "pushed level set escapes the image level set",
                }
            key = "cyclic_true" if cyclic_ok else "cyclic_false"
            tally[key] += 1
            if is_surjective(f):
                tally[key + "_surjective"] += 1
        return True, None

    def notes(tally, maps):
        t, f_ = tally.get("cyclic_true", 0), tally.get("cyclic_false", 0)
        ts = tally.get("cyclic_true_surjective", 0)
        fs = tally.get("cyclic_false_surjective", 0)
        return (
            "pass criterion is the level-set inclusion; cyclicity conclusion "
            f"held in {t}/{t + f_} map evaluations overall and "
            f"{ts}/{ts + fs} over surjective maps"
        )

    return _run_pair_claim("P5.10", config, config.map_pairs, _anti_maps_setup, trial, notes)


def _audit_p5_11(config):
    def trial(left, right, maps, q_labels, rng, config, tally):
        sigma = random_qfuzzy_subgroup(right, q_labels, rng, config.grade_pool)
        psi = alpha_restrict(sigma, _random_alpha(rng, config))
        if not _all_cyclic(psi):
            return None, None
        tally.setdefault("cyclic_true", 0)
        tally.setdefault("cyclic_false", 0)
        tally.setdefault("cyclic_true_injective", 0)
        tally.setdefault("cyclic_false_injective", 0)
        for f in maps:
            inclusion_ok, cyclic_ok = _check_p5_11(f, psi)
            if not inclusion_ok:
                return False, {
                    "map": _map_payload(f),
                    "psi": _alpha_payload(psi),
                    "violation": "pulled level set escapes the preimage level set",
                }
            key = "cyclic_true" if cyclic_ok else "cyclic_false"
            tally[key] += 1
            if is_injective(f):
                tally[key + "_injective"] += 1
        return True, None

    def notes(tally, maps):
        t, f_ = tally.get("cyclic_true", 0), tally.get("cyclic_false", 0)
        ti = tally.get("cyclic_true_injective", 0)
        fi = tally.get("cyclic_false_injective", 0)
        return (
            "pass criterion is the level-set inclusion; cyclicity conclusion "
            f"held in {t}/{t + f_} map evaluations overall and "
            f"{ti}/{ti + fi} over injective maps"
        )

    return _run_pair_claim("P5.11", config, config.map_pairs, _anti_maps_setup, trial, notes)


def _audit_r4_3(config):
    witness = search_counterexample("R4.3", config)
    found = witness is not None
    failures = [] if found else [
        {"claim": "R4.3", "violation": "no witness found in the bounded search space"}
    ]
    notes = ""
    if found:
        notes = (
            f"witness on {witness['theta']['group']} with alpha = "
            f"{witness['alpha']}"
        )
    return [
        AuditReport(
            prop_id="R4.3",
            carrier="search",
            trials=1,
            passes=1 if found else 0,
            filtered=0,
            failures=failures,
            status="verified-exhaustive" if found else "refuted",
            notes=notes,
        )
    ]


def _audit_r4_9(config):
    witness = search_counterexample("R4.9", config)
    found = witness is not None
    failures = [] if found else [
        {"claim": "R4.9", "violation": "no witness found in the bounded search space"}
    ]
    notes = ""
    if found:
        notes = (
            f"witness on {witness['theta']['group']} with alpha = "
            f"{witness['alpha']}; union violation: {witness['violation']}"
        )
    return [
        AuditReport(
            prop_id="R4.9",
            carrier="search",
            trials=1,
            passes=1 if found else 0,
            filtered=0,
            failures=failures,
            status="verified-exhaustive" if found else "refuted",
            notes=notes,
        )
    ]


_AUDIT_RUNNERS = {
    "P3.3": _audit_p3_3,
    "P3.4": _audit_p3_4,
    "P4.2": _audit_p4_2,
    "P4.6": _audit_p4_6,
    "P4.7": _audit_p4_7,
    "P4.8": _audit_p4_8,
    "P4.11": _audit_p4_11,
    "P4.12": _audit_p4_12,
    "P4.14": _audit_p4_14,
    "P4.15": _audit_p4_15,
    "R4.16": _audit_r4_16,
    "P5.2": _audit_p5_2,
    "P5.4": _audit_p5_4,
    "P5.7": _audit_p5_7,
    "P5.8": _audit_p5_8,
    "P5.10": _audit_p5_10,
    "P5.11": _audit_p5_11,
    "R4.3": _audit_r4_3,
    "R4.9": _audit_r4_9,
}


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
            reports.extend(_AUDIT_RUNNERS[prop_id](config))
    return reports


def audit_failures_expected_verified(reports) -> list[AuditReport]:
    return [r for r in reports if r.prop_id in EXPECTED_VERIFIED and r.failures]


# --- replay -------------------------------------------------------------------


def replay_failure(record: dict) -> bool:
    """Re-evaluate a materialized failure record; True iff it still fails."""
    claim = record["claim"]
    if "no witness found" in record.get("violation", ""):
        return False

    def theta():
        return _subset_from_payload(record["theta"])

    def sigma():
        return _subset_from_payload(record["sigma"])

    def phi():
        return _alpha_from_payload(record["phi"])

    def psi():
        return _alpha_from_payload(record["psi"])

    def fmap():
        return _map_from_payload(record["map"])

    alpha = parse_grade(record["alpha"]) if "alpha" in record else None
    if claim == "P3.3":
        ok, _ = _check_p3_3(theta(), sigma(), alpha)
    elif claim == "P3.4":
        ok = _check_p3_4((fmap(),), theta(), sigma(), alpha)[0]
    elif claim == "P4.2":
        ok, _ = _check_p4_2(theta(), alpha)
    elif claim == "P4.6":
        ok, _ = _check_p4_6(phi())
    elif claim == "P4.7":
        ok, _ = _check_p4_7(phi())
    elif claim == "P4.8":
        ok, _ = _check_p4_8(theta(), sigma(), alpha)
    elif claim == "P4.11":
        ok = _check_p4_11(phi())[0]
    elif claim == "P4.12":
        ok, _ = _check_p4_12(phi())
    elif claim == "P4.14":
        ok, _ = _check_p4_14(phi(), psi())
    elif claim == "P4.15":
        ok, _ = _check_p4_15(phi(), psi())
    elif claim == "R4.16":
        ok, _ = _check_r4_16(phi(), psi())
    elif claim == "P5.2":
        ok, _ = _check_p5_2(fmap(), phi())
    elif claim == "P5.4":
        ok, _ = _check_p5_4(fmap(), psi())
    elif claim == "P5.7":
        ok, _ = _check_p5_7(fmap(), phi())
    elif claim == "P5.8":
        ok, _ = _check_p5_8(fmap(), psi())
    elif claim == "P5.10":
        ok = _check_p5_10(fmap(), phi())[0]
    elif claim == "P5.11":
        ok = _check_p5_11(fmap(), psi())[0]
    else:
        raise ValueError(f"no replay rule for claim {claim!r}")
    return not ok


# --- worked-example reproductions ----------------------------------------------


def _expect(condition: bool, message: str):
    if not condition:
        raise ReproductionError(message)


def reproduce_example(example_id: str, config: AuditConfig | None = None) -> AuditReport:
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
        all(g == alpha for row in phi.restricted for g in row),
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


# --- counterexample search ------------------------------------------------------


def _is_fuzzy_subgroup_by_levels(subgroups, column) -> bool:
    # independent oracle: every achieved level set must be a crisp subgroup
    for cut in set(column):
        members = frozenset(x for x, g in enumerate(column) if g >= cut)
        if members not in subgroups:
            return False
    return True


def search_counterexample(claim_id: str, config: AuditConfig | None = None):
    """Bounded exhaustive search; returns the first witness in documented
    order (catalog order, then candidate tables lexicographically over the
    ascending grade pool, then alpha ascending), or None on exhaustion."""
    config = config or AuditConfig()
    if claim_id == "R4.3":
        return _search_r4_3(config)
    if claim_id == "R4.9":
        return _search_r4_9(config)
    if claim_id == "P4.11-literal":
        return _search_p4_11_literal(config)
    raise ValueError(f"unknown search claim {claim_id!r}")


def _search_r4_3(config):
    # full grade assignments are enumerable only at tiny orders
    q = ("q",)
    for gname in config.catalog:
        group = standard_group(gname)
        if group.order > 4:
            continue
        for assignment in itertools.product(config.grade_pool, repeat=group.order):
            theta = make_qfuzzy(group, q, [[g] for g in assignment])
            if check_qfuzzy_subgroup(theta).verdict:
                continue
            for alpha in config.grade_pool:
                report = check_alpha_subgroup(alpha_restrict(theta, alpha))
                if report.verdict:
                    return {
                        "claim": "R4.3",
                        "theta": _subset_payload(theta),
                        "alpha": format_grade(alpha),
                        "violation": check_qfuzzy_subgroup(theta).detail,
                    }
    return None


def _two_level_candidates(group, pool):
    # indicator-style tables: hi on a subgroup, lo elsewhere, hi > lo
    candidates = []
    for sub in all_subgroups(group):
        for hi in pool:
            for lo in pool:
                if not grade_le(hi, lo):
                    column = tuple(
                        hi if x in sub else lo for x in range(group.order)
                    )
                    candidates.append(column)
    return candidates


def _search_r4_9(config):
    q = ("q",)
    pool = config.grade_pool
    # the oracle compares grades as integers over the pool's common denominator
    den = math.lcm(*(g.denominator for g in pool))
    scaled = {g: g.numerator * (den // g.denominator) for g in pool}
    for gname in config.catalog:
        group = standard_group(gname)
        if group.order > 6:
            continue
        subgroups = set(all_subgroups(group))
        candidates = [
            (col, tuple(scaled[g] for g in col))
            for col in _two_level_candidates(group, pool)
        ]
        for col_a, int_a in candidates:
            for col_b, int_b in candidates:
                merged = tuple(map(max, int_a, int_b))
                for alpha in pool:
                    cap = scaled[alpha]
                    restricted = [g if g <= cap else cap for g in merged]
                    if _is_fuzzy_subgroup_by_levels(subgroups, restricted):
                        continue
                    # two-level tables restrict to subgroups for any alpha;
                    # confirm everything through the checking module
                    theta = make_qfuzzy(group, q, [[g] for g in col_a])
                    sigma = make_qfuzzy(group, q, [[g] for g in col_b])
                    if not check_alpha_subgroup(alpha_restrict(theta, alpha)).verdict:
                        continue
                    if not check_alpha_subgroup(alpha_restrict(sigma, alpha)).verdict:
                        continue
                    union_report = check_alpha_subgroup(
                        alpha_restrict(union(theta, sigma), alpha)
                    )
                    if union_report.verdict:
                        raise GeneratorSoundnessError(
                            "level-set oracle disagrees with the subgroup check"
                        )
                    return {
                        "claim": "R4.9",
                        "theta": _subset_payload(theta),
                        "sigma": _subset_payload(sigma),
                        "alpha": format_grade(alpha),
                        "violation": union_report.detail,
                    }
    return None


def _search_p4_11_literal(config):
    q = ("q",)
    for gname in config.catalog:
        group = standard_group(gname)
        if group.order > 4:
            continue
        for assignment in itertools.product(config.grade_pool, repeat=group.order):
            theta = make_qfuzzy(group, q, [[g] for g in assignment])
            for alpha in config.grade_pool:
                phi = alpha_restrict(theta, alpha)
                if not check_alpha_subgroup(phi).verdict:
                    continue
                literal = check_qfuzzy_subgroup(complement(_restricted_subset(phi)))
                if not literal.verdict:
                    return {
                        "claim": "P4.11-literal",
                        "theta": _subset_payload(theta),
                        "alpha": format_grade(alpha),
                        "violation": literal.detail,
                    }
    return None


def validate_witness(record: dict) -> bool:
    """Re-validate a search witness through the checking module."""
    claim = record["claim"]
    alpha = parse_grade(record["alpha"])
    if claim == "R4.3":
        theta = _subset_from_payload(record["theta"])
        return (
            not check_qfuzzy_subgroup(theta).verdict
            and check_alpha_subgroup(alpha_restrict(theta, alpha)).verdict
        )
    if claim == "R4.9":
        theta = _subset_from_payload(record["theta"])
        sigma = _subset_from_payload(record["sigma"])
        return (
            check_alpha_subgroup(alpha_restrict(theta, alpha)).verdict
            and check_alpha_subgroup(alpha_restrict(sigma, alpha)).verdict
            and not check_alpha_subgroup(alpha_restrict(union(theta, sigma), alpha)).verdict
        )
    if claim == "P4.11-literal":
        theta = _subset_from_payload(record["theta"])
        phi = alpha_restrict(theta, alpha)
        return (
            check_alpha_subgroup(phi).verdict
            and not check_qfuzzy_subgroup(complement(_restricted_subset(phi))).verdict
        )
    raise ValueError(f"unknown witness claim {claim!r}")
