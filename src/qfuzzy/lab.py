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
The paper's worked examples (`EXAMPLES`) are witnesses of R4.3 and R4.9:
`reproduce_example` re-checks each with `validate_witness`, then its control
and its published values, which the table holds as data.

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
from typing import ClassVar

from .grades import (
    GradePool,
    format_grade,
    parse_grade,
    validate_grade,
)
from .groups import (
    ANTI_HOMOMORPHISM,
    HOMOMORPHISM,
    MAX_SOURCE,
    all_subgroups,
    analyze_subset,
    enumerate_maps,
    gather,
    make_map,
    standard_group,
)
from .fuzzy import (
    QFuzzySubset,
    alpha_restrict,
    compare,
    complement,
    image_subset,
    intersection,
    level_sets,
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
    kernel_set,
)


class GeneratorSoundnessError(RuntimeError):
    """A generated fuzzy subgroup failed its own postcondition check."""


class ReproductionError(AssertionError):
    """A worked-example reproduction diverged from the published values."""


DEFAULT_POOL = tuple(
    sorted(Fraction(p) for p in ("0", "9/100", "1/10", "1/5", "3/10", "2/5", "1/2", "1"))
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


# Most q labels an audit takes.  Each label is drawn and checked apart, so an
# audit's work grows in proportion to the labels; the cap bounds it before
# any label is built.
MAX_Q_SIZE = 32

# Most grades a pool takes, duplicates included.  R4.9's search walks pairs
# of two-level tables built from the pool, and its work grows about as the
# cube of the pool's size (on a 2-vCPU Xeon, 13 grades took 1.4 s, 21 took
# 7.2 s and 51 ran past two minutes).  The cap bounds that before any table
# is built, and leaves twice the default pool's 8 grades.
MAX_POOL_SIZE = 16


@dataclass(frozen=True)
class AuditConfig:
    catalog: tuple[str, ...] = DEFAULT_CATALOG
    q_size: int = 1
    trials: int = 200
    seed: int = 7
    grade_pool: tuple[Fraction, ...] = DEFAULT_POOL  # a GradePool once built
    map_pairs: tuple[tuple[str, str], ...] = DEFAULT_MAP_PAIRS
    product_pairs: tuple[tuple[str, str], ...] = DEFAULT_PRODUCT_PAIRS
    max_source: ClassVar[int] = MAX_SOURCE  # enumerate_maps' guard, not a field

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 1 <= self.q_size <= MAX_Q_SIZE:
            raise ValueError(f"q_size must be from 1 to {MAX_Q_SIZE}, got {self.q_size}")
        if not 1 <= len(self.grade_pool) <= MAX_POOL_SIZE:
            raise ValueError(
                f"grade pool must have 1 to {MAX_POOL_SIZE} grades, got {len(self.grade_pool)}"
            )
        pool = GradePool(sorted(validate_grade(g) for g in self.grade_pool))
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


# Every index the generators draw is drawn as `Random._randbelow` draws it:
# k = n.bit_length() bits, drawn again while they read n or more.  So it is
# the index `rng.choice` takes from a sequence of length n, and the value of
# `rng.randint(0, n - 1)`, with the same generator state after.  The draws are
# written out in each generator's loop, where they run once per grade.


def random_qfuzzy(group, q_labels, rng, pool) -> QFuzzySubset:
    """Each grade drawn independently and uniformly from the pool."""
    pool = GradePool(pool)  # AuditConfig's pool is validated and scaled already
    # an index into the pool draws an integer as `choice` would its grade;
    # the draws fill the table row by row
    getrandbits, scaled, n = rng.getrandbits, pool.scaled, len(pool)
    k, width = n.bit_length(), len(q_labels)
    grades = []
    for _ in range(group.order * width):
        i = getrandbits(k)
        while i >= n:
            i = getrandbits(k)
        grades.append(scaled[i])
    columns = tuple([tuple(grades[j::width]) for j in range(width)])
    return QFuzzySubset(group, q_labels, columns, pool.den)


MAX_CHAIN_DEPTH = 3  # proper subgroups a generated chain descends through, at most


class _ChainNode:
    """A subgroup chain G = H0 > ... > Hk in its group's walk (`_chain_walk`).
    Its children extend it by each proper subgroup of Hk, in `all_subgroups`
    order, and its plan is `_layer_plan(group, chain)`: each is fetched on
    first reach and then kept, apart from a plan whose check failed."""

    __slots__ = ("group", "chain", "children", "plan")

    def __init__(self, group, chain):
        self.group, self.chain = group, chain
        self.children = self.plan = None

    def grow(self) -> tuple:
        group, chain = self.group, self.chain
        self.children = tuple([
            _ChainNode(group, chain + (h,)) for h in all_subgroups(group) if h < chain[-1]
        ])
        return self.children


@lru_cache(maxsize=None)
def _chain_walk(group) -> _ChainNode:
    # the root of the group's walk: the chain of the whole group alone
    return _ChainNode(group, (frozenset(range(group.order)),))


def _layer_plan(group, chain):
    # ascending grades of the chain's layers -> the column: each element
    # reads the grade of the deepest layer that holds it.  Each level set of
    # such a column is {x : depth(x) >= i}, a level set of the depth table, so
    # that table's one check covers them all
    depth = [0] * len(chain[0])
    for i, layer in enumerate(chain):
        for x in layer:
            depth[x] = i
    report = check_qfuzzy_subgroup(QFuzzySubset(group, ("depth",), (tuple(depth),), len(chain)))
    if not report.verdict:
        raise GeneratorSoundnessError(
            f"generated table on {group.name} is not a subgroup: {report.detail}"
        )
    return gather(depth)


def random_qfuzzy_subgroup(group, q_labels, rng, pool) -> QFuzzySubset:
    """Genuine Q-fuzzy subgroup from a random descending subgroup chain.

    Per q label: pick a chain G = H0 > H1 > ... > Hk, k drawn from
    0..MAX_CHAIN_DEPTH and cut short where no proper subgroup is left, and a
    weakly increasing grade sequence; the grade of x is the grade of the
    deepest layer containing x.  Each chain is checked once per group, as
    its table of depths, when its node in the group's walk first builds its
    layer plan, and generation aborts if that check fails, on every draw that
    reaches the chain; every column read from a chain that passed is a
    subgroup.
    """
    pool = GradePool(pool)
    getrandbits, scaled, n = rng.getrandbits, pool.scaled, len(pool)
    k = n.bit_length()
    depth_bits = (MAX_CHAIN_DEPTH + 1).bit_length()
    root = _chain_walk(group)
    columns = []
    for _ in q_labels:
        node = root
        steps = getrandbits(depth_bits)
        while steps > MAX_CHAIN_DEPTH:
            steps = getrandbits(depth_bits)
        for _ in range(steps):
            children = node.children
            if children is None:
                children = node.grow()
            m = len(children)
            if not m:
                break
            i = getrandbits(m.bit_length())
            while i >= m:
                i = getrandbits(m.bit_length())
            node = children[i]
        grades = []
        for _ in node.chain:
            i = getrandbits(k)
            while i >= n:
                i = getrandbits(k)
            grades.append(scaled[i])
        grades.sort()
        plan = node.plan
        if plan is None:  # a check that raises leaves it unset
            plan = node.plan = _layer_plan(group, node.chain)
        columns.append(plan(grades))
    return QFuzzySubset(group, q_labels, tuple(columns), pool.den)


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
# Each judges one evaluation: it takes a claim's named inputs, after the map
# when the claim quantifies over maps, and returns (ok, violation detail), to
# which a recorded claim's check appends its finding (held, violation), and
# P5.10's and P5.11's a third entry: whether the map is one the notes count
# apart.  The audit runner and replay_failure share these, and the
# hypotheses are the predicates next to them.


def _outcome(report):
    # a check's verdict and first violation, as a conclusion's (ok, detail)
    return report.verdict, report.detail


def _check_p3_3(theta, sigma, alpha):
    lhs = alpha_restrict(intersection(theta, sigma), alpha)
    rhs = intersection(alpha_restrict(theta, alpha), alpha_restrict(sigma, alpha))
    if compare("equal", lhs, rhs):
        return True, None
    return False, "restriction of intersection differs from intersection of restrictions"


def _image_alpha(f, phi):
    return alpha_restrict(image_subset(f, phi.base), phi.alpha)


def _preimage_alpha(f, psi):
    return alpha_restrict(preimage_subset(f, psi.base), psi.alpha)


def _check_p3_4(f, phi, psi):
    if not compare("equal", _image_alpha(f, phi), image_subset(f, phi)):
        return False, "image does not commute with restriction"
    if not compare("equal", _preimage_alpha(f, psi), preimage_subset(f, psi)):
        return False, "preimage does not commute with restriction"
    return True, None


def _check_p4_2(theta, alpha):
    return _outcome(check_qfuzzy_subgroup(alpha_restrict(theta, alpha)))


def _check_p4_6(phi):
    group, kernels = phi.group, kernel_set(phi)
    for q, column in zip(phi.q_labels, phi.columns):
        if column[group.identity] != max(column):
            return False, f"identity grade is not maximal for q label {q}"
        if not analyze_subset(group, kernels[q]).is_subgroup:
            return False, f"kernel set at q label {q} is not a crisp subgroup"
    return True, None


def _check_p4_7(phi):
    group = phi.group
    quotients, n, den = group.quotients, group.order, phi.den
    for q, column in zip(phi.q_labels, phi.columns):
        top = column[group.identity]
        for x in range(n):
            row, gx = quotients[x], column[x]
            for y in range(n):
                if column[row[y]] == top and gx != column[y]:
                    return False, (
                        f"lhs = {format_grade(Fraction(gx, den))} != "
                        f"rhs = {format_grade(Fraction(column[y], den))} at "
                        f"({group.label(x)}, {group.label(y)}, {q})"
                    )
    return True, None


def _check_p4_11(phi):
    # the proof's reversed inequalities decide; the literal min-form claim
    # for the complement is the finding
    comp = complement(phi)
    return (*_outcome(check_anti_subgroup(comp)), _outcome(check_qfuzzy_subgroup(comp)))


def _check_p4_12(phi):
    report = check_alpha_subgroup(phi)
    if report.forms_agree:
        return True, None
    return False, (
        f"two-condition verdict {report.verdict} disagrees with quotient-form "
        f"verdict {report.conditions['quotient'].ok}"
    )


def _dominates_identity(phi, psi):
    # phi's identity grade bounds every grade of psi: max(column) / psi.den <= top[e] / phi.den
    e = phi.group.identity
    return all(
        max(column) * phi.den <= top[e] * psi.den
        for top, column in zip(phi.columns, psi.columns)
    )


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


def _all_abelian(phi):
    return all(s.verdict for s in classify_abelian(phi).values())


def _all_cyclic(phi):
    # every level set at an achieved cut of every label, read from its integer
    # column, is a cyclic subgroup: classify_cyclic's verdict, stopping at the
    # first level set that is not
    group = phi.group
    analyses = (
        analyze_subset(group, members)
        for k in range(len(phi.columns)) for _, members in level_sets(phi, k)
    )
    return all(a.is_subgroup and a.is_cyclic for a in analyses)


def _check_p5_7(f, phi):
    if _all_abelian(_image_alpha(f, phi)):
        return True, None
    return False, "image kernel set is not an abelian crisp subgroup"


def _check_p5_8(f, psi):
    # the cancellation step of the claim's argument needs injectivity, so an
    # injective map decides and any other gives the literal finding
    if _all_abelian(_preimage_alpha(f, psi)):
        result = True, None
    else:
        result = False, "preimage kernel set is not an abelian crisp subgroup"
    return result if f.is_injective else (True, None, result)


# P5.10 and P5.11: the level-set inclusion decides, and the cyclicity of the
# image (preimage) is the finding, split on a surjective (injective) map.
# "Each pushed level set lies in the image's level set at every achieved cut"
# is the statement sigma(f(x)) >= phi(x) at every x and q label, that is
# phi <= f^-1(sigma): take the cut phi(x) itself (the level-subgroup reading
# of Das 1981).  Pulled level sets likewise give theta(x) >= psi(f(x)), that
# is f^-1(psi) <= theta.  Both hold by construction:
# sigma(f(x)) = min(max over the fiber of f(x), alpha) >= phi(x), and
# theta(x) = psi(f(x)).


def _check_p5_10(f, phi):
    sigma = _image_alpha(f, phi)
    inclusion = compare("subset", phi, preimage_subset(f, sigma))
    detail = None if inclusion else "pushed level set escapes the image level set"
    return inclusion, detail, (_all_cyclic(sigma), None, f.is_surjective)


def _check_p5_11(f, psi):
    theta = _preimage_alpha(f, psi)
    inclusion = compare("subset", preimage_subset(f, psi), theta)
    detail = None if inclusion else "pulled level set escapes the preimage level set"
    return inclusion, detail, (_all_cyclic(theta), None, f.is_injective)


# --- search spaces ---------------------------------------------------------------
#
# A search claim's space gives, lazily, its candidate inputs on one catalog
# group in a fixed order: one-label tables over the grade pool (taken
# lexicographically over the ascending pool), then alpha ascending.  Each
# space bounds the group orders it enumerates.


def _pool_table(group, column, pool: GradePool) -> QFuzzySubset:
    return QFuzzySubset(group, ("q",), (column,), pool.den)


def _tables(group, pool: GradePool):
    # every table, enumerable only at tiny orders
    if group.order > 4:
        return
    for column in itertools.product(pool.scaled, repeat=group.order):
        theta = _pool_table(group, column, pool)
        for alpha in pool:
            yield theta, alpha


def _two_level_pairs(group, pool: GradePool):
    # pairs of indicator-style tables, hi on a subgroup and lo elsewhere with
    # hi > lo, restricted at alpha: the hypothesis holds on each (its level
    # sets are G and the subgroup) and the conclusion reads only the restricted
    # union, so each restricted union column is yielded once, at its first
    # candidate.  (b, a) gives the unions (a, b) gives, and the walk met (a, b)
    # before it, so b runs from a on: the candidates and their order are those
    # of the full square.
    if group.order > 6:
        return
    columns = [
        tuple(hi if x in sub else lo for x in range(group.order))
        for sub in all_subgroups(group) for hi in pool.scaled for lo in pool.scaled if hi > lo
    ]
    seen = set()
    for i, a in enumerate(columns):
        for b in columns[i:]:
            merged = tuple(map(max, a, b))
            for alpha, cap in zip(pool, pool.scaled):
                restricted = tuple([g if g <= cap else cap for g in merged])
                if restricted not in seen:
                    seen.add(restricted)
                    yield _pool_table(group, a, pool), _pool_table(group, b, pool), alpha


# --- the claim table -----------------------------------------------------------


@dataclass(frozen=True)
class Claim:
    """One claim of the catalog, declared once.

    A trial draws the named inputs on a carrier, is filtered when the
    hypothesis fails on them, and otherwise evaluates the conclusion, once
    per image array of the enumerated maps when the claim has map kinds.
    Both take the inputs in the order of `inputs`, the conclusion after the
    map; it returns (ok, detail) and, for a recorded claim, a finding
    (held, violation[, split]) that the notes tally.  A search claim
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
    notes: Callable | None = None  # (tally, maps), or the witness of a search
    space: Callable | None = None  # of a search: (group, pool) -> its candidates, lazily

    def draw(self, left, right, q_labels, rng, pool) -> tuple:
        """The trial's inputs, in the order of `inputs`: the subsets drawn in
        that order, then alpha."""
        # the generator is read from the module at each call, so a wrapper
        # installed there sees it
        if self.draws == "subgroup":
            make = random_qfuzzy_subgroup
        elif self.draws == "table":
            make = random_qfuzzy
        else:
            make = _mixed_subset
        subsets = []
        for name in self.inputs:
            if name != "alpha":
                group = right if name in ("sigma", "psi") else left
                subsets.append(make(group, q_labels, rng, pool))
        n = len(pool)  # alpha's index, drawn as the generators draw theirs
        k = n.bit_length()
        i = rng.getrandbits(k)
        while i >= n:
            i = rng.getrandbits(k)
        alpha = pool[i]
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
    if tally.first_miss is not None:
        text += f"; first literal counterexample: {tally.first_miss}"
    return text


def _p5_8_note(tally, maps):
    injective = sum(1 for f in maps if f.is_injective)
    text = (
        f"pass criterion quantified over the {injective} injective of "
        f"{len(maps)} anti-homomorphisms"
    )
    if tally.held + tally.missed:
        text += (
            f"; literal claim over non-injective maps held in "
            f"{tally.held}/{tally.held + tally.missed} evaluations"
        )
    if tally.first_miss is not None:
        text += f"; first counterexample: {tally.first_miss}"
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
        draws="table", inputs=("phi", "psi"),
        map_kinds=(HOMOMORPHISM, ANTI_HOMOMORPHISM), conclusion=_check_p3_4,
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
    "P4.11": Claim(
        "complement of a restricted subgroup (statement vs proof)", "recorded",
        "catalog", draws="subgroup", inputs=("phi",), conclusion=_check_p4_11,
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
    "P5.8": Claim(
        "anti-homomorphic preimage preserves abelian kernels", "verified",
        "map_pairs", draws="subgroup", inputs=("psi",),
        map_kinds=(ANTI_HOMOMORPHISM,), hypothesis=lambda psi: _all_abelian(psi),
        conclusion=_check_p5_8, notes=_p5_8_note,
    ),
    "P5.10": Claim(
        "anti-homomorphic image preserves cyclic level structure", "recorded",
        "map_pairs", draws="subgroup", inputs=("phi",),
        map_kinds=(ANTI_HOMOMORPHISM,), hypothesis=lambda phi: _all_cyclic(phi),
        conclusion=_check_p5_10, notes=_cyclic_note("surjective"),
    ),
    "P5.11": Claim(
        "anti-homomorphic preimage preserves cyclic level structure", "recorded",
        "map_pairs", draws="subgroup", inputs=("psi",),
        map_kinds=(ANTI_HOMOMORPHISM,), hypothesis=lambda psi: _all_cyclic(psi),
        conclusion=_check_p5_11, notes=_cyclic_note("injective"),
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
        inputs=("theta", "sigma", "alpha"), space=_two_level_pairs,
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
        conclusion=lambda theta, alpha: _check_p4_11(alpha_restrict(theta, alpha))[2],
    ),
}

CLAIM_ORDER = tuple(CLAIMS)
EXPECTED_VERIFIED = frozenset(c for c in CLAIMS if CLAIMS[c].status == "verified")


# --- the runner -----------------------------------------------------------------


@dataclass
class _Tally:
    """Outcomes of one claim's trials on one carrier, with the findings of
    their evaluations, also counted apart where a finding is split."""

    passes: int = 0
    filtered: int = 0
    failures: list = field(default_factory=list)
    held: int = 0
    missed: int = 0
    held_split: int = 0
    missed_split: int = 0
    first_miss: str | None = None  # the first missed finding's violation

    def find(self, held: bool, violation: str | None, split: bool = False):
        if held:
            self.held += 1
            self.held_split += split
        else:
            self.missed += 1
            self.missed_split += split
            if self.first_miss is None:
                self.first_miss = violation


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
    conclusion = claim.conclusion
    if not claim.map_kinds:
        ok, detail, *findings = conclusion(*inputs)
        for finding in findings:
            tally.find(*finding)
        return (True, None, None) if ok else (False, detail, None)
    for f in maps:
        ok, detail, *findings = conclusion(f, *inputs)
        for finding in findings:
            tally.find(*finding)
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
        maps, evaluated = _claim_maps(left, right, claim.map_kinds)
        tally = _Tally()
        draw, hypothesis, pool = claim.draw, claim.hypothesis, config.grade_pool
        for t in range(config.trials):
            rng = _trial_rng(config, prop_id, carrier, t)
            inputs = draw(left, right, q_labels, rng, pool)
            if hypothesis is not None and not hypothesis(*inputs):
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
def _claim_maps(left, right, kinds):
    """(every map of the kinds, which the notes count; the first map of each
    image array, in order, which the trials judge).  A conclusion reads a map
    through its images only, so a later map with the same images judges as
    that one does."""
    maps = tuple(f for kind in kinds for f in enumerate_maps(left, right, kind))
    first = {}
    for f in maps:
        first.setdefault(f.images, f)
    return maps, tuple(first.values())


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
    return None


def audit(props, config: AuditConfig | None = None) -> list[AuditReport]:
    """Run the audits for the given claim ids, in catalog order."""
    config = config or AuditConfig()
    props = set(props)
    unknown = props - CLAIMS.keys()
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


def _fails_again(claim: Claim, record: dict) -> bool | None:
    # None when the hypothesis fails on the record's decoded inputs, else
    # whether the conclusion fails again, on the record's map if the claim
    # has maps
    inputs = tuple(_decode(name, record[name]) for name in claim.inputs)
    if claim.hypothesis is not None and not claim.hypothesis(*inputs):
        return None
    maps = (_decode("map", record["map"]),) if claim.map_kinds else ()
    return not _judge(claim, inputs, maps, _Tally())[0]


def replay_failure(record: dict) -> bool:
    """Re-evaluate a materialized failure record: True iff the claim's
    hypothesis holds on the record's inputs, its map is one the pass
    criterion quantifies over, and the conclusion still fails.  A search
    claim's record names no inputs and never replays as failing."""
    claim = _claim_of(CLAIMS, record, "replay")
    return claim.carriers != "search" and _fails_again(claim, record) is True


def validate_witness(record: dict) -> bool:
    """Re-validate a search witness the way `replay_failure` replays a
    failure: True iff its hypothesis holds and its conclusion still fails."""
    return _fails_again(_claim_of(SEARCHES, record, "witness"), record) is True


# --- worked examples -----------------------------------------------------------
#
# Each published example is the witness record of a searched remark: 4.5 of
# R4.3, and 4.10 (the paper's integer construction, on cyclic12) of R4.9 with
# a control, the example's sigma and pi, on which R4.9 holds.  Its published
# values are read again from the table its remark judges: restricted at
# alpha, its grades and its quotient form's first violation; unrestricted,
# the pair (x, y, grade(x y^-1), min(grade(x), grade(y))), published with
# lhs < rhs (in klein4, x y^-1 = x y).  The checks' first violations are
# other pairs, so the notes are literals.


def _one_label(group: str, grades: dict) -> dict:
    # the codec's payload of a table with the one label q
    rows = {str(x): {"q": g} for x, g in grades.items()}
    return {"group": group, "q_labels": ["q"], "grades": rows}


_SIGMA_4_10 = _one_label("cyclic12", {x: "1/10" if x % 2 else "1/5" for x in range(12)})

EXAMPLES = {
    "4.5": {
        "witness": {
            "claim": "R4.3",
            "theta": _one_label("klein4", {"e": "1/5", "a": "2/5", "b": "2/5", "c": "3/10"}),
            "alpha": "9/100",
            "violation": "lhs = 1/5 < rhs = 2/5 at (a, a, q)",
        },
        "published": {
            "grades": dict.fromkeys("eabc", "9/100"),
            "pair": ("a", "b", "3/10", "2/5"),
        },
        "note": "base table fails closure: lhs = 3/10 < rhs = 2/5 at (a, b, q); "
                "restriction at alpha = 9/100 is a subgroup",
    },
    "4.10": {
        "witness": {
            "claim": "R4.9",
            "theta": _one_label("cyclic12", {x: "0" if x % 3 else "2/5" for x in range(12)}),
            "sigma": _SIGMA_4_10,
            "alpha": "1",
            "violation": "lhs = 1/10 < rhs = 1/5 at (2, 3, q)",
        },
        "control": {
            "claim": "R4.9",
            "theta": _SIGMA_4_10,
            "sigma": _one_label("cyclic12", {x: "0" if x % 2 else "1" for x in range(12)}),
            "alpha": "1",
        },
        "published": {
            "grades": {"3": "2/5", "2": "1/5", "1": "1/10"},
            "quotient": "lhs = 1/10 < rhs = 1/5 at (2, 3, q)",
            "pair": ("3", "2", "1/10", "1/5"),
        },
        "note": "theta, sigma, pi individually pass; union(theta, sigma) fails with "
                "lhs = 1/10 < rhs = 1/5 at (2, 3, q); union(sigma, pi) passes",
    },
}


def reproduce_example(example_id: str) -> AuditReport:
    """Re-run one of the published worked examples exactly: its witness
    re-validates, its control holds and its published values read again."""
    example = EXAMPLES.get(example_id)
    if example is None:
        raise ValueError(f"unknown example id {example_id!r}")
    witness, control = example["witness"], example.get("control")
    if not validate_witness(witness):
        raise ReproductionError(f"the {witness['claim']} witness does not re-validate")
    if control and _fails_again(SEARCHES[control["claim"]], control) is not False:
        raise ReproductionError(f"the {control['claim']} control does not hold")
    table = _decode("theta", witness["theta"])
    if "sigma" in witness:
        table = union(table, _decode("sigma", witness["sigma"]))
    subject = alpha_restrict(table, _decode("alpha", witness["alpha"]))
    group, published = subject.group, example["published"]
    x, y, *_ = published["pair"]
    i, j = group.index(x), group.index(y)
    lhs, rhs = table.grade(group.quotients[i][j], 0), min(table.grade(i, 0), table.grade(j, 0))
    read = {
        "grades": {
            e: format_grade(subject.grade(group.index(e), 0)) for e in published["grades"]
        },
        "quotient": check_alpha_subgroup(subject).conditions["quotient"].detail,
        "pair": (x, y, format_grade(lhs), format_grade(rhs)),
    }
    for key, value in published.items():
        if read[key] != value:
            raise ReproductionError(f"published {key} diverged: read {read[key]}, not {value}")
    return AuditReport(f"example-{example_id}", group.name, 1, 1, 0, [],
                       "verified-exhaustive", example["note"])
