import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

import fraction_oracle as oracle
from qfuzzy import lab
from qfuzzy.checks import check_alpha_subgroup, check_qfuzzy_subgroup
from qfuzzy.fuzzy import QFuzzySubset, alpha_restrict, make_qfuzzy, union
from qfuzzy.grades import GradePool
from qfuzzy.groups import (
    ANTI_HOMOMORPHISM,
    HOMOMORPHISM,
    MAX_SOURCE,
    FeasibilityError,
    enumerate_maps,
    standard_group,
)
from qfuzzy.lab import (
    CLAIM_ORDER,
    DEFAULT_CATALOG,
    DEFAULT_POOL,
    EXPECTED_VERIFIED,
    AuditConfig,
    ReproductionError,
    audit,
    random_qfuzzy,
    random_qfuzzy_subgroup,
    replay_failure,
    reproduce_example,
    search_counterexample,
    validate_witness,
)
from qfuzzy.reports import render_structured

F = Fraction
Q = ("q",)
RECORDED_CLAIMS = frozenset(c for c in CLAIM_ORDER if lab.CLAIMS[c].status == "recorded")

SMALL = AuditConfig(
    catalog=("cyclic2", "cyclic6", "symmetric3"),
    trials=25,
    map_pairs=(("cyclic2", "cyclic2"), ("symmetric3", "cyclic2")),
    product_pairs=(("cyclic2", "cyclic3"),),
)


def test_config_normalizes_pool_and_rejects_bad_values():
    cfg = AuditConfig(grade_pool=(F(1), F(0), F(1, 2)))
    assert cfg.grade_pool == (F(0), F(1, 2), F(1))
    with pytest.raises(ValueError):
        AuditConfig(trials=0)
    with pytest.raises(ValueError):
        AuditConfig(grade_pool=())
    assert AuditConfig(q_size=2).q_labels() == ("q1", "q2")


def test_random_subgroup_generator_is_sound():
    # postcondition re-checked against the independent scanner
    pool = AuditConfig().grade_pool
    for name in ["cyclic2", "cyclic6", "klein4", "symmetric3", "quaternion8"]:
        g = standard_group(name)
        for trial in range(40):
            rng = random.Random(f"gen|{name}|{trial}")
            theta = random_qfuzzy_subgroup(g, Q, rng, pool)
            assert check_qfuzzy_subgroup(theta).verdict


@pytest.fixture
def fresh_walks():
    # the per-group chain walks start empty, and a walk built in the test
    # is not kept for the next one
    lab._chain_walk.cache_clear()
    yield
    lab._chain_walk.cache_clear()


def test_generator_never_remembers_a_failing_chain(monkeypatch, fresh_walks):
    group = standard_group("cyclic4")
    pool = AuditConfig().grade_pool
    # {0, 1} is not a subgroup of cyclic4, so a column graded higher on it
    # fails; a lattice that lists it makes it the only chain below the group
    monkeypatch.setattr(lab, "all_subgroups", lambda group: (frozenset({0, 1}), frozenset(range(4))))
    checked = []

    def check(theta):
        checked.append(theta.columns)
        return check_qfuzzy_subgroup(theta)

    monkeypatch.setattr(lab, "check_qfuzzy_subgroup", check)
    labels = tuple(f"q{i}" for i in range(8))
    for attempt in (1, 2):  # the same draw again: it is checked again, and fails again
        with pytest.raises(lab.GeneratorSoundnessError, match="not a subgroup"):
            random_qfuzzy_subgroup(group, labels, random.Random("no memo"), pool)
        assert checked.count(((1, 1, 0, 0),)) == attempt
    (bad,) = lab._chain_walk(group).children
    assert bad.chain == (frozenset(range(4)), frozenset({0, 1})) and bad.plan is None


def depth_table(group, chain):
    # the one-label table grading each element by the deepest layer holding it
    depth = [max(i for i, layer in enumerate(chain) if x in layer) for x in range(group.order)]
    return (tuple(depth),), len(chain)


def test_generator_checks_each_chain_once(monkeypatch, fresh_walks):
    group = standard_group("symmetric3")
    pool = AuditConfig().grade_pool
    checked = []

    def check(theta):
        checked.append(theta)
        return check_qfuzzy_subgroup(theta)

    monkeypatch.setattr(lab, "check_qfuzzy_subgroup", check)
    labels = tuple(f"q{i}" for i in range(12))  # symmetric3 has 10 chains
    first = random_qfuzzy_subgroup(group, labels, random.Random("memo"), pool)
    again = random_qfuzzy_subgroup(group, labels, random.Random("memo"), pool)
    assert again == first
    # the chains of both calls, as the old generator draws them
    chains = []
    for _ in range(2):
        rng = random.Random("memo")
        for _ in labels:
            chains.append(tuple(oracle._random_chain(group, rng)))
            [rng.choice(pool) for _ in chains[-1]]  # the layers' grades
    distinct = list(dict.fromkeys(chains))
    assert len(chains) == 24 and len(distinct) < 12
    assert [(t.columns, t.den) for t in checked] == [depth_table(group, c) for c in distinct]


def test_layer_plans_are_kept_per_group():
    # {0, 1} is a subgroup of klein4 (e, a), not of cyclic4 (0, 1): the plan
    # built for klein4 must not pass cyclic4's chain unchecked.  The two
    # groups' walks start from the same chain, and are kept apart
    klein4, cyclic4 = standard_group("klein4"), standard_group("cyclic4")
    chain = (frozenset(range(4)), frozenset({0, 1}))
    assert lab._layer_plan(klein4, chain)((0, 1)) == (1, 1, 0, 0)
    for _ in range(2):
        with pytest.raises(lab.GeneratorSoundnessError, match="on cyclic4 is not a subgroup"):
            lab._layer_plan(cyclic4, chain)
    walks = lab._chain_walk(klein4), lab._chain_walk(cyclic4)
    assert walks[0].chain == walks[1].chain and walks[0] is not walks[1]


def subgroup_chains(group):
    # every chain the subgroup generator can draw: the whole group, then up to
    # three strictly smaller subgroups, each inside the one before
    subs = oracle.all_subgroups(group)
    chains, frontier = [], [(frozenset(range(group.order)),)]
    while frontier:
        chain = frontier.pop()
        chains.append(chain)
        if len(chain) < 4:
            frontier.extend(chain + (h,) for h in subs if h < chain[-1])
    return chains


def test_every_column_read_from_a_catalog_chain_is_a_subgroup():
    # the proof behind checking a chain once: under any weakly increasing
    # grading, each level set of the column is a subgroup
    pool = GradePool(DEFAULT_POOL)
    tables = 0
    catalog = [standard_group(name) for name in DEFAULT_CATALOG]
    assert sum(len(subgroup_chains(group)) for group in catalog) == 128
    for group in catalog:
        subs = set(oracle.all_subgroups(group))
        for chain in subgroup_chains(group):
            plan = lab._layer_plan(group, chain)
            for grades in itertools.combinations_with_replacement(pool.scaled, len(chain)):
                theta = QFuzzySubset(group, Q, (plan(grades),), pool.den)
                assert check_qfuzzy_subgroup(theta).verdict
                assert oracle.check_qfuzzy_subgroup(theta).verdict
                whole = alpha_restrict(theta, F(1))  # theta itself, as a restriction
                for c in oracle.achieved_grades(whole, "q"):
                    assert oracle.level_set(whole, c, "q") in subs
                tables += 1
    assert tables == 12_308


@pytest.mark.parametrize("n", range(1, 21))  # at a power of two, half the draws are redrawn
def test_index_draw_is_choice_and_randint(n):
    # a table's grades and a trial's alpha are drawn from a pool of n grades
    # at the index `choice` takes, which `randint(0, n - 1)` gives too
    pool = GradePool([F(i, 20) for i in range(n)])
    group = standard_group("cyclic3")
    for seed in range(200):
        drawn, by_choice, by_randint = (random.Random(seed) for _ in range(3))
        theta, sigma, alpha = lab.CLAIMS["P3.3"].draw(group, group, Q, drawn, pool)
        grades = [row[0] for table in (theta, sigma) for row in table.grades] + [alpha]
        assert grades == [by_choice.choice(pool) for _ in range(7)]
        assert grades == [pool[by_randint.randint(0, n - 1)] for _ in range(7)]
        assert drawn.getstate() == by_choice.getstate() == by_randint.getstate()


def test_random_qfuzzy_draws_from_pool():
    g = standard_group("cyclic6")
    pool = (F(0), F(1, 2))
    theta = random_qfuzzy(g, Q, random.Random(0), pool)
    assert all(row[0] in pool for row in theta.grades)


def test_audit_rejects_unknown_claims():
    with pytest.raises(ValueError, match="unknown claim"):
        audit({"P9.9"}, SMALL)


def test_audit_is_deterministic():
    first = audit({"P4.2", "P4.11", "P5.8"}, SMALL)
    second = audit({"P4.2", "P4.11", "P5.8"}, SMALL)
    assert first == second


def test_audit_accounting_invariants():
    reports = audit(set(CLAIM_ORDER), SMALL)
    assert [r.prop_id for r in reports] == sorted(
        (r.prop_id for r in reports), key=CLAIM_ORDER.index
    )
    for r in reports:
        assert r.trials == r.passes + len(r.failures)
        if r.prop_id in EXPECTED_VERIFIED:
            assert not r.failures, (r.prop_id, r.carrier, r.failures[0])
            assert r.status.startswith("verified")
        if r.prop_id in RECORDED_CLAIMS:
            assert r.status == "recorded"


def rendered_sha256(reports) -> str:
    return hashlib.sha256(render_structured(reports).encode()).hexdigest()


def test_two_label_trial_audit_is_pinned():
    # the default fingerprint has one q label and no failure record: every
    # trial claim over two labels, byte for byte
    trial_claims = {c for c in CLAIM_ORDER if lab.CLAIMS[c].carriers != "search"}
    reports = audit(trial_claims, AuditConfig(q_size=2, trials=30))
    assert len({r.prop_id for r in reports}) == 17
    assert rendered_sha256(reports) == (
        "e6454e633b06c7825ca0c8e2d9589bdcbf0bbd27431769a0317c5dfa76e02352"
    )


def test_r4_16_failure_record_is_pinned():
    # a real failure record of a recorded claim, with its finding in the notes
    config = AuditConfig(q_size=2, trials=400, product_pairs=(("cyclic2", "cyclic2"),))
    reports = audit({"R4.16"}, config)
    assert len(reports[0].failures) == 1
    assert "held in 237/238 applicable trials" in reports[0].notes
    assert rendered_sha256(reports) == (
        "5eb56b72010d94727fb04eea89b64e5a14cb42cae394ee147265003bbcadc31f"
    )


def test_only_p4_12_reads_the_quotient_form(monkeypatch):
    # the subgroup claims judge restrictions with the two-condition check;
    # only P4.12 compares it with the quotient form
    def quotient_scan(phi):
        raise AssertionError("quotient form computed where nothing reads it")

    monkeypatch.setattr(lab, "check_alpha_subgroup", quotient_scan)
    claims = {"P4.2", "P4.8", "P4.14", "P4.15", "R4.16", "P5.2", "P5.4"}
    reports = audit(claims, SMALL)
    assert {r.prop_id for r in reports} == claims
    assert all(r.trials for r in reports if r.prop_id in ("P4.2", "P4.8", "P4.14"))
    monkeypatch.undo()
    calls = []

    def counted(phi):
        calls.append(phi)
        return check_alpha_subgroup(phi)

    monkeypatch.setattr(lab, "check_alpha_subgroup", counted)
    reports = audit({"P4.12"}, SMALL)
    assert calls and all(r.status == "verified-sampled" for r in reports)


def test_p4_11_notes_report_literal_findings():
    reports = [r for r in audit({"P4.11"}, SMALL) if r.carrier == "cyclic6"]
    assert len(reports) == 1
    assert "literal min-form claim" in reports[0].notes


def test_p5_8_pass_criterion_is_injective_maps():
    reports = audit({"P5.8"}, SMALL)
    assert all("injective" in r.notes for r in reports)
    assert all(not r.failures for r in reports)


def test_search_r4_3_first_witness():
    witness = search_counterexample("R4.3", SMALL)
    assert witness["theta"]["group"] == "cyclic2"
    assert witness["theta"]["grades"] == {"0": {"q": "0"}, "1": {"q": "9/100"}}
    assert witness["alpha"] == "0"
    assert validate_witness(witness)


def test_search_r4_9_first_witness():
    witness = search_counterexample("R4.9", SMALL)
    assert witness["theta"]["group"] == "cyclic6"
    theta_hi = {e for e, row in witness["theta"]["grades"].items() if row["q"] != "0"}
    sigma_hi = {e for e, row in witness["sigma"]["grades"].items() if row["q"] != "0"}
    assert theta_hi == {"0", "3"}
    assert sigma_hi == {"0", "2", "4"}
    assert validate_witness(witness)


def test_search_p4_11_literal_witness():
    cfg = AuditConfig(catalog=("cyclic2",), grade_pool=(F(3, 10), F(1, 2)))
    witness = search_counterexample("P4.11-literal", cfg)
    assert witness["theta"]["grades"] == {"0": {"q": "1/2"}, "1": {"q": "3/10"}}
    assert witness["alpha"] == "1/2"
    assert validate_witness(witness)


def test_search_unknown_claim_rejected():
    with pytest.raises(ValueError):
        search_counterexample("P1.1", SMALL)


def pinned(claim, group, alpha, violation, **tables):
    # a witness on a cyclic group, whose elements are labelled 0, 1, ...
    subsets = {
        name: {
            "group": group,
            "q_labels": ["q"],
            "grades": {str(x): {"q": g} for x, g in enumerate(grades)},
        }
        for name, grades in tables.items()
    }
    return {"claim": claim, **subsets, "alpha": alpha, "violation": violation}


DEFAULT_WITNESSES = {
    "R4.3": pinned(
        "R4.3", "cyclic2", "0", "lhs = 0 < rhs = 9/100 at (1, 1, q)",
        theta=["0", "9/100"],
    ),
    "R4.9": pinned(
        "R4.9", "cyclic6", "9/100", "lhs = 0 < rhs = 9/100 at (2, 3, q)",
        theta=["9/100", "0", "0", "9/100", "0", "0"],
        sigma=["9/100", "0", "9/100", "0", "9/100", "0"],
    ),
    "P4.11-literal": pinned(
        "P4.11-literal", "cyclic2", "9/100", "lhs = 91/100 < rhs = 1 at (1, 1, q)",
        theta=["9/100", "0"],
    ),
}


@pytest.mark.parametrize("claim", sorted(DEFAULT_WITNESSES))
def test_default_search_witnesses_are_pinned(claim):
    # the whole record, key order included, at the default config
    witness = search_counterexample(claim, AuditConfig())
    assert list(witness.items()) == list(DEFAULT_WITNESSES[claim].items())
    assert validate_witness(witness)


def test_validate_witness_rejects_inputs_that_no_longer_refute():
    r49 = dict(DEFAULT_WITNESSES["R4.9"], sigma=DEFAULT_WITNESSES["R4.9"]["theta"])
    assert not validate_witness(r49)  # a union with itself is a subgroup
    r43 = dict(DEFAULT_WITNESSES["R4.3"], alpha="9/100")
    assert not validate_witness(r43)  # the restriction is no subgroup: no hypothesis
    p411 = pinned("P4.11-literal", "cyclic2", "9/100", "synthetic", theta=["9/100", "9/100"])
    assert not validate_witness(p411)  # a constant's complement is a subgroup


# the default-catalog groups R4.9's space enumerates
R4_9_GROUPS = [name for name in DEFAULT_CATALOG if standard_group(name).order <= 6]


def _is_subgroup_by_levels(phi) -> bool:
    # Das (1981): a fuzzy subset is a fuzzy subgroup iff each of its level
    # sets at an achieved grade is a crisp subgroup
    subgroups = set(oracle.all_subgroups(phi.group))
    return all(
        oracle.level_set(phi, c, q) in subgroups
        for q in phi.q_labels for c in oracle.achieved_grades(phi, q)
    )


def test_r4_9_space_meets_the_hypothesis_and_the_level_set_test():
    # every candidate over the default pool: the hypothesis holds, and the
    # subgroup check of the restricted union agrees with the level-set test
    claim, pool = lab.SEARCHES["R4.9"], AuditConfig().grade_pool
    walked = 0
    for name in R4_9_GROUPS:
        for theta, sigma, alpha in claim.space(standard_group(name), pool):
            assert claim.hypothesis(theta, sigma, alpha)
            restricted = alpha_restrict(union(theta, sigma), alpha)
            assert check_qfuzzy_subgroup(restricted).verdict == _is_subgroup_by_levels(restricted)
            walked += 1
    assert walked == 3200  # each restricted union column once


def _first_failing_pair(group, pool):
    # R4.9's walk without deduplication, in the space's order: every pair of
    # two-valued tables, hi on a subgroup and lo elsewhere, at every alpha
    claim = lab.SEARCHES["R4.9"]
    tables = [
        oracle.indicator(group, Q, sub, inside=hi, outside=lo)
        for sub in oracle.all_subgroups(group) for hi in pool for lo in pool if hi > lo
    ]
    for theta, sigma in itertools.product(tables, repeat=2):
        for alpha in pool:
            if claim.hypothesis(theta, sigma, alpha):
                ok, detail = claim.conclusion(theta, sigma, alpha)
                if not ok:
                    return {"claim": "R4.9", **lab._record(claim, (theta, sigma, alpha), None, detail)}
    return None


@pytest.mark.parametrize("name", R4_9_GROUPS)
def test_r4_9_search_keeps_the_first_failing_pair_of_the_whole_walk(name):
    cfg = AuditConfig(catalog=(name,), grade_pool=(F(0), F(1, 2), F(1)))
    witness = search_counterexample("R4.9", cfg)
    assert witness == _first_failing_pair(standard_group(name), cfg.grade_pool)
    refuting = ("cyclic6", "klein4", "symmetric3", "cyclic2xcyclic2")
    assert (witness["alpha"] if witness else None) == ("1/2" if name in refuting else None)


@pytest.mark.parametrize("name", R4_9_GROUPS)
def test_r4_9_space_yields_the_first_pair_of_each_restricted_union(name):
    # the space walks each unordered pair of tables once; its candidates, in
    # order, are the pairs of the full square that first give their
    # restricted union
    group = standard_group(name)
    pool = AuditConfig(grade_pool=(F(0), F(1, 10), F(1, 2), F(1))).grade_pool
    tables = [
        oracle.indicator(group, Q, sub, inside=hi, outside=lo)
        for sub in oracle.all_subgroups(group) for hi in pool for lo in pool if hi > lo
    ]
    expected, seen = [], set()
    for theta, sigma in itertools.product(tables, repeat=2):
        for alpha in pool:
            column = oracle.alpha_restrict(oracle.combine("union", theta, sigma), alpha).grades
            if column not in seen:
                seen.add(column)
                expected.append((theta, sigma, alpha))
    assert list(lab.SEARCHES["R4.9"].space(group, pool)) == expected


def test_validate_witness_rejects_an_unknown_claim_before_decoding():
    with pytest.raises(ValueError, match="'P9.9'"):
        validate_witness({"claim": "P9.9"})
    with pytest.raises(ValueError, match="'P4.2'"):
        validate_witness({"claim": "P4.2"})  # a trial claim, not a search


def test_replay_failure_round_trip():
    failing = {
        "claim": "P4.2",
        "theta": {
            "group": "cyclic3",
            "q_labels": ["q"],
            "grades": {"0": {"q": "1/10"}, "1": {"q": "9/10"}, "2": {"q": "9/10"}},
        },
        "alpha": "1",
        "violation": "synthetic",
    }
    assert replay_failure(failing)
    passing = {
        "claim": "P4.2",
        "theta": {
            "group": "cyclic3",
            "q_labels": ["q"],
            "grades": {"0": {"q": "1/2"}, "1": {"q": "1/10"}, "2": {"q": "1/10"}},
        },
        "alpha": "1",
        "violation": "synthetic",
    }
    assert not replay_failure(passing)


def test_reproduce_example_4_5():
    report = reproduce_example("4.5")
    assert report.status == "verified-exhaustive"
    assert "lhs = 3/10 < rhs = 2/5 at (a, b, q)" in report.notes


def test_reproduce_example_4_10():
    report = reproduce_example("4.10")
    assert report.status == "verified-exhaustive"
    assert "lhs = 1/10 < rhs = 1/5 at (2, 3, q)" in report.notes


def test_reproduce_unknown_example_rejected():
    with pytest.raises(ValueError):
        reproduce_example("1.1")
    with pytest.raises(ValueError):
        reproduce_example("example-4.5")  # the report's id is no alias


@pytest.mark.parametrize("example", sorted(lab.EXAMPLES))
def test_example_witnesses_are_search_records(example):
    # what a search would have written: the record re-validates, and its
    # violation is the one the remark's conclusion reports
    witness = lab.EXAMPLES[example]["witness"]
    claim = lab.SEARCHES[witness["claim"]]
    inputs = [lab._decode(name, witness[name]) for name in claim.inputs]
    assert validate_witness(witness)
    assert claim.conclusion(*inputs) == (False, witness["violation"])
    # the published pair breaks its inequality, so reading it again checks one
    _, _, lhs, rhs = lab.EXAMPLES[example]["published"]["pair"]
    assert F(lhs) < F(rhs)


@pytest.mark.parametrize("example, key, value", [
    ("4.5", "grades", {"a": "1/5"}),
    ("4.5", "pair", ("a", "b", "3/10", "1/5")),
    ("4.5", "pair", ("a", "c", "3/10", "2/5")),
    ("4.10", "grades", {"3": "2/5", "2": "1/5", "1": "1/5"}),
    ("4.10", "quotient", "lhs = 1/10 < rhs = 1/5 at (3, 2, q)"),
    ("4.10", "pair", ("3", "2", "1/5", "1/5")),
], ids=["4.5-grades", "4.5-pair-value", "4.5-pair-elements", "4.10-grades", "4.10-quotient",
        "4.10-pair"])
def test_reproduce_example_rejects_a_diverging_published_value(monkeypatch, example, key, value):
    monkeypatch.setitem(lab.EXAMPLES[example]["published"], key, value)
    with pytest.raises(ReproductionError, match=f"published {key} diverged"):
        reproduce_example(example)


def test_reproduce_example_rejects_a_stale_witness_or_control(monkeypatch):
    row = lab.EXAMPLES["4.10"]
    # at alpha = 1 the 4.5 table restricts to itself, no subgroup: no hypothesis
    monkeypatch.setitem(lab.EXAMPLES["4.5"]["witness"], "alpha", "1")
    with pytest.raises(ReproductionError, match="R4.3 witness does not re-validate"):
        reproduce_example("4.5")
    # the union of sigma and theta is no subgroup: the control fails
    monkeypatch.setitem(row, "control", dict(row["control"], sigma=row["witness"]["theta"]))
    with pytest.raises(ReproductionError, match="R4.9 control does not hold"):
        reproduce_example("4.10")
    # nor does one whose hypothesis fails: this pi is no subgroup at alpha = 1
    pi = lab._one_label("cyclic12", {x: "1/5" if x == 1 else "0" for x in range(12)})
    monkeypatch.setitem(row, "control", dict(row["control"], sigma=pi))
    with pytest.raises(ReproductionError, match="R4.9 control does not hold"):
        reproduce_example("4.10")


def test_example_4_10_values_match_by_hand():
    row = lab.EXAMPLES["4.10"]
    theta, sigma = (lab._decode(name, row["witness"][name]) for name in ("theta", "sigma"))
    pi = lab._decode("sigma", row["control"]["sigma"])  # the control is (sigma, pi)
    assert theta.grade(0, 0) == F(2, 5) and theta.grade(6, 0) == F(2, 5)
    assert theta.grade(4, 0) == F(0)
    assert sigma.grade(2, 0) == F(1, 5) and sigma.grade(5, 0) == F(1, 10)
    assert pi.grade(10, 0) == F(1) and pi.grade(7, 0) == F(0)


def test_p4_7_translation_failure_is_materialized_and_replays():
    # feed a hand-built failing input through the shared conclusion check
    from qfuzzy.lab import _check_p4_7, _encode

    g = standard_group("cyclic4")
    theta = make_qfuzzy(g, Q, [[F(1, 2)], [F(1, 2)], [F(1, 2)], [F(1, 10)]])
    phi = alpha_restrict(theta, F(1))
    assert not check_alpha_subgroup(phi).verdict  # not a subgroup, so P4.7 can fail
    ok, detail = _check_p4_7(phi)
    assert not ok and "at (" in detail
    record = {"claim": "P4.7", "phi": _encode("phi", phi), "violation": detail}
    assert replay_failure(record)


# --- replay honours the hypotheses the audit filters on ------------------------


def restricted(group_name, grades, alpha=F(1)):
    group = standard_group(group_name)
    return alpha_restrict(make_qfuzzy(group, Q, [[g] for g in grades]), alpha)


def first_map(source, target, injective=None):
    # the first anti-homomorphism, optionally with the given injectivity
    maps = enumerate_maps(standard_group(source), standard_group(target), ANTI_HOMOMORPHISM)
    return next(f for f in maps if injective is None or f.is_injective == injective)


def record(claim, f=None, **inputs):
    rec = {name: lab._encode(name, value) for name, value in inputs.items()}
    if f is not None:
        rec["map"] = lab._encode("map", f)
    return {"claim": claim, **rec, "violation": "synthetic"}


def test_replay_p4_15_needs_a_subgroup_product():
    phi = restricted("cyclic2", [F(1, 10), F(1, 2)])
    psi = restricted("cyclic3", [F(1, 2)] * 3)
    assert not lab._product_is_subgroup(phi, psi)
    assert lab._dominates_identity(psi, phi)
    assert lab._check_p4_15(phi, psi)[0] is False  # case (ii) fails on its own
    assert not replay_failure(record("P4.15", phi=phi, psi=psi))


def test_replay_r4_16_needs_a_subgroup_product():
    phi = restricted("cyclic2", [F(1, 10), F(1, 2)])
    psi = restricted("cyclic3", [F(1, 10), F(1, 2), F(1, 2)])
    assert not lab._product_is_subgroup(phi, psi)
    assert lab._check_r4_16(phi, psi)[0] is False  # neither factor is a subgroup
    assert not replay_failure(record("R4.16", phi=phi, psi=psi))


def test_replay_p5_7_needs_an_abelian_kernel_and_a_positive_identity():
    # a constant on symmetric3: its kernel, and its image's, is not abelian
    phi = restricted("symmetric3", [F(1, 2)] * 6)
    f = first_map("symmetric3", "symmetric3", injective=True)
    assert lab._positive_at_identity(phi) and not lab._all_abelian(phi)
    assert lab._check_p5_7(f, phi)[0] is False
    assert not replay_failure(record("P5.7", f, phi=phi))
    # all zero: the image's kernel is the whole of symmetric3
    phi = restricted("cyclic2", [F(0), F(0)])
    f = first_map("cyclic2", "symmetric3")
    assert lab._all_abelian(phi) and not lab._positive_at_identity(phi)
    assert lab._check_p5_7(f, phi)[0] is False
    assert not replay_failure(record("P5.7", f, phi=phi))


def test_replay_p5_8_needs_an_abelian_kernel_and_an_injective_map():
    psi = restricted("symmetric3", [F(1, 2)] * 6)
    f = first_map("symmetric3", "symmetric3", injective=True)
    assert not lab._all_abelian(psi)
    assert lab._check_p5_8(f, psi)[0] is False
    assert not replay_failure(record("P5.8", f, psi=psi))
    # a non-injective map gives a literal finding, not a failure
    psi = restricted("cyclic2", [F(1, 2), F(1, 2)])
    f = first_map("symmetric3", "cyclic2", injective=False)
    assert lab._all_abelian(psi)
    ok, detail, (held, violation) = lab._check_p5_8(f, psi)
    assert ok and held is False
    assert not replay_failure(record("P5.8", f, psi=psi))


def test_replay_p3_4_record_of_restrictions(monkeypatch):
    # an image that ignores the restriction breaks commutation: the audit
    # records phi and psi, and the record fails again only while it is broken
    real = lab.image_subset
    monkeypatch.setattr(lab, "image_subset", lambda f, subset: real(f, subset.base or subset))
    config = AuditConfig(trials=5, map_pairs=(("cyclic2", "cyclic4"),))
    failures = audit({"P3.4"}, config)[0].failures
    assert failures and all(replay_failure(r) for r in failures)
    rec = failures[0]
    assert list(rec) == ["claim", "carrier", "trial", "phi", "psi", "map", "violation"]
    assert rec["violation"] == "image does not commute with restriction"
    monkeypatch.undo()
    assert not any(replay_failure(r) for r in failures)


def test_single_kind_claims_judge_every_enumerated_map():
    # one map kind enumerates each image array once, so judging the first
    # map per image array judges every map
    config = AuditConfig()
    single = [c for c in CLAIM_ORDER if len(lab.CLAIMS[c].map_kinds) == 1]
    assert single == ["P5.2", "P5.4", "P5.7", "P5.8", "P5.10", "P5.11"]
    for prop_id in single:
        for left, right in config.map_pairs:
            maps, evaluated = lab._claim_maps(
                standard_group(left), standard_group(right), lab.CLAIMS[prop_id].map_kinds,
            )
            assert evaluated == maps


def test_audit_refuses_a_map_source_above_the_guard():
    # the guard is enumerate_maps' default, not a config field; the config
    # still reads it as `max_source` for the benchmark's cold set-up
    assert AuditConfig().max_source == MAX_SOURCE == 8
    config = AuditConfig(map_pairs=(("cyclic9", "cyclic2"),))
    with pytest.raises(FeasibilityError, match=r"enumerate_maps guard: \|source\| = 9 > 8"):
        audit({"P5.2"}, config)


def zeroed_on(monkeypatch, operation, group_name):
    # the level-set inclusion always holds, so replay is shown failing it by
    # zeroing every grade of the lab's image or restricted preimage on one
    # group: the pushed or pulled grades then escape it.  P5.11 pulls psi back
    # through `preimage_subset` itself, so its test zeroes only the claim's
    # preimage, `_preimage_alpha`
    real = getattr(lab, operation)

    def zeroed(f, subset):
        out = real(f, subset)
        if out.group.name != group_name:
            return out
        zeros = tuple((0,) * len(column) for column in out.columns)
        return QFuzzySubset(out.group, out.q_labels, zeros, out.den)

    monkeypatch.setattr(lab, operation, zeroed)


def test_replay_p5_10_needs_cyclic_level_sets(monkeypatch):
    zeroed_on(monkeypatch, "image_subset", "cyclic2")
    cyclic = restricted("cyclic4", [F(1, 2)] * 4)
    assert replay_failure(record("P5.10", first_map("cyclic4", "cyclic2"), phi=cyclic))
    klein = restricted("klein4", [F(1, 2)] * 4)
    f = first_map("klein4", "cyclic2")
    assert not lab._all_cyclic(klein)
    assert lab._check_p5_10(f, klein)[0] is False
    assert not replay_failure(record("P5.10", f, phi=klein))


def test_replay_p5_11_needs_cyclic_level_sets(monkeypatch):
    zeroed_on(monkeypatch, "_preimage_alpha", "cyclic2")
    cyclic = restricted("cyclic4", [F(1, 2)] * 4)
    assert replay_failure(record("P5.11", first_map("cyclic2", "cyclic4"), psi=cyclic))
    klein = restricted("klein4", [F(1, 2)] * 4)
    f = first_map("cyclic2", "klein4")
    assert not lab._all_cyclic(klein)
    assert lab._check_p5_11(f, klein)[0] is False
    assert not replay_failure(record("P5.11", f, psi=klein))


def test_replay_of_a_search_record_and_of_an_unknown_claim():
    no_witness = {"claim": "R4.9", "violation": "no witness found in the bounded search space"}
    assert not replay_failure(no_witness)
    with pytest.raises(ValueError, match="no replay rule"):
        replay_failure({"claim": "P9.9"})


# --- the payload codec ------------------------------------------------------------


@pytest.mark.parametrize("name", ["cyclic2", "cyclic6", "klein4", "symmetric3", "quaternion8"])
def test_codec_round_trips_every_input_kind(name):
    group = standard_group(name)
    pool = AuditConfig().grade_pool
    rng = random.Random(name)

    def round_trip(input_name, value):
        payload = json.loads(json.dumps(lab._encode(input_name, value)))
        return lab._decode(input_name, payload)

    for q_labels in (Q, ("q1", "q2")):
        theta = random_qfuzzy(group, q_labels, rng, pool)
        sigma = random_qfuzzy_subgroup(group, q_labels, rng, pool)
        for value in (theta, sigma):
            assert round_trip("theta", value) == value
            assert round_trip("sigma", value) == value
        for alpha in pool:
            assert round_trip("alpha", alpha) == alpha
            for value in (alpha_restrict(theta, alpha), alpha_restrict(sigma, alpha)):
                assert round_trip("phi", value) == value
                assert round_trip("psi", value) == value
    for kind in (HOMOMORPHISM, ANTI_HOMOMORPHISM):
        for target in ("cyclic2", "symmetric3"):
            maps = enumerate_maps(group, standard_group(target), kind)
            assert maps
            for f in maps:
                assert round_trip("map", f) == f
