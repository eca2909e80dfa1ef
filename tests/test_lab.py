import json
import random
from fractions import Fraction

import pytest

from qfuzzy import lab
from qfuzzy.checks import check_alpha_subgroup, check_qfuzzy_subgroup
from qfuzzy.fuzzy import alpha_restrict, make_qfuzzy
from qfuzzy.groups import (
    ANTI_HOMOMORPHISM,
    HOMOMORPHISM,
    enumerate_maps,
    is_injective,
    standard_group,
)
from qfuzzy.lab import (
    CLAIM_ORDER,
    EXPECTED_VERIFIED,
    RECORDED_CLAIMS,
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

F = Fraction
Q = ("q",)

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


def test_search_oracle_disagreement_is_loud(monkeypatch):
    # the level-set oracle only prefilters: a candidate it flags whose union
    # the subgroup check accepts is an error, not a skipped candidate
    monkeypatch.setattr(lab, "_is_fuzzy_subgroup_by_levels", lambda subgroups, column: False)
    with pytest.raises(lab.GeneratorSoundnessError):
        search_counterexample("R4.9", SMALL)


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


def test_example_4_10_values_match_by_hand():
    from qfuzzy.lab import example_4_10_subsets

    theta, sigma, pi = example_4_10_subsets()
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
    return next(f for f in maps if injective is None or is_injective(f) == injective)


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
    assert lab._check_p5_8(f, psi)[0] is False
    assert not replay_failure(record("P5.8", f, psi=psi))


def escaping_level_sets(monkeypatch, group_name):
    # the level-set inclusion always holds, so replay is shown failing it by
    # emptying the lab's level sets on one group
    real = lab.level_set

    def level(phi, cut, q):
        return frozenset() if phi.group.name == group_name else real(phi, cut, q)

    monkeypatch.setattr(lab, "level_set", level)


def test_replay_p5_10_needs_cyclic_level_sets(monkeypatch):
    escaping_level_sets(monkeypatch, "cyclic2")
    cyclic = restricted("cyclic4", [F(1, 2)] * 4)
    assert replay_failure(record("P5.10", first_map("cyclic4", "cyclic2"), phi=cyclic))
    klein = restricted("klein4", [F(1, 2)] * 4)
    f = first_map("klein4", "cyclic2")
    assert not lab._all_cyclic(klein)
    assert lab._check_p5_10(f, klein)[0] is False
    assert not replay_failure(record("P5.10", f, phi=klein))


def test_replay_p5_11_needs_cyclic_level_sets(monkeypatch):
    escaping_level_sets(monkeypatch, "cyclic2")
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
