"""Acceptance gate: one test per criterion, each emitting a pass/fail line.

The full default audit (catalog x 200 trials, seed 7) is executed twice by a
module-scoped fixture; criteria 3, 4, and 7 read those shared runs.  Criterion
7 has a second test: the first run must render the behaviour fingerprint
recorded in `perfbench/digests.json`.
"""
import hashlib
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from fraction_oracle import achieved_grades, compose_with_inversion, indicator
from qfuzzy.checks import check_alpha_subgroup, check_qfuzzy_subgroup
from qfuzzy.fuzzy import (
    alpha_restrict,
    complement,
    level_set,
    make_qfuzzy,
    union,
)
from qfuzzy.groups import (
    ANTI_HOMOMORPHISM,
    HOMOMORPHISM,
    all_subgroups,
    analyze_subset,
    enumerate_maps,
    standard_group,
)
from qfuzzy.lab import (
    CLAIM_ORDER,
    DEFAULT_CATALOG,
    DEFAULT_POOL,
    EXAMPLES,
    AuditConfig,
    _decode,
    audit,
    random_qfuzzy_subgroup,
    reproduce_example,
    search_counterexample,
    validate_witness,
)
from qfuzzy.reports import render_structured

F = Fraction
Q = ("q",)
# the benchmark's recorded digests; "default-audit" is the behaviour fingerprint
DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"


def _verdict(number: int, ok: bool, detail: str):
    print(f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def default_audit_runs():
    config = AuditConfig()  # trials=200, seed=7, default catalog and pool
    first = audit(set(CLAIM_ORDER), config)
    second = audit(set(CLAIM_ORDER), config)
    return first, second


def test_criterion_1_example_4_5_reproduction():
    report = reproduce_example("4.5")
    g = standard_group("klein4")
    theta = make_qfuzzy(g, Q, [[F(1, 5)], [F(2, 5)], [F(2, 5)], [F(3, 10)]])
    base = check_qfuzzy_subgroup(theta)
    a, b = g.index("a"), g.index("b")
    witness_grades = (
        theta.grade(g.table[a][b], 0) == F(3, 10)
        and min(theta.grade(a, 0), theta.grade(b, 0)) == F(2, 5)
    )
    restricted = check_alpha_subgroup(alpha_restrict(theta, F(9, 100)))
    ok = (
        report.status == "verified-exhaustive"
        and not base.verdict
        and witness_grades
        and restricted.verdict
    )
    _verdict(1, ok, "klein4 base check false with 3/10 < 2/5; alpha=9/100 check true")


def test_criterion_2_example_4_10_reproduction():
    report = reproduce_example("4.10")
    row = EXAMPLES["4.10"]
    theta, sigma = (_decode(name, row["witness"][name]) for name in ("theta", "sigma"))
    pi = _decode("sigma", row["control"]["sigma"])  # the control is (sigma, pi)
    u = union(theta, sigma)
    exact = (
        u.grade(1, 0) == F(1, 10)
        and min(u.grade(3, 0), u.grade(2, 0)) == F(2, 10)
        and u.grade(1, 0) < F(2, 10)
    )
    individual = all(
        check_alpha_subgroup(alpha_restrict(s, F(1))).verdict
        for s in (theta, sigma, pi)
    )
    union_fails = not check_alpha_subgroup(alpha_restrict(u, F(1))).verdict
    sigma_pi_passes = check_alpha_subgroup(alpha_restrict(union(sigma, pi), F(1))).verdict
    ok = (
        report.status == "verified-exhaustive"
        and exact
        and individual
        and union_fails
        and sigma_pi_passes
    )
    _verdict(2, ok, "cyclic12 transplant: (theta|sigma)(1) = 1/10 < 2/10; sigma|pi passes")


VERIFIED_PROPS = (
    "P3.3", "P3.4", "P4.2", "P4.6", "P4.7", "P4.8", "P4.12", "P4.14",
    "P4.15", "P5.2", "P5.4", "P5.7", "P5.8",
)


def test_criterion_3_proposition_audits_zero_failures(default_audit_runs):
    first, _ = default_audit_runs
    config = AuditConfig()
    problems = []
    seen = set()
    for report in first:
        if report.prop_id not in VERIFIED_PROPS:
            continue
        seen.add(report.prop_id)
        if report.failures or not report.status.startswith("verified"):
            problems.append((report.prop_id, report.carrier, report.failures[:1]))
    missing = set(VERIFIED_PROPS) - seen
    section5 = [r for r in first if r.prop_id in ("P5.2", "P5.4", "P5.7", "P5.8")]
    quantified = all("anti-homomorphisms" in r.notes for r in section5)
    ok = not problems and not missing and quantified and config.trials >= 200
    _verdict(
        3,
        ok,
        f"13 propositions, {config.trials} trials/(prop, carrier), seed "
        f"{config.seed}, zero failures; section-5 audits quantified over all "
        f"enumerated anti-homomorphisms" + (f"; problems: {problems[:3]}" if problems else ""),
    )


def test_criterion_4_p4_11_proof_inequalities_and_literal_search(default_audit_runs):
    first, _ = default_audit_runs
    p411 = [r for r in first if r.prop_id == "P4.11"]
    anti_all_pass = p411 and all(
        r.passes == r.trials and not r.failures for r in p411
    )
    recorded = all("literal min-form claim" in r.notes for r in p411)
    search_cfg = AuditConfig(catalog=("cyclic2",), grade_pool=(F(3, 10), F(5, 10)))
    witness = search_counterexample("P4.11-literal", search_cfg)
    finding = (
        f"literal counterexample found: theta = {witness['theta']['grades']}, "
        f"alpha = {witness['alpha']}"
        if witness is not None
        else "no literal counterexample in the exhaustive search space"
    )
    witness_ok = witness is None or validate_witness(witness)
    ok = bool(anti_all_pass and recorded and witness_ok)
    _verdict(4, ok, f"anti-fuzzy inequalities passed 100% of trials; {finding}")


def test_criterion_5_remark_witnesses_revalidate():
    r43 = search_counterexample("R4.3")
    r49 = search_counterexample("R4.9")
    ok = (
        r43 is not None
        and validate_witness(r43)
        and r49 is not None
        and validate_witness(r49)
    )
    _verdict(
        5,
        ok,
        "R4.3 and R4.9 witnesses exist and re-validate through the "
        "subgroup-check module",
    )


def test_criterion_6_invariant_suites_exhaustive():
    pool = DEFAULT_POOL
    ok = True
    # min/max lattice laws over every pool triple
    for a, b, c in itertools.product(pool, repeat=3):
        ok &= min(a, b) == min(b, a) and max(a, b) == max(b, a)
        ok &= min(min(a, b), c) == min(a, min(b, c))
        ok &= max(max(a, b), c) == max(a, max(b, c))
        ok &= max(a, min(a, b)) == a and min(a, max(a, b)) == a
        ok &= min(a, max(b, c)) == max(min(a, b), min(a, c))
    # complement involution and restriction idempotence/monotonicity per grade
    for g in pool:
        ok &= 1 - (1 - g) == g
        for alpha in pool:
            ok &= min(min(g, alpha), alpha) == min(g, alpha)
        for lo, hi in itertools.combinations(pool, 2):
            ok &= min(g, lo) <= min(g, hi)
    # per-group invariants on every verified indicator subgroup of the catalog
    checked = 0
    for name in DEFAULT_CATALOG:
        group = standard_group(name)
        for sub in all_subgroups(group):
            for lo, hi in itertools.combinations(pool, 2):
                theta = indicator(group, Q, sub, inside=hi, outside=lo)
                ok &= complement(complement(theta)) == theta
                for alpha in (F(0), lo, hi, F(1)):
                    phi = alpha_restrict(theta, alpha)
                    assert check_alpha_subgroup(phi).verdict
                    checked += 1
                    column = [phi.grade(x, 0) for x in range(group.order)]
                    ok &= column[group.identity] == max(column)
                    ok &= all(
                        column[group.inverses[x]] == column[x] for x in range(group.order)
                    )
                    cuts = achieved_grades(phi, "q")
                    for c_lo, c_hi in zip(cuts, cuts[1:]):
                        ok &= level_set(phi, c_hi, "q") <= level_set(phi, c_lo, "q")
                    for cut in cuts:
                        members = level_set(phi, cut, "q")
                        if members:
                            ok &= analyze_subset(group, members).is_subgroup
    _verdict(
        6,
        bool(ok),
        f"lattice/complement/restriction/level-set invariants hold; "
        f"{checked} verified subgroups inspected across the catalog",
    )


def test_criterion_7_determinism_byte_identical(default_audit_runs):
    first, second = default_audit_runs
    a = render_structured(first)
    b = render_structured(second)
    ok = a == b
    _verdict(
        7,
        ok,
        f"two audit --all --trials 200 --seed 7 runs render to identical "
        f"{len(a)}-byte structured reports",
    )


def test_criterion_7_default_audit_renders_recorded_fingerprint(default_audit_runs):
    first, _ = default_audit_runs
    digest = hashlib.sha256(render_structured(first).encode()).hexdigest()
    recorded = json.loads(DIGESTS.read_text())["default-audit"]["sha256"]
    _verdict(
        7,
        digest == recorded,
        f"default audit renders sha256 {digest[:12]}..., recorded {recorded[:12]}...",
    )


def test_criterion_8_oracle_cross_checks():
    # anti-homomorphism enumeration equals homomorphism-compose-inversion
    small_sources = [n for n in DEFAULT_CATALOG if standard_group(n).order <= 6]
    pairs_checked = 0
    enumeration_ok = True
    for src_name in small_sources:
        src = standard_group(src_name)
        for tgt_name in DEFAULT_CATALOG:
            tgt = standard_group(tgt_name)
            direct = {m.images for m in enumerate_maps(src, tgt, ANTI_HOMOMORPHISM)}
            via_inv = {
                compose_with_inversion(m).images
                for m in enumerate_maps(src, tgt, HOMOMORPHISM)
            }
            enumeration_ok &= direct == via_inv
            pairs_checked += 1
    # generator soundness: >= 1000 generations all pass the independent check
    generations = 0
    generator_ok = True
    while generations < 1000:
        for name in DEFAULT_CATALOG:
            group = standard_group(name)
            rng = random.Random(f"acceptance|{name}|{generations}")
            theta = random_qfuzzy_subgroup(group, Q, rng, DEFAULT_POOL)
            generator_ok &= check_qfuzzy_subgroup(theta).verdict
            generations += 1
    ok = enumeration_ok and generator_ok
    _verdict(
        8,
        ok,
        f"anti-map enumeration matched inversion construction on "
        f"{pairs_checked} catalog pairs; {generations} generator outputs "
        f"all re-verified",
    )
