import itertools
from fractions import Fraction

import fraction_oracle as oracle
from fraction_oracle import constant_qfuzzy, indicator
from qfuzzy.groups import all_subgroups, analyze_subset, standard_group
from qfuzzy.fuzzy import (
    alpha_restrict,
    complement,
    make_qfuzzy,
)
from qfuzzy.checks import (
    check_alpha_subgroup,
    check_anti_subgroup,
    check_qfuzzy_subgroup,
    classify_abelian,
    classify_cyclic,
    kernel_set,
)

F = Fraction
Q = ("q",)


def klein_theta():
    g = standard_group("klein4")
    return make_qfuzzy(g, Q, [[F(1, 5)], [F(2, 5)], [F(2, 5)], [F(3, 10)]])


def test_klein_theta_not_qfuzzy_subgroup():
    report = check_qfuzzy_subgroup(klein_theta())
    assert not report.verdict
    assert not report.conditions["closure"].ok
    assert report.witness is not None
    # the published violation: grade(ab) = grade(c) = 0.3 < min(0.4, 0.4)
    theta = klein_theta()
    g = theta.group
    a, b = g.index("a"), g.index("b")
    assert theta.grade(g.table[a][b], 0) == F(3, 10)
    assert min(theta.grade(a, 0), theta.grade(b, 0)) == F(2, 5)


def test_constant_subset_is_subgroup():
    for name in ["klein4", "symmetric3", "cyclic5"]:
        theta = constant_qfuzzy(standard_group(name), Q, F(1, 3))
        assert check_qfuzzy_subgroup(theta).verdict
        assert check_alpha_subgroup(alpha_restrict(theta, F(1, 2))).verdict


def test_crisp_subgroup_indicators_are_subgroups():
    # brute force over every subgroup of klein4 and cyclic6
    for name in ["klein4", "cyclic6"]:
        g = standard_group(name)
        for sub in all_subgroups(g):
            theta = indicator(g, Q, sub)
            assert check_qfuzzy_subgroup(theta).verdict
        # non-subgroup indicator fails
        bad = indicator(g, Q, {1})
        assert not check_qfuzzy_subgroup(bad).verdict


def test_klein_theta_restricted_at_009_is_subgroup():
    phi = alpha_restrict(klein_theta(), F(9, 100))
    report = check_alpha_subgroup(phi)
    assert report.verdict
    assert report.forms_agree
    assert report.conditions["quotient"].ok


def test_alpha_check_is_the_subgroup_check_plus_the_quotient_form(monkeypatch):
    from qfuzzy import checks

    g = standard_group("cyclic3")
    bad = make_qfuzzy(g, Q, [[F(1, 10)], [F(9, 10)], [F(9, 10)]])
    tables = [klein_theta(), bad, constant_qfuzzy(g, Q, F(1, 2))]
    expected = [check_qfuzzy_subgroup(alpha_restrict(t, F(1))) for t in tables]

    # a wrapper on the public subgroup check must not see the alpha check's scans
    def wrapped(theta):
        raise AssertionError("check_alpha_subgroup went through check_qfuzzy_subgroup")

    monkeypatch.setattr(checks, "check_qfuzzy_subgroup", wrapped)
    for theta, plain in zip(tables, expected):
        report = check_alpha_subgroup(alpha_restrict(theta, F(1)))
        assert report.verdict == plain.verdict and report.forms_agree
        assert list(report.conditions) == ["closure", "inverse", "quotient"]
        assert {k: report.conditions[k] for k in ("closure", "inverse")} == plain.conditions
        assert (report.witness, report.detail) == (plain.witness, plain.detail)


def test_alpha_subgroup_failure_witness_on_cyclic3():
    g = standard_group("cyclic3")
    theta = make_qfuzzy(g, Q, [[F(1, 10)], [F(9, 10)], [F(9, 10)]])
    report = check_alpha_subgroup(alpha_restrict(theta, F(1)))
    assert not report.verdict
    # first row-major closure violation: grade(1+1 = 2) is fine, grade(1+2 = 0) fails
    assert report.witness == ("1", "2", "q")
    assert "lhs = 1/10 < rhs = 9/10" in report.detail
    assert report.forms_agree


def test_two_condition_and_quotient_forms_agree_on_random_tables():
    import random

    rng = random.Random(42)
    pool = [F(0), F(1, 10), F(1, 5), F(2, 5), F(1, 2), F(1)]
    for name in ["cyclic4", "klein4", "symmetric3"]:
        g = standard_group(name)
        for _ in range(300):
            rows = [[rng.choice(pool)] for _ in range(g.order)]
            theta = make_qfuzzy(g, Q, rows)
            report = check_alpha_subgroup(alpha_restrict(theta, rng.choice(pool)))
            assert report.forms_agree


# every one-label table over THEOREM_POOL on these groups: 1 902 tables
THEOREM_GROUPS = tuple(f"cyclic{n}" for n in range(1, 7)) + ("klein4", "symmetric3")
THEOREM_POOL = (F(0), F(1, 2), F(1))


def every_table():
    for name in THEOREM_GROUPS:
        g = standard_group(name)
        for column in itertools.product(THEOREM_POOL, repeat=g.order):
            yield make_qfuzzy(g, Q, [[grade] for grade in column])


def test_closure_decides_the_subgroup_checks_on_every_small_table():
    # the checks scan the inverse condition only where the (anti-)closure
    # fails; the oracle scans both conditions on every table
    tables = closed = 0
    for theta in every_table():
        tables += 1
        plain, anti = oracle.check_qfuzzy_subgroup(theta), oracle.check_anti_subgroup(theta)
        assert check_qfuzzy_subgroup(theta) == plain
        assert check_anti_subgroup(theta) == anti
        for alpha in THEOREM_POOL:
            phi = alpha_restrict(theta, alpha)
            assert check_alpha_subgroup(phi) == oracle.check_alpha_subgroup(phi)
        # the theorem: the (anti-)closure implies the inverse condition
        for report, closure in ((plain, "closure"), (anti, "anti_closure")):
            if report.conditions[closure].ok:
                closed += 1
                assert report.conditions["inverse"].ok and report.verdict
    assert (tables, closed) == (1902, 170)


def test_a_closed_table_is_judged_without_the_inverse_scan(monkeypatch):
    from qfuzzy import checks

    def scanned(t):
        raise AssertionError("the inverse condition was scanned on a closed table")

    monkeypatch.setattr(checks, "_inverse_condition", scanned)
    g = standard_group("cyclic6")
    theta = indicator(g, Q, {0, 2, 4}, inside=F(1, 2), outside=F(1, 10))
    assert check_qfuzzy_subgroup(theta).verdict
    assert check_alpha_subgroup(alpha_restrict(theta, F(2, 5))).verdict
    assert check_anti_subgroup(complement(theta)).verdict


def test_anti_check_on_complements():
    phi = alpha_restrict(klein_theta(), F(9, 100))
    comp = complement(
        make_qfuzzy(phi.group, phi.q_labels, phi.grades)
    )
    report = check_anti_subgroup(alpha_restrict(comp, F(1)))
    assert report.verdict  # constant 0.91
    # complements of verified restricted subgroups satisfy the reversed bounds
    g = standard_group("cyclic6")
    theta = indicator(g, Q, {0, 2, 4}, inside=F(1, 2), outside=F(1, 10))
    phi = alpha_restrict(theta, F(2, 5))
    assert check_alpha_subgroup(phi).verdict
    comp = complement(make_qfuzzy(g, Q, phi.grades))
    assert check_anti_subgroup(alpha_restrict(comp, F(1))).verdict


def test_kernel_sets():
    g = standard_group("klein4")
    constant = alpha_restrict(constant_qfuzzy(g, Q, F(1, 2)), F(1))
    assert kernel_set(constant)["q"] == frozenset(range(4))
    phi = alpha_restrict(klein_theta(), F(9, 100))
    assert kernel_set(phi)["q"] == frozenset(range(4))
    sub = indicator(g, Q, {0, 1})
    phi = alpha_restrict(sub, F(1))
    assert kernel_set(phi)["q"] == frozenset({0, 1})


def test_identity_dominance_and_inverse_invariance_when_verified():
    # exhaustive over indicator subgroups of several groups
    for name in ["klein4", "cyclic6", "symmetric3", "quaternion8"]:
        g = standard_group(name)
        for sub in all_subgroups(g):
            phi = alpha_restrict(indicator(g, Q, sub, inside=F(2, 5), outside=F(1, 10)), F(3, 10))
            report = check_alpha_subgroup(phi)
            assert report.verdict
            column = [phi.grade(x, 0) for x in range(g.order)]
            assert column[g.identity] == max(column)
            assert all(column[g.inverses[x]] == column[x] for x in range(g.order))
            assert analyze_subset(g, kernel_set(phi)["q"]).is_subgroup


def test_translation_property_on_verified_subgroups():
    g = standard_group("dihedral4")
    for sub in all_subgroups(g):
        phi = alpha_restrict(indicator(g, Q, sub, inside=F(1, 2), outside=F(0)), F(1))
        assert check_alpha_subgroup(phi).verdict
        e = g.identity
        for x, y in itertools.product(range(g.order), repeat=2):
            if phi.grade(g.table[x][g.inverses[y]], 0) == phi.grade(e, 0):
                assert phi.grade(x, 0) == phi.grade(y, 0)


def test_classify_abelian():
    s3 = standard_group("symmetric3")
    constant = alpha_restrict(constant_qfuzzy(s3, Q, F(1, 2)), F(1))
    assert not classify_abelian(constant)["q"].verdict  # kernel is all of S3
    rotations = {0, 1, 2}  # e, r, rr
    phi = alpha_restrict(indicator(s3, Q, rotations), F(1))
    slice_q = classify_abelian(phi)["q"]
    assert slice_q.verdict and slice_q.kernel == frozenset(rotations)
    klein = standard_group("klein4")
    phi = alpha_restrict(indicator(klein, Q, {0, 1}), F(1))
    assert classify_abelian(phi)["q"].verdict


def test_classify_cyclic():
    c6 = standard_group("cyclic6")
    phi = alpha_restrict(indicator(c6, Q, {0, 2, 4}), F(1))
    slice_q = classify_cyclic(phi)["q"]
    assert slice_q.verdict
    assert {lv.members for lv in slice_q.levels if lv.members} == {
        frozenset({0, 2, 4}),
        frozenset(range(6)),
    }
    klein = standard_group("klein4")
    constant = alpha_restrict(constant_qfuzzy(klein, Q, F(1, 2)), F(1))
    assert not classify_cyclic(constant)["q"].verdict  # klein4 is not cyclic
    zero = alpha_restrict(constant_qfuzzy(c6, Q, F(0)), F(1))
    assert classify_cyclic(zero)["q"].verdict  # single level set, the whole group


def test_level_sets_of_verified_subgroups_are_subgroups():
    from fraction_oracle import achieved_grades
    from qfuzzy.fuzzy import level_set

    g = standard_group("cyclic6")
    theta = indicator(g, Q, {0, 3}, inside=F(2, 5), outside=F(1, 10))
    phi = alpha_restrict(theta, F(1, 2))
    assert check_alpha_subgroup(phi).verdict
    for cut in achieved_grades(phi, "q"):
        members = level_set(phi, cut, "q")
        if members:
            assert analyze_subset(g, members).is_subgroup
