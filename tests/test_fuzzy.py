from fractions import Fraction

import pytest

from qfuzzy import fuzzy
from qfuzzy.grades import GradeError, format_grade, parse_grade
from qfuzzy.groups import HOMOMORPHISM, enumerate_maps, make_map, standard_group
from qfuzzy.lab import _image_alpha, _preimage_alpha
from qfuzzy.fuzzy import (
    CarrierError,
    InvariantError,
    alpha_restrict,
    achieved_grades,
    combine,
    compare,
    complement,
    constant_qfuzzy,
    format_fuzzy_file,
    image_subset,
    indicator,
    level_set,
    make_qfuzzy,
    parse_fuzzy_file,
    preimage_subset,
    product,
    QFuzzySubset,
    union,
)

F = Fraction
Q = ("q",)


def klein_theta():
    # e: 0.2, a: 0.4, b: 0.4, c: 0.3
    g = standard_group("klein4")
    return make_qfuzzy(g, Q, [[F(1, 5)], [F(2, 5)], [F(2, 5)], [F(3, 10)]])


def test_parse_grade_exact():
    assert parse_grade("0.4") == F(2, 5)
    assert parse_grade("2/5") == F(2, 5)
    assert parse_grade("1") == 1
    with pytest.raises(GradeError):
        parse_grade("1.5")
    with pytest.raises(GradeError):
        parse_grade("-0.1")


def test_grade_rendering():
    assert format_grade(F(2, 5)) == "2/5"
    assert format_grade(F(0)) == "0"


def test_make_qfuzzy_validation():
    g = standard_group("klein4")
    theta = klein_theta()
    assert theta.grade(0, 0) == F(1, 5)
    assert constant_qfuzzy(g, Q, F(0)).grades == ((F(0),),) * 4
    with pytest.raises(GradeError):
        make_qfuzzy(g, Q, [[F(3, 2)], [F(0)], [F(0)], [F(0)]])
    with pytest.raises(GradeError):
        make_qfuzzy(g, Q, [[F(0)], [F(0)]])
    with pytest.raises(GradeError):
        make_qfuzzy(g, Q, [[0.4], [F(0)], [F(0)], [F(0)]])


def test_alpha_restrict_endpoints():
    theta = klein_theta()
    assert alpha_restrict(theta, F(1)).grades == theta.grades
    assert alpha_restrict(theta, F(0)).grades == ((F(0),),) * 4
    # all base grades exceed 0.09, so the restriction is constant 0.09
    phi = alpha_restrict(theta, F(9, 100))
    assert phi.grades == ((F(9, 100),),) * 4


def test_combine_and_compare():
    g = standard_group("cyclic4")
    a = make_qfuzzy(g, Q, [[F(2, 5)], [F(1, 10)], [F(1, 2)], [F(0)]])
    b = make_qfuzzy(g, Q, [[F(1, 5)], [F(3, 10)], [F(1, 2)], [F(1)]])
    u = combine("union", a, b)
    assert u.grades[0][0] == F(2, 5)
    assert u.grades[1][0] == F(3, 10)
    i = combine("intersection", a, b)
    assert compare("subset", i, a) == (True, None)
    assert compare("subset", a, u) == (True, None)
    assert compare("equal", a, a) == (True, None)
    ok, witness = compare("subset", b, a)
    assert not ok and witness == ("1", "q")
    zero = constant_qfuzzy(g, Q, F(0))
    assert combine("union", a, zero) == a
    assert combine("intersection", a, a) == a


def test_carrier_mismatch_rejected():
    a = constant_qfuzzy(standard_group("cyclic2"), Q, F(0))
    b = constant_qfuzzy(standard_group("cyclic3"), Q, F(0))
    with pytest.raises(CarrierError):
        union(a, b)
    c = constant_qfuzzy(standard_group("cyclic2"), ("p",), F(0))
    with pytest.raises(CarrierError):
        union(a, c)


def test_complement():
    theta = klein_theta()
    comp = complement(theta)
    assert [row[0] for row in comp.grades] == [F(4, 5), F(3, 5), F(3, 5), F(7, 10)]
    assert complement(comp) == theta
    zero = constant_qfuzzy(theta.group, Q, F(0))
    assert complement(zero) == constant_qfuzzy(theta.group, Q, F(1))


def test_product_grades():
    c2 = standard_group("cyclic2")
    phi = alpha_restrict(make_qfuzzy(c2, Q, [[F(1, 2)], [F(1, 4)]]), F(1))
    psi = alpha_restrict(make_qfuzzy(c2, Q, [[F(3, 10)], [F(1, 5)]]), F(1))
    prod = product(phi, psi)
    assert prod.group.order == 4
    # grade at ((e, e'), q) = min(0.5, 0.3) = 0.3
    assert prod.grade(0, 0) == F(3, 10)
    # zero factor annihilates its row
    phi0 = alpha_restrict(make_qfuzzy(c2, Q, [[F(0)], [F(1, 4)]]), F(1))
    prod0 = product(phi0, psi)
    assert prod0.grade(0, 0) == F(0) and prod0.grade(1, 0) == F(0)


def test_product_with_full_trivial_factor_keeps_grades():
    c2 = standard_group("cyclic2")
    trivial = standard_group("trivial")
    phi = alpha_restrict(make_qfuzzy(c2, Q, [[F(1, 2)], [F(1, 4)]]), F(1))
    full = alpha_restrict(constant_qfuzzy(trivial, Q, F(1)), F(1))
    prod = product(phi, full)
    assert [row[0] for row in prod.grades] == [F(1, 2), F(1, 4)]


def test_product_requires_restricted_factors():
    c2 = standard_group("cyclic2")
    theta = constant_qfuzzy(c2, Q, F(1, 2))
    phi = alpha_restrict(theta, F(1))
    for a, b in ((theta, phi), (phi, theta), (theta, theta)):
        with pytest.raises(CarrierError, match="restrictions"):
            product(a, b)


def test_restriction_equality_compares_base_and_alpha():
    theta = klein_theta()  # every grade is at most 2/5
    phi = alpha_restrict(theta, F(1))
    assert phi == alpha_restrict(klein_theta(), F(1))
    assert phi.base == theta and phi.alpha == F(1)
    # the same grades, but a restriction is not its base, nor one at another alpha
    assert phi.same_grades(theta) and phi != theta and theta != phi
    other = alpha_restrict(theta, F(1, 2))
    assert phi.same_grades(other) and phi != other
    assert theta.base is None and theta.alpha is None


def test_product_requires_shared_alpha():
    c2 = standard_group("cyclic2")
    phi = alpha_restrict(constant_qfuzzy(c2, Q, F(1)), F(1, 2))
    psi = alpha_restrict(constant_qfuzzy(c2, Q, F(1)), F(1, 3))
    with pytest.raises(CarrierError):
        product(phi, psi)


def test_image_identity_and_constant_maps():
    g = standard_group("klein4")
    theta = klein_theta()
    phi = alpha_restrict(theta, F(1, 2))
    ident = make_map(g, g, range(4), HOMOMORPHISM)
    assert _image_alpha(ident, phi).grades == phi.grades
    assert _preimage_alpha(ident, phi).grades == phi.grades
    trivial_target = standard_group("trivial")
    collapse = make_map(g, trivial_target, [0, 0, 0, 0], HOMOMORPHISM)
    img = _image_alpha(collapse, phi)
    assert img.grade(0, 0) == F(2, 5)  # max over all of klein4
    pre = _preimage_alpha(
        collapse, alpha_restrict(constant_qfuzzy(trivial_target, Q, F(1, 3)), F(1))
    )
    assert all(row[0] == F(1, 3) for row in pre.grades)


def test_image_empty_fiber_grade_zero():
    c2 = standard_group("cyclic2")
    c4 = standard_group("cyclic4")
    embed = make_map(c2, c4, [0, 2], HOMOMORPHISM)
    theta = make_qfuzzy(c2, Q, [[F(1, 2)], [F(1, 4)]])
    img = image_subset(embed, theta)
    assert [row[0] for row in img.grades] == [F(1, 2), F(0), F(1, 4), F(0)]


def test_preimage_of_image_contains_original():
    c2 = standard_group("cyclic2")
    grids = [
        [[F(0)], [F(0)]],
        [[F(1, 2)], [F(1, 5)]],
        [[F(1, 5)], [F(1, 2)]],
        [[F(1)], [F(1)]],
    ]
    for m in enumerate_maps(c2, c2, HOMOMORPHISM):
        for rows in grids:
            theta = make_qfuzzy(c2, Q, rows)
            back = preimage_subset(m, image_subset(m, theta))
            assert compare("subset", theta, back) == (True, None)


def test_broken_restriction_raises_invariant_error(monkeypatch):
    # The re-checks must raise, not assert: `python -O` strips asserts.
    theta = klein_theta()
    phi = alpha_restrict(theta, F(1, 5))
    monkeypatch.setattr(
        fuzzy, "alpha_restrict", lambda t, a: QFuzzySubset(t.group, t.q_labels, t.columns, t.dens, t, a)
    )
    with pytest.raises(InvariantError, match="product"):
        product(phi, phi)


def test_level_sets():
    theta = klein_theta()
    phi = alpha_restrict(theta, F(9, 100))
    g = theta.group
    assert level_set(phi, F(0), "q") == frozenset(range(4))
    assert level_set(phi, F(1), "q") == frozenset()
    assert level_set(phi, F(9, 100), "q") == frozenset(range(4))
    assert achieved_grades(phi, "q") == (F(0), F(9, 100))
    with pytest.raises(CarrierError):
        level_set(phi, F(0), "nope")


def test_level_sets_antitone():
    theta = klein_theta()
    phi = alpha_restrict(theta, F(1))
    cuts = achieved_grades(phi, "q")
    for lo, hi in zip(cuts, cuts[1:]):
        assert level_set(phi, hi, "q") <= level_set(phi, lo, "q")


def test_fuzzy_file_round_trip():
    theta = klein_theta()
    text = format_fuzzy_file(theta)
    assert parse_fuzzy_file(text) == theta


def test_fuzzy_file_accepts_decimal_and_rational_literals():
    text = (
        "group: klein4\n"
        "q_labels: q\n"
        "grades:\n"
        "e q 0.2\n"
        "a q 0.4\n"
        "b q 2/5\n"
        "c q 0.3\n"
    )
    assert parse_fuzzy_file(text) == klein_theta()


def test_fuzzy_file_errors():
    from qfuzzy.groups import FileFormatError

    with pytest.raises(FileFormatError, match="line 4"):
        parse_fuzzy_file("group: cyclic2\nq_labels: q\ngrades:\n0 q 1.5\n1 q 0\n")
    with pytest.raises(FileFormatError, match="missing grade"):
        parse_fuzzy_file("group: cyclic2\nq_labels: q\ngrades:\n0 q 1\n")
