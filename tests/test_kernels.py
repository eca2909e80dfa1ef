"""The integer kernels against the `Fraction` reference in `fraction_oracle`."""
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import fraction_oracle as oracle
from qfuzzy import lab
from qfuzzy.checks import (
    check_alpha_subgroup,
    check_anti_subgroup,
    check_qfuzzy_subgroup,
    kernel_set,
)
from qfuzzy.fuzzy import (
    achieved_grades,
    alpha_restrict,
    combine,
    compare,
    image_subset,
    level_set,
    make_qfuzzy,
    product,
)
from qfuzzy.grades import (
    GradeError,
    grade_le,
    greatest,
    sorted_grades,
    validate_grade,
)
from qfuzzy.groups import (
    ANTI_HOMOMORPHISM,
    HOMOMORPHISM,
    GroupError,
    analyze_subset,
    standard_group,
)
from qfuzzy.lab import DEFAULT_CATALOG, random_qfuzzy_subgroup

F = Fraction
# mixed denominators, so each column is scaled by a different common one
POOL = (F(0), F(1), F(1, 3), F(2, 7), F(9, 100), F(1, 2))
GROUPS = ("cyclic6", "symmetric3", "dihedral4", "cyclic2xcyclic4")

grades = st.sampled_from(POOL)


@st.composite
def tables(draw, group=None, q_labels=None):
    """A genuine Q-fuzzy subgroup with a few cells overwritten (possibly
    none), or a table of independent grades: the first violation then lands
    anywhere in the scan order, or nowhere."""
    if group is None:
        group = standard_group(draw(st.sampled_from(GROUPS)))
    if q_labels is None:
        q_labels = tuple(f"q{i}" for i in range(draw(st.integers(1, 3))))
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2**32)))
        theta = random_qfuzzy_subgroup(group, q_labels, rng, POOL)
        rows = [list(row) for row in theta.grades]
        for _ in range(draw(st.integers(0, 2))):
            x = draw(st.integers(0, group.order - 1))
            k = draw(st.integers(0, len(q_labels) - 1))
            rows[x][k] = draw(grades)
    else:
        rows = [[draw(grades) for _ in q_labels] for _ in range(group.order)]
    return make_qfuzzy(group, q_labels, rows)


@given(tables())
def test_qfuzzy_check_matches_fraction_oracle(theta):
    assert check_qfuzzy_subgroup(theta) == oracle.check_qfuzzy_subgroup(theta)


@given(tables(), grades)
def test_alpha_check_matches_fraction_oracle(theta, alpha):
    phi = alpha_restrict(theta, alpha)
    assert check_alpha_subgroup(phi) == oracle.check_alpha_subgroup(phi)


@given(tables(), grades)
def test_anti_check_matches_fraction_oracle(theta, alpha):
    phi = alpha_restrict(theta, alpha)
    assert check_anti_subgroup(phi) == oracle.check_anti_subgroup(phi)


@given(tables(), grades)
def test_alpha_restrict_is_min(theta, alpha):
    restricted = alpha_restrict(theta, alpha).restricted
    expected = tuple(tuple(min(g, alpha) for g in row) for row in theta.grades)
    assert restricted == expected
    assert all(type(g) is Fraction for row in restricted for g in row)


class FractionSubclass(Fraction):
    pass


@pytest.mark.parametrize(
    "value",
    [
        F(0), F(1), F(1, 3), F(-1, 2), F(3, 2), 0, 1, 2, -1, True, False,
        0.5, 1.0, FractionSubclass(1, 2), FractionSubclass(3, 2), "1/2", None,
    ],
    ids=repr,
)
def test_validate_grade_matches_fraction_oracle(value):
    try:
        expected = oracle.validate_grade(value)
    except GradeError as exc:
        with pytest.raises(GradeError) as raised:
            validate_grade(value)
        assert str(raised.value) == str(exc)
    else:
        got = validate_grade(value)
        assert got == expected and type(got) is Fraction


# --- images, level sets, kernels and the lab's claim checks ---------------------

# source -> target pairs: collapsing, injective and non-abelian maps
MAP_PAIRS = (
    ("cyclic6", "cyclic6"),
    ("cyclic6", "cyclic2"),
    ("cyclic2", "cyclic4"),
    ("cyclic3", "symmetric3"),
    ("symmetric3", "cyclic2"),
    ("dihedral4", "klein4"),
    ("cyclic2xcyclic4", "cyclic4"),
)
# cuts the pool does not contain, so level sets are also cut between grades
CUTS = st.sampled_from(POOL + (F(1, 6), F(3, 10), F(2, 3)))


@st.composite
def mapped(draw):
    """A map with a table on its source and one on its target, sharing q labels."""
    left, right = (standard_group(g) for g in draw(st.sampled_from(MAP_PAIRS)))
    maps = lab._enumerated_maps(left, right, (HOMOMORPHISM, ANTI_HOMOMORPHISM), 8)
    f = draw(st.sampled_from(maps))
    q_labels = tuple(f"q{i}" for i in range(draw(st.integers(1, 2))))
    return f, draw(tables(f.source, q_labels)), draw(tables(f.target, q_labels))


@given(mapped())
def test_image_subset_matches_fraction_oracle(case):
    f, theta, _ = case
    got = image_subset(f, theta)
    assert got == oracle.image_subset(f, theta)
    assert all(type(g) is Fraction for row in got.grades for g in row)


@given(tables(), grades, CUTS)
def test_level_set_matches_fraction_oracle(theta, alpha, cut):
    phi = alpha_restrict(theta, alpha)
    for q in phi.q_labels:
        assert level_set(phi, cut, q) == oracle.level_set(phi, cut, q)


@given(tables(), grades)
def test_achieved_grades_match_fraction_oracle(theta, alpha):
    phi = alpha_restrict(theta, alpha)
    for q in phi.q_labels:
        got = achieved_grades(phi, q)
        assert got == oracle.achieved_grades(phi, q)
        assert all(type(g) is Fraction for g in got)


@given(tables(), grades)
def test_kernel_set_matches_fraction_oracle(theta, alpha):
    phi = alpha_restrict(theta, alpha)
    assert kernel_set(phi) == oracle.kernel_set(phi)


@given(tables(), grades)
def test_check_p4_7_matches_fraction_oracle(theta, alpha):
    phi = alpha_restrict(theta, alpha)
    assert lab._check_p4_7(phi) == oracle._check_p4_7(phi)


@given(tables(), grades)
def test_check_p4_6_matches_fraction_oracle(theta, alpha):
    phi = alpha_restrict(theta, alpha)
    assert lab._check_p4_6(phi) == oracle._check_p4_6(phi)


@given(st.data())
def test_combine_and_compare_match_fraction_oracle(data):
    theta = data.draw(tables())
    sigma = data.draw(tables(theta.group, theta.q_labels))
    for kind in ("union", "intersection"):
        assert combine(kind, theta, sigma) == oracle.combine(kind, theta, sigma)
    for kind in ("subset", "equal"):
        assert compare(kind, theta, sigma) == oracle.compare(kind, theta, sigma)
        assert compare(kind, theta, theta) == oracle.compare(kind, theta, theta)


@given(st.data(), grades)
def test_claim_checks_on_pairs_match_fraction_oracle(data, alpha):
    theta = data.draw(tables())
    sigma = data.draw(tables(theta.group, theta.q_labels))
    assert lab._check_p3_3(theta, sigma, alpha) == oracle._check_p3_3(theta, sigma, alpha)
    phi, psi = alpha_restrict(theta, alpha), alpha_restrict(sigma, alpha)
    assert lab._dominates_identity(phi, psi) == oracle._dominates_identity(phi, psi)
    assert lab._positive_at_identity(phi) == oracle._positive_at_identity(phi)


@given(st.data(), grades)
def test_product_matches_fraction_oracle(data, alpha):
    small = st.sampled_from(("cyclic2", "cyclic3", "klein4", "symmetric3"))
    q_labels = ("q",)
    theta = data.draw(tables(standard_group(data.draw(small)), q_labels))
    sigma = data.draw(tables(standard_group(data.draw(small)), q_labels))
    phi, psi = alpha_restrict(theta, alpha), alpha_restrict(sigma, alpha)
    assert product(phi, psi) == oracle.product(phi, psi)


@given(mapped(), grades)
def test_map_claim_checks_match_fraction_oracle(case, alpha):
    f, theta, sigma = case
    ok, detail, failing = lab._check_p3_4((f,), theta, sigma, alpha)
    assert (ok, detail) == oracle._check_p3_4(f, theta, sigma, alpha)
    assert failing is (None if ok else f)
    psi = alpha_restrict(sigma, alpha)
    assert lab._check_p5_11(f, psi) == oracle._check_p5_11(f, psi)


@given(st.lists(grades, min_size=1, max_size=6))
def test_grade_order_helpers_match_fraction_order(values):
    assert sorted_grades(values) == sorted(values)
    assert greatest(values) == max(values)
    assert [grade_le(a, b) for a in values for b in values] == [
        a <= b for a in values for b in values
    ]


SMALL_CATALOG = [
    name for name in DEFAULT_CATALOG if standard_group(name).order <= 8
]


@pytest.mark.parametrize("name", SMALL_CATALOG)
def test_analyze_subset_matches_direct_closure_on_every_subset(name):
    group = standard_group(name)
    for mask in range(2 ** group.order):
        subset = [x for x in range(group.order) if mask >> x & 1]
        assert analyze_subset(group, subset) == oracle.analyze_subset(group, subset)


def test_analyze_subset_rejects_bad_elements_as_before():
    group = standard_group("klein4")
    for subset in ({0, 4}, {-1}):
        with pytest.raises(GroupError) as raised:
            analyze_subset(group, subset)
        with pytest.raises(GroupError) as expected:
            oracle.analyze_subset(group, subset)
        assert str(raised.value) == str(expected.value)
