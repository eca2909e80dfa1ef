"""The integer kernels against the `Fraction` reference in `fraction_oracle`."""
import random
from fractions import Fraction
from unittest import mock

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
from qfuzzy.lab import DEFAULT_CATALOG, DEFAULT_POOL, random_qfuzzy_subgroup

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


# --- the trimmed pairwise scans -------------------------------------------------
#
# The closure and quotient scans visit only elements above their column's
# least grade, the anti-closure scan only those below its greatest.

ASCENDING = sorted(set(POOL))


@st.composite
def extreme_tables(draw):
    """Columns whose least (or greatest) grade is held by one element, by
    several, or by every element, with the other grades strictly above (or
    below) it."""
    group = standard_group(draw(st.sampled_from(GROUPS)))
    n = group.order
    q_labels = tuple(f"q{i}" for i in range(draw(st.integers(1, 2))))
    columns = []
    for _ in q_labels:
        i = draw(st.integers(0, len(ASCENDING) - 2))
        if draw(st.booleans()):  # the least grade is the extreme one
            extreme, rest = ASCENDING[i], ASCENDING[i + 1:]
        else:
            extreme, rest = ASCENDING[i + 1], ASCENDING[: i + 1]
        holders = draw(st.sampled_from(("one", "many", "all")))
        if holders == "all":
            held = set(range(n))
        elif holders == "one":
            held = {draw(st.integers(0, n - 1))}
        else:
            held = set(
                draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n - 1, unique=True))
            )
        columns.append(
            [extreme if x in held else draw(st.sampled_from(rest)) for x in range(n)]
        )
    return make_qfuzzy(group, q_labels, list(zip(*columns)))


@given(extreme_tables(), grades)
def test_trimmed_scans_match_full_fraction_scans(theta, alpha):
    assert check_qfuzzy_subgroup(theta) == oracle.check_qfuzzy_subgroup(theta)
    for a in (F(1), alpha):
        phi = alpha_restrict(theta, a)
        assert check_alpha_subgroup(phi) == oracle.check_alpha_subgroup(phi)
        assert check_anti_subgroup(phi) == oracle.check_anti_subgroup(phi)


def test_first_violation_after_skipped_rows_matches_full_scan():
    # rows 0 and 1 hold the column's least grade (for the anti-closure, its
    # greatest), so the trimmed scans skip them; the witnesses they report
    # must still be the full scans' first ones
    rng = random.Random(20)
    found = {"closure": 0, "quotient": 0, "anti_closure": 0}
    for name in GROUPS:
        group = standard_group(name)
        rest = group.order - 2
        for _ in range(40):
            low = [F(9, 100)] * 2 + [rng.choice(ASCENDING[2:]) for _ in range(rest)]
            high = [F(1)] * 2 + [rng.choice(ASCENDING[:-1]) for _ in range(rest)]
            phi = alpha_restrict(make_qfuzzy(group, ("q",), [(g,) for g in low]), F(1))
            psi = alpha_restrict(make_qfuzzy(group, ("q",), [(g,) for g in high]), F(1))
            got, expected = check_alpha_subgroup(phi), oracle.check_alpha_subgroup(phi)
            assert got == expected
            conditions = {k: got.conditions[k] for k in ("closure", "quotient")}
            got, expected = check_anti_subgroup(psi), oracle.check_anti_subgroup(psi)
            assert got == expected
            conditions["anti_closure"] = got.conditions["anti_closure"]
            for cond, result in conditions.items():
                if not result.ok:
                    assert group.index(result.witness[0]) > 1
                    found[cond] += 1
    assert all(found.values()), found


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


# --- the subgroup generator and P3.4's map list -----------------------------------


@pytest.mark.parametrize("name", DEFAULT_CATALOG)
def test_generator_builds_the_tables_of_its_old_body(name):
    group = standard_group(name)
    for q_size in (1, 2, 3):
        q_labels = tuple(f"q{i}" for i in range(q_size))
        for seed in range(25):
            rng, old_rng = random.Random(seed), random.Random(seed)
            got = random_qfuzzy_subgroup(group, q_labels, rng, DEFAULT_POOL)
            expected = oracle.random_qfuzzy_subgroup(group, q_labels, old_rng, DEFAULT_POOL)
            assert got == expected
            assert rng.getstate() == old_rng.getstate()  # the same draws


@given(st.sampled_from(MAP_PAIRS), st.booleans(), grades, st.data())
def test_check_p3_4_over_first_maps_per_image_matches_every_map(pair, broken, alpha, data):
    left, right = (standard_group(g) for g in pair)
    maps = lab._enumerated_maps(left, right, (HOMOMORPHISM, ANTI_HOMOMORPHISM), 8)
    distinct = lab._first_per_image(maps)
    assert len({f.images for f in maps}) == len(distinct)
    theta = data.draw(tables(left, ("q",)))
    sigma = data.draw(tables(right, ("q",)))
    target = data.draw(st.sampled_from(maps)).images

    def image(f, subset):
        # when broken, the image ignores the restriction on every map with
        # the target's images, so P3.4 fails on those maps and no others
        out = image_subset(f, subset)
        if not broken or f.images != target:
            return out
        rows = [list(row) for row in out.grades]
        rows[0][0] = F(1)
        return make_qfuzzy(out.group, out.q_labels, rows)

    with mock.patch.object(lab, "image_subset", image), \
            mock.patch.object(oracle, "image_subset", image):
        got = lab._check_p3_4(distinct, theta, sigma, alpha)
        expected = (True, None, None)
        for f in maps:  # the oracle's per-map check, in enumeration order
            ok, detail = oracle._check_p3_4(f, theta, sigma, alpha)
            if not ok:
                expected = (ok, detail, f)
                break
    assert got[:2] == expected[:2] and got[2] is expected[2]


def test_map_pairs_repeat_image_arrays():
    # hom and anti-hom enumerations share arrays, so P3.4 checks fewer maps
    left, right = standard_group("dihedral4"), standard_group("dihedral4")
    maps = lab._enumerated_maps(left, right, (HOMOMORPHISM, ANTI_HOMOMORPHISM), 8)
    distinct = lab._first_per_image(maps)
    assert (len(maps), len(distinct)) == (72, 44)
    for f in distinct:  # each is the first map with its images
        assert next(g for g in maps if g.images == f.images) is f
    positions = [maps.index(f) for f in distinct]
    assert positions == sorted(positions)
