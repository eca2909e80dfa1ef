"""The integer kernels against the `Fraction` reference in `fraction_oracle`."""
import itertools
import math
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
    classify_cyclic,
    kernel_set,
)
from qfuzzy.fuzzy import (
    QFuzzySubset,
    alpha_restrict,
    compare,
    complement,
    image_subset,
    intersection,
    level_set,
    level_sets,
    make_qfuzzy,
    preimage_subset,
    product,
    union,
)
from qfuzzy.grades import (
    GradeError,
    scale_grades,
    validate_grade,
)
from qfuzzy.groups import (
    ANTI_HOMOMORPHISM,
    HOMOMORPHISM,
    GroupError,
    all_subgroups,
    analyze_subset,
    closure_of,
    direct_product,
    standard_group,
)
from qfuzzy.lab import (
    DEFAULT_CATALOG,
    DEFAULT_MAP_PAIRS,
    DEFAULT_POOL,
    DEFAULT_PRODUCT_PAIRS,
    AuditConfig,
    random_qfuzzy,
    random_qfuzzy_subgroup,
)

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


@pytest.mark.parametrize("name", ["cyclic5", "cyclic12", "symmetric3", "quaternion8"])
def test_inverse_scan_and_reports_match_fraction_oracle_at_the_ends(name):
    # the inverse condition fails at the first or the last element that is
    # not its own inverse, at the first or the second q label
    group = standard_group(name)
    movers = [x for x in range(group.order) if group.inverses[x] != x]
    labels = ("q1", "q2")
    checks = (
        (check_qfuzzy_subgroup, oracle.check_qfuzzy_subgroup),
        (check_anti_subgroup, oracle.check_anti_subgroup),
        (check_alpha_subgroup, oracle.check_alpha_subgroup),
    )
    for x, k in itertools.product((movers[0], movers[-1]), range(len(labels))):
        rows = [[F(1, 2)] * len(labels) for _ in range(group.order)]
        rows[x][k] = F(3, 4)
        theta = make_qfuzzy(group, labels, rows)
        for check, reference in checks:
            report = check(theta)
            assert report == reference(theta)
            inverse = report.conditions["inverse"]
            assert inverse.witness == (group.label(x), labels[k])
            assert inverse.detail == (
                f"lhs = 1/2 < rhs = 3/4 at ({group.label(x)}, {labels[k]})"
            )
    constant = make_qfuzzy(group, labels, [[F(1, 2)] * 2] * group.order)
    for check, reference in checks:
        report = check(constant)
        assert report == reference(constant) and report.verdict
        assert (report.witness, report.detail) == (None, None)


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
    restricted = alpha_restrict(theta, alpha).grades
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
    # alpha_restrict validates its alpha the same way
    theta = make_qfuzzy(standard_group("cyclic2"), ("q",), [[F(1, 4)], [F(3, 4)]])
    try:
        expected = oracle.validate_grade(value)
    except GradeError as exc:
        for validate in (validate_grade, lambda alpha: alpha_restrict(theta, alpha)):
            with pytest.raises(GradeError) as raised:
                validate(value)
            assert str(raised.value) == str(exc)
    else:
        for got in (validate_grade(value), alpha_restrict(theta, value).alpha):
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
    ("dihedral4", "dihedral4"),
    ("cyclic1", "cyclic2"),
    ("cyclic2", "cyclic1"),
)
# cuts the pool does not contain, so level sets are also cut between grades
CUTS = st.sampled_from(POOL + (F(1, 6), F(3, 10), F(2, 3)))


@st.composite
def mapped(draw, max_labels=2):
    """A map with a table on its source and one on its target, sharing q labels."""
    left, right = (standard_group(g) for g in draw(st.sampled_from(MAP_PAIRS)))
    maps, _ = lab._claim_maps(left, right, (HOMOMORPHISM, ANTI_HOMOMORPHISM))
    f = draw(st.sampled_from(maps))
    q_labels = tuple(f"q{i}" for i in range(draw(st.integers(1, max_labels))))
    return f, draw(tables(f.source, q_labels)), draw(tables(f.target, q_labels))


def test_map_plans_read_fibers_and_images():
    # an image is the max over each fiber (0 on an empty one), read by push's
    # one gather on an injective map; a preimage is the column read at the
    # images.  The order-1 pairs take `gather`'s one-index case
    rng = random.Random("plans")
    order_one = (("cyclic1", "cyclic1"), ("cyclic1", "cyclic2"), ("cyclic2", "cyclic1"))
    for pair in DEFAULT_MAP_PAIRS + order_one:
        source, target = (standard_group(g) for g in pair)
        for f in lab._claim_maps(source, target, (HOMOMORPHISM, ANTI_HOMOMORPHISM))[0]:
            assert (f.push is not None) == f.is_injective
            for _ in range(5):
                column = tuple(rng.randrange(50) for _ in range(source.order))
                pushed = tuple(max([column[x] for x in bucket], default=0) for bucket in f.fibers)
                if f.push is not None:
                    assert f.push(column + (0,)) == pushed
                theta = QFuzzySubset(source, ("q",), (column,), 50)
                assert image_subset(f, theta).columns == (pushed,)
                on_target = tuple(rng.randrange(50) for _ in range(target.order))
                assert f.pull(on_target) == tuple(on_target[y] for y in f.images)


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
def test_level_sets_match_fraction_oracle(theta, alpha):
    phi = alpha_restrict(theta, alpha)
    for k, q in enumerate(phi.q_labels):
        cuts = oracle.achieved_grades(phi, q)
        got = level_sets(phi, k)
        assert [Fraction(cut, phi.den) for cut, _ in got] == list(cuts)
        assert [members for _, members in got] == [oracle.level_set(phi, c, q) for c in cuts]


@given(tables(), grades)
def test_classify_cyclic_matches_fraction_level_sets(theta, alpha):
    # the level sets at the achieved cuts, as the Fraction path finds them
    phi = alpha_restrict(theta, alpha)
    slices = classify_cyclic(phi)
    assert list(slices) == list(phi.q_labels)
    for q, slice_ in slices.items():
        cuts = oracle.achieved_grades(phi, q)
        assert [lv.cut for lv in slice_.levels] == list(cuts)
        for lv, cut in zip(slice_.levels, cuts):
            assert lv.members == oracle.level_set(phi, cut, q)
            analysis = oracle.analyze_subset(phi.group, lv.members)
            assert (lv.is_subgroup, lv.is_cyclic) == (analysis.is_subgroup, analysis.is_cyclic)


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
    assert union(theta, sigma) == oracle.combine("union", theta, sigma)
    assert intersection(theta, sigma) == oracle.combine("intersection", theta, sigma)
    for kind in ("subset", "equal"):
        assert compare(kind, theta, sigma) == oracle.compare(kind, theta, sigma)[0]
        assert compare(kind, theta, theta) == oracle.compare(kind, theta, theta)[0]


@given(tables(), st.data())
def test_compare_matches_fraction_oracle_on_a_single_difference(theta, data):
    # sigma is theta with one grade changed, often at the last element or the
    # last label, over its own denominator times 1, 3 or 7: the two tables'
    # denominators differ, and the one failing pair can be the last one scanned
    group, labels = theta.group, theta.q_labels
    x = data.draw(st.sampled_from((group.order - 1, data.draw(st.integers(0, group.order - 1)))))
    k = data.draw(st.sampled_from((len(labels) - 1, data.draw(st.integers(0, len(labels) - 1)))))
    rows = [list(row) for row in theta.grades]
    rows[x][k] = data.draw(grades.filter(lambda g: g != rows[x][k]))
    changed = make_qfuzzy(group, labels, rows)
    m = data.draw(st.sampled_from((1, 3, 7)))
    columns = tuple(tuple(g * m for g in column) for column in changed.columns)
    sigma = QFuzzySubset(group, labels, columns, changed.den * m)
    for a, b in ((theta, sigma), (sigma, theta), (sigma, changed)):
        for kind in ("subset", "equal"):
            assert compare(kind, a, b) == oracle.compare(kind, a, b)[0]
    assert oracle.compare("equal", theta, sigma) == (False, (group.label(x), labels[k]))
    assert compare("equal", theta, sigma) is False
    assert compare("equal", sigma, changed) is True


@given(tables())
def test_from_grades_puts_a_table_over_the_lcm_of_its_grades(theta):
    # one denominator for every label, not one per label
    assert theta.den == math.lcm(*[g.denominator for row in theta.grades for g in row])


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
    phi, psi = alpha_restrict(theta, alpha), alpha_restrict(sigma, alpha)
    ok, detail, failing = lab._judge(lab.CLAIMS["P3.4"], (phi, psi), (f,), lab._Tally())
    assert (ok, detail) == oracle._check_p3_4(f, theta, sigma, alpha)
    assert failing is (None if ok else f)
    inclusion, detail, (cyclic, violation, split) = lab._check_p5_11(f, psi)
    assert (inclusion, cyclic) == oracle._check_p5_11(f, psi)
    assert detail is None and violation is None  # the inclusion always holds
    assert split == f.is_injective


@given(mapped(max_labels=3), grades, grades)
def test_pointwise_inclusions_match_level_set_inclusions(case, a, b):
    # any table on each side, not only a map's image or preimage, each
    # restricted at its own alpha: the inclusion can fail, and the two sides'
    # denominators can differ
    f, theta, sigma = case
    phi, psi = alpha_restrict(theta, a), alpha_restrict(sigma, b)
    pushed = compare("subset", phi, preimage_subset(f, psi))
    assert pushed == oracle.pushed_within(f, phi, psi)
    pulled = compare("subset", preimage_subset(f, psi), phi)
    assert pulled == oracle.pulled_within(f, psi, phi)


@given(mapped(max_labels=3), grades)
def test_check_p5_10_matches_fraction_oracle(case, alpha):
    f, theta, _ = case
    phi = alpha_restrict(theta, alpha)
    inclusion, detail, (cyclic, violation, split) = lab._check_p5_10(f, phi)
    assert (inclusion, cyclic) == oracle._check_p5_10(f, phi)
    assert detail is None and violation is None  # the inclusion always holds
    assert split == f.is_surjective


@given(tables(), grades)
def test_all_cyclic_matches_the_classify_cyclic_report(theta, alpha):
    for phi in (theta, alpha_restrict(theta, alpha)):
        assert lab._all_cyclic(phi) == oracle._all_cyclic(phi)
        assert lab._all_cyclic(phi) == all(s.verdict for s in classify_cyclic(phi).values())


@given(st.lists(grades, min_size=1, max_size=6))
def test_grade_order_helpers_match_fraction_order(values):
    scaled, den = scale_grades(values)
    assert list(scaled) == oracle.scaled_column(values)
    assert [F(n, den) for n in scaled] == values
    assert [a <= b for a in scaled for b in scaled] == [
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


# the catalog, the default product pairs' products, and larger groups, each once
LATTICE_GROUPS = tuple(dict.fromkeys(
    [standard_group(name) for name in DEFAULT_CATALOG]
    + [direct_product(standard_group(a), standard_group(b)) for a, b in DEFAULT_PRODUCT_PAIRS]
    + [standard_group(name) for name in (
        "cyclic24", "cyclic48", "cyclic2xcyclic12", "symmetric3xsymmetric3",
        "dihedral4xcyclic2",
    )]
))


@pytest.mark.parametrize("group", LATTICE_GROUPS, ids=lambda g: g.name)
def test_lattice_matches_the_saturation_lattice(group):
    assert all_subgroups(group) == oracle.all_subgroups(group)


@pytest.mark.parametrize("group", LATTICE_GROUPS, ids=lambda g: g.name)
def test_closure_by_products_matches_saturation(group):
    # every subset up to order 8, sampled subsets above it
    if group.order <= 8:
        subsets = [
            [x for x in range(group.order) if mask >> x & 1]
            for mask in range(2 ** group.order)
        ]
    else:
        rng = random.Random(group.name)
        subsets = [
            rng.sample(range(group.order), rng.randint(0, 5)) for _ in range(200)
        ]
    for subset in subsets:
        assert closure_of(group, subset) == oracle.closure_of(group, subset)
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


GENERATORS = (
    (random_qfuzzy_subgroup, oracle.random_qfuzzy_subgroup),
    (random_qfuzzy, oracle.random_qfuzzy),
)


def assert_generators_match_old_bodies(group, q_labels, seed, pool, old_pool):
    # both generators in turn on one random generator: after each call, the
    # same table and the same generator state as the old bodies
    rng, old_rng = random.Random(seed), random.Random(seed)
    for new, old in GENERATORS:
        got = new(group, q_labels, rng, pool)
        expected = old(group, q_labels, old_rng, old_pool)
        assert got == expected and got.grades == expected.grades
        assert rng.getstate() == old_rng.getstate()  # the same draws


@pytest.mark.parametrize("name", DEFAULT_CATALOG)
def test_generator_builds_the_tables_of_its_old_body(name):
    group = standard_group(name)
    pool = AuditConfig().grade_pool  # scaled once, as the audit passes it
    for q_size in (1, 2, 3):
        q_labels = tuple(f"q{i}" for i in range(q_size))
        for seed in range(25):
            assert_generators_match_old_bodies(group, q_labels, seed, pool, DEFAULT_POOL)


POOLS = {
    "unsorted": (F(1, 2), F(0), F(9, 100), F(1), F(1, 3)),
    "duplicates": (F(1, 5), F(1, 5), F(0), F(1, 2), F(1, 2), F(1)),
    "mixed-denominators": POOL,
}


@pytest.mark.parametrize("kind", POOLS)
def test_generators_draw_from_any_pool_as_their_old_bodies(kind):
    pool = POOLS[kind]
    for name in GROUPS + ("cyclic2", "quaternion8"):
        group = standard_group(name)
        for q_size in (1, 2, 3):
            q_labels = tuple(f"q{i}" for i in range(q_size))
            for seed in range(8):
                assert_generators_match_old_bodies(group, q_labels, seed, pool, pool)


@given(st.sampled_from(MAP_PAIRS), st.booleans(), grades, st.data())
def test_check_p3_4_over_first_maps_per_image_matches_every_map(pair, broken, alpha, data):
    left, right = (standard_group(g) for g in pair)
    maps, distinct = lab._claim_maps(left, right, (HOMOMORPHISM, ANTI_HOMOMORPHISM))
    assert len({f.images for f in maps}) == len(distinct)
    theta = data.draw(tables(left, ("q",)))
    sigma = data.draw(tables(right, ("q",)))
    phi, psi = alpha_restrict(theta, alpha), alpha_restrict(sigma, alpha)
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
        got = lab._judge(lab.CLAIMS["P3.4"], (phi, psi), distinct, lab._Tally())
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
    maps, distinct = lab._claim_maps(left, right, (HOMOMORPHISM, ANTI_HOMOMORPHISM))
    assert (len(maps), len(distinct)) == (72, 44)
    for f in distinct:  # each is the first map with its images
        assert next(g for g in maps if g.images == f.images) is f
    positions = [maps.index(f) for f in distinct]
    assert positions == sorted(positions)


# --- integer columns and their Fraction views -------------------------------------
#
# A table's grades are integer columns over per-column denominators; its
# `Fraction` view is built from them on first read, or is the table it was
# scaled from.  Every construction path must give the oracle's grades, and
# columns that read as the view.

# denominators that divide no column's denominator of a DEFAULT_POOL table
# (100 or a divisor), and few of POOL's: the restriction then rescales
OFF_DENOMINATOR = (F(1, 3), F(1, 7), F(3, 7), F(5, 11))
alphas = st.sampled_from(POOL + OFF_DENOMINATOR)


def assert_same_table(got, expected):
    """Equal tables, equal `Fraction` views, and integer columns that read
    as the view over their denominators."""
    assert got == expected
    view = got.grades
    assert view == expected.grades
    assert all(type(g) is F for row in view for g in row)
    columns = [tuple(F(g, got.den) for g in col) for col in got.columns]
    assert columns == list(zip(*view))


@given(st.data(), alphas)
def test_columns_and_views_agree_on_every_construction_path(data, alpha):
    theta = data.draw(tables())  # through make_qfuzzy
    sigma = data.draw(tables(theta.group, theta.q_labels))
    assert_same_table(theta, QFuzzySubset.from_grades(theta.group, theta.q_labels, theta.grades))
    phi = alpha_restrict(theta, alpha)
    assert_same_table(phi, oracle.alpha_restrict(theta, alpha))
    assert_same_table(union(theta, sigma), oracle.combine("union", theta, sigma))
    assert_same_table(intersection(theta, sigma), oracle.combine("intersection", theta, sigma))
    assert_same_table(complement(theta), oracle.complement(theta))
    assert_same_table(lab._decode("theta", lab._encode("theta", theta)), theta)
    assert_same_table(lab._decode("phi", lab._encode("phi", phi)), phi)


@given(mapped(), alphas)
def test_columns_and_views_agree_on_map_and_product_paths(case, alpha):
    f, theta, sigma = case
    assert_same_table(image_subset(f, theta), oracle.image_subset(f, theta))
    assert_same_table(preimage_subset(f, sigma), oracle.preimage_subset(f, sigma))
    phi, psi = alpha_restrict(theta, alpha), alpha_restrict(sigma, alpha)
    expected = oracle.alpha_restrict(oracle.image_subset(f, theta), alpha)
    assert_same_table(lab._image_alpha(f, phi), expected)
    expected = oracle.alpha_restrict(oracle.preimage_subset(f, sigma), alpha)
    assert_same_table(lab._preimage_alpha(f, psi), expected)
    assert_same_table(product(phi, psi), oracle.product(phi, psi))


@pytest.mark.parametrize("alpha", (F(1, 3), F(1, 7)), ids=str)
def test_restriction_off_the_pool_denominator_matches_fraction_oracle(alpha):
    for name in DEFAULT_CATALOG:
        group = standard_group(name)
        for seed in range(6):
            rng = random.Random(seed)
            for make in (random_qfuzzy_subgroup, random_qfuzzy):
                theta = make(group, ("q1", "q2"), rng, DEFAULT_POOL)
                assert theta.den == 100
                phi = alpha_restrict(theta, alpha)
                assert phi.den == 100 * alpha.denominator
                assert_same_table(phi, oracle.alpha_restrict(theta, alpha))
                assert check_alpha_subgroup(phi) == oracle.check_alpha_subgroup(phi)
                assert check_anti_subgroup(phi) == oracle.check_anti_subgroup(phi)
                assert kernel_set(phi) == oracle.kernel_set(phi)
                for q in phi.q_labels:
                    cuts = oracle.achieved_grades(phi, q)
                    for cut in cuts + (alpha, F(1, 10), F(1)):
                        assert level_set(phi, cut, q) == oracle.level_set(phi, cut, q)
                assert lab._check_p4_6(phi) == oracle._check_p4_6(phi)
                assert lab._check_p4_7(phi) == oracle._check_p4_7(phi)


def test_tables_are_equal_by_value_whatever_the_denominators():
    group = standard_group("cyclic2")
    half = QFuzzySubset(group, ("q",), ((1, 2),), 2)
    assert half.grades == ((F(1, 2),), (F(1),))
    assert half == QFuzzySubset(group, ("q",), ((3, 6),), 6)
    assert compare("equal", half, QFuzzySubset(group, ("q",), ((3, 6),), 6))
    assert half != QFuzzySubset(group, ("q",), ((1, 2),), 4)  # same integers
    assert half != QFuzzySubset(group, ("p",), ((1, 2),), 2)


def scaled_up(fn, factors):
    """`fn` with each result's integers and denominators multiplied by the
    next of `factors`: the same grades over other denominators."""
    factors = itertools.cycle(factors)

    def wrapped(*args):
        out, m = fn(*args), next(factors)
        columns = tuple(tuple(g * m for g in col) for col in out.columns)
        return QFuzzySubset(out.group, out.q_labels, columns, out.den * m)

    return wrapped


@given(mapped(), alphas, st.data())
def test_p3_3_and_p3_4_compare_values_over_different_denominators(case, alpha, data):
    # the right-hand side of each claim is scaled by 3 (7 for the preimage),
    # so its denominators carry one more factor 3 (7) than the left-hand
    # side's: the claims still hold, as they compare grades, not integers
    f, theta, sigma = case
    other = data.draw(tables(theta.group, theta.q_labels))
    phi, psi = alpha_restrict(theta, alpha), alpha_restrict(sigma, alpha)
    with mock.patch.object(lab, "intersection", scaled_up(lab.intersection, (1, 3))):
        assert lab._check_p3_3(theta, other, alpha) == (True, None)
    with mock.patch.object(lab, "image_subset", scaled_up(image_subset, (1, 3))), \
            mock.patch.object(lab, "preimage_subset", scaled_up(preimage_subset, (1, 7))):
        assert lab._check_p3_4(f, phi, psi) == (True, None)
