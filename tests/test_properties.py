from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qfuzzy.checks import check_alpha_subgroup
from qfuzzy.fuzzy import (
    achieved_grades,
    alpha_restrict,
    complement,
    intersection,
    level_set,
    make_qfuzzy,
    union,
)
from qfuzzy.groups import standard_group

F = Fraction
Q = ("q",)
POOL = sorted(
    {F(0), F(9, 100), F(1, 10), F(1, 5), F(3, 10), F(2, 5), F(1, 2), F(1)}
)
GROUPS = ["cyclic2", "cyclic4", "klein4", "cyclic6", "symmetric3"]

grades = st.sampled_from(POOL)
group_names = st.sampled_from(GROUPS)


@st.composite
def subsets(draw, name=None):
    gname = name if name is not None else draw(group_names)
    group = standard_group(gname)
    rows = [[draw(grades)] for _ in range(group.order)]
    return make_qfuzzy(group, Q, rows)


@st.composite
def subset_pairs(draw):
    gname = draw(group_names)
    return draw(subsets(name=gname)), draw(subsets(name=gname))


@st.composite
def subset_triples(draw):
    gname = draw(group_names)
    return tuple(draw(subsets(name=gname)) for _ in range(3))


@given(subset_pairs())
def test_union_and_intersection_are_commutative(pair):
    a, b = pair
    assert union(a, b) == union(b, a)
    assert intersection(a, b) == intersection(b, a)


@given(subset_triples())
def test_lattice_associativity_and_absorption(triple):
    a, b, c = triple
    assert union(union(a, b), c) == union(a, union(b, c))
    assert intersection(intersection(a, b), c) == intersection(a, intersection(b, c))
    assert union(a, intersection(a, b)) == a
    assert intersection(a, union(a, b)) == a


@given(subset_triples())
def test_lattice_distributivity(triple):
    a, b, c = triple
    assert intersection(a, union(b, c)) == union(intersection(a, b), intersection(a, c))
    assert union(a, intersection(b, c)) == intersection(union(a, b), union(a, c))


@given(subsets())
def test_lattice_idempotence(theta):
    assert union(theta, theta) == theta
    assert intersection(theta, theta) == theta


@given(subsets())
def test_complement_is_an_involution(theta):
    assert complement(complement(theta)) == theta


@given(subset_pairs())
def test_de_morgan_laws(pair):
    a, b = pair
    assert complement(union(a, b)) == intersection(complement(a), complement(b))
    assert complement(intersection(a, b)) == union(complement(a), complement(b))


@given(subsets(), grades)
def test_restriction_is_idempotent(theta, alpha):
    once = alpha_restrict(theta, alpha)
    again = alpha_restrict(
        make_qfuzzy(theta.group, Q, once.grades), alpha
    )
    assert once.grades == again.grades


@given(subsets(), grades, grades)
def test_restriction_is_monotone_in_alpha(theta, a1, a2):
    lo, hi = sorted((a1, a2))
    low = alpha_restrict(theta, lo).grades
    high = alpha_restrict(theta, hi).grades
    assert all(
        x <= y for rl, rh in zip(low, high) for x, y in zip(rl, rh)
    )


@given(subsets(), grades)
def test_restriction_never_raises_grades(theta, alpha):
    phi = alpha_restrict(theta, alpha)
    assert all(
        r <= min(g, alpha) and r == min(g, alpha)
        for base_row, row in zip(theta.grades, phi.grades)
        for g, r in zip(base_row, row)
    )


@given(subsets(), grades)
def test_level_sets_are_antitone(theta, alpha):
    phi = alpha_restrict(theta, alpha)
    cuts = achieved_grades(phi, "q")
    for lo, hi in zip(cuts, cuts[1:]):
        assert level_set(phi, hi, "q") <= level_set(phi, lo, "q")


@settings(max_examples=60)
@given(subsets(), grades)
def test_two_condition_and_quotient_forms_always_agree(theta, alpha):
    report = check_alpha_subgroup(alpha_restrict(theta, alpha))
    assert report.forms_agree


@settings(max_examples=60)
@given(subsets(), grades)
def test_verified_subgroups_have_dominant_identity(theta, alpha):
    phi = alpha_restrict(theta, alpha)
    if check_alpha_subgroup(phi).verdict:
        g = phi.group
        column = [phi.grade(x, 0) for x in range(g.order)]
        assert column[g.identity] == max(column)
        assert all(column[g.inv(x)] == column[x] for x in range(g.order))
