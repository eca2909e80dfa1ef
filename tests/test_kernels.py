"""The integer kernels against the `Fraction` reference in `fraction_oracle`."""
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import fraction_oracle as oracle
from qfuzzy.checks import (
    check_alpha_subgroup,
    check_anti_subgroup,
    check_qfuzzy_subgroup,
)
from qfuzzy.fuzzy import alpha_restrict, make_qfuzzy
from qfuzzy.grades import GradeError, validate_grade
from qfuzzy.groups import standard_group
from qfuzzy.lab import random_qfuzzy_subgroup

F = Fraction
# mixed denominators, so each column is scaled by a different common one
POOL = (F(0), F(1), F(1, 3), F(2, 7), F(9, 100), F(1, 2))
GROUPS = ("cyclic6", "symmetric3", "dihedral4", "cyclic2xcyclic4")

grades = st.sampled_from(POOL)


@st.composite
def tables(draw):
    """A genuine Q-fuzzy subgroup with a few cells overwritten (possibly
    none), or a table of independent grades: the first violation then lands
    anywhere in the scan order, or nowhere."""
    group = standard_group(draw(st.sampled_from(GROUPS)))
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
