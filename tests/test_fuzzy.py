import ast
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fraction_oracle import achieved_grades, constant_qfuzzy
from qfuzzy import fuzzy
from qfuzzy.grades import GradeError, format_grade, parse_grade
from qfuzzy.groups import HOMOMORPHISM, enumerate_maps, make_map, standard_group
from qfuzzy.lab import _image_alpha, _preimage_alpha
from qfuzzy.fuzzy import (
    CarrierError,
    InvariantError,
    alpha_restrict,
    compare,
    complement,
    image_subset,
    intersection,
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
    # `Fraction` reads digit separators and non-ASCII digits on some Python
    # versions only: they are refused on every one
    for literal in ("1_0/2_0", "0.5_0", "\u0661/\u0662"):
        with pytest.raises(GradeError, match="non-ASCII"):
            parse_grade(literal)


@pytest.mark.parametrize(
    "literal", ["1e-5000", "1e5000", "5e-1", "+0.5", ".5", "5.", " 0.5", "1/2/3", "0.5/1"]
)
def test_parse_grade_refuses_what_the_grammar_does_not_name(literal):
    # only ASCII digits, as a decimal or a ratio: `Fraction` reads the first
    # six, and 1e-5000 alone would build a 16 610-bit denominator
    with pytest.raises(GradeError, match="^bad grade literal"):
        parse_grade(literal)


def test_parse_grade_refuses_an_exponent_before_fraction_reads_it(monkeypatch):
    from qfuzzy import grades

    def no_fraction(*args):
        raise AssertionError("Fraction read a literal the grammar refuses")

    monkeypatch.setattr(grades, "Fraction", no_fraction)
    with pytest.raises(GradeError):
        parse_grade("1e-1000000")


@given(st.fractions(min_value=0, max_value=1))
def test_a_formatted_grade_parses_back(g):
    assert parse_grade(format_grade(g)) == g


def test_every_shipped_literal_parses():
    # the data files' grades and the benchmark corpus's pool
    root = Path(__file__).resolve().parents[1]
    literals = {
        line.split()[2]
        for path in (root / "data").glob("*.fuzzy")
        for line in path.read_text().split("grades:")[1].splitlines()
        if line.strip() and not line.startswith("#")
    }
    corpus = ast.parse((root / "perfbench" / "corpus.py").read_text())
    pool = next(
        node.value for node in corpus.body
        if isinstance(node, ast.Assign) and node.targets[0].id == "POOL"
    )
    literals |= set(ast.literal_eval(pool))
    assert {"0.09", "1/5"} <= literals
    for literal in literals:
        assert 0 <= parse_grade(literal) <= 1


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
    u = union(a, b)
    assert u.grades[0][0] == F(2, 5)
    assert u.grades[1][0] == F(3, 10)
    i = intersection(a, b)
    assert compare("subset", i, a) is True
    assert compare("subset", a, u) is True
    assert compare("equal", a, a) is True
    assert compare("subset", b, a) is False
    zero = constant_qfuzzy(g, Q, F(0))
    assert union(a, zero) == a
    assert intersection(a, a) == a
    with pytest.raises(ValueError, match="unknown compare kind"):
        compare("superset", a, b)


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
    trivial = standard_group("cyclic1")
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
    assert compare("equal", phi, theta) and phi != theta and theta != phi
    other = alpha_restrict(theta, F(1, 2))
    assert compare("equal", phi, other) and phi != other
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
    trivial_target = standard_group("cyclic1")
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
            assert compare("subset", theta, back)


def test_broken_restriction_raises_invariant_error(monkeypatch):
    # The re-checks must raise, not assert: `python -O` strips asserts.
    theta = klein_theta()
    phi = alpha_restrict(theta, F(1, 5))
    monkeypatch.setattr(
        fuzzy, "alpha_restrict", lambda t, a: QFuzzySubset(t.group, t.q_labels, t.columns, t.den, t, a)
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


def test_fuzzy_file_parses_canonical_grades():
    text = "group: klein4\nq_labels: q\ngrades:\ne q 1/5\na q 2/5\nb q 2/5\nc q 3/10\n"
    assert parse_fuzzy_file(text) == klein_theta()


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


def test_fuzzy_file_parses_each_literal_once():
    from qfuzzy.groups import FileFormatError

    # a bad literal fails at the first line that gives it
    with pytest.raises(FileFormatError) as info:
        parse_fuzzy_file("group: cyclic3\nq_labels: q\ngrades:\n0 q 1\n1 q 1.5\n2 q 1.5\n")
    assert str(info.value) == "grade 3/2 outside [0, 1] (line 5, field 'grades')"
    # a repeated literal gives every line it is on the same grade
    text = "group: klein4\nq_labels: q r\ngrades:\n" + "".join(
        f"{x} {q} {g}\n" for x in "eabc" for q, g in (("q", "0.4"), ("r", "1/3"))
    )
    theta = parse_fuzzy_file(text)
    expected = make_qfuzzy(standard_group("klein4"), ("q", "r"), [[F(2, 5), F(1, 3)]] * 4)
    assert theta == expected
    assert (theta.columns, theta.den) == (expected.columns, expected.den)


@pytest.mark.parametrize("text, message", [
    # a repeated label is named, not reported as a missing grade
    ("group: cyclic2\nq_labels: q r q\ngrades:\n0 q 1\n1 q 0\n",
     "duplicate q label 'q' (line 2, field 'q_labels')"),
    # a repeated header key is refused, not overridden by its last value
    ("group: cyclic2\nq_labels: q\ngroup: cyclic3\ngrades:\n0 q 1\n1 q 0\n",
     "duplicate key 'group', first given on line 1 (line 3, field 'group')"),
    ("q_labels: q\n# a comment\ngroup: cyclic2\nq_labels: r\ngrades:\n0 q 1\n1 q 0\n",
     "duplicate key 'q_labels', first given on line 1 (line 4, field 'q_labels')"),
    # a first grade on the grades line is refused, not dropped
    ("group: cyclic2\nq_labels: q\ngrades: 0 q 1\n1 q 0\n",
     "text after 'grades:' (line 3, field 'grades')"),
    # a row naming an element or a q label outside the carrier is refused at
    # its line, not reported as a missing grade
    ("group: cyclic2\nq_labels: q\ngrades:\n0 q 1\n2 q 0\n1 q 0\n",
     "grade for unknown pair (2, q) (line 5, field 'grades')"),
    ("group: cyclic2\nq_labels: q\ngrades:\n0 q 1\n1 r 1/2\n",
     "grade for unknown pair (1, r) (line 5, field 'grades')"),
    # the first label, in order, that occurs twice is named
    ("group: cyclic2\nq_labels: a b b a\ngrades:\n0 a 1\n1 a 0\n",
     "duplicate q label 'a' (line 2, field 'q_labels')"),
    ("group: cyclic2\nq_labels: a b c c b\ngrades:\n0 a 1\n1 a 0\n",
     "duplicate q label 'b' (line 2, field 'q_labels')"),
], ids=["q-label", "group", "q_labels", "grades-line", "element", "label", "abba", "abccb"])
def test_fuzzy_file_header_errors_are_named_with_their_line(text, message):
    from qfuzzy.groups import FileFormatError

    with pytest.raises(FileFormatError) as info:
        parse_fuzzy_file(text)
    assert str(info.value) == message


def test_a_wide_q_label_header_is_read_in_linear_time():
    # a label count and a label scan per grade line made this quadratic:
    # 20 000 labels took 5.4 s and 80 000 took 104 s
    from qfuzzy.groups import FileFormatError

    labels = " ".join(f"q{i}" for i in range(50_000))
    start = time.perf_counter()
    with pytest.raises(FileFormatError) as info:
        parse_fuzzy_file(f"group: cyclic2\nq_labels: {labels}\ngrades:\n")
    assert time.perf_counter() - start < 5
    assert str(info.value) == "missing grade for (0, q0) (field 'grades')"
    # a full body is read in one pass too, and the missing grade named is the
    # first in (element, label) order
    body = "".join(f"{x} q{k} 1\n" for x in "01" for k in range(50_000) if (x, k) != ("1", 7))
    with pytest.raises(FileFormatError, match=r"^missing grade for \(1, q7\)"):
        parse_fuzzy_file(f"group: cyclic2\nq_labels: {labels}\ngrades:\n{body}")
    assert time.perf_counter() - start < 5

