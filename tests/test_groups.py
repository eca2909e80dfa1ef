import hashlib
import itertools
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fraction_oracle import compose_with_inversion
from qfuzzy import groups
from qfuzzy.groups import (
    ANTI_HOMOMORPHISM,
    MAX_ORDER,
    HOMOMORPHISM,
    MAP_KINDS,
    FeasibilityError,
    GroupError,
    MapError,
    all_subgroups,
    analyze_subset,
    build_group,
    closure_of,
    direct_product,
    enumerate_maps,
    format_group_file,
    make_map,
    parse_group_file,
    standard_group,
)
from qfuzzy.lab import DEFAULT_CATALOG, DEFAULT_MAP_PAIRS

KLEIN_TABLE = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]


def brute_force_axioms(g):
    n, t, e = g.order, g.table, g.identity
    for i, j in itertools.product(range(n), repeat=2):
        assert 0 <= t[i][j] < n
    for i, j, k in itertools.product(range(n), repeat=3):
        assert t[t[i][j]][k] == t[i][t[j][k]]
    for i in range(n):
        inv = g.inverses[i]
        assert t[e][i] == i == t[i][e]
        assert t[i][inv] == e == t[inv][i]


def test_build_group_klein4():
    g = build_group("klein4", ["e", "a", "b", "c"], KLEIN_TABLE)
    assert g.order == 4
    assert g.identity == 0
    assert g.inverses == (0, 1, 2, 3)
    brute_force_axioms(g)


def test_build_group_trivial():
    g = build_group("trivial", ["e"], [[0]])
    assert g.order == 1
    brute_force_axioms(g)


def test_build_group_corrupted_klein_names_witness():
    # corrupt ab: set it to a instead of c
    bad = [row[:] for row in KLEIN_TABLE]
    bad[1][2] = 1
    with pytest.raises(GroupError) as exc:
        build_group("bad", ["e", "a", "b", "c"], bad)
    assert "associativity" in str(exc.value) or "identity" in str(exc.value)


def first_associativity_failure(elements, rows):
    """The n^3 row-major scan: the message naming the first failing triple,
    or None for an associative table."""
    for i, j, k in itertools.product(range(len(rows)), repeat=3):
        lhs, rhs = rows[rows[i][j]][k], rows[i][rows[j][k]]
        if lhs != rhs:
            x, y, z = elements[i], elements[j], elements[k]
            return (
                f"associativity fails at ({x}, {y}, {z}): "
                f"({x}{y}){z} = {elements[lhs]} but {x}({y}{z}) = {elements[rhs]}"
            )
    return None


# a Latin square with an identity and two-sided inverses: only associativity
# can reject it
LOOP = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def test_build_group_names_first_triple_of_a_loop():
    with pytest.raises(GroupError) as exc:
        build_group("loop", ["e", "a", "b", "c", "d"], LOOP)
    assert str(exc.value) == "associativity fails at (a, a, b): (aa)b = b but a(ab) = d"


# carriers of order >= 3 with 1 to 3 generators, abelian or not
ORACLE_SPECS = [
    "cyclic3", "klein4", "cyclic5", "symmetric3", "dihedral4", "quaternion8",
    "cyclic2xcyclic2xcyclic2", "cyclic2xcyclic4", "symmetric3xcyclic2", "cyclic12",
]


def loop_times(g):
    """LOOP x g, row-major: its first generators, (e, x) for x in g, satisfy
    (ua)v = u(av), so only a later generator shows it is no group."""
    k = g.order
    labels = [f"({u},{x})" for u in "eabcd" for x in g.elements]
    rows = [
        [LOOP[u][v] * k + g.table[x][y] for v in range(5) for y in range(k)]
        for u in range(5) for x in range(k)
    ]
    return labels, rows


@st.composite
def tables_with_identity(draw):
    """(group?, labels, rows): a catalog table, or the loop times a small
    one, either relabelled by a random permutation or with two entries of a
    non-identity row swapped away from the identity column, so that the
    identity stays two-sided.  Only a relabelled catalog table is a group."""
    if draw(st.booleans()):
        g = standard_group(draw(st.sampled_from(ORACLE_SPECS)))
        labels, rows = list(g.elements), [list(row) for row in g.table]
        identity, is_group = g.identity, True
    else:
        g = standard_group(draw(st.sampled_from(["cyclic1", "cyclic2", "cyclic3"])))
        (labels, rows), identity, is_group = loop_times(g), 0, False
    n = len(rows)
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        relabelled = [[0] * n for _ in range(n)]
        relabels = [""] * n
        for i in range(n):
            relabels[perm[i]] = labels[i]
            for j in range(n):
                relabelled[perm[i]][perm[j]] = perm[rows[i][j]]
        return is_group, relabels, relabelled
    others = [x for x in range(n) if x != identity]
    x = draw(st.sampled_from(others))
    j, k = draw(st.lists(st.sampled_from(others), min_size=2, max_size=2, unique=True))
    rows[x][j], rows[x][k] = rows[x][k], rows[x][j]
    return False, labels, rows


@given(tables_with_identity())
def test_build_group_decides_associativity_as_the_triple_scan(case):
    is_group, labels, rows = case
    expected = first_associativity_failure(labels, rows)
    assert (expected is None) == is_group
    if expected is None:
        brute_force_axioms(build_group("t", labels, rows))
    else:
        with pytest.raises(GroupError) as exc:
            build_group("t", labels, rows)
        assert str(exc.value) == expected


def axioms_by_definition(elements, rows):
    """The inverses of a table, or the message of its first failed axiom,
    read off the definitions: the first two-sided identity, every triple,
    then each element's first two-sided inverse."""
    n = len(rows)
    two_sided = [e for e in range(n) if all(rows[e][i] == i == rows[i][e] for i in range(n))]
    if not two_sided:
        return "no two-sided identity element exists"
    e = two_sided[0]
    failure = first_associativity_failure(elements, rows)
    if failure is not None:
        return failure
    inverses = []
    for i in range(n):
        found = [j for j in range(n) if rows[i][j] == e == rows[j][i]]
        if not found:
            return (
                f"inverse fails at ({elements[i]}, {elements[e]}): "
                f"{elements[i]} has no two-sided inverse"
            )
        inverses.append(found[0])
    return tuple(inverses)


def test_build_group_matches_the_axioms_on_every_table_of_order_at_most_3():
    # build_group reads each inverse off its row, as a right inverse in a
    # finite monoid is two-sided; here every inverse is checked on both sides
    no_inverse = 0
    for n in (1, 2, 3):
        elements = ["x", "y", "z"][:n]
        for flat in itertools.product(range(n), repeat=n * n):
            rows = [list(flat[i * n:(i + 1) * n]) for i in range(n)]
            expected = axioms_by_definition(elements, rows)
            try:
                got = build_group("t", elements, rows).inverses
            except GroupError as exc:
                got = str(exc)
            assert got == expected, rows
            no_inverse += str(expected).startswith("inverse fails")
    assert no_inverse == 32


def test_build_group_rejects_bad_entries():
    with pytest.raises(GroupError, match="closure"):
        build_group("bad", ["e", "a"], [[0, 1], [1, 7]])
    with pytest.raises(GroupError, match="distinct"):
        build_group("bad", ["e", "e"], [[0, 1], [1, 0]])
    # labels no file can hold: both formats skip a line that starts with '#'
    # as a comment, so a row led by such a label would vanish
    for label in ("", "a b", "#a", "#"):
        with pytest.raises(GroupError, match=f"^element label {label!r} is empty, starts with"):
            build_group("bad", ["e", label], [[0, 1], [1, 0]])
    assert build_group("z2", ["e", "a#"], [[0, 1], [1, 0]]).elements == ("e", "a#")


@pytest.mark.parametrize(
    "spec,order",
    [
        ("cyclic1", 1),
        ("cyclic12", 12),
        ("klein4", 4),
        ("symmetric3", 6),
        ("dihedral4", 8),
        ("quaternion8", 8),
        ("cyclic2xcyclic2", 4),
        ("cyclic2xcyclic2xcyclic2xcyclic2xcyclic2", 32),
    ],
)
def test_standard_groups_are_valid(spec, order):
    g = standard_group(spec)
    assert g.name == spec
    assert g.order == order
    brute_force_axioms(g)


@pytest.mark.parametrize(
    "spec,digest",
    [
        ("klein4", "287154c64677cf548d18f0b33dc0ef31ebc73dfaece6f6ebfa4103bad2e60321"),
        ("symmetric3", "0409eaa7ac5e6b08d0bfb4fcfa4c03095022c3413250c1468d124d56b1692856"),
        ("dihedral4", "c0a2ea808aebc376790b23d74256503b28406ee86ff554413845a00b09b07c81"),
        ("quaternion8", "a0982e187b564c1740cb5d265c9d55772e5b0b38aa79a0760ecfd0be7b15896d"),
    ],
)
def test_hand_made_catalog_tables_are_pinned(spec, digest):
    # labels, element order and table: every draw and witness reads them
    text = format_group_file(standard_group(spec))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("n,subgroups", [(3, 6), (4, 10), (5, 8), (6, 16), (7, 10)])
def test_dihedral_groups_have_tau_plus_sigma_subgroups(n, subgroups):
    # the dihedral group of order 2n has tau(n) + sigma(n) subgroups (Cavior 1975)
    g = groups._dihedral(f"dihedral{n}", n, "s")
    assert g.order == 2 * n
    assert len(all_subgroups(g)) == subgroups
    brute_force_axioms(g)


def test_cyclic12_identity_is_zero():
    g = standard_group("cyclic12")
    assert g.label(g.identity) == "0"


def test_klein4_self_inverse():
    g = standard_group("klein4")
    assert g.inverses == (0, 1, 2, 3)


def test_symmetric3_non_abelian():
    g = standard_group("symmetric3")
    assert any(
        g.table[i][j] != g.table[j][i]
        for i, j in itertools.product(range(6), repeat=2)
    )


def test_unknown_spec_rejected():
    # a product with an empty side is named as given, not as ''
    # a spec is read verbatim: no other spelling or alias names a group
    for spec in (
        "monster", "cyclic2x", "x", "xcyclic2", "cyclic2xcyclic3x",
        "symmetric 3", "CYCLIC12", " klein4", "trivial",
    ):
        with pytest.raises(GroupError, match=f"^unknown group spec {spec!r}$"):
            standard_group(spec)


def test_a_product_spec_is_folded_from_the_right():
    c2 = standard_group("cyclic2")
    by_hand = c2
    for _ in range(7):
        by_hand = direct_product(c2, by_hand)
    g = standard_group("x".join(["cyclic2"] * 8))
    assert g.order == 256 == MAX_ORDER
    assert (g.name, g.elements, g.table) == (by_hand.name, by_hand.elements, by_hand.table)
    c3, klein = standard_group("cyclic3"), standard_group("klein4")
    assert standard_group("cyclic3xklein4xcyclic2") is direct_product(c3, direct_product(klein, c2))


def test_a_product_spec_of_more_than_eight_factors_is_refused_before_any_is_built(monkeypatch):
    # 2^9 > MAX_ORDER: nine nontrivial factors are above the cap.  Before
    # the fold, 1 500 factors overflowed the stack of the recursive build.
    factors = []
    build = groups.standard_group
    monkeypatch.setattr(groups, "standard_group", lambda spec: factors.append(spec) or build(spec))
    for n in (9, 1500):
        spec = "x".join(["cyclic1"] * n)
        with pytest.raises(GroupError, match=f"^group spec has {n} factors, above the cap of 8$"):
            build(spec)
    assert factors == []


def test_cyclic_order_is_read_in_canonical_decimal_only():
    # int() reads each of these as an order (12, 3, 3, 3); none names a group
    for spec in (
        "cyclic1_2", "cyclic\u0663", "cyclic+3", "cyclic03", "cyclic00", "cyclic-1", "cyclic 1 2",
    ):
        with pytest.raises(GroupError, match=f"^bad cyclic group spec {re.escape(repr(spec))}$"):
            standard_group(spec)
    with pytest.raises(GroupError, match="^bad cyclic group spec"):
        standard_group("cyclic" + "9" * 5000)  # past int()'s digit limit
    with pytest.raises(GroupError, match="order must be >= 1"):
        standard_group("cyclic0")
    assert standard_group("cyclic10").order == 10


def test_direct_product_with_trivial_is_relabelled_copy():
    g = standard_group("klein4")
    prod = direct_product(g, standard_group("cyclic1"))
    assert prod.order == 4
    # entry-wise Cayley comparison after stripping the trivial coordinate
    assert prod.table == g.table
    assert [x.split(",")[0][1:] for x in prod.elements] == list(g.elements)


def test_direct_product_c2_c2_matches_klein4_up_to_relabeling():
    prod = direct_product(standard_group("cyclic2"), standard_group("cyclic2"))
    assert prod.order == 4
    assert prod.inverses == (0, 1, 2, 3)
    # same multiplication structure as klein4 under the evident relabeling
    assert prod.table == standard_group("klein4").table


def test_direct_product_c2_c3_abelian_order_6():
    prod = direct_product(standard_group("cyclic2"), standard_group("cyclic3"))
    assert prod.order == 6
    assert all(
        prod.table[i][j] == prod.table[j][i]
        for i, j in itertools.product(range(6), repeat=2)
    )


def test_make_map_identity_homomorphism():
    g = standard_group("klein4")
    m = make_map(g, g, range(4), HOMOMORPHISM)
    assert m.images == (0, 1, 2, 3)


def test_inversion_is_anti_homomorphism_on_s3():
    g = standard_group("symmetric3")
    inv_images = g.inverses
    m = make_map(g, g, inv_images, ANTI_HOMOMORPHISM)
    # brute force: f(xy) = f(y)f(x) over all 36 pairs
    t, f = g.table, m.images
    for x, y in itertools.product(range(6), repeat=2):
        assert f[t[x][y]] == t[f[y]][f[x]]
    with pytest.raises(MapError):
        make_map(g, g, inv_images, HOMOMORPHISM)


def test_enumerate_maps_counts():
    c2 = standard_group("cyclic2")
    c3 = standard_group("cyclic3")
    # brute force over all 4 candidate maps c2 -> c2: trivial and identity
    assert len(enumerate_maps(c2, c2, HOMOMORPHISM)) == 2
    # over all 9 candidates c2 -> c3: only trivial
    assert len(enumerate_maps(c2, c3, HOMOMORPHISM)) == 1


def test_anti_maps_on_abelian_group_equal_homomorphisms():
    c4 = standard_group("cyclic4")
    homs = {m.images for m in enumerate_maps(c4, c4, HOMOMORPHISM)}
    antis = {m.images for m in enumerate_maps(c4, c4, ANTI_HOMOMORPHISM)}
    assert homs == antis


def test_anti_enumeration_matches_inversion_construction():
    s3 = standard_group("symmetric3")
    direct = {m.images for m in enumerate_maps(s3, s3, ANTI_HOMOMORPHISM)}
    via_inv = {
        compose_with_inversion(m).images
        for m in enumerate_maps(s3, s3, HOMOMORPHISM)
    }
    assert direct == via_inv
    assert len(direct) == 10  # 6 inner autos + 3 sign-style collapses + trivial


def test_enumerate_maps_guard():
    c12 = standard_group("cyclic12")
    with pytest.raises(FeasibilityError):
        enumerate_maps(c12, c12, HOMOMORPHISM)
    assert enumerate_maps(c12, standard_group("cyclic2"), HOMOMORPHISM, max_source=12)


def test_fibers():
    g = standard_group("klein4")
    c2 = standard_group("cyclic2")
    ident = make_map(g, g, range(4), HOMOMORPHISM)
    assert ident.fibers == ((0,), (1,), (2,), (3,))
    trivial = make_map(g, c2, [0, 0, 0, 0], HOMOMORPHISM)
    assert trivial.fibers == ((0, 1, 2, 3), ())  # the fiber of 1 is empty


def test_analyze_subset_identity_only():
    g = standard_group("symmetric3")
    analysis = analyze_subset(g, {g.identity})
    assert analysis.is_subgroup and analysis.is_cyclic and analysis.is_abelian


def test_analyze_subset_klein_pairs():
    g = standard_group("klein4")
    sub = analyze_subset(g, {0, 1})
    assert sub.is_subgroup and sub.is_cyclic and closure_of(g, {1}) == {0, 1}
    not_sub = analyze_subset(g, {1, 2})
    assert not not_sub.is_subgroup and not not_sub.is_cyclic  # <a, b> is all of klein4
    assert closure_of(g, {1, 2}) == frozenset(range(4))


def test_closure_is_idempotent():
    for name in ["klein4", "symmetric3", "dihedral4", "cyclic6"]:
        g = standard_group(name)
        for seed in [set(), {1}, {1, 2}, set(range(g.order))]:
            closed = closure_of(g, seed)
            assert closure_of(g, closed) == closed
            assert analyze_subset(g, closed).is_subgroup


def test_all_subgroups_counts():
    assert len(all_subgroups(standard_group("klein4"))) == 5
    assert len(all_subgroups(standard_group("symmetric3"))) == 6
    assert len(all_subgroups(standard_group("cyclic6"))) == 4
    assert len(all_subgroups(standard_group("quaternion8"))) == 6
    assert len(all_subgroups(standard_group("dihedral4"))) == 10


@pytest.mark.parametrize("name, count", [
    ("cyclic128", 8),  # one subgroup per divisor
    ("cyclic48", 10),
    # Gaussian binomials over GF(2): 1 + 31 + 155 + 155 + 31 + 1
    ("cyclic2xcyclic2xcyclic2xcyclic2xcyclic2", 374),
    # counted apart from qfuzzy, by brute force over generator triples
    ("cyclic4xcyclic4xcyclic4", 129),
])
def test_lattices_at_max_order_scale(name, count):
    g = standard_group(name)
    subs = all_subgroups(g)
    assert len(subs) == len(set(subs)) == count
    assert list(subs) == sorted(subs, key=lambda s: (len(s), sorted(s)))
    assert all(closure_of(g, s) == s for s in subs)
    lattice = set(subs)
    assert all(a & b in lattice for a in subs for b in subs)


@pytest.mark.parametrize("subset, bad", [({-1}, -1), ({7}, 7), ({0, 4}, 4)])
def test_closure_of_refuses_indices_outside_the_group(subset, bad):
    with pytest.raises(GroupError, match=f"^subset element {bad} is not an element index$"):
        closure_of(standard_group("klein4"), subset)


@pytest.mark.parametrize("kind", MAP_KINDS)
@pytest.mark.parametrize("source, target", DEFAULT_MAP_PAIRS, ids="->".join)
def test_enumerate_maps_yields_ascending_image_arrays_once(source, target, kind):
    # the audit's first map per image and its failure records read this order
    images = [
        m.images for m in enumerate_maps(standard_group(source), standard_group(target), kind)
    ]
    assert images and images == sorted(set(images))


SMALL_GROUPS = tuple(f"cyclic{n}" for n in range(1, 7)) + ("klein4", "symmetric3")


@pytest.mark.parametrize("source", SMALL_GROUPS)
def test_enumerate_maps_finds_every_map_a_brute_force_finds(source):
    # every image array, in ascending order, kept where make_map accepts it:
    # the backtracking's pruning drops none and keeps no other
    src = standard_group(source)
    for target in map(standard_group, SMALL_GROUPS):
        for kind in MAP_KINDS:
            brute = []
            for images in itertools.product(range(target.order), repeat=src.order):
                try:
                    brute.append(make_map(src, target, images, kind).images)
                except MapError:
                    pass
            assert [m.images for m in enumerate_maps(src, target, kind)] == brute
            # the kind equation at (e, e) gives f(e) = f(e) f(e), so f(e) = e
            assert all(images[src.identity] == target.identity for images in brute)


@pytest.mark.parametrize("name", DEFAULT_CATALOG)
def test_opposite_table_reverses_each_product(name):
    g = standard_group(name)
    for x, y in itertools.product(range(g.order), repeat=2):
        assert g.opposite[x][y] == g.table[y][x]


def test_group_file_round_trip():
    g = standard_group("symmetric3")
    text = format_group_file(g)
    back = parse_group_file(text)
    assert back == g


def test_equal_groups_hash_equal():
    catalog = standard_group("klein4")
    parsed = parse_group_file(format_group_file(catalog))
    assert parsed is not catalog
    assert parsed == catalog and hash(parsed) == hash(catalog)


def test_group_equality_is_unchanged_in_every_case():
    klein = standard_group("klein4")
    parsed = parse_group_file(format_group_file(klein))
    assert klein == klein and not klein != klein  # the same object
    assert parsed == klein and klein == parsed and not parsed != klein
    cyclic4 = standard_group("cyclic4")
    assert klein != cyclic4 and not klein == cyclic4  # different groups
    # same name, order and hash, but another table (and so other inverses)
    cyclic_table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    impostor = build_group("klein4", ["e", "a", "b", "c"], cyclic_table)
    assert hash(impostor) == hash(klein) and impostor != klein
    # same table, other labels
    assert build_group("klein4", ["e", "x", "y", "z"], KLEIN_TABLE) != klein
    # same labels, identity and inverses, another table: XOR on 0..7, and
    # XOR relabelled by the swap of 3 and 4
    swap = [0, 1, 2, 4, 3, 5, 6, 7]
    labels = [str(i) for i in range(8)]
    xor = build_group("c2^3", labels, [[i ^ j for j in range(8)] for i in range(8)])
    swapped = build_group(
        "c2^3", labels, [[swap[swap[i] ^ swap[j]] for j in range(8)] for i in range(8)]
    )
    assert swapped.inverses == xor.inverses and swapped != xor
    assert klein != "klein4" and not klein == "klein4"


def test_map_injectivity_and_surjectivity_are_read_from_the_images():
    pairs = (("symmetric3", "cyclic2"), ("cyclic3", "symmetric3"), ("cyclic4", "cyclic4"))
    for source, target in pairs:
        src, tgt = standard_group(source), standard_group(target)
        for kind in (HOMOMORPHISM, ANTI_HOMOMORPHISM):
            for m in enumerate_maps(src, tgt, kind):
                images = set(m.images)
                assert m.is_injective == (len(images) == src.order)
                assert m.is_surjective == (images == set(range(tgt.order)))
                # computed once, then read back from the map
                assert vars(m)["is_injective"] is m.is_injective


def test_group_file_errors_carry_location():
    from qfuzzy.groups import FileFormatError

    with pytest.raises(FileFormatError, match="line 1"):
        parse_group_file("nonsense without colon")
    with pytest.raises(FileFormatError, match=r"line 5, field 'table'"):
        parse_group_file("name: g\nelements: e a\ntable:\ne a\na b\n")


@pytest.mark.parametrize("text, message", [
    ("name: g\nelements: e a\nname: h\ntable:\ne a\na e\n",
     "duplicate key 'name', first given on line 1 (line 3, field 'name')"),
    ("elements: e a\nname: g\nelements: e b\ntable:\ne a\na e\n",
     "duplicate key 'elements', first given on line 1 (line 3, field 'elements')"),
    # a first row on the table line is refused, not dropped
    ("name: g\nelements: e a\ntable: e a\na e\n",
     "text after 'table:' (line 3, field 'table')"),
], ids=["name", "elements", "table-line"])
def test_group_file_header_errors_carry_their_line(text, message):
    # a repeated key is refused, not overridden by its last value
    from qfuzzy.groups import FileFormatError

    with pytest.raises(FileFormatError) as info:
        parse_group_file(text)
    assert str(info.value) == message


def test_order_cap_refuses_before_building(monkeypatch):
    built = []
    real_build, real_cyclic = groups.build_group, groups._cyclic

    def recording(name, element_names, table):
        built.append(name)
        return real_build(name, element_names, table)

    def small_cyclic(n):  # a tripwire: cyclic5000 would take minutes
        assert n <= 128, f"cyclic{n} was built"
        return real_cyclic(n)

    monkeypatch.setattr(groups, "build_group", recording)
    monkeypatch.setattr(groups, "_cyclic", small_cyclic)
    with pytest.raises(GroupError, match="cap"):
        standard_group("cyclic5000")
    # products just above the cap, so that even a missing check stays cheap
    with pytest.raises(GroupError, match="cap"):
        standard_group("cyclic16xcyclic17")
    with pytest.raises(GroupError, match="cap"):
        direct_product(standard_group("cyclic12"), standard_group("cyclic24"))
    assert not {"cyclic16xcyclic17", "cyclic12xcyclic24"} & set(built)


def test_order_cap_applies_to_loaded_groups(monkeypatch):
    # the cap is checked before the table is even looked at
    elements = [f"g{i}" for i in range(MAX_ORDER + 1)]
    with pytest.raises(GroupError, match="cap"):
        build_group("huge", elements, [])
    text = "name: huge\nelements: " + " ".join(elements) + "\ntable:\n"
    text += " ".join(elements) + "\n"
    with pytest.raises(GroupError, match="cap"):
        parse_group_file(text)
    monkeypatch.setattr(groups, "MAX_ORDER", 4)
    assert build_group("klein", "eabc", KLEIN_TABLE).order == 4
    with pytest.raises(GroupError, match="cap"):
        build_group("c5", "01234", [[(i + j) % 5 for j in range(5)] for i in range(5)])
