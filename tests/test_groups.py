import itertools

import pytest

from qfuzzy import groups
from qfuzzy.groups import (
    ANTI_HOMOMORPHISM,
    MAX_ORDER,
    HOMOMORPHISM,
    FeasibilityError,
    GroupError,
    MapError,
    all_subgroups,
    analyze_subset,
    build_group,
    closure_of,
    compose_with_inversion,
    direct_product,
    enumerate_maps,
    format_group_file,
    make_map,
    parse_group_file,
    standard_group,
)

KLEIN_TABLE = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]


def brute_force_axioms(g):
    n = g.order
    for i, j in itertools.product(range(n), repeat=2):
        assert 0 <= g.mul(i, j) < n
    for i, j, k in itertools.product(range(n), repeat=3):
        assert g.mul(g.mul(i, j), k) == g.mul(i, g.mul(j, k))
    for i in range(n):
        assert g.mul(g.identity, i) == i == g.mul(i, g.identity)
        assert g.mul(i, g.inv(i)) == g.identity == g.mul(g.inv(i), i)


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


def test_build_group_rejects_bad_entries():
    with pytest.raises(GroupError, match="closure"):
        build_group("bad", ["e", "a"], [[0, 1], [1, 7]])
    with pytest.raises(GroupError, match="distinct"):
        build_group("bad", ["e", "e"], [[0, 1], [1, 0]])


@pytest.mark.parametrize(
    "spec,order",
    [
        ("cyclic1", 1),
        ("cyclic12", 12),
        ("klein4", 4),
        ("symmetric3", 6),
        ("symmetric 3", 6),
        ("dihedral4", 8),
        ("quaternion8", 8),
        ("cyclic2xcyclic2", 4),
        ("trivial", 1),
    ],
)
def test_standard_groups_are_valid(spec, order):
    g = standard_group(spec)
    assert g.order == order
    brute_force_axioms(g)


def test_cyclic12_identity_is_zero():
    g = standard_group("cyclic12")
    assert g.label(g.identity) == "0"


def test_klein4_self_inverse():
    g = standard_group("klein4")
    assert all(g.inv(i) == i for i in range(4))


def test_symmetric3_non_abelian():
    g = standard_group("symmetric3")
    assert any(
        g.mul(i, j) != g.mul(j, i)
        for i, j in itertools.product(range(6), repeat=2)
    )


def test_unknown_spec_rejected():
    with pytest.raises(GroupError):
        standard_group("monster")


def test_direct_product_with_trivial_is_relabelled_copy():
    g = standard_group("klein4")
    prod = direct_product(g, standard_group("trivial"))
    assert prod.order == 4
    # entry-wise Cayley comparison after stripping the trivial coordinate
    assert prod.table == g.table
    assert [x.split(",")[0][1:] for x in prod.elements] == list(g.elements)


def test_direct_product_c2_c2_matches_klein4_up_to_relabeling():
    prod = direct_product(standard_group("cyclic2"), standard_group("cyclic2"))
    assert prod.order == 4
    assert all(prod.inv(i) == i for i in range(4))
    # same multiplication structure as klein4 under the evident relabeling
    assert prod.table == standard_group("klein4").table


def test_direct_product_c2_c3_abelian_order_6():
    prod = direct_product(standard_group("cyclic2"), standard_group("cyclic3"))
    assert prod.order == 6
    assert all(
        prod.mul(i, j) == prod.mul(j, i)
        for i, j in itertools.product(range(6), repeat=2)
    )


def test_make_map_identity_homomorphism():
    g = standard_group("klein4")
    m = make_map(g, g, range(4), HOMOMORPHISM)
    assert m.images == (0, 1, 2, 3)


def test_inversion_is_anti_homomorphism_on_s3():
    g = standard_group("symmetric3")
    inv_images = [g.inv(i) for i in range(6)]
    m = make_map(g, g, inv_images, ANTI_HOMOMORPHISM)
    # brute force: f(xy) = f(y)f(x) over all 36 pairs
    for x, y in itertools.product(range(6), repeat=2):
        assert m.apply(g.mul(x, y)) == g.mul(m.apply(y), m.apply(x))
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
    assert sub.is_subgroup and sub.is_cyclic and sub.generator == 1
    not_sub = analyze_subset(g, {1, 2})
    assert not not_sub.is_subgroup
    assert not_sub.closure == frozenset(range(4))


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


def test_group_file_errors_carry_location():
    from qfuzzy.groups import FileFormatError

    with pytest.raises(FileFormatError, match="line 1"):
        parse_group_file("nonsense without colon")
    with pytest.raises(FileFormatError, match="table"):
        parse_group_file("name: g\nelements: e a\ntable:\ne a\na b\n")


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
