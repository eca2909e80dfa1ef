"""Finite groups as explicit Cayley tables.

Every group is a validated n x n index table; all downstream verdicts are
computed by exhaustive quantification over these tables, so construction
re-checks the four group axioms and reports a concrete witness on failure.

Element orderings of the built-in catalog are fixed:

* ``cyclic n``      -- elements "0".."n-1", table[i][j] = (i + j) mod n
* ``klein4``        -- e, a, b, c with a^2 = b^2 = c^2 = e and ab = c
* ``symmetric 3``   -- e, r, rr, f, rf, rrf  (r a 3-cycle, f a flip)
* ``dihedral 4``    -- e, r, rr, rrr, s, rs, rrs, rrrs  (square symmetries)
* ``quaternion 8``  -- 1, -1, i, -i, j, -j, k, -k
* products          -- row-major pairs "(x,y)", name "AxB"

Maps between groups are total image arrays tagged homomorphism
(f(xy) = f(x)f(y)) or anti-homomorphism (f(xy) = f(y)f(x)).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache


class GroupError(ValueError):
    """A Cayley table violates one of the group axioms."""


class MapError(ValueError):
    """An image array violates its map-kind equation."""


class FeasibilityError(RuntimeError):
    """An enumeration would exceed the configured size guard."""


class FileFormatError(ValueError):
    """A structured input file is malformed."""

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        where = []
        if line is not None:
            where.append(f"line {line}")
        if field is not None:
            where.append(f"field {field!r}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)
        self.line = line
        self.field = field


# Largest group order built or loaded.  Validating a table is O(n^3) and the
# checks scan O(n^2) pairs per q label, so larger orders are refused up front.
MAX_ORDER = 256


def _check_order(n: int, what: str) -> None:
    if n > MAX_ORDER:
        raise GroupError(f"{what} has order {n}, above the cap of {MAX_ORDER}")


HOMOMORPHISM = "homomorphism"
ANTI_HOMOMORPHISM = "anti-homomorphism"
MAP_KINDS = (HOMOMORPHISM, ANTI_HOMOMORPHISM)


@dataclass(frozen=True)
class FiniteGroup:
    name: str
    elements: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    identity: int
    inverses: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def quotients(self) -> tuple[tuple[int, ...], ...]:
        # quotients[x][y] = x y^-1
        return tuple(tuple(row[j] for j in self.inverses) for row in self.table)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        return self.inverses[i]

    def label(self, i: int) -> str:
        return self.elements[i]

    def index(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise GroupError(f"no element {label!r} in group {self.name}") from None

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order {self.order})"

    def __hash__(self) -> int:
        # cheap for the lru_caches keyed by groups; equal groups hash equal
        return hash((self.name, self.order))


def build_group(name: str, element_names, table) -> FiniteGroup:
    """Validate a Cayley table and compute identity and inverses.

    The first violated axiom is reported with a concrete witness: a pair
    (i, j) for closure/identity/inverse failures, a triple (i, j, k) for
    associativity.
    """
    elements = tuple(str(x) for x in element_names)
    n = len(elements)
    if n == 0:
        raise GroupError("a group needs at least one element")
    _check_order(n, f"group {name}")
    if len(set(elements)) != n:
        raise GroupError("element names must be distinct")
    for label in elements:
        if not label or any(ch.isspace() for ch in label):
            raise GroupError(f"element label {label!r} is empty or has whitespace")
    rows = tuple(tuple(row) for row in table)
    if len(rows) != n or any(len(row) != n for row in rows):
        raise GroupError(f"table must be {n}x{n}")
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            if not isinstance(entry, int) or not 0 <= entry < n:
                raise GroupError(
                    f"closure fails at ({elements[i]}, {elements[j]}): "
                    f"entry {entry!r} is not an element index"
                )
    identity = None
    for e in range(n):
        if all(rows[e][i] == i and rows[i][e] == i for i in range(n)):
            identity = e
            break
    if identity is None:
        raise GroupError("no two-sided identity element exists")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if rows[rows[i][j]][k] != rows[i][rows[j][k]]:
                    raise GroupError(
                        "associativity fails at "
                        f"({elements[i]}, {elements[j]}, {elements[k]}): "
                        f"({elements[i]}{elements[j]}){elements[k]} = "
                        f"{elements[rows[rows[i][j]][k]]} but "
                        f"{elements[i]}({elements[j]}{elements[k]}) = "
                        f"{elements[rows[i][rows[j][k]]]}"
                    )
    inverses = []
    for i in range(n):
        inverse = None
        for j in range(n):
            if rows[i][j] == identity and rows[j][i] == identity:
                inverse = j
                break
        if inverse is None:
            raise GroupError(
                f"inverse fails at ({elements[i]}, {elements[identity]}): "
                f"{elements[i]} has no two-sided inverse"
            )
        inverses.append(inverse)
    return FiniteGroup(name, elements, rows, identity, tuple(inverses))


def _perm_group(name: str, named_perms: list[tuple[str, tuple[int, ...]]]) -> FiniteGroup:
    lookup = {perm: idx for idx, (_, perm) in enumerate(named_perms)}
    n = len(named_perms)
    table = []
    for _, p in named_perms:
        row = []
        for _, q in named_perms:
            composed = tuple(p[q[i]] for i in range(len(q)))
            row.append(lookup[composed])
        table.append(tuple(row))
    return build_group(name, [label for label, _ in named_perms], table)


def _cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupError("cyclic group order must be >= 1")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return build_group(f"cyclic{n}", [str(i) for i in range(n)], table)


def _klein4() -> FiniteGroup:
    # e a b c / a e c b / b c e a / c b a e
    table = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    return build_group("klein4", ["e", "a", "b", "c"], table)


def _symmetric3() -> FiniteGroup:
    e = (0, 1, 2)
    r = (1, 2, 0)
    rr = (2, 0, 1)
    f = (0, 2, 1)
    rf = tuple(r[f[i]] for i in range(3))
    rrf = tuple(rr[f[i]] for i in range(3))
    return _perm_group(
        "symmetric3",
        [("e", e), ("r", r), ("rr", rr), ("f", f), ("rf", rf), ("rrf", rrf)],
    )


def _dihedral4() -> FiniteGroup:
    r = (1, 2, 3, 0)
    s = (0, 3, 2, 1)
    powers = [(0, 1, 2, 3)]
    for _ in range(3):
        powers.append(tuple(r[powers[-1][i]] for i in range(4)))
    named = []
    for i, label in enumerate(["e", "r", "rr", "rrr"]):
        named.append((label, powers[i]))
    for i, label in enumerate(["s", "rs", "rrs", "rrrs"]):
        named.append((label, tuple(powers[i][s[j]] for j in range(4))))
    return _perm_group("dihedral4", named)


def _quaternion8() -> FiniteGroup:
    units = ["1", "i", "j", "k"]
    mul = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
        ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
        ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
    }
    elements = []
    for u in units:
        elements.append((1, u))
        elements.append((-1, u))
    labels = [("" if s == 1 else "-") + u for s, u in elements]
    index = {elem: i for i, elem in enumerate(elements)}
    table = []
    for s1, u1 in elements:
        row = []
        for s2, u2 in elements:
            s3, u3 = mul[(u1, u2)]
            row.append(index[(s1 * s2 * s3, u3)])
        table.append(row)
    return build_group("quaternion8", labels, table)


@lru_cache(maxsize=None)
def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Componentwise product; pair ordering is row-major in (g, h)."""
    _check_order(g.order * h.order, f"{g.name}x{h.name}")
    elements = []
    for a in g.elements:
        for b in h.elements:
            elements.append(f"({a},{b})")
    nh = h.order
    table = []
    for i in range(g.order):
        for j in range(h.order):
            row = []
            for k in range(g.order):
                for l in range(h.order):
                    row.append(g.table[i][k] * nh + h.table[j][l])
            table.append(row)
    return build_group(f"{g.name}x{h.name}", elements, table)


@lru_cache(maxsize=None)
def standard_group(spec: str) -> FiniteGroup:
    """Build a catalog group by name; 'AxB' builds a direct product."""
    text = spec.strip().lower().replace(" ", "")
    if "x" in text:
        left, _, right = text.partition("x")
        return direct_product(standard_group(left), standard_group(right))
    if text == "trivial":
        return _cyclic(1)
    if text.startswith("cyclic"):
        try:
            n = int(text[len("cyclic"):])
        except ValueError:
            raise GroupError(f"bad cyclic group spec {spec!r}") from None
        _check_order(n, f"cyclic{n}")
        return _cyclic(n)
    builders = {
        "klein4": _klein4,
        "symmetric3": _symmetric3,
        "dihedral4": _dihedral4,
        "quaternion8": _quaternion8,
    }
    if text in builders:
        return builders[text]()
    raise GroupError(f"unknown group spec {spec!r}")


@dataclass(frozen=True)
class GroupMap:
    source: FiniteGroup
    target: FiniteGroup
    images: tuple[int, ...]
    kind: str

    def apply(self, i: int) -> int:
        return self.images[i]

    @cached_property
    def fibers(self) -> tuple[tuple[int, ...], ...]:
        """Per target element y, the source elements x with f(x) = y,
        ascending; computed once per map."""
        buckets: list[list[int]] = [[] for _ in range(self.target.order)]
        for x, y in enumerate(self.images):
            buckets[y].append(x)
        return tuple(map(tuple, buckets))

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{self.source.label(i)}->{self.target.label(y)}"
            for i, y in enumerate(self.images)
        )
        return f"GroupMap({self.kind}: {pairs})"


def make_map(source: FiniteGroup, target: FiniteGroup, images, kind: str) -> GroupMap:
    """Validate the kind equation over all |G|^2 pairs, witness on failure."""
    if kind not in MAP_KINDS:
        raise MapError(f"unknown map kind {kind!r}")
    images = tuple(images)
    if len(images) != source.order:
        raise MapError(f"images has length {len(images)}, expected {source.order}")
    for y in images:
        if not isinstance(y, int) or not 0 <= y < target.order:
            raise MapError(f"image {y!r} is not a target element index")
    for x in range(source.order):
        for y in range(source.order):
            lhs = images[source.mul(x, y)]
            if kind == HOMOMORPHISM:
                rhs = target.mul(images[x], images[y])
            else:
                rhs = target.mul(images[y], images[x])
            if lhs != rhs:
                raise MapError(
                    f"{kind} equation fails at "
                    f"({source.label(x)}, {source.label(y)}): "
                    f"f(xy) = {target.label(lhs)} but expected {target.label(rhs)}"
                )
    m = GroupMap(source, target, images, kind)
    # Derivable from the kind equation; assert it anyway.
    if images[source.identity] != target.identity:
        raise MapError("map does not send identity to identity")
    return m


def enumerate_maps(
    source: FiniteGroup,
    target: FiniteGroup,
    kind: str,
    max_source: int = 8,
) -> list[GroupMap]:
    """All maps of the given kind, by backtracking over image assignments."""
    if kind not in MAP_KINDS:
        raise MapError(f"unknown map kind {kind!r}")
    if source.order > max_source:
        raise FeasibilityError(
            f"enumerate_maps guard: |source| = {source.order} > {max_source}"
        )
    n = source.order
    found: list[GroupMap] = []
    images: list[int | None] = [None] * n

    def consistent(limit: int) -> bool:
        for i in range(limit + 1):
            fi = images[i]
            for j in range(limit + 1):
                prod = source.table[i][j]
                if prod > limit:
                    continue
                if kind == HOMOMORPHISM:
                    rhs = target.table[fi][images[j]]
                else:
                    rhs = target.table[images[j]][fi]
                if images[prod] != rhs:
                    return False
        return True

    def extend(k: int) -> None:
        if k == n:
            found.append(GroupMap(source, target, tuple(images), kind))
            return
        for candidate in range(target.order):
            images[k] = candidate
            if consistent(k):
                extend(k + 1)
        images[k] = None

    extend(0)
    return found


def compose_with_inversion(m: GroupMap) -> GroupMap:
    """x -> m(x^-1); flips homomorphism <-> anti-homomorphism."""
    flipped = tuple(m.images[m.source.inv(x)] for x in range(m.source.order))
    kind = ANTI_HOMOMORPHISM if m.kind == HOMOMORPHISM else HOMOMORPHISM
    return GroupMap(m.source, m.target, flipped, kind)


def is_surjective(m: GroupMap) -> bool:
    return len(set(m.images)) == m.target.order


def is_injective(m: GroupMap) -> bool:
    return len(set(m.images)) == m.source.order


@dataclass(frozen=True)
class CrispSubsetAnalysis:
    is_subgroup: bool
    closure: frozenset[int]
    is_abelian: bool
    is_cyclic: bool
    generator: int | None


def closure_of(group: FiniteGroup, subset) -> frozenset[int]:
    """Smallest subgroup containing the subset, by saturation."""
    current = set(subset)
    current.add(group.identity)
    frontier = list(current)
    while frontier:
        x = frontier.pop()
        for y in list(current):
            for z in (group.mul(x, y), group.mul(y, x)):
                if z not in current:
                    current.add(z)
                    frontier.append(z)
        ix = group.inv(x)
        if ix not in current:
            current.add(ix)
            frontier.append(ix)
    return frozenset(current)


def _analyze(group: FiniteGroup, subset: frozenset[int]) -> CrispSubsetAnalysis:
    closed = closure_of(group, subset)
    is_subgroup = bool(subset) and closed == subset
    is_abelian = all(
        group.mul(x, y) == group.mul(y, x) for x in closed for y in closed
    )
    generator = None
    for x in sorted(closed):
        power = group.identity
        generated = {power}
        while True:
            power = group.mul(power, x)
            if power in generated:
                break
            generated.add(power)
        if generated == closed:
            generator = x
            break
    return CrispSubsetAnalysis(
        is_subgroup=is_subgroup,
        closure=closed,
        is_abelian=is_abelian,
        is_cyclic=generator is not None,
        generator=generator,
    )


@lru_cache(maxsize=None)
def _lattice_analyses(group: FiniteGroup) -> dict[frozenset[int], CrispSubsetAnalysis]:
    # Level sets and kernels of fuzzy subgroups are subgroups (Das 1981), so
    # most subsets analysed are lattice members: analyse each one once.
    return {sub: _analyze(group, sub) for sub in all_subgroups(group)}


def analyze_subset(group: FiniteGroup, subset) -> CrispSubsetAnalysis:
    """Subgroup test for a crisp element set plus closure/abelian/cyclic data.

    Abelian/cyclic verdicts refer to the closure; cyclicity is decided by
    testing each closure element as a generator (smallest index wins).
    A subgroup's analysis is read from a table built once per group by the
    same procedure.
    """
    subset = frozenset(subset)
    known = _lattice_analyses(group).get(subset)
    if known is not None:
        return known
    for x in subset:
        if not 0 <= x < group.order:
            raise GroupError(f"subset element {x} is not an element index")
    return _analyze(group, subset)


@lru_cache(maxsize=None)
def all_subgroups(group: FiniteGroup) -> tuple[frozenset[int], ...]:
    """Every subgroup, found by closing each known subgroup with one new
    generator until a fixpoint; sorted by (size, elements) for determinism."""
    trivial = frozenset({group.identity})
    known = {trivial}
    frontier = [trivial]
    while frontier:
        h = frontier.pop()
        for g in range(group.order):
            if g in h:
                continue
            extended = closure_of(group, h | {g})
            if extended not in known:
                known.add(extended)
                frontier.append(extended)
    return tuple(sorted(known, key=lambda s: (len(s), sorted(s))))


# --- group file format -----------------------------------------------------
#
#   name: klein4
#   elements: e a b c
#   table:
#   e a b c
#   a e c b
#   b c e a
#   c b a e


def parse_group_file(text: str) -> FiniteGroup:
    lines = text.splitlines()
    name = None
    elements: list[str] | None = None
    rows: list[list[str]] = []
    in_table = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if in_table:
            rows.append(line.split())
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise FileFormatError(f"expected 'key: value', got {line!r}", line=lineno)
        key = key.strip()
        value = value.strip()
        if key == "name":
            name = value
        elif key == "elements":
            elements = value.split()
        elif key == "table":
            in_table = True
        else:
            raise FileFormatError(f"unknown key {key!r}", line=lineno, field=key)
    if name is None:
        raise FileFormatError("missing group name", field="name")
    if elements is None:
        raise FileFormatError("missing element list", field="elements")
    if not rows:
        raise FileFormatError("missing Cayley table", field="table")
    index = {label: i for i, label in enumerate(elements)}
    table = []
    for row in rows:
        entries = []
        for label in row:
            if label not in index:
                raise FileFormatError(
                    f"table entry {label!r} is not a declared element", field="table"
                )
            entries.append(index[label])
        table.append(entries)
    return build_group(name, elements, table)


def format_group_file(group: FiniteGroup) -> str:
    lines = [f"name: {group.name}", "elements: " + " ".join(group.elements), "table:"]
    for row in group.table:
        lines.append(" ".join(group.elements[entry] for entry in row))
    return "\n".join(lines) + "\n"
