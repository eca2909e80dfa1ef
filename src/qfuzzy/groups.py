"""Finite groups as explicit Cayley tables.

Every group is a validated n x n index table; all downstream verdicts are
computed by exhaustive quantification over these tables, so construction
re-checks the four group axioms and reports a concrete witness on failure.
Once a table has an identity and is associative it is a finite monoid, where
a right inverse is already two-sided, so each inverse is read off its row.

Element orderings of the built-in catalog are fixed:

* ``cyclicN``       -- elements "0".."N-1", table[i][j] = (i + j) mod N
* ``klein4``        -- e, a, b, c with a^2 = b^2 = c^2 = e and ab = c
* ``symmetric3``    -- e, r, rr, f, rf, rrf  (r a 3-cycle, f a flip)
* ``dihedral4``     -- e, r, rr, rrr, s, rs, rrs, rrrs  (square symmetries)
* ``quaternion8``   -- 1, -1, i, -i, j, -j, k, -k
* ``AxB``           -- the direct product, row-major pairs "(x,y)"

A spec is read verbatim and is the group's name: no other spelling names
a catalog group.  Every hand-made catalog group is built by one rule
(`_group_from`): list (label, element) pairs and multiply the elements.
``klein4`` is {0, 1, 2, 3} under bitwise xor; ``symmetric3`` and
``dihedral4`` are dihedral groups (`_dihedral`), permutations of Z_n made
from the rotation r: x -> x + 1 and the flip x -> -x; ``quaternion8`` is the
unit integer quaternions under Hamilton's product.

Maps between groups are total image arrays tagged homomorphism
(f(xy) = f(x)f(y)) or anti-homomorphism (f(xy) = f(y)f(x)), which is a
homomorphism into the opposite table.  The subgroup a set generates is the
set of its elements' products (`closure_of`).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from operator import itemgetter, xor


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


# Largest group order built or loaded.  Validating a group's table takes
# O(n^2 log n) products (O(n^3) to name the witness of a non-associative
# table) and the checks scan O(n^2) pairs per q label, so larger orders are
# refused up front.
MAX_ORDER = 256


def _check_order(n: int, what: str) -> None:
    if n > MAX_ORDER:
        raise GroupError(f"{what} has order {n}, above the cap of {MAX_ORDER}")


HOMOMORPHISM = "homomorphism"
ANTI_HOMOMORPHISM = "anti-homomorphism"
MAP_KINDS = (HOMOMORPHISM, ANTI_HOMOMORPHISM)

# Largest source `enumerate_maps` takes: its backtracking may try every one of
# the |H|^|G| image arrays, so larger sources are refused up front.
MAX_SOURCE = 8


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

    @cached_property
    def opposite(self) -> tuple[tuple[int, ...], ...]:
        # opposite[x][y] = y x, the table an anti-homomorphism respects
        return tuple(zip(*self.table))

    def label(self, i: int) -> str:
        return self.elements[i]

    def index(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise GroupError(f"no element {label!r} in group {self.name}") from None

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order {self.order})"

    @cached_property
    def _hash(self) -> int:
        return hash((self.name, self.order))

    def __hash__(self) -> int:
        # computed once per group, for the lru_caches keyed by groups; equal
        # groups have equal names and orders, so they hash equal
        return self._hash


def gather(indices):
    """seq -> tuple(seq[i] for i in indices), in one C-level call.  Of one
    index, `itemgetter` gives the entry itself, so that case is a 1-tuple."""
    if len(indices) == 1:
        (i,) = indices
        return lambda seq: (seq[i],)
    return itemgetter(*indices)


def _products(rows, identity: int, generators) -> set[int]:
    """Every element reached from the identity by right-multiplying with
    the generators, in the raw table `rows`."""
    closed = {identity}
    frontier = [identity]
    while frontier:
        row = rows[frontier.pop()]
        for x in generators:
            if row[x] not in closed:
                closed.add(row[x])
                frontier.append(row[x])
    return closed


def _is_associative(rows, identity: int) -> bool:
    """Light's test over a greedy generating set: each element the
    generators chosen so far do not reach becomes the next generator.

    Let A be the elements a with (x a) y = x (a y) for every x and y.  A
    holds the identity and is closed under the product: for b and c in A,
    (x bc) y = ((x b) c) y = (x b)(c y) = x (b (c y)) = x (bc y).  So if
    every generator is in A, every element the walk reaches is, and the
    table is associative; the converse is plain.  Row x a of the table
    must equal row x read at row a, compared in one C-level call per row.
    Order 1 needs no generator, so `itemgetter` never takes one index.
    """
    n = len(rows)
    generators: list[int] = []
    reached = {identity}
    while len(reached) < n:
        generators.append(next(x for x in range(n) if x not in reached))
        reached = _products(rows, identity, generators)
    for a in generators:
        at_a = itemgetter(*rows[a])
        if any(rows[row[a]] != at_a(row) for row in rows):
            return False
    return True


def build_group(name: str, element_names, table) -> FiniteGroup:
    """Validate a Cayley table and compute identity and inverses.

    Associativity is decided by Light's test over a greedy generating set
    (`_is_associative`), in n^2 d products for d generators; only a table it
    rejects is scanned row-major over all n^3 triples, to name the first.
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
        # both file formats read a line that starts with '#' as a comment
        if not label or label[0] == "#" or any(ch.isspace() for ch in label):
            raise GroupError(
                f"element label {label!r} is empty, starts with '#' or has whitespace"
            )
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
    if not _is_associative(rows, identity):
        # name the first failing triple, row-major
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
    # The table is now a finite monoid, where a right inverse is two-sided:
    # if xy = e, then z -> yz is injective (x undoes it), so onto, and some z
    # has yz = e; then x = x(yz) = (xy)z = z.  So x's inverse is where its
    # row holds the identity, and a row without it has no inverse at all.
    inverses = []
    for i, row in enumerate(rows):
        if identity not in row:
            raise GroupError(
                f"inverse fails at ({elements[i]}, {elements[identity]}): "
                f"{elements[i]} has no two-sided inverse"
            )
        inverses.append(row.index(identity))
    return FiniteGroup(name, elements, rows, identity, tuple(inverses))


def _group_from(name: str, named, mul) -> FiniteGroup:
    """The group of the (label, element) pairs under the product rule
    `mul`, in the order given; a product outside the list is a KeyError."""
    index = {element: i for i, (_, element) in enumerate(named)}
    table = [[index[mul(a, b)] for _, b in named] for _, a in named]
    return build_group(name, [label for label, _ in named], table)


def _cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupError("cyclic group order must be >= 1")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return build_group(f"cyclic{n}", [str(i) for i in range(n)], table)


def _dihedral(name: str, n: int, flip: str) -> FiniteGroup:
    """The symmetries of the n-gon as permutations of Z_n, composed right
    to left: r^i (x -> x + i), then r^i flip (x -> i - x)."""
    rotations = [("r" * i or "e", tuple((x + i) % n for x in range(n))) for i in range(n)]
    flips = [("r" * i + flip, tuple((i - x) % n for x in range(n))) for i in range(n)]
    return _group_from(name, rotations + flips, lambda p, q: tuple(p[x] for x in q))


def _hamilton(p, q):
    """Hamilton's product of quaternions a + bi + cj + dk as (a, b, c, d)."""
    a, b, c, d = p
    w, x, y, z = q
    return (
        a * w - b * x - c * y - d * z,
        a * x + b * w + c * z - d * y,
        a * y - b * z + c * w + d * x,
        a * z + b * y - c * x + d * w,
    )


def _quaternion8() -> FiniteGroup:
    """The unit integer quaternions 1, -1, i, -i, j, -j, k, -k."""
    named = [
        (sign + unit, tuple(s * (t == u) for t in range(4)))
        for u, unit in enumerate("1ijk")
        for sign, s in (("", 1), ("-", -1))
    ]
    return _group_from("quaternion8", named, _hamilton)


@lru_cache(maxsize=None)
def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Componentwise product; pair ordering is row-major in (g, h)."""
    _check_order(g.order * h.order, f"{g.name}x{h.name}")
    elements = [f"({a},{b})" for a in g.elements for b in h.elements]
    nh = h.order
    table = [[a * nh + b for a in gr for b in hr] for gr in g.table for hr in h.table]
    return build_group(f"{g.name}x{h.name}", elements, table)


@lru_cache(maxsize=None)
def standard_group(spec: str) -> FiniteGroup:
    """Build a catalog group by its canonical name, read verbatim; 'AxBxC'
    builds A x (B x C), of names without an 'x'.  The group's name is the spec."""
    factors = spec.split("x")
    if len(factors) > 1:
        if "" in factors:  # a product with an empty side
            raise GroupError(f"unknown group spec {spec!r}")
        cap = MAX_ORDER.bit_length() - 1  # cap + 1 nontrivial factors are above MAX_ORDER
        if len(factors) > cap:
            raise GroupError(f"group spec has {len(factors)} factors, above the cap of {cap}")
        groups = [standard_group(factor) for factor in factors]  # the leftmost bad one is named
        return reduce(lambda right, left: direct_product(left, right), reversed(groups))
    if spec.startswith("cyclic"):
        digits = spec[len("cyclic"):]
        try:
            # canonical ASCII decimal only: int() also reads a sign, "_",
            # leading zeros and other scripts' digits (and refuses a long one)
            if not (digits.isascii() and digits.isdigit()) or digits[0] == "0" != digits:
                raise ValueError(digits)
            n = int(digits)
        except ValueError:
            raise GroupError(f"bad cyclic group spec {spec!r}") from None
        _check_order(n, f"cyclic{n}")
        return _cyclic(n)
    builders = {
        "klein4": lambda: _group_from("klein4", list(zip("eabc", range(4))), xor),
        "symmetric3": lambda: _dihedral("symmetric3", 3, "f"),
        "dihedral4": lambda: _dihedral("dihedral4", 4, "s"),
        "quaternion8": _quaternion8,
    }
    if spec in builders:
        return builders[spec]()
    raise GroupError(f"unknown group spec {spec!r}")


@dataclass(frozen=True)
class GroupMap:
    source: FiniteGroup
    target: FiniteGroup
    images: tuple[int, ...]
    kind: str

    @cached_property
    def fibers(self) -> tuple[tuple[int, ...], ...]:
        """Per target element y, the source elements x with f(x) = y,
        ascending; computed once per map."""
        buckets: list[list[int]] = [[] for _ in range(self.target.order)]
        for x, y in enumerate(self.images):
            buckets[y].append(x)
        return tuple(map(tuple, buckets))

    # Index plans, built once per map: a column on one group becomes the
    # column of its preimage or image in one gather.

    @cached_property
    def pull(self):
        """column on the target -> its preimage's column, read at `images`."""
        return gather(self.images)

    @cached_property
    def push(self):
        """For an injective map, column on the source, with one 0 appended ->
        its image's column: the fibers flattened in target order, that 0
        standing in for each empty fiber.  None for any other map, whose
        image takes a max over each fiber."""
        if not self.is_injective:
            return None
        zero = self.source.order  # the appended entry
        return gather([bucket[0] if bucket else zero for bucket in self.fibers])

    @cached_property
    def is_injective(self) -> bool:
        return len(set(self.images)) == self.source.order

    @cached_property
    def is_surjective(self) -> bool:
        return len(set(self.images)) == self.target.order

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{self.source.label(i)}->{self.target.label(y)}"
            for i, y in enumerate(self.images)
        )
        return f"GroupMap({self.kind}: {pairs})"


def _kind_table(target: FiniteGroup, kind: str) -> tuple[tuple[int, ...], ...]:
    # where f(xy) = f(x)f(y) must hold: the target's table, or its opposite
    if kind not in MAP_KINDS:
        raise MapError(f"unknown map kind {kind!r}")
    return target.table if kind == HOMOMORPHISM else target.opposite


def make_map(source: FiniteGroup, target: FiniteGroup, images, kind: str) -> GroupMap:
    """Validate the kind equation over all |G|^2 pairs, witness on failure.
    At (e, e) it reads f(e) = f(e)f(e) for either kind, so f(e) = e."""
    table = _kind_table(target, kind)
    images = tuple(images)
    if len(images) != source.order:
        raise MapError(f"images has length {len(images)}, expected {source.order}")
    for y in images:
        if not isinstance(y, int) or not 0 <= y < target.order:
            raise MapError(f"image {y!r} is not a target element index")
    for x in range(source.order):
        for y in range(source.order):
            lhs = images[source.table[x][y]]
            rhs = table[images[x]][images[y]]
            if lhs != rhs:
                raise MapError(
                    f"{kind} equation fails at "
                    f"({source.label(x)}, {source.label(y)}): "
                    f"f(xy) = {target.label(lhs)} but expected {target.label(rhs)}"
                )
    return GroupMap(source, target, images, kind)


def enumerate_maps(
    source: FiniteGroup,
    target: FiniteGroup,
    kind: str,
    max_source: int = MAX_SOURCE,
) -> list[GroupMap]:
    """All maps of the given kind, by backtracking over image assignments;
    image arrays come in ascending order."""
    table = _kind_table(target, kind)
    if source.order > max_source:
        raise FeasibilityError(
            f"enumerate_maps guard: |source| = {source.order} > {max_source}"
        )
    n = source.order
    found: list[GroupMap] = []
    images = [0] * n
    # the equation of a pair (i, j) reads the images of i, j and ij, so the
    # assignment at the greatest of the three completes it; every pair an
    # earlier position completed held when that position was assigned
    completed: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for i, row in enumerate(source.table):
        for j, prod in enumerate(row):
            completed[max(i, j, prod)].append((i, j, prod))

    def consistent(k: int) -> bool:
        for i, j, prod in completed[k]:
            if images[prod] != table[images[i]][images[j]]:
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

    extend(0)
    return found


@dataclass(frozen=True)
class CrispSubsetAnalysis:
    is_subgroup: bool
    is_abelian: bool
    is_cyclic: bool


def closure_of(group: FiniteGroup, subset) -> frozenset[int]:
    """The subgroup the subset generates: every product of its elements,
    found by right-multiplying from the identity.  In a finite group an
    inverse is a positive power, so products are enough."""
    generators = frozenset(subset)
    for x in generators:
        if not 0 <= x < group.order:
            raise GroupError(f"subset element {x} is not an element index")
    return frozenset(_products(group.table, group.identity, generators))


# Level sets and kernels of fuzzy subgroups are subgroups (Das 1981), so the
# audit asks about few distinct subsets: analyse each one once.
@lru_cache(maxsize=None)
def _analyze(group: FiniteGroup, subset: frozenset[int]) -> CrispSubsetAnalysis:
    closed = closure_of(group, subset)
    table = group.table
    return CrispSubsetAnalysis(
        is_subgroup=closed == subset,
        is_abelian=all(table[x][y] == table[y][x] for x in closed for y in closed),
        is_cyclic=any(closure_of(group, (x,)) == closed for x in closed),
    )


def analyze_subset(group: FiniteGroup, subset) -> CrispSubsetAnalysis:
    """Subgroup test for a crisp element set, and whether the subgroup it
    generates is abelian, and cyclic (some <x> is all of it).  Each
    (group, subset) is analysed once and its analysis kept.
    """
    return _analyze(group, frozenset(subset))


@lru_cache(maxsize=None)
def all_subgroups(group: FiniteGroup) -> tuple[frozenset[int], ...]:
    """Every subgroup, by cyclic extension: join each known subgroup with each
    cyclic subgroup <x> not inside it until nothing new appears.  A subgroup
    keeps the generators it was found with, so a join closes one more.
    Sorted by (size, elements) for determinism."""
    cyclic = {closure_of(group, (x,)): x for x in range(group.order)}
    generators = {closure_of(group, ()): ()}
    frontier = list(generators)
    while frontier:
        h = frontier.pop()
        for c, x in cyclic.items():
            if not c <= h:
                gens = generators[h] + (x,)
                joined = closure_of(group, gens)
                if joined not in generators:
                    generators[joined] = gens
                    frontier.append(joined)
    return tuple(sorted(generators, key=lambda s: (len(s), sorted(s))))


# --- group file format -----------------------------------------------------
#
#   name: klein4
#   elements: e a b c
#   table:
#   e a b c
#   a e c b
#   b c e a
#   c b a e


def read_sections(text: str, keys: tuple[str, ...], body: str):
    """Split a structured file at its `body:` line, which holds nothing else:
    the `key: value` lines before it as {key: (value, line)}, each one of
    `keys` and given once, and the lines after it as (line, text).  Blank and
    `#` lines are skipped."""
    header, lines = {}, []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if body in header:
            lines.append((lineno, line))
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise FileFormatError(f"expected 'key: value', got {line!r}", line=lineno)
        key = key.strip()
        if key not in keys and key != body:
            raise FileFormatError(f"unknown key {key!r}", line=lineno, field=key)
        if key in header:
            raise FileFormatError(
                f"duplicate key {key!r}, first given on line {header[key][1]}",
                line=lineno, field=key,
            )
        if key == body and value.strip():
            raise FileFormatError(f"text after '{body}:'", line=lineno, field=body)
        header[key] = (value.strip(), lineno)
    return header, lines


def parse_group_file(text: str) -> FiniteGroup:
    header, rows = read_sections(text, ("name", "elements"), "table")
    if "name" not in header:
        raise FileFormatError("missing group name", field="name")
    if "elements" not in header:
        raise FileFormatError("missing element list", field="elements")
    if not rows:
        raise FileFormatError("missing Cayley table", field="table")
    elements = header["elements"][0].split()
    index = {label: i for i, label in enumerate(elements)}
    table = []
    for lineno, row in rows:
        entries = []
        for label in row.split():
            if label not in index:
                raise FileFormatError(
                    f"table entry {label!r} is not a declared element",
                    line=lineno, field="table",
                )
            entries.append(index[label])
        table.append(entries)
    return build_group(header["name"][0], elements, table)


def format_group_file(group: FiniteGroup) -> str:
    lines = [f"name: {group.name}", "elements: " + " ".join(group.elements), "table:"]
    for row in group.table:
        lines.append(" ".join(group.elements[entry] for entry in row))
    return "\n".join(lines) + "\n"
