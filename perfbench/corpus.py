"""The `check-files` corpus: fuzzy-set files and their expected verdicts.

Everything here is the benchmark's own code.  It builds the Cayley tables of
its carriers, draws grades from its own copy of the default pool and decides
each verdict with its own two-condition scan in integer hundredths, so a
change to qfuzzy can change neither the inputs nor the expected answers.
The same seed gives a byte-identical corpus.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

from coldstart import FILE_CARRIERS

# The default grade pool written as decimal literals; every grade is a
# whole number of hundredths.
POOL = ("0", "0.09", "0.1", "0.2", "0.3", "0.4", "0.5", "1")
HUNDREDTHS = {literal: round(float(literal) * 100) for literal in POOL}

Q_SIZES = (1, 2, 3)
KINDS = ("nested", "uniform")
# Every (carrier, |Q|, kind) stratum gets each pool value once as alpha, so
# the mix of passing and failing files, which sets the cost of a pass, is
# the same for every seed.


@dataclass(frozen=True)
class CorpusFile:
    path: Path
    alpha: str
    expected: bool  # verdict of the restricted two-condition check


class Carrier:
    """Z_a x Z_b with elements indexed row-major; b = 1 is the cyclic group Z_a."""

    def __init__(self, spec: str, a: int, b: int):
        self.spec, self.a, self.b = spec, a, b
        self.order = a * b
        if b == 1:
            self.labels = [str(i) for i in range(a)]
        else:
            self.labels = [f"({i},{j})" for i in range(a) for j in range(b)]

    def mul(self, x: int, y: int) -> int:
        b = self.b
        return ((x // b + y // b) % self.a) * b + (x % b + y % b) % b

    def inv(self, x: int) -> int:
        b = self.b
        return ((-(x // b)) % self.a) * b + (-(x % b)) % b

    def power(self, g: int, m: int) -> int:
        x = 0
        for _ in range(m):
            x = self.mul(x, g)
        return x

    def cyclic_subgroup(self, g: int) -> frozenset[int]:
        members, x = {0}, g
        while x != 0:
            members.add(x)
            x = self.mul(x, g)
        return frozenset(members)


def is_alpha_subgroup(carrier: Carrier, columns, alpha: int) -> bool:
    """grade(xy) >= min(grade(x), grade(y)) and grade(x^-1) >= grade(x) for
    every x, y and label, on grades capped at alpha."""
    n = carrier.order
    for column in columns:
        col = [min(g, alpha) for g in column]
        for x in range(n):
            if col[carrier.inv(x)] < col[x]:
                return False
            for y in range(n):
                if col[carrier.mul(x, y)] < min(col[x], col[y]):
                    return False
    return True


def _nested_column(carrier: Carrier, rng: random.Random) -> list[str]:
    # G >= <g> >= <g^m> >= ...: each layer is a cyclic subgroup of the one
    # above, and deeper layers get grades no lower, so every upper level set
    # is a subgroup and the table is a fuzzy subgroup.
    chain = [frozenset(range(carrier.order))]
    g = rng.randrange(carrier.order)
    for _ in range(rng.randint(1, 3)):
        chain.append(carrier.cyclic_subgroup(g))
        g = carrier.power(g, rng.randint(2, 4))
    grades = sorted((rng.choice(POOL) for _ in chain), key=HUNDREDTHS.__getitem__)
    return [
        grades[max(i for i, layer in enumerate(chain) if x in layer)]
        for x in range(carrier.order)
    ]


def _uniform_column(carrier: Carrier, rng: random.Random) -> list[str]:
    return [rng.choice(POOL) for _ in range(carrier.order)]


def _file_text(carrier: Carrier, q_labels, columns) -> str:
    lines = [f"group: {carrier.spec}", "q_labels: " + " ".join(q_labels), "grades:"]
    for x, label in enumerate(carrier.labels):
        for q, column in zip(q_labels, columns):
            lines.append(f"{label} {q} {column[x]}")
    return "\n".join(lines) + "\n"


def build_corpus(seed: int, directory: Path) -> tuple[list[CorpusFile], str]:
    """Write the corpus for `seed` into `directory`; return its files in
    checking order and the sha256 of every file's name, alpha and bytes."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"perfbench|check-files|{seed}")
    carriers = [Carrier(*entry) for entry in FILE_CARRIERS]
    strata = [
        (carrier, q_size, kind, alpha)
        for carrier in carriers
        for q_size in Q_SIZES
        for kind in KINDS
        for alpha in POOL
    ]
    rng.shuffle(strata)
    digest = hashlib.sha256()
    files = []
    for index, (carrier, q_size, kind, alpha) in enumerate(strata):
        q_labels = ["q"] if q_size == 1 else [f"q{k + 1}" for k in range(q_size)]
        make_column = _nested_column if kind == "nested" else _uniform_column
        columns = [make_column(carrier, rng) for _ in q_labels]
        expected = is_alpha_subgroup(
            carrier,
            [[HUNDREDTHS[g] for g in column] for column in columns],
            HUNDREDTHS[alpha],
        )
        path = directory / f"f{index:04d}.fuzzy"
        text = _file_text(carrier, q_labels, columns).encode()
        path.write_bytes(text)
        digest.update(f"{path.name} {alpha}\n".encode() + text)
        files.append(CorpusFile(path, alpha, expected))
    return files, digest.hexdigest()
