"""Cold set-up of one workload: import qfuzzy, then build and validate every
group the workload uses, with its subgroup lattice and, for
`audit-trials`, its enumerated maps.

Run as a script it times that set-up in a fresh interpreter, so the
`lru_cache`s on `standard_group`, `direct_product` and `all_subgroups` start
empty, and prints the seconds on stdout:

    python3 perfbench/coldstart.py audit-trials

This module imports nothing but `sys`, `time` and `pathlib` before the timer
starts, so the import of qfuzzy and the standard-library modules it pulls in
are part of the measurement.
"""
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Carriers of `check-files`, as (spec, left order, right order); a right order
# of 1 is a cyclic group.  Cyclic groups and their products have Cayley
# tables the benchmark computes itself, so its expected verdicts do not rest
# on the catalog code under test.  Orders 4 to 48.
FILE_CARRIERS = (
    ("cyclic4", 4, 1),
    ("cyclic2xcyclic2", 2, 2),
    ("cyclic6", 6, 1),
    ("cyclic8", 8, 1),
    ("cyclic2xcyclic4", 2, 4),
    ("cyclic12", 12, 1),
    ("cyclic2xcyclic6", 2, 6),
    ("cyclic16", 16, 1),
    ("cyclic4xcyclic4", 4, 4),
    ("cyclic24", 24, 1),
    ("cyclic2xcyclic12", 2, 12),
    ("cyclic48", 48, 1),
    ("cyclic4xcyclic12", 4, 12),
)


def cold_setup(workload: str) -> None:
    """Fill the program's caches for `workload`; the first call in a process
    is the cold set-up that `setup_s` measures."""
    from qfuzzy.groups import all_subgroups, enumerate_maps, standard_group, MAP_KINDS
    from qfuzzy.lab import AuditConfig
    import qfuzzy.cli  # noqa: F401  (the entry point the workloads call)

    if workload == "audit-trials":
        config = AuditConfig()
        pairs = config.map_pairs + config.product_pairs
        names = set(config.catalog)
        names.update(name for pair in pairs for name in pair)
        names.update(f"{left}x{right}" for left, right in config.product_pairs)
        for name in sorted(names):
            all_subgroups(standard_group(name))
        for left, right in config.map_pairs:
            for kind in MAP_KINDS:
                enumerate_maps(
                    standard_group(left), standard_group(right), kind, config.max_source
                )
    elif workload == "check-files":
        # `fuzzy check` never asks for a subgroup lattice.
        for spec, _, _ in FILE_CARRIERS:
            standard_group(spec)
    else:
        raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    cold_setup(sys.argv[1])
    print(repr(time.perf_counter() - start))
