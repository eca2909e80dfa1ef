"""Spans around calls into qfuzzy's public functions, recorded from outside.

`Tracer.install` replaces each traced function in every qfuzzy module that
binds it: `lab`, `checks`, `fuzzy` and `cli` import names with
`from .x import y`, so wrapping only the defining module would miss their
calls.  Each call records a span (name, parent span, start, end) in flat
arrays; self time is derived from the spans afterwards, and `write` saves
them when the run ends.
"""
from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# (module, function) pairs whose calls become spans.
TRACED = (
    ("groups", "build_group"),
    ("groups", "all_subgroups"),
    ("groups", "enumerate_maps"),
    ("groups", "analyze_subset"),
    ("grades", "parse_grade"),
    ("grades", "format_grade"),
    ("fuzzy", "make_qfuzzy"),
    ("fuzzy", "alpha_restrict"),
    ("fuzzy", "image_subset"),
    ("fuzzy", "preimage_subset"),
    ("fuzzy", "product"),
    ("fuzzy", "level_set"),
    ("fuzzy", "parse_fuzzy_file"),
    ("checks", "check_alpha_subgroup"),
    ("checks", "check_qfuzzy_subgroup"),
    ("checks", "check_anti_subgroup"),
    ("checks", "classify_abelian"),
    ("checks", "classify_cyclic"),
    ("lab", "random_qfuzzy_subgroup"),
    ("lab", "random_qfuzzy"),
    ("lab", "search_counterexample"),
    ("lab", "audit"),
    ("reports", "render_structured"),
    ("cli", "main"),
)

# Pairwise scans each check runs: n^2 |Q| (x, y, q) triples per scan.
PAIR_SCANS = {
    "checks.check_alpha_subgroup": 2,  # closure and quotient
    "checks.check_qfuzzy_subgroup": 1,  # closure
    "checks.check_anti_subgroup": 1,  # anti-closure
}


def _verdict(result) -> bool:
    if hasattr(result, "verdict"):
        return bool(result.verdict)
    return all(slice_.verdict for slice_ in result.values())  # classify_*


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)

    def _name(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(self._name(name))
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, name: str, fn):
        nid = self._name(name)
        count = self._counter(name)

        def traced(*args, **kwargs):
            sid = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if count:
                count(args, result)
            return result

        return traced

    def _counter(self, name: str):
        counts = self.counts
        if name in PAIR_SCANS or name.startswith("checks.classify_"):
            scans = PAIR_SCANS.get(name, 0)

            def count(args, result):
                counts[name + ".passes"] += _verdict(result)
                if scans:
                    phi = args[0]
                    counts["checks.pairs"] += scans * phi.group.order ** 2 * len(phi.q_labels)

            return count
        if name == "fuzzy.make_qfuzzy":
            def count(args, result):
                counts["fuzzy.make_qfuzzy.grades"] += len(result.grades) * len(result.q_labels)

            return count
        if name == "groups.enumerate_maps":
            def count(args, result):
                counts["groups.enumerate_maps.maps"] += len(result)

            return count
        if name == "reports.render_structured":
            def count(args, result):
                counts["reports.render_structured.bytes"] += len(result.encode())

            return count
        return None

    @contextmanager
    def installed(self):
        """Wrap every traced function in every qfuzzy namespace binding it."""
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == "qfuzzy" or name.startswith("qfuzzy.")
        ]
        patched = []
        for module_name, function in TRACED:
            original = getattr(sys.modules[f"qfuzzy.{module_name}"], function)
            wrapper = self._wrap(f"{module_name}.{function}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
        try:
            yield
        finally:
            for module, attr, original in patched:
                setattr(module, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (total minus
        the time its direct children cover)."""
        child = [0] * len(self.start)
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[sid] - self.start[sid]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for sid, nid in enumerate(self.name_id):
            duration = self.end[sid] - self.start[sid]
            entry = out[self.names[nid]]
            entry["calls"] += 1
            entry["total_s"] += duration / 1e9
            entry["self_s"] += (duration - child[sid]) / 1e9
        return out

    def write(self, path: Path) -> None:
        """Save every span as tab-separated `id parent name start_ns end_ns`."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.start[0] if self.start else 0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for sid in range(len(self.start)):
                out.write(
                    f"{sid}\t{self.parent[sid]}\t{self.names[self.name_id[sid]]}\t"
                    f"{self.start[sid] - origin}\t{self.end[sid] - origin}\n"
                )
