"""Deterministic text and structured rendering of audit reports.

Structured output is canonical JSON (sorted keys, fixed separators, trailing
newline) so that two identical audit runs produce byte-identical files.
"""
from __future__ import annotations

import json

from .lab import AuditReport

_COLUMNS = ("claim", "carrier", "trials", "passes", "filtered", "failures", "status")


def render_text(reports: list[AuditReport]) -> str:
    rows = [
        (
            r.prop_id,
            r.carrier,
            str(r.trials),
            str(r.passes),
            str(r.filtered),
            str(len(r.failures)),
            r.status,
        )
        for r in reports
    ]
    widths = [
        max(len(header), *(len(row[i]) for row in rows)) if rows else len(header)
        for i, header in enumerate(_COLUMNS)
    ]

    def line(cells):
        return "  ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip()

    out = [line(_COLUMNS), line(tuple("-" * w for w in widths))]
    for report, row in zip(reports, rows):
        out.append(line(row))
        if report.notes:
            out.append(f"    note: {report.notes}")
        for failure in report.failures:
            out.append(f"    failure: {json.dumps(failure, sort_keys=True)}")
    return "\n".join(out) + "\n"


def render_structured(reports: list[AuditReport]) -> str:
    # a report's fields are strings, ints and JSON-ready failure records, so
    # its attribute dict renders as it is, without a deep copy
    payload = {"reports": [vars(r) for r in reports]}
    return json.dumps(payload, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
