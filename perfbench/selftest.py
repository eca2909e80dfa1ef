"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

Checks that the default audit (200 trials) at the fixed seed renders its
recorded digest, that a wrong recorded digest and a flipped expected verdict
each count as a failed operation (a non-zero error rate), and that one seed
gives a byte-identical corpus.  Exits 0 when all hold; the default audit
takes about half a minute.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from corpus import build_corpus  # noqa: E402
from qfuzzy import lab  # noqa: E402
from qfuzzy.reports import render_structured  # noqa: E402
from workloads import FIXED_CONFIG, FIXED_SEED, AuditTrials, CheckFiles, Outcome, sha256  # noqa: E402


def flipped(digest: str) -> str:
    return ("1" if digest[0] == "0" else "0") + digest[1:]


def main() -> int:
    digests = json.loads((HERE / "digests.json").read_text())
    workdir = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    results = {}
    try:
        workdir.mkdir(parents=True)
        default = render_structured(lab.audit(set(lab.CLAIM_ORDER), FIXED_CONFIG))
        results["default audit renders its recorded digest"] = (
            sha256(default) == digests["default-audit"]["sha256"]
        )

        audit = AuditTrials(FIXED_SEED, workdir, digests)
        outcome = Outcome()
        audit.fixed_check(outcome)
        wrong = json.loads(json.dumps(digests))
        wrong["audit-trials"]["sha256"] = flipped(digests["audit-trials"]["sha256"])
        audit.recorded = wrong["audit-trials"]
        audit.fixed_check(outcome)
        results["wrong audit digest fails the audit, the right one does not"] = (
            (outcome.attempted, outcome.failed) == (2, 1)
        )

        files = CheckFiles(FIXED_SEED, workdir / "files", digests)
        files.corpus = [replace(files.corpus[0], expected=not files.corpus[0].expected)] + files.corpus[1:]
        outcome = Outcome()
        files.round(outcome)
        results["flipped verdict fails exactly one file check"] = outcome.failed == 1
        wrong["check-files"]["sha256"] = flipped(digests["check-files"]["sha256"])
        files.recorded = wrong["check-files"]
        outcome = Outcome()
        files.fixed_check(outcome)
        results["wrong output digest of the fixed corpus fails a file check"] = outcome.failed == 1

        first, first_digest = build_corpus(11, workdir / "a")
        second, second_digest = build_corpus(11, workdir / "b")
        results["same seed gives a byte-identical corpus"] = first_digest == second_digest and all(
            a.path.read_bytes() == b.path.read_bytes() for a, b in zip(first, second)
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, ok in results.items():
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
