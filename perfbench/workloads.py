"""The two workloads and their correctness gates.

Each workload is a closed loop with one caller.  A round is one unit of work
at the run's seed, split into steps that are timed one by one: the default
audit shard by shard (claim by claim, and carrier by carrier or map pair by
map pair where a claim iterates over them), or one pass over a fuzzy-file
corpus, file by file.  The run repeats the round, and every round must give
the same output as the first.

An operation (one audit round, or one file check) fails if it raises, exits
with an unexpected code, or produces output that does not match its
reference.  The recorded digests in `digests.json` are the references at the
fixed seed; there is no flag that accepts a changed digest.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import time
from dataclasses import replace
from pathlib import Path

import qfuzzy.cli
import qfuzzy.reports
from qfuzzy import lab

from corpus import build_corpus

FIXED_SEED = 7
FIXED_CONFIG = lab.AuditConfig(seed=FIXED_SEED)  # the default audit
# Trials per claim and carrier in `audit-trials`: a shard then takes
# milliseconds, so a run repeats each one tens of times.
TRIALS = 10
# The bounded searches: each is one call of seconds that cannot be split,
# and neither reads the seed.  `audit-trials` runs them untimed.
SEARCH_CLAIMS = ("R4.3", "R4.9")

# AuditConfig field each claim iterates over; a shard audits one item of it.
# R4.3 and R4.9 search the whole catalog and run whole.
SHARD_FIELD = {
    **dict.fromkeys(("P3.3", "P4.2", "P4.6", "P4.7", "P4.8", "P4.11", "P4.12"), "catalog"),
    **dict.fromkeys(("P3.4", "P5.2", "P5.4", "P5.7", "P5.8", "P5.10", "P5.11"), "map_pairs"),
    **dict.fromkeys(("P4.14", "P4.15", "R4.16"), "product_pairs"),
}


class Outcome:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        """Count one operation, failed if it showed any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.note(problems)

    def flag(self, problem: str) -> None:
        """Fail one more of the operations already attempted: a digest over
        many of them did not match."""
        self.failed = min(self.failed + 1, self.attempted)
        self.note([problem])

    def note(self, problems: list[str]) -> None:
        self.problems.extend(problems[: max(0, 10 - len(self.problems))])


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@contextlib.contextmanager
def capture_searches(witnesses: list):
    """Keep every search witness the audit finds, for `validate_witness`."""
    search = lab.search_counterexample

    def capturing(claim_id, config=None):
        witness = search(claim_id, config)
        witnesses.append((claim_id, witness))
        return witness

    lab.search_counterexample = capturing
    try:
        yield
    finally:
        lab.search_counterexample = search


def audit_problems(reports, witnesses) -> list[str]:
    problems = []
    for report in reports:
        if report.prop_id in lab.EXPECTED_VERIFIED and report.failures:
            problems.append(f"{report.prop_id} on {report.carrier}: expected-verified claim failed")
        for record in report.failures:
            if not lab.replay_failure(record):
                problems.append(f"{report.prop_id} trial {record.get('trial')}: replay passes")
    for claim_id, witness in witnesses:
        if witness is None or not lab.validate_witness(witness):
            problems.append(f"{claim_id}: search witness missing or invalid")
    return problems


def shards(config: lab.AuditConfig):
    """(claim, shard label, config) for every claim, split where the claim
    iterates over a config field.  Audited in this order, the shards'
    reports concatenate to the whole audit's."""
    for claim in lab.CLAIM_ORDER:
        field_name = SHARD_FIELD.get(claim)
        if field_name is None:
            yield claim, "search", config
            continue
        for item in getattr(config, field_name):
            label = item if isinstance(item, str) else "->".join(item)
            yield claim, label, replace(config, **{field_name: (item,)})


class AuditTrials:
    """The trial-run claims of the default audit at the run's seed: every
    claim but the two searches, over the default catalog, map pairs and
    product pairs, TRIALS trials a shard, audited shard by shard."""

    name = "audit-trials"

    def __init__(self, seed: int, workdir: Path, digests: dict):
        self.recorded = digests[self.name]
        config = lab.AuditConfig(seed=seed, trials=TRIALS)
        self.shards = [shard for shard in shards(config) if shard[0] not in SEARCH_CLAIMS]
        self.searches = [shard for shard in shards(config) if shard[0] in SEARCH_CLAIMS]
        self.digest = None  # of the first round; every later round must match

    def round(self, outcome: Outcome) -> list[float] | None:
        """One audit, timed per shard and for the structured render; None if
        it raised."""
        times, reports = [], []
        try:
            for claim, _, config in self.shards:
                start = time.perf_counter()
                reports.extend(lab.audit({claim}, config))
                times.append(time.perf_counter() - start)
            start = time.perf_counter()
            text = qfuzzy.reports.render_structured(reports)
            times.append(time.perf_counter() - start)
        except Exception as exc:  # a raising operation is a failed one
            outcome.record([f"raised {type(exc).__name__}: {exc}"])
            return None
        outcome.record(self.problems(text, reports))
        return times

    def problems(self, text: str, reports) -> list[str]:
        digest = sha256(text)
        if self.digest is None:
            self.digest = digest
            return audit_problems(reports, [])
        return [] if digest == self.digest else [f"round digest {digest} != first round's"]

    def fixed_check(self, outcome: Outcome) -> None:
        """One untimed audit of every claim, the searches too, at the fixed
        seed; it must render the recorded digest."""
        witnesses: list = []
        try:
            with capture_searches(witnesses):
                reports = lab.audit(set(lab.CLAIM_ORDER), replace(FIXED_CONFIG, trials=TRIALS))
            problems = audit_problems(reports, witnesses)
            digest = sha256(qfuzzy.reports.render_structured(reports))
            if digest != self.recorded["sha256"]:
                problems.append(f"seed {FIXED_SEED}: digest {digest} != recorded {self.recorded['sha256']}")
        except Exception as exc:
            problems = [f"raised {type(exc).__name__}: {exc}"]
        outcome.record(problems)

    def traced_round(self, tracer, outcome: Outcome):
        """The round with tracing on, which must render the same digest as
        the untraced one, then the searches.  Returns (wall s of the round,
        reports of both)."""
        reports, witnesses = [], []
        wall = 0.0
        try:
            with capture_searches(witnesses), tracer.installed():
                start = time.perf_counter()
                for claim, label, config in self.shards:
                    with tracer.span(f"shard {claim} {label}"):
                        reports.extend(lab.audit({claim}, config))
                text = qfuzzy.reports.render_structured(reports)
                wall = time.perf_counter() - start
                problems = self.problems(text, reports)
                for claim, label, config in self.searches:
                    with tracer.span(f"shard {claim} {label}"):
                        reports.extend(lab.audit({claim}, config))
            outcome.record(problems + audit_problems(reports[-len(self.searches):], witnesses))
        except Exception as exc:
            outcome.record([f"raised {type(exc).__name__}: {exc}"])
        return wall, reports


class CheckFiles:
    """`qfuzzy fuzzy check PATH --alpha A` in-process over the corpus the
    run's seed generates; the exit code must equal the benchmark's own
    verdict."""

    name = "check-files"

    def __init__(self, seed: int, workdir: Path, digests: dict):
        self.recorded = digests[self.name]
        self.corpus, _ = build_corpus(seed, workdir / f"corpus-{seed}")
        self.workdir = workdir
        self.digest = None  # of the first pass; every later pass must match
        self.latencies: list[float] = []

    def check_file(self, entry, outcome: Outcome, digest) -> float:
        stdout, stderr = io.StringIO(), io.StringIO()
        argv = ["fuzzy", "check", str(entry.path), "--alpha", entry.alpha]
        problems = []
        code = None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                code = qfuzzy.cli.main(argv)
            except Exception as exc:
                problems.append(f"{entry.path.name}: raised {type(exc).__name__}: {exc}")
            latency = time.perf_counter() - start
        output = stdout.getvalue()
        verdict = "true" if entry.expected else "false"
        if code is not None and (code != (0 if entry.expected else 1)
                                 or not output.startswith(f"verdict: {verdict}\n")):
            problems.append(
                f"{entry.path.name}: exit {code}, expected verdict {verdict}: "
                f"{(output or stderr.getvalue()).splitlines()[:1]}"
            )
        outcome.record(problems)
        digest.update(f"{entry.path.name} {code}\n{output}".encode())
        return latency

    def round(self, outcome: Outcome) -> list[float]:
        """One pass over the corpus, timed per file."""
        digest = hashlib.sha256()
        times = [self.check_file(entry, outcome, digest) for entry in self.corpus]
        self.latencies.extend(times)
        self.compare(digest.hexdigest(), outcome)
        return times

    def compare(self, digest: str, outcome: Outcome) -> None:
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            outcome.flag(f"pass digest {digest} != first pass's")

    def fixed_check(self, outcome: Outcome) -> None:
        """One untimed pass over the fixed seed's corpus; the corpus and the
        outputs must match their recorded digests."""
        corpus, corpus_digest = build_corpus(FIXED_SEED, self.workdir / f"corpus-{FIXED_SEED}")
        digest = hashlib.sha256()
        for entry in corpus:
            self.check_file(entry, outcome, digest)
        if corpus_digest != self.recorded["corpus_sha256"]:
            outcome.flag(f"seed {FIXED_SEED}: corpus digest {corpus_digest} != recorded")
        if digest.hexdigest() != self.recorded["sha256"]:
            outcome.flag(f"seed {FIXED_SEED}: output digest {digest.hexdigest()} != recorded")

    def traced_round(self, tracer, outcome: Outcome):
        digest = hashlib.sha256()
        start = time.perf_counter()
        with tracer.installed():
            for entry in self.corpus:
                self.check_file(entry, outcome, digest)
        wall = time.perf_counter() - start
        self.compare(digest.hexdigest(), outcome)
        return wall, []


WORKLOADS = {cls.name: cls for cls in (AuditTrials, CheckFiles)}
