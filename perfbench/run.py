"""qfuzzy benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/`.  With `--trace 0` the run prints the end-to-end metrics named in
`BENCHMARK.json`; with `--trace 1` it runs untraced rounds and one traced
round and prints the per-layer metrics.  The last line of stdout is the result
object; the line before it holds the details (round times and counts, check
latencies, problems and the run record).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Cold set-ups, each in a fresh interpreter: at least three, and more until
# this many seconds have gone, since a cheap set-up is mostly import time and
# varies by tens of percent from one interpreter to the next.
SETUP_PROBE_S = 3.0
MIN_ROUNDS = 2  # a step's least time needs two rounds at least
UNTRACED_ROUNDS = 3  # in a traced run, to set against the traced round


def steal_ticks() -> int | None:
    """Steal ticks summed over all CPUs, from /proc/stat (read only)."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def probe_setup(workload: str) -> float:
    done = subprocess.run(
        [sys.executable, str(HERE / "coldstart.py"), workload],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def timed_run(workload, seconds: float, outcome) -> tuple[dict, dict]:
    """Repeat the workload's round for `seconds`, at least MIN_ROUNDS times.
    `wall_s` is the round with every step at its fastest: the sum over steps
    of each step's least time across the rounds."""
    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        times = workload.round(outcome)
        if times is not None:
            rounds.append(times)
        elif time.perf_counter() - start > seconds:
            break
    totals = [sum(times) for times in rounds]
    values = {"wall_s": sum(min(step) for step in zip(*rounds)) if rounds else 0.0}
    detail = {
        "rounds": len(rounds),
        "steps": len(rounds[0]) if rounds else 0,
        "round_s": totals,
        "round_s_quartiles": statistics.quantiles(totals, n=4) if len(totals) > 1 else totals,
    }
    latencies = getattr(workload, "latencies", None)
    if latencies:
        cuts = statistics.quantiles(latencies, n=100)
        detail.update(
            check_p50_ms=cuts[49] * 1e3,
            check_p99_ms=cuts[98] * 1e3,
            check_samples=len(latencies),
            check_beyond_p99=sum(x > cuts[98] for x in latencies),
        )
    return values, detail


def traced_run(workload, seed: int, outcome) -> tuple[dict, dict]:
    """Untraced rounds, then one round with spans around qfuzzy's public
    functions; the per-layer metrics come from the spans.  The untraced
    figures are the fastest of UNTRACED_ROUNDS rounds."""
    from spans import PAIR_SCANS, TRACED, Tracer
    from qfuzzy.lab import CLAIM_ORDER

    untraced = []
    for _ in range(UNTRACED_ROUNDS):
        cpu = time.process_time()
        wall = sum(workload.round(outcome) or [])
        untraced.append((wall, time.process_time() - cpu))
    untraced_wall, cpu = min(untraced)
    tracer = Tracer()
    traced_wall, reports = workload.traced_round(tracer, outcome)
    spans = tracer.summary()
    counts = tracer.counts
    values = {
        "proc.wall_s": untraced_wall,
        "proc.cpu_s": cpu,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    for module, function in TRACED:
        name = f"{module}.{function}"
        span = spans.get(name, zero)
        values[f"{name}.calls"] = span["calls"]
        values[f"{name}.self_s"] = span["self_s"]
        if module == "checks":
            values[f"{name}.pass_ratio"] = counts[f"{name}.passes"] / max(span["calls"], 1)
    values["lab.self_s"] = values.pop("lab.audit.self_s")
    del values["lab.audit.calls"]
    scan_s = sum(spans.get(name, zero)["self_s"] for name in PAIR_SCANS)
    values["checks.pairs"] = counts["checks.pairs"]
    values["checks.ns_per_pair"] = scan_s * 1e9 / max(counts["checks.pairs"], 1)
    for key in ("fuzzy.make_qfuzzy.grades", "groups.enumerate_maps.maps",
                "reports.render_structured.bytes"):
        values[key] = counts[key]
    shard_s = {name: span["total_s"] for name, span in spans.items()
               if name.startswith("shard ")}
    for claim in CLAIM_ORDER:
        values[f"lab.claim.{claim}.wall_s"] = sum(
            s for name, s in shard_s.items() if name.split()[1] == claim
        )
    values["lab.shard.max_s"] = max(shard_s.values(), default=0.0)
    attempted = sum(r.trials + r.filtered for r in reports)
    values["lab.evaluated_ratio"] = sum(r.trials for r in reports) / max(attempted, 1)
    spans_path = ROOT / ".bench_out" / f"spans-{workload.name}-seed{seed}.tsv.gz"
    tracer.write(spans_path)
    detail = {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "spans": len(tracer.start),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return values, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (SRC / "qfuzzy" / "__init__.py").is_file():
        print(f"no qfuzzy sources under {SRC}", file=sys.stderr)
        return 2
    steal_start = steal_ticks()

    setup_samples = []
    start = time.perf_counter()
    while not args.trace and (
        len(setup_samples) < 3 or time.perf_counter() - start < SETUP_PROBE_S
    ):
        setup_samples.append(probe_setup(args.workload))
    sys.path.insert(0, str(SRC))
    from coldstart import cold_setup

    start = time.perf_counter()
    cold_setup(args.workload)
    main_setup_s = time.perf_counter() - start
    import qfuzzy
    if Path(qfuzzy.__file__).resolve().parent != SRC / "qfuzzy":
        print(f"qfuzzy imported from {qfuzzy.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Outcome

    digests = json.loads((HERE / "digests.json").read_text())
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    outcome = Outcome()
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, digests)
        if args.trace:
            values, detail = traced_run(workload, args.seed, outcome)
            metrics = declared["per_layer"]
        else:
            values, detail = timed_run(workload, args.seconds, outcome)
            values["setup_s"] = statistics.median(setup_samples)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            detail.update(setup_s_samples=setup_samples)
            metrics = declared["end_to_end"]
        workload.fixed_check(outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    steal_end = steal_ticks()
    detail.update(
        workload=args.workload,
        seed=args.seed,
        main_setup_s=main_setup_s,
        error_rate=outcome.failed / max(outcome.attempted, 1),
        problems=outcome.problems,
        record={
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "qfuzzy": qfuzzy.__version__,
            "commit": git_commit(),
            "steal_ticks": None if steal_start is None or steal_end is None
            else steal_end - steal_start,
            "clock_ticks_per_s": os.sysconf("SC_CLK_TCK"),
        },
    )
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics
        },
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
