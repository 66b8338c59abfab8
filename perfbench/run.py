"""The benchmark of record: end-to-end host time, and a per-layer ledger.

Usage (from the repository root; nothing to build)::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 25 --trace 0

A run builds and runs *episodes* (``workloads.py``) until ``--seconds``
of wall time have passed, each on fresh inputs derived from ``--seed``.
Before the timed window one untimed episode on the first input warms
caches and lazy imports; the timed copy of that episode must reproduce
its result exactly.  Every episode's output is checked, and the
service's first soak is replayed from its journal and must match.

Times are host time in reference seconds (``clock.py``): wall time
divided by a reference loop measured every 50 ms around it, which cancels
the speed drift of a shared machine.  ``--trace 0`` reports what a user
of the system sees, with one timer per scheduling round as the only
instrumentation:

* ``job_ms``       -- host time per submitted job, median over episodes:
  the cost of simulating, or serving, one job;
* ``round_p50_ms`` / ``round_p99_ms`` -- latency of one scheduling
  round (policy decision, actuation, power manager, refresh): the median
  over episodes of each episode's p50 and p99.  Episodes run over a
  thousand rounds each (the fewest is printed), so an episode's p99 has
  ten or more rounds beyond it; the median over episodes keeps one
  episode's storm of heavy rounds from deciding the run;
* ``setup_s``      -- generating an episode's inputs and building its
  engine, median over episodes.

``--trace 1`` runs the same episodes with every layer's entry point
wrapped in a span (``ledger.py``) and reports per-episode self time of
each layer, the untraced remainder -- together they add up to
``episode_ms`` -- and the layers' work counters.  ``episode_ms`` against
``job_ms`` of an untraced run shows the tracing overhead.

The last line of standard output is one JSON object: ``correct``,
``attempted`` (jobs submitted), ``failed`` (jobs not completed plus
requests shed) and ``metrics``.  Snapshots, event traces and journals go
under ``.bench_build/perfbench/`` in the repository root and are removed
at exit.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

from clock import RefClock
from ledger import LAYER_NAMES, Ledger

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: A run always measures at least this many episodes, however long they take.
MIN_EPISODES = 3


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path and import from it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    index = min(len(sorted_values) - 1, max(0, round(q / 100 * (len(sorted_values) - 1))))
    return sorted_values[index]


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    build = workloads.WORKLOADS.get(args.workload)
    if build is None:
        parser.error(f"unknown workload {args.workload!r} (have {', '.join(workloads.WORKLOADS)})")

    work = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    clock = RefClock()
    ledger = Ledger() if args.trace else None
    clock.install()
    if ledger is not None:
        ledger.install(clock)
    try:
        return _measure(args, build, work, clock, ledger, workloads)
    finally:
        if ledger is not None:
            ledger.uninstall()
        clock.uninstall()
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, build, work: Path, clock, ledger, workloads) -> int:
    def seed_of(k: int) -> int:
        return workloads.episode_seed(args.workload, args.seed, k)

    def workdir(name: str) -> str:
        path = work / name
        path.mkdir(parents=True)
        return str(path)

    warm = build(seed_of(0), workdir("warmup"))
    reference = warm.run()
    warm.cleanup()

    problems: List[str] = []
    setups: List[float] = []
    runs: List[float] = []
    round_p50: List[float] = []
    round_p99: List[float] = []
    round_counts: List[int] = []
    outcomes = []
    deadline = time.perf_counter() + args.seconds
    while len(runs) < MIN_EPISODES or time.perf_counter() < deadline:
        k = len(runs)
        path = workdir(f"episode-{k}")
        clock.start()
        episode = build(seed_of(k), path)
        setups.append(clock.stop())
        if ledger is not None:
            ledger.discard()  # spans of set-up are not part of the episode
        clock.start()
        outcome = episode.run()
        runs.append(clock.stop())
        if ledger is not None:
            ledger.keep(scale=runs[-1] / clock.raw_s)
        rounds = sorted(clock.rounds)
        round_counts.append(len(rounds))
        round_p50.append(_percentile(rounds, 50))
        round_p99.append(_percentile(rounds, 99))
        outcomes.append(outcome)
        problems += [f"episode {k}: {p}" for p in episode.check(outcome)]
        if k == 0:
            if outcome.result.canonical() != reference.result.canonical():
                problems.append("episode 0 differs from its warm-up run on the same input")
            if args.workload == "service":
                problems += [
                    f"replay: {p}"
                    for p in workloads.replay_service(seed_of(0), path, outcome.result)
                ]
        episode.cleanup()

    attempted = sum(o.jobs for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    if ledger is not None:
        metrics = _layer_metrics(ledger, runs, outcomes)
        print(ledger.table(sum(runs)))
    else:
        metrics = {
            "job_ms": _metric(
                statistics.median(r / o.jobs * 1e3 for r, o in zip(runs, outcomes)), "ms"
            ),
            "round_p50_ms": _metric(statistics.median(round_p50) * 1e3, "ms"),
            "round_p99_ms": _metric(statistics.median(round_p99) * 1e3, "ms"),
            "setup_s": _metric(statistics.median(setups), "s"),
        }
    print(f"{args.workload}: {len(runs)} episodes, {attempted} jobs, {failed} failed, "
          f"{sum(runs):.2f} reference s measured, fewest rounds in an episode: "
          f"{min(round_counts)}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _layer_metrics(ledger, runs, outcomes) -> Dict[str, Dict[str, object]]:
    """Per-episode means: layer self times, remainder, and work counters."""
    n = len(runs)
    metrics: Dict[str, Dict[str, object]] = {}
    traced = 0.0
    for layer in LAYER_NAMES:
        s = ledger.total_self_s.get(layer, 0.0)
        traced += s
        metrics[f"{layer}_ms"] = _metric(s / n * 1e3, "ms")
    metrics["untraced_ms"] = _metric((sum(runs) - traced) / n * 1e3, "ms")
    metrics["episode_ms"] = _metric(sum(runs) / n * 1e3, "ms")

    results = [o.result for o in outcomes]
    rescored = sum(r.rescore_stats.get("cells_rescored", 0.0) for r in results)
    cells = sum(r.rescore_stats.get("cells_total", 0.0) for r in results)
    hits = sum(r.share_memo_stats.get("hits", 0.0) for r in results)
    solves = hits + sum(r.share_memo_stats.get("misses", 0.0) for r in results)
    counters = {
        "events": sum(r.sim_events for r in results),
        "rounds": ledger.total_calls.get("round", 0),
        "actions": ledger.total_calls.get("actuate", 0),
        "rejected_actions": sum(r.rejected_actions for r in results),
        "cells_rescored": rescored,
        "snapshots": sum(r.checkpoints_written for r in results),
        "journal_records": sum(o.journal_records for o in outcomes),
        "faults_retried": sum(
            r.failed_creations + r.aborted_migrations + r.boot_failures for r in results
        ),
    }
    for name, total in counters.items():
        metrics[name] = _metric(total / n, "count")
    metrics["snapshot_mb"] = _metric(sum(r.checkpoint_bytes for r in results) / n / 1e6, "MB")
    metrics["rescored_pct"] = _metric(100.0 * rescored / cells if cells else 0.0, "%")
    metrics["share_memo_hit_pct"] = _metric(100.0 * hits / solves if solves else 0.0, "%")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
