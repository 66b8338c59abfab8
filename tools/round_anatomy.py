#!/usr/bin/env python
"""Per-round latency of a benchmark workload, broken down by round kind.

Runs a fixed set of episodes of one ``perfbench`` workload (episodes
``0..N-1`` of seed ``SEED``, the inputs ``perfbench/run.py --seed 1``
would give them) after an untimed warm-up copy of episode 0, and times
every scheduling round (``DatacenterSimulation._round``) in reference
milliseconds, with ``perfbench/clock.py``'s clock and
``perfbench/run.py``'s percentile, as ``round_p50_ms`` and
``round_p99_ms`` are timed.  Each round is classed by the columns its
policy decision bound:

* ``consolidation`` -- the round considered migrating running VMs (a
  consolidation pass is due, or an SLA violator forces one) and some
  running VM took part;
* ``one-arrival``   -- exactly one column, a queued VM;
* ``empty-queue``   -- no column at all;
* ``other``         -- everything else (several queued VMs at once).

It prints each kind's count, share of the total round time, median and
p99, and the kinds of the slowest 1 % of rounds.  Exits 1 when an
episode fails its own checks or the kinds do not add up to the round
count.

Usage (from the repository root; nothing to build)::

    python tools/round_anatomy.py --workload paper --episodes 3
    python tools/round_anatomy.py --workload chaos --episodes 3 --tree /path/to/other/checkout

``--tree`` measures another checkout's ``src`` with its own
``perfbench/workloads.py``, clock and percentile (default: this
repository).  Nothing under ``perfbench/`` is edited; its modules are
imported as they are.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

KINDS = ("consolidation", "one-arrival", "empty-queue", "other")

#: The seed whose episodes are run: the fixed episode set.
SEED = 1


def classify(n_columns: int, with_running: bool) -> str:
    """The kind of a round from its decision's column count and whether a
    running VM was among them."""
    if not n_columns:
        return "empty-queue"
    if with_running:
        return "consolidation"
    if n_columns == 1:
        return "one-arrival"
    return "other"


class RoundProbe:
    """Records the kind of every round while installed."""

    def __init__(self) -> None:
        #: The kind of every round, in order; ``None`` for a round whose
        #: policy bound no columns list.
        self.kinds: List[Optional[str]] = []
        self._kind: Optional[str] = None
        self._undo: List = []

    def install(self) -> None:
        from repro.cluster.vm import VmState
        from repro.engine.datacenter import DatacenterSimulation
        from repro.scheduling.score.policy import ScoreBasedPolicy

        probe = self
        original_round = DatacenterSimulation.__dict__["_round"]
        original_columns = ScoreBasedPolicy.__dict__["_columns"]

        @functools.wraps(original_round)
        def classed_round(engine):
            probe._kind = None
            try:
                return original_round(engine)
            finally:
                probe.kinds.append(probe._kind)

        @functools.wraps(original_columns)
        def seen_columns(policy, ctx, *, include_running=True):
            columns = original_columns(policy, ctx, include_running=include_running)
            # The decision's call comes first; the power manager's
            # shutdown ranking may ask again later in the round.
            if probe._kind is None:
                probe._kind = classify(
                    len(columns),
                    include_running
                    and any(vm.state is not VmState.QUEUED for vm in columns),
                )
            return columns

        DatacenterSimulation._round = classed_round
        ScoreBasedPolicy._columns = seen_columns
        self._undo = [
            lambda: setattr(DatacenterSimulation, "_round", original_round),
            lambda: setattr(ScoreBasedPolicy, "_columns", original_columns),
        ]

    def uninstall(self) -> None:
        for undo in self._undo:
            undo()
        self._undo = []


def summarize(
    rounds: List[Tuple[float, Optional[str]]], percentile: Callable[[List[float], float], float]
) -> Dict[str, object]:
    """Per-kind count, time share, median and p99 (ms), and the kinds of
    the slowest 1 % of rounds, with ``percentile`` (perfbench's
    nearest-rank percentile of an ascending list)."""
    total = sum(s for s, _ in rounds)
    kinds: Dict[str, Dict[str, float]] = {}
    for kind in KINDS:
        times = sorted(s for s, k in rounds if k == kind)
        kinds[kind] = {
            "count": len(times),
            "share_pct": 100.0 * sum(times) / total if total else 0.0,
            "p50_ms": percentile(times, 50) * 1e3 if times else 0.0,
            "p99_ms": percentile(times, 99) * 1e3 if times else 0.0,
        }
    n_top = math.ceil(len(rounds) / 100)
    slowest = sorted(rounds, key=lambda r: r[0], reverse=True)[:n_top]
    all_times = sorted(s for s, _ in rounds)
    return {
        "rounds": len(rounds),
        "kinds": kinds,
        "top": Counter(k for _, k in slowest),
        "n_top": n_top,
        "p50_ms": percentile(all_times, 50) * 1e3 if rounds else 0.0,
        "p99_ms": percentile(all_times, 99) * 1e3 if rounds else 0.0,
    }


def format_table(workload: str, episodes: int, summary: Dict[str, object]) -> List[str]:
    lines = [
        f"{workload}: {summary['rounds']} rounds over {episodes} episode(s), "
        f"p50 {summary['p50_ms']:.3f} ms, p99 {summary['p99_ms']:.3f} ms (reference), "
        f"top 1 %: the {summary['n_top']} slowest rounds",
        f"{'kind':<14} {'count':>6} {'share':>7} {'p50 ms':>8} {'p99 ms':>8} {'top 1 %':>8}",
    ]
    for kind in KINDS:
        row = summary["kinds"][kind]
        lines.append(
            f"{kind:<14} {row['count']:>6} {row['share_pct']:>6.1f}% "
            f"{row['p50_ms']:>8.3f} {row['p99_ms']:>8.3f} "
            f"{summary['top'].get(kind, 0):>8}"
        )
    return lines


def perfbench(tree: Path):
    """``tree``'s perfbench workloads module, clock class and percentile,
    with ``tree``'s ``src`` as the program they import."""
    saved = list(sys.path)
    sys.path[:0] = [str(tree / "perfbench"), str(tree / "src")]
    try:
        import workloads
        from clock import RefClock
        from run import _percentile
    finally:
        sys.path[:] = saved
    return workloads, RefClock, _percentile


def run(workload: str, episodes: int, tree: Path) -> Tuple[Dict[str, object], List[str]]:
    """Run ``episodes`` episodes under the probe; the summary and problems."""
    workloads, RefClock, _percentile = perfbench(tree)

    build = workloads.WORKLOADS.get(workload)
    if build is None:
        raise SystemExit(
            f"round_anatomy: unknown workload {workload!r} (have {', '.join(workloads.WORKLOADS)})"
        )
    clock = RefClock()
    probe = RoundProbe()
    rounds: List[Tuple[float, Optional[str]]] = []
    problems: List[str] = []
    with tempfile.TemporaryDirectory(prefix="round_anatomy-") as work:

        def episode_of(k: int, name: str):
            path = Path(work) / name
            path.mkdir()
            return build(workloads.episode_seed(workload, SEED, k), str(path))

        # An untimed copy of episode 0 first warms caches and lazy imports.
        warm = episode_of(0, "warmup")
        warm.run()
        warm.cleanup()
        # The clock times each round; the probe, wrapped around it,
        # records each round's kind in the same order.
        clock.install()
        probe.install()
        try:
            for k in range(episodes):
                episode = episode_of(k, f"episode-{k}")
                probe.kinds = []
                clock.start()
                outcome = episode.run()
                clock.stop()
                problems += [f"episode {k}: {p}" for p in episode.check(outcome)]
                if len(clock.rounds) != len(probe.kinds):
                    problems.append(
                        f"episode {k}: {len(clock.rounds)} rounds timed, "
                        f"{len(probe.kinds)} seen"
                    )
                rounds += zip(clock.rounds, probe.kinds)
                episode.cleanup()
        finally:
            probe.uninstall()
            clock.uninstall()
    summary = summarize(rounds, _percentile)
    by_kind = sum(row["count"] for row in summary["kinds"].values())
    if by_kind != summary["rounds"] or not by_kind:
        problems.append(f"round kinds add up to {by_kind}, {summary['rounds']} rounds ran")
    return summary, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--episodes", type=int, default=3)
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="checkout whose src/ and perfbench/workloads.py to run")
    args = parser.parse_args(argv)
    if args.episodes < 1:
        parser.error("--episodes must be at least 1")
    summary, problems = run(args.workload, args.episodes, args.tree.resolve())
    for line in format_table(args.workload, args.episodes, summary):
        print(line)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
