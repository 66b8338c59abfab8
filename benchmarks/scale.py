"""Scale benchmark: hyperscale host counts on the streaming workload feed.

Where :mod:`macro` guards the paper-sized run (100 hosts, one synthetic
week), this gate exercises the columnar kernel at datacenter scales the
materialized pipeline cannot reach: 1 000–10 000 hosts driven by a
*streaming* synthetic feed (:meth:`Grid5000WeekGenerator.stream`), so job
objects live only while their VM is active and memory stays flat as the
job count grows.

Each sweep point runs in a **fresh subprocess** so its ``ru_maxrss`` is an
isolated, comparable measurement rather than the running maximum of the
whole sweep.  Three classes of check:

* **throughput** — events per reference second, timed by each child
  run itself with perfbench's ``RefClock`` as the macro gate is, must
  not fall below baseline by more than the tolerance;
* **determinism** — simulation outputs (energy, CPU hours, migrations,
  completions, event count) must match the baseline exactly at equal
  (hosts, jobs, seed): the scale path must not change semantics;
* **memory flatness** — within one sweep, points sharing a host count and
  kernel but differing in job count must have near-equal peak RSS
  (default: ≤ 1.30×).  The streaming engine retains only 4 scalars
  (32 bytes) per retired job for the exact SLA/wait statistics, so RSS is
  dominated by host/VM state, not total jobs.

Usage::

    PYTHONPATH=src python benchmarks/scale.py \
        --sweep 1000x3400,1000x10300 --out BENCH_scale.json \
        --check-against benchmarks/baselines/BENCH_scale_smoke.json

The 10k-host acceptance run (minutes, not CI)::

    PYTHONPATH=src python benchmarks/scale.py --sweep 10000x100000

The 100k-host rung (tens of minutes; committed baseline in
``baselines/BENCH_scale_100k.json``)::

    PYTHONPATH=src python benchmarks/scale.py \
        --sweep 100000x100000,100000x200000

Untagged points run the persistent cross-round score matrix; rows carry
the engine's share-memo counters (``share_memo_*`` fields).  A sweep
point may carry the ``service`` kernel tag: ``1000x3400:service`` runs the same workload through the live
control-plane service (:mod:`repro.service`) — every job admitted
individually through the journaled admit/settle path — and reports
``decisions_per_ref_s`` plus wall-clock decision-latency percentiles
(``latency_p50_ms``/``latency_p99_ms``) alongside the usual
determinism fields, so service-mode regressions gate like any other
kernel.
Rows carry the persistent matrix's rescore counters (``rescore_*``
fields) so a throughput regression can be attributed to cells rescored
rather than guessed at.  ``--profile``
wraps each child run in cProfile and saves ``.prof`` artifacts next to
the report (CI uploads them on regression).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from macro import DETERMINISM_FIELDS, ref_clock  # noqa: E402  (path bootstrap above)

SCHEMA = "repro-scale-bench/2"

#: Jobs generated by one synthetic week at the default 45 jobs/h peak
#: rate with the paper seed (measured; deterministic).  Sweep points
#: request a job count and the arrival rate is scaled linearly from
#: this anchor, so the requested count is hit to within thinning noise.
JOBS_AT_BASE_RATE = 3435
BASE_RATE_PER_HOUR = 45.0

_RESULT_MARKER = "SCALE_RESULT "


def _scaled_cluster(n_hosts: int):
    """The paper datacenter grown to ``n_hosts``, keeping class ratios."""
    from repro.cluster.spec import ClusterSpec

    n_fast = max(1, round(n_hosts * 0.15))
    n_slow = max(1, round(n_hosts * 0.35))
    n_medium = max(1, n_hosts - n_fast - n_slow)
    return ClusterSpec.paper_datacenter(
        n_fast=n_fast, n_medium=n_medium, n_slow=n_slow
    )


#: Kernel tags a sweep point may carry (``""`` = persistent matrix in
#: the batch engine; ``service`` = the live control plane).
KINDS = ("", "service")


def run_point(
    n_hosts: int,
    jobs_target: int,
    seed: int,
    kind: str,
    checkpoint_dir: Optional[str] = None,
    checkpoint_interval_s: Optional[float] = None,
    restore: bool = False,
) -> Dict:
    """Run one sweep point in-process and return its raw measurements."""
    from repro.engine.config import EngineConfig
    from repro.engine.datacenter import simulate
    from repro.experiments.common import lambda_config
    from repro.scheduling.score import ScoreConfig
    from repro.scheduling.score.policy import ScoreBasedPolicy
    from repro.units import WEEK
    from repro.workload.synthetic import Grid5000WeekGenerator, SyntheticConfig

    rate = BASE_RATE_PER_HOUR * jobs_target / JOBS_AT_BASE_RATE
    cfg = SyntheticConfig(horizon_s=WEEK, base_rate_per_hour=rate)
    if kind == "service":
        return _run_service_point(n_hosts, jobs_target, seed, cfg)
    stream = Grid5000WeekGenerator(cfg, seed=seed).stream()
    policy = ScoreBasedPolicy(ScoreConfig.sb())
    with ref_clock() as clock:
        clock.start()
        res = simulate(
            cluster=_scaled_cluster(n_hosts),
            policy=policy,
            trace=stream,
            pm_config=lambda_config(),
            config=EngineConfig(
                seed=seed,
                checkpoint_dir=checkpoint_dir,
                checkpoint_sim_interval_s=(
                    checkpoint_interval_s if checkpoint_dir else None
                ),
            ),
            restore=restore,
        )
        ref_s = clock.stop()
    row = _row(res, n_hosts, jobs_target, kind, ref_s, clock.raw_s)
    stats = res.rescore_stats
    if stats:
        for fld in ("binds", "cells_rescored", "cells_total", "full_rebuilds"):
            row[f"rescore_{fld}"] = stats[fld]
        row["matrix_nbytes"] = stats.get("matrix_nbytes", 0.0)
        row["matrix_capacity"] = stats.get("capacity", 0.0)
        if stats["cells_rescored"]:
            row["rescore_savings_x"] = round(
                stats["cells_total"] / stats["cells_rescored"], 2
            )
        row["rescore_hist"] = {
            k: v for k, v in sorted(stats.items()) if k.startswith("dirty_")
        }
    memo = res.share_memo_stats
    if memo:
        for fld in ("hits", "misses", "entries"):
            row[f"share_memo_{fld}"] = memo[fld]
        solves = memo["hits"] + memo["misses"]
        if solves:
            row["share_memo_hit_rate"] = round(memo["hits"] / solves, 4)
    return row


def _row(res, n_hosts: int, jobs_target: int, kind: str,
         ref_s: float, wall_s: float) -> Dict:
    """The fields every sweep point reports: the point, its timing and
    peak RSS, the simulation outputs and the snapshot counters."""
    import resource

    return {
        "hosts": n_hosts,
        "jobs_target": jobs_target,
        "kind": kind,
        "n_jobs": res.n_jobs,
        "ref_s": ref_s,
        "wall_clock_s": wall_s,
        "events_per_ref_s": res.sim_events / ref_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        **{fld: getattr(res, fld) for fld in DETERMINISM_FIELDS},
        "checkpoints_written": res.checkpoints_written,
        "checkpoint_bytes": res.checkpoint_bytes,
        "snapshot_restores": res.snapshot_restores,
    }


def _run_service_point(
    n_hosts: int, jobs_target: int, seed: int, cfg
) -> Dict:
    """One sweep point through the live control-plane service.

    The same synthetic week, admitted job by job through the journaled
    admit/settle path (journal on a temp file so its write cost is
    measured), then drained.  Decision latency percentiles come from the
    service's own wall-clock measurements.
    """
    import tempfile

    from repro.engine.config import EngineConfig
    from repro.engine.datacenter import DatacenterSimulation
    from repro.experiments.common import lambda_config
    from repro.scheduling.score import ScoreConfig
    from repro.scheduling.score.policy import ScoreBasedPolicy
    from repro.service import (
        DecisionJournal,
        PlacementCore,
        ServiceConfig,
        ServiceEngine,
        serve_synthetic,
    )
    from repro.workload.synthetic import Grid5000WeekGenerator

    jobs = list(Grid5000WeekGenerator(cfg, seed=seed).generate().jobs)
    engine = DatacenterSimulation(
        cluster=_scaled_cluster(n_hosts),
        policy=ScoreBasedPolicy(ScoreConfig.sb()),
        trace=None,
        pm_config=lambda_config(),
        config=EngineConfig(seed=seed),
    )
    core = PlacementCore(engine.policy)
    with tempfile.TemporaryDirectory(prefix="scale-svc-") as tmp:
        svc = ServiceEngine(
            engine, core,
            DecisionJournal(os.path.join(tmp, "journal.jsonl")),
        )
        with ref_clock() as clock:
            clock.start()
            res, stats = serve_synthetic(svc, jobs, ServiceConfig())
            ref_s = clock.stop()
    return {
        **_row(res, n_hosts, jobs_target, "service", ref_s, clock.raw_s),
        "decisions": stats["decisions"],
        "decisions_per_ref_s": stats["decisions"] / ref_s,
        "sheds": stats["sheds"],
        "latency_p50_ms": stats["latency_p50_ms"],
        "latency_p99_ms": stats["latency_p99_ms"],
    }


def _child_main(args: argparse.Namespace) -> int:
    """``--single`` entry: one point, JSON on stdout, optional profile."""
    kwargs = dict(
        checkpoint_dir=args.ckpt_dir,
        checkpoint_interval_s=args.ckpt_interval,
        restore=args.restore,
    )
    if args.profile_out:
        import cProfile

        prof = cProfile.Profile()
        prof.enable()
        row = run_point(args.hosts, args.jobs, args.seed, args.kind, **kwargs)
        prof.disable()
        prof.dump_stats(args.profile_out)
        row["profile"] = args.profile_out
    else:
        row = run_point(args.hosts, args.jobs, args.seed, args.kind, **kwargs)
    print(_RESULT_MARKER + json.dumps(row))
    return 0


def _spawn_point(
    n_hosts: int,
    jobs: int,
    seed: int,
    kind: str,
    profile_dir: Optional[str],
    checkpoint: Optional[Tuple[str, float]] = None,
) -> Dict:
    """Run one point in a subprocess for an isolated ru_maxrss."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--single",
        "--hosts", str(n_hosts), "--jobs", str(jobs), "--seed", str(seed),
        "--kind", kind,
    ]
    if checkpoint is not None:
        cmd += ["--ckpt-dir", checkpoint[0],
                "--ckpt-interval", str(checkpoint[1])]
    if profile_dir:
        cmd += ["--profile-out",
                os.path.join(profile_dir,
                             f"{point_key(n_hosts, jobs, kind)}.prof")]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"sweep point {n_hosts}x{jobs} failed:\n{proc.stderr[-2000:]}"
        )
    for line in proc.stdout.splitlines():
        if line.startswith(_RESULT_MARKER):
            return json.loads(line[len(_RESULT_MARKER):])
    raise RuntimeError(
        f"sweep point {n_hosts}x{jobs}: no result marker in output"
    )


def parse_sweep(spec: str) -> List[Tuple[int, int, str]]:
    """``"1000x3400,1000x10300:service"`` -> [(1000, 3400, ""), ...]."""
    points: List[Tuple[int, int, str]] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        kind = ""
        if ":" in token:
            token, kind = token.split(":", 1)
        if kind not in KINDS:
            raise SystemExit(
                f"bad sweep kind {kind!r} (want one of {KINDS[1:]})"
            )
        try:
            hosts_s, jobs_s = token.split("x")
            points.append((int(hosts_s), int(jobs_s), kind))
        except ValueError:
            raise SystemExit(
                f"bad sweep point {token!r} "
                "(want HOSTSxJOBS[:service])"
            ) from None
    if not points:
        raise SystemExit("empty sweep")
    return points


def point_key(hosts: int, jobs: int, kind: str) -> str:
    return f"h{hosts}-j{jobs}" + (f"-{kind}" if kind else "")


def run_sweep(
    points: List[Tuple[int, int, str]],
    seed: int,
    profile_dir: Optional[str] = None,
) -> Dict:
    """Run every point (each in its own subprocess) and build the report."""
    if profile_dir:
        os.makedirs(profile_dir, exist_ok=True)
    results: Dict[str, Dict] = {}
    for hosts, jobs, kind in points:
        results[point_key(hosts, jobs, kind)] = _spawn_point(
            hosts, jobs, seed, kind, profile_dir
        )
    return {"schema": SCHEMA, "seed": seed, "results": results}


def _leak_rss_kb(row: Dict) -> float:
    """Peak RSS excluding the persistent score matrix's own footprint.

    The matrix is M×capacity where capacity tracks *peak concurrent*
    VMs; a higher arrival rate legitimately grows it, and capacity
    doubling briefly holds old+new buffers (``matrix_nbytes`` reports
    that peak).  The flatness gate hunts per-*retired*-job residue, so
    persistent-kernel rows are compared net of the matrix.
    """
    return max(row["maxrss_kb"] - row.get("matrix_nbytes", 0.0) / 1024.0, 1.0)


def _kind(row: Dict) -> str:
    """Kernel tag of a result row (untagged when absent)."""
    return row.get("kind", "")


def check_memory_flatness(report: Dict, tolerance: float) -> List[str]:
    """Within-sweep check: RSS must not scale with the job count.

    Compares every pair of points that share (hosts, kernel); the
    larger-job point's peak RSS — net of the persistent score matrix,
    which scales with peak VM concurrency by design — may exceed the
    smaller's by at most ``tolerance`` (fractional).  The streaming
    engine's only per-job residue is the 32-byte retired-stats record,
    so real growth means a Job/VM leak.
    """
    failures: List[str] = []
    rows = list(report["results"].values())
    for i, a in enumerate(rows):
        for b in rows[i + 1:]:
            if a["hosts"] != b["hosts"] or _kind(a) != _kind(b):
                continue
            small, big = sorted((a, b), key=lambda r: r["jobs_target"])
            if small["jobs_target"] == big["jobs_target"]:
                continue
            ratio = _leak_rss_kb(big) / _leak_rss_kb(small)
            if ratio > 1.0 + tolerance:
                failures.append(
                    f"memory grew with job count at {a['hosts']} hosts: "
                    f"{big['jobs_target']} jobs uses {ratio:.2f}x the "
                    f"matrix-adjusted RSS of {small['jobs_target']} jobs "
                    f"({big['maxrss_kb']} vs {small['maxrss_kb']} KB raw, "
                    f"tolerance {tolerance:.0%})"
                )
    return failures


def check_regression(
    report: Dict, baseline: Dict, tolerance: float
) -> List[str]:
    """Gate a fresh report against a baseline; returns failure strings.

    A baseline row without ``ref_s`` (the 100k rung, never timed under
    the reference clock) gates determinism alone, and says so on stderr.
    """
    failures: List[str] = []
    if baseline.get("schema") != SCHEMA:
        return [f"baseline schema {baseline.get('schema')!r} != {SCHEMA!r}"]
    same_seed = baseline.get("seed") == report["seed"]
    for key, base in baseline.get("results", {}).items():
        new = report["results"].get(key)
        if new is None:
            failures.append(f"{key}: missing from this run")
            continue
        if "ref_s" not in base:
            print(f"{key}: untimed baseline row, throughput not gated",
                  file=sys.stderr)
        elif (ratio := new["events_per_ref_s"] / base["events_per_ref_s"]
              ) < 1.0 / (1.0 + tolerance):
            failures.append(
                f"{key}: throughput regressed to {ratio:.2f}x baseline "
                f"({new['events_per_ref_s']:.0f} vs "
                f"{base['events_per_ref_s']:.0f} events per reference s, "
                f"tolerance {tolerance:.0%})"
            )
        if same_seed:
            for fld in DETERMINISM_FIELDS:
                if new[fld] != base[fld]:
                    failures.append(
                        f"{key}: {fld} drifted: {new[fld]!r} != baseline "
                        f"{base[fld]!r} (determinism regression)"
                    )
    return failures


def run_checkpoint_overhead(
    point: Tuple[int, int, str],
    seed: int,
    interval_s: float,
    tolerance: float,
) -> List[str]:
    """Measure checkpointing's run-time cost at one sweep point.

    Runs the point twice in fresh subprocesses — without checkpointing,
    then with a sim-time cadence of ``interval_s`` (default: daily) —
    and returns gate failures when the overhead exceeds ``tolerance``
    or the two runs' simulation outputs differ at all (checkpointing
    must be a pure read of the engine).
    """
    import tempfile

    hosts, jobs, kind = point
    plain = _spawn_point(hosts, jobs, seed, kind, None)
    with tempfile.TemporaryDirectory(prefix="scale-ckpt-") as ckpt_dir:
        ckpt = _spawn_point(
            hosts, jobs, seed, kind, None, checkpoint=(ckpt_dir, interval_s)
        )
    overhead = ckpt["ref_s"] / plain["ref_s"] - 1.0
    print(
        f"checkpoint overhead at {point_key(hosts, jobs, kind)}: "
        f"{overhead:+.1%} run time ({ckpt['ref_s']:.2f} vs "
        f"{plain['ref_s']:.2f} reference s), {ckpt['checkpoints_written']} "
        f"snapshots, {ckpt['checkpoint_bytes'] / 1e6:.1f} MB written"
    )
    failures: List[str] = []
    if ckpt["checkpoints_written"] < 1:
        failures.append(
            f"checkpoint-overhead run wrote no snapshots "
            f"(interval {interval_s}s too coarse for this point?)"
        )
    if overhead > tolerance:
        failures.append(
            f"checkpoint overhead {overhead:.1%} exceeds the "
            f"{tolerance:.0%} budget at {point_key(hosts, jobs, kind)}"
        )
    for fld in DETERMINISM_FIELDS:
        if ckpt[fld] != plain[fld]:
            failures.append(
                f"checkpointing changed {fld}: {ckpt[fld]!r} != "
                f"{plain[fld]!r} (must be a pure read)"
            )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sweep", default="1000x3400,1000x10300",
        help="comma-separated HOSTSxJOBS[:kind] points "
             "(default: the CI smoke pair)",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="workload + engine seed (default: the paper's)")
    parser.add_argument("--out", default="BENCH_scale.json",
                        help="where to write the JSON report")
    parser.add_argument(
        "--check-against", default=None, metavar="BASELINE",
        help="baseline JSON to gate against (exit 1 on regression)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.30,
        help="allowed throughput regression in events per reference "
             "second (default 0.30)",
    )
    parser.add_argument(
        "--mem-tolerance", type=float, default=0.30,
        help="allowed RSS growth between job counts at equal hosts "
             "(default 0.30)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="cProfile each sweep point; .prof files land next to --out",
    )
    parser.add_argument(
        "--checkpoint-overhead", action="store_true",
        help="instead of the sweep, run the first sweep point with and "
             "without engine checkpointing and gate the run-time "
             "overhead (exit 1 when above --checkpoint-tolerance)",
    )
    parser.add_argument(
        "--checkpoint-interval", type=float, default=86400.0, metavar="SIM_S",
        help="sim-time snapshot cadence for --checkpoint-overhead "
             "(default: daily, 86400)",
    )
    parser.add_argument(
        "--checkpoint-tolerance", type=float, default=0.10,
        help="allowed checkpointing run-time overhead (default 0.10)",
    )
    # --single: internal per-point child mode (subprocess isolation).
    parser.add_argument("--single", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--hosts", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--jobs", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--kind", default="", choices=KINDS,
                        help=argparse.SUPPRESS)
    parser.add_argument("--profile-out", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--ckpt-dir", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--ckpt-interval", type=float, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--restore", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    from repro.experiments.common import DEFAULT_SEED

    if args.seed is None:
        args.seed = DEFAULT_SEED
    if args.single:
        return _child_main(args)

    points = parse_sweep(args.sweep)
    if args.checkpoint_overhead:
        failures = run_checkpoint_overhead(
            points[0], args.seed,
            args.checkpoint_interval, args.checkpoint_tolerance,
        )
        for line in failures:
            print(f"REGRESSION: {line}", file=sys.stderr)
        if not failures:
            print("checkpoint-overhead gate passed")
        return 1 if failures else 0
    profile_dir = (
        os.path.join(os.path.dirname(os.path.abspath(args.out)) or ".",
                     "scale_profiles")
        if args.profile
        else None
    )
    report = run_sweep(points, args.seed, profile_dir)

    with open(args.out, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    for key, row in report["results"].items():
        rescore = (
            f", {row['rescore_savings_x']:.0f}x fewer cells rescored"
            if "rescore_savings_x" in row
            else ""
        )
        service = (
            f", {row['decisions_per_ref_s']:.1f} decisions per reference s "
            f"(p50 {row['latency_p50_ms']:.1f} / "
            f"p99 {row['latency_p99_ms']:.1f} ms wall)"
            if "decisions_per_ref_s" in row
            else ""
        )
        print(
            f"{key}: {row['n_jobs']} jobs, {row['ref_s']:.2f} reference s "
            f"({row['wall_clock_s']:.2f} s wall), "
            f"{row['events_per_ref_s']:.0f} events per reference s, "
            f"{row['maxrss_kb'] // 1024} MB peak{rescore}{service}"
        )
    print(f"wrote {args.out}")

    failures = check_memory_flatness(report, args.mem_tolerance)
    if args.check_against:
        with open(args.check_against) as f:
            baseline = json.load(f)
        failures += check_regression(report, baseline, args.tolerance)
    if failures:
        for line in failures:
            print(f"REGRESSION: {line}", file=sys.stderr)
        return 1
    if args.check_against:
        print(f"regression gate passed vs {args.check_against}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
