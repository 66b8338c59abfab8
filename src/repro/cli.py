"""Command-line interface: ``python -m repro`` / ``repro-sim``.

Subcommands
-----------

``simulate``
    Run one policy on the paper datacenter and print the result row.
``experiment``
    Regenerate one of the paper's tables/figures (or ``all``).
``trace``
    Generate the synthetic Grid5000 week and print its statistics (or
    write it to SWF with ``--output``; characterize it with ``--analyze``).
``validate``
    Run the Fig. 1 simulator-vs-testbed validation.
``federation``
    Compare geo-dispatchers over the three-site demo federation.
``serve``
    Run the live control-plane service over a synthetic admission stream
    (anytime placement under latency budgets, journaled decisions,
    SIGTERM-checkpoint / ``--resume`` crash recovery).
``replay``
    Re-execute a decision journal through a fresh engine and verify it
    lands on the identical result — the service's correctness oracle.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import __version__
from repro.des.random import RandomStreams
from repro.engine.config import EngineConfig
from repro.engine.results import results_table
from repro.experiments import registry
from repro.experiments.common import DEFAULT_SEED, paper_cluster, paper_trace, run_policy
from repro.scheduling.baselines import BackfillingPolicy, RandomPolicy, RoundRobinPolicy
from repro.scheduling.dynamic_backfilling import DynamicBackfillingPolicy
from repro.scheduling.heuristics import (
    MaxMinPolicy,
    MctPolicy,
    MetPolicy,
    MinMinPolicy,
    OlbPolicy,
)
from repro.scheduling.power_manager import PowerManagerConfig
from repro.scheduling.score import ScoreConfig
from repro.scheduling.score.policy import ScoreBasedPolicy
from repro.validation.compare import validate_simulator
from repro.workload.swf import write_swf

__all__ = ["main", "build_parser", "make_policy"]

POLICIES = (
    "rd", "rr", "bf", "dbf",
    "sb0", "sb1", "sb2", "sb", "sb-full",
    "met", "mct", "min-min", "max-min", "olb",
)
SOLVERS = ("hill_climb", "sa", "tabu")


def make_policy(
    name: str,
    seed: int = DEFAULT_SEED,
    solver: str = "hill_climb",
    observed_reliability: bool = False,
):
    """Instantiate a policy by CLI name.

    ``observed_reliability`` upgrades the score presets to learned P_fault
    reliabilities (forcing the fault penalty on); the engine wires the
    tracker through when ``EngineConfig.observed_reliability`` is also set.
    """
    name = name.lower()
    simple = {
        "rr": RoundRobinPolicy,
        "bf": BackfillingPolicy,
        "dbf": DynamicBackfillingPolicy,
        "met": MetPolicy,
        "mct": MctPolicy,
        "min-min": MinMinPolicy,
        "max-min": MaxMinPolicy,
        "olb": OlbPolicy,
    }
    if name == "rd":
        return RandomPolicy(RandomStreams(seed=seed))
    if name in simple:
        return simple[name]()
    score = {
        "sb0": ScoreConfig.sb0,
        "sb1": ScoreConfig.sb1,
        "sb2": ScoreConfig.sb2,
        "sb": ScoreConfig.sb,
        "sb-full": ScoreConfig.full,
    }
    if name in score:
        config = score[name]()
        if observed_reliability:
            from dataclasses import replace

            config = replace(
                config, enable_fault=True, use_observed_reliability=True
            )
        return ScoreBasedPolicy(config, solver=solver, solver_seed=seed)
    raise SystemExit(f"unknown policy {name!r}; choose from {', '.join(POLICIES)}")


def _experiment_ids(value: str) -> str:
    """argparse type: 'all', one experiment id, or a comma-separated list."""
    if value == "all":
        return value
    known = set(registry.list_ids())
    unknown = [tok for tok in value.split(",") if tok and tok not in known]
    if unknown or not value:
        raise argparse.ArgumentTypeError(
            f"unknown experiment id(s) {', '.join(unknown) or value!r} "
            f"(choose from {', '.join(registry.list_ids())}, or 'all')"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description=(
            "Energy-aware scheduling in virtualized datacenters "
            "(CLUSTER 2010 reproduction)"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one policy on the paper datacenter")
    sim.add_argument("--policy", choices=POLICIES, default="sb")
    sim.add_argument("--solver", choices=SOLVERS, default="hill_climb",
                     help="matrix solver for the score-based policies")
    sim.add_argument("--scale", type=float, default=1.0,
                     help="fraction of the week to simulate (default 1.0)")
    sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sim.add_argument("--lambda-min", type=float, default=0.30)
    sim.add_argument("--lambda-max", type=float, default=0.90)
    sim.add_argument("--hosts", type=int, default=100)
    sim.add_argument("--jobs-csv", type=str, default=None,
                     help="write per-job records (wait, stretch, S) to CSV")
    sim.add_argument("--strict-invariants", action="store_true",
                     help="run the incremental-state oracles on a cadence "
                          "during the simulation (guard rail against silent "
                          "aggregate drift; rows stay bit-identical)")
    sim.add_argument("--invariant-mode", choices=("raise", "resync"),
                     default="raise",
                     help="on detected drift: abort with StateError (raise) "
                          "or rebuild the aggregate and count it (resync)")
    sim.add_argument("--chaos", type=float, nargs="?", const=0.05, default=None,
                     metavar="RATE",
                     help="inject operation faults (creation failures, "
                          "migration aborts, boot failures) at this uniform "
                          "base rate (flag alone = 0.05); enables the "
                          "self-healing supervisor")
    sim.add_argument("--chaos-seed", type=int, default=None,
                     help="seed of the fault streams (default: --seed), so "
                          "the same workload can be replayed under a "
                          "different fault realization")
    sim.add_argument("--observed-reliability", action="store_true",
                     help="score-based policies learn per-host reliability "
                          "from operation outcomes (EWMA) instead of the "
                          "static spec F_rel")
    sim.add_argument("--trace-out", type=str, default=None, metavar="FILE",
                     help="write the structured event trace as JSON lines "
                          "(enables event tracing)")
    sim.add_argument("--checkpoint-dir", type=str, default=None, metavar="DIR",
                     help="engine-level checkpointing: snapshot the whole "
                          "simulation state here so a killed run can resume "
                          "bit-identically (see docs/robustness.md)")
    sim.add_argument("--checkpoint-interval", type=float, default=None,
                     metavar="SIM_S",
                     help="snapshot every SIM_S simulated seconds "
                          "(requires --checkpoint-dir)")
    sim.add_argument("--checkpoint-wall-interval", type=float, default=None,
                     metavar="S",
                     help="snapshot every S wall-clock seconds "
                          "(requires --checkpoint-dir)")
    sim.add_argument("--restore", nargs="?", const=True, default=False,
                     metavar="SNAPSHOT",
                     help="resume from the newest compatible snapshot in "
                          "--checkpoint-dir (flag alone), or from an "
                          "explicit snapshot file")
    sim.add_argument("--max-wall-clock", type=float, default=None, metavar="S",
                     help="wall-clock budget: after S seconds the run "
                          "checkpoints (with --checkpoint-dir) and exits 0, "
                          "resumable via --restore")

    exp = sub.add_parser(
        "experiment",
        help="regenerate a paper table/figure",
        description=(
            "Regenerate one of the paper's tables/figures, or 'all' for the "
            "whole evaluation. Sweeps parallelize across experiments: "
            "--parallel fans them out over a process pool and produces the "
            "same rows as a serial run; --cache-dir re-serves identical "
            "(experiment, scale, seed) invocations from disk."
        ),
    )
    exp.add_argument("exp_id", type=_experiment_ids, metavar="exp_id",
                     help="an experiment id, a comma-separated list of ids, "
                          f"or 'all' (known: {', '.join(registry.list_ids())})")
    exp.add_argument("--scale", type=float, default=1.0)
    exp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    exp.add_argument("--parallel", action="store_true",
                     help="run experiments concurrently in worker processes "
                          "(identical output, less wall clock)")
    exp.add_argument("--jobs", type=int, default=None,
                     help="worker processes for --parallel (default: all cores)")
    exp.add_argument("--cache-dir", type=str, default=None,
                     help="cache experiment outputs here, keyed by "
                          "(experiment, scale, seed, code version); entries "
                          "are written as each experiment finishes")
    exp.add_argument("--retries", type=int, default=0,
                     help="extra attempts per experiment after a failure "
                          "(exponential backoff with deterministic jitter)")
    exp.add_argument("--task-timeout", type=float, default=None, metavar="S",
                     help="per-experiment wall-clock budget in seconds; a "
                          "hung worker is reaped and the task retried or "
                          "failed with TaskTimeoutError (parallel mode only)")
    exp.add_argument("--resume", action="store_true",
                     help="skip experiments a previous journal run completed "
                          "(requires --cache-dir; see docs/robustness.md)")
    exp.add_argument("--partial", action="store_true",
                     help="on failures, print completed outputs plus a "
                          "failure report (exit 1) instead of aborting the "
                          "whole sweep")
    exp.add_argument("--checkpoint-dir", type=str, default=None, metavar="DIR",
                     help="engine-level checkpointing inside each experiment "
                          "task: interrupted or retried tasks resume "
                          "mid-simulation instead of recomputing")
    exp.add_argument("--checkpoint-interval", type=float, default=None,
                     metavar="SIM_S",
                     help="snapshot cadence in simulated seconds "
                          "(requires --checkpoint-dir)")
    exp.add_argument("--checkpoint-wall-interval", type=float, default=None,
                     metavar="S",
                     help="snapshot cadence in wall-clock seconds "
                          "(requires --checkpoint-dir)")
    exp.add_argument("--max-wall-clock", type=float, default=None, metavar="S",
                     help="sweep wall-clock budget: after S seconds the sweep "
                          "winds down gracefully (in-flight work journaled "
                          "'interrupted', workers checkpoint) and exits 0; "
                          "continue later with --resume")

    tr = sub.add_parser("trace", help="generate the synthetic Grid5000 week")
    tr.add_argument("--scale", type=float, default=1.0)
    tr.add_argument("--seed", type=int, default=DEFAULT_SEED)
    tr.add_argument("--output", type=str, default=None,
                    help="write the trace to this SWF file")
    tr.add_argument("--analyze", action="store_true",
                    help="print arrival/runtime/width histograms and the "
                         "offered-demand sparkline")

    sub.add_parser("validate", help="Fig. 1 simulator-vs-testbed validation")

    fed = sub.add_parser("federation",
                         help="compare geo-dispatchers over the demo sites")
    fed.add_argument("--scale", type=float, default=1.0 / 7.0)
    fed.add_argument("--seed", type=int, default=DEFAULT_SEED)

    def _service_flags(p, *, serving: bool) -> None:
        """Flags shared by serve and replay.

        Everything here shapes the deterministic event sequence, so a
        replay must repeat the serve invocation's values (the journal is
        the recipe; these are its ingredients).
        """
        p.add_argument("--journal", type=str, required=True, metavar="FILE",
                       help="decision journal (JSONL; written by serve, "
                            "read by replay). serve creates missing parent "
                            "directories; without --resume it truncates an "
                            "existing file and starts a new stream, "
                            "--resume continues it")
        p.add_argument("--policy", choices=POLICIES, default="sb")
        p.add_argument("--solver", choices=SOLVERS, default="hill_climb")
        p.add_argument("--hosts", type=int, default=100)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--max-retries", type=int, default=3,
                       help="retry rounds scheduled for a deferred "
                            "admission (deterministically jittered "
                            "exponential backoff)")
        p.add_argument("--retry-base-s", type=float, default=30.0,
                       help="base simulated delay of the first retry")
        p.add_argument("--drain-grace-s", type=float, default=None,
                       help="simulated grace window after the last "
                            "admission before the service finalizes "
                            "(default: the engine's drain grace)")
        p.add_argument("--chaos", type=float, nargs="?", const=0.05,
                       default=None, metavar="RATE",
                       help="inject operation faults at this base rate "
                            "(deterministic per seed, so replay "
                            "reproduces them)")
        p.add_argument("--chaos-seed", type=int, default=None)
        p.add_argument("--result-json", type=str, default=None,
                       metavar="FILE",
                       help="write the final result's canonical dict as "
                            "JSON (the replay-identity comparand)")
        if serving:
            p.add_argument("--round-budget", type=int, default=None,
                           help="anytime hill-climb iteration cap per "
                                "scheduling round (deterministic)")
            p.add_argument("--round-deadline-ms", type=float, default=None,
                           help="wall-clock budget per scheduling round; "
                                "committed iterations are journaled so "
                                "replay stays deterministic")

    srv = sub.add_parser(
        "serve",
        help="run the live control-plane service (synthetic admissions)",
        description=(
            "Serve a deterministic synthetic admission stream through the "
            "asyncio control plane: bounded queue, anytime placement "
            "budgets, every decision journaled. SIGTERM checkpoints and "
            "exits 0; --resume restarts from the snapshot plus the "
            "journal tail with zero lost or duplicated decisions."
        ),
    )
    _service_flags(srv, serving=True)
    srv.add_argument("--synthetic-hours", type=float, default=4.0,
                     help="span of the synthetic admission stream")
    srv.add_argument("--synthetic-rate", type=float, default=40.0,
                     help="peak arrival rate (jobs/hour) of the stream")
    srv.add_argument("--synthetic-jobs", type=int, default=None,
                     help="cap the stream at this many admissions")
    srv.add_argument("--checkpoint-dir", type=str, default=None,
                     metavar="DIR",
                     help="snapshot the engine here (enables SIGTERM "
                          "checkpointing and --resume)")
    srv.add_argument("--checkpoint-interval", type=float, default=None,
                     metavar="SIM_S",
                     help="snapshot every SIM_S simulated seconds")
    srv.add_argument("--checkpoint-wall-interval", type=float, default=None,
                     metavar="S",
                     help="snapshot every S wall-clock seconds")
    srv.add_argument("--resume", action="store_true",
                     help="restore the newest snapshot (if any), recover "
                          "the journal, catch up, and keep serving")
    srv.add_argument("--kill-after", type=int, default=None, metavar="N",
                     help="abort the process (SIGKILL semantics, exit 137) "
                          "after N admissions — crash-drill hook")

    rep = sub.add_parser(
        "replay",
        help="re-execute a decision journal and verify bit-identity",
        description=(
            "Feed a serve run's journal back through a fresh engine — "
            "same code path, journaled admission times and per-round "
            "iteration budgets — and report any decision that diverges. "
            "Exit 1 on divergence (or on a --baseline canonical "
            "mismatch); this is the service's correctness oracle."
        ),
    )
    _service_flags(rep, serving=False)
    rep.add_argument("--baseline", type=str, default=None, metavar="FILE",
                     help="canonical-result JSON (from --result-json) to "
                          "compare against; any field diff exits 1")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "simulate":
        import signal

        from repro.cluster.faults import FaultConfig
        from repro.engine.datacenter import DatacenterSimulation
        from repro.errors import SimulationInterrupted

        trace = paper_trace(scale=args.scale, seed=args.seed)
        engine = DatacenterSimulation(
            cluster=paper_cluster(args.hosts),
            policy=make_policy(
                args.policy,
                seed=args.seed,
                solver=args.solver,
                observed_reliability=args.observed_reliability,
            ),
            trace=trace.fresh(),
            pm_config=PowerManagerConfig(
                lambda_min=args.lambda_min, lambda_max=args.lambda_max
            ),
            config=EngineConfig(
                seed=args.seed,
                strict_invariants=args.strict_invariants,
                invariant_mode=args.invariant_mode,
                faults=(
                    FaultConfig.uniform(args.chaos)
                    if args.chaos is not None
                    else None
                ),
                chaos_seed=args.chaos_seed,
                observed_reliability=args.observed_reliability,
                trace_events=bool(args.trace_out),
                checkpoint_dir=args.checkpoint_dir,
                checkpoint_sim_interval_s=args.checkpoint_interval,
                checkpoint_wall_interval_s=args.checkpoint_wall_interval,
                max_wall_clock_s=args.max_wall_clock,
            ),
        )
        if args.restore:
            if isinstance(args.restore, str):
                from repro.engine.snapshot import load_snapshot

                fresh = engine
                engine = load_snapshot(args.restore)
                # The snapshot carries the interrupted run's operational
                # knobs; this invocation's flags win.
                engine.adopt_operational(fresh.config)
            else:
                restored = engine.try_restore()
                if restored is None:
                    print("no snapshot to restore; starting fresh",
                          file=sys.stderr)
                else:
                    engine = restored
                    print(
                        f"restored from snapshot at t={engine.sim.now:.0f}s "
                        f"({engine.sim.events_processed} events)",
                        file=sys.stderr,
                    )

        def _graceful(signum, frame):
            engine.request_graceful_stop()

        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                signal.signal(signum, _graceful)
            except ValueError:  # pragma: no cover - non-main thread
                pass
        try:
            result = engine.run()
        except SimulationInterrupted as exc:
            # Clean preemption: the final snapshot (if checkpointing is
            # on) makes the run resumable with --restore.  Exit 0 so
            # supervisors (systemd, batch schedulers) see a clean stop.
            print(f"interrupted: {exc}", file=sys.stderr)
            if args.checkpoint_dir:
                print("resume with --restore", file=sys.stderr)
            return 0
        except Exception:
            # Dump whatever trace we have: on a strict-invariant abort
            # (or any mid-run crash) the event log is the post-mortem.
            if args.trace_out and engine.trace_log is not None:
                n = engine.trace_log.write_jsonl(args.trace_out)
                print(f"{n} trace records written to {args.trace_out} "
                      f"(run aborted)", file=sys.stderr)
            raise
        print(results_table([result]))
        print(
            f"jobs {result.n_completed}/{result.n_jobs} completed, "
            f"{result.sim_events} events, "
            f"{result.wall_clock_s:.1f} s wall clock"
        )
        if args.checkpoint_dir:
            print(
                f"checkpoints: {result.checkpoints_written} written "
                f"({result.checkpoint_bytes / 1e6:.1f} MB), "
                f"{result.snapshot_restores} restore(s)"
            )
        if args.chaos is not None:
            print(
                f"chaos: {result.failed_creations} failed creations, "
                f"{result.aborted_migrations} aborted migrations, "
                f"{result.boot_failures} boot failures, "
                f"{result.quarantines} quarantines, "
                f"{result.lost_cpu_s:.1f} CPU-s lost, "
                f"mean recovery {result.mean_recovery_s:.0f} s"
            )
        if args.trace_out and engine.trace_log is not None:
            n = engine.trace_log.write_jsonl(args.trace_out)
            print(f"{n} trace records written to {args.trace_out}")
        if args.jobs_csv:
            from repro.engine.jobstats import job_records, summarize_jobs, write_csv

            records = job_records(engine)
            write_csv(records, args.jobs_csv)
            summary = summarize_jobs(records)
            print(f"per-job records written to {args.jobs_csv}")
            print(
                "wait p50/p95/p99: "
                f"{summary['wait_p50_s']:.0f}/{summary['wait_p95_s']:.0f}/"
                f"{summary['wait_p99_s']:.0f} s; "
                f"stretch p95 {summary['stretch_p95']:.2f}; "
                f"late fraction {summary['late_fraction']:.1%}"
            )
        return 0

    if args.command == "experiment":
        from repro.errors import SimulationInterrupted
        from repro.experiments.resilience import ExecutionPolicy
        from repro.experiments.runner import run_experiments

        ids = (
            registry.list_ids()
            if args.exp_id == "all"
            else args.exp_id.split(",")
        )
        execution = ExecutionPolicy(
            retries=args.retries,
            task_timeout_s=args.task_timeout,
            partial=args.partial,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_sim_interval_s=args.checkpoint_interval,
            checkpoint_wall_interval_s=args.checkpoint_wall_interval,
            max_wall_clock_s=args.max_wall_clock,
        )
        try:
            result = run_experiments(
                ids,
                scale=args.scale,
                seed=args.seed,
                parallel=args.parallel,
                jobs=args.jobs,
                cache_dir=args.cache_dir,
                execution=execution,
                resume=args.resume,
            )
        except SimulationInterrupted as exc:
            # Graceful preemption (signal or --max-wall-clock): completed
            # work is cached/journaled, snapshots are on disk — exit 0.
            print(f"interrupted: {exc}", file=sys.stderr)
            return 0
        if args.partial:
            for output in result.ordered_outputs():
                if output is not None:
                    print(output)
                    print()
            if result.interrupted:
                print("-- sweep interrupted (resumable with --resume) --",
                      file=sys.stderr)
            if result.failures:
                print("-- failures --", file=sys.stderr)
                print(result.failure_summary(), file=sys.stderr)
                return 1
            return 0
        for output in result:
            print(output)
            print()
        return 0

    if args.command == "trace":
        trace = paper_trace(scale=args.scale, seed=args.seed)
        print(trace.stats())
        if args.analyze:
            from repro.viz import sparkline
            from repro.workload.analysis import (
                demand_timeline,
                hourly_arrival_counts,
                runtime_histogram,
                width_histogram,
            )

            _, demand = demand_timeline(trace)
            print("offered demand (cores): " + sparkline(demand, width=60)
                  + f"  peak {demand.max():.0f}")
            print("arrivals by hour:       "
                  + sparkline(hourly_arrival_counts(trace), width=24))
            print(f"runtimes: {runtime_histogram(trace)}")
            print(f"widths:   {width_histogram(trace)}")
        if args.output:
            write_swf(trace, args.output)
            print(f"written to {args.output}")
        return 0

    if args.command == "validate":
        print(validate_simulator())
        return 0

    if args.command == "federation":
        from repro.experiments.ext_federation import run as run_federation

        print(run_federation(scale=args.scale, seed=args.seed))
        return 0

    if args.command in ("serve", "replay"):
        import json as _json

        from repro.cluster.faults import FaultConfig
        from repro.engine.datacenter import DatacenterSimulation

        def build_engine(checkpointing: bool) -> DatacenterSimulation:
            kwargs = {}
            if args.drain_grace_s is not None:
                kwargs["drain_grace_s"] = args.drain_grace_s
            if checkpointing and getattr(args, "checkpoint_dir", None):
                kwargs.update(
                    checkpoint_dir=args.checkpoint_dir,
                    checkpoint_sim_interval_s=args.checkpoint_interval,
                    checkpoint_wall_interval_s=args.checkpoint_wall_interval,
                )
            return DatacenterSimulation(
                cluster=paper_cluster(args.hosts),
                policy=make_policy(
                    args.policy, seed=args.seed, solver=args.solver
                ),
                trace=None,  # live mode: admissions come from the service
                config=EngineConfig(
                    seed=args.seed,
                    faults=(
                        FaultConfig.uniform(args.chaos)
                        if args.chaos is not None
                        else None
                    ),
                    chaos_seed=args.chaos_seed,
                    **kwargs,
                ),
            )

        def write_result_json(result) -> None:
            if args.result_json:
                with open(args.result_json, "w", encoding="utf-8") as fh:
                    _json.dump(
                        result.canonical(), fh, indent=2, sort_keys=True
                    )
                print(f"canonical result written to {args.result_json}")

        if args.command == "serve":
            import os
            import signal

            from repro.service import (
                DecisionJournal,
                PlacementCore,
                ServiceConfig,
                ServiceEngine,
                resume_service,
                serve_synthetic,
            )
            from repro.workload.synthetic import (
                Grid5000WeekGenerator,
                SyntheticConfig,
            )

            round_deadline_s = (
                None
                if args.round_deadline_ms is None
                else args.round_deadline_ms / 1e3
            )
            stream_cfg = SyntheticConfig(
                horizon_s=args.synthetic_hours * 3600.0,
                base_rate_per_hour=args.synthetic_rate,
                night_fraction=0.9,
            )
            jobs = list(
                Grid5000WeekGenerator(stream_cfg, seed=args.seed)
                .generate()
                .jobs
            )
            if args.synthetic_jobs is not None:
                jobs = jobs[: args.synthetic_jobs]

            engine = build_engine(checkpointing=True)
            if args.resume:
                restored = engine.try_restore()
                if restored is not None:
                    engine = restored
                    print(
                        f"restored snapshot at t={engine.sim.now:.0f}s "
                        f"({engine.sim.events_processed} events)",
                        file=sys.stderr,
                    )
                else:
                    print(
                        "no snapshot found; recovering from the journal "
                        "alone",
                        file=sys.stderr,
                    )
                svc = resume_service(
                    engine,
                    args.journal,
                    round_budget=args.round_budget,
                    round_deadline_s=round_deadline_s,
                    max_retries=args.max_retries,
                    retry_base_s=args.retry_base_s,
                )
                print(
                    f"caught up: {svc.cursor.admits} admissions applied, "
                    f"{svc.journal.skipped} journal rewrites deduplicated",
                    file=sys.stderr,
                )
            else:
                core = PlacementCore(
                    engine.policy,
                    round_budget=args.round_budget,
                    round_deadline_s=round_deadline_s,
                )
                svc = ServiceEngine(
                    engine,
                    core,
                    DecisionJournal(args.journal),
                    max_retries=args.max_retries,
                    retry_base_s=args.retry_base_s,
                )

            stop = {"sig": False}

            def _term(signum, frame):
                stop["sig"] = True

            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    signal.signal(signum, _term)
                except ValueError:  # pragma: no cover - non-main thread
                    pass

            def stop_flag() -> bool:
                if (
                    args.kill_after is not None
                    and svc.cursor.admits >= args.kill_after
                ):
                    # The crash drill: die like SIGKILL — no journal
                    # close, no checkpoint, no cleanup.
                    os._exit(137)
                return stop["sig"]

            result, stats = serve_synthetic(
                svc,
                jobs,
                ServiceConfig(
                    round_budget=args.round_budget,
                    round_deadline_ms=args.round_deadline_ms,
                    max_retries=args.max_retries,
                    retry_base_s=args.retry_base_s,
                ),
                stop_flag=stop_flag,
            )
            print("service stats: " + _json.dumps(stats))
            if result is None:
                print(
                    "interrupted: state checkpointed; continue with "
                    "--resume",
                    file=sys.stderr,
                )
                return 0
            print(results_table([result]))
            write_result_json(result)
            return 0

        # replay
        from repro.service import replay_journal

        report = replay_journal(
            args.journal,
            lambda: build_engine(checkpointing=False),
            max_retries=args.max_retries,
            retry_base_s=args.retry_base_s,
        )
        print(results_table([report.result]))
        for mismatch in report.mismatches:
            print(f"MISMATCH: {mismatch}", file=sys.stderr)
        write_result_json(report.result)
        ok = report.ok
        if args.baseline:
            with open(args.baseline, encoding="utf-8") as fh:
                baseline = _json.load(fh)
            # Round-trip through JSON so both sides carry JSON types.
            replayed = _json.loads(_json.dumps(report.result.canonical()))
            diff = {
                key: (baseline.get(key), replayed.get(key))
                for key in set(baseline) | set(replayed)
                if baseline.get(key) != replayed.get(key)
            }
            if diff:
                for key, (base_v, got_v) in sorted(diff.items()):
                    print(
                        f"BASELINE DIFF {key}: baseline={base_v!r} "
                        f"replay={got_v!r}",
                        file=sys.stderr,
                    )
                ok = False
            else:
                print("replay matches the baseline canonical result")
        if ok:
            print(f"replay OK: {len(report.decisions)} decisions verified")
        return 0 if ok else 1

    return 1  # pragma: no cover - argparse enforces commands


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
