"""Parallel experiment sweep runner with an on-disk result cache.

The registry's 18 experiment modules are mutually independent: each is a
pure function of ``(exp_id, scale, seed)`` that internally runs several
full-week simulations.  :func:`run_experiments` exploits that in three
ways:

* **Fan-out** — with ``parallel=True`` the experiments are dispatched to a
  :class:`concurrent.futures.ProcessPoolExecutor`.  Every worker runs the
  exact same module entry point with the exact same explicit arguments the
  serial path would use (all seeding is explicit — there is no shared RNG
  or other cross-experiment state), so the returned rows are bit-identical
  to a serial sweep; only wall-clock time changes.  Results are reordered
  to the input order regardless of completion order.

* **Caching** — with ``cache_dir`` set, each experiment's
  :class:`~repro.experiments.common.ExperimentOutput` is pickled under a
  key of ``sha256(version fingerprint, exp_id, scale, seed)``.  The
  version fingerprint folds in the package version and
  :data:`RESULT_VERSION`, so bumping either invalidates every stale entry;
  identical re-runs are served from disk without simulating.  Writes are
  atomic (temp file + fsync + rename) so a killed sweep never leaves a
  torn entry, they happen *as each task completes* (a failure elsewhere
  in the sweep never throws away a finished result), and a corrupt or
  truncated entry found mid-sweep is quarantined (renamed aside) and
  recomputed.

* **Fault tolerance** — execution is delegated to
  :mod:`repro.experiments.resilience`: per-task retries with
  deterministic backoff, per-task wall-clock timeouts, broken-pool
  recovery with serial degradation, a JSONL sweep journal enabling
  ``resume=True``, and a ``partial`` mode returning a
  :class:`~repro.experiments.resilience.SweepReport` (completed outputs
  plus a structured failure report) instead of raising.

The module is deliberately dependency-free (stdlib only) and every worker
entry point is a top-level function, keeping everything picklable under
both fork and spawn start methods.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path
from typing import List, Optional, Sequence, Union

import hashlib

from repro.durable import atomic_write
from repro.errors import ConfigurationError, SimulationInterrupted
from repro.experiments.common import ExperimentOutput
from repro.experiments.resilience import (
    ExecutionPolicy,
    ReproFaultPlan,
    SweepJournal,
    SweepReport,
    TaskSpec,
    execute_tasks,
)

__all__ = [
    "RESULT_VERSION",
    "JOURNAL_NAME",
    "cache_key",
    "comparable_rows",
    "run_experiments",
]

#: Bump when engine/experiment semantics change in a way that invalidates
#: previously cached :class:`ExperimentOutput` pickles.  2: results grew
#: the strict-invariant diagnostic fields.  3: results grew the
#: persistent-matrix ``rescore_stats`` field.  4: results grew the
#: checkpoint/restore counters.
RESULT_VERSION = 4

#: Default sweep-journal filename inside ``cache_dir``.
JOURNAL_NAME = "sweep-journal.jsonl"


def _version_fingerprint() -> str:
    from repro import __version__

    return f"{__version__}:{RESULT_VERSION}"


def cache_key(exp_id: str, scale: float, seed: Optional[int]) -> str:
    """Stable cache key for one experiment invocation.

    ``seed=None`` (module default) and an explicit seed equal to the
    default hash differently on purpose: the two calls take different
    code paths in the experiment modules and are only *expected* to agree.
    """
    raw = repr((_version_fingerprint(), exp_id, float(scale), seed))
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()


def comparable_rows(output: ExperimentOutput) -> List[dict]:
    """The output's rows with measured wall-clock fields removed.

    Simulation rows are deterministic; the one exception is measured wall
    time (``wall_clock_s`` and friends), which differs between *any* two
    runs, serial or not.  Serial/parallel equivalence is asserted on this
    view.
    """
    return [
        {k: v for k, v in row.items() if "wall" not in k} for row in output.rows
    ]


def _run_one(exp_id: str, scale: float, seed: Optional[int]) -> ExperimentOutput:
    """Worker entry point: run one experiment module (picklable).

    Kept for backward compatibility; the resilient executor uses
    :func:`repro.experiments.resilience.run_task` (which also threads the
    attempt number through for fault injection).
    """
    from repro.experiments import registry

    kwargs = {"scale": scale}
    if seed is not None:
        kwargs["seed"] = seed
    return registry.get(exp_id)(**kwargs)


def _cache_load(path: Path) -> Optional[ExperimentOutput]:
    """Load one cache entry; quarantine it (rename aside) when corrupt.

    A torn or overwritten entry is indistinguishable from an arbitrary
    byte stream, and pickle surfaces corruption through many exception
    types (UnpicklingError, ValueError, EOFError, ...) depending on
    which opcode the garbage happens to hit — any failure means "miss".
    The bad bytes are preserved next to the entry (``*.quarantined``)
    for post-mortem instead of being silently overwritten.
    """
    try:
        with open(path, "rb") as fh:
            out = pickle.load(fh)
    except FileNotFoundError:
        return None
    except Exception:
        _quarantine(path)
        return None
    if not isinstance(out, ExperimentOutput):
        _quarantine(path)
        return None
    return out


def _quarantine(path: Path) -> None:
    try:
        os.replace(path, path.with_name(path.name + ".quarantined"))
    except OSError:  # pragma: no cover - cache is best-effort
        pass


def _cache_store(path: Path, output: ExperimentOutput) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        atomic_write(path, pickle.dumps(output, protocol=pickle.HIGHEST_PROTOCOL))
    except OSError:  # pragma: no cover - cache is best-effort
        pass


def run_experiments(
    exp_ids: Optional[Sequence[str]] = None,
    *,
    scale: float = 1.0,
    seed: Optional[int] = None,
    parallel: bool = False,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    execution: Optional[ExecutionPolicy] = None,
    resume: bool = False,
    journal_path: Optional[str] = None,
    fault_plan: Optional[ReproFaultPlan] = None,
) -> Union[List[ExperimentOutput], SweepReport]:
    """Run a set of experiments, optionally in parallel and/or cached.

    Parameters
    ----------
    exp_ids:
        Experiment ids to run (default: the whole registry, in
        presentation order).  Output order always matches input order.
    scale:
        Fraction of the paper's week each experiment simulates.
    seed:
        Explicit seed forwarded to every experiment; ``None`` keeps each
        module's default.
    parallel:
        Fan experiments out over a process pool.  Rows are identical to a
        serial run — workers receive the same explicit arguments.
    jobs:
        Worker count (default: ``os.cpu_count()``); only with ``parallel``.
    cache_dir:
        Directory for the pickle cache; ``None`` disables caching.
        Entries are written as soon as each experiment finishes.
    execution:
        Fault-tolerance policy (retries, backoff, per-task timeout,
        pool-respawn budget, ``partial`` mode).  The default policy
        preserves the historical fail-fast semantics, except that task
        failures now raise :class:`~repro.errors.ExperimentError`
        subclasses (chaining the original exception).
    resume:
        Skip every task an earlier journal run completed, serving its
        output from the cache (requires ``cache_dir``).  A missing or
        corrupt cache entry falls back to recomputing that task.
    journal_path:
        Where to append the JSONL sweep journal (default:
        ``<cache_dir>/sweep-journal.jsonl`` when caching is on).
    fault_plan:
        Deterministic fault injection, exported to workers through the
        environment for the duration of the sweep (testing/CI hook).

    Returns
    -------
    The outputs in input order, or — when ``execution.partial`` is true —
    a :class:`~repro.experiments.resilience.SweepReport` carrying the
    completed outputs alongside the structured failure report.
    """
    from repro.experiments import registry

    ids = list(exp_ids) if exp_ids is not None else registry.list_ids()
    for exp_id in ids:
        registry.get(exp_id)  # validate early, before spawning workers

    policy = execution or ExecutionPolicy()
    cache = Path(cache_dir) if cache_dir is not None else None
    if resume and cache is None:
        raise ConfigurationError("resume=True requires cache_dir")

    journal_file: Optional[Path] = None
    if journal_path is not None:
        journal_file = Path(journal_path)
    elif cache is not None:
        journal_file = cache / JOURNAL_NAME

    resumable = (
        SweepJournal.completed_tasks(journal_file)
        if resume and journal_file is not None
        else {}
    )

    journal = SweepJournal(journal_file) if journal_file is not None else None
    report = SweepReport()
    try:
        outputs: List[Optional[ExperimentOutput]] = [None] * len(ids)
        specs: List[TaskSpec] = []
        for i, exp_id in enumerate(ids):
            key = cache_key(exp_id, scale, seed)
            if cache is not None:
                hit = _cache_load(cache / f"{key}.pkl")
                if hit is not None:
                    outputs[i] = hit
                    outcome = "resumed" if exp_id in resumable else "cached"
                    if journal is not None:
                        journal.record(exp_id, 0, outcome, cache_key=key)
                    (report.resumed if exp_id in resumable
                     else report.cached).append(exp_id)
                    continue
            specs.append(
                TaskSpec(
                    task_id=exp_id,
                    exp_id=exp_id,
                    scale=scale,
                    seed=seed,
                    cache_key=key,
                )
            )

        def store(task: TaskSpec, output: ExperimentOutput) -> None:
            if cache is not None:
                _cache_store(cache / f"{task.cache_key}.pkl", output)

        if specs:
            if fault_plan is not None:
                with fault_plan.installed():
                    run = execute_tasks(
                        specs,
                        policy=policy,
                        parallel=parallel,
                        jobs=jobs,
                        journal=journal,
                        on_complete=store,
                    )
            else:
                run = execute_tasks(
                    specs,
                    policy=policy,
                    parallel=parallel,
                    jobs=jobs,
                    journal=journal,
                    on_complete=store,
                )
            report.outputs.update(run.outputs)
            report.failures.extend(run.failures)
            report.attempts.update(run.attempts)
            report.pool_respawns = run.pool_respawns
            report.timeouts = run.timeouts
            report.degraded_serial = run.degraded_serial
            report.restored = list(run.restored)
            report.interrupted = run.interrupted
    finally:
        if journal is not None:
            journal.close()

    report.order = list(ids)
    for i, exp_id in enumerate(ids):
        if outputs[i] is None:
            outputs[i] = report.outputs.get(exp_id)
        else:
            report.outputs[exp_id] = outputs[i]

    if policy.partial:
        return report
    if report.interrupted:
        # The sweep wound down gracefully (signal / wall budget); the
        # journal and any engine snapshots make it resumable.  Without
        # ``partial`` there is no channel for an incomplete output list,
        # so surface the preemption as the typed, catchable exception.
        done = sum(1 for out in outputs if out is not None)
        raise SimulationInterrupted(
            f"sweep interrupted with {done}/{len(ids)} experiment(s) "
            f"complete; re-run with resume=True to continue"
        )
    report.raise_if_failed()
    return list(outputs)  # type: ignore[arg-type]
