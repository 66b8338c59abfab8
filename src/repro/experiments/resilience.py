"""Fault-tolerant execution layer for experiment sweeps.

The sweep runner (:mod:`repro.experiments.runner`) dispatches mutually
independent, deterministic tasks — each a pure function of
``(exp_id, scale, seed)``.  This module supplies everything needed to run
such a battery to completion on imperfect hardware:

* :class:`ExecutionPolicy` — per-task bounded retries, exponential
  backoff with *deterministic* seed-derived jitter (no wall-clock RNG:
  the delay is a pure function of ``(seed, task, attempt)``), and a
  per-task wall-clock timeout;
* :func:`execute_tasks` — the executor.  In parallel mode it manages a
  :class:`~concurrent.futures.ProcessPoolExecutor`, consumes futures as
  they complete, recovers from :class:`BrokenProcessPool` by respawning
  the pool and re-submitting only the lost tasks, reaps hung workers on
  timeout, and degrades gracefully to serial in-process execution after
  repeated pool breakage;
* :class:`SweepJournal` — an append-only JSONL record of every attempt
  (task, attempt, outcome, duration, cache key) that makes interrupted
  sweeps resumable;
* :class:`SweepReport` — completed outputs plus a structured failure
  report, returned instead of raising when ``partial=True``;
* :class:`ReproFaultPlan` — a deterministic fault-injection hook
  (crash-on-nth-attempt, hang, injected raise, corrupted result) carried
  across the process boundary in the ``REPRO_FAULT_PLAN`` environment
  variable, used by the resilience test-suite and the CI fault-injection
  smoke job.

Fault attribution note: when a worker dies hard, every in-flight future
collapses with :class:`BrokenProcessPool` and the culprit cannot be
identified, so a pool breakage charges one attempt to *every* in-flight
task.  A timeout, by contrast, is attributable — only the overdue tasks
are charged; other in-flight tasks lost to the forced pool restart are
re-submitted at their current attempt number for free.

Everything here is stdlib-only and every worker entry point is a
top-level function, picklable under both fork and spawn start methods.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import shutil
import signal
import threading
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    ConfigurationError,
    ExperimentError,
    SimulationInterrupted,
    StateError,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.experiments.common import ExperimentOutput

__all__ = [
    "FAULT_PLAN_ENV",
    "ExecutionPolicy",
    "FaultSpec",
    "ReproFaultPlan",
    "SweepJournal",
    "TaskSpec",
    "TaskFailure",
    "SweepReport",
    "execute_tasks",
    "run_task",
]

#: Environment variable carrying a JSON-encoded :class:`ReproFaultPlan`
#: into worker processes (fork *and* spawn inherit the environment).
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Exit code used by the injected hard-crash fault (visible in worker
#: exit statuses when debugging a faulted run).
_CRASH_EXIT_CODE = 17


# --------------------------------------------------------------- policy


@dataclass(frozen=True)
class ExecutionPolicy:
    """How hard the executor tries to finish each task.

    Attributes
    ----------
    retries:
        Extra attempts allowed per task after the first one fails
        (``0`` keeps the historical fail-fast behaviour).
    task_timeout_s:
        Per-attempt wall-clock budget.  Only enforceable in parallel
        mode — a hung task in the calling process cannot be interrupted
        portably, so serial execution ignores it.
    backoff_base_s / backoff_factor / backoff_jitter / backoff_seed:
        Delay before attempt ``n`` (n >= 1) is
        ``base * factor**(n-1) * (1 + jitter * u)`` where ``u`` in [0, 1)
        is derived from ``sha256(seed, task, attempt)`` — deterministic,
        so two runs of the same faulted sweep behave identically.
    max_pool_respawns:
        Pool breakages tolerated before degrading to serial in-process
        execution of the remaining tasks.
    partial:
        Return a :class:`SweepReport` (completed outputs + structured
        failure report) instead of raising on task failure.
    checkpoint_dir:
        Enable engine-level checkpoint/restore
        (:mod:`repro.engine.snapshot`) inside every task: each task
        snapshots into ``<checkpoint_dir>/<task_id>/`` and a retried or
        resumed attempt restores from its latest snapshot (journaled as a
        ``restored`` outcome) instead of recomputing from scratch.  The
        per-task directory is deleted once the task succeeds.
    checkpoint_sim_interval_s / checkpoint_wall_interval_s:
        Snapshot cadence forwarded to the engines (simulated seconds /
        wall seconds); with neither set, snapshots are written only on
        graceful interruption.
    max_wall_clock_s:
        Sweep-level wall-clock budget.  When exceeded, the sweep stops
        dispatching, in-flight tasks are journaled ``interrupted`` (the
        workers checkpoint on their way down), and the report comes back
        with ``interrupted=True`` — the same wind-down path a SIGTERM
        takes.
    """

    retries: int = 0
    task_timeout_s: Optional[float] = None
    backoff_base_s: float = 0.1
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.5
    backoff_seed: int = 0
    max_pool_respawns: int = 2
    partial: bool = False
    checkpoint_dir: Optional[str] = None
    checkpoint_sim_interval_s: Optional[float] = None
    checkpoint_wall_interval_s: Optional[float] = None
    max_wall_clock_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ConfigurationError("retries must be >= 0")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ConfigurationError("task timeout must be positive")
        if self.backoff_base_s < 0 or self.backoff_factor < 1.0:
            raise ConfigurationError("invalid backoff parameters")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ConfigurationError("backoff jitter must be in [0, 1]")
        if self.max_pool_respawns < 0:
            raise ConfigurationError("max_pool_respawns must be >= 0")
        for name in ("checkpoint_sim_interval_s", "checkpoint_wall_interval_s"):
            value = getattr(self, name)
            if value is not None:
                if value <= 0:
                    raise ConfigurationError(f"{name} must be positive when set")
                if self.checkpoint_dir is None:
                    raise ConfigurationError(f"{name} requires checkpoint_dir")
        if self.max_wall_clock_s is not None and self.max_wall_clock_s <= 0:
            raise ConfigurationError("max_wall_clock_s must be positive when set")

    def task_checkpoint_dir(self, task_id: str) -> Optional[str]:
        """Snapshot directory of one task (``None`` when checkpointing is off)."""
        if self.checkpoint_dir is None:
            return None
        return os.path.join(self.checkpoint_dir, task_id)

    def backoff_s(self, task_id: str, attempt: int) -> float:
        """Deterministic delay before running ``attempt`` (0 = first try)."""
        if attempt <= 0 or self.backoff_base_s == 0:
            return 0.0
        base = self.backoff_base_s * self.backoff_factor ** (attempt - 1)
        raw = f"{self.backoff_seed}:{task_id}:{attempt}".encode("utf-8")
        digest = hashlib.sha256(raw).digest()
        unit = int.from_bytes(digest[:8], "big") / 2.0**64
        return base * (1.0 + self.backoff_jitter * unit)


# ---------------------------------------------------------- fault plans


_FAULT_KINDS = ("raise", "crash", "hang", "corrupt", "kill")


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: what happens and on how many initial attempts.

    ``kind`` is one of ``raise`` (worker raises :class:`ExperimentError`),
    ``crash`` (worker hard-exits, breaking the process pool), ``hang``
    (worker sleeps ``hang_s``, tripping the task timeout), ``corrupt``
    (worker runs the task but returns a non-:class:`ExperimentOutput`
    payload) or ``kill`` (worker arms a timer that hard-exits the process
    ``after_s`` wall seconds into the attempt — a SIGKILL-like death
    *mid-simulation*, the scenario engine checkpoints exist for).  The
    fault fires while ``attempt < times`` and the task is clean
    afterwards, so retry-to-success paths are testable.
    """

    kind: str
    times: int = 1
    hang_s: float = 3600.0
    #: ``kill`` only: wall seconds into the attempt at which the process
    #: dies (0 dies immediately, like ``crash``).
    after_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; choose from {_FAULT_KINDS}"
            )
        if self.times < 0:
            raise ConfigurationError("fault times must be >= 0")
        if self.hang_s <= 0:
            raise ConfigurationError("hang_s must be positive")
        if self.after_s < 0:
            raise ConfigurationError("after_s must be >= 0")


@dataclass(frozen=True)
class ReproFaultPlan:
    """Deterministic fault injection, keyed by task id.

    The plan crosses the process boundary through the
    :data:`FAULT_PLAN_ENV` environment variable, so the *worker* applies
    the fault — faults only ever fire inside child processes (a process
    with a parent); serial in-master execution is immune by design,
    which is exactly what makes serial degradation a safe fallback.
    """

    faults: Dict[str, FaultSpec] = field(default_factory=dict)

    def spec_for(self, task_id: str, attempt: int) -> Optional[FaultSpec]:
        """The fault to apply at this attempt, if any."""
        spec = self.faults.get(task_id)
        if spec is not None and attempt < spec.times:
            return spec
        return None

    def to_json(self) -> str:
        return json.dumps(
            {tid: dataclasses.asdict(spec) for tid, spec in self.faults.items()},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ReproFaultPlan":
        try:
            raw = json.loads(text)
            faults = {tid: FaultSpec(**spec) for tid, spec in raw.items()}
        except (ValueError, TypeError) as exc:
            raise ConfigurationError(f"invalid fault plan JSON: {exc}") from exc
        return cls(faults=faults)

    @classmethod
    def from_env(cls) -> Optional["ReproFaultPlan"]:
        text = os.environ.get(FAULT_PLAN_ENV)
        return cls.from_json(text) if text else None

    @contextmanager
    def installed(self):
        """Export the plan to the environment for the enclosed block."""
        previous = os.environ.get(FAULT_PLAN_ENV)
        os.environ[FAULT_PLAN_ENV] = self.to_json()
        try:
            yield self
        finally:
            if previous is None:
                os.environ.pop(FAULT_PLAN_ENV, None)
            else:
                os.environ[FAULT_PLAN_ENV] = previous


def _apply_worker_fault(task_id: str, attempt: int) -> Optional[FaultSpec]:
    """Apply any pre-execution fault from the environment plan.

    Returns the spec when a post-execution fault (``corrupt``) still has
    to be applied by the caller.  No-op outside worker processes.
    """
    if multiprocessing.parent_process() is None:
        return None  # in-master (serial) execution: worker faults don't apply
    plan = ReproFaultPlan.from_env()
    spec = plan.spec_for(task_id, attempt) if plan is not None else None
    if spec is None:
        return None
    if spec.kind == "raise":
        raise ExperimentError(
            f"fault plan: injected failure for {task_id} (attempt {attempt})"
        )
    if spec.kind == "crash":
        os._exit(_CRASH_EXIT_CODE)
    if spec.kind == "hang":
        time.sleep(spec.hang_s)
    if spec.kind == "kill":
        if spec.after_s <= 0:
            os._exit(_CRASH_EXIT_CODE)
        timer = threading.Timer(spec.after_s, os._exit, args=(_CRASH_EXIT_CODE,))
        timer.daemon = True
        timer.start()
    return spec


# -------------------------------------------------------------- journal


def _journal_record(raw: bytes) -> Optional[dict]:
    """The JSON object on one journal line, or ``None`` if it holds none."""
    try:
        record = json.loads(raw.decode("utf-8"))
    except ValueError:  # JSONDecodeError and UnicodeDecodeError
        return None
    return record if isinstance(record, dict) else None


class SweepJournal:
    """Append-only JSONL log of sweep attempts, enabling ``--resume``.

    One record per attempt outcome::

        {"task": "table5", "attempt": 0, "outcome": "ok",
         "duration_s": 3.1, "cache_key": "ab12...", "error": ""}

    Outcomes: ``ok`` (ran to completion), ``cached`` (served from the
    on-disk cache), ``resumed`` (skipped — a previous journal run
    completed it), ``error``, ``timeout``, ``crash``, ``lost`` (in-flight
    when the pool was torn down for an unrelated timeout), and
    ``interrupted`` (in-flight at KeyboardInterrupt).
    """

    #: Outcomes that mean "this task's output is in the cache".
    DONE_OUTCOMES = frozenset({"ok", "cached", "resumed"})

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)
        self._fh = None

    def record(
        self,
        task_id: str,
        attempt: int,
        outcome: str,
        *,
        duration_s: float = 0.0,
        cache_key: str = "",
        error: str = "",
    ) -> None:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._repair_torn_tail()
            self._fh = open(self.path, "a", encoding="utf-8")
        entry = {
            "task": task_id,
            "attempt": attempt,
            "outcome": outcome,
            "duration_s": round(duration_s, 6),
            "cache_key": cache_key,
            "error": error,
        }
        self._fh.write(json.dumps(entry, sort_keys=True) + "\n")
        self._fh.flush()

    def _repair_torn_tail(self) -> None:
        """End the journal at a record boundary before the first append.

        Appending onto a torn last line would fuse the fragment and the
        new record into one corrupt line that is no longer the last, which
        :meth:`read_entries` then refuses.  So a last line that is not a
        record is cut off (with the reader's "torn write" warning), and a
        complete last record that only lost its newline gets one.
        """
        try:
            fh = open(self.path, "rb+")
        except FileNotFoundError:
            return
        with fh:
            data = fh.read()
            body = data.rstrip()
            start = body.rfind(b"\n") + 1
            if _journal_record(body[start:]) is not None:
                if not data.endswith(b"\n"):
                    fh.write(b"\n")
                return
            if body:
                line = body.count(b"\n", 0, start) + 1
                warnings.warn(
                    f"sweep journal {os.fspath(self.path)}:{line}: cutting "
                    f"corrupt last line (torn write?) before appending",
                    RuntimeWarning,
                    stacklevel=3,
                )
            fh.truncate(start)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @staticmethod
    def read_entries(path: os.PathLike) -> List[dict]:
        """All records, tolerating a torn tail; ``[]`` if there is no journal.

        A journal whose writer was SIGKILLed mid-``write`` legitimately
        ends in a torn line; a corrupt *last* line is skipped with a
        warning naming the line number, so ``--resume`` keeps working
        after a crash while the operator still learns the file was
        damaged.  Corruption anywhere before the last line is not a torn
        write: it raises :class:`~repro.errors.StateError` naming
        ``path:line``, because dropping the record would silently rerun
        (or forget the failure of) that task.  Only a missing file means
        "no journal"; any other read error (a directory in its place, a
        permission problem) propagates rather than rerunning every task.
        """
        try:
            with open(path, "rb") as fh:
                lines = fh.read().splitlines()
        except FileNotFoundError:
            return []
        last = max((i for i, raw in enumerate(lines) if raw.strip()), default=-1)
        entries: List[dict] = []
        for i, raw in enumerate(lines):
            raw = raw.strip()
            if not raw:
                continue
            record = _journal_record(raw)
            if record is not None:
                entries.append(record)
                continue
            if i != last:
                raise StateError(
                    f"{os.fspath(path)}:{i + 1}: corrupt sweep journal record "
                    f"before the last line (not a torn tail); refusing to drop it"
                )
            warnings.warn(
                f"sweep journal {os.fspath(path)}:{i + 1}: skipping corrupt "
                f"last line (torn write?)",
                RuntimeWarning,
                stacklevel=2,
            )
        return entries

    @classmethod
    def completed_tasks(cls, path: os.PathLike) -> Dict[str, str]:
        """task_id -> cache_key for every task the journal saw finish."""
        done: Dict[str, str] = {}
        for entry in cls.read_entries(path):
            if entry.get("outcome") in cls.DONE_OUTCOMES:
                done[str(entry.get("task"))] = str(entry.get("cache_key", ""))
        return done


# ---------------------------------------------------------------- tasks


@dataclass(frozen=True)
class TaskSpec:
    """One schedulable experiment invocation."""

    task_id: str
    exp_id: str
    scale: float
    seed: Optional[int]
    cache_key: str = ""


@dataclass(frozen=True)
class TaskFailure:
    """Terminal failure of one task, after its whole retry budget."""

    task_id: str
    error_type: str
    message: str
    attempts: int
    #: The final exception instance (for the raising, non-partial path).
    exception: Optional[BaseException] = None


@dataclass
class SweepReport:
    """Outcome of a fault-tolerant sweep: outputs plus failure report."""

    order: List[str] = field(default_factory=list)
    outputs: Dict[str, ExperimentOutput] = field(default_factory=dict)
    failures: List[TaskFailure] = field(default_factory=list)
    attempts: Dict[str, int] = field(default_factory=dict)
    pool_respawns: int = 0
    timeouts: int = 0
    degraded_serial: bool = False
    #: Tasks served without running: from cache, or journal-resumed.
    cached: List[str] = field(default_factory=list)
    resumed: List[str] = field(default_factory=list)
    #: Tasks that resumed mid-simulation from an engine snapshot.
    restored: List[str] = field(default_factory=list)
    #: The sweep wound down early (SIGTERM/SIGINT or the wall-clock
    #: budget): remaining work is journaled ``interrupted`` and resumable;
    #: callers should treat this as preemption, not failure.
    interrupted: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures

    def ordered_outputs(self) -> List[Optional[ExperimentOutput]]:
        """Outputs in submission order (``None`` for failed tasks)."""
        return [self.outputs.get(tid) for tid in self.order]

    def failure_summary(self) -> str:
        """One line per failure, for logs and the CLI."""
        return "\n".join(
            f"{f.task_id}: {f.error_type} after {f.attempts} attempt(s): {f.message}"
            for f in self.failures
        )

    def raise_if_failed(self) -> None:
        """Raise the failure (typed when unambiguous) unless all tasks passed."""
        if not self.failures:
            return
        first = self.failures[0]
        if len(self.failures) == 1 and isinstance(first.exception, ExperimentError):
            raise first.exception
        raise ExperimentError(
            f"{len(self.failures)} task(s) failed:\n{self.failure_summary()}"
        ) from first.exception


@contextmanager
def _checkpoint_env(
    checkpoint_dir: Optional[str],
    sim_interval_s: Optional[float],
    wall_interval_s: Optional[float],
):
    """Export engine checkpoint/restore settings for the enclosed task.

    The engine folds ``REPRO_CHECKPOINT_*`` into its config and
    ``REPRO_RESTORE`` makes :func:`repro.engine.datacenter.simulate`
    resume from the newest compatible snapshot — this is how the
    subsystem reaches engines buried inside experiment modules without
    threading a parameter through 18 registry entries.  Previous values
    are restored on exit (pool workers are reused across tasks).
    """
    if checkpoint_dir is None:
        yield
        return
    updates = {
        "REPRO_CHECKPOINT_DIR": checkpoint_dir,
        "REPRO_RESTORE": "1",
    }
    if sim_interval_s is not None:
        updates["REPRO_CHECKPOINT_INTERVAL"] = repr(float(sim_interval_s))
    if wall_interval_s is not None:
        updates["REPRO_CHECKPOINT_WALL_INTERVAL"] = repr(float(wall_interval_s))
    previous = {name: os.environ.get(name) for name in updates}
    os.environ.update(updates)
    try:
        yield
    finally:
        for name, value in previous.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


@contextmanager
def _graceful_worker_signals(enabled: bool):
    """Checkpoint-then-exit-0 on SIGTERM/SIGINT inside a worker.

    Only active in worker processes with checkpointing on (the default
    die-fast behaviour is correct otherwise).  The handler merely sets
    the engine module's global graceful-stop flag; the running engine
    notices it at the next event boundary, writes a final snapshot and
    raises :class:`~repro.errors.SimulationInterrupted`, which
    :func:`run_task` converts into a clean ``os._exit(0)``.
    """
    if not enabled or multiprocessing.parent_process() is None:
        yield
        return
    from repro.engine.datacenter import request_global_graceful_stop

    def _handler(signum, frame):
        request_global_graceful_stop()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _handler)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    try:
        yield
    finally:
        for signum, old in previous.items():
            try:
                signal.signal(signum, old)
            except (ValueError, OSError):  # pragma: no cover - defensive
                pass


def run_task(
    task_id: str,
    exp_id: str,
    scale: float,
    seed: Optional[int],
    attempt: int,
    checkpoint_dir: Optional[str] = None,
    checkpoint_sim_interval_s: Optional[float] = None,
    checkpoint_wall_interval_s: Optional[float] = None,
):
    """Worker entry point: run one experiment module (picklable).

    Applies any environment fault plan first (worker processes only),
    then invokes the registry entry exactly as the serial path would —
    all seeding is explicit, so the rows are attempt-independent.  With
    ``checkpoint_dir`` set, the task's engines snapshot there and a
    retried attempt resumes from the newest snapshot instead of
    recomputing (results stay bit-identical either way).
    """
    fault = _apply_worker_fault(task_id, attempt)
    from repro.experiments import registry

    kwargs = {"scale": scale}
    if seed is not None:
        kwargs["seed"] = seed
    in_worker = multiprocessing.parent_process() is not None
    try:
        with _graceful_worker_signals(checkpoint_dir is not None):
            with _checkpoint_env(
                checkpoint_dir,
                checkpoint_sim_interval_s,
                checkpoint_wall_interval_s,
            ):
                out = registry.get(exp_id)(**kwargs)
    except SimulationInterrupted:
        if in_worker:
            # The final snapshot is on disk; die clean so the supervisor
            # reads this as preemption, not failure ("checkpoint, exit 0").
            os._exit(0)
        raise
    if fault is not None and fault.kind == "corrupt":
        return f"<result corrupted by fault plan (attempt {attempt})>"
    return out


# ------------------------------------------------------------- executor


def _worker_init() -> None:
    """Pool-worker initializer: undo inherited master signal handlers.

    Forked workers inherit whatever handlers :func:`execute_tasks`
    installed in the master; left in place they would swallow the
    SIGTERM that :func:`_terminate_pool` relies on to reap hung workers.
    SIGTERM returns to the default (die; :func:`run_task` re-installs a
    checkpoint-then-exit handler around checkpointing tasks) and SIGINT
    is ignored — a Ctrl-C is the *master's* cue to wind the sweep down
    gracefully, not a reason for every worker to die mid-checkpoint.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Hard shutdown: cancel queued work and kill worker processes.

    ``shutdown(cancel_futures=True)`` alone cannot reap a *hung* worker
    (there is no public per-worker kill), so the worker processes are
    terminated directly — the executor is dead afterwards and must be
    replaced.
    """
    procs = list(getattr(pool, "_processes", {}).values())
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - defensive
        pass
    for proc in procs:
        try:
            proc.terminate()
        except Exception:  # pragma: no cover - already dead
            pass
    for proc in procs:
        try:
            proc.join(5)
        except Exception:  # pragma: no cover - defensive
            pass


class _Sweep:
    """Mutable bookkeeping shared by the serial and parallel paths."""

    def __init__(
        self,
        policy: ExecutionPolicy,
        journal: Optional[SweepJournal],
        on_complete: Optional[Callable[[TaskSpec, ExperimentOutput], None]],
        stop: Optional[dict] = None,
    ) -> None:
        self.policy = policy
        self.journal = journal
        self.on_complete = on_complete
        self.report = SweepReport()
        #: Shared with the signal handlers installed by execute_tasks.
        self._stop = stop if stop is not None else {"flag": False}
        self._deadline = (
            time.monotonic() + policy.max_wall_clock_s
            if policy.max_wall_clock_s is not None
            else None
        )

    def stopping(self) -> bool:
        """True once a signal arrived or the sweep wall budget expired."""
        if self._stop["flag"]:
            return True
        if self._deadline is not None and time.monotonic() >= self._deadline:
            self._stop["flag"] = True  # latch: the wind-down is one-way
            return True
        return False

    def note_dispatch(self, task: TaskSpec, attempt: int) -> None:
        """Journal a ``restored`` outcome when the attempt will resume.

        Recorded at dispatch time: snapshots live in the task's
        checkpoint directory, so a non-empty directory means this attempt
        picks up mid-simulation instead of starting over.
        """
        directory = self.policy.task_checkpoint_dir(task.task_id)
        if directory is None:
            return
        try:
            has_snapshot = any(Path(directory).rglob("*.ckpt"))
        except OSError:  # pragma: no cover - unreadable dir
            has_snapshot = False
        if has_snapshot:
            self._journal(task, attempt, "restored")
            if task.task_id not in self.report.restored:
                self.report.restored.append(task.task_id)

    def _journal(self, task: TaskSpec, attempt: int, outcome: str, **kw) -> None:
        if self.journal is not None:
            self.journal.record(
                task.task_id, attempt, outcome, cache_key=task.cache_key, **kw
            )

    def succeed(
        self, task: TaskSpec, attempt: int, output: ExperimentOutput, duration: float
    ) -> None:
        self.report.attempts[task.task_id] = attempt + 1
        self.report.outputs[task.task_id] = output
        # Cache (and journal) immediately, in completion order — a later
        # failure or interrupt never throws away a finished result.
        if self.on_complete is not None:
            self.on_complete(task, output)
        self._journal(task, attempt, "ok", duration_s=duration)
        directory = self.policy.task_checkpoint_dir(task.task_id)
        if directory is not None:
            # The task is done and cached: its snapshots are dead weight.
            shutil.rmtree(directory, ignore_errors=True)

    def fail_attempt(
        self,
        task: TaskSpec,
        attempt: int,
        outcome: str,
        exc: BaseException,
        duration: float,
    ) -> bool:
        """Record a failed attempt; True when the task may be retried."""
        self.report.attempts[task.task_id] = attempt + 1
        self._journal(
            task, attempt, outcome, duration_s=duration, error=f"{exc!r}"
        )
        if attempt + 1 <= self.policy.retries:
            return True
        self.report.failures.append(
            TaskFailure(
                task_id=task.task_id,
                error_type=type(exc).__name__,
                message=str(exc),
                attempts=attempt + 1,
                exception=exc,
            )
        )
        return False

    def validated(self, task: TaskSpec, result: object) -> ExperimentOutput:
        if not isinstance(result, ExperimentOutput):
            raise ExperimentError(
                f"worker for {task.task_id} returned a corrupt result "
                f"({type(result).__name__!s}, not ExperimentOutput)"
            )
        return result


def _run_serial(
    sweep: _Sweep, work: List[Tuple[TaskSpec, int]], *, degraded: bool = False
) -> None:
    """Run ``(task, first_attempt)`` pairs in-process, with retries.

    Per-task timeouts are unenforceable here (no portable way to
    interrupt the calling process); worker faults do not fire in-master,
    so this is also the safe landing spot after repeated pool breakage.
    """
    policy = sweep.policy
    for task, first_attempt in work:
        if sweep.stopping():
            sweep.report.interrupted = True
            return
        attempt = first_attempt
        while True:
            delay = policy.backoff_s(task.task_id, attempt)
            if delay > 0:
                time.sleep(delay)
            sweep.note_dispatch(task, attempt)
            t0 = time.monotonic()
            try:
                out = sweep.validated(
                    task,
                    run_task(
                        task.task_id,
                        task.exp_id,
                        task.scale,
                        task.seed,
                        attempt,
                        checkpoint_dir=policy.task_checkpoint_dir(task.task_id),
                        checkpoint_sim_interval_s=policy.checkpoint_sim_interval_s,
                        checkpoint_wall_interval_s=policy.checkpoint_wall_interval_s,
                    ),
                )
            except SimulationInterrupted as exc:
                # Graceful preemption mid-task: the engine already wrote
                # its final snapshot, so the attempt is resumable — not a
                # failure, and not retried now.
                sweep._journal(
                    task,
                    attempt,
                    "interrupted",
                    duration_s=time.monotonic() - t0,
                    error=f"{exc!r}",
                )
                sweep.report.interrupted = True
                return
            except Exception as exc:
                if sweep.fail_attempt(
                    task, attempt, "error", exc, time.monotonic() - t0
                ):
                    attempt += 1
                    continue
                break
            sweep.succeed(task, attempt, out, time.monotonic() - t0)
            break
    if degraded:
        sweep.report.degraded_serial = True


def _run_parallel(sweep: _Sweep, tasks: Sequence[TaskSpec], jobs: Optional[int]) -> None:
    """The fault-tolerant process-pool event loop (see module docstring)."""
    policy = sweep.policy
    workers = jobs if jobs is not None else (os.cpu_count() or 1)
    workers = max(1, min(workers, len(tasks)))

    #: (task, attempt, earliest start in monotonic time).
    backlog: List[Tuple[TaskSpec, int, float]] = [(t, 0, 0.0) for t in tasks]
    #: future -> (task, attempt, deadline, start time).
    pending: Dict[Future, Tuple[TaskSpec, int, float, float]] = {}
    pool: Optional[ProcessPoolExecutor] = ProcessPoolExecutor(max_workers=workers, initializer=_worker_init)
    respawns = 0

    def submit(task: TaskSpec, attempt: int) -> None:
        now = time.monotonic()
        sweep.note_dispatch(task, attempt)
        future = pool.submit(
            run_task,
            task.task_id,
            task.exp_id,
            task.scale,
            task.seed,
            attempt,
            checkpoint_dir=policy.task_checkpoint_dir(task.task_id),
            checkpoint_sim_interval_s=policy.checkpoint_sim_interval_s,
            checkpoint_wall_interval_s=policy.checkpoint_wall_interval_s,
        )
        deadline = (
            now + policy.task_timeout_s
            if policy.task_timeout_s is not None
            else math.inf
        )
        pending[future] = (task, attempt, deadline, now)

    def requeue(task: TaskSpec, attempt: int, *, backoff: bool) -> None:
        delay = policy.backoff_s(task.task_id, attempt) if backoff else 0.0
        backlog.append((task, attempt, time.monotonic() + delay))

    try:
        while backlog or pending:
            if sweep.stopping():
                # Graceful wind-down (signal or wall budget): journal the
                # in-flight work as resumable and terminate the pool —
                # workers with checkpointing on snapshot on their way out.
                for future, (task, attempt, _, t0) in pending.items():
                    sweep._journal(
                        task, attempt, "interrupted",
                        duration_s=time.monotonic() - t0,
                    )
                pending.clear()
                sweep.report.interrupted = True
                _terminate_pool(pool)
                pool = None
                return
            now = time.monotonic()
            due = [item for item in backlog if item[2] <= now]
            backlog = [item for item in backlog if item[2] > now]
            for task, attempt, _ in due:
                submit(task, attempt)

            next_deadline = min(
                (deadline for _, _, deadline, _ in pending.values()),
                default=math.inf,
            )
            next_due = min((nb for _, _, nb in backlog), default=math.inf)
            wake = min(next_deadline, next_due)
            timeout = None if wake is math.inf else max(0.0, wake - now)
            # Cap the wait so signals and the wall budget are noticed
            # promptly even while every worker is deep in a long task.
            timeout = 0.5 if timeout is None else min(timeout, 0.5)

            if not pending:
                # Only backoff waits remain; sleep until the nearest one.
                time.sleep(min(timeout if timeout is not None else 0.01, 0.05))
                continue

            done, _ = wait(set(pending), timeout=timeout, return_when=FIRST_COMPLETED)

            broken = False
            for future in done:
                task, attempt, _, t0 = pending.pop(future)
                duration = time.monotonic() - t0
                try:
                    out = sweep.validated(task, future.result())
                except BrokenProcessPool:
                    broken = True
                    crash = WorkerCrashError(
                        f"worker pool broke while running {task.task_id} "
                        f"(attempt {attempt})"
                    )
                    if sweep.fail_attempt(task, attempt, "crash", crash, duration):
                        requeue(task, attempt + 1, backoff=True)
                except Exception as exc:
                    if sweep.fail_attempt(task, attempt, "error", exc, duration):
                        requeue(task, attempt + 1, backoff=True)
                else:
                    sweep.succeed(task, attempt, out, duration)

            if broken:
                # Every other in-flight future is doomed too: charge each
                # an attempt (the culprit is unattributable) and either
                # respawn the pool or fall back to serial execution.
                for future, (task, attempt, _, t0) in list(pending.items()):
                    crash = WorkerCrashError(
                        f"worker pool broke with {task.task_id} in flight "
                        f"(attempt {attempt})"
                    )
                    if sweep.fail_attempt(
                        task, attempt, "crash", crash, time.monotonic() - t0
                    ):
                        requeue(task, attempt + 1, backoff=True)
                pending.clear()
                _terminate_pool(pool)
                respawns += 1
                sweep.report.pool_respawns = respawns
                if respawns > policy.max_pool_respawns:
                    remaining = [(t, a) for t, a, _ in backlog]
                    backlog = []
                    pool = None
                    _run_serial(sweep, remaining, degraded=True)
                    return
                pool = ProcessPoolExecutor(max_workers=workers, initializer=_worker_init)
                continue

            now = time.monotonic()
            overdue = {
                future
                for future, (_, _, deadline, _) in pending.items()
                if now >= deadline
            }
            if overdue:
                # A hung worker cannot be reaped individually: tear the
                # whole pool down, time out the overdue tasks, and
                # re-submit the innocent in-flight ones at no cost.
                lost = list(pending.items())
                pending.clear()
                _terminate_pool(pool)
                pool = ProcessPoolExecutor(max_workers=workers, initializer=_worker_init)
                for future, (task, attempt, _, t0) in lost:
                    duration = now - t0
                    if future in overdue:
                        sweep.report.timeouts += 1
                        timeout_exc = TaskTimeoutError(
                            f"{task.task_id} exceeded its "
                            f"{policy.task_timeout_s:.1f}s task timeout "
                            f"(attempt {attempt})"
                        )
                        if sweep.fail_attempt(
                            task, attempt, "timeout", timeout_exc, duration
                        ):
                            requeue(task, attempt + 1, backoff=True)
                    else:
                        sweep._journal(task, attempt, "lost", duration_s=duration)
                        requeue(task, attempt, backoff=False)
    except BaseException:
        # KeyboardInterrupt (or any unexpected error): journal what was
        # in flight and reap the pool so no orphaned workers hold the
        # terminal or keep burning CPU.
        for future, (task, attempt, _, t0) in pending.items():
            sweep._journal(
                task, attempt, "interrupted", duration_s=time.monotonic() - t0
            )
        if pool is not None:
            _terminate_pool(pool)
            pool = None
        raise
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)


def execute_tasks(
    tasks: Sequence[TaskSpec],
    *,
    policy: Optional[ExecutionPolicy] = None,
    parallel: bool = False,
    jobs: Optional[int] = None,
    journal: Optional[SweepJournal] = None,
    on_complete: Optional[Callable[[TaskSpec, ExperimentOutput], None]] = None,
) -> SweepReport:
    """Run tasks under an execution policy; never loses a finished result.

    ``on_complete(task, output)`` fires in *completion* order, as soon as
    each task finishes (the runner uses it to persist cache entries
    immediately).  The returned report carries completed outputs, per-task
    attempt counts and a structured failure list; it is the caller's
    choice (``policy.partial``) whether failures raise or are reported.

    While the sweep runs, SIGTERM and SIGINT are handled gracefully (main
    thread only): the sweep stops dispatching, in-flight tasks are
    journaled ``interrupted``, checkpointing workers snapshot on their way
    down, and the report returns with ``interrupted=True``.  A second
    signal abandons politeness and raises :class:`KeyboardInterrupt`.
    """
    sweep = _Sweep(policy or ExecutionPolicy(), journal, on_complete)
    sweep.report.order = [t.task_id for t in tasks]
    if not tasks:
        return sweep.report

    from repro.engine.datacenter import (
        clear_global_graceful_stop,
        request_global_graceful_stop,
    )

    def _handler(signum, frame):
        if sweep._stop["flag"]:
            raise KeyboardInterrupt
        sweep._stop["flag"] = True
        # Reaches a serial in-process engine mid-simulation (the parallel
        # loop notices the flag between waits; workers get SIGTERM from
        # the pool teardown and checkpoint through their own handlers).
        request_global_graceful_stop()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _handler)
        except ValueError:  # not the main thread: run unguarded
            pass
    try:
        if parallel:
            _run_parallel(sweep, tasks, jobs)
        else:
            _run_serial(sweep, [(t, 0) for t in tasks])
    finally:
        for signum, old in previous.items():
            try:
                signal.signal(signum, old)
            except (ValueError, OSError):  # pragma: no cover - defensive
                pass
        clear_global_graceful_stop()
    return sweep.report
