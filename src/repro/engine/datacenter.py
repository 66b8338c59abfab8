"""The datacenter simulation engine.

:class:`DatacenterSimulation` orchestrates one run: a workload trace
arrives at a cluster, a scheduling policy (plus the λ power manager)
decides placements/migrations/power changes, and every quantity the paper
reports is integrated exactly between events.

Event vocabulary (matching the paper's "scheduling round is started when a
new VM enters the system, finishes its execution, a violation in its SLA
is detected, or the reliability of a node changes"):

* **job arrival** → queue the VM, trigger a round;
* **scheduling round** (coalesced per timestamp) → policy decisions,
  actuator application, power-manager control, share/power refresh;
* **creation done / migration done / boot done** → residency changes,
  refresh, and a follow-up round when work is waiting;
* **job completion** → analytically scheduled from the VM's share, always
  re-derived when shares change;
* **host failure / repair** (optional) → re-queue lost VMs (restoring the
  latest checkpoint when available), clean up cross-host operations;
* **SLA tick** (optional) → dynamic requirement inflation and a round;
* **operation faults** (optional, ``EngineConfig.faults``) → creation
  failures, mid-flight migration aborts and boot failures sampled by
  :class:`~repro.cluster.faults.OperationFaultModel`, handled by a
  supervisor layer: failed creations are re-queued with capped backoff
  (in simulated time), flapping hosts are quarantined out of the
  candidate set for a while, and per-host operation outcomes feed an
  :class:`~repro.cluster.faults.ObservedReliability` tracker the score
  policy can use in place of the static ``F_rel``.

Progress accounting is exact *and lazy*: a VM's work integral advances at
its current share, and shares only change inside events — specifically in
:meth:`DatacenterSimulation._refresh`, and only on dirty hosts.  The work
integral therefore does not need to be re-sampled on every event; it is
enough to advance a VM right before anything that could change its share
(the dirty-host sweep in ``_refresh``) or that reads its progress (the
completion check, the checkpoint tick, the end-of-run result builder).
Between those points :meth:`~repro.cluster.vm.Vm.eta` stays exact because
it anchors its projection at ``last_progress_t`` rather than assuming the
integral is current.  This turns the per-event cost from O(placed VMs)
into O(VMs on dirty hosts).

The steady-state path is O(dirty hosts) end-to-end: ``self.vms`` is the
*historical* registry (a week-long trace ends with thousands of dead
entries), so every recurring consumer — :meth:`_context`, the checkpoint
tick — walks ``self._live`` instead, an insertion-ordered dict holding
only VMs that still need attention (queued or placed, in arrival order,
so policies see exactly the sequences the historical full-dict filter
produced).  The SLA checks walk no VM set at all: the monitor's
fulfilment index is re-assessed from the same dirty-host sweep, and a
check reads only its violators.  Node metrics are delta-maintained from the
same dirty-host sweep (see :mod:`repro.engine.metrics`); only checkpoint
snapshots and the end-of-run result builder may touch everything — see
``docs/architecture.md`` for the invariant.

**Workload feed.**  ``trace`` may be a materialized
:class:`~repro.workload.trace.Trace` or a lazily produced
:class:`~repro.workload.stream.JobStream`; the engine treats both as one
iterable of submit-ordered jobs.  Arrivals are *chained* — each arrival
event pulls the next job and schedules it before processing its own — so
at most one future arrival sits in the event heap.  Arrivals carry
priority ``-1``, so they fire ahead of every same-time engine event, in
workload order.  When the workload runs dry a horizon-guard event at
``last submit + drain_grace_s`` bounds the run (the last job finishing
stops it earlier, and then the guard never fires).  Every retired VM
(completed, or failed for good) compacts its result statistics into flat
arrays, and the result fold reads those plus the live set.  The one
difference between the two input kinds: a stream also prunes retired VMs
from the registry, so a 10⁶-job sweep holds O(live VMs) of state instead
of O(total jobs), while a trace keeps them for the readers of
``self.vms`` after the run (``job_records``, economics accounting,
federation), and so does live mode (the service's duplicate-admission
check).  Those kept VMs are the *retired archive*: a retired VM never
changes again, so a snapshot pickles it once into a cached chunk (see
:meth:`__getstate__`), writes the chunk once to the run's chunk log, and
later snapshots refer to it there (:mod:`repro.engine.snapshot`).  The
event trace's records and a trace's job specs are chunked the same way,
and a trace job pickles as its arrival index wherever it is held; a
snapshot's object walk covers the live set, not the run's history.
"""

from __future__ import annotations

import itertools
import math
import os
import time as _time
import warnings

from array import array
from collections import deque
from dataclasses import replace as _replace
from functools import partial
from typing import (
    Callable, Deque, Dict, Iterator, List, Optional, Set, Tuple, Union,
)

from repro.cluster.checkpoint import CheckpointStore
from repro.cluster.failures import FailureProcess
from repro.cluster.faults import ObservedReliability, OperationFaultModel
from repro.cluster.host import Host, HostState, Operation, OperationKind
from repro.cluster.spec import ClusterSpec
from repro.cluster.vm import Vm, VmState
from repro.cluster.xen import ShareMemo
from repro.des.random import RandomStreams
from repro.des.simulator import Simulator
from repro.engine.actuators import ActuatorsMixin
from repro.engine.chunks import (
    Chunk, RefUnpickler, TraceRefs, dumps, logged_copy_problem,
)
from repro.engine.config import EngineConfig
from repro.engine.metrics import MetricsCollector
from repro.engine.results import SimulationResult
from repro.engine.tracing import EventTrace, TraceEventKind
from repro.errors import ConfigurationError, SimulationInterrupted, StateError
from repro.scheduling.base import SchedulingContext, SchedulingPolicy
from repro.scheduling.power_manager import PowerManager, PowerManagerConfig
from repro.sla.monitor import SlaMonitor
from repro.workload.job import Job, JobState
from repro.workload.stream import JobStream
from repro.workload.trace import Trace, TraceCursor

__all__ = [
    "DatacenterSimulation",
    "simulate",
    "request_global_graceful_stop",
    "clear_global_graceful_stop",
]

#: Absolute work tolerance (percent-seconds) under which a VM is complete.
_WORK_EPS = 1e-6

#: Process-wide graceful-stop flag: set from a SIGTERM/SIGINT handler when
#: the handler has no engine reference (sweep workers run engines buried
#: inside experiment modules).  Any engine with the post-event hook armed
#: (checkpointing or a wall budget active) notices it at the next event
#: boundary, writes a final snapshot, and raises
#: :class:`~repro.errors.SimulationInterrupted`; the flag is cleared when
#: the interrupt fires so later runs in the same process start clean.
_GLOBAL_GRACEFUL_STOP = False


def request_global_graceful_stop() -> None:
    """Signal-handler-safe: ask every hook-armed engine to checkpoint and stop."""
    global _GLOBAL_GRACEFUL_STOP
    _GLOBAL_GRACEFUL_STOP = True


def clear_global_graceful_stop() -> None:
    global _GLOBAL_GRACEFUL_STOP
    _GLOBAL_GRACEFUL_STOP = False


def _strict_from_env(config: EngineConfig) -> EngineConfig:
    """``config`` with the ``REPRO_STRICT_INVARIANTS`` switch applied.

    CI guard rail: ``raise`` or ``resync`` force-enables the
    strict-invariant oracles for a whole test run without every call site
    having to thread a config through; any other value enables them in
    the config's own mode.  A config that already asks for them keeps its
    mode.
    """
    env_mode = os.environ.get("REPRO_STRICT_INVARIANTS")
    if env_mode and not config.strict_invariants:
        config = _replace(
            config,
            strict_invariants=True,
            invariant_mode=(
                env_mode if env_mode in ("raise", "resync")
                else config.invariant_mode
            ),
        )
    return config


class DatacenterSimulation(ActuatorsMixin):
    """One simulated datacenter run.

    Parameters
    ----------
    cluster:
        Host inventory.
    policy:
        The scheduling policy under test.
    trace:
        Workload — a materialized :class:`Trace` or a lazily produced
        :class:`~repro.workload.stream.JobStream` (see the module
        docstring for the workload feed and the stream's memory
        contract); consumed fresh (caller should pass ``trace.fresh()``
        when reusing a workload across runs — :func:`simulate` does).
        ``None`` selects *live mode*: no arrivals are armed and the
        horizon is open-ended — an external driver (the
        :mod:`repro.service` control plane) feeds jobs in through
        :meth:`inject_job` and steps the clock itself.
    pm_config:
        λmin/λmax thresholds of the power manager.
    config:
        Engine knobs (seed, jitter, failures, ...).
    power_manager:
        A pre-built controller instance (e.g.
        :class:`~repro.scheduling.adaptive.AdaptivePowerManager`);
        overrides ``pm_config`` when given.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        policy: SchedulingPolicy,
        trace: Optional[Union[Trace, JobStream]],
        pm_config: Optional[PowerManagerConfig] = None,
        config: Optional[EngineConfig] = None,
        power_manager: Optional[PowerManager] = None,
    ) -> None:
        self.cluster = cluster
        self.policy = policy
        self.trace = trace
        self._streaming = isinstance(trace, JobStream)
        self.config = _strict_from_env(config or EngineConfig())
        self.power_manager = power_manager or PowerManager(
            pm_config or PowerManagerConfig()
        )
        self.streams = RandomStreams(seed=self.config.seed)
        self.sim = Simulator()

        self.hosts: List[Host] = [Host(spec) for spec in cluster]
        self.hosts_by_id: Dict[int, Host] = {h.host_id: h for h in self.hosts}

        # Warm start: the first `initial_on` hosts by boot preference are on.
        warm = sorted(self.hosts, key=PowerManager._boot_preference)
        for h in warm[: self.config.initial_on]:
            h.state = HostState.ON

        self.vms: Dict[int, Vm] = {}
        #: Retired archive (trace and live mode; a stream prunes its
        #: retired VMs, so it stays empty there).  A retired VM never
        #: changes again, so a snapshot pickles it once: ``_retired_new``
        #: holds the VMs retired since the last pickle, and
        #: :meth:`__getstate__` pickles them into one more
        #: :class:`~repro.engine.chunks.Chunk` of ``_archive``.
        #: ``_archived`` holds each chunk's VM objects (the ones in
        #: ``self.vms``) for the strict-mode oracle.
        self._archive: List[Chunk] = []
        self._archived: List[List[Vm]] = []
        self._retired_new: List[Vm] = []
        #: Trace mode: pickles the trace's jobs by arrival index (built at
        #: the first pickle, never pickled itself).
        self._trace_refs: Optional[TraceRefs] = None
        #: Names this run's chunk log; drawn at the first snapshot, and
        #: pickled, so a resumed run extends its own log.
        self._lineage: Optional[str] = None
        #: Live set: VMs still queued or placed, in arrival order.  The
        #: steady-state scans (context building, checkpoint tick) iterate
        #: this instead of the ever-growing ``self.vms``.
        self._live: Dict[int, Vm] = {}
        #: FIFO of waiting VMs, keyed by vm_id (insertion-ordered dict so
        #: :meth:`queue_remove` is O(1) instead of a list scan).
        self.queue: Dict[int, Vm] = {}
        self._completion_handles: Dict[int, object] = {}
        self._dirty: Set[int] = set()
        #: Memoized share solutions for the dirty sweep
        #: (:meth:`Host.recompute_shares`).  It pickles with the engine,
        #: so resumed runs keep their cache (results-neutral either way).
        self._share_memo = ShareMemo()
        self._round_pending = False
        self._active_jobs = 0
        self._arrivals_pending = 0

        #: Distinct host hardware classes (arch, hypervisor, CPU capacity,
        #: memory) — requirement feasibility is a pure spec predicate, so
        #: the per-arrival "can any machine ever host this?" check is
        #: O(classes) (≤ 3 for the paper cluster) instead of O(hosts).
        self._feasible_classes: Tuple[Tuple[str, str, float, float], ...] = tuple(
            sorted(
                {
                    (s.arch, s.hypervisor, s.cpu_capacity, s.mem_mb)
                    for s in cluster
                }
            )
        )

        # ---- workload feed -----------------------------------------------
        #: Iterator over the workload (None before start and in live mode):
        #: a trace's :class:`~repro.workload.trace.TraceCursor` or a
        #: stream's :class:`~repro.workload.stream.FeedCursor`.  Both pickle
        #: their position, so a snapshot resumes the feed where it stopped.
        self._job_iter: Optional[Iterator[Job]] = None
        #: The one pulled job whose arrival event has not fired yet
        #: (counted as pending if the result is built before it fires).
        self._pending_arrival: Optional[Job] = None
        #: Jobs arrived so far; each arrival's index is its ``arrival_seq``.
        self._n_arrived = 0
        #: Compact per-retired-job statistics (arrival index, satisfaction,
        #: delay, wait) — four scalars per job, appended in retirement
        #: order and re-sorted into arrival order by the result fold.
        self._ret_seq = array("q")
        self._ret_sat = array("d")
        self._ret_delay = array("d")
        self._ret_wait = array("d")
        self._ret_completed = 0
        self._ret_failed = 0

        self.metrics = MetricsCollector(
            self.hosts, record_power_series=self.config.record_power_series
        )
        self.trace_log: Optional[EventTrace] = (
            EventTrace(self.config.trace_capacity)
            if self.config.trace_events
            else None
        )

        self.sla_monitor: Optional[SlaMonitor] = None
        if getattr(self.policy, "config", None) is not None and getattr(
            self.policy.config, "enable_sla", False
        ):
            self.sla_monitor = SlaMonitor()

        self.checkpoints = CheckpointStore(self.config.checkpoint_interval_s)

        # ---- operation-level chaos + self-healing supervisor -------------
        # The fault model draws from its own seed-derived stream family
        # ("faults.*" names), so chaos-off runs consume zero chaos draws
        # and stay bit-identical to pre-chaos baselines.
        faults = self.config.faults
        self.fault_model: Optional[OperationFaultModel] = None
        if faults is not None and faults.any_faults:
            chaos_seed = (
                self.config.chaos_seed
                if self.config.chaos_seed is not None
                else self.config.seed
            )
            self.fault_model = OperationFaultModel(faults, seed=chaos_seed)
        self._supervisor = self.fault_model is not None
        self.observed: Optional[ObservedReliability] = None
        if self._supervisor or self.config.observed_reliability:
            self.observed = ObservedReliability(
                {h.host_id: h.spec.reliability for h in self.hosts}
            )
        if self.config.observed_reliability and hasattr(
            self.policy, "reliability_source"
        ):
            # The score policy reads learned per-host reliabilities from
            # here instead of the static spec F_rel (ScoreConfig flag
            # use_observed_reliability gates the substitution).
            self.policy.reliability_source = self.observed
        #: Consecutive creation failures per VM (drives capped backoff).
        self._vm_attempts: Dict[int, int] = {}
        #: Pending re-queue events of parked (backing-off) VMs.
        self._park_handles: Dict[int, object] = {}
        #: Recent operation-failure timestamps per host (quarantine window).
        self._fault_windows: Dict[int, Deque[float]] = {}
        #: Recovery-latency accounting: first-failure time per VM, plus
        #: completed-recovery totals.
        self._recovery_started: Dict[int, float] = {}
        self._recovery_total_s = 0.0
        self._recoveries = 0
        #: Work destroyed by faults/crashes, in percent-seconds.
        self._lost_work_pct_s = 0.0

        self._failure_processes: Dict[int, FailureProcess] = {}
        if self.config.enable_failures:
            for h in self.hosts:
                if h.spec.reliability < 1.0:
                    self._failure_processes[h.host_id] = FailureProcess(
                        reliability=h.spec.reliability,
                        mttr_s=self.config.mttr_s,
                        rng=self.streams.child("failures", h.host_id),
                    )

        self._result: Optional[SimulationResult] = None
        self._started = False

        #: Strict-invariant guard rails: every oracle runs through
        #: :meth:`_guard`, from regular events only (no extra simulator
        #: events — ``sim_events`` and every row stay bit-identical with
        #: the mode enabled).  Resyncs are counted in
        #: ``metrics.counters["invariant_resyncs"]``.
        self._invariants_enabled = self.config.strict_invariants
        self._next_invariant_check = 0.0
        self._invariant_checks = 0

        # ---- engine-level checkpoint/restore -----------------------------
        # Env vars mirror REPRO_STRICT_INVARIANTS: they thread a checkpoint
        # policy into worker processes without every call site growing
        # knobs (the experiment runner's intra-task resume uses this).
        env_ckpt = os.environ.get("REPRO_CHECKPOINT_DIR")
        if env_ckpt and self.config.checkpoint_dir is None:
            ckpt_kw = {"checkpoint_dir": env_ckpt}
            for env_name, field_name in (
                ("REPRO_CHECKPOINT_INTERVAL", "checkpoint_sim_interval_s"),
                ("REPRO_CHECKPOINT_WALL_INTERVAL", "checkpoint_wall_interval_s"),
            ):
                raw = os.environ.get(env_name)
                if raw:
                    ckpt_kw[field_name] = float(raw)
            self.config = _replace(self.config, **ckpt_kw)
        #: Graceful-stop flag (set from signal handlers; acted on between
        #: events) and the optional wall-clock deadline of this attempt.
        self._graceful_stop = False
        self._wall_deadline: Optional[float] = None
        self._snapshotter = self._build_snapshotter()
        self._arm_post_event()

    # ------------------------------------------------- checkpoint/restore

    def __getstate__(self) -> dict:
        """Pickle the engine with ``self.vms`` as its key order only.

        The VMs retired since the last pickle go into one new chunk of
        the retired archive first; every chunk then travels as a
        :class:`~repro.engine.chunks.Chunk` (inline in a plain pickle, a
        chunk-log reference in a snapshot), the VMs not yet retired
        travel in ``self._live``, and :meth:`__setstate__` rebuilds the
        registry from both in the pickled key order.  A snapshot's object
        walk thus covers the live set, not the run's history.  Under
        strict invariants the ``retired archive`` oracle runs first.
        """
        if self._retired_new:
            self._archive.append(self._pickle_chunk(self._retired_new))
            self._archived.append(self._retired_new)
            self._retired_new = []
        if self._invariants_enabled:
            self._guard("retired archive", self._verify_archive, self._resync_archive)
        state = self.__dict__.copy()
        state["vms"] = list(self.vms)
        del state["_archived"], state["_trace_refs"]
        return state

    def __setstate__(self, state: dict) -> None:
        """Restore an engine unpickled from a snapshot.

        Snapshots pickle the engine as one identity-preserving graph:
        heap callbacks (``functools.partial`` of bound methods), RNG
        states, the policy's score matrix, and the workload iterator — a
        trace's list iterator, or a stream's
        :class:`~repro.workload.stream.FeedCursor`, which resumes by
        itself (see :mod:`repro.workload.stream` for when that is O(1)
        and when it replays).  The retired VMs come from the archive's
        chunks (see :meth:`__getstate__`); a trace's jobs stay the
        trace's own objects.  Three members leave derived payload out
        through their own ``__getstate__``: the score matrix its cell
        array (rebuilt by its ``__setstate__``) and its slot registry's
        finished VMs, the event trace its record objects (pickled as
        chunks of tuples), and the SLA monitor its fulfilment index,
        rebuilt here.
        """
        self.__dict__.update(state)
        self._trace_refs = None
        refs = self._refs()
        jobs = refs.trace._jobs if refs is not None else None
        self._archived = [
            RefUnpickler(chunk.data, jobs=jobs).load() for chunk in self._archive
        ]
        by_id = dict(self._live)
        for chunk in self._archived:
            for vm in chunk:
                by_id[vm.vm_id] = vm
        self.vms = {vm_id: by_id[vm_id] for vm_id in state["vms"]}
        if self.sla_monitor is not None:
            # The fulfilment index is derived state: one scan rebuilds it.
            self.sla_monitor.rebuild(self._live.values(), self.sim.now)

    def request_graceful_stop(self) -> None:
        """Ask the run to checkpoint and stop at the next event boundary.

        Safe to call from a signal handler: it only sets a flag (and arms
        the post-event hook if nothing else had); the actual snapshot and
        :class:`~repro.errors.SimulationInterrupted` happen between
        events, where the world is consistent.
        """
        self._graceful_stop = True
        self.sim.post_event = self._post_event

    def _post_event(self) -> None:
        """Inter-event boundary hook: checkpoint cadence + graceful stop.

        Never schedules events or draws randomness — enabling it leaves
        ``sim_events`` and every row bit-identical.
        """
        if self.sim.stop_requested:
            # The loop is ending (last job completed): the run is over,
            # so neither interrupt nor snapshot it.  A snapshot here
            # would capture a post-stop heap whose leftover periodic
            # ticks a resumed loop would then (wrongly) process.
            return
        if (
            self._graceful_stop
            or _GLOBAL_GRACEFUL_STOP
            or (
                self._wall_deadline is not None
                and _time.monotonic() >= self._wall_deadline
            )
        ):
            self._graceful_interrupt()
        snap = self._snapshotter
        if snap is not None:
            snap.maybe_write(self)

    def _graceful_interrupt(self) -> None:
        # Clear the transient stop state *before* the final snapshot so
        # the restored run does not immediately re-interrupt itself.
        self._graceful_stop = False
        self._wall_deadline = None
        clear_global_graceful_stop()
        detail = ""
        if self._snapshotter is not None:
            path = self._snapshotter.write(self)
            # The interrupt message promises the file exists; wait for
            # the background writer before making that claim.
            self._snapshotter.flush()
            detail = f"; snapshot written to {path}"
        raise SimulationInterrupted(
            f"run interrupted at t={self.sim.now:.0f}s after "
            f"{self.sim.events_processed} events{detail}"
        )

    def try_restore(self) -> Optional["DatacenterSimulation"]:
        """Load the newest compatible snapshot of this run, if any.

        Returns a *new* engine instance restored from disk (this one is
        untouched), or ``None`` when no snapshot exists yet.  A snapshot
        from a different config/seed raises
        :class:`~repro.errors.StateError` (fingerprint guard).  The
        restored engine adopts *this* invocation's operational settings
        (cadence, retention, wall budget) — the snapshot carries the
        interrupted run's knobs, and e.g. re-arming a long-expired
        ``max_wall_clock_s`` would make the resume interrupt itself.
        """
        if self._snapshotter is None:
            return None
        from repro.engine.snapshot import resume_from

        restored = resume_from(
            self._snapshotter.directory,
            expected_fingerprint=self._snapshotter.fingerprint,
        )
        if restored is not None:
            restored.adopt_operational(self.config)
        return restored

    def adopt_operational(self, config: "EngineConfig") -> None:
        """Adopt another invocation's operational settings after a restore.

        The fingerprint deliberately excludes checkpoint cadence,
        retention, wall budgets and strict-invariant checking, so a
        snapshot may be resumed under different operational knobs than
        the run that wrote it.  This replaces exactly those fields (never
        anything semantic), switches the invariant checks on or off to
        match (``REPRO_STRICT_INVARIANTS`` applies here as at
        construction), rebuilds the snapshotter accordingly while preserving its
        counters and index lineage, and re-derives the post-event hook.
        """
        from repro.engine.snapshot import _OPERATIONAL_FIELDS

        self.config = _strict_from_env(_replace(
            self.config,
            **{name: getattr(config, name) for name in _OPERATIONAL_FIELDS},
        ))
        self._invariants_enabled = self.config.strict_invariants
        old = self._snapshotter
        if old is not None:
            old.flush()
        snap = self._build_snapshotter(old.fingerprint if old is not None else None)
        if snap is not None:
            if old is not None:
                # Continue the lineage: indices keep ascending so the new
                # snapshot never collides with (or re-counts) an old one,
                # and the operational counters survive the resume.
                snap.written = old.written
                snap.bytes_written = old.bytes_written
                snap.restores = old.restores
                snap._index = old._index
                if (
                    snap.sim_interval_s is not None
                    and snap.sim_interval_s == old.sim_interval_s
                ):
                    snap._next_sim_due = old._next_sim_due
            if snap._next_sim_due is not None:
                # Re-anchor the cadence to the restored clock: the first
                # snapshot is due one whole interval from *now*.
                while snap._next_sim_due <= self.sim.now:
                    snap._next_sim_due += snap.sim_interval_s
        self._snapshotter = snap
        self._graceful_stop = False
        self._wall_deadline = None
        self._arm_post_event()

    def _build_snapshotter(
        self, fingerprint: Optional[str] = None
    ) -> Optional["EngineSnapshotter"]:
        """The snapshotter ``self.config`` asks for; None without a checkpoint_dir.

        Snapshots go to a per-run subdirectory ``checkpoint_dir/<fingerprint>``,
        so many simulations (one experiment's whole sweep) can share one
        checkpoint_dir and a restore resolves its own lineage.  The
        fingerprint is derived from this engine unless given.
        """
        if self.config.checkpoint_dir is None:
            return None
        from repro.engine.snapshot import EngineSnapshotter, config_fingerprint

        if fingerprint is None:
            fingerprint = config_fingerprint(self)
        return EngineSnapshotter(
            os.path.join(self.config.checkpoint_dir, fingerprint),
            fingerprint=fingerprint,
            sim_interval_s=self.config.checkpoint_sim_interval_s,
            wall_interval_s=self.config.checkpoint_wall_interval_s,
            keep=self.config.checkpoint_keep,
        )

    def _arm_post_event(self) -> None:
        """Install the post-event hook iff snapshots or a wall budget need it."""
        if self._snapshotter is not None or self.config.max_wall_clock_s is not None:
            self.sim.post_event = self._post_event
        else:
            self.sim.post_event = None

    # ------------------------------------------------------------------ run

    def start(self) -> None:
        """Arm the simulation: first arrival, ticks, failures, first round.

        Idempotent.  :meth:`run` calls this once; tests and the service
        layer, which drive the event loop themselves, call it and then
        use ``self.sim.run(until=...)`` directly.  Live mode
        (``trace=None``) arms no arrival: jobs come in through
        :meth:`inject_job`, and the caller owns the clock.
        """
        if self._started:
            return
        if self.trace is not None:
            it = iter(self.trace) if self._streaming else TraceCursor(self.trace)
            first = next(it, None)
            if first is None:
                raise ConfigurationError("cannot simulate an empty trace")
            self._job_iter = it
            self._schedule_arrival(first)

        if self.checkpoints.enabled:
            self.sim.schedule(
                self.checkpoints.interval_s, self._checkpoint_tick, label="ckpt"
            )
        if self.sla_monitor is not None:
            self.sim.schedule(
                self.config.sla_check_interval_s, self._sla_tick, label="sla"
            )
        for hid in self._failure_processes:
            self._schedule_failure(self.hosts_by_id[hid])

        self.trigger_round()
        self._started = True

    # ---------------------------------------------------------- arrivals

    def _schedule_arrival(self, job: Job) -> None:
        """Schedule one workload job's arrival event (chained).

        Priority ``-1``: among same-time events the arrival fires first,
        whenever it was scheduled, so same-time jobs arrive in workload
        order ahead of the rounds and completions they cause.
        """
        self._arrivals_pending += 1
        self._active_jobs += 1
        self._pending_arrival = job
        self.sim.at(
            job.submit_time,
            partial(self._on_stream_arrival, job),
            priority=-1,
            label=f"arrival:{job.job_id}",
        )

    def inject_job(self, job: Job) -> None:
        """Admit one externally supplied job into a live-mode engine.

        The service layer's analogue of a trace arrival: the control
        plane assigns ``job.submit_time`` (>= the current clock — the DES
        kernel rejects the past) and the arrival fires with a workload
        arrival's priority ``-1``, so same-time admissions process in
        admission order ahead of every same-time engine event.  That
        ordering is what makes a journal replay reproduce the live run's
        event sequence exactly.
        """
        self._arrivals_pending += 1
        self._active_jobs += 1
        self.sim.at(
            job.submit_time,
            partial(self._on_job_arrival, job),
            priority=-1,
            label=f"arrival:{job.job_id}",
        )

    def _on_stream_arrival(self, job: Job) -> None:
        # Chain the successor BEFORE processing this arrival: the pending
        # counters must never read "all done" mid-stream, and same-time
        # successors keep trace order (the chained event's later seq is
        # tie-broken by the -1 priority ahead of everything else).
        nxt = next(self._job_iter, None)
        if nxt is not None:
            self._schedule_arrival(nxt)
        else:
            self._pending_arrival = None
            self._stream_exhausted(job.submit_time)
        self._on_job_arrival(job)

    def _stream_exhausted(self, last_submit: float) -> None:
        """Install the drain-horizon guard once the workload runs dry.

        The horizon is ``last_submit + drain_grace_s``.  Every event *at*
        the horizon still fires (the guard's huge priority sorts it last
        at its timestamp), then the run stops with the clock at the
        horizon.  In the common full-drain case the last completion stops
        the loop first and the guard never fires.
        """
        horizon = last_submit + self.config.drain_grace_s
        self.sim.at(
            max(horizon, self.sim.now),
            self.sim.stop,
            priority=1 << 30,
            label="horizon",
        )

    def run(self) -> SimulationResult:
        """Execute the whole workload and return the result row.

        Works identically on a fresh engine and on one restored from a
        snapshot: :meth:`start` is idempotent (the armed state — the next
        arrival, ticks, the horizon guard — lives in the pickled heap),
        so a resumed run simply drains the remaining events.
        """
        if self._result is not None:
            return self._result
        wall_start = _time.perf_counter()
        if self.config.max_wall_clock_s is not None:
            # A fresh budget per attempt (not pickled): a resumed run gets
            # its own full slice, which is what preemption schedulers do.
            self._wall_deadline = _time.monotonic() + self.config.max_wall_clock_s
        self.start()
        # The last job finishing or the horizon guard that
        # _stream_exhausted installs stops the loop.
        self.sim.run()
        return self.finalize(wall_start)

    def finalize(self, wall_start: Optional[float] = None) -> SimulationResult:
        """Close the run and build the result: the one post-loop sequence.

        :meth:`run` ends here, and so does live mode, where the service
        layer drove the clock itself (``sim.run(until=...)`` per admission
        batch, then its drain).  Snapshot flush, final metric touch, final
        strict sweep, metrics close, result build.  Idempotent, like
        :meth:`run`.
        """
        if self._result is not None:
            return self._result
        if wall_start is None:
            wall_start = _time.perf_counter()
        if self._snapshotter is not None:
            # The last periodic snapshot may still be on the background
            # writer; make it durable before publishing the result.
            self._snapshotter.flush()
        self._touch_all()
        if self._invariants_enabled:
            # Final sweep: the published row must come from verified state.
            self._check_invariants(self.sim.now)
        self.metrics.close(self.sim.now)
        self._result = self._build_result(wall_start)
        return self._result

    # --------------------------------------------------------------- rounds

    def trigger_round(self) -> None:
        """Request a scheduling round; coalesced per timestamp."""
        if not self._round_pending:
            self._round_pending = True
            self.sim.schedule(0.0, self._round, priority=100, label="round")

    def _placed_iter(self) -> Iterator[Vm]:
        """Currently placed VMs in arrival order (context ``placed_fn``).

        A bound method rather than a closure so a context captured by a
        policy or power manager never blocks engine pickling (snapshots).
        """
        return (vm for vm in self._live.values() if vm.is_placed)

    def _context(self) -> SchedulingContext:
        ctx = SchedulingContext(
            now=self.sim.now,
            hosts=self.hosts,
            queued=tuple(self.queue.values()),
            placed_fn=self._placed_iter,
            node_counts=self._node_counts,
            sla=self.sla_monitor,
            guard=self._guard if self._invariants_enabled else None,
        )
        if self.power_manager.reads_context_vms:
            # Controllers that inspect the VM views run post-action; the
            # snapshot must be from round start, so force it now.
            ctx.placed
        return ctx

    def _node_counts(self) -> Tuple[int, int]:
        """Exact (working, online) counts for the λ controller — O(dirty).

        Folds not-yet-swept dirty hosts into the metrics collector's
        delta-maintained totals first (idempotent — the later ``_refresh``
        sweep re-folds them as no-ops, and integral sampling only happens
        there), in the same sorted order the sweep would use, then reads
        the running totals.  Equals a full host scan by construction:
        every action and event that can change a host's working/online
        contribution marks it dirty.
        """
        metrics = self.metrics
        if self._dirty:
            by_id = self.hosts_by_id
            for hid in sorted(self._dirty):
                metrics.host_changed(by_id[hid])
        return metrics.node_counts()

    def _round(self) -> None:
        self._round_pending = False
        if self.sla_monitor is not None:
            self._sla_check()
        ctx = self._context()
        for action in self.policy.decide(ctx):
            self.apply_action(action)
        # Power-manager control sees the post-placement state (the same
        # live host objects), so boots respond to this round's decisions.
        for action in self.power_manager.control(ctx, self.policy):
            self.apply_action(action)
        self._refresh()

    # --------------------------------------------------------------- events

    def _on_job_arrival(self, job) -> None:
        self._arrivals_pending -= 1
        vm = Vm(job)
        vm.arrival_seq = self._n_arrived
        self._n_arrived += 1
        vm.last_progress_t = self.sim.now
        self.vms[vm.vm_id] = vm
        # Requirement feasibility is spec-only, so checking the distinct
        # hardware classes (O(3) for the paper cluster) is equivalent to
        # scanning every host.  Same comparisons as meets_requirements.
        if not any(
            job.arch == arch
            and job.hypervisor == hyp
            and job.cpu_pct <= cap_cpu
            and job.mem_mb <= cap_mem
            for arch, hyp, cap_cpu, cap_mem in self._feasible_classes
        ):
            # No machine in the datacenter can ever host this job.
            vm.state = VmState.FAILED
            job.state = JobState.FAILED
            self.metrics.counters.incr("unplaceable")
            self._retire_vm(vm)
            self._job_finished()
            return
        self.queue[vm.vm_id] = vm
        self._live[vm.vm_id] = vm
        if self.sla_monitor is not None:
            self.sla_monitor.admit(vm)
        self.emit(TraceEventKind.JOB_ARRIVAL, vm_id=vm.vm_id)
        self.trigger_round()

    def _on_creation_done(self, vm: Vm, host: Host) -> None:
        if vm.state is not VmState.CREATING or vm.host_id != host.host_id:
            return  # superseded by a failure
        host.end_operation(OperationKind.CREATE, vm.vm_id)
        vm.state = VmState.RUNNING
        vm.job.state = JobState.RUNNING
        vm.creations += 1
        vm.last_progress_t = self.sim.now
        if self.observed is not None:
            self.observed.record_success(host.host_id)
        if self._supervisor:
            started = self._recovery_started.pop(vm.vm_id, None)
            if started is not None:
                self._recovery_total_s += self.sim.now - started
                self._recoveries += 1
            self._vm_attempts.pop(vm.vm_id, None)
        self.emit(TraceEventKind.CREATION_DONE, vm_id=vm.vm_id, host_id=host.host_id)
        self._dirty.add(host.host_id)
        self._refresh()
        if self.queue:
            self.trigger_round()

    def _on_migration_done(self, vm: Vm, src: Host, dst: Host) -> None:
        if vm.state is not VmState.MIGRATING or vm.migration_dst != dst.host_id:
            return  # aborted by a failure
        # Bank the work accrued on the source before the residency change
        # (the completion check below reads it).
        vm.advance(self.sim.now)
        src.remove_vm(vm.vm_id)
        src.end_operation(OperationKind.MIGRATE_OUT, vm.vm_id)
        dst.end_operation(OperationKind.MIGRATE_IN, vm.vm_id)
        dst.release_reservation(vm.vm_id)
        vm.migration_src = None
        vm.migration_dst = None
        dst.add_vm(vm)
        vm.state = VmState.RUNNING
        vm.migrations += 1
        if self.observed is not None:
            self.observed.record_success(dst.host_id)
        self.metrics.counters.incr("migrations")
        self.emit(
            TraceEventKind.MIGRATION_DONE,
            vm_id=vm.vm_id,
            host_id=dst.host_id,
            detail=f"from host {src.host_id}",
        )
        self._dirty.add(src.host_id)
        self._dirty.add(dst.host_id)
        if vm.work_remaining <= _WORK_EPS:
            self._complete_vm(vm, dst)
        self._refresh()
        self.trigger_round()

    def _on_completion(self, vm: Vm) -> None:
        if vm.state is not VmState.RUNNING or vm.host_id is None:
            return
        vm.advance(self.sim.now)
        if vm.work_remaining <= _WORK_EPS:
            self._complete_vm(vm, self.hosts_by_id[vm.host_id])
            self._refresh()
            self.trigger_round()
        else:
            if self.sla_monitor is not None:
                # Banking progress re-anchors eta, which may move its last bit.
                self.sla_monitor.assess((vm,), self.sim.now)
            self._reschedule_completion(vm, self.sim.now)

    def _on_boot_done(self, host: Host) -> None:
        if host.state is not HostState.BOOTING:
            return
        host.state = HostState.ON
        if self.observed is not None:
            self.observed.record_success(host.host_id)
        self.emit(TraceEventKind.BOOT_DONE, host_id=host.host_id)
        self._dirty.add(host.host_id)
        self._refresh()
        self.trigger_round()

    # ------------------------------------------- chaos fault handling

    def _on_creation_failed(self, vm: Vm, host: Host) -> None:
        """A sampled creation fault fires after the creation time is burned.

        The VM goes back to QUEUED but is *parked* (not in the queue) for
        a capped-exponential backoff in simulated time; :meth:`_on_requeue`
        then makes it schedulable again.  SLA accounting is exact: the
        job's wait clock keeps running while parked (``fulfillment``
        treats QUEUED VMs by projected wait), and no progress was accrued
        during the failed creation.
        """
        if vm.state is not VmState.CREATING or vm.host_id != host.host_id:
            return  # superseded by a host failure
        host.end_operation(OperationKind.CREATE, vm.vm_id)
        host.remove_vm(vm.vm_id)
        vm.state = VmState.QUEUED
        vm.job.state = JobState.PENDING
        vm.host_id = None
        vm.share = 0.0
        vm.last_progress_t = self.sim.now
        if self.sla_monitor is not None:
            self.sla_monitor.discard(vm)
        self.metrics.counters.incr("failed_creations")
        self.emit(
            TraceEventKind.CREATION_FAILED, vm_id=vm.vm_id, host_id=host.host_id
        )
        self._note_operation_failure(host)
        attempts = self._vm_attempts.get(vm.vm_id, 0) + 1
        self._vm_attempts[vm.vm_id] = attempts
        self._recovery_started.setdefault(vm.vm_id, self.sim.now)
        backoff = min(
            self.config.retry_backoff_base_s * (2.0 ** (attempts - 1)),
            self.config.retry_backoff_cap_s,
        )
        self._park(vm, backoff)
        self._dirty.add(host.host_id)
        self._refresh()
        self.trigger_round()

    def _on_migration_aborted(self, vm: Vm, src: Host, dst: Host) -> None:
        """A sampled migration fault fires mid-transfer.

        The VM never left its source: both operation legs end, the
        destination reservation is released, and the VM resumes RUNNING
        on the source.  Recovery semantics follow
        ``FaultConfig.migration_abort_recovery``: ``refund`` keeps the
        work accrued up to the abort instant, ``checkpoint`` rolls the VM
        back to its latest snapshot (or scratch) and prices the lost
        CPU-seconds.
        """
        if vm.state is not VmState.MIGRATING or vm.migration_dst != dst.host_id:
            return  # superseded by a failure on either end
        vm.advance(self.sim.now)
        src.end_operation(OperationKind.MIGRATE_OUT, vm.vm_id)
        dst.end_operation(OperationKind.MIGRATE_IN, vm.vm_id)
        dst.release_reservation(vm.vm_id)
        vm.migration_src = None
        vm.migration_dst = None
        vm.state = VmState.RUNNING
        faults = self.config.faults
        if faults is not None and faults.migration_abort_recovery == "checkpoint":
            snapshot = self.checkpoints.latest(vm.vm_id)
            target = snapshot.work_done if snapshot is not None else 0.0
            target = min(target, vm.work_done)
            lost = vm.work_done - target
            if lost > 0:
                self._lost_work_pct_s += lost
                vm.work_done = target
            if snapshot is not None:
                self.metrics.counters.incr("checkpoint_recoveries")
        self.metrics.counters.incr("aborted_migrations")
        self.emit(
            TraceEventKind.MIGRATION_ABORTED,
            vm_id=vm.vm_id,
            host_id=dst.host_id,
            detail=f"stays on host {src.host_id}",
        )
        self._note_operation_failure(dst)
        self._dirty.add(src.host_id)
        self._dirty.add(dst.host_id)
        if vm.work_remaining <= _WORK_EPS:
            self._complete_vm(vm, src)
        self._refresh()
        self.trigger_round()

    def _on_boot_failed(self, host: Host) -> None:
        """A sampled boot fault: the machine burns boot time, ends OFF."""
        if host.state is not HostState.BOOTING:
            return  # superseded by a host failure
        host.state = HostState.OFF
        self.metrics.counters.incr("boot_failures")
        self.emit(TraceEventKind.BOOT_FAILED, host_id=host.host_id)
        self._note_operation_failure(host)
        self._dirty.add(host.host_id)
        self._refresh()
        self.trigger_round()

    # ------------------------------------------- supervisor machinery

    def _park(self, vm: Vm, delay_s: float) -> None:
        """Hold a failed VM out of the queue for ``delay_s`` of sim time."""
        self._cancel_park(vm)
        self._park_handles[vm.vm_id] = self.sim.schedule(
            delay_s, partial(self._on_requeue, vm), label=f"requeue:{vm.vm_id}"
        )

    def _cancel_park(self, vm: Vm) -> None:
        handle = self._park_handles.pop(vm.vm_id, None)
        if handle is not None:
            handle.cancel()

    def _on_requeue(self, vm: Vm) -> None:
        """Backoff expired: make a parked VM schedulable again."""
        self._park_handles.pop(vm.vm_id, None)
        if vm.state is not VmState.QUEUED or vm.vm_id in self.queue:
            return  # placed early, completed, or already waiting
        if vm.vm_id not in self._live:
            return  # defensive: the VM left the system while parked
        self.queue[vm.vm_id] = vm
        self.emit(TraceEventKind.VM_REQUEUED, vm_id=vm.vm_id)
        self.trigger_round()

    def _note_operation_failure(self, host: Host, *, crash: bool = False) -> None:
        """Record a failed operation (or crash) against ``host``.

        Feeds the observed-reliability EWMA and the quarantine window:
        ``quarantine_threshold`` failures within ``quarantine_window_s``
        exclude the host from placement/boot candidates for
        ``quarantine_duration_s``.
        """
        if self.observed is not None:
            if crash:
                self.observed.record_crash(host.host_id)
            else:
                self.observed.record_failure(host.host_id)
        if not self._supervisor:
            return
        threshold = self.config.quarantine_threshold
        if threshold <= 0 or host.quarantined:
            return
        now = self.sim.now
        window = self._fault_windows.setdefault(host.host_id, deque())
        window.append(now)
        cutoff = now - self.config.quarantine_window_s
        while window and window[0] < cutoff:
            window.popleft()
        if len(window) >= threshold:
            self._quarantine(host)

    def _quarantine(self, host: Host) -> None:
        host.quarantined = True
        host.quarantined_until = self.sim.now + self.config.quarantine_duration_s
        self._fault_windows.pop(host.host_id, None)
        self.metrics.counters.incr("quarantines")
        self.emit(
            TraceEventKind.HOST_QUARANTINED,
            host_id=host.host_id,
            detail=f"until t={host.quarantined_until:.0f}s",
        )
        self.sim.schedule(
            self.config.quarantine_duration_s,
            partial(self._on_quarantine_expired, host),
            label=f"unquarantine:{host.host_id}",
        )

    def _on_quarantine_expired(self, host: Host) -> None:
        if not host.quarantined:
            return
        host.quarantined = False
        host.quarantined_until = 0.0
        self.emit(TraceEventKind.HOST_UNQUARANTINED, host_id=host.host_id)
        self.trigger_round()

    # -------------------------------------------------------------- failure

    def _schedule_failure(self, host: Host) -> None:
        process = self._failure_processes.get(host.host_id)
        if process is None or process.never_fails:
            return
        uptime = process.next_uptime()
        if not math.isfinite(uptime):
            return  # effectively never fails (again)
        self.sim.schedule(
            uptime, partial(self._on_host_failure, host), label=f"fail:{host.host_id}"
        )

    def _on_host_failure(self, host: Host) -> None:
        process = self._failure_processes[host.host_id]
        if host.state is not HostState.ON:
            # The failure clock only bites running machines; re-arm.
            self._schedule_failure(host)
            return
        self._touch_host(host)
        self.metrics.counters.incr("host_failures")
        self.emit(
            TraceEventKind.HOST_FAILURE,
            host_id=host.host_id,
            detail=f"{len(host.vms)} vms lost",
        )
        if self.observed is not None or self._supervisor:
            self._note_operation_failure(host, crash=True)

        # Clean up cross-host operation legs first.
        for op in list(host.operations):
            other_vm = self.vms.get(op.vm_id)
            if op.kind is OperationKind.MIGRATE_IN and other_vm is not None:
                # VM was coming here; it stays (running) on its source.
                src_id = other_vm.migration_src
                if src_id is not None and src_id in self.hosts_by_id:
                    src = self.hosts_by_id[src_id]
                    try:
                        src.end_operation(OperationKind.MIGRATE_OUT, op.vm_id)
                    except Exception:  # pragma: no cover - defensive
                        pass
                    self._dirty.add(src_id)
                other_vm.state = VmState.RUNNING
                other_vm.migration_src = None
                other_vm.migration_dst = None
            elif op.kind is OperationKind.MIGRATE_OUT and other_vm is not None:
                dst_id = other_vm.migration_dst
                if dst_id is not None and dst_id in self.hosts_by_id:
                    dst = self.hosts_by_id[dst_id]
                    try:
                        dst.end_operation(OperationKind.MIGRATE_IN, op.vm_id)
                    except Exception:  # pragma: no cover - defensive
                        pass
                    dst.release_reservation(op.vm_id)
                    self._dirty.add(dst_id)

        # Re-queue every resident VM, restoring checkpointed progress.
        for vm in list(host.vms.values()):
            self._cancel_completion(vm)
            snapshot = self.checkpoints.latest(vm.vm_id)
            if snapshot is not None:
                restored = min(snapshot.work_done, vm.work_total)
                self.metrics.counters.incr("checkpoint_recoveries")
            else:
                restored = 0.0
            self._lost_work_pct_s += max(vm.work_done - restored, 0.0)
            vm.work_done = restored
            if self._supervisor:
                self._recovery_started.setdefault(vm.vm_id, self.sim.now)
            vm.state = VmState.QUEUED
            vm.job.state = JobState.PENDING
            vm.host_id = None
            vm.migration_src = None
            vm.migration_dst = None
            vm.share = 0.0
            vm.last_progress_t = self.sim.now
            self.queue[vm.vm_id] = vm
            if self.sla_monitor is not None:
                self.sla_monitor.discard(vm)

        host.evacuate()
        host.state = HostState.FAILED
        self._dirty.add(host.host_id)
        self._refresh()

        downtime = process.next_downtime()
        self.sim.schedule(
            downtime, partial(self._on_host_repair, host), label=f"repair:{host.host_id}"
        )
        self.trigger_round()

    def _on_host_repair(self, host: Host) -> None:
        if host.state is not HostState.FAILED:
            return
        host.state = HostState.OFF
        self.emit(TraceEventKind.HOST_REPAIR, host_id=host.host_id)
        self._dirty.add(host.host_id)
        self._refresh()
        self._schedule_failure(host)
        self.trigger_round()

    # ---------------------------------------------------------------- ticks

    def _checkpoint_tick(self) -> None:
        if self._active_jobs == 0 and self._arrivals_pending == 0:
            return
        # Snapshots record absolute work done, so every integral must be
        # current here — the one remaining global touch point.
        self._touch_all()
        if self.sla_monitor is not None:
            # Banking progress re-anchors eta, which may move its last bit.
            self.sla_monitor.assess(self._live.values(), self.sim.now)
        hosts_snapshotting = set()
        for vm in self._live.values():
            if vm.state in (VmState.RUNNING, VmState.MIGRATING):
                self.checkpoints.record(vm.vm_id, self.sim.now, vm.work_done)
                if vm.host_id is not None:
                    hosts_snapshotting.add(vm.host_id)
        # Optional checkpoint CPU cost (0 by default — the paper's
        # modelling decision; ext_checkpoint_cost verifies it is safe).
        if self.config.checkpoint_cpu_pct > 0:
            for hid in sorted(hosts_snapshotting):
                host = self.hosts_by_id[hid]
                op = Operation(
                    kind=OperationKind.CHECKPOINT,
                    vm_id=-1,
                    cpu_overhead=self.config.checkpoint_cpu_pct,
                    started_at=self.sim.now,
                    duration=self.config.checkpoint_duration_s,
                )
                host.begin_operation(op)
                self._dirty.add(hid)
                self.sim.schedule(
                    self.config.checkpoint_duration_s,
                    partial(self._on_checkpoint_done, host),
                    label=f"ckpt-cost:{hid}",
                )
            self._refresh()
        self.sim.schedule(self.checkpoints.interval_s, self._checkpoint_tick, label="ckpt")

    def _on_checkpoint_done(self, host: Host) -> None:
        if host.state is not HostState.ON:
            return  # cleared by a failure
        try:
            host.end_operation(OperationKind.CHECKPOINT, -1)
        except Exception:  # pragma: no cover - cleared by failure handling
            return
        self._dirty.add(host.host_id)
        self._refresh()

    def _sla_tick(self) -> None:
        if self._active_jobs == 0 and self._arrivals_pending == 0:
            return
        if self._sla_check():
            self.trigger_round()
        self.sim.schedule(self.config.sla_check_interval_s, self._sla_tick, label="sla")

    def _sla_check(self) -> bool:
        """Inflate the SLA violators; whether any VM was inflated.

        Reads the monitor's violator set, which the dirty-host sweep keeps
        current, so the cost follows the violators, not the placed VMs.
        Under strict invariants the index is first checked against a full
        fulfilment scan of the placed VMs.
        """
        now = self.sim.now
        monitor = self.sla_monitor
        if self._invariants_enabled:
            self._guard(
                "SLA index",
                partial(monitor.verify, self._placed_iter(), now),
                partial(monitor.rebuild, self._live.values(), now),
            )
        violated = monitor.check(now, on_inflate=self._note_inflation)
        for vm in violated:
            self.metrics.counters.incr("sla_inflations")
            self.emit(
                TraceEventKind.SLA_INFLATION,
                vm_id=vm.vm_id,
                host_id=vm.host_id,
                detail=f"cpu_req={vm.cpu_req:.0f}%",
            )
        return bool(violated)

    # -------------------------------------------------------------- helpers

    def emit(
        self,
        kind: TraceEventKind,
        vm_id: Optional[int] = None,
        host_id: Optional[int] = None,
        detail: str = "",
    ) -> None:
        """Append a structured trace record (no-op unless tracing is on)."""
        if self.trace_log is not None:
            self.trace_log.emit(self.sim.now, kind, vm_id, host_id, detail)

    def queue_remove(self, vm: Vm) -> None:
        """Remove a VM from the waiting queue (after successful placement)."""
        self.queue.pop(vm.vm_id, None)

    def _touch_host(self, host: Host) -> None:
        """Advance every VM resident on ``host`` to the current instant."""
        now = self.sim.now
        for vm in host.vms.values():
            vm.advance(now)

    def _touch_all(self) -> None:
        """Advance every placed VM's work integral to the current instant.

        Only needed where absolute progress of *all* VMs is read at once
        (checkpoint snapshots, the end-of-run result); everything else
        relies on lazy per-host advancement in :meth:`_refresh`.  Iterates
        the live set — O(placed VMs), independent of host count and of how
        many VMs have completed over the whole run.
        """
        now = self.sim.now
        for vm in self._live.values():
            if vm.is_placed:
                vm.advance(now)

    def _note_inflation(self, vm: Vm) -> None:
        """Resync incremental state after a VM's in-place SLA inflation.

        Inflation changes ``vm.cpu_req`` behind the hosting machine's
        back; the host's occupancy aggregates and the metrics collector's
        per-host contribution must follow.  The host is deliberately *not*
        marked dirty — shares react only when a round actually moves or
        re-solves something, exactly as the full-scan engine behaved.
        """
        if vm.host_id is None:
            return
        host = self.hosts_by_id.get(vm.host_id)
        if host is None:
            return
        host.note_requirement_change(vm)
        self.metrics.host_changed(host)

    def _complete_vm(self, vm: Vm, host: Host) -> None:
        vm.state = VmState.COMPLETED
        vm.job.state = JobState.COMPLETED
        vm.job.finish_time = self.sim.now
        host.remove_vm(vm.vm_id)
        self._live.pop(vm.vm_id, None)
        if self.sla_monitor is not None:
            self.sla_monitor.discard(vm)
        self._cancel_completion(vm)
        self.checkpoints.forget(vm.vm_id)
        self.metrics.counters.incr("completions")
        self.emit(
            TraceEventKind.COMPLETION,
            vm_id=vm.vm_id,
            host_id=host.host_id,
            detail=f"S={vm.job.satisfaction():.0f}%",
        )
        self._dirty.add(host.host_id)
        self._retire_vm(vm)
        self._job_finished()

    def _retire_vm(self, vm: Vm) -> None:
        """Compact a finished VM into flat result statistics.

        Records the four scalars the result fold needs (arrival index,
        satisfaction, delay, wait).  A stream
        also prunes the registry, so memory tracks the live set instead
        of the total job count; a trace (and live mode) keeps it for the
        readers of ``self.vms`` after the run.
        """
        job = vm.job
        self._ret_seq.append(vm.arrival_seq)
        self._ret_sat.append(job.satisfaction())
        self._ret_delay.append(job.delay_pct())
        self._ret_wait.append(
            job.start_time - job.submit_time
            if job.start_time is not None
            else math.nan
        )
        if job.state is JobState.COMPLETED:
            self._ret_completed += 1
        elif job.state is JobState.FAILED:
            self._ret_failed += 1
        if self._streaming:
            self.vms.pop(vm.vm_id, None)
        else:
            self._retired_new.append(vm)
        self._vm_attempts.pop(vm.vm_id, None)

    def _job_finished(self) -> None:
        self._active_jobs -= 1
        if self._active_jobs == 0 and self._arrivals_pending == 0:
            # Last job done: freeze the world here rather than simulating
            # an empty datacenter to the horizon.
            self.sim.stop()

    def _cancel_completion(self, vm: Vm) -> None:
        handle = self._completion_handles.pop(vm.vm_id, None)
        if handle is not None:
            handle.cancel()

    def _reschedule_completion(self, vm: Vm, now: float) -> None:
        """The one completion rule: re-key the handle if its time holds,
        else cancel it and push a new event.

        A RUNNING VM with a positive share completes at
        ``max(vm.eta(now), now)``.  A live handle already at exactly that
        time is re-keyed (:meth:`Simulator.rekey`); any other handle is
        cancelled and a new event pushed.  Either way one sequence number
        is drawn, so the fired order is that of cancelling every handle
        and pushing it again.  Any other VM loses its handle.
        """
        if vm.state is not VmState.RUNNING or vm.share <= 0:
            self._cancel_completion(vm)
            return
        handles = self._completion_handles
        handle = handles.get(vm.vm_id)
        time = max(vm.eta(now), now)
        if handle is not None:
            if self.sim.rekey(handle, time):
                return
            handle.cancel()
        handles[vm.vm_id] = self.sim.at(
            time, partial(self._on_completion, vm), label=f"complete:{vm.vm_id}"
        )

    def _refresh(self) -> None:
        """Recompute shares/power on dirty hosts; refresh node metrics.

        O(VMs on dirty hosts) per event.  The dirty sweep runs four
        phases over the sorted dirty hosts: bank progress at the old
        shares, re-solve shares, fold power and node-state deltas into
        the metrics, then reschedule completions in one eta pass.  With
        SLA enforcement on, a fifth phase re-assesses the swept VMs in the
        monitor's fulfilment index.  Shares only ever change here, so VMs
        on clean hosts keep accruing at a constant share and need no
        per-event attention.  The final
        :meth:`MetricsCollector.refresh` is an O(1) sample of the
        delta-maintained totals (no host scan, even when the dirty set is
        empty).

        Phasing is equivalent to a per-host touch/solve/fold/reschedule
        loop: hosts are independent (a VM resides on exactly one host and
        a solve touches only that host's VMs), the metrics fold
        accumulates its floats in sorted host order, and the completion
        pass re-keys or replaces handles in (sorted host, residency)
        order, so every DES event draws the same sequence number.
        Neither the fold nor the solve schedules events, which is what
        makes deferring the completion pass to the end order-neutral.
        """
        now = self.sim.now
        if self._dirty:
            hosts = [self.hosts_by_id[hid] for hid in sorted(self._dirty)]
            for host in hosts:
                self._touch_host(host)
            self._solve_shares_batched(hosts)
            self.metrics.refresh_hosts(now, hosts)
            self._reschedule_completions_batched(hosts, now)
            monitor = self.sla_monitor
            if monitor is not None:
                for host in hosts:
                    monitor.assess(host.vms.values(), now)
            self._dirty.clear()
        self.metrics.refresh(now)
        if self._invariants_enabled and now >= self._next_invariant_check:
            self._check_invariants(now)

    def _solve_shares_batched(self, hosts: List[Host]) -> None:
        """Re-solve every dirty host's shares through the share memo.

        Memo hits — duplicate share problems within a sweep included, the
        common case on homogeneous fleets — skip the solver entirely.
        """
        memo = self._share_memo
        for host in hosts:
            host.recompute_shares(memo)

    def _reschedule_completions_batched(
        self, hosts: List[Host], now: float
    ) -> None:
        """Completion handles for a whole dirty sweep.

        Applies :meth:`_reschedule_completion` to every RUNNING and
        MIGRATING VM on the swept hosts in (sorted host, residency) order;
        a MIGRATING VM loses its handle (completion is checked at
        migration end).  Re-keys and pushes draw their sequence numbers
        interleaved in that order: consecutive numbers for the VMs with a
        positive share, exactly those of cancelling every handle and
        pushing the batch again.  Most handles keep their time (the share
        did not move), so most of the pass is re-keys: no tombstone, no
        heap push, no new callback.
        """
        reschedule = self._reschedule_completion
        for host in hosts:
            for vm in host.vms.values():
                state = vm.state
                if state is VmState.RUNNING or state is VmState.MIGRATING:
                    reschedule(vm, now)

    def _check_invariants(self, now: float) -> None:
        """Strict-invariant sweep: run the incremental-state oracles.

        One list of ``(label, verify, repair)`` oracles, each run through
        :meth:`_guard`: every host's occupancy aggregates, the metrics
        collector's delta-maintained totals, the completion events, then
        whatever the policy keeps
        (:meth:`SchedulingPolicy.invariant_checks`).  Called from inside
        regular events, so enabling the mode schedules nothing and every
        row stays bit-identical.
        """
        self._next_invariant_check = now + self.config.invariant_interval_s
        self._invariant_checks += 1
        metrics = self.metrics
        oracles = [
            ("host aggregate", h.verify_aggregates, partial(self._resync_host, h))
            for h in self.hosts
        ]
        oracles.append(
            ("metrics aggregate", metrics.verify_against_scan, metrics.resync_from_scan)
        )
        oracles.append((
            "completion events",
            partial(self._verify_completion_events, now),
            partial(self._resync_completion_events, now),
        ))
        oracles.append(("retired archive", self._verify_archive, self._resync_archive))
        oracles.extend(self.policy.invariant_checks(self.hosts))
        for label, verify, repair in oracles:
            self._guard(label, verify, repair)

    def _verify_completion_events(self, now: float) -> None:
        """Oracle: one live completion event per running VM, at its eta.

        Each RUNNING VM with a positive share holds exactly one live
        ``complete:`` event in the heap — its handle — at
        ``max(vm.eta(now), now)`` within a relative 1e-9 (banking progress
        outside the sweep, as :meth:`_touch_all` does, may move eta's last
        bit); no other VM has a live one.  Raises StateError naming the
        first event that is wrong.
        """
        live: Dict[str, int] = {}
        for event in self.sim.live_events():
            if event.label.startswith("complete:"):
                live[event.label] = live.get(event.label, 0) + 1
        handles = self._completion_handles
        for host in self.hosts:
            for vm in host.vms.values():
                if vm.state is not VmState.RUNNING or vm.share <= 0:
                    continue
                label = f"complete:{vm.vm_id}"
                count = live.pop(label, 0)
                if count != 1:
                    raise StateError(
                        f"{label}: running vm has {count} live completion events"
                    )
                handle = handles.get(vm.vm_id)
                if handle is None or not handle.live:
                    raise StateError(f"{label}: the running vm's handle is not live")
                want = max(vm.eta(now), now)
                if not math.isclose(handle.time, want, rel_tol=1e-9):
                    raise StateError(
                        f"{label}: fires at t={handle.time!r}, eta is t={want!r}"
                    )
        if live:
            raise StateError(
                f"{next(iter(live))}: live completion event of a vm that is "
                f"not running with a share"
            )

    def _resync_completion_events(self, now: float) -> None:
        """Cancel every completion event and push them again, host by host."""
        for event in list(self.sim.live_events()):
            if event.label.startswith("complete:"):
                event.cancel()
        self._completion_handles.clear()
        self._reschedule_completions_batched(
            sorted(self.hosts, key=lambda h: h.host_id), now
        )

    def _refs(self) -> Optional[TraceRefs]:
        """The trace's job references (trace mode only), built once."""
        if self._trace_refs is None and self.trace is not None and not self._streaming:
            self._trace_refs = TraceRefs(self.trace)
        return self._trace_refs

    def _pickle_chunk(self, vms: List[Vm]) -> Chunk:
        """One archive chunk: ``vms`` pickled, each trace job by its index."""
        refs = self._refs()
        return Chunk(dumps(vms, refs.dispatch() if refs is not None else None))

    def _all_chunks(self) -> List[Chunk]:
        """Every chunk the engine holds: the retired archive's, the event
        trace's and, once a snapshot has cut it, the trace's job specs."""
        out = list(self._archive)
        if self.trace_log is not None:
            out.extend(chunk for _, chunk in self.trace_log._chunks)
        if self._trace_refs is not None and self._trace_refs.specs is not None:
            out.append(self._trace_refs.specs)
        return out

    def _verify_archive(self) -> None:
        """Oracle: the retired archive still pickles what it holds, and
        the chunk log holds every chunk it took.

        Every archived VM is still retired and, in trace mode, holds the
        trace's own job; every archive chunk re-pickles to its cached
        bytes; every chunk already written to a chunk log reads back
        there at its recorded crc.  Raises StateError naming the first VM
        or chunk that is wrong.
        """
        trace = self.trace
        for i, (chunk, vms) in enumerate(zip(self._archive, self._archived)):
            for vm in vms:
                if vm.is_active:
                    raise StateError(
                        f"archived vm {vm.vm_id} is {vm.state.value}, not retired"
                    )
                if trace is not None and vm.job is not trace[vm.arrival_seq]:
                    raise StateError(
                        f"archived vm {vm.vm_id} holds a job that is not "
                        f"trace[{vm.arrival_seq}]"
                    )
            if self._pickle_chunk(vms).data != chunk.data:
                raise StateError(
                    f"chunk {i} of {len(self._archive)} no longer re-pickles "
                    f"to its cached bytes"
                )
        chunks = self._all_chunks()
        for i, chunk in enumerate(chunks):
            problem = logged_copy_problem(chunk)
            if problem is not None:
                raise StateError(f"logged chunk {i} of {len(chunks)}: {problem}")

    def _resync_archive(self) -> None:
        """Re-pickle every chunk from the VMs it archives, and forget every
        chunk-log copy that does not read back: the next snapshot appends
        those chunks again."""
        for i, vms in enumerate(self._archived):
            chunk = self._pickle_chunk(vms)
            if chunk.data != self._archive[i].data:
                self._archive[i] = chunk
        for chunk in self._all_chunks():
            if logged_copy_problem(chunk) is not None:
                chunk.where = None

    def _resync_host(self, host: Host) -> None:
        host.resync_aggregates()
        self.metrics.host_changed(host)

    def _guard(
        self, label: str, verify: Callable[[], object], repair: Callable[[], object]
    ) -> None:
        """Run one strict-invariant oracle: the engine's one drift handler.

        ``verify`` raises :class:`~repro.errors.StateError` on drift.  In
        ``raise`` mode that aborts the run with a StateError naming
        ``label``; in ``resync`` mode it warns, calls ``repair`` (which
        rebuilds the state from ground truth) and counts one
        ``invariant_resyncs``.  The periodic sweep, the SLA check and the
        policy's bind (through ``SchedulingContext.guard``) call it.
        """
        try:
            verify()
        except StateError as exc:
            if self.config.invariant_mode != "resync":
                raise StateError(f"{label} drift: {exc}") from exc
            warnings.warn(
                f"t={self.sim.now:.0f}s: {label} drift resynced: {exc}",
                RuntimeWarning,
                stacklevel=3,
            )
            repair()
            self.metrics.counters.incr("invariant_resyncs")

    # --------------------------------------------------------------- result

    def _job_stats(self) -> Tuple[float, float, float, float, int, int, int]:
        """Fold the per-job statistics into the result scalars.

        Every arrived VM is either retired (its four scalars in the
        ``_ret_*`` arrays) or still in ``self._live``.  Both parts are
        re-sorted by arrival index and the never-arrived remainder
        (pending arrival first, then the rest of the workload) appends
        in workload order, so ``np.mean`` folds the jobs in the order
        they arrived, whatever their ids.
        """
        import numpy as _np

        live = list(self._live.values())
        n_live = len(live)
        seq = _np.concatenate(
            [
                _np.asarray(self._ret_seq, dtype=_np.int64),
                _np.fromiter(
                    (vm.arrival_seq for vm in live),
                    dtype=_np.int64,
                    count=n_live,
                ),
            ]
        )
        sats = _np.concatenate(
            [
                _np.asarray(self._ret_sat, dtype=_np.float64),
                _np.fromiter(
                    (vm.job.satisfaction() for vm in live),
                    dtype=_np.float64,
                    count=n_live,
                ),
            ]
        )
        delays = _np.concatenate(
            [
                _np.asarray(self._ret_delay, dtype=_np.float64),
                _np.fromiter(
                    (vm.job.delay_pct() for vm in live),
                    dtype=_np.float64,
                    count=n_live,
                ),
            ]
        )
        waits = _np.concatenate(
            [
                _np.asarray(self._ret_wait, dtype=_np.float64),
                _np.fromiter(
                    (
                        vm.job.start_time - vm.job.submit_time
                        if vm.job.start_time is not None
                        else math.nan
                        for vm in live
                    ),
                    dtype=_np.float64,
                    count=n_live,
                ),
            ]
        )
        order = _np.argsort(seq)
        sats, delays, waits = sats[order], delays[order], waits[order]
        n_jobs = int(seq.size)

        # Jobs whose arrival never fired (a caller stepped the clock
        # itself and finalized before the last arrival) still count as
        # pending rows.
        tail_sat: List[float] = []
        tail_delay: List[float] = []
        tail_jobs: Iterator[Job] = self._job_iter or iter(())
        if self._pending_arrival is not None:
            tail_jobs = itertools.chain([self._pending_arrival], tail_jobs)
        for job in tail_jobs:
            tail_sat.append(job.satisfaction())
            tail_delay.append(job.delay_pct())
            n_jobs += 1
        if tail_sat:
            sats = _np.concatenate([sats, _np.asarray(tail_sat)])
            delays = _np.concatenate([delays, _np.asarray(tail_delay)])

        sat = float(_np.mean(sats)) if sats.size else 100.0
        delay = float(_np.mean(delays)) if delays.size else 0.0
        finite_waits = waits[~_np.isnan(waits)]
        if finite_waits.size:
            mean_wait = float(_np.mean(finite_waits))
            p95_wait = float(_np.percentile(finite_waits, 95))
        else:
            mean_wait = p95_wait = 0.0
        return (
            sat, delay, mean_wait, p95_wait, n_jobs,
            self._ret_completed, self._ret_failed,
        )

    def _build_result(self, wall_start: float) -> SimulationResult:
        (
            sat,
            delay,
            mean_wait,
            p95_wait,
            n_jobs,
            n_completed,
            n_failed,
        ) = self._job_stats()
        counters = self.metrics.counters
        reject_reasons = {
            key[len("rejected."):]: count
            for key, count in counters.as_dict().items()
            if key.startswith("rejected.")
        }
        mean_recovery_s = (
            self._recovery_total_s / self._recoveries if self._recoveries else 0.0
        )
        memo = self._share_memo
        share_memo_stats = {
            "hits": float(memo.hits),
            "misses": float(memo.misses),
            "entries": float(len(memo)),
        }
        snap = self._snapshotter
        return SimulationResult(
            policy=self.policy.name,
            lambda_min=self.power_manager.config.lambda_min,
            lambda_max=self.power_manager.config.lambda_max,
            avg_working=self.metrics.avg_working,
            avg_online=self.metrics.avg_online,
            cpu_hours=self.metrics.cpu_hours,
            energy_kwh=self.metrics.energy_kwh,
            satisfaction=sat,
            delay_pct=delay,
            migrations=counters["migrations"],
            n_jobs=n_jobs,
            n_completed=n_completed,
            n_failed=n_failed,
            mean_wait_s=mean_wait,
            p95_wait_s=p95_wait,
            creations=counters["creations"],
            rejected_actions=counters["rejected_actions"],
            sla_violations=counters["sla_inflations"],
            host_failures=counters["host_failures"],
            checkpoint_recoveries=counters["checkpoint_recoveries"],
            sim_events=self.sim.events_processed,
            horizon_s=self.sim.now,
            wall_clock_s=_time.perf_counter() - wall_start,
            invariant_checks=self._invariant_checks,
            invariant_resyncs=counters["invariant_resyncs"],
            failed_creations=counters["failed_creations"],
            aborted_migrations=counters["aborted_migrations"],
            boot_failures=counters["boot_failures"],
            quarantines=counters["quarantines"],
            lost_cpu_s=self._lost_work_pct_s / 100.0,
            mean_recovery_s=mean_recovery_s,
            reject_reasons=reject_reasons,
            rescore_stats=self.policy.rescore_stats(),
            share_memo_stats=share_memo_stats,
            checkpoints_written=snap.written if snap is not None else 0,
            checkpoint_bytes=snap.bytes_written if snap is not None else 0,
            snapshot_restores=snap.restores if snap is not None else 0,
        )


def simulate(
    cluster: ClusterSpec,
    policy: SchedulingPolicy,
    trace: Union[Trace, JobStream],
    pm_config: Optional[PowerManagerConfig] = None,
    config: Optional[EngineConfig] = None,
    *,
    restore: bool = False,
) -> SimulationResult:
    """Convenience wrapper: run one simulation on a fresh copy of the trace.

    Accepts a materialized :class:`Trace` or a streaming
    :class:`~repro.workload.stream.JobStream`; both replay pristinely
    through ``fresh()``.

    With ``restore=True`` (or the ``REPRO_RESTORE`` environment variable
    set) *and* engine checkpointing configured, the run resumes from the
    newest compatible snapshot when one exists — the experiment runner's
    intra-task resume path.  Resumed results are bit-identical to an
    uninterrupted run (see :mod:`repro.engine.snapshot`).

    Examples
    --------
    >>> from repro.cluster import ClusterSpec
    >>> from repro.scheduling import BackfillingPolicy
    >>> from repro.workload import Grid5000WeekGenerator, SyntheticConfig
    >>> trace = Grid5000WeekGenerator(SyntheticConfig(horizon_s=3600.0), seed=7).generate()
    >>> result = simulate(ClusterSpec.homogeneous(8), BackfillingPolicy(), trace)
    >>> result.n_jobs == len(trace)
    True
    """
    engine = DatacenterSimulation(
        cluster=cluster,
        policy=policy,
        trace=trace.fresh(),
        pm_config=pm_config,
        config=config,
    )
    if restore or os.environ.get("REPRO_RESTORE"):
        restored = engine.try_restore()
        if restored is not None:
            engine = restored
    return engine.run()
