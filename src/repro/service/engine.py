"""The synchronous service core: admit, settle, drain — journaled.

:class:`ServiceEngine` is the one implementation of the service's
decision path, shared bit-for-bit by three callers:

* **live serving** — the asyncio control plane admits wall-clock-timed
  requests through it with the journal armed;
* **replay** — the harness feeds a whole journal through
  :meth:`ServiceEngine.reapply` on a fresh engine with ``journal=None``
  and the journaled per-round budgets imposed, and must land on the
  identical :meth:`~repro.engine.results.SimulationResult.canonical`;
* **post-crash catch-up** — a restored engine feeds the journal tail
  through the same :meth:`ServiceEngine.reapply` with index-deduplicated
  journaling, so the file converges to exactly the record stream an
  unkilled process would have written: zero lost, zero duplicated
  decisions.

Sharing the code path is not a convenience — it is the determinism
argument.  Every simulator interaction (inject at priority ``-1``,
``run(until=t)`` stepping, retry events, the drain horizon) happens in
the same order with the same arguments in all three modes, so the DES
kernel's ``(time, priority, seq)`` total order plays out identically.

Crash-consistency invariants (see also :mod:`repro.service.journal`):

* admissions are journaled *before* they touch the engine (write-ahead);
* the :class:`ServiceCursor` rides inside the engine — snapshots are
  taken only at DES event boundaries (mid-``advance_to``), so the
  cursor's watermarks are updated atomically with respect to snapshots
  for everything that happens outside the event loop;
* re-execution from any snapshot regenerates the exact record sequence,
  and the journal's index dedup turns re-writes into no-ops.
"""

from __future__ import annotations

import json
import time as _time
from typing import Dict, List, Optional, Sequence

from repro.cluster.vm import VmState
from repro.engine.datacenter import DatacenterSimulation
from repro.engine.results import SimulationResult
from repro.engine.tracing import TraceEventKind, TraceRecord
from repro.errors import StateError
from repro.experiments.resilience import ExecutionPolicy
from repro.service.core import PlacementCore
from repro.service.journal import DecisionJournal
from repro.workload.job import SPEC_FIELDS, Job

__all__ = ["ServiceCursor", "ServiceEngine", "job_to_detail", "job_from_record"]


def job_to_detail(seq: int, job: Job) -> str:
    """The admission record's detail payload (JSON): the job's spec,
    everything needed to rebuild the identical Job for replay/catch-up."""
    return json.dumps(
        {"seq": seq, "job": {name: getattr(job, name) for name in SPEC_FIELDS}}
    )


def job_from_record(record: TraceRecord) -> Job:
    """Rebuild the admitted Job from its journal record."""
    payload = json.loads(record.detail)["job"]
    return Job(**{name: payload[name] for name in SPEC_FIELDS})


class ServiceCursor:
    """Journal-consistency watermarks, pickled inside engine snapshots.

    Attached to the engine as a plain attribute so
    ``DatacenterSimulation.__getstate__`` carries it automatically; a
    restored engine therefore knows exactly how much of the journal it
    has already applied.
    """

    def __init__(self) -> None:
        #: Admissions applied to the engine (journal seq watermark).
        self.admits = 0
        #: Admissions fully settled (decision + retries journaled).
        self.settled = 0
        #: Indexed journal records generated so far.
        self.records = 0
        #: Simulated time of the newest admission (drives the drain horizon).
        self.last_admit_t = 0.0
        #: Drain state: the horizon is fixed the moment draining starts so
        #: an interrupted drain resumes toward the same deterministic end.
        self.draining = False
        self.drain_horizon = 0.0


class ServiceEngine:
    """Synchronous admit/settle/drain core over a live-mode DES engine.

    Parameters
    ----------
    engine:
        A :class:`~repro.engine.datacenter.DatacenterSimulation` built
        with ``trace=None`` (live mode) — fresh or snapshot-restored.
    core:
        The :class:`~repro.service.core.PlacementCore` wrapping
        ``engine.policy`` (budget wiring).
    journal:
        Armed decision log; ``None`` runs decision-path-only (replay).
    max_retries / retry_base_s:
        Deferred-admission self-healing: a VM still queued after its
        admission round gets this many retry rounds at
        capped-exponential, deterministically-jittered sim-time delays
        (the :class:`~repro.experiments.resilience.ExecutionPolicy`
        backoff formula, seeded from the engine seed).
    """

    def __init__(
        self,
        engine: DatacenterSimulation,
        core: PlacementCore,
        journal: Optional[DecisionJournal] = None,
        *,
        max_retries: int = 3,
        retry_base_s: float = 30.0,
    ) -> None:
        if engine.trace is not None:
            raise StateError(
                "ServiceEngine requires a live-mode engine (trace=None); "
                "batch workloads go through DatacenterSimulation.run()"
            )
        self.engine = engine
        self.core = core
        self.journal = journal
        self.max_retries = int(max_retries)
        self.backoff = ExecutionPolicy(
            retries=self.max_retries,
            backoff_base_s=float(retry_base_s),
            backoff_factor=2.0,
            backoff_jitter=0.5,
            backoff_seed=engine.config.seed,
        )
        cursor = getattr(engine, "service_cursor", None)
        if cursor is None:
            cursor = ServiceCursor()
            engine.service_cursor = cursor
        self.cursor: ServiceCursor = cursor
        #: Wall-clock decision latencies (ms) of this process's admissions
        #: — operational, never journal-replayed or pickled.
        self.latencies_ms: List[float] = []
        engine.start()  # idempotent; restored engines keep their heap

    # ------------------------------------------------------------ journaling

    def _emit_indexed(
        self,
        time: float,
        kind: TraceEventKind,
        vm_id: Optional[int] = None,
        host_id: Optional[int] = None,
        detail: str = "",
    ) -> None:
        """Generate the next record of the deterministic stream."""
        index = self.cursor.records
        self.cursor.records += 1
        if self.journal is not None:
            self.journal.append_indexed(
                index, TraceRecord(time, kind, vm_id, host_id, detail)
            )

    def note_shed(self, reason: str, job_id: Optional[int] = None) -> None:
        """Journal a load-shed (observability only — no engine effect)."""
        if self.journal is not None:
            self.journal.append(
                TraceRecord(
                    self.engine.sim.now,
                    TraceEventKind.SVC_SHED,
                    vm_id=job_id,
                    detail=json.dumps({"reason": reason}),
                )
            )

    def _flush_rounds(self) -> None:
        """Journal the rounds the last advance executed, in order."""
        for round_t, iterations, exhausted in self.core.drain_pending():
            self._emit_indexed(
                round_t,
                TraceEventKind.SVC_ROUND,
                detail=json.dumps(
                    {"iterations": iterations, "exhausted": exhausted}
                ),
            )

    # ----------------------------------------------------------------- clock

    def advance_to(self, t: float) -> None:
        """Fire every event with time <= t (the service's clock stepping).

        ``Simulator.run`` returns early when the engine requests a stop
        (the all-jobs-done autostop fires whenever the datacenter drains
        momentarily between admissions); looping until no stop is pending
        makes the advance exact — and since live, replay, and catch-up
        advance through the same targets, the event sequence is too.
        """
        sim = self.engine.sim
        t = max(float(t), sim.now)
        while True:
            sim.run(until=t)
            if not sim.stop_requested:
                break

    # ----------------------------------------------------------------- admit

    def admit(self, job: Job) -> Dict[str, object]:
        """Admit one placement request: journal, inject, settle, decide.

        ``job.submit_time`` is the admission's simulated time — assigned
        by the control plane (wall-derived in live mode, journaled
        verbatim in replay) and required to be monotonically
        non-decreasing.  Returns the decision summary dict that also
        lands in the journal's ``svc_decision`` record.
        """
        t = float(job.submit_time)
        if t < self.engine.sim.now:
            raise StateError(
                f"admission at t={t} behind the engine clock "
                f"t={self.engine.sim.now} (control plane must assign "
                f"monotonic times)"
            )
        if job.job_id in self.engine.vms:
            raise StateError(f"duplicate admission job_id={job.job_id}")
        wall0 = _time.perf_counter()
        seq = self.cursor.admits
        # Write-ahead: the journal learns of the admission before the
        # engine does, so a crash between the two re-applies it on resume
        # instead of losing it.
        self._emit_indexed(
            t,
            TraceEventKind.SVC_ADMIT,
            vm_id=job.job_id,
            detail=job_to_detail(seq, job),
        )
        self.engine.inject_job(job)
        self.cursor.admits = seq + 1
        self.cursor.last_admit_t = t
        return self._settle(job, t, wall0)

    def _settle(
        self, job: Job, t: float, wall0: Optional[float]
    ) -> Dict[str, object]:
        """Advance through the admission's events and journal the outcome."""
        self.advance_to(t)
        self._flush_rounds()
        vm = self.engine.vms.get(job.job_id)
        if vm is None:  # pragma: no cover - inject_job guarantees arrival
            raise StateError(f"admitted job {job.job_id} never arrived")
        if vm.state is VmState.QUEUED:
            status = "deferred"
        elif vm.state is VmState.FAILED:
            status = "rejected"
        elif vm.state is VmState.COMPLETED:
            status = "completed"
        else:
            status = "placed"
        wall_ms = (
            (_time.perf_counter() - wall0) * 1e3 if wall0 is not None else 0.0
        )
        if wall0 is not None:
            self.latencies_ms.append(wall_ms)
        decision = {
            "seq": self.cursor.admits - 1,
            "status": status,
            "host_id": vm.host_id,
            "wall_ms": round(wall_ms, 3),
        }
        self._emit_indexed(
            self.engine.sim.now,
            TraceEventKind.SVC_DECISION,
            vm_id=job.job_id,
            host_id=vm.host_id,
            detail=json.dumps(decision),
        )
        if status == "deferred":
            self._schedule_retries(job.job_id, t)
        self.cursor.settled = self.cursor.admits
        return decision

    def _schedule_retries(self, job_id: int, t: float) -> None:
        """Self-healing for deferred admissions: deterministic retry rounds.

        A queued VM is retried whenever *any* event triggers a round, but
        an idle datacenter generates no events — these explicit retry
        rounds bound the wait.  Delays follow the resilience machinery's
        capped-exponential + sha256-jittered backoff, a pure function of
        ``(seed, job, attempt)``, so live and replay schedule the exact
        same events.  The callback is a bound engine method — snapshots
        pickle it like every other heap entry.
        """
        at = t
        for attempt in range(1, self.max_retries + 1):
            at += self.backoff.backoff_s(f"svc:{job_id}", attempt)
            self.engine.sim.at(
                at,
                self.engine.trigger_round,
                label=f"svc-retry:{job_id}:{attempt}",
            )
            self._emit_indexed(
                at,
                TraceEventKind.SVC_RETRY,
                vm_id=job_id,
                detail=json.dumps({"attempt": attempt}),
            )

    # ----------------------------------------------------------------- drain

    def drain(self) -> SimulationResult:
        """Graceful end of service: run out the grace window, finalize.

        The horizon is fixed at drain start (``last_admit_t +
        drain_grace_s``) and journaled, so a drain interrupted by SIGKILL
        resumes toward the same instant and the replay oracle holds
        through the interruption.
        """
        cursor = self.cursor
        if not cursor.draining:
            horizon = cursor.last_admit_t + self.engine.config.drain_grace_s
            cursor.draining = True
            cursor.drain_horizon = horizon
            self._emit_indexed(
                horizon,
                TraceEventKind.SVC_DRAIN,
                detail=json.dumps({"horizon": horizon}),
            )
        self.advance_to(cursor.drain_horizon)
        self._flush_rounds()
        result = self.engine.finalize()
        if self.journal is not None:
            self.journal.close()
        return result

    # --------------------------------------------------------------- resume

    def catch_up(self) -> List[Dict[str, object]]:
        """Re-apply the journal tail after a snapshot restore.

        Requires a journal opened with ``recover=True``: its recovered
        records go through :meth:`reapply`, every re-write deduplicated
        by index.  Returns the decisions re-made.
        """
        if self.journal is None:
            raise StateError("catch_up requires a recovery-mode journal")
        return self.reapply(self.journal.preexisting)

    def reapply(self, records: Sequence[TraceRecord]) -> List[Dict[str, object]]:
        """Re-apply a journal's records beyond this engine's watermarks.

        The one journal re-application rule, shared by replay (a fresh
        engine, every record) and post-crash catch-up (a restored engine,
        the tail).  Loads the journaled per-round budgets of the rounds
        the engine has not yet executed, marks the resume in an armed
        journal, re-settles a half-settled admission, then re-admits
        every journaled admission beyond the cursor — all through the
        normal code path.
        Returns the decisions made, in admission order.
        """
        admits = [r for r in records if r.kind is TraceEventKind.SVC_ADMIT]
        rounds = [r for r in records if r.kind is TraceEventKind.SVC_ROUND]
        cursor = self.cursor
        if cursor.admits > len(admits):
            raise StateError(
                f"snapshot is ahead of the journal ({cursor.admits} "
                f"admissions applied, {len(admits)} journaled) — wrong "
                f"journal file?"
            )
        # Budgets for rounds the engine has not yet executed, in global
        # execution order (the journal's file order).
        self.core.load_replay_budgets(
            json.loads(r.detail)["iterations"]
            for r in rounds[self.core.rounds_done :]
        )
        if self.journal is not None:
            self.journal.append(
                TraceRecord(
                    self.engine.sim.now,
                    TraceEventKind.SVC_RESUME,
                    detail=json.dumps(
                        {
                            "admits_applied": cursor.admits,
                            "admits_journaled": len(admits),
                        }
                    ),
                )
            )
        decisions = []
        if cursor.settled < cursor.admits:
            # The crash hit mid-settle: the admission's arrival event is
            # in the restored heap; finish its advance and decision.
            record = admits[cursor.admits - 1]
            decisions.append(
                self._settle(job_from_record(record), record.time, None)
            )
        for record in admits[cursor.admits :]:
            decisions.append(self.admit(job_from_record(record)))
        return decisions
