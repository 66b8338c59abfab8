"""The asyncio front end of the control plane.

:class:`ControlPlane` owns a bounded admission queue in front of the
synchronous :class:`~repro.service.engine.ServiceEngine`.  Requests enter
through :meth:`ControlPlane.submit`; a single worker task drains the
queue in FIFO order, maps each request onto the simulated clock, and
drives the decision path.  Overload handling:

* **backpressure** — awaited submissions block on the bounded queue
  (producers slow down instead of piling up memory);
* **load shedding** — non-waiting submissions are rejected immediately
  with :class:`ShedError` when the queue is full, and any request whose
  per-request deadline expired while it sat queued is shed rather than
  answered late (a late placement is worthless — the paper's SLA logic,
  applied to the control plane itself).  Every shed is journaled.

Time mapping: live requests land at ``sim_t = max(previous admission,
wall-elapsed × time_scale)``; synthetic (soak/drill) requests carry their
own deterministic submit times.  Either way the time enters the journal
with the admission, so replay never re-derives it.

Graceful drain: :meth:`shutdown` (wired to SIGTERM by the CLI) stops
admissions, sheds whatever is still queued, checkpoints the engine via
the snapshot subsystem, and leaves the journal tail as the recovery
contract — the restarted service resumes with zero lost or duplicated
decisions (see :meth:`repro.service.engine.ServiceEngine.catch_up`).
"""

from __future__ import annotations

import asyncio
import time as _time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError, ReproError
from repro.service.core import check_round_limits
from repro.service.engine import ServiceEngine
from repro.workload.job import SPEC_FIELDS, Job

__all__ = [
    "ControlPlane",
    "PlacementRequest",
    "ServiceConfig",
    "ShedError",
    "serve_synthetic",
]


class ShedError(ReproError):
    """The control plane refused a request (queue full or deadline past)."""


@dataclass(frozen=True)
class ServiceConfig:
    """Operational knobs of the control plane (never part of replay state).

    Attributes
    ----------
    queue_capacity:
        Bounded admission queue depth; non-waiting submissions beyond it
        are shed.
    request_deadline_ms:
        Wall-clock budget from submission to decision; a request that
        ages past it while queued is shed instead of answered late.
        ``None`` disables deadline shedding.
    round_budget / round_deadline_ms:
        Anytime hill-climb limits per scheduling round — the
        deterministic iteration cap and the live wall deadline.  Checked
        by the rule :class:`~repro.service.core.PlacementCore` uses, and
        installed on the service's core by :class:`ControlPlane`
        (``None`` keeps the core's own).
    max_retries / retry_base_s:
        Deferred-admission retry schedule (deterministic jitter).
    time_scale:
        Simulated seconds per wall second for live request timing.
    """

    queue_capacity: int = 64
    request_deadline_ms: Optional[float] = 250.0
    round_budget: Optional[int] = None
    round_deadline_ms: Optional[float] = None
    max_retries: int = 3
    retry_base_s: float = 30.0
    time_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ConfigurationError(
                f"queue_capacity must be >= 1, got {self.queue_capacity!r}"
            )
        if self.request_deadline_ms is not None and self.request_deadline_ms <= 0:
            raise ConfigurationError("request_deadline_ms must be positive")
        check_round_limits(self.round_budget, self.round_deadline_s)
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.retry_base_s <= 0:
            raise ConfigurationError("retry_base_s must be positive")
        if self.time_scale <= 0:
            raise ConfigurationError("time_scale must be positive")

    @property
    def round_deadline_s(self) -> Optional[float]:
        return (
            None
            if self.round_deadline_ms is None
            else self.round_deadline_ms / 1e3
        )


@dataclass(frozen=True)
class PlacementRequest:
    """One live placement ask (the service's request schema).

    The control plane assigns the job id (admission sequence number) and
    the simulated submission time; everything else mirrors
    :class:`~repro.workload.job.Job`.
    """

    runtime_s: float
    cpu_pct: float
    mem_mb: float
    deadline_factor: float = 1.5
    user: str = "svc"
    arch: str = "x86_64"
    hypervisor: str = "xen"
    fault_tolerance: float = 0.0
    #: Optional explicit simulated submission time (synthetic drivers);
    #: ``None`` derives it from the wall clock.
    at: Optional[float] = None


#: The job spec a request carries: all of it but the two fields the
#: control plane assigns.
_REQUEST_FIELDS = tuple(
    name for name in SPEC_FIELDS if name not in ("job_id", "submit_time")
)


class ControlPlane:
    """Bounded-queue asyncio admission front end over a ServiceEngine."""

    def __init__(self, svc: ServiceEngine, config: Optional[ServiceConfig] = None) -> None:
        self.svc = svc
        self.config = config or ServiceConfig()
        # Operational knobs only — the core's replay watermark and
        # pending reports are left untouched.
        svc.core.set_limits(self.config.round_budget, self.config.round_deadline_s)
        self._queue: asyncio.Queue = asyncio.Queue(
            maxsize=self.config.queue_capacity
        )
        self._worker: Optional[asyncio.Task] = None
        self._stopping = False
        self._wall0 = _time.monotonic()
        self.sheds = 0
        self.decisions = 0

    # ------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        if self._worker is None:
            self._worker = asyncio.create_task(self._drain_queue())

    async def shutdown(self, *, drain: bool = False):
        """Stop admissions; optionally run the simulated drain.

        Queued-but-unprocessed requests are shed (journaled).  With
        ``drain=True`` the simulated grace window runs out and the
        finalized :class:`~repro.engine.results.SimulationResult` is
        returned; otherwise the engine state is left for a checkpoint
        (the SIGTERM path: snapshot now, finish the drain after resume).
        """
        self._stopping = True
        if self._worker is not None:
            self._queue.put_nowait(None)  # wake the worker to exit
            await self._worker
            self._worker = None
        while not self._queue.empty():
            item = self._queue.get_nowait()
            if item is None:
                continue
            _, future, _ = item
            self.svc.note_shed("shutdown")
            self.sheds += 1
            if not future.done():
                future.set_exception(ShedError("control plane shutting down"))
        if drain:
            return self.svc.drain()
        return None

    def checkpoint(self) -> Optional[str]:
        """Write a durable engine snapshot now (the SIGTERM handler's job)."""
        return self.svc.engine.snapshot_now()

    # ------------------------------------------------------------ submission

    async def submit(self, request: PlacementRequest, *, wait: bool = True):
        """Submit one request; returns the decision dict.

        ``wait=True`` applies backpressure (blocks while the queue is
        full); ``wait=False`` sheds immediately instead — the
        latency-sensitive caller's contract.
        """
        if self._stopping:
            raise ShedError("control plane is shutting down")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        item = (request, future, _time.monotonic())
        if wait:
            await self._queue.put(item)
        else:
            try:
                self._queue.put_nowait(item)
            except asyncio.QueueFull:
                self.sheds += 1
                self.svc.note_shed("queue_full")
                raise ShedError(
                    f"admission queue full "
                    f"(capacity {self.config.queue_capacity})"
                ) from None
        return await future

    # --------------------------------------------------------------- worker

    def _sim_time_for(self, request: PlacementRequest) -> float:
        if request.at is not None:
            t = float(request.at)
        else:
            t = (_time.monotonic() - self._wall0) * self.config.time_scale
        # Admission times must be monotone for the DES; the journal
        # records whatever we pick, so replay is unaffected by the clamp.
        return max(t, self.svc.cursor.last_admit_t, self.svc.engine.sim.now)

    async def _drain_queue(self) -> None:
        deadline_s = (
            None
            if self.config.request_deadline_ms is None
            else self.config.request_deadline_ms / 1e3
        )
        while True:
            item = await self._queue.get()
            if item is None:
                return
            request, future, enqueued = item
            if future.cancelled():
                continue
            if (
                deadline_s is not None
                and _time.monotonic() - enqueued > deadline_s
            ):
                # Answered-late is worthless: shed instead.
                self.sheds += 1
                self.svc.note_shed("deadline")
                future.set_exception(
                    ShedError(
                        f"request aged past its "
                        f"{self.config.request_deadline_ms:.0f} ms deadline "
                        f"in the queue"
                    )
                )
                continue
            seq = self.svc.cursor.admits
            job = Job(
                job_id=seq,
                submit_time=self._sim_time_for(request),
                **{name: getattr(request, name) for name in _REQUEST_FIELDS},
            )
            try:
                decision = self.svc.admit(job)
            except Exception as exc:  # propagate to the caller, keep serving
                if not future.done():
                    future.set_exception(exc)
                continue
            self.decisions += 1
            if not future.done():
                future.set_result(decision)
            # Yield so producers interleave with decisions.
            await asyncio.sleep(0)


# ------------------------------------------------------------- soak driver


def serve_synthetic(
    svc: ServiceEngine,
    jobs,
    config: Optional[ServiceConfig] = None,
    *,
    stop_flag=None,
) -> Tuple[Optional[object], Dict[str, object]]:
    """Drive the control plane with a deterministic synthetic workload.

    The soak/drill entry point: every job is submitted through the real
    asyncio queue with its synthetic submit time (deterministic — so a
    killed-and-resumed soak is comparable to an unkilled one), then the
    service drains.  ``stop_flag`` is a zero-argument callable polled
    between submissions; when it turns truthy (SIGTERM), the loop
    checkpoints and returns early with ``result=None``.

    Returns ``(result, stats)`` where ``result`` is the finalized
    :class:`~repro.engine.results.SimulationResult` (``None`` when
    interrupted) and ``stats`` carries decision counts and wall-clock
    decision-latency percentiles.
    """

    async def _run():
        plane = ControlPlane(svc, config)
        await plane.start()
        interrupted = False
        skip = svc.cursor.admits  # resumed soak: already-admitted prefix
        for i, job in enumerate(jobs):
            if i < skip:
                continue
            if stop_flag is not None and stop_flag():
                interrupted = True
                break
            request = PlacementRequest(
                at=job.submit_time,
                **{name: getattr(job, name) for name in _REQUEST_FIELDS},
            )
            await plane.submit(request)
        if interrupted:
            await plane.shutdown(drain=False)
            plane.checkpoint()
            return None, plane
        result = await plane.shutdown(drain=True)
        return result, plane

    result, plane = asyncio.run(_run())
    latencies = sorted(svc.latencies_ms)

    def _pct(p: float) -> float:
        if not latencies:
            return 0.0
        k = min(len(latencies) - 1, max(0, int(round(p / 100 * (len(latencies) - 1)))))
        return latencies[k]

    stats: Dict[str, object] = {
        "decisions": plane.decisions,
        "sheds": plane.sheds,
        "admitted": svc.cursor.admits,
        "latency_p50_ms": round(_pct(50), 3),
        "latency_p99_ms": round(_pct(99), 3),
        "latency_max_ms": round(_pct(100), 3),
        "interrupted": result is None,
    }
    return result, stats
