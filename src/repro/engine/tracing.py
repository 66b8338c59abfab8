"""Structured event tracing for simulation runs.

The simulator's observable outputs are aggregates; debugging a policy (or
writing a paper section) often needs the *story*: which VM went where and
why it moved.  :class:`EventTrace` is an opt-in, bounded, in-memory log of
typed records the engine emits at each state change; query helpers slice
it by VM, host, or kind.

Enable by passing a trace to :class:`~repro.engine.datacenter.DatacenterSimulation`
via :attr:`EngineConfig.trace_events` — disabled (zero-cost) by default.
"""

from __future__ import annotations

import enum
import warnings
from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Deque, Dict, List, Optional

from repro.durable import read_records

__all__ = [
    "TraceEventKind",
    "TraceRecord",
    "EventTrace",
    "record_to_dict",
    "record_from_dict",
    "read_jsonl",
]


class TraceEventKind(enum.Enum):
    """Kinds of records an engine emits."""

    JOB_ARRIVAL = "job_arrival"
    PLACEMENT = "placement"
    CREATION_DONE = "creation_done"
    MIGRATION_START = "migration_start"
    MIGRATION_DONE = "migration_done"
    COMPLETION = "completion"
    BOOT_START = "boot_start"
    BOOT_DONE = "boot_done"
    SHUTDOWN = "shutdown"
    HOST_FAILURE = "host_failure"
    HOST_REPAIR = "host_repair"
    SLA_INFLATION = "sla_inflation"
    ACTION_REJECTED = "action_rejected"
    # Operation-level chaos (repro.cluster.faults) and its supervisor.
    CREATION_FAILED = "creation_failed"
    MIGRATION_ABORTED = "migration_aborted"
    BOOT_FAILED = "boot_failed"
    HOST_QUARANTINED = "host_quarantined"
    HOST_UNQUARANTINED = "host_unquarantined"
    VM_REQUEUED = "vm_requeued"
    # Control-plane service mode (repro.service): the decision journal is
    # an EventTrace-shaped JSONL stream, so replay tooling reads both
    # engine traces and service journals with one loader.
    SVC_ADMIT = "svc_admit"
    SVC_DECISION = "svc_decision"
    SVC_SHED = "svc_shed"
    SVC_RETRY = "svc_retry"
    SVC_ROUND = "svc_round"
    SVC_DRAIN = "svc_drain"
    SVC_RESUME = "svc_resume"


@dataclass(frozen=True)
class TraceRecord:
    """One timestamped event."""

    time: float
    kind: TraceEventKind
    vm_id: Optional[int] = None
    host_id: Optional[int] = None
    detail: str = ""

    def __str__(self) -> str:
        bits = [f"t={self.time:10.1f}", self.kind.value]
        if self.vm_id is not None:
            bits.append(f"vm={self.vm_id}")
        if self.host_id is not None:
            bits.append(f"host={self.host_id}")
        if self.detail:
            bits.append(self.detail)
        return "  ".join(bits)


#: A record as the plain ``(time, kind, vm_id, host_id, detail)`` tuple
#: snapshots pickle (a tuple pickles several times faster than a dataclass).
_as_tuple = attrgetter("time", "kind", "vm_id", "host_id", "detail")


class EventTrace:
    """Bounded in-memory event log.

    Parameters
    ----------
    capacity:
        Maximum records retained; older records are dropped FIFO so a
        week-long run cannot exhaust memory (the drop count is kept).
        ``None`` disables the bound entirely — service-mode journaling
        must never silently lose a decision record, so the control plane
        runs its trace unbounded and ships records to disk instead.
    """

    def __init__(self, capacity: Optional[int] = 100_000) -> None:
        self.capacity = None if capacity is None else int(capacity)
        self._records: Deque[TraceRecord] = deque(maxlen=self.capacity)
        self.dropped = 0

    # ------------------------------------------------------------ snapshots

    def __getstate__(self) -> dict:
        """Pickle the records as plain tuples; :meth:`__setstate__` rebuilds
        the :class:`TraceRecord` objects."""
        state = self.__dict__.copy()
        state["_records"] = list(map(_as_tuple, self._records))
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._records = deque(
            (TraceRecord(*fields) for fields in state["_records"]),
            maxlen=self.capacity,
        )

    # ---------------------------------------------------------------- write

    def emit(
        self,
        time: float,
        kind: TraceEventKind,
        vm_id: Optional[int] = None,
        host_id: Optional[int] = None,
        detail: str = "",
    ) -> None:
        """Append one record (dropping the oldest beyond capacity), O(1)."""
        records = self._records
        if len(records) == self.capacity:
            self.dropped += 1
        records.append(TraceRecord(time, kind, vm_id, host_id, detail))

    # ----------------------------------------------------------------- read

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    @property
    def records(self) -> List[TraceRecord]:
        """All retained records, oldest first."""
        return list(self._records)

    def of_kind(self, kind: TraceEventKind) -> List[TraceRecord]:
        """Records of one kind."""
        return [r for r in self._records if r.kind is kind]

    def for_vm(self, vm_id: int) -> List[TraceRecord]:
        """The life story of one VM."""
        return [r for r in self._records if r.vm_id == vm_id]

    def for_host(self, host_id: int) -> List[TraceRecord]:
        """Everything that happened on one host."""
        return [r for r in self._records if r.host_id == host_id]

    def counts(self) -> Dict[str, int]:
        """Record counts per kind, plus ``dropped_records`` when nonzero.

        The ring buffer drops oldest-first once over capacity; surfacing
        the drop count here keeps "how many placements?" queries honest —
        a consumer summing per-kind counts sees that the story is
        incomplete instead of silently reading a truncated log.
        """
        out: Dict[str, int] = {}
        for r in self._records:
            out[r.kind.value] = out.get(r.kind.value, 0) + 1
        if self.dropped:
            out["dropped_records"] = self.dropped
        return out

    def story(self, vm_id: int) -> str:
        """Human-readable single-VM narrative."""
        lines = [str(r) for r in self.for_vm(vm_id)]
        return "\n".join(lines) if lines else f"(no records for vm {vm_id})"

    def write_jsonl(self, path: str) -> int:
        """Dump all retained records as JSON lines; returns the count.

        Used by the CLI's ``--trace-out`` (and CI's chaos-drill artifact):
        one object per line so a partial file is still parseable.  When
        the ring buffer dropped records, the file is a truncated story; a
        ``RuntimeWarning`` says so (replay tooling must refuse such a
        journal rather than diverge half-way through).
        """
        import json

        if self.dropped:
            warnings.warn(
                f"EventTrace dropped {self.dropped} records (capacity "
                f"{self.capacity}); {path} holds a truncated story — pass "
                f"capacity=None for lossless journaling",
                RuntimeWarning,
                stacklevel=2,
            )
        with open(path, "w", encoding="utf-8") as fh:
            for r in self._records:
                fh.write(json.dumps(record_to_dict(r)) + "\n")
        return len(self._records)


# ------------------------------------------------------- journal round-trip


def record_to_dict(record: TraceRecord) -> Dict[str, object]:
    """The JSONL wire form of one record (stable key order)."""
    return {
        "time": record.time,
        "kind": record.kind.value,
        "vm_id": record.vm_id,
        "host_id": record.host_id,
        "detail": record.detail,
    }


def record_from_dict(payload: Dict[str, object]) -> TraceRecord:
    """Rebuild a :class:`TraceRecord` from its wire form.

    Raises ``KeyError``/``ValueError`` on malformed payloads — callers
    that must survive torn tails go through :func:`read_jsonl`.
    """
    return TraceRecord(
        time=float(payload["time"]),
        kind=TraceEventKind(payload["kind"]),
        vm_id=payload.get("vm_id"),
        host_id=payload.get("host_id"),
        detail=str(payload.get("detail", "")),
    )


def read_jsonl(path: str) -> List[TraceRecord]:
    """Load a trace/journal file, tolerating a torn tail (the rule of
    :mod:`repro.durable`: a torn last line is skipped with a
    ``RuntimeWarning``, any other corruption raises ``StateError``)."""
    return read_records(path, record_from_dict)[0]
