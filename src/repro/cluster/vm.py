"""Virtual machines.

A :class:`Vm` encapsulates one HPC job (the paper's proof-of-concept runs
one job per VM).  The VM carries the *current* resource requirement, which
starts at the job's declared demand but may be inflated by the dynamic SLA
enforcement mechanism (§III-A-5: "we increase the amount of needed
resources for that VM if this is needed to preserve the SLA").

Progress accounting lives here: ``work_done`` integrates the CPU share the
VM actually received; the VM completes when it reaches ``job.work``.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.errors import StateError
from repro.workload.job import Job

__all__ = ["Vm", "VmState"]


class VmState(enum.Enum):
    """Lifecycle of a VM."""

    QUEUED = "queued"          # in the scheduler's virtual host
    CREATING = "creating"      # being created on a host
    RUNNING = "running"        # executing on a host
    MIGRATING = "migrating"    # live-migrating between hosts
    COMPLETED = "completed"    # job finished
    FAILED = "failed"          # lost (host failure, no recovery)


class Vm:
    """Runtime state of one virtual machine.

    Parameters
    ----------
    job:
        The encapsulated job; its ``cpu_pct``/``mem_mb`` seed the VM's
        requirement, its ``work`` defines completion.
    vm_id:
        Defaults to the job id (1 job : 1 VM).
    """

    __slots__ = (
        "job",
        "vm_id",
        "state",
        "host_id",
        "migration_src",
        "migration_dst",
        "cpu_req",
        "mem_req",
        "exclusive",
        "work_done",
        "last_progress_t",
        "share",
        "creations",
        "migrations",
        "sla_inflations",
        "arrival_seq",
    )

    def __init__(self, job: Job, vm_id: Optional[int] = None) -> None:
        self.job = job
        self.vm_id = vm_id if vm_id is not None else job.job_id
        self.state = VmState.QUEUED
        #: Host the VM runs on (None while queued; source host during migration).
        self.host_id: Optional[int] = None
        self.migration_src: Optional[int] = None
        self.migration_dst: Optional[int] = None
        #: Current requirement — may be inflated by dynamic SLA enforcement.
        self.cpu_req = float(job.cpu_pct)
        self.mem_req = float(job.mem_mb)
        #: Whole-node reservation: the VM claims its entire host (used by
        #: the static RD/RR disciplines, which give each task a dedicated
        #: machine — "maximization of the amount of resources to a task").
        #: The job still *uses* only its own cpu_req; the rest idles.
        self.exclusive = False
        #: CPU work integrated so far (percent-seconds).
        self.work_done = 0.0
        #: Simulation time of the last progress integration.
        self.last_progress_t = 0.0
        #: Current CPU share (percent units) on the hosting machine.
        self.share = 0.0
        #: Operation counters (exposed in results, used by P_conc/P_virt).
        self.creations = 0
        self.migrations = 0
        self.sla_inflations = 0
        #: Position in the engine's arrival order (set at arrival): the
        #: result fold averages jobs in this order.
        self.arrival_seq = 0

    # ------------------------------------------------------------- progress

    @property
    def work_total(self) -> float:
        """CPU work needed for completion (percent-seconds)."""
        return self.job.work

    @property
    def work_remaining(self) -> float:
        """Work still to do (never negative)."""
        return max(self.work_total - self.work_done, 0.0)

    @property
    def is_placed(self) -> bool:
        """Whether the VM occupies a physical host."""
        state = self.state
        return state is VmState.RUNNING or state is VmState.CREATING or state is VmState.MIGRATING

    @property
    def is_active(self) -> bool:
        """Whether the VM still needs scheduling attention."""
        return self.state not in (VmState.COMPLETED, VmState.FAILED)

    @property
    def in_operation(self) -> bool:
        """An operation (creation/migration) is in flight on this VM.

        The score matrix pins such VMs with an infinite penalty everywhere
        but their current location (§III-A-3).
        """
        state = self.state
        return state is VmState.CREATING or state is VmState.MIGRATING

    def advance(self, now: float) -> None:
        """Integrate progress up to ``now`` at the current share."""
        if now < self.last_progress_t:
            raise StateError(
                f"vm {self.vm_id}: time went backwards "
                f"({now} < {self.last_progress_t})"
            )
        if self.state is VmState.RUNNING or self.state is VmState.MIGRATING:
            self.work_done += self.share * (now - self.last_progress_t)
            if self.work_done > self.work_total:
                self.work_done = self.work_total
        self.last_progress_t = now

    def eta(self, now: float) -> float:
        """Projected completion time at the current share (inf if starved).

        Exact even when the work integral is stale: while the VM accrues
        (RUNNING/MIGRATING), ``work_done`` is correct as of
        ``last_progress_t`` and the share has been constant since, so the
        projection anchors there instead of assuming the integral was
        advanced to ``now``.  The engine's lazy progress accounting relies
        on this.
        """
        remaining = self.work_remaining
        if remaining <= 0:
            return now
        if self.share <= 0:
            return float("inf")
        if self.state is VmState.RUNNING or self.state is VmState.MIGRATING:
            return self.last_progress_t + remaining / self.share
        return now + remaining / self.share

    # ----------------------------------------------------------------- SLA

    def remaining_user_time(self, now: float) -> float:
        """``Tr = Tu - t``: remaining execution per the *user's* declaration.

        The paper uses this (not the simulator's ground truth) in the
        migration penalty — the scheduler only knows what the user declared.
        """
        elapsed = now - self.job.submit_time
        return max(self.job.runtime_s - elapsed, 0.0)

    def inflate(self, cpu_factor: float = 1.25) -> None:
        """Dynamic SLA enforcement: raise the CPU requirement.

        Capped at the job's width ceiling of 4x the original demand so a
        runaway violation cannot request more than any host offers.
        """
        self.cpu_req = min(self.cpu_req * cpu_factor, self.job.cpu_pct * 4.0)
        self.sla_inflations += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Vm(id={self.vm_id}, {self.state.value}, host={self.host_id}, "
            f"req={self.cpu_req:.0f}%, done={self.work_done / max(self.work_total, 1e-12):.0%})"
        )
