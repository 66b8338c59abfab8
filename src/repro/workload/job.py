"""The HPC job model.

A job is the unit submitted by a user; the scheduler encapsulates each job
in one VM (the paper's proof of concept is HPC jobs, one job per VM).  The
SLA of a job is a **deadline**: the user declares an expected dedicated
runtime ``runtime_s`` and the provider agrees on a deadline
``deadline_factor * runtime_s`` after submission (factor between 1.2 and 2
in the paper's setup, depending on job and user typology).

Satisfaction follows the paper's equation in §V:

* ``S = 100`` when the job finishes within its deadline;
* linearly decaying to ``S = 0`` when it takes twice the deadline or more.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import Optional

from repro.errors import ConfigurationError, StateError
from repro.units import CPU_PCT_PER_CORE

__all__ = ["Job", "JobState", "SPEC_FIELDS"]


class JobState(enum.Enum):
    """Lifecycle of a job inside the datacenter."""

    PENDING = "pending"        # submitted, VM not yet created
    CREATING = "creating"      # VM being created on a host
    RUNNING = "running"        # VM executing
    COMPLETED = "completed"    # finished (deadline met or not)
    FAILED = "failed"          # lost for good (no recovery possible)


@dataclass
class Job:
    """A single HPC job / VM workload description.

    Parameters
    ----------
    job_id:
        Unique identifier within a trace.
    submit_time:
        Arrival time in seconds from the start of the trace.
    runtime_s:
        Execution time on a dedicated machine granting the full CPU
        requirement (the "user execution time" ``Tu`` in the paper).
    cpu_pct:
        CPU requirement in percent-of-one-core units (100 = one core).
    mem_mb:
        Memory requirement in MB.
    deadline_factor:
        SLA slack multiplier; the agreed deadline is
        ``submit_time + deadline_factor * runtime_s``.
    user:
        Opaque user tag (used by the generator for typology-based factors).
    arch / hypervisor:
        Hardware/software requirements checked by the P_req penalty.
    fault_tolerance:
        ``F_tol(vm)`` in [0, 1]: tolerance to running on unreliable nodes.
    """

    job_id: int
    submit_time: float
    runtime_s: float
    cpu_pct: float
    mem_mb: float
    deadline_factor: float = 1.5
    user: str = "u0"
    arch: str = "x86_64"
    hypervisor: str = "xen"
    fault_tolerance: float = 0.0

    # Runtime bookkeeping (filled in by the engine).
    state: JobState = field(default=JobState.PENDING, compare=False)
    start_time: Optional[float] = field(default=None, compare=False)
    finish_time: Optional[float] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.runtime_s <= 0:
            raise ConfigurationError(f"job {self.job_id}: runtime must be > 0")
        if self.cpu_pct <= 0:
            raise ConfigurationError(f"job {self.job_id}: cpu_pct must be > 0")
        if self.mem_mb < 0:
            raise ConfigurationError(f"job {self.job_id}: mem_mb must be >= 0")
        if self.deadline_factor < 1.0:
            raise ConfigurationError(
                f"job {self.job_id}: deadline_factor must be >= 1.0"
            )
        if not 0.0 <= self.fault_tolerance <= 1.0:
            raise ConfigurationError(
                f"job {self.job_id}: fault_tolerance must be in [0, 1]"
            )

    # ----------------------------------------------------------- derived SLA

    @property
    def deadline(self) -> float:
        """Absolute deadline (seconds from trace start)."""
        return self.submit_time + self.deadline_factor * self.runtime_s

    @property
    def allowed_exec_time(self) -> float:
        """``Tdead`` measured from submission (deadline-relative runtime)."""
        return self.deadline_factor * self.runtime_s

    @property
    def cores(self) -> float:
        """CPU requirement expressed in cores."""
        return self.cpu_pct / CPU_PCT_PER_CORE

    @property
    def work(self) -> float:
        """Total CPU work in percent-seconds (``runtime_s * cpu_pct``).

        A VM receiving a CPU share ``a(t)`` (same percent units) completes
        once the integral of ``a(t)`` reaches this value.
        """
        return self.runtime_s * self.cpu_pct

    # --------------------------------------------------------------- outcome

    @property
    def exec_time(self) -> float:
        """Wall-clock time from submission to completion (``Texec``)."""
        if self.finish_time is None:
            raise StateError(f"job {self.job_id} has not finished")
        return self.finish_time - self.submit_time

    def satisfaction(self) -> float:
        """Client satisfaction S in [0, 100] per the paper's formula.

        Jobs that never complete score 0.
        """
        if self.state is JobState.FAILED:
            return 0.0
        if self.finish_time is None:
            return 0.0
        texec = self.exec_time
        tdead = self.allowed_exec_time
        if texec < tdead:
            return 100.0
        return 100.0 * max(1.0 - (texec - tdead) / tdead, 0.0)

    def delay_pct(self) -> float:
        """Execution stretch relative to the dedicated runtime, in percent.

        The paper's §V example fixes the definition: a job with dedicated
        runtime 100 min and factor 1.5 that takes more than 300 min has
        "a delay of 200%", i.e. ``delay = (Texec - runtime) / runtime``.
        Unfinished jobs are reported at the satisfaction-zero stretch
        (``2 * deadline_factor - 1``).
        """
        if self.finish_time is None:
            return 100.0 * (2.0 * self.deadline_factor - 1.0)
        texec = self.exec_time
        return 100.0 * max(texec - self.runtime_s, 0.0) / self.runtime_s

    def __hash__(self) -> int:
        return hash(self.job_id)


#: A job's fields that the engine writes as it runs.
_RUNTIME_FIELDS = ("state", "start_time", "finish_time")

#: Every other field, in declaration order: the job's spec, fixed when the
#: workload was generated or the request admitted (``Job(*spec)`` rebuilds
#: the job).
SPEC_FIELDS = tuple(f.name for f in fields(Job) if f.name not in _RUNTIME_FIELDS)
