"""Deadline (SLA) assignment.

The paper sets up deadlines by "multiplying their execution times in a
dedicated machine by a factor between 1.2 and 2 depending on the job and
user typology".  :class:`DeadlinePolicy` reproduces that rule: each user is
deterministically mapped to a base factor in ``[lo, hi]`` and each job adds
a small typology adjustment from its runtime class (short jobs are the most
deadline-sensitive in HPC practice, so they get the tighter factors).
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import HOUR, clamp
from repro.workload.job import Job
from repro.workload.trace import Trace

__all__ = ["DeadlinePolicy", "assign_deadlines"]


@functools.lru_cache(maxsize=4096)
def _user_typology(user: str) -> float:
    """A user's stable position in ``[0, 1)``: crc32 of the tag."""
    return (zlib.crc32(user.encode("utf-8")) % 1000) / 1000.0


@dataclass(frozen=True)
class DeadlinePolicy:
    """Maps (user, job typology) to a deadline factor in ``[lo, hi]``.

    The mapping is a pure function of the user tag and job runtime — no RNG
    involved — so the same trace always receives the same SLAs.
    """

    lo: float = 1.2
    hi: float = 2.0

    def __post_init__(self) -> None:
        if not 1.0 <= self.lo <= self.hi:
            raise ConfigurationError(
                f"deadline factors must satisfy 1 <= lo <= hi, got [{self.lo}, {self.hi}]"
            )

    def factor(self, job: Job) -> float:
        """Deadline factor for ``job``: user base + typology adjustment."""
        return self.factor_for(job.user, job.runtime_s)

    def factor_for(self, user: str, runtime_s: float) -> float:
        """Deadline factor of a job by ``user`` that runs ``runtime_s``."""
        span = self.hi - self.lo
        base = self.lo + _user_typology(user) * span
        # Job typology: long jobs (> 4 h) get +10% of the span of slack,
        # short jobs (< 15 min) get -10%; interpolate in between.
        if runtime_s >= 4 * HOUR:
            adj = 0.1 * span
        elif runtime_s <= 0.25 * HOUR:
            adj = -0.1 * span
        else:
            frac = (runtime_s - 0.25 * HOUR) / (3.75 * HOUR)
            adj = (0.2 * frac - 0.1) * span
        return clamp(base + adj, self.lo, self.hi)

    def apply(self, job: Job) -> Job:
        """Return a copy of ``job`` carrying the policy's deadline factor."""
        return Job(
            job_id=job.job_id,
            submit_time=job.submit_time,
            runtime_s=job.runtime_s,
            cpu_pct=job.cpu_pct,
            mem_mb=job.mem_mb,
            deadline_factor=self.factor(job),
            user=job.user,
            arch=job.arch,
            hypervisor=job.hypervisor,
            fault_tolerance=job.fault_tolerance,
        )


def assign_deadlines(trace: Trace, policy: DeadlinePolicy | None = None) -> Trace:
    """Apply a :class:`DeadlinePolicy` to every job of a trace."""
    policy = policy or DeadlinePolicy()
    return trace.map(policy.apply)
