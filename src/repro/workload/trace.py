"""Trace container and summary statistics.

A :class:`Trace` is an immutable, submit-time-ordered sequence of
:class:`~repro.workload.job.Job` objects plus utilities the experiment
harness needs: windowing (take one week), demand scaling (match the paper's
~6 055 CPU·hours), and aggregate statistics (:class:`TraceStats`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.units import to_hours
from repro.workload.job import Job

__all__ = ["Trace", "TraceCursor", "TraceStats"]


@dataclass(frozen=True)
class TraceStats:
    """Aggregate demand statistics of a trace."""

    n_jobs: int
    span_s: float
    total_cpu_hours: float
    mean_runtime_s: float
    mean_cores: float
    max_cores: float
    mean_interarrival_s: float

    def __str__(self) -> str:
        return (
            f"{self.n_jobs} jobs over {self.span_s / 86400:.2f} days, "
            f"{self.total_cpu_hours:.0f} CPU·h, "
            f"mean runtime {self.mean_runtime_s / 60:.1f} min, "
            f"mean width {self.mean_cores:.2f} cores"
        )


class Trace:
    """An ordered collection of jobs.

    The constructor sorts by ``(submit_time, job_id)`` so downstream
    consumers may rely on arrival order.
    """

    def __init__(self, jobs: Iterable[Job]) -> None:
        self._jobs: List[Job] = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
        seen = set()
        for job in self._jobs:
            if job.job_id in seen:
                raise ConfigurationError(f"duplicate job id {job.job_id} in trace")
            seen.add(job.job_id)

    # ------------------------------------------------------------- container

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self._jobs)

    def __getitem__(self, index: int) -> Job:
        return self._jobs[index]

    @property
    def jobs(self) -> Sequence[Job]:
        """The jobs in submit order (read-only view)."""
        return tuple(self._jobs)

    # ------------------------------------------------------------- utilities

    def window(self, start: float, end: float, *, rebase: bool = True) -> "Trace":
        """Jobs submitted in ``[start, end)``; optionally rebased to t=0."""
        if end <= start:
            raise ConfigurationError("window end must be after start")
        selected = [j for j in self._jobs if start <= j.submit_time < end]
        if rebase:
            selected = [
                Job(
                    job_id=j.job_id,
                    submit_time=j.submit_time - start,
                    runtime_s=j.runtime_s,
                    cpu_pct=j.cpu_pct,
                    mem_mb=j.mem_mb,
                    deadline_factor=j.deadline_factor,
                    user=j.user,
                    arch=j.arch,
                    hypervisor=j.hypervisor,
                    fault_tolerance=j.fault_tolerance,
                )
                for j in selected
            ]
        return Trace(selected)

    def scaled(self, *, runtime: float = 1.0, arrival: float = 1.0) -> "Trace":
        """Scale runtimes and/or the arrival timeline by constant factors."""
        if runtime <= 0 or arrival <= 0:
            raise ConfigurationError("scale factors must be positive")
        return Trace(
            Job(
                job_id=j.job_id,
                submit_time=j.submit_time * arrival,
                runtime_s=j.runtime_s * runtime,
                cpu_pct=j.cpu_pct,
                mem_mb=j.mem_mb,
                deadline_factor=j.deadline_factor,
                user=j.user,
                arch=j.arch,
                hypervisor=j.hypervisor,
                fault_tolerance=j.fault_tolerance,
            )
            for j in self._jobs
        )

    def map(self, fn: Callable[[Job], Job]) -> "Trace":
        """Apply ``fn`` to every job, returning a new trace."""
        return Trace(fn(j) for j in self._jobs)

    def fresh(self) -> "Trace":
        """A deep copy with all runtime bookkeeping reset.

        Policies are compared on the *same* trace; the engine mutates job
        state, so each run must start from pristine jobs.
        """
        return Trace(
            Job(
                job_id=j.job_id,
                submit_time=j.submit_time,
                runtime_s=j.runtime_s,
                cpu_pct=j.cpu_pct,
                mem_mb=j.mem_mb,
                deadline_factor=j.deadline_factor,
                user=j.user,
                arch=j.arch,
                hypervisor=j.hypervisor,
                fault_tolerance=j.fault_tolerance,
            )
            for j in self._jobs
        )

    def stats(self) -> TraceStats:
        """Aggregate demand statistics (see :class:`TraceStats`)."""
        if not self._jobs:
            return TraceStats(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        submits = np.array([j.submit_time for j in self._jobs])
        runtimes = np.array([j.runtime_s for j in self._jobs])
        cores = np.array([j.cores for j in self._jobs])
        span = float(submits.max() - submits.min()) if len(self._jobs) > 1 else 0.0
        inter = float(np.diff(np.sort(submits)).mean()) if len(self._jobs) > 1 else 0.0
        return TraceStats(
            n_jobs=len(self._jobs),
            span_s=span,
            total_cpu_hours=float(to_hours(float((runtimes * cores).sum()))),
            mean_runtime_s=float(runtimes.mean()),
            mean_cores=float(cores.mean()),
            max_cores=float(cores.max()),
            mean_interarrival_s=inter,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Trace({self.stats()})"


class TraceCursor:
    """A feed position in a trace: iterates its jobs from the first on.

    It pickles as the trace and the position, where a list iterator would
    pickle the whole job list with it.
    """

    __slots__ = ("trace", "pos")

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self.pos = 0

    def __iter__(self) -> "TraceCursor":
        return self

    def __next__(self) -> Job:
        jobs = self.trace._jobs
        pos = self.pos
        if pos >= len(jobs):
            raise StopIteration
        self.pos = pos + 1
        return jobs[pos]
