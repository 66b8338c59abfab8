"""Pull-based workload feeds.

A :class:`JobStream` is the streaming counterpart of
:class:`~repro.workload.trace.Trace`: an ordered source of
:class:`~repro.workload.job.Job` objects that is **never materialized** —
jobs are produced one at a time from a factory-made iterator, so a
million-job sweep holds O(live VMs) of workload state instead of O(total
jobs).  The engine (:class:`~repro.engine.datacenter.DatacenterSimulation`)
accepts either form and feeds both the same way, chaining arrival events
(each arrival schedules the next); with a stream it also prunes retired
VMs from its registry.

Contract, enforced on the fly while iterating:

* jobs must come in non-decreasing ``submit_time`` order (the engine
  cannot schedule an arrival in its past) — violations raise
  :class:`~repro.errors.TraceFormatError`;
* job ids must be unique; duplicates are detected with a bounded memory
  window is *not* possible for arbitrary producers, so the stream trusts
  the producer (SWF/GWF files and the synthetic generator all satisfy it)
  and the engine's VM registry raises on a collision.

``fresh()`` mirrors ``Trace.fresh()``: the factory is re-invoked, so every
run sees pristine Job objects.  Factories must therefore build *new* jobs
per call (a generator function over a file or an RNG does; an iterator
over a stored list does not — wrap such data in a ``Trace`` instead).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional

from repro.errors import TraceFormatError
from repro.workload.job import Job

__all__ = ["JobStream"]


class JobStream:
    """A re-playable, order-checked, lazily produced job sequence.

    Parameters
    ----------
    factory:
        Zero-argument callable returning a fresh iterable of jobs in
        submit order.  Called once per :meth:`__iter__` / :meth:`fresh`.
    length_hint:
        Optional expected job count (diagnostics only — e.g. benchmark
        progress reporting; streams intentionally have no ``len()``).
    """

    def __init__(
        self,
        factory: Callable[[], Iterable[Job]],
        *,
        length_hint: Optional[int] = None,
    ) -> None:
        self._factory = factory
        self.length_hint = length_hint

    def fresh(self) -> "JobStream":
        """A pristine replay of the stream (same factory, new iterator)."""
        return JobStream(self._factory, length_hint=self.length_hint)

    def __iter__(self) -> Iterator[Job]:
        last = float("-inf")
        for job in self._factory():
            if job.submit_time < last:
                raise TraceFormatError(
                    f"job {job.job_id} submitted at {job.submit_time} after "
                    f"a job at {last}: streams must be submit-ordered"
                )
            last = job.submit_time
            yield job

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        hint = f"~{self.length_hint} jobs" if self.length_hint else "unsized"
        return f"JobStream({hint})"
