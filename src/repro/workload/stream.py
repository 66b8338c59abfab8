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

Contract, checked while iterating:

* jobs come in non-decreasing ``submit_time`` order (the engine cannot
  schedule an arrival in its past); a violation raises
  :class:`~repro.errors.TraceFormatError`;
* job ids are unique.  The stream does not check this: proving it takes
  memory that grows with the whole feed, which is what a stream exists
  to avoid.  The producers guarantee it (SWF/GWF files and the synthetic
  generator do), and the engine's VM registry raises on a collision.

``fresh()`` mirrors ``Trace.fresh()``: the factory is re-invoked, so every
run sees pristine Job objects.  Factories must therefore build *new* jobs
per call (a generator function over a file or an RNG does; an iterator
over a stored list does not — wrap such data in a ``Trace`` instead).

**Cursor and resume.**  Iterating a stream yields a :class:`FeedCursor`:
the factory's iterator plus the order check.  An engine snapshot pickles
the cursor mid-stream, and the *type* of the factory's iterator decides
how it resumes:

* a :class:`ResumableJobs` iterator (the synthetic generator's
  :class:`~repro.workload.synthetic.SyntheticJobs`, the SWF/GWF readers)
  or a list iterator (a ``Trace``'s) pickles its own position — RNG
  states, a byte offset, a list index — and resumes in O(1);
* any other iterator (an opaque generator function, such as a filtering
  wrapper around another feed) cannot be pickled.  The cursor pickles
  the factory and its pull count instead, and on load re-invokes the
  factory and skips that many jobs: an O(pulled) replay.  The factory
  must then be picklable (a module-level function, a
  ``functools.partial``, a bound method or a callable object, not a
  lambda).
"""

from __future__ import annotations

import itertools
from pathlib import Path
from typing import Callable, Iterable, List, Optional, TextIO, Tuple, Union

from repro.errors import TraceFormatError
from repro.workload.job import Job

__all__ = ["FeedCursor", "JobStream", "LogReader", "ResumableJobs"]


class ResumableJobs:
    """Base of job iterators whose pickle is their position.

    A subclass pickles everything it needs to continue where it stopped,
    so a :class:`FeedCursor` over it resumes without replaying a job.
    """

    def __iter__(self) -> "ResumableJobs":
        return self

    def __next__(self) -> Job:  # pragma: no cover - abstract
        raise NotImplementedError


#: Iterator types that pickle their own position (see the module docstring).
_RESUMABLE = (ResumableJobs, type(iter([])))


class FeedCursor:
    """One pass over a :class:`JobStream`: its iterator and the order check."""

    def __init__(self, factory: Callable[[], Iterable[Job]]) -> None:
        self._factory = factory
        self._inner = iter(factory())
        self._last = float("-inf")
        #: Jobs handed out so far.
        self.pulled = 0
        #: Jobs the last unpickle re-pulled from a fresh iterator to reach
        #: the saved position (0 when the iterator resumed by itself).
        self.replayed = 0

    def __iter__(self) -> "FeedCursor":
        return self

    def __next__(self) -> Job:
        job = next(self._inner)
        if job.submit_time < self._last:
            raise TraceFormatError(
                f"job {job.job_id} submitted at {job.submit_time} after "
                f"a job at {self._last}: streams must be submit-ordered"
            )
        self._last = job.submit_time
        self.pulled += 1
        return job

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        if not isinstance(self._inner, _RESUMABLE):
            state["_inner"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if self._inner is None:
            inner = iter(self._factory())
            self.replayed = sum(1 for _ in itertools.islice(inner, self.pulled))
            self._inner = inner


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

    def __iter__(self) -> FeedCursor:
        return FeedCursor(self._factory)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        hint = f"~{self.length_hint} jobs" if self.length_hint else "unsized"
        return f"JobStream({hint})"


class LogReader(ResumableJobs):
    """A one-job-per-line archive log, parsed lazily.

    Subclasses name their comment prefixes and map a line's fields to a
    :class:`Job` (or ``None`` to skip the line).  Read from a path, the
    reader's position is the path plus a byte offset: unpickling reopens
    the file and seeks there.  A reader over a caller's open handle
    cannot be pickled, since the handle cannot be reopened.

    Parameters
    ----------
    source:
        Path or open text handle.
    default_mem_mb:
        Memory requirement for jobs whose memory field is unknown.
    deadline_factor:
        SLA factor assigned uniformly (re-assign with
        :func:`repro.workload.deadlines.assign_deadlines` for the paper's
        per-typology factors).
    max_jobs:
        Stop after this many parsed jobs (useful for tests).
    """

    #: Line prefixes that mark a comment.
    comments: Tuple[str, ...] = ()

    def __init__(
        self,
        source: Union[str, Path, TextIO],
        *,
        default_mem_mb: float = 512.0,
        deadline_factor: float = 1.5,
        max_jobs: Optional[int] = None,
    ) -> None:
        if isinstance(source, (str, Path)):
            self.path: Optional[Union[str, Path]] = source
            self._handle = None  # opened on the first pull
        else:
            self.path = None
            self._handle = source
        self.default_mem_mb = default_mem_mb
        self.deadline_factor = deadline_factor
        self.max_jobs = max_jobs
        self._offset = 0
        self._lineno = 0
        self._yielded = 0

    def parse(self, fields: List[str], lineno: int) -> Optional[Job]:  # pragma: no cover - abstract
        raise NotImplementedError

    def __next__(self) -> Job:
        if self.max_jobs is not None and self._yielded >= self.max_jobs:
            self.close()
            raise StopIteration
        handle = self._handle
        if handle is None:
            handle = self._handle = open(self.path, "rb")
            handle.seek(self._offset)
        while True:
            raw = handle.readline()
            if not raw:
                self.close()
                raise StopIteration
            self._lineno += 1
            if isinstance(raw, bytes):
                self._offset += len(raw)
                raw = raw.decode("utf-8")
            line = raw.strip()
            if not line or line.startswith(self.comments):
                continue
            job = self.parse(line.split(), self._lineno)
            if job is not None:
                self._yielded += 1
                return job

    def close(self) -> None:
        """Close the file a path-backed reader opened (a caller's handle stays open)."""
        if self.path is not None and self._handle is not None:
            self._handle.close()
            self._handle = None

    __del__ = close

    def __getstate__(self) -> dict:
        if self.path is None:
            raise TypeError(
                f"a {type(self).__name__} over an open handle cannot be "
                f"pickled; read from a path to resume"
            )
        state = self.__dict__.copy()
        state["_handle"] = None
        return state
