"""Immutable snapshot chunks, and the by-reference pickling around them.

A long run's history never changes once written: a retired VM, an
event-trace record, a trace job's spec.  Each such part is pickled once
into a :class:`Chunk` (cached ``bytes``) by the first snapshot that needs
it.  A plain ``pickle.dumps`` of an engine carries every chunk inline; a
snapshot (:mod:`repro.engine.snapshot`) instead writes each chunk once to
its lineage's append-only chunk log and refers to it by position.

Trace jobs are shared: the trace, the live VMs, the pending arrival and
the archived VMs all hold the same :class:`~repro.workload.job.Job`
objects.  Wherever a snapshot meets one, :class:`TraceRefs` pickles it as
its arrival index plus its three runtime fields, through a pickler
``dispatch_table`` entry (a type lookup in C, not a per-object hook), and
the trace itself as a reference to its job-spec chunk.
:class:`RefUnpickler` maps each reference back with one ``find_class``
mapping, so a restored VM holds the trace's own job object.
"""

from __future__ import annotations

import copyreg
import io
import pickle
import zlib
from dataclasses import fields
from operator import attrgetter
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.errors import StateError
from repro.workload.job import Job
from repro.workload.trace import Trace

__all__ = [
    "Chunk",
    "TraceRefs",
    "RefUnpickler",
    "dumps",
    "read_logged",
    "logged_copy_problem",
]

#: A job's fields that the engine writes as it runs; every other field is
#: its spec, fixed when the workload was generated.
_RUNTIME = ("state", "start_time", "finish_time")
_spec = attrgetter(*(f.name for f in fields(Job) if f.name not in _RUNTIME))


class Chunk:
    """One immutable, pickled part of a snapshot.

    ``data`` is the pickle.  ``where`` is ``(log path, offset, crc32)``
    once the chunk is durable in a chunk log (set by the snapshot writer,
    and by a snapshot load for the chunks it read); a plain pickle leaves
    it out, so a copy of the engine re-appends its chunks wherever it is
    next snapshotted.
    """

    __slots__ = ("data", "where")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.where: Optional[Tuple[str, int, int]] = None

    def __reduce__(self):
        return Chunk, (self.data,)


def read_logged(path: str, offset: int, length: int, crc: int) -> bytes:
    """The ``length`` bytes at ``offset`` of the chunk log ``path``,
    checked against ``crc``; StateError naming what is wrong otherwise."""
    try:
        with open(path, "rb") as fh:
            fh.seek(offset)
            data = fh.read(length)
    except OSError as exc:
        raise StateError(f"{path}: cannot read the chunk log ({exc})") from exc
    if len(data) != length:
        raise StateError(
            f"{path}: the {length}-byte chunk at offset {offset} is missing "
            f"(the log ends at {offset + len(data)})"
        )
    got = zlib.crc32(data)
    if got != crc:
        raise StateError(
            f"{path}: the chunk at offset {offset} reads crc32 {got:08x}, "
            f"not its recorded {crc:08x}"
        )
    return data


def logged_copy_problem(chunk: Chunk) -> Optional[str]:
    """What is wrong with ``chunk``'s copy in its chunk log; None when the
    copy is intact or the chunk has not been written to a log."""
    if chunk.where is None:
        return None
    path, offset, crc = chunk.where
    if zlib.crc32(chunk.data) != crc:
        return f"its cached bytes no longer match their logged crc32 {crc:08x}"
    try:
        read_logged(path, offset, len(chunk.data), crc)
    except StateError as exc:
        return str(exc)
    return None


# Reference placeholders: what a snapshot pickle names, and what
# :class:`RefUnpickler` maps to its own loaders.


def job_at(index: int, state, start_time, finish_time) -> Job:
    """The trace job at arrival ``index``, with its runtime fields."""
    raise StateError("a trace-job reference loads only through RefUnpickler")


def trace_at(specs: Chunk) -> Trace:
    """The trace whose job specs ``specs`` holds."""
    raise StateError("a trace reference loads only through RefUnpickler")


def chunk_at(position: int) -> Chunk:
    """The chunk at ``position`` of a snapshot's chunk table."""
    raise StateError("a chunk reference loads only through RefUnpickler")


class TraceRefs:
    """Pickles one trace's jobs by arrival index, and the trace as its
    job-spec chunk.  Built at the first snapshot (the index is O(jobs));
    the spec chunk is pickled once, at the first snapshot that needs it.
    """

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        #: The job-spec chunk, once a snapshot has cut it (or loaded it).
        self.specs: Optional[Chunk] = None
        self._index = {id(job): i for i, job in enumerate(trace)}

    def reduce_job(self, job: Job):
        index = self._index.get(id(job))
        if index is None:
            raise StateError(f"job {job.job_id} is not one of the trace's jobs")
        return job_at, (index, job.state, job.start_time, job.finish_time)

    def reduce_trace(self, trace: Trace):
        if trace is not self.trace:
            raise StateError("a snapshot refers to one trace only")
        if self.specs is None:
            self.specs = Chunk(pickle.dumps(
                list(map(_spec, trace)), protocol=pickle.HIGHEST_PROTOCOL
            ))
        return trace_at, (self.specs,)

    def dispatch(self) -> Dict[type, Callable]:
        return {Job: self.reduce_job, type(self.trace): self.reduce_trace}


#: The pickler class every archive chunk and snapshot payload goes through.
_Pickler = pickle.Pickler


def dumps(obj: Any, dispatch: Optional[Dict[type, Callable]] = None) -> bytes:
    """``obj`` pickled, with ``dispatch`` reducers ahead of the defaults."""
    buf = io.BytesIO()
    pickler = _Pickler(buf, protocol=pickle.HIGHEST_PROTOCOL)
    if dispatch:
        pickler.dispatch_table = {**copyreg.dispatch_table, **dispatch}
    pickler.dump(obj)
    return buf.getvalue()


class RefUnpickler(pickle.Unpickler):
    """Loads what :func:`dumps` wrote with :class:`TraceRefs` and chunk
    references: ``jobs`` are the trace's jobs (or come from the first
    trace reference), ``chunks`` the snapshot's chunk table."""

    def __init__(
        self,
        data: bytes,
        *,
        jobs: Optional[Sequence[Job]] = None,
        chunks: Sequence[Chunk] = (),
    ) -> None:
        super().__init__(io.BytesIO(data))
        self.jobs = jobs
        self.chunks = chunks
        #: The job-spec chunk a trace reference named.
        self.specs: Optional[Chunk] = None
        self._loaders = {
            "job_at": self._job_at,
            "trace_at": self._trace_at,
            "chunk_at": self._chunk_at,
        }

    def find_class(self, module: str, name: str):
        if module == __name__ and name in self._loaders:
            return self._loaders[name]
        return super().find_class(module, name)

    def _job_at(self, index: int, state, start_time, finish_time) -> Job:
        job = self.jobs[index]
        job.state = state
        job.start_time = start_time
        job.finish_time = finish_time
        return job

    def _trace_at(self, specs: Chunk) -> Trace:
        self.specs = specs
        trace = Trace(Job(*spec) for spec in pickle.loads(specs.data))
        self.jobs = trace._jobs
        return trace

    def _chunk_at(self, position: int) -> Chunk:
        return self.chunks[position]
