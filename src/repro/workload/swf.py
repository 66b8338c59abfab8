"""Standard Workload Format (SWF) reader and writer.

The SWF is the de-facto archive format for parallel-machine logs
(Feitelson's Parallel Workloads Archive).  Each non-comment line holds 18
whitespace-separated fields; we consume the subset relevant to this
reproduction and map it onto :class:`~repro.workload.job.Job`:

====  =======================  =====================================
 #    SWF field                mapping
====  =======================  =====================================
 1    job number               ``job_id``
 2    submit time (s)          ``submit_time``
 4    run time (s)             ``runtime_s``
 5    allocated processors     ``cpu_pct = procs * 100``
 7    used memory (KB/proc)    ``mem_mb = kb * procs / 1024``
 8    requested processors     fallback when field 5 is -1
 9    requested time           fallback when field 4 is -1
====  =======================  =====================================

Unknown values are ``-1`` per the SWF spec; jobs without a usable runtime
or processor count are skipped silently (not counted).
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import List, Optional, TextIO, Union

from repro.errors import ConfigurationError, TraceFormatError
from repro.units import CPU_PCT_PER_CORE
from repro.workload.job import Job
from repro.workload.stream import JobStream, LogReader
from repro.workload.trace import Trace

__all__ = ["SwfReader", "iter_swf", "read_swf", "stream_swf", "write_swf"]

_N_FIELDS = 18


class SwfReader(LogReader):
    """Lazy SWF parser: one job per line, O(1) memory, resumable by path."""

    comments = (";",)

    def parse(self, fields: List[str], lineno: int) -> Optional[Job]:
        if len(fields) < _N_FIELDS:
            raise TraceFormatError(
                f"SWF line {lineno}: expected {_N_FIELDS} fields, got {len(fields)}"
            )
        try:
            job_id = int(fields[0])
            submit = float(fields[1])
            run = float(fields[3])
            procs = int(fields[4])
            mem_kb = float(fields[6])
            req_procs = int(fields[7])
            req_time = float(fields[8])
        except ValueError as exc:
            raise TraceFormatError(f"SWF line {lineno}: {exc}") from exc

        if run <= 0:
            run = req_time
        if procs <= 0:
            procs = req_procs
        if run <= 0 or procs <= 0:
            return None

        mem_mb = (mem_kb * procs / 1024.0) if mem_kb > 0 else self.default_mem_mb
        return Job(
            job_id=job_id,
            submit_time=submit,
            runtime_s=run,
            cpu_pct=procs * CPU_PCT_PER_CORE,
            mem_mb=mem_mb,
            deadline_factor=self.deadline_factor,
            user=f"u{fields[11]}",
        )


#: Lazily parse an SWF file, one job per line (a :class:`SwfReader`).
iter_swf = SwfReader


def read_swf(
    source: Union[str, Path, TextIO],
    *,
    default_mem_mb: float = 512.0,
    deadline_factor: float = 1.5,
    max_jobs: int | None = None,
) -> Trace:
    """Parse an SWF file (or file-like object) into a :class:`Trace`.

    Materializes :func:`iter_swf` (parameters as for
    :class:`~repro.workload.stream.LogReader`); use :func:`stream_swf`
    when the log is too large to hold as Job objects.
    """
    return Trace(
        list(
            iter_swf(
                source,
                default_mem_mb=default_mem_mb,
                deadline_factor=deadline_factor,
                max_jobs=max_jobs,
            )
        )
    )


def stream_swf(
    path: Union[str, Path],
    *,
    default_mem_mb: float = 512.0,
    deadline_factor: float = 1.5,
    max_jobs: int | None = None,
) -> JobStream:
    """A re-playable streaming feed over an SWF file.

    Requires a *path* (the file is re-opened per replay — an open handle
    cannot be rewound safely across runs).  SWF logs are submit-ordered
    by convention; the stream's order check enforces it at iteration
    time.  Unlike :func:`read_swf`, no job list is ever materialized.
    """
    if not isinstance(path, (str, Path)):
        raise ConfigurationError(
            "stream_swf needs a filesystem path (a handle cannot be replayed); "
            "use read_swf or iter_swf for file-like sources"
        )
    # functools.partial (not a lambda) so the stream — and any engine
    # snapshot holding it — stays picklable.
    return JobStream(
        functools.partial(
            iter_swf,
            path,
            default_mem_mb=default_mem_mb,
            deadline_factor=deadline_factor,
            max_jobs=max_jobs,
        )
    )


def write_swf(trace: Trace, target: Union[str, Path, TextIO]) -> None:
    """Serialize a trace to SWF (fields we do not model are ``-1``)."""
    if isinstance(target, (str, Path)):
        handle: TextIO = open(target, "w", encoding="utf-8")
        owned = True
    else:
        handle, owned = target, False
    try:
        handle.write("; generated by repro.workload.swf\n")
        for job in trace:
            procs = max(1, round(job.cores))
            mem_kb = job.mem_mb * 1024.0 / procs
            fields = [
                str(job.job_id),            # 1 job number
                f"{job.submit_time:.0f}",   # 2 submit time
                "-1",                        # 3 wait time
                f"{job.runtime_s:.0f}",     # 4 run time
                str(procs),                  # 5 allocated processors
                "-1",                        # 6 avg cpu time
                f"{mem_kb:.0f}",            # 7 used memory
                str(procs),                  # 8 requested processors
                f"{job.runtime_s:.0f}",     # 9 requested time
                "-1",                        # 10 requested memory
                "1",                         # 11 status
                job.user.lstrip("u") or "-1",  # 12 user id
                "-1", "-1", "-1", "-1", "-1", "-1",
            ]
            handle.write(" ".join(fields) + "\n")
    finally:
        if owned:
            handle.close()
