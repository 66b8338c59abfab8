"""Grid Workloads Format (GWF) reader.

The Grid Workloads Archive (gwa.ewi.tudelft.nl, cited as [31] in the paper)
distributes Grid5000 in GWF: one whitespace-separated record per line,
29 fields, ``-1`` for unknowns, comments starting with ``#``.  We map the
fields relevant to this reproduction:

====  =========================  ===================================
 #    GWF field                  mapping
====  =========================  ===================================
 1    JobID                      ``job_id``
 2    SubmitTime (s)             ``submit_time``
 4    RunTime (s)                ``runtime_s``
 5    NProcs                     ``cpu_pct = nprocs * 100``
 6    AverageCPUTimeUsed         refines cpu_pct when available
 7    Used memory (KB)           ``mem_mb``
 12   UserID                     ``user``
====  =========================  ===================================

The parser is deliberately tolerant about trailing fields — archive files
vary between 11 and 29 columns.
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

__all__ = ["GwfReader", "iter_gwf", "read_gwf", "stream_gwf"]

_MIN_FIELDS = 7


class GwfReader(LogReader):
    """Lazy GWF parser: one job per line, O(1) memory, resumable by path."""

    comments = ("#", ";")

    def parse(self, fields: List[str], lineno: int) -> Optional[Job]:
        if len(fields) < _MIN_FIELDS:
            raise TraceFormatError(
                f"GWF line {lineno}: expected >= {_MIN_FIELDS} fields, "
                f"got {len(fields)}"
            )
        try:
            job_id = int(float(fields[0]))
            submit = float(fields[1])
            run = float(fields[3])
            nprocs = int(float(fields[4]))
            mem_kb = float(fields[6])
        except ValueError as exc:
            raise TraceFormatError(f"GWF line {lineno}: {exc}") from exc

        if run <= 0 or nprocs <= 0:
            return None
        return Job(
            job_id=job_id,
            submit_time=submit,
            runtime_s=run,
            cpu_pct=nprocs * CPU_PCT_PER_CORE,
            mem_mb=mem_kb / 1024.0 if mem_kb > 0 else self.default_mem_mb,
            deadline_factor=self.deadline_factor,
            user=f"u{fields[11]}" if len(fields) > 11 else "u0",
        )


#: Lazily parse a GWF file, one job per line (a :class:`GwfReader`).
iter_gwf = GwfReader


def read_gwf(
    source: Union[str, Path, TextIO],
    *,
    default_mem_mb: float = 512.0,
    deadline_factor: float = 1.5,
    max_jobs: int | None = None,
) -> Trace:
    """Parse a GWF file (or file-like object) into a :class:`Trace`.

    Materializes :func:`iter_gwf`; use :func:`stream_gwf` when the log
    is too large to hold as Job objects.
    """
    return Trace(
        list(
            iter_gwf(
                source,
                default_mem_mb=default_mem_mb,
                deadline_factor=deadline_factor,
                max_jobs=max_jobs,
            )
        )
    )


def stream_gwf(
    path: Union[str, Path],
    *,
    default_mem_mb: float = 512.0,
    deadline_factor: float = 1.5,
    max_jobs: int | None = None,
) -> JobStream:
    """A re-playable streaming feed over a GWF file.

    Requires a *path* (re-opened per replay).  Archive GWF files are
    submit-ordered; the stream's order check enforces it at iteration
    time.
    """
    if not isinstance(path, (str, Path)):
        raise ConfigurationError(
            "stream_gwf needs a filesystem path (a handle cannot be replayed); "
            "use read_gwf or iter_gwf for file-like sources"
        )
    # functools.partial (not a lambda) so the stream — and any engine
    # snapshot holding it — stays picklable.
    return JobStream(
        functools.partial(
            iter_gwf,
            path,
            default_mem_mb=default_mem_mb,
            deadline_factor=deadline_factor,
            max_jobs=max_jobs,
        )
    )
