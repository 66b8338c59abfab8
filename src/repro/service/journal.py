"""The crash-consistent decision journal.

A :class:`DecisionJournal` is an append-only JSONL file of
:class:`~repro.engine.tracing.TraceRecord` wire dicts — the same schema
``EventTrace.write_jsonl`` emits, read back by the same torn-tail-tolerant
:func:`~repro.engine.tracing.read_jsonl` loader — so one set of tooling
reads engine traces and service journals alike.

Two properties make it a write-ahead log rather than a plain trace dump:

* **Write-ahead ordering** — the service journals an admission *before*
  injecting it into the engine, so a crash can lose at most work the
  journal already knows how to redo, never a decision the journal has
  no record of.
* **Index-deduplicated appends** — deterministic re-execution after a
  restore regenerates the same record sequence the dead process wrote;
  records whose index falls inside the file's existing *indexed* prefix
  are skipped instead of duplicated.  Non-deterministic observability
  records (sheds, resume markers) are appended outside the index so they
  never shift replay alignment.

Recovery truncates, it does not rewrite (:func:`repro.durable.recover_tail`):
a torn tail is cut off, and a crash during recovery leaves a file that
recovers the same way.  A corrupt record before the last line raises
:class:`~repro.errors.StateError` naming the path and line and changes
nothing: re-execution would otherwise lose that decision and duplicate
a later one.
"""

from __future__ import annotations

import json
import os
from typing import List

from repro.durable import recover_tail
from repro.engine.tracing import (
    TraceEventKind,
    TraceRecord,
    record_from_dict,
    record_to_dict,
)

__all__ = ["DecisionJournal", "UNINDEXED_KINDS"]

#: Record kinds outside the deterministic replay stream: load shedding
#: depends on live queue pressure and resume markers on process history,
#: so re-execution never regenerates them and they must not consume
#: replay indices.
UNINDEXED_KINDS = frozenset({TraceEventKind.SVC_SHED, TraceEventKind.SVC_RESUME})


class DecisionJournal:
    """Append-only JSONL decision log with index-deduplicated writes.

    Parameters
    ----------
    path:
        The journal file.  Opened in append mode; created if missing.
    recover:
        Read the existing file first (a torn last line is dropped, any
        earlier corruption raises :class:`~repro.errors.StateError`),
        truncate it to the valid prefix, and remember how many
        *indexed* records it already holds — appends below that index
        become no-ops.  Fresh journals (``recover=False``) truncate
        whatever was there.
    """

    def __init__(self, path: str, *, recover: bool = False) -> None:
        self.path = str(path)
        self._preexisting: List[TraceRecord] = []
        if recover and os.path.exists(self.path):
            self._preexisting = recover_tail(self.path, record_from_dict)
        self.preexisting_indexed = sum(
            1 for r in self._preexisting if r.kind not in UNINDEXED_KINDS
        )
        self._fh = open(self.path, "a", encoding="utf-8")
        #: Appends actually written (excludes index-deduplicated skips).
        self.written = 0
        #: Appends skipped because the file already held that index.
        self.skipped = 0

    # ----------------------------------------------------------------- write

    def append_indexed(self, index: int, record: TraceRecord) -> bool:
        """Append record number ``index`` of the deterministic stream.

        Returns False (and writes nothing) when the file already holds a
        record at this index — the recovery re-execution case, where the
        regenerated record is bit-identical to the one on disk by the
        determinism contract.
        """
        if index < self.preexisting_indexed:
            self.skipped += 1
            return False
        self._write(record)
        return True

    def append(self, record: TraceRecord) -> None:
        """Append an unindexed observability record (shed, resume marker)."""
        self._write(record)

    def _write(self, record: TraceRecord) -> None:
        self._fh.write(json.dumps(record_to_dict(record)) + "\n")
        # Flush to the OS on every record: a SIGKILL loses nothing that
        # was journaled (only a machine crash could, and the torn-tail
        # loader handles the partial last line even then).
        self._fh.flush()
        self.written += 1

    # ------------------------------------------------------------------ read

    @property
    def preexisting(self) -> List[TraceRecord]:
        """Records the file held at open time (recovery mode only)."""
        return list(self._preexisting)

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()

    def __enter__(self) -> "DecisionJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
