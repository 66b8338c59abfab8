"""Engine-level checkpoint/restore: durable snapshots of a whole run.

The paper's own answer to disruption — checkpoint a VM, move it, resume
it bit-for-bit — applied to the *simulator itself*: a snapshot serializes
the complete simulation state as one pickled object graph, so a run
killed mid-flight (crash, OOM, preemption, SIGKILL) resumes from its
latest snapshot and produces a :class:`~repro.engine.results.SimulationResult`
and event trace **bit-identical** to the uninterrupted run.

What a snapshot contains (the whole engine, pickled as one object so
shared identities survive, minus state a restore derives cheaply):

* the DES kernel: virtual clock, the event heap as a list of
  ``(time, priority, seq, event)`` entries whose events hold the
  scheduled callbacks (all ``functools.partial`` of bound methods —
  picklable), tombstones, the sequence counter;
* every :class:`~repro.des.random.RandomStreams` numpy generator state;
* hosts and VMs with their incremental occupancy aggregates, the
  delta-maintained :class:`~repro.engine.metrics.MetricsCollector`;
* chaos state: :class:`~repro.cluster.faults.OperationFaultModel` RNGs and
  :class:`~repro.cluster.faults.ObservedReliability` EWMAs, supervisor
  retry/quarantine/orphan bookkeeping;
* the scheduling policy with its
  :class:`~repro.scheduling.score.persistent.PersistentScoreMatrix` —
  every O(hosts + slots) member (static host arrays, row copies, per-slot
  VM and column attributes, argmin caches, catch-up stamps, counters),
  but not the O(hosts x slots) cell array: the matrix's restore rebuilds
  the cells in one block from those members, and counts nothing, so
  ``rescore_stats`` resumes exactly;
* the matrix's VM slot registry with finished VMs replaced by a stand-in
  (they wait there for the next sweep; the stand-in keeps the key order,
  so the sweep frees the same slots in the same order);
* the event trace, with its records pickled as plain tuples and rebuilt
  on load;
* the workload iterator: a trace's list iterator, or a stream's
  :class:`~repro.workload.stream.FeedCursor`.  The cursor pickles its
  feed's position when the feed can (the synthetic generator, the
  SWF/GWF readers) and resumes in O(1); over an opaque generator it
  pickles the factory and pull count and replays that prefix on load.

Snapshots are only taken at **inter-event boundaries** (the simulator's
``post_event`` hook): inside an event callback the enclosing frame may
still have work to do (e.g. ``trigger_round()`` after ``_refresh()``),
and that continuation lives on the Python stack, which no pickle can
capture.  Between events the heap *is* the continuation.

Durability: each snapshot is written to a temp file in the target
directory, flushed, ``fsync``\\ ed, then atomically renamed — a torn write
can never shadow a good snapshot — and the directory keeps only the last
K files.  The durable half runs on a background writer thread (at most
one write in flight), so the simulation itself only pays serialization
time.  A JSON header line precedes the pickle payload carrying the
format version and a config fingerprint; restoring with a mismatched
version or fingerprint raises :class:`~repro.errors.StateError` naming
both sides, never a silent wrong-state resume.

Determinism contract: writing a snapshot is a pure read of the engine
(no RNG draws, no events scheduled, no state mutated), so enabling
checkpointing changes *nothing* about the simulated world — rows,
``sim_events`` and traces stay bit-identical to a checkpoint-off run,
chaos on or off.  Only the operational counters
(``checkpoints_written`` / ``checkpoint_bytes`` / ``snapshot_restores``)
and measured wall clock differ; :meth:`SimulationResult.canonical`
excludes exactly those.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import threading
import time
from dataclasses import replace as _replace
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.durable import atomic_write
from repro.errors import StateError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.datacenter import DatacenterSimulation

__all__ = [
    "SNAPSHOT_VERSION",
    "SNAPSHOT_MAGIC",
    "EngineSnapshotter",
    "config_fingerprint",
    "write_snapshot",
    "read_header",
    "list_snapshots",
    "latest_snapshot",
    "load_snapshot",
    "resume_from",
]

#: Bump on any incompatible change to what the pickle payload contains or
#: how the engine restores it.  Old snapshots then refuse to load with a
#: clear :class:`StateError` instead of resuming wrong state.
#: 2: batched engine refresh — the engine pickle gained the share memo
#:    (``_share_memo``) and a cached refresh-mode flag.
#: 3: one score kernel — the score policy pickles its columnar state as
#:    ``_state``, whose class layout changed (static host arrays folded
#:    in, per-host arch/hypervisor string arrays dropped), and lost its
#:    two kernel-selection attributes.
#: 4: one share-solve path — the engine pickle lost the refresh-mode
#:    flag (the share memo is always present), each host lost its
#:    ``_scheduler`` (shares are solved against ``spec.cpu_capacity``),
#:    and ``EngineConfig`` lost the refresh-mode field.
#: 5: tuple-keyed DES heap — heap entries are ``(time, priority, seq,
#:    event)`` tuples, and ``Event`` is a slotted record that no longer
#:    carries ``priority``/``seq``.
#: 6: snapshots carry the world, not the caches — the score matrix is
#:    pickled without its cell array (rebuilt on first access), the slot
#:    registry with finished VMs as stand-ins, and the event trace with
#:    its records as tuples.
#: 7: O(dirty) SLA assessment — the SLA monitor pickles its violation
#:    count as an int instead of a list of ``SlaViolation`` records (a
#:    class that no longer exists), and leaves its fulfilment index out
#:    (rebuilt on restore).
#: 8: one workload feed — a trace's arrivals are chained like a stream's
#:    (one arrival in the heap, the rest behind the pull cursor) and every
#:    retired VM is compacted into the ``_ret_*`` arrays the one result
#:    fold reads; a version-7 trace snapshot holds every arrival in its
#:    heap and empty arrays, so its retired jobs would drop out of the
#:    result.
#: 9: feeds resume in O(1) — the workload iterator pickles with the engine
#:    (a trace's list iterator, or a stream's ``FeedCursor`` carrying the
#:    feed's own position), the engine lost its ``_stream_pulled`` count,
#:    and the synthetic generator lost its cached named streams; a
#:    version-8 stream snapshot has no iterator to resume.
#: 10: one host mirror — the columnar state lost its dynamic host arrays
#:    and dirty set (the score matrix reads its rows from the hosts), and
#:    the score policy lost its ``_state`` (the long-lived matrix holds
#:    it); a version-9 snapshot would restore a second, unsubscribed
#:    mirror.
#: 11: one score-matrix object — the columnar state is gone: the score
#:    matrix holds the static host arrays and the VM slot registry itself
#:    and rebuilds its cells on unpickling; a version-10 snapshot pickles
#:    a class that no longer exists.
#: 12: completion events re-keyed in place — ``Event`` pickles its
#:    current sequence number ``seq``, which can be ahead of its heap
#:    entry's; a version-11 event unpickles without it.
SNAPSHOT_VERSION = 12

#: First header field; identifies the file format itself.
SNAPSHOT_MAGIC = "repro-engine-snapshot"

_SUFFIX = ".ckpt"

#: EngineConfig fields that are *operational* (where/how often to
#: checkpoint, wall budgets) rather than semantic: two runs differing
#: only in these produce identical simulations, so they are excluded
#: from the fingerprint — a resumed run may checkpoint elsewhere or at a
#: different cadence and still restore.
_OPERATIONAL_FIELDS = {
    "checkpoint_dir": None,
    "checkpoint_sim_interval_s": None,
    "checkpoint_wall_interval_s": None,
    "checkpoint_keep": 3,
    "max_wall_clock_s": None,
}


def config_fingerprint(engine: "DatacenterSimulation") -> str:
    """Identity hash of everything that determines a run's trajectory.

    Folds the (operationally sanitized) :class:`EngineConfig` — which
    includes the seed, chaos seed and fault config — the policy identity
    and its config, the power-manager thresholds, and every host spec.
    Two engines with equal fingerprints run the exact same simulation;
    restoring across different fingerprints is refused.
    """
    digest = hashlib.sha256()
    sanitized = _replace(engine.config, **_OPERATIONAL_FIELDS)
    parts = [
        repr(sanitized),
        type(engine.policy).__name__,
        getattr(engine.policy, "name", ""),
        repr(getattr(engine.policy, "config", None)),
        getattr(engine.policy, "solver", ""),
        repr(engine.power_manager.config),
        type(engine.power_manager).__name__,
        repr(getattr(engine.trace, "length_hint", None)),
        str(len(engine.hosts)),
    ]
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    for spec in engine.cluster:
        digest.update(repr(spec).encode("utf-8"))
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------- files


def _snapshot_path(directory: Path, index: int) -> Path:
    return directory / f"snap-{index:010d}{_SUFFIX}"


def write_snapshot(
    engine: "DatacenterSimulation",
    directory: os.PathLike,
    *,
    index: int = 0,
    fingerprint: Optional[str] = None,
    keep: Optional[int] = None,
) -> Tuple[Path, int]:
    """Atomically persist one snapshot; returns ``(path, payload bytes)``.

    Pure read of the engine: pickling draws no randomness and schedules
    nothing, so a checkpointed run stays bit-identical to an
    uncheckpointed one.  The write is crash-safe (temp file + fsync +
    rename into place, then the directory is fsynced) and, when ``keep``
    is given, older snapshots beyond the last K are pruned.
    """
    header = _build_header(engine, index, fingerprint)
    payload = pickle.dumps(engine, protocol=pickle.HIGHEST_PROTOCOL)
    final = _persist(header, payload, Path(directory), index, keep)
    return final, len(payload)


def _build_header(
    engine: "DatacenterSimulation", index: int, fingerprint: Optional[str]
) -> dict:
    """Header fields captured at serialization time (the engine moves on
    while a background writer persists the payload)."""
    return {
        "magic": SNAPSHOT_MAGIC,
        "version": SNAPSHOT_VERSION,
        "fingerprint": fingerprint or config_fingerprint(engine),
        "index": index,
        "sim_time": engine.sim.now,
        "events": engine.sim.events_processed,
        "created_at": time.time(),
    }


def _persist(
    header: dict,
    payload: bytes,
    directory: Path,
    index: int,
    keep: Optional[int],
) -> Path:
    """The durable half: temp file + fsync + atomic rename + retention."""
    directory.mkdir(parents=True, exist_ok=True)
    final = _snapshot_path(directory, index)
    atomic_write(
        final, json.dumps(header, sort_keys=True).encode("utf-8"), b"\n", payload
    )
    if keep is not None:
        for stale in list_snapshots(directory)[:-keep]:
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - retention is best-effort
                pass
    return final


def list_snapshots(directory: os.PathLike) -> List[Path]:
    """Snapshot files in ``directory``, oldest first (by index)."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(
        p for p in directory.iterdir()
        if p.suffix == _SUFFIX and p.name.startswith("snap-")
    )


def latest_snapshot(directory: os.PathLike) -> Optional[Path]:
    """The newest snapshot in ``directory``, or None."""
    snaps = list_snapshots(directory)
    return snaps[-1] if snaps else None


def read_header(path: os.PathLike) -> dict:
    """Parse and validate a snapshot file's JSON header line."""
    with open(path, "rb") as fh:
        line = fh.readline()
    try:
        header = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise StateError(f"{path}: not a snapshot file (bad header)") from exc
    if header.get("magic") != SNAPSHOT_MAGIC:
        raise StateError(
            f"{path}: not an engine snapshot "
            f"(magic {header.get('magic')!r} != {SNAPSHOT_MAGIC!r})"
        )
    return header


def load_snapshot(
    path: os.PathLike,
    *,
    expected_fingerprint: Optional[str] = None,
) -> "DatacenterSimulation":
    """Restore an engine from a snapshot file.

    Guards first, unpickles second: a schema-version or fingerprint
    mismatch raises :class:`StateError` naming both sides before any
    state is materialized — restoring the wrong run silently is the one
    failure mode this subsystem must never have.
    """
    header = read_header(path)
    version = header.get("version")
    if version != SNAPSHOT_VERSION:
        raise StateError(
            f"{path}: snapshot format version {version!r} does not match "
            f"this build's version {SNAPSHOT_VERSION!r}; re-run from scratch "
            f"(old snapshots cannot be migrated)"
        )
    theirs = header.get("fingerprint")
    if expected_fingerprint is not None and theirs != expected_fingerprint:
        raise StateError(
            f"{path}: config fingerprint mismatch — snapshot was written by "
            f"a run with fingerprint {theirs!r}, the restoring run has "
            f"{expected_fingerprint!r} (different EngineConfig/seed/policy/"
            f"cluster); refusing a wrong-state resume"
        )
    with open(path, "rb") as fh:
        fh.readline()  # header
        engine = pickle.load(fh)
    snapshotter = getattr(engine, "_snapshotter", None)
    if snapshotter is not None:
        snapshotter.note_restore()
    return engine


def resume_from(
    directory: os.PathLike,
    *,
    expected_fingerprint: Optional[str] = None,
) -> Optional["DatacenterSimulation"]:
    """Restore from the newest loadable snapshot in ``directory``.

    Walks newest → oldest so a snapshot torn by a concurrent crash (only
    possible outside the atomic-rename protocol, e.g. a copied partial
    file) falls back to its predecessor.  Guard failures (version or
    fingerprint mismatch) propagate — they mean "wrong run", not "bad
    file".  Returns ``None`` when the directory holds no snapshots.
    """
    for path in reversed(list_snapshots(directory)):
        try:
            read_header(path)
        except StateError:
            continue  # torn/garbage header: not a guard failure, fall back
        try:
            return load_snapshot(path, expected_fingerprint=expected_fingerprint)
        except StateError:
            raise  # version/fingerprint mismatch: wrong run, not a bad file
        except Exception:
            continue  # unreadable payload: try the previous snapshot
    return None


# ----------------------------------------------------------- snapshotter


class EngineSnapshotter:
    """Periodic checkpoint policy attached to one engine.

    Fires from the simulator's post-event hook; a snapshot is due every
    ``sim_interval_s`` simulated seconds and/or every ``wall_interval_s``
    wall seconds, whichever comes first.  The snapshotter itself is
    pickled inside the snapshot (counters and the sim-time cadence resume
    exactly — a resumed run checkpoints at the same simulated instants
    the uninterrupted run would have); only the wall-clock anchor is
    process-local and re-arms on restore.

    The simulation only pays for *serialization*: the durable half (temp
    file, fsync, atomic rename, retention) runs on a background writer
    thread while events keep processing.  At most one write is in flight
    — the next snapshot joins the previous writer before pickling, which
    both bounds extra memory to one payload and guarantees snapshots
    land on disk in order.  Crash-consistency is unchanged: a kill during
    the background write tears only the temp file; the previously renamed
    snapshot stays good, exactly as with a synchronous write.
    :meth:`flush` blocks until the in-flight write is durable (the engine
    calls it at end-of-run and before reporting a graceful interrupt).
    """

    def __init__(
        self,
        directory: os.PathLike,
        *,
        fingerprint: str,
        sim_interval_s: Optional[float] = None,
        wall_interval_s: Optional[float] = None,
        keep: int = 3,
    ) -> None:
        self.directory = str(directory)
        self.fingerprint = fingerprint
        self.sim_interval_s = sim_interval_s
        self.wall_interval_s = wall_interval_s
        self.keep = keep
        #: Operational counters (surfaced in SimulationResult; excluded
        #: from the canonical row — they legitimately differ between an
        #: interrupted-and-resumed run and an uninterrupted one).
        self.written = 0
        self.bytes_written = 0
        self.restores = 0
        self._index = 0
        self._next_sim_due = sim_interval_s if sim_interval_s is not None else None
        self._wall_anchor: Optional[float] = None
        self._writer: Optional[threading.Thread] = None
        self._writer_error: Optional[BaseException] = None

    # Process-local state: the wall anchor and the writer thread are
    # never meaningful across a pickle/restore boundary.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_wall_anchor"] = None
        state["_writer"] = None
        state["_writer_error"] = None
        return state

    def note_restore(self) -> None:
        """Called by :func:`load_snapshot` on the restored instance."""
        self.restores += 1
        self._wall_anchor = None

    def flush(self) -> None:
        """Block until the in-flight background write (if any) is durable.

        Re-raises any error the writer thread hit (disk full, permission
        loss): a snapshot the operator believes exists must exist.
        """
        writer = self._writer
        if writer is not None:
            writer.join()
            self._writer = None
        if self._writer_error is not None:
            error, self._writer_error = self._writer_error, None
            raise error

    def _persist_in_background(
        self, header: dict, payload: bytes
    ) -> None:
        try:
            _persist(header, payload, Path(self.directory),
                     header["index"], self.keep)
        except BaseException as exc:  # surfaced by the next flush()
            self._writer_error = exc

    def maybe_write(self, engine: "DatacenterSimulation") -> None:
        """Write a snapshot if either cadence says one is due."""
        due = False
        if self._next_sim_due is not None and engine.sim.now >= self._next_sim_due:
            due = True
        if not due and self.wall_interval_s is not None:
            wall = time.monotonic()
            if self._wall_anchor is None:
                self._wall_anchor = wall
            elif wall - self._wall_anchor >= self.wall_interval_s:
                due = True
        if due:
            self.write(engine)

    def write(self, engine: "DatacenterSimulation") -> Path:
        """Snapshot now; durability is handed to the background writer."""
        # One write in flight at a time: join the previous writer first
        # (also re-raises its error instead of silently dropping files).
        self.flush()
        # Advance the cadence and counters *before* pickling, so the
        # state inside the snapshot already reflects this snapshot: a
        # resumed run neither re-writes it nor double-counts it.
        now = engine.sim.now
        if self._next_sim_due is not None:
            while self._next_sim_due <= now:
                self._next_sim_due += self.sim_interval_s
        self._index += 1
        self.written += 1
        header = _build_header(engine, self._index, self.fingerprint)
        payload = pickle.dumps(engine, protocol=pickle.HIGHEST_PROTOCOL)
        self.bytes_written += len(payload)
        # Non-daemon on purpose: a normal interpreter exit waits for the
        # write to finish, so even an unflushed final snapshot is durable.
        self._writer = threading.Thread(
            target=self._persist_in_background,
            args=(header, payload),
            name=f"snapshot-writer-{self._index}",
        )
        self._writer.start()
        self._wall_anchor = time.monotonic()
        return _snapshot_path(Path(self.directory), self._index)
