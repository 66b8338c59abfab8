"""The discrete-event simulation loop.

:class:`Simulator` owns the virtual clock and the event heap.  Components
schedule callbacks with :meth:`Simulator.schedule` / :meth:`Simulator.at`
and the loop advances time by popping the earliest event.  There is no
time-stepping anywhere in the library: between events the world is
piecewise-constant (CPU shares, power draw), which lets a week of datacenter
operation simulate in seconds (see DESIGN.md §7 — "algorithmic optimization
first", per the HPC coding guides).
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.des.event import Event, EventHandle
from repro.errors import SimulationError

__all__ = ["Simulator"]

#: A heap entry: ``(time, priority, seq, event)``.  ``seq`` is unique, so
#: tuple comparison never reaches the event.  After a re-key the entry's
#: ``seq`` is behind ``event.seq`` until the entry is moved (see
#: :meth:`Simulator.rekey`).
Entry = Tuple[float, int, int, Event]


class Simulator:
    """Event-driven simulation kernel with a monotonic virtual clock.

    Parameters
    ----------
    start:
        Initial simulation time (seconds). Defaults to ``0.0``.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [5.0]
    """

    #: Compaction only kicks in above this heap size; below it the O(n)
    #: rebuild costs more than just letting tombstones surface naturally.
    _COMPACT_FLOOR = 64

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._heap: List[Entry] = []
        self._seq = itertools.count()
        self._events_processed = 0
        self._running = False
        self._stop_requested = False
        self._live = 0
        self._tombstones = 0
        #: Optional hook fired after every processed event, at the
        #: inter-event boundary where no callback is mid-flight — the only
        #: instant at which the world state is fully self-consistent and
        #: safe to snapshot.  The hook must not schedule events (it runs
        #: outside the event vocabulary on purpose: enabling it leaves
        #: ``events_processed`` and every event sequence bit-identical).
        self.post_event: Optional[Callable[[], None]] = None

    # -------------------------------------------------------------- pickling

    def __getstate__(self) -> dict:
        """Engine snapshots pickle the simulator mid-run.

        The transient loop flags are reset so the restored kernel is
        immediately runnable: ``_running`` is True while :meth:`run` owns
        the loop (the reentrance guard would otherwise brick the restored
        copy), and a pending stop request belongs to the interrupted
        process, not the resumed one.
        """
        state = self.__dict__.copy()
        state["_running"] = False
        state["_stop_requested"] = False
        return state

    # ------------------------------------------------------------------ time

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events fired so far (cancelled events excluded)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still in the queue (O(1))."""
        return self._live

    def live_events(self) -> Iterator[EventHandle]:
        """Handles to every live event, in heap order (O(heap): oracles)."""
        return (EventHandle(entry[3]) for entry in self._heap if entry[3].owner is self)

    @property
    def stop_requested(self) -> bool:
        """True once :meth:`stop` was called during the running loop."""
        return self._stop_requested

    # ------------------------------------------------------- heap accounting

    def _note_cancelled(self, event: Event) -> None:
        """Called by :meth:`EventHandle.cancel` for events still in the heap.

        Keeps the live counter exact and compacts the heap once cancelled
        tombstones outnumber live events — without this, workloads that
        cancel and reschedule the same logical event (completion handles
        whose time moved with a share change) grow the heap without bound.
        A reschedule to the same time is a :meth:`rekey` and leaves no
        tombstone.
        """
        self._live -= 1
        self._tombstones += 1
        if (
            self._tombstones * 2 > len(self._heap)
            and len(self._heap) >= self._COMPACT_FLOOR
        ):
            self._compact()

    def _compact(self) -> None:
        # Order-preserving: (time, priority, seq) is a unique total order,
        # so heapify of the filtered list pops in the same sequence.  Every
        # entry is rewritten with its event's current seq, so re-keyed
        # entries leave compaction up to date.  In place, because
        # :meth:`run` holds the list while callbacks cancel.
        heap = self._heap
        heap[:] = [
            (time, priority, event.seq, event)
            for time, priority, _, event in heap
            if not event.cancelled
        ]
        heapq.heapify(heap)
        self._tombstones = 0

    # ------------------------------------------------------------- scheduling

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback`` to fire ``delay`` seconds from now.

        ``delay`` must be finite and non-negative.  ``priority`` breaks ties
        among simultaneous events (lower fires first); insertion order breaks
        the remaining ties, so the kernel is fully deterministic.
        """
        if not math.isfinite(delay):
            raise SimulationError(f"delay must be finite (got {delay})")
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.at(self._now + delay, callback, priority=priority, label=label)

    def at(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback`` at absolute simulation ``time``.

        ``time`` must be finite: a NaN time compares False against
        everything and would silently corrupt heap order.
        """
        if not math.isfinite(time):
            raise SimulationError(f"event time must be finite (got {time})")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        time = float(time)
        seq = next(self._seq)
        event = Event(time, callback, label, self, seq)
        heapq.heappush(self._heap, (time, int(priority), seq, event))
        self._live += 1
        return EventHandle(event)

    def rekey(self, handle: EventHandle, time: float) -> bool:
        """Cancel-and-push ``handle``'s event at ``time``, in place.

        When the event is live in this heap at exactly ``time``, it takes
        the next sequence number — the one a cancel followed by
        :meth:`at` with its own priority would draw — and the handle stays
        valid; returns ``True``.  The heap is not touched: the event's
        entry is moved to its new key when it surfaces (:meth:`run`) or
        when the heap compacts.  Otherwise nothing
        changes and ``False`` is returned, so the caller cancels and
        pushes.  O(1), and no tombstone.
        """
        event = handle._event
        if event.owner is not self or event.time != time:
            return False
        event.seq = next(self._seq)
        return True

    def at_many(
        self,
        times: Sequence[float],
        callbacks: Sequence[Callable[[], None]],
        *,
        labels: Optional[Sequence[str]] = None,
        priority: int = 0,
    ) -> List[EventHandle]:
        """Schedule a batch of events in one heap operation.

        Events receive consecutive sequence numbers in argument order —
        exactly the total order that per-item :meth:`at` calls would
        produce, so the fired event sequence (and therefore every
        downstream result) is identical either way.  For batches that are
        large relative to the live heap, the per-item ``heappush`` calls
        (``O(k log H)``) are replaced by one extend-and-heapify pass over
        the heap (``O(H + k)``); heapify of the same event set preserves
        pop order because ``(time, priority, seq)`` is a unique total
        order.  The engine's completion sweep no longer calls it (it
        re-keys most handles, see :meth:`rekey`); ``perfbench/ledger.py``
        still times it as a DES entry point.
        """
        if len(times) != len(callbacks):
            raise SimulationError("times and callbacks must match in length")
        if labels is not None and len(labels) != len(times):
            raise SimulationError("labels must match times in length")
        priority = int(priority)
        seq = self._seq
        entries: List[Entry] = []
        for i, time in enumerate(times):
            time = float(time)
            if not math.isfinite(time):
                raise SimulationError(f"event time must be finite (got {time})")
            if time < self._now:
                raise SimulationError(
                    f"cannot schedule at t={time} before current time t={self._now}"
                )
            n = next(seq)
            event = Event(
                time, callbacks[i], labels[i] if labels is not None else "", self, n
            )
            entries.append((time, priority, n, event))
        heap = self._heap
        if len(entries) >= 8 and len(entries) * 4 >= len(heap):
            heap.extend(entries)
            heapq.heapify(heap)
        else:
            for entry in entries:
                heapq.heappush(heap, entry)
        self._live += len(entries)
        return [EventHandle(entry[3]) for entry in entries]

    # ------------------------------------------------------------------- run

    def stop(self) -> None:
        """Request the running loop to stop after the current event.

        Used by the engine when the last job completes: remaining periodic
        ticks (SLA checks, failure clocks) must not keep an empty
        datacenter simulating to the horizon.
        """
        self._stop_requested = True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time.  The clock is only
            advanced to ``until`` when some event actually lies beyond it
            (i.e. the simulated world keeps existing); if the event queue
            simply drains, the clock stays at the last event so
            time-weighted monitors close at the true end of activity.
        max_events:
            Safety valve for tests: abort after this many events.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._stop_requested = False
        budget = max_events if max_events is not None else float("inf")
        heap = self._heap
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        try:
            while heap and budget > 0 and not self._stop_requested:
                entry = heap[0]
                event = entry[3]
                if event.cancelled:
                    heappop(heap)
                    self._tombstones -= 1
                    continue
                if entry[2] != event.seq:
                    # Re-keyed: its current key is larger, so move it and
                    # look at the top again.
                    heapreplace(heap, (entry[0], entry[1], event.seq, event))
                    continue
                if until is not None and entry[0] > until:
                    # The world continues past the horizon: close at it.
                    self._now = float(until)
                    break
                heappop(heap)
                self._live -= 1
                event.owner = None
                self._now = event.time
                self._events_processed += 1
                event.callback()
                if self.post_event is not None:
                    self.post_event()
                budget -= 1
        finally:
            self._running = False

