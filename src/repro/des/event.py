"""Event records for the DES kernel.

An :class:`Event` couples a firing time with a zero-argument callback.
The simulator's heap holds ``(time, priority, seq, event)`` tuples, so
simultaneous events fire lower ``priority`` first, then in insertion
order; ``seq`` is unique, so tuple comparison never reaches the event,
which has no ordering of its own.  Determinism of tie-breaking matters —
the score-based scheduler reacts to *every* system change, so two runs
of the same seed must observe changes in the same order to produce
identical schedules.

Cancellation is handled with a tombstone flag rather than heap surgery
(:class:`EventHandle.cancel` is O(1); the simulator skips dead events when
they surface), the standard idiom for heap-based simulators.  Each event
carries a back-reference to its owning simulator so cancellation can be
*accounted for* in O(1) too — the simulator keeps a live-event counter and
compacts the heap when tombstones dominate, instead of scanning the heap
on every ``pending`` query.

Cancelling an event and pushing it again at the same time and priority
has a cheaper equal: a *re-key* (:meth:`Simulator.rekey`).  The event
keeps its place in the heap and only takes the next sequence number into
:attr:`Event.seq`; its heap entry goes stale.  Keys only ever grow, so a
stale entry surfaces no later than its current key says, and the
simulator moves it to that key when it reaches the top of the heap (and
when it compacts) — the fired order is the cancel-and-push order.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

__all__ = ["Event", "EventHandle"]


class Event:
    """A scheduled callback; its heap entry carries the order key."""

    __slots__ = ("time", "callback", "label", "cancelled", "owner", "seq")

    def __init__(self, time: float, callback: Callable[[], None], label: str = "",
                 owner: Optional[Any] = None, seq: int = 0) -> None:
        self.time = time
        self.callback = callback
        self.label = label
        self.cancelled = False
        #: Owning simulator while the event sits live in its heap; cleared when
        #: the event fires or is cancelled, so notifications fire exactly once.
        self.owner = owner
        #: Current sequence number; ahead of the heap entry's after a re-key.
        self.seq = seq

    # Snapshots pickle every event in the heap: a plain tuple state is
    # smaller and faster to write than the per-slot dict of the default.
    def __getstate__(self) -> tuple:
        return (self.time, self.callback, self.label, self.cancelled, self.owner,
                self.seq)

    def __setstate__(self, state: tuple) -> None:
        (self.time, self.callback, self.label, self.cancelled, self.owner,
         self.seq) = state


class EventHandle:
    """A caller-facing handle to a scheduled event.

    Holding a handle allows the owner to :meth:`cancel` the event (for
    instance, a VM-completion event that must be re-scheduled because the
    VM's CPU share changed) and to query whether it is still pending.
    """

    __slots__ = ("_event",)

    def __init__(self, event: Event) -> None:
        self._event = event

    @property
    def time(self) -> float:
        """The simulation time at which the event will fire."""
        return self._event.time

    @property
    def label(self) -> str:
        """Human-readable label used in traces and error messages."""
        return self._event.label

    @property
    def cancelled(self) -> bool:
        """Whether the event was cancelled before it fired."""
        return self._event.cancelled

    @property
    def live(self) -> bool:
        """Whether the event is still waiting in its simulator's heap."""
        return self._event.owner is not None

    def cancel(self) -> None:
        """Cancel the event; a no-op if it already fired or was cancelled."""
        event = self._event
        owner = event.owner
        if owner is None:
            return
        event.cancelled = True
        event.owner = None
        owner._note_cancelled(event)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.3f}, {self.label!r}, {state})"
