"""Unit tests for the DES kernel (:mod:`repro.des.simulator`)."""

import pickle
from functools import partial

import pytest
from hypothesis import event, given, settings, strategies as st

from repro.des import Simulator
from repro.errors import SimulationError


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_clock_starts_at_custom_time(self):
        assert Simulator(start=42.0).now == 42.0

    def test_schedule_fires_at_delay(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_at_fires_at_absolute_time(self):
        sim = Simulator(start=10.0)
        fired = []
        sim.at(12.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [12.5]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_past_absolute_time_rejected(self):
        sim = Simulator(start=10.0)
        with pytest.raises(SimulationError):
            sim.at(9.0, lambda: None)

    def test_zero_delay_allowed(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.0, lambda: fired.append(True))
        sim.run()
        assert fired == [True]


class TestOrdering:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_priority_order(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("low"), priority=10)
        sim.schedule(1.0, lambda: order.append("high"), priority=0)
        sim.run()
        assert order == ["high", "low"]

    def test_simultaneous_same_priority_fire_in_insertion_order(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: order.append(i))
        sim.run()
        assert order == list(range(5))

    def test_events_scheduled_during_event_fire_later(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(0.0, lambda: order.append("nested"))

        sim.schedule(1.0, first)
        sim.schedule(1.0, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second", "nested"]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(True))
        handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_cancelled_events_not_counted_as_processed(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None).cancel()
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.events_processed == 1

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None).cancel()
        assert sim.pending == 1

    def test_cancelling_a_fired_event_leaves_it_uncancelled(self):
        """Every completed VM's handle is cancelled after it fired; that
        must neither mark it cancelled nor touch the live count."""
        sim = Simulator()
        fired = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.step() is True
        fired.cancel()
        assert fired.cancelled is False
        assert sim.pending == 1


class TestRekey:
    def test_rekeyed_event_fires_behind_a_later_tie(self):
        """A re-key draws a new sequence number: the event now fires after
        an equal-(time, priority) event pushed since, as a cancel and push
        would, and the handle stays the same live one."""
        sim = Simulator()
        order = []
        first = sim.at(1.0, partial(order.append, "first"))
        sim.at(1.0, partial(order.append, "second"))
        assert sim.rekey(first, 1.0) is True
        assert first.live and not first.cancelled
        assert sim.pending == 2
        sim.run()
        assert order == ["second", "first"]
        assert not first.live

    def test_rekey_refuses_a_moved_or_dead_event(self):
        sim = Simulator()
        handle = sim.at(1.0, lambda: None)
        assert sim.rekey(handle, 2.0) is False
        assert sim.rekey(Simulator().at(1.0, lambda: None), 1.0) is False
        handle.cancel()
        assert sim.rekey(handle, 1.0) is False
        fired = sim.at(1.5, lambda: None)
        assert sim.step()
        assert sim.rekey(fired, 1.5) is False
        assert sim.pending == 0

    def test_step_moves_a_stale_entry_before_firing(self):
        sim = Simulator()
        order = []
        handles = [sim.at(1.0, partial(order.append, i)) for i in range(3)]
        sim.rekey(handles[0], 1.0)
        sim.rekey(handles[1], 1.0)
        while sim.step():
            pass
        assert order == [2, 0, 1]
        assert sim.events_processed == 3

    def test_compaction_writes_current_keys(self):
        sim = Simulator()
        handles = [sim.at(1.0, lambda: None) for _ in range(4)]
        sim.rekey(handles[0], 1.0)
        handles[1].cancel()
        sim._compact()
        assert all(entry[2] == entry[3].seq for entry in sim._heap)
        assert [h.live for h in handles] == [True, False, True, True]


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0  # a later event exists: clock closes at horizon

    def test_run_clock_stays_at_last_event_when_queue_drains(self):
        sim = Simulator()
        sim.schedule(3.0, lambda: None)
        sim.run(until=100.0)
        assert sim.now == 3.0

    def test_run_until_resumable(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        sim.run()
        assert fired == [1, 10]

    def test_max_events_bounds_execution(self):
        sim = Simulator()

        def reschedule():
            sim.schedule(1.0, reschedule)

        sim.schedule(1.0, reschedule)
        sim.run(max_events=100)
        assert sim.events_processed == 100

    def test_stop_requests_halt(self):
        sim = Simulator()
        fired = []

        def stopping():
            fired.append(sim.now)
            sim.stop()

        sim.schedule(1.0, stopping)
        sim.schedule(2.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.0]

    def test_step_returns_false_on_empty_queue(self):
        assert Simulator().step() is False

    def test_step_fires_one_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        assert sim.step() is True
        assert fired == [1]

    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def nested():
            sim.run()

        sim.schedule(1.0, nested)
        with pytest.raises(SimulationError):
            sim.run()

    def test_drain_advances_through_checkpoints(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(sim.now))
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.drain([2.0, 6.0])
        assert seen == [1.0, 5.0]


# ------------------------------------------------ random interleavings


class _Log:
    """Picklable callbacks: each fired event appends ``(tag, now)``.

    Tags divisible by 3 schedule a follow-up and tags divisible by 5
    cancel the oldest handle still held, so a run resumed from a pickle
    has to reproduce work scheduled and cancelled by callbacks too.
    """

    def __init__(self, sim):
        self.sim = sim
        self.fired = []
        self.handles = []
        self.next_tag = 10_000

    def fire(self, tag):
        sim = self.sim
        self.fired.append((tag, sim.now))
        if tag % 3 == 0:
            follow = self.next_tag
            self.next_tag += 1
            self.handles.append(
                sim.at(sim.now + tag % 7, partial(self.fire, follow),
                       priority=tag % 2)
            )
        if tag % 5 == 0 and self.handles:
            self.handles.pop(0).cancel()


_delay = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5])
_priority = st.integers(min_value=-1, max_value=1)
_op = st.one_of(
    st.tuples(st.just("at"), _delay, _priority),
    st.tuples(st.just("schedule"), _delay, _priority),
    st.tuples(st.just("at_many"), st.lists(_delay, max_size=40), _priority),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10**6)),
    st.tuples(st.just("cancel_run"), st.integers(min_value=0, max_value=10**6),
              st.integers(min_value=1, max_value=40)),
    st.tuples(st.just("step")),
)


class _Model:
    """Drives a simulator through ``ops`` next to a reference model of
    the live events: ``{seq: (time, priority)}``."""

    def __init__(self):
        self.sim = Simulator()
        self.live = {}
        self.handles = []
        self.fired = []
        self.seq = 0
        self.compactions = 0
        # A low floor makes short interleavings compact often; the floor
        # only tunes when compaction pays, never what fires.
        self.sim._COMPACT_FLOOR = 8
        compact = self.sim._compact

        def counting_compact():
            self.compactions += 1
            compact()

        self.sim._compact = counting_compact

    def _push(self, time, priority):
        self.live[self.seq] = (time, priority)
        self.seq += 1

    def _record(self, seq):
        self.fired.append((seq, self.sim.now))

    def apply(self, op):
        sim = self.sim
        kind = op[0]
        if kind in ("at", "schedule"):
            _, delay, priority = op
            cb = partial(self._record, self.seq)
            if kind == "at":
                handle = sim.at(sim.now + delay, cb, priority=priority)
            else:
                handle = sim.schedule(delay, cb, priority=priority)
            self.handles.append((self.seq, handle))
            self._push(sim.now + delay, priority)
        elif kind == "at_many":
            _, delays, priority = op
            first = self.seq
            handles = sim.at_many(
                [sim.now + d for d in delays],
                [partial(self._record, first + i) for i in range(len(delays))],
                priority=priority,
            )
            for d, handle in zip(delays, handles):
                self.handles.append((self.seq, handle))
                self._push(sim.now + d, priority)
        elif kind in ("cancel", "cancel_run") and self.handles:
            start = op[1] % len(self.handles)
            count = op[2] if kind == "cancel_run" else 1
            fired = {seq for seq, _ in self.fired}
            for seq, handle in self.handles[start:start + count]:
                was_live = seq in self.live
                handle.cancel()
                self.live.pop(seq, None)
                if was_live:
                    assert handle.cancelled
                elif seq in fired:
                    assert not handle.cancelled
        elif kind == "step":
            self._expect_fire(sim.step())
        assert sim.pending == len(self.live)

    def _expect_fire(self, fired):
        assert fired is bool(self.live)
        if not fired:
            return
        seq = min(self.live, key=lambda s: (*self.live[s], s))
        time, _ = self.live.pop(seq)
        assert self.fired[-1] == (seq, time)


class TestRandomInterleavings:
    @settings(max_examples=120, deadline=None)
    @given(ops=st.lists(_op, min_size=10, max_size=80))
    def test_fire_in_time_priority_seq_order_with_exact_pending(self, ops):
        model = _Model()
        for op in ops:
            model.apply(op)
        event(f"compacted: {model.compactions > 0}")
        expected = sorted(model.live, key=lambda s: (*model.live[s], s))
        already = len(model.fired)
        model.sim.run()
        assert model.fired[already:] == [
            (s, model.live[s][0]) for s in expected
        ]
        assert model.sim.pending == 0

    def test_interleavings_reach_compaction(self):
        """The property's op mix is large enough to trigger compaction;
        pinned here on one fixed interleaving."""
        model = _Model()
        model.apply(("at_many", [1.0] * 40 + [2.0] * 40, 0))
        model.apply(("cancel_run", 0, 40))
        model.apply(("cancel_run", 40, 10))
        assert model.compactions >= 1
        assert model.sim.pending == 30
        expected = sorted(model.live, key=lambda s: (*model.live[s], s))
        model.sim.run()
        assert [seq for seq, _ in model.fired] == expected

    def test_compaction_inside_a_running_loop(self):
        """A callback that cancels most of the heap compacts it while
        :meth:`Simulator.run` is popping; what the callback schedules
        afterwards still fires, in order."""
        sim = Simulator()
        fired = []
        handles = [
            sim.at(2.0 + i, partial(fired.append, i)) for i in range(100)
        ]
        compactions = []
        compact = sim._compact
        sim._compact = lambda: (compactions.append(sim.now), compact())

        def purge():
            for handle in handles[:80]:
                handle.cancel()
            sim.at(1.5, partial(fired.append, "late"))

        sim.at(1.0, purge)
        sim.run()
        assert compactions == [1.0]
        assert fired == ["late"] + list(range(80, 100))
        assert sim.pending == 0

    @settings(max_examples=60, deadline=None)
    @given(
        plan=st.lists(st.tuples(_delay, _priority), min_size=1, max_size=40),
        cancelled=st.integers(min_value=0, max_value=5),
        cut=st.integers(min_value=0, max_value=60),
    )
    def test_pickled_mid_run_resumes_identical_fired_sequence(
        self, plan, cancelled, cut
    ):
        sim = Simulator()
        log = _Log(sim)
        for tag, (delay, priority) in enumerate(plan):
            log.handles.append(
                sim.schedule(delay, partial(log.fire, tag), priority=priority)
            )
        for handle in log.handles[:cancelled]:
            handle.cancel()
        sim.run(max_events=cut)
        clone_sim, clone_log = pickle.loads(pickle.dumps((sim, log)))
        assert clone_sim.pending == sim.pending
        sim.run()
        clone_sim.run()
        assert clone_log.fired == log.fired
        assert clone_sim.now == sim.now
        assert clone_sim.events_processed == sim.events_processed
        assert clone_sim.pending == sim.pending == 0


# ------------------------------------------- re-key against cancel-and-push


class _Script:
    """One simulator driven through a schedule/cancel/reschedule script.

    A reschedule re-keys the event in place when it is live at the new
    time (``rekey=True``), or always cancels it and pushes a new one (the
    reference).  Tags ``≡ 3 (mod 4)`` reschedule tag ``- 1`` to its own
    time when they fire, so re-keys also happen inside a running loop.
    Picklable, so a script can continue from a round trip.
    """

    def __init__(self, rekey):
        self.sim = Simulator()
        self.sim._COMPACT_FLOOR = 8
        self.rekey = rekey
        self.handles = []
        self.priorities = []
        self.fired = []
        self.rekeys = 0
        self.compactions = 0

    def fire(self, tag):
        self.fired.append((tag, self.sim.now))
        if tag % 4 == 3:
            self.reschedule(tag - 1, None)

    def add(self, time, priority):
        tag = len(self.handles)
        self.handles.append(
            self.sim.at(time, partial(self.fire, tag), priority=priority)
        )
        self.priorities.append(priority)

    def reschedule(self, tag, time):
        """Move ``tag`` to ``time`` (``None``: its own time, or now)."""
        sim = self.sim
        handle = self.handles[tag]
        if time is None:
            time = max(handle.time, sim.now)
        if self.rekey and sim.rekey(handle, time):
            self.rekeys += 1
            return
        handle.cancel()
        self.handles[tag] = sim.at(
            time, partial(self.fire, tag), priority=self.priorities[tag]
        )

    def apply(self, op):
        sim = self.sim
        kind = op[0]
        heap = len(sim._heap)
        if kind == "at":
            for _ in range(op[3]):
                self.add(sim.now + op[1], op[2])
        elif kind in ("cancel", "same", "move") and self.handles:
            start = op[1] % len(self.handles)
            for tag in range(start, min(start + op[2], len(self.handles))):
                if kind == "cancel":
                    self.handles[tag].cancel()
                else:
                    self.reschedule(tag, sim.now + op[3] if kind == "move" else None)
            # Outside the loop, only a compaction shrinks the heap.
            self.compactions += len(sim._heap) < heap
        elif kind == "step":
            sim.step()
        elif kind == "until":
            sim.run(until=sim.now + op[1])


_tag = st.integers(min_value=0, max_value=10**6)
_run = st.integers(min_value=1, max_value=12)
#: ``("at", delay, priority, count)``; ``(kind, first tag, count[, delay])``
#: for a run of consecutive tags; ``("step",)``, ``("until", delay)``,
#: ``("pickle",)``.
_script_op = st.one_of(
    st.tuples(st.just("at"), _delay, _priority, _run),
    st.tuples(st.just("cancel"), _tag, _run),
    st.tuples(st.just("same"), _tag, _run),
    st.tuples(st.just("move"), _tag, _run, _delay),
    st.tuples(st.just("step")),
    st.tuples(st.just("until"), _delay),
    st.tuples(st.just("pickle")),
)


class TestRekeyDifferential:
    @settings(max_examples=200, deadline=None)
    @given(ops=st.lists(_script_op, min_size=10, max_size=120))
    def test_fires_exactly_as_cancel_and_push(self, ops):
        """Random scripts with equal-(time, priority) ties, reschedules to
        the same and to another time, ``step``, ``run(until=)``,
        compaction and a pickle round trip: the re-keying simulator fires
        the reference's sequence, with the same live count throughout."""
        mine, ref = _Script(rekey=True), _Script(rekey=False)
        for op in ops:
            if op[0] == "pickle":
                rekeys = mine.rekeys
                mine = pickle.loads(pickle.dumps(mine))
                ref = pickle.loads(pickle.dumps(ref))
                assert mine.rekeys == rekeys
            else:
                mine.apply(op)
                ref.apply(op)
            assert mine.sim.pending == ref.sim.pending
            assert mine.fired == ref.fired
            assert mine.sim.now == ref.sim.now
        event(f"re-keyed: {mine.rekeys > 0}")
        event(f"compacted: {mine.compactions > 0}")
        mine.sim.run()
        ref.sim.run()
        assert mine.fired == ref.fired
        assert mine.sim.events_processed == ref.sim.events_processed
        assert mine.sim.pending == ref.sim.pending == 0

    def test_script_reaches_rekeys_compaction_and_pickle(self):
        """One fixed script pins what the property's mix reaches: re-keys
        of stale entries at the heap top, a compaction while entries are
        stale, and a pickle round trip in between."""
        mine, ref = _Script(rekey=True), _Script(rekey=False)
        for op in [("at", 1.0, 0, 12), ("same", 0, 12), ("cancel", 5, 7)]:
            mine.apply(op)
            ref.apply(op)
        assert mine.rekeys == 12 and mine.compactions == 1
        mine = pickle.loads(pickle.dumps(mine))
        for op in [("at", 0.5, 0, 1), ("same", 12, 1), ("step",), ("until", 1.0)]:
            mine.apply(op)
            ref.apply(op)
        mine.sim.run()
        ref.sim.run()
        assert mine.fired == ref.fired
        assert [tag for tag, _ in mine.fired[:3]] == [12, 0, 1]
