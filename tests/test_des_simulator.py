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
