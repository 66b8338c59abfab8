"""Tests for event tracing and decision explanation."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.host import Host, HostState
from repro.cluster.spec import FAST, SLOW, ClusterSpec, HostSpec
from repro.cluster.vm import Vm, VmState
from repro.engine.config import EngineConfig
from repro.engine.datacenter import DatacenterSimulation
from repro.engine.tracing import EventTrace, TraceEventKind
from repro.scheduling.baselines import BackfillingPolicy
from repro.scheduling.score import ScoreConfig
from repro.scheduling.score.explain import explain_cell, explain_decision
from repro.scheduling.score.policy import ScoreBasedPolicy
from repro.units import HOUR
from repro.workload.job import Job
from repro.workload.synthetic import Grid5000WeekGenerator, SyntheticConfig
from repro.workload.trace import Trace


class TestEventTrace:
    def test_emit_and_query(self):
        log = EventTrace()
        log.emit(1.0, TraceEventKind.PLACEMENT, vm_id=1, host_id=2)
        log.emit(2.0, TraceEventKind.COMPLETION, vm_id=1, host_id=2)
        log.emit(3.0, TraceEventKind.BOOT_START, host_id=5)
        assert len(log) == 3
        assert len(log.for_vm(1)) == 2
        assert len(log.for_host(5)) == 1
        assert len(log.of_kind(TraceEventKind.PLACEMENT)) == 1

    def test_capacity_drops_fifo(self):
        log = EventTrace(capacity=3)
        for i in range(5):
            log.emit(float(i), TraceEventKind.PLACEMENT, vm_id=i)
        assert len(log) == 3
        assert log.dropped == 2
        assert log.records[0].vm_id == 2  # oldest two dropped

    def test_counts(self):
        log = EventTrace()
        log.emit(0.0, TraceEventKind.PLACEMENT)
        log.emit(1.0, TraceEventKind.PLACEMENT)
        assert log.counts() == {"placement": 2}

    def test_story_renders(self):
        log = EventTrace()
        log.emit(1.0, TraceEventKind.PLACEMENT, vm_id=7, host_id=0)
        assert "vm=7" in log.story(7)
        assert "no records" in log.story(99)


class TestEngineTracing:
    def _run(self):
        trace = Grid5000WeekGenerator(
            SyntheticConfig(horizon_s=4 * HOUR, base_rate_per_hour=30.0,
                            night_fraction=0.6), seed=5
        ).generate()
        engine = DatacenterSimulation(
            cluster=ClusterSpec.homogeneous(8),
            policy=ScoreBasedPolicy(ScoreConfig.sb()),
            trace=trace,
            config=EngineConfig(seed=5, trace_events=True),
        )
        engine.run()
        return engine

    def test_trace_collects_lifecycle(self):
        engine = self._run()
        log = engine.trace_log
        counts = log.counts()
        assert counts["job_arrival"] == len(engine.trace)
        assert counts["placement"] >= len(engine.trace)  # re-creations possible
        assert counts["completion"] == len(engine.trace)
        assert counts.get("creation_done", 0) >= counts["completion"]

    def test_vm_story_is_ordered(self):
        engine = self._run()
        vm_id = next(iter(engine.vms))
        records = engine.trace_log.for_vm(vm_id)
        times = [r.time for r in records]
        assert times == sorted(times)
        kinds = [r.kind for r in records]
        assert kinds[0] is TraceEventKind.JOB_ARRIVAL
        assert kinds[-1] is TraceEventKind.COMPLETION

    def test_tracing_off_by_default(self):
        trace = Trace([Job(job_id=1, submit_time=0.0, runtime_s=60.0,
                           cpu_pct=100.0, mem_mb=256.0)])
        engine = DatacenterSimulation(
            cluster=ClusterSpec.homogeneous(2),
            policy=BackfillingPolicy(),
            trace=trace,
            config=EngineConfig(seed=1),
        )
        engine.run()
        assert engine.trace_log is None


def make_vm(vm_id=1, cpu=100.0, runtime=3600.0):
    job = Job(job_id=vm_id, submit_time=0.0, runtime_s=runtime,
              cpu_pct=cpu, mem_mb=512.0)
    return Vm(job)


class TestExplain:
    def test_cell_matches_matrix_total(self):
        from repro.scheduling.score.matrix import ScoreMatrixBuilder
        host = Host(HostSpec(host_id=0), initial_state=HostState.ON)
        vm = make_vm(1)
        config = ScoreConfig.sb()
        cell = explain_cell(host, vm, 0.0, config)
        builder = ScoreMatrixBuilder([host], [vm], 0.0, config)
        assert cell.total == pytest.approx(builder.scores[0, 0])

    def test_learned_reliability_cell_matches_matrix(self):
        """P_fault priced from a learned reliability, not the spec F_rel."""
        from repro.scheduling.score.matrix import ScoreMatrixBuilder
        hosts = [Host(HostSpec(host_id=i), initial_state=HostState.ON)
                 for i in range(2)]
        vm = make_vm(1)
        config = ScoreConfig.full()
        learned = [0.35, 0.9]
        builder = ScoreMatrixBuilder(hosts, [vm], 0.0, config,
                                     fulfillments={vm.vm_id: 1.0},
                                     reliability=learned)
        for i, host in enumerate(hosts):
            cell = explain_cell(host, vm, 0.0, config, reliability=learned[i])
            static = explain_cell(host, vm, 0.0, config)
            assert cell.total == builder.scores[i, 0]
            assert cell.p_fault == ((1.0 - learned[i]) - 0.0) * config.c_fail
            assert cell.p_fault != static.p_fault

    def test_infeasible_cell_reported(self):
        host = Host(HostSpec(host_id=0), initial_state=HostState.OFF)
        cell = explain_cell(host, make_vm(1), 0.0)
        assert not cell.feasible
        assert "infeasible" in str(cell)

    def test_breakdown_components_sum(self):
        host = Host(HostSpec(host_id=0, node_class=SLOW), initial_state=HostState.ON)
        cell = explain_cell(host, make_vm(1), 0.0, ScoreConfig.sb())
        assert sum(cell.breakdown().values()) == pytest.approx(cell.total)

    def test_decision_ranks_fast_creation_first(self):
        fast = Host(HostSpec(host_id=0, node_class=FAST), initial_state=HostState.ON)
        slow = Host(HostSpec(host_id=1, node_class=SLOW), initial_state=HostState.ON)
        config = ScoreConfig(enable_virt=True, enable_conc=False, enable_pwr=False)
        decision = explain_decision([slow, fast], make_vm(1), 0.0, config)
        assert decision.best.host_id == fast.host_id
        assert "vm 1" in str(decision)

    def test_no_feasible_host_best_is_none(self):
        off = Host(HostSpec(host_id=0), initial_state=HostState.OFF)
        decision = explain_decision([off], make_vm(1), 0.0)
        assert decision.best is None


class TestTraceDurability:
    """The journaling satellites: drop accounting and torn-tail reads."""

    def test_counts_reports_drops(self):
        log = EventTrace(capacity=2)
        for i in range(5):
            log.emit(float(i), TraceEventKind.PLACEMENT, vm_id=i)
        assert log.counts()["dropped_records"] == 3

    def test_counts_silent_without_drops(self):
        log = EventTrace(capacity=10)
        log.emit(0.0, TraceEventKind.PLACEMENT)
        assert "dropped_records" not in log.counts()

    def test_unbounded_capacity_never_drops(self):
        log = EventTrace(capacity=None)
        for i in range(200_001):
            log.emit(float(i), TraceEventKind.PLACEMENT)
        assert len(log) == 200_001
        assert log.dropped == 0
        assert "dropped_records" not in log.counts()

    def test_capacity_zero_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            EngineConfig(trace_capacity=0)

    def test_write_jsonl_warns_on_drops(self, tmp_path):
        log = EventTrace(capacity=2)
        for i in range(4):
            log.emit(float(i), TraceEventKind.PLACEMENT, vm_id=i)
        path = tmp_path / "trace.jsonl"
        with pytest.warns(RuntimeWarning, match="dropped 2 records"):
            n = log.write_jsonl(str(path))
        assert n == 2

    def test_full_bounded_trace_keeps_the_newest_and_counts_drops(self):
        capacity, k = 50, 17
        log = EventTrace(capacity=capacity)
        for i in range(capacity + k):
            log.emit(float(i), TraceEventKind.PLACEMENT, vm_id=i)
        assert [r.vm_id for r in log.records] == list(range(k, capacity + k))
        assert log.dropped == k
        assert log.counts()["dropped_records"] == k

    def test_full_bounded_emit_is_constant_time(self):
        """Dropping the oldest record must not move the retained ones: an
        emit into a full 100k trace costs what one into a small one does."""
        import time

        def per_emit(capacity):
            log = EventTrace(capacity=capacity)
            for i in range(capacity):
                log.emit(float(i), TraceEventKind.PLACEMENT)
            n = 2000
            start = time.perf_counter()
            for i in range(n):
                log.emit(float(i), TraceEventKind.PLACEMENT)
            return (time.perf_counter() - start) / n

        small = min(per_emit(100) for _ in range(3))
        full = min(per_emit(100_000) for _ in range(3))
        assert full < 5 * small

    @pytest.mark.parametrize("capacity", [None, 5, 40])
    def test_pickle_round_trip(self, capacity):
        import pickle

        log = EventTrace(capacity=capacity)
        for i in range(12):
            log.emit(float(i), TraceEventKind.PLACEMENT, vm_id=i,
                     host_id=i % 3, detail=f"d{i}")
        back = pickle.loads(pickle.dumps(log, protocol=pickle.HIGHEST_PROTOCOL))
        assert back.records == log.records
        assert back.capacity == log.capacity
        assert back.dropped == log.dropped == max(0, 12 - (capacity or 12))
        assert back.counts() == log.counts()
        # The restored trace keeps its bound and drop accounting going.
        for log_ in (log, back):
            log_.emit(99.0, TraceEventKind.COMPLETION, vm_id=99)
        assert back.records == log.records
        assert back.dropped == log.dropped

    def test_write_jsonl_silent_without_drops(self, tmp_path):
        import warnings

        log = EventTrace(capacity=10)
        log.emit(0.0, TraceEventKind.PLACEMENT, vm_id=1)
        path = tmp_path / "trace.jsonl"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log.write_jsonl(str(path))


class TestReadJsonl:
    """The loader satellite: round trips and crash-torn tails."""

    @staticmethod
    def _sample_log():
        log = EventTrace()
        log.emit(1.0, TraceEventKind.PLACEMENT, vm_id=1, host_id=2,
                 detail="first")
        log.emit(2.5, TraceEventKind.MIGRATION_START, vm_id=1, host_id=3)
        log.emit(4.0, TraceEventKind.COMPLETION, vm_id=1, host_id=3)
        return log

    def test_round_trip(self, tmp_path):
        from repro.engine.tracing import read_jsonl

        log = self._sample_log()
        path = tmp_path / "trace.jsonl"
        log.write_jsonl(str(path))
        loaded = read_jsonl(str(path))
        assert [
            (r.time, r.kind, r.vm_id, r.host_id, r.detail) for r in loaded
        ] == [
            (r.time, r.kind, r.vm_id, r.host_id, r.detail)
            for r in log.records
        ]

    def test_torn_tail_skipped_with_warning(self, tmp_path):
        from repro.engine.tracing import read_jsonl

        log = self._sample_log()
        path = tmp_path / "trace.jsonl"
        log.write_jsonl(str(path))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"time": 9.0, "kind": "comp')  # SIGKILL mid-write
        with pytest.warns(RuntimeWarning, match="skipping corrupt"):
            loaded = read_jsonl(str(path))
        assert len(loaded) == 3

    def test_corrupt_middle_line_raises(self, tmp_path):
        from repro.engine.tracing import read_jsonl
        from repro.errors import StateError

        path = tmp_path / "trace.jsonl"
        good = '{"time": 1.0, "kind": "placement", "vm_id": null, "host_id": null, "detail": ""}'
        bad = '{"time": 2.0, "kind": "no_such_kind", "vm_id": null, "host_id": null, "detail": ""}'
        for middle in (bad.encode(), b'{"time": 2.0, "ki', b"\xff\xfe"):
            path.write_bytes(b"\n".join([good.encode(), middle, good.encode(), b""]))
            with pytest.raises(StateError, match=r"trace\.jsonl:2: corrupt record"):
                read_jsonl(str(path))
        # A torn last line, even before trailing blank lines, is a crash
        # artifact rather than corruption.
        path.write_text(good + "\n" + good + "\n" + '{"time": 2.0, "ki' + "\n\n")
        with pytest.warns(RuntimeWarning, match=":3: skipping corrupt"):
            assert len(read_jsonl(str(path))) == 2

    @settings(max_examples=300, deadline=None)
    @given(
        time=st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from([-0.0, 1e-300, 1e300, 5e-324]),
            st.integers(),
        ),
        kind=st.sampled_from(list(TraceEventKind)),
        vm_id=st.one_of(st.none(), st.integers()),
        host_id=st.one_of(st.none(), st.integers(min_value=-5, max_value=10**6)),
        detail=st.one_of(
            st.text(),
            st.sampled_from(['a "quoted" word', "back\\slash", "naïve ☃ 日本",
                             '{"seq": 3}', "\x00\n\t"]),
        ),
    )
    def test_jsonl_line_is_json_dumps(self, time, kind, vm_id, host_id, detail):
        from repro.engine.tracing import TraceRecord, record_to_dict, record_to_jsonl

        record = TraceRecord(time, kind, vm_id, host_id, detail)
        assert record_to_jsonl(record) == json.dumps(record_to_dict(record)) + "\n"

    def test_jsonl_line_falls_back_for_other_types(self):
        """A numpy id goes through ``json.dumps`` (which refuses it), never
        through ``repr`` (which would write ``np.int64(5)``)."""
        import numpy as np

        from repro.engine.tracing import TraceRecord, record_to_dict, record_to_jsonl

        record = TraceRecord(np.float64(2.5), TraceEventKind.PLACEMENT, True, None)
        assert record_to_jsonl(record) == json.dumps(record_to_dict(record)) + "\n"
        with pytest.raises(TypeError):
            record_to_jsonl(TraceRecord(1.0, TraceEventKind.PLACEMENT, np.int64(5)))

    def test_record_from_dict_rejects_missing_keys(self):
        from repro.engine.tracing import record_from_dict

        with pytest.raises(KeyError):
            record_from_dict({"time": 1.0})
