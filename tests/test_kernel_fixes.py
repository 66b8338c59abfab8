"""Regression tests for the DES kernel and engine bugfix pass.

Covers: finiteness validation of event times, the O(1) live-event
counter, tombstone compaction keeping the heap bounded (and order-
preserving), the stale-proof :meth:`Vm.eta` the lazy progress accounting
relies on, O(1) queue removal semantics, and the ``_build_result``
job-id keying fix.
"""

import math

import pytest

from repro.cluster.host import Host, HostState
from repro.cluster.spec import MEDIUM, HostSpec
from repro.cluster.vm import Vm, VmState
from repro.des.simulator import Simulator
from repro.engine.config import EngineConfig
from repro.engine.datacenter import DatacenterSimulation
from repro.errors import SimulationError
from repro.scheduling.baselines import BackfillingPolicy
from repro.cluster.spec import ClusterSpec
from repro.workload.job import Job
from repro.workload.trace import Trace


class TestTimeValidation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_schedule_rejects_non_finite_delay(self, bad):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(bad, lambda: None)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_at_rejects_non_finite_time(self, bad):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.at(bad, lambda: None)

    def test_rejected_event_leaves_no_residue(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)
        assert sim.pending == 0
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.now == 1.0


class TestPendingCounter:
    def test_counter_tracks_schedule_cancel_fire(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert sim.pending == 10
        handles[3].cancel()
        handles[7].cancel()
        assert sim.pending == 8
        # Double-cancel must not double-count.
        handles[3].cancel()
        assert sim.pending == 8
        sim.run(max_events=1)
        assert sim.pending == 7
        sim.run()
        assert sim.pending == 0
        assert sim.events_processed == 8

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(max_events=1)
        assert sim.pending == 1
        h.cancel()  # already fired: accounting must not change
        assert sim.pending == 1


class TestHeapCompaction:
    def test_heap_bounded_under_cancel_reschedule(self):
        """The engine's completion handles cancel+reschedule on every share
        change; the heap must not grow with the number of cancellations."""
        sim = Simulator()
        handle = None
        for i in range(10_000):
            if handle is not None:
                handle.cancel()
            handle = sim.schedule(1.0 + i * 1e-6, lambda: None)
        assert sim.pending == 1
        assert len(sim._heap) <= 2 * Simulator._COMPACT_FLOOR
        sim.run()
        assert sim.events_processed == 1
        assert sim.pending == 0

    def test_compaction_preserves_firing_order(self):
        sim = Simulator()
        fired = []
        handles = {}
        # Many events with colliding times and priorities, so ordering
        # falls through to the insertion sequence.
        for i in range(300):
            t = float(i % 5)
            handles[i] = sim.at(
                t, lambda i=i: fired.append(i), priority=i % 3, label=str(i)
            )
        cancelled = {i for i in handles if i % 3 == 1}
        for i in cancelled:
            handles[i].cancel()  # triggers compaction along the way
        expected = [
            i
            for _, _, _, i in sorted(
                (i % 5, i % 3, i, i) for i in range(300) if i not in cancelled
            )
        ]
        sim.run()
        assert fired == expected


class TestStaleProofEta:
    def _running_vm(self):
        job = Job(job_id=1, submit_time=0.0, runtime_s=1000.0,
                  cpu_pct=100.0, mem_mb=512.0)
        vm = Vm(job)
        vm.state = VmState.RUNNING
        vm.share = 50.0
        vm.last_progress_t = 0.0
        return vm

    def test_eta_identical_stale_or_touched(self):
        vm = self._running_vm()
        stale_eta = vm.eta(40.0)  # integral not advanced since t=0
        vm2 = self._running_vm()
        vm2.advance(40.0)
        touched_eta = vm2.eta(40.0)
        assert stale_eta == pytest.approx(touched_eta)
        # And the projection is the physically correct completion time.
        assert stale_eta == pytest.approx(vm.work_total / 50.0)

    def test_eta_starved_and_done(self):
        vm = self._running_vm()
        vm.share = 0.0
        assert math.isinf(vm.eta(10.0))
        vm.share = 50.0
        vm.work_done = vm.work_total
        assert vm.eta(10.0) == 10.0


def _tiny_engine(n_jobs=3):
    jobs = [
        Job(job_id=i, submit_time=float(i), runtime_s=60.0,
            cpu_pct=100.0, mem_mb=512.0)
        for i in range(1, n_jobs + 1)
    ]
    return DatacenterSimulation(
        cluster=ClusterSpec.homogeneous(4),
        policy=BackfillingPolicy(),
        trace=Trace(jobs),
        config=EngineConfig(seed=1),
    )


class TestQueueRemoval:
    def test_queue_remove_is_keyed_and_idempotent(self):
        engine = _tiny_engine()
        job = Job(job_id=99, submit_time=0.0, runtime_s=60.0,
                  cpu_pct=100.0, mem_mb=512.0)
        vm = Vm(job)
        engine.queue[vm.vm_id] = vm
        engine.queue_remove(vm)
        assert vm.vm_id not in engine.queue
        engine.queue_remove(vm)  # second removal is a no-op
        assert len(engine.queue) == 0

    def test_queue_preserves_fifo_order(self):
        engine = _tiny_engine()
        vms = []
        for i in (5, 2, 9):
            job = Job(job_id=i, submit_time=0.0, runtime_s=60.0,
                      cpu_pct=100.0, mem_mb=512.0)
            vms.append(Vm(job))
            engine.queue[vms[-1].vm_id] = vms[-1]
        assert list(engine.queue.values()) == vms  # insertion, not id, order


class TestBuildResultJobKeying:
    def test_non_default_vm_id_neither_duplicates_nor_drops_jobs(self):
        engine = _tiny_engine(n_jobs=3)
        result = engine.run()
        assert result.n_jobs == 3
        assert result.n_completed == 3

        # Re-key one VM under a non-default vm_id: the job row count must
        # not change.  (A fold that keyed arrived jobs on vm_id but the
        # never-arrived remainder on job_id double-counted this job; the
        # one fold reads the retired-job arrays, not the registry.)
        jid = next(iter(engine.vms))
        vm = engine.vms.pop(jid)
        revm = Vm(vm.job, vm_id=jid + 10_000)
        revm.state = vm.state
        engine.vms[revm.vm_id] = revm
        rebuilt = engine._build_result(0.0)
        assert rebuilt.n_jobs == 3
        assert rebuilt.n_completed == 3
