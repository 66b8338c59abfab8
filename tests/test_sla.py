"""Tests for the SLA package: satisfaction math and the runtime monitor."""

import pytest
from hypothesis import given, strategies as st

from repro.cluster.host import Host, HostState
from repro.cluster.spec import HostSpec
from repro.cluster.vm import Vm, VmState
from repro.errors import ConfigurationError
from repro.sla import SlaMonitor, aggregate, delay_pct, fulfillment, satisfaction
from repro.workload.job import Job, JobState


def make_vm(vm_id=1, runtime=1000.0, cpu=100.0, factor=1.5, submit=0.0):
    job = Job(job_id=vm_id, submit_time=submit, runtime_s=runtime,
              cpu_pct=cpu, mem_mb=256.0, deadline_factor=factor)
    return Vm(job)


class TestSatisfactionMath:
    def test_within_deadline(self):
        assert satisfaction(100.0, 150.0) == 100.0

    def test_exactly_at_deadline_counts_as_late_edge(self):
        # Texec == Tdead falls in the second branch with value 100.
        assert satisfaction(150.0, 150.0) == 100.0

    def test_at_double_deadline_zero(self):
        assert satisfaction(300.0, 150.0) == 0.0

    def test_beyond_double_deadline_clamped(self):
        assert satisfaction(1000.0, 150.0) == 0.0

    def test_invalid_deadline_rejected(self):
        with pytest.raises(ConfigurationError):
            satisfaction(100.0, 0.0)

    def test_delay_pct_paper_example(self):
        assert delay_pct(300.0 * 60, 100.0 * 60) == pytest.approx(200.0)

    def test_delay_invalid_runtime_rejected(self):
        with pytest.raises(ConfigurationError):
            delay_pct(100.0, 0.0)

    @given(texec=st.floats(min_value=0.1, max_value=1e6),
           tdead=st.floats(min_value=0.1, max_value=1e6))
    def test_satisfaction_bounds(self, texec, tdead):
        assert 0.0 <= satisfaction(texec, tdead) <= 100.0

    def test_aggregate_empty_is_perfect(self):
        assert aggregate([]) == (100.0, 0.0)

    def test_aggregate_mixes_unfinished(self):
        done = make_vm(1, runtime=100.0).job
        done.state = JobState.COMPLETED
        done.finish_time = 100.0
        pending = make_vm(2).job
        sat, delay = aggregate([done, pending])
        assert sat == pytest.approx(50.0)  # (100 + 0) / 2


class TestFulfillment:
    def test_running_on_track_is_one(self):
        vm = make_vm(runtime=1000.0, cpu=100.0)
        vm.state = VmState.RUNNING
        vm.share = 100.0
        assert fulfillment(vm, now=100.0) == 1.0

    def test_starved_running_vm_is_zero(self):
        vm = make_vm()
        vm.state = VmState.RUNNING
        vm.share = 0.0
        assert fulfillment(vm, now=100.0) == 0.0

    def test_squeezed_vm_degrades(self):
        vm = make_vm(runtime=1000.0, cpu=100.0, factor=1.2)
        vm.state = VmState.RUNNING
        vm.share = 50.0  # half speed: projected 2000 s > 1200 s deadline
        f = fulfillment(vm, now=0.0)
        assert 0.0 < f < 1.0

    def test_queued_vm_fresh_is_one(self):
        vm = make_vm(factor=1.5)
        assert fulfillment(vm, now=0.0) == 1.0

    def test_queued_vm_stale_degrades(self):
        vm = make_vm(runtime=1000.0, factor=1.2)
        # Waited so long that even an immediate full-speed start misses.
        f = fulfillment(vm, now=1000.0)
        assert f < 1.0

    def test_completed_on_time_is_one(self):
        vm = make_vm(runtime=100.0)
        vm.job.state = JobState.COMPLETED
        vm.job.finish_time = 100.0
        vm.state = VmState.COMPLETED
        assert fulfillment(vm, now=200.0) == 1.0

    def test_failed_is_zero(self):
        vm = make_vm()
        vm.state = VmState.FAILED
        assert fulfillment(vm, now=0.0) == 0.0


class TestSlaMonitor:
    def _running_squeezed(self):
        vm = make_vm(runtime=1000.0, cpu=100.0, factor=1.2)
        host = Host(HostSpec(host_id=0), initial_state=HostState.ON)
        vm.state = VmState.RUNNING
        host.add_vm(vm)
        vm.share = 40.0  # heavily squeezed
        return vm

    @staticmethod
    def _watching(vm, now, **kwargs):
        """A monitor whose fulfilment index holds ``vm``."""
        monitor = SlaMonitor(**kwargs)
        monitor.rebuild([vm], now)
        return monitor

    def test_violation_recorded_and_inflated(self):
        vm = self._running_squeezed()
        monitor = self._watching(vm, 100.0, inflation_factor=1.5)
        before = vm.cpu_req
        flagged = monitor.check(now=100.0)
        assert flagged == [vm]
        assert vm.cpu_req == pytest.approx(before * 1.5)
        assert monitor.violation_count == 1

    def test_cooldown_prevents_compounding(self):
        vm = self._running_squeezed()
        monitor = self._watching(vm, 100.0, cooldown_s=600.0)
        monitor.check(now=100.0)
        req_after_first = vm.cpu_req
        monitor.check(now=200.0)  # within cooldown
        assert vm.cpu_req == req_after_first
        monitor.check(now=800.0)  # past cooldown
        assert vm.cpu_req > req_after_first

    def test_enforce_false_only_observes(self):
        vm = self._running_squeezed()
        monitor = self._watching(vm, 100.0)
        before = vm.cpu_req
        flagged = monitor.check(now=100.0, enforce=False)
        assert flagged == []
        assert vm.cpu_req == before
        assert monitor.violation_count == 1

    def test_healthy_vm_untouched(self):
        vm = make_vm()
        vm.state = VmState.RUNNING
        vm.share = vm.cpu_req
        monitor = self._watching(vm, 10.0)
        assert monitor.check(now=10.0) == []
        assert monitor.violation_count == 0

    def test_inflation_capped(self):
        vm = self._running_squeezed()
        for _ in range(20):
            vm.inflate(2.0)
        assert vm.cpu_req <= vm.job.cpu_pct * 4.0
