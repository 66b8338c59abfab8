"""Tests for result rows, table formatting and the metrics collector."""

import pytest

from repro.cluster.host import Host, HostState
from repro.cluster.spec import HostSpec
from repro.cluster.vm import Vm, VmState
from repro.cluster.xen import ShareMemo
from repro.engine.metrics import MetricsCollector
from repro.engine.results import SimulationResult, results_table
from repro.workload.job import Job


def make_result(**overrides):
    base = dict(
        policy="BF", lambda_min=0.3, lambda_max=0.9,
        avg_working=10.1, avg_online=22.2, cpu_hours=6055.3,
        energy_kwh=1007.3, satisfaction=98.0, delay_pct=10.4, migrations=0,
    )
    base.update(overrides)
    return SimulationResult(**base)


class TestSimulationResult:
    def test_lambda_formatting(self):
        assert make_result().lambdas == "30-90"
        assert make_result(lambda_min=0.4).lambdas == "40-90"

    def test_row_has_paper_columns(self):
        row = make_result().row()
        assert row["Policy"] == "BF"
        assert row["Work/ON"] == "10.1 / 22.2"
        assert row["Pwr (kWh)"] == "1007.3"
        assert row["Mig"] == "0"

    def test_completion_rate(self):
        r = make_result(n_jobs=10, n_completed=9)
        assert r.completion_rate == pytest.approx(0.9)

    def test_completion_rate_empty(self):
        assert make_result().completion_rate == 1.0


class TestResultsTable:
    def test_renders_all_rows(self):
        rows = [make_result(policy=p) for p in ("RD", "RR", "BF")]
        text = results_table(rows)
        for p in ("RD", "RR", "BF"):
            assert p in text

    def test_title_included(self):
        text = results_table([make_result()], title="Table II")
        assert text.startswith("Table II")

    def test_custom_columns(self):
        text = results_table([make_result()], columns=["Policy", "S (%)"])
        assert "Pwr" not in text
        assert "98.0" in text


class TestMetricsCollector:
    def _host(self, host_id=0, state=HostState.ON):
        return Host(HostSpec(host_id=host_id), initial_state=state)

    def test_initial_counts_zero(self):
        hosts = [self._host(0), self._host(1, HostState.OFF)]
        m = MetricsCollector(hosts)
        m.refresh(0.0)
        m.close(10.0)
        assert m.avg_online == pytest.approx(1.0)
        assert m.avg_working == pytest.approx(0.0)

    def test_working_tracks_vms(self):
        host = self._host()
        m = MetricsCollector([host])
        m.refresh(0.0)
        job = Job(job_id=1, submit_time=0, runtime_s=600, cpu_pct=200, mem_mb=256)
        vm = Vm(job)
        vm.state = VmState.RUNNING
        host.add_vm(vm)
        m.host_changed(host)  # the engine reports transitions of dirty hosts
        m.refresh(5.0)
        m.close(10.0)
        # Working for the second half only.
        assert m.avg_working == pytest.approx(0.5)
        assert m.verify_against_scan()

    def test_cpu_hours_integrates_reservations(self):
        host = self._host()
        m = MetricsCollector([host])
        m.refresh(0.0)
        job = Job(job_id=1, submit_time=0, runtime_s=600, cpu_pct=200, mem_mb=256)
        vm = Vm(job)
        vm.state = VmState.RUNNING
        host.add_vm(vm)
        m.host_changed(host)
        m.refresh(0.0)
        m.close(3600.0)
        # 200% CPU for an hour = 2 core-hours.
        assert m.cpu_hours == pytest.approx(2.0)

    def test_power_refresh_accumulates_energy(self):
        host = self._host()
        host.recompute_shares(ShareMemo())
        m = MetricsCollector([host])
        m.refresh_hosts(0.0, [host])
        m.close(3600.0)
        # Idle host for one hour: 230 Wh.
        assert m.energy_kwh == pytest.approx(0.230, rel=1e-6)

    def test_power_refresh_skips_unchanged(self):
        host = self._host()
        host.recompute_shares(ShareMemo())
        m = MetricsCollector([host])
        m.refresh_hosts(0.0, [host])
        m.refresh_hosts(1.0, [host])  # no change: no new step recorded
        m.close(2.0)
        assert m.energy_kwh > 0.0

    def test_off_host_draws_nothing(self):
        host = self._host(state=HostState.OFF)
        m = MetricsCollector([host])
        m.refresh_hosts(0.0, [host])
        m.close(3600.0)
        assert m.energy_kwh == pytest.approx(0.0)

    def test_counters(self):
        m = MetricsCollector([self._host()])
        m.counters.incr("migrations", 3)
        assert m.migrations == 3
