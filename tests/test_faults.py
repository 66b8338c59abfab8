"""Operational fault injection and the self-healing supervisor.

Covers :mod:`repro.cluster.faults` (config validation, deterministic
seed-derived outcomes, the observed-reliability EWMA), the chaos-aware
actuators (creation failures, migration aborts, boot failures, structured
reject reasons), the supervisor (retry with backoff, quarantine,
re-queueing) and the end-to-end guarantees: chaos-on runs are
deterministic per chaos seed, chaos-off runs consume zero chaos draws,
and no VM is ever permanently lost.
"""

import pytest

from repro.cluster.faults import FaultConfig, ObservedReliability, OperationFaultModel
from repro.cluster.host import HostState
from repro.cluster.spec import ClusterSpec
from repro.cluster.vm import VmState
from repro.engine.config import EngineConfig
from repro.engine.datacenter import DatacenterSimulation, simulate
from repro.errors import ConfigurationError
from repro.scheduling.actions import Migrate, Place, TurnOff, TurnOn
from repro.scheduling.baselines import BackfillingPolicy
from repro.scheduling.power_manager import PowerManager, PowerManagerConfig
from repro.workload.job import Job, JobState
from repro.workload.synthetic import Grid5000WeekGenerator, SyntheticConfig
from repro.workload.trace import Trace

from tests.test_failure_migration_interplay import ScriptedPolicy


# --------------------------------------------------------------- fixtures


class ScriptedFaultModel:
    """Fault model stub replaying scripted outcomes (then all-clear)."""

    def __init__(self, creation=(), migration=(), boot=(), frac=0.5):
        self.creation = list(creation)
        self.migration = list(migration)
        self.boot = list(boot)
        self.frac = frac

    def creation_fails(self, host_id):
        return self.creation.pop(0) if self.creation else False

    def migration_aborts(self, host_id):
        return self.migration.pop(0) if self.migration else False

    def abort_fraction(self, host_id):
        return self.frac

    def boot_outcome(self, host_id):
        return self.boot.pop(0) if self.boot else ("ok", 1.0)


def build_engine(script, fault_stub=None, n_hosts=3, runtime=3600.0, **config):
    """One job, scripted policy, deterministic operation times.

    ``fault_stub`` installs a :class:`ScriptedFaultModel` with the full
    supervisor enabled, without consuming any real chaos streams.
    """
    job = Job(job_id=1, submit_time=0.0, runtime_s=runtime,
              cpu_pct=100.0, mem_mb=512.0)
    engine = DatacenterSimulation(
        cluster=ClusterSpec.homogeneous(n_hosts),
        policy=ScriptedPolicy(script),
        trace=Trace([job]),
        config=EngineConfig(seed=1, initial_on=n_hosts, creation_sigma_s=0.0,
                            migration_sigma_s=0.0, **config),
    )
    if fault_stub is not None:
        engine.fault_model = fault_stub
        engine._supervisor = True
        engine.observed = ObservedReliability(
            {h.host_id: h.spec.reliability for h in engine.hosts}
        )
    return engine


def run_until(engine, t):
    engine.start()
    engine.sim.run(until=t)


# ----------------------------------------------------------- config layer


class TestFaultConfigValidation:
    @pytest.mark.parametrize("field", [
        "creation_failure_p", "migration_abort_p",
        "boot_failure_p", "slow_boot_p",
    ])
    def test_probability_fields_validated_by_name(self, field):
        with pytest.raises(ConfigurationError, match=field):
            FaultConfig(**{field: 1.5})
        with pytest.raises(ConfigurationError, match=field):
            FaultConfig(**{field: -0.1})

    def test_multipliers_validated(self):
        with pytest.raises(ConfigurationError, match="slow_boot_factor"):
            FaultConfig(slow_boot_factor=0.5)
        with pytest.raises(ConfigurationError, match="hot_fraction"):
            FaultConfig(hot_fraction=2.0)
        with pytest.raises(ConfigurationError, match="hot_multiplier"):
            FaultConfig(hot_multiplier=0.0)

    def test_removed_recovery_mode_is_refused(self):
        # An abort always keeps the accrued work; the old switch between
        # refund and checkpoint rollback is an unknown keyword now.
        with pytest.raises(TypeError, match="migration_abort_recovery"):
            FaultConfig(migration_abort_recovery="checkpoint")

    def test_uniform_builder_and_any_faults(self):
        assert not FaultConfig().any_faults
        cfg = FaultConfig.uniform(0.07, slow_boot_p=0.0)
        assert cfg.creation_failure_p == 0.07
        assert cfg.slow_boot_p == 0.0
        assert cfg.any_faults

    def test_engine_config_knobs_validated_by_name(self):
        with pytest.raises(ConfigurationError, match="faults"):
            EngineConfig(faults=0.05)  # must be a FaultConfig, not a rate
        with pytest.raises(ConfigurationError, match="quarantine_threshold"):
            EngineConfig(quarantine_threshold=-1)
        with pytest.raises(ConfigurationError, match="quarantine_window_s"):
            EngineConfig(quarantine_window_s=0.0)
        with pytest.raises(ConfigurationError, match="quarantine_duration_s"):
            EngineConfig(quarantine_duration_s=-5.0)
        with pytest.raises(ConfigurationError, match="retry_backoff_base_s"):
            EngineConfig(retry_backoff_base_s=0.0)
        with pytest.raises(ConfigurationError, match="retry_backoff_cap_s"):
            EngineConfig(retry_backoff_base_s=60.0, retry_backoff_cap_s=30.0)


class TestOperationFaultModel:
    def test_same_seed_same_outcomes(self):
        cfg = FaultConfig.uniform(0.5)
        a = OperationFaultModel(cfg, seed=42)
        b = OperationFaultModel(cfg, seed=42)
        seq_a = [a.creation_fails(3) for _ in range(50)]
        seq_b = [b.creation_fails(3) for _ in range(50)]
        assert seq_a == seq_b
        assert any(seq_a) and not all(seq_a)

    def test_hosts_are_independent_streams(self):
        """Draws against one host never perturb another host's sequence."""
        cfg = FaultConfig.uniform(0.5)
        a = OperationFaultModel(cfg, seed=7)
        b = OperationFaultModel(cfg, seed=7)
        for _ in range(100):
            a.creation_fails(0)  # burn host 0's stream only
        assert [a.creation_fails(1) for _ in range(30)] == \
               [b.creation_fails(1) for _ in range(30)]

    def test_fault_families_are_independent_streams(self):
        cfg = FaultConfig.uniform(0.5)
        a = OperationFaultModel(cfg, seed=7)
        b = OperationFaultModel(cfg, seed=7)
        for _ in range(100):
            a.creation_fails(0)  # creation draws must not shift boot draws
        assert [a.boot_outcome(0) for _ in range(30)] == \
               [b.boot_outcome(0) for _ in range(30)]

    def test_hot_hosts_are_deterministic_and_bounded(self):
        cfg = FaultConfig.uniform(0.1, hot_fraction=0.5, hot_multiplier=4.0)
        model = OperationFaultModel(cfg, seed=11)
        mults = {hid: model.multiplier(hid) for hid in range(200)}
        assert set(mults.values()) == {1.0, 4.0}
        again = OperationFaultModel(cfg, seed=11)
        assert {hid: again.multiplier(hid) for hid in range(200)} == mults
        # The effective probability is clamped to 1.
        extreme = OperationFaultModel(
            FaultConfig.uniform(0.9, hot_fraction=1.0, hot_multiplier=100.0),
            seed=1,
        )
        assert extreme._p(0.9, 0) == 1.0

    def test_abort_fraction_in_open_interval(self):
        model = OperationFaultModel(FaultConfig.uniform(1.0), seed=3)
        for _ in range(100):
            assert 0.1 <= model.abort_fraction(0) <= 0.9


class TestObservedReliability:
    def test_ewma_moves_between_prior_and_outcomes(self):
        obs = ObservedReliability({0: 0.9}, alpha=0.5)
        assert obs.score(0) == 0.9
        assert obs.score(99) == 1.0  # unknown hosts default to perfect
        obs.record_failure(0)
        assert obs.score(0) == pytest.approx(0.45)
        obs.record_success(0)
        assert obs.score(0) == pytest.approx(0.725)
        assert obs.events == 2

    def test_crash_weighted_and_clamped(self):
        obs = ObservedReliability({0: 1.0}, alpha=0.5, crash_weight=3.0)
        obs.record_crash(0)  # effective alpha min(1.5, 1) = 1
        assert obs.score(0) == 0.0
        mild = ObservedReliability({0: 1.0}, alpha=0.1, crash_weight=3.0)
        mild.record_crash(0)
        assert mild.score(0) == pytest.approx(0.7)

    def test_parameters_validated(self):
        with pytest.raises(ConfigurationError, match="alpha"):
            ObservedReliability(alpha=0.0)
        with pytest.raises(ConfigurationError, match="alpha"):
            ObservedReliability(alpha=1.5)
        with pytest.raises(ConfigurationError, match="crash_weight"):
            ObservedReliability(crash_weight=0.5)

    def test_snapshot_is_a_copy(self):
        obs = ObservedReliability({0: 0.8})
        snap = obs.snapshot()
        snap[0] = 0.0
        assert obs.score(0) == 0.8


# ------------------------------------------------------- chaos actuators


class TestCreationFailure:
    def test_failed_creation_parks_then_retries(self):
        stub = ScriptedFaultModel(creation=[True])
        engine = build_engine([[Place(vm_id=1, host_id=0)]], fault_stub=stub)
        run_until(engine, 50.0)  # creation (40 s) burned, fault fired
        vm = engine.vms[1]
        host = engine.hosts_by_id[0]
        assert vm.state is VmState.QUEUED
        assert vm.host_id is None
        assert vm.vm_id not in engine.queue  # parked, not schedulable
        assert host.vms == {} and host.operations == []
        assert engine.metrics.counters["failed_creations"] == 1
        assert engine.observed.score(0) < 1.0
        # Backoff (30 s base) expires -> re-queued -> fallback BF places it.
        engine.sim.run(until=120.0)
        assert vm.state in (VmState.CREATING, VmState.RUNNING)
        engine.sim.run()
        assert vm.job.state is JobState.COMPLETED
        # Recovery accounting: one VM recovered, latency >= the backoff.
        assert engine._recoveries == 1
        assert engine._recovery_total_s >= 30.0

    def test_backoff_doubles_and_caps(self):
        stub = ScriptedFaultModel(creation=[True, True, True])
        engine = build_engine(
            [[Place(vm_id=1, host_id=0)]], fault_stub=stub,
            retry_backoff_base_s=30.0, retry_backoff_cap_s=45.0,
        )
        engine.start()
        engine.sim.run()
        vm = engine.vms[1]
        assert vm.job.state is JobState.COMPLETED
        assert engine.metrics.counters["failed_creations"] == 3
        # Attempts map is cleared once the VM finally lands.
        assert engine._vm_attempts == {}

    def test_host_failure_supersedes_creation_fault(self):
        """A crash mid-creation wins; the stale fault event is a no-op."""
        stub = ScriptedFaultModel(creation=[True])
        engine = build_engine([[Place(vm_id=1, host_id=0)]], fault_stub=stub)
        run_until(engine, 10.0)
        vm = engine.vms[1]
        assert vm.state is VmState.CREATING
        host = engine.hosts_by_id[0]
        engine._failure_processes[host.host_id] = _OneShotProcess()
        engine._on_host_failure(host)
        assert vm.state is VmState.QUEUED
        engine.sim.run()
        assert vm.job.state is JobState.COMPLETED
        # The scripted creation fault never fired against the dead host.
        assert engine.metrics.counters["failed_creations"] == 0


class TestMigrationAbort:
    def _migrating_engine(self, stub, **config):
        engine = build_engine([
            [Place(vm_id=1, host_id=0)],
            [Migrate(vm_id=1, dst_host_id=1)],
        ], fault_stub=stub, **config)
        engine.sim.at(200.0, engine.trigger_round, label="force-round")
        run_until(engine, 210.0)
        assert engine.vms[1].state is VmState.MIGRATING
        return engine

    def test_abort_keeps_vm_running_on_source(self):
        stub = ScriptedFaultModel(migration=[True], frac=0.5)
        engine = self._migrating_engine(stub)
        vm = engine.vms[1]
        engine.sim.run(until=240.0)  # abort at 200 + 60*0.5 = 230
        src = engine.hosts_by_id[0]
        dst = engine.hosts_by_id[1]
        assert vm.state is VmState.RUNNING
        assert vm.host_id == src.host_id
        assert vm.migration_src is None and vm.migration_dst is None
        assert src.operations == [] and dst.operations == []
        assert dst.reservations == {}
        assert engine.metrics.counters["aborted_migrations"] == 1
        # The VM keeps the progress accrued up to the abort.
        assert vm.work_done > 0.0
        assert engine._lost_work_pct_s == 0.0
        # The stale migration-done event must be a no-op.
        engine.sim.run()
        assert vm.job.state is JobState.COMPLETED
        assert engine.metrics.counters["migrations"] == 0

    def test_abort_keeps_progress_past_the_latest_checkpoint(self):
        """An abort never rolls the VM back, not even to its latest
        per-VM checkpoint."""
        stub = ScriptedFaultModel(migration=[True], frac=0.5)
        engine = self._migrating_engine(stub, checkpoint_interval_s=60.0)
        vm = engine.vms[1]
        engine.sim.run(until=235.0)  # abort at 200 + 60*0.5 = 230
        assert vm.state is VmState.RUNNING
        snapshot = engine.checkpoints.latest(vm.vm_id)
        assert snapshot is not None and vm.work_done > snapshot.work_done
        assert engine.metrics.counters["aborted_migrations"] == 1
        assert engine.metrics.counters["checkpoint_recoveries"] == 0
        assert engine._lost_work_pct_s == 0.0

    # (migration abort racing a concurrent source-host crash lives in
    # tests/test_failure_migration_interplay.py::TestChaosFailureInterplay)


class TestBootFaults:
    def test_boot_failure_burns_time_then_retries(self):
        stub = ScriptedFaultModel(boot=[("fail", 1.0)])
        engine = build_engine([], fault_stub=stub, n_hosts=2)
        host = engine.hosts_by_id[1]
        host.state = HostState.OFF  # engine built all-ON; craft an OFF host
        engine.start()
        assert engine.apply_action(TurnOn(host_id=1))
        assert host.state is HostState.BOOTING
        engine.sim.run(until=host.spec.boot_s + 1.0)
        # The boot failed at boot_s (machine fell back to OFF); the power
        # manager may immediately retry, so assert on the record, not the
        # instantaneous state.
        assert engine.metrics.counters["boot_failures"] == 1
        assert engine.observed.score(1) < 1.0
        assert host.state in (HostState.OFF, HostState.BOOTING)
        engine.sim.run(until=3.0 * host.spec.boot_s)
        assert host.state in (HostState.ON, HostState.OFF)  # retried or idle

    def test_slow_boot_multiplies_duration(self):
        stub = ScriptedFaultModel(boot=[("slow", 3.0)])
        engine = build_engine([], fault_stub=stub, n_hosts=2)
        host = engine.hosts_by_id[1]
        host.state = HostState.OFF
        engine.start()
        assert engine.apply_action(TurnOn(host_id=1))
        engine.sim.run(until=host.spec.boot_s + 1.0)
        assert host.state is HostState.BOOTING  # nominal time: not yet
        engine.sim.run(until=3.0 * host.spec.boot_s + 1.0)
        assert host.state is HostState.ON

    # (boot failure racing a pending placement lives in
    # tests/test_failure_migration_interplay.py::TestChaosFailureInterplay)


# ------------------------------------------------------------ supervisor


class TestQuarantine:
    def _engine(self, **config):
        config.setdefault("quarantine_threshold", 2)
        config.setdefault("quarantine_window_s", 3600.0)
        config.setdefault("quarantine_duration_s", 600.0)
        engine = build_engine([], fault_stub=ScriptedFaultModel(), **config)
        engine.start()
        return engine

    def test_repeated_failures_quarantine_host(self):
        engine = self._engine()
        host = engine.hosts_by_id[0]
        engine._note_operation_failure(host)
        assert not host.quarantined
        engine._note_operation_failure(host)
        assert host.quarantined
        assert engine.metrics.counters["quarantines"] == 1

    def test_quarantined_host_rejects_work_and_boots(self):
        engine = self._engine()
        host = engine.hosts_by_id[0]
        engine._quarantine(host)
        # Placement and migration actuators refuse it...
        job = Job(job_id=9, submit_time=0.0, runtime_s=60.0,
                  cpu_pct=10.0, mem_mb=128.0)
        from repro.cluster.vm import Vm
        vm = Vm(job)
        engine.vms[vm.vm_id] = vm
        engine.queue[vm.vm_id] = vm
        engine._live[vm.vm_id] = vm
        assert not engine.apply_action(Place(vm_id=vm.vm_id, host_id=0))
        assert engine.metrics.counters["rejected.host_quarantined"] == 1
        # ...and the power manager skips it when booting.
        host.state = HostState.OFF
        pm = PowerManager(PowerManagerConfig())
        ctx = engine._context()
        boots = [a for a in pm.control(ctx, engine.policy)
                 if isinstance(a, TurnOn)]
        assert all(a.host_id != 0 for a in boots)

    def test_quarantine_expires(self):
        engine = self._engine()
        host = engine.hosts_by_id[0]
        engine._quarantine(host)
        assert host.quarantined
        engine.sim.run(until=601.0)
        assert not host.quarantined
        assert host.quarantined_until == 0.0

    def test_threshold_zero_disables_quarantine(self):
        engine = self._engine(quarantine_threshold=0)
        host = engine.hosts_by_id[0]
        for _ in range(10):
            engine._note_operation_failure(host)
        assert not host.quarantined

    def test_window_prunes_old_failures(self):
        engine = self._engine(quarantine_threshold=2,
                              quarantine_window_s=100.0)
        host = engine.hosts_by_id[0]
        engine._note_operation_failure(host)
        engine.sim.run(until=500.0)  # first failure ages out of the window
        engine._note_operation_failure(host)
        assert not host.quarantined


class TestRejectReasons:
    def test_structured_reasons_counted_per_kind(self):
        engine = build_engine([])
        engine.start()
        engine.apply_action(Place(vm_id=999, host_id=0))
        engine.apply_action(Migrate(vm_id=999, dst_host_id=0))
        engine.apply_action(TurnOn(host_id=0))  # already ON
        engine.apply_action(TurnOff(host_id=99))
        counters = engine.metrics.counters
        assert counters["rejected.unknown_vm"] == 2
        assert counters["rejected.host_not_off"] == 1
        assert counters["rejected.unknown_host"] == 1
        assert counters["rejected_actions"] == 4
        engine.sim.run()
        result = engine.run()
        assert result.reject_reasons["unknown_vm"] == 2
        assert sum(result.reject_reasons.values()) == result.rejected_actions


# ------------------------------------------------------------ properties


class TestSampleDurationProperties:
    def test_durations_truncate_at_one_second(self):
        engine = build_engine([])
        for _ in range(200):
            assert engine._sample_duration(0.0, 50.0, "ops.creation") >= 1.0
        assert engine._sample_duration(40.0, 0.0, "ops.creation") == 40.0
        assert engine._sample_duration(0.5, 0.0, "ops.creation") == 1.0

    def test_operation_streams_are_independent(self):
        """Creation draws never shift the migration stream (and back)."""
        a = build_engine([])
        b = build_engine([])
        for _ in range(50):
            a._sample_duration(40.0, 2.5, "ops.creation")
        seq_a = [a._sample_duration(60.0, 2.5, "ops.migration")
                 for _ in range(20)]
        seq_b = [b._sample_duration(60.0, 2.5, "ops.migration")
                 for _ in range(20)]
        assert seq_a == seq_b


# --------------------------------------------------------------- end-to-end


def _grid_trace():
    return Grid5000WeekGenerator(
        SyntheticConfig(horizon_s=6 * 3600.0), seed=7
    ).generate()


class TestChaosEndToEnd:
    def test_chaos_run_deterministic_per_chaos_seed(self):
        trace = _grid_trace()
        cfg = EngineConfig(seed=3, faults=FaultConfig.uniform(0.1),
                           chaos_seed=99, strict_invariants=True)
        a = simulate(ClusterSpec.homogeneous(8), BackfillingPolicy(), trace,
                     config=cfg)
        b = simulate(ClusterSpec.homogeneous(8), BackfillingPolicy(), trace,
                     config=cfg)
        for field in ("energy_kwh", "cpu_hours", "sim_events", "n_completed",
                      "failed_creations", "boot_failures", "quarantines",
                      "mean_recovery_s", "lost_cpu_s"):
            assert getattr(a, field) == getattr(b, field), field

    def test_different_chaos_seed_same_workload(self):
        """chaos_seed re-rolls the faults without touching the workload."""
        trace = _grid_trace()
        rows = [
            simulate(
                ClusterSpec.homogeneous(8), BackfillingPolicy(), trace,
                config=EngineConfig(seed=3, faults=FaultConfig.uniform(0.3),
                                    chaos_seed=cs),
            )
            for cs in (1, 2)
        ]
        assert rows[0].n_jobs == rows[1].n_jobs
        chaos_totals = [
            r.failed_creations + r.boot_failures + r.aborted_migrations
            for r in rows
        ]
        assert chaos_totals[0] != chaos_totals[1]

    def test_no_vm_permanently_lost_under_chaos(self):
        trace = _grid_trace()
        result = simulate(
            ClusterSpec.homogeneous(8), BackfillingPolicy(), trace,
            config=EngineConfig(seed=3, faults=FaultConfig.uniform(0.1),
                                strict_invariants=True),
        )
        assert result.n_completed + result.n_failed == result.n_jobs
        assert result.failed_creations + result.boot_failures > 0

    def test_chaos_off_identical_with_faults_field_none(self):
        """faults=None and an all-zero FaultConfig are both zero-impact."""
        trace = _grid_trace()
        base = simulate(ClusterSpec.homogeneous(8), BackfillingPolicy(),
                        trace, config=EngineConfig(seed=3))
        zero = simulate(ClusterSpec.homogeneous(8), BackfillingPolicy(),
                        trace, config=EngineConfig(seed=3,
                                                   faults=FaultConfig()))
        for field in ("energy_kwh", "cpu_hours", "sim_events", "n_completed",
                      "satisfaction", "horizon_s"):
            assert getattr(base, field) == getattr(zero, field), field

    def test_observed_reliability_wiring(self):
        from repro.scheduling.score import ScoreConfig
        from repro.scheduling.score.policy import ScoreBasedPolicy

        trace = _grid_trace()
        policy = ScoreBasedPolicy(
            ScoreConfig.full(use_observed_reliability=True)
        )
        engine = DatacenterSimulation(
            cluster=ClusterSpec.homogeneous(8),
            policy=policy,
            trace=trace.fresh(),
            config=EngineConfig(seed=3, faults=FaultConfig.uniform(0.2),
                                observed_reliability=True),
        )
        assert policy.reliability_source is not None
        result = engine.run()
        assert result.n_completed + result.n_failed == result.n_jobs
        # The tracker actually learned from operation outcomes.
        assert engine.observed.events > 0
        scores = engine.observed.snapshot()
        assert any(s < 1.0 for s in scores.values())


class _OneShotProcess:
    """Failure process stub: one immediate repair, then silence."""

    never_fails = False

    def next_uptime(self):
        return float("inf")

    def next_downtime(self):
        return 60.0
