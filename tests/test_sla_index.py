"""The SLA fulfilment index against the full ``fulfillment`` scan.

``SlaMonitor`` keeps every placed VM's fulfilment and the violator set
current from the engine's dirty-host sweep plus a deadline heap, so that
SLA checks and the score policy never rescan the placed VMs.  These tests
hold it to the scan it replaced: at every event boundary of random
SLA-on, fault-on episodes, at the two edge cases the heap must get
exactly right, across snapshot restore, and in cost per round.
"""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.sla.monitor as sla_monitor
from repro.cluster.faults import FaultConfig, ObservedReliability
from repro.cluster.spec import ClusterSpec
from repro.cluster.vm import Vm, VmState
from repro.engine.config import EngineConfig
from repro.engine.datacenter import DatacenterSimulation
from repro.engine.snapshot import list_snapshots, load_snapshot
from repro.errors import StateError
from repro.scheduling.actions import Place
from repro.scheduling.base import SchedulingContext, SchedulingPolicy
from repro.scheduling.power_manager import PowerManagerConfig
from repro.scheduling.score import ScoreConfig
from repro.scheduling.score.policy import ScoreBasedPolicy
from repro.sla.monitor import SlaMonitor, fulfillment
from repro.units import HOUR
from repro.workload.job import Job
from repro.workload.synthetic import Grid5000WeekGenerator, SyntheticConfig
from repro.workload.trace import Trace


def scan(engine):
    """(violator ids in arrival order, id -> fulfilment) by full scan."""
    now = engine.sim.now
    placed = [vm for vm in engine._live.values() if vm.is_placed]
    values = {vm.vm_id: fulfillment(vm, now) for vm in placed}
    return [vid for vid, f in values.items() if f < 1.0], values


def assert_index_matches(engine):
    monitor = engine.sla_monitor
    now = engine.sim.now
    expect_violators, expect_values = scan(engine)
    placed = [vm for vm in engine._live.values() if vm.is_placed]
    got_values = monitor.fulfillments(placed, now)
    assert got_values == expect_values, now
    assert [vm.vm_id for vm in monitor.violators(now)] == expect_violators, now


def watch_every_event(engine, observe=None):
    """Check the index at every event boundary; returns the check count."""
    checks = [0]

    def post_event():
        assert_index_matches(engine)
        checks[0] += 1
        if observe is not None:
            observe(engine)

    engine.sim.post_event = post_event
    return checks


def make_job(job_id, submit, runtime, cpu=100.0, factor=1.5, mem=256.0):
    return Job(job_id=job_id, submit_time=submit, runtime_s=runtime,
               cpu_pct=cpu, mem_mb=mem, deadline_factor=factor)


class _ScanCheckedPolicy(ScoreBasedPolicy):
    """Holds every matrix column's fulfilment, in ``decide`` and in the
    shutdown ranking after the round's actions, to a full evaluation."""

    def _builder(self, ctx, columns, fulfills):
        assert fulfills == {vm.vm_id: fulfillment(vm, ctx.now) for vm in columns}
        return super()._builder(ctx, columns, fulfills)


def sla_engine(cluster, jobs, **config_kw):
    config_kw.setdefault("creation_sigma_s", 0.0)
    config_kw.setdefault("migration_sigma_s", 0.0)
    return DatacenterSimulation(
        cluster=cluster,
        policy=_ScanCheckedPolicy(ScoreConfig.full()),
        trace=Trace(jobs),
        config=EngineConfig(**config_kw),
    )


# ------------------------------------------------- random-episode oracle


@st.composite
def episodes(draw):
    n_jobs = draw(st.integers(min_value=3, max_value=30))
    jobs = []
    for i in range(n_jobs):
        jobs.append(make_job(
            i,
            submit=draw(st.floats(min_value=0.0, max_value=4 * HOUR,
                                  allow_nan=False)),
            runtime=draw(st.floats(min_value=30.0, max_value=3 * HOUR)),
            cpu=draw(st.sampled_from([50.0, 100.0, 200.0, 400.0])),
            # Tight deadlines: most episodes see violations.
            factor=draw(st.floats(min_value=1.0, max_value=1.6)),
            mem=draw(st.floats(min_value=64.0, max_value=2048.0)),
        ))
    fault_rate = draw(st.sampled_from([0.0, 0.1, 0.3]))
    return dict(
        jobs=jobs,
        n_hosts=draw(st.integers(min_value=1, max_value=5)),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
        faults=FaultConfig.uniform(fault_rate) if fault_rate else None,
        failures=draw(st.booleans()),
        checkpoints=draw(st.sampled_from([None, 900.0])),
        sla_tick=draw(st.sampled_from([60.0, 300.0])),
    )


class TestDifferential:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ep=episodes())
    def test_index_equals_full_scan_at_every_event(self, ep):
        reliability = 0.97 if ep["failures"] else 1.0
        engine = sla_engine(
            ClusterSpec.homogeneous(ep["n_hosts"], reliability=reliability),
            ep["jobs"],
            seed=ep["seed"],
            faults=ep["faults"],
            enable_failures=ep["failures"],
            mttr_s=1800.0,
            checkpoint_interval_s=ep["checkpoints"],
            sla_check_interval_s=ep["sla_tick"],
            initial_on=ep["n_hosts"],
        )
        checks = watch_every_event(engine)
        engine.run()
        assert checks[0] > 0

    def test_creating_vm_crossing_exactly_on_a_round(self):
        """A creating VM projects ``(now - submit) + runtime``: job 0
        (runtime 100 s, deadline 125 s) crosses at t = 25 s exactly, while
        its 40 s creation is in flight.  The round at 25 s sees it on time
        (projected == deadline), the round at 26 s sees it violate."""
        jobs = [
            make_job(0, 0.0, 100.0, factor=1.25),
            make_job(1, 25.0, 1000.0),
            make_job(2, 26.0, 1000.0),
        ]
        engine = sla_engine(ClusterSpec.homogeneous(1), jobs)
        seen = {}
        rounds = engine._round

        def round_and_record():
            monitor = engine.sla_monitor
            now = engine.sim.now
            vm0 = engine.vms[0]
            seen[now] = (vm0.state, [vm.vm_id for vm in monitor.violators(now)])
            rounds()

        engine._round = round_and_record
        watch_every_event(engine)
        engine.run()
        assert seen[25.0] == (VmState.CREATING, [])
        assert seen[26.0] == (VmState.CREATING, [0])

    def test_running_vm_with_no_work_left(self):
        """Job 1's creation ends at t = 1040 s, the instant job 0 (created
        at 40 s, 1000 s of work at full share) finishes, and it fires first:
        the sweep banks job 0's progress to zero work left before its
        completion event.  Its ``eta`` is then ``now``, so its fulfilment
        is time-driven, and late (deadline 1000 s)."""
        jobs = [make_job(0, 0.0, 1000.0, factor=1.0),
                make_job(1, 1000.0, 1000.0)]
        engine = sla_engine(ClusterSpec.homogeneous(1), jobs)
        drained = []

        def observe(engine):
            vm0 = engine.vms[0]
            if vm0.state is VmState.RUNNING and vm0.work_remaining <= 0:
                now = engine.sim.now
                drained.append(
                    (now, engine.sla_monitor.fulfillments([vm0], now)[0])
                )

        watch_every_event(engine, observe)
        engine.run()
        assert drained == [(1040.0, 1.0 - 40.0 / 1000.0)]

    def test_progress_banked_outside_the_sweep(self):
        """A completion event that finds work left banks progress without
        a sweep.  That re-anchors ``eta`` at ``now``, which can move its
        last bit, so the VM is re-assessed there."""
        # Deadline == runtime: the 40 s creation makes every VM late, so
        # its fulfilment follows eta to the last bit.
        jobs = [make_job(i, 0.0, 5000.1234567 + 7.77 * i, cpu=70.0,
                         factor=1.0)
                for i in range(3)]
        engine = sla_engine(ClusterSpec.homogeneous(1), jobs)
        engine.start()
        moved = 0
        for now in (1234.567, 2345.678901, 3456.1234567):
            engine.sim.run(until=now)
            for vm in [vm for vm in engine._live.values()
                       if vm.state is VmState.RUNNING]:
                before = fulfillment(vm, now)
                engine._on_completion(vm)
                moved += fulfillment(vm, now) != before
                assert_index_matches(engine)
        assert moved > 0


# --------------------------------------------------------- monitor alone


def vm_in_state(state, *, submit=0.0, runtime=1000.0, factor=1.5,
                share=100.0, done=0.0, lpt=0.0, cpu=100.0, vm_id=0):
    vm = Vm(make_job(vm_id, submit, runtime, cpu=cpu, factor=factor))
    vm.state = state
    vm.share = share
    vm.work_done = done
    vm.last_progress_t = lpt
    return vm


class TestMonitorIndex:
    def test_time_driven_vms_flip_after_their_crossing(self):
        creating = vm_in_state(VmState.CREATING, vm_id=0)  # crosses at 500
        drained = vm_in_state(VmState.RUNNING, done=100_000.0, vm_id=1)
        monitor = SlaMonitor()
        monitor.rebuild([creating, drained], 0.0)
        for now in (0.0, 499.0, 500.0, np.nextafter(500.0, 1e9), 1500.0,
                    np.nextafter(1500.0, 1e9), 3000.0):
            monitor.verify([creating, drained], now)
        assert [vm.vm_id for vm in monitor.violators(1600.0)] == [0, 1]

    def test_reassessing_a_creating_vm_keeps_its_status(self):
        vm = vm_in_state(VmState.CREATING)
        monitor = SlaMonitor()
        monitor.rebuild([vm], 0.0)
        assert monitor.violators(600.0) == [vm]
        monitor.assess([vm], 700.0)
        assert monitor.violators(700.0) == [vm]
        assert monitor._due == []  # no second crossing entry was pushed

    def test_a_changed_offset_moves_the_crossing(self):
        """A time-driven VM re-assessed with a new offset gets a new
        crossing: here a running VM with no work left (crossing at 1500 s)
        is re-assessed in creation with all its work ahead (crossing at
        500 s)."""
        vm = vm_in_state(VmState.RUNNING, done=100_000.0)
        monitor = SlaMonitor()
        monitor.rebuild([vm], 0.0)
        vm.state = VmState.CREATING
        vm.work_done = 0.0
        monitor.assess([vm], 0.0)
        for now in (499.0, 600.0, 1600.0):
            monitor.verify([vm], now)

    def test_discard_and_requeue(self):
        vm = vm_in_state(VmState.RUNNING, share=10.0)
        monitor = SlaMonitor()
        monitor.rebuild([vm], 0.0)
        assert monitor.running_violation(0.0)
        vm.state = VmState.QUEUED
        monitor.discard(vm)
        assert not monitor.running_violation(0.0)
        monitor.verify([], 0.0)

    def test_verify_names_a_stale_value(self):
        vm = vm_in_state(VmState.RUNNING, share=100.0)
        monitor = SlaMonitor()
        monitor.rebuild([vm], 0.0)
        vm.share = 10.0  # changed behind the index's back
        with pytest.raises(StateError, match="vm 0"):
            monitor.verify([vm], 0.0)

    def test_violators_in_arrival_order(self):
        late = vm_in_state(VmState.RUNNING, share=10.0, vm_id=5)
        early = vm_in_state(VmState.RUNNING, share=10.0, vm_id=9)
        monitor = SlaMonitor()
        monitor.admit(early)
        monitor.admit(late)
        monitor.assess([late, early], 0.0)
        assert [vm.vm_id for vm in monitor.violators(0.0)] == [9, 5]

    def test_pickle_leaves_the_index_out(self):
        vm = vm_in_state(VmState.RUNNING, share=10.0)
        monitor = SlaMonitor()
        monitor.rebuild([vm], 0.0)
        monitor.check(0.0)
        state = monitor.__getstate__()
        assert state["violations"] == 1
        assert not {"_fixed", "_timed", "_due", "_violators"} & state.keys()
        clone = pickle.loads(pickle.dumps(monitor))
        assert clone.violations == 1 and clone.violators(0.0) == []

    def test_hand_built_context_scans_placed(self):
        vm = vm_in_state(VmState.RUNNING, share=10.0)
        ctx = SchedulingContext(now=0.0, hosts=[], queued=(), placed=(vm,))
        assert ctx.sla.running_violation(0.0)
        assert ctx.sla.fulfillments([vm], 0.0) == {0: fulfillment(vm, 0.0)}


# ------------------------------------------------------ snapshot restore


class TestRestore:
    def test_resume_at_every_snapshot_with_sla_on(self, tmp_path):
        """The index is rebuilt on restore: resuming anywhere reproduces
        an SLA-on, fault-on run bit for bit."""
        def build(ckpt):
            cfg = SyntheticConfig(horizon_s=8 * HOUR, base_rate_per_hour=30.0,
                                  night_fraction=0.9, deadline_lo=1.0,
                                  deadline_hi=1.3)
            return DatacenterSimulation(
                cluster=ClusterSpec.homogeneous(5),
                policy=ScoreBasedPolicy(ScoreConfig.full()),
                trace=Grid5000WeekGenerator(cfg, seed=4).generate(),
                config=EngineConfig(
                    seed=4,
                    faults=FaultConfig.uniform(0.1),
                    trace_events=True,
                    checkpoint_dir=str(ckpt) if ckpt else None,
                    checkpoint_sim_interval_s=2 * HOUR if ckpt else None,
                ),
            )

        ref_engine = build(tmp_path)
        ref = ref_engine.run().canonical()
        assert ref["sla_violations"] > 0
        ref_trace = list(ref_engine.trace_log)
        snaps = list_snapshots(ref_engine._snapshotter.directory)
        assert len(snaps) >= 2
        for path in snaps:
            resumed = load_snapshot(path)
            resumed.sla_monitor.verify(resumed._placed_iter(), resumed.sim.now)
            resumed.adopt_operational(EngineConfig(seed=4))
            assert resumed.run().canonical() == ref, path.name
            assert list(resumed.trace_log) == ref_trace, path.name


# --------------------------------------------------------- cost per round


class _SlaReadingRoundRobin(SchedulingPolicy):
    """Places each queued VM on host ``vm_id mod hosts`` and reads the SLA
    index the way the score policy does (violation probe, fulfilment of
    every queued and running column), at a fraction of a climb's cost."""

    config = ScoreConfig.full()

    def decide(self, ctx):
        ctx.sla.running_violation(ctx.now)
        ctx.sla.fulfillments(list(ctx.queued) + ctx.movable, ctx.now)
        n = len(ctx.hosts)
        return [Place(vm_id=vm.vm_id, host_id=vm.vm_id % n) for vm in ctx.queued]


def count_per_round(monkeypatch, n_hosts):
    """``fulfillment`` evaluations per round once ``2 * n_hosts`` long jobs
    run, under the same stream of short arrivals at every size.  Strict
    invariants are off: their oracle is a full scan by design."""
    monkeypatch.delenv("REPRO_STRICT_INVARIANTS", raising=False)
    long_jobs = [make_job(i, 0.0, 20 * HOUR, cpu=100.0, factor=3.0)
                 for i in range(2 * n_hosts)]
    short = [make_job(2 * n_hosts + i, 2 * HOUR + 60.0 * i, 600.0, cpu=50.0)
             for i in range(60)]
    engine = DatacenterSimulation(
        cluster=ClusterSpec.homogeneous(n_hosts),
        policy=_SlaReadingRoundRobin(),
        trace=Trace(long_jobs + short),
        pm_config=PowerManagerConfig(lambda_min=0.0, lambda_max=1.0),
        config=EngineConfig(seed=1, initial_on=n_hosts),
    )
    window = (2 * HOUR, 3 * HOUR)
    calls = [0]
    rounds = [0]
    real = sla_monitor.fulfillment

    def counted(vm, now):
        if window[0] <= now < window[1]:
            calls[0] += 1
        return real(vm, now)

    monkeypatch.setattr(sla_monitor, "fulfillment", counted)
    real_round = engine._round

    def counted_round():
        if window[0] <= engine.sim.now < window[1]:
            rounds[0] += 1
        real_round()

    engine._round = counted_round
    engine.start()
    engine.sim.run(until=window[1])
    placed = sum(1 for vm in engine._live.values() if vm.is_placed)
    assert placed >= 2 * n_hosts
    assert rounds[0] >= 60
    return calls[0] / rounds[0]


def test_evaluations_per_round_do_not_grow_with_placed_vms(monkeypatch):
    small = count_per_round(monkeypatch, 100)
    large = count_per_round(monkeypatch, 1000)
    # A full scan per round would cost ten times as much at 1000 hosts.
    assert large <= 1.5 * small + 1.0, (small, large)


# --------------------------------------------- observed-reliability vector


class _RebuildChecked(ScoreBasedPolicy):
    """Checks every bind against a one-shot matrix whose reliability
    vector is read afresh from the tracker, host by host."""

    binds = 0

    def _builder(self, ctx, columns, fulfills):
        matrix = super()._builder(ctx, columns, fulfills)
        fresh = [self.reliability_source.score(h.host_id) for h in ctx.hosts]
        assert np.array_equal(matrix._rel, fresh)
        matrix.verify_against_fresh(columns, ctx.now, fulfills, fresh)
        self.binds += 1
        return matrix


class TestReliabilityVector:
    def test_moved_hosts_only(self):
        obs = ObservedReliability({0: 1.0, 1: 0.9}, alpha=0.5)
        obs.record_success(0)  # already 1.0: does not move
        obs.record_success(1)
        obs.record_failure(0)
        assert obs.drain_moved() == {0, 1}
        assert obs.drain_moved() == set()

    def test_matrix_cells_equal_a_per_round_rebuild_over_chaos(self):
        cfg = SyntheticConfig(horizon_s=6 * HOUR, base_rate_per_hour=40.0,
                              night_fraction=0.9)
        policy = _RebuildChecked(ScoreConfig.full(use_observed_reliability=True))
        engine = DatacenterSimulation(
            cluster=ClusterSpec.homogeneous(8),
            policy=policy,
            trace=Grid5000WeekGenerator(cfg, seed=2).generate(),
            config=EngineConfig(seed=2, faults=FaultConfig.uniform(0.15),
                                observed_reliability=True),
        )
        result = engine.run()
        assert policy.binds > 50
        assert result.failed_creations + result.aborted_migrations > 0
