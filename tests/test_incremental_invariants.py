"""Property tests for the O(dirty) incremental state of PR 2.

Three layers of incremental bookkeeping replaced from-scratch scans:

* :class:`Host` occupancy aggregates (cached cpu/mem sums for residents
  and reservations, the exclusive counter) behind ``cpu_reserved`` /
  ``mem_reserved`` / ``has_exclusive``;
* :meth:`Host.recompute_shares`'s positional credit-scheduler interface
  (replacing the f-string-keyed dict round trip);
* :class:`MetricsCollector`'s delta-maintained node-state totals, fed by
  per-host transitions from the engine's dirty sweep;
* the long-lived score matrix's row copies of the hosts, patched from
  its dirty sink instead of re-read each round.

Each one claims *bit-identity* with the historical computation, so every
test here compares exactly (``==`` / ``assert_array_equal``), never
approximately.  Random operation sequences drive the caches through
their invalidation paths (removal, in-place SLA inflation, evacuation),
and an end-to-end engine run audits every ``_refresh`` against the
from-scratch oracles.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.host import Host, HostState, Operation, OperationKind
from repro.cluster.spec import FAST, MEDIUM, SLOW, HostSpec
from repro.cluster.vm import Vm, VmState
from repro.cluster.xen import ShareMemo, compute_shares
from repro.engine.config import EngineConfig
from repro.engine.datacenter import DatacenterSimulation
from repro.errors import CapacityError, StateError
from repro.experiments.common import lambda_config, paper_cluster, paper_trace
from repro.scheduling.score import (
    ScoreConfig,
    ScoreMatrixBuilder,
    ScoreBasedPolicy,
    hill_climb,
)
from repro.scheduling.score.persistent import PersistentScoreMatrix
from repro.workload.job import Job

CLASSES = [FAST, MEDIUM, SLOW]


def make_vm(vm_id, cpu=100.0, mem=512.0, runtime=3600.0, exclusive=False):
    job = Job(job_id=vm_id, submit_time=0.0, runtime_s=runtime,
              cpu_pct=cpu, mem_mb=mem)
    vm = Vm(job)
    vm.exclusive = exclusive
    return vm


# --------------------------------------------------------------------------
# Host occupancy aggregates vs the historical from-scratch formula.
# --------------------------------------------------------------------------

def legacy_cpu_reserved(host, extra=0.0):
    """The pre-aggregate formula, summed in residency order."""
    if any(vm.exclusive for vm in host.vms.values()):
        return host.spec.cpu_capacity + extra
    total = sum(vm.cpu_req for vm in host.vms.values())
    total += sum(cpu for cpu, _ in host.reservations.values())
    return total + extra


def legacy_mem_reserved(host, extra=0.0):
    if any(vm.exclusive for vm in host.vms.values()):
        return host.spec.mem_mb + extra
    total = sum(vm.mem_req for vm in host.vms.values())
    total += sum(mem for _, mem in host.reservations.values())
    return total + extra


def assert_host_matches_legacy(host):
    """Aggregate reads are bit-identical to the from-scratch sums."""
    assert host.verify_aggregates()
    assert host.cpu_reserved() == legacy_cpu_reserved(host)
    assert host.mem_reserved() == legacy_mem_reserved(host)
    assert host.cpu_reserved(extra_cpu=37.5) == legacy_cpu_reserved(host, 37.5)
    assert host.mem_reserved(extra_mem=96.0) == legacy_mem_reserved(host, 96.0)
    assert host.has_exclusive() == any(
        vm.exclusive for vm in host.vms.values()
    )


class TestHostAggregates:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_actions=st.integers(1, 60),
        quantized=st.booleans(),
    )
    def test_random_sequences_match_from_scratch(
        self, seed, n_actions, quantized
    ):
        """add/remove/reserve/release/inflate/fail sequences keep the
        cached aggregates exactly equal to the legacy recomputation.

        ``quantized`` draws requirement values with short binary
        fractions (the synthetic workload's shape); the other branch uses
        raw lognormal-style floats, where the memoized ordered-sum design
        must *still* be exact because reads re-sum in residency order
        rather than delta-adjusting.
        """
        rng = np.random.default_rng(seed)
        host = Host(
            HostSpec(host_id=0, node_class=CLASSES[int(rng.integers(3))]),
            initial_state=HostState.ON,
        )
        next_id = 0
        resident = []     # vm objects on the host
        reserved = []     # vm ids holding reservations

        def draw_cpu():
            if quantized:
                return float(rng.choice([25.0, 50.0, 100.0, 200.0]))
            return float(rng.lognormal(4.0, 0.8))

        def draw_mem():
            if quantized:
                return float(rng.choice([64.0, 256.0, 512.0, 1024.0]))
            return float(rng.lognormal(6.0, 1.0))

        for _ in range(n_actions):
            action = rng.integers(7)
            if action == 0:  # add a VM
                next_id += 1
                excl = rng.random() < 0.1 and host.n_vms == 0
                vm = make_vm(next_id, cpu=draw_cpu(), mem=draw_mem(),
                             exclusive=excl)
                host.add_vm(vm)
                resident.append(vm)
            elif action == 1 and resident:  # remove one
                vm = resident.pop(int(rng.integers(len(resident))))
                host.remove_vm(vm.vm_id)
            elif action == 2:  # reserve for an inbound migration
                next_id += 1
                vm = make_vm(next_id, cpu=draw_cpu(), mem=draw_mem())
                try:
                    host.reserve(vm)
                    reserved.append(vm.vm_id)
                except CapacityError:
                    pass
            elif action == 3 and reserved:  # release a reservation
                host.release_reservation(
                    reserved.pop(int(rng.integers(len(reserved))))
                )
            elif action == 4 and resident:  # in-place SLA inflation
                vm = resident[int(rng.integers(len(resident)))]
                vm.inflate()
                host.note_requirement_change(vm)
            elif action == 5 and rng.random() < 0.15:  # host failure
                host.evacuate()
                resident.clear()
                reserved.clear()
            # action == 6: no-op event — reads must stay consistent too.
            assert_host_matches_legacy(host)
            # occupation/fits read the aggregates; they must agree with
            # the legacy fractions.
            occ = host.occupation()
            assert occ == max(
                legacy_cpu_reserved(host) / host.spec.cpu_capacity,
                legacy_mem_reserved(host) / host.spec.mem_mb,
            )

    def test_release_unknown_reservation_keeps_cache_valid(self):
        host = Host(HostSpec(host_id=0), initial_state=HostState.ON)
        host.reserve(make_vm(1, cpu=50.0))
        before = host.cpu_reserved()
        host.release_reservation(999)  # absent: must not invalidate
        assert host._rsv_sums_valid
        assert host.cpu_reserved() == before

    def test_note_requirement_change_ignores_foreign_vm(self):
        host = Host(HostSpec(host_id=0), initial_state=HostState.ON)
        host.add_vm(make_vm(1))
        host.note_requirement_change(make_vm(2))  # not resident
        assert host._vm_sums_valid
        assert_host_matches_legacy(host)

    def test_verify_aggregates_detects_corruption(self):
        host = Host(HostSpec(host_id=0), initial_state=HostState.ON)
        host.add_vm(make_vm(1, cpu=100.0))
        host._vm_cpu_sum += 1.0  # simulate a bookkeeping bug
        with pytest.raises(StateError):
            host.verify_aggregates()


# --------------------------------------------------------------------------
# recompute_shares: positional interface vs the dict-keyed legacy path.
# --------------------------------------------------------------------------

def legacy_recompute_shares(host):
    """The seed's share computation: f-string keys and dict round trips.

    Returns (shares_by_vm_id, cpu_used) without mutating the host, so it
    can be compared against :meth:`Host.recompute_shares` on the same
    state.
    """
    if not host.is_on:
        return {vm.vm_id: 0.0 for vm in host.vms.values()}, 0.0
    demands = {}
    weights = {}
    for vm in host.vms.values():
        if vm.state in (VmState.RUNNING, VmState.MIGRATING):
            demands[f"vm:{vm.vm_id}"] = vm.job.cpu_pct
            weights[f"vm:{vm.vm_id}"] = vm.cpu_req
    for i, op in enumerate(host.operations):
        demands[f"op:{i}"] = op.cpu_overhead
        weights[f"op:{i}"] = op.cpu_overhead
    out = {}
    if demands:
        solved = compute_shares(
            float(host.spec.cpu_capacity),
            list(demands.values()),
            list(weights.values()),
        )
        shares = {name: float(s) for name, s in zip(demands, solved)}
        for vm in host.vms.values():
            key = f"vm:{vm.vm_id}"
            if key in shares:
                out[vm.vm_id] = shares[key]
        total = sum(shares.values())
    else:
        total = 0.0
    for vm in host.vms.values():
        if vm.state is VmState.CREATING:
            out[vm.vm_id] = 0.0
    return out, total


class TestRecomputeSharesIdentity:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_vms=st.integers(0, 10),
        n_ops=st.integers(0, 4),
        inflate=st.booleans(),
        powered=st.booleans(),
    )
    def test_shares_bit_identical_to_dict_reference(
        self, seed, n_vms, n_ops, inflate, powered
    ):
        rng = np.random.default_rng(seed)
        host = Host(
            HostSpec(host_id=0, node_class=CLASSES[int(rng.integers(3))]),
            initial_state=HostState.ON if powered else HostState.OFF,
        )
        states = [VmState.RUNNING, VmState.MIGRATING, VmState.CREATING]
        for i in range(n_vms):
            vm = make_vm(i + 1, cpu=float(rng.choice([50.0, 100.0, 200.0, 300.0])))
            vm.state = states[int(rng.integers(3))]
            if host.is_available:
                host.add_vm(vm)
            else:
                host.vms[vm.vm_id] = vm  # stale residents on an OFF host
            if inflate and rng.random() < 0.5:
                vm.inflate()
        for i in range(n_ops):
            host.operations.append(Operation(
                kind=OperationKind.CREATE if rng.random() < 0.5
                else OperationKind.MIGRATE_IN,
                vm_id=1000 + i,
                cpu_overhead=float(rng.choice([10.0, 15.0, 25.0])),
                started_at=0.0,
                duration=60.0,
            ))

        expect_shares, expect_used = legacy_recompute_shares(host)
        host.recompute_shares(ShareMemo())
        assert host.cpu_used == expect_used
        for vm in host.vms.values():
            if vm.vm_id in expect_shares:
                assert vm.share == expect_shares[vm.vm_id], vm.vm_id


# --------------------------------------------------------------------------
# Host-array cache (the long-lived matrix): cached host arrays change nothing.
# --------------------------------------------------------------------------

def random_cluster(rng, n_hosts, n_queued, n_placed, sla=False):
    hosts = []
    for i in range(n_hosts):
        spec = HostSpec(host_id=i, node_class=CLASSES[int(rng.integers(3))])
        state = HostState.ON if rng.random() > 0.15 else HostState.OFF
        hosts.append(Host(spec, initial_state=state))
    on_hosts = [h for h in hosts if h.state is HostState.ON]
    columns = []
    vm_id = 0
    for _ in range(n_queued):
        vm_id += 1
        columns.append(make_vm(vm_id, cpu=float(rng.choice([50.0, 100.0, 200.0]))))
    for _ in range(n_placed):
        if not on_hosts:
            break
        vm_id += 1
        vm = make_vm(vm_id, cpu=float(rng.choice([50.0, 100.0])))
        vm.state = VmState.RUNNING
        on_hosts[int(rng.integers(len(on_hosts)))].add_vm(vm)
        columns.append(vm)
    fulfills = None
    if sla:
        fulfills = {vm.vm_id: float(rng.choice([1.0, 0.9, 0.6])) for vm in columns}
    return hosts, columns, fulfills


class TestHostArrayCache:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_hosts=st.integers(2, 12),
        n_queued=st.integers(1, 8),
        n_placed=st.integers(0, 6),
        sla=st.booleans(),
    )
    def test_long_lived_matrix_is_bit_identical_to_a_one_shot(
        self, seed, n_hosts, n_queued, n_placed, sla
    ):
        rng = np.random.default_rng(seed)
        hosts, columns, fulfills = random_cluster(
            rng, n_hosts, n_queued, n_placed, sla=sla
        )
        cfg = ScoreConfig.full() if sla else ScoreConfig.sb()
        fresh = ScoreMatrixBuilder(hosts, columns, 100.0, cfg,
                                   fulfillments=fulfills)
        cached = PersistentScoreMatrix(hosts, cfg)
        cached.attach()
        cached.bind_round(columns, 100.0, fulfills)
        np.testing.assert_array_equal(
            fresh.scores, cached.scores[:, cached._round_slots]
        )
        np.testing.assert_array_equal(fresh.current_costs(),
                                      cached.current_costs())
        # The solver sees identical matrices, so identical move sequences
        # (apply_move mutates matrix-internal state only).
        moves_fresh = hill_climb(fresh)
        moves_cached = hill_climb(cached)
        assert [(m.vm_id, m.host_id, m.gain) for m in moves_fresh] == [
            (m.vm_id, m.host_id, m.gain) for m in moves_cached
        ]

    def test_matches_accepts_same_hosts_rejects_others(self):
        rng = np.random.default_rng(0)
        hosts, _, _ = random_cluster(rng, 4, 0, 0)
        cache = PersistentScoreMatrix(hosts, ScoreConfig.sb())
        assert cache.matches(hosts)           # identity fast path
        assert cache.matches(list(hosts))     # same objects, new list
        other, _, _ = random_cluster(rng, 4, 0, 0)
        assert not cache.matches(other)
        assert not cache.matches(hosts[:3])

    def test_policy_reuses_cache_across_rounds(self):
        rng = np.random.default_rng(1)
        hosts, columns, _ = random_cluster(rng, 6, 2, 0)
        policy = ScoreBasedPolicy(ScoreConfig.sb())
        from repro.scheduling.base import SchedulingContext

        ctx = SchedulingContext(now=0.0, hosts=hosts,
                                queued=tuple(columns), placed=())
        first = policy._long_lived_matrix(ctx)
        assert policy._long_lived_matrix(ctx) is first
        # A different cluster forces a rebuild.
        other, _, _ = random_cluster(rng, 6, 0, 0)
        ctx2 = SchedulingContext(now=0.0, hosts=other, queued=(), placed=())
        assert policy._long_lived_matrix(ctx2) is not first


# --------------------------------------------------------------------------
# End-to-end: every engine _refresh leaves the incremental state exactly
# equal to its from-scratch recomputation.
# --------------------------------------------------------------------------

class AuditedSimulation(DatacenterSimulation):
    """Engine oracle: audits all incremental state after every refresh."""

    audits = 0

    def _refresh(self):
        super()._refresh()
        self.audits += 1
        # Delta-maintained metrics totals == full host scan.
        assert self.metrics.verify_against_scan()
        # Host occupancy aggregates == from-scratch sums.
        for host in self.hosts:
            assert host.verify_aggregates()
        # The live set is exactly the active VMs, in arrival order.
        expect = [vid for vid, vm in self.vms.items() if vm.is_active]
        assert list(self._live.keys()) == expect


class TestEngineInvariants:
    @pytest.mark.parametrize("policy_cfg,engine_kwargs", [
        (ScoreConfig.sb(), {}),
        (
            ScoreConfig.full(),
            dict(
                enable_failures=True,
                checkpoint_interval_s=1800.0,
                checkpoint_cpu_pct=5.0,
            ),
        ),
    ], ids=["sb", "sb_full_failures_ckpt"])
    def test_full_run_keeps_invariants(self, policy_cfg, engine_kwargs):
        """A small end-to-end run (SLA inflation, failures, checkpoint
        cost ops in the full variant) never drifts from the from-scratch
        state.  This exercises every mutation path the engine has:
        placement, migration, completion, boots/shutdowns, evacuation on
        failure, repair, checkpoint operations and in-place inflation.
        """
        trace = paper_trace(scale=0.02, seed=12345)
        sim = AuditedSimulation(
            cluster=paper_cluster(12),
            policy=ScoreBasedPolicy(policy_cfg),
            trace=trace,
            pm_config=lambda_config(),
            config=EngineConfig(seed=12345, **engine_kwargs),
        )
        result = sim.run()
        assert sim.audits > 10
        assert result.n_jobs == len(trace)
        assert result.n_completed > 0
