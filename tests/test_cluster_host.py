"""Tests for hosts, VMs and residency (:mod:`repro.cluster.host`)."""

import pytest

from repro.cluster.host import Host, HostState, Operation, OperationKind
from repro.cluster.power import TablePowerModel
from repro.cluster.spec import FAST, MEDIUM, SLOW, ClusterSpec, HostSpec
from repro.cluster.vm import Vm, VmState
from repro.cluster.xen import ShareMemo, compute_shares
from repro.errors import CapacityError, ConfigurationError, StateError
from repro.workload.job import Job


def make_vm(vm_id=1, cpu=100.0, mem=512.0, runtime=600.0, **job_kw):
    job = Job(job_id=vm_id, submit_time=0.0, runtime_s=runtime,
              cpu_pct=cpu, mem_mb=mem, **job_kw)
    return Vm(job)


def make_host(host_id=0, state=HostState.ON, **kw):
    return Host(HostSpec(host_id=host_id, **kw), initial_state=state)


class TestSpec:
    def test_paper_datacenter_composition(self):
        spec = ClusterSpec.paper_datacenter()
        by_class = {k: len(v) for k, v in spec.by_class().items()}
        assert by_class == {"fast": 15, "medium": 50, "slow": 35}
        assert len(spec) == 100

    def test_paper_class_overheads(self):
        assert (FAST.creation_s, FAST.migration_s) == (30.0, 40.0)
        assert (MEDIUM.creation_s, MEDIUM.migration_s) == (40.0, 60.0)
        assert (SLOW.creation_s, SLOW.migration_s) == (60.0, 80.0)

    def test_interleaving_spreads_classes(self):
        spec = ClusterSpec.paper_datacenter()
        first_20 = {h.node_class.name for h in list(spec)[:20]}
        assert len(first_20) == 3  # all classes present early

    def test_duplicate_ids_rejected(self):
        spec = HostSpec(host_id=1)
        with pytest.raises(ConfigurationError):
            ClusterSpec([spec, HostSpec(host_id=1)])

    def test_empty_cluster_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec([])

    def test_cpu_capacity_from_cores(self):
        assert HostSpec(host_id=0, ncpus=4).cpu_capacity == 400.0

    def test_power_model_rescaled_to_host_width(self):
        spec = HostSpec(host_id=0, ncpus=8)
        assert spec.power_model.capacity == 800.0
        assert spec.power_model.power(800.0) == 304.0

    def test_hosts_of_one_class_share_one_scaled_model(self):
        spec = ClusterSpec.paper_datacenter()
        models = {id(h.power_model) for h in spec}
        assert len(models) == 1
        wide = HostSpec(host_id=1, ncpus=8)
        assert wide.power_model is HostSpec(host_id=2, ncpus=8).power_model
        assert wide.power_model is not spec[0].power_model
        assert wide.power_model == TablePowerModel().scaled_to(800.0)

    def test_equal_tables_of_other_types_keep_their_own_repr(self):
        """Models are shared by identity: an equal table written with
        ints still reprs with ints (a config fingerprint reads it)."""
        ints = TablePowerModel(points=((0, 230), (400, 304)))
        floats = TablePowerModel(points=((0.0, 230.0), (400.0, 304.0)))
        a = HostSpec(host_id=0, power_model=ints)
        b = HostSpec(host_id=1, power_model=floats)
        assert a.power_model == b.power_model
        assert repr(a.power_model) == repr(ints.scaled_to(400.0))
        assert repr(b.power_model) == repr(floats.scaled_to(400.0))
        assert repr(a.power_model) != repr(b.power_model)

    def test_invalid_reliability_rejected(self):
        with pytest.raises(ConfigurationError):
            HostSpec(host_id=0, reliability=0.0)

    def test_homogeneous_builder(self):
        spec = ClusterSpec.homogeneous(5, node_class=SLOW)
        assert len(spec) == 5
        assert all(h.node_class is SLOW for h in spec)


class TestOccupation:
    def test_paper_example(self):
        """§III-A-2's example: (10% mem, 50% cpu) + (65% mem, 30% cpu) = 80%."""
        host = make_host(ncpus=4, mem_mb=1000.0)
        host.add_vm(make_vm(1, cpu=0.50 * 400, mem=100.0))
        host.add_vm(make_vm(2, cpu=0.30 * 400, mem=650.0))
        assert host.occupation() == pytest.approx(0.80)

    def test_memory_can_dominate(self):
        host = make_host(mem_mb=1000.0)
        host.add_vm(make_vm(1, cpu=40.0, mem=900.0))
        assert host.occupation() == pytest.approx(0.9)

    def test_reservations_count(self):
        host = make_host()
        host.reserve(make_vm(1, cpu=200.0))
        assert host.cpu_reserved() == 200.0
        assert host.n_vms == 1

    def test_fits_rejects_overflow(self):
        host = make_host(ncpus=4)
        host.add_vm(make_vm(1, cpu=300.0))
        assert host.fits(make_vm(2, cpu=200.0)) is False
        assert host.fits(make_vm(3, cpu=100.0)) is True

    def test_fits_true_for_resident(self):
        host = make_host()
        vm = make_vm(1, cpu=400.0)
        host.add_vm(vm)
        assert host.fits(vm) is True

    def test_reserve_beyond_capacity_rejected(self):
        host = make_host(ncpus=4)
        host.add_vm(make_vm(1, cpu=350.0))
        with pytest.raises(CapacityError):
            host.reserve(make_vm(2, cpu=100.0))


class TestExclusivity:
    def test_exclusive_vm_reserves_whole_node(self):
        host = make_host(ncpus=4, mem_mb=4096.0)
        vm = make_vm(1, cpu=100.0, mem=256.0)
        vm.exclusive = True
        host.add_vm(vm)
        assert host.cpu_reserved() == 400.0
        assert host.mem_reserved() == 4096.0
        assert host.occupation() == pytest.approx(1.0)

    def test_exclusive_vm_needs_empty_host(self):
        host = make_host()
        host.add_vm(make_vm(1, cpu=50.0))
        newcomer = make_vm(2, cpu=50.0)
        newcomer.exclusive = True
        assert host.fits(newcomer) is False

    def test_nothing_fits_next_to_exclusive(self):
        host = make_host()
        vm = make_vm(1, cpu=50.0)
        vm.exclusive = True
        host.add_vm(vm)
        assert host.fits(make_vm(2, cpu=50.0)) is False


class TestRequirements:
    def test_arch_mismatch(self):
        host = make_host(arch="x86_64")
        job = Job(job_id=1, submit_time=0, runtime_s=60, cpu_pct=100,
                  mem_mb=256, arch="arm64")
        assert host.meets_requirements(job) is False

    def test_hypervisor_mismatch(self):
        host = make_host(hypervisor="xen")
        job = Job(job_id=1, submit_time=0, runtime_s=60, cpu_pct=100,
                  mem_mb=256, hypervisor="kvm")
        assert host.meets_requirements(job) is False

    def test_oversized_job(self):
        host = make_host(ncpus=4)
        job = Job(job_id=1, submit_time=0, runtime_s=60, cpu_pct=800.0, mem_mb=256)
        assert host.meets_requirements(job) is False

    def test_matching_job(self):
        job = Job(job_id=1, submit_time=0, runtime_s=60, cpu_pct=100, mem_mb=256)
        assert make_host().meets_requirements(job) is True


class TestResidency:
    def test_add_remove(self):
        host = make_host()
        vm = make_vm(1)
        host.add_vm(vm)
        assert vm.host_id == host.host_id
        removed = host.remove_vm(1)
        assert removed is vm
        assert not host.vms

    def test_double_add_rejected(self):
        host = make_host()
        vm = make_vm(1)
        host.add_vm(vm)
        with pytest.raises(StateError):
            host.add_vm(vm)

    def test_remove_missing_rejected(self):
        with pytest.raises(StateError):
            make_host().remove_vm(42)

    def test_add_to_off_host_rejected(self):
        host = make_host(state=HostState.OFF)
        with pytest.raises(StateError):
            host.add_vm(make_vm(1))


class TestShares:
    def test_uncontended_vm_gets_requirement(self):
        host = make_host()
        vm = make_vm(1, cpu=150.0)
        vm.state = VmState.RUNNING
        host.add_vm(vm)
        host.recompute_shares(ShareMemo())
        assert vm.share == pytest.approx(150.0)
        assert host.cpu_used == pytest.approx(150.0)

    def test_creating_vm_gets_no_share(self):
        host = make_host()
        vm = make_vm(1, cpu=150.0)
        vm.state = VmState.CREATING
        host.add_vm(vm)
        host.recompute_shares(ShareMemo())
        assert vm.share == 0.0

    def test_operation_overhead_squeezes_guests(self):
        host = make_host(ncpus=4, creation_cpu_pct=100.0)
        vms = []
        for i in range(1, 5):
            vm = make_vm(i, cpu=100.0)
            vm.state = VmState.RUNNING
            host.add_vm(vm)
            vms.append(vm)
        host.begin_operation(Operation(OperationKind.CREATE, 99, 100.0, 0.0, 40.0))
        host.recompute_shares(ShareMemo())
        # 500% demanded on 400%: proportional squeeze to 80 each.
        for vm in vms:
            assert vm.share == pytest.approx(80.0)
        assert host.cpu_used == pytest.approx(400.0)

    def test_off_host_gives_no_shares(self):
        host = make_host()
        vm = make_vm(1)
        vm.state = VmState.RUNNING
        host.add_vm(vm)
        host.state = HostState.OFF
        host.recompute_shares(ShareMemo())
        assert vm.share == 0.0

    def test_memo_keys_on_capacity_and_weights(self):
        """Problems that differ only in capacity, or only in weights, each
        get their own memo entry and their own exact solution."""
        memo = ShareMemo()

        def solve(ncpus, reqs):
            host = make_host(ncpus=ncpus)
            vms = []
            for i, req in enumerate(reqs, 1):
                vm = make_vm(i, cpu=300.0)
                vm.state = VmState.RUNNING
                vm.cpu_req = req
                host.add_vm(vm)
                vms.append(vm)
            host.recompute_shares(memo)
            return [vm.share for vm in vms]

        base = solve(4, [300.0, 300.0])
        wider = solve(8, [300.0, 300.0])
        skewed = solve(4, [300.0, 100.0])
        assert (memo.misses, memo.hits, len(memo)) == (3, 0, 3)
        assert base == compute_shares(400.0, [300.0] * 2).tolist()
        assert wider == compute_shares(800.0, [300.0] * 2).tolist()
        assert skewed == compute_shares(
            400.0, [300.0] * 2, [300.0, 100.0]
        ).tolist()
        assert len({tuple(base), tuple(wider), tuple(skewed)}) == 3


class TestOperations:
    def test_begin_end_cycle(self):
        host = make_host()
        op = Operation(OperationKind.CREATE, 1, 100.0, 0.0, 40.0)
        host.begin_operation(op)
        assert host.concurrency_cost == host.spec.creation_s
        host.end_operation(OperationKind.CREATE, 1)
        assert host.concurrency_cost == 0.0

    def test_end_missing_rejected(self):
        with pytest.raises(StateError):
            make_host().end_operation(OperationKind.CREATE, 1)

    def test_concurrency_cost_mixes_kinds(self):
        host = make_host(node_class=MEDIUM)
        host.begin_operation(Operation(OperationKind.CREATE, 1, 100.0, 0.0, 40.0))
        host.begin_operation(Operation(OperationKind.MIGRATE_IN, 2, 50.0, 0.0, 60.0))
        assert host.concurrency_cost == pytest.approx(40.0 + 60.0)

    def test_operation_counters(self):
        host = make_host()
        host.begin_operation(Operation(OperationKind.CREATE, 1, 100.0, 0.0, 40.0))
        host.begin_operation(Operation(OperationKind.MIGRATE_OUT, 2, 50.0, 0.0, 60.0))
        assert host.total_creations == 1
        assert host.total_migrations_out == 1


class TestPower:
    def test_off_draws_nothing(self):
        assert make_host(state=HostState.OFF).power_watts() == 0.0

    def test_failed_draws_nothing(self):
        assert make_host(state=HostState.FAILED).power_watts() == 0.0

    def test_booting_draws_peak(self):
        host = make_host(state=HostState.BOOTING)
        assert host.power_watts() == host.spec.boot_watts == 304.0

    def test_idle_on_draws_idle(self):
        host = make_host()
        host.recompute_shares(ShareMemo())
        assert host.power_watts() == 230.0

    def test_loaded_host_follows_table_i(self):
        host = make_host()
        vm = make_vm(1, cpu=400.0)
        vm.state = VmState.RUNNING
        host.add_vm(vm)
        host.recompute_shares(ShareMemo())
        assert host.power_watts() == pytest.approx(304.0)


class TestStateFlags:
    def test_is_idle(self):
        host = make_host()
        assert host.is_idle
        host.add_vm(make_vm(1))
        assert not host.is_idle

    def test_is_working_with_reservation(self):
        host = make_host()
        host.reserve(make_vm(1))
        assert host.is_working
