"""Tests for the score matrix: vectorized kernel vs scalar reference.

The scalar functions in :mod:`repro.scheduling.score.penalties` are the
readable spec and the one independent oracle; the persistent score matrix
(here through its one-shot :class:`ScoreMatrixBuilder`) is the vectorized
production path.  The hypothesis test here generates random cluster
states — SLA fulfilments across the soft and hard bands, observed
per-host reliabilities — and checks the two agree cell by cell, so any
broadcasting bug fails loudly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.host import Host, HostState
from repro.cluster.spec import FAST, MEDIUM, SLOW, HostSpec
from repro.cluster.vm import Vm, VmState
from repro.errors import SchedulingError
from repro.scheduling.score import ScoreConfig, ScoreMatrixBuilder
from repro.scheduling.score.penalties import total_score
from repro.workload.job import Job

CLASSES = [FAST, MEDIUM, SLOW]


def make_vm(vm_id, cpu=100.0, mem=512.0, runtime=3600.0, submit=0.0, **job_kw):
    job = Job(job_id=vm_id, submit_time=submit, runtime_s=runtime,
              cpu_pct=cpu, mem_mb=mem, **job_kw)
    return Vm(job)


def make_host(host_id, node_class=MEDIUM, state=HostState.ON, **kw):
    return Host(HostSpec(host_id=host_id, node_class=node_class, **kw),
                initial_state=state)


def place(host, vm):
    vm.state = VmState.RUNNING
    host.add_vm(vm)


class TestMatrixBasics:
    def test_infinite_for_off_hosts(self):
        hosts = [make_host(0, state=HostState.OFF)]
        vm = make_vm(1)
        b = ScoreMatrixBuilder(hosts, [vm], 0.0, ScoreConfig.sb())
        assert math.isinf(b.scores[0, 0])

    def test_infinite_when_resources_exceeded(self):
        host = make_host(0)
        place(host, make_vm(1, cpu=350.0))
        b = ScoreMatrixBuilder([host], [make_vm(2, cpu=100.0)], 0.0, ScoreConfig.sb())
        assert math.isinf(b.scores[0, 0])

    def test_zero_virt_penalty_on_current_host(self):
        host = make_host(0)
        vm = make_vm(1)
        place(host, vm)
        cfg = ScoreConfig(enable_virt=True, enable_conc=False, enable_pwr=False)
        b = ScoreMatrixBuilder([host], [vm], 0.0, cfg)
        assert b.scores[0, 0] == 0.0

    def test_creation_cost_for_queued_vm(self):
        hosts = [make_host(0, node_class=FAST), make_host(1, node_class=SLOW)]
        vm = make_vm(1)
        cfg = ScoreConfig(enable_virt=True, enable_conc=False, enable_pwr=False)
        b = ScoreMatrixBuilder(hosts, [vm], 0.0, cfg)
        assert b.scores[0, 0] == pytest.approx(30.0)
        assert b.scores[1, 0] == pytest.approx(60.0)

    def test_migration_penalty_short_remaining_doubles(self):
        src, dst = make_host(0, node_class=MEDIUM), make_host(1, node_class=MEDIUM)
        vm = make_vm(1, runtime=3600.0)
        place(src, vm)
        cfg = ScoreConfig(enable_virt=True, enable_conc=False, enable_pwr=False)
        # At t close to the declared end, Tr < Cm: penalty doubles.
        late = 3600.0 - 10.0
        b = ScoreMatrixBuilder([src, dst], [vm], late, cfg)
        assert b.scores[1, 0] == pytest.approx(2 * 60.0)
        # Early on, the penalty is the standing friction Cm/2.
        b2 = ScoreMatrixBuilder([src, dst], [vm], 0.0, cfg)
        assert b2.scores[1, 0] == pytest.approx(30.0)

    def test_in_operation_vm_rejected_as_column(self):
        host = make_host(0)
        vm = make_vm(1)
        vm.state = VmState.CREATING
        host.add_vm(vm)
        with pytest.raises(SchedulingError):
            ScoreMatrixBuilder([host], [vm], 0.0, ScoreConfig.sb())

    @pytest.mark.parametrize("state", [VmState.COMPLETED, VmState.FAILED])
    def test_finished_vm_rejected_as_column(self, state):
        vm = make_vm(1)
        vm.state = state
        with pytest.raises(SchedulingError, match=f"vm 1 is {state.value} on host None"):
            ScoreMatrixBuilder([make_host(0)], [vm], 0.0, ScoreConfig.sb())

    def test_vm_running_off_the_matrix_rejected_as_column(self):
        vm = make_vm(1)
        place(make_host(7), vm)
        with pytest.raises(SchedulingError, match="vm 1 is running on host 7"):
            ScoreMatrixBuilder([make_host(0)], [vm], 0.0, ScoreConfig.sb())

    def test_empty_columns(self):
        b = ScoreMatrixBuilder([make_host(0)], [], 0.0, ScoreConfig.sb())
        assert b.n_cols == 0
        assert b.host_row_score(0) == 0.0


class TestCurrentCosts:
    def test_queued_vm_costs_queue_cost(self):
        b = ScoreMatrixBuilder([make_host(0)], [make_vm(1)], 0.0, ScoreConfig.sb())
        assert b.current_costs()[0] == ScoreConfig.sb().queue_cost

    def test_placed_vm_costs_its_cell(self):
        host = make_host(0)
        vm = make_vm(1)
        place(host, vm)
        b = ScoreMatrixBuilder([host], [vm], 0.0, ScoreConfig.sb())
        assert b.current_costs()[0] == pytest.approx(b.scores[0, 0])

    def test_infeasible_current_cell_maps_to_queue_cost(self):
        host = make_host(0)
        vm = make_vm(1, cpu=300.0)
        place(host, vm)
        vm.cpu_req = 500.0  # inflated beyond the host: current cell is inf
        b = ScoreMatrixBuilder([host], [vm], 0.0, ScoreConfig.sb())
        assert math.isinf(b.scores[0, 0])
        assert b.current_costs()[0] == ScoreConfig.sb().queue_cost


class TestApplyMove:
    def test_move_updates_reservations_and_freezes(self):
        hosts = [make_host(0), make_host(1)]
        vm = make_vm(1, cpu=100.0, mem=512.0)
        b = ScoreMatrixBuilder(hosts, [vm], 0.0, ScoreConfig.sb())
        b.apply_move(0, 1)
        assert b.res_cpu[1] == 100.0
        assert b.nvms[1] == 1
        assert b._frozen[0]
        assert not b.is_queued[0]

    def test_move_from_host_releases_source(self):
        hosts = [make_host(0), make_host(1)]
        vm = make_vm(1, cpu=100.0)
        place(hosts[0], vm)
        b = ScoreMatrixBuilder(hosts, [vm], 0.0, ScoreConfig.sb())
        b.apply_move(0, 1)
        assert b.res_cpu[0] == 0.0
        assert b.res_cpu[1] == 100.0

    def test_move_to_same_host_rejected(self):
        hosts = [make_host(0)]
        vm = make_vm(1)
        place(hosts[0], vm)
        b = ScoreMatrixBuilder(hosts, [vm], 0.0, ScoreConfig.sb())
        with pytest.raises(SchedulingError):
            b.apply_move(0, 0)

    def test_frozen_column_cannot_move_again(self):
        hosts = [make_host(0), make_host(1)]
        b = ScoreMatrixBuilder(hosts, [make_vm(1)], 0.0, ScoreConfig.sb())
        b.apply_move(0, 0)
        with pytest.raises(SchedulingError):
            b.apply_move(0, 1)

    def test_pending_concurrency_visible_to_later_columns(self):
        hosts = [make_host(0)]
        vms = [make_vm(1), make_vm(2)]
        cfg = ScoreConfig(enable_virt=False, enable_conc=True, enable_pwr=False)
        b = ScoreMatrixBuilder(hosts, vms, 0.0, cfg)
        before = b.scores[0, 1]
        b.apply_move(0, 0)
        after = b.scores[0, 1]
        assert after == pytest.approx(before + hosts[0].spec.creation_s)


@st.composite
def cluster_state(draw):
    """Random hosts + VMs (some placed, some queued) for the equivalence test."""
    n_hosts = draw(st.integers(min_value=1, max_value=5))
    hosts = []
    for i in range(n_hosts):
        cls = draw(st.sampled_from(CLASSES))
        state = draw(st.sampled_from([HostState.ON, HostState.ON, HostState.OFF]))
        rel = draw(st.floats(min_value=0.5, max_value=1.0))
        hosts.append(make_host(i, node_class=cls, state=state, reliability=rel))
    n_vms = draw(st.integers(min_value=1, max_value=6))
    vms = []
    for j in range(n_vms):
        cpu = draw(st.sampled_from([50.0, 100.0, 200.0, 400.0]))
        mem = draw(st.sampled_from([128.0, 512.0, 1024.0]))
        runtime = draw(st.floats(min_value=120.0, max_value=7200.0))
        ftol = draw(st.floats(min_value=0.0, max_value=1.0))
        vm = make_vm(100 + j, cpu=cpu, mem=mem, runtime=runtime,
                     fault_tolerance=ftol)
        host_idx = draw(st.integers(min_value=-1, max_value=n_hosts - 1))
        if host_idx >= 0 and hosts[host_idx].is_on and hosts[host_idx].fits(vm):
            place(hosts[host_idx], vm)
        vms.append(vm)
    now = draw(st.floats(min_value=0.0, max_value=7200.0))
    return hosts, vms, now


class TestVectorizedMatchesScalar:
    @settings(max_examples=60, deadline=None)
    @given(state=cluster_state(), data=st.data())
    def test_every_cell_matches_reference(self, state, data):
        hosts, vms, now = state
        # Fulfilments span no violation (>= 1), soft c_sla (th_sla, 1) and
        # the hard-SLA infinity (<= th_sla); an observed-reliability
        # vector overrides the static F_rel in P_fault.
        fulfills = {
            vm.vm_id: data.draw(st.floats(min_value=0.0, max_value=1.2))
            for vm in vms
        }
        reliability = data.draw(st.one_of(
            st.none(),
            st.lists(st.floats(min_value=0.0, max_value=1.0),
                     min_size=len(hosts), max_size=len(hosts)),
        ))
        # Every preset on every state, so the SLA/fault terms of "full"
        # see each drawn fulfilment and reliability.
        for preset in ("sb0", "sb1", "sb2", "sb", "full"):
            config = getattr(ScoreConfig, preset)()
            builder = ScoreMatrixBuilder(
                hosts, vms, now, config,
                fulfillments=fulfills if config.enable_sla else None,
                reliability=reliability,
            )
            for i, host in enumerate(hosts):
                for j, vm in enumerate(vms):
                    expected = total_score(
                        host, vm, now, config,
                        fulfillment=fulfills[vm.vm_id],
                        reliability=None if reliability is None else reliability[i],
                    )
                    got = builder.scores[i, j]
                    if math.isinf(expected):
                        assert math.isinf(got), (i, j, preset)
                    else:
                        assert got == pytest.approx(expected, rel=1e-9, abs=1e-9), (i, j, preset)
