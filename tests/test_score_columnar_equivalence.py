"""Equivalence oracles for the columnar score kernel.

A one-shot :meth:`~PersistentScoreMatrix._twin` of an attached,
long-lived :class:`PersistentScoreMatrix` (the bind oracle's twin, which
shares the static host arrays) must produce exactly the matrix, current
costs, best move and shutdown ranking of a :class:`ScoreMatrixBuilder`
that builds its own — and the long-lived matrix bound to the same round
must agree with both.  The scalar-row
fast path and the whole-simulation oracles live in
``tests/test_score_persistent.py``.

Plus the pricing of a hard SLA violation's current cost.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.host import Host, HostState
from repro.cluster.spec import FAST, MEDIUM, SLOW, HostSpec
from repro.cluster.vm import Vm, VmState
from repro.scheduling.score import ScoreConfig, ScoreMatrixBuilder
from repro.scheduling.score.persistent import PersistentScoreMatrix
from repro.workload.job import Job

CLASSES = [FAST, MEDIUM, SLOW]


def make_vm(vm_id, cpu=100.0, mem=512.0, runtime=3600.0, **job_kw):
    job = Job(job_id=vm_id, submit_time=0.0, runtime_s=runtime,
              cpu_pct=cpu, mem_mb=mem, **job_kw)
    return Vm(job)


def make_host(host_id, node_class=MEDIUM, state=HostState.ON, **kw):
    return Host(HostSpec(host_id=host_id, node_class=node_class, **kw),
                initial_state=state)


def place(host, vm):
    vm.state = VmState.RUNNING
    host.add_vm(vm)


@st.composite
def cluster_state(draw):
    """Random hosts + VMs (placed and queued) + a random config."""
    n_hosts = draw(st.integers(min_value=1, max_value=5))
    hosts = []
    for i in range(n_hosts):
        cls = draw(st.sampled_from(CLASSES))
        state = draw(st.sampled_from([HostState.ON, HostState.ON, HostState.OFF]))
        rel = draw(st.floats(min_value=0.5, max_value=1.0))
        hosts.append(make_host(i, node_class=cls, state=state, reliability=rel))
    n_vms = draw(st.integers(min_value=1, max_value=6))
    vms, fulf = [], {}
    for v in range(n_vms):
        cpu = draw(st.sampled_from([50.0, 100.0, 200.0, 400.0]))
        mem = draw(st.sampled_from([128.0, 512.0, 1024.0]))
        runtime = draw(st.floats(min_value=120.0, max_value=7200.0))
        ftol = draw(st.floats(min_value=0.0, max_value=1.0))
        vm = make_vm(100 + v, cpu=cpu, mem=mem, runtime=runtime,
                     fault_tolerance=ftol)
        host_idx = draw(st.integers(min_value=-1, max_value=n_hosts - 1))
        if host_idx >= 0 and hosts[host_idx].state is HostState.ON:
            place(hosts[host_idx], vm)
        vms.append(vm)
        fulf[vm.vm_id] = draw(st.floats(min_value=0.0, max_value=1.2))
    now = draw(st.floats(min_value=0.0, max_value=7200.0))
    preset = draw(st.sampled_from(["sb0", "sb1", "sb2", "sb", "full"]))
    config = getattr(ScoreConfig, preset)()
    return hosts, vms, now, config, fulf


def _builder(hosts, vms, now, config, fulf):
    return ScoreMatrixBuilder(
        hosts, vms, now, config,
        fulfillments=fulf if config.enable_sla else None,
    )


class TestOneShotEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(state=cluster_state())
    def test_one_shot_over_attached_state_matches_fresh_read(self, state):
        hosts, vms, now, config, fulf = state
        fulf = fulf if config.enable_sla else None
        long_lived = PersistentScoreMatrix(hosts, config)
        long_lived.attach()
        fresh = _builder(hosts, vms, now, config, fulf)
        twin = long_lived._twin(len(vms))
        twin._bind_general(vms, now, fulf)
        assert np.array_equal(fresh.scores, twin.scores)
        assert np.array_equal(fresh.current_costs(), twin.current_costs())
        assert fresh.best_move() == twin.best_move()
        assert [fresh.host_row_score(r) for r in range(fresh.n_rows)] == [
            twin.host_row_score(r) for r in range(twin.n_rows)
        ]
        # The twin leaves the long-lived matrix's slots alone.
        assert long_lived._slot_of == {} and long_lived._n_slots == 0
        # And the long-lived matrix bound to the same round agrees.
        long_lived.bind_round(vms, now, fulf)
        assert np.array_equal(fresh.current_costs(), long_lived.current_costs())
        assert fresh.best_move() == long_lived.best_move()
        assert [fresh.host_row_score(r) for r in range(fresh.n_rows)] == [
            long_lived.host_row_score(r) for r in range(long_lived.n_rows)
        ]
        assert long_lived.verify_against_fresh(vms, now, fulf)


class TestRepriceHardSla:
    """A hard SLA violation prices the VM like a queued one.

    A placed VM whose fulfilment has crossed ``th_sla`` gets its current
    cell promoted to +inf, which falls into the forced-out bucket of
    :meth:`current_costs` (priced at ``queue_cost``): *any* feasible cell
    looks like a ~1e6 win, although fulfilment travels with the VM.  The
    committed baselines are recorded with this pricing.
    """

    def _state(self):
        h0, h1 = make_host(0), make_host(1)
        victim = make_vm(1, cpu=100.0)
        place(h0, victim)
        ballast = make_vm(2, cpu=100.0)
        place(h1, ballast)
        config = ScoreConfig.full()
        fulf = {victim.vm_id: 0.4, ballast.vm_id: 1.0}  # 0.4 <= th_sla=0.5
        return [h0, h1], [victim], config, fulf

    def test_legacy_prices_hard_violation_at_queue_cost(self):
        hosts, cols, config, fulf = self._state()
        b = _builder(hosts, cols, 0.0, config, fulf)
        assert math.isinf(b.scores[0, 0])  # the hard promotion itself
        assert b.current_costs()[0] == config.queue_cost
        row, col, gain = b.best_move()
        assert gain < -1e5  # spurious "huge win" migration

    def test_genuinely_forced_out_keeps_queue_cost(self):
        hosts, cols, config, fulf = self._state()
        hosts[0].quarantined = True  # forced out for real
        b = _builder(hosts, cols, 0.0, config, fulf)
        assert b.current_costs()[0] == config.queue_cost

    def test_default_stays_legacy(self):
        # The committed macro baselines were recorded with the queue_cost
        # pricing, and it is the only pricing: the soft repricing switch
        # is gone, so passing it is an error rather than a silent no-op.
        assert "reprice_hard_sla" not in {
            f.name for f in dataclasses.fields(ScoreConfig)
        }
        with pytest.raises(TypeError, match="reprice_hard_sla"):
            ScoreConfig(reprice_hard_sla=True)
        for preset in ("sb0", "sb1", "sb2", "sb", "full"):
            hosts, cols, _, fulf = self._state()
            config = getattr(ScoreConfig, preset)()
            b = _builder(hosts, cols, 0.0, config, fulf)
            if math.isinf(b.scores[0, 0]):  # presets that price the hard SLA
                assert b.current_costs()[0] == config.queue_cost
            else:
                assert b.current_costs()[0] == b.scores[0, 0]
