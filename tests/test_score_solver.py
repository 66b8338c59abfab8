"""Tests for the hill-climbing solver (Algorithm 1)."""

import numpy as np
import pytest

from repro.cluster.host import Host, HostState
from repro.cluster.spec import FAST, MEDIUM, SLOW, HostSpec
from repro.cluster.vm import Vm, VmState
from repro.scheduling.score import ScoreConfig, ScoreMatrixBuilder, hill_climb
from repro.workload.job import Job


def make_vm(vm_id, cpu=100.0, mem=512.0, runtime=3600.0):
    job = Job(job_id=vm_id, submit_time=0.0, runtime_s=runtime,
              cpu_pct=cpu, mem_mb=mem)
    return Vm(job)


def make_host(host_id, node_class=MEDIUM, state=HostState.ON, **kw):
    return Host(HostSpec(host_id=host_id, node_class=node_class, **kw),
                initial_state=state)


def build(hosts, vms, now=0.0, config=None):
    return ScoreMatrixBuilder(hosts, vms, now, config or ScoreConfig.sb())


class TestPlacement:
    def test_queued_vm_gets_placed(self):
        moves = hill_climb(build([make_host(0)], [make_vm(1)]))
        assert len(moves) == 1
        assert moves[0].vm_id == 1
        assert moves[0].host_id == 0
        assert moves[0].from_queue

    def test_no_feasible_host_no_moves(self):
        host = make_host(0, state=HostState.OFF)
        moves = hill_climb(build([host], [make_vm(1)]))
        assert moves == []

    def test_each_vm_moves_at_most_once(self):
        hosts = [make_host(0), make_host(1)]
        vms = [make_vm(i) for i in range(1, 4)]
        moves = hill_climb(build(hosts, vms))
        assert len(moves) == len({m.vm_id for m in moves})

    def test_placements_respect_capacity_jointly(self):
        # One host, two full-width VMs: only one can be placed.
        hosts = [make_host(0)]
        vms = [make_vm(1, cpu=400.0), make_vm(2, cpu=400.0)]
        moves = hill_climb(build(hosts, vms))
        assert len(moves) == 1

    def test_consolidates_onto_fuller_host(self):
        busy, empty = make_host(0), make_host(1)
        resident = make_vm(9, cpu=200.0)
        resident.state = VmState.RUNNING
        busy.add_vm(resident)
        moves = hill_climb(build([busy, empty], [make_vm(1, cpu=100.0)]))
        assert moves[0].host_id == busy.host_id

    def test_iteration_limit_respected(self):
        hosts = [make_host(i) for i in range(3)]
        vms = [make_vm(i) for i in range(1, 9)]
        moves = hill_climb(
            build(hosts, vms, config=ScoreConfig.sb(max_moves=2))
        )
        assert len(moves) == 2


class TestMigration:
    def test_straggler_migrates_to_fuller_host(self):
        lonely, busy = make_host(0), make_host(1)
        straggler = make_vm(1, cpu=100.0, runtime=7200.0)
        straggler.state = VmState.RUNNING
        lonely.add_vm(straggler)
        for i in range(2, 5):
            vm = make_vm(i, cpu=100.0)
            vm.state = VmState.RUNNING
            busy.add_vm(vm)
        moves = hill_climb(build([lonely, busy], [straggler]))
        assert len(moves) == 1
        assert moves[0].host_id == busy.host_id
        assert not moves[0].from_queue

    def test_no_migration_without_empty_penalty(self):
        """Table V's C_e = 0 row: the fillable reward alone cannot beat
        the migration friction, so nothing moves."""
        lonely, busy = make_host(0), make_host(1)
        straggler = make_vm(1, cpu=100.0, runtime=7200.0)
        straggler.state = VmState.RUNNING
        lonely.add_vm(straggler)
        for i in range(2, 5):
            vm = make_vm(i, cpu=100.0)
            vm.state = VmState.RUNNING
            busy.add_vm(vm)
        config = ScoreConfig.sb(c_empty=0.0, c_fill=40.0)
        moves = hill_climb(build([lonely, busy], [straggler], config=config))
        assert moves == []

    def test_finishing_vm_not_migrated(self):
        """Tr < Cm: the doubled penalty pins jobs about to finish."""
        lonely, busy = make_host(0), make_host(1)
        finishing = make_vm(1, cpu=100.0, runtime=30.0)  # Tr=30 < Cm=60
        finishing.state = VmState.RUNNING
        lonely.add_vm(finishing)
        for i in range(2, 5):
            vm = make_vm(i, cpu=100.0)
            vm.state = VmState.RUNNING
            busy.add_vm(vm)
        moves = hill_climb(build([lonely, busy], [finishing]))
        assert moves == []


class TestGains:
    def test_gains_are_negative(self):
        hosts = [make_host(0), make_host(1)]
        vms = [make_vm(i) for i in range(1, 4)]
        for move in hill_climb(build(hosts, vms)):
            assert move.gain < 0

    def test_greedy_picks_best_first(self):
        # Queued VMs tie on queue cost; the first placed is the one whose
        # best cell is cheapest.
        fast, slow = make_host(0, node_class=FAST), make_host(1, node_class=SLOW)
        cfg = ScoreConfig(enable_virt=True, enable_conc=False, enable_pwr=False)
        vms = [make_vm(1), make_vm(2)]
        moves = hill_climb(build([fast, slow], vms, config=cfg))
        # Both end up on the fast host (enough room; no power penalty).
        assert all(m.host_id == fast.host_id for m in moves)

    def test_empty_matrix_returns_no_moves(self):
        assert hill_climb(build([make_host(0)], [])) == []


class TestAnytimeHillClimb:
    """The anytime solver: budgeted prefixes of the deterministic climb."""

    def _pair(self, n_hosts=3, n_vms=5):
        hosts = [make_host(i) for i in range(n_hosts)]
        vms = [make_vm(i + 1, cpu=50.0 * (1 + i % 4)) for i in range(n_vms)]
        return hosts, vms

    def test_unbounded_matches_hill_climb(self):
        from repro.scheduling.score import anytime_hill_climb

        hosts, vms = self._pair()
        full = hill_climb(build(hosts, vms))
        result = anytime_hill_climb(build(hosts, vms))
        assert result.moves == full
        assert not result.budget_exhausted
        assert result.iterations == len(full)

    def test_infinite_budget_matches_hill_climb(self):
        import math

        from repro.scheduling.score import anytime_hill_climb

        hosts, vms = self._pair()
        full = hill_climb(build(hosts, vms))
        result = anytime_hill_climb(build(hosts, vms), budget=math.inf)
        assert result.moves == full

    def test_budget_truncates_to_prefix(self):
        from repro.scheduling.score import anytime_hill_climb

        hosts, vms = self._pair()
        full = hill_climb(build(hosts, vms))
        assert len(full) >= 2  # the scenario must exercise truncation
        result = anytime_hill_climb(build(hosts, vms), budget=1)
        assert result.moves == full[:1]
        assert result.budget_exhausted
        assert result.iterations == 1

    def test_first_move_is_greedy_best(self):
        """An exhausted budget still returns the single best greedy move."""
        from repro.scheduling.score import anytime_hill_climb

        hosts, vms = self._pair()
        first = build(hosts, vms).best_move()
        result = anytime_hill_climb(build(hosts, vms), budget=1)
        assert result.moves  # feasible work existed
        move = result.moves[0]
        assert move.host_id == hosts[first[0]].host_id
        assert move.gain == pytest.approx(first[2])

    def test_zero_budget_returns_empty_but_flags_exhaustion(self):
        from repro.scheduling.score import anytime_hill_climb

        hosts, vms = self._pair()
        result = anytime_hill_climb(build(hosts, vms), budget=0)
        assert result.moves == []
        assert result.iterations == 0
        assert result.budget_exhausted  # improving cells remained

    def test_deadline_cuts_climb_and_iterations_replay(self):
        """A wall-deadline cut is reproducible via its iteration count."""
        from repro.scheduling.score import anytime_hill_climb

        hosts, vms = self._pair(n_hosts=4, n_vms=8)
        ticks = iter(range(100))

        def clock():
            return float(next(ticks))

        # Deadline passes after two clock reads -> at most two moves.
        cut = anytime_hill_climb(
            build(hosts, vms), deadline_s=2.0, clock=clock
        )
        full = hill_climb(build(hosts, vms))
        assert cut.moves == full[: cut.iterations]
        replayed = anytime_hill_climb(
            build(hosts, vms), budget=cut.iterations
        )
        assert replayed.moves == cut.moves

    def test_empty_matrix_short_circuits(self):
        from repro.scheduling.score import anytime_hill_climb

        result = anytime_hill_climb(build([make_host(0)], []))
        assert result.moves == []
        assert not result.budget_exhausted


class TestAnytimeProperties:
    """Hypothesis: every budget yields a prefix; equal budgets agree."""

    @staticmethod
    def _scenario(host_classes, vm_cpus):
        classes = [SLOW, MEDIUM, FAST]
        hosts = [
            make_host(i, node_class=classes[c % 3])
            for i, c in enumerate(host_classes)
        ]
        vms = [
            make_vm(i + 1, cpu=float(cpu), mem=256.0 * (1 + i % 3))
            for i, cpu in enumerate(vm_cpus)
        ]
        return hosts, vms

    from hypothesis import given, settings, strategies as st

    @given(
        host_classes=st.lists(st.integers(0, 2), min_size=1, max_size=5),
        vm_cpus=st.lists(
            st.sampled_from([50, 100, 200, 400]), min_size=0, max_size=8
        ),
        budget=st.integers(0, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_budgeted_result_is_prefix_of_full_climb(
        self, host_classes, vm_cpus, budget
    ):
        from repro.scheduling.score import anytime_hill_climb

        hosts, vms = self._scenario(host_classes, vm_cpus)
        full = hill_climb(build(hosts, vms))
        result = anytime_hill_climb(build(hosts, vms), budget=budget)
        # Prefix property: truncation never reorders or invents moves.
        assert result.moves == full[: len(result.moves)]
        assert result.iterations == len(result.moves)
        if not result.budget_exhausted:
            # Climb ended naturally -> identical to the unbudgeted answer.
            assert result.moves == full

    @given(
        host_classes=st.lists(st.integers(0, 2), min_size=1, max_size=4),
        vm_cpus=st.lists(
            st.sampled_from([50, 100, 200, 400]), min_size=1, max_size=6
        ),
        budget=st.integers(0, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_equal_budgets_give_equal_decisions(
        self, host_classes, vm_cpus, budget
    ):
        from repro.scheduling.score import anytime_hill_climb

        hosts_a, vms_a = self._scenario(host_classes, vm_cpus)
        hosts_b, vms_b = self._scenario(host_classes, vm_cpus)
        first = anytime_hill_climb(build(hosts_a, vms_a), budget=budget)
        second = anytime_hill_climb(build(hosts_b, vms_b), budget=budget)
        assert first == second
