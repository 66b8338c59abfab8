"""Property tests for the incremental score-matrix maintenance.

The score matrix keeps three caches across ``apply_move`` calls —
per-column current costs, the score rows themselves, and the per-column
(min value, argmin row) of the diff.  These tests drive random move
sequences on one-shot matrices (:class:`ScoreMatrixBuilder`, whose slot
``j`` is round column ``j``) and assert each cache equals its
from-scratch recomputation, that :meth:`best_move` is bit-identical to
``np.argmin(diff_matrix(b))`` (including tie-breaking), that the whole
hill climber matches a reference implementation that materializes the
diff matrix on every step, and that score cells agree with the
independent :class:`AssignmentEvaluator` oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.host import Host, HostState
from repro.cluster.spec import FAST, MEDIUM, SLOW, HostSpec
from repro.cluster.vm import Vm, VmState
from repro.scheduling.score import ScoreConfig, ScoreMatrixBuilder
from repro.scheduling.score.evaluator import AssignmentEvaluator
from repro.scheduling.score.persistent import PersistentScoreMatrix
from repro.scheduling.score.solver import hill_climb

CLASSES = [FAST, MEDIUM, SLOW]


def make_vm(vm_id, cpu=100.0, mem=512.0, runtime=3600.0):
    from repro.workload.job import Job

    job = Job(job_id=vm_id, submit_time=0.0, runtime_s=runtime,
              cpu_pct=cpu, mem_mb=mem)
    return Vm(job)


def random_state(rng, n_hosts, n_queued, n_placed, sla=False):
    """A random cluster snapshot plus a matching builder-config kwargs."""
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
        columns.append(
            make_vm(vm_id, cpu=float(rng.choice([50.0, 100.0, 200.0])))
        )
    for _ in range(n_placed):
        if not on_hosts:
            break
        vm_id += 1
        vm = make_vm(vm_id, cpu=float(rng.choice([50.0, 100.0])))
        host = on_hosts[int(rng.integers(len(on_hosts)))]
        vm.state = VmState.RUNNING
        host.add_vm(vm)
        columns.append(vm)

    fulfills = None
    if sla:
        fulfills = {vm.vm_id: float(rng.choice([1.0, 0.9, 0.6])) for vm in columns}
    return hosts, columns, fulfills


def diff_matrix(b):
    """scores − current costs, with frozen columns masked to +inf."""
    diff = b.scores - b._cost[None, :]
    diff[:, b._frozen] = np.inf
    return diff


def reference_best(builder):
    """Algorithm 1 verbatim: argmin over a freshly materialized diff matrix."""
    diff = diff_matrix(builder)
    flat = int(np.argmin(diff))
    row, col = np.unravel_index(flat, diff.shape)
    return int(row), int(col), float(diff[row, col])


def assert_caches_consistent(b):
    """Every incremental cache equals its from-scratch recomputation.

    Frozen columns are excluded from the score and cost checks: their
    cells and current costs go stale by design (the diff masks them to
    +inf, nothing reads them within the round, and the next bind catches
    them up on every touched row).
    """
    cols = np.arange(b.n_cols)
    live_cols = ~b._frozen
    if live_cols.any() and b.n_rows:
        fresh_scores = b._score_cells(np.arange(b.n_rows), cols)
        np.testing.assert_array_equal(
            b.scores[:, live_cols], fresh_scores[:, live_cols]
        )
        # Current costs.
        np.testing.assert_array_equal(
            b._cost[live_cols], b._compute_costs(cols[live_cols])
        )
    # Column minima: value and lowest-row argmin of the diff.
    diff = diff_matrix(b)
    for j in range(b.n_cols):
        if b._frozen[j]:
            assert b._col_min_val[j] == np.inf
        else:
            col = diff[:, j]
            expect = col.min()
            if np.isfinite(expect) or not np.isfinite(b._col_min_val[j]):
                assert b._col_min_val[j] == expect, f"col {j} min value"
            if np.isfinite(expect):
                assert b._col_min_row[j] == int(np.argmin(col)), f"col {j} argmin"


def config_for(draw_idx, sla):
    if sla:
        return ScoreConfig.full()
    return [ScoreConfig.sb(), ScoreConfig.sb2(), ScoreConfig.sb1()][draw_idx % 3]


class TestIncrementalCaches:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_hosts=st.integers(2, 12),
        n_queued=st.integers(0, 8),
        n_placed=st.integers(0, 8),
        cfg_idx=st.integers(0, 2),
        sla=st.booleans(),
    )
    def test_caches_equal_fresh_rebuild_after_moves(
        self, seed, n_hosts, n_queued, n_placed, cfg_idx, sla
    ):
        rng = np.random.default_rng(seed)
        hosts, columns, fulfills = random_state(
            rng, n_hosts, n_queued, n_placed, sla=sla
        )
        cfg = config_for(cfg_idx, sla)
        b = ScoreMatrixBuilder(hosts, columns, 100.0, cfg, fulfillments=fulfills)
        assert_caches_consistent(b)

        # Apply a random sequence of feasible moves — argmin moves half the
        # time, arbitrary finite cells otherwise, so maintenance paths that
        # only argmin moves would exercise are not the whole story.
        for _ in range(min(b.n_cols, 6)):
            live = np.nonzero(~b._frozen)[0]
            if live.size == 0:
                break
            diff = diff_matrix(b)
            if rng.random() < 0.5:
                row, col, gain = reference_best(b)
                if not np.isfinite(gain):
                    break
            else:
                col = int(live[int(rng.integers(live.size))])
                finite_rows = np.nonzero(
                    np.isfinite(diff[:, col]) & (np.arange(b.n_rows) != b._cur[col])
                )[0]
                if finite_rows.size == 0:
                    continue
                row = int(finite_rows[int(rng.integers(finite_rows.size))])
            if b._cur[col] == row:
                continue
            b.apply_move(col, row)
            assert_caches_consistent(b)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_hosts=st.integers(2, 10),
        n_queued=st.integers(1, 8),
        n_placed=st.integers(0, 6),
        cfg_idx=st.integers(0, 2),
    )
    def test_hill_climb_matches_diff_matrix_reference(
        self, seed, n_hosts, n_queued, n_placed, cfg_idx
    ):
        rng = np.random.default_rng(seed)
        hosts, columns, _ = random_state(rng, n_hosts, n_queued, n_placed)
        cfg = config_for(cfg_idx, False)

        fast = ScoreMatrixBuilder(hosts, columns, 100.0, cfg)
        moves = hill_climb(fast)

        # Reference: rebuild from the same (unmutated) snapshot and climb
        # by re-materializing the diff matrix each step, seed-style.
        ref = ScoreMatrixBuilder(hosts, columns, 100.0, cfg)
        ref_moves = []
        limit = cfg.max_moves if cfg.max_moves is not None else max(16, ref.n_cols)
        for _ in range(limit):
            row, col, gain = reference_best(ref)
            if not np.isfinite(gain) or gain >= -cfg.epsilon:
                break
            ref_moves.append((ref.columns[col].vm_id, ref.hosts[row].host_id, gain))
            ref.apply_move(col, row)

        assert [(m.vm_id, m.host_id, m.gain) for m in moves] == ref_moves


class TestEvaluatorOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_hosts=st.integers(2, 10),
        n_queued=st.integers(1, 8),
        cfg_idx=st.integers(0, 2),
    )
    def test_diff_cells_equal_evaluator_deltas_all_queued(
        self, seed, n_hosts, n_queued, cfg_idx
    ):
        """With every column queued, moving one VM changes no other
        column's cost, so each diff cell must equal the evaluator's
        whole-assignment delta exactly."""
        rng = np.random.default_rng(seed)
        hosts, columns, _ = random_state(rng, n_hosts, n_queued, 0)
        cfg = config_for(cfg_idx, False)
        b = ScoreMatrixBuilder(hosts, columns, 100.0, cfg)
        ev = AssignmentEvaluator(b)

        baseline = np.full(b.n_cols, -1, dtype=int)
        base_score = ev.total_score(baseline)
        assert base_score == pytest.approx(b.n_cols * cfg.queue_cost)

        diff = diff_matrix(b)
        for j in range(b.n_cols):
            for r in range(b.n_rows):
                if not np.isfinite(diff[r, j]):
                    continue
                a = baseline.copy()
                a[j] = r
                assert ev.total_score(a) - base_score == pytest.approx(
                    diff[r, j]
                ), f"cell ({r}, {j})"

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_hosts=st.integers(2, 10),
        n_placed=st.integers(1, 6),
        cfg_idx=st.integers(0, 2),
    )
    def test_current_costs_sum_equals_evaluator_initial(
        self, seed, n_hosts, n_placed, cfg_idx
    ):
        rng = np.random.default_rng(seed)
        hosts, columns, _ = random_state(rng, n_hosts, 0, n_placed)
        cfg = config_for(cfg_idx, False)
        b = ScoreMatrixBuilder(hosts, columns, 100.0, cfg)
        if not b.n_cols:
            return
        # Only meaningful while every current cell is finite.
        placed = b._cur >= 0
        if placed.any() and not np.isfinite(
            b.scores[b._cur[placed], np.nonzero(placed)[0]]
        ).all():
            return
        ev = AssignmentEvaluator(b)
        assert ev.total_score(b._cur) == pytest.approx(b.current_costs().sum())


class TestWithinRoundInvariant:
    """``apply_move`` maintains only the round's unfrozen columns.

    Frozen columns' cells and costs go stale within the round; the next
    bind must catch every one of them up (the touched rows are restamped)
    so that a rebound matrix is bit-identical to a fresh one-shot.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_hosts=st.integers(2, 12),
        n_queued=st.integers(0, 8),
        n_placed=st.integers(0, 8),
        cfg_idx=st.integers(0, 2),
        sla=st.booleans(),
    )
    def test_rebind_after_moves_equals_fresh(
        self, seed, n_hosts, n_queued, n_placed, cfg_idx, sla
    ):
        rng = np.random.default_rng(seed)
        hosts, columns, fulfills = random_state(
            rng, n_hosts, n_queued, n_placed, sla=sla
        )
        cfg = config_for(cfg_idx, sla)
        b = ScoreMatrixBuilder(hosts, columns, 100.0, cfg, fulfillments=fulfills)
        for _ in range(min(b.n_cols, 6)):
            live = np.nonzero(~b._frozen)[0]
            if live.size == 0:
                break
            col = int(live[int(rng.integers(live.size))])
            finite_rows = np.nonzero(
                np.isfinite(diff_matrix(b)[:, col])
                & (np.arange(b.n_rows) != b._cur[col])
            )[0]
            if finite_rows.size == 0:
                continue
            b.apply_move(col, int(finite_rows[int(rng.integers(finite_rows.size))]))
        b.bind_round(columns, 100.0, fulfills)
        assert b.verify_against_fresh(columns, 100.0, fulfills)

    def test_a_touched_row_that_keeps_the_cached_minimum_is_not_rescanned(
        self, monkeypatch
    ):
        """Placing one of two identical queued VMs on the row both cache as
        their argmin leaves the other's diff there as it was (creation
        cost only: no P_conc, no P_pwr).  The cache takes the fresh value
        at the same row; no column is rescanned."""
        hosts = [
            Host(HostSpec(host_id=i), initial_state=HostState.ON) for i in range(4)
        ]
        b = ScoreMatrixBuilder(
            hosts, [make_vm(1), make_vm(2)], 0.0, ScoreConfig.sb1(enable_pwr=False)
        )
        slots = b._round_slots
        assert b._col_min_row[slots].tolist() == [0, 0]
        before = b._col_min_val[slots[1]]
        rescans = []
        real = PersistentScoreMatrix._refresh_minima

        def spy(self, slots, block=None):
            rescans.append(slots.tolist())
            return real(self, slots, block)

        monkeypatch.setattr(PersistentScoreMatrix, "_refresh_minima", spy)
        b.apply_move(0, 0)
        assert rescans == []
        assert (b._col_min_row[slots[1]], b._col_min_val[slots[1]]) == (0, before)

    def test_one_column_round_stops_after_the_placement(self):
        hosts = [
            Host(HostSpec(host_id=i, node_class=CLASSES[i % 3]),
                 initial_state=HostState.ON)
            for i in range(6)
        ]
        b = ScoreMatrixBuilder(hosts, [make_vm(1)], 100.0, ScoreConfig.sb())
        rescored = b.stats()["cells_rescored"]
        (move,) = hill_climb(b)
        dest = b.host_index[move.host_id]
        assert move.from_queue
        # The moved column's cached minimum is invalidated even though no
        # unfrozen column is left to maintain.
        assert b.best_move()[2] == np.inf
        assert b._touched == {dest}
        # ... and nothing was rescored for the frozen column.
        assert b.stats()["cells_rescored"] == rescored
