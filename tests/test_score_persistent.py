"""Oracles and regressions for the persistent cross-round score matrix.

The :class:`PersistentScoreMatrix` keeps the score matrix alive between
scheduling rounds and rescores only dirty rows and changed columns.  That
is an optimization with no semantic license: every bound round must be
**bit-identical** to a one-shot :class:`ScoreMatrixBuilder` (the same
kernel bound once) over the same cluster.  Three layers enforce it here:

* a hypothesis driver that interleaves arbitrary world mutations
  (arrivals, completions, requeues, migrations, power flips, quarantine,
  requirement inflation, reliability overrides) between binds, verifies
  every bind against a one-shot rebuild, and asserts the hill climber
  emits the exact same move sequence from both matrices — including
  rounds where chosen moves are *rejected* (never applied to the world),
  which stresses the hypothetical-touched-row restoration path;
* a whole-simulation oracle: under ``REPRO_STRICT_INVARIANTS=raise``
  every bind of a real simulation is checked against a one-shot rebuild,
  including under operation-level chaos, and the strict run must emit the
  plain run's result row;
* order-determinism: the same set of world mutations applied in
  different orders must yield identical matrices and move sequences
  (the dirty feed is a set; binding sorts it).

Plus the matrix's host-list match memoization, the attach step's
registration contract (one sink per host, the long-lived matrix's;
one-shots leak nothing) and the ``rescore_stats`` observability contract.
"""

import itertools
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.host import Host, HostState
from repro.cluster.spec import FAST, MEDIUM, SLOW, HostSpec
from repro.cluster.vm import Vm, VmState
from repro.errors import StateError
from repro.scheduling.score import ScoreConfig, ScoreMatrixBuilder, persistent
from repro.scheduling.score.persistent import PersistentScoreMatrix
from repro.scheduling.score.policy import ScoreBasedPolicy
from repro.scheduling.score.solver import hill_climb
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


# --------------------------------------------------------------------------
# Layer 1: episodic hypothesis oracle
# --------------------------------------------------------------------------


class World:
    """A tiny mutable cluster the episodes drive directly (no engine)."""

    def __init__(self, hosts):
        self.hosts = hosts
        self.index = {h.host_id: i for i, h in enumerate(hosts)}
        self.vms = {}
        self.next_vm = 100

    def running(self):
        return [v for v in self.vms.values() if v.state is VmState.RUNNING]

    def queued(self):
        return [v for v in self.vms.values() if v.state is VmState.QUEUED]

    def host_of(self, vm):
        return self.hosts[self.index[vm.host_id]]


def _mutate(world, data):
    """Apply one random world mutation; no-op when preconditions fail."""
    op = data.draw(st.sampled_from(
        ["arrive", "complete", "requeue", "migrate", "power",
         "quarantine", "inflate"]), label="op")
    if op == "arrive":
        vm = make_vm(
            world.next_vm,
            cpu=data.draw(st.sampled_from([50.0, 100.0, 200.0, 400.0])),
            mem=data.draw(st.sampled_from([128.0, 512.0, 1024.0])),
            runtime=data.draw(st.floats(min_value=120.0, max_value=7200.0)),
            fault_tolerance=data.draw(st.floats(min_value=0.0, max_value=1.0)),
        )
        world.next_vm += 1
        world.vms[vm.vm_id] = vm
        on = [h for h in world.hosts if h.state is HostState.ON]
        if on and data.draw(st.booleans()):
            place(data.draw(st.sampled_from(on)), vm)
    elif op == "complete":
        running = world.running()
        if running:
            vm = data.draw(st.sampled_from(running))
            world.host_of(vm).remove_vm(vm.vm_id)
            vm.state = VmState.COMPLETED
            del world.vms[vm.vm_id]
    elif op == "requeue":
        running = world.running()
        if running:
            vm = data.draw(st.sampled_from(running))
            world.host_of(vm).remove_vm(vm.vm_id)
            vm.state = VmState.QUEUED
            vm.host_id = None
    elif op == "migrate":
        running = world.running()
        on = [h for h in world.hosts if h.state is HostState.ON]
        if running and on:
            vm = data.draw(st.sampled_from(running))
            dst = data.draw(st.sampled_from(on))
            if dst.host_id != vm.host_id:
                world.host_of(vm).remove_vm(vm.vm_id)
                dst.add_vm(vm)
    elif op == "power":
        host = data.draw(st.sampled_from(world.hosts))
        if host.state is HostState.OFF:
            host.state = HostState.ON
        elif host.state is HostState.ON and not host.vms:
            host.state = HostState.OFF
    elif op == "quarantine":
        host = data.draw(st.sampled_from(world.hosts))
        host.quarantined = not host.quarantined
    elif op == "inflate":
        if world.vms:
            vm = data.draw(st.sampled_from(list(world.vms.values())))
            vm.cpu_req = vm.cpu_req * 1.25


class TestScalarRowPath:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_single_row_block_bit_identical_to_batch(self, data):
        """A one-row block -- a bind catching up on one dirty row, or a
        move's touched row -- scores each cell as the whole-block call
        and the general formula do, bit for bit."""
        n_hosts = data.draw(st.integers(min_value=2, max_value=5))
        hosts = [make_host(
            i,
            node_class=data.draw(st.sampled_from(CLASSES)),
            reliability=data.draw(st.floats(min_value=0.5, max_value=1.0)),
        ) for i in range(n_hosts)]
        vms = [make_vm(
            100 + v,
            cpu=data.draw(st.sampled_from([50.0, 100.0, 400.0])),
            fault_tolerance=data.draw(st.floats(min_value=0.0, max_value=1.0)),
        ) for v in range(4)]
        place(hosts[0], vms[0])
        config = getattr(ScoreConfig, data.draw(
            st.sampled_from(["sb0", "sb2", "sb", "full"])))()
        matrix = PersistentScoreMatrix(hosts, config)
        fulf = ({vm.vm_id: data.draw(st.floats(min_value=0.0, max_value=1.2))
                 for vm in vms} if config.enable_sla else None)
        matrix.bind_round(vms, 500.0, fulf)
        slots = matrix._round_slots
        rows = np.arange(n_hosts)
        batch = matrix._score_block(rows, slots)
        assert np.array_equal(_bits(batch), _bits(matrix._score_cells(rows, slots)))
        for r in range(n_hosts):
            single = matrix._score_block(np.array([r]), slots)[0]
            assert np.array_equal(_bits(single), _bits(batch[r])), (r, single, batch[r])


class TestEpisodicOracle:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_persistent_equals_fresh_under_arbitrary_interleavings(self, data):
        # Few starting slots and an early sweep: episodes grow the slot
        # space, sweep finished VMs out and refill their slots.
        capacity = data.draw(st.sampled_from([1, 2, 64]), label="capacity")
        min_sweep = data.draw(st.sampled_from([1, 2, 4]), label="min_sweep")
        with mock.patch.object(persistent, "_MIN_SWEEP", min_sweep):
            self._episode(data, capacity)

    def _episode(self, data, capacity):
        n_hosts = data.draw(st.integers(min_value=2, max_value=6),
                            label="n_hosts")
        hosts = []
        for i in range(n_hosts):
            hosts.append(make_host(
                i,
                node_class=data.draw(st.sampled_from(CLASSES)),
                state=data.draw(st.sampled_from(
                    [HostState.ON, HostState.ON, HostState.OFF])),
                reliability=data.draw(st.floats(min_value=0.5, max_value=1.0)),
            ))
        preset = data.draw(st.sampled_from(["sb0", "sb2", "sb", "full"]),
                           label="preset")
        config = getattr(ScoreConfig, preset)()
        world = World(hosts)
        matrix = PersistentScoreMatrix(hosts, config, capacity)
        matrix.attach()

        now = 0.0
        n_rounds = data.draw(st.integers(min_value=2, max_value=6),
                             label="n_rounds")
        for _ in range(n_rounds):
            for _ in range(data.draw(st.integers(min_value=0, max_value=5))):
                _mutate(world, data)
            now += data.draw(st.floats(min_value=1.0, max_value=3600.0))

            columns = world.queued()
            if config.allow_migration and data.draw(st.booleans()):
                columns = columns + world.running()
            fulf = None
            if config.enable_sla:
                fulf = {vm.vm_id: data.draw(
                    st.floats(min_value=0.0, max_value=1.2))
                    for vm in columns}
            rel = None
            if config.enable_fault and data.draw(st.booleans()):
                rel = [data.draw(st.floats(min_value=0.5, max_value=1.0))
                       for _ in hosts]

            matrix.bind_round(columns, now, fulf, rel)
            # Bit-identity of cells, costs, and argmin caches.
            assert matrix.verify_against_fresh(columns, now, fulf, rel)
            # Internal consistency of the incrementally maintained state.
            assert matrix.verify_cells()

            fresh = ScoreMatrixBuilder(
                hosts=hosts, columns=columns, now=now, config=config,
                fulfillments=fulf, reliability=rel,
            )
            persistent_moves = hill_climb(matrix)
            fresh_moves = hill_climb(fresh)
            assert persistent_moves == fresh_moves

            # Accept a random subset of the chosen moves; the rejected
            # remainder leaves the matrix with hypothetical state it must
            # roll back at the next bind (the engine's rejected-action
            # path).
            for move in persistent_moves:
                if not data.draw(st.booleans()):
                    continue
                vm = world.vms[move.vm_id]
                dst = hosts[world.index[move.host_id]]
                if not dst.is_available:
                    continue
                if move.from_queue:
                    place(dst, vm)
                elif vm.state is VmState.RUNNING:
                    world.host_of(vm).remove_vm(vm.vm_id)
                    dst.add_vm(vm)

    def test_long_episode_grows_sweeps_and_refills_slots(self, monkeypatch):
        """Many VM lifetimes through one matrix that starts with one slot:
        the slot space grows, sweeps and recycles slots, and every bind
        still equals a one-shot."""
        monkeypatch.setattr(persistent, "_MIN_SWEEP", 4)
        rng = np.random.default_rng(7)
        hosts = [make_host(i, node_class=CLASSES[i % 3]) for i in range(4)]
        world = World(hosts)
        config = ScoreConfig.sb()
        matrix = PersistentScoreMatrix(hosts, config, capacity=1)
        matrix.attach()
        owner = {}  # slot -> the VM that last held it
        refills = 0
        for rnd in range(80):
            for _ in range(int(rng.integers(0, 3))):
                vm = make_vm(world.next_vm, cpu=float(rng.choice([50.0, 100.0])))
                world.next_vm += 1
                world.vms[vm.vm_id] = vm
            for vm in world.running():
                if rng.random() < 0.3:
                    world.host_of(vm).remove_vm(vm.vm_id)
                    vm.state = VmState.COMPLETED
                    del world.vms[vm.vm_id]
            columns = world.queued() + world.running()
            now = 60.0 * rnd
            matrix.bind_round(columns, now)
            for vm in columns:
                slot = matrix._slot_of[vm.vm_id]
                refills += owner.get(slot, vm.vm_id) != vm.vm_id
                owner[slot] = vm.vm_id
            assert matrix.verify_against_fresh(columns, now)
            assert matrix.verify_cells()
            fresh = ScoreMatrixBuilder(hosts, columns, now, config)
            moves = hill_climb(matrix)
            assert moves == hill_climb(fresh)
            for move in moves:
                vm = world.vms[move.vm_id]
                dst = hosts[world.index[move.host_id]]
                if move.from_queue:
                    place(dst, vm)
                else:
                    world.host_of(vm).remove_vm(vm.vm_id)
                    dst.add_vm(vm)
        assert len(matrix._cur) > 1 and refills > 0


class TestFrozenColumnCatchUp:
    def test_migrated_column_rescans_rows_it_did_not_see_change(self):
        """A column frozen by an accepted migration returns unchanged.

        Its cached minimum was invalidated by the move, and the rows
        restamped since then (source and destination) need not hold its
        new minimum: here the destination empties out, so staying costs
        more than moving on to a host no bind has restamped.  The rebind
        must rescan the whole column, not take the minimum over the
        restamped rows.
        """
        hosts = [make_host(i) for i in range(3)]
        src, dst, other = hosts
        vm = make_vm(1, cpu=100.0, runtime=36000.0)
        place(src, vm)
        leaving = [make_vm(10 + k, cpu=100.0, runtime=36000.0) for k in range(3)]
        for filler in leaving:
            place(dst, filler)
        for k in range(2):
            place(other, make_vm(20 + k, cpu=150.0, runtime=36000.0))
        matrix = PersistentScoreMatrix(hosts, ScoreConfig.sb())
        matrix.attach()

        matrix.bind_round([vm], 0.0)
        (move,) = hill_climb(matrix)
        assert (move.host_id, move.from_queue) == (dst.host_id, False)
        src.remove_vm(vm.vm_id)  # the migration is accepted ...
        dst.add_vm(vm)
        for filler in leaving:  # ... and the destination empties out
            dst.remove_vm(filler.vm_id)
            filler.state = VmState.COMPLETED

        matrix.bind_round([vm], 0.0)
        assert matrix.verify_against_fresh([vm], 0.0)
        row, _, gain = matrix.best_move()
        assert (row, gain) == (2, -10.0)


class TestLagBlock:
    def test_columns_behind_by_different_binds_catch_up_in_one_bind(self):
        """Lagging columns with different stamps share one catch-up block.

        The placed column last took part at bind 1 and the queued one at
        bind 2, and a row changed at each of binds 2 and 3 — the first
        one the placed column's home.  The block must start at the older
        stamp: starting at the newer one leaves the placed column's
        cells and cost on its home row as they were at bind 1.
        """
        hosts = [make_host(i) for i in range(4)]
        queued = make_vm(1, cpu=100.0, runtime=36000.0)
        placed = make_vm(2, cpu=100.0, runtime=36000.0)
        place(hosts[0], placed)
        matrix = PersistentScoreMatrix(hosts, ScoreConfig.sb())
        matrix.attach()
        columns = [queued, placed]

        matrix.bind_round(columns, 0.0)
        place(hosts[0], make_vm(3, cpu=150.0, runtime=36000.0))
        matrix.bind_round([queued], 0.0)  # unchanged: catch-up only
        place(hosts[2], make_vm(4, cpu=150.0, runtime=36000.0))

        slots = [matrix._slot_of[vm.vm_id] for vm in columns]
        assert matrix._col_stamp[slots].tolist() == [2, 1]
        assert matrix._row_stamp.tolist() == [2, 0, 0, 0]
        matrix.bind_round(columns, 0.0)
        assert matrix._row_stamp.tolist() == [2, 0, 3, 0]
        assert matrix.verify_against_fresh(columns, 0.0)
        assert matrix.verify_cells()


#: Per-slot column attributes both bind paths write.
_SLOT_ATTRS = ("_cur", "_bucket", "_fulf", "_cost", "_col_min_val",
               "_col_min_row", "_frozen", "_stale", "_col_stamp")


def _assert_same_matrix(mine, ref):
    """Exact equality of everything a bind leaves behind."""
    assert np.array_equal(mine._active, ref._active)
    act = mine._active
    assert np.array_equal(mine.scores[act], ref.scores[act])
    for name in _SLOT_ATTRS:
        assert np.array_equal(getattr(mine, name), getattr(ref, name)), name
    assert np.array_equal(mine._round_slots, ref._round_slots)
    assert np.array_equal(mine.is_queued, ref.is_queued)
    assert mine.stats() == ref.stats()


class TestOneColumnPath:
    """A one-column round binds exactly as the general path would.

    ``bind_round`` binds a round of one changed column with scalar
    bookkeeping; a twin matrix over its own state on the same hosts
    binds every round through the general path (``_bind_general``).
    Both see the same rounds and the same hill-climb moves, so after
    every bind and every climb they must agree bit for bit.
    """

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("config", [
        ScoreConfig.sb(), ScoreConfig.full(),
        ScoreConfig.full(reprice_hard_sla=True),
    ], ids=["sb", "full", "full-reprice"])
    def test_one_column_bind_equals_general_path(self, config, data):
        n_hosts = data.draw(st.integers(min_value=2, max_value=6), label="n_hosts")
        hosts = [make_host(
            i,
            node_class=data.draw(st.sampled_from(CLASSES)),
            state=data.draw(st.sampled_from(
                [HostState.ON, HostState.ON, HostState.OFF])),
            reliability=data.draw(st.floats(min_value=0.5, max_value=1.0)),
        ) for i in range(n_hosts)]
        world = World(hosts)
        matrix = PersistentScoreMatrix(hosts, config)
        matrix.attach()
        twin = PersistentScoreMatrix(hosts, config)
        twin.attach()
        now = 0.0
        for _ in range(data.draw(st.integers(min_value=3, max_value=10),
                                 label="n_rounds")):
            for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
                _mutate(world, data)
            now += data.draw(st.floats(min_value=1.0, max_value=3600.0))

            shape = data.draw(st.sampled_from(
                ["arrival", "lone", "lone", "running", "consolidate"]),
                label="shape")
            queued, running = world.queued(), world.running()
            if shape == "arrival" or (shape == "lone" and not queued):
                vm = make_vm(world.next_vm, cpu=data.draw(
                    st.sampled_from([50.0, 100.0, 400.0])))
                world.next_vm += 1
                world.vms[vm.vm_id] = vm
                columns = [vm]
            elif shape == "lone":  # the oldest queued VM, round after round
                columns = queued[:1]
            elif shape == "running" and running:
                columns = [data.draw(st.sampled_from(running))]
            else:
                columns = queued + running
            fulf = None
            if config.enable_sla:
                fulf = {vm.vm_id: data.draw(st.sampled_from([1.0, 0.9, 0.5]))
                        for vm in columns}
            rel = None
            if config.enable_fault and data.draw(st.booleans()):
                rel = [data.draw(st.sampled_from([0.6, 0.9, 1.0]))
                       for _ in hosts]

            matrix.bind_round(columns, now, fulf, rel)
            twin._bind_general(columns, now, fulf, rel)
            _assert_same_matrix(matrix, twin)
            assert matrix.verify_against_fresh(columns, now, fulf, rel)

            # Skipping the climb leaves the columns unfrozen and unchanged,
            # so a lone queued column lags on the rows dirtied meanwhile.
            if not data.draw(st.booleans(), label="climb"):
                continue
            moves = hill_climb(matrix)
            assert moves == hill_climb(twin)
            _assert_same_matrix(matrix, twin)
            # Accept a random subset; rejected moves leave touched rows and
            # frozen columns for the next bind to restore.
            for move in moves:
                vm = world.vms[move.vm_id]
                dst = hosts[world.index[move.host_id]]
                if not data.draw(st.booleans()) or not dst.is_available:
                    continue
                if move.from_queue:
                    place(dst, vm)
                elif vm.state is VmState.RUNNING:
                    world.host_of(vm).remove_vm(vm.vm_id)
                    dst.add_vm(vm)

    @pytest.mark.parametrize("cpu", [100.0, 5000.0], ids=["fits", "fits-nowhere"])
    def test_lone_column_best_move_is_its_column_argmin(self, cpu):
        """With one column, ``best_move`` reads the column's cached
        minimum: the lowest row of the smallest finite diff, or row 0 and
        +inf when no host fits; Python scalars either way."""
        hosts = [make_host(i, node_class=CLASSES[i % 3]) for i in range(4)]
        place(hosts[2], make_vm(1))
        matrix = PersistentScoreMatrix(hosts, ScoreConfig.sb())
        matrix.bind_round([make_vm(2, cpu=cpu)], 0.0)
        act = matrix._active
        slot = matrix._round_slots[0]
        diff = matrix.scores[act, slot] - matrix._cost[slot]
        row, col, gain = matrix.best_move()
        assert type(row) is int and col == 0 and type(gain) is float
        if np.isfinite(diff).any():
            assert (row, gain) == (int(act[np.argmin(diff)]), float(diff.min()))
        else:
            assert (row, gain) == (0, float("inf"))

    def test_arrival_round_takes_the_one_column_path(self, monkeypatch):
        """A new column alone in its round is bound by the scalar path."""
        hosts = [make_host(i) for i in range(3)]
        matrix = PersistentScoreMatrix(hosts, ScoreConfig.sb())
        matrix.attach()
        general = []
        real = PersistentScoreMatrix._bind_columns

        def spy(self, *args):
            general.append(len(args[1]))
            return real(self, *args)

        monkeypatch.setattr(PersistentScoreMatrix, "_bind_columns", spy)
        vm = make_vm(1)
        matrix.bind_round([vm], 0.0)
        assert general == []
        # Unchanged next round: the general path catches it up.
        place(hosts[1], make_vm(2))
        matrix.bind_round([vm], 10.0)
        assert general == [1]
        assert matrix.verify_against_fresh([vm], 10.0)


def _bits(a):
    """A float array's raw bits: equality is then bit-for-bit."""
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def _recomputed_row_terms(matrix):
    """Every row's four terms, by name, vectorized from the row copies in
    the general formula's order: the queued-cell sum, the migration sums
    for either bucket branch, and the on-cell sum."""
    cfg = matrix.config
    m = matrix.n_rows
    host, hi, lo, on = np.zeros(m), np.zeros(m), np.zeros(m), np.zeros(m)
    if cfg.enable_virt:
        host += matrix.cc
        hi += 2.0 * matrix.cm
        lo += matrix.cm / 2.0
    if cfg.enable_conc:
        load = matrix.conc + matrix.pending
        host += load
        hi += load
        lo += load
    if cfg.enable_pwr:
        occ_now = np.maximum(
            matrix.res_cpu / matrix.cap_cpu, matrix.res_mem / matrix.cap_mem
        )
        t_empty = (matrix.nvms <= cfg.th_empty).astype(float)
        p_pwr = t_empty * cfg.c_empty - occ_now * cfg.c_fill
        host += p_pwr
        hi += p_pwr
        lo += p_pwr
        on += p_pwr
    if cfg.enable_sla:
        host += 0.0
        hi += 0.0
        lo += 0.0
    return dict(zip(persistent._ROW_TERMS, (host, hi, lo, on)))


def _assert_row_terms_exact(matrix, rows):
    """The kept row terms of ``rows`` equal their recompute, bit for bit."""
    for name, terms in _recomputed_row_terms(matrix).items():
        assert np.array_equal(
            _bits(getattr(matrix, name)[rows]), _bits(terms[rows])
        ), name


def _assert_queued_cells_exact(matrix):
    """Row terms equal their recompute, and queued cells the general
    formula through every entry point, on every row not touched by a
    hypothetical move since the last bind (the bind re-reads those)."""
    rows = np.setdiff1d(np.arange(matrix.n_rows), sorted(matrix._touched))
    _assert_row_terms_exact(matrix, rows)
    rs = matrix._round_slots
    queued = rs[matrix._cur[rs] < 0]
    if not queued.size:
        return
    general = matrix._score_cells(rows, queued)
    assert np.array_equal(_bits(matrix._score_queued(rows, queued)), _bits(general))
    assert np.array_equal(_bits(matrix._score_block(rows, queued)), _bits(general))
    for k, r in enumerate(rows):
        assert np.array_equal(
            _bits(matrix._score_block(np.array([r]), queued)[0]), _bits(general[k])
        )


class TestHostTermKernel:
    """Queued cells come from the kept per-row host-term vector.

    A queued column's cell is its row's host term, plus the column's
    P_fault, where the VM fits.  After every bind and every hypothetical
    move (which move ``pending`` and ``nvms``), the vector must equal a
    vectorized recompute from the row copies, and the queued cells the
    general formula over the same rows, bit for bit, on every row but
    those touched since the bind; a move's own queued cells on those are
    held to the general formula by ``test_score_incremental.py``.  Hosts
    start at and just past ``th_empty``, so moves flip P_pwr's emptiness
    term, and binds after moves re-read the touched rows.
    """

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_queued_cells_equal_the_general_formula(self, data):
        preset = data.draw(st.sampled_from(["sb0", "sb2", "sb", "full"]), label="preset")
        th_empty = data.draw(st.integers(min_value=0, max_value=2), label="th_empty")
        config = getattr(ScoreConfig, preset)(th_empty=th_empty)
        n_hosts = data.draw(st.integers(min_value=2, max_value=6), label="n_hosts")
        hosts = [make_host(
            i,
            node_class=data.draw(st.sampled_from(CLASSES)),
            reliability=data.draw(st.floats(min_value=0.5, max_value=1.0)),
        ) for i in range(n_hosts)]
        world = World(hosts)

        def arrival():
            # Unround requirements: occupations that round, so a sum taken
            # in another order would show.
            vm = make_vm(
                world.next_vm,
                cpu=data.draw(st.floats(min_value=10.0, max_value=400.0)),
                mem=data.draw(st.floats(min_value=64.0, max_value=2048.0)),
                fault_tolerance=data.draw(st.floats(min_value=0.0, max_value=1.0)),
            )
            world.next_vm += 1
            world.vms[vm.vm_id] = vm
            return vm

        for h in hosts:
            for _ in range(th_empty + data.draw(st.integers(0, 1), label="extra")):
                place(h, arrival())
        matrix = PersistentScoreMatrix(hosts, config)
        matrix.attach()
        _assert_queued_cells_exact(matrix)
        now = 0.0
        for _ in range(data.draw(st.integers(min_value=2, max_value=6), label="rounds")):
            for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
                _mutate(world, data)
            for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
                arrival()
            now += data.draw(st.floats(min_value=1.0, max_value=3600.0))
            columns = world.queued()
            if data.draw(st.booleans(), label="with_running"):
                columns += world.running()
            fulf = None
            if config.enable_sla:
                fulf = {vm.vm_id: data.draw(st.sampled_from([1.0, 0.9, 0.4]))
                        for vm in columns}
            rel = None
            if config.enable_fault and data.draw(st.booleans(), label="override"):
                rel = [data.draw(st.sampled_from([0.6, 0.9, 1.0])) for _ in hosts]
            matrix.bind_round(columns, now, fulf, rel)
            _assert_queued_cells_exact(matrix)
            for _ in range(data.draw(st.integers(min_value=0, max_value=4), label="moves")):
                free = [j for j in range(matrix.n_cols)
                        if not matrix._frozen[matrix._round_slots[j]]]
                if not free:
                    break
                col = data.draw(st.sampled_from(free), label="col")
                row = data.draw(st.integers(0, n_hosts - 1), label="row")
                if matrix._cur[matrix._round_slots[col]] == row:
                    continue
                matrix.apply_move(col, row)
                _assert_queued_cells_exact(matrix)

    @pytest.mark.parametrize("preset", ["sb0", "sb2", "sb", "full"])
    def test_many_unround_rows_bit_identical(self, preset):
        """Hundreds of rows with unround occupations: a term summed in
        another order than the general formula's rounds differently on
        some of them."""
        rng = np.random.default_rng(7)
        hosts = [make_host(i, node_class=CLASSES[i % 3],
                           reliability=float(rng.uniform(0.5, 1.0)))
                 for i in range(300)]

        def vm(vm_id):
            return make_vm(vm_id, cpu=float(rng.uniform(5.0, 150.0)),
                           mem=float(rng.uniform(32.0, 900.0)),
                           fault_tolerance=float(rng.uniform()))

        for i, h in enumerate(hosts):
            for j in range(int(rng.integers(0, 3))):
                place(h, vm(1000 + 4 * i + j))
        config = getattr(ScoreConfig, preset)()
        matrix = PersistentScoreMatrix(hosts, config)
        matrix.attach()
        queued = [vm(10_000 + j) for j in range(5)]
        fulf = {v.vm_id: 1.0 for v in queued} if config.enable_sla else None
        matrix.bind_round(queued, 100.0, fulf)
        _assert_queued_cells_exact(matrix)
        for col in range(3):
            matrix.apply_move(col, int(rng.integers(len(hosts))))
            _assert_queued_cells_exact(matrix)

    def test_arrival_bind_never_evaluates_the_general_formula(self, monkeypatch):
        """On a warmed matrix, a one-arrival round and its climb score the
        queued column from the host terms alone: neither the general
        formula nor the placed-term kernel runs."""
        hosts = [make_host(i, node_class=CLASSES[i % 3]) for i in range(6)]
        running = [make_vm(100 + v) for v in range(4)]
        for v, vm in enumerate(running):
            place(hosts[v], vm)
        config = ScoreConfig.full()
        matrix = PersistentScoreMatrix(hosts, config)
        matrix.attach()
        queued = [make_vm(200 + v) for v in range(3)]
        columns = queued + running
        matrix.bind_round(columns, 10.0, {vm.vm_id: 1.0 for vm in columns})
        hill_climb(matrix)

        def general(*args):
            raise AssertionError("a queued column took the general formula")

        def placed(*args):
            raise AssertionError("a queued round took the placed kernel")

        place(hosts[5], make_vm(300))  # one dirty row to catch up on
        arrival = make_vm(301)
        fulf = {arrival.vm_id: 1.0}
        with monkeypatch.context() as m:
            m.setattr(PersistentScoreMatrix, "_score_cells", general)
            m.setattr(PersistentScoreMatrix, "_score_placed", placed)
            matrix.bind_round([arrival], 20.0, fulf)
            assert matrix._col_hist[1] >= 1
            moves = hill_climb(matrix)
        assert len(moves) == 1
        place(hosts[matrix.host_index[moves[0].host_id]], arrival)
        burst = [make_vm(400 + v) for v in range(3)]
        fulf = {vm.vm_id: 1.0 for vm in burst}
        with monkeypatch.context() as m:
            m.setattr(PersistentScoreMatrix, "_score_cells", general)
            m.setattr(PersistentScoreMatrix, "_score_placed", placed)
            matrix.bind_round(burst, 30.0, fulf)
            hill_climb(matrix)
        matrix.force_full_rebuild()
        matrix.bind_round(burst, 40.0, fulf)
        assert matrix.verify_against_fresh(burst, 40.0, fulf)
        assert matrix.verify_cells()


def _assert_cells_exact(matrix, rows, cols):
    """The kernels' cells equal the general formula's bit for bit, on the
    whole block and on each of its rows alone."""
    general = matrix._score_cells(rows, cols)
    assert np.array_equal(_bits(matrix._score_block(rows, cols)), _bits(general))
    for k in range(rows.size):
        assert np.array_equal(
            _bits(matrix._score_block(rows[k:k + 1], cols)[0]), _bits(general[k])
        )


#: The presets whose placed cells differ: P_virt's migration branch, P_conc,
#: P_SLA with its hard infinity, P_fault, and the soft current-cost pricing.
PLACED_PRESETS = {
    "sb": ScoreConfig.sb,
    "sb2": ScoreConfig.sb2,
    "full": ScoreConfig.full,
    "reprice_hard_sla": lambda **kw: ScoreConfig.full(reprice_hard_sla=True, **kw),
}


class TestPlacedTermKernel:
    """Blocks holding a placed column come from the kept placed terms.

    A placed column's cell off its host is its row's migration sum (the
    ``2*cm`` or ``cm/2`` branch by bucket), a queued column's the row's
    host term, and the column's own cell the on-cell term plus the SLA
    on-cell term; P_fault comes last, under the general feasibility mask.
    After every bind, every hypothetical move (which moves ``pending``,
    ``nvms`` and the reservations of the touched rows) and a snapshot
    restore, blocks that mix queued and placed columns must equal the
    general formula bit for bit.  So must the four row terms equal a
    vectorized recompute from the row copies on every row the matrix
    may read, and the stored cells of the round's unfrozen columns the
    general formula: every writer of row copies writes the terms with
    them.  A round's moves either stop early or go on until every column
    is frozen, so both sides of ``apply_move``'s unfrozen-column test
    are taken.  Remaining times sit near the migration costs, so columns
    cross buckets between rounds; fulfilments below 1 and at or below
    ``th_sla`` put soft penalties and hard infinities on the on-cells.
    """

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_placed_cells_equal_the_general_formula(self, data):
        import pickle

        preset = data.draw(st.sampled_from(sorted(PLACED_PRESETS)), label="preset")
        th_empty = data.draw(st.integers(min_value=0, max_value=2), label="th_empty")
        config = PLACED_PRESETS[preset](th_empty=th_empty)
        n_hosts = data.draw(st.integers(min_value=2, max_value=6), label="n_hosts")
        hosts = [make_host(
            i,
            node_class=data.draw(st.sampled_from(CLASSES)),
            reliability=data.draw(st.floats(min_value=0.5, max_value=1.0)),
        ) for i in range(n_hosts)]
        world = World(hosts)

        def arrival():
            vm = make_vm(
                world.next_vm,
                cpu=data.draw(st.floats(min_value=10.0, max_value=400.0)),
                mem=data.draw(st.floats(min_value=64.0, max_value=2048.0)),
                runtime=data.draw(st.floats(min_value=20.0, max_value=300.0)),
                fault_tolerance=data.draw(st.floats(min_value=0.0, max_value=1.0)),
            )
            world.next_vm += 1
            world.vms[vm.vm_id] = vm
            return vm

        for h in hosts:
            for _ in range(th_empty + data.draw(st.integers(0, 1), label="extra")):
                place(h, arrival())
        matrix = PersistentScoreMatrix(hosts, config)
        matrix.attach()

        def check(m, restored=False):
            # A touched row's terms are recomputed while an unfrozen
            # column is left to read them, and by a restore; otherwise
            # the next bind re-reads the row.
            rows = np.arange(m.n_rows)
            rs = m._round_slots
            live = rs[~m._frozen[rs]]
            if m._touched and not (live.size or restored):
                rows = np.setdiff1d(rows, sorted(m._touched))
            _assert_row_terms_exact(m, rows)
            if rows.size and rs.size:
                _assert_cells_exact(m, rows, rs)
                mixed = rs[np.array(data.draw(st.lists(
                    st.booleans(), min_size=rs.size, max_size=rs.size), label="subset"))]
                if mixed.size:
                    _assert_cells_exact(m, rows, mixed)
            act = np.intersect1d(rows, m._active)
            if act.size and live.size:
                assert np.array_equal(
                    _bits(m.scores[act[:, None], live]),
                    _bits(m._score_cells(act, live)),
                )
            assert m.verify_cells()

        now = 0.0
        for _ in range(data.draw(st.integers(min_value=2, max_value=5), label="rounds")):
            for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
                _mutate(world, data)
            for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
                arrival()
            now += data.draw(st.floats(min_value=1.0, max_value=120.0))
            columns = world.queued() + world.running()
            fulf = None
            if config.enable_sla:
                fulf = {vm.vm_id: data.draw(st.sampled_from([1.0, 0.9, 0.5, 0.2]))
                        for vm in columns}
            rel = None
            if config.enable_fault and data.draw(st.booleans(), label="override"):
                rel = [data.draw(st.sampled_from([0.6, 0.9, 1.0])) for _ in hosts]
            matrix.bind_round(columns, now, fulf, rel)
            assert matrix.verify_against_fresh(columns, now, fulf, rel)
            check(matrix)
            freeze_all = data.draw(st.booleans(), label="freeze_all")
            n_moves = matrix.n_cols if freeze_all else data.draw(
                st.integers(min_value=0, max_value=2), label="moves")
            for _ in range(n_moves):
                free = [j for j in range(matrix.n_cols)
                        if not matrix._frozen[matrix._round_slots[j]]]
                if not free:
                    break
                col = data.draw(st.sampled_from(free), label="col")
                cur = int(matrix._cur[matrix._round_slots[col]])
                row = data.draw(st.sampled_from(
                    [r for r in range(n_hosts) if r != cur]), label="row")
                matrix.apply_move(col, row)
                check(matrix)
        # The restore recomputes the row terms it scores the cells from.
        restored = pickle.loads(pickle.dumps(matrix, protocol=pickle.HIGHEST_PROTOCOL))
        check(restored, restored=True)

    def test_on_cells_and_hard_sla_infinities(self):
        """The on-cell term with its SLA on-cell term: soft below full
        fulfilment, +inf at or below ``th_sla`` -- and with
        ``reprice_hard_sla`` the hard VM's current cost is the soft one."""
        hosts = [make_host(i, node_class=CLASSES[i % 3]) for i in range(3)]
        vms = [make_vm(100 + v, cpu=50.0 + 30.0 * v) for v in range(3)]
        for v, vm in enumerate(vms):
            place(hosts[v], vm)
        queued = make_vm(200)
        columns = vms + [queued]
        fulf = {100: 1.0, 101: 0.9, 102: 0.2, 200: 1.0}
        for reprice in (False, True):
            config = ScoreConfig.full(reprice_hard_sla=reprice)
            matrix = PersistentScoreMatrix(hosts, config)
            matrix.bind_round(columns, 10.0, fulf)
            rows = np.arange(3)
            rs = matrix._round_slots
            cells = matrix._score_block(rows, rs)
            _assert_cells_exact(matrix, rows, rs)
            assert np.isinf(cells[2, 2]) and np.isfinite(cells[0, 2])
            soft = matrix._score_block(rows, rs[1:2])[1, 0]
            alone = PersistentScoreMatrix(hosts, config)
            alone.bind_round(columns, 10.0, {**fulf, 101: 1.0})
            assert soft == alone._score_block(rows, rs[1:2])[1, 0] + config.c_sla
            cost = matrix.current_costs()[2]
            assert (cost < config.queue_cost) if reprice else cost == config.queue_cost

    def test_consolidation_move_rescores_both_rows_in_one_call(self, monkeypatch):
        """A migration recomputes the terms of its two touched rows, and
        only theirs, before one placed-kernel call reads them."""
        hosts = [make_host(i, node_class=CLASSES[i % 3]) for i in range(4)]
        running = [make_vm(100 + v) for v in range(4)]
        for v, vm in enumerate(running):
            place(hosts[v % 2], vm)
        matrix = PersistentScoreMatrix(hosts, ScoreConfig.sb())
        matrix.bind_round(running, 10.0)
        calls = []
        real_terms = PersistentScoreMatrix._row_terms
        real_placed = PersistentScoreMatrix._score_placed

        def terms_spy(self, r, *args):
            calls.append(("terms", r))
            return real_terms(self, r, *args)

        def placed_spy(self, R, C, q):
            calls.append(("placed", list(R)))
            _assert_row_terms_exact(self, R)
            return real_placed(self, R, C, q)

        monkeypatch.setattr(PersistentScoreMatrix, "_row_terms", terms_spy)
        monkeypatch.setattr(PersistentScoreMatrix, "_score_placed", placed_spy)
        matrix.apply_move(0, 3)
        assert calls == [("terms", 0), ("terms", 3), ("placed", [0, 3])]
        _assert_cells_exact(matrix, np.arange(4), matrix._round_slots)


class TestRowTerms:
    """Both oracles hold every row term they check to its recompute."""

    @pytest.mark.parametrize("name", persistent._ROW_TERMS)
    def test_both_oracles_catch_a_drifted_row_term(self, name):
        """One corrupted entry in any of the four arrays is caught by the
        bind oracle and by ``verify_cells``, each naming the array."""
        hosts = [make_host(i) for i in range(4)]
        vm = make_vm(100)
        place(hosts[0], vm)
        columns = [vm, make_vm(101)]
        matrix = PersistentScoreMatrix(hosts, ScoreConfig.sb())
        matrix.attach()
        matrix.bind_round(columns, 0.0)
        assert matrix.verify_against_fresh(columns, 0.0)
        assert matrix.verify_cells()
        getattr(matrix, name)[2] += 1.0
        with pytest.raises(StateError, match=f"row-term drift: {name} host 2 "):
            matrix.verify_cells()
        with pytest.raises(StateError, match=rf"persistent matrix drift: {name}\[2\]"):
            matrix.verify_against_fresh(columns, 0.0)


# --------------------------------------------------------------------------
# Layer 2: whole-simulation oracles
# --------------------------------------------------------------------------


def _engine(preset, faults=None, scale=28.0, solver="hill_climb"):
    from repro.cluster.faults import FaultConfig
    from repro.engine.config import EngineConfig
    from repro.engine.datacenter import DatacenterSimulation
    from repro.experiments.common import (
        DEFAULT_SEED, lambda_config, paper_cluster,
    )
    from repro.units import WEEK
    from repro.workload.synthetic import Grid5000WeekGenerator, SyntheticConfig

    cfg = SyntheticConfig(horizon_s=WEEK / scale)
    trace = Grid5000WeekGenerator(cfg, seed=DEFAULT_SEED).generate()
    fault_cfg = None
    if faults:
        fault_cfg = FaultConfig(creation_failure_p=0.08, migration_abort_p=0.1,
                                boot_failure_p=0.1, slow_boot_p=0.2)
    return DatacenterSimulation(
        cluster=paper_cluster(),
        policy=ScoreBasedPolicy(getattr(ScoreConfig, preset)(), solver=solver),
        trace=trace,
        pm_config=lambda_config(),
        config=EngineConfig(seed=DEFAULT_SEED, faults=fault_cfg),
    )


def _run_sim(preset, faults=None, scale=28.0):
    return _engine(preset, faults, scale).run()


def _determinism_row(res):
    return (res.energy_kwh, res.cpu_hours, res.migrations, res.n_completed,
            res.sim_events, res.satisfaction, res.delay_pct,
            res.mean_wait_s, res.p95_wait_s, res.rejected_actions)


def _strict_run(monkeypatch, preset, faults=None):
    """One run with every bind verified against a one-shot rebuild."""
    calls = []
    verify = PersistentScoreMatrix.verify_against_fresh

    def counted(self, *args, **kwargs):
        calls.append(1)
        return verify(self, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setenv("REPRO_STRICT_INVARIANTS", "raise")
        m.setattr(PersistentScoreMatrix, "verify_against_fresh", counted)
        res = _run_sim(preset, faults=faults)
    assert res.invariant_checks > 0
    assert len(calls) == res.rescore_stats["binds"] > 0
    return res


class TestSimulationOracle:
    @pytest.mark.parametrize("preset", ["sb", "full"])
    def test_persistent_simulation_equals_fresh_kernel(self, preset, monkeypatch):
        strict = _strict_run(monkeypatch, preset)
        assert _determinism_row(strict) == _determinism_row(_run_sim(preset))

    def test_persistent_bit_identical_under_chaos(self, monkeypatch):
        strict = _strict_run(monkeypatch, "sb", faults=True)
        assert _determinism_row(strict) == _determinism_row(
            _run_sim("sb", faults=True)
        )

    def test_rescore_stats_reported_and_sublinear(self):
        res = _run_sim("sb")
        stats = res.rescore_stats
        assert stats["binds"] > 0
        assert stats["full_rebuilds"] == 0
        # The whole point: incremental rescoring must do strictly less
        # work than the per-round rebuild it replaces.
        assert 0 < stats["cells_rescored"] < stats["cells_total"]
        assert any(k.startswith("dirty_rows_") for k in stats)
        # Metaheuristic solvers keep no long-lived matrix: no stats.
        assert _engine("sb", scale=112.0, solver="sa").run().rescore_stats == {}


# --------------------------------------------------------------------------
# Layer 3: order determinism (satellite: tie-breaking under partial rescore)
# --------------------------------------------------------------------------


def _tie_world():
    """Identical hosts + identical VMs: every cell ties with its row peers."""
    hosts = [make_host(i, node_class=MEDIUM) for i in range(6)]
    hosts[4].state = HostState.OFF
    vms = [make_vm(100 + v, cpu=100.0, mem=256.0) for v in range(5)]
    place(hosts[0], vms[0])
    place(hosts[1], vms[1])
    place(hosts[1], vms[2])
    return hosts, vms


class TestOrderDeterminism:
    def test_mutation_order_does_not_change_moves(self):
        """The same dirty set in any arrival order binds identically.

        The dirty feed is a set; :meth:`bind_round` sorts it, so the
        T-pass argmin maintenance and hill-climb tie-breaking (lowest
        row, then lowest column) must be independent of the order in
        which rows were marked dirty between rounds.
        """
        config = ScoreConfig.sb()
        mutations = [
            lambda hs, vs: hs[0].remove_vm(vs[0].vm_id),
            lambda hs, vs: setattr(hs[4], "state", HostState.ON),
            lambda hs, vs: setattr(hs[2], "quarantined", True),
            lambda hs, vs: (hs[1].remove_vm(vs[2].vm_id),
                            hs[3].add_vm(vs[2])),
        ]
        outcomes = []
        for order in itertools.permutations(range(len(mutations))):
            hosts, vms = _tie_world()
            matrix = PersistentScoreMatrix(hosts, config)
            matrix.attach()
            running = [v for v in vms if v.state is VmState.RUNNING]
            queued = [v for v in vms if v.state is VmState.QUEUED]
            matrix.bind_round(queued + running, 100.0)
            first = hill_climb(matrix)

            for i in order:
                mutations[i](hosts, vms)
            vms[0].state = VmState.COMPLETED
            columns = ([v for v in vms if v.state is VmState.QUEUED]
                       + [v for v in vms if v.state is VmState.RUNNING])
            matrix.bind_round(columns, 200.0)
            assert matrix.verify_against_fresh(columns, 200.0)
            moves = hill_climb(matrix)
            outcomes.append((first, moves))
        assert len(set(map(repr, outcomes))) == 1


# --------------------------------------------------------------------------
# Host-list match memoization
# --------------------------------------------------------------------------


class TestHostArrayCacheMemo:
    def test_in_place_growth_defeats_identity_fast_path(self):
        hosts = [make_host(i) for i in range(3)]
        matrix = PersistentScoreMatrix(hosts, ScoreConfig.sb0())
        assert matrix.matches(hosts)
        hosts.append(make_host(3))
        # Same list object, different cluster: must NOT match.
        assert not matrix.matches(hosts)
        hosts.pop()
        assert matrix.matches(hosts)

    def test_invalidate_match_memo_recovers_element_swap(self):
        hosts = [make_host(i) for i in range(3)]
        matrix = PersistentScoreMatrix(hosts, ScoreConfig.sb0())
        other = list(hosts)
        assert matrix.matches(other)  # element-wise pass memoizes `other`
        other[1] = make_host(99)
        matrix.invalidate_match_memo()
        assert not matrix.matches(other)

    def test_policy_rebuilds_cache_only_on_cluster_change(self):
        hosts = [make_host(i) for i in range(3)]
        policy = ScoreBasedPolicy(ScoreConfig.sb0())
        ctx = SimpleNamespace(hosts=hosts)
        first = policy._long_lived_matrix(ctx)
        # Steady state: the same list object is reused, zero rebuilds.
        for _ in range(5):
            assert policy._long_lived_matrix(ctx) is first
        hosts.append(make_host(3))
        second = policy._long_lived_matrix(ctx)
        assert second is not first and second.cap_cpu is not first.cap_cpu
        assert len(second.cap_cpu) == 4
        assert policy._matrix is second
        assert policy._long_lived_matrix(ctx) is second


# --------------------------------------------------------------------------
# Matrix choice + recovery
# --------------------------------------------------------------------------


class TestGatingAndRecovery:
    def test_verify_cells_catches_corruption_and_rebuild_recovers(self):
        hosts = [make_host(i) for i in range(4)]
        vms = [make_vm(100 + v) for v in range(3)]
        place(hosts[0], vms[0])
        matrix = PersistentScoreMatrix(hosts, ScoreConfig.sb())
        matrix.attach()
        columns = [vms[1], vms[2], vms[0]]
        matrix.bind_round(columns, 50.0)
        assert matrix.verify_cells()

        slot = matrix._round_slots[0]
        row = int(matrix._active[0])
        matrix.scores[row, slot] += 1.0  # simulated drift
        with pytest.raises(StateError):
            matrix.verify_cells()

        matrix.force_full_rebuild()
        matrix.bind_round(columns, 60.0)
        assert matrix.verify_cells()
        assert matrix.verify_against_fresh(columns, 60.0)
        assert matrix.stats()["full_rebuilds"] == 1

    @pytest.mark.parametrize("solver", ["hill_climb", "sa", "tabu"])
    def test_solver_name_picks_the_matrix(self, solver):
        """The hill climber rebinds one long-lived matrix; SA and tabu
        consume their matrix, so each round gets a one-shot."""
        hosts = [make_host(i) for i in range(3)]
        vms = [make_vm(100 + v) for v in range(3)]
        policy = ScoreBasedPolicy(ScoreConfig.sb(), solver=solver)
        ctx = SimpleNamespace(hosts=hosts, now=0.0, guard=None)
        first = policy._builder(ctx, vms, None)
        second = policy._builder(ctx, vms, None)
        if solver == "hill_climb":
            assert first is second is policy._matrix
            # Attached: the matrix's sink is the one sink on every host.
            assert all(len(h._sinks) == 1 and h._sinks[0] is first._sink
                       for h in hosts)
        else:
            assert isinstance(first, ScoreMatrixBuilder)
            assert first is not second
            # Each round builds its own matrix and keeps none.
            assert first.cap_cpu is not second.cap_cpu
            assert policy._matrix is None
            assert all(h._sinks == () for h in hosts)


# --------------------------------------------------------------------------
# Registration contract: one-shot matrices leak nothing
# --------------------------------------------------------------------------


class TestNoLeakedRegistrations:
    def test_one_shots_register_nothing(self):
        hosts = [make_host(i, node_class=CLASSES[i % 3]) for i in range(4)]
        vms = [make_vm(100 + v) for v in range(5)]
        place(hosts[0], vms[0])
        config = ScoreConfig.sb()
        assert all(len(h._sinks) == 0 for h in hosts)
        matrix = PersistentScoreMatrix(hosts, config)
        matrix.attach()
        sinks = [h._sinks for h in hosts]
        assert all(len(s) == 1 and s[0] is matrix._sink for s in sinks)
        for i in range(100):
            if i % 2:
                # The bind oracle's twin: the shared static arrays.
                one_shot = matrix._twin(len(vms))
                one_shot._bind_general(vms, float(i))
            else:
                one_shot = ScoreMatrixBuilder(hosts, vms, float(i), config)
            hill_climb(one_shot)
        assert [h._sinks for h in hosts] == sinks
        # The twins filled their own slots, none of the matrix's.
        assert matrix._slot_of == {} and matrix._n_slots == 0

    def test_strict_simulation_leaves_only_the_policy_registrations(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_STRICT_INVARIANTS", "raise")
        engine = _engine("sb", scale=112.0)
        res = engine.run()
        matrix = engine.policy._matrix
        assert res.rescore_stats["binds"] > 0
        # Every bind built a verification one-shot; none of them stuck.
        for host in engine.hosts:
            assert len(host._sinks) == 1
            assert host._sinks[0] is matrix._sink


# --------------------------------------------------------------------------
# Snapshots: the cell array and finished VMs stay out of the pickle
# --------------------------------------------------------------------------


class TestSnapshotPayload:
    def _bound_matrix(self, n_hosts=240, n_vms=300):
        hosts = [make_host(i, node_class=CLASSES[i % 3]) for i in range(n_hosts)]
        vms = [make_vm(1000 + j, cpu=50.0, mem=256.0) for j in range(n_vms)]
        for j, vm in enumerate(vms[: n_vms // 2]):
            place(hosts[j % n_hosts], vm)
        matrix = PersistentScoreMatrix(hosts, ScoreConfig.sb())
        matrix.attach()
        matrix.bind_round(vms, 60.0)
        return matrix, vms

    def test_pickled_attached_matrix_is_smaller_than_its_cells(self):
        import pickle

        matrix, _ = self._bound_matrix()
        blob = pickle.dumps(matrix, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(blob) < matrix.scores.nbytes
        restored = pickle.loads(blob)
        # The restore rebuilt the cells, counting nothing.
        assert restored.scores is not None
        assert restored.stats() == matrix.stats()
        assert restored.verify_cells()
        act = matrix._active
        live = np.nonzero(~matrix._stale)[0]
        assert live.size == 300
        assert np.array_equal(
            restored.scores[act[:, None], live], matrix.scores[act[:, None], live]
        )

    def test_slot_arrays_pickle_up_to_the_high_water_mark(self):
        """300 VMs fill 300 of 512 slots: the pickle carries 300 entries of
        each slot array, and the restore pads the rest back bit-identically."""
        import pickle

        matrix, _ = self._bound_matrix()
        names = [name for name, _, _ in matrix._slot_arrays()]
        assert matrix._n_slots == 300 < len(matrix._cur)
        state = matrix.__getstate__()
        assert {len(state[name]) for name in names} == {300}
        restored = pickle.loads(pickle.dumps(matrix, protocol=pickle.HIGHEST_PROTOCOL))
        assert restored.stats()["capacity"] == len(matrix._cur)
        for name in names:
            mine, theirs = getattr(restored, name), getattr(matrix, name)
            assert mine.dtype == theirs.dtype and mine.shape == theirs.shape, name
            assert mine.tobytes() == theirs.tobytes(), name
        assert restored.scores.tobytes() == matrix.scores.tobytes()

    def test_finished_vms_pickle_as_stand_ins_in_key_order(self):
        import pickle

        from repro.scheduling.score.persistent import _RETIRED

        matrix, vms = self._bound_matrix(n_hosts=6, n_vms=8)
        for vm in vms[::3]:
            vm.state = VmState.COMPLETED
        restored = pickle.loads(pickle.dumps(matrix, protocol=pickle.HIGHEST_PROTOCOL))
        assert list(restored._vm_of) == list(matrix._vm_of)
        for vm in vms:
            got = restored._vm_of[vm.vm_id]
            if vm.is_active:
                assert got.vm_id == vm.vm_id and got is not _RETIRED
            else:
                assert got is _RETIRED and not got.is_active
        assert restored._slot_of == matrix._slot_of

    def test_one_shot_twins_skip_the_pickle_hook(self, monkeypatch):
        """``_twin()`` shares the static host arrays directly: the bind
        oracle's twin, built every bind, must not pay for building a
        snapshot payload."""
        hosts = [make_host(i) for i in range(3)]
        vms = [make_vm(100 + v) for v in range(4)]
        matrix = PersistentScoreMatrix(hosts, ScoreConfig.sb())
        matrix.attach()
        matrix.bind_round(vms, 0.0)

        def refuse(self):
            raise AssertionError("_twin() ran the pickle hook")

        monkeypatch.setattr(PersistentScoreMatrix, "__getstate__", refuse)
        assert matrix.verify_against_fresh(vms, 0.0)
        twin = matrix._twin(len(vms))
        assert twin is not matrix
        assert twin.cap_cpu is matrix.cap_cpu
        assert twin.class_of_host is matrix.class_of_host
        assert twin._slot_of == {} and len(twin._cur) == len(vms)
        # Unattached: the matrix's sink is still the only one.
        assert all(len(h._sinks) == 1 and h._sinks[0] is matrix._sink
                   for h in hosts)
