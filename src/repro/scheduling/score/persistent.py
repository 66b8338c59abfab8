"""The score matrix: the paper's (M+1)xN matrix with O(dirty) rescoring.

:class:`PersistentScoreMatrix` is the one score kernel.  The virtual-host
row is implicit: queued VMs carry ``queue_cost`` as their "current" cost,
so any feasible placement is a (large) improvement.  Every cell is one
evaluation of ``Score(h, vm) = P_req + P_res + P_virt + P_conc + P_pwr +
P_SLA + P_fault``, written once as the general formula,
:meth:`~PersistentScoreMatrix._score_cells`, the reference that
:meth:`~PersistentScoreMatrix.verify_cells` and the tests hold the
kernels to.  Cells come from two kernels, each bit-identical to it
(below): :meth:`~PersistentScoreMatrix._score_queued` for a block of
queued columns, from the kept host terms, and
:meth:`~PersistentScoreMatrix._score_placed` for any block that holds a
placed column, from the kept placed terms.  Every status quo cost comes
from the same cells plus
:meth:`~PersistentScoreMatrix._soft_current_cost`; the scalar
:mod:`repro.scheduling.score.penalties` is the independent spec the tests
hold it to.

The policy keeps one matrix per cluster and rebinds it every round
instead of rebuilding O(online x N) cells; a one-shot
:class:`~repro.scheduling.score.matrix.ScoreMatrixBuilder` is the same
class bound once.  The matrix owns everything it reads:

* **Static host arrays** (``cap_cpu``, ``cap_mem``, ``cc``, ``cm``, the
  spec reliabilities, ``host_index``), built once per host population —
  host specs never change during a run; :meth:`matches` guards reuse.
  The P_req matrix is factorized through **host classes**: hosts sharing
  ``(arch, hypervisor, cpu_capacity, mem_mb)`` are interchangeable for
  feasibility, so each VM slot stores one boolean per class (3 classes
  for the paper's datacenter) and a cell's P_req is a gather of the
  per-class string equality and ``req <= cap + 1e-9`` tests.
* **Row copies** of the dynamic host state (reserved cpu/mem, VM count,
  concurrency cost, availability), re-read from the hosts for dirty rows
  only (:meth:`_read_rows`, the one reader of host state) and changed
  hypothetically by :meth:`apply_move`.  Beside them each row keeps its
  **host term** (``_host_terms``): the part of a queued VM's cell that
  depends on the host alone — P_virt's creation cost, P_conc's load
  (``conc + pending``) and P_pwr — so a queued cell is one gather of it
  plus the VM's P_fault, under the feasibility mask.  :meth:`_read_rows`
  computes it for every row it reads; :meth:`apply_move` for the rows it
  touches when it rescores an unfrozen column on them.  Like the cells
  of frozen columns, a touched row's term is otherwise stale until the
  next bind re-reads the row, and nothing reads it before.  Each row
  also keeps its **placed terms** (``_placed_hi``, ``_placed_lo``,
  ``_placed_on``): the sums of a placed column's cell off its host, for
  either migration-penalty branch, and on it.  They are recomputed
  lazily: :meth:`_read_rows` and :meth:`apply_move` only mark their rows
  in ``_placed_stale``, and :meth:`_score_placed` recomputes the marked
  rows before it reads them, so a round without placed columns — one
  arrival, most rounds — computes none.
* **One slot space.**  A matrix column *is* a VM slot.  Each slot holds
  the VM's static attributes (``cpu_req``/``mem_req`` as last seen,
  ``fault_tolerance``, the per-class P_req row), one cell per host in
  the ``(M, cap)`` cell array, and its column state (current host, -1
  while queued, migration-penalty bucket, SLA fulfilment, current cost,
  argmin cache).  A slot is filled once per VM lifetime, and refilled
  only when dynamic SLA enforcement inflates the requirement in place;
  filling resets its column state and marks it stale, so its first
  participation rescores it in full.  Finished VMs are swept out lazily
  (once the registry passes ``_MIN_SWEEP`` entries and has doubled since
  the previous sweep) and their slots recycled through a free list, so
  the footprint tracks the *live* VM population, not the cumulative job
  count.  Every per-slot array doubles together when the slots run out.

Per round, :meth:`bind_round` runs two phases:

1. the **row phase** collects the **dirty host rows**: the matrix's dirty
   sink on every host (every ``Host`` mutation, including power
   transitions and quarantine — the setters mark dirty), rows touched
   hypothetically by last round's :meth:`apply_move` calls, and rows
   whose observed-reliability override changed; re-reads their dynamic
   state and host terms from the hosts and stamps them, so every column
   catches up on them the next time it takes part in a round (lazy
   catch-up, below).
   It maintains ``active_rows`` incrementally (recomputed only on an
   availability flip among the dirty rows — the steady state pays no
   O(M) scan);
2. the **column phase** detects **changed columns** among the round's
   participants by comparing stored column attributes against fresh ones
   (current host changed, migration-penalty bucket crossed, SLA
   fulfilment moved, slot newly filled/refilled), rescores exactly those
   columns across the active rows, catches the unchanged ones up in one
   block over the rows stamped since the oldest of them last took part,
   and keeps the per-column argmin caches valid under the partial
   rescoring via a generalized multi-row take/rescan rule.

The column phase has two paths.  A round of exactly one column that
changed, with some host row active — one arrival, the shape of most rounds (78–89 % of all binds
across the benchmark's workloads) — takes the **one-column path**
(:meth:`_bind_one_column`): the column's attributes are compared and
written back as Python scalars, its cells come from the same kernels as
the general path's over the active rows — for an arrival,
:meth:`_score_queued` — and are stored with one column assignment, its
cost from the same rule as :meth:`_compute_costs`, and its minimum from
one 1-D argmin.  For one column, the general path's
N-column bookkeeping (change masks, scatters, the lag scan, a 2-D minima
refresh) costs more than the column's cells: binding one-arrival rounds
through it raised the median bind on the ``paper`` benchmark workload
from 77–83 µs to 142–144 µs, so the fork stays.  Every other round — a
lone *unchanged* column that only needs catch-up included — takes the
**general path** (:meth:`_bind_columns`).  The general path is also the
one-column path's reference: :meth:`_bind_general` binds every round
through it, and both :meth:`verify_against_fresh` and the differential
tests hold the one-column path to it, bit for bit.

**The bit-identity invariant.**  A cell rescored incrementally is
bit-for-bit the cell a one-shot bind of the same cluster computes: both
come from the same elementwise float expressions gathered over row/column
subsets.  The ``verify_against_fresh`` oracle (run on every bind under
the engine's strict invariants) checks exactly that.  Two representation
choices make the incremental form possible:

* the migration penalty ``T_r < C_m ? 2 C_m : C_m/2`` is factorized
  through **buckets**: with ``D`` the sorted distinct per-host migration
  costs, a column's bucket is ``searchsorted(D, T_r, 'right')`` and the
  predicate becomes ``cm_rank[host] >= bucket`` — columns only need
  rescoring when ``T_r`` (monotonically decreasing) crosses a distinct
  ``C_m`` value, not every round;
* cells of **unavailable rows are never read** (cost lookups guard on
  ``avail``, minima scan active rows only), so a row going offline needs
  no O(N) +inf fill and a recycled column slot may leave garbage behind
  rows that are off.

A queued VM's cell is on no host and priced at creation, so the general
formula adds, in this order, ``((0.0 + cc) + (conc + pending)) +
(t_empty * c_empty - occ_now * c_fill)``, then ``+ 0.0`` for the SLA term
when SLA is on (each disabled term skipped), then P_fault.  The host term
is that sum up to P_fault, taken in the same order on the same operands,
so the shortcut's cells equal the general formula's bit for bit.  A
placed VM's cell off its host adds ``2 cm`` (remaining time under ``cm``)
or ``cm/2`` in place of ``cc``, and on its host ``0.0`` for P_virt and
P_conc, then the SLA on-cell term; the placed terms are those sums up to
the column's own terms, so :meth:`_score_placed` adds only the SLA
on-cell term and P_fault.  :meth:`verify_cells` and the tests hold both
kernels to the general formula.

Tie-breaking is order-deterministic under partial rescoring: dirty rows
are processed in ascending host index (the dirty feed is a *set*; sorting
makes the result independent of mutation order), the multi-row argmin
takes the lowest host index on value ties, and :meth:`best_move` breaks
value ties by lowest row then lowest column, exactly like
``np.argmin`` over the diff matrix — ``tests/test_score_persistent.py``
permutes dirty-row marking order and asserts identical move sequences.

Within a round, :meth:`apply_move` rescores only the <=2 affected host
rows, and only over the round's still-unfrozen columns, and maintains a
per-column (min value, argmin row) cache of the diff (score - current
cost), so :meth:`best_move` is O(N).  Frozen columns' cells and costs go
stale on the touched rows until the next bind restamps those rows; a
round whose last unfrozen column moves pays nothing beyond the move's
bookkeeping.  The cache is per column, not per row, because queued VMs
are frequently identical: a per-row argmin tends to point at the very
column each move freezes.
In-round planned operations feed a ``pending`` concurrency cost per host,
so later moves see earlier ones through P_conc — this is what makes SB2
stagger simultaneous creations.

A queued->placed :meth:`apply_move` flips the column's pricing from
creation cost to migration penalty on *every* row; rather than rescoring
the full column mid-round, the column is marked **stale** and lazily
rescored in full the next time it participates in a round.  Rows touched
by hypothetical moves are remembered and folded into the next bind's
dirty set, so rejected actions (chaos, capacity races) cannot leave
phantom state behind.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.host import Host
from repro.cluster.vm import Vm, VmState
from repro.errors import SchedulingError, StateError
from repro.scheduling.score.config import ScoreConfig

__all__ = ["PersistentScoreMatrix"]

INF = np.inf

#: Sweep the VM registry for retired slots once it exceeds this size and
#: has doubled since the previous sweep (amortized O(1) per column).
_MIN_SWEEP = 1024

#: The per-row terms a snapshot leaves out and the restore recomputes.
_ROW_TERMS = ("_host_terms", "_placed_hi", "_placed_lo", "_placed_on", "_placed_stale")


def _log2_bucket(n: int) -> int:
    """Histogram bucket for a per-bind dirty count (0, 1, 2, 4, 8, ...)."""
    return 0 if n <= 0 else 1 << (int(n).bit_length() - 1)


class _RetiredVm:
    """Stand-in for a finished VM in a pickled slot registry.

    The sweep is the only reader of registry values, and it only asks
    ``is_active``; a finished VM never becomes active again.  Pickles as a
    reference to the module-level :data:`_RETIRED`.
    """

    __slots__ = ()
    is_active = False

    def __reduce__(self) -> str:
        return "_RETIRED"


_RETIRED = _RetiredVm()


class PersistentScoreMatrix:
    """Score matrix state, bindable to one scheduling round after another.

    The solvers and the shutdown ranking consume ``config``, ``hosts``,
    ``host_index``, ``columns``, ``n_rows``/``n_cols``, ``is_queued``
    (round order), :meth:`best_move`, :meth:`apply_move`,
    :meth:`current_costs` and :meth:`host_row_score`.

    ``capacity`` is the initial slot count; the slots double when they run
    out.  A long-lived matrix must be attached (:meth:`attach`) so it sees
    host mutations between binds; ``ScoreBasedPolicy`` keeps one per
    cluster and rebuilds it only when the cluster changes.  An unattached
    matrix is valid for the round it is bound to — the one-shot
    :class:`~repro.scheduling.score.matrix.ScoreMatrixBuilder`.  Not
    thread-safe.

    An engine snapshot pickles the matrix without its cell array, and the
    restore rebuilds the cells (:meth:`_rebuild_cells`); every other
    member, the counters behind ``rescore_stats`` included, is pickled
    as-is.
    """

    def __init__(
        self, hosts: Sequence[Host], config: ScoreConfig, capacity: int = 64
    ) -> None:
        self.config = config
        # ---- static host arrays -----------------------------------------
        self.hosts = list(hosts)
        self.n_rows = len(self.hosts)
        #: Last *sequence object* that passed :meth:`matches` — the engine
        #: hands the same list every round, so after one element-wise
        #: check all later calls are an O(1) identity test (at 10k hosts
        #: the per-round O(M) scan was ~half the simulation).
        self._last_match: object = hosts
        self.host_index = {h.host_id: i for i, h in enumerate(self.hosts)}
        specs = [h.spec for h in self.hosts]
        self.cap_cpu = np.array([s.cpu_capacity for s in specs])
        self.cap_mem = np.array([s.mem_mb for s in specs])
        self.cc = np.array([s.creation_s for s in specs])
        self.cm = np.array([s.migration_s for s in specs])
        self._spec_rel = np.array([s.reliability for s in specs])
        #: Sorted distinct migration costs and each host's rank therein:
        #: ``tr < cm[r]``  <=>  ``cm_rank[r] >= searchsorted(D, tr, 'right')``.
        self._cm_distinct = np.unique(self.cm)
        self._cm_rank = np.searchsorted(self._cm_distinct, self.cm)

        # ---- host classes (P_req factorization) -------------------------
        keys: Dict[tuple, int] = {}
        self.class_of_host = np.empty(self.n_rows, dtype=int)
        self._class_arch: List[str] = []
        self._class_hyp: List[str] = []
        self._class_cap_cpu: List[float] = []
        self._class_cap_mem: List[float] = []
        for i, s in enumerate(specs):
            key = (s.arch, s.hypervisor, s.cpu_capacity, s.mem_mb)
            cls = keys.get(key)
            if cls is None:
                cls = keys[key] = len(keys)
                self._class_arch.append(s.arch)
                self._class_hyp.append(s.hypervisor)
                self._class_cap_cpu.append(float(s.cpu_capacity))
                self._class_cap_mem.append(float(s.mem_mb))
            self.class_of_host[i] = cls

        self._init_dynamic(capacity)

    def _init_dynamic(self, capacity: int) -> None:
        """Everything but the config and the static host arrays: rows read
        from the hosts, ``capacity`` empty slots, no round bound."""
        m = self.n_rows
        self._rel = self._spec_rel

        # ---- persistent dynamic host rows (hypothetical-capable copies) -
        self.avail = np.zeros(m, dtype=bool)
        self.res_cpu = np.empty(m)
        self.res_mem = np.empty(m)
        self.nvms = np.empty(m)
        self.conc = np.empty(m)
        self.pending = np.zeros(m)
        #: Each row's queued-cell sum (:meth:`_host_term`), kept with the
        #: row copies it derives from.
        self._host_terms = np.empty(m)
        self._init_placed_terms()
        self._read_rows(range(m))
        self._active = np.nonzero(self.avail)[0]

        # ---- dirty feeds ------------------------------------------------
        #: Host ids mutated since the last bind (power transitions included
        #: — ``Host.state``/``Host.quarantined`` setters mark dirty); fed
        #: once :meth:`attach` subscribes it.
        self._sink: set = set()
        #: Host *indices* touched hypothetically by apply_move; restored
        #: from ground truth and rescored at the next bind.
        self._touched: set = set()
        #: Lazy catch-up clocks.  ``_row_stamp[r]`` is the bind at which
        #: row ``r`` last changed; ``_col_stamp[c]`` the bind up to which
        #: column ``c``'s cells are current.  A column participating in a
        #: round rescoring only rows stamped later than its own stamp is
        #: exactly caught up — non-participating columns pay nothing.
        self._bind_idx = 0
        self._row_stamp = np.zeros(m, dtype=np.int64)

        # ---- slot space -------------------------------------------------
        self._slot_of: Dict[int, int] = {}
        self._vm_of: Dict[int, Union[Vm, _RetiredVm]] = {}
        self._free: List[int] = []
        self._n_slots = 0
        self._next_sweep = _MIN_SWEEP
        self.scores = np.full((m, capacity), INF)
        self._peak_matrix_nbytes = self.scores.nbytes
        for name, unused, width in self._slot_arrays():
            setattr(self, name, np.full((capacity,) + width, unused))

        # ---- round binding ----------------------------------------------
        self.columns: List[Vm] = []
        self.is_queued = np.zeros(0, dtype=bool)
        self._round_slots = np.empty(0, dtype=int)
        self.n_cols = 0

        # ---- observability ----------------------------------------------
        self._cells_rescored = 0
        self._cells_total = 0
        self._full_rebuilds = 0
        self._row_hist: Counter = Counter()
        self._col_hist: Counter = Counter()

    def _slot_arrays(self) -> Tuple[Tuple[str, object, Tuple[int, ...]], ...]:
        """Every per-slot array but the cells: (name, unused-slot value,
        shape past the slot axis).

        An unused slot is stale, so its first participation rescores it in
        full and nothing reads it before.  A slot is queued exactly when
        its ``_cur`` is -1 (:meth:`_prepare_columns` admits no other
        unplaced column), and caught up on its cells exactly when it is
        not ``_stale``.
        """
        return (
            ("v_cpu", 0.0, ()),
            ("v_mem", 0.0, ()),
            ("v_ftol", 0.0, ()),
            ("v_feas", False, (len(self._class_arch),)),
            ("_cur", -1, ()),
            ("_bucket", 0, ()),
            ("_fulf", 1.0, ()),
            ("_cost", self.config.queue_cost, ()),
            ("_col_min_val", INF, ()),
            ("_col_min_row", 0, ()),
            ("_frozen", False, ()),
            ("_stale", True, ()),
            ("_col_stamp", 0, ()),
        )

    def _twin(self, capacity: int) -> "PersistentScoreMatrix":
        """A fresh, unattached matrix sharing this one's static host arrays,
        with ``capacity`` empty slots: a one-shot bind off this matrix's
        slot space.  ``_init_dynamic`` replaces every member the
        constructor does not build from the hosts alone."""
        twin = PersistentScoreMatrix.__new__(PersistentScoreMatrix)
        twin.__dict__.update(self.__dict__)
        twin._init_dynamic(capacity)
        return twin

    def matches(self, hosts: Sequence[Host]) -> bool:
        """Whether this matrix was built from exactly these host objects.

        The identity fast path is guarded by a length check: a host list
        *mutated in place* (append/remove) keeps its identity, and
        accepting it would hand out arrays for a different cluster.  A
        same-length in-place element swap cannot be seen from here — code
        that does that must call :meth:`invalidate_match_memo` (the
        element-wise check then re-validates or rejects the list).
        """
        n = self.n_rows
        if (hosts is self.hosts or hosts is self._last_match) and len(hosts) == n:
            return True
        if len(hosts) != n:
            return False
        if all(a is b for a, b in zip(hosts, self.hosts)):
            self._last_match = hosts
            return True
        return False

    def invalidate_match_memo(self) -> None:
        """Drop the memoized sequence; the next :meth:`matches` re-checks.

        For callers that mutate a previously matched host list in place
        (same object, same length, different elements) — identity alone
        cannot detect that.
        """
        self._last_match = None

    # ------------------------------------------------------------ snapshots

    def __getstate__(self) -> dict:
        """Pickle everything but the ``(M, cap)`` cell array and the row
        terms.

        Every other member is O(M + cap), and the cells and row terms are
        derivable from it: :meth:`__setstate__` recomputes them.  Until a
        sweep frees their slots, the registry keeps finished VMs (and
        with them their jobs); they pickle as a stand-in, which keeps the
        key order, so the sweep after a restore frees the same slots in
        the same order.
        The last round's columns pickle their finished VMs as the same
        stand-in: the next bind replaces them unread.
        """
        state = self.__dict__.copy()
        state["scores"] = None
        for name in _ROW_TERMS:
            del state[name]
        state["_vm_of"] = {
            vm_id: vm if vm.is_active else _RETIRED
            for vm_id, vm in self._vm_of.items()
        }
        state["columns"] = [
            vm if vm.is_active else _RETIRED for vm in self.columns
        ]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._rebuild_cells()

    def _rebuild_cells(self) -> None:
        """Recompute the row terms and the cell array a snapshot left out.

        The host terms from the stored row copies, every row's placed
        terms marked for recompute, then one :meth:`_score_block` over the
        active rows and the non-stale slots, from the row copies and
        column attributes.
        Exact for every cell anything reads before rescoring it: a column
        reads a cell only after its catch-up has rescored each row stamped
        since the column last took part, rows touched by hypothetical
        moves are restamped at the next bind, and stale or dead slots and
        unavailable rows are never read.  Counts no rescored cells —
        ``rescore_stats`` resumes exactly as pickled.
        """
        self._host_terms = np.array(
            [self._row_host_term(r) for r in range(self.n_rows)], dtype=float
        )
        self._init_placed_terms()
        self.scores = np.full((self.n_rows, len(self._cur)), INF)
        cols = np.nonzero(~self._stale)[0]
        act = self._active
        if act.size and cols.size:
            self.scores[act[:, None], cols] = self._score_block(act, cols)

    def attach(self) -> None:
        """Subscribe this matrix to the cluster.

        Registers the matrix's dirty sink on every host — the one step
        that turns a one-round matrix into a cross-round one.
        """
        for h in self.hosts:
            h.add_dirty_sink(self._sink)

    # ------------------------------------------------------------ slot space

    def _grow(self) -> None:
        """Double the slot space: the cells and every per-slot array."""
        old = len(self._cur)
        cap = 2 * old or 64
        grown = np.full((self.n_rows, cap), INF)
        # Both buffers are alive during the copy; peak process RSS sees
        # old+new, so the footprint reported to the memory gate must too.
        self._peak_matrix_nbytes = max(
            self._peak_matrix_nbytes, self.scores.nbytes + grown.nbytes
        )
        grown[:, :old] = self.scores
        self.scores = grown
        for name, unused, width in self._slot_arrays():
            arr = getattr(self, name)
            new = np.full((cap,) + width, unused, dtype=arr.dtype)
            new[:old] = arr
            setattr(self, name, new)

    def _fill_slot(self, slot: int, vm: Vm) -> None:
        """(Re)fill ``slot`` with ``vm``'s static attributes and reset its
        column state: its cells are garbage until rescored."""
        job = vm.job
        self.v_cpu[slot] = vm.cpu_req
        self.v_mem[slot] = vm.mem_req
        self.v_ftol[slot] = job.fault_tolerance
        feas = self.v_feas[slot]
        for c in range(len(self._class_arch)):
            feas[c] = (
                self._class_arch[c] == job.arch
                and self._class_hyp[c] == job.hypervisor
                and vm.cpu_req <= self._class_cap_cpu[c] + 1e-9
                and vm.mem_req <= self._class_cap_mem[c] + 1e-9
            )
        self._stale[slot] = True
        self._frozen[slot] = False
        self._cur[slot] = -1
        self._cost[slot] = self.config.queue_cost
        self._col_min_val[slot] = INF
        self._col_min_row[slot] = 0

    def _new_slot(self, vm: Vm) -> int:
        """Register a VM the registry has not seen in a free slot, filled."""
        if self._free:
            slot = self._free.pop()
        else:
            slot = self._n_slots
            if slot == len(self._cur):
                self._grow()
            self._n_slots += 1
        self._slot_of[vm.vm_id] = slot
        self._vm_of[vm.vm_id] = vm
        self._fill_slot(slot, vm)
        return slot

    def _maybe_sweep(self) -> None:
        """Free the slots of finished VMs and drop their columns."""
        if len(self._slot_of) < self._next_sweep:
            return
        retired = [vm_id for vm_id, vm in self._vm_of.items() if not vm.is_active]
        for vm_id in retired:
            slot = self._slot_of.pop(vm_id)
            del self._vm_of[vm_id]
            self._free.append(slot)
            self._stale[slot] = True
        self._next_sweep = max(_MIN_SWEEP, 2 * len(self._slot_of))

    def _prepare_columns(self, columns: Sequence[Vm], now: float) -> tuple:
        """Single per-column pass: ``(slots, cur, tr)``.

        Builds Python lists and each array once from them.  A column is a
        queued VM (current row -1) or a VM running on a matrix row; any
        other raises :class:`~repro.errors.SchedulingError` — an
        in-operation VM is pinned (§III-A-3), and a finished VM or one
        running off the matrix has no cell to price it by.
        """
        self._maybe_sweep()
        index = self.host_index
        slot_of = self._slot_of
        v_cpu, v_mem = self.v_cpu.item, self.v_mem.item
        slots: List[int] = []
        cur: List[int] = []
        tr: List[float] = []
        for vm in columns:
            state = vm.state
            c = index.get(vm.host_id, -1) if state is VmState.RUNNING else -1
            if c < 0 and state is not VmState.QUEUED:
                raise SchedulingError(
                    f"vm {vm.vm_id} is {state.value} on host {vm.host_id} and "
                    "cannot be a column: only a queued VM or one running on a "
                    "matrix row can"
                )
            slot = slot_of.get(vm.vm_id)
            if slot is None:
                slot = self._new_slot(vm)
            elif v_cpu(slot) != vm.cpu_req or v_mem(slot) != vm.mem_req:
                # Dynamic SLA enforcement inflated the requirement in place.
                self._fill_slot(slot, vm)
            slots.append(slot)
            cur.append(c)
            tr.append(vm.remaining_user_time(now))
        return (
            np.array(slots, dtype=int),
            np.array(cur, dtype=int),
            np.array(tr, dtype=float),
        )

    def _read_rows(self, rows: Iterable[int]) -> bool:
        """Re-read the row copies of ``rows`` from their hosts.

        The one reader of dynamic host state: reserved CPU and memory, VM
        count, concurrency cost and availability (on and not
        quarantined).  Clears the rows' in-round ``pending`` cost,
        recomputes their host terms from the values just read and marks
        their placed terms for recompute.  Returns whether any row's
        availability flipped.
        """
        hosts = self.hosts
        avail = self.avail
        res_cpu, res_mem, nvms, conc = self.res_cpu, self.res_mem, self.nvms, self.conc
        pending, terms, host_term = self.pending, self._host_terms, self._host_term
        stale = self._placed_stale.add
        flipped = False
        for r in rows:
            stale(r)
            h = hosts[r]
            cpu = res_cpu[r] = h.cpu_reserved()
            mem = res_mem[r] = h.mem_reserved()
            n = nvms[r] = h.n_vms
            load = conc[r] = h.concurrency_cost
            pending[r] = 0.0
            terms[r] = host_term(r, cpu, mem, n, load + 0.0)  # pending is 0.0
            up = h.is_available and not h.quarantined
            if avail.item(r) != up:  # a numpy bool scalar compares ~20x slower
                avail[r] = up
                flipped = True
        return flipped

    # ------------------------------------------------------------------ math

    def _score_block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Score cells for the given host rows x column slots.

        Columns that are all queued take :meth:`_score_queued`, any other
        block :meth:`_score_placed`; both are bit-identical to the general
        formula, :meth:`_score_cells`.  A queued slot — ``_cur`` -1 — is
        priced at creation and is on no host.
        """
        R = np.asarray(rows, dtype=int)
        C = np.asarray(cols, dtype=int)
        q = self._cur[C] < 0
        if q.all():
            return self._score_queued(R, C)
        return self._score_placed(R, C, q)

    def _host_term(
        self, r: int, res_cpu: float, res_mem: float, nvms: float, load: float
    ) -> float:
        """Row ``r``'s queued-cell sum, from its row-copy values.

        ``load`` is ``conc + pending``.  These are the terms
        :meth:`_score_cells` adds for a column on no host priced at
        creation, in its order: ``((0.0 + cc) + load) + (t_empty * c_empty
        - occ_now * c_fill)``, then ``+ 0.0`` for the SLA term; a disabled
        term is skipped as it is there.  Python floats are IEEE doubles,
        so the sum is bit-identical to the array one.
        """
        cfg = self.config
        s = 0.0
        if cfg.enable_virt:
            s += self.cc.item(r)
        if cfg.enable_conc:
            s += load
        if cfg.enable_pwr:
            occ_now = max(res_cpu / self.cap_cpu.item(r), res_mem / self.cap_mem.item(r))
            t_empty = 1.0 if nvms <= cfg.th_empty else 0.0
            s += t_empty * cfg.c_empty - occ_now * cfg.c_fill
        if cfg.enable_sla:
            s += 0.0
        return s

    def _row_host_term(self, r: int) -> float:
        """:meth:`_host_term` of row ``r`` from its row copies."""
        return self._host_term(
            r, self.res_cpu.item(r), self.res_mem.item(r), self.nvms.item(r),
            self.conc.item(r) + self.pending.item(r),
        )

    def _init_placed_terms(self) -> None:
        """Empty placed terms, every row marked for recompute."""
        m = self.n_rows
        self._placed_hi = np.empty(m)
        self._placed_lo = np.empty(m)
        self._placed_on = np.empty(m)
        #: Rows whose row copies changed since their placed terms were
        #: computed: the next :meth:`_score_placed` recomputes them.
        self._placed_stale: set = set(range(m))

    def _refresh_placed_terms(self) -> None:
        """Recompute the placed terms of every row marked stale."""
        rows = list(self._placed_stale)
        self._placed_stale.clear()
        self._placed_hi[rows], self._placed_lo[rows], self._placed_on[rows] = (
            self._placed_terms_of(rows)
        )

    def _placed_terms_of(self, rows: Iterable[int]) -> Tuple[list, list, list]:
        """The placed terms ``(hi, lo, on)`` of ``rows``, from their row
        copies.

        A row's placed terms are the sums :meth:`_score_cells` adds, in its
        order, for a column on another host priced by migration —
        ``((0.0 + 2*cm) + (conc + pending)) + P_pwr``, then ``+ 0.0`` for
        the SLA term, when the column's remaining time is under ``cm``
        (``hi``), the same with ``cm/2`` (``lo``) — and for the column's
        own cell, where P_virt and P_conc add exactly 0.0: ``0.0 + P_pwr``
        (``on``).  A disabled term is skipped as it is there; Python
        floats are IEEE doubles, so each sum is bit-identical to the
        array one.
        """
        cfg = self.config
        virt, conc, pwr, sla = cfg.enable_virt, cfg.enable_conc, cfg.enable_pwr, cfg.enable_sla
        th_empty, c_empty, c_fill = cfg.th_empty, cfg.c_empty, cfg.c_fill
        cm_of, conc_of, pending_of = self.cm.item, self.conc.item, self.pending.item
        cpu_of, mem_of, nvms_of = self.res_cpu.item, self.res_mem.item, self.nvms.item
        cap_cpu_of, cap_mem_of = self.cap_cpu.item, self.cap_mem.item
        his: List[float] = []
        los: List[float] = []
        ons: List[float] = []
        for r in rows:
            hi = lo = on = 0.0
            if virt:
                cm = cm_of(r)
                hi += 2.0 * cm
                lo += cm / 2.0
            if conc:
                load = conc_of(r) + pending_of(r)
                hi += load
                lo += load
            if pwr:
                occ_now = max(cpu_of(r) / cap_cpu_of(r), mem_of(r) / cap_mem_of(r))
                t_empty = 1.0 if nvms_of(r) <= th_empty else 0.0
                p_pwr = t_empty * c_empty - occ_now * c_fill
                hi += p_pwr
                lo += p_pwr
                on += p_pwr
            if sla:
                hi += 0.0
                lo += 0.0
            his.append(hi)
            los.append(lo)
            ons.append(on)
        return his, los, ons

    def _score_queued(self, R: np.ndarray, C: np.ndarray) -> np.ndarray:
        """Cells of queued slots ``C`` on rows ``R``: the kept host term,
        plus the slot's P_fault, where the VM is feasible.

        Bit-identical to :meth:`_score_cells` for such slots: there every
        cell is off its column's host and priced at creation, so the sum
        runs through the host terms in the same order and P_fault comes
        last.  ``max(a, b) <= x`` is tested as ``a <= x and b <= x``.
        """
        Rc = R[:, None]
        lim = 1.0 + 1e-9
        feasible = (
            self.v_feas[C].T[self.class_of_host[R]]
            & self.avail[Rc]
            & ((self.res_cpu[Rc] + self.v_cpu[C]) / self.cap_cpu[Rc] <= lim)
            & ((self.res_mem[Rc] + self.v_mem[C]) / self.cap_mem[Rc] <= lim)
        )
        s = self._host_terms[Rc]
        if self.config.enable_fault:
            s = s + ((1.0 - self._rel[Rc]) - self.v_ftol[C]) * self.config.c_fail
        return np.where(feasible, s, INF)

    def _score_placed(self, R: np.ndarray, C: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Cells of any slots ``C`` (queued flags ``q``) on rows ``R`` from
        the kept row terms.

        Off a column's host, the cell is the row's migration sum — ``hi``
        where ``cm_rank >= bucket`` (the remaining time is under ``cm``),
        else ``lo`` — or, for a queued column, its host term; on the
        column's host it is the on-cell term plus the SLA on-cell term
        (``c_sla`` below full fulfilment, +inf at or below ``th_sla``).
        P_fault comes last, and the general formula's feasibility mask
        over it.  Bit-identical to :meth:`_score_cells`: every sum runs
        through the same operands in the same order.
        """
        if self._placed_stale:
            self._refresh_placed_terms()
        cfg = self.config
        Rc = R[:, None]
        cur = self._cur[C]
        on = cur == Rc
        s = np.where(
            self._cm_rank[Rc] >= self._bucket[C], self._placed_hi[Rc], self._placed_lo[Rc]
        )
        if cfg.enable_virt and q.any():
            # Without P_virt the host term equals both migration sums.
            s = np.where(q, self._host_terms[Rc], s)
        on_term = self._placed_on[Rc]
        if cfg.enable_sla:
            fulf = self._fulf[C]
            s = np.where(on, on_term + np.where(fulf < 1.0, cfg.c_sla, 0.0), s)
            hard = fulf <= cfg.th_sla  # th_sla < 1: hard implies soft
            if hard.any():
                s = np.where(on & hard, INF, s)
        else:
            s = np.where(on, on_term, s)
        if cfg.enable_fault:
            s = s + ((1.0 - self._rel[Rc]) - self.v_ftol[C]) * cfg.c_fail
        occ_after = np.maximum(
            (self.res_cpu[Rc] + np.where(on, 0.0, self.v_cpu[C])) / self.cap_cpu[Rc],
            (self.res_mem[Rc] + np.where(on, 0.0, self.v_mem[C])) / self.cap_mem[Rc],
        )
        feasible = (
            self.v_feas[C].T[self.class_of_host[R]]
            & self.avail[Rc]
            & (occ_after <= 1.0 + 1e-9)
        )
        return np.where(feasible, s, INF)

    def _score_cells(self, R: np.ndarray, C: np.ndarray) -> np.ndarray:
        """The general formula: cells for host rows ``R`` x slots ``C``.

        The paper's penalty sum over host/VM vectors gathered from the
        persistent arrays.  The migration predicate is evaluated in
        bucket space (``cm_rank >= bucket`` <=> ``tr < cm``) — same
        booleans, same ``2*cm`` / ``cm/2`` values as the scalar spec.
        P_pwr uses the host's occupation *without* the tentative VM — the
        paper's §III-A-4 defines "O(h, vm) = occupation of h" (no
        allocation), unlike P_res's "occupation of h allocating vm".
        Unavailable rows score +inf.  The reference for every cell: no
        bind or move calls it; :meth:`verify_cells` and the tests hold
        :meth:`_score_queued` and :meth:`_score_placed` to it.
        """
        cfg = self.config
        cur = self._cur[C]
        q = cur < 0
        vcpu = self.v_cpu[C]
        vmem = self.v_mem[C]

        on = cur[None, :] == R[:, None]
        add_cpu = np.where(on, 0.0, vcpu[None, :])
        add_mem = np.where(on, 0.0, vmem[None, :])
        occ_after = np.maximum(
            (self.res_cpu[R][:, None] + add_cpu) / self.cap_cpu[R][:, None],
            (self.res_mem[R][:, None] + add_mem) / self.cap_mem[R][:, None],
        )
        occ_now = np.maximum(
            self.res_cpu[R] / self.cap_cpu[R],
            self.res_mem[R] / self.cap_mem[R],
        )[:, None]

        req_ok = self.v_feas[C].T[self.class_of_host[R]]
        feasible = req_ok & self.avail[R][:, None] & (occ_after <= 1.0 + 1e-9)

        s = np.zeros((len(R), len(C)))
        if cfg.enable_virt:
            cm_r = self.cm[R][:, None]
            migration = np.where(
                self._cm_rank[R][:, None] >= self._bucket[C][None, :],
                2.0 * cm_r,
                cm_r / 2.0,
            )
            creation = self.cc[R][:, None]
            s += np.where(on, 0.0, np.where(q[None, :], creation, migration))
        if cfg.enable_conc:
            load = (self.conc + self.pending)[R][:, None]
            s += np.where(on, 0.0, load)
        if cfg.enable_pwr:
            t_empty = (self.nvms[R][:, None] <= cfg.th_empty).astype(float)
            s += t_empty * cfg.c_empty - occ_now * cfg.c_fill
        if cfg.enable_sla:
            fulf = self._fulf[C][None, :]
            viol = on & (fulf < 1.0)
            hard = viol & (fulf <= cfg.th_sla)
            s += np.where(viol, cfg.c_sla, 0.0)
            s = np.where(hard, INF, s)
        if cfg.enable_fault:
            s += ((1.0 - self._rel[R])[:, None] - self.v_ftol[C][None, :]) * cfg.c_fail

        return np.where(feasible, s, INF)

    # ---------------------------------------------------------------- costs

    def _soft_current_cost(self, r: int, slot: int) -> Optional[float]:
        """Score of ``slot``'s own cell with the *soft* SLA penalty.

        ``r`` must be the slot's current host.  Returns ``None`` when the
        cell is genuinely infeasible for reasons other than the hard-SLA
        promotion (host unavailable, P_req failed, occupation past 100 %)
        — those VMs are forced out and keep the queue_cost pricing.
        Otherwise the value replays the general formula's float
        operations for an "on" cell (:meth:`_score_cells`, where P_virt
        and P_conc contribute exactly 0.0) with ``c_sla`` in place of the
        hard infinity, so it is bit-identical to the score the cell would
        carry if the fulfilment were above ``th_sla``.
        """
        cfg = self.config
        if not self.avail[r] or not self.v_feas[slot, self.class_of_host[r]]:
            return None
        occ_now = max(
            self.res_cpu[r] / self.cap_cpu[r], self.res_mem[r] / self.cap_mem[r]
        )
        if not occ_now <= 1.0 + 1e-9:
            return None
        s = 0.0
        if cfg.enable_pwr:
            t_empty = 1.0 if self.nvms[r] <= cfg.th_empty else 0.0
            s += t_empty * cfg.c_empty - occ_now * cfg.c_fill
        if cfg.enable_sla and self._fulf[slot] < 1.0:
            s += cfg.c_sla
        if cfg.enable_fault:
            s += ((1.0 - self._rel[r]) - self.v_ftol[slot]) * cfg.c_fail
        return float(s)

    def _compute_costs(self, slots: np.ndarray) -> np.ndarray:
        """Per-slot current costs from the stored cells.

        Queued VMs cost ``queue_cost``; placed VMs cost their current
        cell.  Unavailable current hosts read as +inf without touching the
        cell array (their rows may hold garbage).  An infinite current
        cell maps to ``queue_cost`` — the VM is forced out (host
        unavailable/quarantined, requirements unmet, occupation over
        100 %) and any feasible cell is an improvement — or, for a
        hard-SLA promotion under ``config.reprice_hard_sla``, to the soft
        pricing of :meth:`_soft_current_cost` (see that config field).
        """
        cfg = self.config
        costs = np.full(len(slots), cfg.queue_cost)
        cur = self._cur[slots]
        placed = np.nonzero(cur >= 0)[0]
        if placed.size:
            rows = cur[placed]
            vals = np.where(
                self.avail[rows], self.scores[rows, slots[placed]], INF
            )
            finite = np.isfinite(vals)
            costs[placed[finite]] = vals[finite]
            if cfg.reprice_hard_sla and not finite.all():
                for k in placed[~finite]:
                    soft = self._soft_current_cost(
                        int(cur[k]), int(slots[k])
                    )
                    if soft is not None:
                        costs[k] = soft
        return costs

    # --------------------------------------------------------------- minima

    def _refresh_minima(
        self, slots: np.ndarray, block: Optional[np.ndarray] = None
    ) -> None:
        """From-scratch (value, argmin-row) of the diff for unfrozen slots.

        ``block`` is ``scores[active rows, slots]`` when the caller has
        just computed it; otherwise the cells are gathered here.
        """
        if not slots.size:
            return
        act = self._active
        if act.size == 0:
            self._col_min_val[slots] = INF
            self._col_min_row[slots] = 0
            return
        if block is None:
            block = self.scores[act[:, None], slots]
        sub = block - self._cost[slots]
        k = np.argmin(sub, axis=0)
        self._col_min_row[slots] = act[k]
        self._col_min_val[slots] = sub[k, np.arange(slots.size)]

    # ----------------------------------------------------------------- bind

    def bind_round(
        self,
        columns: Sequence[Vm],
        now: float,
        fulfillments: Optional[Dict[int, float]] = None,
        reliability: Optional[Sequence[float]] = None,
    ) -> None:
        """Synchronize with ground truth and bind this round's columns.

        A row phase, then a column phase.  A round of exactly one column
        that changed — the shape of most rounds: one arrival — is bound by
        :meth:`_bind_one_column` in Python scalars; every other round by
        the general :meth:`_bind_columns`, the reference the one-column
        path is held to (:meth:`_bind_general`).  O(dirty rows x live
        columns + changed columns x active rows); the steady state (no
        host churn, no column churn) pays only the per-column attribute
        comparison.  A ``reliability`` vector that is the very array the
        previous bind received is taken as unchanged without comparing it;
        callers pass a new array when a value moves.
        """
        self._bind(columns, now, fulfillments, reliability, one_column=True)

    def _bind_general(
        self,
        columns: Sequence[Vm],
        now: float,
        fulfillments: Optional[Dict[int, float]] = None,
        reliability: Optional[Sequence[float]] = None,
    ) -> None:
        """:meth:`bind_round` with every round on the general column path.

        The reference for the one-column path: :meth:`verify_against_fresh`
        binds its one-shot twin through it, and the differential tests
        bind a twin matrix through it.
        """
        self._bind(columns, now, fulfillments, reliability, one_column=False)

    def _bind(
        self,
        columns: Sequence[Vm],
        now: float,
        fulfillments: Optional[Dict[int, float]],
        reliability: Optional[Sequence[float]],
        one_column: bool,
    ) -> None:
        self._bind_idx += 1
        t = self._bind_idx

        # ---- row phase: dirty host rows ---------------------------------
        index = self.host_index
        dirty = {index[hid] for hid in self._sink}
        self._sink.clear()
        dirty |= self._touched
        self._touched = set()
        if reliability is not None:
            # The same array as last bind means no reliability moved.
            if reliability is not self._rel:
                rel = np.asarray(reliability, dtype=float)
                changed = np.nonzero(rel != self._rel)[0]
                dirty.update(int(i) for i in changed)
                self._rel = rel
        elif self._rel is not self._spec_rel:
            changed = np.nonzero(self._spec_rel != self._rel)[0]
            dirty.update(int(i) for i in changed)
            self._rel = self._spec_rel

        # Ascending host order: the dirty feed is a set, sorting makes
        # every downstream tie-break independent of mutation order.
        n_dirty = len(dirty)
        if dirty:
            rows = sorted(dirty)
            hs = np.fromiter(rows, dtype=int, count=n_dirty)
            self._row_stamp[hs] = t
            if self._read_rows(rows):
                self._active = np.nonzero(self.avail)[0]

        # ---- column phase -----------------------------------------------
        slots, cur, tr = self._prepare_columns(columns, now)
        if self.config.enable_sla and fulfillments is None:
            raise SchedulingError("enable_sla requires a fulfillments map")
        if one_column and slots.size == 1 and self._bind_one_column(
            columns[0], slots, cur, tr, fulfillments
        ):
            n_changed = 1
        else:
            n_changed = self._bind_columns(columns, slots, cur, tr, fulfillments)

        # ---- round binding ----------------------------------------------
        self._round_slots = slots
        self.columns = list(columns)
        self.is_queued = cur < 0
        self.n_cols = len(self.columns)

        # ---- observability ----------------------------------------------
        # Counterfactual: a one-shot rebuild scores every row (available
        # or not) for every round column.
        self._cells_total += self.n_rows * slots.size
        self._row_hist[_log2_bucket(n_dirty)] += 1
        self._col_hist[_log2_bucket(n_changed)] += 1

    def _bind_one_column(
        self,
        vm: Vm,
        slots: np.ndarray,
        cur: np.ndarray,
        tr: np.ndarray,
        fulfillments: Optional[Dict[int, float]],
    ) -> bool:
        """Column phase of a one-column round, in Python scalars.

        Binds the column only if it changed (stale, new, moved, or its
        bucket or fulfilment changed) and some row is
        active, and returns whether it did; an unchanged column may still
        lag on dirty rows, which is the general path's catch-up.  Every
        step is the general path's for one changed column, minus its
        N-column bookkeeping: the same attribute write-back, the same
        cells over the active rows (:meth:`_score_queued` for an arrival,
        :meth:`_score_block` otherwise), the same cost rule,
        and a 1-D argmin (lowest row on ties) for the minimum, which is
        recomputed from scratch and so needs no cost shift.
        """
        act = self._active
        if not act.size:
            return False
        cfg = self.config
        slot = int(slots[0])
        c = int(cur[0])
        bucket = bisect_right(self._cm_distinct, float(tr[0]))
        fulf = fulfillments.get(vm.vm_id, 1.0) if cfg.enable_sla else 1.0
        if not (
            self._stale[slot]
            or self._cur[slot] != c
            or (c >= 0 and self._bucket[slot] != bucket)
            or (cfg.enable_sla and self._fulf[slot] != fulf)
        ):
            return False
        self._cur[slot] = c
        self._bucket[slot] = bucket
        if cfg.enable_sla:
            self._fulf[slot] = fulf
        self._frozen[slot] = False
        self._stale[slot] = False

        if c < 0:
            cells = self._score_queued(act, slots)[:, 0]
        else:
            cells = self._score_block(act, slots)[:, 0]
        self.scores[act, slot] = cells
        self._cells_rescored += act.size
        # After the store: a placed column's cost reads its own cell.
        cost = cfg.queue_cost if c < 0 else self._compute_costs(slots)[0]
        self._cost[slot] = cost
        sub = cells - cost
        k = int(sub.argmin())
        self._col_min_row[slot] = act[k]
        self._col_min_val[slot] = sub[k]
        self._col_stamp[slot] = self._bind_idx
        return True

    def _bind_columns(
        self,
        columns: Sequence[Vm],
        slots: np.ndarray,
        cur: np.ndarray,
        tr: np.ndarray,
        fulfillments: Optional[Dict[int, float]],
    ) -> int:
        """Column phase of any round: the general N-column path.

        Returns the number of changed columns.  Steps with no work are
        skipped: fulfilments when SLA is off, the lag scan when every
        column changed, the rescan when no column needs one.
        """
        act = self._active
        bucket = np.searchsorted(self._cm_distinct, tr, side="right")
        changed = (
            self._stale[slots]
            | (self._cur[slots] != cur)
            | ((cur >= 0) & (self._bucket[slots] != bucket))
        )
        if self.config.enable_sla:
            fulf = np.array(
                [fulfillments.get(vm.vm_id, 1.0) for vm in columns]
            )
            changed |= self._fulf[slots] != fulf
            self._fulf[slots] = fulf
        # Slot-aligned rescan mask: columns frozen last round whose cells
        # survive (changed ones get their minima from the fresh block).
        rescan = self._frozen[slots] & ~changed
        self._cur[slots] = cur
        self._bucket[slots] = bucket
        self._frozen[slots] = False
        self._stale[slots] = False
        cols_changed = slots[changed]

        # ---- full rescore: stale/changed columns x active rows ----------
        block = None
        if cols_changed.size and act.size:
            block = self._score_block(act, cols_changed)
            self.scores[act[:, None], cols_changed] = block
            self._cells_rescored += act.size * cols_changed.size

        # ---- lazy catch-up: participating columns behind on row churn ---
        # A column's cells are current up to its ``_col_stamp``; only rows
        # stamped later changed since it last participated.  One block
        # rescores every row stamped since the oldest lagging column's
        # stamp: a cell on a row its column already saw is rescored
        # bit-identically, and below each column tests the rows against
        # its own stamp.  Non-participating columns pay nothing until they
        # return.  ``lag_pos`` holds positions into ``slots`` so the masks
        # stay aligned.
        sub = None
        if cols_changed.size < slots.size:
            lag_pos = np.nonzero(~changed)[0]
            lag = slots[lag_pos]
            seen = self._col_stamp[lag]
            rows = np.nonzero(self._row_stamp > seen.min())[0]
            if rows.size:
                sub = self._score_block(rows, lag)
                self.scores[rows[:, None], lag] = sub
                self._cells_rescored += rows.size * lag.size

        # ---- current costs (changed cols + cols homed on changed rows) --
        affected_mask = changed
        if sub is not None:
            home = cur[lag_pos]
            behind = (home >= 0) & (self._row_stamp[np.maximum(home, 0)] > seen)
            if behind.any():
                affected_mask = changed.copy()
                affected_mask[lag_pos[behind]] = True
        affected = slots[affected_mask]
        if affected.size:
            old = self._cost[affected].copy()
            new = self._compute_costs(affected)
            # A cost change shifts the whole diff column uniformly; +inf
            # cached minima absorb the shift.
            self._col_min_val[affected] += old - new
            self._cost[affected] = new

        # ---- argmin maintenance -----------------------------------------
        # Changed columns: straight from the block just scored.  Lagging
        # columns: generalized multi-row take/rescan against the cache.  A
        # row the column already saw holds a diff no better than its cached
        # minimum, and on a tie no lower row, so it never takes.
        self._refresh_minima(cols_changed, block)
        if sub is not None:
            sub = sub - self._cost[lag]
            k = np.argmin(sub, axis=0)  # rows ascending: lowest host wins
            w = sub[k, np.arange(lag.size)]
            rw = rows[k]
            v = self._col_min_val[lag]
            r = self._col_min_row[lag]
            in_t = self._row_stamp[r] > seen
            take = (
                (w < v) | ((w == v) & (rw < r)) | (in_t & (w == v) & (rw <= r))
            )
            rescan[lag_pos[in_t & ~take]] = True
            if take.any():
                tk = lag[take]
                self._col_min_val[tk] = w[take]
                self._col_min_row[tk] = rw[take]
        if rescan.any():
            self._refresh_minima(slots[rescan])
        self._col_stamp[slots] = self._bind_idx
        return int(cols_changed.size)

    # ------------------------------------------------------------ interface

    def current_costs(self) -> np.ndarray:
        """Per-column (round order) cost of the status quo."""
        return self._cost[self._round_slots].copy()

    def best_move(self) -> Optional[tuple]:
        """``(row, col, gain)`` of the most negative diff cell, O(N_round).

        Reads the cached per-column minima instead of materializing the
        diff matrix; ties break exactly like ``np.argmin`` over it —
        lowest row first, then lowest column (round order).  Returns
        ``None`` on an empty matrix; the returned ``gain`` may be
        non-negative or +inf (the caller decides when to stop climbing).
        """
        if self.n_cols == 0 or self.n_rows == 0:
            return None
        if self.n_cols == 1:
            # One column: its cached minimum is the answer (the tuple
            # below, in Python scalars).
            slot = self._round_slots.item(0)
            best = self._col_min_val.item(slot)
            return (self._col_min_row.item(slot) if math.isfinite(best) else 0), 0, best
        vals = self._col_min_val[self._round_slots]
        best = float(vals.min())
        if not math.isfinite(best):
            return 0, int(vals.argmin()), best
        ties = np.nonzero(vals == best)[0]
        rows = self._col_min_row[self._round_slots[ties]]
        k = int(rows.argmin())
        return int(rows[k]), int(ties[k]), best

    def apply_move(self, col: int, row: int) -> None:
        """Hypothetically move round column ``col`` to host ``row``.

        Updates occupancy bookkeeping, freezes the column (one move per VM
        per round — the engine starts an operation on it immediately),
        adds the planned operation to the destination's pending
        concurrency cost, and rescores the <=2 affected host rows over the
        round's still-unfrozen columns — the only cells anything reads
        before the next bind.  It also remembers the touched rows for the
        next bind (which restamps them, so frozen columns catch up on
        their next participation) and marks a queued->placed column stale
        (its pricing flipped on every row; the full rescore is deferred to
        its next participation).  Both touched rows are rescored in one
        :meth:`_score_block` call; their host terms are recomputed first,
        and their placed terms marked for recompute, which the placed
        kernel does only if it runs before the next bind re-reads the
        rows.  No unfrozen column left: no term is recomputed.
        """
        slot = int(self._round_slots[col])
        if self._frozen[slot]:
            raise SchedulingError(f"column {col} is frozen")
        if not (0 <= row < self.n_rows):
            raise SchedulingError(f"row {row} out of range")
        old = int(self._cur[slot])
        if old == row:
            raise SchedulingError("move must change the host")
        vcpu = self.v_cpu[slot]
        vmem = self.v_mem[slot]

        if old >= 0:
            self.res_cpu[old] -= vcpu
            self.res_mem[old] -= vmem
            self.nvms[old] -= 1
        self.res_cpu[row] += vcpu
        self.res_mem[row] += vmem
        self.nvms[row] += 1
        placement = old < 0
        self.pending[row] += self.cc[row] if placement else self.cm[row]

        self._cur[slot] = row
        self.is_queued[col] = False
        self._frozen[slot] = True
        if placement:
            self._stale[slot] = True

        touched = [row] if old < 0 else sorted({old, row})
        self._touched.update(touched)
        self._placed_stale.update(touched)
        # The moved column is frozen: O(1) invalidation.
        self._col_min_val[slot] = INF
        self._col_min_row[slot] = 0

        # ---- incremental maintenance over the unfrozen columns ----------
        # Frozen columns are masked out of best_move and nothing else reads
        # them before the next bind, which restamps every touched row — so
        # their cells and costs catch up then, on their next participation.
        rs = self._round_slots
        ls = rs[~self._frozen[rs]]
        if not ls.size:
            return
        # The kernels below are the one reader of a touched row's host
        # term before the next bind re-reads the row.
        for t in touched:
            self._host_terms[t] = self._row_host_term(t)
        T = np.array(touched)
        cells = self._score_block(T, ls)
        self.scores[T[:, None], ls] = cells
        self._cells_rescored += len(touched) * ls.size
        self._cells_total += len(touched) * ls.size

        # Current costs change only for columns homed on a touched row
        # (their current cell was just recomputed).  A cost change shifts
        # that column's whole diff uniformly, so the cached min value
        # shifts with it and the argmin row stays put.
        cur_l = self._cur[ls]
        homed = cur_l == touched[0]
        if len(touched) == 2:
            homed |= cur_l == touched[1]
        if homed.any():
            homed_slots = ls[homed]
            old_costs = self._cost[homed_slots].copy()
            new_costs = self._compute_costs(homed_slots)
            self._col_min_val[homed_slots] += old_costs - new_costs
            self._cost[homed_slots] = new_costs

        # Score changes are confined to the touched rows.  For each column,
        # compare the cached min (v at row r) with the best new value over
        # the touched rows (w at row rw, lowest row on ties).  Every
        # untouched row still holds a value >= v, so:
        #   w < v, or w == v at a lower row  ->  (w, rw) is the new min;
        #   cached row untouched, not beaten ->  cache still valid;
        #   cached row touched and got worse ->  full column rescan.
        v = self._col_min_val[ls]
        r = self._col_min_row[ls]
        cost = self._cost[ls]
        if len(touched) == 1:
            t0 = touched[0]
            w = cells[0] - cost
            # With one touched row the general rule collapses to: take on
            # a strict win, or a tie at a row index not above the cached
            # one (covers both the rw<r and the in-T rw==r cases).
            take = (w < v) | ((w == v) & (r >= t0))
            rescan = (r == t0) & (w > v)
            if take.any():
                tk = ls[take]
                self._col_min_val[tk] = w[take]
                self._col_min_row[tk] = t0
        else:
            d0 = cells[0] - cost
            d1 = cells[1] - cost
            first = d0 <= d1
            w = np.where(first, d0, d1)
            rw = np.where(first, touched[0], touched[1])
            in_t = (r == touched[0]) | (r == touched[1])
            take = (w < v) | ((w == v) & (rw < r)) | (in_t & (w == v) & (rw <= r))
            rescan = in_t & ~take
            if take.any():
                tk = ls[take]
                self._col_min_val[tk] = w[take]
                self._col_min_row[tk] = rw[take]
        if rescan.any():
            self._refresh_minima(ls[rescan])

    def host_row_score(self, row: int) -> float:
        """Aggregated row score used for shutdown ranking (§III-C).

        Mean of the row over the round's columns with infinities replaced
        by the queue cost — hosts that cannot take anything (many ∞) and
        hosts that are expensive for everything both rank high, i.e. are
        shut down first.
        """
        if self.n_cols == 0:
            return 0.0
        qc = self.config.queue_cost
        if not self.avail[row]:
            vals = np.full(self.n_cols, qc)
        else:
            vals = self.scores[row, self._round_slots].copy()
            vals[~np.isfinite(vals)] = qc
        return float(vals.mean())

    # --------------------------------------------------------------- oracle

    def verify_against_fresh(
        self,
        columns: Sequence[Vm],
        now: float,
        fulfillments: Optional[Dict[int, float]] = None,
        reliability: Optional[Sequence[float]] = None,
    ) -> bool:
        """Oracle: compare against a one-shot bind of the same round.

        Valid right after :meth:`bind_round` with the same arguments (the
        bound state is then real, not hypothetical).  The one-shot shares
        only the static host arrays and reads every row from the hosts,
        so this compares the matrix with the hosts themselves: every row
        copy, the active row set, cells on active rows, current costs,
        and the argmin caches for every round column; raises
        :class:`~repro.errors.StateError` on any mismatch.  The one-shot
        (:meth:`_twin`) registers nothing on the hosts.
        """
        fresh = self._twin(len(columns))
        fresh._bind_general(columns, now, fulfillments, reliability)

        def same(label: str, mine_a: np.ndarray, fresh_a: np.ndarray) -> None:
            if not np.array_equal(mine_a, fresh_a):
                j = int(np.nonzero(mine_a != fresh_a)[0][0])
                raise StateError(
                    f"persistent matrix drift: {label}[{j}] "
                    f"{mine_a[j]!r} != fresh {fresh_a[j]!r}"
                )

        # Row copies first: a drifted copy is the root cause of cell drift.
        for name in ("res_cpu", "res_mem", "nvms", "conc", "avail", "_host_terms"):
            same(name, getattr(self, name), getattr(fresh, name))
        # Kept placed terms: every row not marked for recompute.
        fresh._refresh_placed_terms()
        kept = self._kept_placed_rows(np.arange(self.n_rows))
        for name in ("_placed_hi", "_placed_lo", "_placed_on"):
            same(name, getattr(self, name)[kept], getattr(fresh, name)[kept])
        rs = self._round_slots
        frs = fresh._round_slots
        act = self._active
        if not np.array_equal(act, fresh._active):
            raise StateError("persistent matrix drift: active row set")
        if act.size and rs.size:
            mine = self.scores[act[:, None], rs]
            theirs = fresh.scores[act[:, None], frs]
            if not np.array_equal(mine, theirs):
                bad = np.nonzero(mine != theirs)
                r0, c0 = int(bad[0][0]), int(bad[1][0])
                raise StateError(
                    "persistent matrix drift: cell "
                    f"(host {int(act[r0])}, col {c0}) "
                    f"{mine[r0, c0]!r} != fresh {theirs[r0, c0]!r}"
                )
        same("cost", self._cost[rs], fresh._cost[frs])
        same("min_val", self._col_min_val[rs], fresh._col_min_val[frs])
        finite = np.isfinite(self._col_min_val[rs])
        if not np.array_equal(
            self._col_min_row[rs][finite], fresh._col_min_row[frs][finite]
        ):
            raise StateError("persistent matrix drift: argmin row")
        return True

    def verify_cells(self) -> bool:
        """Internal-consistency oracle for the engine's strict mode.

        Recomputes every non-stale column's cells/cost/argmin from the
        matrix's *own* stored attribute arrays and compares with the
        incrementally maintained values; cells with the general formula,
        whichever kernel wrote them.  Also checks that each active,
        untouched row's host term, and its placed terms unless marked for
        recompute, equal their recompute from the row copies.  Rows touched by hypothetical
        moves since the last bind are excluded (their pending concurrency
        is round-local by design), as are columns homed on or argmin'd at
        such rows.  Raises :class:`~repro.errors.StateError` on mismatch.
        """
        check = np.nonzero(~self._stale)[0]
        # Lazily-behind columns (absent from recent rounds) are stale by
        # design — only columns caught up to the current bind are checkable.
        check = check[self._col_stamp[check] == self._bind_idx]
        act = self._active
        touched = np.fromiter(sorted(self._touched), dtype=int) if self._touched else np.empty(0, dtype=int)
        rows = np.setdiff1d(act, touched) if touched.size else act
        terms = np.array([self._row_host_term(r) for r in rows], dtype=float)
        if not np.array_equal(terms, self._host_terms[rows]):
            j = int(np.nonzero(terms != self._host_terms[rows])[0][0])
            raise StateError(
                f"persistent matrix host-term drift: host {int(rows[j])} "
                f"cached {self._host_terms[rows][j]!r} != recomputed {terms[j]!r}"
            )
        kept = self._kept_placed_rows(rows)
        for name, terms in zip(
            ("_placed_hi", "_placed_lo", "_placed_on"), self._placed_terms_of(kept)
        ):
            cached = getattr(self, name)[kept]
            if not np.array_equal(np.array(terms, dtype=float), cached):
                j = int(np.nonzero(np.array(terms) != cached)[0][0])
                raise StateError(
                    f"persistent matrix placed-term drift: {name} host "
                    f"{int(kept[j])} cached {cached[j]!r} != recomputed {terms[j]!r}"
                )
        if not check.size or not rows.size:
            return True
        expect = self._score_cells(rows, check)
        got = self.scores[rows[:, None], check]
        if not np.array_equal(expect, got):
            bad = np.nonzero(expect != got)
            r0, c0 = int(bad[0][0]), int(bad[1][0])
            raise StateError(
                "persistent matrix cell drift: "
                f"(host {int(rows[r0])}, slot {int(check[c0])}) "
                f"cached {got[r0, c0]!r} != recomputed {expect[r0, c0]!r}"
            )
        stable = check[~np.isin(self._cur[check], touched)] if touched.size else check
        if stable.size:
            costs = self._compute_costs(stable)
            if not np.array_equal(costs, self._cost[stable]):
                j = int(np.nonzero(costs != self._cost[stable])[0][0])
                raise StateError(
                    f"persistent matrix cost drift: slot {int(stable[j])} "
                    f"cached {self._cost[stable][j]!r} != {costs[j]!r}"
                )
            nf = stable[~self._frozen[stable]]
            if touched.size and nf.size:
                nf = nf[~np.isin(self._col_min_row[nf], touched)]
            if nf.size and rows.size:
                # The cached argmin row of every remaining column is in
                # the scanned subset (touched-row argmins were filtered),
                # so the partial scan must reproduce it exactly.
                sub = self.scores[rows[:, None], nf] - self._cost[nf]
                k = np.argmin(sub, axis=0)
                val = sub[k, np.arange(nf.size)]
                row = rows[k]
                fin = np.isfinite(self._col_min_val[nf])
                ok = (val == self._col_min_val[nf]) & (
                    (row == self._col_min_row[nf]) | ~fin
                )
                if not ok.all():
                    j = int(np.nonzero(~ok)[0][0])
                    raise StateError(
                        f"persistent matrix argmin drift: slot {int(nf[j])} "
                        f"cached ({self._col_min_val[nf][j]!r}, "
                        f"{int(self._col_min_row[nf][j])}) != recomputed "
                        f"({val[j]!r}, {int(row[j])})"
                    )
        return True

    def _kept_placed_rows(self, rows: np.ndarray) -> np.ndarray:
        """The rows among ``rows`` whose placed terms are kept, not marked
        for recompute."""
        if not self._placed_stale:
            return rows
        return rows[~np.isin(rows, list(self._placed_stale))]

    def force_full_rebuild(self) -> None:
        """Mark everything dirty; the next bind rebuilds from ground truth."""
        self._full_rebuilds += 1
        self._touched.update(range(self.n_rows))
        self._stale[:] = True

    # ---------------------------------------------------------------- stats

    def stats(self) -> Dict[str, float]:
        """Flat counters for ``SimulationResult.rescore_stats``.

        ``cells_rescored`` and ``cells_total`` count an :meth:`apply_move`
        over the round's unfrozen columns only; frozen ones are no longer
        rescored within the round, nor counted.
        """
        out: Dict[str, float] = {
            "binds": float(self._bind_idx),
            "cells_rescored": float(self._cells_rescored),
            "cells_total": float(self._cells_total),
            "full_rebuilds": float(self._full_rebuilds),
            "capacity": float(len(self._cur)),
            "matrix_nbytes": float(self._peak_matrix_nbytes),
        }
        for bucket, count in sorted(self._row_hist.items()):
            out[f"dirty_rows_{bucket}"] = float(count)
        for bucket, count in sorted(self._col_hist.items()):
            out[f"dirty_cols_{bucket}"] = float(count)
        return out
