"""Persistent columnar cluster state for the score kernel.

:class:`ColumnarClusterState` holds the static host arrays and the VM
slot registry the score matrix reads, so a bind never re-reads host
specs or static VM attributes:

* **Static host arrays** (``cap_cpu``, ``cap_mem``, ``cc``, ``cm``,
  ``rel``, ``host_index``) are built once per host population; host
  specs never change during a run.  :meth:`matches` guards reuse.  The
  dynamic host quantities (reservations, VM count, concurrency cost,
  availability) are not mirrored here: the score matrix keeps its own
  row copies and reads its dirty rows straight from the hosts.

* **Static per-VM attributes** (``cpu_req``/``mem_req`` as last seen,
  ``fault_tolerance``, and the P_req feasibility row) live in a slot
  registry keyed by ``vm_id``.  A slot is filled once per VM lifetime
  (and re-filled only when dynamic SLA enforcement inflates the
  requirement in place); completed/failed VMs are swept out lazily and
  their slots recycled through a free list, so the registry's footprint
  tracks the *live* VM population, not the cumulative job count.

The P_req matrix is factorized through **host classes**: hosts sharing
``(arch, hypervisor, cpu_capacity, mem_mb)`` are interchangeable for
feasibility, so each VM slot stores one boolean per class (typically 3
classes for the paper's datacenter) and the per-round ``(M, N)`` matrix is
a numpy gather of per-class string equality and ``req <= cap + 1e-9``
tests.

A state registers nothing on its hosts; its one observer is the
long-lived score matrix it serves (``matrix_listener``).  One-shot
matrices build their own states, or :meth:`detached` twins of a
long-lived one.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.cluster.host import Host
from repro.cluster.vm import Vm, VmState
from repro.errors import SchedulingError

__all__ = ["ColumnarClusterState"]

#: Sweep the VM registry for retired slots once it exceeds this size and
#: has doubled since the previous sweep (amortized O(1) per column).
_MIN_SWEEP = 1024


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


class ColumnarClusterState:
    """Static host arrays and the VM slot registry behind the score matrix.

    Build one per (policy, host population) — ``ScoreBasedPolicy`` does
    this on first use for its long-lived matrix and reuses it for the
    whole simulation.  Not thread-safe.

    ``capacity`` is the initial VM slot count; the registry doubles when
    it runs out.
    """

    __slots__ = (
        "hosts",
        "host_index",
        "cap_cpu",
        "cap_mem",
        "cc",
        "cm",
        "rel",
        "_last_match",
        "class_of_host",
        "_class_arch",
        "_class_hyp",
        "_class_cap_cpu",
        "_class_cap_mem",
        "_slot_of",
        "_vm_of",
        "_free",
        "_n_slots",
        "v_cpu",
        "v_mem",
        "v_ftol",
        "v_feas",
        "_next_sweep",
        "matrix_listener",
    )

    def __init__(self, hosts: Sequence[Host], capacity: int = 64) -> None:
        self.hosts = list(hosts)
        n = len(self.hosts)

        # ---- static host arrays -----------------------------------------
        #: Last *sequence object* that passed :meth:`matches` — the engine
        #: hands the same list every round, so after one element-wise
        #: check all later calls are an O(1) identity test (at 10k hosts
        #: the per-round O(M) scan was ~half the simulation).
        self._last_match: object = hosts
        self.host_index = {h.host_id: i for i, h in enumerate(self.hosts)}
        self.cap_cpu = np.array([h.spec.cpu_capacity for h in self.hosts])
        self.cap_mem = np.array([h.spec.mem_mb for h in self.hosts])
        self.cc = np.array([h.spec.creation_s for h in self.hosts])
        self.cm = np.array([h.spec.migration_s for h in self.hosts])
        self.rel = np.array([h.spec.reliability for h in self.hosts])

        # ---- host classes (P_req factorization) -------------------------
        keys: Dict[tuple, int] = {}
        class_of = np.empty(n, dtype=int)
        arch: List[str] = []
        hyp: List[str] = []
        ccpu: List[float] = []
        cmem: List[float] = []
        for i, h in enumerate(self.hosts):
            key = (h.spec.arch, h.spec.hypervisor, h.spec.cpu_capacity, h.spec.mem_mb)
            cls = keys.get(key)
            if cls is None:
                cls = keys[key] = len(keys)
                arch.append(h.spec.arch)
                hyp.append(h.spec.hypervisor)
                ccpu.append(float(h.spec.cpu_capacity))
                cmem.append(float(h.spec.mem_mb))
            class_of[i] = cls
        self.class_of_host = class_of
        self._class_arch = arch
        self._class_hyp = hyp
        self._class_cap_cpu = ccpu
        self._class_cap_mem = cmem

        self._reset_registry(capacity)

    def __getstate__(self) -> dict:
        """Every slot, with finished VMs in the registry as stand-ins.

        Until a sweep frees their slots, the registry keeps finished VMs
        (and with them their jobs); a snapshot would pickle them all.  The
        stand-in keeps the key order, so the sweep after a restore frees
        the same slots in the same order.
        """
        state = {name: getattr(self, name) for name in self.__slots__}
        state["_vm_of"] = {
            vm_id: vm if vm.is_active else _RETIRED
            for vm_id, vm in self._vm_of.items()
        }
        return state

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)

    def _reset_registry(self, capacity: int) -> None:
        """An empty VM slot registry with ``capacity`` slots, no listener."""
        self._slot_of: Dict[int, int] = {}
        self._vm_of: Dict[int, Union[Vm, _RetiredVm]] = {}
        self._free: List[int] = []
        self._n_slots = 0
        n_classes = len(self._class_arch)
        self.v_cpu = np.empty(capacity, dtype=float)
        self.v_mem = np.empty(capacity, dtype=float)
        self.v_ftol = np.empty(capacity, dtype=float)
        self.v_feas = np.empty((capacity, n_classes), dtype=bool)
        self._next_sweep = _MIN_SWEEP
        #: Slot-lifecycle observer (the long-lived persistent score
        #: matrix, set by its ``attach``): notified on registry growth,
        #: slot (re)fills, and sweep-time frees so its per-column state
        #: tracks the slot space exactly.
        self.matrix_listener = None

    def detached(self, capacity: int) -> "ColumnarClusterState":
        """A twin sharing this state's static host arrays over a new, empty
        registry with no listener: a one-shot matrix binds to it, off the
        long-lived registry."""
        twin = ColumnarClusterState.__new__(ColumnarClusterState)
        for name in self.__slots__:
            setattr(twin, name, getattr(self, name))
        twin._reset_registry(capacity)
        return twin

    def matches(self, hosts: Sequence[Host]) -> bool:
        """Whether this state was built from exactly these host objects.

        The identity fast path is guarded by a length check: a host list
        *mutated in place* (append/remove) keeps its identity, and
        accepting it would hand out arrays for a different cluster.  A
        same-length in-place element swap cannot be seen from here — code
        that does that must call :meth:`invalidate_match_memo` (the
        element-wise check then re-validates or rejects the list).
        """
        n = len(self.cap_cpu)
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

    # --------------------------------------------------------------- vm side

    def _class_row(self, vm: Vm) -> np.ndarray:
        job = vm.job
        row = np.empty(len(self._class_arch), dtype=bool)
        for c in range(len(self._class_arch)):
            row[c] = (
                self._class_arch[c] == job.arch
                and self._class_hyp[c] == job.hypervisor
                and vm.cpu_req <= self._class_cap_cpu[c] + 1e-9
                and vm.mem_req <= self._class_cap_mem[c] + 1e-9
            )
        return row

    def _grow(self) -> None:
        cap = 2 * len(self.v_cpu) or 64
        for name in ("v_cpu", "v_mem", "v_ftol"):
            old = getattr(self, name)
            new = np.empty(cap, dtype=old.dtype)
            new[: len(old)] = old
            setattr(self, name, new)
        old2 = self.v_feas
        new2 = np.empty((cap, old2.shape[1]), dtype=bool)
        new2[: len(old2)] = old2
        self.v_feas = new2
        if self.matrix_listener is not None:
            self.matrix_listener.on_grow(cap)

    def _fill_slot(self, slot: int, vm: Vm) -> None:
        self.v_cpu[slot] = vm.cpu_req
        self.v_mem[slot] = vm.mem_req
        self.v_ftol[slot] = vm.job.fault_tolerance
        self.v_feas[slot] = self._class_row(vm)
        if self.matrix_listener is not None:
            self.matrix_listener.on_slot_filled(slot)

    def _ensure_slot(self, vm: Vm) -> int:
        slot = self._slot_of.get(vm.vm_id)
        if slot is None:
            if self._free:
                slot = self._free.pop()
            else:
                slot = self._n_slots
                if slot == len(self.v_cpu):
                    self._grow()
                self._n_slots += 1
            self._slot_of[vm.vm_id] = slot
            self._vm_of[vm.vm_id] = vm
            self._fill_slot(slot, vm)
        elif self.v_cpu[slot] != vm.cpu_req or self.v_mem[slot] != vm.mem_req:
            # Dynamic SLA enforcement inflated the requirement in place.
            self._fill_slot(slot, vm)
        return slot

    def _maybe_sweep(self) -> None:
        if len(self._slot_of) < self._next_sweep:
            return
        retired = [vm_id for vm_id, vm in self._vm_of.items() if not vm.is_active]
        freed: List[int] = []
        for vm_id in retired:
            slot = self._slot_of.pop(vm_id)
            self._free.append(slot)
            freed.append(slot)
            del self._vm_of[vm_id]
        self._next_sweep = max(_MIN_SWEEP, 2 * len(self._slot_of))
        if freed and self.matrix_listener is not None:
            self.matrix_listener.on_slots_freed(freed)

    @property
    def registry_size(self) -> int:
        """Live slot count (diagnostics; tracks live VMs, not total jobs)."""
        return len(self._slot_of)

    # ---------------------------------------------------------- round access

    def prepare_columns(
        self, columns: Sequence[Vm], now: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Single per-column pass: slots plus the per-round VM vectors.

        Returns ``(slots, cur, is_queued, tr)``; the caller gathers the
        static vectors (``v_cpu[slots]`` …) and :meth:`feasibility`.
        Raises :class:`~repro.errors.SchedulingError` on in-operation
        columns (they are pinned, §III-A-3).
        """
        self._maybe_sweep()
        n = len(columns)
        slots = np.empty(n, dtype=int)
        cur = np.empty(n, dtype=int)
        is_queued = np.empty(n, dtype=bool)
        tr = np.empty(n, dtype=float)
        index = self.host_index
        for j, vm in enumerate(columns):
            if vm.in_operation:
                raise SchedulingError(
                    f"vm {vm.vm_id} has an operation in flight and cannot be a column"
                )
            slots[j] = self._ensure_slot(vm)
            cur[j] = index.get(vm.host_id, -1) if vm.is_placed else -1
            is_queued[j] = vm.state is VmState.QUEUED
            tr[j] = vm.remaining_user_time(now)
        return slots, cur, is_queued, tr

    def feasibility(self, slots: np.ndarray) -> np.ndarray:
        """The ``(M, N)`` P_req matrix for the given column slots."""
        if not len(slots):
            return np.zeros((len(self.hosts), 0), dtype=bool)
        return self.v_feas[slots].T[self.class_of_host]
