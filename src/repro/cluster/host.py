"""Runtime physical host model.

A :class:`Host` tracks, at any simulation instant:

* its lifecycle state (``OFF`` → ``BOOTING`` → ``ON``; ``FAILED`` on a
  reliability event),
* the VMs resident on it (running, being created, or migrating out),
* capacity *reservations* for VMs migrating in (a destination must hold
  room for the incoming VM during the whole transfer),
* in-flight operations (creations and the two ends of each migration) and
  the CPU overhead each one steals from the guests — the paper's measured
  "CPU overload that is produced when creating new VMs or at migration
  time" (§IV), and
* the resulting CPU shares (via the Xen-credit solver) and power draw.

The host itself is simulator-agnostic: the engine calls
:meth:`Host.recompute_shares` whenever residency or operations change, and
reads :meth:`Host.power_watts` to feed the energy account.

Occupancy aggregates are **incremental**: the totals behind
:meth:`cpu_reserved` / :meth:`mem_reserved` / :meth:`has_exclusive` are
maintained across :meth:`add_vm` / :meth:`remove_vm` / :meth:`reserve` /
:meth:`release_reservation` (and :meth:`note_requirement_change` for SLA
inflation), so occupancy reads are O(1) instead of O(resident VMs) — the
per-event steady-state cost of the engine stays O(dirty hosts).

The totals are kept *bit-identical* to the historical per-call sums: an
addition appends to the running sum (the new VM also appends to the dict,
so ``cached + value`` is float-for-float the recomputed in-order sum),
while a removal or an in-place requirement change merely invalidates the
cache and the next read re-sums in residency order.  Reads therefore never
observe reordered float addition, and :meth:`verify_aggregates` can check
the invariant exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cluster.spec import HostSpec
from repro.cluster.vm import Vm, VmState
from repro.cluster.xen import ShareMemo, compute_shares
from repro.errors import CapacityError, StateError
from repro.workload.job import Job

__all__ = ["Host", "HostState", "Operation", "OperationKind"]


class HostState(enum.Enum):
    """Lifecycle of a physical machine."""

    OFF = "off"
    BOOTING = "booting"
    ON = "on"
    FAILED = "failed"


# Members as module globals: ``HostState.ON`` resolves through the Enum
# metaclass on every read (~110 ns on CPython 3.11), and the predicates
# below are read thousands of times per episode.
_ON = HostState.ON
_BOOTING = HostState.BOOTING
_AVAILABLE = (HostState.ON, HostState.BOOTING)


class OperationKind(enum.Enum):
    """Kinds of in-flight virtualization operations on a host."""

    CREATE = "create"
    MIGRATE_IN = "migrate_in"
    MIGRATE_OUT = "migrate_out"
    #: Periodic VM snapshotting; brief CPU burn, not a P_conc race (the
    #: paper's middleware checkpoints with "low contribution to power
    #: consumption" — modelled optionally to verify exactly that claim).
    CHECKPOINT = "checkpoint"


@dataclass
class Operation:
    """An in-flight creation or migration leg on a host."""

    kind: OperationKind
    vm_id: int
    cpu_overhead: float
    started_at: float
    duration: float

    @property
    def ends_at(self) -> float:
        """Scheduled completion time of the operation."""
        return self.started_at + self.duration


class Host:
    """Mutable runtime state of one physical machine."""

    def __init__(self, spec: HostSpec, *, initial_state: HostState = HostState.OFF) -> None:
        self.spec = spec
        #: Dirty sinks: sets of host ids that observers (the long-lived
        #: score matrix, see
        #: :class:`repro.scheduling.score.persistent.PersistentScoreMatrix`)
        #: register via :meth:`add_dirty_sink`.  Every mutation that can
        #: change a scheduler-visible quantity marks this host's id into
        #: each sink, so observers can refresh O(dirty) instead of O(hosts).
        self._sinks: tuple = ()
        self._state = initial_state
        self._quarantined = False
        self.quarantined_until = 0.0
        #: Resident VMs: running, creating, or migrating out.
        self.vms: Dict[int, Vm] = {}
        #: Reservations for VMs migrating in (vm_id -> (cpu, mem)).
        self.reservations: Dict[int, tuple] = {}
        #: In-flight operations.
        self.operations: List[Operation] = []
        # Incremental occupancy aggregates.  The VM- and reservation-side
        # sums are cached separately (the legacy formula added them in that
        # order) and invalidated on removal/in-place change; see module
        # docstring for the bit-identity argument.
        self._vm_cpu_sum = 0.0
        self._vm_mem_sum = 0.0
        self._vm_sums_valid = True
        self._rsv_cpu_sum = 0.0
        self._rsv_mem_sum = 0.0
        self._rsv_sums_valid = True
        self._n_exclusive = 0
        #: Total CPU percent in use (guests + overheads); updated by
        #: :meth:`recompute_shares`.
        self.cpu_used = 0.0
        #: Cumulative operation counters.
        self.total_creations = 0
        self.total_migrations_in = 0
        self.total_migrations_out = 0

    # ------------------------------------------------------------ dirty sinks

    def add_dirty_sink(self, sink: set) -> None:
        """Register a set that receives this host's id on every mutation.

        Sinks are held weakly in spirit (the host never clears them); an
        observer that goes away simply stops draining its set.  Adding the
        same sink twice is a no-op.
        """
        if not any(existing is sink for existing in self._sinks):
            self._sinks = self._sinks + (sink,)

    def _mark_dirty(self) -> None:
        for sink in self._sinks:
            sink.add(self.spec.host_id)

    # ------------------------------------------------------------ properties

    @property
    def host_id(self) -> int:
        """The spec's host id."""
        return self.spec.host_id

    @property
    def state(self) -> HostState:
        """Lifecycle state; assignment marks the host dirty for observers."""
        return self._state

    @state.setter
    def state(self, value: HostState) -> None:
        self._state = value
        if self._sinks:
            self._mark_dirty()

    @property
    def quarantined(self) -> bool:
        """Supervisor quarantine flag (see ``docs/robustness.md``): a
        flapping host is temporarily excluded from placement candidates and
        the power manager's boot preference.  Residents keep running (and
        the score matrix drains them away); the flag never changes the
        lifecycle state machine.  Assignment marks the host dirty."""
        return self._quarantined

    @quarantined.setter
    def quarantined(self, value: bool) -> None:
        self._quarantined = value
        if self._sinks:
            self._mark_dirty()

    @property
    def is_on(self) -> bool:
        """Whether guests can run (state == ON)."""
        return self._state is _ON

    @property
    def is_available(self) -> bool:
        """Whether the scheduler may target this host (on or booting)."""
        return self._state in _AVAILABLE

    @property
    def is_working(self) -> bool:
        """The paper's "working node": hosting at least one VM (or reservation)."""
        return bool(self.vms) or bool(self.reservations)

    @property
    def is_idle(self) -> bool:
        """On, with nothing resident, reserved, or in flight."""
        return (
            self.is_on
            and not self.vms
            and not self.reservations
            and not self.operations
        )

    @property
    def n_vms(self) -> int:
        """``#VM(h)``: resident VM count (reservations included)."""
        return len(self.vms) + len(self.reservations)

    # ------------------------------------------------------------ occupation

    def has_exclusive(self) -> bool:
        """Whether a whole-node (exclusive) VM holds this host."""
        return self._n_exclusive > 0

    def _validate_sums(self) -> None:
        """Re-sum the invalidated caches in residency order (O(residents)).

        Runs only after a removal or an in-place requirement change on this
        host — both of which already put the host on the engine's dirty
        list — so steady-state occupancy reads stay O(1).
        """
        if not self._vm_sums_valid:
            self._vm_cpu_sum = sum(vm.cpu_req for vm in self.vms.values())
            self._vm_mem_sum = sum(vm.mem_req for vm in self.vms.values())
            self._vm_sums_valid = True
        if not self._rsv_sums_valid:
            self._rsv_cpu_sum = sum(cpu for cpu, _ in self.reservations.values())
            self._rsv_mem_sum = sum(mem for _, mem in self.reservations.values())
            self._rsv_sums_valid = True

    def cpu_reserved(self, extra_cpu: float = 0.0) -> float:
        """Total *requested* CPU percent (not actual shares).

        An exclusive VM reserves the whole machine, whatever its job's own
        demand — this is what inflates the CPU(h) column for the static
        RD/RR disciplines exactly as the paper's Table II shows.
        """
        if self._n_exclusive:
            return self.spec.cpu_capacity + extra_cpu
        if not (self._vm_sums_valid and self._rsv_sums_valid):
            self._validate_sums()
        total = self._vm_cpu_sum
        total += self._rsv_cpu_sum
        return total + extra_cpu

    def mem_reserved(self, extra_mem: float = 0.0) -> float:
        """Total requested memory in MB (full machine under exclusivity)."""
        if self._n_exclusive:
            return self.spec.mem_mb + extra_mem
        if not (self._vm_sums_valid and self._rsv_sums_valid):
            self._validate_sums()
        total = self._vm_mem_sum
        total += self._rsv_mem_sum
        return total + extra_mem

    def occupation(self, extra_cpu: float = 0.0, extra_mem: float = 0.0) -> float:
        """``O(h[, vm])``: the most-occupied-resource fraction (§III-A-2).

        The paper's example: a host holding (10% mem, 50% CPU) and
        (65% mem, 30% CPU) has occupation 0.8 — the CPU, its most used
        resource.  Computed from *requirements*, not instantaneous usage.
        """
        cpu_frac = self.cpu_reserved(extra_cpu) / self.spec.cpu_capacity
        mem_frac = self.mem_reserved(extra_mem) / self.spec.mem_mb
        return max(cpu_frac, mem_frac)

    def meets_requirements(self, job: Job) -> bool:
        """Hardware/software feasibility (the P_req check)."""
        if job.arch != self.spec.arch:
            return False
        if job.hypervisor != self.spec.hypervisor:
            return False
        if job.cpu_pct > self.spec.cpu_capacity:
            return False
        if job.mem_mb > self.spec.mem_mb:
            return False
        return True

    def fits(self, vm: Vm) -> bool:
        """Resource feasibility (the P_res check): occupation <= 1 after add."""
        if vm.vm_id in self.vms or vm.vm_id in self.reservations:
            return True  # already accounted here
        if vm.exclusive:
            return self.n_vms == 0
        if self.has_exclusive():
            return False
        return self.occupation(extra_cpu=vm.cpu_req, extra_mem=vm.mem_req) <= 1.0 + 1e-9

    # ------------------------------------------------------------- residency

    def add_vm(self, vm: Vm) -> None:
        """Make a VM resident (engine calls this at creation/migration end)."""
        if vm.vm_id in self.vms:
            raise StateError(f"vm {vm.vm_id} already on host {self.host_id}")
        if not self.is_available:
            raise StateError(f"host {self.host_id} is {self.state.value}")
        self.vms[vm.vm_id] = vm
        vm.host_id = self.host_id
        if self._sinks:
            self._mark_dirty()
        # The VM appended at the end of the dict: extending the cached sum
        # equals the recomputed in-order sum, float for float.
        if self._vm_sums_valid:
            self._vm_cpu_sum += vm.cpu_req
            self._vm_mem_sum += vm.mem_req
        if vm.exclusive:
            self._n_exclusive += 1

    def remove_vm(self, vm_id: int) -> Vm:
        """Remove a resident VM (completion, migration-out, or failure)."""
        try:
            vm = self.vms.pop(vm_id)
        except KeyError:
            raise StateError(f"vm {vm_id} not on host {self.host_id}") from None
        self._vm_sums_valid = False
        if vm.exclusive:
            self._n_exclusive -= 1
        if self._sinks:
            self._mark_dirty()
        return vm

    def reserve(self, vm: Vm) -> None:
        """Reserve capacity for an inbound migration."""
        if not self.fits(vm):
            raise CapacityError(
                f"host {self.host_id} cannot reserve for vm {vm.vm_id}"
            )
        self.reservations[vm.vm_id] = (vm.cpu_req, vm.mem_req)
        if self._rsv_sums_valid:
            self._rsv_cpu_sum += vm.cpu_req
            self._rsv_mem_sum += vm.mem_req
        if self._sinks:
            self._mark_dirty()

    def release_reservation(self, vm_id: int) -> None:
        """Drop an inbound reservation (migration completed or aborted)."""
        if self.reservations.pop(vm_id, None) is not None:
            self._rsv_sums_valid = False
            if self._sinks:
                self._mark_dirty()

    def note_requirement_change(self, vm: Vm) -> None:
        """Tell the host a *resident* VM's requirement changed in place.

        Dynamic SLA enforcement inflates ``vm.cpu_req`` while the VM sits
        on this host; the cached occupancy sums must be re-derived.  A
        no-op for non-resident VMs.
        """
        if vm.vm_id in self.vms:
            self._vm_sums_valid = False
            if self._sinks:
                self._mark_dirty()

    def evacuate(self) -> None:
        """Drop all residents, reservations and in-flight operations.

        The host-failure handler uses this instead of clearing the dicts
        directly so the occupancy aggregates reset with them.
        """
        self.vms.clear()
        self.reservations.clear()
        self.operations.clear()
        self._vm_cpu_sum = 0.0
        self._vm_mem_sum = 0.0
        self._vm_sums_valid = True
        self._rsv_cpu_sum = 0.0
        self._rsv_mem_sum = 0.0
        self._rsv_sums_valid = True
        self._n_exclusive = 0
        if self._sinks:
            self._mark_dirty()

    def resync_aggregates(self) -> None:
        """Rebuild every incremental aggregate from the ground truth.

        The recovery half of :meth:`verify_aggregates`: the engine's
        strict-invariant ``resync`` mode calls this after a detected
        drift so the run can continue on corrected totals instead of
        propagating a corrupted sum into the published rows.
        """
        self._n_exclusive = sum(1 for vm in self.vms.values() if vm.exclusive)
        self._vm_sums_valid = False
        self._rsv_sums_valid = False
        self._validate_sums()
        if self._sinks:
            self._mark_dirty()

    def verify_aggregates(self) -> bool:
        """Debug oracle: recompute every aggregate from scratch and compare.

        Raises :class:`~repro.errors.StateError` on any (exact) mismatch;
        returns True otherwise so it can sit inside an ``assert``.
        """
        exp_excl = sum(1 for vm in self.vms.values() if vm.exclusive)
        if exp_excl != self._n_exclusive:
            raise StateError(
                f"host {self.host_id}: exclusive counter {self._n_exclusive}"
                f" != recount {exp_excl}"
            )
        self._validate_sums()
        checks = (
            ("vm cpu", self._vm_cpu_sum, sum(vm.cpu_req for vm in self.vms.values())),
            ("vm mem", self._vm_mem_sum, sum(vm.mem_req for vm in self.vms.values())),
            ("rsv cpu", self._rsv_cpu_sum, sum(c for c, _ in self.reservations.values())),
            ("rsv mem", self._rsv_mem_sum, sum(m for _, m in self.reservations.values())),
        )
        for label, cached, fresh in checks:
            if cached != fresh:
                raise StateError(
                    f"host {self.host_id}: {label} aggregate {cached!r}"
                    f" != from-scratch {fresh!r}"
                )
        return True

    # ------------------------------------------------------------ operations

    def begin_operation(self, op: Operation) -> None:
        """Register an in-flight operation and its CPU overhead."""
        self.operations.append(op)
        if self._sinks:
            self._mark_dirty()
        if op.kind is OperationKind.CREATE:
            self.total_creations += 1
        elif op.kind is OperationKind.MIGRATE_IN:
            self.total_migrations_in += 1
        elif op.kind is OperationKind.MIGRATE_OUT:
            self.total_migrations_out += 1

    def end_operation(self, kind: OperationKind, vm_id: int) -> None:
        """Unregister a completed operation."""
        for i, op in enumerate(self.operations):
            if op.kind is kind and op.vm_id == vm_id:
                del self.operations[i]
                if self._sinks:
                    self._mark_dirty()
                return
        raise StateError(
            f"no {kind.value} operation for vm {vm_id} on host {self.host_id}"
        )

    def operations_on(self, vm_id: int) -> List[Operation]:
        """Operations currently touching a given VM."""
        return [op for op in self.operations if op.vm_id == vm_id]

    @property
    def concurrency_cost(self) -> float:
        """Σ C_conc: total remaining cost of in-flight operations (§III-A-3).

        Creation legs contribute C_c of this host, migration legs C_m; this
        is the quantity the P_conc penalty charges to VMs *not* already on
        the host.
        """
        cost = 0.0
        for op in self.operations:
            if op.kind is OperationKind.CREATE:
                cost += self.spec.creation_s
            elif op.kind is OperationKind.CHECKPOINT:
                continue  # snapshots are not racing operations (§IV)
            else:
                cost += self.spec.migration_s
        return cost

    # ------------------------------------------------------------ CPU shares

    def recompute_shares(self, memo: ShareMemo) -> None:
        """Re-solve the credit scheduler and update every VM's share.

        Each RUNNING or MIGRATING-out VM *caps* at its job's declared
        parallelism (a job cannot use more cores than it has threads) but
        *weighs* in at its current requirement — dynamic SLA enforcement
        inflates the requirement, which under contention buys the VM a
        larger slice without pretending it can run faster than dedicated.
        CREATING VMs get no CPU (the creation *operation* does); each
        operation leg demands its configured overhead.

        The domains are positional — running/migrating VMs in residency
        order, then operation legs — which makes ``(capacity, caps,
        weights)`` an exact key.  The problem is looked up in ``memo``
        first and solved with :func:`~repro.cluster.xen.compute_shares`
        only on a miss; a hit holds the exact floats a solve would produce.
        """
        if not self.is_on:
            for vm in self.vms.values():
                vm.share = 0.0
            self.cpu_used = 0.0
            return

        guests: List[Vm] = [
            vm
            for vm in self.vms.values()
            if vm.state is VmState.RUNNING or vm.state is VmState.MIGRATING
        ]
        legs = [op.cpu_overhead for op in self.operations]
        caps = tuple([vm.job.cpu_pct for vm in guests] + legs)
        shares: tuple = ()
        if caps:
            capacity = self.spec.cpu_capacity
            key = (capacity, caps, tuple([vm.cpu_req for vm in guests] + legs))
            shares = memo.get(key)
            if shares is None:
                shares = tuple(compute_shares(*key).tolist())
                memo.put(key, shares)
        for vm, share in zip(guests, shares):
            vm.share = share
        # CREATING VMs make no progress.
        for vm in self.vms.values():
            if vm.state is VmState.CREATING:
                vm.share = 0.0
        # Sequential float sum (not sum(), which compensates on 3.12+), so
        # cpu_used and the power draw derived from it stay bit-identical.
        total = 0.0
        for share in shares:
            total += share
        self.cpu_used = total

    # ----------------------------------------------------------------- power

    def power_watts(self) -> float:
        """Instantaneous draw given state and CPU usage."""
        if self._state is _ON:
            return self.spec.power_model.power(self.cpu_used)
        if self._state is _BOOTING:
            return self.spec.boot_watts
        return 0.0  # OFF or FAILED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Host({self.host_id}, {self.state.value}, "
            f"{len(self.vms)} vms, {len(self.operations)} ops, "
            f"cpu={self.cpu_used:.0f}/{self.spec.cpu_capacity:.0f})"
        )
