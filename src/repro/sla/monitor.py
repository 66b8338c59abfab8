"""Runtime SLA fulfilment monitoring.

The P_SLA penalty (§III-A-5) needs ``SLA(h, vm)`` — a number in [0, 1]
describing how well a *running* VM is tracking its deadline.  The paper
does not give the estimator's formula, only its use, so we define the
natural one: project the completion time assuming the VM keeps its current
CPU share, then map the projected execution time onto the satisfaction
curve (scaled to [0, 1]).

* Projected on-time finish → fulfilment 1.0.
* Projected finish between the deadline and twice the deadline →
  fulfilment linearly decaying 1 → 0 (same shape as S).
* Starved VMs (zero share) → fulfilment 0.

:class:`SlaMonitor` additionally implements the *dynamic SLA enforcement*
loop: when a VM's fulfilment drops below 1, its resource requirement is
inflated so the next scheduling round relocates it somewhere with more
headroom ("we increase the amount of needed resources for that VM ... so
the VM will be rescheduled in another node with more available resources").
It does so from a per-VM fulfilment index the engine keeps current at
O(dirty hosts) per event, so a check walks the violators, not every
placed VM.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.cluster.vm import Vm, VmState
from repro.errors import StateError
from repro.units import clamp

__all__ = ["fulfillment", "SlaMonitor"]

_QUEUED = VmState.QUEUED
_CREATING = VmState.CREATING
_RUNNING = VmState.RUNNING
_MIGRATING = VmState.MIGRATING

def fulfillment(vm: Vm, now: float) -> float:
    """``SLA(h, vm)`` ∈ [0, 1] for a VM given its current share.

    Queued and creating VMs are assessed on their projected wait: they hold
    fulfilment 1 until even an immediate full-speed start could not meet
    the deadline anymore, then decay like running VMs.
    """
    job = vm.job
    state = vm.state
    if state is _RUNNING or state is _MIGRATING:
        if not vm.share > 0:
            return 0.0  # starved
        projected_exec = vm.eta(now) - job.submit_time
    elif state is _QUEUED or state is _CREATING:
        # Best case is an immediate full-demand run.
        remaining = vm.work_remaining / max(job.cpu_pct, 1e-9)
        projected_exec = (now - job.submit_time) + remaining
    elif state is VmState.COMPLETED:
        return 1.0 if job.satisfaction() >= 100.0 else clamp(job.satisfaction() / 100.0, 0.0, 1.0)
    else:  # FAILED
        return 0.0

    tdead = job.allowed_exec_time
    if projected_exec <= tdead:
        return 1.0
    return clamp(1.0 - (projected_exec - tdead) / tdead, 0.0, 1.0)


#: Attributes of the fulfilment index: derived from the engine's VMs, so
#: a snapshot leaves them out and the engine rebuilds them on restore.
_INDEX_FIELDS = (
    "_order", "_next_order", "_fixed", "_timed", "_due", "_token", "_hot",
    "_violators",
)


class SlaMonitor:
    """Watches placed VMs and drives dynamic SLA enforcement.

    Parameters
    ----------
    inflation_factor:
        Multiplier applied to a violating VM's CPU requirement.
    tolerance:
        ``TH_SLA``: fulfilment at/below this is an *unacceptable* violation
        (the score matrix pins it at infinity; we also count it).
    cooldown_s:
        Minimum time between two inflations of the same VM, so one long
        violation does not compound the requirement every round.

    **The fulfilment index.**  The monitor holds the fulfilment of every
    placed VM and the set of violators (fulfilment < 1).  A placed VM's
    fulfilment changes on a known schedule, in one of two ways:

    * *Fixed*: a RUNNING or MIGRATING VM with a positive share and work
      left projects its finish from ``last_progress_t`` (:meth:`Vm.eta`),
      so its fulfilment does not depend on the clock.  It changes only
      when the VM's share or banked progress does, which happens in the
      engine's dirty-host sweep; the value is cached there.  A starved
      VM (zero share) is fixed at 0.
    * *Time-driven*: a CREATING VM, and a running VM with no work left
      (its ``eta`` is ``now``), project ``(now − submit) + c`` for a
      constant ``c``.  That crosses ``Tdead`` at one sim time, which goes
      on a heap a relative 1e-9 early.  Past it, the VM is re-evaluated
      with the exact :func:`fulfillment` expression at each read until it
      violates, so float rounding can only make a wake-up early, and no
      flip happens a read early or late.  The
      projection never decreases with ``now``, so a crossed VM stays a
      violator until it is re-assessed.

    The engine feeds the index: :meth:`admit` at arrival (arrival order
    is check order), :meth:`assess` for the VMs on the hosts each refresh
    sweeps (and wherever progress is banked outside the sweep),
    :meth:`discard` when a VM leaves its host, and :meth:`rebuild` on
    snapshot restore.  :meth:`verify` is the full-scan oracle.
    """

    def __init__(
        self,
        inflation_factor: float = 1.25,
        tolerance: float = 0.5,
        cooldown_s: float = 600.0,
    ) -> None:
        self.inflation_factor = inflation_factor
        self.tolerance = tolerance
        self.cooldown_s = cooldown_s
        self._last_inflation: Dict[int, float] = {}
        #: Fulfilment drops observed: one per violating VM per check.
        self.violations = 0
        self._reset_index()

    def _reset_index(self) -> None:
        #: vm_id -> arrival ordinal of every live VM.
        self._order: Dict[int, int] = {}
        self._next_order = 0
        #: Fixed placed VMs: vm_id -> fulfilment.
        self._fixed: Dict[int, float] = {}
        #: Time-driven placed VMs: vm_id -> (heap token, offset ``c``).
        self._timed: Dict[int, Tuple[int, float]] = {}
        #: (early crossing time, token, vm) min-heap; an entry whose token
        #: is no longer its VM's is stale and skipped.
        self._due: List[Tuple[float, int, Vm]] = []
        self._token = 0
        #: Time-driven VMs past their early crossing, not violating yet.
        self._hot: Dict[int, Vm] = {}
        #: Placed VMs with fulfilment < 1.
        self._violators: Dict[int, Vm] = {}

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in _INDEX_FIELDS:
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._reset_index()

    # ------------------------------------------------------ index upkeep

    def admit(self, vm: Vm) -> None:
        """Record an arriving VM's place in arrival order."""
        self._order[vm.vm_id] = self._next_order
        self._next_order += 1

    def assess(self, vms: Iterable[Vm], now: float) -> None:
        """Re-assess VMs whose share, progress or state may have changed.

        Placed VMs are (re)indexed; any other VM is discarded.  A
        time-driven VM whose offset is unchanged keeps its heap entry and
        status, so re-sweeping a host with a VM in creation costs nothing.
        """
        fixed = self._fixed
        timed = self._timed
        hot = self._hot
        violators = self._violators
        for vm in vms:
            vid = vm.vm_id
            state = vm.state
            if state is _RUNNING or state is _MIGRATING:
                if vm.share <= 0 or vm.work_remaining > 0:
                    f = fulfillment(vm, now)
                    fixed[vid] = f
                    if vid in timed:
                        del timed[vid]
                        hot.pop(vid, None)
                    if f < 1.0:
                        violators[vid] = vm
                    elif vid in violators:
                        del violators[vid]
                    continue
                c = 0.0
            elif state is _CREATING:
                c = vm.work_remaining / max(vm.job.cpu_pct, 1e-9)
            else:
                self.discard(vm)
                continue
            entry = timed.get(vid)
            if entry is not None and entry[1] == c:
                continue
            fixed.pop(vid, None)
            violators.pop(vid, None)
            hot.pop(vid, None)
            self._token += 1
            timed[vid] = (self._token, c)
            job = vm.job
            tdead = job.allowed_exec_time
            submit = job.submit_time
            early = 1e-9 * (abs(submit) + abs(tdead) + abs(c) + 1.0)
            heappush(self._due, (submit + (tdead - c) - early, self._token, vm))

    def discard(self, vm: Vm) -> None:
        """Drop a VM that left its host (re-queued, or finished)."""
        vid = vm.vm_id
        self._fixed.pop(vid, None)
        self._timed.pop(vid, None)
        self._hot.pop(vid, None)
        self._violators.pop(vid, None)
        if not vm.is_active:
            self._order.pop(vid, None)

    def rebuild(self, vms: Iterable[Vm], now: float) -> None:
        """Re-derive the index by one scan of the live VMs, in arrival order."""
        self._reset_index()
        vms = list(vms)
        for vm in vms:
            self.admit(vm)
        self.assess(vms, now)

    def _advance(self, now: float) -> None:
        """Move time-driven VMs whose crossing is due into the violators."""
        due = self._due
        hot = self._hot
        if due and due[0][0] <= now:
            timed = self._timed
            while due and due[0][0] <= now:
                _, token, vm = heappop(due)
                entry = timed.get(vm.vm_id)
                if entry is not None and entry[0] == token:
                    hot[vm.vm_id] = vm
        if hot:
            crossed = [vm for vm in hot.values() if fulfillment(vm, now) < 1.0]
            for vm in crossed:
                del hot[vm.vm_id]
                self._violators[vm.vm_id] = vm

    # ----------------------------------------------------------- readers

    def violators(self, now: float) -> List[Vm]:
        """Placed VMs with fulfilment < 1 at ``now``, in arrival order."""
        self._advance(now)
        if not self._violators:
            return []
        order = self._order
        return sorted(self._violators.values(), key=lambda vm: order[vm.vm_id])

    def running_violation(self, now: float) -> bool:
        """Whether any RUNNING VM has fulfilment < 1 at ``now``."""
        self._advance(now)
        return any(vm.state is _RUNNING for vm in self._violators.values())

    def fulfillments(self, vms: Iterable[Vm], now: float) -> Dict[int, float]:
        """``vm_id -> fulfilment`` at ``now`` for queued and placed VMs.

        Placed VMs read the index: a fixed value, an exact evaluation for
        a violating time-driven VM, 1 for any other.  Queued VMs are not
        indexed and are evaluated here.
        """
        self._advance(now)
        fixed = self._fixed
        violators = self._violators
        out: Dict[int, float] = {}
        for vm in vms:
            vid = vm.vm_id
            f = fixed.get(vid)
            if f is None:
                if vid in violators or vm.state is _QUEUED:
                    f = fulfillment(vm, now)
                else:
                    f = 1.0
            out[vid] = f
        return out

    def check(
        self,
        now: float,
        *,
        enforce: bool = True,
        on_inflate: Optional[Callable[[Vm], None]] = None,
    ) -> List[Vm]:
        """Count the violators; inflate them; return VMs needing a reschedule.

        Walks the violators in arrival order.  A RUNNING violator out of
        its cooldown is inflated, and ``on_inflate`` is invoked right
        after: the engine uses it to resync the hosting machine's
        incremental occupancy aggregates and metric contributions (the
        inflation changes ``vm.cpu_req`` in place, behind the host's
        back).  Inflation leaves every fulfilment unchanged.
        """
        violators = self.violators(now)
        self.violations += len(violators)
        needs_attention: List[Vm] = []
        if not enforce:
            return needs_attention
        for vm in violators:
            last = self._last_inflation.get(vm.vm_id, -float("inf"))
            if now - last >= self.cooldown_s and vm.state is VmState.RUNNING:
                vm.inflate(self.inflation_factor)
                self._last_inflation[vm.vm_id] = now
                needs_attention.append(vm)
                if on_inflate is not None:
                    on_inflate(vm)
        return needs_attention

    @property
    def violation_count(self) -> int:
        """Number of fulfilment drops observed (not distinct VMs)."""
        return self.violations

    # ------------------------------------------------------------ oracle

    def verify(self, placed: Iterable[Vm], now: float) -> None:
        """The index against a full :func:`fulfillment` scan.

        ``placed`` is every placed VM in arrival order.  Raises
        :class:`~repro.errors.StateError` on any difference in the
        indexed set, a value, or the violators and their order.
        """
        placed = list(placed)
        ids = {vm.vm_id for vm in placed}
        indexed = self._fixed.keys() | self._timed.keys()
        if indexed != ids:
            raise StateError(
                f"t={now}: SLA index holds VMs {sorted(indexed - ids)} that "
                f"are not placed and misses placed VMs {sorted(ids - indexed)}"
            )
        values = self.fulfillments(placed, now)
        expect: List[int] = []
        for vm in placed:
            f = fulfillment(vm, now)
            if values[vm.vm_id] != f:
                raise StateError(
                    f"t={now}: SLA index has fulfilment {values[vm.vm_id]!r} "
                    f"for vm {vm.vm_id}, a full scan {f!r}"
                )
            if f < 1.0:
                expect.append(vm.vm_id)
        got = [vm.vm_id for vm in self.violators(now)]
        if got != expect:
            raise StateError(
                f"t={now}: SLA index violators {got}, a full scan {expect}"
            )
