"""The scheduling-policy interface.

A policy is a pure decision function: given a :class:`SchedulingContext`
(hosts, queued VMs, placed VMs, current time) it returns a list of
:class:`~repro.scheduling.actions.Action`.  Policies must treat the context
as **read-only** — the engine applies the returned actions through its
actuators, validating feasibility.  Passing live host objects (instead of
defensive snapshots) keeps the hot scheduling path allocation-free, per the
HPC guides; the engine enforces the contract by validating every action
before applying it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.host import Host
from repro.cluster.vm import Vm, VmState
from repro.scheduling.actions import Action
from repro.sla.monitor import SlaMonitor

__all__ = ["SchedulingContext", "SchedulingPolicy"]

#: A strict-invariant oracle: ``(label, verify, repair)``.  ``verify``
#: raises :class:`~repro.errors.StateError` on drift; ``repair`` rebuilds
#: the state from ground truth.
Oracle = Tuple[str, Callable[[], object], Callable[[], object]]
#: The engine's handler that runs one oracle: ``guard(label, verify, repair)``.
Guard = Callable[[str, Callable[[], object], Callable[[], object]], None]


class SchedulingContext:
    """Read-only view handed to policies each scheduling round.

    Attributes
    ----------
    now:
        Current simulation time.
    hosts:
        All hosts in id order, whatever their state; policies must check
        :attr:`~repro.cluster.host.Host.is_available` themselves (the
        score matrix does it through the P_req/P_res infinities).
    queued:
        VMs waiting in the virtual host, in arrival order.
    placed:
        VMs currently resident on hosts (running, creating or migrating).
        May be provided lazily through ``placed_fn``: the engine's round
        builds one context per round, but queue-only policies (and the
        plain power manager) never look at the placed set, so at 10k
        hosts the O(live VMs) tuple is only materialized when some
        consumer actually reads it.  The tuple is built on first access
        and cached, so every reader sees one consistent snapshot.
    node_counts:
        Optional zero-argument callable returning exact
        ``(working, online)`` node counts.  The engine wires this to the
        metrics collector's delta-maintained totals so the λ controller's
        every-round measurement is O(dirty hosts) instead of a scan over
        the whole machine inventory; hand-built contexts leave it
        ``None`` and the power manager falls back to scanning ``hosts``.
    sla:
        The SLA fulfilment index (:class:`~repro.sla.monitor.SlaMonitor`)
        SLA-aware policies read per-VM fulfilment and violations from.
        The engine passes its monitor, which it keeps current at
        O(dirty hosts); a context built without one (a
        :class:`~repro.service.core.PlacementCore` snapshot, a test)
        builds its own by one scan of ``placed`` on first read.
    guard:
        The engine's strict-invariant handler, ``guard(label, verify,
        repair)``, or ``None``.  The engine passes it when strict
        invariants are on, and a policy runs the oracles of state it
        changes during a round (the score policy: every matrix bind)
        through it, so drift raises or is repaired and counted like any
        other.  Hand-built contexts have no guard, so nothing is verified.
    """

    __slots__ = (
        "now", "hosts", "queued", "node_counts", "guard", "_placed",
        "_placed_fn", "_sla",
    )

    def __init__(
        self,
        now: float,
        hosts: Sequence[Host],
        queued: Sequence[Vm],
        placed: Optional[Sequence[Vm]] = None,
        *,
        placed_fn: Optional[Callable[[], Sequence[Vm]]] = None,
        node_counts: Optional[Callable[[], Tuple[int, int]]] = None,
        sla: Optional[SlaMonitor] = None,
        guard: Optional[Guard] = None,
    ) -> None:
        self.now = now
        self.hosts = hosts
        self.queued = queued
        self.node_counts = node_counts
        self.guard = guard
        self._sla = sla
        self._placed_fn = placed_fn
        if placed is None and placed_fn is None:
            placed = ()
        self._placed: Optional[Tuple[Vm, ...]] = (
            tuple(placed) if placed is not None else None
        )

    @property
    def placed(self) -> Tuple[Vm, ...]:
        """Placed VMs, materialized from ``placed_fn`` on first access."""
        if self._placed is None:
            self._placed = tuple(self._placed_fn())
        return self._placed

    @property
    def sla(self) -> SlaMonitor:
        """The SLA fulfilment index, built from ``placed`` if none was given."""
        if self._sla is None:
            monitor = SlaMonitor()
            monitor.rebuild(self.placed, self.now)
            self._sla = monitor
        return self._sla

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        placed = len(self._placed) if self._placed is not None else "lazy"
        return (
            f"SchedulingContext(now={self.now}, hosts={len(self.hosts)}, "
            f"queued={len(self.queued)}, placed={placed})"
        )

    @property
    def movable(self) -> List[Vm]:
        """Placed VMs eligible for migration.

        VMs with an operation in flight are pinned (the paper assigns them
        an infinite penalty away from their host, §III-A-3).
        """
        return [vm for vm in self.placed if vm.state is VmState.RUNNING]

    def host_by_id(self, host_id: int) -> Host:
        """Look up a host by id."""
        for h in self.hosts:
            if h.host_id == host_id:
                return h
        raise KeyError(host_id)


class SchedulingPolicy:
    """Base class for schedulers.

    Subclasses implement :meth:`decide`.  ``supports_migration`` advertises
    whether the policy ever emits :class:`~repro.scheduling.actions.Migrate`
    (the engine uses it purely for reporting).
    """

    #: Human-readable name used in result tables.
    name: str = "abstract"
    #: Whether the policy emits migrations.
    supports_migration: bool = False

    def decide(self, ctx: SchedulingContext) -> List[Action]:
        """Return the actions to apply this round."""
        raise NotImplementedError

    def host_shutdown_ranking(self, ctx: SchedulingContext, candidates: List[Host]) -> List[Host]:
        """Order idle hosts by shutdown preference (first = shut down first).

        The default prefers shutting down the slowest class (highest
        creation overhead) and, within a class, the highest id.  The
        score-based policy overrides this with its matrix-derived host
        score, as §III-C describes.
        """
        return sorted(
            candidates,
            key=lambda h: (-h.spec.creation_s, -h.host_id),
        )

    def invariant_checks(self, hosts: Sequence[Host]) -> Sequence[Oracle]:
        """Oracles over the policy's own incremental state for ``hosts``.

        The engine's periodic strict sweep runs each through its guard.
        The default keeps no such state.
        """
        return ()

    def rescore_stats(self) -> Dict[str, float]:
        """Score-matrix counters for ``SimulationResult.rescore_stats``.

        The default keeps no score matrix and reports none.
        """
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
