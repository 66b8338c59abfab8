"""Scalar reference implementations of the score penalties (§III-A).

These functions are the *readable specification* of each penalty, written
exactly as the paper defines them.  The production path is the vectorized
:class:`~repro.scheduling.score.persistent.PersistentScoreMatrix`; the
test suite property-checks it cell-by-cell against these scalars (SLA
fulfilment and observed reliability included), so any vectorization bug
surfaces immediately (make-it-work / make-it-right / then-optimize, per
the HPC guides).

All functions take plain host/VM state objects and return a float
(possibly ``inf``).  A high score means a high cost of keeping the VM on
that host.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.host import Host
from repro.cluster.vm import Vm, VmState
from repro.scheduling.score.config import ScoreConfig

__all__ = [
    "p_req",
    "p_res",
    "p_migration",
    "p_virt",
    "p_conc",
    "p_pwr",
    "p_sla",
    "p_fault",
    "total_score",
]

INF = float("inf")


def p_req(host: Host, vm: Vm) -> float:
    """Hardware/software requirements: ∞ if the host cannot ever hold the VM.

    Quarantined hosts (supervisor exclusion after repeated operation
    faults) are unavailable for the quarantine's duration.
    """
    if not host.is_available or host.quarantined:
        return INF
    return 0.0 if host.meets_requirements(vm.job) else INF


def p_res(host: Host, vm: Vm) -> float:
    """Resource requirements: ∞ if occupation would exceed 100 %."""
    on_host = vm.host_id == host.host_id and vm.is_placed
    extra_cpu = 0.0 if on_host else vm.cpu_req
    extra_mem = 0.0 if on_host else vm.mem_req
    occ = host.occupation(extra_cpu=extra_cpu, extra_mem=extra_mem)
    return 0.0 if occ <= 1.0 + 1e-9 else INF


def p_migration(host: Host, vm: Vm, now: float) -> float:
    """The migration-time penalty P_m.

    ``P_m = 2·C_m`` when the user-declared remaining time ``T_r`` is below
    the migration cost (the VM "will finish soon and there is no need for
    migration"), else ``C_m/2`` — every migration bears half its cost as a
    standing friction.  See DESIGN.md §3 for the published-formula
    interpretation note; this reading is the one that reproduces Table V's
    zero-migration row at ``C_empty = 0``.
    """
    cm = host.spec.migration_s
    tr = vm.remaining_user_time(now)
    if tr < cm:
        return 2.0 * cm
    return cm / 2.0


def p_virt(host: Host, vm: Vm, now: float) -> float:
    """Virtualization overhead: creation cost, migration cost, or pinning ∞."""
    on_host = vm.host_id == host.host_id and vm.is_placed
    if on_host:
        return 0.0
    if vm.in_operation:
        return INF  # an operation is in flight on this VM: pinned
    if vm.state is VmState.QUEUED:
        return host.spec.creation_s
    return p_migration(host, vm, now)


def p_conc(host: Host, vm: Vm, pending_cost: float = 0.0) -> float:
    """Concurrency penalty: cost of operations already racing on the host.

    Applied to VMs *not* running on the host; ``pending_cost`` accounts for
    operations planned earlier in the same scheduling round.
    """
    on_host = vm.host_id == host.host_id and vm.is_placed
    if on_host:
        return 0.0
    return host.concurrency_cost + pending_cost


def p_pwr(host: Host, vm: Vm, config: ScoreConfig) -> float:
    """Power efficiency: punish emptiable hosts, reward fillable ones.

    ``P_pwr = T_empty(h)·C_e − O(h)·C_f`` with the occupation of the host
    as it stands (*without* the tentative VM) — §III-A-4 defines
    ``O(h, vm) = occupation of h``, in contrast to P_res's "occupation of
    h allocating vm".  This reading is what keeps migrations off when the
    fillable reward cannot beat the migration friction (Table V, C_e=0).
    """
    occ = host.occupation()
    t_empty = 1.0 if host.n_vms <= config.th_empty else 0.0
    return t_empty * config.c_empty - occ * config.c_fill


def p_sla(host: Host, vm: Vm, fulfillment: float, config: ScoreConfig) -> float:
    """Dynamic SLA enforcement penalty on the VM's *current* host.

    Candidate hosts other than the current one carry no SLA penalty — the
    optimistic predictor assumes relocation restores the full requirement
    (infeasible relocations are already ∞ through P_res).
    """
    on_host = vm.host_id == host.host_id and vm.is_placed
    if not on_host:
        return 0.0
    if fulfillment >= 1.0:
        return 0.0
    if fulfillment <= config.th_sla:
        return INF
    return config.c_sla


def p_fault(
    host: Host,
    vm: Vm,
    config: ScoreConfig,
    reliability: Optional[float] = None,
) -> float:
    """Reliability penalty ``((1 − F_rel(h)) − F_tol(vm)) · C_fail``.

    Negative values (a tolerant VM on a reliable host) are kept as the
    paper writes the formula — they act as a mild reward.  ``reliability``
    substitutes a learned per-host estimate (the engine's
    :class:`~repro.cluster.faults.ObservedReliability`) for the static
    spec ``F_rel``.
    """
    rel = host.spec.reliability if reliability is None else reliability
    return ((1.0 - rel) - vm.job.fault_tolerance) * config.c_fail


def total_score(
    host: Host,
    vm: Vm,
    now: float,
    config: ScoreConfig,
    *,
    fulfillment: float = 1.0,
    pending_conc_cost: float = 0.0,
    reliability: Optional[float] = None,
) -> float:
    """The merged cell score ``Score(h, vm)`` — sum of enabled penalties,
    the total of :func:`~repro.scheduling.score.explain.explain_cell`."""
    from repro.scheduling.score.explain import explain_cell

    return explain_cell(
        host, vm, now, config,
        fulfillment=fulfillment,
        pending_conc_cost=pending_conc_cost,
        reliability=reliability,
    ).total
