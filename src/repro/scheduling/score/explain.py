"""Decision transparency: per-penalty breakdown of score cells.

Operators (and tests, and the paper-reading brain) want to know *why* the
scheduler put a VM somewhere.  :func:`explain_cell` decomposes one
⟨host, VM⟩ score into the seven penalty families exactly as §III-A defines
them; :func:`explain_decision` ranks all hosts for a VM and annotates the
winner — the textual equivalent of one matrix column.

Built on the scalar reference penalties (the readable spec), not the
vectorized matrix, so an explanation is independently computed from the
production path it explains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.cluster.host import Host
from repro.cluster.vm import Vm
from repro.scheduling.score.config import ScoreConfig
from repro.scheduling.score import penalties as P

__all__ = ["CellExplanation", "DecisionExplanation", "explain_cell", "explain_decision"]


@dataclass(frozen=True)
class CellExplanation:
    """One ⟨host, VM⟩ cell, decomposed."""

    host_id: int
    vm_id: int
    p_req: float
    p_res: float
    p_virt: float
    p_conc: float
    p_pwr: float
    p_sla: float
    p_fault: float
    total: float

    @property
    def feasible(self) -> bool:
        """Whether the allocation is possible at all."""
        return math.isfinite(self.total)

    def breakdown(self) -> Dict[str, float]:
        """Enabled penalty components by name."""
        return {
            "P_req": self.p_req,
            "P_res": self.p_res,
            "P_virt": self.p_virt,
            "P_conc": self.p_conc,
            "P_pwr": self.p_pwr,
            "P_SLA": self.p_sla,
            "P_fault": self.p_fault,
        }

    def __str__(self) -> str:
        if not self.feasible:
            blocker = "P_req" if math.isinf(self.p_req) else (
                "P_res" if math.isinf(self.p_res) else "pinned/violation"
            )
            return f"host {self.host_id}: infeasible ({blocker})"
        parts = " + ".join(
            f"{name}={value:.2f}"
            for name, value in self.breakdown().items()
            if value != 0.0
        )
        return f"host {self.host_id}: {self.total:.2f} [{parts or '0'}]"


@dataclass(frozen=True)
class DecisionExplanation:
    """A full ranking of candidate hosts for one VM."""

    vm_id: int
    cells: List[CellExplanation] = field(default_factory=list)

    @property
    def best(self) -> Optional[CellExplanation]:
        """The lowest-scoring feasible cell, if any."""
        feasible = [c for c in self.cells if c.feasible]
        return min(feasible, key=lambda c: c.total) if feasible else None

    def __str__(self) -> str:
        lines = [f"vm {self.vm_id}:"]
        ranked = sorted(
            self.cells, key=lambda c: (not c.feasible, c.total)
        )
        for i, cell in enumerate(ranked):
            marker = "->" if (self.best is cell) else "  "
            lines.append(f" {marker} {cell}")
            if i >= 9:
                lines.append(f"    ... {len(ranked) - 10} more hosts")
                break
        return "\n".join(lines)


def explain_cell(
    host: Host,
    vm: Vm,
    now: float,
    config: Optional[ScoreConfig] = None,
    *,
    fulfillment: float = 1.0,
    pending_conc_cost: float = 0.0,
    reliability: Optional[float] = None,
) -> CellExplanation:
    """Decompose ``Score(h, vm)`` into its penalty components.

    ``reliability`` prices P_fault from a learned per-host estimate
    instead of the static spec ``F_rel`` (see :func:`penalties.p_fault`).
    """
    config = config or ScoreConfig.sb()
    p_req = P.p_req(host, vm)
    p_res = P.p_res(host, vm)
    p_virt = P.p_virt(host, vm, now) if config.enable_virt else 0.0
    p_conc = P.p_conc(host, vm, pending_conc_cost) if config.enable_conc else 0.0
    p_pwr = P.p_pwr(host, vm, config) if config.enable_pwr else 0.0
    p_sla = P.p_sla(host, vm, fulfillment, config) if config.enable_sla else 0.0
    p_fault = P.p_fault(host, vm, config, reliability) if config.enable_fault else 0.0
    total = p_req + p_res + p_virt + p_conc + p_pwr + p_sla + p_fault
    return CellExplanation(
        host_id=host.host_id,
        vm_id=vm.vm_id,
        p_req=p_req,
        p_res=p_res,
        p_virt=p_virt,
        p_conc=p_conc,
        p_pwr=p_pwr,
        p_sla=p_sla,
        p_fault=p_fault,
        total=total,
    )


def explain_decision(
    hosts: Sequence[Host],
    vm: Vm,
    now: float,
    config: Optional[ScoreConfig] = None,
    *,
    fulfillment: float = 1.0,
) -> DecisionExplanation:
    """Rank every host for one VM with full penalty breakdowns."""
    config = config or ScoreConfig.sb()
    cells = [
        explain_cell(host, vm, now, config, fulfillment=fulfillment)
        for host in hosts
    ]
    return DecisionExplanation(vm_id=vm.vm_id, cells=cells)
