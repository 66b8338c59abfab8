"""Whole-assignment evaluation of the score objective.

The hill climber (Algorithm 1) never needs the *global* objective — it
works on per-move deltas.  The metaheuristic solvers of
:mod:`repro.scheduling.score.metaheuristics` (the Simulated Annealing and
Tabu search the paper's §II cites as the heavier alternatives) do: they
compare whole candidate assignments.  :class:`AssignmentEvaluator` scores
an arbitrary ``column -> host`` assignment in O(M + N) numpy work,
re-deriving occupancy from scratch so it is also an independent oracle for
testing the incremental matrix updates.

An assignment maps every matrix column to a host row or ``-1`` (left on
the virtual host / queue, costing ``queue_cost``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import SchedulingError
from repro.scheduling.score.persistent import PersistentScoreMatrix

__all__ = ["AssignmentEvaluator"]

INF = np.inf


class AssignmentEvaluator:
    """Scores arbitrary assignments against a frozen cluster snapshot.

    A second formula for the score on purpose: the matrix prices one move
    against the cluster as it is, while this prices a whole assignment
    with every column's own load left out of its host's occupancy, so it
    cannot reuse the matrix's cells.  ``tests/test_score_incremental.py``
    holds the matrix's incremental updates to it as an independent
    oracle.

    Parameters
    ----------
    builder:
        A freshly bound (unmutated) score matrix; its host arrays and the
        round columns' slot arrays are copied, with every column's current
        contribution *removed* from the occupancy baselines so any
        assignment can be evaluated from first principles.
    """

    def __init__(self, builder: PersistentScoreMatrix) -> None:
        rs = builder._round_slots
        if builder._frozen[rs].any():
            raise SchedulingError("evaluator needs an unmutated builder")
        self.config = builder.config
        self.n_rows = builder.n_rows
        self.n_cols = builder.n_cols

        self.avail = builder.avail.copy()
        self.cap_cpu = builder.cap_cpu.copy()
        self.cap_mem = builder.cap_mem.copy()
        self.cc = builder.cc.copy()
        self.cm = builder.cm.copy()
        self.rel = builder._rel.copy()
        self.conc = builder.conc.copy()
        self.req_ok = builder.v_feas[rs].T[builder.class_of_host]
        self.vcpu = builder.v_cpu[rs]
        self.vmem = builder.v_mem[rs]
        self.ftol = builder.v_ftol[rs]
        # The migration predicate T_r < C_m in the matrix's bucket space.
        self.cm_rank = builder._cm_rank
        self.bucket = builder._bucket[rs]
        self.fulf = builder._fulf[rs]
        self.is_queued_initially = builder._q[rs]
        self.initial = builder._cur[rs]

        # Occupancy baselines with the columns' own contributions removed.
        self.base_cpu = builder.res_cpu.copy()
        self.base_mem = builder.res_mem.copy()
        self.base_nvms = builder.nvms.copy()
        for j in range(self.n_cols):
            h = int(self.initial[j])
            if h >= 0:
                self.base_cpu[h] -= self.vcpu[j]
                self.base_mem[h] -= self.vmem[j]
                self.base_nvms[h] -= 1

    # ------------------------------------------------------------- scoring

    def _occupancy(self, assignment: np.ndarray):
        cpu = self.base_cpu.copy()
        mem = self.base_mem.copy()
        nvms = self.base_nvms.copy()
        placed = assignment >= 0
        if placed.any():
            np.add.at(cpu, assignment[placed], self.vcpu[placed])
            np.add.at(mem, assignment[placed], self.vmem[placed])
            np.add.at(nvms, assignment[placed], 1.0)
        return cpu, mem, nvms

    def total_score(self, assignment: Sequence[int]) -> float:
        """The summed objective of one assignment (inf when infeasible).

        Unassigned columns (-1) cost ``queue_cost`` each; every operation
        delta relative to the *initial* state contributes its P_virt /
        P_conc terms exactly as a matrix cell would.
        """
        cfg = self.config
        a = np.asarray(assignment, dtype=int)
        if a.shape != (self.n_cols,):
            raise SchedulingError("assignment length mismatch")
        if self.n_cols == 0:
            return 0.0
        cpu, mem, nvms = self._occupancy(a)

        # Feasibility of every host: occupancy within capacity.
        if np.any(cpu > self.cap_cpu * (1 + 1e-9)) or np.any(
            mem > self.cap_mem * (1 + 1e-9)
        ):
            return float("inf")

        total = 0.0
        for j in range(self.n_cols):
            h = int(a[j])
            if h < 0:
                total += cfg.queue_cost
                continue
            if not self.avail[h] or not self.req_ok[h, j]:
                return float("inf")
            moved = h != int(self.initial[j])
            s = 0.0
            if cfg.enable_virt and moved:
                if self.is_queued_initially[j]:
                    s += self.cc[h]
                elif self.cm_rank[h] >= self.bucket[j]:
                    s += 2.0 * self.cm[h]
                else:
                    s += self.cm[h] / 2.0
            if cfg.enable_conc and moved:
                s += self.conc[h]
            if cfg.enable_pwr:
                # Mirror the matrix convention: P_pwr's occupation is the
                # host *without the tentative (moved) VM*; a VM already in
                # place counts itself (it is part of the host as-is).
                cpu_h, mem_h, nv = cpu[h], mem[h], nvms[h]
                if moved:
                    cpu_h -= self.vcpu[j]
                    mem_h -= self.vmem[j]
                    nv -= 1
                occ_j = max(cpu_h / self.cap_cpu[h], mem_h / self.cap_mem[h])
                t_empty = 1.0 if nv <= cfg.th_empty else 0.0
                s += t_empty * cfg.c_empty - occ_j * cfg.c_fill
            if cfg.enable_sla and not moved:
                f = self.fulf[j]
                if f < 1.0:
                    if f <= cfg.th_sla:
                        return float("inf")
                    s += cfg.c_sla
            if cfg.enable_fault:
                s += ((1.0 - self.rel[h]) - self.ftol[j]) * cfg.c_fail
            total += s
        return float(total)

    def feasible(self, assignment: Sequence[int]) -> bool:
        """Whether the assignment violates no hard constraint."""
        return np.isfinite(self.total_score(assignment))

    def feasible_hosts(self, col: int, assignment: np.ndarray) -> np.ndarray:
        """Host rows that could take column ``col`` given the rest of
        ``assignment`` (used by proposal generators)."""
        cpu, mem, _ = self._occupancy(assignment)
        h = int(assignment[col])
        if h >= 0:
            cpu[h] -= self.vcpu[col]
            mem[h] -= self.vmem[col]
        ok = (
            self.avail
            & self.req_ok[:, col]
            & (cpu + self.vcpu[col] <= self.cap_cpu * (1 + 1e-9))
            & (mem + self.vmem[col] <= self.cap_mem * (1 + 1e-9))
        )
        return np.nonzero(ok)[0]
