"""Run results and table formatting.

:class:`SimulationResult` carries everything a paper table row needs plus
diagnostic extras; :func:`results_table` renders a list of results in the
paper's column layout so EXPERIMENTS.md can be regenerated mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

__all__ = ["SimulationResult", "results_table"]


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one datacenter run.

    The first block mirrors the paper's table columns; the second carries
    diagnostics used by tests and the experiment write-ups.
    """

    policy: str
    lambda_min: float
    lambda_max: float
    avg_working: float
    avg_online: float
    cpu_hours: float
    energy_kwh: float
    satisfaction: float
    delay_pct: float
    migrations: int

    # Diagnostics.
    n_jobs: int = 0
    n_completed: int = 0
    n_failed: int = 0
    #: Queue-wait statistics (submission -> first placement), seconds.
    #: Decomposes the delay column: a job is late either because it
    #: *waited* (no capacity / booting machines) or because it *ran slow*
    #: (operation contention, overcommitment).
    mean_wait_s: float = 0.0
    p95_wait_s: float = 0.0
    creations: int = 0
    rejected_actions: int = 0
    sla_violations: int = 0
    host_failures: int = 0
    checkpoint_recoveries: int = 0
    sim_events: int = 0
    horizon_s: float = 0.0
    wall_clock_s: float = 0.0
    #: Strict-invariant guard rails (EngineConfig.strict_invariants):
    #: oracle sweeps performed, and drifted aggregates rebuilt in
    #: ``resync`` mode.  Any nonzero resync count is a warning sign that
    #: the incremental O(dirty) state diverged during the run.
    invariant_checks: int = 0
    invariant_resyncs: int = 0
    #: Operation-level chaos (EngineConfig.faults) and its supervisor:
    #: sampled fault outcomes, quarantine decisions, CPU-seconds destroyed
    #: by faults/crashes, and the mean latency from a VM's first failure
    #: to its next successful creation.
    failed_creations: int = 0
    aborted_migrations: int = 0
    boot_failures: int = 0
    quarantines: int = 0
    lost_cpu_s: float = 0.0
    mean_recovery_s: float = 0.0
    #: Dropped-action breakdown keyed by
    #: :class:`~repro.engine.actuators.RejectReason` value.
    reject_reasons: Dict[str, int] = field(default_factory=dict)
    #: Persistent score-matrix rescoring counters (empty when the policy
    #: runs without one): ``binds``, ``cells_rescored`` vs ``cells_total``
    #: (what a per-round rebuild would have computed), ``full_rebuilds``,
    #: and ``dirty_rows_<2^k>`` / ``dirty_cols_<2^k>`` histograms of the
    #: per-round dirty-row / changed-column counts.
    rescore_stats: Dict[str, float] = field(default_factory=dict)
    #: Engine-level checkpoint/restore (:mod:`repro.engine.snapshot`):
    #: snapshots written by this process, their total on-disk bytes, and
    #: how many times this run's state was restored from a snapshot.
    #: Operational by nature — excluded from :meth:`canonical` because a
    #: killed-and-resumed run legitimately differs here while every
    #: simulated quantity stays bit-identical.
    checkpoints_written: int = 0
    checkpoint_bytes: int = 0
    snapshot_restores: int = 0
    #: Share memo counters (``hits``/``misses``/``entries``).
    #: Operational: memo hits return the exact floats a fresh solve
    #: would, so the counters describe work skipped, never results — a
    #: run with a memo that never hits stays ``canonical()``-equal to a
    #: default run.
    share_memo_stats: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)

    #: Fields that vary across processes for the *same* simulated run:
    #: wall-clock timing and checkpoint bookkeeping.
    OPERATIONAL_FIELDS = (
        "wall_clock_s",
        "checkpoints_written",
        "checkpoint_bytes",
        "snapshot_restores",
        "share_memo_stats",
    )

    def canonical(self) -> Dict[str, object]:
        """The result minus operational fields — the bit-identity contract.

        Two runs of the same configuration must produce equal
        ``canonical()`` dicts even when one was SIGKILLed and resumed from
        a snapshot; tests and the CI crash drill compare exactly this.
        """
        from dataclasses import asdict

        out = asdict(self)
        for name in self.OPERATIONAL_FIELDS:
            out.pop(name, None)
        return out

    @property
    def completion_rate(self) -> float:
        """Fraction of submitted jobs that completed."""
        return self.n_completed / self.n_jobs if self.n_jobs else 1.0

    @property
    def lambdas(self) -> str:
        """The λ column as the paper prints it (e.g. ``30-90``)."""
        return f"{self.lambda_min * 100:.0f}-{self.lambda_max * 100:.0f}"

    def row(self) -> Dict[str, str]:
        """Formatted cells in the paper's column layout."""
        return {
            "Policy": self.policy,
            "λ": self.lambdas,
            "Work/ON": f"{self.avg_working:.1f} / {self.avg_online:.1f}",
            "CPU (h)": f"{self.cpu_hours:.1f}",
            "Pwr (kWh)": f"{self.energy_kwh:.1f}",
            "S (%)": f"{self.satisfaction:.1f}",
            "delay (%)": f"{self.delay_pct:.1f}",
            "Mig": str(self.migrations),
        }


def results_table(
    results: Sequence[SimulationResult],
    *,
    columns: Optional[List[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render results as a fixed-width text table (paper layout).

    Examples
    --------
    >>> r = SimulationResult("BF", 0.3, 0.9, 10.1, 22.2, 6055.3, 1007.3,
    ...                      98.0, 10.4, 0)
    >>> print(results_table([r]).splitlines()[1].split()[0])
    Policy
    """
    if columns is None:
        columns = ["Policy", "λ", "Work/ON", "CPU (h)", "Pwr (kWh)", "S (%)", "delay (%)", "Mig"]
    rows = [r.row() for r in results]
    widths = {c: max(len(c), *(len(row[c]) for row in rows)) if rows else len(c) for c in columns}
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append("  ".join(row[c].ljust(widths[c]) for c in columns))
    return "\n".join(lines)
