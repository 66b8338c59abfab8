"""Configuration of the score-based policy.

The paper's §V experiment parameters: TH_empty = 1, C_empty = 20,
C_fill = 40, derived from the medium node class's overheads ("our policy
is set up theoretically with medium values ... the second one represents
the cost of having an empty node with few VMs; the last cost rewards those
nodes with big occupation").

The evaluated variants map to presets:

========  =============================================  ===========
variant    penalties                                      migration
========  =============================================  ===========
``sb0``    P_req + P_res + P_pwr                          no
``sb1``    SB0 + P_virt (creation)                        no
``sb2``    SB1 + P_conc                                   no
``sb``     SB2 + P_virt (migration term)                  yes
``full``   SB + P_SLA + P_fault (paper's future work)     yes
========  =============================================  ===========
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError

__all__ = ["ScoreConfig"]


@dataclass(frozen=True)
class ScoreConfig:
    """Knobs of :class:`~repro.scheduling.score.policy.ScoreBasedPolicy`.

    Attributes
    ----------
    enable_virt / enable_conc / enable_pwr / enable_sla / enable_fault:
        Toggles for the optional penalty families (P_req and P_res are
        always active — they encode feasibility).
    allow_migration:
        Whether placed VMs appear as movable columns in the matrix.
    th_empty:
        ``TH_empty``: a host with this many VMs or fewer is "emptiable".
    c_empty / c_fill:
        ``C_e`` and ``C_f`` of the power-efficiency penalty.
    c_sla / th_sla:
        Cost of an SLA breach and the tolerance threshold ``TH_SLA``.
    c_fail:
        ``C_fail``: cost scale of the reliability penalty.
    max_moves:
        Hill-climbing iteration limit; ``None`` = ``max(16, #columns)``.
    queue_cost:
        Finite stand-in for the virtual host's "infinite" cost; must
        dominate every real score so queued VMs are placed first.
    epsilon:
        Improvement threshold below which the solver stops.
    """

    enable_virt: bool = True
    enable_conc: bool = True
    enable_pwr: bool = True
    enable_sla: bool = False
    enable_fault: bool = False
    #: When P_fault is enabled, read per-host reliabilities from the
    #: engine's learned :class:`~repro.cluster.faults.ObservedReliability`
    #: tracker (wired through ``ScoreBasedPolicy.reliability_source``)
    #: instead of the static spec ``F_rel``.  No effect unless the engine
    #: runs with ``EngineConfig.observed_reliability``.
    use_observed_reliability: bool = False
    allow_migration: bool = True
    th_empty: int = 1
    c_empty: float = 20.0
    c_fill: float = 40.0
    c_sla: float = 100.0
    th_sla: float = 0.5
    c_fail: float = 100.0
    max_moves: Optional[int] = None
    queue_cost: float = 1e6
    epsilon: float = 1e-9
    #: Minimum time between consolidation passes (rounds that consider
    #: migrating running VMs).  The paper's scheduler "periodically
    #: calculates whether to move jobs"; placements still happen at every
    #: round, but migration churn is bounded by this cadence.  VMs in SLA
    #: violation bypass the throttle.
    consolidation_period_s: float = 900.0

    def __post_init__(self) -> None:
        if self.th_empty < 0:
            raise ConfigurationError("th_empty must be >= 0")
        if self.c_empty < 0 or self.c_fill < 0:
            raise ConfigurationError("c_empty and c_fill must be >= 0")
        if not 0.0 <= self.th_sla < 1.0:
            raise ConfigurationError("th_sla must be in [0, 1)")
        if self.queue_cost <= 0:
            raise ConfigurationError("queue_cost must be positive")
        if self.max_moves is not None and self.max_moves < 1:
            raise ConfigurationError("max_moves must be >= 1")
        if self.consolidation_period_s < 0:
            raise ConfigurationError("consolidation_period_s must be >= 0")

    # ---------------------------------------------------------------- presets

    @classmethod
    def sb0(cls, **overrides) -> "ScoreConfig":
        """Requirements + resources + power efficiency; no overheads, no migration."""
        return cls(
            enable_virt=False,
            enable_conc=False,
            allow_migration=False,
            **overrides,
        )

    @classmethod
    def sb1(cls, **overrides) -> "ScoreConfig":
        """SB0 + virtualization (creation) overheads."""
        return cls(
            enable_virt=True,
            enable_conc=False,
            allow_migration=False,
            **overrides,
        )

    @classmethod
    def sb2(cls, **overrides) -> "ScoreConfig":
        """SB1 + concurrency overheads."""
        return cls(
            enable_virt=True,
            enable_conc=True,
            allow_migration=False,
            **overrides,
        )

    @classmethod
    def sb(cls, **overrides) -> "ScoreConfig":
        """The full evaluated policy: all overhead penalties + migration."""
        return cls(
            enable_virt=True,
            enable_conc=True,
            allow_migration=True,
            **overrides,
        )

    @classmethod
    def full(cls, **overrides) -> "ScoreConfig":
        """SB + dynamic SLA enforcement + reliability (paper's extensions)."""
        return cls(
            enable_virt=True,
            enable_conc=True,
            enable_sla=True,
            enable_fault=True,
            allow_migration=True,
            **overrides,
        )
