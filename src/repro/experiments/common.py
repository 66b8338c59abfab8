"""Shared experiment infrastructure.

The defaults here pin down the paper's §V setup once, so every
table/figure module draws from the same environment:

* the 100-node datacenter (15 fast / 50 medium / 35 slow),
* the synthetic Grid5000 week (seed 20071001 — the Monday the real trace
  week starts on), carrying ≈6 000 CPU·h,
* λmin = 30 %, λmax = 90 % unless a sweep says otherwise,
* TH_empty = 1, C_e = 20, C_f = 40 for the score-based policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.spec import ClusterSpec
from repro.engine.config import EngineConfig
from repro.engine.datacenter import simulate
from repro.engine.results import SimulationResult
from repro.scheduling.base import SchedulingPolicy
from repro.scheduling.power_manager import PowerManagerConfig
from repro.units import WEEK
from repro.workload.synthetic import Grid5000WeekGenerator, SyntheticConfig
from repro.workload.trace import Trace

__all__ = [
    "DEFAULT_SEED",
    "ExperimentOutput",
    "paper_cluster",
    "paper_trace",
    "run_policy",
    "lambda_config",
]

#: The Monday the paper's Grid5000 week starts on (2007-10-01).
DEFAULT_SEED = 20071001


@dataclass
class ExperimentOutput:
    """Result of one experiment module run."""

    exp_id: str
    title: str
    #: Formatted table/series text in the paper's layout.
    text: str
    #: Structured rows for tests and EXPERIMENTS.md generation.
    rows: List[Dict[str, object]] = field(default_factory=list)
    #: The paper's published numbers for side-by-side reading.
    paper_reference: str = ""
    #: Substitutions / deviations worth noting.
    notes: str = ""

    def __str__(self) -> str:
        parts = [f"== {self.exp_id}: {self.title} ==", self.text]
        if self.paper_reference:
            parts += ["-- paper reported --", self.paper_reference]
        if self.notes:
            parts += ["-- notes --", self.notes]
        return "\n".join(parts)


def paper_cluster(n_hosts: Optional[int] = None) -> ClusterSpec:
    """The paper's datacenter; optionally shrunk, keeping class ratios."""
    if n_hosts is None or n_hosts >= 100:
        return ClusterSpec.paper_datacenter()
    n_fast = max(1, round(n_hosts * 0.15))
    n_slow = max(1, round(n_hosts * 0.35))
    n_medium = max(1, n_hosts - n_fast - n_slow)
    return ClusterSpec.paper_datacenter(
        n_fast=n_fast, n_medium=n_medium, n_slow=n_slow
    )


def paper_trace(scale: float = 1.0, seed: int = DEFAULT_SEED) -> Trace:
    """The synthetic Grid5000 week, optionally shortened to ``scale``.

    ``scale=1.0`` is the paper's full week; smaller values keep the same
    statistical shape over a shorter horizon so quick runs exercise the
    identical code path.
    """
    cfg = SyntheticConfig(horizon_s=WEEK * scale)
    return Grid5000WeekGenerator(cfg, seed=seed).generate()


def lambda_config(lambda_min: float = 0.30, lambda_max: float = 0.90) -> PowerManagerConfig:
    """The λ thresholds of §V (default: the experimentally chosen 30/90)."""
    return PowerManagerConfig(lambda_min=lambda_min, lambda_max=lambda_max)


def run_policy(
    policy: SchedulingPolicy,
    trace: Trace,
    *,
    cluster: Optional[ClusterSpec] = None,
    pm_config: Optional[PowerManagerConfig] = None,
    engine_config: Optional[EngineConfig] = None,
    seed: int = DEFAULT_SEED,
) -> SimulationResult:
    """One full simulation run on a fresh copy of the trace."""
    return simulate(
        cluster=cluster or paper_cluster(),
        policy=policy,
        trace=trace,
        pm_config=pm_config or lambda_config(),
        config=engine_config or EngineConfig(seed=seed),
    )

