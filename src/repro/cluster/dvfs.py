"""DVFS-aware power modelling.

The paper does not schedule frequencies itself — "we rely on the node's
underlying technology which automatically changes the frequency according
to the load" (§II) — which is precisely what its measured Table I curve
embodies.  :class:`DvfsPowerModel` makes that underlying technology
explicit: a set of (frequency, voltage) operating points, with

    P = P_static + C · f · V² · u_eff

where the governor picks the lowest frequency that still serves the
offered load.  Calibrated against the paper's endpoints (230 W idle,
304 W at full tilt on 4 cores), it produces a *stepped* curve to
set beside the measured piecewise-linear one.  No experiment runs it:
``ablation_power`` contrasts the Table I curve with constant-power
hosts, and the model is exercised only by its unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.cluster.power import PowerModel
from repro.errors import ConfigurationError

__all__ = ["DvfsOperatingPoint", "DvfsPowerModel", "PAPER_CALIBRATED_DVFS"]


@dataclass(frozen=True)
class DvfsOperatingPoint:
    """One P-state: relative frequency and core voltage."""

    freq_ghz: float
    volt_v: float

    def __post_init__(self) -> None:
        if self.freq_ghz <= 0 or self.volt_v <= 0:
            raise ConfigurationError("frequency and voltage must be positive")


#: A typical 2006-era Opteron-like ladder (the class of machine the paper
#: measured): 1.0-2.6 GHz with voltage scaling.
PAPER_CALIBRATED_DVFS: Tuple[DvfsOperatingPoint, ...] = (
    DvfsOperatingPoint(1.0, 1.10),
    DvfsOperatingPoint(1.4, 1.15),
    DvfsOperatingPoint(1.8, 1.20),
    DvfsOperatingPoint(2.2, 1.25),
    DvfsOperatingPoint(2.6, 1.30),
)


@dataclass(frozen=True)
class DvfsPowerModel(PowerModel):
    """Stepped DVFS power curve with an on-demand governor.

    Parameters
    ----------
    points:
        Available P-states, ascending frequency.
    static_w:
        Load-independent platform draw (disks, fans, PSU losses, chipset).
    dynamic_w:
        Dynamic power at the *top* P-state with all cores busy; scaled by
        ``f·V²`` for lower states and by effective utilization within a
        state.
    capacity:
        Total CPU capacity in percent units.
    """

    points: Tuple[DvfsOperatingPoint, ...] = PAPER_CALIBRATED_DVFS
    static_w: float = 230.0
    dynamic_w: float = 74.0
    capacity: float = 400.0

    def __post_init__(self) -> None:
        if len(self.points) < 1:
            raise ConfigurationError("need at least one operating point")
        freqs = [p.freq_ghz for p in self.points]
        if freqs != sorted(freqs):
            raise ConfigurationError("operating points must ascend in frequency")
        if self.static_w < 0 or self.dynamic_w < 0:
            raise ConfigurationError("wattages must be non-negative")
        if self.capacity <= 0:
            raise ConfigurationError("capacity must be positive")

    # ----------------------------------------------------------- governor

    def operating_point(self, cpu_pct: float) -> DvfsOperatingPoint:
        """The P-state an on-demand governor picks for this load.

        The lowest frequency whose throughput (relative to the top state)
        covers the offered utilization.
        """
        u = min(max(cpu_pct, 0.0), self.capacity) / self.capacity
        top = self.points[-1].freq_ghz
        for p in self.points:
            if p.freq_ghz / top >= u - 1e-12:
                return p
        return self.points[-1]

    # -------------------------------------------------------------- power

    def power(self, cpu_pct: float) -> float:
        u = min(max(cpu_pct, 0.0), self.capacity) / self.capacity
        if u <= 0.0:
            return self.static_w
        p = self.operating_point(cpu_pct)
        top = self.points[-1]
        # Dynamic power ∝ f · V²; within the chosen state, scale by the
        # fraction of that state's throughput actually used.
        state_scale = (p.freq_ghz * p.volt_v**2) / (top.freq_ghz * top.volt_v**2)
        state_throughput = p.freq_ghz / top.freq_ghz
        eff_u = min(u / state_throughput, 1.0)
        return self.static_w + self.dynamic_w * state_scale * eff_u

    def scaled_to(self, capacity: float) -> "DvfsPowerModel":
        if capacity <= 0:
            raise ConfigurationError("capacity must be positive")
        return DvfsPowerModel(
            points=self.points,
            static_w=self.static_w,
            dynamic_w=self.dynamic_w,
            capacity=capacity,
        )
