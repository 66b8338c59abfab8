"""Host power models.

The paper measures a real 4-way Xen machine (Table I) and finds that power
"has no dependence on the number of VMs and how they are configured — the
only real dependence is with the total CPU consumed by the VMs".  That
observation *is* the power model: a curve from total CPU% to watts.

:data:`PAPER_TABLE_I` embeds the published measurements:

====================  =======
total CPU (%)          power
====================  =======
0   (idle, VMs idle)   230 W
100                    259 W
200                    273 W
300                    291 W
400 (saturated)        304 W
====================  =======

:class:`TablePowerModel` interpolates that curve piecewise-linearly;
:class:`LinearPowerModel` is the common idle/max two-point simplification;
:class:`ConstantPowerModel` reproduces the paper's cautionary "some other
machines where the power usage does not change with the load" (the kind
§IV-A says should be avoided — used in an ablation experiment).

Models are defined against a reference capacity and rescale to hosts of a
different width via :meth:`PowerModel.scaled_to`, preserving the idle/peak
wattage while stretching the load axis.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from operator import ge, sub, truediv
from typing import Tuple

from repro.errors import ConfigurationError

__all__ = [
    "PowerModel",
    "TablePowerModel",
    "LinearPowerModel",
    "ConstantPowerModel",
    "PAPER_TABLE_I",
]

#: The paper's Table I: (total CPU %, watts) on the 4-way test machine.
PAPER_TABLE_I: Tuple[Tuple[float, float], ...] = (
    (0.0, 230.0),
    (100.0, 259.0),
    (200.0, 273.0),
    (300.0, 291.0),
    (400.0, 304.0),
)


class PowerModel:
    """Interface: watts drawn by a powered-on host at a given total CPU%."""

    #: CPU capacity (percent units) the model's curve is defined over.
    capacity: float

    def power(self, cpu_pct: float) -> float:
        """Watts drawn at ``cpu_pct`` total CPU use (clamped to range)."""
        raise NotImplementedError

    @property
    def idle_power(self) -> float:
        """Watts drawn with zero CPU use."""
        return self.power(0.0)

    @property
    def max_power(self) -> float:
        """Watts drawn at full CPU use."""
        return self.power(self.capacity)

    def scaled_to(self, capacity: float) -> "PowerModel":
        """The same idle/peak curve stretched to a different capacity."""
        raise NotImplementedError


@lru_cache(maxsize=256)
def _table_knots(points: Tuple[Tuple[float, float], ...]) -> Tuple[tuple, ...]:
    """Validated ``(xs, ys, slopes)`` of a power table; memoized, since
    every host of a class builds the same table (invalid ones raise)."""
    if len(points) < 2:
        raise ConfigurationError("need at least two (cpu, watts) points")
    xs, ys = (tuple(map(float, column)) for column in zip(*points))
    if any(map(ge, xs, xs[1:])):
        raise ConfigurationError("cpu points must be strictly increasing")
    if any(w < 0 for w in ys):
        raise ConfigurationError("wattage must be non-negative")
    return xs, ys, tuple(map(truediv, map(sub, ys[1:], ys), map(sub, xs[1:], xs)))


@dataclass(frozen=True)
class TablePowerModel(PowerModel):
    """Piecewise-linear interpolation of measured (CPU%, W) points, in
    ``np.interp``'s exact arithmetic over knots precomputed at construction.

    Examples
    --------
    >>> m = TablePowerModel()
    >>> m.power(0)
    230.0
    >>> m.power(400)
    304.0
    >>> m.power(150)  # halfway between 259 and 273
    266.0
    """

    points: Tuple[Tuple[float, float], ...] = PAPER_TABLE_I

    def __post_init__(self) -> None:
        object.__setattr__(self, "_knots", _table_knots(self.points))

    def __reduce__(self):
        # Hosts of one class share one scaled model, which a snapshot
        # pickles once: the points, not the knots.
        return (TablePowerModel, (self.points,))

    @property
    def capacity(self) -> float:  # type: ignore[override]
        return self.points[-1][0]

    def power(self, cpu_pct: float) -> float:
        x = float(cpu_pct)
        xs, ys, slopes = self._knots
        if x <= xs[0]:
            return ys[0]
        if x >= xs[-1]:
            return ys[-1]
        j = bisect_right(xs, x) - 1
        if xs[j] == x:
            return ys[j]
        return slopes[j] * (x - xs[j]) + ys[j]

    def scaled_to(self, capacity: float) -> "TablePowerModel":
        if capacity <= 0:
            raise ConfigurationError("capacity must be positive")
        factor = capacity / self.capacity
        return TablePowerModel(
            points=tuple((x * factor, w) for x, w in self.points)
        )


@dataclass(frozen=True)
class LinearPowerModel(PowerModel):
    """Two-point idle/max linear model (Barroso & Hölzle style)."""

    idle_w: float = 230.0
    max_w: float = 304.0
    capacity: float = 400.0

    def __post_init__(self) -> None:
        if self.idle_w < 0 or self.max_w < self.idle_w:
            raise ConfigurationError("need 0 <= idle_w <= max_w")
        if self.capacity <= 0:
            raise ConfigurationError("capacity must be positive")

    def power(self, cpu_pct: float) -> float:
        u = min(max(cpu_pct, 0.0), self.capacity) / self.capacity
        return self.idle_w + (self.max_w - self.idle_w) * u

    def scaled_to(self, capacity: float) -> "LinearPowerModel":
        return LinearPowerModel(self.idle_w, self.max_w, capacity)


@dataclass(frozen=True)
class ConstantPowerModel(PowerModel):
    """Load-independent draw — the energy-inefficient machines §IV-A warns about."""

    watts: float = 270.0
    capacity: float = 400.0

    def __post_init__(self) -> None:
        if self.watts < 0:
            raise ConfigurationError("wattage must be non-negative")

    def power(self, cpu_pct: float) -> float:
        return self.watts

    def scaled_to(self, capacity: float) -> "ConstantPowerModel":
        return ConstantPowerModel(self.watts, capacity)
