"""Immutable host and cluster specifications.

The paper's evaluation datacenter has 100 nodes in three classes
distinguished by their virtualization overheads (§V):

* 15 **fast** nodes — VM creation C_c = 30 s, migration C_m = 40 s,
* 50 **medium** nodes — C_c = 40 s, C_m = 60 s,
* 35 **slow** nodes — C_c = 60 s, C_m = 80 s.

All are modelled after the authors' 4-way Xen testbed (4 cores, Table I
power curve).  :class:`HostSpec` captures one machine; :class:`ClusterSpec`
a whole datacenter, with a :meth:`ClusterSpec.paper_datacenter` builder for
the configuration above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.power import PowerModel, TablePowerModel
from repro.errors import ConfigurationError
from repro.units import CPU_PCT_PER_CORE

__all__ = ["NodeClass", "HostSpec", "ClusterSpec", "FAST", "MEDIUM", "SLOW"]


@dataclass(frozen=True)
class NodeClass:
    """A family of identical machines with shared virtualization overheads.

    Parameters
    ----------
    name:
        Class label ("fast", "medium", "slow", ...).
    creation_s:
        Mean VM creation overhead C_c in seconds.
    migration_s:
        Mean VM migration overhead C_m in seconds.
    """

    name: str
    creation_s: float
    migration_s: float

    def __post_init__(self) -> None:
        if self.creation_s <= 0 or self.migration_s <= 0:
            raise ConfigurationError(
                f"node class {self.name!r}: overheads must be positive"
            )


#: The curve a host without its own power model starts from: one shared
#: object, so all such hosts of one width share one scaled copy.
_DEFAULT_POWER_MODEL = TablePowerModel()

#: Scaled power models, ``(id(model), capacity) -> (model, scaled)``.  The
#: models are frozen, so every host built from one model at one capacity
#: (a whole host class) shares one scaled copy.  Keyed by identity, since
#: equal tables may still repr differently (``230`` vs ``230.0``) and a
#: config fingerprint reads the repr; the entry keeps ``model`` alive, so
#: its id is never reused while the entry stands.
_SCALED_MODELS: Dict[Tuple[int, float], Tuple[PowerModel, PowerModel]] = {}


def _scaled_model(model: PowerModel, capacity: float) -> PowerModel:
    key = (id(model), capacity)
    entry = _SCALED_MODELS.get(key)
    if entry is None:
        if len(_SCALED_MODELS) >= 1024:
            _SCALED_MODELS.clear()
        entry = _SCALED_MODELS[key] = (model, model.scaled_to(capacity))
    return entry[1]


#: The paper's three node classes (§V).
FAST = NodeClass("fast", creation_s=30.0, migration_s=40.0)
MEDIUM = NodeClass("medium", creation_s=40.0, migration_s=60.0)
SLOW = NodeClass("slow", creation_s=60.0, migration_s=80.0)


@dataclass(frozen=True)
class HostSpec:
    """Static description of one physical machine.

    Parameters
    ----------
    host_id:
        Unique id within the cluster.
    node_class:
        Virtualization-overhead family (:data:`FAST`/:data:`MEDIUM`/:data:`SLOW`).
    ncpus:
        Physical cores; CPU capacity is ``ncpus * 100`` percent units.
    mem_mb:
        Physical memory.
    arch / hypervisor:
        Matched against job requirements by the P_req penalty.
    boot_s:
        Time from power-on command to usable (counted with boot power).
    power_model:
        Watts as a function of total CPU%, rescaled to this host's width.
    reliability:
        F_rel(h) in (0, 1]: long-run fraction of time the node is up.
    creation_cpu_pct / migration_cpu_pct:
        CPU consumed on the host by an in-flight creation / by each side of
        an in-flight migration (the measured "CPU overload ... when
        creating new VMs or at migration time" of §IV).
    """

    host_id: int
    node_class: NodeClass = MEDIUM
    ncpus: int = 4
    mem_mb: float = 4096.0
    arch: str = "x86_64"
    hypervisor: str = "xen"
    boot_s: float = 300.0
    power_model: PowerModel = _DEFAULT_POWER_MODEL
    reliability: float = 1.0
    creation_cpu_pct: float = 100.0
    migration_cpu_pct: float = 100.0

    def __post_init__(self) -> None:
        if self.ncpus <= 0:
            raise ConfigurationError(f"host {self.host_id}: ncpus must be positive")
        if self.mem_mb <= 0:
            raise ConfigurationError(f"host {self.host_id}: mem_mb must be positive")
        if self.boot_s < 0:
            raise ConfigurationError(f"host {self.host_id}: boot_s must be >= 0")
        if not 0.0 < self.reliability <= 1.0:
            raise ConfigurationError(
                f"host {self.host_id}: reliability must be in (0, 1]"
            )
        # Rescale the power curve to this host's capacity once, here, so the
        # hot power() path never rescales.
        object.__setattr__(
            self, "power_model", _scaled_model(self.power_model, self.cpu_capacity)
        )

    @property
    def cpu_capacity(self) -> float:
        """Total CPU capacity in percent units (``ncpus * 100``)."""
        return self.ncpus * CPU_PCT_PER_CORE

    @property
    def creation_s(self) -> float:
        """Mean creation overhead C_c of this host's class."""
        return self.node_class.creation_s

    @property
    def migration_s(self) -> float:
        """Mean migration overhead C_m of this host's class."""
        return self.node_class.migration_s

    @property
    def idle_watts(self) -> float:
        """Power draw when on and idle."""
        return self.power_model.idle_power

    @property
    def boot_watts(self) -> float:
        """Power draw while booting (machines boot at full tilt)."""
        return self.power_model.max_power


class ClusterSpec:
    """An ordered collection of :class:`HostSpec`.

    Examples
    --------
    >>> spec = ClusterSpec.paper_datacenter()
    >>> len(spec)
    100
    >>> sorted({h.node_class.name for h in spec})
    ['fast', 'medium', 'slow']
    """

    def __init__(self, hosts: Iterable[HostSpec]) -> None:
        self._hosts: List[HostSpec] = list(hosts)
        ids = [h.host_id for h in self._hosts]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("duplicate host ids in cluster spec")
        if not self._hosts:
            raise ConfigurationError("cluster must have at least one host")

    def __len__(self) -> int:
        return len(self._hosts)

    def __iter__(self):
        return iter(self._hosts)

    def __getitem__(self, index: int) -> HostSpec:
        return self._hosts[index]

    @property
    def hosts(self) -> Sequence[HostSpec]:
        """Read-only view of the host specs."""
        return tuple(self._hosts)

    @property
    def total_cores(self) -> int:
        """Sum of cores across the datacenter."""
        return sum(h.ncpus for h in self._hosts)

    def by_class(self) -> Dict[str, List[HostSpec]]:
        """Hosts grouped by node-class name."""
        groups: Dict[str, List[HostSpec]] = {}
        for h in self._hosts:
            groups.setdefault(h.node_class.name, []).append(h)
        return groups

    # ---------------------------------------------------------- constructors

    @classmethod
    def homogeneous(
        cls,
        count: int,
        node_class: NodeClass = MEDIUM,
        **kwargs,
    ) -> "ClusterSpec":
        """``count`` identical hosts (ids 0..count-1)."""
        if count <= 0:
            raise ConfigurationError("cluster must have at least one host")
        return cls(
            HostSpec(host_id=i, node_class=node_class, **kwargs)
            for i in range(count)
        )

    @classmethod
    def paper_datacenter(
        cls,
        *,
        n_fast: int = 15,
        n_medium: int = 50,
        n_slow: int = 35,
        interleave: bool = True,
        **kwargs,
    ) -> "ClusterSpec":
        """The paper's 100-node datacenter (15 fast / 50 medium / 35 slow).

        With ``interleave=True`` the classes are spread over the id space in
        a deterministic round-robin pattern, so id-ordered baseline policies
        (round robin, first-fit backfilling) see a realistic class mix
        rather than all fast nodes first.
        """
        classes: List[NodeClass] = (
            [FAST] * n_fast + [MEDIUM] * n_medium + [SLOW] * n_slow
        )
        if interleave:
            # Deterministic spread: sort by fractional position within class.
            tagged: List[Tuple[float, int, NodeClass]] = []
            counts = {"fast": n_fast, "medium": n_medium, "slow": n_slow}
            seen: Dict[str, int] = {}
            for c in classes:
                k = seen.get(c.name, 0)
                seen[c.name] = k + 1
                total = counts[c.name]
                tagged.append(((k + 0.5) / total, {"fast": 0, "medium": 1, "slow": 2}[c.name], c))
            tagged.sort()
            classes = [c for _, _, c in tagged]
        return cls(
            HostSpec(host_id=i, node_class=c, **kwargs)
            for i, c in enumerate(classes)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        by_class = {k: len(v) for k, v in self.by_class().items()}
        return f"ClusterSpec({len(self)} hosts, {by_class})"
