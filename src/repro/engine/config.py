"""Engine configuration.

Everything that is not the cluster spec, the policy or the workload:
operation jitter (the paper observed VM creation times distributed
N(µ = C_c, σ = 2.5) on its testbed and injects the same variability into
the simulator, §IV), failure injection, checkpointing, SLA monitoring
cadence, warm-start sizing and the simulation horizon guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cluster.faults import FaultConfig
from repro.errors import ConfigurationError
from repro.units import DAY, HOUR

__all__ = ["EngineConfig"]


@dataclass(frozen=True)
class EngineConfig:
    """Run-level knobs of :class:`~repro.engine.datacenter.DatacenterSimulation`.

    Attributes
    ----------
    seed:
        Root seed of every stochastic element in the run.
    initial_on:
        Hosts powered on (warm) at t = 0, chosen by boot preference.
    creation_sigma_s:
        Std-dev of the normal jitter on VM creation times (paper: 2.5 s).
    migration_sigma_s:
        Std-dev of the jitter on migration times.
    drain_grace_s:
        Extra simulated time allowed past the last arrival for the
        remaining jobs to finish before the run is cut off.
    sla_check_interval_s:
        Cadence of the dynamic SLA monitor (used only when the policy
        enables P_SLA).
    enable_failures:
        Inject host failures according to each host's reliability factor.
    mttr_s:
        Mean repair time of a failed host.
    checkpoint_interval_s:
        Cadence of VM checkpoints (None disables checkpointing; failed
        VMs then restart from scratch).
    record_power_series:
        Keep the datacenter-level power step function (needed by the
        validation figures; off by default to save memory).
    trace_events:
        Record a structured event log (:class:`repro.engine.tracing.EventTrace`)
        of every placement, migration, boot, failure, ...; zero-cost when
        off.
    trace_capacity:
        Maximum retained trace records (FIFO-dropped beyond); ``None``
        retains everything (service-mode journaling).
    strict_invariants:
        Run the incremental-state oracles during the run, so silent drift
        in the O(dirty) incremental state is caught long before it
        corrupts published rows: host aggregates, metrics totals and the
        policy's own state (the score matrix's cells) every
        ``invariant_interval_s``, the SLA index at every SLA check, and
        every score-matrix bind.  Checks piggyback on regular engine
        events (no extra simulator events are scheduled), so enabling
        them leaves every result row — including ``sim_events`` —
        bit-identical.  The ``REPRO_STRICT_INVARIANTS`` environment
        variable (``raise`` or ``resync``) is the same switch, for a
        whole test run.
    invariant_mode:
        Response to a detected drift: ``"raise"`` aborts the run with
        :class:`~repro.errors.StateError`; ``"resync"`` rebuilds the
        drifted state from scratch, emits a RuntimeWarning, and counts
        the event in ``SimulationResult.invariant_resyncs``.
    invariant_interval_s:
        Minimum simulated time between two invariant sweeps.
    """

    seed: int = 20071001
    initial_on: int = 10
    creation_sigma_s: float = 2.5
    migration_sigma_s: float = 2.5
    drain_grace_s: float = 7 * DAY
    sla_check_interval_s: float = 300.0
    enable_failures: bool = False
    mttr_s: float = 2 * HOUR
    checkpoint_interval_s: Optional[float] = None
    #: CPU burned per host while snapshotting its VMs (percent units) and
    #: for how long.  0 reproduces the paper's modelling decision (their
    #: middleware's checkpoint cost has "low contribution to power
    #: consumption, and for this reason ... not been simulated"); nonzero
    #: values let the ext_checkpoint_cost experiment verify that claim.
    checkpoint_cpu_pct: float = 0.0
    checkpoint_duration_s: float = 10.0
    record_power_series: bool = False
    trace_events: bool = False
    trace_capacity: Optional[int] = 100_000
    strict_invariants: bool = False
    invariant_mode: str = "raise"
    invariant_interval_s: float = 3600.0
    #: Operation-level fault injection (:class:`repro.cluster.faults.FaultConfig`);
    #: ``None`` disables chaos entirely (zero extra random draws — rows
    #: stay bit-identical to pre-chaos baselines).
    faults: Optional[FaultConfig] = None
    #: Seed of the chaos stream family; ``None`` derives it from ``seed``.
    #: A separate knob so the same workload can be replayed under
    #: different fault realizations (and vice versa).
    chaos_seed: Optional[int] = None
    #: Feed the per-host :class:`~repro.cluster.faults.ObservedReliability`
    #: tracker into the score policy's P_fault term (replacing the static
    #: spec ``F_rel``); requires a policy with ``use_observed_reliability``.
    observed_reliability: bool = False
    #: Supervisor: operation failures per window before a host is
    #: quarantined (0 disables quarantining).
    quarantine_threshold: int = 3
    #: Supervisor: sliding window over which operation failures count
    #: toward the quarantine threshold.
    quarantine_window_s: float = 1800.0
    #: Supervisor: how long a quarantined host stays excluded.
    quarantine_duration_s: float = 3600.0
    #: Supervisor: first retry backoff after a failed creation; doubles
    #: per consecutive failure of the same VM, capped below.
    retry_backoff_base_s: float = 30.0
    retry_backoff_cap_s: float = 600.0
    #: Engine-level checkpoint/restore (:mod:`repro.engine.snapshot`) —
    #: distinct from the *in-world* VM checkpoints above
    #: (``checkpoint_interval_s``): these serialize the whole simulation
    #: so a killed run resumes bit-identically.  ``checkpoint_dir`` is the
    #: parent directory; snapshots land in a per-run subdirectory named by
    #: the config fingerprint.  ``None`` disables the subsystem entirely
    #: (zero behavior and zero overhead — the post-event hook stays unset).
    checkpoint_dir: Optional[str] = None
    #: Snapshot cadence in *simulated* seconds (e.g. 86400 = sim-daily).
    checkpoint_sim_interval_s: Optional[float] = None
    #: Snapshot cadence in *wall-clock* seconds.  Either or both cadences
    #: may be set; with neither, snapshots are written only on graceful
    #: stops.  Wall-driven snapshots land at nondeterministic sim times
    #: but never perturb the simulation (writing one is a pure read).
    checkpoint_wall_interval_s: Optional[float] = None
    #: Keep-last-K snapshot retention inside the run's subdirectory.
    checkpoint_keep: int = 3
    #: Wall-clock budget for :meth:`~DatacenterSimulation.run`; when
    #: exceeded, the run checkpoints (if checkpointing is on) and raises
    #: :class:`~repro.errors.SimulationInterrupted` (preemption-friendly).
    max_wall_clock_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.initial_on < 0:
            raise ConfigurationError("initial_on must be >= 0")
        if self.creation_sigma_s < 0:
            raise ConfigurationError(
                f"creation_sigma_s must be >= 0, got {self.creation_sigma_s!r}"
            )
        if self.migration_sigma_s < 0:
            raise ConfigurationError(
                f"migration_sigma_s must be >= 0, got {self.migration_sigma_s!r}"
            )
        if self.drain_grace_s <= 0:
            raise ConfigurationError(
                f"drain_grace_s must be positive, got {self.drain_grace_s!r}"
            )
        if self.sla_check_interval_s <= 0:
            raise ConfigurationError(
                f"sla_check_interval_s must be positive, "
                f"got {self.sla_check_interval_s!r}"
            )
        if self.mttr_s <= 0:
            raise ConfigurationError(
                f"mttr_s must be positive, got {self.mttr_s!r}"
            )
        if self.checkpoint_interval_s is not None and self.checkpoint_interval_s <= 0:
            raise ConfigurationError(
                f"checkpoint_interval_s must be positive when set, "
                f"got {self.checkpoint_interval_s!r}"
            )
        if self.checkpoint_cpu_pct < 0:
            raise ConfigurationError(
                f"checkpoint_cpu_pct must be >= 0, got {self.checkpoint_cpu_pct!r}"
            )
        if self.checkpoint_duration_s <= 0:
            raise ConfigurationError(
                f"checkpoint_duration_s must be positive, "
                f"got {self.checkpoint_duration_s!r}"
            )
        if self.trace_capacity is not None and self.trace_capacity < 1:
            raise ConfigurationError(
                "trace capacity must be >= 1 (or None for unbounded)"
            )
        if self.invariant_mode not in ("raise", "resync"):
            raise ConfigurationError("invariant mode must be 'raise' or 'resync'")
        if self.invariant_interval_s <= 0:
            raise ConfigurationError("invariant interval must be positive")
        if self.faults is not None and not isinstance(self.faults, FaultConfig):
            raise ConfigurationError(
                f"faults must be a FaultConfig or None, got {self.faults!r}"
            )
        if self.quarantine_threshold < 0:
            raise ConfigurationError(
                f"quarantine_threshold must be >= 0, "
                f"got {self.quarantine_threshold!r}"
            )
        if self.quarantine_window_s <= 0:
            raise ConfigurationError(
                f"quarantine_window_s must be positive, "
                f"got {self.quarantine_window_s!r}"
            )
        if self.quarantine_duration_s <= 0:
            raise ConfigurationError(
                f"quarantine_duration_s must be positive, "
                f"got {self.quarantine_duration_s!r}"
            )
        if self.retry_backoff_base_s <= 0:
            raise ConfigurationError(
                f"retry_backoff_base_s must be positive, "
                f"got {self.retry_backoff_base_s!r}"
            )
        if self.retry_backoff_cap_s < self.retry_backoff_base_s:
            raise ConfigurationError(
                f"retry_backoff_cap_s must be >= retry_backoff_base_s, "
                f"got {self.retry_backoff_cap_s!r}"
            )
        for name in ("checkpoint_sim_interval_s", "checkpoint_wall_interval_s"):
            value = getattr(self, name)
            if value is not None:
                if value <= 0:
                    raise ConfigurationError(
                        f"{name} must be positive when set, got {value!r}"
                    )
                if self.checkpoint_dir is None:
                    raise ConfigurationError(
                        f"{name} requires checkpoint_dir"
                    )
        if self.checkpoint_keep < 1:
            raise ConfigurationError(
                f"checkpoint_keep must be >= 1, got {self.checkpoint_keep!r}"
            )
        if self.max_wall_clock_s is not None and self.max_wall_clock_s <= 0:
            raise ConfigurationError(
                f"max_wall_clock_s must be positive when set, "
                f"got {self.max_wall_clock_s!r}"
            )
