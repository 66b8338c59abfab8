"""Operation-level fault model and observed-reliability tracking.

The paper prices a static per-host reliability factor ``F_rel`` into the
score matrix (P_fault, §III-A-6) and its actuators perform "VM creation,
migration, recovery" (§III-C) — but real creations, migrations and boots
*fail* in ways the spec sheet does not predict.  This module supplies the
two halves of that story:

* :class:`OperationFaultModel` — a deterministic, seed-derived source of
  per-operation fault outcomes (creation failures, mid-flight migration
  aborts, boot failures, slow boots).  Each host gets its own independent
  random stream per fault family, so chaos outcomes are a pure function of
  ``(FaultConfig, chaos seed, host id, draw index)``: adding or removing a
  host never perturbs another host's fault sequence, and two runs with the
  same chaos seed are bit-identical.  A seed-derived "hot" subset of hosts
  carries multiplied fault rates — operational unreliability that the
  static spec reliability cannot see, which is exactly what the
  observed-reliability feedback loop is for.
* :class:`ObservedReliability` — a per-host EWMA of operation outcomes
  (crashes weighted heavier) that the score-based policy can substitute
  for the static ``F_rel`` (``ScoreConfig.use_observed_reliability``), so
  the hill climber learns to route work away from hosts that *behave*
  badly rather than hosts that are *labelled* badly.

The engine consumes zero draws from any chaos stream when chaos is off,
so chaos-disabled runs stay bit-identical to pre-chaos baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

import numpy as np

from repro.des.random import RandomStreams
from repro.errors import ConfigurationError

__all__ = ["FaultConfig", "OperationFaultModel", "ObservedReliability"]

#: FaultConfig fields that are per-operation probabilities in [0, 1].
_PROBABILITY_FIELDS = (
    "creation_failure_p",
    "migration_abort_p",
    "boot_failure_p",
    "slow_boot_p",
)


@dataclass(frozen=True)
class FaultConfig:
    """Per-operation fault probabilities and recovery semantics.

    Attributes
    ----------
    creation_failure_p:
        Probability that a VM creation fails at the end of its (already
        paid) creation time, returning the VM to the queue.
    migration_abort_p:
        Probability that a migration aborts mid-flight; the VM stays on
        its source host, keeps the work accrued up to the abort instant,
        and the destination reservation is released.
    boot_failure_p:
        Probability that a host boot fails: the machine burns the full
        boot time and falls back to ``OFF``.
    slow_boot_p:
        Probability (conditional on the boot not failing) that the boot is
        slow, taking ``slow_boot_factor`` times the nominal boot time.
    slow_boot_factor:
        Duration multiplier of a slow boot (>= 1).
    hot_fraction:
        Expected fraction of hosts whose fault probabilities are
        multiplied by ``hot_multiplier`` — operational black sheep the
        static spec reliability knows nothing about.  Membership is
        seed-derived per host (deterministic for a given chaos seed).
    hot_multiplier:
        Fault-rate multiplier of hot hosts (>= 1); effective
        probabilities are clamped to 1.
    """

    creation_failure_p: float = 0.0
    migration_abort_p: float = 0.0
    boot_failure_p: float = 0.0
    slow_boot_p: float = 0.0
    slow_boot_factor: float = 3.0
    hot_fraction: float = 0.25
    hot_multiplier: float = 4.0

    def __post_init__(self) -> None:
        for name in _PROBABILITY_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"FaultConfig.{name} must be in [0, 1], got {value!r}"
                )
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ConfigurationError(
                f"FaultConfig.hot_fraction must be in [0, 1], "
                f"got {self.hot_fraction!r}"
            )
        if self.slow_boot_factor < 1.0:
            raise ConfigurationError(
                f"FaultConfig.slow_boot_factor must be >= 1, "
                f"got {self.slow_boot_factor!r}"
            )
        if self.hot_multiplier < 1.0:
            raise ConfigurationError(
                f"FaultConfig.hot_multiplier must be >= 1, "
                f"got {self.hot_multiplier!r}"
            )

    @property
    def any_faults(self) -> bool:
        """Whether any fault family has a nonzero base probability."""
        return any(getattr(self, name) > 0.0 for name in _PROBABILITY_FIELDS)

    @classmethod
    def uniform(cls, rate: float, **overrides) -> "FaultConfig":
        """One-knob chaos: every fault family at the same base ``rate``.

        This is what the CLI's ``--chaos RATE`` builds; ``overrides``
        adjust individual fields on top.
        """
        base = dict(
            creation_failure_p=rate,
            migration_abort_p=rate,
            boot_failure_p=rate,
            slow_boot_p=rate,
        )
        base.update(overrides)
        return cls(**base)


class OperationFaultModel:
    """Deterministic per-host fault outcomes for in-flight operations.

    Each ``(fault family, host)`` pair owns an independent RNG stream
    derived from the chaos seed, so outcomes are reproducible and
    variance-isolated: how often one host's creations are tried never
    perturbs another host's abort sequence.

    Examples
    --------
    >>> model = OperationFaultModel(FaultConfig.uniform(1.0), seed=1)
    >>> model.creation_fails(0)
    True
    >>> OperationFaultModel(FaultConfig(), seed=1).creation_fails(0)
    False
    """

    def __init__(self, config: FaultConfig, seed: int) -> None:
        self.config = config
        self.seed = int(seed)
        self._streams = RandomStreams(seed=self.seed)
        self._rngs: Dict[Tuple[str, int], np.random.Generator] = {}
        self._multipliers: Dict[int, float] = {}

    # ------------------------------------------------------------- plumbing

    def _rng(self, family: str, host_id: int) -> np.random.Generator:
        key = (family, host_id)
        rng = self._rngs.get(key)
        if rng is None:
            rng = self._streams.child(f"faults.{family}", host_id)
            self._rngs[key] = rng
        return rng

    def multiplier(self, host_id: int) -> float:
        """This host's fault-rate multiplier (seed-derived, memoized)."""
        mult = self._multipliers.get(host_id)
        if mult is None:
            u = float(self._rng("profile", host_id).random())
            mult = self.config.hot_multiplier if u < self.config.hot_fraction else 1.0
            self._multipliers[host_id] = mult
        return mult

    def _p(self, base: float, host_id: int) -> float:
        return min(base * self.multiplier(host_id), 1.0)

    # ------------------------------------------------------------- outcomes

    def creation_fails(self, host_id: int) -> bool:
        """Sample whether the creation now starting on ``host_id`` fails."""
        p = self._p(self.config.creation_failure_p, host_id)
        if p <= 0.0:
            return False
        return float(self._rng("creation", host_id).random()) < p

    def migration_aborts(self, host_id: int) -> bool:
        """Sample whether a migration *into* ``host_id`` aborts mid-flight."""
        p = self._p(self.config.migration_abort_p, host_id)
        if p <= 0.0:
            return False
        return float(self._rng("migration", host_id).random()) < p

    def abort_fraction(self, host_id: int) -> float:
        """How far through its transfer the aborting migration gets.

        Drawn from the same per-host migration stream (only when an abort
        was sampled, so non-aborting migrations cost no extra draws);
        uniform over (0.1, 0.9) — an abort at 0 or 1 would degenerate to a
        no-op or a completion.
        """
        u = float(self._rng("migration", host_id).random())
        return 0.1 + 0.8 * u

    def boot_outcome(self, host_id: int) -> Tuple[str, float]:
        """``(kind, duration multiplier)`` for a boot now starting.

        ``kind`` is ``"fail"`` (machine burns the boot time, ends OFF),
        ``"slow"`` (boot takes ``slow_boot_factor`` times longer), or
        ``"ok"``.  The slow-boot draw happens only when the boot did not
        fail outright.
        """
        cfg = self.config
        rng = self._rng("boot", host_id)
        p_fail = self._p(cfg.boot_failure_p, host_id)
        if p_fail > 0.0 and float(rng.random()) < p_fail:
            return "fail", 1.0
        p_slow = self._p(cfg.slow_boot_p, host_id)
        if p_slow > 0.0 and float(rng.random()) < p_slow:
            return "slow", cfg.slow_boot_factor
        return "ok", 1.0


class ObservedReliability:
    """Per-host EWMA of operation outcomes: learned ``F_rel``.

    Each host's score starts at a prior (its static spec reliability) and
    moves toward 1 on successful operations and toward 0 on failures;
    whole-host crashes count ``crash_weight`` times as hard.  Scores live
    in [0, 1] by construction, so they slot directly into the P_fault
    formula ``((1 − F_rel) − F_tol) · C_fail``.

    The default ``alpha`` is deliberately small: a single outcome moves a
    score by at most ``alpha``, i.e. ``alpha × C_fail`` penalty points.
    That swing must stay well below the migration friction (``C_m / 2``),
    or one unlucky creation makes a healthy host look worth evacuating and
    the hill climber churns migrations chasing EWMA noise (observed as a
    satisfaction *collapse* at high fault rates before the default was
    lowered from 0.2).

    Examples
    --------
    >>> obs = ObservedReliability({0: 1.0}, alpha=0.5)
    >>> obs.record_failure(0)
    >>> obs.score(0)
    0.5
    >>> obs.record_success(0)
    >>> obs.score(0)
    0.75
    """

    def __init__(
        self,
        priors: Optional[Dict[int, float]] = None,
        alpha: float = 0.05,
        crash_weight: float = 3.0,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(
                f"ObservedReliability.alpha must be in (0, 1], got {alpha!r}"
            )
        if crash_weight < 1.0:
            raise ConfigurationError(
                f"ObservedReliability.crash_weight must be >= 1, "
                f"got {crash_weight!r}"
            )
        self.alpha = float(alpha)
        self.crash_weight = float(crash_weight)
        self._scores: Dict[int, float] = dict(priors or {})
        #: Total outcomes recorded (diagnostics).
        self.events = 0
        #: Hosts whose score moved since the last :meth:`drain_moved`.
        self._moved: Set[int] = set()

    def _update(self, host_id: int, target: float, weight: float) -> None:
        a = min(self.alpha * weight, 1.0)
        current = self._scores.get(host_id, 1.0)
        score = (1.0 - a) * current + a * target
        self._scores[host_id] = score
        if score != current:
            self._moved.add(host_id)
        self.events += 1

    def drain_moved(self) -> Set[int]:
        """Host ids whose score moved since the previous call.

        One consumer drains it: the score policy, which keeps its
        per-host reliability vector current from it instead of reading
        every host's score each round.
        """
        moved = self._moved
        self._moved = set()
        return moved

    def record_success(self, host_id: int) -> None:
        """An operation on ``host_id`` completed cleanly."""
        self._update(host_id, 1.0, 1.0)

    def record_failure(self, host_id: int) -> None:
        """An operation on ``host_id`` failed or aborted."""
        self._update(host_id, 0.0, 1.0)

    def record_crash(self, host_id: int) -> None:
        """``host_id`` crashed outright (weighted ``crash_weight``×)."""
        self._update(host_id, 0.0, self.crash_weight)

    def score(self, host_id: int) -> float:
        """The learned reliability of ``host_id`` in [0, 1]."""
        return self._scores.get(host_id, 1.0)

    def snapshot(self) -> Dict[int, float]:
        """A copy of all current scores (diagnostics / experiment rows)."""
        return dict(self._scores)
