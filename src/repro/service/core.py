"""The per-round anytime budget of the live control plane.

:class:`PlacementCore` wraps the service's scheduling policy and, for a
:class:`~repro.scheduling.score.policy.ScoreBasedPolicy` with the
``hill_climb`` solver, is the object attached as its
:attr:`~repro.scheduling.score.policy.ScoreBasedPolicy.budget_controller`.
Each scheduling round the policy asks it for a budget (iterations) and an
optional wall-clock deadline, runs the anytime hill climb under them, and
reports back how many iterations were actually committed.  The service
engine drains those reports into the decision journal; replay and
post-crash catch-up load them back in and hand the *journaled* iteration
counts out as deterministic budgets — which is the whole trick that makes
a wall-clock-truncated live round reproducible bit for bit.

The core is attached to the policy, so it pickles inside engine
snapshots: ``rounds_done`` and the not-yet-journaled ``pending`` reports
are exactly as crash-consistent as the rest of the engine state.
"""

from __future__ import annotations

import time as _time
from collections import deque
from typing import Deque, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.scheduling.base import SchedulingPolicy
from repro.scheduling.score.solver import AnytimeResult

__all__ = ["PlacementCore", "check_round_limits"]


def check_round_limits(budget: Optional[int], deadline_s: Optional[float]) -> None:
    """The one rule for a round's iteration budget and wall deadline."""
    if budget is not None and budget < 0:
        raise ConfigurationError(f"round budget must be >= 0, got {budget!r}")
    if deadline_s is not None and deadline_s <= 0:
        raise ConfigurationError(
            f"round deadline must be positive, got {deadline_s!r}"
        )


class PlacementCore:
    """Policy + per-round budget source and iteration recorder.

    Parameters
    ----------
    policy:
        The scheduling policy.  Budgeted (anytime) operation requires a
        :class:`~repro.scheduling.score.policy.ScoreBasedPolicy` with the
        ``hill_climb`` solver; any policy works unbudgeted.
    round_budget:
        Fixed per-round iteration cap (deterministic anytime mode);
        ``None`` leaves the climb bounded only by the config/deadline.
    round_deadline_s:
        Per-round wall-clock budget (live anytime mode); ``None``
        disables the deadline.  Nondeterministic by nature — the
        committed iteration count is what gets journaled for replay.

    When the policy already carries a core (a restored engine snapshot),
    this one takes over its round watermark, pending reports and replay
    budgets — they are part of the crash-consistent state — and only the
    operational knobs (budget, deadline) come from this invocation.
    """

    def __init__(
        self,
        policy: SchedulingPolicy,
        *,
        round_budget: Optional[int] = None,
        round_deadline_s: Optional[float] = None,
    ) -> None:
        self.policy = policy
        #: Whether the policy runs its rounds under this core's budgets.
        self.anytime = hasattr(policy, "budget_controller") and (
            getattr(policy, "solver", None) == "hill_climb"
        )
        self.budget: Optional[int] = None
        self.deadline_s: Optional[float] = None
        self.set_limits(round_budget, round_deadline_s)
        #: Rounds completed over the engine's lifetime — the snapshot
        #: watermark replay/resume uses to skip already-applied journaled
        #: budgets.
        self.rounds_done = 0
        #: Completed-round reports (sim time, iterations, exhausted) not
        #: yet drained into the journal, in execution order.
        self.pending: List[Tuple[float, int, bool]] = []
        #: Journaled iteration budgets queued for replay/catch-up; once
        #: drained the core falls back to live budgets.
        self.replay_budgets: Deque[int] = deque()
        if self.anytime:
            previous = policy.budget_controller
            if previous is not None:
                self.rounds_done = previous.rounds_done
                self.pending = previous.pending
                self.replay_budgets = previous.replay_budgets
            policy.budget_controller = self

    def set_limits(
        self, budget: Optional[int], deadline_s: Optional[float]
    ) -> None:
        """Replace the per-round limits given; ``None`` keeps the current one."""
        if budget is None and deadline_s is None:
            return
        if not self.anytime:
            raise ConfigurationError(
                "anytime budgets require a ScoreBasedPolicy with the "
                f"hill_climb solver, got {type(self.policy).__name__!r} "
                f"(solver={getattr(self.policy, 'solver', None)!r})"
            )
        check_round_limits(budget, deadline_s)
        if budget is not None:
            self.budget = budget
        if deadline_s is not None:
            self.deadline_s = deadline_s

    # ------------------------------------------------------------- policy API

    def begin_round(self, now: float) -> Tuple[Optional[int], Optional[float]]:
        """Budget and absolute wall deadline for the round starting now."""
        if self.replay_budgets:
            # Replay: impose the live run's committed iteration count —
            # deterministic truncation at the same point of the same
            # deterministic move order.
            return self.replay_budgets.popleft(), None
        deadline = None
        if self.deadline_s is not None:
            deadline = _time.monotonic() + self.deadline_s
        return self.budget, deadline

    def end_round(self, now: float, result: AnytimeResult) -> None:
        """Record one completed round (drained by the service engine)."""
        self.rounds_done += 1
        self.pending.append((now, result.iterations, result.budget_exhausted))

    # ------------------------------------------------------------ service API

    def drain_pending(self) -> List[Tuple[float, int, bool]]:
        """Hand the un-journaled round reports over, oldest first."""
        out = self.pending
        self.pending = []
        return out

    def load_replay_budgets(self, iterations: Iterable[int]) -> None:
        """Queue journaled per-round budgets (replay / post-crash catch-up)."""
        self.replay_budgets.extend(int(n) for n in iterations)
