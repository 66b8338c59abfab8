"""The clock-free placement facade.

:class:`PlacementCore` decouples "ask the scheduler for a decision" from
the DES event loop: it owns the policy + budget-controller pairing and
can answer a one-shot budgeted placement question against any host/VM
snapshot, with no simulator in sight.  The service engine drives the same
policy through the DES for actuation; the core is the seam that keeps the
policy reusable by both.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.cluster.host import Host
from repro.cluster.vm import Vm
from repro.errors import ConfigurationError
from repro.scheduling.actions import Action
from repro.scheduling.base import SchedulingContext, SchedulingPolicy
from repro.service.anytime import RoundBudgetController

__all__ = ["PlacementCore"]


class PlacementCore:
    """Policy + anytime-budget composite, independent of any clock.

    Parameters
    ----------
    policy:
        The scheduling policy.  Budgeted (anytime) operation requires a
        :class:`~repro.scheduling.score.policy.ScoreBasedPolicy` with the
        ``hill_climb`` solver; any policy works unbudgeted.
    round_budget:
        Fixed per-round iteration cap (deterministic anytime mode).
    round_deadline_s:
        Per-round wall-clock budget (live anytime mode).

    When the policy already carries a budget controller (a restored
    engine snapshot), the existing controller is adopted — its round
    watermark is part of the crash-consistent state — and only the
    operational knobs (budget, deadline) are replaced.
    """

    def __init__(
        self,
        policy: SchedulingPolicy,
        *,
        round_budget: Optional[int] = None,
        round_deadline_s: Optional[float] = None,
    ) -> None:
        self.policy = policy
        budgeted = round_budget is not None or round_deadline_s is not None
        supports = hasattr(policy, "budget_controller") and (
            getattr(policy, "solver", None) == "hill_climb"
        )
        if budgeted and not supports:
            raise ConfigurationError(
                "anytime budgets require a ScoreBasedPolicy with the "
                f"hill_climb solver, got {type(policy).__name__!r} "
                f"(solver={getattr(policy, 'solver', None)!r})"
            )
        self.controller: Optional[RoundBudgetController] = None
        if supports:
            existing = policy.budget_controller
            if existing is not None:
                # Restored snapshot: keep the watermark, adopt this
                # invocation's operational knobs.
                existing.budget = round_budget
                existing.deadline_s = round_deadline_s
                self.controller = existing
            else:
                self.controller = RoundBudgetController(
                    budget=round_budget, deadline_s=round_deadline_s
                )
                policy.budget_controller = self.controller

    # ------------------------------------------------------------- one-shot

    def decide_once(
        self,
        hosts: Sequence[Host],
        queued: Iterable[Vm],
        *,
        now: float = 0.0,
        placed: Iterable[Vm] = (),
    ) -> List[Action]:
        """One budgeted decision against an externally supplied snapshot.

        The clock-free entry point: callers hand in host and VM state and
        a nominal ``now`` (only SLA/consolidation terms read it) and get
        actions back — no simulator, no event loop.  An SLA-aware policy
        reads fulfilment from the context's index, which the context
        builds by one scan of ``placed``.  Used by tests and
        what-if tooling; the live path goes through
        :class:`~repro.service.engine.ServiceEngine` so decisions are
        actuated and journaled.
        """
        ctx = SchedulingContext(
            now=now,
            hosts=list(hosts),
            queued=tuple(queued),
            placed=tuple(placed),
        )
        return self.policy.decide(ctx)

    # ------------------------------------------------------------ round data

    def drain_round_reports(self):
        """Un-journaled (sim_time, iterations, exhausted) round reports."""
        if self.controller is None:
            return []
        return self.controller.drain_pending()

    def load_replay_budgets(self, iterations) -> None:
        if self.controller is not None:
            self.controller.load_replay_budgets(iterations)

    @property
    def rounds_done(self) -> int:
        return self.controller.rounds_done if self.controller is not None else 0
