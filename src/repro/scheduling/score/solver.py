"""Hill-climbing matrix optimization (the paper's Algorithm 1).

Starting from the score matrix normalized by each VM's current cost, the
solver repeatedly:

1. finds the most negative cell — the single move improving the global
   score the most,
2. applies it hypothetically through
   :meth:`~repro.scheduling.score.persistent.PersistentScoreMatrix.apply_move`
   (which freezes the moved column and rescores the two affected host
   rows over the round's still-unfrozen columns),

until no negative cell remains or the iteration limit is reached — "a
suboptimal solution much faster and cheaper than evaluating all possible
configurations".  Freezing moved columns bounds the loop at one move per
VM per round, matching the real system (an operation starts on the VM
immediately, pinning it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.scheduling.score.persistent import PersistentScoreMatrix

__all__ = ["Move", "hill_climb", "AnytimeResult", "anytime_hill_climb"]


@dataclass(frozen=True)
class Move:
    """One scheduling move chosen by the solver."""

    vm_id: int
    host_id: int
    #: Score improvement (negative number) this move contributed.
    gain: float
    #: Whether the VM came from the queue (placement) or a host (migration).
    from_queue: bool


def hill_climb(builder: PersistentScoreMatrix) -> List[Move]:
    """Run Algorithm 1 on a prepared matrix builder: the unbudgeted climb.

    Parameters
    ----------
    builder:
        A matrix bound to this round (one-shot or long-lived); mutated in
        place.  The iteration limit is the config's ``max_moves`` or
        ``max(16, #columns)``.

    Returns
    -------
    list[Move]
        Moves in application order (placements typically surface first —
        their queue-cost normalization makes them the most negative cells).
    """
    return anytime_hill_climb(builder).moves


@dataclass(frozen=True)
class AnytimeResult:
    """Outcome of one anytime hill-climb invocation.

    ``iterations`` is the number of moves actually committed — the
    deterministic replay token: re-running the same matrix state with
    ``budget=iterations`` reproduces ``moves`` bit for bit, regardless of
    what wall-clock deadline originally cut the climb short.
    """

    moves: List[Move] = field(default_factory=list)
    #: True when the budget/deadline expired with improving cells left —
    #: the answer is valid but possibly not locally optimal.
    budget_exhausted: bool = False
    #: Moves committed (== ``len(moves)``; kept explicit as the journal
    #: field replay feeds back in as ``budget``).
    iterations: int = 0


def anytime_hill_climb(
    builder: PersistentScoreMatrix,
    *,
    budget: Optional[int] = None,
    deadline_s: Optional[float] = None,
    clock: Optional[Callable[[], float]] = None,
) -> AnytimeResult:
    """Algorithm 1 under a latency budget: best answer found so far.

    The one implementation of the climb; :func:`hill_climb` is its
    unbudgeted form.  Moves come most-negative cell first (ties broken
    lowest row then lowest column), so truncation is well-defined: the
    first iteration always yields the globally best single move, and
    every prefix of the full climb is itself a feasible schedule — each
    committed move passed the same capacity checks the full climb
    applies.

    Parameters
    ----------
    builder:
        A matrix bound to this round (one-shot or long-lived); mutated in
        place.
    budget:
        Maximum iterations (committed moves).  The *deterministic* unit:
        equal budgets on equal matrix state give equal decisions across
        runs and hosts.  ``None`` or ``math.inf`` means unbounded (what
        :func:`hill_climb` runs).
    deadline_s / clock:
        Wall-clock cutoff for live serving, checked at iteration
        boundaries against ``clock()`` (default
        :func:`time.monotonic`).  Nondeterministic by nature; live mode
        journals the resulting ``iterations`` so replay can substitute
        the deterministic budget.

    Returns
    -------
    AnytimeResult
        Moves in application order plus the ``budget_exhausted`` flag
        (True when a budget or deadline cut the climb with improving
        cells left).
    """
    cfg = builder.config
    if builder.n_cols == 0 or builder.n_rows == 0:
        return AnytimeResult()
    limit = (
        cfg.max_moves if cfg.max_moves is not None else max(16, builder.n_cols)
    )
    budgeted = budget is not None and not math.isinf(budget)
    if budgeted:
        limit = min(limit, int(budget))
    if deadline_s is not None and clock is None:
        import time as _time

        clock = _time.monotonic

    moves: List[Move] = []
    cut = False
    while True:
        if len(moves) >= limit:
            cut = budgeted
            break
        if deadline_s is not None and clock() >= deadline_s:
            cut = True
            break
        # O(N) lookup on the matrix's incrementally maintained per-column
        # argmin cache — no (M×N) diff materialization per move.
        best = builder.best_move()
        if best is None:
            break
        row, col, gain = best
        if not math.isfinite(gain) or gain >= -cfg.epsilon:
            break
        vm = builder.columns[col]
        moves.append(
            Move(
                vm_id=vm.vm_id,
                host_id=builder.hosts[row].host_id,
                gain=gain,
                from_queue=bool(builder.is_queued[col]),
            )
        )
        builder.apply_move(col, row)
    exhausted = False
    if cut:
        # A budget or deadline stopped the climb: "exhausted" only if an
        # improving cell remains.  Unbudgeted climbs never probe.
        best = builder.best_move()
        exhausted = bool(
            best is not None
            and math.isfinite(best[2])
            and best[2] < -cfg.epsilon
        )
    return AnytimeResult(
        moves=moves, budget_exhausted=exhausted, iterations=len(moves)
    )
