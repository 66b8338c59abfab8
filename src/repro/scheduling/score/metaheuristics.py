"""Metaheuristic alternatives to Algorithm 1's hill climbing.

The paper motivates its greedy hill climber by speed: MIP formulations
"can lead to a too slow decision process for an online scheduler" (§II),
and Tabu search / Simulated Annealing are cited as the heavier
alternatives ([12], [14], [15]).  This module implements both against the
same score objective so the trade-off can be measured (the
``ablation_solver`` experiment): how much schedule quality do the
expensive searches buy over hill climbing, at what decision latency?

Both solvers work on whole assignments via
:class:`~repro.scheduling.score.evaluator.AssignmentEvaluator` and return
the same ``Move`` list the hill climber produces, so they are drop-in
replacements inside :class:`~repro.scheduling.score.policy.ScoreBasedPolicy`
(``solver="sa"`` / ``solver="tabu"``).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.des.random import RandomStreams
from repro.scheduling.score.evaluator import AssignmentEvaluator
from repro.scheduling.score.matrix import ScoreMatrixBuilder
from repro.scheduling.score.solver import Move, hill_climb

__all__ = ["simulated_annealing", "tabu_search", "SOLVERS", "solve"]


def _moves_from_assignment(
    builder: ScoreMatrixBuilder, evaluator: AssignmentEvaluator,
    assignment: np.ndarray,
) -> List[Move]:
    """Diff an assignment against the initial state into Move objects.

    Placements (queue → host) are emitted before migrations so the engine
    serves waiting jobs first, matching the hill climber's natural order.
    """
    placements: List[Move] = []
    migrations: List[Move] = []
    for j, vm in enumerate(builder.columns):
        target = int(assignment[j])
        origin = int(evaluator.initial[j])
        if target < 0 or target == origin:
            continue
        move = Move(
            vm_id=vm.vm_id,
            host_id=builder.hosts[target].host_id,
            gain=0.0,
            from_queue=bool(evaluator.is_queued_initially[j]),
        )
        (placements if move.from_queue else migrations).append(move)
    return placements + migrations


def _greedy_start(evaluator: AssignmentEvaluator) -> np.ndarray:
    """Initial assignment: keep placed VMs, greedily place queued ones."""
    assignment = evaluator.initial.copy()
    for j in range(evaluator.n_cols):
        if assignment[j] >= 0:
            continue
        hosts = evaluator.feasible_hosts(j, assignment)
        if hosts.size:
            assignment[j] = int(hosts[0])
    return assignment


def simulated_annealing(
    builder: ScoreMatrixBuilder,
    *,
    iterations: int = 400,
    t0: float = 50.0,
    cooling: float = 0.97,
    seed: int = 0,
) -> List[Move]:
    """Anneal over assignments of the score objective.

    Proposal: move one random column to one random feasible host (or back
    to the queue with small probability, which lets the search undo a bad
    greedy placement).  Standard exponential cooling; accepts uphill moves
    with probability ``exp(-delta / T)``.
    """
    if builder.n_cols == 0 or builder.n_rows == 0:
        return []
    if builder.n_cols <= 2:
        # Tiny rounds (the overwhelming majority in steady state): the
        # greedy optimum is the global optimum up to tie-breaks; skip the
        # annealing machinery entirely.
        return hill_climb(builder)
    evaluator = AssignmentEvaluator(builder)
    rng = RandomStreams(seed=seed).get("solver.sa")

    current = _greedy_start(evaluator)
    current_score = evaluator.total_score(current)
    best = current.copy()
    best_score = current_score

    temperature = t0
    for _ in range(iterations):
        j = int(rng.integers(evaluator.n_cols))
        candidate = current.copy()
        hosts = evaluator.feasible_hosts(j, candidate)
        if hosts.size == 0:
            continue
        if rng.random() < 0.05:
            candidate[j] = -1  # back to the queue
        else:
            candidate[j] = int(hosts[int(rng.integers(hosts.size))])
        if candidate[j] == current[j]:
            continue
        score = evaluator.total_score(candidate)
        delta = score - current_score
        if delta <= 0 or (
            np.isfinite(score) and rng.random() < np.exp(-delta / max(temperature, 1e-9))
        ):
            current = candidate
            current_score = score
            if score < best_score:
                best = candidate.copy()
                best_score = score
        temperature *= cooling

    return _moves_from_assignment(builder, evaluator, best)


def tabu_search(
    builder: ScoreMatrixBuilder,
    *,
    iterations: int = 30,
    tenure: int = 8,
    candidate_hosts: int = 4,
    seed: int = 0,
) -> List[Move]:
    """Tabu search over assignments of the score objective.

    Each iteration evaluates, for every non-tabu column, a bounded sample
    of feasible destination hosts, applies the best move found (even if
    uphill — that is what escapes local minima), and marks the column tabu
    for ``tenure`` iterations.  Aspiration: a move beating the global best
    ignores its tabu status.
    """
    if builder.n_cols == 0 or builder.n_rows == 0:
        return []
    if builder.n_cols <= 2:
        return hill_climb(builder)
    evaluator = AssignmentEvaluator(builder)
    rng = RandomStreams(seed=seed).get("solver.tabu")

    current = _greedy_start(evaluator)
    current_score = evaluator.total_score(current)
    best = current.copy()
    best_score = current_score
    tabu_until = np.zeros(evaluator.n_cols, dtype=int)

    for it in range(iterations):
        move_col, move_host, move_score = -1, -1, float("inf")
        for j in range(evaluator.n_cols):
            hosts = evaluator.feasible_hosts(j, current)
            if hosts.size == 0:
                continue
            if hosts.size > candidate_hosts:
                hosts = rng.choice(hosts, size=candidate_hosts, replace=False)
            for h in hosts:
                h = int(h)
                if h == current[j]:
                    continue
                candidate = current.copy()
                candidate[j] = h
                score = evaluator.total_score(candidate)
                aspiration = score < best_score
                if tabu_until[j] > it and not aspiration:
                    continue
                if score < move_score:
                    move_col, move_host, move_score = j, h, score
        if move_col < 0:
            break
        current[move_col] = move_host
        current_score = move_score
        tabu_until[move_col] = it + tenure
        if current_score < best_score:
            best = current.copy()
            best_score = current_score
        if best_score == 0.0:
            break

    return _moves_from_assignment(builder, evaluator, best)


#: Named solver registry used by ScoreBasedPolicy(solver=...).
SOLVERS = {
    "hill_climb": lambda builder, seed=0: hill_climb(builder),
    "sa": lambda builder, seed=0: simulated_annealing(builder, seed=seed),
    "tabu": lambda builder, seed=0: tabu_search(builder, seed=seed),
}


def solve(name: str, builder: ScoreMatrixBuilder, seed: int = 0) -> List[Move]:
    """Run a named solver on a prepared builder."""
    try:
        solver = SOLVERS[name]
    except KeyError:
        from repro.errors import ConfigurationError

        raise ConfigurationError(
            f"unknown solver {name!r}; known: {sorted(SOLVERS)}"
        ) from None
    return solver(builder, seed=seed)
