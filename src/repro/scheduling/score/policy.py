"""The score-based scheduling policy.

:class:`ScoreBasedPolicy` packages the score matrix and the hill-climbing
solver behind the common :class:`~repro.scheduling.base.SchedulingPolicy`
interface.  Each scheduling round it:

1. collects the matrix columns — queued VMs, plus running VMs when
   migration is enabled (VMs with operations in flight are pinned and
   excluded, per §III-A-3);
2. reads SLA fulfilments from the round's fulfilment index
   (``SchedulingContext.sla``) when dynamic enforcement is on;
3. binds the matrix, runs Algorithm 1 (or the SA/tabu solver), and
   converts the chosen moves into
   :class:`~repro.scheduling.actions.Place` / :class:`~repro.scheduling.actions.Migrate`
   actions.

The hill climber runs on one long-lived
:class:`~repro.scheduling.score.persistent.PersistentScoreMatrix` per
cluster, rebound every round; it is the only scheduler state the policy
keeps across rounds.  SA and tabu consume their matrix destructively, so
they get a one-shot
:class:`~repro.scheduling.score.matrix.ScoreMatrixBuilder` per round.

It also overrides the shutdown ranking hook: idle hosts are ordered by
their aggregated matrix-row score ("those nodes with a higher score are
selected to be turned off", §III-C), so e.g. slow-creation nodes power
down before fast ones.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.faults import ObservedReliability
from repro.cluster.host import Host
from repro.cluster.vm import Vm, VmState
from repro.scheduling.actions import Action, Migrate, Place
from repro.scheduling.base import Oracle, SchedulingContext, SchedulingPolicy
from repro.scheduling.score.config import ScoreConfig
from repro.scheduling.score.matrix import ScoreMatrixBuilder
from repro.scheduling.score.persistent import PersistentScoreMatrix
from repro.scheduling.score.solver import anytime_hill_climb, hill_climb

__all__ = ["ScoreBasedPolicy"]


class ScoreBasedPolicy(SchedulingPolicy):
    """The paper's policy, §III.

    Parameters
    ----------
    config:
        Penalty toggles and constants; use the presets
        :meth:`ScoreConfig.sb0` … :meth:`ScoreConfig.full`.
    name:
        Table label; defaults to a preset-style name derived from the
        config.

    Examples
    --------
    >>> from repro.scheduling.score import ScoreConfig
    >>> policy = ScoreBasedPolicy(ScoreConfig.sb())
    >>> policy.supports_migration
    True
    """

    def __init__(
        self,
        config: Optional[ScoreConfig] = None,
        name: Optional[str] = None,
        solver: str = "hill_climb",
        solver_seed: int = 0,
    ) -> None:
        self.config = config or ScoreConfig.sb()
        self.supports_migration = self.config.allow_migration
        self.solver = solver
        self.solver_seed = solver_seed
        if solver not in ("hill_climb", "sa", "tabu"):
            from repro.errors import ConfigurationError

            raise ConfigurationError(f"unknown solver {solver!r}")
        #: The hill climber's attached long-lived score matrix for the
        #: current cluster.  Built on first use, rebuilt only for a new
        #: cluster.
        self._matrix: Optional[PersistentScoreMatrix] = None
        self.name = name if name is not None else self._derive_name()
        self._next_consolidation = 0.0
        #: Learned per-host reliabilities, wired up by the engine when
        #: ``EngineConfig.observed_reliability`` is on; consulted only when
        #: the config sets ``use_observed_reliability``.
        self.reliability_source: Optional[ObservedReliability] = None
        #: (source, hosts, host_id -> row, vector) behind
        #: :meth:`_reliability_vector`.
        self._rel_cache: Optional[tuple] = None
        #: Anytime-mode hook: the control plane's
        #: :class:`repro.service.core.PlacementCore` attaches itself here.
        #: When set, each round's hill climb runs under the budget/deadline
        #: the core hands out and reports the iterations it actually
        #: committed back (the journaled replay token).  None — the
        #: default everywhere outside service mode — keeps ``decide``
        #: bit-identical to the plain full climb.  Requires the
        #: ``hill_climb`` solver (metaheuristics have no anytime prefix
        #: property).
        self.budget_controller: Optional["PlacementCore"] = None

    def _long_lived_matrix(self, ctx: SchedulingContext) -> PersistentScoreMatrix:
        """The attached matrix for ``ctx.hosts`` (rebuilt on a new cluster).

        Policies may be reused across simulations with different clusters;
        :meth:`PersistentScoreMatrix.matches` catches that (identity fast
        path on the engine's stable host list, element-wise identity
        otherwise).  The attach step subscribes a new matrix to the
        cluster.
        """
        matrix = self._matrix
        if matrix is None or not matrix.matches(ctx.hosts):
            matrix = PersistentScoreMatrix(ctx.hosts, self.config)
            matrix.attach()
            self._matrix = matrix
        return matrix

    def _reliability_vector(
        self, ctx: SchedulingContext
    ) -> Optional[Sequence[float]]:
        """Learned per-host reliabilities for P_fault, or None (static F_rel).

        The vector is built once per (source, host list) and then updated
        from the hosts whose score moved since the last round.  When none
        did, the same array is returned, which the persistent matrix takes
        as "no reliability row changed" without comparing it; a change
        yields a new array.
        """
        if (
            not self.config.enable_fault
            or not self.config.use_observed_reliability
            or self.reliability_source is None
        ):
            return None
        source = self.reliability_source
        hosts = ctx.hosts
        cache = self._rel_cache
        if cache is None or cache[0] is not source or cache[1] is not hosts:
            source.drain_moved()
            row_of = {h.host_id: i for i, h in enumerate(hosts)}
            vec = np.array([source.score(h.host_id) for h in hosts], dtype=float)
            self._rel_cache = (source, hosts, row_of, vec)
            return vec
        _, _, row_of, vec = cache
        moved = [hid for hid in source.drain_moved() if hid in row_of]
        if moved:
            vec = vec.copy()
            for hid in moved:
                vec[row_of[hid]] = source.score(hid)
            self._rel_cache = (source, hosts, row_of, vec)
        return vec

    def _derive_name(self) -> str:
        cfg = self.config
        if cfg.enable_sla or cfg.enable_fault:
            return "SB-full"
        if cfg.allow_migration:
            return "SB"
        if cfg.enable_conc:
            return "SB2"
        if cfg.enable_virt:
            return "SB1"
        return "SB0"

    # -------------------------------------------------------------- building

    def _builder(
        self,
        ctx: SchedulingContext,
        columns: List[Vm],
        fulfills: Optional[Dict[int, float]],
    ) -> PersistentScoreMatrix:
        """The round's matrix: the long-lived one rebound, or a one-shot.

        The hill climber's matrix survives across rounds and rescores only
        dirty rows/changed columns.  SA and tabu mutate their matrix
        destructively and get a one-shot per round.  When the context
        carries a guard (the engine's strict invariants), every bind of the
        long-lived matrix is verified against a one-shot rebuild through
        it; the repair forces a full rebuild and binds again.
        """
        reliability = self._reliability_vector(ctx)
        if self.solver != "hill_climb":
            return ScoreMatrixBuilder(
                hosts=ctx.hosts,
                columns=columns,
                now=ctx.now,
                config=self.config,
                fulfillments=fulfills,
                reliability=reliability,
            )
        matrix = self._long_lived_matrix(ctx)
        args = (columns, ctx.now, fulfills, reliability)
        matrix.bind_round(*args)
        if ctx.guard is not None:

            def rebind() -> None:
                matrix.force_full_rebuild()
                matrix.bind_round(*args)

            ctx.guard(
                "persistent matrix bind",
                partial(matrix.verify_against_fresh, *args),
                rebind,
            )
        return matrix

    def invariant_checks(self, hosts: Sequence[Host]) -> List[Oracle]:
        """The long-lived matrix's cells, if it serves ``hosts``."""
        matrix = self._matrix
        if matrix is None or not matrix.matches(hosts):
            return []
        return [("persistent matrix cells", matrix.verify_cells, matrix.force_full_rebuild)]

    def rescore_stats(self) -> Dict[str, float]:
        """The long-lived matrix's counters; none for SA and tabu."""
        return self._matrix.stats() if self._matrix is not None else {}

    # -------------------------------------------------------------- deciding

    def _columns(self, ctx: SchedulingContext, *, include_running: bool = True) -> List[Vm]:
        # Filter on *current* state, not the context snapshot's view: the
        # power manager re-uses the round's context after placements have
        # been applied, so a VM listed as queued may already be CREATING.
        cols: List[Vm] = [vm for vm in ctx.queued if vm.state is VmState.QUEUED]
        if self.config.allow_migration and include_running:
            cols.extend(vm for vm in ctx.placed if vm.state is VmState.RUNNING)
        return cols

    def _consolidation_due(self, ctx: SchedulingContext) -> bool:
        """Whether this round may consider migrations.

        Migration churn is throttled to one consolidation pass per
        ``consolidation_period_s`` — the paper's "periodically calculates
        whether to move jobs".  Rounds with SLA-violating VMs always
        consolidate (dynamic enforcement must be able to relocate them).
        """
        if not self.config.allow_migration:
            return False
        if ctx.now >= self._next_consolidation:
            return True
        if self.config.enable_sla:
            return ctx.sla.running_violation(ctx.now)
        return False

    def decide(self, ctx: SchedulingContext) -> List[Action]:
        consolidate = self._consolidation_due(ctx)
        if consolidate and self.config.allow_migration:
            self._next_consolidation = ctx.now + self.config.consolidation_period_s
        columns = self._columns(ctx, include_running=consolidate)
        if not columns:
            return []
        fulfills: Optional[Dict[int, float]] = None
        if self.config.enable_sla:
            fulfills = ctx.sla.fulfillments(columns, ctx.now)
        builder = self._builder(ctx, columns, fulfills)
        if self.solver == "hill_climb":
            controller = self.budget_controller
            if controller is not None:
                budget, deadline_s = controller.begin_round(ctx.now)
                result = anytime_hill_climb(
                    builder, budget=budget, deadline_s=deadline_s
                )
                controller.end_round(ctx.now, result)
                moves = result.moves
            else:
                moves = hill_climb(builder)
        else:
            from repro.scheduling.score.metaheuristics import solve

            moves = solve(self.solver, builder, seed=self.solver_seed)
        actions: List[Action] = []
        for move in moves:
            if move.from_queue:
                actions.append(Place(vm_id=move.vm_id, host_id=move.host_id))
            else:
                actions.append(Migrate(vm_id=move.vm_id, dst_host_id=move.host_id))
        return actions

    # ------------------------------------------------------------- shutdown

    def host_shutdown_ranking(
        self, ctx: SchedulingContext, candidates: List[Host]
    ) -> List[Host]:
        """Rank idle hosts by aggregated matrix-row score, worst first."""
        if not candidates:
            return []
        columns = self._columns(ctx)
        if not columns:
            # Nothing schedulable: fall back to static preference
            # (slowest class first — their creations cost the most).
            return sorted(
                candidates, key=lambda h: (-h.spec.creation_s, -h.host_id)
            )
        fulfills: Optional[Dict[int, float]] = None
        if self.config.enable_sla:
            fulfills = ctx.sla.fulfillments(columns, ctx.now)
        builder = self._builder(ctx, columns, fulfills)
        row_of = builder.host_index
        return sorted(
            candidates,
            key=lambda h: (-builder.host_row_score(row_of[h.host_id]), -h.host_id),
        )
