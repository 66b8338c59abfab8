"""One-shot score matrices.

:class:`ScoreMatrixBuilder` is a
:class:`~repro.scheduling.score.persistent.PersistentScoreMatrix` bound to
exactly one round, for whatever wants a matrix of its own for one
decision: the SA/tabu solvers (they consume it), tests and
micro-benchmarks.  Its slot space is sized to the round, so slot ``j``
is column ``j`` and ``scores[i, j]`` is host ``i``'s score for column
``j``; its rows are read from the hosts.  Building one registers nothing
on the hosts.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.cluster.host import Host
from repro.cluster.vm import Vm
from repro.scheduling.score.config import ScoreConfig
from repro.scheduling.score.persistent import PersistentScoreMatrix

__all__ = ["ScoreMatrixBuilder"]


class ScoreMatrixBuilder(PersistentScoreMatrix):
    """A score matrix built and bound for one round.

    Parameters
    ----------
    hosts:
        All hosts, id order (rows of the matrix).
    columns:
        The schedulable VMs (matrix columns): queued VMs plus — when the
        config allows migration — running VMs.  VMs with operations in
        flight must not be passed; they are pinned by definition.
    now:
        Current simulation time (drives the migration penalty's T_r).
    config:
        Penalty toggles and cost constants.
    fulfillments:
        Optional vm_id → SLA fulfilment map (required when
        ``config.enable_sla``).
    reliability:
        Optional per-host reliability vector (host order) overriding the
        static spec ``F_rel`` in P_fault — the observed-reliability hook.
    """

    def __init__(
        self,
        hosts: Sequence[Host],
        columns: Sequence[Vm],
        now: float,
        config: ScoreConfig,
        fulfillments: Optional[Dict[int, float]] = None,
        reliability: Optional[Sequence[float]] = None,
    ) -> None:
        super().__init__(hosts, config, capacity=len(columns))
        self.bind_round(columns, now, fulfillments, reliability)
