"""Deterministic replay and crash-resume for the control-plane service.

The journal written by a live :class:`~repro.service.engine.ServiceEngine`
is a complete recipe for re-running its decisions:

* :func:`replay_journal` feeds the journaled admissions through a fresh
  live-mode engine — the same code path as serving, with the journaled
  per-round iteration counts imposed as deterministic anytime budgets —
  and must land on a bit-identical
  :meth:`~repro.engine.results.SimulationResult.canonical`.  That is the
  correctness oracle: any drift between what the service answered and
  what the simulator says *would* have happened is a bug, surfaced as a
  canonical-dict diff or a decision mismatch.
* :func:`resume_service` restarts a killed service from its newest
  engine snapshot plus the journal tail, converging the journal to
  exactly the record stream an unkilled process would have produced
  (zero lost, zero duplicated decisions).

Replay invariance note: the service only advances the DES clock inside
``admit``/``drain``, and the engine's metrics fold state on *events*, not
on idle clock reads — so the wall-timing of live submissions is invisible
to the result, and replay needs only the journaled admission times.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.engine.datacenter import DatacenterSimulation
from repro.engine.results import SimulationResult
from repro.engine.tracing import TraceEventKind, read_jsonl
from repro.service.core import PlacementCore
from repro.service.engine import ServiceEngine
from repro.service.journal import DecisionJournal

__all__ = ["ReplayReport", "replay_journal", "resume_service"]

#: Decision keys compared between live and replay.  ``wall_ms`` is
#: deliberately absent: decision latency is operational, like the
#: OPERATIONAL_FIELDS excluded from ``SimulationResult.canonical()``.
_DECISION_KEYS = ("seq", "status", "host_id")


@dataclass
class ReplayReport:
    """Outcome of a journal replay."""

    #: The replayed run's finalized result (compare ``.canonical()``).
    result: SimulationResult
    #: Decision dicts the replay produced, in admission order.
    decisions: List[Dict[str, object]] = field(default_factory=list)
    #: Human-readable live-vs-replay decision disagreements (empty on a
    #: faithful replay).
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def replay_journal(
    path: str,
    engine_factory: Callable[[], DatacenterSimulation],
    *,
    max_retries: int = 3,
    retry_base_s: float = 30.0,
) -> ReplayReport:
    """Re-run a decision journal through a fresh engine, unjournaled.

    ``engine_factory`` must build a live-mode engine (``trace=None``)
    with the *same* cluster, policy, and engine config the service ran —
    and ``max_retries``/``retry_base_s`` must match the service's values
    — or the replayed event sequence legitimately diverges.  Round
    budgets need no matching: the journaled iteration counts override
    whatever live budgets were in force.
    """
    records = read_jsonl(path)
    drains = [r for r in records if r.kind is TraceEventKind.SVC_DRAIN]
    live_decisions = [
        json.loads(r.detail)
        for r in records
        if r.kind is TraceEventKind.SVC_DECISION
    ]

    engine = engine_factory()
    svc = ServiceEngine(
        engine,
        PlacementCore(engine.policy),
        journal=None,
        max_retries=max_retries,
        retry_base_s=retry_base_s,
    )
    # Every journaled round's committed iteration count is imposed — the
    # deterministic stand-in for the live run's wall-clock deadlines.
    decisions = svc.reapply(records)

    if drains:
        # The live run fixed its drain horizon when draining started; an
        # interrupted drain journaled it without finishing.  Imposing the
        # journaled horizon keeps replay aligned even if the replay
        # config's grace window were to differ.
        svc.cursor.draining = True
        svc.cursor.drain_horizon = json.loads(drains[0].detail)["horizon"]
    result = svc.drain()

    mismatches: List[str] = []
    for live, replayed in zip(live_decisions, decisions):
        diffs = {
            key: (live.get(key), replayed.get(key))
            for key in _DECISION_KEYS
            if live.get(key) != replayed.get(key)
        }
        if diffs:
            mismatches.append(
                f"decision seq={live.get('seq')}: live vs replay {diffs}"
            )
    if len(live_decisions) != len(decisions):
        mismatches.append(
            f"decision count: live journaled {len(live_decisions)}, "
            f"replay produced {len(decisions)}"
        )
    return ReplayReport(result=result, decisions=decisions, mismatches=mismatches)


def resume_service(
    engine: DatacenterSimulation,
    journal_path: str,
    *,
    round_budget: Optional[int] = None,
    round_deadline_s: Optional[float] = None,
    max_retries: int = 3,
    retry_base_s: float = 30.0,
) -> ServiceEngine:
    """Rebuild a serving-ready ServiceEngine after a crash or restart.

    ``engine`` is either a snapshot-restored engine (the fast path — see
    :func:`repro.engine.snapshot.resume_from`) or a fresh live-mode
    engine when no snapshot survived (the journal alone is sufficient,
    just slower: every admission re-executes).  The journal is opened in
    recovery mode — torn tail truncated, existing records indexed for
    dedup — and :meth:`~repro.service.engine.ServiceEngine.catch_up`
    re-applies the tail before this returns, so the caller gets a
    service whose state matches the journal exactly and can keep
    admitting (or drain) immediately.
    """
    journal = DecisionJournal(journal_path, recover=True)
    core = PlacementCore(
        engine.policy,
        round_budget=round_budget,
        round_deadline_s=round_deadline_s,
    )
    svc = ServiceEngine(
        engine,
        core,
        journal=journal,
        max_retries=max_retries,
        retry_base_s=retry_base_s,
    )
    svc.catch_up()
    return svc
