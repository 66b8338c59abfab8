"""Live control-plane service mode.

The batch engine answers "what happened over a week?"; this package
answers placement requests *now*, within a latency budget, while keeping
the DES engine as the single source of truth for cluster state — and
deterministic replay of the decision journal as the correctness oracle.

Layers (bottom up):

* :mod:`repro.service.core` — :class:`PlacementCore`, the per-round
  budget/deadline hand-off between the service and the score policy's
  anytime hill climb (the policy's ``budget_controller``), and the
  round watermark and reports the journal is written from;
* :mod:`repro.service.journal` — :class:`DecisionJournal`, the
  crash-consistent JSONL decision log (write-ahead, index-deduplicated
  appends, torn-tail recovery);
* :mod:`repro.service.engine` — :class:`ServiceEngine`, the synchronous
  admit/settle/drain core shared bit-for-bit by live serving, journal
  replay, and post-crash catch-up (one journal re-application method
  serves the last two);
* :mod:`repro.service.controlplane` — the asyncio front end (bounded
  admission queue, shedding, graceful drain) plus the synthetic soak
  driver;
* :mod:`repro.service.replay` — the replay harness and the
  resume-from-journal-tail recovery path.
"""

from repro.service.controlplane import (
    ControlPlane,
    PlacementRequest,
    ServiceConfig,
    ShedError,
    serve_synthetic,
)
from repro.service.core import PlacementCore
from repro.service.engine import ServiceCursor, ServiceEngine
from repro.service.journal import DecisionJournal
from repro.service.replay import replay_journal, resume_service

__all__ = [
    "ControlPlane",
    "DecisionJournal",
    "PlacementCore",
    "PlacementRequest",
    "ServiceConfig",
    "ServiceCursor",
    "ServiceEngine",
    "ShedError",
    "replay_journal",
    "resume_service",
    "serve_synthetic",
]
