"""The paper's score-based scheduling policy (§III).

The policy maps every tentative ⟨host, VM⟩ allocation to a score — the sum
of seven penalty families — in an (M+1)×N matrix whose extra row is the
*virtual host* holding queued VMs at prohibitive cost.  A hill-climbing
pass then repeatedly applies the most beneficial move until no negative
(improving) cell remains.

* :mod:`repro.scheduling.score.config` — :class:`ScoreConfig` with the
  SB0/SB1/SB2/SB presets evaluated in §V;
* :mod:`repro.scheduling.score.penalties` — scalar reference
  implementations of each penalty (the readable spec, property-tested
  against the vectorized matrix);
* :mod:`repro.scheduling.score.persistent` — :class:`PersistentScoreMatrix`,
  the one score kernel: the vectorized numpy matrix with incremental row
  updates, rebindable across rounds, owning its static host arrays and
  its VM slot space;
* :mod:`repro.scheduling.score.matrix` — :class:`ScoreMatrixBuilder`, a
  one-shot matrix bound to a single round;
* :mod:`repro.scheduling.score.solver` — :func:`hill_climb`, Algorithm 1;
* :mod:`repro.scheduling.score.policy` — :class:`ScoreBasedPolicy` tying
  it all into the :class:`~repro.scheduling.base.SchedulingPolicy`
  interface.
"""

from repro.scheduling.score.config import ScoreConfig
from repro.scheduling.score.matrix import ScoreMatrixBuilder
from repro.scheduling.score.solver import (
    AnytimeResult,
    Move,
    anytime_hill_climb,
    hill_climb,
)
from repro.scheduling.score.policy import ScoreBasedPolicy
from repro.scheduling.score.explain import (
    CellExplanation,
    DecisionExplanation,
    explain_cell,
    explain_decision,
)

__all__ = [
    "ScoreConfig",
    "ScoreMatrixBuilder",
    "hill_climb",
    "anytime_hill_climb",
    "AnytimeResult",
    "Move",
    "ScoreBasedPolicy",
    "CellExplanation",
    "DecisionExplanation",
    "explain_cell",
    "explain_decision",
]
