"""Per-layer span ledger, recorded from outside the program.

The benchmark does not edit the code it measures.  Instead it wraps the
entry point of each layer -- a method on a class, or a function in a
module namespace -- with a timer, *at class level*, before any engine is
built.  Class-level wrapping keeps engine snapshots picklable: a bound
method pickles as ``getattr(obj, name)``, and ``functools.wraps`` keeps
the name.

Each wrapped call is a span.  Spans nest on a stack (the program is
single-threaded on every wrapped path), so a layer's *self* time is its
span's duration minus the part covered by child spans, and the self times
of all layers plus the untraced remainder add up to the wall clock of the
measured region.  Spans are aggregated in memory as they close -- per
layer: self seconds and call count, and per caller/callee edge: call
count -- and written out once, when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

__all__ = ["LAYERS", "LAYER_NAMES", "Ledger"]

#: (layer, module, attribute path) of every wrapped entry point.  An
#: attribute path ``"Class.method"`` wraps a method on the class; a bare
#: name wraps a function in the module namespace it is called from.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    # DES kernel: heap pops inside the loop, heap pushes from handlers.
    ("des", "repro.des.simulator", "Simulator.run"),
    ("des", "repro.des.simulator", "Simulator.at"),
    ("des", "repro.des.simulator", "Simulator.at_many"),
    # Job admission: batch arrivals and the service's admit path.
    ("admit", "repro.engine.datacenter", "DatacenterSimulation._on_job_arrival"),
    ("admit", "repro.engine.datacenter", "DatacenterSimulation._on_stream_arrival"),
    ("admit", "repro.service.engine", "ServiceEngine.admit"),
    # Every other engine event handler.
    ("events", "repro.engine.datacenter", "DatacenterSimulation._on_completion"),
    ("events", "repro.engine.datacenter", "DatacenterSimulation._on_creation_done"),
    ("events", "repro.engine.datacenter", "DatacenterSimulation._on_creation_failed"),
    ("events", "repro.engine.datacenter", "DatacenterSimulation._on_migration_done"),
    ("events", "repro.engine.datacenter", "DatacenterSimulation._on_migration_aborted"),
    ("events", "repro.engine.datacenter", "DatacenterSimulation._on_boot_done"),
    ("events", "repro.engine.datacenter", "DatacenterSimulation._on_boot_failed"),
    ("events", "repro.engine.datacenter", "DatacenterSimulation._on_requeue"),
    ("events", "repro.engine.datacenter", "DatacenterSimulation._on_quarantine_expired"),
    # Policy round: context + SLA, column collection, matrix bind, hill
    # climb, actuation, power manager.
    ("round", "repro.engine.datacenter", "DatacenterSimulation._round"),
    ("decide", "repro.scheduling.score.policy", "ScoreBasedPolicy.decide"),
    ("bind", "repro.scheduling.score.persistent", "PersistentScoreMatrix.bind_round"),
    ("climb", "repro.scheduling.score.policy", "hill_climb"),
    ("climb", "repro.scheduling.score.policy", "anytime_hill_climb"),
    ("actuate", "repro.engine.actuators", "ActuatorsMixin.apply_action"),
    ("power", "repro.scheduling.power_manager", "PowerManager.control"),
    # Engine refresh: dirty sweep, share solve, completion reschedule,
    # metrics fold.
    ("refresh", "repro.engine.datacenter", "DatacenterSimulation._refresh"),
    ("share_solve", "repro.engine.datacenter", "DatacenterSimulation._solve_shares_batched"),
    ("reschedule", "repro.engine.datacenter",
     "DatacenterSimulation._reschedule_completions_batched"),
    ("metrics_fold", "repro.engine.metrics", "MetricsCollector.refresh_hosts"),
    ("metrics_fold", "repro.engine.metrics", "MetricsCollector.refresh"),
    # Durability: snapshot pickling, the run's record log.
    ("snapshot", "repro.engine.snapshot", "EngineSnapshotter.write"),
    ("journal", "repro.engine.tracing", "EventTrace.emit"),
    ("journal", "repro.engine.tracing", "EventTrace.write_jsonl"),
    ("journal", "repro.service.journal", "DecisionJournal._write"),
)

#: Layer names in report order.
LAYER_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in LAYERS))


def _patch(module_name: str, path: str, make: Callable[[Callable], Callable]) -> Callable[[], None]:
    """Replace ``module.path`` with ``make(original)``; return the undo."""
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    original = owner.__dict__[attr]
    setattr(owner, attr, make(original))
    return lambda: setattr(owner, attr, original)


class Ledger:
    """Aggregated spans per layer: self time, calls, and caller edges.

    Spans accumulate into a pending set; :meth:`keep` folds it into the
    run totals and :meth:`discard` drops it, so the caller decides which
    stretches of the run (episodes, not their set-up) count.
    """

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []
        # Open spans, innermost last: [layer, seconds covered by children].
        self._stack: List[list] = []
        self.total_self_s: Dict[str, float] = defaultdict(float)
        self.total_calls: Dict[str, int] = defaultdict(int)
        self.total_edges: Dict[Tuple[str, str], int] = defaultdict(int)
        self.discard()

    def discard(self) -> None:
        """Drop the pending spans."""
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.edges: Dict[Tuple[str, str], int] = defaultdict(int)

    def keep(self, scale: float = 1.0) -> None:
        """Fold the pending spans into the totals, times scaled by ``scale``."""
        for key, value in self.self_s.items():
            self.total_self_s[key] += value * scale
        for mine, total in ((self.calls, self.total_calls), (self.edges, self.total_edges)):
            for key, value in mine.items():
                total[key] += value
        self.discard()

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.self_s[layer] += elapsed - frame[1]
                self.calls[layer] += 1
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    self.edges[(parent[0], layer)] += 1
                else:
                    self.edges[("-", layer)] += 1

        return span

    def install(self, clock) -> None:
        """Wrap every layer, and the clock's reference loop in its own span.

        The reference loop runs inside the DES loop; as a span of its own
        its time is subtracted from the enclosing layer and reported by
        no layer, just as :class:`~clock.RefClock` leaves it out of the
        episode's wall time.
        """
        for layer, module, path in LAYERS:
            self._undo.append(
                _patch(module, path, functools.partial(self._wrap, layer))
            )
        clock.measure_loop = self._wrap("reference", clock.measure_loop)
        self._undo.append(lambda: vars(clock).pop("measure_loop"))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def table(self, wall_s: float) -> str:
        """Total self time per layer with its share of ``wall_s``, plus edges."""
        lines = [f"{'layer':<14}{'self_s':>10}{'share':>8}{'calls':>10}"]
        traced = 0.0
        for layer in LAYER_NAMES:
            s = self.total_self_s.get(layer, 0.0)
            traced += s
            lines.append(
                f"{layer:<14}{s:>10.4f}{s / wall_s:>8.1%}"
                f"{self.total_calls.get(layer, 0):>10}"
            )
        rest = wall_s - traced
        lines.append(f"{'untraced':<14}{rest:>10.4f}{rest / wall_s:>8.1%}")
        lines.append("caller -> callee: calls")
        for (parent, child), n in sorted(self.total_edges.items()):
            lines.append(f"  {parent} -> {child}: {n}")
        return "\n".join(lines)
