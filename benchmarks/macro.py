"""Macro benchmark: whole-simulation run time with a regression gate.

Runs the paper's §V pipeline (synthetic Grid5000 week × 100-node
datacenter) for a set of policies at a fraction of the week and writes a
``BENCH_*.json`` report; committed baselines live in
``benchmarks/baselines/``.  Two classes of check:

* **performance** — every run is timed with perfbench's ``RefClock``
  (``perfbench/clock.py``): wall time divided by a fixed reference loop
  measured every 50 ms, so a core whose speed drifts still reads the
  same reference seconds.  A quick-scale run is shorter than one clock
  period, so each policy runs once untimed (caches, lazy imports), then
  :data:`REPEATS` times timed; the median ``ref_s`` over the baseline's
  must stay under ``1 + tolerance``;
* **determinism** — every repeat must reproduce the untimed run's
  outputs (energy, CPU hours, migrations, completions, event count), and
  at the baseline's scale and seed the baseline's, *exactly*: drift
  means a code path changed semantics, which no tolerance excuses.

Usage (CI's quick gates; the strict run has its own timing baseline)::

    PYTHONPATH=src python benchmarks/macro.py --out BENCH_macro.json \
        --check-against benchmarks/baselines/BENCH_macro_quick.json
    PYTHONPATH=src python benchmarks/macro.py --strict-invariants \
        --out BENCH_macro_strict.json \
        --check-against benchmarks/baselines/BENCH_macro_quick_strict.json

After an intentional perf or semantics change, regenerate a baseline
from the median of ≥5 runs written with ``--out`` (EXPERIMENTS.md).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import sys
from typing import Dict, Iterator, List, Optional

SCHEMA = "repro-macro-bench/2"

#: Timed runs per policy, after one untimed warm-up; the report holds
#: their median.
REPEATS = 5

#: Quick scale used by the committed CI baseline (= benchmarks.conftest.SCALE).
QUICK_SCALE = 1.0 / 14.0

#: Result fields that must be bit-identical at equal inputs and seed (also
#: the scale gate's).
DETERMINISM_FIELDS = (
    "energy_kwh",
    "cpu_hours",
    "migrations",
    "n_completed",
    "sim_events",
)


def _policy(name: str):
    from repro.scheduling import BackfillingPolicy
    from repro.scheduling.score import ScoreConfig
    from repro.scheduling.score.policy import ScoreBasedPolicy

    table = {
        "SB": lambda: ScoreBasedPolicy(ScoreConfig.sb()),
        "SB2": lambda: ScoreBasedPolicy(ScoreConfig.sb2()),
        "SB-full": lambda: ScoreBasedPolicy(ScoreConfig.full()),
        "BF": lambda: BackfillingPolicy(),
    }
    try:
        return table[name]()
    except KeyError:
        raise SystemExit(
            f"unknown policy {name!r} (choose from {sorted(table)})"
        ) from None


@contextlib.contextmanager
def ref_clock() -> Iterator:
    """perfbench's ``RefClock``, installed on the engine's round for the
    block.

    ``perfbench/clock.py`` is imported read-only from this checkout, so
    every gate here reads the same reference seconds as the benchmark of
    record.
    """
    saved = list(sys.path)
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"
    ))
    try:
        from clock import RefClock
    finally:
        sys.path[:] = saved
    clock = RefClock()
    clock.install()
    try:
        yield clock
    finally:
        clock.uninstall()


def run_macro(
    scale: float,
    seed: int,
    policies: List[str],
    strict_invariants: bool = False,
) -> Dict:
    """Run the benchmark and return the report dict (see module docs).

    ``strict_invariants=True`` runs the engine with the incremental-state
    oracles enabled (``raise`` mode).  The checks piggyback on regular
    events, so every determinism field — including ``sim_events`` — must
    equal a plain run's; CI uses this to prove the guard rails are
    semantics-free.  The oracles cost run time, so such a report is
    gated against a baseline timed the same way.
    """
    from repro.engine.config import EngineConfig
    from repro.experiments.common import (
        DEFAULT_SEED,
        lambda_config,
        paper_cluster,
        paper_trace,
        run_policy,
    )

    # run_policy's engine seed has always been the paper default (the
    # sweep seed only shapes the trace); keep that exactly.
    engine_config = (
        EngineConfig(seed=DEFAULT_SEED, strict_invariants=True)
        if strict_invariants
        else None
    )
    results: Dict[str, Dict] = {}
    with ref_clock() as clock:
        for name in policies:
            first: Optional[Dict] = None
            ref_s: List[float] = []
            wall_s: List[float] = []
            for _ in range(REPEATS + 1):
                trace = paper_trace(scale=scale, seed=seed)
                policy = _policy(name)
                clock.start()
                res = run_policy(
                    policy,
                    trace,
                    cluster=paper_cluster(),
                    pm_config=lambda_config(),
                    engine_config=engine_config,
                )
                elapsed = clock.stop()
                fields = {f: getattr(res, f) for f in DETERMINISM_FIELDS}
                if first is None:
                    first = fields  # the untimed warm-up
                    continue
                if fields != first:
                    raise RuntimeError(
                        f"{name}: a repeat's outputs {fields} differ from the "
                        f"first run's {first} (nondeterministic run)"
                    )
                ref_s.append(elapsed)
                wall_s.append(clock.raw_s)
            results[name] = {
                "ref_s": statistics.median(ref_s),
                "wall_clock_s": statistics.median(wall_s),
                **first,
            }
    return {
        "schema": SCHEMA,
        "scale": scale,
        "seed": seed,
        "strict_invariants": strict_invariants,
        "repeats": REPEATS,
        "results": results,
    }


def check_regression(
    report: Dict, baseline: Dict, tolerance: float
) -> List[str]:
    """Compare a fresh report against a baseline; returns failure strings.

    Performance is compared through the median run time in reference
    seconds; determinism fields are compared exactly when (scale, seed)
    match the baseline's.
    """
    failures: List[str] = []
    if baseline.get("schema") != SCHEMA:
        return [f"baseline schema {baseline.get('schema')!r} != {SCHEMA!r}"]
    if baseline.get("strict_invariants") != report["strict_invariants"]:
        return [
            f"baseline was timed with strict_invariants="
            f"{baseline.get('strict_invariants')}, this run with "
            f"{report['strict_invariants']}: the oracles' cost is not "
            f"comparable"
        ]
    same_setup = (
        baseline.get("scale") == report["scale"]
        and baseline.get("seed") == report["seed"]
    )
    for name, base in baseline.get("results", {}).items():
        new = report["results"].get(name)
        if new is None:
            failures.append(f"{name}: missing from this run")
            continue
        ratio = new["ref_s"] / base["ref_s"]
        if ratio > 1.0 + tolerance:
            failures.append(
                f"{name}: run time regressed {ratio:.2f}x "
                f"(new {new['ref_s'] * 1e3:.1f} vs base "
                f"{base['ref_s'] * 1e3:.1f} reference ms, "
                f"tolerance {tolerance:.0%})"
            )
        if same_setup:
            for field in DETERMINISM_FIELDS:
                if new[field] != base[field]:
                    failures.append(
                        f"{name}: {field} drifted: {new[field]!r} != "
                        f"baseline {base[field]!r} (determinism regression)"
                    )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", type=float, default=QUICK_SCALE,
        help="fraction of the paper's week to simulate (default: half a day)",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the paper's)")
    parser.add_argument(
        "--policies", default="SB,BF",
        help="comma-separated policy names (SB, SB2, SB-full, BF)",
    )
    parser.add_argument("--out", default="BENCH_macro.json",
                        help="where to write the JSON report")
    parser.add_argument(
        "--check-against", default=None, metavar="BASELINE",
        help="baseline JSON to gate against (exit 1 on regression)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed run-time regression in reference seconds "
             "(default 0.25)",
    )
    parser.add_argument(
        "--strict-invariants", action="store_true",
        help="run the simulations with the engine's strict-invariant "
             "oracles enabled (raise mode); gate against a baseline timed "
             "the same way, whose determinism fields equal a plain run's",
    )
    args = parser.parse_args(argv)

    from repro.experiments.common import DEFAULT_SEED

    seed = args.seed if args.seed is not None else DEFAULT_SEED
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    report = run_macro(
        args.scale, seed, policies, strict_invariants=args.strict_invariants
    )

    with open(args.out, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    for name, row in report["results"].items():
        print(
            f"{name}: {row['ref_s'] * 1e3:.1f} reference ms "
            f"({row['wall_clock_s'] * 1e3:.1f} ms wall, median of "
            f"{report['repeats']}; {row['sim_events']} events)"
        )
    print(f"wrote {args.out}")

    if args.check_against:
        with open(args.check_against) as f:
            baseline = json.load(f)
        failures = check_regression(report, baseline, args.tolerance)
        if failures:
            for line in failures:
                print(f"REGRESSION: {line}", file=sys.stderr)
            return 1
        print(f"regression gate passed vs {args.check_against}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
