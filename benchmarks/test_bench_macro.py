"""Benchmark + tests for the macro wall-clock regression gate.

``benchmarks/macro.py`` is the CI-facing entry point; here we benchmark
one quick-scale run through the same ``run_macro`` path and unit-test the
regression gate's decision logic (performance ratio, determinism fields,
schema guard) against synthetic reports, so gate bugs surface in the
normal suite rather than as mysterious CI verdicts.
"""

import copy
import json

from benchmarks.conftest import SCALE, run_once
from benchmarks.macro import (
    QUICK_SCALE,
    SCHEMA,
    check_regression,
    main,
    run_macro,
)
from repro.experiments.common import DEFAULT_SEED


class TestBenchMacro:
    def test_macro_quick(self, benchmark):
        report = run_once(
            benchmark, run_macro, SCALE, DEFAULT_SEED, ["SB", "BF"],
            calibration_repeats=1,
        )
        assert set(report["results"]) == {"SB", "BF"}
        for row in report["results"].values():
            assert row["wall_clock_s"] > 0
            assert row["sim_events"] > 0
            assert row["n_completed"] > 0


def _report(normalized=100.0, energy=5.0, scale=QUICK_SCALE, seed=DEFAULT_SEED):
    return {
        "schema": SCHEMA,
        "scale": scale,
        "seed": seed,
        "calibration_s": 0.01,
        "results": {
            "SB": {
                "wall_clock_s": normalized * 0.01,
                "normalized": normalized,
                "events_per_s": 1000.0,
                "energy_kwh": energy,
                "cpu_hours": 10.0,
                "migrations": 3,
                "n_completed": 50,
                "sim_events": 800,
            }
        },
    }


class TestRegressionGate:
    def test_within_tolerance_passes(self):
        assert check_regression(_report(110.0), _report(100.0), 0.25) == []

    def test_wall_clock_regression_fails(self):
        failures = check_regression(_report(140.0), _report(100.0), 0.25)
        assert len(failures) == 1
        assert "regressed" in failures[0]

    def test_determinism_drift_fails_at_same_setup(self):
        failures = check_regression(
            _report(100.0, energy=5.0 + 1e-12), _report(100.0, energy=5.0), 0.25
        )
        assert any("energy_kwh" in f and "determinism" in f for f in failures)

    def test_determinism_not_compared_across_scales(self):
        new = _report(100.0, energy=9.9, scale=1.0)
        base = _report(100.0, energy=5.0, scale=QUICK_SCALE)
        assert check_regression(new, base, 0.25) == []

    def test_missing_policy_fails(self):
        new = _report(100.0)
        del new["results"]["SB"]
        failures = check_regression(new, _report(100.0), 0.25)
        assert failures == ["SB: missing from this run"]

    def test_schema_mismatch_fails(self):
        failures = check_regression(_report(), {"schema": "other/9"}, 0.25)
        assert len(failures) == 1 and "schema" in failures[0]

    def test_cli_gate_round_trip(self, tmp_path):
        """End to end at a tiny scale: write a baseline, re-check it.

        Two few-millisecond runs are too short to compare on wall clock,
        so the pass case gates against a copy of the baseline made
        impossibly slow: it still checks every determinism field
        exactly, while only the poisoned copy can trip the timing gate.
        """
        baseline = tmp_path / "base.json"
        out = tmp_path / "new.json"
        argv = ["--scale", "0.01", "--policies", "BF",
                "--out", str(baseline)]
        assert main(argv) == 0
        slow = json.loads(baseline.read_text())
        slow["results"]["BF"]["normalized"] *= 1e6
        slow_path = tmp_path / "slow.json"
        slow_path.write_text(json.dumps(slow))
        assert main(argv[:-1] + [str(out), "--check-against",
                                 str(slow_path)]) == 0
        report = json.loads(out.read_text())
        assert report["schema"] == SCHEMA
        # A poisoned baseline (impossibly fast) must trip the gate.
        poisoned = json.loads(baseline.read_text())
        poisoned["results"]["BF"]["normalized"] /= 1e6
        bad = tmp_path / "poisoned.json"
        bad.write_text(json.dumps(poisoned))
        assert main(argv[:-1] + [str(out), "--check-against", str(bad)]) == 1

    def test_committed_quick_baseline_is_current_schema(self):
        with open("benchmarks/baselines/BENCH_macro_quick.json") as f:
            base = json.load(f)
        assert base["schema"] == SCHEMA
        assert base["scale"] == QUICK_SCALE
        assert base["seed"] == DEFAULT_SEED
        assert set(base["results"]) >= {"SB", "BF"}
