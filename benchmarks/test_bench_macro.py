"""Benchmark + tests for the macro wall-clock regression gate.

``benchmarks/macro.py`` is the CI-facing entry point; here we benchmark
one quick-scale run through the same ``run_macro`` path and unit-test the
regression gate's decision logic (performance ratio, determinism fields,
schema guard) against synthetic reports, so gate bugs surface in the
normal suite rather than as mysterious CI verdicts.
"""

import json

import pytest

from benchmarks.conftest import SCALE, run_once
from benchmarks.macro import (
    DETERMINISM_FIELDS,
    QUICK_SCALE,
    REPEATS,
    SCHEMA,
    check_regression,
    main,
    run_macro,
)
from repro.experiments.common import DEFAULT_SEED


class TestBenchMacro:
    def test_macro_quick(self, benchmark):
        from repro.engine.datacenter import DatacenterSimulation

        before = DatacenterSimulation.__dict__["_round"]
        report = run_once(
            benchmark, run_macro, SCALE, DEFAULT_SEED, ["SB", "BF"],
        )
        # The reference clock is off the engine's round again.
        assert DatacenterSimulation.__dict__["_round"] is before
        assert set(report["results"]) == {"SB", "BF"}
        assert report["repeats"] == REPEATS
        for row in report["results"].values():
            assert row["ref_s"] > 0
            assert row["wall_clock_s"] > 0
            assert row["sim_events"] > 0
            assert row["n_completed"] > 0

    def test_a_nondeterministic_repeat_fails(self, monkeypatch):
        import dataclasses

        import repro.experiments.common as common

        real = common.run_policy
        calls = []

        def drifting(*args, **kwargs):
            res = real(*args, **kwargs)
            calls.append(res)
            if len(calls) == REPEATS:
                res = dataclasses.replace(res, energy_kwh=res.energy_kwh + 1e-9)
            return res

        monkeypatch.setattr(common, "run_policy", drifting)
        with pytest.raises(RuntimeError, match="nondeterministic"):
            run_macro(0.01, DEFAULT_SEED, ["BF"])


def _report(ref_s=1.0, energy=5.0, scale=QUICK_SCALE, seed=DEFAULT_SEED):
    return {
        "schema": SCHEMA,
        "scale": scale,
        "seed": seed,
        "strict_invariants": False,
        "repeats": REPEATS,
        "results": {
            "SB": {
                "ref_s": ref_s,
                "wall_clock_s": ref_s,
                "energy_kwh": energy,
                "cpu_hours": 10.0,
                "migrations": 3,
                "n_completed": 50,
                "sim_events": 800,
            }
        },
    }


class TestRegressionGate:
    @pytest.mark.parametrize("tolerance", [0.10, 0.25, 0.50])
    def test_band_edge(self, tolerance):
        """A run 1 % past the band fails, 1 % inside it passes."""
        edge = 0.2 * (1.0 + tolerance)
        base = _report(0.2)
        failures = check_regression(_report(edge * 1.01), base, tolerance)
        assert len(failures) == 1 and "regressed" in failures[0]
        assert check_regression(_report(edge * 0.99), base, tolerance) == []

    def test_determinism_drift_fails_at_same_setup(self):
        failures = check_regression(
            _report(1.0, energy=5.0 + 1e-12), _report(1.0, energy=5.0), 0.25
        )
        assert any("energy_kwh" in f and "determinism" in f for f in failures)

    def test_determinism_not_compared_across_scales(self):
        new = _report(1.0, energy=9.9, scale=1.0)
        base = _report(1.0, energy=5.0, scale=QUICK_SCALE)
        assert check_regression(new, base, 0.25) == []

    def test_missing_policy_fails(self):
        new = _report(1.0)
        del new["results"]["SB"]
        failures = check_regression(new, _report(1.0), 0.25)
        assert failures == ["SB: missing from this run"]

    def test_baseline_of_the_other_mode_is_refused(self):
        strict = _report(1.0)
        strict["strict_invariants"] = True
        failures = check_regression(_report(0.5), strict, 0.25)
        assert len(failures) == 1 and "strict_invariants" in failures[0]

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
        slow["results"]["BF"]["ref_s"] *= 1e6
        slow_path = tmp_path / "slow.json"
        slow_path.write_text(json.dumps(slow))
        assert main(argv[:-1] + [str(out), "--check-against",
                                 str(slow_path)]) == 0
        report = json.loads(out.read_text())
        assert report["schema"] == SCHEMA
        # A poisoned baseline (impossibly fast) must trip the gate.
        poisoned = json.loads(baseline.read_text())
        poisoned["results"]["BF"]["ref_s"] /= 1e6
        bad = tmp_path / "poisoned.json"
        bad.write_text(json.dumps(poisoned))
        assert main(argv[:-1] + [str(out), "--check-against", str(bad)]) == 1

    def test_committed_quick_baseline_is_current_schema(self):
        """Also the strict gate's baseline, which differs from the plain
        one only in its timings: the oracles are semantics-free."""
        with open("benchmarks/baselines/BENCH_macro_quick.json") as f:
            base = json.load(f)
        with open("benchmarks/baselines/BENCH_macro_quick_strict.json") as f:
            strict = json.load(f)
        assert base["schema"] == strict["schema"] == SCHEMA
        assert base["scale"] == strict["scale"] == QUICK_SCALE
        assert base["seed"] == strict["seed"] == DEFAULT_SEED
        assert set(base["results"]) == set(strict["results"]) >= {"SB", "BF"}
        assert (base["strict_invariants"], strict["strict_invariants"]) == (False, True)
        for name, row in base["results"].items():
            assert row["ref_s"] > 0 and strict["results"][name]["ref_s"] > 0
            for field in DETERMINISM_FIELDS:
                assert strict["results"][name][field] == row[field], (name, field)
