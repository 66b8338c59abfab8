"""Benchmark + tests for the scale gate (``benchmarks/scale.py``).

One tiny sweep point runs through the real ``run_point`` path (the same
code the CI subprocess executes); the gate's decision logic — sweep
parsing, throughput regression, determinism drift and memory flatness —
is unit-tested against synthetic reports so gate bugs surface in the
normal suite rather than as CI verdicts.
"""

import copy

import pytest

from benchmarks.scale import (
    DETERMINISM_FIELDS,
    SCHEMA,
    check_memory_flatness,
    check_regression,
    parse_sweep,
    point_key,
    run_point,
)
from repro.experiments.common import DEFAULT_SEED


class TestRunPoint:
    def test_tiny_point_runs_and_reports(self):
        row = run_point(20, 120, DEFAULT_SEED, "")
        assert row["hosts"] == 20 and row["kind"] == ""
        assert row["n_jobs"] > 0
        assert row["sim_events"] > 0
        assert row["wall_clock_s"] > 0
        assert row["maxrss_kb"] > 0
        for fld in DETERMINISM_FIELDS:
            assert fld in row

    def test_persistent_point_carries_rescore_counters(self):
        row = run_point(20, 120, DEFAULT_SEED, "")
        assert row["rescore_binds"] > 0
        assert row["rescore_full_rebuilds"] == 0
        assert 0 < row["rescore_cells_rescored"] < row["rescore_cells_total"]
        assert row["rescore_savings_x"] > 1.0
        assert any(k.startswith("dirty_") for k in row["rescore_hist"])

    def test_point_is_deterministic_across_reruns(self):
        rows = [run_point(20, 120, DEFAULT_SEED, "") for _ in range(2)]
        for other in rows[1:]:
            for fld in DETERMINISM_FIELDS:
                assert rows[0][fld] == other[fld]


class TestSweepParsing:
    def test_points_and_kind_suffixes(self):
        assert parse_sweep(
            "1000x3400, 10000x100000,1000x3400:service"
        ) == [
            (1000, 3400, ""),
            (10000, 100000, ""),
            (1000, 3400, "service"),
        ]

    def test_bad_kind_rejected(self):
        with pytest.raises(SystemExit):
            parse_sweep("1000x3400:turbo")

    @pytest.mark.parametrize("deleted", ["legacy", "fresh", "scalar-refresh"])
    def test_deleted_kernel_tags_rejected(self, deleted):
        with pytest.raises(SystemExit):
            parse_sweep(f"1000x3400:{deleted}")

    def test_point_key(self):
        assert point_key(1000, 3400, "") == "h1000-j3400"
        assert point_key(1000, 3400, "service") == "h1000-j3400-service"


def _row(hosts=1000, jobs=3400, kind="", norm=20.0, rss=50_000):
    return {
        "hosts": hosts,
        "jobs_target": jobs,
        "kind": kind,
        "n_jobs": jobs,
        "wall_clock_s": 5.0,
        "events_per_s": norm / 0.01,
        "normalized_events_per_s": norm,
        "maxrss_kb": rss,
        "energy_kwh": 5.0,
        "cpu_hours": 10.0,
        "migrations": 3,
        "n_completed": jobs,
        "sim_events": 800,
    }


def _report(rows):
    return {
        "schema": SCHEMA,
        "seed": DEFAULT_SEED,
        "calibration_s": 0.01,
        "results": {
            point_key(r["hosts"], r["jobs_target"], r["kind"]): r
            for r in rows
        },
    }


class TestRegressionGate:
    def test_equal_reports_pass(self):
        rep = _report([_row()])
        assert check_regression(rep, copy.deepcopy(rep), 0.30) == []

    def test_throughput_regression_fails(self):
        new = _report([_row(norm=10.0)])
        base = _report([_row(norm=20.0)])
        failures = check_regression(new, base, 0.30)
        assert any("throughput regressed" in f for f in failures)

    def test_faster_run_passes(self):
        new = _report([_row(norm=40.0)])
        base = _report([_row(norm=20.0)])
        assert check_regression(new, base, 0.30) == []

    def test_determinism_drift_fails_regardless_of_speed(self):
        new = _report([_row(norm=100.0)])
        new["results"]["h1000-j3400"]["energy_kwh"] += 1e-9
        failures = check_regression(new, _report([_row()]), 0.30)
        assert any("energy_kwh drifted" in f for f in failures)

    def test_seed_mismatch_skips_determinism(self):
        new = _report([_row()])
        new["seed"] = 1
        new["results"]["h1000-j3400"]["energy_kwh"] += 1.0
        assert check_regression(new, _report([_row()]), 0.30) == []

    def test_missing_point_fails(self):
        failures = check_regression(_report([]), _report([_row()]), 0.30)
        assert any("missing" in f for f in failures)

    def test_schema_guard(self):
        bad = _report([_row()])
        bad["schema"] = "something-else"
        assert check_regression(_report([_row()]), bad, 0.30)


class TestMemoryFlatness:
    def test_flat_memory_passes(self):
        rep = _report([_row(jobs=3400, rss=50_000),
                       _row(jobs=10300, rss=55_000)])
        assert check_memory_flatness(rep, 0.30) == []

    def test_growing_memory_fails(self):
        rep = _report([_row(jobs=3400, rss=50_000),
                       _row(jobs=10300, rss=90_000)])
        failures = check_memory_flatness(rep, 0.30)
        assert any("memory grew" in f for f in failures)

    def test_different_hosts_not_compared(self):
        rep = _report([_row(hosts=1000, jobs=3400, rss=50_000),
                       _row(hosts=10000, jobs=10300, rss=500_000)])
        assert check_memory_flatness(rep, 0.30) == []

    def test_different_kernels_not_compared(self):
        rep = _report([_row(jobs=3400, rss=50_000),
                       _row(jobs=10300, kind="service", rss=250_000)])
        assert check_memory_flatness(rep, 0.30) == []

    def test_matrix_growth_is_not_a_leak(self):
        rep = _report([
            dict(_row(jobs=3400, rss=150_000), matrix_nbytes=100_000 * 1024.0),
            dict(_row(jobs=10300, rss=450_000), matrix_nbytes=400_000 * 1024.0),
        ])
        assert check_memory_flatness(rep, 0.30) == []

    def test_growth_beyond_the_matrix_still_fails(self):
        rep = _report([
            dict(_row(jobs=3400, rss=150_000), matrix_nbytes=100_000 * 1024.0),
            dict(_row(jobs=10300, rss=450_000), matrix_nbytes=150_000 * 1024.0),
        ])
        failures = check_memory_flatness(rep, 0.30)
        assert any("memory grew" in f for f in failures)

    def test_old_report_rows_without_kind_field(self):
        rep = _report([_row(jobs=3400, rss=50_000),
                       _row(jobs=10300, rss=90_000)])
        for row in rep["results"].values():
            del row["kind"]
        failures = check_memory_flatness(rep, 0.30)
        assert any("memory grew" in f for f in failures)
