"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main, make_policy
from repro.errors import StateError
from repro.scheduling.baselines import BackfillingPolicy, RandomPolicy, RoundRobinPolicy
from repro.scheduling.dynamic_backfilling import DynamicBackfillingPolicy
from repro.scheduling.score.policy import ScoreBasedPolicy


class TestMakePolicy:
    @pytest.mark.parametrize("name,cls", [
        ("rd", RandomPolicy),
        ("rr", RoundRobinPolicy),
        ("bf", BackfillingPolicy),
        ("dbf", DynamicBackfillingPolicy),
        ("sb0", ScoreBasedPolicy),
        ("sb", ScoreBasedPolicy),
        ("sb-full", ScoreBasedPolicy),
    ])
    def test_known_policies(self, name, cls):
        assert isinstance(make_policy(name), cls)

    def test_sb_variants_configured(self):
        assert make_policy("sb0").config.allow_migration is False
        assert make_policy("sb").config.allow_migration is True
        assert make_policy("sb-full").config.enable_sla is True

    def test_unknown_policy_exits(self):
        with pytest.raises(SystemExit):
            make_policy("nope")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.policy == "sb"
        assert args.scale == 1.0

    def test_experiment_accepts_known_ids(self):
        args = build_parser().parse_args(["experiment", "table2"])
        assert args.exp_id == "table2"

    def test_experiment_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table99"])


class TestMain:
    def test_simulate_small(self, capsys):
        rc = main([
            "simulate", "--policy", "bf", "--scale", "0.01",
            "--hosts", "20", "--seed", "3",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Pwr (kWh)" in out
        assert "completed" in out

    def test_trace_stats(self, capsys):
        rc = main(["trace", "--scale", "0.02", "--seed", "3"])
        assert rc == 0
        assert "jobs" in capsys.readouterr().out

    def test_trace_writes_swf(self, tmp_path, capsys):
        out_file = tmp_path / "week.swf"
        rc = main(["trace", "--scale", "0.02", "--seed", "3",
                   "--output", str(out_file)])
        assert rc == 0
        assert out_file.exists()
        from repro.workload import read_swf
        assert len(read_swf(out_file)) > 0

    def test_experiment_table1(self, capsys):
        rc = main(["experiment", "table1", "--scale", "0.2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "layout independence" in out

    def test_validate(self, capsys):
        rc = main(["validate"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Wh" in out


class TestArgumentErrors:
    """An invalid argument value is a one-line usage error, exit 2."""

    def test_serve_negative_round_budget(self, tmp_path, capsys):
        rc = main([
            "serve", "--journal", str(tmp_path / "j.jsonl"),
            "--round-budget", "-1",
        ])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == (
            "repro serve: error: round budget must be >= 0, got -1\n"
        )

    def test_simulate_chaos_out_of_range(self, capsys):
        rc = main(["simulate", "--scale", "0.01", "--chaos", "2.0"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == (
            "repro simulate: error: FaultConfig.creation_failure_p must be "
            "in [0, 1], got 2.0\n"
        )

    def test_state_error_during_a_run_propagates(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_text("garbage\n")
        with pytest.raises(StateError, match="not a snapshot file"):
            main(["simulate", "--scale", "0.01", "--restore", str(bad)])


class TestNewCliFeatures:
    def test_simulate_jobs_csv(self, tmp_path, capsys):
        out_file = tmp_path / "jobs.csv"
        rc = main([
            "simulate", "--policy", "bf", "--scale", "0.01",
            "--hosts", "20", "--seed", "3", "--jobs-csv", str(out_file),
        ])
        assert rc == 0
        assert out_file.exists()
        assert "late fraction" in capsys.readouterr().out

    def test_trace_analyze(self, capsys):
        rc = main(["trace", "--scale", "0.05", "--seed", "3", "--analyze"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "offered demand" in out
        assert "widths" in out

    def test_simulate_with_sa_solver(self, capsys):
        rc = main([
            "simulate", "--policy", "sb", "--solver", "sa",
            "--scale", "0.01", "--hosts", "10", "--seed", "3",
        ])
        assert rc == 0

    def test_heuristic_policy_via_cli(self, capsys):
        rc = main([
            "simulate", "--policy", "min-min", "--scale", "0.01",
            "--hosts", "10", "--seed", "3",
        ])
        assert rc == 0
