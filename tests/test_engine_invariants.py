"""Engine strict-invariant guard rails.

PR 2 made the engine's steady state O(dirty hosts) by maintaining host
occupancy and node metrics incrementally, with from-scratch oracles
(`Host.verify_aggregates`, `MetricsCollector.verify_against_scan`) to
prove the deltas exact.  Strict-invariant mode runs those oracles on a
simulated-time cadence *during* production runs, so silent drift is
caught (raise mode) or repaired and counted (resync mode) instead of
corrupting published rows.  The mode must itself be semantics-free:
enabling it may not change a single result field.
"""

import os
import pickle
import shutil
import tempfile
import weakref
from functools import partial

import pytest

from repro.cluster.spec import ClusterSpec
from repro.cluster.vm import VmState
from repro.engine.config import EngineConfig
from repro.engine.datacenter import DatacenterSimulation
from repro.errors import ConfigurationError, StateError
from repro.scheduling.baselines import BackfillingPolicy
from repro.workload.synthetic import Grid5000WeekGenerator, SyntheticConfig

#: Fields that must be unaffected by enabling the guard rails.
ROW_FIELDS = (
    "energy_kwh", "cpu_hours", "migrations", "n_completed", "n_failed",
    "satisfaction", "delay_pct", "avg_working", "avg_online", "sim_events",
    "horizon_s",
)


def _engine(config: EngineConfig) -> DatacenterSimulation:
    trace = Grid5000WeekGenerator(
        SyntheticConfig(horizon_s=6 * 3600.0), seed=7
    ).generate()
    return DatacenterSimulation(
        ClusterSpec.homogeneous(8), BackfillingPolicy(), trace.fresh(),
        config=config,
    )


def _desync_host(engine: DatacenterSimulation):
    """Corrupt one host's cached CPU sum behind the oracle's back."""
    host = next(h for h in engine.hosts if h._vm_sums_valid)
    host._vm_cpu_sum += 7.0
    return host


class TestConfig:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(invariant_mode="panic")
        with pytest.raises(ConfigurationError):
            EngineConfig(invariant_interval_s=0.0)

    def test_env_variable_force_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_STRICT_INVARIANTS", "resync")
        engine = _engine(EngineConfig(seed=3))
        assert engine.config.strict_invariants
        assert engine.config.invariant_mode == "resync"

    def test_env_variable_does_not_override_explicit_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_STRICT_INVARIANTS", "raise")
        engine = _engine(
            EngineConfig(seed=3, strict_invariants=True, invariant_mode="resync")
        )
        assert engine.config.invariant_mode == "resync"

    def test_env_variable_other_value_keeps_config_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_STRICT_INVARIANTS", "1")
        engine = _engine(EngineConfig(seed=3, invariant_mode="resync"))
        assert engine.config.strict_invariants
        assert engine.config.invariant_mode == "resync"


class TestSemanticsFree:
    def test_rows_bit_identical_with_checks_enabled(self, monkeypatch):
        # The baseline must run unchecked even when the environment turns
        # strict mode on for the whole suite.
        monkeypatch.delenv("REPRO_STRICT_INVARIANTS", raising=False)
        baseline = _engine(EngineConfig(seed=3)).run()
        strict = _engine(
            EngineConfig(
                seed=3, strict_invariants=True, invariant_interval_s=600.0
            )
        ).run()
        for name in ROW_FIELDS:
            assert getattr(strict, name) == getattr(baseline, name), name
        assert baseline.invariant_checks == 0
        assert strict.invariant_checks > 0
        assert strict.invariant_resyncs == 0


    @staticmethod
    def _score_run(checkpoint_dir=None, strict=False):
        from repro.scheduling.score import ScoreConfig
        from repro.scheduling.score.policy import ScoreBasedPolicy

        trace = Grid5000WeekGenerator(
            SyntheticConfig(horizon_s=6 * 3600.0), seed=7
        ).generate()
        return DatacenterSimulation(
            ClusterSpec.homogeneous(8), ScoreBasedPolicy(ScoreConfig.sb()),
            trace.fresh(),
            config=EngineConfig(
                seed=3, strict_invariants=strict, invariant_interval_s=600.0,
                checkpoint_dir=str(checkpoint_dir) if checkpoint_dir else None,
                checkpoint_sim_interval_s=3600.0 if checkpoint_dir else None,
            ),
        )

    @pytest.mark.parametrize(
        "written,resumed", [(False, True), (True, False)],
        ids=["plain-resumed-strict", "strict-resumed-plain"],
    )
    def test_snapshot_resumes_across_the_strict_switch(
        self, tmp_path, monkeypatch, written, resumed
    ):
        """Strict checking is no part of a run's identity: a snapshot
        written with it off resumes with it on, and the other way round,
        to the plain uninterrupted run's row."""
        monkeypatch.delenv("REPRO_STRICT_INVARIANTS", raising=False)
        baseline = self._score_run().run()
        writer = self._score_run(tmp_path, strict=written)
        writer.start()
        writer.sim.run(until=3 * 3600.0)
        writer._snapshotter.flush()
        restored = self._score_run(tmp_path, strict=resumed).try_restore()
        assert restored is not None and restored.sim.now > 0.0
        assert restored.config.strict_invariants is resumed
        checks_before = restored._invariant_checks
        result = restored.run()
        for name in ROW_FIELDS:
            assert getattr(result, name) == getattr(baseline, name), name
        assert result.snapshot_restores == 1
        if resumed:
            assert result.invariant_checks > checks_before
        else:
            assert result.invariant_checks == checks_before

    @pytest.mark.parametrize("mode", ["raise", "resync"])
    def test_env_variable_applies_on_resume(self, tmp_path, monkeypatch, mode):
        """``REPRO_STRICT_INVARIANTS`` switches checking on for a plain
        resume of a plain snapshot, as it does at construction."""
        monkeypatch.delenv("REPRO_STRICT_INVARIANTS", raising=False)
        baseline = self._score_run().run()
        writer = self._score_run(tmp_path)
        writer.start()
        writer.sim.run(until=3 * 3600.0)
        writer._snapshotter.flush()
        monkeypatch.setenv("REPRO_STRICT_INVARIANTS", mode)
        restored = self._score_run(tmp_path).try_restore()
        assert restored is not None and restored.sim.now > 0.0
        assert restored.config.strict_invariants
        assert restored.config.invariant_mode == mode
        checks_before = restored._invariant_checks
        result = restored.run()
        for name in ROW_FIELDS:
            assert getattr(result, name) == getattr(baseline, name), name
        assert result.invariant_checks > checks_before
        assert result.invariant_resyncs == 0


class TestDriftDetection:
    def test_raise_mode_catches_desynced_host(self):
        engine = _engine(
            EngineConfig(
                seed=3, strict_invariants=True, invariant_interval_s=600.0
            )
        )
        engine.start()
        engine.sim.run(until=1800.0)
        _desync_host(engine)
        engine._next_invariant_check = 0.0
        with pytest.raises(StateError, match="aggregate"):
            engine.run()

    def test_resync_mode_repairs_and_counts(self):
        engine = _engine(
            EngineConfig(
                seed=3, strict_invariants=True, invariant_mode="resync",
                invariant_interval_s=600.0,
            )
        )
        engine.start()
        engine.sim.run(until=1800.0)
        host = _desync_host(engine)
        engine._next_invariant_check = 0.0
        with pytest.warns(RuntimeWarning, match="drift resynced"):
            result = engine.run()
        # The counter is surfaced in the run's result row...
        assert result.invariant_resyncs >= 1
        assert result.invariant_checks >= 1
        assert engine.metrics.counters["invariant_resyncs"] >= 1
        # ...and the aggregate really was rebuilt from ground truth.
        assert host.verify_aggregates()

    def test_resync_mode_repairs_metrics_drift(self):
        engine = _engine(
            EngineConfig(
                seed=3, strict_invariants=True, invariant_mode="resync",
                invariant_interval_s=600.0,
            )
        )
        engine.start()
        engine.sim.run(until=1800.0)
        engine.metrics._reserved += 13.0
        engine._next_invariant_check = 0.0
        with pytest.warns(RuntimeWarning, match="metrics aggregate drift"):
            result = engine.run()
        assert result.invariant_resyncs >= 1
        assert engine.metrics.verify_against_scan()

    def test_raise_mode_catches_metrics_drift(self):
        engine = _engine(
            EngineConfig(
                seed=3, strict_invariants=True, invariant_interval_s=600.0
            )
        )
        engine.start()
        engine.sim.run(until=1800.0)
        engine.metrics._working += 1
        engine._next_invariant_check = 0.0
        with pytest.raises(StateError, match="metrics"):
            engine.run()


class TestChaosDeterminismGuard:
    """The chaos plumbing must not move a single chaos-off bit.

    Chaos draws come from a separate seed-derived stream family that a
    chaos-off run never touches, so rows with ``faults=None`` must stay
    bit-identical to the committed macro baselines — and chaos-on runs
    must be a pure function of the chaos seed.
    """

    def _baseline(self):
        import json
        import pathlib

        path = (pathlib.Path(__file__).resolve().parent.parent
                / "benchmarks" / "baselines" / "BENCH_macro_quick.json")
        if not path.exists():
            pytest.skip("no committed macro baseline")
        return json.loads(path.read_text())

    def test_chaos_off_rows_match_committed_baselines(self):
        from benchmarks.macro import DETERMINISM_FIELDS
        from repro.experiments.common import (
            lambda_config, paper_cluster, paper_trace, run_policy,
        )

        baseline = self._baseline()
        result = run_policy(
            BackfillingPolicy(),
            paper_trace(scale=baseline["scale"], seed=baseline["seed"]),
            cluster=paper_cluster(),
            pm_config=lambda_config(),
            engine_config=None,
        )
        expected = baseline["results"]["BF"]
        for field in DETERMINISM_FIELDS:
            assert getattr(result, field) == expected[field], field

    def test_chaos_on_bit_identical_per_chaos_seed(self):
        from repro.cluster.faults import FaultConfig

        def run():
            engine = _engine(EngineConfig(
                seed=3, faults=FaultConfig.uniform(0.08), chaos_seed=17,
            ))
            return engine.run()

        a, b = run(), run()
        for field in ROW_FIELDS + (
            "failed_creations", "aborted_migrations", "boot_failures",
            "quarantines", "lost_cpu_s", "mean_recovery_s",
        ):
            assert getattr(a, field) == getattr(b, field), field
        assert a.reject_reasons == b.reject_reasons


# --------------------------------------------------------------------------
# One guard, five oracles
# --------------------------------------------------------------------------


def _score_engine(mode: str = "raise") -> DatacenterSimulation:
    """SB-full on the small cluster: host, metrics, matrix and SLA state
    all exist.  Periodic sweeps only at t=0 and at the end,
    unless a test re-arms one."""
    from repro.scheduling.score import ScoreConfig
    from repro.scheduling.score.policy import ScoreBasedPolicy

    trace = Grid5000WeekGenerator(
        SyntheticConfig(
            horizon_s=6 * 3600.0, base_rate_per_hour=20.0, night_fraction=1.0
        ),
        seed=7,
    ).generate()
    return DatacenterSimulation(
        ClusterSpec.homogeneous(16), ScoreBasedPolicy(ScoreConfig.full()),
        trace.fresh(),
        config=EngineConfig(
            seed=3, strict_invariants=True, invariant_mode=mode,
            invariant_interval_s=1e9,
        ),
    )


def _corrupt_host(engine):
    _desync_host(engine)
    engine._next_invariant_check = 0.0


def _corrupt_metrics(engine):
    engine.metrics._reserved += 13.0
    engine._next_invariant_check = 0.0


def _corrupt_row_copy(engine):
    # The matrix's own copy of a clean, active host: no dirty mark will
    # re-read it, so only the bind oracle's comparison with the hosts
    # can see the drift.
    matrix = engine.policy._matrix
    row = next(
        i for i in matrix._active
        if engine.hosts[i].host_id not in matrix._sink and i not in matrix._touched
    )
    matrix.res_cpu[row] += 5.0


def _corrupt_host_terms(engine):
    # The kept queued-cell sum of a clean, active host: its cells go wrong
    # only when a queued column is next scored, but the bind oracle
    # compares the vector itself.
    matrix = engine.policy._matrix
    row = next(
        i for i in matrix._active
        if engine.hosts[i].host_id not in matrix._sink and i not in matrix._touched
    )
    matrix._host_terms[row] += 5.0


def _corrupt_row_terms(engine):
    # A kept placed term of a clean, active host: its cells go wrong only
    # when a placed column is next scored on it, but the bind oracle
    # compares every row term itself.
    matrix = engine.policy._matrix
    row = next(
        i for i in matrix._active
        if engine.hosts[i].host_id not in matrix._sink and i not in matrix._touched
    )
    matrix._placed_hi[row] += 5.0


def _corrupt_matrix(engine):
    engine.policy._matrix.scores += 1.0


def _corrupt_cells(engine):
    _corrupt_matrix(engine)
    engine._next_invariant_check = 0.0


def _orphan_completion(engine):
    """A second live completion event for a running VM, far in the future,
    that no handle holds: the sweep can neither re-key nor cancel it."""
    vm = next(
        vm for h in engine.hosts for vm in h.vms.values()
        if vm.state is VmState.RUNNING and vm.share > 0
    )
    engine.sim.at(
        engine.sim.now + 1e7, partial(engine._on_completion, vm),
        label=f"complete:{vm.vm_id}",
    )
    return vm


def _corrupt_completions(engine):
    _orphan_completion(engine)
    engine._next_invariant_check = 0.0


def _corrupt_sla(engine):
    # A phantom VM in the fulfilment index: only the full scan sees it.
    engine.sla_monitor._fixed[-1] = 1.0


def _corrupt_archive(engine):
    # Archive the VMs retired so far, as a snapshot does, then change one
    # behind the cache's back: only a re-pickle sees it.
    pickle.dumps(engine, protocol=pickle.HIGHEST_PROTOCOL)
    engine._archived[0][0].work_done += 1.0
    engine._next_invariant_check = 0.0


def _corrupt_chunk_log(engine):
    # Write the chunks to a chunk log, as a snapshot does, then flip a bit
    # of the log: only reading the log back sees it.
    from repro.engine.snapshot import read_header, write_snapshot

    directory = tempfile.mkdtemp(prefix="chunk-log-")
    weakref.finalize(engine, shutil.rmtree, directory, True)
    path, _ = write_snapshot(engine, directory, index=1)
    log = path.parent / read_header(path)["log"]
    raw = bytearray(log.read_bytes())
    raw[len(raw) // 2] ^= 0x04
    log.write_bytes(bytes(raw))
    engine._next_invariant_check = 0.0


#: (test id, guard label, what the oracle's message names first,
#: corruption).  Each corruption is seen first by its own oracle: the
#: four sweep oracles at the next refresh, the SLA index at the next SLA
#: check, the bind-time matrix at the next bind.
DRIFTS = [
    ("host aggregate", "host aggregate", "", _corrupt_host),
    ("metrics aggregate", "metrics aggregate", "", _corrupt_metrics),
    ("completion events", "completion events", "complete:", _corrupt_completions),
    ("persistent matrix cells", "persistent matrix cells", "", _corrupt_cells),
    ("SLA index", "SLA index", "", _corrupt_sla),
    ("persistent matrix bind", "persistent matrix bind", "", _corrupt_matrix),
    ("matrix row copy", "persistent matrix bind",
     "persistent matrix drift: res_cpu", _corrupt_row_copy),
    ("matrix host terms", "persistent matrix bind",
     "persistent matrix drift: _host_terms", _corrupt_host_terms),
    ("matrix row terms", "persistent matrix bind",
     "persistent matrix drift: _placed_hi", _corrupt_row_terms),
    ("retired archive", "retired archive", "chunk 0 of 1", _corrupt_archive),
    ("chunk log", "retired archive", r"logged chunk \d+ of \d+: .* reads crc32",
     _corrupt_chunk_log),
]


class TestOneGuard:
    @pytest.mark.parametrize("mode", ["raise", "resync"])
    @pytest.mark.parametrize(
        "label,names,corrupt", [d[1:] for d in DRIFTS], ids=[d[0] for d in DRIFTS]
    )
    def test_drift_is_caught_by_its_oracle(self, label, names, corrupt, mode):
        engine = _score_engine(mode)
        engine.start()
        engine.sim.run(until=3 * 3600.0)
        corrupt(engine)
        if mode == "raise":
            with pytest.raises(StateError, match=f"^{label} drift: {names}"):
                engine.run()
            return
        with pytest.warns(RuntimeWarning, match=f"{label} drift resynced: {names}"):
            result = engine.run()
        assert result.invariant_resyncs == 1
        assert engine.metrics.counters["invariant_resyncs"] == 1
        assert result.n_completed + result.n_failed == result.n_jobs

    def test_config_switch_verifies_every_bind(self, monkeypatch):
        """``strict_invariants=True`` alone, no environment variable."""
        from repro.scheduling.score.persistent import PersistentScoreMatrix

        monkeypatch.delenv("REPRO_STRICT_INVARIANTS", raising=False)
        calls = []
        verify = PersistentScoreMatrix.verify_against_fresh

        def counted(self, *args, **kwargs):
            calls.append(1)
            return verify(self, *args, **kwargs)

        monkeypatch.setattr(PersistentScoreMatrix, "verify_against_fresh", counted)
        result = _score_engine().run()
        assert len(calls) == result.rescore_stats["binds"] > 0

    def test_no_guard_without_strict_mode(self, monkeypatch):
        monkeypatch.delenv("REPRO_STRICT_INVARIANTS", raising=False)
        engine = _engine(EngineConfig(seed=3))
        assert engine._context().guard is None

    @pytest.mark.parametrize("drift", ["orphan", "lost", "moved", "idle"])
    def test_completion_oracle_names_the_event(self, drift):
        """Each way a completion event can go wrong: a second live event
        (``orphan``), none (``lost``), one at the wrong time (``moved``),
        or a live one for a VM that is not running with a share
        (``idle``)."""
        engine = _score_engine()
        engine.start()
        engine.sim.run(until=3 * 3600.0)
        now = engine.sim.now
        engine._verify_completion_events(now)
        vm = next(
            vm for h in engine.hosts for vm in h.vms.values()
            if vm.state is VmState.RUNNING and vm.share > 0
        )
        handle = engine._completion_handles[vm.vm_id]
        label = f"complete:{vm.vm_id}"
        if drift == "orphan":
            _orphan_completion(engine)
            match = f"{label}: running vm has 2 live"
        elif drift == "lost":
            handle.cancel()
            match = f"{label}: running vm has 0 live completion events"
        elif drift == "moved":
            handle.cancel()
            engine._completion_handles[vm.vm_id] = engine.sim.at(
                handle.time * (1 + 1e-6), lambda: None, label=label
            )
            match = f"{label}: fires at"
        else:
            vm.share = 0.0
            match = f"{label}: live completion event of a vm that is not running"
        with pytest.raises(StateError, match=f"^{match}"):
            engine._verify_completion_events(now)
        engine._resync_completion_events(now)
        if drift == "idle":
            assert vm.vm_id not in engine._completion_handles
        engine._verify_completion_events(now)

    @pytest.mark.parametrize("total", ["online", "working", "reserved"])
    def test_metrics_oracle_raises_naming_the_total(self, total):
        """A StateError, not an ``assert`` that ``python -O`` strips."""
        engine = _engine(EngineConfig(seed=3))
        engine.start()
        engine.sim.run(until=1800.0)
        assert engine.metrics.verify_against_scan()
        setattr(engine.metrics, f"_{total}", getattr(engine.metrics, f"_{total}") + 1)
        with pytest.raises(StateError, match=f"^{total} total"):
            engine.metrics.verify_against_scan()
