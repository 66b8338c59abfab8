"""Kill-and-resume bit-identity tests for engine checkpoint/restore.

The subsystem's one hard oracle: a run killed at *any* checkpoint and
resumed from disk must produce a :class:`SimulationResult` and event
trace bit-identical to the uninterrupted run — chaos on or off, power
manager on or off, streaming or materialized workload.  Everything else
here (format guards, retention, graceful signals, the CLI surface) exists
to protect that oracle in production.
"""

import os
import pathlib
import pickle
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import (
    HealthCheck,
    assume,
    example,
    given,
    settings,
    strategies as st,
)

from repro.cluster.faults import FaultConfig
from repro.cluster.spec import ClusterSpec
from repro.engine.config import EngineConfig
from repro.engine.datacenter import DatacenterSimulation
from repro.engine.snapshot import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    config_fingerprint,
    latest_snapshot,
    list_snapshots,
    load_snapshot,
    read_header,
    resume_from,
    write_snapshot,
)
from repro.errors import SimulationInterrupted, StateError
from repro.scheduling.power_manager import PowerManagerConfig
from repro.scheduling.score import ScoreConfig, persistent
from repro.scheduling.score.policy import ScoreBasedPolicy
from repro.units import HOUR
from repro.workload.synthetic import Grid5000WeekGenerator, SyntheticConfig
from tests.test_credit_batched import NoReuseShareMemo

SEED = 37

#: 12 simulated hours hits the diurnal ramp (~114 jobs on 6 hosts) —
#: big enough for migrations, consolidation rounds and chaos to fire,
#: small enough that resuming at every checkpoint index stays cheap.
HORIZON_H = 12.0
RATE = 30.0
INTERVAL = 2 * HOUR


def _workload(streaming: bool):
    cfg = SyntheticConfig(horizon_s=HORIZON_H * HOUR, base_rate_per_hour=RATE)
    gen = Grid5000WeekGenerator(cfg, seed=SEED)
    return gen.stream() if streaming else gen.generate()


def build_engine(
    checkpoint_dir=None,
    *,
    streaming=False,
    chaos=False,
    pm=False,
    trace_events=False,
    keep=100,
    **config_kw,
):
    config = EngineConfig(
        seed=config_kw.pop("seed", SEED),
        faults=FaultConfig.uniform(0.08) if chaos else None,
        chaos_seed=9 if chaos else None,
        trace_events=trace_events,
        checkpoint_dir=str(checkpoint_dir) if checkpoint_dir else None,
        checkpoint_sim_interval_s=INTERVAL if checkpoint_dir else None,
        checkpoint_keep=keep,
        **config_kw,
    )
    return DatacenterSimulation(
        cluster=ClusterSpec.homogeneous(6),
        policy=ScoreBasedPolicy(ScoreConfig.sb()),
        trace=_workload(streaming),
        pm_config=(
            PowerManagerConfig(lambda_min=0.40, lambda_max=0.90) if pm else None
        ),
        config=config,
    )


def trace_sig(engine):
    """The full event trace as comparable tuples (None when disabled)."""
    if engine.trace_log is None:
        return None
    return [
        (r.time, r.kind.value, r.vm_id, r.host_id, r.detail)
        for r in engine.trace_log
    ]


# ------------------------------------------------------------ the oracle


class TestKillResumeBitIdentity:
    @pytest.mark.parametrize("streaming", [False, True],
                             ids=["materialized", "streaming"])
    @pytest.mark.parametrize("pm", [False, True], ids=["pm-off", "pm-on"])
    @pytest.mark.parametrize("chaos", [False, True],
                             ids=["chaos-off", "chaos-on"])
    def test_resume_at_every_checkpoint_index(
        self, tmp_path, chaos, pm, streaming
    ):
        """Resuming from *any* snapshot reproduces the run bit for bit."""
        ref_engine = build_engine(
            tmp_path, streaming=streaming, chaos=chaos, pm=pm,
            trace_events=True,
        )
        ref = ref_engine.run().canonical()
        ref_trace = trace_sig(ref_engine)
        snaps = list_snapshots(ref_engine._snapshotter.directory)
        assert len(snaps) >= 3  # the run is long enough to be worth killing
        for path in snaps:
            resumed = load_snapshot(path)
            # Resume without further checkpointing: writing snapshots is
            # a pure read, so dropping it must not change anything — and
            # it keeps this loop from rewriting the files it iterates.
            resumed.adopt_operational(EngineConfig(seed=SEED))
            result = resumed.run()
            assert result.canonical() == ref, path.name
            assert trace_sig(resumed) == ref_trace, path.name

    @pytest.mark.parametrize("chaos", [False, True],
                             ids=["chaos-off", "chaos-on"])
    def test_checkpointing_changes_nothing(self, tmp_path, chaos):
        """Checkpoint-on and checkpoint-off runs are bit-identical."""
        with_ckpt = build_engine(tmp_path, chaos=chaos, pm=True,
                                 trace_events=True)
        without = build_engine(None, chaos=chaos, pm=True, trace_events=True)
        res_on = with_ckpt.run()
        res_off = without.run()
        assert res_on.canonical() == res_off.canonical()
        assert trace_sig(with_ckpt) == trace_sig(without)
        assert res_on.checkpoints_written >= 3
        assert res_off.checkpoints_written == 0
        assert res_off.checkpoint_bytes == 0

    def test_disabled_checkpointing_has_no_hook(self):
        engine = build_engine(None)
        assert engine.sim.post_event is None
        result = engine.run()
        assert result.checkpoints_written == 0
        assert result.snapshot_restores == 0


# ------------------------------------------------ share-memo differentials


class TestBatchedRefreshDifferential:
    """The engine's batched dirty sweep skips share solves through its
    memo; skipping must be invisible over entire runs — including runs
    that are killed and resumed with a populated share memo."""

    def test_week_scale_evicting_memo_matches(self):
        """A full simulated week (diurnal + weekend structure) at a rate
        sized to keep the pair of runs in tier-1 budget, against a memo
        that never hits (every share problem solved afresh)."""
        cfg = SyntheticConfig(horizon_s=7 * 24 * HOUR, base_rate_per_hour=4.0)

        def run(evicting):
            engine = DatacenterSimulation(
                cluster=ClusterSpec.homogeneous(6),
                policy=ScoreBasedPolicy(ScoreConfig.sb()),
                trace=Grid5000WeekGenerator(cfg, seed=SEED).generate(),
                pm_config=PowerManagerConfig(lambda_min=0.40, lambda_max=0.90),
                config=EngineConfig(seed=SEED, trace_events=True),
            )
            if evicting:
                engine._share_memo = NoReuseShareMemo()
            return engine, engine.run()

        eng_d, res_d = run(False)
        eng_e, res_e = run(True)
        assert res_d.canonical() == res_e.canonical()
        assert trace_sig(eng_d) == trace_sig(eng_e)
        # The default memo earned its keep across the week.
        stats = res_d.share_memo_stats
        assert stats["hits"] > stats["misses"]
        assert res_e.share_memo_stats["hits"] == 0
        assert res_e.share_memo_stats["misses"] == stats["hits"] + stats["misses"]

    def test_kill_resume_with_populated_memo(self, tmp_path):
        """Resume mid-run with a warm share memo: still bit-identical."""
        ref = build_engine(None, chaos=True, pm=True).run().canonical()

        engine = build_engine(tmp_path, chaos=True, pm=True)
        engine.run()
        snaps = list_snapshots(engine._snapshotter.directory)
        assert len(snaps) >= 3
        # Skip the t=0 snapshot: the memo must be demonstrably warm.
        for path in snaps[1:]:
            resumed = load_snapshot(path)
            assert len(resumed._share_memo) > 0
            resumed.adopt_operational(EngineConfig(seed=SEED))
            assert resumed.run().canonical() == ref, path.name


# -------------------------------------------------------- graceful stops


class TestGracefulStop:
    def test_graceful_stop_checkpoints_and_resumes_exactly(self, tmp_path):
        ref = build_engine(None, chaos=True, pm=True).run().canonical()

        engine = build_engine(tmp_path, chaos=True, pm=True)
        engine.request_graceful_stop()
        with pytest.raises(SimulationInterrupted, match="snapshot written"):
            engine.run()

        fresh = build_engine(tmp_path, chaos=True, pm=True)
        restored = fresh.try_restore()
        assert restored is not None
        result = restored.run()
        assert result.canonical() == ref
        assert result.snapshot_restores == 1

    def test_wall_budget_interrupts_and_resume_drops_it(self, tmp_path):
        """A restored run must not inherit the dead run's wall budget."""
        ref = build_engine(None, pm=True).run().canonical()

        engine = build_engine(tmp_path, pm=True, max_wall_clock_s=0.005)
        with pytest.raises(SimulationInterrupted):
            engine.run()

        fresh = build_engine(tmp_path, pm=True)  # no budget this time
        restored = fresh.try_restore()
        assert restored is not None
        assert restored.config.max_wall_clock_s is None
        assert restored.run().canonical() == ref

    def test_try_restore_without_snapshots_returns_none(self, tmp_path):
        engine = build_engine(tmp_path)
        assert engine.try_restore() is None


# ------------------------------------------------------------ file layer


class TestSnapshotFiles:
    def test_retention_keeps_last_k(self, tmp_path):
        engine = build_engine(tmp_path, keep=3)
        engine.run()
        snaps = list_snapshots(engine._snapshotter.directory)
        assert len(snaps) == 3
        # The survivors are the newest indices, still strictly ordered.
        indices = [read_header(p)["index"] for p in snaps]
        assert indices == sorted(indices)
        assert latest_snapshot(engine._snapshotter.directory) == snaps[-1]

    def test_no_temp_files_left_behind(self, tmp_path):
        engine = build_engine(tmp_path)
        engine.run()
        leftovers = list(pathlib.Path(tmp_path).rglob("*.tmp"))
        assert leftovers == []

    def test_header_is_json_first_line(self, tmp_path):
        engine = build_engine(tmp_path)
        engine.run()
        path = latest_snapshot(engine._snapshotter.directory)
        header = read_header(path)
        assert header["magic"] == SNAPSHOT_MAGIC
        assert header["version"] == SNAPSHOT_VERSION
        assert header["fingerprint"] == engine._snapshotter.fingerprint
        assert header["sim_time"] > 0


# ----------------------------------------------------------- the guards


class TestConfigFingerprint:
    """The fingerprint derives each host class's repr once; the digest
    must stay the one of the plain per-host ``repr`` fold."""

    @pytest.mark.parametrize("cluster,digest", [
        (ClusterSpec.paper_datacenter(), "edd384988109f242"),
        (ClusterSpec.paper_datacenter(n_fast=150, n_medium=500, n_slow=350),
         "a4e4653c281d4e5e"),
    ], ids=["paper", "fleet-1000"])
    def test_digest_is_pinned(self, cluster, digest, monkeypatch):
        # The strict-invariant switch is part of the fingerprinted config.
        monkeypatch.delenv("REPRO_STRICT_INVARIANTS", raising=False)
        engine = DatacenterSimulation(
            cluster=cluster, policy=ScoreBasedPolicy(ScoreConfig.sb()),
            trace=None, config=EngineConfig(seed=7),
        )
        assert config_fingerprint(engine) == digest

    def test_spec_reprs_equal_repr(self):
        """Equal field values of other types (or other objects) repr on
        their own; only identical values share a cached part."""
        from repro.cluster.spec import SLOW, HostSpec
        from repro.engine.snapshot import _spec_reprs

        specs = [
            HostSpec(host_id=0),
            HostSpec(host_id=1),
            HostSpec(host_id=2, mem_mb=4096),
            HostSpec(host_id=3, mem_mb=4096.0),
            HostSpec(host_id=4, node_class=SLOW, reliability=0.5),
            HostSpec(host_id=5, arch="arm"),
        ]
        assert list(_spec_reprs(specs)) == list(map(repr, specs))


class TestRestoreGuards:
    def _one_snapshot(self, tmp_path):
        engine = build_engine(None)
        engine.start()
        engine.sim.run(max_events=50)
        path, _ = write_snapshot(engine, tmp_path, index=1,
                                 fingerprint=config_fingerprint(engine))
        return engine, path

    def test_version_mismatch_names_both_versions(self, tmp_path):
        _, path = self._one_snapshot(tmp_path)
        raw = path.read_bytes()
        header, payload = raw.split(b"\n", 1)
        bad = header.replace(
            b'"version": %d' % SNAPSHOT_VERSION, b'"version": 999'
        )
        assert bad != header
        path.write_bytes(bad + b"\n" + payload)
        with pytest.raises(StateError, match="999") as exc:
            load_snapshot(path)
        assert str(SNAPSHOT_VERSION) in str(exc.value)

    @pytest.mark.parametrize("version", [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13])
    def test_old_snapshot_version_refused_by_name(self, tmp_path, version):
        """A snapshot from before the single score kernel (version 2), the
        single share-solve path (version 3), the tuple-keyed event heap
        (version 4), the cache-free payload (version 5), the SLA
        violation counter (version 6), the one workload feed (version 7),
        the pickled feed cursor (version 8), the one host mirror
        (version 9), the one score-matrix object (version 10), the
        re-keyed event sequence number (version 11), the retired
        archive (version 12) or the chunk log (version 13) pickles classes whose
        layout changed or state the engine now reads differently; it must
        be refused from its header, never unpickled."""
        _, path = self._one_snapshot(tmp_path)
        raw = path.read_bytes()
        header, _ = raw.split(b"\n", 1)
        old = header.replace(
            b'"version": %d' % SNAPSHOT_VERSION, b'"version": %d' % version
        )
        assert old != header
        # A payload that would blow up if anything tried to unpickle it.
        path.write_bytes(old + b"\n" + b"not a pickle")
        with pytest.raises(
            StateError, match=f"version {version} does not match"
        ) as exc:
            load_snapshot(path)
        assert f"version {SNAPSHOT_VERSION!r}" in str(exc.value)

    def test_fingerprint_mismatch_names_both_fingerprints(self, tmp_path):
        engine, path = self._one_snapshot(tmp_path)
        ours = config_fingerprint(engine)
        with pytest.raises(StateError, match="deadbeef") as exc:
            load_snapshot(path, expected_fingerprint="deadbeef")
        assert ours in str(exc.value)

    def test_different_config_refused_end_to_end(self, tmp_path):
        """A fingerprint guard built from real engines, not string edits."""
        victim = build_engine(tmp_path)
        victim.request_graceful_stop()
        with pytest.raises(SimulationInterrupted):
            victim.run()
        other = build_engine(tmp_path, seed=SEED + 1)
        with pytest.raises(StateError, match="fingerprint"):
            load_snapshot(
                latest_snapshot(victim._snapshotter.directory),
                expected_fingerprint=other._snapshotter.fingerprint,
            )
        # try_restore never even finds it: lineage dirs are per-fingerprint.
        assert other.try_restore() is None

    def test_non_snapshot_file_rejected(self, tmp_path):
        path = tmp_path / "snap-0000000001.ckpt"
        path.write_bytes(b"\x80\x05 not a header")
        with pytest.raises(StateError, match="bad header"):
            read_header(path)

    def test_resume_from_skips_torn_newest(self, tmp_path):
        """A torn newest snapshot falls back to its intact predecessor."""
        engine = build_engine(None)
        engine.start()
        engine.sim.run(max_events=40)
        t_good = engine.sim.now
        fp = config_fingerprint(engine)
        write_snapshot(engine, tmp_path, index=1, fingerprint=fp)
        engine.sim.run(max_events=40)
        newer, _ = write_snapshot(engine, tmp_path, index=2, fingerprint=fp)
        raw = newer.read_bytes()
        newer.write_bytes(raw[: len(raw) // 2])  # torn payload
        with pytest.warns(RuntimeWarning, match="trying an older snapshot"):
            restored = resume_from(tmp_path, expected_fingerprint=fp)
        assert restored is not None
        assert restored.sim.now == t_good
        # Garbage header (not just torn payload) also falls back.
        newer.write_bytes(b"total garbage, no json here")
        assert resume_from(tmp_path, expected_fingerprint=fp).sim.now == t_good

    def test_resume_from_empty_dir_is_none(self, tmp_path):
        assert resume_from(tmp_path) is None
        assert resume_from(tmp_path / "does-not-exist") is None


# ------------------------------------------------- pickle round-trip law


class _Ref:
    """Lazily computed uninterrupted reference, shared across examples."""

    _canonical = None

    @classmethod
    def canonical(cls):
        if cls._canonical is None:
            cls._canonical = (
                build_engine(None, chaos=True, pm=True).run().canonical()
            )
        return cls._canonical


class TestPickleRoundTrip:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.data_too_large],
    )
    @given(kill_after=st.integers(min_value=1, max_value=500))
    def test_restore_is_fixed_point_and_resumes_exactly(self, kill_after):
        """serialize -> restore -> re-serialize is idempotent, and the
        restored engine finishes bit-identically wherever it was killed."""
        engine = build_engine(None, chaos=True, pm=True)
        engine.start()
        engine.sim.run(max_events=kill_after)
        blob = pickle.dumps(engine, protocol=pickle.HIGHEST_PROTOCOL)
        once = pickle.loads(blob)
        blob1 = pickle.dumps(once, protocol=pickle.HIGHEST_PROTOCOL)
        twice = pickle.loads(blob1)
        assert pickle.dumps(twice, protocol=pickle.HIGHEST_PROTOCOL) == blob1
        assert twice.run().canonical() == _Ref.canonical()


# ------------------------------------- derived state left out of the pickle


class TestDerivedStateLeavesThePickle:
    """A snapshot carries the score matrix without its cells, the slot
    registry without its finished VMs and the event trace as tuples; a
    restore must rebuild exactly what anything reads."""

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.data_too_large],
    )
    @given(kill_after=st.integers(min_value=1, max_value=500))
    # A touched row, and both current and lagging cells on the others.
    @example(kill_after=118)
    def test_rebuilt_cells_equal_the_original(self, kill_after):
        engine = build_engine(None, chaos=True, pm=True)
        engine.start()
        engine.sim.run(max_events=kill_after)
        orig = engine.policy._matrix
        assume(orig is not None and orig._bind_idx > 0)
        blob = pickle.dumps(engine, protocol=pickle.HIGHEST_PROTOCOL)
        matrix = pickle.loads(blob).policy._matrix
        # The restore rebuilt the cells and the row terms; a row touched
        # by a hypothetical move is re-read at the next bind.
        assert matrix.scores is not None
        rows = np.setdiff1d(np.arange(orig.n_rows), sorted(orig._touched))
        for name in ("_host_terms", "_placed_hi", "_placed_lo", "_placed_on"):
            assert getattr(matrix, name)[rows].view(np.int64).tolist() == (
                getattr(orig, name)[rows].view(np.int64).tolist()
            ), name
        assert matrix.verify_cells()
        assert matrix.stats() == orig.stats()
        assert matrix.scores.shape == orig.scores.shape
        # A cell is current when its row is not hypothetically touched
        # and has not changed since its column last took part.
        slots = np.nonzero(~orig._stale)[0]
        rows = np.setdiff1d(orig._active, sorted(orig._touched))
        current = (
            orig._row_stamp[rows][:, None] <= orig._col_stamp[slots][None, :]
        )
        mine = matrix.scores[rows[:, None], slots]
        theirs = orig.scores[rows[:, None], slots]
        assert np.array_equal(mine[current], theirs[current])

    def test_resumed_streaming_run_sweeps_the_same_slots(
        self, tmp_path, monkeypatch
    ):
        """Retired VMs pickle as stand-ins; with sweeps forced every few
        slots, a resumed run frees and reuses exactly the slots the
        uninterrupted run does."""
        monkeypatch.setattr(persistent, "_MIN_SWEEP", 8)

        def registry(engine):
            matrix = engine.policy._matrix
            return dict(matrix._slot_of), list(matrix._free), matrix._n_slots

        ref_engine = build_engine(tmp_path, streaming=True, chaos=True,
                                  trace_events=True)
        ref = ref_engine.run().canonical()
        ref_registry = registry(ref_engine)
        snaps = list_snapshots(ref_engine._snapshotter.directory)
        assert len(snaps) >= 3
        stand_ins = 0
        for path in snaps:
            resumed = load_snapshot(path)
            stand_ins += sum(
                vm is persistent._RETIRED
                for vm in resumed.policy._matrix._vm_of.values()
            )
            resumed.adopt_operational(EngineConfig(seed=SEED))
            assert resumed.run().canonical() == ref, path.name
            assert registry(resumed) == ref_registry, path.name
            assert trace_sig(resumed) == trace_sig(ref_engine), path.name
        assert stand_ins > 0


# ---------------------------------------------------- real process kills


CLI_ARGS = ["simulate", "--policy", "sb2", "--scale", "0.3"]


def _cli_env():
    env = os.environ.copy()
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run_cli(extra, timeout=180):
    return subprocess.run(
        [sys.executable, "-m", "repro"] + CLI_ARGS + extra,
        capture_output=True, text=True, env=_cli_env(), timeout=timeout,
    )


def _comparable_stdout(stdout):
    """CLI output minus measured-wall-clock and operational lines."""
    lines = []
    for line in stdout.splitlines():
        if line.startswith(("checkpoints:",)):
            continue
        lines.append(re.sub(r", [0-9.]+ s wall clock$", "", line))
    return lines


@pytest.fixture(scope="module")
def cli_reference():
    proc = _run_cli([])
    assert proc.returncode == 0, proc.stderr
    return _comparable_stdout(proc.stdout)


class TestProcessKills:
    def _wait_for_snapshot(self, proc, ckpt_dir, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if any(pathlib.Path(ckpt_dir).rglob("*.ckpt")):
                return True
            if proc.poll() is not None:
                return False
            time.sleep(0.01)
        return False

    def test_sigkill_then_restore_matches_uninterrupted(
        self, tmp_path, cli_reference
    ):
        """The production oracle with a real SIGKILL — no atexit, no
        graceful path, just the last durable snapshot."""
        ckpt = str(tmp_path / "ckpt")
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro"] + CLI_ARGS
            + ["--checkpoint-dir", ckpt, "--checkpoint-wall-interval", "0.05"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env=_cli_env(),
        )
        try:
            assert self._wait_for_snapshot(victim, ckpt), \
                "run finished before any snapshot was written"
            victim.kill()  # SIGKILL: no handler can run
            assert victim.wait(timeout=60) == -signal.SIGKILL
        finally:
            if victim.poll() is None:  # pragma: no cover - cleanup
                victim.kill()
        resumed = _run_cli(["--checkpoint-dir", ckpt, "--restore"])
        assert resumed.returncode == 0, resumed.stderr
        assert "restored from snapshot" in resumed.stderr
        assert _comparable_stdout(resumed.stdout) == cli_reference

    def test_sigterm_checkpoints_and_exits_zero(self, tmp_path, cli_reference):
        ckpt = str(tmp_path / "ckpt")
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro"] + CLI_ARGS
            + ["--checkpoint-dir", ckpt, "--checkpoint-wall-interval", "0.05"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=_cli_env(),
        )
        try:
            assert self._wait_for_snapshot(victim, ckpt), \
                "run finished before any snapshot was written"
            victim.send_signal(signal.SIGTERM)
            out, err = victim.communicate(timeout=60)
        finally:
            if victim.poll() is None:  # pragma: no cover - cleanup
                victim.kill()
        assert victim.returncode == 0, err
        assert "interrupted" in err
        assert "resume with --restore" in err
        resumed = _run_cli(["--checkpoint-dir", ckpt, "--restore"])
        assert resumed.returncode == 0, resumed.stderr
        assert _comparable_stdout(resumed.stdout) == cli_reference
