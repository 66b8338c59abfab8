"""The chunk log: each immutable part of a snapshot is written once.

A snapshot file holds the live state plus the ``(offset, length, crc32)``
of the chunks it needs; the chunks themselves (the retired archive, the
event trace's records, a trace's job specs) live once in the lineage's
append-only log beside the snapshots.  These tests hold the log to its
contract:

* a bounded event trace resumes exactly from every snapshot;
* a kill between a chunk append and the snapshot rename leaves a torn
  log tail that the previous snapshot resumes past, exactly;
* a fresh run neither reads nor extends an older lineage's log;
* every flipped bit in a snapshot's payload or in its chunks is refused,
  and the refusal names the file.
"""

import os
import random

import pytest

from repro.engine import snapshot
from repro.engine.config import EngineConfig
from repro.engine.datacenter import DatacenterSimulation
from repro.engine.jobstats import job_records
from repro.engine.snapshot import (
    CorruptSnapshotError,
    config_fingerprint,
    list_snapshots,
    load_snapshot,
    read_header,
    resume_from,
    write_snapshot,
)
from repro.errors import StateError
from repro.experiments.common import lambda_config, paper_cluster
from repro.scheduling.score import ScoreConfig
from repro.scheduling.score.policy import ScoreBasedPolicy
from repro.units import DAY, HOUR
from repro.workload.synthetic import Grid5000WeekGenerator, SyntheticConfig
from tests.test_snapshot_resume import SEED, build_engine, trace_sig


def _log_of(path):
    return path.parent / read_header(path)["log"]


def _same_run(resumed, ref_engine, ref):
    """Resume ``resumed`` to the end; it must match the reference run."""
    resumed.adopt_operational(EngineConfig(seed=SEED))
    assert resumed.run().canonical() == ref
    assert trace_sig(resumed) == trace_sig(ref_engine)
    assert list(resumed.vms) == list(ref_engine.vms)
    assert repr(job_records(resumed)) == repr(job_records(ref_engine))
    assert all(
        vm.job is resumed.trace[vm.arrival_seq] for vm in resumed.vms.values()
    )


class TestBoundedTrace:
    def test_resume_from_every_snapshot_keeps_the_last_records(self, tmp_path):
        """A trace holding fewer records than the run emits drops its
        oldest; chunks wholly dropped are forgotten, and every restore
        keeps exactly the retained records and the drop count."""
        ref_engine = build_engine(
            tmp_path, chaos=True, pm=True, trace_events=True, trace_capacity=150
        )
        ref = ref_engine.run().canonical()
        log = ref_engine.trace_log
        assert log.dropped > 0 and len(log) == 150
        snaps = list_snapshots(ref_engine._snapshotter.directory)
        assert len(snaps) >= 3
        for path in snaps:
            resumed = load_snapshot(path)
            restored = resumed.trace_log
            assert len(restored) <= 150, path.name
            assert len(restored._chunks) < len(snaps), path.name
            _same_run(resumed, ref_engine, ref)
            assert resumed.trace_log.dropped == log.dropped, path.name


class _Killed(Exception):
    """The writer process died."""


class TestTornLogTail:
    def test_kill_between_append_and_rename_resumes_the_previous(
        self, tmp_path, monkeypatch
    ):
        """The writer appends snapshot 3's chunks (and a torn partial one),
        then dies before the rename: snapshot 2 resumes exactly, and its
        run's next snapshots extend the log past the torn tail."""
        ref_engine = build_engine(None, pm=True, trace_events=True)
        ref = ref_engine.run().canonical()

        engine = build_engine(tmp_path, pm=True, trace_events=True)
        real = snapshot.atomic_write

        def killed_at_the_third(path, *parts):
            if path.name.endswith("0000000003.ckpt"):
                with open(_log_of(list_snapshots(path.parent)[-1]), "ab") as fh:
                    fh.write(b"\x80\x05torn")
                raise _Killed
            return real(path, *parts)

        monkeypatch.setattr(snapshot, "atomic_write", killed_at_the_third)
        with pytest.raises(_Killed):
            engine.run()
        monkeypatch.setattr(snapshot, "atomic_write", real)
        directory = engine._snapshotter.directory
        snaps = list_snapshots(directory)
        assert [p.name[-7:] for p in snaps] == ["01.ckpt", "02.ckpt"]
        log = _log_of(snaps[-1])
        table = read_header(snaps[-1])["chunks"]
        assert os.path.getsize(log) > max(o + n for o, n, _ in table) + 6

        fresh = build_engine(tmp_path, pm=True, trace_events=True)
        resumed = fresh.try_restore()
        assert resumed.sim.now == read_header(snaps[-1])["sim_time"]
        assert resumed.run().canonical() == ref
        assert trace_sig(resumed) == trace_sig(ref_engine)
        later = list_snapshots(directory)[-1]
        assert read_header(later)["index"] > 3
        assert _log_of(later) == log
        assert load_snapshot(later).sim.now == read_header(later)["sim_time"]


class TestLineages:
    def test_fresh_run_neither_reads_nor_extends_an_older_log(
        self, tmp_path, monkeypatch
    ):
        older = build_engine(tmp_path, trace_events=True, keep=1000)
        older.run()
        directory = older._snapshotter.directory
        (old_log,) = {_log_of(p) for p in list_snapshots(directory)}
        before = old_log.read_bytes()

        opened = []
        real_open = open

        def watching_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)):
                opened.append(os.path.abspath(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", watching_open)
        newer = build_engine(
            tmp_path, trace_events=True, keep=1000, strict_invariants=True
        )
        newer.run()
        monkeypatch.setattr("builtins.open", real_open)

        assert str(old_log) not in opened
        assert old_log.read_bytes() == before
        # The newer lineage rewrote the snapshot files at the indices it
        # shares with the older one, each referring to its own log.
        snaps = list_snapshots(directory)
        assert {_log_of(p) for p in snaps} == {_log_of(snaps[-1])} != {old_log}
        for path in snaps:
            assert load_snapshot(path).sim.now == read_header(path)["sim_time"]


def _paper_engine():
    trace = Grid5000WeekGenerator(SyntheticConfig(horizon_s=DAY), seed=5).generate()
    return DatacenterSimulation(
        cluster=paper_cluster(),
        policy=ScoreBasedPolicy(ScoreConfig.sb()),
        trace=trace,
        pm_config=lambda_config(),
        config=EngineConfig(seed=1, trace_events=True, trace_capacity=None),
    )


class TestByteFlips:
    def test_every_flipped_bit_is_refused_by_name(self, tmp_path):
        """64 single-bit flips over a `paper` snapshot at 8 h: half in the
        payload, half in the chunk log.  Each flipped copy either fails
        to load with an error naming the file, or resumes to the
        uncorrupted run's row; none resumes silently to another."""
        ref = _paper_engine().run().canonical()
        engine = _paper_engine()
        engine.start()
        engine.sim.run(until=8 * HOUR)
        path, _ = write_snapshot(
            engine, tmp_path, index=1, fingerprint=config_fingerprint(engine)
        )
        log = _log_of(path)
        header_len = len(path.read_bytes().split(b"\n", 1)[0]) + 1
        rng = random.Random(33)
        flips = [(path, header_len + rng.randrange(path.stat().st_size - header_len))
                 for _ in range(32)]
        flips += [(log, rng.randrange(log.stat().st_size)) for _ in range(32)]
        refused = 0
        for target, offset in flips:
            original = target.read_bytes()
            flipped = bytearray(original)
            flipped[offset] ^= 1 << rng.randrange(8)
            target.write_bytes(bytes(flipped))
            try:
                resumed = load_snapshot(path)
            except CorruptSnapshotError as exc:
                refused += 1
                assert str(path) in str(exc)
                if target == log:
                    assert str(log) in str(exc)
            else:
                resumed.adopt_operational(EngineConfig(seed=1))
                assert resumed.run().canonical() == ref, (target.name, offset)
            finally:
                target.write_bytes(original)
        assert refused == len(flips)
        resumed = load_snapshot(path)
        resumed.adopt_operational(EngineConfig(seed=1))
        assert resumed.run().canonical() == ref

    def test_resume_from_falls_back_past_a_flipped_chunk(self, tmp_path):
        engine = build_engine(None, trace_events=True)
        engine.start()
        engine.sim.run(until=3 * HOUR)
        fp = config_fingerprint(engine)
        write_snapshot(engine, tmp_path, index=1, fingerprint=fp)
        t_good = engine.sim.now
        engine.sim.run(until=6 * HOUR)
        newer, _ = write_snapshot(engine, tmp_path, index=2, fingerprint=fp)
        offset, _, _ = read_header(newer)["chunks"][-1]
        log = _log_of(newer)
        raw = bytearray(log.read_bytes())
        raw[offset] ^= 0x10
        log.write_bytes(bytes(raw))
        with pytest.raises(CorruptSnapshotError, match="chunk .* reads crc32"):
            load_snapshot(newer)
        with pytest.warns(RuntimeWarning, match="trying an older snapshot"):
            restored = resume_from(tmp_path, expected_fingerprint=fp)
        assert restored.sim.now == t_good

    def test_a_missing_chunk_is_named(self, tmp_path):
        engine = build_engine(None, trace_events=True)
        engine.start()
        engine.sim.run(until=3 * HOUR)
        path, _ = write_snapshot(engine, tmp_path, index=1)
        log = _log_of(path)
        log.write_bytes(log.read_bytes()[:-1])
        with pytest.raises(StateError, match=f"{log}: the .* is missing") as exc:
            load_snapshot(path)
        assert str(path) in str(exc.value)
