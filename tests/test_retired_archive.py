"""The retired archive: a snapshot pickles each retired VM once.

A trace or live run keeps every VM it has retired in ``engine.vms``; a
retired VM never changes again, so the engine pickles it into a cached
chunk at the first snapshot after it retired, and that snapshot appends
the chunk to its lineage's chunk log, where every later one refers to
it.  The event trace's records and a trace's job specs are chunked the
same way.  These tests hold the archive to three laws:

* a snapshot's object walk covers the VMs not yet retired plus the VMs
  retired since the previous snapshot, their jobs, and the trace records
  emitted since the previous snapshot — never the run's history, and no
  trace job but those and the pending arrivals';
* resuming from any snapshot reproduces the run bit for bit, with the
  registry in its original order and, in trace mode, every VM holding
  the trace's own job object;
* the strict-mode ``retired archive`` oracle sees an archived VM change
  behind the cache's back.
"""

import json
import pickle
from collections import Counter

import pytest

from repro.cluster.vm import Vm, VmState
from repro.engine import chunks, tracing
from repro.engine.config import EngineConfig
from repro.engine.jobstats import job_records
from repro.engine.snapshot import EngineSnapshotter, list_snapshots, load_snapshot
from repro.errors import StateError
from repro.service import DecisionJournal, PlacementCore, ServiceEngine, resume_service
from repro.service.journal import UNINDEXED_KINDS
from repro.engine.tracing import TraceEventKind
from repro.workload.job import Job
from tests.test_service import GRACE, synthetic_jobs
from tests.test_snapshot_resume import SEED, build_engine, trace_sig

#: The service soak: admissions over four hours, snapshots every 15
#: simulated minutes, so many snapshots see VMs retire in between.
SOAK_HOURS = 4.0


def _live_engine(checkpoint_dir):
    """The service tests' live-mode engine, keeping every snapshot."""
    from repro.cluster.spec import ClusterSpec
    from repro.engine.datacenter import DatacenterSimulation
    from repro.scheduling.score import ScoreConfig
    from repro.scheduling.score.policy import ScoreBasedPolicy

    return DatacenterSimulation(
        cluster=ClusterSpec.homogeneous(6),
        policy=ScoreBasedPolicy(ScoreConfig.sb()),
        trace=None,
        config=EngineConfig(
            seed=SEED, drain_grace_s=GRACE, checkpoint_dir=str(checkpoint_dir),
            checkpoint_sim_interval_s=900.0, checkpoint_keep=1000,
        ),
    )


#: What every pickle since the current snapshot began walked: ``Vm`` and
#: ``Job`` objects, and trace ``records`` turned into chunk tuples.
_walked = []


class _CountingPickler(pickle.Pickler):
    """Counts the ``Vm`` and ``Job`` objects it walks into ``_walked``."""

    def reducer_override(self, obj):
        if type(obj) in (Vm, Job):
            _walked[-1][type(obj).__name__] += 1
        return NotImplemented


def _soak_jobs():
    """Fresh copies of the soak's jobs (a run mutates its Job objects)."""
    return [
        Job(job_id=i, submit_time=j.submit_time, runtime_s=j.runtime_s,
            cpu_pct=j.cpu_pct, mem_mb=j.mem_mb,
            deadline_factor=j.deadline_factor, user=j.user, arch=j.arch,
            hypervisor=j.hypervisor, fault_tolerance=j.fault_tolerance)
        for i, j in enumerate(synthetic_jobs(hours=SOAK_HOURS))
    ]


def _serve(engine, journal_path, jobs):
    svc = ServiceEngine(
        engine, PlacementCore(engine.policy), DecisionJournal(journal_path)
    )
    for job in jobs:
        svc.admit(job)
    return svc.drain()


def _journal_lines(path):
    """The journal's indexed records, without the decision latency (the
    one wall-clock field)."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if TraceEventKind(record["kind"]) in UNINDEXED_KINDS:
                continue
            if record["kind"] == TraceEventKind.SVC_DECISION.value:
                detail = json.loads(record["detail"])
                del detail["wall_ms"]
                record["detail"] = detail
            out.append(record)
    return out


def _truncate_journal(src, dst, indexed):
    """Copy the first ``indexed`` indexed records of ``src`` to ``dst``:
    the journal of a process killed right after the snapshot."""
    kept = 0
    with open(src, encoding="utf-8") as fin, open(dst, "w", encoding="utf-8") as fout:
        for line in fin:
            if kept == indexed:
                break
            fout.write(line)
            if TraceEventKind(json.loads(line)["kind"]) not in UNINDEXED_KINDS:
                kept += 1


def _trace_run(tmp_path):
    """SB-full over the snapshot tests' trace, a snapshot every half hour:
    re-keyed and cancelled completions leave tombstones of VMs that have
    since retired."""
    from repro.cluster.spec import ClusterSpec
    from repro.engine.datacenter import DatacenterSimulation
    from repro.scheduling.score import ScoreConfig
    from repro.scheduling.score.policy import ScoreBasedPolicy
    from tests.test_snapshot_resume import _workload

    engine = DatacenterSimulation(
        cluster=ClusterSpec.homogeneous(6),
        policy=ScoreBasedPolicy(ScoreConfig.full()),
        trace=_workload(False),
        config=EngineConfig(
            seed=SEED, checkpoint_dir=str(tmp_path / "ckpt"),
            checkpoint_sim_interval_s=1800.0, checkpoint_keep=1,
            trace_events=True,
        ),
    )
    return engine, engine.run()


def _service_run(tmp_path):
    engine = _live_engine(tmp_path / "ckpt")
    return engine, _serve(engine, str(tmp_path / "j.jsonl"), _soak_jobs())


class TestSnapshotWalksTheLiveSet:
    @pytest.mark.parametrize("run", [_trace_run, _service_run], ids=["trace", "service"])
    def test_each_snapshot_pickles_live_plus_newly_retired_vms(
        self, tmp_path, monkeypatch, run
    ):
        """Snapshot k walks exactly the VMs not yet retired plus those
        retired since snapshot k-1, their jobs and the jobs of the arrival
        events in the heap (a trace chains one), and the records emitted
        since snapshot k-1, however long the history is."""
        # The strict-mode oracle re-pickles the whole archive on purpose.
        monkeypatch.delenv("REPRO_STRICT_INVARIANTS", raising=False)
        as_tuple = tracing._as_tuple

        def counting_as_tuple(record):
            _walked[-1]["records"] += 1
            return as_tuple(record)

        expected = []
        archived_before = []
        emitted = [0]
        real_write = EngineSnapshotter.write

        def write(self, engine):
            vms = len(engine._live) + len(engine._retired_new)
            log = engine.trace_log
            now = log.dropped + len(log) if log is not None else 0
            expected.append(Counter(
                Vm=vms,
                Job=vms + engine._arrivals_pending,
                records=now - emitted[0],
            ))
            emitted[0] = now
            archived_before.append(sum(map(len, engine._archived)))
            _walked.append(Counter())
            return real_write(self, engine)

        _walked.clear()
        monkeypatch.setattr(EngineSnapshotter, "write", write)
        monkeypatch.setattr(chunks, "_Pickler", _CountingPickler)
        monkeypatch.setattr(tracing, "_as_tuple", counting_as_tuple)
        engine, result = run(tmp_path)

        assert len(expected) >= 10
        assert _walked == expected
        # Not vacuous: later snapshots skip a growing archive.
        assert max(archived_before) > max(e["Vm"] for e in expected)
        assert sum(map(len, engine._archived)) + len(engine._retired_new) == (
            result.n_completed + result.n_failed
        )
        if engine.trace_log is not None:
            assert sum(e["records"] for e in expected) < len(engine.trace_log)
            assert max(e["records"] for e in expected) > 0


class TestResumeFromEverySnapshot:
    @pytest.mark.parametrize("chaos", [False, True], ids=["chaos-off", "chaos-on"])
    def test_trace_run(self, tmp_path, chaos):
        ref_engine = build_engine(tmp_path, chaos=chaos, pm=True, trace_events=True)
        ref = ref_engine.run().canonical()
        ref_order = list(ref_engine.vms)
        ref_records = repr(job_records(ref_engine))
        snaps = list_snapshots(ref_engine._snapshotter.directory)
        assert len(snaps) >= 3
        for path in snaps:
            resumed = load_snapshot(path)
            order = list(resumed.vms)
            assert order == ref_order[: len(order)], path.name
            assert resumed._archived, path.name
            assert all(
                vm.job is resumed.trace[vm.arrival_seq]
                for vm in resumed.vms.values()
            ), path.name
            resumed.adopt_operational(EngineConfig(seed=SEED))
            assert resumed.run().canonical() == ref, path.name
            assert trace_sig(resumed) == trace_sig(ref_engine), path.name
            assert list(resumed.vms) == ref_order, path.name
            assert repr(job_records(resumed)) == ref_records, path.name
            assert all(
                vm.job is resumed.trace[vm.arrival_seq]
                for vm in resumed.vms.values()
            ), path.name

    def test_service_soak(self, tmp_path):
        ref_engine = _live_engine(tmp_path / "ckpt")
        ref_journal = str(tmp_path / "ref.jsonl")
        ref = _serve(ref_engine, ref_journal, _soak_jobs()).canonical()
        ref_order = list(ref_engine.vms)
        ref_records = repr(job_records(ref_engine))
        ref_lines = _journal_lines(ref_journal)
        snaps = list_snapshots(ref_engine._snapshotter.directory)
        assert len(snaps) >= 10
        for k, path in enumerate(snaps):
            restored = load_snapshot(path)
            order = list(restored.vms)
            assert order == ref_order[: len(order)], path.name
            restored.adopt_operational(EngineConfig(seed=SEED))
            journal = str(tmp_path / f"resumed-{k}.jsonl")
            _truncate_journal(ref_journal, journal, restored.service_cursor.records)
            svc = resume_service(restored, journal)
            jobs = _soak_jobs()
            for job in jobs[svc.cursor.admits:]:
                svc.admit(job)
            assert svc.drain().canonical() == ref, path.name
            assert list(restored.vms) == ref_order, path.name
            assert repr(job_records(restored)) == ref_records, path.name
            assert _journal_lines(journal) == ref_lines, path.name


class TestArchiveOracle:
    def _archived_engine(self, mode="raise"):
        engine = build_engine(None, strict_invariants=True, invariant_mode=mode)
        engine.start()
        engine.sim.run(until=8 * 3600.0)
        pickle.dumps(engine, protocol=pickle.HIGHEST_PROTOCOL)
        assert engine._archived and not engine._retired_new
        return engine

    def test_snapshot_catches_a_changed_archived_vm(self):
        engine = self._archived_engine()
        engine._archived[0][0].work_done += 1.0
        with pytest.raises(
            StateError, match="^retired archive drift: chunk 0 of 1 no longer"
        ):
            pickle.dumps(engine, protocol=pickle.HIGHEST_PROTOCOL)

    def test_resync_re_pickles_the_chunk(self):
        engine = self._archived_engine("resync")
        engine._archived[0][0].work_done += 1.0
        with pytest.warns(RuntimeWarning, match="retired archive drift resynced"):
            blob = pickle.dumps(engine, protocol=pickle.HIGHEST_PROTOCOL)
        assert engine.metrics.counters["invariant_resyncs"] == 1
        engine._verify_archive()
        restored = pickle.loads(blob)
        assert restored._archived[0][0].work_done == engine._archived[0][0].work_done

    def test_names_an_archived_vm_that_is_not_retired(self):
        engine = self._archived_engine()
        vm = engine._archived[0][0]
        vm.state = VmState.RUNNING
        with pytest.raises(StateError, match=f"^archived vm {vm.vm_id} is running"):
            engine._verify_archive()

    def test_names_an_archived_vm_off_the_trace_job(self):
        engine = self._archived_engine()
        vm = engine._archived[0][0]
        vm.job = pickle.loads(pickle.dumps(vm.job))
        with pytest.raises(
            StateError, match=f"^archived vm {vm.vm_id} holds a job that is not "
        ):
            engine._verify_archive()

    def test_streaming_run_archives_nothing(self):
        engine = build_engine(None, streaming=True)
        engine.start()
        engine.sim.run(until=8 * 3600.0)
        pickle.dumps(engine, protocol=pickle.HIGHEST_PROTOCOL)
        assert engine._archive == [] and engine._retired_new == []
