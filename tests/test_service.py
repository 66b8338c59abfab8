"""Tests for the live control-plane service (repro.service).

The subsystem's oracle is deterministic replay: a journal written while
serving, fed back through a fresh engine, must reproduce the identical
``SimulationResult.canonical()`` — including across a SIGKILL'd process
resumed from snapshot + journal tail (zero lost, zero duplicated
decisions).  Everything else (queue shedding, retry self-healing, torn
journals, anytime budgets) defends that oracle.
"""

import asyncio
import json
import os
import subprocess
import sys

import pytest

from repro.cluster.spec import ClusterSpec
from repro.engine.config import EngineConfig
from repro.engine.datacenter import DatacenterSimulation
from repro.engine.tracing import TraceEventKind, TraceRecord
from repro.errors import ConfigurationError, StateError
from repro.scheduling.baselines import BackfillingPolicy
from repro.scheduling.score import ScoreConfig
from repro.scheduling.score.policy import ScoreBasedPolicy
from repro.service import (
    ControlPlane,
    DecisionJournal,
    PlacementCore,
    RoundBudgetController,
    ServiceConfig,
    ServiceEngine,
    ShedError,
    replay_journal,
    resume_service,
    serve_synthetic,
)
from repro.units import HOUR
from repro.workload.job import Job
from repro.workload.synthetic import Grid5000WeekGenerator, SyntheticConfig

SEED = 11
GRACE = 6 * HOUR


def make_engine(n_hosts=6, *, policy=None, checkpoint_dir=None, chaos=False,
                seed=SEED):
    from repro.cluster.faults import FaultConfig

    return DatacenterSimulation(
        cluster=ClusterSpec.homogeneous(n_hosts),
        policy=policy or ScoreBasedPolicy(ScoreConfig.sb()),
        trace=None,
        config=EngineConfig(
            seed=seed,
            drain_grace_s=GRACE,
            faults=FaultConfig.uniform(0.08) if chaos else None,
            chaos_seed=5 if chaos else None,
            checkpoint_dir=str(checkpoint_dir) if checkpoint_dir else None,
            checkpoint_sim_interval_s=900.0 if checkpoint_dir else None,
        ),
    )


def make_job(job_id, t, cpu=100.0, runtime=HOUR):
    return Job(job_id=job_id, submit_time=t, runtime_s=runtime,
               cpu_pct=cpu, mem_mb=512.0)


def synthetic_jobs(n=None, hours=2.0, rate=35.0, seed=SEED):
    cfg = SyntheticConfig(horizon_s=hours * HOUR, base_rate_per_hour=rate,
                          night_fraction=0.9)
    jobs = list(Grid5000WeekGenerator(cfg, seed=seed).generate().jobs)
    return jobs[:n] if n is not None else jobs


def canonical_diff(a, b):
    ca, cb = a.canonical(), b.canonical()
    return {k: (ca[k], cb[k]) for k in ca if ca[k] != cb[k]}


# --------------------------------------------------------------- the core


class TestPlacementCore:
    def test_decide_once_is_clock_free(self):
        engine = make_engine()
        core = PlacementCore(engine.policy)
        host_objs = list(engine.hosts)
        from repro.cluster.vm import Vm

        actions = core.decide_once(host_objs, [Vm(make_job(1, 0.0))])
        assert actions, "a queued VM on an empty cluster must place"

    def test_budgets_require_hill_climb_policy(self):
        with pytest.raises(ConfigurationError):
            PlacementCore(BackfillingPolicy(), round_budget=2)
        with pytest.raises(ConfigurationError):
            PlacementCore(
                ScoreBasedPolicy(ScoreConfig.sb(), solver="sa",
                                 solver_seed=1),
                round_budget=2,
            )

    def test_unbudgeted_any_policy_works(self):
        PlacementCore(BackfillingPolicy())  # no controller, no error

    def test_adopts_existing_controller(self):
        policy = ScoreBasedPolicy(ScoreConfig.sb())
        first = PlacementCore(policy, round_budget=3)
        first.controller.rounds_done = 7
        second = PlacementCore(policy, round_budget=5)
        assert second.controller is first.controller
        assert second.controller.rounds_done == 7  # watermark survives
        assert second.controller.budget == 5  # knob adopted

    def test_controller_validation(self):
        with pytest.raises(ConfigurationError):
            RoundBudgetController(budget=-1)
        with pytest.raises(ConfigurationError):
            RoundBudgetController(deadline_s=0.0)


# ------------------------------------------------------------- the journal


class TestDecisionJournal:
    def _record(self, i):
        return TraceRecord(float(i), TraceEventKind.SVC_ADMIT, vm_id=i)

    def test_index_dedup_skips_existing_prefix(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with DecisionJournal(path) as journal:
            for i in range(3):
                journal.append_indexed(i, self._record(i))
        with DecisionJournal(path, recover=True) as journal:
            assert journal.preexisting_indexed == 3
            assert not journal.append_indexed(1, self._record(1))  # dup
            assert journal.append_indexed(3, self._record(3))  # fresh
        from repro.engine.tracing import read_jsonl

        assert len(read_jsonl(path)) == 4

    def test_fresh_journal_starts_empty(self, tmp_path):
        """Without ``recover`` a journal starts a new stream: a stale line
        from an earlier run is truncated away, not appended behind."""
        path = str(tmp_path / "j.jsonl")
        with DecisionJournal(path) as journal:
            journal.append_indexed(0, self._record(7))
        with DecisionJournal(path) as journal:
            assert journal.preexisting_indexed == 0
            assert journal.append_indexed(0, self._record(0))
        from repro.engine.tracing import read_jsonl

        records = read_jsonl(path)
        assert [r.vm_id for r in records] == [0]

    def test_fresh_journal_creates_missing_parent_directories(self, tmp_path):
        path = str(tmp_path / "missing" / "deeper" / "j.jsonl")
        with DecisionJournal(path) as journal:
            assert journal.append_indexed(0, self._record(0))
        from repro.engine.tracing import read_jsonl

        assert [r.vm_id for r in read_jsonl(path)] == [0]

    def test_serve_journal_into_missing_directory(self, tmp_path):
        """``serve --journal DIR/j.jsonl`` with no DIR yet writes the
        journal there instead of dying with a FileNotFoundError."""
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.path.join(root, "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve",
             "--journal", os.path.join("out", "run", "j.jsonl"),
             "--hosts", "6", "--seed", "11", "--synthetic-hours", "0.5",
             "--synthetic-rate", "20"],
            cwd=str(tmp_path), env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "run" / "j.jsonl").stat().st_size > 0

    def test_second_fresh_serve_replays(self, tmp_path):
        """Two serves into one journal path without resuming: the second
        run's journal alone is on disk, and it replays to its result."""
        path = str(tmp_path / "j.jsonl")
        for n_jobs in (30, 20):
            engine = make_engine()
            svc = ServiceEngine(engine, PlacementCore(engine.policy),
                                DecisionJournal(path))
            live, _ = serve_synthetic(svc, synthetic_jobs(n_jobs),
                                      ServiceConfig())
        report = replay_journal(path, make_engine)
        assert report.ok, report.mismatches
        assert canonical_diff(live, report.result) == {}

    def test_recover_truncates_torn_tail(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with DecisionJournal(path) as journal:
            for i in range(2):
                journal.append_indexed(i, self._record(i))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"time": 2.0, "ki')  # torn mid-write by SIGKILL
        with pytest.warns(RuntimeWarning):
            journal = DecisionJournal(path, recover=True)
        assert journal.preexisting_indexed == 2
        journal.close()
        from repro.engine.tracing import read_jsonl

        assert len(read_jsonl(path)) == 2  # file rewritten clean

    def test_unindexed_records_do_not_shift_alignment(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with DecisionJournal(path) as journal:
            journal.append_indexed(0, self._record(0))
            journal.append(
                TraceRecord(0.5, TraceEventKind.SVC_SHED, detail="{}")
            )
            journal.append_indexed(1, self._record(1))
        with DecisionJournal(path, recover=True) as journal:
            assert journal.preexisting_indexed == 2  # shed not counted

    def _journal_of(self, path, n):
        with DecisionJournal(path) as journal:
            for i in range(n):
                journal.append_indexed(i, self._record(i))
        with open(path, "rb") as fh:
            return fh.read().splitlines(keepends=True)

    def test_recover_refuses_corruption_before_the_tail(self, tmp_path):
        # A corrupt middle record used to be skipped, so recovery rewrote
        # the file without it and re-execution left [0, 1, 3, 4, 4, 5]:
        # decision 2 lost, decision 4 duplicated.
        path = str(tmp_path / "j.jsonl")
        lines = self._journal_of(path, 6)
        lines[2] = b'{"time": 2.0, "kind": "no_such_kind"}\n'
        with open(path, "wb") as fh:
            fh.writelines(lines)
        with pytest.raises(StateError, match=r"j\.jsonl:3: corrupt record"):
            DecisionJournal(path, recover=True)
        with open(path, "rb") as fh:
            assert fh.read() == b"".join(lines)  # nothing rewritten

    def test_recover_drops_a_torn_last_line(self, tmp_path):
        from repro.engine.tracing import read_jsonl

        path = str(tmp_path / "j.jsonl")
        lines = self._journal_of(path, 6)
        lines[5] = lines[5][:9] + b"\n\n"  # torn, then blank lines
        with open(path, "wb") as fh:
            fh.writelines(lines)
        with pytest.warns(RuntimeWarning, match=":6: skipping corrupt"):
            journal = DecisionJournal(path, recover=True)
        with journal:
            assert journal.preexisting_indexed == 5
            for i in range(6):  # deterministic re-execution
                journal.append_indexed(i, self._record(i))
        assert [r.vm_id for r in read_jsonl(path)] == list(range(6))

    def test_recovery_crash_leaves_a_recoverable_file(self, tmp_path, monkeypatch):
        import repro.durable as durable_mod

        path = str(tmp_path / "j.jsonl")
        lines = self._journal_of(path, 3)
        lines[2] = lines[2][:5]
        with open(path, "wb") as fh:
            fh.writelines(lines)

        def crash(fd, length):
            raise OSError("crash during recovery")

        with monkeypatch.context() as patch:
            patch.setattr(durable_mod.os, "ftruncate", crash)
            with pytest.warns(RuntimeWarning), pytest.raises(OSError):
                DecisionJournal(path, recover=True)
        with open(path, "rb") as fh:
            assert fh.read() == b"".join(lines)  # nothing changed
        assert os.listdir(tmp_path) == ["j.jsonl"]  # no stray file
        with pytest.warns(RuntimeWarning):
            journal = DecisionJournal(path, recover=True)
        with journal:
            assert [r.vm_id for r in journal.preexisting] == [0, 1]
        with open(path, "rb") as fh:
            assert fh.read() == b"".join(lines[:2])  # exactly the valid prefix


# -------------------------------------------------------- the service engine


class TestServiceEngine:
    def test_requires_live_mode(self):
        trace_engine = DatacenterSimulation(
            cluster=ClusterSpec.homogeneous(2),
            policy=ScoreBasedPolicy(ScoreConfig.sb()),
            trace=Grid5000WeekGenerator(
                SyntheticConfig(horizon_s=HOUR), seed=1
            ).generate(),
            config=EngineConfig(seed=1),
        )
        with pytest.raises(StateError):
            ServiceEngine(trace_engine, PlacementCore(trace_engine.policy))

    def test_admit_places_and_journals(self, tmp_path):
        engine = make_engine()
        journal = DecisionJournal(str(tmp_path / "j.jsonl"))
        svc = ServiceEngine(engine, PlacementCore(engine.policy), journal)
        decision = svc.admit(make_job(0, 10.0))
        assert decision["status"] == "placed"
        assert decision["host_id"] is not None
        assert svc.cursor.admits == svc.cursor.settled == 1
        kinds = [r.kind for r in __import__("repro.engine.tracing",
                 fromlist=["read_jsonl"]).read_jsonl(journal.path)]
        assert TraceEventKind.SVC_ADMIT in kinds
        assert TraceEventKind.SVC_DECISION in kinds

    def test_rejects_time_travel_and_duplicates(self):
        engine = make_engine()
        svc = ServiceEngine(engine, PlacementCore(engine.policy))
        svc.admit(make_job(0, 100.0))
        with pytest.raises(StateError):
            svc.admit(make_job(1, 50.0))  # behind the clock
        with pytest.raises(StateError):
            svc.admit(make_job(0, 200.0))  # duplicate id

    def test_deferred_admission_schedules_retries(self, tmp_path):
        engine = make_engine(1)  # one host: the second full VM must queue
        journal = DecisionJournal(str(tmp_path / "j.jsonl"))
        svc = ServiceEngine(
            engine, PlacementCore(engine.policy), journal, max_retries=2
        )
        svc.admit(make_job(0, 0.0, cpu=400.0, runtime=4 * HOUR))
        deferred = svc.admit(make_job(1, 1.0, cpu=400.0, runtime=HOUR))
        assert deferred["status"] == "deferred"
        from repro.engine.tracing import read_jsonl

        retries = [r for r in read_jsonl(journal.path)
                   if r.kind is TraceEventKind.SVC_RETRY]
        assert len(retries) == 2
        assert retries[0].time > 1.0  # backoff pushes into the future
        assert retries[1].time > retries[0].time

    def test_drain_completes_everything(self):
        engine = make_engine()
        svc = ServiceEngine(engine, PlacementCore(engine.policy))
        for i, job in enumerate(synthetic_jobs(10)):
            svc.admit(
                make_job(i, job.submit_time, cpu=job.cpu_pct,
                         runtime=job.runtime_s)
            )
        result = svc.drain()
        assert result.n_jobs == 10
        assert result.n_completed == 10

    def test_drain_is_idempotent(self):
        engine = make_engine()
        svc = ServiceEngine(engine, PlacementCore(engine.policy))
        svc.admit(make_job(0, 0.0))
        assert svc.drain() is svc.drain()


# --------------------------------------------------------- the control plane


class TestControlPlane:
    def test_queue_full_sheds_nowait(self, tmp_path):
        engine = make_engine()
        journal = DecisionJournal(str(tmp_path / "j.jsonl"))
        svc = ServiceEngine(engine, PlacementCore(engine.policy), journal)

        async def run():
            plane = ControlPlane(svc, ServiceConfig(queue_capacity=1))
            # Worker not started: the queue cannot drain.
            from repro.service.controlplane import PlacementRequest

            request = PlacementRequest(runtime_s=HOUR, cpu_pct=100.0,
                                       mem_mb=512.0, at=0.0)
            first = asyncio.ensure_future(plane.submit(request))
            await asyncio.sleep(0)  # let the first submission enqueue
            with pytest.raises(ShedError):
                await plane.submit(request, wait=False)
            first.cancel()
            return plane

        plane = asyncio.run(run())
        assert plane.sheds == 1
        journal.close()
        from repro.engine.tracing import read_jsonl

        sheds = [r for r in read_jsonl(journal.path)
                 if r.kind is TraceEventKind.SVC_SHED]
        assert len(sheds) == 1
        assert json.loads(sheds[0].detail)["reason"] == "queue_full"

    def test_expired_deadline_sheds_in_worker(self):
        engine = make_engine()
        svc = ServiceEngine(engine, PlacementCore(engine.policy))

        async def run():
            plane = ControlPlane(
                svc, ServiceConfig(request_deadline_ms=0.001)
            )
            from repro.service.controlplane import PlacementRequest

            request = PlacementRequest(runtime_s=HOUR, cpu_pct=100.0,
                                       mem_mb=512.0, at=0.0)
            future = asyncio.ensure_future(plane.submit(request))
            await asyncio.sleep(0.05)  # age the request past its deadline
            await plane.start()
            with pytest.raises(ShedError):
                await future

        asyncio.run(run())

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(queue_capacity=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(request_deadline_ms=-1.0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(time_scale=0.0)

    def test_budget_knobs_require_capable_policy(self):
        engine = make_engine(policy=BackfillingPolicy())
        svc = ServiceEngine(engine, PlacementCore(engine.policy))
        with pytest.raises(ConfigurationError):
            ControlPlane(svc, ServiceConfig(round_budget=2))


# ------------------------------------------------------- the replay oracle


class TestReplayOracle:
    @pytest.mark.parametrize("budget", [None, 3],
                             ids=["unbudgeted", "anytime-3"])
    def test_live_vs_replay_bit_identity(self, tmp_path, budget):
        path = str(tmp_path / "j.jsonl")
        engine = make_engine()
        core = PlacementCore(engine.policy, round_budget=budget)
        svc = ServiceEngine(engine, core, DecisionJournal(path))
        live, stats = serve_synthetic(
            svc, synthetic_jobs(40), ServiceConfig(round_budget=budget)
        )
        assert stats["decisions"] == 40
        report = replay_journal(path, make_engine)
        assert report.ok, report.mismatches
        assert canonical_diff(live, report.result) == {}

    def test_replay_with_chaos(self, tmp_path):
        """Seeded fault injection replays deterministically too."""
        path = str(tmp_path / "j.jsonl")
        engine = make_engine(chaos=True)
        svc = ServiceEngine(
            engine, PlacementCore(engine.policy), DecisionJournal(path)
        )
        live, _ = serve_synthetic(svc, synthetic_jobs(30), ServiceConfig())
        report = replay_journal(path, lambda: make_engine(chaos=True))
        assert report.ok, report.mismatches
        assert canonical_diff(live, report.result) == {}

    def test_wall_deadline_round_budgets_replay(self, tmp_path):
        """Nondeterministic wall cuts journal into deterministic budgets."""
        path = str(tmp_path / "j.jsonl")
        engine = make_engine()
        core = PlacementCore(engine.policy, round_deadline_s=1e-9)
        svc = ServiceEngine(engine, core, DecisionJournal(path))
        live, _ = serve_synthetic(svc, synthetic_jobs(25), ServiceConfig())
        report = replay_journal(path, make_engine)
        assert report.ok, report.mismatches
        assert canonical_diff(live, report.result) == {}

    def test_replay_flags_divergent_journal(self, tmp_path):
        """A corrupted decision record surfaces as a mismatch, not silence."""
        path = str(tmp_path / "j.jsonl")
        engine = make_engine()
        svc = ServiceEngine(
            engine, PlacementCore(engine.policy), DecisionJournal(path)
        )
        serve_synthetic(svc, synthetic_jobs(10), ServiceConfig())
        lines = open(path).read().splitlines()
        doctored = []
        for line in lines:
            rec = json.loads(line)
            if rec["kind"] == "svc_decision":
                detail = json.loads(rec["detail"])
                detail["host_id"] = 999  # claim a placement that never was
                rec["detail"] = json.dumps(detail)
                doctored.append(json.dumps(rec))
                continue
            doctored.append(line)
        open(path, "w").write("\n".join(doctored) + "\n")
        report = replay_journal(path, make_engine)
        assert not report.ok
        assert any("host_id" in m for m in report.mismatches)


# ------------------------------------------------- crash resume (in-process)


class TestResumeFromJournal:
    def test_journal_only_recovery_no_snapshot(self, tmp_path):
        """Losing every snapshot still recovers: the journal is sufficient."""
        path = str(tmp_path / "j.jsonl")
        jobs = synthetic_jobs(30)

        baseline_engine = make_engine()
        baseline_svc = ServiceEngine(
            baseline_engine,
            PlacementCore(baseline_engine.policy),
            DecisionJournal(str(tmp_path / "base.jsonl")),
        )
        baseline, _ = serve_synthetic(baseline_svc, jobs, ServiceConfig())

        # Live process "dies" after 12 admissions: journal stops there.
        engine = make_engine()
        svc = ServiceEngine(
            engine, PlacementCore(engine.policy), DecisionJournal(path)
        )
        for i, job in enumerate(jobs[:12]):
            svc.admit(
                Job(job_id=i, submit_time=job.submit_time,
                    runtime_s=job.runtime_s, cpu_pct=job.cpu_pct,
                    mem_mb=job.mem_mb, deadline_factor=job.deadline_factor,
                    user=job.user, arch=job.arch, hypervisor=job.hypervisor,
                    fault_tolerance=job.fault_tolerance)
            )
        svc.journal._fh.close()  # abrupt stop, no clean close

        resumed = resume_service(make_engine(), path)
        assert resumed.cursor.admits == 12
        assert resumed.journal.skipped >= 12  # every rewrite deduplicated
        result, _ = serve_synthetic(resumed, jobs, ServiceConfig())
        assert canonical_diff(baseline, result) == {}

    def test_snapshot_plus_tail_recovery(self, tmp_path):
        """The fast path: restore a snapshot, re-apply only the tail."""
        journal_path = str(tmp_path / "j.jsonl")
        ckpt = tmp_path / "ckpt"
        jobs = synthetic_jobs(30)

        baseline_engine = make_engine()
        baseline_svc = ServiceEngine(
            baseline_engine,
            PlacementCore(baseline_engine.policy),
            DecisionJournal(str(tmp_path / "base.jsonl")),
        )
        baseline, _ = serve_synthetic(baseline_svc, jobs, ServiceConfig())

        engine = make_engine(checkpoint_dir=ckpt)
        svc = ServiceEngine(
            engine, PlacementCore(engine.policy),
            DecisionJournal(journal_path),
        )
        for i, job in enumerate(jobs[:20]):
            svc.admit(
                Job(job_id=i, submit_time=job.submit_time,
                    runtime_s=job.runtime_s, cpu_pct=job.cpu_pct,
                    mem_mb=job.mem_mb, deadline_factor=job.deadline_factor,
                    user=job.user, arch=job.arch, hypervisor=job.hypervisor,
                    fault_tolerance=job.fault_tolerance)
            )
        engine._snapshotter.flush()
        svc.journal._fh.close()  # die without cleanup

        fresh = make_engine(checkpoint_dir=ckpt)
        restored = fresh.try_restore()
        assert restored is not None, "periodic snapshots must exist"
        assert restored.service_cursor.admits > 0
        resumed = resume_service(restored, journal_path)
        assert resumed.cursor.admits == 20
        result, _ = serve_synthetic(resumed, jobs, ServiceConfig())
        assert canonical_diff(baseline, result) == {}


# ---------------------------------------------------- the SIGKILL drill (CLI)


@pytest.mark.slow
class TestKillResumeDrill:
    """End-to-end subprocess drill through the CLI surface."""

    FLAGS = [
        "--hosts", "6", "--seed", "11", "--synthetic-hours", "2",
        "--synthetic-rate", "35", "--round-budget", "4",
        "--drain-grace-s", str(GRACE),
    ]

    def _run(self, tmp_path, *extra, check=True):
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.path.join(root, "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *extra],
            cwd=str(tmp_path), env=env, capture_output=True, text=True,
            timeout=300,
        )
        if check and proc.returncode != 0:
            raise AssertionError(
                f"exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}"
            )
        return proc

    def test_sigkill_resume_replay_identity(self, tmp_path):
        # Baseline: unkilled serve.
        self._run(tmp_path, "serve", "--journal", "base.jsonl",
                  "--result-json", "base.json", *self.FLAGS)

        # Killed run: hard-dies (exit 137) mid-serve with checkpoints on.
        proc = self._run(
            tmp_path, "serve", "--journal", "kill.jsonl",
            "--checkpoint-dir", "ckpt", "--checkpoint-interval", "600",
            "--kill-after", "15", *self.FLAGS, check=False,
        )
        assert proc.returncode == 137, proc.stderr

        # Resume: completes, bit-identical to the unkilled baseline.
        self._run(
            tmp_path, "serve", "--journal", "kill.jsonl",
            "--checkpoint-dir", "ckpt", "--checkpoint-interval", "600",
            "--resume", "--result-json", "resumed.json", *self.FLAGS,
        )
        base = json.load(open(tmp_path / "base.json"))
        resumed = json.load(open(tmp_path / "resumed.json"))
        assert base == resumed

        # Replay oracle over the converged journal, against the baseline.
        self._run(
            tmp_path, "replay", "--journal", "kill.jsonl", "--hosts", "6",
            "--seed", "11", "--drain-grace-s", str(GRACE),
            "--baseline", "base.json",
        )

        # Zero lost, zero duplicated decisions in the converged journal.
        seqs = []
        admits = 0
        for line in open(tmp_path / "kill.jsonl"):
            rec = json.loads(line)
            if rec["kind"] == "svc_admit":
                admits += 1
            if rec["kind"] == "svc_decision":
                seqs.append(json.loads(rec["detail"])["seq"])
        assert admits == len(seqs)
        assert sorted(seqs) == list(range(admits))  # no gaps, no dups

    def test_sigterm_checkpoints_and_exits_zero(self, tmp_path):
        import signal
        import time

        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.path.join(root, "src")
        # A week of admissions: long enough to be mid-serve when signaled.
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--journal", "t.jsonl",
             "--checkpoint-dir", "ckpt", "--checkpoint-interval", "600",
             "--hosts", "6", "--seed", "11", "--synthetic-hours", "168",
             "--synthetic-rate", "45", "--drain-grace-s", str(GRACE)],
            cwd=str(tmp_path), env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        time.sleep(8)  # let it import, build, and start admitting
        proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr
        assert "interrupted" in stderr
        assert (tmp_path / "t.jsonl").exists()
        # The journal survived with at least the admissions so far.
        admits = sum(
            1 for line in open(tmp_path / "t.jsonl")
            if json.loads(line)["kind"] == "svc_admit"
        )
        assert admits > 0
