"""Fault-injection tests for the resilient experiment sweep runner.

Every scenario drives the real process-pool executor through
:class:`~repro.experiments.resilience.ReproFaultPlan` — a deterministic
fault hook carried to the workers through the environment — and asserts
the load-bearing property end to end: completed rows are bit-identical
to a fault-free serial run, whatever was injected along the way.
"""

import json
import pathlib
import warnings

import pytest

from repro.errors import (
    ConfigurationError,
    ExperimentError,
    StateError,
    TaskTimeoutError,
)
from repro.experiments.common import ExperimentOutput
from repro.experiments.resilience import (
    FAULT_PLAN_ENV,
    ExecutionPolicy,
    FaultSpec,
    ReproFaultPlan,
    SweepJournal,
)
from repro.experiments.runner import (
    JOURNAL_NAME,
    cache_key,
    comparable_rows,
    run_experiments,
)

#: Cheap but representative: table1 is the power model (no simulation),
#: table5 runs three reduced-horizon simulations.
IDS = ["table1", "table5"]
SCALE = 1.0 / 28.0
SEED = 11

#: Generous per-attempt budget for *non-hung* tasks on a loaded CI box;
#: hang tests use a much smaller one to keep the suite fast.
LONG_TIMEOUT = 300.0


@pytest.fixture(scope="module")
def serial_outputs():
    """Fault-free serial ground truth for every completed-row comparison."""
    return run_experiments(IDS, scale=SCALE, seed=SEED)


class TestExecutionPolicy:
    def test_backoff_is_deterministic_and_monotone(self):
        policy = ExecutionPolicy(retries=3, backoff_base_s=0.1, backoff_seed=42)
        delays = [policy.backoff_s("table5", n) for n in range(4)]
        assert delays[0] == 0.0
        assert delays == [policy.backoff_s("table5", n) for n in range(4)]
        # Exponential growth dominates the bounded jitter (factor 2 > 1.5x).
        assert delays[1] < delays[2] < delays[3]
        # Jitter decorrelates tasks: same attempt, different task, new delay.
        assert policy.backoff_s("table1", 1) != delays[1]

    @pytest.mark.parametrize("bad", [
        {"retries": -1},
        {"task_timeout_s": 0.0},
        {"backoff_factor": 0.5},
        {"backoff_jitter": 1.5},
        {"max_pool_respawns": -1},
    ])
    def test_invalid_policy_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            ExecutionPolicy(**bad)


class TestFaultPlan:
    def test_env_round_trip(self):
        plan = ReproFaultPlan({
            "table1": FaultSpec(kind="crash", times=2),
            "table5": FaultSpec(kind="hang", times=1, hang_s=5.0),
        })
        again = ReproFaultPlan.from_json(plan.to_json())
        assert again == plan
        with plan.installed():
            assert ReproFaultPlan.from_env() == plan
        assert ReproFaultPlan.from_env() is None

    def test_fault_expires_after_times(self):
        plan = ReproFaultPlan({"t": FaultSpec(kind="raise", times=2)})
        assert plan.spec_for("t", 0) is not None
        assert plan.spec_for("t", 1) is not None
        assert plan.spec_for("t", 2) is None
        assert plan.spec_for("other", 0) is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="meteor")
        with pytest.raises(ConfigurationError):
            ReproFaultPlan.from_json('{"t": {"kind": "raise", "bogus": 1}}')


class TestCrashRecovery:
    def test_crashed_worker_is_retried_to_success(self, serial_outputs):
        """The acceptance sweep: one crash plus one hang, full recovery.

        table1's first attempt hard-crashes the pool (BrokenProcessPool);
        table5's first attempt hangs until the per-task timeout reaps it.
        Both retry clean, and every row must match the fault-free serial
        sweep bit for bit.
        """
        plan = ReproFaultPlan({
            "table1": FaultSpec(kind="crash", times=1),
            "table5": FaultSpec(kind="hang", times=1),
        })
        outs = run_experiments(
            IDS, scale=SCALE, seed=SEED, parallel=True, jobs=2,
            execution=ExecutionPolicy(retries=2, task_timeout_s=15.0),
            fault_plan=plan,
        )
        assert [o.exp_id for o in outs] == IDS
        assert [comparable_rows(o) for o in outs] == [
            comparable_rows(o) for o in serial_outputs
        ]

    def test_repeated_breakage_degrades_to_serial(self, serial_outputs):
        """A worker that always crashes forces in-process execution.

        Worker faults only fire in child processes, so the serial
        fallback completes the task — exactly the recovery the mode is
        for (a poisoned pool environment, not a poisoned task).
        """
        plan = ReproFaultPlan({"table1": FaultSpec(kind="crash", times=99)})
        report = run_experiments(
            ["table1"], scale=SCALE, seed=SEED, parallel=True, jobs=1,
            execution=ExecutionPolicy(
                retries=5, max_pool_respawns=1, partial=True,
                backoff_base_s=0.01,
            ),
            fault_plan=plan,
        )
        assert report.degraded_serial
        assert report.pool_respawns == 2
        assert report.ok
        assert comparable_rows(report.outputs["table1"]) == comparable_rows(
            serial_outputs[0]
        )

    def test_crash_without_retries_fails_typed(self):
        plan = ReproFaultPlan({"table1": FaultSpec(kind="crash", times=99)})
        report = run_experiments(
            ["table1"], scale=SCALE, seed=SEED, parallel=True, jobs=1,
            execution=ExecutionPolicy(
                retries=0, max_pool_respawns=0, partial=True
            ),
            fault_plan=plan,
        )
        # retries=0: the breakage consumes the only attempt; respawn
        # budget 0 degrades to serial with nothing left to run.
        assert [f.error_type for f in report.failures] == ["WorkerCrashError"]
        assert report.outputs == {}


class TestTimeouts:
    def test_hanging_worker_times_out(self, serial_outputs):
        """A hung task raises TaskTimeoutError; the innocent one survives."""
        plan = ReproFaultPlan({"table5": FaultSpec(kind="hang", times=99)})
        report = run_experiments(
            IDS, scale=SCALE, seed=SEED, parallel=True, jobs=2,
            execution=ExecutionPolicy(
                retries=0, task_timeout_s=3.0, partial=True
            ),
            fault_plan=plan,
        )
        assert [f.task_id for f in report.failures] == ["table5"]
        assert report.failures[0].error_type == "TaskTimeoutError"
        assert report.timeouts >= 1
        assert comparable_rows(report.outputs["table1"]) == comparable_rows(
            serial_outputs[0]
        )
        assert report.ordered_outputs()[1] is None

    def test_timeout_raises_without_partial(self):
        plan = ReproFaultPlan({"table1": FaultSpec(kind="hang", times=99)})
        with pytest.raises(TaskTimeoutError):
            run_experiments(
                ["table1"], scale=SCALE, seed=SEED, parallel=True, jobs=1,
                execution=ExecutionPolicy(task_timeout_s=1.0),
                fault_plan=plan,
            )


class TestCorruptResults:
    def test_corrupt_worker_result_is_retried(self, serial_outputs):
        plan = ReproFaultPlan({"table1": FaultSpec(kind="corrupt", times=1)})
        outs = run_experiments(
            ["table1"], scale=SCALE, seed=SEED, parallel=True, jobs=1,
            execution=ExecutionPolicy(retries=1, backoff_base_s=0.01),
            fault_plan=plan,
        )
        assert comparable_rows(outs[0]) == comparable_rows(serial_outputs[0])

    def test_corrupt_worker_result_fails_without_retries(self):
        plan = ReproFaultPlan({"table1": FaultSpec(kind="corrupt", times=1)})
        with pytest.raises(ExperimentError, match="corrupt result"):
            run_experiments(
                ["table1"], scale=SCALE, seed=SEED, parallel=True, jobs=1,
                fault_plan=plan,
            )

    def test_corrupt_cache_entry_quarantined_and_recomputed(
        self, tmp_path, serial_outputs
    ):
        """A torn cache entry mid-sweep is set aside, not trusted or lost."""
        cache = tmp_path / "c"
        run_experiments(["table1"], scale=SCALE, seed=SEED, cache_dir=str(cache))
        entry = cache / f"{cache_key('table1', SCALE, SEED)}.pkl"
        entry.write_bytes(b"truncated garbage")
        outs = run_experiments(
            ["table1"], scale=SCALE, seed=SEED, cache_dir=str(cache)
        )
        assert comparable_rows(outs[0]) == comparable_rows(serial_outputs[0])
        quarantined = entry.with_name(entry.name + ".quarantined")
        assert quarantined.read_bytes() == b"truncated garbage"
        # The recomputed output overwrote the original slot.
        assert isinstance(
            run_experiments(
                ["table1"], scale=SCALE, seed=SEED, cache_dir=str(cache)
            )[0],
            ExperimentOutput,
        )


class TestJournalAndResume:
    def _journal_entries(self, cache):
        return SweepJournal.read_entries(pathlib.Path(cache) / JOURNAL_NAME)

    def test_partial_sweep_journals_and_caches_survivors(self, tmp_path):
        cache = str(tmp_path / "c")
        plan = ReproFaultPlan({"table5": FaultSpec(kind="raise", times=99)})
        report = run_experiments(
            IDS, scale=SCALE, seed=SEED, parallel=True, jobs=2,
            cache_dir=cache,
            execution=ExecutionPolicy(partial=True),
            fault_plan=plan,
        )
        assert [f.task_id for f in report.failures] == ["table5"]
        assert report.failures[0].error_type == "ExperimentError"
        # The finished task was cached the moment it completed, despite
        # the sweep as a whole failing.
        done = SweepJournal.completed_tasks(pathlib.Path(cache) / JOURNAL_NAME)
        assert set(done) == {"table1"}
        assert (pathlib.Path(cache) / f"{done['table1']}.pkl").exists()
        outcomes = {
            (e["task"], e["outcome"]) for e in self._journal_entries(cache)
        }
        assert ("table1", "ok") in outcomes
        assert ("table5", "error") in outcomes

    def test_resume_skips_completed_tasks_bit_identically(
        self, tmp_path, serial_outputs
    ):
        """Resuming an interrupted sweep must not re-run finished tasks.

        The proof is adversarial: the resumed run installs a fault that
        crashes table1 on *every* attempt — so the sweep can only succeed
        if table1 is served from the journal+cache without re-running —
        and the final rows must equal an uninterrupted serial run.
        """
        cache = str(tmp_path / "c")
        interrupt = ReproFaultPlan({"table5": FaultSpec(kind="raise", times=99)})
        run_experiments(
            IDS, scale=SCALE, seed=SEED, parallel=True, jobs=2,
            cache_dir=cache,
            execution=ExecutionPolicy(partial=True),
            fault_plan=interrupt,
        )
        poison = ReproFaultPlan({"table1": FaultSpec(kind="crash", times=99)})
        outs = run_experiments(
            IDS, scale=SCALE, seed=SEED, parallel=True, jobs=2,
            cache_dir=cache, resume=True, fault_plan=poison,
        )
        assert [comparable_rows(o) for o in outs] == [
            comparable_rows(o) for o in serial_outputs
        ]
        outcomes = [
            (e["task"], e["outcome"]) for e in self._journal_entries(cache)
        ]
        assert ("table1", "resumed") in outcomes

    def test_resume_requires_cache_dir(self):
        with pytest.raises(ConfigurationError):
            run_experiments(IDS, scale=SCALE, seed=SEED, resume=True)

    def test_journal_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with SweepJournal(path) as journal:
            journal.record("table1", 0, "ok", cache_key="k1")
        with open(path, "a") as fh:
            fh.write('{"task": "table5", "outcome": "ok", "cache')  # torn
        with pytest.warns(RuntimeWarning, match="torn write"):
            assert SweepJournal.completed_tasks(path) == {"table1": "k1"}

    def test_journal_truncated_mid_record_warns_and_resumes(self, tmp_path):
        """A crash mid-append leaves a half-written final record: resume
        must keep every complete record, warn, and skip the stub."""
        path = tmp_path / "j.jsonl"
        with SweepJournal(path) as journal:
            journal.record("table1", 0, "ok", cache_key="k1")
            journal.record("table5", 0, "ok", cache_key="k5")
        raw = path.read_bytes()
        path.write_bytes(raw[:-9])  # cut into the second record
        with pytest.warns(RuntimeWarning, match="torn write"):
            assert SweepJournal.completed_tasks(path) == {"table1": "k1"}

    def test_journal_corrupt_middle_line_raises_naming_line(self, tmp_path):
        """Only the last line can be torn; earlier corruption is refused."""
        path = tmp_path / "j.jsonl"
        with SweepJournal(path) as journal:
            journal.record("table1", 0, "ok", cache_key="k1")
            journal.record("table5", 0, "ok", cache_key="k5")
        first, second = path.read_text().splitlines(keepends=True)
        path.write_text(first + "not json\n" + second)
        with pytest.raises(StateError, match=r"j\.jsonl:2: corrupt"):
            SweepJournal.completed_tasks(path)

    def test_journal_first_append_refuses_mid_file_corruption(self, tmp_path):
        """The first append refuses a journal damaged before its last line
        instead of appending behind the damage."""
        path = tmp_path / "j.jsonl"
        with SweepJournal(path) as journal:
            journal.record("table1", 0, "ok", cache_key="k1")
            journal.record("table5", 0, "ok", cache_key="k5")
        second = path.read_text().splitlines(keepends=True)[1]
        path.write_text("not json\n" + second)
        with SweepJournal(path) as journal:
            with pytest.raises(StateError, match=r"j\.jsonl:1: corrupt"):
                journal.record("table4", 0, "ok", cache_key="k4")
        assert path.read_text() == "not json\n" + second

    def test_journal_close_fsyncs(self, tmp_path, monkeypatch):
        import repro.experiments.resilience as resilience

        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.record("table1", 0, "ok", cache_key="k1")
        synced = []
        monkeypatch.setattr(resilience.os, "fsync", synced.append)
        journal.close()
        assert len(synced) == 1

    def test_journal_append_after_torn_tail_cuts_the_fragment(self, tmp_path):
        """The first append after a crash cuts the torn fragment off, so
        the fragment never becomes a corrupt middle line and every later
        resume reads the journal cleanly."""
        path = tmp_path / "j.jsonl"
        with SweepJournal(path) as journal:
            journal.record("table1", 0, "ok", cache_key="k1")
        with open(path, "a") as fh:
            fh.write('{"task": "table5", "outcome": "ok", "cache')  # torn
        with pytest.warns(RuntimeWarning, match=r"j\.jsonl:2: .*torn write"):
            with SweepJournal(path) as journal:
                journal.record("table5", 1, "ok", cache_key="k5")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert SweepJournal.completed_tasks(path) == {
                "table1": "k1", "table5": "k5",
            }
        assert len(path.read_text().splitlines()) == 2

    def test_journal_append_after_lost_newline_keeps_the_record(self, tmp_path):
        """A complete last record that only lost its newline is kept and
        terminated, not cut."""
        path = tmp_path / "j.jsonl"
        with SweepJournal(path) as journal:
            journal.record("table1", 0, "ok", cache_key="k1")
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with SweepJournal(path) as journal:
                journal.record("table5", 0, "ok", cache_key="k5")
            assert SweepJournal.completed_tasks(path) == {
                "table1": "k1", "table5": "k5",
            }

    def test_journal_missing_is_empty_but_unreadable_raises(self, tmp_path):
        """No journal means nothing done; an unreadable one is an error,
        not a license to rerun every task."""
        assert SweepJournal.read_entries(tmp_path / "absent.jsonl") == []
        (tmp_path / "dir.jsonl").mkdir()
        with pytest.raises(IsADirectoryError):
            SweepJournal.read_entries(tmp_path / "dir.jsonl")


class TestIntraTaskRestore:
    def test_killed_worker_resumes_from_checkpoint(self, tmp_path):
        """A worker SIGKILLed mid-simulation resumes from its engine
        snapshot on retry (journaled ``restored``) and the final rows are
        bit-identical to an uninterrupted serial run."""
        scale = 0.25  # long enough (~2 s) that the timed kill lands mid-run
        serial = run_experiments(["table5"], scale=scale, seed=SEED)
        plan = ReproFaultPlan({
            "table5": FaultSpec(kind="kill", times=1, after_s=0.8),
        })
        cache = tmp_path / "cache"
        report = run_experiments(
            ["table5"], scale=scale, seed=SEED, parallel=True, jobs=1,
            cache_dir=str(cache),
            execution=ExecutionPolicy(
                retries=2, backoff_base_s=0.01, partial=True,
                checkpoint_dir=str(tmp_path / "ckpt"),
                checkpoint_wall_interval_s=0.05,
            ),
            fault_plan=plan,
        )
        assert report.ok, [f.detail for f in report.failures]
        assert report.restored == ["table5"]
        assert comparable_rows(report.outputs["table5"]) == comparable_rows(
            serial[0]
        )
        outcomes = {
            (e["task"], e["outcome"])
            for e in SweepJournal.read_entries(cache / JOURNAL_NAME)
        }
        assert ("table5", "restored") in outcomes
        assert ("table5", "ok") in outcomes
        # Success cleans the per-task snapshot lineage.
        assert not any((tmp_path / "ckpt").rglob("*.ckpt"))


class TestFaultsAreWorkerOnly:
    def test_serial_execution_ignores_fault_plan(self, serial_outputs):
        """Faults model *worker* failures; in-process runs are immune."""
        plan = ReproFaultPlan({"table1": FaultSpec(kind="raise", times=99)})
        with plan.installed():
            assert FAULT_PLAN_ENV  # plan visible to would-be children
            outs = run_experiments(["table1"], scale=SCALE, seed=SEED)
        assert comparable_rows(outs[0]) == comparable_rows(serial_outputs[0])
