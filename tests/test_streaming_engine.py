"""One workload feed: a stream and a materialized trace run alike.

Both inputs go through the same chained-arrival path, so a
:class:`JobStream` run must be *event-for-event* the same simulation as
the equivalent :class:`Trace` run — same placements, same migrations, same
energy integral, same SLA statistics, same event count, also when jobs
outlive the drain horizon (both stop at the horizon-guard event).  What
the stream buys is memory: its VM registry holds only live jobs, retired
ones compact to four scalars each.
"""

import dataclasses
import itertools
import operator
import random

import numpy as np
import pytest

from repro.cluster.faults import FaultConfig
from repro.engine.config import EngineConfig
from repro.engine.datacenter import DatacenterSimulation, simulate
from repro.experiments.common import DEFAULT_SEED, lambda_config, paper_cluster
from repro.scheduling.score import ScoreConfig
from repro.scheduling.score.policy import ScoreBasedPolicy
from repro.units import DAY, WEEK
from repro.workload.synthetic import Grid5000WeekGenerator, SyntheticConfig
from repro.workload.trace import Trace

ROW_FIELDS = (
    "energy_kwh",
    "cpu_hours",
    "avg_working",
    "avg_online",
    "migrations",
    "creations",
    "n_jobs",
    "n_completed",
    "n_failed",
    "satisfaction",
    "delay_pct",
    "mean_wait_s",
    "p95_wait_s",
    "sla_violations",
    "rejected_actions",
)

CFG = SyntheticConfig(horizon_s=WEEK / 14.0)


def run(workload, **engine_kw):
    return simulate(
        cluster=paper_cluster(),
        policy=ScoreBasedPolicy(ScoreConfig.sb()),
        trace=workload,
        pm_config=lambda_config(),
        config=EngineConfig(seed=DEFAULT_SEED, **engine_kw),
    )


def rows(res):
    return {f: getattr(res, f) for f in ROW_FIELDS}


class TestStreamEqualsTrace:
    def test_full_drain_bit_identical(self):
        gen = Grid5000WeekGenerator(CFG, seed=DEFAULT_SEED)
        materialized = run(gen.generate())
        streamed = run(gen.stream())
        assert rows(streamed) == rows(materialized)
        # Full drain: the last completion stops both loops; the streaming
        # horizon guard never fires, so even the event count matches.
        assert streamed.sim_events == materialized.sim_events

    def test_horizon_overrun_bit_identical(self):
        # A tiny drain grace leaves jobs running at the horizon in both
        # modes; both stop at the same horizon-guard event.
        gen = Grid5000WeekGenerator(CFG, seed=DEFAULT_SEED)
        materialized = run(gen.generate(), drain_grace_s=600.0)
        streamed = run(gen.stream(), drain_grace_s=600.0)
        assert materialized.n_completed < materialized.n_jobs
        assert rows(streamed) == rows(materialized)
        assert streamed.sim_events == materialized.sim_events
        assert streamed.horizon_s == materialized.horizon_s

    def test_strict_invariants_hold_in_streaming_mode(self):
        gen = Grid5000WeekGenerator(
            SyntheticConfig(horizon_s=DAY / 4.0), seed=DEFAULT_SEED
        )
        res = run(gen.stream(), strict_invariants=True)
        assert res.invariant_checks > 0
        assert res.invariant_resyncs == 0


class TestStreamingMemory:
    def test_registry_prunes_to_live_set(self):
        gen = Grid5000WeekGenerator(CFG, seed=DEFAULT_SEED)
        sim = DatacenterSimulation(
            cluster=paper_cluster(),
            policy=ScoreBasedPolicy(ScoreConfig.sb()),
            trace=gen.stream(),
            pm_config=lambda_config(),
            config=EngineConfig(seed=DEFAULT_SEED),
        )
        res = sim.run()
        # Every retired job compacts to four scalars; the Vm registry
        # holds only jobs still live at the end (none, after full drain).
        assert len(sim.vms) == 0
        assert len(sim._ret_seq) == res.n_jobs
        assert res.n_jobs > 0

    def test_trace_mode_keeps_registry(self):
        gen = Grid5000WeekGenerator(CFG, seed=DEFAULT_SEED)
        sim = DatacenterSimulation(
            cluster=paper_cluster(),
            policy=ScoreBasedPolicy(ScoreConfig.sb()),
            trace=gen.generate(),
            pm_config=lambda_config(),
            config=EngineConfig(seed=DEFAULT_SEED),
        )
        res = sim.run()
        # Materialized runs keep per-job records (job_records & tests
        # depend on them) — retirement compaction is streaming-only.
        assert len(sim.vms) == res.n_jobs


class TestFoldInputContract:
    @pytest.mark.parametrize("kind", ["trace", "stream"])
    def test_retired_and_live_partition_the_arrivals(self, kind):
        # The one result fold reads retired VMs from the _ret_* arrays and
        # the rest from _live.  With failed creations parking VMs and a
        # short drain grace leaving jobs in the system, the two must be
        # disjoint and together hold every VM that arrived, each under
        # its own arrival index.
        gen = Grid5000WeekGenerator(CFG, seed=DEFAULT_SEED)
        workload = gen.generate() if kind == "trace" else gen.stream()
        sim = DatacenterSimulation(
            cluster=paper_cluster(),
            policy=ScoreBasedPolicy(ScoreConfig.sb()),
            trace=workload,
            pm_config=lambda_config(),
            config=EngineConfig(
                seed=DEFAULT_SEED,
                drain_grace_s=600.0,
                faults=FaultConfig(creation_failure_p=0.3),
            ),
        )
        res = sim.run()
        assert res.failed_creations > 0
        retired = list(sim._ret_seq)
        live = [vm.arrival_seq for vm in sim._live.values()]
        assert retired and live
        assert sorted(retired + live) == list(range(sim._n_arrived))
        if kind == "trace":
            pulled = len(workload) - operator.length_hint(sim._job_iter)
        else:
            pulled = sim._job_iter.pulled
        arrived = [job.job_id for job in itertools.islice(workload, pulled)]
        if sim._pending_arrival is not None:
            arrived.remove(sim._pending_arrival.job_id)
        assert sim._n_arrived == len(arrived)
        if kind == "trace":
            assert [vm.vm_id for vm in sim.vms.values()] == arrived
            assert [vm.arrival_seq for vm in sim.vms.values()] == list(
                range(len(arrived))
            )

    def test_fold_averages_in_arrival_order_whatever_the_ids(self):
        # Job ids that do not rise with submit time: the fold must still
        # average in arrival order, exactly as a walk over a trace run's
        # registry (insertion order = arrival order) does.
        base = Grid5000WeekGenerator(CFG, seed=DEFAULT_SEED).generate()
        ids = list(range(len(base)))
        random.Random(5).shuffle(ids)
        trace = Trace(
            dataclasses.replace(job, job_id=new_id)
            for job, new_id in zip(base, ids)
        )
        sim = DatacenterSimulation(
            cluster=paper_cluster(),
            policy=ScoreBasedPolicy(ScoreConfig.sb()),
            trace=trace,
            pm_config=lambda_config(),
            config=EngineConfig(seed=DEFAULT_SEED, drain_grace_s=600.0),
        )
        res = sim.run()
        jobs = [vm.job for vm in sim.vms.values()]
        assert res.n_completed < res.n_jobs == len(jobs)
        sats = [j.satisfaction() for j in jobs]
        delays = [j.delay_pct() for j in jobs]
        assert res.satisfaction == float(np.mean(sats))
        assert res.delay_pct == float(np.mean(delays))


class TestStreamingEdgeCases:
    def test_empty_stream_raises(self):
        from repro.errors import ConfigurationError
        from repro.workload.stream import JobStream

        with pytest.raises(ConfigurationError):
            run(JobStream(lambda: iter(())))

    def test_unplaceable_streamed_job_fails_and_retires(self):
        from repro.workload.job import Job
        from repro.workload.stream import JobStream

        def jobs():
            yield Job(job_id=1, submit_time=0.0, runtime_s=600.0,
                      cpu_pct=100.0, mem_mb=256.0)
            # No host has 10**6 % CPU: rejected at arrival.
            yield Job(job_id=2, submit_time=60.0, runtime_s=600.0,
                      cpu_pct=1e6, mem_mb=256.0)

        res = run(JobStream(jobs))
        assert res.n_jobs == 2
        assert res.n_completed == 1
        assert res.n_failed == 1
