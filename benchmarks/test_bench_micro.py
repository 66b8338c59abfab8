"""Microbenchmarks of the hot paths.

The HPC guides' rule: profile the bottleneck, then optimize it.  These
benches pin the cost of the two hottest components — score-matrix
construction + hill climbing, and the engine's event loop — so a
performance regression in either is caught at review time.
"""

import itertools
from functools import partial

import pytest

from repro.cluster.host import Host, HostState
from repro.cluster.spec import ClusterSpec, HostSpec, MEDIUM
from repro.cluster.vm import Vm, VmState
from repro.des.simulator import Simulator
from repro.engine.config import EngineConfig
from repro.engine.datacenter import simulate
from repro.scheduling.baselines import BackfillingPolicy
from repro.scheduling.score import ScoreConfig, ScoreMatrixBuilder, hill_climb
from repro.scheduling.score.persistent import PersistentScoreMatrix
from repro.scheduling.score.policy import ScoreBasedPolicy
from repro.workload.job import Job
from repro.workload.synthetic import Grid5000WeekGenerator, SyntheticConfig
from repro.units import DAY

#: The host every timed single-arrival round must choose.
HOST_OF_ARRIVAL = 2


def _state(n_hosts: int, n_vms: int):
    hosts = [Host(HostSpec(host_id=i), initial_state=HostState.ON)
             for i in range(n_hosts)]
    vms = []
    for j in range(n_vms):
        job = Job(job_id=j + 1, submit_time=0.0, runtime_s=3600.0,
                  cpu_pct=100.0, mem_mb=512.0)
        vm = Vm(job)
        if j % 2 == 0:  # half placed, half queued
            host = hosts[j % n_hosts]
            if host.fits(vm):
                vm.state = VmState.RUNNING
                host.add_vm(vm)
        vms.append(vm)
    return hosts, vms


class TestBenchScoreMatrix:
    @pytest.mark.parametrize("n_hosts,n_vms", [(100, 50), (100, 200)])
    def test_matrix_build(self, benchmark, n_hosts, n_vms):
        hosts, vms = _state(n_hosts, n_vms)
        config = ScoreConfig.sb()

        def build():
            return ScoreMatrixBuilder(hosts, vms, 0.0, config)

        builder = benchmark(build)
        assert builder.scores.shape == (n_hosts, n_vms)

    def test_hill_climb_round(self, benchmark):
        hosts, vms = _state(100, 100)
        config = ScoreConfig.sb()

        def solve():
            builder = ScoreMatrixBuilder(hosts, vms, 0.0, config)
            return hill_climb(builder)

        moves = benchmark(solve)
        assert moves  # queued VMs must get placed

    def test_single_arrival_round(self, benchmark):
        """Bind + climb of one newly arrived VM on a long-lived matrix.

        Most rounds of a paper-datacenter run look like this: one queued
        arrival, nothing else, placed in one move.  Every timed round must
        pick the same host — the climb's moves are hypothetical, so the
        next bind restores the cluster exactly.
        """
        hosts = [Host(spec, initial_state=HostState.ON)
                 for spec in ClusterSpec.paper_datacenter()]
        ids = itertools.count(1)

        def new_vm(cpu):
            return Vm(Job(job_id=next(ids), submit_time=0.0, runtime_s=3600.0,
                          cpu_pct=cpu, mem_mb=1024.0))

        for i, host in enumerate(hosts):  # steady state: 0-3 VMs per host
            for _ in range(i % 4):
                vm = new_vm(100.0)
                vm.state = VmState.RUNNING
                host.add_vm(vm)
        matrix = PersistentScoreMatrix(hosts, ScoreConfig.sb())
        matrix.attach()
        chosen = set()

        def one_round():
            vm = new_vm(200.0)
            matrix.bind_round([vm], 0.0)
            moves = hill_climb(matrix)
            vm.state = VmState.COMPLETED  # retired: the registry recycles its slot
            chosen.add(tuple((m.host_id, m.from_queue) for m in moves))
            return moves

        benchmark(one_round)
        assert chosen == {((HOST_OF_ARRIVAL, True),)}


class TestBenchEngine:
    def test_engine_throughput_one_day(self, benchmark):
        """Events/second of a one-day, 100-node, score-based run."""
        trace = Grid5000WeekGenerator(
            SyntheticConfig(horizon_s=DAY), seed=3
        ).generate()
        cluster = ClusterSpec.paper_datacenter()

        def run():
            return simulate(
                cluster,
                ScoreBasedPolicy(ScoreConfig.sb()),
                trace,
                config=EngineConfig(seed=3),
            )

        result = benchmark.pedantic(run, rounds=1, iterations=1)
        assert result.n_completed == result.n_jobs
        assert result.sim_events > 1000

    def test_engine_throughput_backfilling(self, benchmark):
        trace = Grid5000WeekGenerator(
            SyntheticConfig(horizon_s=DAY), seed=3
        ).generate()
        cluster = ClusterSpec.paper_datacenter()

        def run():
            return simulate(
                cluster, BackfillingPolicy(), trace, config=EngineConfig(seed=3)
            )

        result = benchmark.pedantic(run, rounds=1, iterations=1)
        assert result.n_completed == result.n_jobs


#: Events the churn bench schedules up front; half of them are cancelled
#: and rescheduled, so ~50k heap entries pass through the loop.
CHURN_EVENTS = 25_000


def _order_checksum(tags) -> int:
    """Polynomial hash of a fired sequence: any reordering changes it."""
    h = 0
    for tag in tags:
        h = (h * 1_000_003 + tag) % (2**61 - 1)
    return h


class TestBenchEventLoop:
    def test_event_churn(self, benchmark):
        """Schedule, cancel and reschedule through the DES heap: the
        engine's completion-handle pattern at kernel level.

        Every even event is cancelled and pushed again later through
        ``at_many`` in batches of five, as a dirty sweep does.  The timed
        run must fire exactly ``CHURN_EVENTS`` events in
        ``(time, priority, seq)`` order.
        """
        n = CHURN_EVENTS
        first = [(i * 7919) % 1000 * 0.5 for i in range(n)]
        # Reference order from the keys alone: (time, priority, seq).
        keys = {i: (first[i], i % 3, i) for i in range(n)}
        seq = n
        for start in range(0, n, 10):
            for i in range(start, min(start + 10, n), 2):
                keys[i] = (keys[i][0] + 0.25, 0, seq)
                seq += 1
        expected = sorted(keys, key=keys.__getitem__)

        def churn():
            sim = Simulator()
            fired = []
            record = fired.append
            handles = [
                sim.at(first[i], partial(record, i), priority=i % 3)
                for i in range(n)
            ]
            for start in range(0, n, 10):
                batch = range(start, min(start + 10, n), 2)
                for i in batch:
                    handles[i].cancel()
                sim.at_many([keys[i][0] for i in batch],
                            [partial(record, i) for i in batch])
            sim.run()
            return sim, fired

        sim, fired = benchmark(churn)
        assert len(fired) == sim.events_processed == n
        assert sim.pending == 0
        assert _order_checksum(fired) == _order_checksum(expected)


class TestBenchWorkload:
    def test_trace_generation_week(self, benchmark):
        def gen():
            return Grid5000WeekGenerator(seed=20071001).generate()

        trace = benchmark(gen)
        assert len(trace) > 1000
