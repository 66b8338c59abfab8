"""The four benchmark workloads.

Every workload is a stream of *episodes*.  An episode is one complete
use of the system on inputs generated from ``(workload, seed, index)``:
a batch simulation run from engine construction to its result, or a
control-plane soak from the first admission to the drained result.
Set-up (input generation and engine construction) and the run are timed
separately by the caller; this module builds episodes and checks their
outputs.

All four run the score-matrix policy with the durability features a
production run turns on -- sim-time engine snapshots and a record log
(the engine's event trace for batch runs, the write-ahead decision
journal for the service) -- so every layer of the ledger does work in
every workload, in a different mix:

* ``paper``   -- the paper's 100-host datacenter on one synthetic
  Grid5000 day; the policy round (matrix bind + hill climb over queued
  and running VMs) dominates.
* ``fleet``   -- a 1000-host fleet fed by the streaming generator at ten
  times the paper's arrival rate; the persistent matrix's lazy rescoring,
  the share-solve memo and a large event heap are what scale.
* ``chaos``   -- the paper datacenter under operation faults with SLA and
  fault penalties on; retries, quarantines and SLA checks dirty more rows
  per round, so the matrix's cross-round reuse pays less.
* ``service`` -- the live control plane: every job admitted one by one
  through the asyncio queue, journaled before it touches the engine, and
  placed by a budgeted (anytime) hill climb.
"""

from __future__ import annotations

import json
import os
import shutil
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

from repro.cluster.faults import FaultConfig
from repro.cluster.spec import ClusterSpec
from repro.engine.config import EngineConfig
from repro.engine.datacenter import DatacenterSimulation
from repro.engine.results import SimulationResult
from repro.engine.tracing import TraceEventKind
from repro.experiments.common import lambda_config, paper_cluster
from repro.scheduling.score import ScoreConfig
from repro.scheduling.score.policy import ScoreBasedPolicy
from repro.service import (
    DecisionJournal,
    PlacementCore,
    ServiceConfig,
    ServiceEngine,
    replay_journal,
    serve_synthetic,
)
from repro.units import DAY, HOUR
from repro.workload.job import Job
from repro.workload.stream import JobStream
from repro.workload.synthetic import Grid5000WeekGenerator, SyntheticConfig
from repro.workload.trace import Trace

__all__ = ["WORKLOADS", "Episode", "Outcome", "episode_seed"]


@dataclass
class Outcome:
    """What one episode produced."""

    result: SimulationResult
    #: Jobs the episode submitted (the benchmark's attempted operations).
    jobs: int
    #: Jobs that did not complete, plus requests the service shed.
    failed: int
    #: Records written to the episode's record log.
    journal_records: int


@dataclass
class Episode:
    """A built episode: ``run`` is timed; ``check`` and ``cleanup`` are not."""

    run: Callable[[], Outcome]
    #: Problems with the outcome of ``run`` (empty when it is correct).
    check: Callable[[Outcome], List[str]]
    workdir: str

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def episode_seed(workload: str, seed: int, index: int) -> int:
    """Input seed of episode ``index`` of a run started with ``seed``."""
    return zlib.crc32(f"{workload}/{seed}/{index}".encode())


def _fleet(n_hosts: int) -> ClusterSpec:
    """The paper's host-class mix (15/50/35 % fast/medium/slow) at any size."""
    n_fast = round(n_hosts * 0.15)
    n_slow = round(n_hosts * 0.35)
    return ClusterSpec.paper_datacenter(
        n_fast=n_fast, n_medium=n_hosts - n_fast - n_slow, n_slow=n_slow
    )


class PlaceableJobs:
    """A synthetic job feed without the jobs no host could ever hold.

    The generator's log-normal memory draw occasionally exceeds every
    host's memory; the engine rightly rejects such a job, but a benchmark
    input should hold only requests that can succeed.  A zero-argument
    callable yielding fresh jobs, so it serves as a ``JobStream`` factory,
    and picklable, so engine snapshots can carry it.
    """

    def __init__(self, config: SyntheticConfig, seed: int, cluster: ClusterSpec) -> None:
        self.generator = Grid5000WeekGenerator(config, seed=seed)
        self.classes = sorted({(s.cpu_capacity, s.mem_mb) for s in cluster})

    def __call__(self) -> Iterator[Job]:
        for job in self.generator.iter_jobs():
            if any(job.cpu_pct <= cpu and job.mem_mb <= mem for cpu, mem in self.classes):
                yield job


def _durable(seed: int, workdir: str, snapshot_every_s: float, **kwargs) -> EngineConfig:
    """Engine config with snapshots and a lossless event trace."""
    return EngineConfig(
        seed=seed,
        checkpoint_dir=os.path.join(workdir, "snapshots"),
        checkpoint_sim_interval_s=snapshot_every_s,
        checkpoint_keep=1,
        **kwargs,
    )


def check_result(result: SimulationResult, jobs: int) -> List[str]:
    """Invariants every finished episode must satisfy."""
    problems = []
    if result.n_jobs != jobs:
        problems.append(f"result counts {result.n_jobs} jobs, {jobs} were submitted")
    if result.n_completed + result.n_failed != result.n_jobs:
        problems.append(
            f"{result.n_jobs - result.n_completed - result.n_failed} jobs "
            f"neither completed nor failed"
        )
    if not result.energy_kwh > 0:
        problems.append(f"energy {result.energy_kwh!r} kWh is not positive")
    if not 0.0 <= result.satisfaction <= 100.0:
        problems.append(f"satisfaction {result.satisfaction!r} outside [0, 100]")
    if result.checkpoints_written < 1:
        problems.append("no engine snapshot was written")
    return problems


# ------------------------------------------------------------------ batch


def _batch_episode(engine: DatacenterSimulation, jobs: Optional[int], workdir: str) -> Episode:
    """A batch run: simulate to the end, then write the event trace out."""

    def run() -> Outcome:
        result = engine.run()
        written = engine.trace_log.write_jsonl(os.path.join(workdir, "events.jsonl"))
        submitted = result.n_jobs if jobs is None else jobs
        return Outcome(result, submitted, submitted - result.n_completed, written)

    def check(outcome: Outcome) -> List[str]:
        problems = check_result(outcome.result, outcome.jobs)
        counts = engine.trace_log.counts()
        if counts.get("job_arrival", 0) != outcome.jobs:
            problems.append(
                f"event trace holds {counts.get('job_arrival', 0)} arrivals "
                f"for {outcome.jobs} jobs"
            )
        if counts.get("completion", 0) != outcome.result.n_completed:
            problems.append(
                f"event trace holds {counts.get('completion', 0)} completions, "
                f"result says {outcome.result.n_completed}"
            )
        return problems

    return Episode(run=run, check=check, workdir=workdir)


def _batch(
    seed: int,
    workdir: str,
    cluster: ClusterSpec,
    synthetic: SyntheticConfig,
    score: ScoreConfig,
    *,
    stream: bool = False,
    **engine_kwargs,
) -> Episode:
    """A batch run on a materialized trace, or on a streaming feed."""
    jobs = PlaceableJobs(synthetic, seed, cluster)
    trace = JobStream(jobs) if stream else Trace(jobs())
    engine = DatacenterSimulation(
        cluster=cluster,
        policy=ScoreBasedPolicy(score),
        trace=trace,
        pm_config=lambda_config(),
        config=_durable(
            seed, workdir, 6 * HOUR,
            trace_events=True, trace_capacity=None, **engine_kwargs,
        ),
    )
    # A stream's length is known only once it is consumed.
    return _batch_episode(engine, None if stream else len(trace), workdir)


def paper(seed: int, workdir: str) -> Episode:
    return _batch(
        seed, workdir, paper_cluster(), SyntheticConfig(horizon_s=DAY), ScoreConfig.sb()
    )


def fleet(seed: int, workdir: str) -> Episode:
    return _batch(
        seed,
        workdir,
        _fleet(1000),
        SyntheticConfig(horizon_s=10 * HOUR, base_rate_per_hour=450.0),
        ScoreConfig.sb(),
        stream=True,
    )


def chaos(seed: int, workdir: str) -> Episode:
    return _batch(
        seed,
        workdir,
        paper_cluster(),
        SyntheticConfig(horizon_s=DAY),
        ScoreConfig.full(use_observed_reliability=True),
        faults=FaultConfig.uniform(0.08),
        observed_reliability=True,
    )


# ---------------------------------------------------------------- service

#: Control-plane settings shared by the soak and its replay.
_SERVICE = ServiceConfig(round_budget=4, request_deadline_ms=None)


def _service_engine(seed: int, workdir: Optional[str]) -> DatacenterSimulation:
    # The drain window outlasts the longest job (24 h), so every admitted
    # job completes.
    config = (
        _durable(seed, workdir, 2 * HOUR, drain_grace_s=2 * DAY)
        if workdir is not None
        else EngineConfig(seed=seed, drain_grace_s=2 * DAY)
    )
    return DatacenterSimulation(
        cluster=paper_cluster(),
        policy=ScoreBasedPolicy(ScoreConfig.sb()),
        trace=None,
        pm_config=lambda_config(),
        config=config,
    )


def audit_journal(path: str, jobs: int) -> List[str]:
    """Every admission journaled once, and decided once, in order."""
    admits: List[int] = []
    decisions: List[int] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record["kind"] == TraceEventKind.SVC_ADMIT.value:
                admits.append(json.loads(record["detail"])["seq"])
            elif record["kind"] == TraceEventKind.SVC_DECISION.value:
                decisions.append(json.loads(record["detail"])["seq"])
    problems = []
    if admits != list(range(jobs)):
        problems.append(f"journal admissions are not exactly 0..{jobs - 1}")
    if decisions != list(range(jobs)):
        problems.append(f"journal decisions are not exactly 0..{jobs - 1}")
    return problems


def service(seed: int, workdir: str) -> Episode:
    synthetic = SyntheticConfig(
        horizon_s=10 * HOUR, base_rate_per_hour=80.0, night_fraction=0.9
    )
    jobs = list(PlaceableJobs(synthetic, seed, paper_cluster())())
    engine = _service_engine(seed, workdir)
    journal_path = os.path.join(workdir, "journal.jsonl")
    journal = DecisionJournal(journal_path)
    svc = ServiceEngine(
        engine,
        PlacementCore(engine.policy, round_budget=_SERVICE.round_budget),
        journal,
        max_retries=_SERVICE.max_retries,
        retry_base_s=_SERVICE.retry_base_s,
    )

    def run() -> Outcome:
        result, stats = serve_synthetic(svc, jobs, _SERVICE)
        failed = len(jobs) - result.n_completed + stats["sheds"]
        return Outcome(result, len(jobs), failed, journal.written)

    def check(outcome: Outcome) -> List[str]:
        return check_result(outcome.result, outcome.jobs) + audit_journal(
            journal_path, outcome.jobs
        )

    return Episode(run=run, check=check, workdir=workdir)


def replay_service(seed: int, workdir: str, live: SimulationResult) -> List[str]:
    """Re-run a soak's journal through a fresh engine; it must match live."""
    report = replay_journal(
        os.path.join(workdir, "journal.jsonl"),
        lambda: _service_engine(seed, None),
        max_retries=_SERVICE.max_retries,
        retry_base_s=_SERVICE.retry_base_s,
    )
    problems = list(report.mismatches)
    if report.result.canonical() != live.canonical():
        problems.append("journal replay diverged from the live result")
    return problems


#: Workload name -> episode builder ``(input seed, work directory)``.
WORKLOADS: Dict[str, Callable[[int, str], Episode]] = {
    "paper": paper,
    "fleet": fleet,
    "chaos": chaos,
    "service": service,
}
