"""Streaming workload feeds: parsers, generator, and analysis equivalence.

The streaming path (``iter_*`` generators, :class:`JobStream`) must be a
pure memory optimization: job for job, field for field, it yields exactly
what the materializing readers build — and the analysis functions must
produce bit-identical results when fed a one-shot generator instead of a
:class:`Trace`.
"""

import io

import numpy as np
import pytest

from repro.errors import ConfigurationError, TraceFormatError
from repro.units import WEEK
from repro.workload import (
    Grid5000WeekGenerator,
    JobStream,
    SyntheticConfig,
    Trace,
    demand_timeline,
    hourly_arrival_counts,
    iter_gwf,
    iter_swf,
    peak_demand,
    read_gwf,
    read_swf,
    runtime_histogram,
    stream_gwf,
    stream_swf,
    utilization_against,
    width_histogram,
)
from repro.workload.job import Job
from repro.workload.swf import write_swf


def job_key(job):
    return (job.job_id, job.submit_time, job.runtime_s, job.cpu_pct,
            job.mem_mb, job.deadline_factor, job.user)


@pytest.fixture
def swf_file(tmp_path):
    jobs = [
        Job(job_id=i, submit_time=60.0 * i, runtime_s=300.0 + 10 * i,
            cpu_pct=100.0 * (1 + i % 3), mem_mb=256.0, user=f"u{i % 4}")
        for i in range(1, 21)
    ]
    path = tmp_path / "log.swf"
    write_swf(Trace(jobs), path)
    return path


class TestStreamingParsers:
    def test_iter_swf_matches_read_swf(self, swf_file):
        streamed = [job_key(j) for j in iter_swf(swf_file)]
        materialized = [job_key(j) for j in read_swf(swf_file)]
        assert streamed == materialized
        assert len(streamed) == 20

    def test_iter_swf_max_jobs(self, swf_file):
        assert sum(1 for _ in iter_swf(swf_file, max_jobs=7)) == 7

    def test_max_jobs_caps_the_parse(self, swf_file):
        every = [job_key(j) for j in read_swf(swf_file)]
        assert [job_key(j) for j in iter_swf(swf_file, max_jobs=3)] == every[:3]
        assert list(iter_swf(swf_file, max_jobs=0)) == []

    def test_stream_swf_replays_identically(self, swf_file):
        stream = stream_swf(swf_file)
        first = [job_key(j) for j in stream]
        second = [job_key(j) for j in stream.fresh()]
        assert first == second == [job_key(j) for j in read_swf(swf_file)]

    def test_stream_rejects_file_handles(self, swf_file):
        with open(swf_file) as handle:
            with pytest.raises(ConfigurationError):
                stream_swf(handle)
        with pytest.raises(ConfigurationError):
            stream_gwf(io.StringIO(""))

    def test_iter_gwf_matches_read_gwf(self, tmp_path):
        lines = "\n".join(
            f"{i} {100.0 * i} -1 {600 + i} 2 -1 524288 0 0 0 0 {i % 3}"
            for i in range(1, 11)
        )
        path = tmp_path / "log.gwf"
        path.write_text("# comment\n" + lines + "\n")
        streamed = [job_key(j) for j in iter_gwf(path)]
        materialized = [job_key(j) for j in read_gwf(path)]
        assert streamed == materialized
        assert len(streamed) == 10

    def test_stream_order_check(self):
        def unordered():
            yield Job(job_id=1, submit_time=100.0, runtime_s=60.0,
                      cpu_pct=100.0, mem_mb=128.0)
            yield Job(job_id=2, submit_time=50.0, runtime_s=60.0,
                      cpu_pct=100.0, mem_mb=128.0)

        with pytest.raises(TraceFormatError):
            list(JobStream(unordered))


class TestStreamingGenerator:
    def test_iter_jobs_matches_generate(self):
        cfg = SyntheticConfig(horizon_s=WEEK / 14.0)
        materialized = Grid5000WeekGenerator(cfg, seed=42).generate()
        streamed = list(Grid5000WeekGenerator(cfg, seed=42).iter_jobs())
        assert len(streamed) == len(materialized)
        for a, b in zip(streamed, materialized):
            assert job_key(a) == job_key(b)
            assert a.deadline_factor == b.deadline_factor

    def test_iter_jobs_replays_after_generate(self):
        # iter_jobs derives a pristine stream family per call, so neither
        # a prior generate() nor a prior iteration perturbs it.
        gen = Grid5000WeekGenerator(SyntheticConfig(horizon_s=WEEK / 56.0),
                                    seed=7)
        gen.generate()
        first = [job_key(j) for j in gen.iter_jobs()]
        second = [job_key(j) for j in gen.stream()]
        assert first == second


class TestAnalysisOnGenerators:
    def _trace(self):
        cfg = SyntheticConfig(horizon_s=WEEK / 14.0)
        return Grid5000WeekGenerator(cfg, seed=11).generate()

    def _stream(self):
        cfg = SyntheticConfig(horizon_s=WEEK / 14.0)
        return Grid5000WeekGenerator(cfg, seed=11).iter_jobs()

    def test_demand_timeline_bit_identical_on_generator(self):
        t_ref, d_ref = demand_timeline(self._trace())
        t_gen, d_gen = demand_timeline(self._stream())
        assert np.array_equal(t_ref, t_gen)
        assert np.array_equal(d_ref, d_gen)

    def test_demand_timeline_empty(self):
        times, demand = demand_timeline(iter(()))
        assert times.size == 0 and demand.size == 0

    def test_other_analyses_accept_generators(self):
        trace = self._trace()
        assert peak_demand(self._stream()) == peak_demand(trace)
        assert utilization_against(self._stream(), 400.0) == pytest.approx(
            utilization_against(trace, 400.0)
        )
        assert np.array_equal(
            hourly_arrival_counts(self._stream()), hourly_arrival_counts(trace)
        )
        assert runtime_histogram(self._stream()) == runtime_histogram(trace)
        assert width_histogram(self._stream()) == width_histogram(trace)
