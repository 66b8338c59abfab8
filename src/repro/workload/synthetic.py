"""Synthetic Grid5000-like workload generator.

The paper evaluates on one week of the Grid5000 trace (Grid Workloads
Archive, week of Monday 2007-10-01) — not redistributable here, so per
DESIGN.md §4 this module generates a statistically equivalent week:

* **Arrivals** follow a non-homogeneous Poisson process with a diurnal
  cycle (day ≫ night) and a weekday/weekend cycle, simulated by thinning.
* **Runtimes** are log-normal — the canonical HPC runtime distribution —
  with a heavier tail for the batch-user class.
* **Widths** (cores per job) concentrate on 1 core with a tail to the host
  width, matching Grid5000's dominant single-node usage.
* **Memory** is per-core with moderate spread, so CPU stays the binding
  resource, as in the paper's occupation example (§III-A-2).
* **Users** come from a Zipf-like popularity distribution, feeding the
  per-user deadline typology of :mod:`repro.workload.deadlines`.

The default configuration is calibrated so a generated week carries about
6 000 CPU·hours — the paper's tables report CPU(h) ≈ 6 055 for the week —
with an average concurrent demand of ~36 cores against a 400-core
datacenter, which is what makes consolidation (and therefore the paper's
entire evaluation) meaningful.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from repro.des.random import RandomStreams
from repro.errors import ConfigurationError
from repro.units import DAY, HOUR, WEEK
from repro.workload.deadlines import DeadlinePolicy
from repro.workload.job import Job
from repro.workload.stream import JobStream, ResumableJobs
from repro.workload.trace import Trace

__all__ = ["SyntheticConfig", "SyntheticJobs", "Grid5000WeekGenerator"]


@dataclass(frozen=True)
class SyntheticConfig:
    """Tunable parameters of the synthetic workload.

    The defaults reproduce the paper's demand level; tests and benches
    shrink ``horizon_s`` / ``base_rate_per_hour`` for speed.
    """

    #: Total generated time span in seconds (defaults to one week).
    horizon_s: float = WEEK
    #: Mean arrival rate at the diurnal peak, in jobs per hour.
    base_rate_per_hour: float = 45.0
    #: Night-time rate as a fraction of the peak rate.
    night_fraction: float = 0.04
    #: Weekend rate as a fraction of the weekday rate.
    weekend_fraction: float = 0.35
    #: Log-normal runtime: median in seconds and sigma of log-runtime.
    runtime_median_s: float = 1500.0
    runtime_sigma: float = 1.3
    #: Minimum and maximum job runtime (seconds).
    runtime_min_s: float = 120.0
    runtime_max_s: float = 24 * HOUR
    #: Discrete distribution of job widths in cores: (width, probability).
    width_pmf: Tuple[Tuple[int, float], ...] = ((1, 0.50), (2, 0.30), (3, 0.10), (4, 0.10))
    #: Mean memory per core in MB, and its log-normal sigma.
    mem_per_core_mb: float = 256.0
    mem_sigma: float = 0.4
    #: Diurnal profile: "plateau" sustains the peak rate through working
    #: hours (Grid5000's daytime usage is long-plateaued, not a narrow
    #: spike); "cosine" is a smooth raised-cosine alternative.
    diurnal_shape: str = "plateau"
    #: Number of distinct users and Zipf exponent of their activity.
    n_users: int = 40
    user_zipf_a: float = 1.4
    #: Deadline factor range (paper: 1.2 to 2).
    deadline_lo: float = 1.2
    deadline_hi: float = 2.0
    #: First job id to assign.
    first_job_id: int = 1

    def __post_init__(self) -> None:
        # `nan <= 0` is False, so a plain sign check would let NaN (and
        # +inf) through into the arrival-thinning loop, which then never
        # reaches its horizon.
        if not math.isfinite(self.horizon_s) or self.horizon_s <= 0:
            raise ConfigurationError("horizon must be finite and positive")
        if not math.isfinite(self.base_rate_per_hour) or self.base_rate_per_hour <= 0:
            raise ConfigurationError("arrival rate must be finite and positive")
        if not 0 < self.night_fraction <= 1 or not 0 < self.weekend_fraction <= 1:
            raise ConfigurationError("rate fractions must be in (0, 1]")
        total_p = sum(p for _, p in self.width_pmf)
        if abs(total_p - 1.0) > 1e-9:
            raise ConfigurationError(f"width pmf must sum to 1, sums to {total_p}")
        if any(w <= 0 for w, _ in self.width_pmf):
            raise ConfigurationError("job widths must be positive")
        if self.runtime_min_s <= 0 or self.runtime_max_s < self.runtime_min_s:
            raise ConfigurationError("invalid runtime bounds")
        if self.diurnal_shape not in ("plateau", "cosine"):
            raise ConfigurationError(
                f"unknown diurnal shape {self.diurnal_shape!r}"
            )


def _rate_function(cfg: SyntheticConfig) -> Callable[[float], float]:
    """``cfg``'s arrival-rate profile, constants bound once.

    See :meth:`Grid5000WeekGenerator.rate_at` for the shape.
    """
    base = cfg.base_rate_per_hour
    night = cfg.night_fraction
    weekend = cfg.weekend_fraction
    plateau = cfg.diurnal_shape == "plateau"

    def rate_at(t: float) -> float:
        day = int(t // DAY) % 7
        hour_of_day = (t % DAY) / HOUR
        if plateau:
            if 10.0 <= hour_of_day < 20.0:
                diurnal = 1.0
            elif 7.0 <= hour_of_day < 10.0:
                diurnal = (hour_of_day - 7.0) / 3.0
            elif 20.0 <= hour_of_day < 23.0:
                diurnal = 1.0 - (hour_of_day - 20.0) / 3.0
            else:
                diurnal = 0.0
        else:
            # Raised cosine: peak 1.0 at 15:00, trough at 03:00.
            diurnal = 0.5 * (1.0 + np.cos(2 * np.pi * (hour_of_day - 15.0) / 24.0))
        level = night + (1.0 - night) * diurnal
        if day >= 5:  # Saturday=5, Sunday=6
            level *= weekend
        return base * level

    return rate_at


class SyntheticJobs(ResumableJobs):
    """The synthetic workload as a resumable iterator of jobs.

    Arrivals are a non-homogeneous Poisson process simulated by thinning
    (candidates at the peak rate, each kept with probability
    ``rate_at(t) / peak``); each kept arrival draws its width, runtime,
    memory and user, in that order, from a second stream.  The two
    streams are the root seed's ``"workload.arrivals"`` and
    ``"workload.attrs"``, so the attribute draws never shift the arrival
    sequence.  Deadline factors are a pure function of user and runtime
    (:meth:`~repro.workload.deadlines.DeadlinePolicy.factor_for`).

    The whole state is the two numpy generators, the clock ``t`` and the
    next job id; everything else derives from the config, so a pickle
    taken mid-stream resumes in O(1).
    """

    def __init__(self, config: SyntheticConfig, seed: int) -> None:
        streams = RandomStreams(seed=seed)
        self.__setstate__(
            {
                "config": config,
                "_arrivals": streams.get("workload.arrivals"),
                "_attrs": streams.get("workload.attrs"),
                "_t": 0.0,
                "_job_id": config.first_job_id,
            }
        )

    def __getstate__(self) -> dict:
        return {
            key: self.__dict__[key]
            for key in ("config", "_arrivals", "_attrs", "_t", "_job_id")
        }

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        cfg = self.config
        self._rate_at = _rate_function(cfg)
        self._base = cfg.base_rate_per_hour
        self._gap = 1.0 / (cfg.base_rate_per_hour / HOUR)  # mean at peak rate
        self._horizon = cfg.horizon_s
        self._widths = [w for w, _ in cfg.width_pmf]
        # Inverse-CDF width draw: numpy's ``choice(p=...)`` builds this
        # exact table and bisects one ``random()`` draw into it.
        cdf = np.cumsum([p for _, p in cfg.width_pmf])
        self._cdf = (cdf / cdf[-1]).tolist()
        # lognormal(mean=mu, sigma=s) is exp(mu + s * standard_normal()).
        self._runtime_mu = float(np.log(cfg.runtime_median_s))
        self._runtime_lo = float(cfg.runtime_min_s)
        self._runtime_hi = float(cfg.runtime_max_s)
        self._mem_mu = float(np.log(cfg.mem_per_core_mb))
        self._users = [f"u{u}" for u in range(cfg.n_users + 1)]
        self._factor = DeadlinePolicy(cfg.deadline_lo, cfg.deadline_hi).factor_for

    def __next__(self) -> Job:
        cfg = self.config
        arrivals = self._arrivals
        t = self._t
        while True:
            t += arrivals.exponential(self._gap)
            if t >= self._horizon:
                self._t = t
                raise StopIteration
            if arrivals.random() < self._rate_at(t) / self._base:
                break
        self._t = t

        rng = self._attrs
        cores = self._widths[bisect_right(self._cdf, rng.random())]
        runtime = math.exp(self._runtime_mu + cfg.runtime_sigma * rng.standard_normal())
        runtime = min(max(runtime, self._runtime_lo), self._runtime_hi)
        mem_mb = math.exp(self._mem_mu + cfg.mem_sigma * rng.standard_normal()) * cores
        # Zipf over a finite user population: rejection on the support.
        while True:
            u = rng.zipf(cfg.user_zipf_a)
            if u <= cfg.n_users:
                break
        user = self._users[u]
        job_id = self._job_id
        self._job_id = job_id + 1
        return Job(
            job_id=job_id,
            submit_time=t,
            runtime_s=runtime,
            cpu_pct=cores * 100.0,
            mem_mb=mem_mb,
            deadline_factor=self._factor(user, runtime),
            user=user,
        )


class Grid5000WeekGenerator:
    """Generates a deterministic synthetic week of Grid5000-like load.

    Parameters
    ----------
    config:
        Statistical knobs; defaults reproduce the paper's demand.
    seed:
        Root seed. The paper's experiments use ``seed=20071001`` (the
        Monday the real trace week starts on).

    Examples
    --------
    >>> trace = Grid5000WeekGenerator(seed=1).generate()
    >>> 500 < len(trace) < 5000
    True
    """

    def __init__(self, config: SyntheticConfig | None = None, seed: int = 20071001) -> None:
        self.config = config or SyntheticConfig()
        self.seed = int(seed)
        # Fail at construction, not at the first job, on a bad deadline range.
        DeadlinePolicy(self.config.deadline_lo, self.config.deadline_hi)

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate (jobs/hour) at time ``t``.

        ``t = 0`` is midnight on a Monday.  The default profile sustains
        the peak rate through working hours (ramp up 07–10h, plateau
        10–20h, ramp down 20–23h), floored at ``night_fraction`` — a
        grid's daytime load is a long plateau, not a narrow spike.
        Saturday and Sunday are scaled by ``weekend_fraction``.
        """
        return _rate_function(self.config)(t)

    def iter_jobs(self) -> SyntheticJobs:
        """The workload one job at a time, never holding a job list.

        Each call starts a pristine :class:`SyntheticJobs` from the root
        seed, so the feed replays identically however often it is
        invoked (which makes this a valid
        :class:`~repro.workload.stream.JobStream` factory), and the
        iterator pickles its position, so a stream snapshot taken
        mid-feed resumes without replaying the consumed prefix.
        """
        return SyntheticJobs(self.config, self.seed)

    def generate(self) -> Trace:
        """The full trace; every call returns the same jobs."""
        return Trace(list(self.iter_jobs()))

    def stream(self) -> JobStream:
        """The workload as a re-playable streaming feed (O(1) memory)."""
        return JobStream(self.iter_jobs)
