"""Differential harness for the engine's memoized share refresh.

Three layers of proof that skipping work never changes results:

* kernel level — the completion events the engine's reschedule sweep
  leaves live carry :meth:`Vm.eta` clamped to ``now``, with sequence
  numbers in (sorted host, residency) order whether re-keyed or pushed,
  and :meth:`Simulator.at_many` versus per-item
  :meth:`Simulator.at` (same fired order on both heap paths);
* memo level — :class:`ShareMemo` hits return the exact solution, and a
  share problem seen twice in one dirty sweep is solved once;
* engine level — whole simulations with the default share memo and with
  :class:`NoReuseShareMemo` (every share problem goes through
  :func:`compute_shares`) must produce equal
  ``SimulationResult.canonical()`` rows and event traces, chaos,
  quarantine and the power manager included.

Plus the water-filling fairness properties of :func:`compute_shares`
(conservation, cap respect, weight monotonicity, permutation
equivariance) and its degenerate-input hardening: NaN/inf rejection,
weight-sum overflow, empty demand.
"""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster.faults import FaultConfig
from repro.cluster.host import HostState
from repro.cluster.spec import ClusterSpec
from repro.cluster.vm import Vm, VmState
from repro.cluster import host as host_module
from repro.cluster.xen import ShareMemo, compute_shares
from repro.des.simulator import Simulator
from repro.engine.config import EngineConfig
from repro.engine.datacenter import DatacenterSimulation
from repro.errors import ConfigurationError, SimulationError
from repro.scheduling.power_manager import PowerManagerConfig
from repro.scheduling.score import ScoreConfig
from repro.scheduling.score.policy import ScoreBasedPolicy
from repro.units import HOUR
from repro.workload.job import Job
from repro.workload.synthetic import Grid5000WeekGenerator, SyntheticConfig

# --------------------------------------------------------------- strategies

#: Domain caps spanning idle (0) through several hosts' worth of demand,
#: plus awkward magnitudes that stress the water-filling rounding.
_cap = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=500.0),
    st.floats(min_value=1e-9, max_value=1e-3),
)
_weight = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=10.0),
)
_capacity = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-14, max_value=1e-6),
    st.floats(min_value=1.0, max_value=1600.0),
)


@st.composite
def share_problem(draw, max_domains=12):
    """One host's (capacity, caps, weights-or-None) share problem."""
    caps = draw(st.lists(_cap, min_size=0, max_size=max_domains))
    weights = draw(
        st.one_of(
            st.none(),
            st.lists(_weight, min_size=len(caps), max_size=len(caps)),
        )
    )
    return draw(_capacity), caps, weights


# --------------------------------------------------------- fairness laws


class TestWaterFillingProperties:
    @settings(max_examples=200, deadline=None)
    @given(problem=share_problem())
    def test_conservation_and_cap_respect(self, problem):
        capacity, caps, weights = problem
        shares = compute_shares(capacity, caps, weights)
        caps_arr = np.asarray(caps, dtype=float)
        assert np.all(shares >= 0.0)
        assert np.all(shares <= caps_arr + 1e-9)
        demand = float(caps_arr.sum()) if caps else 0.0
        total = float(shares.sum()) if caps else 0.0
        assert total <= max(capacity, demand) + 1e-6
        if demand <= capacity:
            # Uncontended: everyone gets exactly their cap.
            assert np.array_equal(shares, caps_arr)

    @settings(max_examples=100, deadline=None)
    @given(
        caps=st.lists(
            st.floats(min_value=1.0, max_value=400.0), min_size=2, max_size=8
        ),
        weights=st.lists(
            st.floats(min_value=0.1, max_value=10.0), min_size=2, max_size=8
        ),
        index=st.integers(min_value=0, max_value=7),
        bump=st.floats(min_value=1.1, max_value=5.0),
    )
    def test_weight_monotonicity(self, caps, weights, index, bump):
        """Raising one domain's weight never shrinks its share."""
        n = min(len(caps), len(weights))
        caps, weights = caps[:n], weights[:n]
        index %= n
        before = compute_shares(300.0, caps, weights)[index]
        raised = list(weights)
        raised[index] *= bump
        after = compute_shares(300.0, caps, raised)[index]
        assert after >= before - 1e-6 * max(1.0, before)

    @settings(max_examples=100, deadline=None)
    @given(
        caps=st.lists(
            st.floats(min_value=0.0, max_value=400.0), min_size=1, max_size=8
        ),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_permutation_equivariance(self, caps, seed):
        """Shuffling domains shuffles shares — mathematically.

        Only approximately in floating point: the water-filling sums are
        order-dependent, which is exactly why :class:`ShareMemo` keys on
        the ordered tuple.
        """
        perm = np.random.RandomState(seed).permutation(len(caps))
        base = compute_shares(200.0, caps)
        shuffled = compute_shares(200.0, [caps[i] for i in perm])
        np.testing.assert_allclose(
            shuffled, base[perm], rtol=1e-9, atol=1e-9
        )


# ----------------------------------------------------------- edge cases


class TestDegenerateInputs:
    def test_all_zero_weights_fall_back_to_epsilon(self):
        """Zero-weight runnable domains still split the capacity."""
        shares = compute_shares(100.0, [80.0, 80.0], weights=[0.0, 0.0])
        assert shares.tolist() == [50.0, 50.0]

    def test_capacity_below_tolerance_allocates_nothing(self):
        shares = compute_shares(1e-13, [100.0, 100.0])
        assert shares.tolist() == [0.0, 0.0]

    def test_weight_sum_overflow_stays_work_conserving(self):
        """Finite weights whose sum overflows are rescaled, not NaN'd."""
        big = [1e308, 1e308]
        assert compute_shares(100.0, big, big).tolist() == [50.0, 50.0]

    def test_capacity_smaller_than_epsilon_times_demand(self):
        """Tiny-but-positive capacity terminates and conserves."""
        shares = compute_shares(1e-9, [1e6, 1e6])
        assert np.all(shares >= 0.0)
        assert float(shares.sum()) <= 1e-9 * (1 + 1e-9)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_capacity_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            compute_shares(bad, [100.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_nonfinite_or_negative_caps_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            compute_shares(100.0, [50.0, bad])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_nonfinite_or_negative_weights_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            compute_shares(100.0, [50.0, 50.0], weights=[1.0, bad])


# ------------------------------------------------------------- ShareMemo


class TestShareMemo:
    def test_hit_returns_identical_solution(self):
        memo = ShareMemo()
        key = (400.0, (300.0, 300.0), (300.0, 300.0))
        assert memo.get(key) is None
        solved = tuple(float(s) for s in compute_shares(400.0, [300.0, 300.0]))
        memo.put(key, solved)
        assert memo.get(key) == solved
        assert memo.hits == 1 and memo.misses == 1
        assert len(memo) == 1

    def test_permuted_key_is_a_different_entry(self):
        """Ordered keys: a permuted host must not reuse this solution."""
        memo = ShareMemo()
        memo.put((300.0, (100.0, 200.0), (1.0, 2.0)), (100.0, 200.0))
        assert memo.get((300.0, (200.0, 100.0), (2.0, 1.0))) is None

    def test_fifo_eviction_drops_oldest(self):
        memo = ShareMemo(max_entries=2)
        memo.put(("a",), (1.0,))
        memo.put(("b",), (2.0,))
        memo.put(("c",), (3.0,))
        assert len(memo) == 2
        assert memo.get(("a",)) is None
        assert memo.get(("b",)) == (2.0,)
        assert memo.get(("c",)) == (3.0,)

    def test_reput_existing_key_does_not_evict(self):
        memo = ShareMemo(max_entries=2)
        memo.put(("a",), (1.0,))
        memo.put(("b",), (2.0,))
        memo.put(("a",), (1.0,))
        assert memo.get(("b",)) == (2.0,)

    def test_max_entries_validated(self):
        with pytest.raises(ConfigurationError):
            ShareMemo(max_entries=0)

    def test_pickle_round_trip(self):
        memo = ShareMemo(max_entries=17)
        memo.put(("k",), (4.0,))
        memo.get(("k",))
        memo.get(("missing",))
        clone = pickle.loads(pickle.dumps(memo))
        assert clone.max_entries == 17
        assert (clone.hits, clone.misses) == (memo.hits, memo.misses)
        assert clone.get(("k",)) == (4.0,)


# ------------------------------------------------ batched completion etas


def _running_vm(vm_id, work, done, share, anchor, state=VmState.RUNNING):
    vm = Vm(Job(job_id=vm_id, submit_time=0.0, runtime_s=work / 100.0,
                cpu_pct=100.0, mem_mb=512.0))
    vm.state = state
    vm.work_done = done
    vm.share = share
    vm.last_progress_t = anchor
    return vm


def _pushed_completions(engine):
    """``vm_id -> (time, seq)`` of every live completion event; ``seq`` is
    the event's current one, which a re-key moves ahead of its heap
    entry's."""
    handles = engine._completion_handles
    by_event = {id(h._event): vm_id for vm_id, h in handles.items()}
    pushed = {}
    for time, _, _, event in engine.sim._heap:
        if not event.cancelled and id(event) in by_event:
            pushed[by_event[id(event)]] = (time, event.seq)
    assert len(pushed) == len(handles)
    return pushed


class TestBatchEta:
    """The engine path that replaced the vectorized eta kernel: every
    completion event ``_reschedule_completions_batched`` leaves live fires
    at ``max(vm.eta(now), now)``, and its current sequence numbers are
    consecutive in (sorted host, residency) order, as if every handle had
    been cancelled and the batch pushed again."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_matches_scalar_eta_bitwise(self, data):
        now = data.draw(st.floats(min_value=0.0, max_value=1e6), label="now")
        engine = _engine(chaos=False, pm=False)
        n_hosts = data.draw(st.integers(min_value=1, max_value=4), label="hosts")
        hosts = engine.hosts[:n_hosts]
        expected_order = []
        vm_id = 1000
        for host in hosts:
            host.state = HostState.ON
            for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
                work = data.draw(st.floats(min_value=1.0, max_value=1e6))
                done = data.draw(st.floats(min_value=0.0, max_value=work * 1.5))
                share = data.draw(st.one_of(
                    st.just(0.0), st.floats(min_value=1e-6, max_value=400.0)))
                anchor = data.draw(st.floats(min_value=0.0, max_value=now))
                state = data.draw(st.sampled_from(
                    [VmState.RUNNING] * 3 + [VmState.MIGRATING, VmState.CREATING]))
                vm = _running_vm(vm_id, work, done, share, anchor, state)
                vm_id += 1
                host.add_vm(vm)
                if state is VmState.RUNNING and share > 0:
                    expected_order.append(vm)
        # A first sweep leaves handles behind.  Between the sweeps some
        # shares move (and with them, unless no work is left, the eta);
        # the second sweep must re-key the handles whose time held and
        # replace the others.
        engine._reschedule_completions_batched(hosts, now)
        old = dict(engine._completion_handles)
        for vm in expected_order:
            vm.share *= data.draw(st.sampled_from([1.0, 1.0, 0.5, 3.0]))
        engine._reschedule_completions_batched(hosts, now)
        pushed = _pushed_completions(engine)
        assert sorted(pushed) == sorted(vm.vm_id for vm in expected_order)
        seqs = [pushed[vm.vm_id][1] for vm in expected_order]
        if seqs:
            assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))
        for vm in expected_order:
            expected = max(vm.eta(now), now)
            handle = engine._completion_handles[vm.vm_id]
            assert pushed[vm.vm_id][0] == expected, (vm.vm_id, expected)
            assert handle.time == expected
            before = old[vm.vm_id]
            if before.time == expected:
                assert handle is before and handle.live
            else:
                assert handle is not before
                assert before.cancelled and not before.live
        assert engine.sim.pending == len(expected_order)

    def test_finished_vm_maps_to_now(self):
        engine = _engine(chaos=False, pm=False)
        host = engine.hosts[0]
        host.state = HostState.ON
        vm = _running_vm(7, 100.0, 100.0, 50.0, 3.0)
        host.add_vm(vm)
        engine._reschedule_completions_batched([host], 7.5)
        assert _pushed_completions(engine)[vm.vm_id][0] == 7.5 == vm.eta(7.5)


# --------------------------------------------------------------- at_many


class TestAtMany:
    @staticmethod
    def _fired_order(schedule):
        """Run ``schedule(sim, record)`` and return the fired tags."""
        sim = Simulator()
        fired = []
        schedule(sim, fired.append)
        sim.run()
        return fired

    @settings(max_examples=60, deadline=None)
    @given(
        times=st.lists(
            st.floats(min_value=0.0, max_value=100.0), min_size=0, max_size=24
        ),
        pre=st.integers(min_value=0, max_value=10),
    )
    def test_same_fired_order_as_per_item_at(self, times, pre):
        """Batch scheduling fires identically to per-item ``at`` calls —
        on both the heappush path (small batch vs. large heap) and the
        extend-and-heapify path (``pre`` controls the live-heap size)."""

        def batch(sim, record):
            for j in range(pre):
                sim.at(1000.0 + j, lambda j=j: record(("pre", j)))
            sim.at_many(
                times,
                [lambda i=i: record(("batch", i)) for i in range(len(times))],
            )

        def per_item(sim, record):
            for j in range(pre):
                sim.at(1000.0 + j, lambda j=j: record(("pre", j)))
            for i, t in enumerate(times):
                sim.at(t, lambda i=i: record(("batch", i)))

        assert self._fired_order(batch) == self._fired_order(per_item)

    def test_handles_cancel_individually(self):
        sim = Simulator()
        fired = []
        handles = sim.at_many(
            [1.0] * 10, [lambda i=i: fired.append(i) for i in range(10)]
        )
        for h in handles[::2]:
            h.cancel()
        sim.run()
        assert fired == [1, 3, 5, 7, 9]

    def test_length_mismatch_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.at_many([1.0], [lambda: None, lambda: None])
        with pytest.raises(SimulationError):
            sim.at_many([1.0], [lambda: None], labels=["a", "b"])

    def test_past_and_nonfinite_times_rejected(self):
        sim = Simulator(start=10.0)
        with pytest.raises(SimulationError):
            sim.at_many([9.0] + [11.0] * 9, [lambda: None] * 10)
        with pytest.raises(SimulationError):
            sim.at_many([float("nan")] * 10, [lambda: None] * 10)


# ----------------------------------------------- whole-engine differential

_HORIZON_H = 8.0


class NoReuseShareMemo(ShareMemo):
    """A one-entry memo whose lookups always miss.

    Substituted for the engine's ``_share_memo`` it makes every share
    problem a fresh :func:`compute_shares` solve, so a run with it is an
    oracle for the memo key: a key that dropped a component would return
    a wrong entry in the default run only.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(max_entries=1)

    def get(self, key):
        self.misses += 1
        return None


def _engine(*, chaos, pm, seed=37, evicting=False):
    cfg = SyntheticConfig(horizon_s=_HORIZON_H * HOUR, base_rate_per_hour=28.0)
    trace = Grid5000WeekGenerator(cfg, seed=seed).generate()
    engine = DatacenterSimulation(
        cluster=ClusterSpec.homogeneous(5),
        policy=ScoreBasedPolicy(ScoreConfig.sb()),
        trace=trace,
        pm_config=(
            PowerManagerConfig(lambda_min=0.40, lambda_max=0.90) if pm else None
        ),
        config=EngineConfig(
            seed=seed,
            faults=FaultConfig.uniform(0.10) if chaos else None,
            chaos_seed=11 if chaos else None,
            trace_events=True,
        ),
    )
    if evicting:
        engine._share_memo = NoReuseShareMemo()
    return engine


def _trace_sig(engine):
    return [
        (r.time, r.kind.value, r.vm_id, r.host_id, r.detail)
        for r in engine.trace_log
    ]


class TestEngineDifferential:
    """Default share memo vs. :class:`NoReuseShareMemo`, over full runs.

    Chaos injects failed creations / aborted migrations / quarantines and
    the power manager injects boot/shutdown churn — together they exercise
    every dirty-set interleaving the engine produces (multi-host events,
    empty refreshes, hosts leaving mid-operation).
    """

    @pytest.mark.parametrize("pm", [False, True], ids=["pm-off", "pm-on"])
    @pytest.mark.parametrize("chaos", [False, True],
                             ids=["chaos-off", "chaos-on"])
    def test_evicting_memo_matches(self, chaos, pm):
        default = _engine(chaos=chaos, pm=pm)
        evicting = _engine(chaos=chaos, pm=pm, evicting=True)
        res_d = default.run()
        res_e = evicting.run()
        assert res_d.canonical() == res_e.canonical()
        assert _trace_sig(default) == _trace_sig(evicting)
        # The default memo skipped most solves; the oracle solved them all.
        stats_d, stats_e = res_d.share_memo_stats, res_e.share_memo_stats
        assert stats_d["hits"] > stats_d["misses"]
        assert stats_e["hits"] == 0
        assert stats_e["misses"] == stats_d["hits"] + stats_d["misses"]
        assert stats_e["entries"] == 1

    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.data_too_large],
    )
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_evicting_memo_matches_random_workloads(self, seed):
        """Random workload realizations, chaos + pm on (the worst case)."""
        res_d = _engine(chaos=True, pm=True, seed=seed).run()
        res_e = _engine(chaos=True, pm=True, seed=seed, evicting=True).run()
        assert res_d.canonical() == res_e.canonical()

    def test_memo_stats_are_operational(self):
        """``share_memo_stats`` never enters the canonical contract."""
        res = _engine(chaos=False, pm=False).run()
        assert res.share_memo_stats["misses"] >= 1
        assert "share_memo_stats" not in res.canonical()
        assert "share_memo_stats" in res.__class__.OPERATIONAL_FIELDS


# --------------------------------------- one solve per problem, completions


def _load(engine, hosts, per_host=3):
    """Put ``per_host`` running 200 % VMs on each host and dirty it."""
    vms = []
    for i, host in enumerate(hosts):
        host.state = HostState.ON
        for j in range(per_host):
            vm = Vm(Job(job_id=1000 + per_host * i + j, submit_time=0.0,
                        runtime_s=600.0, cpu_pct=200.0, mem_mb=512.0))
            vm.state = VmState.RUNNING
            host.add_vm(vm)
            vms.append(vm)
        engine._dirty.add(host.host_id)
    return vms


class TestShareSolveAccounting:
    def test_duplicate_problem_in_one_sweep_solves_once(self, monkeypatch):
        """Two dirty hosts with the same unseen share problem: the first
        misses and solves, the second hits the entry the first put."""
        engine = _engine(chaos=False, pm=False)
        memo = engine._share_memo = ShareMemo()
        hosts = engine.hosts[:2]
        vms = _load(engine, hosts)
        solves = []

        def counting(*args):
            solves.append(args)
            return compute_shares(*args)

        monkeypatch.setattr(host_module, "compute_shares", counting)
        engine._refresh()
        assert (memo.misses, memo.hits, len(memo)) == (1, 1, 1)
        assert len(solves) == 1
        # 600 % demanded on 400 %: every guest gets the same squeezed share.
        expect = compute_shares(400.0, [200.0] * 3)[0]
        assert [vm.share for vm in vms] == [expect] * 6
        assert hosts[0].cpu_used == hosts[1].cpu_used


class TestCompletionReschedule:
    def test_most_completion_reschedules_are_rekeys(self, tmp_path, monkeypatch):
        """On the benchmark's ``paper`` episode 0 (seed 1), at least 70 %
        of the completion events the engine schedules keep a live
        handle's time and are re-keyed in place; the rest are pushed."""
        import importlib.util
        import sys
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        # Its dataclasses resolve their module through ``sys.modules``.
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        counts = {"rekey": 0, "push": 0}
        rekey, at = Simulator.rekey, Simulator.at

        def counted_rekey(self, handle, time):
            keyed = rekey(self, handle, time)
            counts["rekey"] += keyed
            return keyed

        def counted_at(self, time, callback, **kwargs):
            counts["push"] += kwargs.get("label", "").startswith("complete:")
            return at(self, time, callback, **kwargs)

        monkeypatch.setattr(Simulator, "rekey", counted_rekey)
        monkeypatch.setattr(Simulator, "at", counted_at)
        episode = workloads.paper(workloads.episode_seed("paper", 1, 0), str(tmp_path))
        assert not episode.check(episode.run())
        total = counts["rekey"] + counts["push"]
        assert total > 2000
        assert counts["rekey"] >= 0.70 * total, counts

    def test_early_completion_event_reschedules_at_eta(self):
        """A completion that fires while work remains is pushed back to
        the VM's eta at its current share, replacing the spent handle.
        The handler takes the sweep's one rule: a handle still live at
        that time is re-keyed in place instead."""
        engine = _engine(chaos=False, pm=False)
        (vm, *_) = _load(engine, engine.hosts[:1])
        engine._refresh()
        first = engine._completion_handles[vm.vm_id]
        first.cancel()  # stands in for the fired event: no longer live
        engine._on_completion(vm)
        second = engine._completion_handles[vm.vm_id]
        assert second is not first and second.live
        assert second.time == vm.eta(engine.sim.now) == first.time
        engine._on_completion(vm)
        assert engine._completion_handles[vm.vm_id] is second and second.live
        assert engine.sim.pending == len(engine._completion_handles)
