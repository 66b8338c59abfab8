"""Tests for power models and energy accounting (:mod:`repro.cluster.power`)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.energy import EnergyAccount
from repro.cluster.power import (
    PAPER_TABLE_I,
    ConstantPowerModel,
    LinearPowerModel,
    TablePowerModel,
)
from repro.errors import ConfigurationError, StateError


class TestTablePowerModel:
    """The model embeds the paper's Table I measurements."""

    def test_reproduces_every_table_i_point(self):
        model = TablePowerModel()
        for cpu, watts in PAPER_TABLE_I:
            assert model.power(cpu) == pytest.approx(watts)

    def test_idle_is_230w(self):
        assert TablePowerModel().idle_power == 230.0

    def test_max_is_304w(self):
        assert TablePowerModel().max_power == 304.0

    def test_interpolates_between_points(self):
        assert TablePowerModel().power(150.0) == pytest.approx(266.0)

    def test_clamps_beyond_range(self):
        model = TablePowerModel()
        assert model.power(-50.0) == 230.0
        assert model.power(9999.0) == 304.0

    def test_scaled_preserves_idle_and_peak(self):
        scaled = TablePowerModel().scaled_to(800.0)
        assert scaled.idle_power == 230.0
        assert scaled.power(800.0) == 304.0
        assert scaled.capacity == 800.0

    def test_unsorted_points_rejected(self):
        with pytest.raises(ConfigurationError):
            TablePowerModel(points=((100.0, 250.0), (0.0, 230.0)))

    def test_single_point_rejected(self):
        with pytest.raises(ConfigurationError):
            TablePowerModel(points=((0.0, 230.0),))

    def test_negative_watts_rejected(self):
        with pytest.raises(ConfigurationError):
            TablePowerModel(points=((0.0, -1.0), (100.0, 10.0)))

    @given(cpu=st.floats(min_value=0.0, max_value=400.0))
    def test_monotone_in_load(self, cpu):
        """Property: more CPU never draws less power."""
        model = TablePowerModel()
        assert model.power(cpu) <= model.power(min(cpu + 10.0, 400.0)) + 1e-9

    def test_vm_layout_independence(self):
        """Table I's finding: power depends only on *total* CPU.

        Four VMs at 100% each and one VM at 400% draw the same power —
        the model has no VM-count input at all, by design.
        """
        model = TablePowerModel()
        assert model.power(4 * 100.0) == model.power(400.0)


def _np_interp(model, x):
    xs = np.array([p[0] for p in model.points])
    ys = np.array([p[1] for p in model.points])
    return float(np.interp(x, xs, ys))


@st.composite
def _table_models(draw):
    """Random strictly increasing knots, rescaled to a random capacity."""
    gaps = draw(st.lists(st.floats(min_value=1e-3, max_value=500.0),
                         min_size=1, max_size=8))
    start = draw(st.floats(min_value=0.0, max_value=100.0))
    xs = [start]
    for gap in gaps:
        xs.append(xs[-1] + gap)
    ys = draw(st.lists(st.floats(min_value=0.0, max_value=5000.0),
                       min_size=len(xs), max_size=len(xs)))
    model = TablePowerModel(points=tuple(zip(xs, ys)))
    if draw(st.booleans()):
        model = model.scaled_to(draw(st.floats(min_value=1.0, max_value=1e5)))
    return model


class TestTablePowerDifferential:
    """The scalar lookup against ``np.interp`` on the same knots, bit for
    bit: end values outside the range, ``y_j`` on a knot, the slope
    formula in between."""

    @settings(max_examples=300, deadline=None)
    @given(model=_table_models(), data=st.data())
    def test_matches_np_interp_bitwise(self, model, data):
        lo, hi = model.points[0][0], model.points[-1][0]
        xs = [
            data.draw(st.floats(min_value=lo, max_value=hi)),
            data.draw(st.integers(min_value=-10, max_value=int(hi) + 10)),
            data.draw(st.sampled_from([p[0] for p in model.points])),
            data.draw(st.floats(min_value=-1e6, max_value=lo)),
            data.draw(st.floats(min_value=hi, max_value=1e9)),
            float("inf"),
            float("-inf"),
        ]
        for x in xs:
            got = model.power(x)
            assert type(got) is float
            assert got == _np_interp(model, x), (x, model.points)

    def test_knot_of_an_infinite_slope_returns_its_watts(self):
        # slope_1 overflows to inf; at x == x_1 the formula would give
        # inf * 0 = nan, and np.interp returns y_1.
        model = TablePowerModel(
            points=((0.0, 0.0), (1.0, 0.0), (1.0 + 2.0**-52, 1e308))
        )
        assert model.power(1.0) == 0.0 == _np_interp(model, 1.0)

    @given(cpu=st.integers(min_value=-100, max_value=1700),
           ncpus=st.integers(min_value=1, max_value=16))
    def test_paper_curve_at_integer_cpu_on_scaled_hosts(self, cpu, ncpus):
        model = TablePowerModel().scaled_to(100.0 * ncpus)
        assert model.power(cpu) == _np_interp(model, cpu)


class TestLinearPowerModel:
    def test_endpoints(self):
        m = LinearPowerModel(idle_w=100.0, max_w=200.0, capacity=400.0)
        assert m.power(0) == 100.0
        assert m.power(400) == 200.0
        assert m.power(200) == 150.0

    def test_invalid_range_rejected(self):
        with pytest.raises(ConfigurationError):
            LinearPowerModel(idle_w=300.0, max_w=200.0)

    def test_scaled(self):
        m = LinearPowerModel(capacity=400.0).scaled_to(100.0)
        assert m.capacity == 100.0
        assert m.power(100.0) == m.max_power


class TestConstantPowerModel:
    def test_load_independent(self):
        m = ConstantPowerModel(watts=270.0)
        assert m.power(0) == m.power(400) == 270.0

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            ConstantPowerModel(watts=-1.0)


class TestEnergyAccount:
    def test_constant_power_energy(self):
        acc = EnergyAccount(0.0, 230.0)
        acc.close(3600.0)
        assert acc.energy_wh == pytest.approx(230.0)
        assert acc.energy_kwh == pytest.approx(0.230)

    def test_step_change(self):
        acc = EnergyAccount(0.0, 100.0)
        acc.set_power(1800.0, 200.0)
        acc.close(3600.0)
        assert acc.energy_wh == pytest.approx(150.0)

    def test_mean_watts(self):
        acc = EnergyAccount(0.0, 100.0)
        acc.set_power(1800.0, 300.0)
        acc.close(3600.0)
        assert acc.mean_watts == pytest.approx(200.0)

    def test_series_requires_opt_in(self):
        acc = EnergyAccount(0.0, 100.0)
        with pytest.raises(StateError):
            acc.steps()

    def test_series_records_when_enabled(self):
        acc = EnergyAccount(0.0, 100.0, record_series=True)
        acc.set_power(10.0, 50.0)
        times, watts = acc.steps()
        assert times == [0.0, 10.0]
        assert watts == [100.0, 50.0]
        assert acc.sample([5.0, 15.0]) == [100.0, 50.0]
