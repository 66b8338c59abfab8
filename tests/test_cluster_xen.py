"""Tests for the Xen-credit-like share solver (:mod:`repro.cluster.xen`)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.cluster.xen import compute_shares
from repro.errors import ConfigurationError


class TestComputeShares:
    def test_uncontended_grants_caps(self):
        assert compute_shares(400.0, [100.0, 200.0]).tolist() == [100.0, 200.0]

    def test_contended_split_proportional_to_caps(self):
        shares = compute_shares(300.0, [100.0, 300.0])
        assert shares.tolist() == [75.0, 225.0]

    def test_saturated_domain_surplus_redistributed(self):
        # Equal weights: the small domain saturates at its cap and the
        # surplus flows to the big one.
        shares = compute_shares(300.0, [50.0, 300.0], weights=[1.0, 1.0])
        assert shares.tolist() == [50.0, 250.0]

    def test_proportional_weights_leave_small_domain_unsaturated(self):
        # Default weights are the caps themselves: pure proportional split
        # when nobody's cap binds.
        shares = compute_shares(300.0, [50.0, 300.0])
        assert shares[0] == pytest.approx(300.0 * 50 / 350)
        assert shares[1] == pytest.approx(300.0 * 300 / 350)

    def test_equal_demands_split_equally(self):
        shares = compute_shares(400.0, [400.0, 400.0])
        assert shares.tolist() == [200.0, 200.0]

    def test_water_filling_redistributes_surplus(self):
        # Small domain saturates under equal weights; surplus goes to the
        # big ones.
        shares = compute_shares(400.0, [50.0, 300.0, 300.0], weights=[1.0, 1.0, 1.0])
        assert shares[0] == pytest.approx(50.0)
        assert shares[1] == pytest.approx(175.0)
        assert shares[2] == pytest.approx(175.0)

    def test_explicit_weights_bias_allocation(self):
        shares = compute_shares(300.0, [300.0, 300.0], weights=[2.0, 1.0])
        assert shares[0] == pytest.approx(200.0)
        assert shares[1] == pytest.approx(100.0)

    def test_empty_input(self):
        assert compute_shares(400.0, []).size == 0

    def test_zero_capacity(self):
        shares = compute_shares(0.0, [100.0])
        assert shares.tolist() == [0.0]

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            compute_shares(-1.0, [100.0])

    def test_negative_caps_rejected(self):
        with pytest.raises(ConfigurationError):
            compute_shares(100.0, [-5.0])

    def test_mismatched_weights_rejected(self):
        with pytest.raises(ConfigurationError):
            compute_shares(100.0, [50.0], weights=[1.0, 2.0])

    def test_zero_weight_domain_still_served_from_slack(self):
        shares = compute_shares(400.0, [100.0, 100.0], weights=[0.0, 1.0])
        assert shares[0] == pytest.approx(100.0)

    @given(
        capacity=st.floats(min_value=1.0, max_value=1000.0),
        caps=st.lists(st.floats(min_value=0.0, max_value=500.0), min_size=1, max_size=12),
    )
    def test_invariants(self, capacity, caps):
        """Properties: 0 <= share <= cap, sum <= capacity, work-conserving."""
        shares = compute_shares(capacity, caps)
        assert np.all(shares >= -1e-9)
        assert np.all(shares <= np.asarray(caps) + 1e-9)
        total = shares.sum()
        assert total <= capacity + 1e-6
        # Work conserving: either all demand met or capacity exhausted.
        demand = sum(caps)
        if demand <= capacity:
            assert total == pytest.approx(demand, abs=1e-6)
        else:
            assert total == pytest.approx(capacity, abs=1e-4)

    @given(
        caps=st.lists(st.floats(min_value=1.0, max_value=400.0), min_size=2, max_size=8),
    )
    def test_max_min_fairness(self, caps):
        """Property: an unsaturated domain gets at least a weighted fair slice."""
        capacity = 400.0
        shares = compute_shares(capacity, caps)
        caps_arr = np.asarray(caps)
        unsaturated = shares < caps_arr - 1e-6
        if unsaturated.any():
            # With weights == caps, unsaturated domains all have the same
            # share/weight ratio, and it's the max over all domains.
            ratios = shares / caps_arr
            lo = ratios[unsaturated].min()
            hi = ratios.max()
            assert lo == pytest.approx(hi, rel=1e-6)
