"""Entropy, deviation, combined uncertainty, and proximity risk.

The scalar formulas are checked on the per-object oracle in
``tests/risk_oracle.py``; ``test_array_passes.py`` checks that the
package's array passes give exactly the oracle's floats."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from drivetrace.risk import (
    MAX_ENTROPY,
    RiskConfig,
    RiskTier,
    UncertaintyConfig,
    assess,
    combined_uncertainty,
)
from drivetrace.scene import ClassDistribution, EgoState, PointCloud
from conftest import make_object
from risk_oracle import (
    deviation_angle,
    min_distance,
    object_min_distance,
    proximity_risk,
    risk_tier,
    shannon_entropy,
)

UCFG = UncertaintyConfig()
RCFG = RiskConfig()


def dist(*p):
    return ClassDistribution(tuple(p))


@st.composite
def distributions(draw):
    raw = draw(st.lists(st.floats(1e-6, 1.0), min_size=4, max_size=4))
    total = sum(raw)
    return dist(*(v / total for v in raw))


class TestEntropy:
    def test_one_hot(self):
        assert shannon_entropy(dist(1, 0, 0, 0)) == 0.0

    def test_uniform_is_max(self):
        assert shannon_entropy(dist(0.25, 0.25, 0.25, 0.25)) == pytest.approx(
            math.log(4), abs=1e-9)

    def test_direct_sum(self):
        # -(0.7 ln 0.7 + 0.2 ln 0.2 + 0.1 ln 0.1), frozen from direct summation
        assert shannon_entropy(dist(0.7, 0.2, 0.1, 0.0)) == pytest.approx(
            0.8018185525433372, abs=1e-12)

    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError):
            shannon_entropy(np.array([0.5, 0.2, 0.1, 0.1]))

    @given(distributions())
    def test_bounded_by_ln_k(self, d):
        h = shannon_entropy(d)
        assert 0.0 <= h <= MAX_ENTROPY + 1e-12

    @given(distributions())
    def test_permutation_invariant(self, d):
        h = shannon_entropy(d)
        rolled = dist(*np.roll(d.probs, 1))
        assert shannon_entropy(rolled) == pytest.approx(h, abs=1e-12)


class TestDeviationAngle:
    def test_identity(self):
        assert deviation_angle(1.3, 1.3) == 0.0

    def test_wraparound(self):
        # |3.0 - (-3.0)| wraps to 2 pi - 6
        assert deviation_angle(3.0, -3.0) == pytest.approx(2 * math.pi - 6.0, abs=1e-12)

    def test_opposition(self):
        assert deviation_angle(0.5 + math.pi, 0.5) == pytest.approx(math.pi, abs=1e-12)

    @given(st.floats(-10, 10), st.floats(-10, 10))
    def test_symmetric_and_bounded(self, a, b):
        d = deviation_angle(a, b)
        assert d == pytest.approx(deviation_angle(b, a), abs=1e-12)
        assert 0.0 <= d <= math.pi + 1e-12


class TestCombinedUncertainty:
    def test_zero(self):
        assert combined_uncertainty(0.0, 0.0, UCFG) == 0.0

    def test_both_maximal(self):
        assert combined_uncertainty(math.log(4), math.pi, UCFG) == pytest.approx(1.0)

    def test_weighted(self):
        cfg = UncertaintyConfig(w_entropy=0.6, w_deviation=0.4)
        # H = ln 2 over K = 4 halves the normalized entropy
        u = combined_uncertainty(math.log(2), math.pi / 2, cfg)
        assert u == pytest.approx(0.6 * 0.5 + 0.4 * 0.5, abs=1e-12)

    @given(st.floats(0, MAX_ENTROPY), st.floats(0, math.pi),
           st.floats(0, MAX_ENTROPY), st.floats(0, math.pi))
    def test_monotone(self, h1, d1, h2, d2):
        lo = combined_uncertainty(min(h1, h2), min(d1, d2), UCFG)
        hi = combined_uncertainty(max(h1, h2), max(d1, d2), UCFG)
        assert lo <= hi + 1e-12


class TestMinDistance:
    def test_pythagorean(self):
        assert min_distance(np.array([[3.0, 4.0, 0.0]])) == pytest.approx(5.0)

    def test_origin_lower_bound(self):
        pts = np.array([[0.0, 0.0, 0.0], [10, 10, 10]])
        assert min_distance(pts) == 0.0

    def test_brute_force_oracle(self, rng):
        pts = rng.uniform(-50, 50, (100, 3))
        expected = min(math.sqrt(x * x + y * y + z * z) for x, y, z in pts)
        assert min_distance(pts) == pytest.approx(expected, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            min_distance(np.empty((0, 3)))

    def test_corner_fallback_without_support(self):
        obj = make_object(0, (10.0, 0.0, 0.0), dims=(2.0, 2.0, 2.0))
        d = object_min_distance(obj, PointCloud())
        # nearest corner of a 2 m cube centered 10 m ahead
        assert d == pytest.approx(math.sqrt(9.0 ** 2 + 1.0 + 1.0))


class TestProximityRisk:
    def test_contact(self):
        assert proximity_risk(0.0, RCFG) == 1.0

    def test_decay_length(self):
        assert proximity_risk(RCFG.decay_length, RCFG) == pytest.approx(
            math.exp(-1.0), abs=1e-12)

    def test_direct(self):
        assert proximity_risk(10.0, RiskConfig(decay_length=20.0)) == pytest.approx(
            math.exp(-0.5), abs=1e-12)

    @given(st.floats(0, 200), st.floats(0, 200))
    def test_strictly_decreasing(self, a, b):
        if abs(a - b) < 1e-9:  # below exp's float64 resolution
            return
        lo, hi = min(a, b), max(a, b)
        assert proximity_risk(lo, RCFG) > proximity_risk(hi, RCFG)

    def test_tiers(self):
        assert risk_tier(0.65, RCFG) is RiskTier.HIGH
        assert risk_tier(0.6, RCFG) is RiskTier.HIGH
        assert risk_tier(0.45, RCFG) is RiskTier.MODERATE
        assert risk_tier(0.3, RCFG) is RiskTier.MODERATE
        assert risk_tier(0.1, RCFG) is RiskTier.LOW


class TestAssess:
    def test_object_at_origin_is_high(self):
        obj = make_object(0, (0.0, 0.0, 0.0), support=(0,))
        cloud = PointCloud(np.array([[0.0, 0.0, 0.0, 1.0]]))
        a = assess([obj], EgoState(), cloud, UncertaintyConfig(), RiskConfig())[0]
        assert a.risk == 1.0
        assert a.tier is RiskTier.HIGH
        assert a.min_distance == 0.0

    def test_one_hot_aligned_not_flagged(self):
        cloud = PointCloud(np.array([[10.0, 0.0, 0.0, 1.0]]))
        obj = make_object(0, (10, 0, 0), support=(0,))
        a = assess([obj], EgoState(lane_heading=0.0), cloud, UncertaintyConfig(),
                   RiskConfig())[0]
        assert a.uncertainty == 0.0
        assert not a.flagged

    def test_flag_threshold(self):
        cloud = PointCloud(np.array([[10.0, 0.0, 0.0, 1.0]]))
        # uniform class dist and near-maximal deviation push U above 0.8
        obj = make_object(0, (10, 0, 0), yaw=3.0, probs=(0.25,) * 4, support=(0,))
        a = assess([obj], EgoState(lane_heading=0.0), cloud, UncertaintyConfig(),
                   RiskConfig())[0]
        assert a.uncertainty > 0.8
        assert a.flagged

    def test_boundary_tier_case(self):
        # d_min = 10, lambda = 20: risk ~ 0.6065 lands in the High tier
        cloud = PointCloud(np.array([[10.0, 0.0, 0.0, 1.0]]))
        obj = make_object(0, (10, 0, 0), support=(0,))
        a = assess([obj], EgoState(), cloud, UncertaintyConfig(),
                   RiskConfig(decay_length=20.0, tier_high=0.6, tier_moderate=0.3))[0]
        assert a.risk == pytest.approx(math.exp(-0.5), abs=1e-12)
        assert a.tier is RiskTier.HIGH

    def test_order_independent(self, rng):
        cloud = PointCloud(np.column_stack([rng.uniform(0, 30, (50, 3)), np.ones(50)]))
        objs = [make_object(i, (5.0 + i, i - 2, 0), support=(i,)) for i in range(5)]
        ego = EgoState()
        fwd = assess(objs, ego, cloud, UncertaintyConfig(), RiskConfig())
        rev = assess(objs[::-1], ego, cloud, UncertaintyConfig(), RiskConfig())
        assert fwd == rev[::-1]

    def test_risk_ranking_matches_distance_ranking(self, rng):
        # risk order is distance order for any decay length
        cloud = PointCloud(np.column_stack([rng.uniform(1, 60, (20, 3)), np.ones(20)]))
        objs = [make_object(i, tuple(cloud.xyz[i]), support=(i,)) for i in range(20)]
        for lam in (5.0, 20.0, 80.0):
            res = assess(objs, EgoState(), cloud, UncertaintyConfig(),
                         RiskConfig(decay_length=lam))
            by_risk = sorted(res, key=lambda a: -a.risk)
            by_dist = sorted(res, key=lambda a: a.min_distance)
            assert [a.object_id for a in by_risk] == [a.object_id for a in by_dist]
