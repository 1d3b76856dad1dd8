"""Scene types and box geometry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from drivetrace.scene import (
    ClassDistribution,
    EgoState,
    GroundTruthObject,
    ObjectClass,
    OrientedBox,
    PointCloud,
    Scene,
    TrackedObject,
    box_corners,
    box_iou,
    in_corridor,
    wrap_angle,
)
from conftest import UNIFORM, mc_box_iou, random_box


def float32_clouds(min_points: int) -> st.SearchStrategy[np.ndarray]:
    """Finite (N, 4) float32 arrays with non-negative intensities."""
    finite = st.floats(width=32, allow_nan=False, allow_infinity=False)
    return st.integers(min_points, 30).flatmap(
        lambda n: arrays(np.float32, (n, 4), elements=finite)).map(
        lambda a: np.column_stack([a[:, :3], np.abs(a[:, 3])]))


finite_angles = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


class TestWrapAngle:
    def test_identity(self):
        assert wrap_angle(0.0) == 0.0

    def test_periodicity(self):
        assert wrap_angle(3 * math.pi) == pytest.approx(math.pi, abs=1e-12)

    def test_negative_mod(self):
        # -3.5 pi is congruent to +0.5 pi
        assert wrap_angle(-3.5 * math.pi) == pytest.approx(0.5 * math.pi, abs=1e-12)

    def test_open_boundary(self):
        # the wrap lands in (-pi, pi]: -pi maps to +pi
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(math.pi) == pytest.approx(math.pi)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            wrap_angle(float("nan"))
        with pytest.raises(ValueError):
            wrap_angle(float("inf"))

    @given(finite_angles)
    def test_idempotent(self, a):
        w = wrap_angle(a)
        assert wrap_angle(w) == w
        assert -math.pi < w <= math.pi

    @given(finite_angles)
    def test_congruent_mod_tau(self, a):
        w = wrap_angle(a)
        # scale tolerance with |a|: the subtraction loses ulps for huge angles
        assert math.remainder(w - a, 2 * math.pi) == pytest.approx(
            0.0, abs=1e-9 * max(1.0, abs(a)))


class TestBoxCorners:
    def test_unit_cube(self):
        corners = box_corners(OrientedBox((0, 0, 0), 1, 1, 1, 0.0))
        expected = {(sx * 0.5, sy * 0.5, sz * 0.5)
                    for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)}
        got = {tuple(np.round(c, 12)) for c in corners}
        assert got == expected

    def test_unit_cube_quarter_turn_same_corner_set(self):
        a = box_corners(OrientedBox((0, 0, 0), 1, 1, 1, 0.0))
        b = box_corners(OrientedBox((0, 0, 0), 1, 1, 1, math.pi / 2))
        sa = {tuple(np.round(c, 9)) for c in a}
        sb = {tuple(np.round(c, 9)) for c in b}
        assert sa == sb

    def test_rotated_half_extents(self):
        # l=2 along x rotated to y: corners at (+-0.5, +-1.0, +-0.5)
        corners = box_corners(OrientedBox((0, 0, 0), 2, 1, 1, math.pi / 2))
        expected = {(sx * 0.5, sy * 1.0, sz * 0.5)
                    for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)}
        got = {tuple(np.round(c, 12)) for c in corners}
        assert got == expected

    def test_centroid_is_center(self, rng):
        for _ in range(50):
            box = random_box(rng)
            centroid = box_corners(box).mean(axis=0)
            np.testing.assert_allclose(centroid, box.center, atol=1e-9)


class TestBoxIou:
    def test_identical(self):
        b = OrientedBox((1.0, 2.0, 0.5), 3.0, 1.5, 2.0, 0.7)
        assert box_iou(b, b) == 1.0

    def test_disjoint(self):
        a = OrientedBox((0, 0, 0), 2, 2, 2, 0.0)
        b = OrientedBox((100, 0, 0), 2, 2, 2, 0.0)
        assert box_iou(a, b) == 0.0

    def test_axis_aligned_third(self):
        # intersection 1x2x2 = 4, union 8 + 8 - 4 = 12
        a = OrientedBox((0, 0, 0), 2, 2, 2, 0.0)
        b = OrientedBox((1, 0, 0), 2, 2, 2, 0.0)
        assert box_iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_vertical_disjoint(self):
        a = OrientedBox((0, 0, 0), 2, 2, 2, 0.0)
        b = OrientedBox((0, 0, 5), 2, 2, 2, 0.0)
        assert box_iou(a, b) == 0.0

    def test_symmetric(self, rng):
        for _ in range(50):
            a, b = random_box(rng), random_box(rng)
            assert box_iou(a, b) == pytest.approx(box_iou(b, a), abs=1e-12)

    def test_rigid_transform_invariant(self, rng):
        for _ in range(20):
            a, b = random_box(rng), random_box(rng)
            base = box_iou(a, b)
            angle = rng.uniform(-np.pi, np.pi)
            shift = rng.uniform(-10, 10, 3)
            c, s = math.cos(angle), math.sin(angle)

            def move(box):
                x, y, z = box.center
                return OrientedBox(
                    (c * x - s * y + shift[0], s * x + c * y + shift[1], z + shift[2]),
                    box.length, box.width, box.height, box.yaw + angle)

            assert box_iou(move(a), move(b)) == pytest.approx(base, abs=1e-6)

    def test_monte_carlo_oracle_spot_checks(self, rng):
        # full 100-pair sweep runs in the acceptance suite
        for k in range(10):
            a, b = random_box(rng), random_box(rng)
            assert box_iou(a, b) == pytest.approx(
                mc_box_iou(a, b, n=200_000, seed=k), abs=0.02)

    def test_range(self, rng):
        for _ in range(100):
            v = box_iou(random_box(rng), random_box(rng))
            assert 0.0 <= v <= 1.0


class TestTypes:
    def test_box_invariants(self):
        with pytest.raises(ValueError):
            OrientedBox((0, 0, 0), 0.0, 1, 1, 0.0)
        with pytest.raises(ValueError):
            OrientedBox((0, 0, 0), 1, 1, 1, float("nan"))
        assert OrientedBox((0, 0, 0), 1, 1, 1, 3 * math.pi).yaw == pytest.approx(math.pi)

    def test_class_distribution_invariants(self):
        with pytest.raises(ValueError):
            ClassDistribution((0.5, 0.5, 0.5, -0.5))
        with pytest.raises(ValueError):
            ClassDistribution((0.5, 0.5, 0.5, 0.5))
        one = ClassDistribution.one_hot(ObjectClass.PEDESTRIAN)
        assert one.probs[ObjectClass.PEDESTRIAN.index] == 1.0
        assert one.top_class is ObjectClass.PEDESTRIAN

    def test_point_cloud(self):
        cloud = PointCloud(np.array([[1.0, 2.0, 3.0, 4.0], [0, 0, 0, 0]]))
        assert len(cloud) == 2
        assert cloud.data[0, 3] == 4.0
        with pytest.raises(ValueError):
            PointCloud(np.array([[1.0, 2.0, 3.0, -1.0]]))
        assert not cloud.data.flags.writeable

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_float32_array_is_taken_as_it_is(self, data):
        """A finite float32 array with non-negative intensities gives the
        cloud of its float64 cast, as a read-only float64 copy."""
        a = data.draw(float32_clouds(0))
        cloud = PointCloud(a)
        assert cloud == PointCloud(a.astype(np.float64))
        assert cloud.data.dtype == np.float64
        assert cloud.data.tobytes() == a.astype(np.float64).tobytes()
        assert not np.shares_memory(cloud.data, a)
        assert not cloud.data.flags.writeable

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.sampled_from([math.nan, math.inf, -math.inf, -1.0]))
    def test_bad_float32_array_refused_as_its_float64_cast(self, data, bad):
        a = data.draw(float32_clouds(1))
        a[data.draw(st.integers(0, len(a) - 1)),
          3 if bad == -1.0 else data.draw(st.integers(0, 3))] = bad
        reason = ("point intensities must be >= 0" if bad == -1.0
                  else "point cloud contains non-finite values")
        for arr in (a, a.astype(np.float64)):
            with pytest.raises(ValueError) as exc:
                PointCloud(arr)
            assert str(exc.value) == reason

    def test_wrong_shape_refused_in_either_dtype(self):
        for dtype in (np.float32, np.float64):
            with pytest.raises(ValueError, match=r"must be \(N, 4\), got \(2, 3\)"):
                PointCloud(np.zeros((2, 3), dtype=dtype))
            assert PointCloud(np.zeros((0, 3), dtype=dtype)).data.shape == (0, 4)

    def test_ego_normalizes_headings(self):
        ego = EgoState(heading=3 * math.pi, lane_heading=-3 * math.pi)
        assert ego.heading == pytest.approx(math.pi)
        assert ego.lane_heading == pytest.approx(math.pi)
        with pytest.raises(ValueError):
            EgoState(speed=-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_kinematics_rejected(self, bad):
        with pytest.raises(ValueError, match="EgoState.speed"):
            EgoState(speed=bad)
        box = OrientedBox((1, 0, 0), 1, 1, 1, 0)
        with pytest.raises(ValueError, match="TrackedObject.velocity"):
            TrackedObject(1, box, (0.0, bad, 0.0), UNIFORM)
        with pytest.raises(ValueError, match="GroundTruthObject.velocity"):
            GroundTruthObject(box, ObjectClass.VEHICLE, (bad, 0.0, 0.0))

    def test_support_points_become_a_read_only_int64_array(self):
        box = OrientedBox((1, 0, 0), 1, 1, 1, 0)
        want = TrackedObject(1, box, (0, 0, 0), UNIFORM, support_points=(0, 2, 5, 9))
        for support in ([0, 2, 5, 9], np.array([0, 2, 5, 9], dtype=np.int64),
                        np.array([0, 2, 5, 9], dtype=np.int32),
                        np.array([0.0, 2.7, 5.99, 9.5]), [0.9, 2.0, 5.5, 9.99]):
            obj = TrackedObject(1, box, (0, 0, 0), UNIFORM, support_points=support)
            assert obj == want  # float indices are truncated toward zero
            assert obj.support_points.dtype == np.int64
            assert obj.support_points.tolist() == [0, 2, 5, 9]
            with pytest.raises(ValueError, match="read-only"):
                obj.support_points[0] = 1
        assert TrackedObject(1, box, (0, 0, 0), UNIFORM, support_points=[0, 2]) != want
        assert TrackedObject(1, box, (0, 0, 0), UNIFORM).support_points.shape == (0,)

    def test_support_points_copy_the_callers_array(self):
        box = OrientedBox((1, 0, 0), 1, 1, 1, 0)
        mine = np.array([3, 4], dtype=np.int64)
        obj = TrackedObject(1, box, (0, 0, 0), UNIFORM, support_points=mine)
        mine[0] = 7
        assert mine.flags.writeable
        assert obj.support_points.tolist() == [3, 4]

    @pytest.mark.parametrize("support", [[[1, 2]], [math.nan], [1.0, math.inf]])
    def test_malformed_support_points_rejected(self, support):
        box = OrientedBox((1, 0, 0), 1, 1, 1, 0)
        with pytest.raises(ValueError, match="TrackedObject.support_points"):
            TrackedObject(1, box, (0, 0, 0), UNIFORM, support_points=support)

    def test_velocity_needs_three_components(self):
        box = OrientedBox((1, 0, 0), 1, 1, 1, 0)
        with pytest.raises(ValueError, match="GroundTruthObject.velocity must be 3"):
            GroundTruthObject(box, ObjectClass.VEHICLE, (5.0, 0.0))


class TestCorridor:
    def test_straight_ahead(self):
        ego = EgoState(heading=0.0)
        assert in_corridor(10.0, 0.0, ego, 3.5, 40.0)
        assert in_corridor(10.0, 1.74, ego, 3.5, 40.0)
        assert not in_corridor(10.0, 1.8, ego, 3.5, 40.0)
        assert not in_corridor(41.0, 0.0, ego, 3.5, 40.0)
        assert not in_corridor(-1.0, 0.0, ego, 3.5, 40.0)

    def test_rotated_heading(self):
        ego = EgoState(heading=math.pi / 2)
        assert in_corridor(0.0, 10.0, ego, 3.5, 40.0)
        assert not in_corridor(10.0, 0.0, ego, 3.5, 40.0)

    def test_lateral_offset_adjacent_lane(self):
        ego = EgoState(heading=0.0)
        assert in_corridor(10.0, 3.5, ego, 3.5, 40.0, lateral_offset=3.5)
        assert not in_corridor(10.0, 0.0, ego, 3.5, 40.0, lateral_offset=3.5)
