"""Oracle and geometric detectors, matching, and regression error."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from drivetrace import detector
from drivetrace.config import PipelineConfig
from drivetrace.detector import (
    DETECTORS,
    MIN_EXTENT,
    ClusterParams,
    NoiseModel,
    _grid_clusters,
    box_regression_error,
    geometric_detect,
    match_boxes,
    oracle_detect,
)
from drivetrace.pipeline import detect
from drivetrace.scenario import ScenarioSpec, Template, generate
from drivetrace.scene import (GroundTruthObject, ObjectClass, OrientedBox, PointCloud, Scene,
                              EgoState, _clip_footprints, _footprints, box_corners, box_iou,
                              box_iou_pairs, box_rows)
from conftest import tiny_scene
from detector_oracle import bfs_grid_clusters, points_in_box, scan_support_points
from detector_oracle import oracle_detect as reference_oracle_detect
from iou_oracle import clip_polygon, scalar_box_iou
from risk_oracle import shannon_entropy


def gt_vehicle(x, y=0.0, yaw=0.0, velocity=(0.0, 0.0, 0.0)):
    return GroundTruthObject(OrientedBox((x, y, 0.8), 4.5, 1.9, 1.6, yaw),
                             ObjectClass.VEHICLE, velocity)


class TestDetectorTable:
    @pytest.mark.parametrize("name", sorted(DETECTORS))
    def test_pipeline_detect_runs_each_entry(self, name):
        scene = generate(ScenarioSpec(template=Template.LEAD_VEHICLE, seed=1))
        config = PipelineConfig(detector=name, seed=3)
        dets = detect(scene, config)
        assert dets == DETECTORS[name](scene, config)
        assert dets and all(d.support_points.size for d in dets)

    def test_oracle_entry_seeds_noise_with_run_seed(self):
        scene = tiny_scene([gt_vehicle(10.0)])
        noise = NoiseModel(pos_std=0.3)
        dets = detect(scene, PipelineConfig(noise=noise, seed=5))
        assert dets == oracle_detect(scene, noise, 5)
        # the stream is default_rng(5): dropout draw, then the center offsets
        rng = np.random.default_rng(5)
        rng.uniform()
        expected = np.asarray(scene.ground_truth[0].box.center) + 0.3 * rng.normal(0.0, 1.0, 3)
        assert dets[0].box.center == tuple(expected)
        assert detect(scene, PipelineConfig(noise=noise, seed=6)) != dets


class TestOracleDetect:
    def test_zero_noise_identity(self):
        gts = [gt_vehicle(10.0, yaw=0.3, velocity=(5, 0, 0)), gt_vehicle(20.0, -2.0)]
        scene = tiny_scene(gts)
        dets = oracle_detect(scene, NoiseModel(), 1)
        assert len(dets) == 2
        for det, gt in zip(dets, gts):
            assert det.box == gt.box
            assert det.velocity == gt.velocity
            # temperature -> 0 limit: one-hot, entropy 0
            assert det.class_dist.probs[gt.label.index] == pytest.approx(1.0)
            assert shannon_entropy(det.class_dist) == pytest.approx(0.0, abs=1e-8)

    def test_requires_ground_truth(self):
        scene = Scene(0.0, EgoState(), PointCloud())
        with pytest.raises(ValueError):
            oracle_detect(scene, NoiseModel(), 0)

    def test_seed_reproducible(self):
        scene = tiny_scene([gt_vehicle(10.0)])
        noise = NoiseModel(pos_std=0.3, dim_std=0.1, yaw_std=0.1)
        a = oracle_detect(scene, noise, 7)
        b = oracle_detect(scene, noise, 7)
        assert a == b
        c = oracle_detect(scene, noise, 8)
        assert a != c

    def test_dropout_binomial(self):
        # keep probability is 1 - dropout; binomial oracle over 10^4 seeds
        gts = [gt_vehicle(10.0 + 8 * k) for k in range(5)]
        scene = tiny_scene(gts)
        dropout = 0.7
        trials = 10_000
        kept = sum(
            len(oracle_detect(scene, NoiseModel(dropout_prob=dropout), s))
            for s in range(trials)
        )
        n = trials * len(gts)
        p = 1.0 - dropout
        std = math.sqrt(n * p * (1 - p))
        assert abs(kept - n * p) < 4 * std

    def test_position_noise_folded_mean(self):
        # per-axis E|err| = std * sqrt(2/pi); 3D mean norm = 2 std sqrt(2/pi)
        scene = tiny_scene([gt_vehicle(10.0)])
        std = 0.1
        errs = np.array([
            np.asarray(oracle_detect(scene, NoiseModel(pos_std=std), s)[0].box.center)
            - np.asarray(scene.ground_truth[0].box.center)
            for s in range(10_000)
        ])
        per_axis = np.abs(errs).mean(axis=0)
        np.testing.assert_allclose(per_axis, std * math.sqrt(2 / math.pi), rtol=0.05)
        mean_norm = np.linalg.norm(errs, axis=1).mean()
        assert mean_norm == pytest.approx(2 * std * math.sqrt(2 / math.pi), rel=0.05)

    def test_temperature_raises_entropy(self):
        scene = tiny_scene([gt_vehicle(10.0)])
        h = [
            shannon_entropy(oracle_detect(scene, NoiseModel(class_temperature=t), 0)[0].class_dist)
            for t in (0.25, 1.0, 4.0)
        ]
        assert h[0] < h[1] < h[2]

    def test_support_points_inside_box(self, rng):
        pts = np.column_stack([rng.uniform(0, 20, (500, 3)), np.ones(500)])
        scene = tiny_scene([gt_vehicle(10.0, y=5.0)], cloud_points=pts)
        det = oracle_detect(scene, NoiseModel(), 0)[0]
        mask = points_in_box(scene.cloud.xyz, scene.ground_truth[0].box, 0.1)
        assert np.array_equal(det.support_points, np.nonzero(mask)[0])


def sample_box_surface_grid(box: OrientedBox, step=0.1):
    """Deterministic full-surface sample of a box (all six faces)."""
    l, w, h = box.length, box.width, box.height
    us = np.arange(-0.5, 0.5 + 1e-9, step)
    pts = []
    for a in us:
        for b in us:
            pts.append((0.5 * l, a * w, b * h))
            pts.append((-0.5 * l, a * w, b * h))
            pts.append((a * l, 0.5 * w, b * h))
            pts.append((a * l, -0.5 * w, b * h))
            pts.append((a * l, b * w, 0.5 * h))
            pts.append((a * l, b * w, -0.5 * h))
    pts = np.asarray(pts)
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
    return pts @ rot.T + np.asarray(box.center)


class TestGeometricDetect:
    PARAMS = ClusterParams(ground_z_max=0.2, neighbor_radius=0.5, min_points=5)

    def test_two_blobs_two_clusters(self, rng):
        a = rng.normal((0, 0, 1), 0.1, (50, 3))
        b = rng.normal((10, 0, 1), 0.1, (50, 3))
        pts = np.vstack([a, b])
        scene = tiny_scene([], cloud_points=np.column_stack([pts, np.ones(100)]))
        dets = geometric_detect(scene, self.PARAMS)
        assert len(dets) == 2

    def test_box_surface_fit(self):
        box = OrientedBox((8.0, 0.0, 1.0), 4.0, 2.0, 1.5, 0.0)
        pts = sample_box_surface_grid(box)
        scene = tiny_scene([], cloud_points=np.column_stack([pts, np.ones(len(pts))]))
        dets = geometric_detect(scene, self.PARAMS)
        assert len(dets) == 1
        fit = dets[0].box
        assert fit.length == pytest.approx(4.0, rel=0.1)
        assert fit.width == pytest.approx(2.0, rel=0.1)
        assert fit.height == pytest.approx(1.5, rel=0.1)
        # yaw within 5 degrees of 0 mod pi
        yaw_mod = min(abs(fit.yaw) % math.pi, math.pi - abs(fit.yaw) % math.pi)
        assert yaw_mod < math.radians(5)

    def test_min_points_threshold(self):
        pts = np.array([[5.0, 0.0, 1.0, 1.0]])
        scene = tiny_scene([], cloud_points=pts)
        assert geometric_detect(scene, ClusterParams(min_points=2)) == []

    def test_ground_removed(self, rng):
        ground = np.column_stack([rng.uniform(0, 20, (300, 2)),
                                  rng.uniform(0, 0.05, 300), np.ones(300)])
        scene = tiny_scene([], cloud_points=ground)
        assert geometric_detect(scene, self.PARAMS) == []

    def test_point_order_invariance(self, rng):
        box = OrientedBox((8.0, 2.0, 1.0), 4.0, 2.0, 1.5, 0.4)
        pts = sample_box_surface_grid(box)
        data = np.column_stack([pts, np.ones(len(pts))])
        scene_a = tiny_scene([], cloud_points=data)
        scene_b = tiny_scene([], cloud_points=data[rng.permutation(len(data))])
        da = geometric_detect(scene_a, self.PARAMS)
        db = geometric_detect(scene_b, self.PARAMS)
        assert len(da) == len(db) == 1
        np.testing.assert_allclose(box_rows([da[0].box]), box_rows([db[0].box]), atol=1e-9)
        assert da[0].class_dist == db[0].class_dist
        # same evidence points, as coordinates
        pa = np.sort(scene_a.cloud.xyz[da[0].support_points], axis=0)
        pb = np.sort(scene_b.cloud.xyz[db[0].support_points], axis=0)
        np.testing.assert_allclose(pa, pb, atol=0)

    def test_support_within_inflated_fit(self, rng):
        box = OrientedBox((10.0, -3.0, 1.2), 3.0, 1.5, 1.8, 0.9)
        pts = sample_box_surface_grid(box)
        data = np.column_stack([pts, np.ones(len(pts))])
        scene = tiny_scene([], cloud_points=data)
        det = geometric_detect(scene, self.PARAMS)[0]
        support = scene.cloud.xyz[det.support_points]
        inside = points_in_box(support, det.box, self.PARAMS.neighbor_radius)
        assert inside.all()

    def test_class_heuristic(self, rng):
        # pedestrian-sized blob
        ped = rng.normal((5, 0, 0.9), (0.1, 0.1, 0.4), (60, 3))
        scene = tiny_scene([], cloud_points=np.column_stack([ped, np.ones(60)]))
        det = geometric_detect(scene, self.PARAMS)[0]
        assert det.class_dist.top_class is ObjectClass.PEDESTRIAN
        assert max(det.class_dist.probs) == pytest.approx(0.7)


@pytest.mark.parametrize(("name", "value"), [
    ("ground_z_max", float("nan")), ("ground_z_max", float("inf")),
    ("neighbor_radius", float("nan")), ("neighbor_radius", float("inf")),
    ("neighbor_radius", float("-inf")), ("neighbor_radius", 0.0), ("min_points", 0),
])
def test_cluster_params_rejects_invalid(name, value):
    with pytest.raises(ValueError, match=name):
        ClusterParams(**{name: value})


def test_cluster_params_non_finite_message_names_class():
    with pytest.raises(ValueError) as exc:
        ClusterParams(neighbor_radius=float("nan"))
    assert str(exc.value) == "ClusterParams.neighbor_radius must be finite, got nan"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", ["pos_std", "dim_std", "yaw_std", "class_temperature"])
def test_noise_model_rejects_non_finite(name, value):
    with pytest.raises(ValueError) as exc:
        NoiseModel(**{name: value})
    assert str(exc.value) == f"NoiseModel.{name} must be finite, got {value!r}"


def assert_same_clusters(xyz, radius):
    """The array-based clustering returns the oracle BFS's partition, in its
    order: sorted index arrays, ordered by smallest index."""
    got = _grid_clusters(xyz, radius)
    want = bfs_grid_clusters(xyz, radius)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    return got


_RADII = st.sampled_from([0.05, 0.3, 1 / 3, 0.5, 0.7, 1.0, 2.5])
_seeds = st.integers(0, 2 ** 32 - 1)


@st.composite
def _clouds(draw):
    n = draw(st.integers(0, 120))
    span = draw(st.sampled_from([0.5, 2.0, 8.0]))
    return draw(arrays(np.float64, (n, 3), elements=st.floats(-span, span)))


@st.composite
def _radius_pairs(draw):
    """Points with a partner at distance ``radius``, along an axis or in a
    random direction, then nudged an ulp or two in or out; some points sit
    on cell boundaries."""
    radius = draw(_RADII)
    pts = []
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.booleans()):
            p = radius * np.array(draw(st.tuples(*[st.integers(-4, 4)] * 3)), dtype=float)
        else:
            p = np.array(draw(st.tuples(*[st.floats(-3, 3)] * 3)))
        if draw(st.booleans()):
            u = np.zeros(3)
            u[draw(st.integers(0, 2))] = draw(st.sampled_from([-1.0, 1.0]))
        else:
            u = np.array(draw(st.tuples(*[st.floats(-1, 1)] * 3)))
            if np.linalg.norm(u) < 0.1:
                u = np.array([1.0, 1.0, 1.0])
            u /= np.linalg.norm(u)
        q = p + radius * u
        outward = draw(st.sampled_from([-1.0, 1.0]))
        for _ in range(draw(st.integers(0, 2))):
            q = np.nextafter(q, q + outward * u)
        pts += [p, q]
    return radius, np.array(pts)


#: A radius whose square, 2.45 subnormal steps, rounds to 2 steps.
_TINY_RADIUS = math.sqrt(2.45) * 2.0 ** -537


@st.composite
def _half_cell_lattices(draw):
    """Points on multiples of ``radius / 2``, each coordinate then nudged up
    to two ulps either way: they sit on the edges of sub-cells and cells."""
    radius = draw(_RADII)
    n = draw(st.integers(2, 40))
    xyz = draw(arrays(np.int64, (n, 3), elements=st.integers(-4, 4))) * (radius / 2)
    nudge = draw(arrays(np.int64, (n, 3), elements=st.integers(-2, 2)))
    for step in (1, 2):
        xyz = np.where(nudge >= step, np.nextafter(xyz, np.inf),
                       np.where(nudge <= -step, np.nextafter(xyz, -np.inf), xyz))
    return radius, xyz


class TestGridClustersOracle:
    @settings(max_examples=100, deadline=None)
    @given(_clouds(), _RADII)
    def test_random_clouds(self, xyz, radius):
        assert_same_clusters(xyz, radius)

    @settings(max_examples=150, deadline=None)
    @given(_radius_pairs())
    def test_pairs_at_the_radius(self, case):
        radius, xyz = case
        assert_same_clusters(xyz, radius)

    @settings(max_examples=50, deadline=None)
    @given(_seeds, st.integers(1, 40), _RADII)
    def test_duplicate_points(self, seed, n, radius):
        rng = np.random.default_rng(seed)
        base = rng.uniform(-2.0, 2.0, (n, 3))
        xyz = np.repeat(base, rng.integers(1, 4, n), axis=0)
        xyz = xyz[rng.permutation(len(xyz))]
        assert_same_clusters(xyz, radius)

    @settings(max_examples=30, deadline=None)
    @given(_seeds, st.integers(2, 400), _RADII)
    def test_scrambled_chain_merges_in_few_rounds(self, seed, n, radius):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        along = 0.9 * radius * np.arange(n)
        xyz = np.empty((n, 3))
        xyz[rng.permutation(n)] = rng.uniform(-5, 5, 3) + along[:, np.newaxis] * u
        merge, rounds = detector._merge_components, []

        def counted(parent, a, b):
            rounds.append(merge(parent, a, b))
            return rounds[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detector, "_merge_components", counted)
            clusters = assert_same_clusters(xyz, radius)
        assert len(clusters) == 1
        # hooking to the smallest root shrinks a chain geometrically; a
        # label sweep along it would need up to n rounds
        assert sum(rounds) <= 2 * math.ceil(math.log2(n)) + 1

    @settings(max_examples=30, deadline=None)
    @given(_seeds, _RADII, st.sampled_from([1e7, -1e7]))
    def test_clusters_far_apart(self, seed, radius, shift):
        rng = np.random.default_rng(seed)
        near = rng.normal(0.0, radius, (30, 3))
        far = rng.normal(0.0, radius, (30, 3)) + shift * np.array([1.0, -1.0, 1.0])
        xyz = np.vstack([near, far])[rng.permutation(60)]
        clusters = assert_same_clusters(xyz, radius)
        assert len(clusters) >= 2

    @pytest.mark.parametrize(("radius", "xyz", "top"), [
        # float32 cloud files can hold finite coordinates whose cell index
        # does not fit in int64
        pytest.param(0.7, [[1.0, 1.0, 1.0], [1e30, 1.0, 1.1], [-1e30, 1.0, 1.0]],
                     "1.429e+30", id="beyond-int64-cells"),
        # at 2**53 radii a float step is worth more than half a cell, so x
        # and x + 1.0 (1.43 radii apart) may round into one sub-cell
        pytest.param(0.7, [[2.0 ** 53 * 0.7, 0.0, 0.0], [2.0 ** 53 * 0.7 + 1.0, 0.0, 0.0]],
                     "9.007e+15", id="half-cell-unresolved"),
        pytest.param(1.0, [[0.0, 0.0, 0.0], [0.0, -(2.0 ** 40), 0.0]], "1.1e+12",
                     id="at-2**40-radii"),
        # the square overflows, so the stencil's bound is lost
        pytest.param(1e200, [[0.0, 0.0, 0.0], [1.6e200, 1.2e200, 0.0]], "1.6",
                     id="square-overflows"),
        # the square rounds to 2 subnormal steps and each axis's 0.49
        # radii to 1 step: one sub-cell, yet 3 steps apart
        pytest.param(_TINY_RADIUS, [[0.0, 0.0, 0.0], [0.49 * _TINY_RADIUS] * 3], "0.49",
                     id="square-subnormal"),
    ])
    def test_cloud_beyond_the_grid_raises(self, radius, xyz, top):
        with pytest.raises(ValueError, match=re.escape(
                f"cannot cluster at neighbor radius {radius!r}: the largest "
                f"coordinate is {top} radii, but clustering needs")):
            _grid_clusters(np.array(xyz), radius)

    @pytest.mark.parametrize(("gap", "n_clusters"), [(1.0, 800), (0.5, 400)])
    def test_coordinates_just_inside_the_grid(self, gap, n_clusters):
        # at 2**39 radii a float step is 2**-14 m, far below half a cell
        k = np.arange(400.0)
        xyz = np.zeros((800, 3))
        xyz[0::2, 0] = 2.0 ** 39 * 0.7 + 2.0 * k
        xyz[1::2, 0] = xyz[0::2, 0] + gap
        xyz[:, 1] = np.repeat(5.0 * k, 2)
        assert len(assert_same_clusters(xyz, 0.7)) == n_clusters

    @pytest.mark.parametrize("radius", [0.05, 1 / 3, 0.5, 0.7, 1.0])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_pair_at_the_radius_in_cells_two_apart(self, radius, axis):
        # -5e-324 lies in cell -1 and the radius in cell 1, yet the float
        # distance is exactly the radius: the oracle never tests the pair
        xyz = np.zeros((2, 3))
        xyz[0, axis], xyz[1, axis] = -5e-324, radius
        assert len(assert_same_clusters(xyz, radius)) == 2

    @settings(max_examples=100, deadline=None)
    @given(_half_cell_lattices())
    def test_half_cell_lattice_nudged_by_ulps(self, case):
        radius, xyz = case
        assert_same_clusters(xyz, radius)

    @settings(max_examples=10, deadline=None)
    @given(_seeds, st.sampled_from([0.5, 0.7]))
    def test_box_surfaces_with_gaps_near_the_radius(self, seed, radius):
        # dense surfaces are joined by face neighbours, so the later offsets
        # skip most pairs; the gaps are bridged, or not, by those offsets
        rng = np.random.default_rng(seed)
        surfaces, x = [], 0.0
        for _ in range(3):
            length, width, height = rng.uniform(0.8, 2.0, 3)
            box = OrientedBox((x + length / 2, rng.uniform(-0.5, 0.5), 1.0), length, width,
                              height, rng.uniform(-0.2, 0.2))
            surfaces.append(sample_box_surface_grid(box, step=0.125))
            x += length + radius * rng.uniform(0.95, 1.25)
        xyz = np.vstack(surfaces)
        assert_same_clusters(xyz + rng.normal(0.0, 0.01, xyz.shape), radius)

    def test_dense_traffic_tests_few_pairs(self):
        # the seed-1 scene tested 109,161 pairs when every pair of points
        # in adjacent cells was tested
        scene = generate(ScenarioSpec(template=Template.DENSE_TRAFFIC, seed=1))
        xyz = scene.cloud.xyz[scene.cloud.xyz[:, 2] > ClusterParams().ground_z_max]
        near, tested = detector._near_pairs, []

        def counted(pts, i, j, r2):
            tested.append(i.size)
            return near(pts, i, j, r2)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detector, "_near_pairs", counted)
            _grid_clusters(xyz, ClusterParams().neighbor_radius)
        assert 0 < sum(tested) <= 30_000

    def test_sixty_object_cloud_memory(self):
        # 1.7 MB when pairs were generated per point; looking up the whole
        # stencil of every sub-cell at once would take about 6 MB
        scene = generate(ScenarioSpec(template=Template.DENSE_TRAFFIC, seed=1, n_objects=60))
        xyz = scene.cloud.xyz[scene.cloud.xyz[:, 2] > ClusterParams().ground_z_max]
        tracemalloc.start()
        try:
            _grid_clusters(xyz, ClusterParams().neighbor_radius)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6

    @pytest.mark.parametrize("template", list(Template))
    def test_geometric_detect_matches_oracle_clustering(self, template):
        scene = generate(ScenarioSpec(template=template, seed=1))
        params = ClusterParams()
        got = geometric_detect(scene, params)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detector, "_grid_clusters", bfs_grid_clusters)
            want = geometric_detect(scene, params)
        assert got == want


class TestRegressionError:
    def test_identity(self):
        boxes = [OrientedBox((1, 2, 3), 4, 2, 1.5, 0.5)]
        assert box_regression_error(boxes, boxes, [(0, 0)]) == 0.0

    def test_unit_offset(self):
        a = [OrientedBox((1, 0, 0), 1, 1, 1, 0.0)]
        b = [OrientedBox((0, 0, 0), 1, 1, 1, 0.0)]
        assert box_regression_error(a, b, [(0, 0)]) == pytest.approx(1.0)

    def test_yaw_wrap(self):
        a = [OrientedBox((0, 0, 0), 1, 1, 1, 3.0)]
        b = [OrientedBox((0, 0, 0), 1, 1, 1, -3.0)]
        expected = (2 * math.pi - 6.0) ** 2  # 0.08019391820239662
        assert box_regression_error(a, b, [(0, 0)]) == pytest.approx(expected, abs=1e-12)

    def test_empty_matching(self):
        assert box_regression_error([], [], []) is None

    def test_rigid_transform_invariant(self, rng):
        from conftest import random_box

        pred = [random_box(rng) for _ in range(5)]
        gt = [random_box(rng) for _ in range(5)]
        matching = [(i, i) for i in range(5)]
        base = box_regression_error(pred, gt, matching)
        angle, shift = 0.7, np.array([3.0, -2.0, 1.0])
        c, s = math.cos(angle), math.sin(angle)

        def move(box):
            x, y, z = box.center
            return OrientedBox(
                (c * x - s * y + shift[0], s * x + c * y + shift[1], z + shift[2]),
                box.length, box.width, box.height, box.yaw + angle)

        moved = box_regression_error([move(b) for b in pred], [move(b) for b in gt],
                                     matching)
        assert moved == pytest.approx(base, rel=1e-9)


class TestMatching:
    def test_greedy_by_iou(self):
        gt = [OrientedBox((0, 0, 0), 2, 2, 2, 0.0), OrientedBox((10, 0, 0), 2, 2, 2, 0.0)]
        pred = [OrientedBox((0.1, 0, 0), 2, 2, 2, 0.0), OrientedBox((10.5, 0, 0), 2, 2, 2, 0.0),
                OrientedBox((50, 0, 0), 2, 2, 2, 0.0)]
        matches = match_boxes(pred, gt)
        assert [(m[0], m[1]) for m in matches] == [(0, 0), (1, 1)]
        assert matches[0][2] > matches[1][2]

    def test_threshold(self):
        gt = [OrientedBox((0, 0, 0), 1, 1, 1, 0.0)]
        pred = [OrientedBox((0.99, 0, 0), 1, 1, 1, 0.0)]  # sliver of overlap
        assert detector.MATCH_IOU == 0.1
        assert match_boxes(pred, gt) == []


def full_scan_matching(predicted, truth):
    """Greedy matching over every pair at detector.MATCH_IOU: the
    reference for match_boxes."""
    pairs = sorted(
        ((iou, i, j) for i, p in enumerate(predicted) for j, t in enumerate(truth)
         if (iou := box_iou(p, t)) >= detector.MATCH_IOU),
        key=lambda x: (-x[0], x[1], x[2]))
    used_p, used_t, matches = set(), set(), []
    for iou, i, j in pairs:
        if i not in used_p and j not in used_t:
            used_p.add(i)
            used_t.add(j)
            matches.append((i, j, iou))
    return sorted(matches, key=lambda m: m[0])


_coord = st.one_of(st.floats(-6, 6), st.floats(-200, 200))
_box = st.builds(
    OrientedBox,
    st.tuples(_coord, _coord, st.floats(-2, 2)),
    st.floats(0.3, 5), st.floats(0.3, 3), st.floats(0.3, 2),
    st.one_of(st.just(0.0), st.floats(-math.pi, math.pi)),
)


@st.composite
def _neighbours(draw):
    """A box and a close neighbour of equal size: sharing a face along x
    or in z, or shifted along the footprint diagonal by a fraction s of it,
    which overlaps at the corners for s < 1 and touches at one corner
    (circles touching too) for s = 1."""
    b = draw(_box)
    (x, y, z), length, width, height = b.center, b.length, b.width, b.height
    kind = draw(st.sampled_from(["side", "stacked", "corner"]))
    if kind == "stacked":
        return [b, OrientedBox((x, y, z + height), length, width, height, b.yaw)]
    s = 1.0 if kind == "side" else draw(st.one_of(st.just(1.0), st.floats(0.9, 1.0)))
    dy = 0.0 if kind == "side" else s * width
    return [OrientedBox(b.center, length, width, height, 0.0),
            OrientedBox((x + s * length, y + dy, z), length, width, height, 0.0)]


class TestMatchingPrefilter:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_box, max_size=6), st.lists(_box, max_size=6),
           st.lists(_neighbours(), max_size=2))
    def test_equals_full_scan(self, pred, truth, neighbours):
        for a, b in neighbours:
            pred.append(a)
            truth.append(b)
        assert match_boxes(pred, truth) == full_scan_matching(pred, truth)


def _shifted(box, forward, left, up=0.0, **changes):
    """``box`` moved by (forward, left) in its own frame and ``up`` in z,
    with some of its fields replaced."""
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    x, y, z = box.center
    fields = dict(length=box.length, width=box.width, height=box.height, yaw=box.yaw)
    fields.update(changes)
    return OrientedBox((x + c * forward - s * left, y + s * forward + c * left, z + up),
                       fields["length"], fields["width"], fields["height"], fields["yaw"])


@st.composite
def _special_pairs(draw):
    """(a, b, IoU) for pairs with a known IoU: identical, nested, turned by
    a multiple of pi/2 (square footprints), half-overlapping along a shared
    edge line, and touching at an edge, a corner or a face in z."""
    a = draw(_box)
    length, width, height = a.length, a.width, a.height
    kind = draw(st.sampled_from(["identical", "nested", "quarter_turn", "collinear_half",
                                 "edge_touch", "corner_touch", "stacked"]))
    if kind == "identical":
        return a, a, 1.0
    if kind == "nested":
        return a, _shifted(a, 0.0, 0.0, length=length / 2, width=width / 2,
                           height=height / 2), 1.0 / 8.0
    if kind == "quarter_turn":
        square = _shifted(a, 0.0, 0.0, width=length)
        turns = draw(st.integers(-2, 2))
        return square, _shifted(square, 0.0, 0.0, yaw=a.yaw + turns * math.pi / 2), 1.0
    if kind == "collinear_half":
        # intersection l/2 of a length-l box, union 3l/2
        return a, _shifted(a, length / 2, 0.0), 1.0 / 3.0
    if kind == "edge_touch":
        return a, _shifted(a, 0.0, width), 0.0
    if kind == "corner_touch":
        return a, _shifted(a, length, width), 0.0
    return a, _shifted(a, 0.0, 0.0, up=height), 0.0


def _oracle_tolerance(*boxes):
    """1e-12 while every centre lies within 6 m of the origin; 1e-8 beyond,
    where both shoelace sums lose digits to cancellation."""
    near = all(abs(v) <= 6.0 for b in boxes for v in b.center[:2])
    return 1e-12 if near else 1e-8


class TestIouKernel:
    """The batched IoU kernel against the per-pair scalar clipper."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.tuples(_box, _box), _neighbours().map(tuple)))
    def test_matches_scalar_oracle(self, pair):
        a, b = pair
        assert abs(box_iou(a, b) - scalar_box_iou(a, b)) <= _oracle_tolerance(a, b)

    @settings(max_examples=200, deadline=None)
    @given(_special_pairs())
    def test_special_pairs(self, case):
        a, b, want = case
        got = box_iou(a, b)
        assert abs(got - scalar_box_iou(a, b)) <= _oracle_tolerance(a, b)
        assert got == pytest.approx(want, abs=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_box, max_size=6), st.lists(_box, max_size=6),
           st.lists(st.one_of(_neighbours(), _special_pairs().map(lambda c: c[:2])),
                    max_size=3))
    def test_batch_equals_single_pairs(self, pred, truth, extra):
        for a, b in extra:
            pred.append(a)
            truth.append(b)
        ia, ib = np.nonzero(np.ones((len(pred), len(truth)), dtype=bool))
        batched = box_iou_pairs(box_rows(pred), box_rows(truth), ia, ib)
        single = [box_iou(pred[i], truth[j]) for i, j in zip(ia.tolist(), ib.tolist())]
        assert batched.tolist() == single

    def test_no_pairs(self):
        rows = box_rows([OrientedBox((0, 0, 0), 1, 1, 1, 0.0)])
        assert box_iou_pairs(rows, rows, [], []).shape == (0,)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_box, min_size=1, max_size=8))
    def test_footprints_are_box_corner_bits(self, boxes):
        footprints = _footprints(box_rows(boxes))
        for box, fp in zip(boxes, footprints):
            assert np.array_equal(fp, box_corners(box)[:4, :2])

    #: a self-crossing subject and clip quadrilateral whose clip keeps 9 vertices
    NINE_VERTICES = (
        [[-0.988161627321579, 0.5352891062622658], [-0.7207660317481197, 0.8879250482989005],
         [-0.9114097898205831, 0.41637159947369917], [0.5371710860532641, 0.0832753612044248]],
        [[-0.4519319215718065, 0.3563941481750472], [0.2798405011505405, 0.1253149722974436],
         [0.39851245908612043, 0.9319844808777915], [-0.8809970832741094, 0.8261858005380984]])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(arrays(np.float64, (4, 2), elements=st.floats(-1, 1)),
                              arrays(np.float64, (4, 2), elements=st.floats(-1, 1))),
                    min_size=1, max_size=4),
           st.booleans())
    def test_clip_vertices_are_scalar_bits(self, quads, widen):
        """Any quadrilaterals, convex or not; with ``widen`` the batch also
        holds a row of 9 clipped vertices, so every row takes the widened
        buffers."""
        if widen:
            quads.append(tuple(np.array(q) for q in self.NINE_VERTICES))
        subject, clip = (np.stack(side) for side in zip(*quads))
        pts, count = _clip_footprints(subject, clip)
        assert pts.shape[1] == 16 or not widen
        for row, (s, c) in enumerate(quads):
            want = clip_polygon(s, c).reshape(-1, 2)
            assert count[row] == len(want)
            assert np.array_equal(pts[row, :count[row]], want)


_YAWS = st.one_of(st.sampled_from([0.0, math.pi / 2, -math.pi / 2, math.pi / 4, math.pi]),
                  st.floats(-math.pi, math.pi))


def _ulp_steps(v):
    """``v`` and ``v`` moved one and two ulps down and up."""
    down = np.nextafter(v, -np.inf)
    up = np.nextafter(v, np.inf)
    return [np.nextafter(down, -np.inf), down, v, up, np.nextafter(up, np.inf)]


@st.composite
def _boxes_near_their_points(draw, n_boxes=st.integers(1, 4), spread=3.0,
                             extent=st.floats(0.05, 8.0)):
    """Overlapping boxes centred within ``spread`` of a point up to 1e8 m
    from the origin, and a cloud holding, per box, points on each inflated
    face and corner, each also nudged up to two ulps in and out along x and
    y, plus random points."""
    scale = draw(st.sampled_from([0.0, 10.0, 1e3, 1e6, 1e8]))
    base = np.array([draw(st.floats(-scale, scale)), draw(st.floats(-scale, scale))])
    rng = np.random.default_rng(draw(_seeds))
    boxes, pts = [], []
    for _ in range(draw(n_boxes)):
        cx, cy = base + rng.uniform(-spread, spread, 2)
        box = OrientedBox((cx, cy, 1.0), draw(extent), draw(extent), 2.0, draw(_YAWS))
        boxes.append(box)
        hl = box.length / 2.0 + detector.SUPPORT_MARGIN
        hw = box.width / 2.0 + detector.SUPPORT_MARGIN
        t = rng.uniform(-1.0, 1.0, 4)
        local = np.array([(sx * hl, sy * hw) for sx in (-1, 1) for sy in (-1, 1)]
                         + [(-hl, t[0] * hw), (hl, t[1] * hw),
                            (t[2] * hl, -hw), (t[3] * hl, hw)])
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        xy = np.column_stack([cx + local[:, 0] * c - local[:, 1] * s,
                              cy + local[:, 0] * s + local[:, 1] * c])
        for x in _ulp_steps(xy[:, 0]):
            for y in _ulp_steps(xy[:, 1]):
                pts.append(np.column_stack([x, y, np.ones(len(x))]))
        pts.append(np.column_stack([rng.uniform(-1.5, 1.5, (40, 2)) * (hl + hw) + (cx, cy),
                                    rng.uniform(-0.5, 2.5, 40)]))
    xyz = np.vstack(pts)[rng.permutation(sum(len(p) for p in pts))]
    return boxes, np.column_stack([xyz, np.ones(len(xyz))])


def _vehicles(boxes: list[OrientedBox], data: np.ndarray) -> Scene:
    """A scene of one still vehicle per box over the cloud ``data``."""
    return tiny_scene([GroundTruthObject(box, ObjectClass.VEHICLE, (0.0, 0.0, 0.0))
                       for box in boxes], cloud_points=data)


def _assert_supports_equal_full_scan(scene: Scene, noise: NoiseModel, seed: int) -> int:
    """Each detection's support points are the full-cloud scan of the
    ground-truth box it was made from.  Returns the number of detections."""
    support, boxes = detector._support_indices, []

    def recorded(xyz, x, y, box):
        boxes.append(box)
        return support(xyz, x, y, box)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detector, "_support_indices", recorded)
        dets = oracle_detect(scene, noise, seed)
    # detections keep ground-truth order, so their boxes are a subsequence of it
    truth = iter(gt.box for gt in scene.ground_truth)
    assert len(boxes) == len(dets) and all(box in truth for box in boxes)
    for det, box in zip(dets, boxes):
        want = scan_support_points(scene.cloud.xyz, box, detector.SUPPORT_MARGIN)
        assert np.array_equal(det.support_points, want)
    return len(dets)


class TestSupportPointsOracle:
    @settings(max_examples=150, deadline=None)
    @given(_boxes_near_their_points(), st.sampled_from([0.0, 0.3, 0.6]), _seeds)
    def test_support_points_equal_full_scan(self, case, dropout, seed):
        kept = _assert_supports_equal_full_scan(_vehicles(*case), NoiseModel(dropout_prob=dropout),
                                                seed)
        assert kept == len(case[0]) or dropout > 0

    @settings(max_examples=40, deadline=None)
    @given(_boxes_near_their_points(st.integers(10, 30), 1.0, st.floats(2.0, 8.0)), _seeds)
    def test_crowded_boxes_equal_full_scan(self, case, seed):
        # 10-30 boxes of 2-8 m centred within 1 m: most points lie in several
        noise = NoiseModel(pos_std=0.5, dim_std=0.5, yaw_std=0.5, dropout_prob=0.2)
        _assert_supports_equal_full_scan(_vehicles(*case), noise, seed)

    @pytest.mark.parametrize("noise", [
        NoiseModel(),
        NoiseModel(pos_std=0.3, dim_std=0.2, yaw_std=0.1, dropout_prob=0.3),
    ], ids=["noiseless", "noisy"])
    def test_sixty_object_dense_scene(self, noise):
        # the dense-60 benchmark's scale: 61 vehicles, 263 of whose 1,830
        # box pairs overlap
        scene = generate(ScenarioSpec(template=Template.DENSE_TRAFFIC, seed=1, n_objects=60))
        truth = [gt.box for gt in scene.ground_truth]
        assert len(truth) == 61
        assert sum(box_iou(a, b) > 0 for i, a in enumerate(truth) for b in truth[i + 1:]) == 263
        kept = _assert_supports_equal_full_scan(scene, noise, 5)
        assert kept == 61 or (noise.dropout_prob > 0 and 0 < kept < 61)

    @pytest.mark.parametrize("axis", [0, 1], ids=["x-face", "y-face"])
    def test_point_on_a_far_face_where_the_rounded_bound_lands(self, axis):
        # A float32 point exactly on the inflated front face of a 0.3 m box
        # centred 1e8 m out along x (yaw 0) or along y (yaw pi/2).  With a
        # slack of extent only, 1e-9 * (1 + ex + ey), the rounded prefilter
        # bound cx + ax is the point's own coordinate, so only a non-strict
        # compare kept it; the centre term puts the bound past it.
        centre = [0.0, 0.0, 0.0]
        centre[axis] = 99_999_999.75
        box = OrientedBox(tuple(centre), 0.3, 0.5, 1.0, axis * math.pi / 2)
        point = np.zeros((1, 4))
        point[0, axis] = 1e8
        scene = _vehicles([box], point)
        assert scene.cloud.xyz[0, axis] == 1e8  # a float32 value
        hl = box.length / 2.0 + detector.SUPPORT_MARGIN
        hw = box.width / 2.0 + detector.SUPPORT_MARGIN
        assert 1e8 - centre[axis] == hl
        assert centre[axis] + (hl + 1e-9 * (1.0 + hl + hw)) == 1e8
        assert scan_support_points(scene.cloud.xyz, box, detector.SUPPORT_MARGIN).tolist() == [0]
        (det,) = oracle_detect(scene, NoiseModel(), 0)
        assert det.support_points.tolist() == [0]

    def test_sixty_object_scan_makes_no_whole_cloud_float_array(self):
        # per box, the scan keeps a few bool masks of the cloud and arrays
        # of its candidates.  Measured 2.9 bytes a point for the median box
        # and 7.0 for the largest; 17 when it took the float64 offsets
        # x - cx, and a median of 6.9 when only x was prefiltered
        scene = generate(ScenarioSpec(template=Template.DENSE_TRAFFIC, seed=1, n_objects=60))
        xyz = scene.cloud.xyz
        x, y = np.ascontiguousarray(xyz[:, 0]), np.ascontiguousarray(xyz[:, 1])
        peaks = []
        for gt in scene.ground_truth:
            tracemalloc.start()
            try:
                detector._support_indices(xyz, x, y, gt.box)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 8 * len(xyz) and np.median(peaks) < 4 * len(xyz)


@st.composite
def _noise_models(draw) -> NoiseModel:
    """The all-zero noise model half the time; else one or more of the four
    scales that need draws made non-zero.  Any class temperature."""
    temperature = draw(st.sampled_from([1e-9, 0.25, 1.0, 4.0]) | st.floats(1e-3, 100.0))
    scales = {}
    if draw(st.booleans()):
        names = draw(st.sets(st.sampled_from(["pos_std", "dim_std", "yaw_std", "dropout_prob"]),
                             min_size=1))
        for name in names:
            scales[name] = draw(st.floats(1e-6, 0.9) if name == "dropout_prob"
                                else st.floats(1e-6, 5.0))
    return NoiseModel(class_temperature=temperature, **scales)


@st.composite
def _oracle_scenes(draw) -> Scene:
    """Up to six ground-truth boxes centred up to 1e8 m from the origin,
    with extents from below MIN_EXTENT to 20 m, any yaw and label, and a
    cloud of points around each of them."""
    scale = draw(st.sampled_from([0.0, 10.0, 1e3, 1e6, 1e8]))
    coord = st.floats(-scale, scale)
    extent = st.floats(1e-4, MIN_EXTENT) | st.floats(MIN_EXTENT, 20.0)
    key = (lambda g: (g.box.center, g.box.length, g.box.width, g.box.height, g.box.yaw))
    truths = draw(st.lists(st.builds(
        GroundTruthObject,
        st.builds(OrientedBox, st.tuples(coord, coord, st.floats(-2.0, 2.0)),
                  extent, extent, extent, _YAWS),
        st.sampled_from(ObjectClass),
        st.tuples(*[st.floats(-30.0, 30.0)] * 3)), max_size=6, unique_by=key))
    rng = np.random.default_rng(draw(_seeds))
    pts = [np.asarray(g.box.center) + rng.uniform(-1.0, 1.0, (20, 3)) * max(
        g.box.length, g.box.width, g.box.height) for g in truths]
    xyz = np.vstack(pts) if pts else np.empty((0, 3))
    return tiny_scene(truths, cloud_points=np.column_stack([xyz, np.ones(len(xyz))]))


class TestOracleDetectReference:
    """The detector against its reference, which always draws and rebuilds
    every box (``detector_oracle.oracle_detect``)."""

    @settings(max_examples=300, deadline=None)
    @given(_oracle_scenes(), _noise_models(), _seeds)
    def test_equals_reference(self, scene, noise, seed):
        assert oracle_detect(scene, noise, seed) == reference_oracle_detect(scene, noise, seed)

    def test_negative_zero_keeps_its_sign(self):
        """The one declared difference: with no noise a detection's box is
        its ground truth's, so a centre coordinate or yaw of -0.0 keeps its
        sign.  The reference adds a draw times zero to each, which gives the
        draw's sign: default_rng(seed) draws a uniform, then three centre,
        three extent and one yaw normals."""
        box = OrientedBox((-0.0, -0.0, -0.0), 4.5, 1.9, 1.6, -0.0)
        scene = tiny_scene([GroundTruthObject(box, ObjectClass.VEHICLE, (0.0, 0.0, 0.0))])

        def signs(b: OrientedBox) -> list[float]:
            return [math.copysign(1.0, v) for v in (*b.center, b.yaw)]

        reference_signs = []
        for seed in range(4):
            (det,) = oracle_detect(scene, NoiseModel(), seed)
            (ref,) = reference_oracle_detect(scene, NoiseModel(), seed)
            assert det == ref and det.box is box
            assert signs(det.box) == [-1.0] * 4
            rng = np.random.default_rng(seed)
            rng.uniform()
            d_pos = rng.normal(0.0, 1.0, 3)
            rng.normal(0.0, 1.0, 3)
            reference_signs += signs(ref.box)
            assert signs(ref.box) == np.sign([*d_pos, rng.normal(0.0, 1.0)]).tolist()
        assert 1.0 in reference_signs

    def test_noiseless_box_below_min_extent_is_raised(self):
        box = OrientedBox((1.0, 2.0, 0.5), 1e-4, 0.5, 1e-3, 0.3)
        scene = tiny_scene([GroundTruthObject(box, ObjectClass.PEDESTRIAN, (0.0, 0.0, 0.0))])
        (det,) = oracle_detect(scene, NoiseModel(), 0)
        assert det.box == OrientedBox((1.0, 2.0, 0.5), MIN_EXTENT, 0.5, MIN_EXTENT, 0.3)
