"""Synthetic scenario generation and interaction labeling."""

import math

import numpy as np
import pytest

from drivetrace.interaction import InteractionLabel
from drivetrace.reasoner import ReasonerConfig
from drivetrace.scenario import (
    RANGE_LIMIT,
    ScenarioSpec,
    Template,
    apply_azimuth_occlusion,
    generate,
    label_interactions,
)
from drivetrace.scene import GroundTruthObject, ObjectClass, OrientedBox, in_corridor
from drivetrace.scene_io import save_scene
from conftest import tiny_scene
from detector_oracle import points_in_box

RCFG = ReasonerConfig()


class TestGenerate:
    def test_empty_road(self):
        scene = generate(ScenarioSpec(template=Template.EMPTY_ROAD, seed=0))
        assert scene.ground_truth == ()
        assert len(scene.cloud) > 1000
        # only ground points: all near z = 0
        assert float(np.abs(scene.cloud.xyz[:, 2]).max()) < 0.2

    @pytest.mark.parametrize(("template", "base"), [(Template.LEAD_VEHICLE, 80.0),
                                                    (Template.PEDESTRIAN_CROSSING, 50.0)])
    def test_intensity_follows_the_owner_class(self, template, base):
        """Each point's intensity is drawn with std 5 around its owner's
        base: 30 for the ground, the class's own for an object."""
        scene = generate(ScenarioSpec(template=template, seed=1))
        xyz, intensity = scene.cloud.xyz, scene.cloud.data[:, 3]
        box = scene.ground_truth[0].box
        on_object = points_in_box(xyz, box, margin=0.1) & (xyz[:, 2] > 0.3)
        ground = ~points_in_box(xyz, box, margin=0.5)
        assert on_object.sum() > 30 and ground.sum() > 8000
        assert intensity[on_object].mean() == pytest.approx(base, abs=3.0)
        assert intensity[ground].mean() == pytest.approx(30.0, abs=0.5)

    def test_deterministic_bytes(self, tmp_path):
        spec = ScenarioSpec(template=Template.DENSE_TRAFFIC, seed=11)
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        save_scene(generate(spec), a / "s.json")
        save_scene(generate(spec), b / "s.json")
        assert (a / "s.json").read_bytes() == (b / "s.json").read_bytes()
        assert (a / "s.pts").read_bytes() == (b / "s.pts").read_bytes()

    def test_different_seeds_differ(self):
        a = generate(ScenarioSpec(template=Template.LEAD_VEHICLE, seed=1))
        b = generate(ScenarioSpec(template=Template.LEAD_VEHICLE, seed=2))
        assert a.ground_truth[0].box.center != b.ground_truth[0].box.center

    def test_points_within_range_limit(self):
        for t in Template:
            scene = generate(ScenarioSpec(template=t, seed=5))
            r = np.linalg.norm(scene.cloud.xyz, axis=1)
            assert float(r.max()) <= RANGE_LIMIT

    def test_pedestrian_in_corridor_5_to_15(self):
        for seed in range(10):
            scene = generate(ScenarioSpec(template=Template.PEDESTRIAN_CROSSING, seed=seed))
            box = scene.ground_truth[0].box
            assert scene.ground_truth[0].label is ObjectClass.PEDESTRIAN
            assert in_corridor(box.center[0], box.center[1], scene.ego,
                               RCFG.corridor_width, RCFG.corridor_length)
            assert 5.0 <= box.center[0] <= 15.0

    def test_surface_adherence_noiseless(self):
        spec = ScenarioSpec(template=Template.STATIC_VEHICLE_AHEAD, seed=3, noise_std=0.0)
        scene = generate(spec)
        box = scene.ground_truth[0].box
        # the cloud holds float32 values, so each coordinate may lie up to half
        # a float32 spacing off the face; one whole spacing at the largest
        # coordinate covers any rotated sum of two of those half-spacings
        spacing = np.abs(np.spacing(np.abs(scene.cloud.xyz).max().astype(np.float32)))
        obj_pts = scene.cloud.xyz[points_in_box(scene.cloud.xyz, box, 1e-6 + spacing)]
        assert len(obj_pts) > 100
        # every object point sits on a face: max local coordinate at a half-extent
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        rel = obj_pts - np.asarray(box.center)
        lx = np.abs(rel[:, 0] * c + rel[:, 1] * s) / (box.length / 2)
        ly = np.abs(-rel[:, 0] * s + rel[:, 1] * c) / (box.width / 2)
        lz = np.abs(rel[:, 2]) / (box.height / 2)
        on_face = np.maximum(np.maximum(lx, ly), lz)
        # float32 rounding moves each point by at most half its spacing per
        # coordinate; carried through the rotation and the max, that bounds
        # each local coordinate's error, on top of float64 rounding (1e-9)
        ex, ey, ez = (np.abs(np.spacing(obj_pts.astype(np.float32))) / 2).T
        bound = np.maximum.reduce([(abs(c) * ex + abs(s) * ey) / (box.length / 2),
                                   (abs(s) * ex + abs(c) * ey) / (box.width / 2),
                                   ez / (box.height / 2)])
        assert np.all(np.abs(on_face - 1.0) <= bound + 1e-9)

    def test_noise_within_three_sigma(self):
        spec = ScenarioSpec(template=Template.STATIC_VEHICLE_AHEAD, seed=3, noise_std=0.05)
        scene = generate(spec)
        box = scene.ground_truth[0].box
        near = points_in_box(scene.cloud.xyz, box, 0.5) & (scene.cloud.xyz[:, 2] > 0.3)
        pts = scene.cloud.xyz[near]
        # distance to the box surface along the ray stays within 3 sigma for >= 99%
        inside = points_in_box(pts, box, 3 * 0.05)
        assert inside.mean() >= 0.99

    def test_occlusion_removes_fully_hidden_box(self):
        # box B entirely behind box A in azimuth: every B point is shadowed
        a = OrientedBox((10.0, 0.0, 1.0), 2.0, 4.0, 2.0, 0.0)
        b = OrientedBox((20.0, 0.0, 1.0), 1.0, 1.0, 1.0, 0.0)
        rng = np.random.default_rng(0)
        b_pts = rng.uniform(-0.5, 0.5, (200, 3)) + np.asarray(b.center)
        owners = np.full(200, 1)
        keep = apply_azimuth_occlusion(b_pts, owners, [a, b])
        assert not keep.any()

    def test_occlusion_only_removes(self, rng):
        pts = np.column_stack([rng.uniform(0, 40, (500, 2)), rng.uniform(0, 2, 500)])
        owners = np.full(500, -1)
        boxes = [OrientedBox((10, 0, 1), 2, 3, 2, 0.0)]
        keep = apply_azimuth_occlusion(pts, owners, boxes)
        assert keep.sum() <= 500
        # never creates points; unshadowed region untouched
        in_front = pts[:, 0] < 7.0
        assert keep[in_front].all()

    def test_static_vehicle_distance_band(self):
        # risk must land between slow_level and brake_level for the cascade:
        # nearest face in (7.13, 10.22) m keeps exp(-d/20) inside (0.6, 0.7)
        for seed in range(10):
            scene = generate(ScenarioSpec(template=Template.STATIC_VEHICLE_AHEAD, seed=seed))
            box = scene.ground_truth[0].box
            front = box.center[0] - box.length / 2
            assert 7.2 < front < 10.2

    def test_dense_traffic_counts(self):
        scene = generate(ScenarioSpec(template=Template.DENSE_TRAFFIC, seed=4, n_objects=4))
        assert len(scene.ground_truth) == 5  # lead + 4
        lead = scene.ground_truth[0]
        assert in_corridor(lead.box.center[0], lead.box.center[1], scene.ego,
                           RCFG.corridor_width, RCFG.corridor_length)
        for g in scene.ground_truth[1:]:
            assert not in_corridor(g.box.center[0], g.box.center[1], scene.ego,
                                   RCFG.corridor_width, RCFG.corridor_length)

    def test_cloud_has_intensity(self):
        scene = generate(ScenarioSpec(template=Template.LEAD_VEHICLE, seed=1))
        intensity = scene.cloud.data[:, 3]
        assert (intensity >= 0).all()
        assert intensity.std() > 1.0


class TestLabelInteractions:
    def test_empty_road(self):
        scene = generate(ScenarioSpec(template=Template.EMPTY_ROAD, seed=0))
        assert label_interactions(scene, RCFG) == []

    def test_lead_vehicle_follow(self):
        scene = generate(ScenarioSpec(template=Template.LEAD_VEHICLE, seed=6))
        labels = label_interactions(scene, RCFG)
        assert labels == [(0, InteractionLabel.FOLLOW)]

    def test_pedestrian_yield(self):
        scene = generate(ScenarioSpec(template=Template.PEDESTRIAN_CROSSING, seed=6))
        assert label_interactions(scene, RCFG) == [(0, InteractionLabel.YIELD)]

    def test_static_vehicle_yield(self):
        # ego closes on a static corridor vehicle at 8 m/s
        scene = generate(ScenarioSpec(template=Template.STATIC_VEHICLE_AHEAD, seed=6))
        assert label_interactions(scene, RCFG) == [(0, InteractionLabel.YIELD)]

    def test_adjacent_traffic_ignored(self):
        scene = generate(ScenarioSpec(template=Template.DENSE_TRAFFIC, seed=6))
        labels = dict(label_interactions(scene, RCFG))
        assert labels[0] is InteractionLabel.FOLLOW
        assert all(labels[i] is InteractionLabel.IGNORE
                   for i in range(1, len(scene.ground_truth)))

    def test_corridor_and_static_speed_from_config(self):
        # a vehicle 3 m to the side, and one closing at 0.4 m/s on the 8 m/s ego
        scene = tiny_scene([GroundTruthObject(OrientedBox((15, 3, 0.8), 4.5, 1.9, 1.6, 0.0),
                                              ObjectClass.VEHICLE, (8.0, 0.0, 0.0)),
                            GroundTruthObject(OrientedBox((25, 0, 0.8), 4.5, 1.9, 1.6, 0.0),
                                              ObjectClass.VEHICLE, (7.6, 0.0, 0.0))])
        assert label_interactions(scene, RCFG) == [(0, InteractionLabel.IGNORE),
                                                   (1, InteractionLabel.FOLLOW)]
        wide = ReasonerConfig(corridor_width=8.0, static_speed=0.2)
        assert label_interactions(scene, wide) == [(0, InteractionLabel.FOLLOW),
                                                   (1, InteractionLabel.YIELD)]

    def test_requires_ground_truth(self):
        scene = generate(ScenarioSpec(template=Template.EMPTY_ROAD, seed=0))
        scene = type(scene)(scene.timestamp, scene.ego, scene.cloud)
        with pytest.raises(ValueError):
            label_interactions(scene, RCFG)
