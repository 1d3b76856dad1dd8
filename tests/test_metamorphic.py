"""Metamorphic checks of the whole pipeline: transforms of a scene that
must leave its decisions unchanged (Chen, Cheung & Yiu, 1998; for
driving, DeepTest, Tian et al., ICSE 2018).

The scenes are generated, and the oracle detector at the default zero
noise reads them.  The "suite" is what ``drivetrace generate --template
<all> --count 5 --seed 1`` writes: every template at seeds 1 to 5.
"""

import functools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drivetrace.cli import main
from drivetrace.config import PipelineConfig
from drivetrace.detector import DETECTORS
from drivetrace.pipeline import run_scene
from drivetrace.scenario import ScenarioSpec, Template, generate
from drivetrace.scene import (ClassDistribution, GroundTruthObject, ObjectClass, OrientedBox,
                              PointCloud, TrackedObject)
from drivetrace.scene_io import save_scene

CONFIG = PipelineConfig()
SUITE = [(template, seed) for template in Template for seed in range(1, 6)]


@functools.lru_cache(maxsize=None)
def _generated(template, seed):
    return generate(ScenarioSpec(template=template, seed=seed))


def _decision(scene):
    trace = run_scene(scene, CONFIG).trace
    return trace.speed, trace.path


@settings(max_examples=50, deadline=None)
@given(template=st.sampled_from(Template), seed=st.integers(1, 20),
       order=st.integers(0, 2**32 - 1))
def test_point_order_changes_no_decision_and_no_distance_bit(template, seed, order):
    scene = _generated(template, seed)
    perm = np.random.default_rng(order).permutation(len(scene.cloud))
    permuted = replace(scene, cloud=PointCloud(scene.cloud.data[perm]))
    a, b = run_scene(scene, CONFIG), run_scene(permuted, CONFIG)
    assert (b.trace.speed, b.trace.path) == (a.trace.speed, a.trace.path)
    assert ([x.min_distance.hex() for x in b.assessments]
            == [x.min_distance.hex() for x in a.assessments])


@pytest.mark.parametrize(("template", "seed"), SUITE)
def test_ground_truth_order_changes_no_decision(template, seed):
    scene = _generated(template, seed)
    reversed_truth = replace(scene, ground_truth=scene.ground_truth[::-1])
    assert _decision(reversed_truth) == _decision(scene)


@functools.lru_cache(maxsize=None)
def _predetected():
    """Detections for the seed-1 dense-traffic scene: its oracle detections,
    plus a pedestrian in the corridor (a collision risk) and two objects of
    uniform class belief with turned boxes (unpredictable), all given
    distinct ids out of order."""
    scene = _generated(Template.DENSE_TRAFFIC, 1)
    uniform = ClassDistribution((0.25,) * 4)
    objects = run_scene(scene, CONFIG).detections + (
        TrackedObject(0, OrientedBox((6.0, 0.3, 0.9), 0.6, 0.6, 1.8, 1.4), (0.0, 1.2, 0.0),
                      ClassDistribution.one_hot(ObjectClass.PEDESTRIAN)),
        TrackedObject(0, OrientedBox((14.0, -0.5, 0.8), 4.5, 1.9, 1.6, 2.8), (0.0, 0.0, 0.0),
                      uniform),
        TrackedObject(0, OrientedBox((9.0, 4.0, 0.8), 4.5, 1.9, 1.6, -2.5), (1.0, 0.0, 0.0),
                      uniform),
    )
    ids = np.random.default_rng(7).permutation(len(objects)) * 3 + 2
    return tuple(replace(o, id=int(i)) for o, i in zip(objects, ids))


def _factor_keys(objects):
    """The decision and the factors of the seed-1 dense-traffic scene when
    its detector returns ``objects``.  The fake detector goes through the
    ``DETECTORS`` table, the one seam for picking a detector; Hypothesis
    tests cannot take the function-scoped ``monkeypatch`` fixture."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(DETECTORS, "given", lambda scene, config: list(objects))
        result = run_scene(_generated(Template.DENSE_TRAFFIC, 1),
                           replace(CONFIG, detector="given"))
    return ((result.trace.speed, result.trace.path),
            [(f.kind, f.object_id) for f in result.factors])


def test_predetected_objects_are_out_of_order_with_object_factors():
    """The check below needs ids out of order and two factors of one kind."""
    objects = _predetected()
    ids = [o.id for o in objects]
    kinds = [kind for kind, i in _factor_keys(objects)[1] if i is not None]
    assert ids != sorted(ids) and len(kinds) > len(set(kinds))


@settings(max_examples=30, deadline=None)
@given(order=st.integers(0, 2**32 - 1))
def test_object_order_changes_no_decision_and_no_factor(order):
    """The stages pair objects, assessments and refined estimates by
    position, and the factors come in object id order.  Float bits may
    differ: the ego-edge softmax sums in node order."""
    objects = _predetected()
    perm = np.random.default_rng(order).permutation(len(objects))
    assert _factor_keys([objects[i] for i in perm]) == _factor_keys(objects)


def _rotated(scene, angle):
    """The scene turned by ``angle`` about the ego's vertical axis: cloud,
    boxes, velocities, ego heading and lane heading."""
    c, s = math.cos(angle), math.sin(angle)

    def turn(x, y):
        return c * x - s * y, s * x + c * y

    data = scene.cloud.data.copy()
    data[:, 0], data[:, 1] = turn(data[:, 0], data[:, 1])
    truth = tuple(
        GroundTruthObject(
            OrientedBox((*turn(*g.box.center[:2]), g.box.center[2]), g.box.length,
                        g.box.width, g.box.height, g.box.yaw + angle),
            g.label, (*turn(*g.velocity[:2]), g.velocity[2]))
        for g in scene.ground_truth)
    ego = replace(scene.ego, heading=scene.ego.heading + angle,
                  lane_heading=scene.ego.lane_heading + angle)
    return replace(scene, ego=ego, cloud=PointCloud(data), ground_truth=truth)


@pytest.mark.parametrize("angle", [0.5, math.pi / 2])
def test_rotation_about_the_ego_changes_no_decision(angle):
    """Rotations by general angles wait on decision margins: a rule whose
    quantity lies within rounding of its threshold may flip."""
    changed = [(t.value, seed) for t, seed in SUITE
               if _decision(_rotated(_generated(t, seed), angle))
               != _decision(_generated(t, seed))]
    assert changed == []


@pytest.mark.parametrize("shift", [(5.0, 0.0), (0.0, 2.0)])
@pytest.mark.parametrize("template", list(Template))
def test_shifted_ego_is_rejected(tmp_path, capsys, template, shift):
    """A scene moved with its ego off the origin is a clear error, not a
    decision: the ego is the frame origin."""
    scene = _generated(template, 1)
    data = scene.cloud.data.copy()
    data[:, :2] += shift
    truth = tuple(replace(g, box=replace(g.box, center=(g.box.center[0] + shift[0],
                                                        g.box.center[1] + shift[1],
                                                        g.box.center[2])))
                  for g in scene.ground_truth)
    path = tmp_path / "scene.json"
    save_scene(replace(scene, cloud=PointCloud(data), ground_truth=truth), path)
    d = json.loads(path.read_text())
    d["ego"]["position"] = [*shift, 0.0]
    path.write_text(json.dumps(d))
    assert main(["reason", "--scene", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"error: ValueError: {path}: ego.position must be [0, 0, 0] "
        f"(the ego is the frame origin), got {[*shift, 0.0]!r}\n")
