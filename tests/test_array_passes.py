"""The array passes of ``assess``, ``refine_objects`` and the kinematic
interaction rule against their per-object oracles, compared exactly: the
same floats to the bit (``repr`` also tells -0.0 from 0.0), the same
tiers, flags and labels.

Frames hold 0, 1 or 61 objects, with empty supports, zero-probability
classes, yaws on and next to +-pi and objects in and out of the corridor.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from drivetrace.interaction import (
    BgnnModel,
    InteractionConfig,
    _ego_velocity,
    _row_dots,
    build_graph,
    classify_interaction,
    refine_objects,
)
from drivetrace.reasoner import ReasonerConfig
from drivetrace.risk import RiskConfig, UncertaintyConfig, assess
from drivetrace.scene import ClassDistribution, EgoState, ObjectClass, PointCloud
from conftest import make_object
from interaction_oracle import per_object_refine_objects, scalar_classify_interaction
from risk_oracle import scalar_assess

_PI_EDGES = [math.pi, -math.pi, math.nextafter(math.pi, 0.0), math.nextafter(-math.pi, 0.0),
             math.nextafter(math.pi, 4.0), math.nextafter(-math.pi, -4.0), 0.0, -0.0]
_yaw = st.one_of(st.floats(-math.pi, math.pi), st.sampled_from(_PI_EDGES),
                 st.floats(3.1, 3.2), st.floats(-3.2, -3.1))
_probs = st.one_of(
    st.sampled_from([c.index for c in ObjectClass]).map(
        lambda k: tuple(float(i == k) for i in range(4))),
    st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=4, max_size=4)
    .filter(lambda p: sum(p) > 0.1)
    .map(lambda p: ClassDistribution.from_array(p).probs),
)
_center = st.one_of(st.just((0.0, 0.0, 0.0)),
                    st.tuples(st.floats(-45, 45), st.floats(-25, 25), st.floats(-1, 2)))
_velocity = st.one_of(st.just((0.0, 0.0, 0.0)),
                      st.tuples(st.floats(-15, 15), st.floats(-15, 15), st.just(0.0)))


@st.composite
def frames(draw):
    """Objects over a cloud, an ego, and the uncertainty, risk and reasoner
    configs."""
    n_points = draw(st.integers(0, 80))
    xyz = draw(arrays(np.float64, (n_points, 3), elements=st.floats(-50, 50)))
    cloud = PointCloud(np.column_stack([xyz, np.ones(n_points)]))
    support = (st.lists(st.integers(0, n_points - 1), max_size=12).map(sorted)
               if n_points else st.just([]))
    objects = [
        make_object(i, draw(_center), dims=draw(st.tuples(*[st.floats(0.2, 6)] * 3)),
                    yaw=draw(_yaw), velocity=draw(_velocity), probs=draw(_probs),
                    support=draw(support))
        for i in range(draw(st.sampled_from([0, 1, 61])))
    ]
    ego = EgoState(heading=draw(_yaw), speed=draw(st.floats(0, 20)),
                   lane_heading=draw(_yaw))
    ucfg = UncertaintyConfig(w_entropy=draw(st.floats(0.01, 2)),
                             w_deviation=draw(st.floats(0, 2)),
                             threshold=draw(st.floats(0.05, 1.5)))
    rcfg = RiskConfig(decay_length=draw(st.floats(0.5, 80)))
    reasoner = ReasonerConfig(corridor_width=draw(st.floats(0.5, 20)),
                              corridor_length=draw(st.floats(1, 60)),
                              static_speed=draw(st.floats(0, 10)))
    return objects, cloud, ego, ucfg, rcfg, reasoner


def assert_exactly(new, old):
    assert new == old
    assert [repr(x) for x in new] == [repr(x) for x in old]


@settings(max_examples=60, deadline=None)
@given(frames())
def test_assess_equals_per_object_oracle(frame):
    objects, cloud, ego, ucfg, rcfg, _ = frame
    assert_exactly(assess(objects, ego, cloud, ucfg, rcfg),
                   scalar_assess(objects, ego, cloud, ucfg, rcfg))


@settings(max_examples=40, deadline=None)
@given(frames(), st.booleans())
def test_refine_objects_equals_per_object_oracle(frame, with_model):
    objects, cloud, ego, ucfg, rcfg, reasoner = frame
    icfg = InteractionConfig(layers=1, embed_dim=4, mc_samples=2)
    model = BgnnModel.initialize(icfg, seed=3) if with_model else None
    assessments = assess(objects, ego, cloud, ucfg, rcfg)
    graph = build_graph(objects, ego, icfg, reasoner.static_speed)
    assert_exactly(
        refine_objects(objects, assessments, graph, ego, ucfg, reasoner, model=model, seed=5),
        per_object_refine_objects(objects, assessments, graph, ego, ucfg, reasoner,
                                  model=model, seed=5))


@settings(max_examples=60, deadline=None)
@given(frames(), st.lists(st.sampled_from(list(ObjectClass)), min_size=61, max_size=61))
def test_kinematic_rule_equals_per_object_oracle(frame, classes):
    objects, _, ego, _, _, reasoner = frame
    classes = classes[:len(objects)]
    centers = np.array([o.box.center for o in objects]).reshape(-1, 3)
    velocities = np.array([o.velocity for o in objects]).reshape(-1, 3)
    labels = classify_interaction(centers, velocities, np.array([c.index for c in classes]),
                                  ego, reasoner)
    assert labels.tolist() == [
        scalar_classify_interaction(o.box.center, o.velocity, c, ego, reasoner).index
        for o, c in zip(objects, classes)]


@settings(max_examples=60, deadline=None)
@given(frames(), st.data())
def test_kinematic_rule_at_the_closing_threshold(frame, data):
    """With ``static_speed`` set to an object's closing speed as the scalar
    rule computes it, the rule must not call that object closing: only the
    same float decides the same way."""
    objects, _, ego, _, _, reasoner = frame
    closing = [float(-(np.asarray(o.box.center) @ (np.asarray(o.velocity) - _ego_velocity(ego)))
                     / np.linalg.norm(o.box.center))
               for o in objects if np.linalg.norm(o.box.center) != 0]
    closing = [c for c in closing if c > 0]
    if not closing:
        return
    reasoner = replace(reasoner, static_speed=data.draw(st.sampled_from(closing)))
    labels = classify_interaction(np.array([o.box.center for o in objects]),
                                  np.array([o.velocity for o in objects]),
                                  np.full(len(objects), ObjectClass.VEHICLE.index), ego, reasoner)
    assert labels.tolist() == [
        scalar_classify_interaction(o.box.center, o.velocity, ObjectClass.VEHICLE, ego,
                                    reasoner).index
        for o in objects]


@given(arrays(np.float64, st.tuples(st.integers(0, 70), st.just(3)), elements=st.floats(-1e3, 1e3)),
       st.data())
def test_row_dots_are_vector_dots(a, data):
    b = data.draw(arrays(np.float64, a.shape, elements=st.floats(-1e3, 1e3)))
    assert _row_dots(a, b).tolist() == [float(x @ y) for x, y in zip(a, b)]
