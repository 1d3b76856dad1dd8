"""Shared fixtures and independent oracles used across the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

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
)
from detector_oracle import points_in_box

#: The profile CI runs (``--hypothesis-profile=ci``): Hypothesis's own CI
#: defaults, spelled out so that they hold on every Hypothesis version, with
#: ``print_blob``, so that a failure found in CI, which keeps no example
#: database, prints the ``@reproduce_failure`` line that replays it.
settings.register_profile("ci", derandomize=True, deadline=None, database=None,
                          print_blob=True, suppress_health_check=[HealthCheck.too_slow])


def mc_box_iou(a: OrientedBox, b: OrientedBox, n: int = 1_000_000, seed: int = 0) -> float:
    """Monte Carlo IoU oracle: sample the union's bounding volume uniformly
    and count membership.  Independent of the analytic clipping path."""
    rng = np.random.default_rng(seed)
    ca, cb = box_corners(a), box_corners(b)
    lo = np.minimum(ca.min(axis=0), cb.min(axis=0))
    hi = np.maximum(ca.max(axis=0), cb.max(axis=0))
    pts = rng.uniform(lo, hi, (n, 3))
    in_a = points_in_box(pts, a)
    in_b = points_in_box(pts, b)
    union = int(np.count_nonzero(in_a | in_b))
    if union == 0:
        return 0.0
    return int(np.count_nonzero(in_a & in_b)) / union


#: the uniform class belief
UNIFORM = ClassDistribution((0.25,) * 4)


def random_box(rng: np.random.Generator) -> OrientedBox:
    return OrientedBox(
        (rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-1, 1)),
        rng.uniform(0.5, 5.0),
        rng.uniform(0.5, 4.0),
        rng.uniform(0.5, 3.0),
        rng.uniform(-np.pi, np.pi),
    )


def make_object(obj_id: int, center, *, dims=(4.5, 1.9, 1.6), yaw=0.0,
                velocity=(0.0, 0.0, 0.0), label=ObjectClass.VEHICLE,
                probs=None, support=()) -> TrackedObject:
    dist = (ClassDistribution(tuple(probs)) if probs is not None
            else ClassDistribution.one_hot(label))
    return TrackedObject(
        id=obj_id,
        box=OrientedBox(tuple(center), *dims, yaw),
        velocity=velocity,
        class_dist=dist,
        support_points=tuple(support),
    )


def tiny_scene(ground_truth: list[GroundTruthObject], cloud_points=None,
               ego: EgoState | None = None) -> Scene:
    """Minimal scene wrapper for detector/risk tests."""
    if cloud_points is None:
        cloud_points = np.empty((0, 4))
    return Scene(
        timestamp=0.0,
        ego=ego or EgoState(heading=0.0, speed=8.0),
        cloud=PointCloud(np.asarray(cloud_points, dtype=np.float64)),
        ground_truth=tuple(ground_truth),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(42)
