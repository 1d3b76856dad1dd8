"""Per-object reference implementation of ``drivetrace.risk.assess``, kept
as the oracle for its array passes.

This is the assessment the package ran before it moved to one array pass
per scene: the scalar Shannon entropy, yaw deviation, ``d_min`` from the
object's support points (or its box corners), proximity risk and tier,
one object at a time.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from drivetrace.risk import (
    ObjectAssessment,
    RiskConfig,
    RiskTier,
    UncertaintyConfig,
    combined_uncertainty,
)
from drivetrace.scene import (
    ClassDistribution,
    EgoState,
    PointCloud,
    TrackedObject,
    box_corners,
    wrap_angle,
)


def shannon_entropy(dist: ClassDistribution | Sequence[float]) -> float:
    """Shannon entropy in nats, with 0 * ln 0 taken as 0.

    Raises:
        ValueError: if the probabilities do not sum to 1 within 1e-9.
    """
    p = np.array(dist.probs if isinstance(dist, ClassDistribution) else dist, dtype=np.float64)
    if abs(float(p.sum()) - 1.0) > 1e-9 or np.any(p < 0):
        raise ValueError(f"not a probability distribution: {p}")
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def deviation_angle(yaw_pred: float, yaw_ref: float) -> float:
    """Wrapped absolute yaw difference, in [0, pi]."""
    return abs(wrap_angle(yaw_pred - yaw_ref))


def min_distance(points: np.ndarray) -> float:
    """Minimum Euclidean norm over an (N, 3) point set."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if pts.shape[0] == 0:
        raise ValueError("empty point set")
    return float(np.linalg.norm(pts, axis=1).min())


def object_min_distance(obj: TrackedObject, cloud: PointCloud) -> float:
    """d_min from the object's support points; falls back to the nearest box
    corner when the object has no supporting returns (fully occluded)."""
    idx = np.asarray(obj.support_points, dtype=np.int64)
    if idx.size > 0:
        return min_distance(cloud.xyz[idx])
    return min_distance(box_corners(obj.box))


def proximity_risk(d_min: float, cfg: RiskConfig) -> float:
    """Exponentially decaying proximity risk in (0, 1]."""
    if d_min < 0:
        raise ValueError(f"d_min must be >= 0, got {d_min}")
    return math.exp(-d_min / cfg.decay_length)


def risk_tier(risk: float, cfg: RiskConfig) -> RiskTier:
    if risk >= cfg.tier_high:
        return RiskTier.HIGH
    if risk >= cfg.tier_moderate:
        return RiskTier.MODERATE
    return RiskTier.LOW


def assess_object(obj: TrackedObject, ego: EgoState, cloud: PointCloud,
                  ucfg: UncertaintyConfig, rcfg: RiskConfig) -> ObjectAssessment:
    entropy = shannon_entropy(obj.class_dist)
    dev = deviation_angle(obj.box.yaw, ego.lane_heading)
    u = combined_uncertainty(entropy, dev, ucfg)
    d_min = object_min_distance(obj, cloud)
    risk = proximity_risk(d_min, rcfg)
    return ObjectAssessment(
        object_id=obj.id,
        entropy=entropy,
        deviation=dev,
        uncertainty=u,
        min_distance=d_min,
        risk=risk,
        tier=risk_tier(risk, rcfg),
        flagged=u > ucfg.threshold,
    )


def scalar_assess(objects: Sequence[TrackedObject], ego: EgoState, cloud: PointCloud,
                  ucfg: UncertaintyConfig, rcfg: RiskConfig) -> list[ObjectAssessment]:
    return [assess_object(o, ego, cloud, ucfg, rcfg) for o in objects]
