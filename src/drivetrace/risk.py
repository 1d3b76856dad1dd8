"""Per-object uncertainty scoring and proximity risk.

Uncertainty combines two signals: Shannon entropy of the class
distribution (classification ambiguity) and the wrapped absolute deviation
between predicted yaw and a reference orientation (spatial inconsistency).
Risk decays exponentially with the minimum Euclidean distance between the
ego origin and the object's supporting points.

Entropy is measured in nats.  The combined score rescales both
components to [0, 1] (entropy by ln K, deviation by pi), so it is
scale-free and the flagging threshold is meaningful for the default
weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .scene import (
    NUM_CLASSES,
    ClassDistribution,
    EgoState,
    OrientedBox,
    PointCloud,
    TrackedObject,
    box_corners,
    wrap_angle,
)

MAX_ENTROPY = math.log(NUM_CLASSES)


@dataclass(frozen=True)
class UncertaintyConfig:
    w_entropy: float = 0.5
    w_deviation: float = 0.5
    threshold: float = 0.8

    def __post_init__(self) -> None:
        if self.w_entropy < 0 or self.w_deviation < 0:
            raise ValueError("uncertainty weights must be >= 0")
        if self.w_entropy + self.w_deviation <= 0:
            raise ValueError("at least one uncertainty weight must be positive")
        if self.threshold <= 0:
            raise ValueError("threshold must be > 0")


@dataclass(frozen=True)
class RiskConfig:
    decay_length: float = 20.0  # meters; risk = exp(-d_min / decay_length)
    tier_high: float = 0.6
    tier_moderate: float = 0.3

    def __post_init__(self) -> None:
        if self.decay_length <= 0:
            raise ValueError("decay_length must be > 0")
        if not (0.0 < self.tier_moderate < self.tier_high < 1.0):
            raise ValueError("tiers must satisfy 0 < moderate < high < 1")


class RiskTier(Enum):
    HIGH = "High"
    MODERATE = "Moderate"
    LOW = "Low"

    @property
    def color(self) -> str:
        return {"High": "red", "Moderate": "orange", "Low": "yellow"}[self.value]


@dataclass(frozen=True)
class ObjectAssessment:
    object_id: int
    entropy: float  # nats
    deviation: float  # radians in [0, pi]
    uncertainty: float
    min_distance: float
    risk: float
    tier: RiskTier
    flagged: bool


def shannon_entropy(dist: ClassDistribution | Sequence[float]) -> float:
    """Shannon entropy in nats, with 0 * ln 0 taken as 0.

    Raises:
        ValueError: if the probabilities do not sum to 1 within 1e-9.
    """
    p = dist.as_array() if isinstance(dist, ClassDistribution) else np.asarray(dist, dtype=np.float64)
    if abs(float(p.sum()) - 1.0) > 1e-9 or np.any(p < 0):
        raise ValueError(f"not a probability distribution: {p}")
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def deviation_angle(yaw_pred: float, yaw_ref: float) -> float:
    """Wrapped absolute yaw difference, in [0, pi]."""
    return abs(wrap_angle(yaw_pred - yaw_ref))


def combined_uncertainty(entropy: float, deviation: float, cfg: UncertaintyConfig) -> float:
    """Weighted sum of the entropy and deviation components, each first
    mapped to [0, 1] (entropy / ln K, deviation / pi)."""
    return cfg.w_entropy * (entropy / MAX_ENTROPY) + cfg.w_deviation * (deviation / math.pi)


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


def assess_object(
    obj: TrackedObject,
    ego: EgoState,
    cloud: PointCloud,
    ucfg: UncertaintyConfig,
    rcfg: RiskConfig,
) -> ObjectAssessment:
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


def assess(
    objects: Iterable[TrackedObject],
    ego: EgoState,
    cloud: PointCloud,
    ucfg: UncertaintyConfig,
    rcfg: RiskConfig,
) -> list[ObjectAssessment]:
    """Assess every object; output order matches input order."""
    return [assess_object(o, ego, cloud, ucfg, rcfg) for o in objects]


def assessment_to_dict(a: ObjectAssessment) -> dict:
    return {
        "object_id": a.object_id,
        "entropy": a.entropy,
        "deviation": a.deviation,
        "uncertainty": a.uncertainty,
        "min_distance": a.min_distance,
        "risk": a.risk,
        "tier": a.tier.value,
        "tier_color": a.tier.color,
        "flagged": a.flagged,
    }
