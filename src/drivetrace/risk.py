"""Uncertainty scoring and proximity risk, in array passes over a scene's
objects.

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
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .scene import (
    NUM_CLASSES,
    TAU,
    EgoState,
    PointCloud,
    TrackedObject,
    _footprints,
    box_rows,
)

MAX_ENTROPY = math.log(NUM_CLASSES)


@dataclass(frozen=True)
class UncertaintyConfig:
    """Weights of entropy and yaw deviation in an object's uncertainty, and its flag level."""

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
    """Distance decay of collision risk and the levels of its tiers."""

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
    """One object's uncertainty, closest distance to the ego, collision risk and tier."""

    object_id: int
    entropy: float  # nats
    deviation: float  # radians in [0, pi]
    uncertainty: float
    min_distance: float
    risk: float
    tier: RiskTier
    flagged: bool


def entropies(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy in nats of each row of an (N, K) matrix of
    probability rows, with 0 * ln 0 taken as 0.  numpy adds a row of fewer
    than 8 values left to right, as it adds the row of one distribution
    alone, so each entropy is the float that row alone gives."""
    return -(probs * np.log(np.where(probs > 0, probs, 1.0))).sum(axis=1)


def combined_uncertainty(entropy, deviation, cfg: UncertaintyConfig):
    """Weighted sum of the entropy and deviation components, each first
    mapped to [0, 1] (entropy / ln K, deviation / pi), for one object
    (floats) or many (arrays)."""
    return cfg.w_entropy * (entropy / MAX_ENTROPY) + cfg.w_deviation * (deviation / math.pi)


def _min_distances(objects: Sequence[TrackedObject], cloud: PointCloud) -> np.ndarray:
    """d_min per object: the least norm of its support points, or of its
    box corners when it has none (fully occluded).

    Squared norms are summed as ``(x*x + y*y) + z*z``, the order
    ``np.linalg.norm(axis=1)`` sums them in.  Rounding is monotone, so the
    root of the least square is the least root, and the least corner square
    is the least footprint square plus the least height square: each d_min
    is the float that norm gives.
    """
    supports = [o.support_points for o in objects]
    squared = np.empty(len(objects))
    nonempty = [i for i, support in enumerate(supports) if len(support)]
    empty = [i for i, support in enumerate(supports) if not len(support)]
    if nonempty:
        index = np.concatenate(supports)
        starts = np.cumsum([0] + [len(supports[i]) for i in nonempty[:-1]])
        # square the support points, or, where overlapping supports hold more
        # indices than the cloud has points, every point once, then gather
        few = len(index) < len(cloud)
        data = cloud.data.take(index, axis=0) if few else cloud.data
        x, y, z = data[:, 0], data[:, 1], data[:, 2]
        squares = (x * x + y * y) + z * z
        squared[nonempty] = np.minimum.reduceat(squares if few else squares[index], starts)
    if empty:
        rows = box_rows([objects[i].box for i in empty])
        footprint = _footprints(rows)  # the bottom corners' xy, as box_corners gives them
        x, y = footprint[..., 0], footprint[..., 1]
        half_height = rows[:, 5] / 2.0
        bottom, top = rows[:, 2] - half_height, rows[:, 2] + half_height
        squared[empty] = (x * x + y * y).min(axis=1) + np.minimum(bottom * bottom, top * top)
    return np.sqrt(squared)


#: risk tiers indexed by the number of tier thresholds the risk is below
_TIERS = (RiskTier.HIGH, RiskTier.MODERATE, RiskTier.LOW)


def assess(
    objects: Sequence[TrackedObject],
    ego: EgoState,
    cloud: PointCloud,
    ucfg: UncertaintyConfig,
    rcfg: RiskConfig,
) -> list[ObjectAssessment]:
    """Assess every object; output order matches input order.  Entropy,
    deviation, uncertainty and d_min are array passes over all objects.
    The risk ``exp(-d_min / decay_length)``, its tier and the flag are taken
    per object, the risk with ``math.exp``: numpy's vectorized exp does not
    always give its bits."""
    if not objects:
        return []
    entropy = entropies(np.array([o.class_dist.probs for o in objects]))
    # abs(wrap_angle(d)) of the yaw difference d, in [-2 pi, 2 pi] as both
    # angles lie in (-pi, pi]: beyond +-pi the wrap moves d by TAU, and then
    # TAU - abs(d) is exact (Sterbenz) and the smaller
    turned = np.abs(np.array([o.box.yaw for o in objects]) - ego.lane_heading)
    deviation = np.minimum(turned, TAU - turned)
    uncertainty = combined_uncertainty(entropy, deviation, ucfg)
    d_min = _min_distances(objects, cloud)
    assessments = []
    for o, h, dev, u, d in zip(objects, entropy.tolist(), deviation.tolist(),
                               uncertainty.tolist(), d_min.tolist()):
        risk = math.exp(-d / rcfg.decay_length)
        tier = _TIERS[(risk < rcfg.tier_high) + (risk < rcfg.tier_moderate)]
        assessments.append(ObjectAssessment(o.id, h, dev, u, d, risk, tier,
                                            u > ucfg.threshold))
    return assessments


def assessment_to_dict(a: ObjectAssessment) -> dict:
    return {**asdict(a), "tier_color": a.tier.color}
