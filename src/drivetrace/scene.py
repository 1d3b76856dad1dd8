"""Core scene domain types and box geometry.

Everything downstream (detection, risk scoring, graph refinement, reasoning)
works on these types.  Conventions: ego frame with the ego vehicle at the
origin, x forward, y left, z up; yaw angles in radians, normalized to
(-pi, pi]; distances in meters.

All types are immutable after construction and all operations are pure, so
they are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

TAU = 2.0 * math.pi

#: Object class labels, K = 4.  Order is fixed: class distributions are
#: indexed in this order everywhere (serialization included).
CLASS_NAMES = ("Vehicle", "Pedestrian", "Cyclist", "StaticObstacle")
NUM_CLASSES = len(CLASS_NAMES)


class ObjectClass(Enum):
    VEHICLE = "Vehicle"
    PEDESTRIAN = "Pedestrian"
    CYCLIST = "Cyclist"
    STATIC_OBSTACLE = "StaticObstacle"

    @property
    def index(self) -> int:
        return CLASS_NAMES.index(self.value)

    @staticmethod
    def from_index(i: int) -> "ObjectClass":
        return ObjectClass(CLASS_NAMES[i])


class Intent(Enum):
    """Ego path intent (also the path-decision vocabulary)."""

    STRAIGHT = "Straight"
    TURN = "Turn"
    LANE_CHANGE = "LaneChange"


def wrap_angle(a: float) -> float:
    """Wrap an angle in radians to (-pi, pi].

    Raises:
        ValueError: if the input is NaN or infinite.
    """
    if not math.isfinite(a):
        raise ValueError(f"angle must be finite, got {a!r}")
    r = math.remainder(a, TAU)
    # math.remainder lands in [-pi, pi]; fold the open boundary
    if r <= -math.pi:
        r += TAU
    return r


class PointCloud:
    """Ordered collection of LiDAR points, stored as an (N, 4) float64 array.

    Columns are x, y, z, intensity.  Point order is significant and is
    preserved by serialization round-trips (object support points are stored
    as indices into this order).
    """

    __slots__ = ("data", "frame_id")

    def __init__(self, data: np.ndarray | Sequence[Sequence[float]] = (), frame_id: str = "ego"):
        arr = np.asarray(data, dtype=np.float64)
        if arr.size == 0:
            arr = np.empty((0, 4), dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 4:
            raise ValueError(f"point cloud data must be (N, 4), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("point cloud contains non-finite values")
        if np.any(arr[:, 3] < 0):
            raise ValueError("point intensities must be >= 0")
        arr = arr.copy()
        arr.flags.writeable = False
        self.data = arr
        self.frame_id = frame_id

    @property
    def xyz(self) -> np.ndarray:
        return self.data[:, :3]

    @property
    def intensity(self) -> np.ndarray:
        return self.data[:, 3]

    def __len__(self) -> int:
        return self.data.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointCloud):
            return NotImplemented
        return self.frame_id == other.frame_id and np.array_equal(self.data, other.data)


@dataclass(frozen=True)
class OrientedBox:
    """Gravity-aligned 3D bounding box: center, extents, yaw about +z."""

    center: tuple[float, float, float]
    length: float
    width: float
    height: float
    yaw: float

    def __post_init__(self) -> None:
        if len(self.center) != 3 or not all(math.isfinite(c) for c in self.center):
            raise ValueError(f"center must be 3 finite values, got {self.center!r}")
        for name in ("length", "width", "height"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"OrientedBox.{name} must be > 0, got {v!r}")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "yaw", wrap_angle(self.yaw))

    @property
    def volume(self) -> float:
        return self.length * self.width * self.height

    def params(self) -> np.ndarray:
        """(x, y, z, l, w, h, yaw) as a 7-vector."""
        return np.array([*self.center, self.length, self.width, self.height, self.yaw])


# Corner ordering: bottom face CCW seen from above, then top face in the same
# xy order.  Signs of (l/2, w/2) per corner:
_CORNER_SIGNS = np.array(
    [[+1, +1], [-1, +1], [-1, -1], [+1, -1]], dtype=np.float64
)


def box_corners(box: OrientedBox) -> np.ndarray:
    """Return the 8 box corners, shape (8, 3).

    First four corners are the bottom face (counter-clockwise viewed from
    +z), last four the top face in the same order.
    """
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    half = _CORNER_SIGNS * np.array([box.length / 2.0, box.width / 2.0])
    xy = half @ np.array([[c, s], [-s, c]])  # rotate by yaw
    corners = np.empty((8, 3))
    corners[:4, :2] = xy + np.array(box.center[:2])
    corners[4:, :2] = corners[:4, :2]
    corners[:4, 2] = box.center[2] - box.height / 2.0
    corners[4:, 2] = box.center[2] + box.height / 2.0
    return corners


def footprint(box: OrientedBox) -> np.ndarray:
    """2D footprint polygon, shape (4, 2), counter-clockwise."""
    return box_corners(box)[:4, :2]


def _clip_polygon(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex polygon by a convex CCW polygon."""
    output = subject
    n = len(clip)
    for i in range(n):
        if len(output) == 0:
            break
        a, b = clip[i], clip[(i + 1) % n]
        edge = b - a
        # signed area sign: >= 0 means inside (left of edge) for CCW clip
        d = edge[0] * (output[:, 1] - a[1]) - edge[1] * (output[:, 0] - a[0])
        result = []
        m = len(output)
        for j in range(m):
            cur, nxt = output[j], output[(j + 1) % m]
            dc, dn = d[j], d[(j + 1) % m]
            if dc >= 0:
                result.append(cur)
            if (dc > 0 and dn < 0) or (dc < 0 and dn > 0):
                t = dc / (dc - dn)
                result.append(cur + t * (nxt - cur))
        output = np.array(result) if result else np.empty((0, 2))
    return output


def _polygon_area(poly: np.ndarray) -> float:
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def box_iou(a: OrientedBox, b: OrientedBox) -> float:
    """Yaw-aware 3D IoU of two gravity-aligned boxes.

    Computed as (2D footprint overlap area x vertical overlap) divided by
    the union volume.  Returns a value in [0, 1]; 1 for identical boxes,
    0 for disjoint ones.
    """
    za0, za1 = a.center[2] - a.height / 2.0, a.center[2] + a.height / 2.0
    zb0, zb1 = b.center[2] - b.height / 2.0, b.center[2] + b.height / 2.0
    z_overlap = min(za1, zb1) - max(za0, zb0)
    if z_overlap <= 0:
        return 0.0
    area = _polygon_area(_clip_polygon(footprint(a), footprint(b)))
    inter = area * z_overlap
    if inter <= 0:
        return 0.0
    union = a.volume + b.volume - inter
    return min(inter / union, 1.0)


@dataclass(frozen=True)
class ClassDistribution:
    """Probability distribution over the four object classes."""

    probs: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        if len(self.probs) != NUM_CLASSES:
            raise ValueError(f"expected {NUM_CLASSES} probabilities, got {len(self.probs)}")
        p = tuple(float(v) for v in self.probs)
        if any(not (0.0 <= v <= 1.0) for v in p):
            raise ValueError(f"probabilities must lie in [0, 1], got {p}")
        if abs(sum(p) - 1.0) > 1e-9:
            raise ValueError(f"probabilities must sum to 1, got sum={sum(p)!r}")
        object.__setattr__(self, "probs", p)

    @classmethod
    def one_hot(cls, label: ObjectClass) -> "ClassDistribution":
        p = [0.0] * NUM_CLASSES
        p[label.index] = 1.0
        return cls(tuple(p))

    @classmethod
    def uniform(cls) -> "ClassDistribution":
        return cls((0.25, 0.25, 0.25, 0.25))

    @classmethod
    def from_array(cls, arr: Sequence[float]) -> "ClassDistribution":
        a = np.asarray(arr, dtype=np.float64)
        a = np.clip(a, 0.0, None)
        s = a.sum()
        if s <= 0:
            raise ValueError("cannot normalize an all-zero distribution")
        return cls(tuple((a / s).tolist()))

    def as_array(self) -> np.ndarray:
        return np.array(self.probs, dtype=np.float64)

    @property
    def top_class(self) -> ObjectClass:
        return ObjectClass.from_index(int(np.argmax(self.probs)))


def _finite_vector(obj: object, name: str) -> tuple[float, ...]:
    """Field ``name`` of ``obj`` as 3 floats; raises ValueError naming the
    field when it has another length or a NaN or infinite component."""
    raw = getattr(obj, name)
    values = tuple(float(v) for v in raw)
    if len(values) != 3 or not all(math.isfinite(v) for v in values):
        raise ValueError(f"{type(obj).__name__}.{name} must be 3 finite values, got {raw!r}")
    return values


@dataclass(frozen=True)
class TrackedObject:
    """A detected/tracked object: box, velocity, class belief, and the
    indices of the cloud points supporting the detection."""

    id: int
    box: OrientedBox
    velocity: tuple[float, float, float]
    class_dist: ClassDistribution
    support_points: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "velocity", _finite_vector(self, "velocity"))
        support = self.support_points
        if isinstance(support, np.ndarray) and support.dtype.kind in "iu":
            # tolist() gives Python ints; converting numpy scalars one by
            # one costs several times more
            support = support.tolist()
        elif isinstance(support, np.ndarray):
            support = map(int, support.tolist())
        else:
            support = map(int, support)
        object.__setattr__(self, "support_points", tuple(support))

    @property
    def speed(self) -> float:
        return math.hypot(*self.velocity)


@dataclass(frozen=True)
class EgoState:
    """Ego vehicle state.  Position is the frame origin by convention."""

    heading: float = 0.0
    speed: float = 0.0
    lane_heading: float = 0.0
    intent: Intent = Intent.STRAIGHT
    position: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.speed) and self.speed >= 0):
            raise ValueError(f"EgoState.speed must be finite and >= 0, got {self.speed!r}")
        object.__setattr__(self, "heading", wrap_angle(self.heading))
        object.__setattr__(self, "lane_heading", wrap_angle(self.lane_heading))
        object.__setattr__(self, "position", _finite_vector(self, "position"))


@dataclass(frozen=True)
class GroundTruthObject:
    box: OrientedBox
    label: ObjectClass
    velocity: tuple[float, float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "velocity", _finite_vector(self, "velocity"))


@dataclass(frozen=True)
class Scene:
    """One timestamped scene: ego state, point cloud, tracked objects, and
    (optionally) ground truth used by the oracle detector and the evaluator."""

    timestamp: float
    ego: EgoState
    cloud: PointCloud
    objects: tuple[TrackedObject, ...] = ()
    ground_truth: Optional[tuple[GroundTruthObject, ...]] = None
    frame_id: str = field(default="ego")

    def __post_init__(self) -> None:
        if self.timestamp < 0:
            raise ValueError(f"timestamp must be >= 0, got {self.timestamp}")
        object.__setattr__(self, "objects", tuple(self.objects))
        ids = [o.id for o in self.objects]
        if len(set(ids)) != len(ids):
            raise ValueError(f"object ids must be unique within a scene, got {ids}")
        if self.ground_truth is not None:
            gt = tuple(self.ground_truth)
            seen = set()
            for g in gt:
                key = (g.box.center, g.box.length, g.box.width, g.box.height, g.box.yaw)
                if key in seen:
                    raise ValueError("duplicate ground-truth box")
                seen.add(key)
            object.__setattr__(self, "ground_truth", gt)

    def with_objects(self, objects: Sequence[TrackedObject]) -> "Scene":
        return Scene(self.timestamp, self.ego, self.cloud, tuple(objects),
                     self.ground_truth, self.frame_id)


def forward_lateral(x: float, y: float, ego: EgoState) -> tuple[float, float]:
    """Project a point, or arrays of points, into the ego heading frame:
    (forward, lateral)."""
    c, s = math.cos(ego.heading), math.sin(ego.heading)
    return (c * x + s * y, -s * x + c * y)


def in_corridor(x: float, y: float, ego: EgoState, width: float, length: float,
                lateral_offset: float = 0.0) -> bool:
    """True if (x, y) lies in the ``width`` x ``length`` rectangular
    corridor ahead of the ego.

    ``lateral_offset`` shifts the corridor sideways (adjacent lanes are the
    corridors at +/- width).
    """
    fwd, lat = forward_lateral(x, y, ego)
    return 0.0 <= fwd <= length and abs(lat - lateral_offset) <= width / 2.0
