"""Core scene domain types and box geometry.

Everything downstream (detection, risk scoring, graph refinement, reasoning)
works on these types.  Conventions: ego frame with the ego vehicle at the
origin, x forward, y left, z up; yaw angles in radians, normalized to
(-pi, pi]; distances in meters.

All types are immutable after construction and all operations are pure, so
they are safe to share across threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

TAU = 2.0 * math.pi


class ObjectClass(Enum):
    """Object class labels, K = 4.  The member order is fixed: class
    distributions are indexed in this order everywhere (serialization
    included)."""

    VEHICLE = "Vehicle"
    PEDESTRIAN = "Pedestrian"
    CYCLIST = "Cyclist"
    STATIC_OBSTACLE = "StaticObstacle"

    @property
    def index(self) -> int:
        return list(ObjectClass).index(self)

    @staticmethod
    def from_index(i: int) -> "ObjectClass":
        return list(ObjectClass)[i]


NUM_CLASSES = len(ObjectClass)


class Intent(Enum):
    """Ego path intent, and the vocabulary of the path decision."""

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
    """Ordered collection of LiDAR points, stored as an (N, 4) float64 array
    of float32 values.

    Columns are x, y, z, intensity.  LiDAR returns are float32, so a
    float32 array (such as a binary cloud file's body) is taken as it is;
    anything else is cast once to float64 and each value rounded to the
    nearest float32, and a value that rounds past the float32 maximum is
    refused.  Any empty input is the empty (0, 4) cloud.  Both cloud file
    formats therefore hold exactly the values a cloud has.  Point order is
    significant and is preserved by serialization round-trips (a
    detection's support points are indices into this order).
    """

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray | Sequence[Sequence[float]] = ()):
        arr = (data if isinstance(data, np.ndarray) and data.dtype == np.float32
               else np.asarray(data, dtype=np.float64))
        if arr.size == 0:
            arr = arr.reshape(0, 4)
        if arr.ndim != 2 or arr.shape[1] != 4:
            raise ValueError(f"point cloud data must be (N, 4), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("point cloud contains non-finite values")
        if np.any(arr[:, 3] < 0):
            raise ValueError("point intensities must be >= 0")
        with np.errstate(over="ignore"):
            f32 = arr.astype(np.float32, copy=False)
        overflow = np.isinf(f32)
        if overflow.any():
            raise ValueError(f"point cloud values must round to a finite float32 (the float32 "
                             f"maximum is {float(np.finfo(np.float32).max)}), "
                             f"got {float(arr[overflow][0])!r}")
        arr = f32.astype(np.float64)
        arr.flags.writeable = False
        self.data = arr

    @property
    def xyz(self) -> np.ndarray:
        return self.data[:, :3]

    def __len__(self) -> int:
        return self.data.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointCloud):
            return NotImplemented
        return np.array_equal(self.data, other.data)


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
    corners = np.empty((8, 3))
    corners[:4, :2] = corners[4:, :2] = _footprints(box_rows([box]))[0]
    corners[:4, 2] = box.center[2] - box.height / 2.0
    corners[4:, 2] = box.center[2] + box.height / 2.0
    return corners


def box_rows(boxes: Sequence[OrientedBox]) -> np.ndarray:
    """The boxes' (x, y, z, l, w, h, yaw) as an (N, 7) array."""
    rows = [(*b.center, b.length, b.width, b.height, b.yaw) for b in boxes]
    return np.array(rows, dtype=np.float64).reshape(-1, 7)


def _footprints(rows: np.ndarray) -> np.ndarray:
    """Bottom-face xy corners of (N, 7) box rows, shape (N, 4, 2), in the
    order of :func:`box_corners`."""
    cos_sin = [(math.cos(yaw), math.sin(yaw)) for yaw in rows[:, 6].tolist()]
    rot = np.array([((c, s), (-s, c)) for c, s in cos_sin]).reshape(-1, 2, 2)
    half = _CORNER_SIGNS * (rows[:, np.newaxis, 3:5] / 2.0)
    return half @ rot + rows[:, np.newaxis, :2]


@functools.lru_cache(maxsize=None)
def _successor_table(width: int) -> np.ndarray:
    """Row c, for a polygon stored in the first c of ``width`` slots: the
    slot of each vertex's successor, and -1 in the slots past the polygon.
    Read-only, as the cache hands the same array to every caller."""
    slot = np.arange(width)
    count = np.arange(width + 1)[:, np.newaxis]
    table = np.where(slot + 1 < count, slot + 1, np.where(slot < count, 0, -1))
    table.flags.writeable = False
    return table


def _clip_footprints(subject: np.ndarray, clip: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sutherland-Hodgman clip of each (4, 2) subject footprint by the CCW
    clip footprint of the same row, one clip edge at a time for all rows.

    Returns the clipped vertices, shape (P, W, 2), in the first slots of
    each row, and the vertex count per row.  W is 4 while no clip edge has
    cut a row.  A clip edge adds at most one vertex to a convex polygon, so
    then W is 8, unless rounding flips the side of near-collinear vertices;
    then W doubles to fit.
    """
    pts = subject
    n = len(pts)
    rows = np.arange(n)[:, np.newaxis]
    count = np.full(n, 4)
    edges = clip[:, [1, 2, 3, 0]] - clip
    for k in range(4):
        edge = edges[:, k, np.newaxis]
        rel = pts - clip[:, k, np.newaxis]
        # signed area sign: >= 0 means inside (left of edge) for CCW clip
        d = edge[..., 0] * rel[..., 1] - edge[..., 1] * rel[..., 0]
        nxt = _successor_table(pts.shape[1])[count]
        valid = nxt >= 0
        dn = d[rows, nxt]
        keep = valid & (d >= 0)
        # the sides of d and dn differ strictly
        cross = valid & (np.minimum(d, dn) < 0) & (np.maximum(d, dn) > 0)
        if not cross.any() and (keep == valid).all():
            continue  # every polygon lies inside this edge's half-plane
        # t is 0 off the crossings, so slots past a row's count stay finite
        t = np.where(cross, d, 0.0) / np.where(cross, d - dn, 1.0)
        # slot j emits its vertex if kept, then its edge's crossing point
        out = np.empty((n, pts.shape[1], 2, 2))
        out[:, :, 0] = pts
        out[:, :, 1] = pts + t[..., np.newaxis] * (pts[rows, nxt] - pts)
        emit = np.empty((n, pts.shape[1], 2), dtype=bool)
        emit[:, :, 0] = keep
        emit[:, :, 1] = cross
        emit = emit.reshape(n, -1)
        count = emit.sum(axis=1)
        width = max(8, 1 << (int(count.max()) - 1).bit_length())
        order = np.argsort(~emit, axis=1, kind="stable")[:, :width]
        pts = out.reshape(n, -1, 2)[rows, order]
    return pts, count


def _halving_sum(v: np.ndarray) -> np.ndarray:
    """Row sums of ``v`` (a power of two of columns), added pairwise by
    folding the rows in halves.  A row's sum depends neither on the other
    rows nor on zero columns appended to it, and it rounds like the
    ``np.dot`` of the per-pair oracle in ``tests/iou_oracle.py`` in all but
    a few last bits."""
    width = v.shape[1]
    while width > 1:
        width //= 2
        v = v[:, :width] + v[:, width:]
    return v[:, 0]


def box_iou_pairs(a: np.ndarray, b: np.ndarray, ia: np.ndarray, ib: np.ndarray
                  ) -> np.ndarray:
    """Yaw-aware 3D IoU of the box pairs (a[ia[k]], b[ib[k]]).

    ``a`` and ``b`` are (N, 7) and (M, 7) box rows (see :func:`box_rows`).
    Each IoU is (2D footprint overlap area x vertical overlap) divided by
    the union volume: in [0, 1], 1 for identical boxes, 0 for disjoint
    ones.  The overlap is the footprint of ``a`` clipped by that of ``b``
    (Zhou et al., "IoU Loss for 2D/3D Object Detection", 3DV 2019).
    """
    ia, ib = np.asarray(ia, dtype=np.intp), np.asarray(ib, dtype=np.intp)
    if len(ia) == 0:
        return np.zeros(0)
    pts, count = _clip_footprints(_footprints(a)[ia], _footprints(b)[ib])
    nxt = _successor_table(pts.shape[1])[count]
    valid = nxt >= 0
    x, y = pts[..., 0], pts[..., 1]
    rows = np.arange(len(pts))[:, np.newaxis]
    shoelace = (_halving_sum(np.where(valid, x * y[rows, nxt], 0.0))
                - _halving_sum(np.where(valid, y * x[rows, nxt], 0.0)))
    # with under 3 vertices both sums add the same products: the area is 0
    area = 0.5 * np.abs(shoelace)
    pa, pb = a[ia], b[ib]
    za0, za1 = pa[:, 2] - pa[:, 5] / 2.0, pa[:, 2] + pa[:, 5] / 2.0
    zb0, zb1 = pb[:, 2] - pb[:, 5] / 2.0, pb[:, 2] + pb[:, 5] / 2.0
    z_overlap = np.minimum(za1, zb1) - np.maximum(za0, zb0)
    inter = area * z_overlap
    union = pa[:, 3] * pa[:, 4] * pa[:, 5] + pb[:, 3] * pb[:, 4] * pb[:, 5] - inter
    iou = np.minimum(inter / union, 1.0)
    return np.where((z_overlap > 0) & (inter > 0), iou, 0.0)


def box_iou(a: OrientedBox, b: OrientedBox) -> float:
    """Yaw-aware 3D IoU of two gravity-aligned boxes: the one-pair call of
    :func:`box_iou_pairs`."""
    return float(box_iou_pairs(box_rows([a]), box_rows([b]), [0], [0])[0])


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
    def from_array(cls, arr: Sequence[float]) -> "ClassDistribution":
        a = np.asarray(arr, dtype=np.float64)
        a = np.clip(a, 0.0, None)
        s = a.sum()
        if s <= 0:
            raise ValueError("cannot normalize an all-zero distribution")
        return cls(tuple((a / s).tolist()))

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


@dataclass(frozen=True, eq=False)
class TrackedObject:
    """A detected/tracked object: box, velocity, class belief, and the
    indices of the cloud points supporting the detection.

    ``support_points`` is stored as a read-only int64 copy of the indices
    given; non-integer values are truncated toward zero, as ``int`` does.
    Objects compare by value."""

    id: int
    box: OrientedBox
    velocity: tuple[float, float, float]
    class_dist: ClassDistribution
    support_points: np.ndarray = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "velocity", _finite_vector(self, "velocity"))
        support = np.asarray(self.support_points)
        if support.ndim != 1:
            raise ValueError(f"TrackedObject.support_points must be 1-D, got shape {support.shape}")
        if support.dtype.kind == "f" and not np.isfinite(support).all():
            raise ValueError("TrackedObject.support_points must be finite")
        support = support.astype(np.int64)  # a copy, truncated toward zero
        support.flags.writeable = False
        object.__setattr__(self, "support_points", support)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrackedObject):
            return NotImplemented
        return (self.id == other.id and self.box == other.box
                and self.velocity == other.velocity and self.class_dist == other.class_dist
                and np.array_equal(self.support_points, other.support_points))

    @property
    def speed(self) -> float:
        return math.hypot(*self.velocity)


def check_object_order(objects: Sequence[TrackedObject], records: Sequence, what: str) -> None:
    """Raise ValueError unless ``records`` (named ``what``) hold one record
    per object, in the objects' order: record i's ``object_id`` is object
    i's id."""
    for i, (obj, record) in enumerate(zip(objects, records, strict=True)):
        if record.object_id != obj.id:
            raise ValueError(f"{what}[{i}] is for object {record.object_id}, "
                             f"but objects[{i}] has id {obj.id}")


@dataclass(frozen=True)
class EgoState:
    """Ego vehicle state: the ego is the frame origin and has no position."""

    heading: float = 0.0
    speed: float = 0.0
    lane_heading: float = 0.0
    intent: Intent = Intent.STRAIGHT

    def __post_init__(self) -> None:
        if not (math.isfinite(self.speed) and self.speed >= 0):
            raise ValueError(f"EgoState.speed must be finite and >= 0, got {self.speed!r}")
        object.__setattr__(self, "heading", wrap_angle(self.heading))
        object.__setattr__(self, "lane_heading", wrap_angle(self.lane_heading))


@dataclass(frozen=True)
class GroundTruthObject:
    """One true object of a generated scene: its box, class and velocity."""

    box: OrientedBox
    label: ObjectClass
    velocity: tuple[float, float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "velocity", _finite_vector(self, "velocity"))


@dataclass(frozen=True)
class Scene:
    """One timestamped frame of sensor input: ego state, point cloud and
    (optionally) ground truth for the oracle detector and the evaluator.
    ``frame_id`` names the ego frame that all of them are in."""

    timestamp: float
    ego: EgoState
    cloud: PointCloud
    ground_truth: Optional[tuple[GroundTruthObject, ...]] = None
    frame_id: str = field(default="ego")

    def __post_init__(self) -> None:
        if not (math.isfinite(self.timestamp) and self.timestamp >= 0):
            raise ValueError(f"Scene.timestamp must be finite and >= 0, got {self.timestamp!r}")
        # the ASCII cloud's header line holds the frame id
        if "".join(self.frame_id.splitlines()) != self.frame_id:
            raise ValueError(f"Scene.frame_id must hold no line break, got {self.frame_id!r}")
        if self.ground_truth is not None:
            gt = tuple(self.ground_truth)
            seen = set()
            for g in gt:
                key = (g.box.center, g.box.length, g.box.width, g.box.height, g.box.yaw)
                if key in seen:
                    raise ValueError("duplicate ground-truth box")
                seen.add(key)
            object.__setattr__(self, "ground_truth", gt)


def forward_lateral(x: float, y: float, ego: EgoState) -> tuple[float, float]:
    """Project a point, or arrays of points, into the ego heading frame:
    (forward, lateral)."""
    c, s = math.cos(ego.heading), math.sin(ego.heading)
    return (c * x + s * y, -s * x + c * y)


def in_corridor(x: float, y: float, ego: EgoState, width: float, length: float,
                lateral_offset: float = 0.0) -> bool:
    """True if (x, y) lies in the ``width`` x ``length`` rectangular
    corridor ahead of the ego; for arrays of points, a boolean array.

    ``lateral_offset`` shifts the corridor sideways (adjacent lanes are the
    corridors at +/- width).
    """
    fwd, lat = forward_lateral(x, y, ego)
    return (0.0 <= fwd) & (fwd <= length) & (abs(lat - lateral_offset) <= width / 2.0)
