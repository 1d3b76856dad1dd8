"""Deterministic synthetic scene generation.

Each template places a ground plane and a small cast of objects, then
synthesizes the LiDAR return: visible box faces are sampled at a surface
density, Gaussian range noise is added along each ray, and points shadowed
by nearer objects are removed with a 2D azimuth-wedge occlusion model
(a point dies when a box covers its azimuth and its 2D range exceeds the
box's farthest corner).  Ground truth is exact by construction.

Generation is a pure function of (template, seed): the same spec always
produces a byte-identical scene.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .interaction import InteractionLabel, classify_interaction
from .reasoner import ReasonerConfig
from .scene import (
    EgoState,
    GroundTruthObject,
    Intent,
    ObjectClass,
    OrientedBox,
    PointCloud,
    Scene,
    _footprints,
    box_rows,
)

GROUND_X = (-5.0, 45.0)
GROUND_Y = (-8.0, 8.0)
GROUND_DENSITY_FRACTION = 0.25  # ground returns are sparser than surfaces
EGO_SPEED = 8.0
RANGE_LIMIT = 100.0

_BASE_INTENSITY = {
    None: 30.0,  # ground
    ObjectClass.VEHICLE: 80.0,
    ObjectClass.PEDESTRIAN: 50.0,
    ObjectClass.CYCLIST: 60.0,
    ObjectClass.STATIC_OBSTACLE: 70.0,
}


class Template(Enum):
    EMPTY_ROAD = "empty-road"
    LEAD_VEHICLE = "lead-vehicle"
    PEDESTRIAN_CROSSING = "pedestrian-crossing"
    OCCLUDED_JUNCTION = "occluded-junction"
    DENSE_TRAFFIC = "dense-traffic"
    STATIC_VEHICLE_AHEAD = "static-vehicle-ahead"


@dataclass(frozen=True)
class ScenarioSpec:
    """What ``generate`` builds: a template, seed, object count, noise and point density."""

    template: Template
    seed: int = 0
    n_objects: int = 4
    noise_std: float = 0.02
    points_per_m2: float = 50.0

    def __post_init__(self) -> None:
        for name in ("noise_std", "points_per_m2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.n_objects < 0:
            raise ValueError("n_objects must be >= 0")
        if self.points_per_m2 <= 0:
            raise ValueError("points_per_m2 must be > 0")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")


def _sample_ground(rng: np.random.Generator, density: float) -> np.ndarray:
    area = (GROUND_X[1] - GROUND_X[0]) * (GROUND_Y[1] - GROUND_Y[0])
    n = int(round(area * density * GROUND_DENSITY_FRACTION))
    pts = np.zeros((n, 3))
    pts[:, 0] = rng.uniform(GROUND_X[0], GROUND_X[1], n)
    pts[:, 1] = rng.uniform(GROUND_Y[0], GROUND_Y[1], n)
    return pts


def _box_faces(box: OrientedBox) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, float]]:
    """Faces as (center, u-edge, v-edge, area); u/v are half-extent vectors."""
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    ex = np.array([c, s, 0.0]) * (box.length / 2.0)
    ey = np.array([-s, c, 0.0]) * (box.width / 2.0)
    ez = np.array([0.0, 0.0, box.height / 2.0])
    center = np.asarray(box.center)
    faces = []
    for sign in (1.0, -1.0):
        faces.append((center + sign * ex, ey, ez, box.width * box.height))
        faces.append((center + sign * ey, ex, ez, box.length * box.height))
        faces.append((center + sign * ez, ex, ey, box.length * box.width))
    return faces


def _sample_box_surface(box: OrientedBox, rng: np.random.Generator,
                        density: float) -> np.ndarray:
    """Sample points on the faces visible from the origin."""
    pts = []
    for face_center, u, v, area in _box_faces(box):
        normal = face_center - np.asarray(box.center)
        norm = np.linalg.norm(normal)
        if norm == 0:
            continue
        normal = normal / norm
        if float(normal @ (-face_center)) <= 0:
            continue  # back face
        n = int(round(area * density))
        if n < 1:
            continue
        a = rng.uniform(-1.0, 1.0, n)
        b = rng.uniform(-1.0, 1.0, n)
        pts.append(face_center + a[:, None] * u + b[:, None] * v)
    if not pts:
        return np.empty((0, 3))
    return np.concatenate(pts)


def apply_azimuth_occlusion(points: np.ndarray, owners: np.ndarray,
                            boxes: list[OrientedBox]) -> np.ndarray:
    """Keep mask after 2D azimuth shadowing from the origin.

    For each box, points of other owners whose azimuth falls inside the
    box's footprint wedge and whose 2D range exceeds the box's farthest
    corner are removed.  Occlusion only ever removes points.
    """
    keep = np.ones(len(points), dtype=bool)
    az = np.arctan2(points[:, 1], points[:, 0])
    rng2d = np.hypot(points[:, 0], points[:, 1])
    for i, corners in enumerate(_footprints(box_rows(boxes))):
        c_az = np.arctan2(corners[:, 1], corners[:, 0])
        lo, hi = float(c_az.min()), float(c_az.max())
        if hi - lo > math.pi:
            continue  # wedge spans the seam; templates keep objects forward
        r_cut = float(np.hypot(corners[:, 0], corners[:, 1]).max())
        shadowed = (owners != i) & (az >= lo) & (az <= hi) & (rng2d > r_cut)
        keep &= ~shadowed
    return keep


def _finalize_cloud(
    rng: np.random.Generator,
    ground: np.ndarray,
    object_points: list[np.ndarray],
    gt: list[GroundTruthObject],
    noise_std: float,
) -> PointCloud:
    owners = np.concatenate(
        [np.full(len(ground), -1)]
        + [np.full(len(p), i) for i, p in enumerate(object_points)]
    )
    xyz = np.concatenate([ground] + object_points)
    keep = apply_azimuth_occlusion(xyz, owners, [g.box for g in gt])
    xyz = xyz[keep]
    owners = owners[keep]
    # range noise along each ray
    if noise_std > 0:
        r = np.linalg.norm(xyz, axis=1)
        safe = r > 1e-9
        noise = rng.normal(0.0, noise_std, len(xyz))
        xyz = xyz + np.where(safe, noise / np.maximum(r, 1e-9), 0.0)[:, None] * xyz
    # intensity per owner class
    base = np.array([_BASE_INTENSITY[None]]
                    + [_BASE_INTENSITY[g.label] for g in gt])[owners + 1]
    intensity = np.maximum(base + rng.normal(0.0, 5.0, len(xyz)), 0.0)
    in_range = np.linalg.norm(xyz, axis=1) <= RANGE_LIMIT
    return PointCloud(np.column_stack([xyz[in_range], intensity[in_range]]))


def _vehicle_box(x: float, y: float, yaw: float) -> OrientedBox:
    return OrientedBox((x, y, 0.8), 4.5, 1.9, 1.6, yaw)


def _place(spec: ScenarioSpec, rng: np.random.Generator) -> list[GroundTruthObject]:
    t = spec.template
    if t is Template.EMPTY_ROAD:
        return []
    if t is Template.LEAD_VEHICLE:
        x = rng.uniform(16.0, 22.0)
        y = rng.uniform(-0.3, 0.3)
        yaw = rng.uniform(-0.05, 0.05)
        speed = EGO_SPEED + rng.uniform(-0.4, 0.4)
        return [GroundTruthObject(_vehicle_box(x, y, yaw), ObjectClass.VEHICLE,
                                  (speed * math.cos(yaw), speed * math.sin(yaw), 0.0))]
    if t is Template.PEDESTRIAN_CROSSING:
        x = rng.uniform(5.0, 6.8)
        y = rng.uniform(-1.0, 1.0)
        direction = 1.0 if rng.uniform() < 0.5 else -1.0
        box = OrientedBox((x, y, 0.85), 0.5, 0.5, 1.7, direction * math.pi / 2.0)
        return [GroundTruthObject(box, ObjectClass.PEDESTRIAN, (0.0, direction * 1.2, 0.0))]
    if t is Template.STATIC_VEHICLE_AHEAD:
        x = rng.uniform(9.7, 11.7)
        y = rng.uniform(-0.2, 0.2)
        yaw = rng.uniform(-0.05, 0.05)
        return [GroundTruthObject(_vehicle_box(x, y, yaw), ObjectClass.VEHICLE,
                                  (0.0, 0.0, 0.0))]
    if t is Template.OCCLUDED_JUNCTION:
        x = rng.uniform(12.0, 13.5)
        y = rng.uniform(-0.1, 0.1)
        box = OrientedBox((x, y, 1.25), 2.5, 3.2, 2.5, 0.0)
        return [GroundTruthObject(box, ObjectClass.STATIC_OBSTACLE, (0.0, 0.0, 0.0))]
    if t is Template.DENSE_TRAFFIC:
        gt = []
        x = rng.uniform(17.0, 21.0)
        y = rng.uniform(-0.3, 0.3)
        speed = EGO_SPEED + rng.uniform(-0.4, 0.4)
        gt.append(GroundTruthObject(_vehicle_box(x, y, 0.0), ObjectClass.VEHICLE,
                                    (speed, 0.0, 0.0)))
        slots = np.linspace(9.0, 34.0, max(spec.n_objects, 1))
        for k in range(spec.n_objects):
            side = 1.0 if k % 2 == 0 else -1.0
            sx = float(slots[k]) + rng.uniform(-1.5, 1.5)
            sy = side * 3.5 + rng.uniform(-0.3, 0.3)
            sv = rng.uniform(5.0, 10.0)
            gt.append(GroundTruthObject(_vehicle_box(sx, sy, 0.0), ObjectClass.VEHICLE,
                                        (sv, 0.0, 0.0)))
        return gt
    raise ValueError(f"unknown template {t!r}")


def generate(spec: ScenarioSpec) -> Scene:
    """Generate one scene from the template.

    Ego drives at 8 m/s along +x with Straight intent; ground truth holds
    the placed objects exactly; the cloud holds ground plus visible object
    surfaces after occlusion and range noise.
    """
    rng = np.random.default_rng([spec.seed, _template_tag(spec.template)])
    gt = _place(spec, rng)
    ground = _sample_ground(rng, spec.points_per_m2)
    object_points = [
        _sample_box_surface(g.box, rng, spec.points_per_m2) for g in gt
    ]
    cloud = _finalize_cloud(rng, ground, object_points, gt, spec.noise_std)
    ego = EgoState(heading=0.0, speed=EGO_SPEED, lane_heading=0.0, intent=Intent.STRAIGHT)
    return Scene(timestamp=0.0, ego=ego, cloud=cloud, ground_truth=tuple(gt),
                 frame_id=f"{spec.template.value}-{spec.seed}")


def _template_tag(t: Template) -> int:
    return list(Template).index(t)


def label_interactions(scene: Scene,
                       cfg: ReasonerConfig) -> list[tuple[int, InteractionLabel]]:
    """Rule-based interaction labels for the ground-truth objects, over the
    corridor and moving-speed threshold of ``cfg``.

    Yield for corridor objects closing in (or any corridor pedestrian),
    Follow for corridor vehicles receding or matching speed, Ignore
    otherwise.  Ids are ground-truth indices.

    Raises:
        ValueError: if the scene has no ground truth.
    """
    if scene.ground_truth is None:
        raise ValueError("label_interactions requires scene.ground_truth")
    gt = scene.ground_truth
    index = classify_interaction(
        np.array([g.box.center for g in gt]).reshape(-1, 3),
        np.array([g.velocity for g in gt]).reshape(-1, 3),
        np.array([g.label.index for g in gt], dtype=np.intp), scene.ego, cfg)
    labels = list(InteractionLabel)
    return [(i, labels[k]) for i, k in enumerate(index.tolist())]
