"""Reference implementations kept as oracles for the detectors.

``bfs_grid_clusters`` is the per-point breadth-first search the geometric
detector's clustering used before it moved to whole-array pair generation
and label merging: points are bucketed by grid cell, and each unlabelled
point seeds a search over the 27 surrounding cells, testing the distance
of every pair it meets.  It is the oracle for
``drivetrace.detector._grid_clusters``, which joins the points of a
half-radius sub-cell without a test, links sub-cells over a stencil,
tests each pair of sub-cells on the pair of their first points before
testing all their point pairs, and stops once one component is left:
the two must give the same partition, in the same order, for every cloud
the clustering accepts, including points on sub-cell edges and pairs
whose first points lie beyond the radius while later points lie within
it.

``points_in_box`` is the box test the oracle detector ran on whole point
rows: it subtracts the box centre from each (x, y, z) row and rotates the
offset.  ``scan_support_points`` runs it over the whole cloud, the way the
detector collected each object's support points before it prefiltered the
cloud.  It is the oracle for ``drivetrace.detector._support_indices``,
which compares the x and y columns with the bounds of the box's
axis-aligned bounding rectangle in one pass and rotates the offsets of the
points within them alone; the two must return the same indices for every
box and cloud.  The tests also use ``points_in_box`` to check generated
clouds and Monte Carlo IoU.

``oracle_detect`` and ``smoothed_class_dist`` are the oracle detector as it
was before it skipped the generator for an all-zero noise model: it always
seeds ``default_rng(seed)``, draws four values per object, rebuilds every
box from them, smooths each label once per call and takes each object's
support points by the full-cloud scan.  It is the oracle for
``drivetrace.detector.oracle_detect``, which must return equal detections
for every noise model, seed and scene; only the sign of a ground-truth
centre coordinate or yaw of -0.0 may differ, as it came from a draw
multiplied by zero.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from drivetrace.detector import MIN_EXTENT, SUPPORT_MARGIN, NoiseModel
from drivetrace.scene import (
    ClassDistribution,
    ObjectClass,
    OrientedBox,
    Scene,
    TrackedObject,
    wrap_angle,
)


def points_in_box(xyz: np.ndarray, box: OrientedBox, margin: float = 0.0) -> np.ndarray:
    """Boolean mask of points inside the (optionally inflated) box."""
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    rel = xyz - np.asarray(box.center)
    local_x = rel[:, 0] * c + rel[:, 1] * s
    local_y = -rel[:, 0] * s + rel[:, 1] * c
    return (
        (np.abs(local_x) <= box.length / 2.0 + margin)
        & (np.abs(local_y) <= box.width / 2.0 + margin)
        & (np.abs(rel[:, 2]) <= box.height / 2.0 + margin)
    )


def scan_support_points(xyz: np.ndarray, box: OrientedBox, margin: float) -> np.ndarray:
    """Ascending indices of every point of ``xyz`` inside ``box`` inflated
    by ``margin``, found by rotating the whole cloud."""
    return np.nonzero(points_in_box(xyz, box, margin))[0]


def bfs_grid_clusters(xyz: np.ndarray, radius: float) -> list[np.ndarray]:
    """Fixed-radius connected components via a uniform grid spatial hash."""
    cell = radius
    keys = np.floor(xyz / cell).astype(np.int64)
    buckets: dict[tuple[int, int, int], list[int]] = {}
    for i, k in enumerate(map(tuple, keys)):
        buckets.setdefault(k, []).append(i)
    n = xyz.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    r2 = radius * radius
    next_label = 0
    offsets = [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)]
    for start in range(n):
        if labels[start] >= 0:
            continue
        labels[start] = next_label
        queue = deque([start])
        while queue:
            i = queue.popleft()
            kx, ky, kz = keys[i]
            p = xyz[i]
            for dx, dy, dz in offsets:
                for j in buckets.get((kx + dx, ky + dy, kz + dz), ()):
                    if labels[j] >= 0:
                        continue
                    d = xyz[j] - p
                    if d @ d <= r2:
                        labels[j] = next_label
                        queue.append(j)
        next_label += 1
    return [np.nonzero(labels == k)[0] for k in range(next_label)]


def smoothed_class_dist(label: ObjectClass, temperature: float) -> ClassDistribution:
    """One-hot label smoothed by softmax temperature.

    Temperature near zero recovers the one-hot; larger temperatures raise
    entropy toward uniform.
    """
    logits = np.zeros(4)
    logits[label.index] = 1.0
    z = (logits - logits.max()) / temperature
    p = np.exp(z)
    return ClassDistribution.from_array(p / p.sum())


def oracle_detect(scene: Scene, noise: NoiseModel, seed: int) -> list[TrackedObject]:
    """Detect by perturbing ground truth with the configured noise model.

    One detection per non-dropped ground-truth object, in ground-truth
    order.  Box center/dims/yaw receive zero-mean Gaussian noise (dims
    clamped positive); the class distribution is the temperature-smoothed
    one-hot label; velocity is passed through.  The noise stream is seeded
    with ``seed`` alone, so the result is bit-reproducible for a given seed.

    Raises:
        ValueError: if the scene has no ground truth.
    """
    if scene.ground_truth is None:
        raise ValueError("oracle_detect requires scene.ground_truth")
    rng = np.random.default_rng(seed)
    class_dists: dict[ObjectClass, ClassDistribution] = {}
    detections: list[TrackedObject] = []
    for gt in scene.ground_truth:
        # fixed draw order per object keeps the stream aligned across configs
        drop_u = rng.uniform()
        d_pos = rng.normal(0.0, 1.0, 3)
        d_dim = rng.normal(0.0, 1.0, 3)
        d_yaw = rng.normal(0.0, 1.0)
        if drop_u < noise.dropout_prob:
            continue
        b = gt.box
        center = tuple(np.asarray(b.center) + noise.pos_std * d_pos)
        dims = np.array([b.length, b.width, b.height]) + noise.dim_std * d_dim
        dims = np.maximum(dims, MIN_EXTENT)
        box = OrientedBox(center, float(dims[0]), float(dims[1]), float(dims[2]),
                          wrap_angle(b.yaw + noise.yaw_std * d_yaw))
        if gt.label not in class_dists:
            class_dists[gt.label] = smoothed_class_dist(gt.label, noise.class_temperature)
        detections.append(
            TrackedObject(
                id=len(detections),
                box=box,
                velocity=gt.velocity,
                class_dist=class_dists[gt.label],
                support_points=scan_support_points(scene.cloud.xyz, gt.box, SUPPORT_MARGIN),
            )
        )
    return detections
