"""Reference implementations kept as oracles for the detectors.

``bfs_grid_clusters`` is the per-point breadth-first search the geometric
detector's clustering used before it moved to whole-array pair generation
and label merging: points are bucketed by grid cell, and each unlabelled
point seeds a search over the 27 surrounding cells, testing the distance
of every pair it meets.  It is the oracle for
``drivetrace.detector._grid_clusters``, which joins the points of a
half-radius sub-cell without a test and links sub-cells over a stencil:
the two must give the same partition, in the same order, for every cloud
the clustering accepts, including points on sub-cell edges.

``scan_support_points`` is the full-cloud scan the oracle detector used to
collect each object's support points before it prefiltered the cloud by
the box's axis-aligned bounding rectangle.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from drivetrace.detector import points_in_box
from drivetrace.scene import OrientedBox


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
