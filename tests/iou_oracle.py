"""Reference implementation kept as the oracle for the batched box IoU.

``scalar_box_iou`` is the per-pair IoU that ``drivetrace.scene.box_iou``
computed before it became the one-pair call of ``box_iou_pairs``: a
Sutherland-Hodgman clip of one footprint by the other, vertex by vertex in
Python, and a shoelace area through ``np.dot``.
"""

from __future__ import annotations

import numpy as np

from drivetrace.scene import OrientedBox, box_corners


def footprint(box: OrientedBox) -> np.ndarray:
    """2D footprint polygon, shape (4, 2), counter-clockwise."""
    return box_corners(box)[:4, :2]


def clip_polygon(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
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


def polygon_area(poly: np.ndarray) -> float:
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def scalar_box_iou(a: OrientedBox, b: OrientedBox) -> float:
    """Yaw-aware 3D IoU of two gravity-aligned boxes, one pair at a time."""
    za0, za1 = a.center[2] - a.height / 2.0, a.center[2] + a.height / 2.0
    zb0, zb1 = b.center[2] - b.height / 2.0, b.center[2] + b.height / 2.0
    z_overlap = min(za1, zb1) - max(za0, zb0)
    if z_overlap <= 0:
        return 0.0
    area = polygon_area(clip_polygon(footprint(a), footprint(b)))
    inter = area * z_overlap
    if inter <= 0:
        return 0.0
    union = a.length * a.width * a.height + b.length * b.width * b.height - inter
    return min(inter / union, 1.0)
