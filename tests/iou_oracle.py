"""Reference implementations kept as oracles for the batched box IoU and
the greedy matching.

``scalar_box_iou`` is the per-pair IoU that ``drivetrace.scene.box_iou``
computed before it became the one-pair call of ``box_iou_pairs``: a
Sutherland-Hodgman clip of one footprint by the other, vertex by vertex in
Python, and a shoelace area through ``np.dot``.  Its areas sum in another
order than the kernel's, so they agree to about 1e-12, not in every bit.

``box_iou_pairs`` and ``match_boxes`` are the bit reference: the batched
kernel and the matching as they were before the kernel kept its polygons
closed.  Each clipped polygon sits open in the first slots of a row, a
cached successor table names each vertex's successor, kept vertices and
crossings are compacted by a stable ``argsort`` and a gather, and the
matching sorts ``(-iou, i, j)`` tuples.  The kernel must give the same
IoUs bit for bit, and the same matchings.  ``box_iou_pairs`` looks up
``scene._footprints`` when called, so that a test can hand both kernels
the same arbitrary quadrilaterals.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from drivetrace import scene
from drivetrace.detector import MATCH_IOU, _may_overlap
from drivetrace.scene import OrientedBox, _halving_sum, box_corners, box_rows


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


@functools.lru_cache(maxsize=None)
def successor_table(width: int) -> np.ndarray:
    """Row c, for a polygon stored in the first c of ``width`` slots: the
    slot of each vertex's successor, and -1 in the slots past the polygon.
    Read-only, as the cache hands the same array to every caller."""
    slot = np.arange(width)
    count = np.arange(width + 1)[:, np.newaxis]
    table = np.where(slot + 1 < count, slot + 1, np.where(slot < count, 0, -1))
    table.flags.writeable = False
    return table


def clip_footprints(subject: np.ndarray, clip: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
        nxt = successor_table(pts.shape[1])[count]
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


def box_iou_pairs(a: np.ndarray, b: np.ndarray, ia: np.ndarray, ib: np.ndarray
                  ) -> np.ndarray:
    """Yaw-aware 3D IoU of the box pairs (a[ia[k]], b[ib[k]]), from the
    open-polygon clip above."""
    ia, ib = np.asarray(ia, dtype=np.intp), np.asarray(ib, dtype=np.intp)
    if len(ia) == 0:
        return np.zeros(0)
    pts, count = clip_footprints(scene._footprints(a)[ia], scene._footprints(b)[ib])
    nxt = successor_table(pts.shape[1])[count]
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


def match_boxes(
    predicted: Sequence[OrientedBox],
    truth: Sequence[OrientedBox],
) -> list[tuple[int, int, float]]:
    """Greedy one-to-one matching by descending IoU, ties broken on the
    indices by a sort of (-iou, i, j) tuples."""
    a, b = box_rows(predicted), box_rows(truth)
    ia, ib = np.nonzero(_may_overlap(a, b))
    ious = box_iou_pairs(a, b, ia, ib).tolist()
    pairs = [(iou, i, j) for iou, i, j in zip(ious, ia.tolist(), ib.tolist())
             if iou >= MATCH_IOU]
    pairs.sort(key=lambda x: (-x[0], x[1], x[2]))
    used_p: set[int] = set()
    used_t: set[int] = set()
    matches = []
    for iou, i, j in pairs:
        if i in used_p or j in used_t:
            continue
        used_p.add(i)
        used_t.add(j)
        matches.append((i, j, iou))
    matches.sort(key=lambda m: m[0])
    return matches
