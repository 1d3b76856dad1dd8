"""Object detection over scenes.

Two detectors stand in for a trained neural detector at desk scale; the
``detector`` config key picks one by its name in :data:`DETECTORS`:

* :func:`oracle_detect` perturbs ground truth with configurable Gaussian
  noise, class-temperature smoothing and dropout.  Deterministic for a
  given seed (NumPy PCG64 via ``default_rng``, four draws per object in
  a fixed order).  With the all-zero noise model it returns the
  ground-truth boxes, makes no generator and so imports no
  ``numpy.random``.
* :func:`geometric_detect` is a classical baseline: ground removal,
  fixed-radius euclidean clustering on a uniform grid, PCA-oriented box
  fits, and a dimension-based class heuristic.

Both return TrackedObjects whose support points index into the scene cloud.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .scene import (
    ClassDistribution,
    ObjectClass,
    OrientedBox,
    Scene,
    TrackedObject,
    box_iou_pairs,
    box_rows,
    wrap_angle,
)

if TYPE_CHECKING:
    from .config import PipelineConfig

# margin (meters) around a ground-truth box when collecting support points;
# covers surface-sampling sensor noise
SUPPORT_MARGIN = 0.1
MIN_EXTENT = 0.01


@dataclass(frozen=True)
class NoiseModel:
    """Error model for the ground-truth oracle detector."""

    pos_std: float = 0.0
    dim_std: float = 0.0
    yaw_std: float = 0.0
    class_temperature: float = 1e-9
    dropout_prob: float = 0.0

    def __post_init__(self) -> None:
        for name in ("pos_std", "dim_std", "yaw_std", "class_temperature"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"NoiseModel.{name} must be finite, got {getattr(self, name)!r}")
        if min(self.pos_std, self.dim_std, self.yaw_std) < 0:
            raise ValueError("noise stds must be >= 0")
        if self.class_temperature <= 0:
            raise ValueError("class_temperature must be > 0")
        if not (0.0 <= self.dropout_prob < 1.0):
            raise ValueError("dropout_prob must lie in [0, 1)")


@dataclass(frozen=True)
class ClusterParams:
    """Geometric detector parameters."""

    ground_z_max: float = 0.3
    neighbor_radius: float = 0.7
    min_points: int = 10

    def __post_init__(self) -> None:
        for name in ("ground_z_max", "neighbor_radius"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"ClusterParams.{name} must be finite, got {getattr(self, name)!r}")
        if self.neighbor_radius <= 0:
            raise ValueError("neighbor_radius must be > 0")
        if self.min_points < 1:
            raise ValueError("min_points must be >= 1")


@functools.cache
def smoothed_class_dist(label: ObjectClass, temperature: float) -> ClassDistribution:
    """One-hot label smoothed by softmax temperature.

    Temperature near zero recovers the one-hot; larger temperatures raise
    entropy toward uniform.  Cached: the result is frozen, and a process
    meets a few labels at one or two temperatures.
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
    clamped to at least MIN_EXTENT); the class distribution is the
    temperature-smoothed one-hot label; velocity is passed through.  The
    noise stream is seeded with ``seed`` alone and draws four values per
    object in a fixed order, so the result is bit-reproducible for a given
    seed.  When ``pos_std``, ``dim_std``, ``yaw_std`` and ``dropout_prob``
    are all zero nothing is drawn: each detection's box is its ground-truth
    box, a dimension below MIN_EXTENT raised to it.

    Raises:
        ValueError: if the scene has no ground truth.
    """
    if scene.ground_truth is None:
        raise ValueError("oracle_detect requires scene.ground_truth")
    noisy = any((noise.pos_std, noise.dim_std, noise.yaw_std, noise.dropout_prob))
    rng = np.random.default_rng(seed) if noisy else None
    xyz = scene.cloud.xyz
    x, y = np.ascontiguousarray(xyz[:, 0]), np.ascontiguousarray(xyz[:, 1])
    detections: list[TrackedObject] = []
    for gt in scene.ground_truth:
        b = box = gt.box
        if rng is not None:
            # fixed draw order per object keeps the stream aligned across configs
            drop_u = rng.uniform()
            d_pos = rng.normal(0.0, 1.0, 3)
            d_dim = rng.normal(0.0, 1.0, 3)
            d_yaw = rng.normal(0.0, 1.0)
            if drop_u < noise.dropout_prob:
                continue
            center = tuple(np.asarray(b.center) + noise.pos_std * d_pos)
            dims = np.array([b.length, b.width, b.height]) + noise.dim_std * d_dim
            dims = np.maximum(dims, MIN_EXTENT)
            box = OrientedBox(center, float(dims[0]), float(dims[1]), float(dims[2]),
                              wrap_angle(b.yaw + noise.yaw_std * d_yaw))
        elif min(b.length, b.width, b.height) < MIN_EXTENT:
            box = OrientedBox(b.center, max(b.length, MIN_EXTENT), max(b.width, MIN_EXTENT),
                              max(b.height, MIN_EXTENT), b.yaw)
        detections.append(
            TrackedObject(
                id=len(detections),
                box=box,
                velocity=gt.velocity,
                class_dist=smoothed_class_dist(gt.label, noise.class_temperature),
                support_points=_support_indices(xyz, x, y, b),
            )
        )
    return detections


def _support_indices(xyz: np.ndarray, x: np.ndarray, y: np.ndarray,
                     box: OrientedBox) -> np.ndarray:
    """Ascending indices of the points in ``box`` inflated by SUPPORT_MARGIN:
    those whose offset from the centre, rotated by ``-yaw``, lies within
    the half-extents plus the margin.  ``x`` and ``y`` are contiguous
    copies of xyz's columns.

    Only the points inside the axis-aligned rectangle around the rotated
    footprint are rotated.  One pass over the cloud per box compares x and
    y with that rectangle's bounds, ``cx ± ax`` and ``cy ± ay``, and makes
    no float temporary; the offsets and z values are taken for the
    candidates alone.  The exact test rotates those offsets, so a point it
    keeps has ``|x - cx| <= ex`` and ``|y - cy| <= ey`` up to the rounding
    of the offsets and of their rotation, a few ulps of ``ex + ey``.  The
    slack in ``ax = ex + slack`` is 1e-9 relative (plus 1e-9 m for tiny
    boxes), millions of ulps wider, so such a point lies within ``ax`` of
    ``cx`` in exact arithmetic.  The bounds themselves are rounded.
    Rounding is monotone and the point's x is a float, so it stays within
    them; the ``|cx| + |cy|`` term also keeps each such point more than the
    bounds' rounding error (half an ulp of ``cx + ax``) inside them, so it
    never lies on a bound.
    """
    cos, sin = math.cos(box.yaw), math.sin(box.yaw)
    hl = box.length / 2.0 + SUPPORT_MARGIN
    hw = box.width / 2.0 + SUPPORT_MARGIN
    ex, ey = hl * abs(cos) + hw * abs(sin), hl * abs(sin) + hw * abs(cos)
    cx, cy, cz = box.center
    slack = 1e-9 * (1.0 + ex + ey + abs(cx) + abs(cy))
    ax, ay = ex + slack, ey + slack
    near = x >= cx - ax
    near &= x <= cx + ax
    near &= y >= cy - ay
    near &= y <= cy + ay
    cand = np.flatnonzero(near)
    del near  # the cloud-sized mask goes before the candidates' arrays are made
    rx, ry, rz = x[cand] - cx, y[cand] - cy, xyz[cand, 2] - cz
    return cand[(np.abs(rx * cos + ry * sin) <= hl)
                & (np.abs(-rx * sin + ry * cos) <= hw)
                & (np.abs(rz) <= box.height / 2.0 + SUPPORT_MARGIN)]


#: Candidate point pairs that :func:`_grid_clusters` tests per batch.  A
#: batch holds whole rows (one point against every point of one sub-cell),
#: so one row may overrun it.  Four times as many stencil lookups are made
#: per block of sub-cells.  Together they bound the clustering's
#: temporaries to a few hundred kB on clouds of any size.
PAIR_CHUNK = 4096

#: The sub-cell offsets, in half-radius steps, that can hold a pair within
#: the radius.  Sub-cells ``d`` apart on an axis have a gap of more than
#: ``max(|d| - 1, 0)`` half cells there, so an offset is kept when those
#: squares sum to at most 4 (one radius squared).  Only the forward offsets
#: are listed, those that follow (0, 0, 0) lexicographically, so every pair
#: of sub-cells is reached once: the 3 face offsets, then 86 more.
_STENCIL = np.array(sorted(
    (d for d in itertools.product(range(-3, 4), repeat=3)
     if d > (0, 0, 0) and sum(max(abs(c) - 1, 0) ** 2 for c in d) <= 4),
    key=lambda d: sum(map(abs, d)) > 1))

#: ``_ADJACENT[h, o]``: offset ``o`` from a sub-cell with half bits ``h``
#: (x, y, z as bits 4, 2, 1) lands in an r-cell adjacent to the sub-cell's
#: own.  Three steps along an axis do so only from the half on that side.
_ADJACENT = np.array([[all(abs(c) != 3 or (h >> (2 - axis)) & 1 == (c < 0)
                         for axis, c in enumerate(d)) for d in _STENCIL.tolist()]
                       for h in range(8)])


def _cell_codes(keys: np.ndarray, halves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One int64 code per row of integer cell keys and half bits, in the
    lexicographic order of the rows' sub-cells, and the code step of each
    axis.  A sub-cell coordinate is ``2 * compressed key + half + 1``.

    Each axis is first compressed: a gap of more than one cell between
    occupied keys shrinks to two cells, which keeps which cells are
    adjacent.  A code then never overflows, however far apart the points
    are; a three-sub-cell margin on every side keeps the codes of the
    stencil's sub-cells distinct.
    """
    columns, spans = [], []
    for k, half in zip(keys.T, halves.T):
        unique, inverse = np.unique(k, return_inverse=True)
        compressed = np.concatenate(([1], 1 + np.cumsum(np.where(np.diff(unique) == 1, 1, 2))))
        columns.append(2 * compressed[inverse] + half + 1)
        spans.append(2 * int(compressed[-1]) + 6)
    if spans[0] * spans[1] * spans[2] >= 2 ** 63:
        raise ValueError(f"too many distinct grid cells to cluster: spans {spans}")
    steps = np.array([spans[1] * spans[2], spans[2], 1], dtype=np.int64)
    return columns[0] * steps[0] + columns[1] * steps[1] + columns[2], steps


def _merge_components(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> int:
    """Join the components of the edges ``(a[k], b[k])`` in place.

    ``parent`` is a forest kept fully compressed: ``parent[i]`` is the
    root of ``i``, the smallest index of its component.  Each round hooks
    every root to the smallest root it shares an edge with, then jumps
    pointers until all point at a root again (Shiloach & Vishkin 1982);
    rounds repeat until no edge joins two roots.  Returns the rounds run.
    """
    rounds = 0
    while True:
        root_a, root_b = parent[a], parent[b]
        apart = root_a != root_b
        if not apart.any():
            return rounds
        a, b, root_a, root_b = a[apart], b[apart], root_a[apart], root_b[apart]
        np.minimum.at(parent, np.maximum(root_a, root_b), np.minimum(root_a, root_b))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent[:] = jumped
        rounds += 1


def _near_pairs(pts: np.ndarray, i: np.ndarray, j: np.ndarray, r2: float) -> np.ndarray:
    """Mask of the pairs ``(pts[i[k]], pts[j[k]])`` at squared distance at
    most ``r2``.  The batched matmul takes the same BLAS dot as a scalar
    ``d @ d`` does, so a pair at exactly the radius is decided bit for bit
    alike."""
    d = pts.take(j, axis=0) - pts.take(i, axis=0)
    return (d[:, np.newaxis, :] @ d[:, :, np.newaxis])[:, 0, 0] <= r2


def _sub_cell_pairs(cells: np.ndarray, pattern: np.ndarray, shifts: np.ndarray,
                    adjacent: np.ndarray):
    """Per block of sub-cells, the pairs ``(s, t)`` of occupied sub-cells
    (indices into the sorted codes ``cells``) with ``cells[t] - cells[s]``
    in ``shifts`` and adjacent r-cells (``adjacent[pattern[s]]``)."""
    block = max(1, 4 * PAIR_CHUNK // shifts.size)
    for lo in range(0, cells.size, block):
        query = cells[lo:lo + block, np.newaxis] + shifts
        found = np.minimum(np.searchsorted(cells, query), cells.size - 1)
        s, k = np.nonzero((cells[found] == query) & adjacent[pattern[lo:lo + block]])
        yield s + lo, found[s, k]


def _linked(pts: np.ndarray, r2: float, starts: np.ndarray, counts: np.ndarray,
            s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Mask over the sub-cell pairs ``(s[k], t[k])``: does some point of
    sub-cell ``s[k]`` lie within the radius of some point of sub-cell
    ``t[k]``?

    Each pair's first points are tested first, as its witness; a witness
    is the same operands through the same kernel as in the full test, so a
    hit is a pair that test accepts.  Only the pairs whose witness misses
    and that hold another point pair go through the full test.  Its point
    pairs are tested per run of whole rows (one point against one
    sub-cell) holding about :data:`PAIR_CHUNK` pairs, so the temporaries
    stay bounded however many points a sub-cell holds.
    """
    linked = _near_pairs(pts, starts[s], starts[t], r2)
    rest = np.flatnonzero(~linked & ((counts[s] > 1) | (counts[t] > 1)))
    if rest.size == 0:
        return linked
    s, t = s[rest], t[rest]
    count_s, count_t = counts[s], counts[t]
    row_end = np.cumsum(count_s)
    offset, start_t = starts[s] - row_end + count_s, starts[t]
    bounds = [0, int(row_end[-1])]
    pair_end = np.cumsum(count_s * count_t)
    if pair_end[-1] > PAIR_CHUNK:
        # the row holding each PAIR_CHUNK-th pair starts a run
        targets = np.arange(PAIR_CHUNK, pair_end[-1], PAIR_CHUNK)
        k = np.searchsorted(pair_end, targets, side="right")
        first_pair = pair_end[k] - count_s[k] * count_t[k]
        bounds[1:1] = (row_end[k] - count_s[k] + (targets - first_pair) // count_t[k]).tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        if lo == hi:
            continue
        rows = np.arange(lo, hi)
        k = np.searchsorted(row_end, rows, side="right")
        count = count_t[k]
        i = np.repeat(rows + offset[k], count)
        j = np.arange(i.size) + np.repeat(start_t[k] - np.cumsum(count) + count, count)
        linked[rest[np.repeat(k, count)[_near_pairs(pts, i, j, r2)]]] = True
    return linked


def _grid_clusters(xyz: np.ndarray, radius: float) -> list[np.ndarray]:
    """Fixed-radius connected components on a uniform grid (Euclidean
    cluster extraction): two points join when their cells of side
    ``radius`` (r-cells) are adjacent and their squared distance is at
    most ``radius**2``.

    Each r-cell is split into 8 sub-cells of half its side, and points are
    sorted by sub-cell.  The points of one sub-cell lie within
    ``sqrt(3) / 2 * radius`` of each other, so each sub-cell is one
    component from the start (the grid-based DBSCAN of Gan & Tao 2015),
    and the sub-cells are the nodes that :func:`_merge_components` joins.
    They are linked over :data:`_STENCIL` in two stages, the 3 face
    neighbours and then the other 86 offsets; a pair of sub-cells already
    in one component is skipped, and any other pair is joined when one of
    its point pairs lies within the radius, which :func:`_linked` tests on
    one witness pair first.  Once one component is left, the lookups
    stop.  Returns each component as a sorted index array, ordered by
    smallest index.

    Raises:
        ValueError: for a coordinate of ``2**40`` radii or more, where
            floating point does not resolve half a cell, or a radius whose
            square is infinite or below ``2**-1000``.
    """
    n = xyz.shape[0]
    if n == 0:
        return []
    y = xyz / radius
    r2 = radius * radius
    top = float(np.abs(y).max())
    if not (2.0 ** -1000 <= r2 < math.inf and top < 2.0 ** 40):
        raise ValueError(
            f"cannot cluster at neighbor radius {radius!r}: the largest coordinate is "
            f"{top:.4g} radii, but clustering needs every coordinate below 2**40 radii "
            "and a radius whose square lies in [2**-1000, inf)")
    keys = np.floor(y).astype(np.int64)
    halves = y - keys >= 0.5
    del y
    codes, steps = _cell_codes(keys, halves)
    del keys
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    starts = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
    counts = np.diff(starts, append=n)
    cells, first = codes[starts], order[starts]  # first: the smallest index of each sub-cell
    pattern = halves[first] @ np.array([4, 2, 1])
    del codes, halves
    pts = xyz[order]
    parent = np.arange(cells.size)
    # parent is fully compressed, so all zeros means one component is left
    for stage in (slice(0, 3), slice(3, None)):
        if not parent.any():
            break
        for s, t in _sub_cell_pairs(cells, pattern, _STENCIL[stage] @ steps, _ADJACENT[:, stage]):
            apart = parent[s] != parent[t]
            s, t = s[apart], t[apart]
            if s.size:
                linked = _linked(pts, r2, starts, counts, s, t)
                _merge_components(parent, s[linked], t[linked])
                if not parent.any():
                    break
    low = np.full(cells.size, n)
    np.minimum.at(low, parent, first)
    label = np.empty(n, dtype=np.int64)
    label[order] = np.repeat(low[parent], counts)
    members = np.argsort(label, kind="stable")
    return np.split(members, np.flatnonzero(np.diff(label[members])) + 1)


def _classify_cluster(length: float, width: float, height: float, z_std: float) -> ClassDistribution:
    """Dimension heuristic producing a dominant-class distribution.

    Dominant class gets 0.7 mass, the rest is spread evenly, so entropy is
    non-degenerate.
    """
    diagonal = math.hypot(length, width)
    if z_std < 0.05:
        dominant = ObjectClass.STATIC_OBSTACLE
    elif diagonal < 1.2 and height < 2.2:
        dominant = ObjectClass.PEDESTRIAN
    elif diagonal < 2.5:
        dominant = ObjectClass.CYCLIST
    else:
        dominant = ObjectClass.VEHICLE
    probs = [0.1, 0.1, 0.1, 0.1]
    probs[dominant.index] = 0.7
    return ClassDistribution(tuple(probs))


def _fit_box(points: np.ndarray) -> OrientedBox:
    """PCA-oriented box fit: yaw from the xy principal axis, extents from
    the rotated min/max bounds."""
    xy = points[:, :2]
    centered = xy - xy.mean(axis=0)
    cov = centered.T @ centered / max(len(xy), 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    principal = eigvecs[:, -1]  # largest eigenvalue last
    yaw = math.atan2(float(principal[1]), float(principal[0]))
    # pi-ambiguous; resolve toward +x (stationary clusters carry no velocity)
    if math.cos(yaw) < 0:
        yaw = wrap_angle(yaw + math.pi)
    elif abs(math.cos(yaw)) < 1e-12:
        yaw = math.pi / 2.0
    c, s = math.cos(yaw), math.sin(yaw)
    local_x = xy[:, 0] * c + xy[:, 1] * s
    local_y = -xy[:, 0] * s + xy[:, 1] * c
    lx0, lx1 = float(local_x.min()), float(local_x.max())
    ly0, ly1 = float(local_y.min()), float(local_y.max())
    z0, z1 = float(points[:, 2].min()), float(points[:, 2].max())
    mx, my = (lx0 + lx1) / 2.0, (ly0 + ly1) / 2.0
    center = (mx * c - my * s, mx * s + my * c, (z0 + z1) / 2.0)
    return OrientedBox(
        center,
        max(lx1 - lx0, MIN_EXTENT),
        max(ly1 - ly0, MIN_EXTENT),
        max(z1 - z0, MIN_EXTENT),
        yaw,
    )


def geometric_detect(scene: Scene, params: ClusterParams) -> list[TrackedObject]:
    """Cluster-and-fit baseline detector.

    Ground points (z <= ground_z_max) are removed, the rest are grouped by
    fixed-radius connected components, small clusters are discarded, and
    each surviving cluster is fitted with a yaw-oriented box.  Output is
    sorted by box center so results do not depend on point order.
    """
    xyz = scene.cloud.xyz
    above = np.nonzero(xyz[:, 2] > params.ground_z_max)[0]
    clusters = _grid_clusters(xyz[above], params.neighbor_radius)
    fits = []
    for idx in clusters:
        if idx.size < params.min_points:
            continue
        orig = above[idx]  # ascending, as `above` and each cluster are
        pts = xyz[orig]
        box = _fit_box(pts)
        cdist = _classify_cluster(box.length, box.width, box.height, float(pts[:, 2].std()))
        fits.append((box, cdist, orig))
    fits.sort(key=lambda f: f[0].center)
    return [
        TrackedObject(
            id=i,
            box=box,
            velocity=(0.0, 0.0, 0.0),
            class_dist=cdist,
            support_points=orig,
        )
        for i, (box, cdist, orig) in enumerate(fits)
    ]


#: Detector name (the ``detector`` config key) -> detect(scene, config).
#: The oracle's noise stream is seeded with the run seed, so --seed affects
#: detection.
DETECTORS: dict[str, Callable[[Scene, "PipelineConfig"], list[TrackedObject]]] = {
    "oracle": lambda scene, config: oracle_detect(scene, config.noise, config.seed),
    "geometric": lambda scene, config: geometric_detect(scene, config.cluster),
}


def _may_overlap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask [i, j] over (N, 7) and (M, 7) box rows that is False only where
    boxes a[i] and b[j] cannot overlap, so their IoU is 0: the xy circles
    around their footprints (radius half the footprint diagonal) are apart,
    or their z-extents do not overlap (tested as in :func:`box_iou_pairs`)."""

    def bounds(rows: np.ndarray) -> tuple[np.ndarray, ...]:
        cx, cy, cz, length, width, height = rows[:, :6].T
        return cx, cy, 0.5 * np.hypot(length, width), cz - height / 2.0, cz + height / 2.0

    ax, ay, ar, az0, az1 = (v[:, np.newaxis] for v in bounds(a))
    bx, by, br, bz0, bz1 = bounds(b)
    # the relative slack keeps pairs whose circles merely touch: their clipped
    # footprints may carry a rounding-level area
    near_xy = np.hypot(ax - bx, ay - by) <= (ar + br) * (1.0 + 1e-9)
    return near_xy & (np.minimum(az1, bz1) - np.maximum(az0, bz0) > 0)


#: The IoU a predicted box needs with a ground-truth box to be matched.
MATCH_IOU = 0.1


def match_boxes(
    predicted: Sequence[OrientedBox],
    truth: Sequence[OrientedBox],
) -> list[tuple[int, int, float]]:
    """Greedy one-to-one matching by descending IoU.

    Returns (pred_index, truth_index, iou) triples; pairs below
    :data:`MATCH_IOU` are never matched, so only the pairs that
    :func:`_may_overlap` keeps are scored.  Equal IoUs are taken in
    (pred_index, truth_index) order, so the matching is deterministic: the
    pairs come in that order from ``np.nonzero`` and a stable sort keeps it.
    """
    a, b = box_rows(predicted), box_rows(truth)
    ia, ib = np.nonzero(_may_overlap(a, b))
    ious = box_iou_pairs(a, b, ia, ib)
    kept = ious >= MATCH_IOU
    ia, ib, ious = ia[kept], ib[kept], ious[kept]
    order = np.argsort(-ious, kind="stable")
    used_p: set[int] = set()
    used_t: set[int] = set()
    matches = []
    for iou, i, j in zip(ious[order].tolist(), ia[order].tolist(), ib[order].tolist()):
        if i in used_p or j in used_t:
            continue
        used_p.add(i)
        used_t.add(j)
        matches.append((i, j, iou))
    matches.sort(key=lambda m: m[0])
    return matches


def box_regression_error(
    predicted: Sequence[OrientedBox],
    truth: Sequence[OrientedBox],
    matching: Sequence[tuple[int, int]],
) -> float | None:
    """Mean squared parameter error over matched box pairs.

    Parameters are (x, y, z, l, w, h, yaw); the yaw difference is wrapped
    to (-pi, pi] before squaring.  Returns None for an empty matching.
    """
    if len(matching) == 0:
        return None
    total = 0.0
    rows_p, rows_t = box_rows(predicted), box_rows(truth)
    for pi, ti in matching:
        d = rows_p[pi] - rows_t[ti]
        d[6] = wrap_angle(float(d[6]))
        total += float(d @ d)
    return total / len(matching)
