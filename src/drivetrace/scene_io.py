"""Scene and point-cloud file formats.

Scene files are JSON with top-level keys ``timestamp``, ``ego``,
``objects``, ``ground_truth``, ``cloud_file`` (path to the point cloud,
relative to the scene file) and ``frame_id`` (the frame of the scene and
its cloud; a file without it loads as ``ego``).  Point clouds come in two
flavors:

* ASCII: one point per line, ``x y z intensity`` whitespace-separated,
  ``#``-prefixed comment lines allowed.  The writer's first line
  ``# point cloud frame=<id> count=<n>`` is checked against the points read.
* Binary: 16-byte header (8-byte magic ``PCBIN001`` + uint64 little-endian
  point count) followed by 4 float32 little-endian values per point.

Writers are byte-deterministic: identical inputs produce identical files.
"""

from __future__ import annotations

import json
import re
import struct
from pathlib import Path
from typing import Any

import numpy as np

from .scene import (
    ClassDistribution,
    EgoState,
    GroundTruthObject,
    Intent,
    ObjectClass,
    OrientedBox,
    PointCloud,
    Scene,
    TrackedObject,
)

CLOUD_MAGIC = b"PCBIN001"
#: The first line ``write_cloud_ascii`` writes; group 1 is the point count.
_ASCII_HEADER = re.compile(r"# point cloud frame=.* count=([0-9]+)")


def write_cloud_ascii(cloud: PointCloud, path: str | Path) -> None:
    lines = [f"# point cloud frame={cloud.frame_id} count={len(cloud)}"]
    for row in cloud.data:
        lines.append(" ".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_cloud_binary(cloud: PointCloud, path: str | Path) -> None:
    header = CLOUD_MAGIC + struct.pack("<Q", len(cloud))
    body = cloud.data.astype("<f4").tobytes()
    Path(path).write_bytes(header + body)


def _scan_points(path: str | Path, lines: list[str]) -> np.ndarray:
    """The (n, 4) points on an ASCII cloud's lines, parsed one line at a
    time.  A bad line raises ValueError naming the file and the line."""
    rows = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"{path}:{lineno}: bad point line {line!r}, "
                             f"expected 4 values")
        try:
            rows.append([float(v) for v in parts])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return np.array(rows, dtype=np.float64).reshape(-1, 4)


def _comments_start_lines(text: str) -> bool:
    """Whether every ``#`` in ``text`` is its first character or follows
    a newline, so that it starts a comment line."""
    i = text.find("#", 1)
    while i != -1:
        if text[i - 1] != "\n":
            return False
        i = text.find("#", i + 1)
    return True


def _loadtxt_points(text: str, lines: list[str]) -> np.ndarray | None:
    """The points ``_scan_points`` parses from ``lines`` (which is
    ``text.splitlines()``), parsed by numpy's C reader; None where that
    reader could differ from the line scan.

    ``np.loadtxt`` gets the same lines, so line breaks agree.  On ASCII
    text it splits fields at the same whitespace as ``str.split`` and
    parses each with the same ``PyOS_string_to_double`` as ``float``, so it
    rejects every value ``float`` rejects.  What is left gives None:
    non-ASCII text, a ``#`` that does not start a line (loadtxt drops an
    inline comment), a body without a point line (loadtxt warns), anything
    loadtxt rejects (``1_000`` is a float) and a column count other than 4
    (loadtxt reads any count).
    """
    if not (text.isascii() and _comments_start_lines(text)
            and any(line.strip() and not line.strip().startswith("#") for line in lines)):
        return None
    try:
        data = np.loadtxt(lines, dtype=np.float64, comments="#", ndmin=2)
    except ValueError:
        return None
    return data if data.shape[1] == 4 else None


def _read_ascii(path: str | Path, raw: bytes) -> np.ndarray:
    """The (n, 4) points of an ASCII cloud file's bytes.  When the first
    line is the writer's header, its count must match the points read."""
    text = raw.decode("utf-8")
    lines = text.splitlines()
    data = _loadtxt_points(text, lines)
    if data is None:
        data = _scan_points(path, lines)
    header = _ASCII_HEADER.fullmatch(lines[0].strip()) if lines else None
    if header and int(header[1]) != len(data):
        raise ValueError(f"point cloud {path} has header count {header[1]}, "
                         f"but {len(data)} points were read")
    return data


def read_cloud(path: str | Path, frame_id: str = "ego") -> PointCloud:
    """Read either cloud format; binary is detected by its magic string.
    A malformed file raises ValueError naming the file, and for an ASCII
    cloud the line."""
    raw = Path(path).read_bytes()
    if raw[: len(CLOUD_MAGIC)] == CLOUD_MAGIC:
        if len(raw) < 16:
            raise ValueError(f"point cloud {path} has {len(raw)} bytes, "
                             f"less than its 16-byte header")
        (count,) = struct.unpack("<Q", raw[8:16])
        if len(raw) != 16 + 16 * count:
            raise ValueError(f"point cloud {path} has header count {count}, which needs "
                             f"{16 + 16 * count} bytes, but the file has {len(raw)}")
        data = np.frombuffer(raw, dtype="<f4", offset=16, count=count * 4)
        data = data.reshape(count, 4).astype(np.float64)
    else:
        data = _read_ascii(path, raw)
    try:
        return PointCloud(data, frame_id)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _box_to_dict(box: OrientedBox) -> dict[str, Any]:
    return {
        "center": list(box.center),
        "length": box.length,
        "width": box.width,
        "height": box.height,
        "yaw": box.yaw,
    }


def _box_from_dict(d: dict[str, Any]) -> OrientedBox:
    return OrientedBox(tuple(d["center"]), d["length"], d["width"], d["height"], d["yaw"])


def object_to_dict(obj: TrackedObject) -> dict[str, Any]:
    return {
        "id": obj.id,
        "box": _box_to_dict(obj.box),
        "velocity": list(obj.velocity),
        "class_probs": list(obj.class_dist.probs),
        "support_points": list(obj.support_points),
    }


def scene_to_dict(scene: Scene, cloud_file: str) -> dict[str, Any]:
    d: dict[str, Any] = {
        "timestamp": scene.timestamp,
        "ego": {
            "position": list(scene.ego.position),
            "heading": scene.ego.heading,
            "speed": scene.ego.speed,
            "lane_heading": scene.ego.lane_heading,
            "intent": scene.ego.intent.value,
        },
        "objects": [object_to_dict(o) for o in scene.objects],
        "ground_truth": None,
        "cloud_file": cloud_file,
        "frame_id": scene.frame_id,
    }
    if scene.ground_truth is not None:
        d["ground_truth"] = [
            {
                "box": _box_to_dict(g.box),
                "class": g.label.value,
                "velocity": list(g.velocity),
            }
            for g in scene.ground_truth
        ]
    return d


def _support_points(obj: dict[str, Any], n_points: int) -> tuple[int, ...]:
    """An object's support indices; raises ValueError naming the object
    when one does not index the cloud (a negative index would wrap)."""
    support = tuple(obj["support_points"])
    if support and not (min(support) >= 0 and max(support) < n_points):
        raise ValueError(f"object {obj['id']}: support_points must lie in [0, {n_points}), "
                         f"got indices from {min(support)} to {max(support)}")
    return support


def _frame_id(d: dict[str, Any]) -> str:
    """The scene's ``frame_id``; ``ego`` for files written without one."""
    frame_id = d.get("frame_id", "ego")
    if not isinstance(frame_id, str):
        raise ValueError(f"frame_id must be a string, got {frame_id!r}")
    return frame_id


def scene_from_dict(d: dict[str, Any], cloud: PointCloud) -> Scene:
    ego = d["ego"]
    gt = None
    if d.get("ground_truth") is not None:
        gt = tuple(
            GroundTruthObject(_box_from_dict(g["box"]), ObjectClass(g["class"]),
                              tuple(g["velocity"]))
            for g in d["ground_truth"]
        )
    return Scene(
        timestamp=d["timestamp"],
        ego=EgoState(
            heading=ego["heading"],
            speed=ego["speed"],
            lane_heading=ego["lane_heading"],
            intent=Intent(ego["intent"]),
            position=tuple(ego.get("position", (0.0, 0.0, 0.0))),
        ),
        cloud=cloud,
        objects=tuple(
            TrackedObject(
                id=o["id"],
                box=_box_from_dict(o["box"]),
                velocity=tuple(o["velocity"]),
                class_dist=ClassDistribution(tuple(o["class_probs"])),
                support_points=_support_points(o, len(cloud)),
            )
            for o in d["objects"]
        ),
        ground_truth=gt,
        frame_id=_frame_id(d),
    )


def save_scene(scene: Scene, scene_path: str | Path, cloud_format: str = "ascii") -> None:
    """Write scene JSON plus its point-cloud file next to it."""
    scene_path = Path(scene_path)
    cloud_name = scene_path.stem + (".pts" if cloud_format == "ascii" else ".pcb")
    if cloud_format == "ascii":
        write_cloud_ascii(scene.cloud, scene_path.parent / cloud_name)
    elif cloud_format == "binary":
        write_cloud_binary(scene.cloud, scene_path.parent / cloud_name)
    else:
        raise ValueError(f"unknown cloud format {cloud_format!r}")
    payload = scene_to_dict(scene, cloud_name)
    scene_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_scene(scene_path: str | Path) -> Scene:
    """Read a scene file and its cloud.  A malformed file raises
    ValueError with the scene path in front of the reason."""
    scene_path = Path(scene_path)
    try:
        d = json.loads(scene_path.read_text())
        cloud = read_cloud(scene_path.parent / d["cloud_file"], _frame_id(d))
        return scene_from_dict(d, cloud)
    except KeyError as exc:
        raise ValueError(f"{scene_path}: missing key {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{scene_path}: {exc}") from exc
