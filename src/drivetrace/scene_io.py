"""Scene and point-cloud file formats.

Scene files are JSON with top-level keys ``timestamp``, ``ego``,
``objects``, ``ground_truth``, ``cloud_file`` (path to the point cloud,
relative to the scene file) and ``frame_id`` (the ego frame of the scene
and its cloud; a file without it loads as ``ego``).  The ego is the frame
origin, so its ``position`` is written as zeros and must be zero if given.
Detections come from the detector, so ``objects`` is written as ``[]``
and must be ``[]`` if given.
Point clouds come in two flavors:

* ASCII: one point per line, ``x y z intensity`` whitespace-separated,
  ``#``-prefixed comment lines allowed.  The writer's first line
  ``# point cloud frame=<id> count=<n>`` names the scene's frame, and its
  count is checked against the points read.
* Binary: 16-byte header (8-byte magic ``PCBIN001`` + uint64 little-endian
  point count) followed by 4 float32 little-endian values per point.

Writers are byte-deterministic: identical inputs produce identical files.
:func:`write_json` writes every JSON artifact of the package, scene files
included, and :func:`read_json` reads every JSON input.
"""

from __future__ import annotations

import json
import re
import reprlib
import struct
from contextlib import contextmanager
from dataclasses import asdict, is_dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from .scene import (
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


def _jsonable(value: Any) -> Any:
    """What ``json`` cannot write, as what it can: a dataclass as its
    fields, an enum as its value and a numpy array as a list."""
    if is_dataclass(value):
        return asdict(value)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def json_text(payload: Any) -> str:
    """``payload`` as JSON with sorted keys, a two-space indent and a final
    newline.  A NaN or infinite number raises ValueError: JSON has none."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False,
                      default=_jsonable) + "\n"


def write_json(payload: Any, path: str | Path) -> None:
    """Write :func:`json_text` of ``payload`` to ``path``; a payload it
    refuses raises ValueError naming the file, and the file is not written."""
    try:
        text = json_text(payload)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    Path(path).write_text(text)


def read_json(path: str | Path) -> Any:
    """The JSON document in the file at ``path``; text that is not UTF-8
    JSON raises ValueError naming the file."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ValueError(f"{path}: {exc}") from None


def write_cloud_ascii(cloud: PointCloud, path: str | Path, frame_id: str) -> None:
    lines = [f"# point cloud frame={frame_id} count={len(cloud)}"]
    lines += [" ".join(map(repr, row)) for row in cloud.data.tolist()]
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


def read_cloud(path: str | Path) -> PointCloud:
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
        return PointCloud(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _box_from_dict(d: dict[str, Any]) -> OrientedBox:
    return OrientedBox(tuple(d["center"]), d["length"], d["width"], d["height"], d["yaw"])


def object_to_dict(obj: TrackedObject) -> dict[str, Any]:
    return {
        "id": obj.id,
        "box": obj.box,
        "velocity": obj.velocity,
        "class_probs": obj.class_dist.probs,
        "support_points": obj.support_points,
    }


def scene_to_dict(scene: Scene, cloud_file: str) -> dict[str, Any]:
    ground_truth = None if scene.ground_truth is None else [
        {"box": g.box, "class": g.label, "velocity": g.velocity}
        for g in scene.ground_truth]
    return {
        "timestamp": scene.timestamp,
        # the ego is the frame origin
        "ego": {**asdict(scene.ego), "position": [0.0, 0.0, 0.0]},
        "objects": [],
        "ground_truth": ground_truth,
        "cloud_file": cloud_file,
        "frame_id": scene.frame_id,
    }


@contextmanager
def _field(name: str) -> Iterator[None]:
    """Re-raise a wrong-type or bad-value error from the block as a
    ValueError that starts with the scene field ``name``; an integer too
    large for a float is a bad value."""
    try:
        yield
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name}: {exc}") from exc


def _number(d: dict[str, Any], key: str, name: str) -> float:
    """``d[key]``; raises ValueError naming the field ``name`` unless it is a
    JSON number that a float holds."""
    value = d[key]
    if type(value) not in (int, float):
        raise ValueError(f"{name} must be a number, got {value!r}")
    with _field(name):
        float(value)
    return value


def _ground_truth_from_dict(g: dict[str, Any], name: str) -> GroundTruthObject:
    with _field(name):
        return GroundTruthObject(_box_from_dict(g["box"]), ObjectClass(g["class"]),
                                 tuple(g["velocity"]))


def _ego_from_dict(ego: dict[str, Any]) -> EgoState:
    """The ego state; the checks that name their own ``ego.<key>`` field
    run outside ``_field``, so that their message is not prefixed twice."""
    with _field("ego"):
        position = ego.get("position", [0, 0, 0])
    if position != [0, 0, 0] or bool in map(type, position):
        raise ValueError(f"ego.position must be [0, 0, 0] (the ego is the frame origin), "
                         f"got {position!r}")
    heading, speed, lane_heading = (_number(ego, key, f"ego.{key}")
                                    for key in ("heading", "speed", "lane_heading"))
    with _field("ego"):
        return EgoState(heading, speed, lane_heading, Intent(ego["intent"]))


def scene_from_dict(d: dict[str, Any], cloud: PointCloud) -> Scene:
    ego_state = _ego_from_dict(d["ego"])
    frame_id = d.get("frame_id", "ego")  # files written without one are in "ego"
    if not isinstance(frame_id, str):
        raise ValueError(f"frame_id must be a string, got {frame_id!r}")
    gt = d.get("ground_truth")
    if gt is not None:
        with _field("ground_truth"):
            entries = enumerate(gt)
        gt = tuple(_ground_truth_from_dict(g, f"ground_truth[{k}]") for k, g in entries)
    objects = d.get("objects", [])
    if objects != []:
        raise ValueError(f"objects must be [] (detections come from the detector that "
                         f"config.detector names), got {reprlib.repr(objects)}")
    return Scene(
        timestamp=_number(d, "timestamp", "timestamp"),
        ego=ego_state,
        cloud=cloud,
        ground_truth=gt,
        frame_id=frame_id,
    )


def save_scene(scene: Scene, scene_path: str | Path, cloud_format: str = "ascii") -> None:
    """Write scene JSON plus its point-cloud file next to it."""
    scene_path = Path(scene_path)
    cloud_name = scene_path.stem + (".pts" if cloud_format == "ascii" else ".pcb")
    if cloud_format == "ascii":
        write_cloud_ascii(scene.cloud, scene_path.parent / cloud_name, scene.frame_id)
    elif cloud_format == "binary":
        write_cloud_binary(scene.cloud, scene_path.parent / cloud_name)
    else:
        raise ValueError(f"unknown cloud format {cloud_format!r}")
    write_json(scene_to_dict(scene, cloud_name), scene_path)


def load_scene(scene_path: str | Path) -> Scene:
    """Read a scene file and its cloud.  A malformed file raises ValueError
    with the scene path in front of the reason; a value of the wrong JSON
    type or a bad value is named by its field (``ground_truth[2]``,
    ``ego.heading``)."""
    scene_path = Path(scene_path)
    d = read_json(scene_path)
    try:
        cloud_file = d["cloud_file"]
        with _field("cloud_file"):
            cloud_path = scene_path.parent / cloud_file
        return scene_from_dict(d, read_cloud(cloud_path))
    except KeyError as exc:
        raise ValueError(f"{scene_path}: missing key {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"{scene_path}: {exc}") from exc
