"""Scene and point-cloud file formats.

Scene files are JSON with top-level keys ``timestamp``, ``ego``,
``objects``, ``ground_truth``, ``cloud_file`` (path to the point cloud,
relative to the scene file) and ``frame_id`` (the ego frame of the scene
and its cloud; a file without it loads as ``ego``), and no other.  The
ego is the frame origin, so its ``position`` is written as zeros and must
be zero if given.
Detections come from the detector, so ``objects`` is written as ``[]``
and must be ``[]`` if given.
Point clouds come in two flavors:

* ASCII: one point per line, ``x y z intensity`` whitespace-separated,
  ``#``-prefixed comment lines allowed.  The writer's first line
  ``# point cloud frame=<id> count=<n>`` names the scene's frame, and its
  count is checked against the points read; a file that starts with it
  must end in a newline, as the writer's files do.
  Each value is written with ``%.9g``, which identifies a float32.
* Binary: 16-byte header (8-byte magic ``PCBIN001`` + uint64 little-endian
  point count) followed by 4 float32 little-endian values per point.

A :class:`~drivetrace.scene.PointCloud` holds float32 values, so both
formats hold a cloud's values exactly and load the same floats.

Writers are byte-deterministic: identical inputs produce identical files.
:func:`write_json` writes every JSON artifact, scene files included;
:func:`read_json` reads every JSON input and :func:`from_json` builds its
typed values, refusing a bad value or key with the file and the field.
"""

from __future__ import annotations

import functools
import json
import re
import reprlib
import struct
import sys
from dataclasses import MISSING, asdict, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from .scene import EgoState, GroundTruthObject, PointCloud, Scene, TrackedObject

CLOUD_MAGIC = b"PCBIN001"
#: How the first line ``write_cloud_ascii`` writes starts, whatever the frame id.
_ASCII_HEADER_START = "# point cloud frame="
#: That whole line; group 1 is the point count.
_ASCII_HEADER = re.compile(re.escape(_ASCII_HEADER_START) + r".* count=([0-9]+)")
#: The keys of a scene file.
_SCENE_KEYS = {"timestamp", "ego", "objects", "ground_truth", "cloud_file", "frame_id"}


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


_KINDS = {int: "an integer", float: "a number", str: "a string", bool: "a boolean"}


def _kind(tp: Any) -> str:
    """What a JSON value read as annotation ``tp`` must be."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is Union:
        return f"{_kind(args[0])} or null"
    if origin is tuple:
        return "a list" if args[-1] is ... else f"a list of length {len(args)}"
    if isinstance(tp, type) and issubclass(tp, Enum):
        return f"one of {[m.value for m in tp]}"
    return _KINDS.get(tp, "an object")


def _dotted(path: Any) -> str:
    """``path`` as text, such as ``ground_truth[2].box``: a reader hands each
    item a (container's path, key or index) pair, which costs less."""
    if isinstance(path, str):
        return path
    parent, key = _dotted(path[0]), path[1]
    return f"{parent}[{key}]" if isinstance(key, int) else f"{parent}.{key}" if parent else key


def _at(path: Any, reason: str) -> str:
    return f"{_dotted(path)}: {reason}" if _dotted(path) else reason


@functools.cache
def _reader(tp: Any, kind: str = "") -> Callable[[Any, Any], Any]:
    """The function of a JSON value and its path that reads the value as
    annotation ``tp`` or refuses it as not ``kind`` (``tp``'s by default);
    built once, as resolving a dataclass's annotations takes about 0.1 ms."""
    kind = kind or _kind(tp)
    origin, args = get_origin(tp), get_args(tp)

    def refuse(value: Any, path: Any) -> Any:
        raise ValueError(f"{_dotted(path) or 'top level'} must be {kind}, "
                         f"got {reprlib.repr(value)}")

    if origin is Union:  # Optional[args[0]]
        read = _reader(args[0], kind)
        return lambda value, path: None if value is None else read(value, path)
    if tp is float:
        def read_number(value: Any, path: Any) -> Any:
            if type(value) not in (int, float):  # a boolean is never a number
                refuse(value, path)
            if not abs(value) <= sys.float_info.max:
                digits = f"an integer of {len(str(abs(value)))} digits"
                raise ValueError(f"{_dotted(path)} must be finite, "
                                 f"got {value if type(value) is float else digits}")
            return value
        return read_number
    if tp in _KINDS or tp is Any:
        return lambda value, path: value if type(value) is tp or tp is Any else refuse(value, path)
    if isinstance(tp, type) and issubclass(tp, Enum):
        members = {m.value: m for m in tp}
        return lambda value, path: (members[value] if type(value) in (str, int)
                                    and value in members else refuse(value, path))
    if origin is tuple:
        items = [_reader(a) for a in args if a is not ...]
        return lambda value, path: (
            tuple([read(v, (path, i))
                   for i, (read, v) in enumerate(zip(items * len(value), value))])
            if type(value) is list and (args[-1] is ... or len(value) == len(args))
            else refuse(value, path))
    if origin is dict:
        item = _reader(args[1])
        return lambda value, path: ({k: item(v, (path, k)) for k, v in value.items()}
                                    if type(value) is dict else refuse(value, path))
    hints = get_type_hints(tp)
    # format v1 writes a ground-truth label as "class"; errors name that key
    keys = {"class" if (tp, f.name) == (GroundTruthObject, "label") else f.name:
            (f.name, _reader(hints[f.name]), f.default is f.default_factory is MISSING)
            for f in fields(tp)}

    def read_object(value: Any, path: Any) -> Any:
        if type(value) is not dict:
            refuse(value, path)
        if not value.keys() <= keys.keys():
            raise ValueError(_at(path, f"unknown key {min(value.keys() - keys.keys())!r}"))
        missing = [key for key, (_, _, required) in keys.items() if required and key not in value]
        if missing:
            raise ValueError(_at(path, f"missing key {missing[0]!r}"))
        given = {name: read(value[key], (path, key))
                 for key, (name, read, _) in keys.items() if key in value}
        try:
            return tp(**given)
        except ValueError as exc:
            raise ValueError(_at(path, str(exc))) from None
    return read_object


def from_json(tp: Any, value: Any, where: str | Path, path: str = "") -> Any:
    """``value``, as ``json.loads`` gives it, read as type annotation ``tp``:
    int, float, str, bool, ``Any``, an enum (by value), ``Optional``, a
    fixed-length or ``...`` tuple (a list), ``dict[str, X]`` or a dataclass
    (an object; unknown keys and missing keys without a default are
    refused, and ``__post_init__`` checks the fields).  A number is kept as
    given, but it must be finite and fit a float; a boolean is never a
    number.  ``dataclasses.MISSING`` stands for a key the file lacks.

    Raises:
        ValueError: ``<where>: <path> must be <kind>, got <value>`` or
            ``<where>: <path>: <reason>``; ``path`` is the value's dotted
            place in the file ``where``, such as ``ground_truth[2].box``.
    """
    try:
        if value is MISSING:
            parent, _, key = path.rpartition(".")
            raise ValueError(_at(parent, f"missing key {key!r}"))
        return _reader(tp)(value, path)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def write_cloud_ascii(cloud: PointCloud, path: str | Path, frame_id: str) -> None:
    """Write the header line, then each point as ``x y z intensity`` with
    ``%.9g``: nine significant digits identify every float32, so reading
    the text back gives the cloud's values exactly."""
    header = f"{_ASCII_HEADER_START}{frame_id} count={len(cloud)}\n"
    body = "%.9g %.9g %.9g %.9g\n" * len(cloud) % tuple(cloud.data.ravel().tolist())
    Path(path).write_text(header + body)


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
    line is the writer's header, its count must match the points read.
    The writer ends every line with a newline, so a file that starts like
    its header (or a part of it) but does not end in one was cut short."""
    text = raw.decode("utf-8")
    lines = text.splitlines()
    first = lines[0] if lines else ""
    if (first and not text.endswith("\n")
            and (first.startswith(_ASCII_HEADER_START) or _ASCII_HEADER_START.startswith(first))):
        raise ValueError(f"point cloud {path} starts like the writer's header line but does "
                         f"not end in a newline, so it was cut short")
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
    if not raw:  # every writer writes a header, so the file was cut short
        raise ValueError(f"point cloud {path} has 0 bytes, but a cloud file starts with a header")
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
        try:
            data = _read_ascii(path, raw)
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    try:
        return PointCloud(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


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
    naming the file and the field (``ground_truth[2].box.yaw``); a bad cloud
    file, naming both files."""
    scene_path = Path(scene_path)
    d = from_json(dict[str, Any], read_json(scene_path), scene_path)
    if not d.keys() <= _SCENE_KEYS:
        raise ValueError(f"{scene_path}: unknown key {min(d.keys() - _SCENE_KEYS)!r}")

    def key(tp: Any, name: str, default: Any = MISSING) -> Any:
        return from_json(tp, d.get(name, default), scene_path, name)

    ego = key(dict[str, Any], "ego")
    position = ego.pop("position", [0, 0, 0])
    if position != [0, 0, 0] or bool in map(type, position):
        raise ValueError(f"{scene_path}: ego.position must be [0, 0, 0] (the ego is the "
                         f"frame origin), got {position!r}")
    if d.get("objects", []) != []:
        raise ValueError(f"{scene_path}: objects must be [] (detections come from the detector "
                         f"that config.detector names), got {reprlib.repr(d['objects'])}")
    missing = [f.name for f in fields(EgoState) if f.name not in ego]
    if missing:  # format v1 writes every ego key, so none takes its default
        raise ValueError(f"{scene_path}: ego: missing key {missing[0]!r}")
    ego = from_json(EgoState, ego, scene_path, "ego")
    ground_truth = key(Optional[tuple[GroundTruthObject, ...]], "ground_truth", None)
    timestamp, frame_id = key(float, "timestamp"), key(str, "frame_id", "ego")
    cloud_path = scene_path.parent / key(str, "cloud_file")
    try:
        return Scene(timestamp, ego, read_cloud(cloud_path), ground_truth, frame_id)
    except ValueError as exc:
        raise ValueError(f"{scene_path}: {exc}") from exc
