"""Scene JSON and point-cloud file format round-trips."""

import json
import math
import re
import reprlib
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drivetrace.pipeline import PipelineConfig, run_scene
from drivetrace.scenario import ScenarioSpec, Template, generate
from drivetrace.scene import EgoState, Intent, OrientedBox, PointCloud, Scene
from drivetrace.scene_io import (
    CLOUD_MAGIC,
    json_text,
    load_scene,
    object_to_dict,
    read_cloud,
    save_scene,
    write_cloud_ascii,
    write_cloud_binary,
    write_json,
)


#: The float32 maximum, its smallest subnormal, and the float64 halfway
#: between the maximum (2**128 - 2**104) and 2**128: a value of at least this
#: magnitude rounds to float32 infinity (a tie goes to the even neighbour).
F32_MAX = 2.0**128 - 2.0**104
F32_TINY = 2.0**-149
F32_OVERFLOW = 2.0**128 - 2.0**103
OUT_OF_RANGE = ("point cloud values must round to a finite float32 "
                "(the float32 maximum is 3.4028234663852886e+38)")
BAD_LINE = ", expected 4 numbers separated by spaces or tabs"


def header(count):
    """The header line ``write_cloud_ascii`` writes for a cloud of ``count`` points."""
    return f"# point cloud frame=ego count={count}\n"


@pytest.fixture
def cloud(rng):
    data = np.column_stack([rng.uniform(-50, 50, (100, 3)), rng.uniform(0, 255, 100)])
    return PointCloud(data)


def test_ascii_round_trip_exact(cloud, tmp_path):
    path = tmp_path / "cloud.pts"
    write_cloud_ascii(cloud, path, "test")
    back = read_cloud(path)
    # nine significant digits reproduce every float32 exactly, in order
    np.testing.assert_array_equal(back.data, cloud.data)


def test_ascii_writer_text(tmp_path):
    """The writer's exact text: each value rounded to float32, then written
    with nine significant digits."""
    data = np.array([[-0.0, F32_TINY, 1 / 3, 1e16],
                     [1e16, -1 / 3, -F32_TINY, F32_MAX]])
    path = tmp_path / "cloud.pts"
    write_cloud_ascii(PointCloud(data), path, "pin")
    assert path.read_text() == ("# point cloud frame=pin count=2\n"
                                "-0 1.40129846e-45 0.333333343 1.00000003e+16\n"
                                "1.00000003e+16 -0.333333343 -1.40129846e-45 3.40282347e+38\n")


@pytest.mark.filterwarnings("error")
def test_values_outside_float32_range_refused_without_warning(tmp_path):
    """No writer can write a value its reader refuses: a cloud value that
    rounds past the float32 maximum is refused when the cloud is built, and
    a file holding one is refused naming the file.  At the limits no reader
    or writer warns, and both formats give the scene back."""
    with pytest.raises(ValueError) as exc:
        PointCloud([[1e39, 0.0, 0.0, 0.0]])
    assert str(exc.value) == f"{OUT_OF_RANGE}, got 1e+39"
    path = tmp_path / "cloud.pts"
    path.write_text(header(1) + "1e39 0 0 0\n")
    with pytest.raises(ValueError) as exc:
        read_cloud(path)
    assert str(exc.value) == f"{path}: {OUT_OF_RANGE}, got 1e+39"
    scene = replace(generate(ScenarioSpec(template=Template.EMPTY_ROAD, seed=1)),
                    cloud=PointCloud([[F32_MAX, -F32_MAX, F32_TINY, F32_MAX],
                                      [math.nextafter(F32_OVERFLOW, 0), -0.0, -F32_TINY, 0.0]]))
    assert scene.cloud.data[1, 0] == F32_MAX
    for cloud_format in ("ascii", "binary"):
        save_scene(scene, tmp_path / f"{cloud_format}.json", cloud_format=cloud_format)
        assert load_scene(tmp_path / f"{cloud_format}.json") == scene


def test_ascii_comments_and_blank_lines(tmp_path):
    """Blank lines are skipped; no writer writes a comment after the header."""
    path = tmp_path / "cloud.pts"
    path.write_text(header(2) + "\n1.0 2.0 3.0 4.0\n\n5 6 7 8\n")
    back = read_cloud(path)
    assert len(back) == 2
    assert back.data[1, 0] == 5.0
    path.write_text(header(2) + "\n1.0 2.0 3.0 4.0\n# mid comment\n5 6 7 8\n")
    with pytest.raises(ValueError) as exc:
        read_cloud(path)
    assert str(exc.value) == f"{path}:4: bad point line '# mid comment'{BAD_LINE}"


def test_ascii_bad_line_rejected(tmp_path):
    path = tmp_path / "cloud.pts"
    path.write_text(header(1) + "1.0 2.0 3.0\n")
    with pytest.raises(ValueError) as exc:
        read_cloud(path)
    assert str(exc.value) == f"{path}:2: bad point line '1.0 2.0 3.0'{BAD_LINE}"


def test_binary_round_trip(cloud, tmp_path):
    path = tmp_path / "cloud.pcb"
    write_cloud_binary(cloud, path)
    raw = path.read_bytes()
    assert raw[:8] == CLOUD_MAGIC
    assert len(raw) == 16 + 16 * len(cloud)
    back = read_cloud(path)
    # binary stores float32: exact at float32 resolution
    np.testing.assert_allclose(back.data, cloud.data, atol=1e-4, rtol=1e-6)
    assert len(back) == len(cloud)


def test_scene_round_trip(tmp_path):
    scene = generate(ScenarioSpec(template=Template.DENSE_TRAFFIC, seed=5))
    path = tmp_path / "scene.json"
    save_scene(scene, path)
    back = load_scene(path)
    assert back.timestamp == scene.timestamp
    assert back.ego == scene.ego
    assert back.cloud.data.shape == scene.cloud.data.shape
    np.testing.assert_array_equal(back.cloud.data, scene.cloud.data)
    assert len(back.ground_truth) == len(scene.ground_truth)
    for a, b in zip(back.ground_truth, scene.ground_truth):
        assert a == b


def test_scene_round_trip_binary_cloud(tmp_path):
    scene = generate(ScenarioSpec(template=Template.LEAD_VEHICLE, seed=2))
    path = tmp_path / "scene.json"
    save_scene(scene, path, cloud_format="binary")
    d = json.loads(path.read_text())
    assert d["cloud_file"].endswith(".pcb")
    back = load_scene(path)
    assert len(back.cloud) == len(scene.cloud)


@pytest.mark.parametrize("cloud_format", ["ascii", "binary"])
def test_frame_id_round_trip(tmp_path, cloud_format):
    scene = generate(ScenarioSpec(template=Template.PEDESTRIAN_CROSSING, seed=3))
    assert scene.frame_id == "pedestrian-crossing-3"
    path = tmp_path / "scene.json"
    save_scene(scene, path, cloud_format=cloud_format)
    back = load_scene(path)
    assert back.frame_id == "pedestrian-crossing-3"
    assert back == scene


def test_ascii_header_names_the_scene_frame(tmp_path):
    """The scene owns the frame id: a hand-built scene's cloud header says
    the scene's frame, and the scene reloads equal to itself."""
    scene = Scene(0.0, EgoState(), PointCloud([[1.0, 2.0, 3.0, 4.0]]), frame_id="a")
    path = tmp_path / "scene.json"
    save_scene(scene, path)
    assert (tmp_path / "scene.pts").read_text().startswith("# point cloud frame=a count=1\n")
    assert load_scene(path) == scene


def test_scene_without_frame_id_loads_as_ego(tmp_path):
    path = tmp_path / "scene.json"
    save_scene(generate(ScenarioSpec(template=Template.EMPTY_ROAD, seed=1)), path)
    d = json.loads(path.read_text())
    del d["frame_id"]
    path.write_text(json.dumps(d))
    assert load_scene(path).frame_id == "ego"


def test_non_string_frame_id_rejected(tmp_path):
    path = tmp_path / "scene.json"
    save_scene(generate(ScenarioSpec(template=Template.EMPTY_ROAD, seed=1)), path)
    d = json.loads(path.read_text())
    d["frame_id"] = 7
    path.write_text(json.dumps(d))
    with pytest.raises(ValueError) as exc:
        load_scene(path)
    assert str(exc.value) == f"{path}: frame_id must be a string, got 7"


@pytest.mark.parametrize("position", [None, [0, 0, 0], [0.0, -0.0, 0.0]])
def test_ego_position_missing_or_zero_loads(tmp_path, position):
    path = tmp_path / "scene.json"
    scene = generate(ScenarioSpec(template=Template.LEAD_VEHICLE, seed=1))
    save_scene(scene, path)
    d = json.loads(path.read_text())
    if position is None:
        del d["ego"]["position"]
    else:
        d["ego"]["position"] = position
    path.write_text(json.dumps(d))
    assert load_scene(path) == scene


@pytest.mark.parametrize("position", [[5.0, 0.0, 0.0], [0.0, 0.0, 1e-300], [float("nan"), 0, 0],
                                      [0.0, 0.0], [0, 0, 0, 0], "0 0 0", None, 0,
                                      [False, False, False], ["0", 0, 0]])
def test_ego_position_off_the_origin_rejected(tmp_path, position):
    path = tmp_path / "scene.json"
    save_scene(generate(ScenarioSpec(template=Template.LEAD_VEHICLE, seed=1)), path)
    d = json.loads(path.read_text())
    d["ego"]["position"] = position
    path.write_text(json.dumps(d))
    with pytest.raises(ValueError) as exc:
        load_scene(path)
    assert str(exc.value) == (f"{path}: ego.position must be [0, 0, 0] "
                              f"(the ego is the frame origin), got {position!r}")


def test_scene_json_schema_keys(tmp_path):
    scene = generate(ScenarioSpec(template=Template.PEDESTRIAN_CROSSING, seed=1))
    path = tmp_path / "scene.json"
    save_scene(scene, path)
    d = json.loads(path.read_text())
    assert set(d) == {"timestamp", "ego", "objects", "ground_truth", "cloud_file",
                      "frame_id"}
    assert set(d["ego"]) == {"position", "heading", "speed", "lane_heading", "intent"}
    gt = d["ground_truth"][0]
    assert set(gt) == {"box", "class", "velocity"}
    assert set(gt["box"]) == {"center", "length", "width", "height", "yaw"}


def test_nan_ego_speed_rejected_at_load(tmp_path):
    scene = generate(ScenarioSpec(template=Template.EMPTY_ROAD, seed=1))
    path = tmp_path / "scene.json"
    save_scene(scene, path)
    d = json.loads(path.read_text())
    d["ego"]["speed"] = float("nan")
    path.write_text(json.dumps(d))
    assert "NaN" in path.read_text()
    with pytest.raises(ValueError) as exc:
        load_scene(path)
    assert str(exc.value) == f"{path}: ego.speed must be finite, got nan"


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_timestamp_rejected_at_load(tmp_path, bad):
    path = tmp_path / "scene.json"
    save_scene(generate(ScenarioSpec(template=Template.EMPTY_ROAD, seed=1)), path)
    d = json.loads(path.read_text())
    d["timestamp"] = bad
    path.write_text(json.dumps(d))
    with pytest.raises(ValueError) as exc:
        load_scene(path)
    assert str(exc.value) == f"{path}: timestamp must be finite, got {bad!r}"


def test_detections_file_is_the_detector_output(tmp_path):
    from drivetrace.cli import main
    from drivetrace.config import PipelineConfig
    from drivetrace.pipeline import detect

    scene = generate(ScenarioSpec(template=Template.DENSE_TRAFFIC, seed=2))
    path = tmp_path / "scene.json"
    save_scene(scene, path)
    assert main(["detect", "--scene", str(path), "--out", str(tmp_path / "det")]) == 0
    dets = json.loads((tmp_path / "det" / "detections.json").read_text())
    written = json.loads(json_text([object_to_dict(o)
                                    for o in detect(load_scene(path), PipelineConfig())]))
    assert len(dets) == len(written) > 1
    assert dets == written
    # the support arrays are written as plain JSON ints
    assert all(d["support_points"] for d in dets)
    assert all(type(i) is int for d in dets for i in d["support_points"])


@pytest.mark.parametrize("objects", ["missing", []])
def test_objects_missing_or_empty_loads(tmp_path, objects):
    path = tmp_path / "scene.json"
    scene = generate(ScenarioSpec(template=Template.LEAD_VEHICLE, seed=1))
    save_scene(scene, path)
    d = json.loads(path.read_text())
    assert d["objects"] == []
    if objects == "missing":
        del d["objects"]
    path.write_text(json.dumps(d))
    assert load_scene(path) == scene


def _own_detections():
    """The seed-1 lead-vehicle scene's detections as ``detections.json``
    holds them."""
    from drivetrace.config import PipelineConfig
    from drivetrace.pipeline import detect

    scene = generate(ScenarioSpec(template=Template.LEAD_VEHICLE, seed=1))
    return json.loads(json_text([object_to_dict(o) for o in detect(scene, PipelineConfig())]))


@pytest.mark.parametrize("objects", [_own_detections(), [5], [[]], None, {}, "[]", 0],
                         ids=["detections", "int", "nested", "null", "object", "string", "zero"])
def test_objects_other_than_empty_rejected(tmp_path, objects):
    """Detections come only from the configured detector: a scene file that
    carries its own is refused, not used in the detector's place."""
    path = tmp_path / "scene.json"
    save_scene(generate(ScenarioSpec(template=Template.LEAD_VEHICLE, seed=1)), path)
    d = json.loads(path.read_text())
    d["objects"] = objects
    path.write_text(json.dumps(d))
    with pytest.raises(ValueError) as exc:
        load_scene(path)
    assert str(exc.value) == (f"{path}: objects must be [] (detections come from the detector "
                              f"that config.detector names), got {reprlib.repr(objects)}")


def test_truncated_binary_cloud_names_file(cloud, tmp_path):
    path = tmp_path / "cloud.pcb"
    write_cloud_binary(cloud, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(ValueError) as exc:
        read_cloud(path)
    message = str(exc.value)
    assert str(path) in message
    assert f"header count {len(cloud)}" in message
    assert f"file has {len(raw) - 5}" in message


def test_binary_cloud_shorter_than_header(tmp_path):
    path = tmp_path / "cloud.pcb"
    path.write_bytes(CLOUD_MAGIC + b"\x01\x00")
    with pytest.raises(ValueError, match="less than its 16-byte header") as exc:
        read_cloud(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("name", ["cloud.pcb", "cloud.pts"])
def test_zero_byte_cloud_names_file(tmp_path, name):
    """Both writers write a header, so an empty cloud file was cut short."""
    path = tmp_path / name
    path.write_bytes(b"")
    with pytest.raises(ValueError) as exc:
        read_cloud(path)
    assert str(exc.value) == f"point cloud {path} has 0 bytes, but a cloud file starts with a header"


def test_ascii_cloud_not_utf8_names_file(tmp_path):
    path = tmp_path / "cloud.pts"
    path.write_bytes(b"1 2 3 4\n\xff\xfe 1 2 3\n")
    with pytest.raises(ValueError) as exc:
        read_cloud(path)
    assert str(exc.value) == (f"{path}: 'utf-8' codec can't decode byte 0xff in position 8: "
                              f"invalid start byte")


def test_ascii_bad_number_names_file_and_line(tmp_path):
    path = tmp_path / "cloud.pts"
    path.write_text(header(2) + "1 2 3 4\n\n1 2 3 abc\n")
    with pytest.raises(ValueError) as exc:
        read_cloud(path)
    assert str(exc.value) == f"{path}:4: bad point line '1 2 3 abc'{BAD_LINE}"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("fmt", ["ascii", "binary"])
def test_non_finite_cloud_names_file(tmp_path, fmt, bad):
    path = tmp_path / ("cloud.pts" if fmt == "ascii" else "cloud.pcb")
    rows = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, bad, 7.0, 8.0]])
    if fmt == "ascii":
        path.write_text(header(2) + "".join(" ".join(repr(float(v)) for v in row) + "\n"
                                            for row in rows))
    else:
        path.write_bytes(CLOUD_MAGIC + struct.pack("<Q", 2) + rows.astype("<f4").tobytes())
    with pytest.raises(ValueError) as exc:
        read_cloud(path)
    assert str(exc.value) == f"{path}: point cloud contains non-finite values"


def test_scene_load_error_names_scene_file(tmp_path):
    scene = generate(ScenarioSpec(template=Template.EMPTY_ROAD, seed=1))
    path = tmp_path / "scene.json"
    save_scene(scene, path, cloud_format="binary")
    d = json.loads(path.read_text())
    del d["timestamp"]
    path.write_text(json.dumps(d))
    with pytest.raises(ValueError, match="missing key 'timestamp'") as exc:
        load_scene(path)
    assert str(exc.value).startswith(str(path))
    cloud_path = tmp_path / d["cloud_file"]
    cloud_path.write_bytes(cloud_path.read_bytes()[:20])
    d["timestamp"] = 0.0
    path.write_text(json.dumps(d))
    with pytest.raises(ValueError, match="header count") as exc:
        load_scene(path)
    assert str(exc.value).startswith(str(path))
    assert str(cloud_path) in str(exc.value)
    cloud_path = tmp_path / "scene.pts"
    cloud_path.write_text(header(2) + "1 2 3 4\n1 2 3 abc\n")
    d["cloud_file"] = cloud_path.name
    path.write_text(json.dumps(d))
    with pytest.raises(ValueError) as exc:
        load_scene(path)
    assert str(exc.value) == f"{path}: {cloud_path}:3: bad point line '1 2 3 abc'{BAD_LINE}"


NON_FINITE = ": point cloud contains non-finite values"
CUT_SHORT = ": the file does not end in a newline, so it was cut short"
#: Bodies at the edge of the ASCII form, each after a writer header, and
#: what reading the file gives: its rows, or the error after the file name.
TRAP_BODIES = {
    "inline-comment": (b"1 2 3 4 # note\n", f":2: bad point line '1 2 3 4 # note'{BAD_LINE}"),
    "inline-comment-3-values": (b"1 2 3 #4\n", f":2: bad point line '1 2 3 #4'{BAD_LINE}"),
    **{f"break-{b:#04x}": (b"1 2" + bytes([b]) + b"3 4\n5 6 7 8\n",
                           f":2: bad point line '1 2'{BAD_LINE}")
       for b in (0x0B, 0x0C, 0x1C, 0x1D, 0x1E)},
    "break-before-comment": (b"1 2 3 4\x0c# note\n", f":3: bad point line '# note'{BAD_LINE}"),
    "comment-line": (b"# note\n1 2 3 4\n", f":2: bad point line '# note'{BAD_LINE}"),
    "indented-comment": (b"  # note\n1 2 3 4\n", f":2: bad point line '  # note'{BAD_LINE}"),
    "cr-only": (b"1 2 3 4\r5 6 7 8\r", CUT_SHORT),
    "crlf": (b"1 2 3 4\r\n5 6 7 8\r\n", [[1, 2, 3, 4], [5, 6, 7, 8]]),
    "tabs": (b"1\t2\t3\t4\n \t5 6\t 7 8\t\n", [[1, 2, 3, 4], [5, 6, 7, 8]]),
    "blank-lines": (b"\n1 2 3 4\n \n\t\n5 6 7 8\n\n", [[1, 2, 3, 4], [5, 6, 7, 8]]),
    "nbsp": ("1\u00a02\u00a03\u00a04\n".encode(),
             f":2: bad point line '1\\xa02\\xa03\\xa04'{BAD_LINE}"),
    "nel": ("1 2 3 4\u00855 6 7 8\n".encode(), ": the point lines are not ASCII"),
    "arabic-digits": ("\u0661 2 3 4\n".encode(), f":2: bad point line '\u0661 2 3 4'{BAD_LINE}"),
    "not-utf8": (b"\xff 2 3 4\n",
                 ": 'utf-8' codec can't decode byte 0xff in position 32: invalid start byte"),
    "underscore": (b"1_000 2 3 4\n", f":2: bad point line '1_000 2 3 4'{BAD_LINE}"),
    "plus-exponent": (b"+1e3 2 3 4\n", [[1000, 2, 3, 4]]),
    "infinity": (b"Infinity 2 3 4\n", NON_FINITE),
    "nan": (b"nan 2 3 4\n", NON_FINITE),
    "overflow": (b"1e400 2 3 4\n", NON_FINITE),
    "hex": (b"0x10 2 3 4\n", f":2: bad point line '0x10 2 3 4'{BAD_LINE}"),
    "nul": (b"1 2 3 4\x00\n", f":2: bad point line '1 2 3 4\\x00'{BAD_LINE}"),
    "3-values": (b"1 2 3\n4 5 6\n", f":2: bad point line '1 2 3'{BAD_LINE}"),
    "5-values": (b"1 2 3 4 5\n", f":2: bad point line '1 2 3 4 5'{BAD_LINE}"),
    "1-value-4-lines": (b"1\n2\n3\n4\n", f":2: bad point line '1'{BAD_LINE}"),
    "ragged": (b"1 2 3 4\n5 6 7\n", f":3: bad point line '5 6 7'{BAD_LINE}"),
    "header-only": (b"", []),
    "comment-only": (b"# note\n", f":2: bad point line '# note'{BAD_LINE}"),
    "blank-lines-only": (b"\n  \n\t\n", []),
    "no-final-newline": (b"1 2 3 4\n5 6 7 8", CUT_SHORT),
}
#: Each trap after a header whose count is the number of points read, or 1.
ASCII_FILES = {
    **{name: (header(len(outcome) if isinstance(outcome, list) else 1).encode() + body, outcome)
       for name, (body, outcome) in TRAP_BODIES.items()},
    "headerless": (b"1 2 3 4\n", ":1: expected the header line '# point cloud frame=<id> "
                                 "count=<n>', got '1 2 3 4'"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(("raw", "outcome"), ASCII_FILES.values(), ids=ASCII_FILES.keys())
def test_ascii_cloud_loads_or_is_refused_naming_the_file(tmp_path, raw, outcome):
    """Each file loads its rows, or its error starts with the file's path."""
    path = tmp_path / "cloud.pts"
    path.write_bytes(raw)
    if isinstance(outcome, list):
        assert read_cloud(path).data.tolist() == outcome
    else:
        with pytest.raises(ValueError) as exc:
            read_cloud(path)
        assert str(exc.value) == f"{path}{outcome}"


#: Values that a float32 cloud holds: any float64 that rounds to a finite
#: float32, and the edges of that range.
_F32_EDGES = [0.0, -0.0, F32_TINY, -F32_TINY, 5e-324, 2.0**-126, F32_MAX, -F32_MAX,
              math.nextafter(F32_OVERFLOW, 0), -1e-300, 0.1, 1 / 3, 123456789.12345679]
_coord = st.one_of(
    st.floats(min_value=-F32_OVERFLOW, max_value=F32_OVERFLOW, exclude_min=True, exclude_max=True),
    st.sampled_from(_F32_EDGES),
)
_intensity = st.one_of(
    st.floats(min_value=0.0, max_value=F32_OVERFLOW, exclude_max=True),
    st.sampled_from([0.0, -0.0, F32_TINY, 5e-324, 1e38, 255.0, F32_MAX]),
)
_rows = st.lists(st.tuples(_coord, _coord, _coord, _intensity), min_size=1, max_size=40)
_out_of_range = st.one_of(st.floats(min_value=F32_OVERFLOW, allow_infinity=False),
                          st.sampled_from([F32_OVERFLOW, 1e39]))


@settings(max_examples=200, deadline=None)
@given(_rows, _out_of_range, st.integers(0, 39), st.integers(0, 3), st.booleans())
def test_ascii_read_bit_identical_to_written_cloud(tmp_path_factory, rows, bad, i, j, negate):
    path = tmp_path_factory.mktemp("cloud") / "cloud.pts"
    written = PointCloud(np.array(rows, dtype=np.float64))
    write_cloud_ascii(written, path, "ego")
    assert read_cloud(path).data.tobytes() == written.data.tobytes() == PointCloud(rows).data.tobytes()
    # one value past the float32 range: refused when built and when read
    rows = [list(row) for row in rows]
    rows[i % len(rows)][j] = -bad if negate and j < 3 else bad
    with pytest.raises(ValueError, match=re.escape(OUT_OF_RANGE)):
        PointCloud(rows)
    path.write_text(header(len(rows)) + "".join(" ".join(map(repr, row)) + "\n" for row in rows))
    with pytest.raises(ValueError, match=re.escape(f"{path}: {OUT_OF_RANGE}")):
        read_cloud(path)


@settings(max_examples=100, deadline=None)
@given(_rows)
def test_ascii_and_binary_round_trips_give_the_cloud(tmp_path_factory, rows):
    """Both formats give back a float32-range cloud's own array, byte for byte."""
    cloud = PointCloud(rows)
    directory = tmp_path_factory.mktemp("cloud")
    write_cloud_ascii(cloud, directory / "cloud.pts", "ego")
    write_cloud_binary(cloud, directory / "cloud.pcb")
    assert (read_cloud(directory / "cloud.pts").data.tobytes()
            == read_cloud(directory / "cloud.pcb").data.tobytes() == cloud.data.tobytes())


_f32 = st.one_of(st.floats(width=32, allow_nan=False, allow_infinity=False),
                 st.sampled_from([0.0, -0.0, F32_TINY, -F32_TINY, 2.0**-126 - F32_TINY,
                                  2.0**-126, F32_MAX, -F32_MAX]))


@settings(max_examples=300, deadline=None)
@given(_f32)
def test_nine_digits_identify_every_float32(tmp_path_factory, x):
    """The writer's ``%.9g`` text parses (as float64, then rounded to
    float32) back to the very float32 it was written from."""
    path = tmp_path_factory.mktemp("cloud") / "cloud.pts"
    values = [x, -x, x, abs(x)]
    write_cloud_ascii(PointCloud([values]), path, "ego")
    fields = path.read_text().splitlines()[1].split()
    assert fields == ["%.9g" % v for v in values]
    for field, v in zip(fields, values):
        assert np.float32(float(field)).tobytes() == np.float32(v).tobytes()
    assert read_cloud(path).data.tobytes() == np.array([values]).tobytes()


@pytest.mark.parametrize("template", list(Template), ids=lambda t: t.value)
def test_both_cloud_formats_load_the_generated_scene(tmp_path, template):
    """Results do not depend on the cloud format: either file loads the
    scene ``generate`` built, and the pipeline gives it equal results."""
    scene = generate(ScenarioSpec(template=template, seed=1))
    save_scene(scene, tmp_path / "ascii.json", cloud_format="ascii")
    save_scene(scene, tmp_path / "binary.json", cloud_format="binary")
    ascii_scene = load_scene(tmp_path / "ascii.json")
    binary_scene = load_scene(tmp_path / "binary.json")
    assert ascii_scene == binary_scene == scene
    for config in (PipelineConfig(), PipelineConfig(detector="geometric")):
        result = run_scene(scene, config)
        assert run_scene(ascii_scene, config) == run_scene(binary_scene, config) == result


def test_truncated_ascii_cloud_names_header_count(tmp_path):
    scene = generate(ScenarioSpec(template=Template.EMPTY_ROAD, seed=1))
    path = tmp_path / "cloud.pts"
    write_cloud_ascii(scene.cloud, path, scene.frame_id)
    lines = path.read_text().splitlines(keepends=True)
    n = len(scene.cloud)
    path.write_text("".join(lines[: 1 + n // 2]))
    with pytest.raises(ValueError) as exc:
        read_cloud(path)
    assert str(exc.value) == (f"point cloud {path} has header count {n}, "
                              f"but {n // 2} points were read")


@pytest.mark.parametrize("first", ["# count=5", "# note", " # point cloud frame=x count=3", ""])
def test_ascii_cloud_without_the_writer_header_refused(tmp_path, first):
    path = tmp_path / "cloud.pts"
    path.write_text(f"{first}\n1 2 3 4\n5 6 7 8\n9 10 11 12\n")
    with pytest.raises(ValueError) as exc:
        read_cloud(path)
    assert str(exc.value) == (f"{path}:1: expected the header line '# point cloud frame=<id> "
                              f"count=<n>', got {reprlib.repr(first)}")


def test_ascii_cloud_cut_short_refused(tmp_path):
    """A writer's file without its header line, cut at a line boundary, is
    refused at line 1; one cut inside a value, for its missing newline."""
    cloud = generate(ScenarioSpec(template=Template.EMPTY_ROAD, seed=1)).cloud
    path = tmp_path / "cloud.pts"
    write_cloud_ascii(cloud, path, "ego")
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[1:4]))
    with pytest.raises(ValueError, match=re.escape(f"{path}:1: expected the header line")):
        read_cloud(path)
    path.write_text("".join(lines)[:-3])
    with pytest.raises(ValueError) as exc:
        read_cloud(path)
    assert str(exc.value) == f"{path}{CUT_SHORT}"


def test_json_text_writes_dataclasses_enums_and_arrays():
    payload = {"box": OrientedBox((1.0, 2.0, 0.5), 4.5, 1.9, 1.6, 0.25),
               "intent": Intent.TURN, "ids": np.array([3, 1]), "a": None}
    assert json_text(payload) == (
        '{\n  "a": null,\n  "box": {\n    "center": [\n      1.0,\n      2.0,\n      0.5\n'
        '    ],\n    "height": 1.6,\n    "length": 4.5,\n    "width": 1.9,\n'
        '    "yaw": 0.25\n  },\n  "ids": [\n    3,\n    1\n  ],\n  "intent": "Turn"\n}\n')


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan")])
def test_write_json_refuses_non_finite_numbers(tmp_path, value):
    """JSON has no NaN or Infinity: the writer names the file and writes
    nothing."""
    path = tmp_path / "training.json"
    with pytest.raises(ValueError) as exc:
        write_json({"steps": 2, "final_loss": value}, path)
    assert str(exc.value).startswith(
        f"{path}: Out of range float values are not JSON compliant")
    assert not path.exists()
