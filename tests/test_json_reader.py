"""The one JSON reader, ``scene_io.from_json``, under Hypothesis: written
configs and scenes read back equal, a one-field mutation of either file
loads what the file says or is refused naming the file and the field, and
every truncated cloud or model file is refused naming the file."""

import copy
import dataclasses
import json
import math
import sys
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drivetrace.config import PipelineConfig, load_config
from drivetrace.interaction import BgnnModel, InteractionConfig, load_model, save_model
from drivetrace.scene import (
    EgoState,
    GroundTruthObject,
    Intent,
    ObjectClass,
    OrientedBox,
    PointCloud,
    Scene,
)
from drivetrace.scene_io import (
    from_json,
    json_text,
    load_scene,
    read_cloud,
    save_scene,
    scene_to_dict,
    write_cloud_ascii,
    write_cloud_binary,
)

#: each config section's name and class
SECTIONS = {f.name: f.default_factory for f in dataclasses.fields(PipelineConfig)
            if f.default_factory is not dataclasses.MISSING}


@st.composite
def configs(draw) -> PipelineConfig:
    """A valid config: some section fields moved off their defaults, a
    float field perhaps given as an integer; a section whose changes break
    its invariants keeps its defaults."""
    sections = {}
    for name, cls in SECTIONS.items():
        changes = {}
        for f in dataclasses.fields(cls):
            default = getattr(cls(), f.name)
            if not draw(st.booleans()):
                continue
            if isinstance(default, int):
                changes[f.name] = draw(st.integers(1, 2 * default + 2))
            else:
                value = default * draw(st.floats(0.5, 2.0)) if default else draw(
                    st.floats(0.0, 1.0))
                changes[f.name] = draw(st.sampled_from([value, round(value)]))
        try:
            sections[name] = cls(**changes)
        except ValueError:
            sections[name] = cls()
    detector = draw(st.sampled_from(["oracle", "geometric"]))
    return PipelineConfig(**sections, detector=detector, seed=draw(st.integers(0, 2 ** 64)))


_finite = st.floats(-1e6, 1e6, allow_nan=False)
_vector = st.tuples(_finite, _finite, _finite)
_box = st.builds(OrientedBox, _vector, *[st.floats(0.01, 50.0)] * 3, _finite)
#: the characters at which ``str.splitlines`` splits
LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
# any character UTF-8 can encode, line breaks included
_frame_id = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)


def _splits(frame_id: str) -> bool:
    return any(c in LINE_BREAKS for c in frame_id)


@st.composite
def scene_fields(draw) -> dict:
    """The fields of a scene, its frame id any string."""
    truths = draw(st.none() | st.lists(
        st.builds(GroundTruthObject, _box, st.sampled_from(ObjectClass), _vector),
        max_size=4, unique_by=lambda g: (g.box.center, g.box.length, g.box.width,
                                         g.box.height, g.box.yaw)))
    ego = st.builds(EgoState, _finite, st.floats(0.0, 50.0), _finite, st.sampled_from(Intent))
    cloud = st.lists(st.tuples(_finite, _finite, _finite, st.floats(0.0, 255.0)), max_size=5)
    return dict(timestamp=draw(st.floats(0.0, 1e9)), ego=draw(ego),
                cloud=PointCloud(np.array(draw(cloud))),
                ground_truth=None if truths is None else tuple(truths),
                frame_id=draw(_frame_id))


def scenes():
    """A valid scene: its frame id holds no line break."""
    return scene_fields().filter(lambda f: not _splits(f["frame_id"])).map(lambda f: Scene(**f))


@settings(max_examples=60, deadline=None)
@given(configs())
def test_config_round_trip(config):
    assert from_json(PipelineConfig, json.loads(json_text(config)), "config.json") == config


@settings(max_examples=60, deadline=None)
@given(scene_fields())
def test_scene_round_trip(tmp_path_factory, fields):
    """A scene reads back equal, but one whose frame id holds a line break,
    which would split the ASCII cloud's header line, is refused when built."""
    if _splits(fields["frame_id"]):
        with pytest.raises(ValueError, match=r"^Scene\.frame_id must hold no line break"):
            Scene(**fields)
        return
    scene = Scene(**fields)
    path = tmp_path_factory.mktemp("scene") / "scene.json"
    save_scene(scene, path)
    assert load_scene(path) == scene


def test_frame_id_with_a_line_break_is_refused():
    """Each character at which ``str.splitlines`` splits, at either end or
    inside; the round trip draws such a frame id in about 2 % of scenes."""
    for c in LINE_BREAKS:
        for frame_id in (c, f"a{c}", f"{c}b", f"a{c}b"):
            with pytest.raises(ValueError, match=r"^Scene\.frame_id must hold no line break"):
                Scene(0.0, EgoState(), PointCloud(), frame_id=frame_id)


def _dotted(path: tuple) -> str:
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path).lstrip(".")


def _places(doc, path=()):
    """The path of every value in the JSON document ``doc``, itself included."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(
        doc, list) else ()
    for key, value in items:
        yield from _places(value, (*path, key))


#: the values a mutation puts in a field's place: of another JSON type, not
#: finite, too large for a float, or a boolean
WRONG_VALUES = {"string": "x", "list": [], "object": {}, "null": None, "nan": math.nan,
                "inf": math.inf, "-inf": -math.inf, "huge": 10 ** 400, "bool": True}
MUTATIONS = [*WRONG_VALUES, "delete", "unknown-key"]


def _mutate(doc, path: tuple, mutation: str):
    """``doc`` with one mutation at ``path``, the path it names and the value
    it replaces; None where the mutation does not apply there."""
    doc = copy.deepcopy(doc)
    *parents, last = path or (None,)
    container = doc
    for key in parents:
        container = container[key]
    if mutation == "unknown-key":
        target = container[last] if path else doc
        if not isinstance(target, dict):
            return None
        target["zz_unknown"] = 1
        return doc, (*path, "zz_unknown"), None
    if not path or mutation == "delete" and not isinstance(container, dict):
        return None
    original = container[last]
    if mutation == "delete":
        del container[last]
    else:
        container[last] = WRONG_VALUES[mutation]
    return doc, path, original


def _kept(given, written) -> bool:
    """Whether the JSON ``written`` holds every value of ``given``; a key
    ``given`` lacks or gives as null may hold anything, as a default fills
    it (``interaction.w_distance``)."""
    if given is None:
        return True
    if isinstance(given, dict):
        return isinstance(written, dict) and all(
            k in written and _kept(v, written[k]) for k, v in given.items())
    if isinstance(given, list):
        return (isinstance(written, list) and len(given) == len(written)
                and all(map(_kept, given, written)))
    return given == written and (type(given) is bool) == (type(written) is bool)


def _check_refusal(message: str, file, path: tuple) -> None:
    """The message names the file, then the mutated field or an object
    holding it, or at the top level, the missing or unknown key."""
    assert message.startswith(f"{file}: "), message
    rest = message[len(f"{file}: "):]
    places = [_dotted(path[:n]) for n in range(len(path), 0, -1)]
    assert (rest.startswith(tuple(f"{p}{sep}" for p in places for sep in (" must be", ": ")))
            or rest in (f"missing key {path[-1]!r}", f"unknown key {path[-1]!r}")), message


def _mutations(doc):
    for path in _places(doc):
        for mutation in MUTATIONS:
            mutated = _mutate(doc, path, mutation)
            if mutated is not None:
                yield mutation, *mutated


def _same_kind(value, original) -> bool:
    """Whether ``value`` is a JSON value of the kind ``original`` is: where
    that is a float, a number that fits a float; else of the same type."""
    if type(original) is float:
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    return type(value) is type(original)


def _config_may_load(mutation: str, place: tuple, original) -> bool:
    """Whether a config may load after the mutation: a value of the field's
    kind, a deleted key (which takes its default) and a null
    ``w_distance``."""
    return (mutation == "delete" or _same_kind(WRONG_VALUES.get(mutation), original)
            or mutation == "null" and place == ("interaction", "w_distance"))


def _scene_may_load(mutation: str, place: tuple, original) -> bool:
    """Whether a scene may load after the mutation: a value of the field's
    kind, a deleted key that has a default and a ``ground_truth`` that is
    null or a list."""
    return (mutation == "delete" and place in {("frame_id",), ("objects",), ("ground_truth",),
                                               ("ego", "position")}
            or _same_kind(WRONG_VALUES.get(mutation), original)
            or mutation in ("null", "list") and place == ("ground_truth",))


def _check_config(path, mutation: str, mutated, place: tuple, original) -> None:
    """``load_config`` of the mutated document loads what it says, if it
    may, or refuses it, naming the file and the field."""
    path.write_text(json.dumps(mutated))
    try:
        loaded = load_config(path)
    except ValueError as exc:
        _check_refusal(str(exc), path, place)
    else:
        assert _config_may_load(mutation, place, original), (mutation, place)
        assert _kept(mutated, json.loads(json_text(loaded))), (mutation, place)


def _check_scene(path, mutation: str, mutated, place: tuple, original) -> None:
    """``load_scene`` of the mutated document loads what it says, if it
    may, or refuses it, naming the file and the field."""
    path.write_text(json.dumps(mutated))
    try:
        loaded = load_scene(path)
    except FileNotFoundError as exc:  # a cloud_file naming no file
        assert (mutation, place, exc.filename) == ("string", ("cloud_file",),
                                                   str(path.parent / "x"))
    except ValueError as exc:
        _check_refusal(str(exc), path, place)
    else:
        assert _scene_may_load(mutation, place, original), (mutation, place)
        written = json.loads(json_text(scene_to_dict(loaded, mutated["cloud_file"])))
        assert _kept(mutated, written), (mutation, place)


def _config_mutations(config):
    return list(_mutations(json.loads(json_text(config))))


def _scene_mutations(scene, path):
    """The mutations of ``scene`` as saved at ``path``."""
    save_scene(scene, path)
    return list(_mutations(json.loads(path.read_text())))


def test_every_config_mutation(tmp_path):
    """Every mutation of every field of a config off its defaults."""
    config = PipelineConfig(interaction=InteractionConfig(w_distance=0.2, layers=2),
                            risk=dataclasses.replace(SECTIONS["risk"](), decay_length=15),
                            detector="geometric", seed=3)
    for mutation in _config_mutations(config):
        _check_config(tmp_path / "config.json", *mutation)


def test_every_scene_mutation(tmp_path):
    """Every mutation of every field of a scene with two truths."""
    box = OrientedBox((10.0, 0.5, 0.8), 4.5, 1.9, 1.6, 0.1)
    truths = (GroundTruthObject(box, ObjectClass.VEHICLE, (5.0, 0.0, 0.0)),
              GroundTruthObject(dataclasses.replace(box, center=(3.0, -4.0, 0.9)),
                                ObjectClass.PEDESTRIAN, (0.0, 1.2, 0.0)))
    scene = Scene(2.5, EgoState(0.2, 8.0, 0.1, Intent.TURN), PointCloud([[1.0, 2.0, 3.0, 4.0]]),
                  truths, "f")
    path = tmp_path / "scene.json"
    for mutation in _scene_mutations(scene, path):
        _check_scene(path, *mutation)


@settings(max_examples=100, deadline=None)
@given(configs(), st.data())
def test_config_mutation(tmp_path_factory, config, data):
    mutation = data.draw(st.sampled_from(_config_mutations(config)))
    _check_config(tmp_path_factory.mktemp("config") / "config.json", *mutation)


@settings(max_examples=100, deadline=None)
@given(scenes(), st.data())
def test_scene_mutation(tmp_path_factory, scene, data):
    path = tmp_path_factory.mktemp("scene") / "scene.json"
    _check_scene(path, *data.draw(st.sampled_from(_scene_mutations(scene, path))))


@pytest.mark.parametrize(("tp", "value", "message"), [
    (Optional[float], "0.1", "f: x must be a number or null, got '0.1'"),
    (tuple[float, ...], [1, 2.5, True], "f: x[2] must be a number, got True"),
    (tuple[float, float], [1.0], "f: x must be a list of length 2, got [1.0]"),
    (dict[str, int], {"a": 1, "b": 2.0}, "f: x.b must be an integer, got 2.0"),
    (Intent, "Left", "f: x must be one of ['Straight', 'Turn', 'LaneChange'], got 'Left'"),
    (str, ["x" * 100, 1, 2, 3, 4, 5, 6],
     "f: x must be a string, got ['xxxxxxxxxxxx...xxxxxxxxxxxxx', 1, 2, 3, 4, 5, ...]"),
    (bool, 1, "f: x must be a boolean, got 1"),
    (OrientedBox, [], "f: x must be an object, got []"),
], ids=["optional", "list-item", "list-length", "dict-item", "enum", "long-value", "bool",
        "object"])
def test_refusal_names_kind_and_place(tp, value, message):
    with pytest.raises(ValueError) as exc:
        from_json(tp, value, "f", "x")
    assert str(exc.value) == message


def test_values_kept_as_given():
    assert from_json(dict[str, Optional[float]], {"a": 2, "b": None}, "f") == {"a": 2, "b": None}
    assert type(from_json(float, 3, "f")) is int
    assert from_json(tuple[int, ...], [], "f") == ()
    assert from_json(bool, False, "f") is False


def test_every_prefix_of_a_binary_cloud_is_refused(tmp_path):
    path = tmp_path / "cloud.pcb"
    write_cloud_binary(PointCloud([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]]), path)
    raw = path.read_bytes()
    assert len(read_cloud(path)) == 2
    for n in range(len(raw)):
        path.write_bytes(raw[:n])
        with pytest.raises(ValueError) as exc:
            read_cloud(path)
        assert str(path) in str(exc.value), n


def test_every_prefix_of_an_ascii_cloud_is_refused(tmp_path):
    """A cut inside the last value (``8.125`` to ``8.1``) leaves a cloud of
    the header's count; only the missing final newline shows it."""
    path = tmp_path / "cloud.pts"
    cloud = PointCloud([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.125]])
    write_cloud_ascii(cloud, path, "f")
    raw = path.read_bytes()
    assert read_cloud(path) == cloud
    for n in range(len(raw)):
        path.write_bytes(raw[:n])
        with pytest.raises(ValueError) as exc:
            read_cloud(path)
        assert str(path) in str(exc.value), n


def test_every_prefix_of_a_model_is_refused(tmp_path):
    cfg = InteractionConfig(layers=1, embed_dim=2)
    path = tmp_path / "model.bin"
    save_model(BgnnModel.initialize(cfg), path)
    raw = path.read_bytes()
    assert len(load_model(path, cfg).params) == 3
    for n in range(len(raw)):
        path.write_bytes(raw[:n])
        with pytest.raises(ValueError) as exc:
            load_model(path, cfg)
        assert str(exc.value).startswith(f"{path}: "), n
