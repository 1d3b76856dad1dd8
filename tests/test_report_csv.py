"""``report.csv`` read back through ``scene_io.from_json``: a written result
reads back equal, a one-row mutation is refused naming the file and the
field, and an evaluated suite's ``result.json``, ``report.csv`` and
in-memory result hold one value."""

import json

import pytest
from hypothesis import given, reject, settings, strategies as st

from drivetrace.cli import main
from drivetrace.config import load_config
from drivetrace.evaluate import (
    PATH_ORDER,
    SPEED_ORDER,
    ClassMetrics,
    SuiteResult,
    evaluate_suite,
    parse_csv,
    render_csv,
)
from drivetrace.scenario import Template
from drivetrace.scene_io import from_json, read_json

_unit = st.floats(0.0, 1.0)
_non_negative = st.none() | st.floats(min_value=0.0)
_count = st.integers(0, 10 ** 12)
_speed = st.sampled_from(SPEED_ORDER)


def _accepted(**fields):
    """The result of ``fields``, or a rejected example where SuiteResult
    refuses them."""
    try:
        return SuiteResult(**fields)
    except ValueError:
        reject()


#: any valid result
results = st.builds(
    _accepted,
    speed_metrics=st.dictionaries(_speed, st.builds(ClassMetrics, _unit, _unit, _unit)),
    speed_confusion=st.dictionaries(_speed, st.dictionaries(_speed, _count)),
    path_accuracy=st.dictionaries(st.sampled_from(PATH_ORDER), _unit),
    mean_iou=st.none() | _unit, detection_accuracy=st.none() | _unit,
    mean_entropy=_non_negative, mean_deviation_deg=_non_negative, reg_error=_non_negative,
    counts=st.dictionaries(st.text(max_size=8), _count))


@settings(max_examples=100, deadline=None)
@given(results)
def test_csv_round_trip(result):
    """``parse_csv`` inverts ``render_csv``, and each value keeps its type,
    so the CSV re-renders byte for byte."""
    text = render_csv(result)
    back = parse_csv(text, "report.csv")
    assert back == result
    assert render_csv(back) == text


def test_integer_values_of_float_fields_read_as_floats():
    """A value ``int`` reads is an int, as in JSON; a float field holds it
    as a float, so the CSV re-renders as ``evaluate`` writes it."""
    text = ("section,key,value\nspeed_precision,Brake,1\nspeed_recall,Brake,0\n"
            "speed_f1,Brake,0\npath_accuracy,Straight,1\nscalar,mean_iou,1\n"
            "scalar,reg_error,3\ncount,scenes,2\n")
    result = parse_csv(text, "report.csv")
    assert render_csv(result) == ("section,key,value\nspeed_precision,Brake,1.0\n"
                                  "speed_recall,Brake,0.0\nspeed_f1,Brake,0.0\n"
                                  "path_accuracy,Straight,1.0\nscalar,mean_iou,1.0\n"
                                  "scalar,detection_accuracy,\nscalar,mean_entropy,\n"
                                  "scalar,mean_deviation_deg,\nscalar,reg_error,3.0\n"
                                  "count,scenes,2\n")


#: a result with a row in every section and every scalar given
FULL = SuiteResult(
    speed_metrics={"Brake": ClassMetrics(1.0, 0.5, 2 / 3),
                   "SpeedLimit": ClassMetrics(0.5, 1.0, 2 / 3)},
    speed_confusion={"Brake": {"Brake": 1, "SpeedLimit": 1}, "SpeedLimit": {"SpeedLimit": 2}},
    path_accuracy={"Straight": 1.0, "LaneChange": 0.5},
    mean_iou=0.75, detection_accuracy=0.9, mean_entropy=0.25, mean_deviation_deg=3.5,
    reg_error=0.125, counts={"scenes": 4, "errors": 0, "flagged": 1})

_SPEED_FIELDS = {"speed_precision": "precision", "speed_recall": "recall", "speed_f1": "f1"}
_FRACTIONS = {*_SPEED_FIELDS, "path_accuracy", "mean_iou", "detection_accuracy"}


def _field(section: str, key: str) -> tuple:
    """Where ``result.json`` holds the value of the row ``section,key``."""
    if section in _SPEED_FIELDS:
        return "speed_metrics", key, _SPEED_FIELDS[section]
    if section == "speed_confusion":
        return "speed_confusion", *key.split("|")
    return {"path_accuracy": ("path_accuracy", key), "scalar": (key,),
            "count": ("counts", key)}[section]


def _mutations(section: str, key: str):
    """(name, key, value) of each one-row mutation that makes the row's
    value out of range, not finite, an integer field's float, or a class
    outside the vocabulary."""
    fraction = section in _FRACTIONS or key in _FRACTIONS
    integer = section in ("count", "speed_confusion")
    for value in ("-0.5", "1.5") if fraction else ("-1",) if integer else ("-0.5",):
        yield "out-of-range", key, value
    for value in ("nan", "inf", "-inf"):
        yield "non-finite", key, value
    for value in ("2.5", "1.0", "1e3") if integer else ():
        yield "wrong-number-type", key, value
    if section == "speed_confusion":
        exp, pred = key.split("|")
        yield "unknown-class", f"Bogus|{pred}", "1"
        yield "unknown-class", f"{exp}|Bogus", "1"
    elif section != "count":
        yield "unknown-class", "Bogus", "0.5"


def _names_field(rest: str, places: list[tuple]) -> bool:
    """Whether ``rest`` starts by naming one of ``places`` or an object
    holding it, or is the unknown or missing key at the top level."""
    prefixes = {".".join(p[:n]) for p in places for n in range(1, len(p) + 1)}
    return (any(rest.startswith((f"{p} must", f"{p}: ")) for p in prefixes)
            or any(rest == f"unknown key {p[-1]!r}" for p in places if len(p) == 1))


def test_one_row_mutation_is_refused_naming_file_and_field(tmp_path):
    lines = render_csv(FULL).splitlines()
    path = tmp_path / "report.csv"
    tried = set()
    for n, line in enumerate(lines[1:], 1):
        section, key, _ = line.split(",")
        for mutation, new_key, value in _mutations(section, key):
            tried.add(mutation)
            mutated = [*lines[:n], f"{section},{new_key},{value}", *lines[n + 1:]]
            with pytest.raises(ValueError) as exc:
                parse_csv("\n".join(mutated) + "\n", path)
            message = str(exc.value)
            assert message.startswith(f"{path}: "), message
            places = [_field(section, key), _field(section, new_key)]
            assert _names_field(message[len(f"{path}: "):], places), (line, message)
    assert tried == {"out-of-range", "non-finite", "wrong-number-type", "unknown-class"}


@pytest.fixture(scope="module")
def suites(tmp_path_factory):
    """A binary suite of one scene per template, and two empty-road scenes."""
    base = tmp_path_factory.mktemp("suites")
    assert main(["generate", "--template", ",".join(t.value for t in Template), "--seed", "1",
                 "--cloud-format", "binary", "--out", str(base / "all")]) == 0
    assert main(["generate", "--template", "empty-road", "--count", "2",
                 "--out", str(base / "empty-road")]) == 0
    return base


@pytest.mark.parametrize(("suite", "config"), [
    ("all", {}), ("all", {"detector": "geometric"}), ("empty-road", {}),
], ids=["oracle", "geometric", "empty-road"])
def test_result_json_and_report_csv_hold_one_value(suites, tmp_path, suite, config):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    manifest, out = suites / suite / "manifest.json", tmp_path / "eval"
    assert main(["evaluate", "--manifest", str(manifest), "--config", str(config_path),
                 "--out", str(out)]) == 0
    result, _ = evaluate_suite(manifest, load_config(config_path))
    from_result_json = from_json(SuiteResult, read_json(out / "result.json"),
                                 out / "result.json")
    from_report_csv = parse_csv((out / "report.csv").read_text(), out / "report.csv")
    assert from_result_json == from_report_csv == result
    assert render_csv(from_result_json) == render_csv(from_report_csv) == render_csv(result)
    scalars = (result.mean_iou, result.detection_accuracy, result.mean_entropy,
               result.mean_deviation_deg, result.reg_error)
    assert (scalars == (None,) * 5) == (suite == "empty-road")
