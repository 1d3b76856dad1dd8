"""Metric computation, suite evaluation, and report round-trips."""

import dataclasses
import json
import math
import re

import pytest

import drivetrace.evaluate as evaluate
import drivetrace.interaction as interaction
from drivetrace.cli import main
from drivetrace.config import PipelineConfig
from drivetrace.evaluate import (
    ClassMetrics,
    SuiteResult,
    evaluate_suite,
    f1_per_class,
    parse_csv,
    render_csv,
    render_plot_json,
    render_text,
    write_report,
)
from drivetrace.interaction import BgnnModel, InteractionConfig


class TestF1:
    def test_perfect(self):
        m = f1_per_class(["Brake", "SlowDown"], ["Brake", "SlowDown"])
        assert m["Brake"] == ClassMetrics(1.0, 1.0, 1.0)
        assert m["SlowDown"] == ClassMetrics(1.0, 1.0, 1.0)

    def test_all_wrong(self):
        m = f1_per_class(["Brake"] * 4, ["SlowDown"] * 4)
        assert m["SlowDown"].f1 == 0.0
        assert m["Brake"].f1 == 0.0

    def test_hand_computed_confusion(self):
        # TP = 8, FP = 2, FN = 4 for class A
        preds = ["A"] * 8 + ["A"] * 2 + ["B"] * 4
        labels = ["A"] * 8 + ["B"] * 2 + ["A"] * 4
        m = f1_per_class(preds, labels)
        assert m["A"].precision == pytest.approx(0.8)
        assert m["A"].recall == pytest.approx(2.0 / 3.0)
        assert m["A"].f1 == pytest.approx(8.0 / 11.0)  # 0.72727...

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            f1_per_class(["A"], ["A", "B"])


def small_result() -> SuiteResult:
    return SuiteResult(
        speed_metrics={"Brake": ClassMetrics(1.0, 0.95, 2 * 0.95 / 1.95),
                       "SpeedLimit": ClassMetrics(0.9, 1.0, 2 * 0.9 / 1.9)},
        speed_confusion={"Brake": {"Brake": 19, "SpeedLimit": 1},
                         "SpeedLimit": {"SpeedLimit": 18}},
        path_accuracy={"Straight": 1.0, "LaneChange": 0.9},
        mean_iou=0.8123456789012345,
        detection_accuracy=0.97,
        mean_entropy=0.4321,
        mean_deviation_deg=3.7,
        reg_error=None,
        counts={"scenes": 38, "errors": 0, "tier_High": 19, "tier_Moderate": 0,
                "tier_Low": 19, "flagged": 0},
    )


@pytest.mark.parametrize(("change", "message"), [
    ({"path_accuracy": {"Straight": float("nan")}}, "path_accuracy.Straight must lie in [0, 1]"),
    ({"mean_iou": 1.0000000000000002}, "mean_iou must lie in [0, 1]"),
    ({"detection_accuracy": -0.0001}, "detection_accuracy must lie in [0, 1]"),
    ({"counts": {"scenes": -1}}, "counts.scenes must lie in [0, inf]"),
    ({"speed_confusion": {"Brake": {"Stop": 1}}}, "speed_confusion.Brake: key must be one of"),
    ({"speed_metrics": {"A": ClassMetrics(1.0, 1.0, 1.0)}}, "speed_metrics: key must be one of"),
    ({"reg_error": -1e-300}, "reg_error must lie in [0, inf], got -1e-300"),
    ({"speed_confusion": {"Brake": {}}}, "speed_confusion.Brake must not be empty"),
    ({"counts": {"a,b": 1}}, "counts: key must hold no comma or line break, got 'a,b'"),
    ({"counts": {"a\x85": 1}}, "counts: key must hold no comma or line break, got 'a\\x85'"),
    ({"counts": {"\udc80": 1}}, "counts: key must encode as UTF-8, got '\\udc80'"),
    ({"reg_error": math.inf}, "reg_error must be finite, got inf"),
    ({"mean_entropy": math.inf}, "mean_entropy must be finite, got inf"),
    ({"mean_deviation_deg": math.inf}, "mean_deviation_deg must be finite, got inf"),
    ({"counts": {"scenes": math.inf}}, "counts.scenes must be finite, got inf"),
    ({"speed_confusion": {"Brake": {"Brake": math.inf}}},
     "speed_confusion.Brake.Brake must be finite, got inf"),
    ({"mean_iou": math.inf}, "mean_iou must lie in [0, 1], got inf"),
], ids=["nan-fraction", "iou-above-1", "negative-fraction", "negative-count",
        "unknown-predicted-class", "unknown-speed-class", "negative-reg-error",
        "empty-confusion-row", "comma-in-count-name", "line-break-in-count-name",
        "unencodable-count-name", "infinite-reg-error", "infinite-entropy",
        "infinite-deviation", "infinite-count", "infinite-confusion-cell", "infinite-fraction"])
def test_suite_result_checks_its_values(change, message):
    """The checks run on a result built in memory, as ``evaluate`` builds
    it, and not only on one read from a file."""
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        dataclasses.replace(small_result(), **change)


@pytest.mark.parametrize("name", ["precision", "recall", "f1"])
@pytest.mark.parametrize("value", [float("nan"), -0.5, 1.5])
def test_class_metrics_lie_in_unit_interval(name, value):
    with pytest.raises(ValueError, match=f"^{name} must lie in \\[0, 1\\], got {value}$"):
        dataclasses.replace(ClassMetrics(0.5, 0.5, 0.5), **{name: value})


class TestReports:
    def test_csv_round_trip_exact(self):
        result = small_result()
        back = parse_csv(render_csv(result), "report.csv")
        assert back == result

    def test_csv_deterministic(self):
        assert render_csv(small_result()) == render_csv(small_result())

    def test_text_table_order(self):
        text = render_text(small_result())
        # canonical decision order: SpeedLimit before Brake
        assert text.index("SpeedLimit") < text.index("Brake")
        assert "mean IoU" in text and "0.8123" in text

    def test_plot_json(self):
        payload = json.loads(render_plot_json(small_result()))
        assert payload["speed_f1"]["Brake"] == pytest.approx(2 * 0.95 / 1.95)
        assert payload["risk_histogram"] == {"High": 19, "Moderate": 0, "Low": 19}

    def test_empty_result_still_renders(self, tmp_path):
        empty = SuiteResult({}, {}, {}, None, None, None, None, None,
                            {"scenes": 0, "errors": 0})
        paths = write_report(empty, tmp_path)
        assert all(p.exists() for p in paths)
        path = tmp_path / "report.csv"
        assert parse_csv(path.read_text(), path) == empty


@pytest.fixture(scope="module")
def suite_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite")
    code = main(["generate", "--template", "empty-road,pedestrian-crossing",
                 "--count", "3", "--seed", "0", "--out", str(out)])
    assert code == 0
    return out


class TestEvaluateSuite:
    def test_hazard_free_suite_perfect(self, suite_dir, tmp_path):
        manifest = json.loads((suite_dir / "manifest.json").read_text())
        only_empty = {"scenes": [e for e in manifest["scenes"]
                                 if e["template"] == "empty-road"]}
        path = tmp_path / "manifest.json"
        # scene paths are relative to the manifest location
        path.write_text(json.dumps(
            {"scenes": [{**e, "path": str(suite_dir / e["path"])} for e in
                        only_empty["scenes"]]}))
        result, records = evaluate_suite(path, PipelineConfig())
        assert result.speed_metrics["SpeedLimit"].f1 == 1.0
        assert result.path_accuracy["Straight"] == 1.0
        assert result.counts["errors"] == 0
        assert all(r.error is None for r in records)

    def test_detection_metrics_perfect_oracle(self, suite_dir):
        result, _ = evaluate_suite(suite_dir / "manifest.json", PipelineConfig())
        # noiseless oracle: every box matches its ground truth exactly
        assert result.mean_iou == pytest.approx(1.0, abs=1e-9)
        assert result.detection_accuracy == 1.0
        assert result.reg_error == pytest.approx(0.0, abs=1e-12)
        assert result.speed_metrics["Brake"].f1 == 1.0

    def test_order_invariance(self, suite_dir, tmp_path):
        manifest = json.loads((suite_dir / "manifest.json").read_text())
        fwd = tmp_path / "fwd.json"
        rev = tmp_path / "rev.json"
        entries = [{**e, "path": str(suite_dir / e["path"])} for e in manifest["scenes"]]
        fwd.write_text(json.dumps({"scenes": entries}))
        rev.write_text(json.dumps({"scenes": entries[::-1]}))
        ra, _ = evaluate_suite(fwd, PipelineConfig())
        rb, _ = evaluate_suite(rev, PipelineConfig())
        assert ra == rb

    def test_unreadable_scene_reported(self, suite_dir, tmp_path):
        manifest = {"scenes": [
            {"path": str(suite_dir / "scene_empty-road_0000.json"), "template": "empty-road"},
            {"path": str(tmp_path / "missing.json"), "template": "empty-road"},
        ]}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        result, records = evaluate_suite(path, PipelineConfig())
        assert result.counts["errors"] == 1
        assert result.counts["scenes"] == 2
        errs = [r for r in records if r.error is not None]
        assert len(errs) == 1 and "missing" in errs[0].path


class TestModelDraws:
    def test_weights_drawn_once_per_model_and_seed(self, suite_dir, monkeypatch):
        """A suite run with a model draws its ``mc_samples`` weight streams
        once per (model, seed), not once per scene."""
        streams = []
        draw = interaction._draw_weights

        def spy(params, seed, mc_samples):
            streams.extend((id(params), seed, s) for s in range(mc_samples))
            return draw(params, seed, mc_samples)

        monkeypatch.setattr(interaction, "_draw_weights", spy)
        cfg = InteractionConfig(layers=1, embed_dim=8, mc_samples=3)
        model, other = BgnnModel.initialize(cfg, seed=0), BgnnModel.initialize(cfg, seed=1)
        _, records = evaluate_suite(suite_dir / "manifest.json", PipelineConfig(seed=4), model)
        assert sum(1 for r in records if r.n_detections) >= 2
        expected = [(id(model.params), 4, s) for s in range(3)]
        assert streams == expected
        evaluate_suite(suite_dir / "manifest.json", PipelineConfig(seed=4), model)
        assert streams == expected
        evaluate_suite(suite_dir / "manifest.json", PipelineConfig(seed=9), model)
        evaluate_suite(suite_dir / "manifest.json", PipelineConfig(seed=9), other)
        assert streams == expected + [(id(model.params), 9, s) for s in range(3)] + [
            (id(other.params), 9, s) for s in range(3)]


class TestManifest:
    @pytest.mark.parametrize(("entry", "reason"), [
        ({"path": "a.json"}, "scenes[1]: missing key 'template'"),
        ({"template": "empty-road"}, "scenes[1]: missing key 'path'"),
        ({"path": "a.json", "template": "no-such"},
         "scenes[1].template must be one of ['empty-road', 'lead-vehicle', "
         "'pedestrian-crossing', 'occluded-junction', 'dense-traffic', "
         "'static-vehicle-ahead'], got 'no-such'"),
        ("a.json", "scenes[1] must be an object, got 'a.json'"),
        ({"path": 3, "template": "empty-road"}, "scenes[1].path must be a string, got 3"),
        ({"path": None, "template": "empty-road"},
         "scenes[1].path must be a string, got None"),
    ], ids=["no-template", "no-path", "unknown-template", "not-object", "int-path",
            "null-path"])
    def test_bad_entry_names_manifest_and_entry(self, suite_dir, tmp_path, monkeypatch,
                                                 capsys, entry, reason):
        loaded = []
        monkeypatch.setattr(evaluate, "load_scene", loaded.append)
        good = {"path": str(suite_dir / "scene_empty-road_0000.json"),
                "template": "empty-road"}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"scenes": [good, entry]}))
        with pytest.raises(ValueError) as exc:
            evaluate_suite(path, PipelineConfig())
        assert str(exc.value) == f"{path}: {reason}"
        assert main(["evaluate", "--manifest", str(path),
                     "--out", str(tmp_path / "out")]) == 1
        assert f"error: ValueError: {path}: {reason}\n" in capsys.readouterr().err
        # the manifest is checked before any scene is read
        assert loaded == []

    @pytest.mark.parametrize(("text", "reason"), [
        ('{"scenes": [', "Expecting value: line 1 column 13 (char 12)"),
        ('[]', "top level must be an object, got []"),
        ('{}', "missing key 'scenes'"),
        ('{"scenes": 3}', "scenes must be a list, got 3"),
    ], ids=["json-syntax", "not-object", "no-scenes", "scenes-not-list"])
    def test_bad_manifest_names_manifest(self, tmp_path, capsys, text, reason):
        path = tmp_path / "manifest.json"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            evaluate_suite(path, PipelineConfig())
        assert str(exc.value) == f"{path}: {reason}"
        assert main(["evaluate", "--manifest", str(path),
                     "--out", str(tmp_path / "out")]) == 1
        assert f"error: ValueError: {path}: {reason}" in capsys.readouterr().err
