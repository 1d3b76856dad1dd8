"""The JSON keys of every CLI artifact.

Each artifact's JSON holds the fields of the record it writes, so renaming
a dataclass field renames a key.  The key sets below pin them: a rename
that reaches a file fails here and has to be declared as a format change.
"""

import json

import pytest

from drivetrace.cli import main
from drivetrace.interaction import BgnnModel, InteractionConfig, save_model

BOX = {"center", "length", "width", "height", "yaw"}
SCENE = {"timestamp", "ego", "objects", "ground_truth", "cloud_file", "frame_id"}
EGO = {"position", "heading", "speed", "lane_heading", "intent"}
GROUND_TRUTH = {"box", "class", "velocity"}
MANIFEST_ENTRY = {"path", "template", "seed"}
CONFIG = {
    "cluster": {"ground_z_max", "min_points", "neighbor_radius"},
    "noise": {"class_temperature", "dim_std", "dropout_prob", "pos_std", "yaw_std"},
    "uncertainty": {"threshold", "w_deviation", "w_entropy"},
    "risk": {"decay_length", "tier_high", "tier_moderate"},
    "interaction": {"edge_radius", "embed_dim", "layers", "mc_samples", "prior_std",
                    "w_distance", "w_intensity", "w_speed"},
    "reasoner": {"brake_level", "corridor_length", "corridor_width", "epistemic_threshold",
                 "follow_gap", "occlusion_density_ratio", "occlusion_sectors", "slow_level",
                 "static_speed"},
    "detector": None,
    "seed": None,
}
DETECTION = {"id", "box", "velocity", "class_probs", "support_points"}
ASSESSMENT = {"object_id", "entropy", "deviation", "uncertainty", "min_distance", "risk",
              "tier", "tier_color", "flagged"}
GRAPH = {"nodes", "edges", "refined"}
EDGE = {"src", "dst", "distance", "speed_diff", "intensity", "energy", "attention"}
REFINED = {"object_id", "refined_class_probs", "refined_uncertainty", "epistemic_std",
           "interaction_label"}
TRACE = {"steps", "speed", "path", "explanation"}
STEP = {"index", "rule_id", "passed", "evidence", "conclusion"}
RESULT = {"speed_metrics", "speed_confusion", "path_accuracy", "mean_iou",
          "detection_accuracy", "mean_entropy", "mean_deviation_deg", "reg_error", "counts"}
CLASS_METRICS = {"precision", "recall", "f1"}
SCENE_RECORD = {"path", "template", "expected_speed", "predicted_speed", "expected_path",
                "predicted_path", "error"}
PLOT = {"speed_f1", "path_accuracy", "risk_histogram", "flagged"}
TRAINING = {"steps", "final_loss", "final_cross_entropy", "final_kl", "accuracy"}

SCENE_NAME = "scene_pedestrian-crossing_0001.json"


def run(*argv) -> None:
    assert main([str(a) for a in argv]) == 0


def load(path):
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    """A two-template suite, the five scene commands on one of its scenes
    with and without a model, its evaluation, and a short training run."""
    base = tmp_path_factory.mktemp("artifacts")
    suite = base / "suite"
    run("generate", "--template", "pedestrian-crossing,lead-vehicle", "--seed", 1,
        "--out", suite)
    model = base / "model.bin"
    save_model(BgnnModel.initialize(InteractionConfig(), seed=0), model)
    for command in ("detect", "assess", "graph", "reason", "trace"):
        run(command, "--scene", suite / SCENE_NAME, "--out", base / "rule")
        run(command, "--scene", suite / SCENE_NAME, "--model", model, "--out", base / "model")
    run("evaluate", "--manifest", suite / "manifest.json", "--out", base / "eval")
    small = base / "small.json"
    small.write_text(json.dumps({"interaction": {"embed_dim": 8}}))
    run("train-bgnn", "--steps", 1, "--samples", 2, "--config", small, "--out", base / "train")
    return base


def test_generate_keys(out):
    scene = load(out / "suite" / SCENE_NAME)
    assert set(scene) == SCENE
    assert set(scene["ego"]) == EGO
    assert scene["ground_truth"]
    for row in scene["ground_truth"]:
        assert set(row) == GROUND_TRUTH
        assert set(row["box"]) == BOX
    for entry in load(out / "suite" / "manifest.json")["scenes"]:
        assert set(entry) == MANIFEST_ENTRY
    config = load(out / "suite" / "config.json")
    assert {k: set(v) if isinstance(v, dict) else None for k, v in config.items()} == CONFIG


@pytest.mark.parametrize("variant", ["rule", "model"])
def test_scene_command_keys(out, variant):
    out = out / variant
    detections = load(out / "detections.json")
    assert detections
    for row in detections:
        assert set(row) == DETECTION
        assert set(row["box"]) == BOX
    assessments = load(out / "assessments.json")
    assert len(assessments) == len(detections)
    for row in assessments:
        assert set(row) == ASSESSMENT
    graph = load(out / "graph.json")
    assert set(graph) == GRAPH
    assert graph["nodes"] == [d["id"] for d in detections] + [-1]
    assert graph["edges"]
    for row in graph["edges"]:
        assert set(row) == EDGE
    assert len(graph["refined"]) == len(detections)
    for row in graph["refined"]:
        assert set(row) == REFINED
    trace = load(out / "trace.json")
    assert set(trace) == TRACE
    for step in trace["steps"]:
        assert set(step) == STEP
    assert (out / "trace.txt").read_text().startswith(" 1. ")


def test_evaluate_keys(out):
    result = load(out / "eval" / "result.json")
    assert set(result) == RESULT
    assert result["speed_metrics"]
    for metrics in result["speed_metrics"].values():
        assert set(metrics) == CLASS_METRICS
    scenes = load(out / "eval" / "scenes.json")
    assert len(scenes) == 2
    for row in scenes:
        assert set(row) == SCENE_RECORD
    assert set(load(out / "eval" / "report_plot.json")) == PLOT


def test_train_bgnn_keys(out):
    assert set(load(out / "train" / "training.json")) == TRAINING
