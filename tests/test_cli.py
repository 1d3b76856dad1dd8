"""CLI behavior: determinism, artifacts, exit codes, config handling."""

import json
import math
import re
import os
import subprocess
import sys
import warnings
from dataclasses import MISSING, asdict, fields, replace

import numpy as np
import pytest

import drivetrace
from drivetrace.cli import main
from drivetrace.config import PipelineConfig, load_config, save_config
from drivetrace.detector import DETECTORS
from drivetrace.interaction import (
    MAX_LOG_STD,
    BgnnModel,
    InteractionConfig,
    load_model,
    save_model,
)
from drivetrace.pipeline import run_scene
from drivetrace.reasoner import SpeedDecision
from drivetrace.scene_io import from_json, load_scene
from interaction_oracle import scalar_build_graph


#: each config section's name and class
SECTIONS = {f.name: f.default_factory for f in fields(PipelineConfig)
            if f.default_factory is not MISSING}

#: (section, key) of every float config field
FLOAT_FIELDS = [(section, f.name) for section, cls in SECTIONS.items()
                for f in fields(cls) if f.type in (float, "float")]


def run(*argv) -> int:
    return main(list(argv))


def run_without_runtime_warnings(*argv) -> int:
    """``run(*argv)``, asserting that numpy warned of no overflow or
    invalid value on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run(*argv)
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    return rc


@pytest.fixture()
def ped_scene(tmp_path):
    out = tmp_path / "gen"
    assert run("generate", "--template", "pedestrian-crossing", "--count", "1",
               "--seed", "3", "--out", str(out)) == 0
    return out / "scene_pedestrian-crossing_0003.json"


@pytest.fixture()
def lead_scene(tmp_path):
    out = tmp_path / "gen"
    assert run("generate", "--template", "lead-vehicle", "--count", "1",
               "--seed", "1", "--out", str(out)) == 0
    return out / "scene_lead-vehicle_0001.json"


#: edits of a scene's JSON that give a value the wrong type
#: An edit of a scene file giving one value the wrong JSON type, and the
#: field the error names.
WRONG_TYPES = {
    "ego-int": (lambda d: d.update(ego=5), "ego"),
    "object-int": (lambda d: d.update(objects=[5]), "objects"),
    "ground-truth-int": (lambda d: d.update(ground_truth=[5]), "ground_truth[0]"),
    "objects-null": (lambda d: d.update(objects=None), "objects"),
    "timestamp-str": (lambda d: d.update(timestamp="x"), "timestamp"),
    "heading-str": (lambda d: d["ego"].update(heading="x"), "ego.heading"),
    "cloud-file-int": (lambda d: d.update(cloud_file=5), "cloud_file"),
}

#: An edit of a scene file giving one value of the right type a bad value,
#: and the error, which names the value's field, or the object whose
#: ``__post_init__`` refuses it.
BAD_VALUES = {
    "ego-heading-nan": (lambda d: d["ego"].update(heading=math.nan),
                        "ego.heading must be finite, got nan"),
    "truth-yaw-nan": (lambda d: d["ground_truth"][0]["box"].update(yaw=math.nan),
                      "ground_truth[0].box.yaw must be finite, got nan"),
    "truth-center-inf": (lambda d: d["ground_truth"][0]["box"].update(center=[math.inf, 0, 0]),
                         "ground_truth[0].box.center[0] must be finite, got inf"),
    "truth-class-truck": (lambda d: d["ground_truth"][0].update({"class": "Truck"}),
                          "ground_truth[0].class must be one of ['Vehicle', 'Pedestrian', "
                          "'Cyclist', 'StaticObstacle'], got 'Truck'"),
    # 1 followed by 400 zeros: a JSON integer that no float holds
    "ego-heading-huge": (lambda d: d["ego"].update(heading=10 ** 400),
                         "ego.heading must be finite, got an integer of 401 digits"),
    "timestamp-huge": (lambda d: d.update(timestamp=10 ** 400),
                       "timestamp must be finite, got an integer of 401 digits"),
    "truth-velocity-huge": (lambda d: d["ground_truth"][0].update(velocity=[10 ** 400, 0, 0]),
                            "ground_truth[0].velocity[0] must be finite, "
                            "got an integer of 401 digits"),
    "ego-speed-negative": (lambda d: d["ego"].update(speed=-1),
                           "ego: EgoState.speed must be finite and >= 0, got -1"),
    "truth-length-zero": (lambda d: d["ground_truth"][0]["box"].update(length=0),
                          "ground_truth[0].box: OrientedBox.length must be > 0, got 0"),
    "timestamp-negative": (lambda d: d.update(timestamp=-1),
                           "Scene.timestamp must be finite and >= 0, got -1"),
}


class TestGenerate:
    def test_deterministic_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("generate", "--template", "lead-vehicle", "--count", "2",
                       "--seed", "1", "--out", str(out)) == 0
        for name in sorted(os.listdir(a)):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_manifest_lists_scenes(self, tmp_path):
        out = tmp_path / "gen"
        assert run("generate", "--template", "empty-road,dense-traffic",
                   "--count", "2", "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["scenes"]) == 4
        for e in manifest["scenes"]:
            assert (out / e["path"]).exists()

    def test_unknown_template_fails(self, tmp_path):
        assert run("generate", "--template", "flying-cars",
                   "--out", str(tmp_path / "x")) == 1

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_count_below_one_exit_1(self, tmp_path, capsys, count):
        """A suite without scenes is refused before anything is written."""
        out = tmp_path / "gen"
        assert run("generate", "--template", "empty-road", "--count", count,
                   "--out", str(out)) == 1
        assert f"error: ValueError: --count must be >= 1, got {count}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_template_exit_1(self, tmp_path, capsys):
        """One template listed twice would write its scenes twice under
        one name; the suite is refused before anything is written."""
        out = tmp_path / "gen"
        assert run("generate", "--template", "lead-vehicle,empty-road,lead-vehicle",
                   "--out", str(out)) == 1
        assert ("error: ValueError: --template lists lead-vehicle twice\n"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize(("flag", "value", "field"), [
        ("--noise-std", "nan", "noise_std"), ("--noise-std", "inf", "noise_std"),
        ("--density", "nan", "points_per_m2"), ("--density", "inf", "points_per_m2"),
    ])
    def test_non_finite_spec_flag_exit_1(self, tmp_path, capsys, flag, value, field):
        """A NaN or infinite noise std or density is refused, naming the
        spec field, before anything is written."""
        out = tmp_path / "gen"
        assert run_without_runtime_warnings("generate", "--template", "lead-vehicle", flag, value,
                                            "--out", str(out)) == 1
        assert (f"error: ValueError: {field} must be finite, got {value}\n"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_config_seed_without_flag(self, tmp_path):
        config = tmp_path / "seed7.json"
        config.write_text('{"seed": 7}')
        from_file, from_flag = tmp_path / "file", tmp_path / "flag"
        assert run("generate", "--template", "empty-road", "--count", "2",
                   "--config", str(config), "--out", str(from_file)) == 0
        assert run("generate", "--template", "empty-road", "--count", "2",
                   "--seed", "7", "--out", str(from_flag)) == 0
        manifest = json.loads((from_file / "manifest.json").read_text())
        assert [e["seed"] for e in manifest["scenes"]] == [7, 8]
        for name in sorted(os.listdir(from_flag)):
            assert (from_file / name).read_bytes() == (from_flag / name).read_bytes(), name


class TestPipelineCommands:
    def test_detect_writes_detections(self, ped_scene, tmp_path):
        out = tmp_path / "det"
        assert run("detect", "--scene", str(ped_scene), "--out", str(out)) == 0
        dets = json.loads((out / "detections.json").read_text())
        assert len(dets) == 1
        assert dets[0]["class_probs"][1] == pytest.approx(1.0)  # Pedestrian

    def test_assess_output(self, ped_scene, tmp_path):
        out = tmp_path / "assess"
        assert run("assess", "--scene", str(ped_scene), "--out", str(out)) == 0
        a = json.loads((out / "assessments.json").read_text())[0]
        assert a["tier"] == "High" and a["tier_color"] == "red"
        assert 0.0 < a["risk"] <= 1.0

    def test_graph_output(self, ped_scene, tmp_path):
        out = tmp_path / "graph"
        assert run("graph", "--scene", str(ped_scene), "--out", str(out)) == 0
        g = json.loads((out / "graph.json").read_text())
        assert -1 in g["nodes"]
        assert g["refined"][0]["interaction_label"] == "Yield"
        # the edge list against the per-pair oracle on the same detections
        config = PipelineConfig()
        scene = load_scene(ped_scene)
        detections = run_scene(scene, config).detections
        ref = scalar_build_graph(detections, scene.ego, config.interaction,
                                 config.reasoner.static_speed)
        assert g["nodes"] == list(ref.node_ids)
        assert [(e["src"], e["dst"]) for e in g["edges"]] == [(e.src, e.dst) for e in ref.edges]
        for f in ("distance", "speed_diff", "intensity", "energy", "attention"):
            np.testing.assert_allclose([e[f] for e in g["edges"]],
                                       [getattr(e, f) for e in ref.edges], rtol=0, atol=1e-12)

    def test_reason_names_brake(self, ped_scene, tmp_path):
        out = tmp_path / "reason"
        assert run("reason", "--scene", str(ped_scene), "--out", str(out)) == 0
        trace = json.loads((out / "trace.json").read_text())
        assert trace["speed"] == "Brake"
        assert "Brake" in trace["steps"][-1]["conclusion"]
        assert trace["explanation"].startswith("High risk due to nearby pedestrian")

    def test_reason_deterministic(self, ped_scene, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("reason", "--scene", str(ped_scene), "--seed", "5",
                       "--out", str(out)) == 0
        assert (a / "trace.json").read_bytes() == (b / "trace.json").read_bytes()

    def test_scene_error_names_file(self, ped_scene, tmp_path, capsys):
        d = json.loads(ped_scene.read_text())
        d["ego"]["speed"] = float("nan")
        bad = ped_scene.parent / "speednan.json"
        bad.write_text(json.dumps(d))
        assert run("reason", "--scene", str(bad), "--out", str(tmp_path / "r")) == 1
        err = capsys.readouterr().err
        assert f"error: ValueError: {bad}: ego.speed must be finite, got nan\n" in err

    @pytest.mark.parametrize("command", ["detect", "trace"])
    def test_pipeline_error_names_scene(self, command, ped_scene, tmp_path, capsys):
        """A scene that loads but that the pipeline refuses: the oracle
        detector needs the ground truth this one lacks."""
        d = json.loads(ped_scene.read_text())
        d["ground_truth"] = None
        bad = ped_scene.parent / "no_truth.json"
        bad.write_text(json.dumps(d))
        assert run(command, "--scene", str(bad), "--out", str(tmp_path / "r")) == 1
        assert capsys.readouterr().err == (f"error: ValueError: {bad}: oracle_detect requires "
                                           f"scene.ground_truth\n")

    @pytest.mark.parametrize(("edit", "field"), WRONG_TYPES.values(), ids=list(WRONG_TYPES))
    def test_wrong_json_type_names_file(self, edit, field, lead_scene, tmp_path, capsys):
        d = json.loads(lead_scene.read_text())
        edit(d)
        bad = lead_scene.parent / "wrong_type.json"
        bad.write_text(json.dumps(d))
        assert run("reason", "--scene", str(bad), "--out", str(tmp_path / "r")) == 1
        err = capsys.readouterr().err
        assert re.match(re.escape(f"error: ValueError: {bad}: {field}") + "[: ]", err), err

    @pytest.mark.parametrize(("edit", "message"), BAD_VALUES.values(), ids=list(BAD_VALUES))
    def test_bad_value_names_its_entry(self, edit, message, lead_scene, tmp_path, capsys):
        d = json.loads(lead_scene.read_text())
        edit(d)
        bad = lead_scene.parent / "bad_value.json"
        bad.write_text(json.dumps(d))
        assert run("reason", "--scene", str(bad), "--out", str(tmp_path / "r")) == 1
        assert capsys.readouterr().err == f"error: ValueError: {bad}: {message}\n"

    def test_cloud_error_names_scene_and_cloud_file(self, ped_scene, tmp_path, capsys):
        cloud = ped_scene.parent / json.loads(ped_scene.read_text())["cloud_file"]
        lines = cloud.read_text().splitlines()
        lines[3] = "1.0 2.0 nan 4.0"
        cloud.write_text("\n".join(lines) + "\n")
        assert run("reason", "--scene", str(ped_scene), "--out", str(tmp_path / "r")) == 1
        err = capsys.readouterr().err
        assert (f"error: ValueError: {ped_scene}: {cloud}: "
                f"point cloud contains non-finite values") in err
        lines[3] = "1.0 2.0 3.0 abc"
        cloud.write_text("\n".join(lines) + "\n")
        assert run("reason", "--scene", str(ped_scene), "--out", str(tmp_path / "r")) == 1
        err = capsys.readouterr().err
        assert (f"error: ValueError: {ped_scene}: {cloud}:4: bad point line '1.0 2.0 3.0 abc', "
                f"expected 4 numbers separated by spaces or tabs") in err

    def test_geometric_detect_beyond_the_grid_exit_1(self, ped_scene, tmp_path, capsys):
        """A point at 1e12 m, 1.4e12 radii out, is more than the grid
        resolves: the geometric detector refuses the scene, which the
        oracle, that does not cluster, still detects."""
        cloud = ped_scene.parent / json.loads(ped_scene.read_text())["cloud_file"]
        lines = cloud.read_text().splitlines()
        lines[3] = "1e12 0.0 1.0 0.5"
        cloud.write_text("\n".join(lines) + "\n")
        geometric = tmp_path / "geometric.json"
        geometric.write_text('{"detector": "geometric"}')
        assert run("detect", "--scene", str(ped_scene), "--config", str(geometric),
                   "--out", str(tmp_path / "g")) == 1
        assert (f"error: ValueError: {ped_scene}: cannot cluster at neighbor radius 0.7: the "
                f"largest coordinate is 1.429e+12 radii") in capsys.readouterr().err
        assert run("detect", "--scene", str(ped_scene), "--out", str(tmp_path / "o")) == 0

    def test_trace_pretty_print(self, ped_scene, tmp_path, capsys):
        out = tmp_path / "trace"
        assert run("trace", "--scene", str(ped_scene), "--out", str(out)) == 0
        text = (out / "trace.txt").read_text()
        assert "1. [PASS] brake" in text
        assert "speed decision: Brake" in text
        assert capsys.readouterr().out.strip() in text + "\n"


@pytest.fixture()
def small_embed(tmp_path):
    path = tmp_path / "embed8.json"
    path.write_text(json.dumps({"interaction": {"embed_dim": 8}}))
    return path


class TestTrainEvaluate:
    def test_train_bgnn_artifacts(self, tmp_path, small_embed):
        out = tmp_path / "train"
        assert run("train-bgnn", "--steps", "30", "--samples", "32",
                   "--config", str(small_embed), "--out", str(out)) == 0
        assert sorted(p.name for p in out.iterdir()) == ["model.bin", "training.json"]
        history = json.loads((out / "training.json").read_text())
        assert history["accuracy"] >= 0.5
        # the loss is its two terms, each written on its own
        assert history["final_loss"] == history["final_cross_entropy"] + history["final_kl"]
        assert 0 < history["final_cross_entropy"] < history["final_kl"]

    def test_train_bgnn_deterministic(self, tmp_path):
        """Two runs with the same seed write the same bytes."""
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("train-bgnn", "--steps", "5", "--samples", "16", "--seed", "3",
                       "--out", str(out)) == 0
        for name in ("model.bin", "training.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_train_bgnn_float_mc_samples_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"interaction": {"mc_samples": 2.5}}')
        out = tmp_path / "train"
        assert run("train-bgnn", "--steps", "1", "--samples", "2", "--config", str(bad),
                   "--out", str(out)) == 1
        assert (f"error: ValueError: {bad}: interaction.mc_samples must be an integer, "
                f"got 2.5\n" in capsys.readouterr().err)
        assert not (out / "model.bin").exists()

    def test_train_bgnn_reads_the_risk_section(self, tmp_path):
        """The node feature ``risk`` follows ``risk.decay_length``, so a
        shorter decay trains another model."""
        models = []
        for name, extra in (("default", {}), ("decay5", {"risk": {"decay_length": 5.0}})):
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps({"interaction": {"embed_dim": 8}, **extra}))
            out = tmp_path / name
            assert run("train-bgnn", "--steps", "5", "--samples", "8",
                       "--config", str(config), "--out", str(out)) == 0
            models.append((out / "model.bin").read_bytes())
        assert models[0] != models[1]

    def test_train_bgnn_zero_steps_exit_1(self, tmp_path, capsys, small_embed):
        assert run("train-bgnn", "--steps", "0", "--samples", "2",
                   "--config", str(small_embed), "--out", str(tmp_path / "train")) == 1
        assert "ValueError: steps must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("lr", ["nan", "inf", "0", "-0.01"])
    def test_train_bgnn_bad_lr_exit_1(self, tmp_path, capsys, small_embed, lr):
        out = tmp_path / "train"
        assert run("train-bgnn", "--steps", "2", "--samples", "2", "--lr", lr,
                   "--config", str(small_embed), "--out", str(out)) == 1
        assert (f"error: ValueError: lr must be finite and > 0, got {float(lr)!r}\n"
                in capsys.readouterr().err)
        assert list(out.iterdir()) == []

    def test_train_bgnn_diverging_lr_exit_1(self, tmp_path, capsys):
        """At ``--lr 1e300`` the first Adam step moves log-stds by about
        1e300; the next step would overflow into a NaN loss and model."""
        out = tmp_path / "train"
        assert run_without_runtime_warnings(
            "train-bgnn", "--steps", "2", "--samples", "2", "--lr", "1e300",
            "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: training diverged at step 1 of 2: layer ")
        assert err.endswith(f"above the bound {MAX_LOG_STD!r}; "
                            f"try a smaller --lr than 1e+300\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_train_bgnn_no_samples_exit_1(self, tmp_path, capsys, small_embed, samples):
        assert run("train-bgnn", "--steps", "2", "--samples", samples,
                   "--config", str(small_embed), "--out", str(tmp_path / "train")) == 1
        assert ("error: ValueError: the training set must hold at least one graph\n"
                in capsys.readouterr().err)

    def test_evaluate_end_to_end(self, tmp_path):
        gen = tmp_path / "gen"
        assert run("generate", "--template", "empty-road,lead-vehicle",
                   "--count", "2", "--out", str(gen)) == 0
        out = tmp_path / "eval"
        assert run("evaluate", "--manifest", str(gen / "manifest.json"),
                   "--out", str(out)) == 0
        for name in ("report.txt", "report.csv", "report_plot.json",
                     "result.json", "scenes.json"):
            assert (out / name).exists()
        result = json.loads((out / "result.json").read_text())
        assert result["counts"]["errors"] == 0
        assert result["speed_metrics"]["SpeedLimit"]["f1"] == 1.0

    @pytest.mark.parametrize("variant", ["default", "noisy", "model"])
    def test_evaluate_imports_numpy_random_only_to_draw(self, tmp_path, variant):
        """``evaluate`` in a fresh interpreter: the all-zero noise model
        draws nothing, so ``numpy.random`` stays unloaded; a noisy oracle
        and a BGNN model draw, so they load it."""
        gen = tmp_path / "gen"
        assert run("generate", "--template", "empty-road,lead-vehicle",
                   "--out", str(gen)) == 0
        argv = ["evaluate", "--manifest", str(gen / "manifest.json"),
                "--out", str(tmp_path / "eval")]
        if variant == "noisy":
            config = tmp_path / "noisy.json"
            config.write_text(json.dumps({"noise": {"pos_std": 0.1}}))
            argv += ["--config", str(config)]
        elif variant == "model":
            model = tmp_path / "model.bin"
            save_model(BgnnModel.initialize(InteractionConfig()), model)
            argv += ["--model", str(model)]
        child = ("import sys\n"
                 "from drivetrace.cli import main\n"
                 "assert main(sys.argv[1:]) == 0\n"
                 "print('numpy.random' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(drivetrace.__file__))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", child, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == str(variant != "default")

    def test_evaluate_deterministic(self, tmp_path):
        gen = tmp_path / "gen"
        assert run("generate", "--template", "dense-traffic", "--count", "2",
                   "--out", str(gen)) == 0
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("evaluate", "--manifest", str(gen / "manifest.json"),
                       "--out", str(out)) == 0
        for name in ("report.txt", "report.csv", "report_plot.json", "result.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_evaluate_records_nan_speed_scene(self, tmp_path, capsys):
        gen = tmp_path / "gen"
        assert run("generate", "--template", "empty-road,lead-vehicle",
                   "--out", str(gen)) == 0
        bad = gen / "scene_lead-vehicle_0000.json"
        d = json.loads(bad.read_text())
        d["ego"]["speed"] = float("nan")
        bad.write_text(json.dumps(d))
        out = tmp_path / "eval"
        assert run("evaluate", "--manifest", str(gen / "manifest.json"),
                   "--out", str(out)) == 1
        assert "1 scene(s) failed" in capsys.readouterr().err
        records = {r["path"]: r for r in json.loads((out / "scenes.json").read_text())}
        assert "ego.speed must be finite, got nan" in records[bad.name]["error"]
        assert records["scene_empty-road_0000.json"]["error"] is None

    @pytest.mark.parametrize("prefix", ["", "./", "sub/../"])
    def test_evaluate_path_listed_twice_exit_1(self, tmp_path, capsys, prefix):
        gen = tmp_path / "gen"
        assert run("generate", "--template", "empty-road,lead-vehicle",
                   "--out", str(gen)) == 0
        manifest = gen / "manifest.json"
        scenes = json.loads(manifest.read_text())["scenes"]
        again = {**scenes[0], "path": prefix + scenes[0]["path"]}
        manifest.write_text(json.dumps({"scenes": scenes + [again]}))
        out = tmp_path / "eval"
        assert run("evaluate", "--manifest", str(manifest), "--out", str(out)) == 1
        assert (f"error: ValueError: {manifest}: scenes[0] and scenes[2] both list "
                f"'{prefix}scene_empty-road_0000.json'\n") in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_evaluate_truncated_model_exit_1(self, tmp_path, capsys):
        gen = tmp_path / "gen"
        assert run("generate", "--template", "empty-road", "--out", str(gen)) == 0
        model = tmp_path / "model.bin"
        save_model(BgnnModel.initialize(InteractionConfig(layers=1, embed_dim=4)), model)
        model.write_bytes(model.read_bytes()[:-8])
        assert run("evaluate", "--manifest", str(gen / "manifest.json"),
                   "--model", str(model), "--out", str(tmp_path / "eval")) == 1
        assert f"error: ValueError: {model}: " in capsys.readouterr().err

    def test_graph_model_with_wrong_dims_exit_1(self, ped_scene, tmp_path, capsys):
        model = tmp_path / "model.bin"
        save_model(BgnnModel.initialize(InteractionConfig(embed_dim=16)), model)
        assert run("graph", "--scene", str(ped_scene), "--model", str(model),
                   "--out", str(tmp_path / "graph")) == 1
        assert (f"error: ValueError: {model}: layer 0 is 16 x 16 (out x in), but "
                f"interaction.embed_dim 128, ") in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_graph_model_with_non_finite_weight_exit_1(self, ped_scene, tmp_path, capsys,
                                                       value):
        """A NaN head weight would reach ``epistemic_std`` as a NaN, which
        is not JSON, and no threshold test would see it."""
        small = InteractionConfig(embed_dim=8)
        model = BgnnModel.initialize(small)
        model.params[-1].weight_means[1, 2] = value
        path = tmp_path / "model.bin"
        save_model(model, path)
        config = tmp_path / "embed8.json"
        config.write_text(json.dumps({"interaction": {"embed_dim": 8}}))
        assert run("graph", "--scene", str(ped_scene), "--model", str(path),
                   "--config", str(config), "--out", str(tmp_path / "graph")) == 1
        head = len(model.params) - 1
        assert (f"error: ValueError: {path}: layer {head} holds a non-finite parameter\n"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["graph", "reason"])
    @pytest.mark.parametrize("part", ["weight_log_stds", "weight_means"])
    def test_model_with_huge_head_exit_1(self, ped_scene, tmp_path, capsys, small_embed,
                                         command, part):
        """Head log-stds of 800 overflow ``exp`` in the weight draws, and head
        means of 1e308 (finite, so they load) overflow the logits: graph
        would write NaN into every ``epistemic_std`` and reason decide as
        usual."""
        model = BgnnModel.initialize(InteractionConfig(embed_dim=8))
        getattr(model.params[-1], part)[:] = {"weight_log_stds": 800.0,
                                              "weight_means": 1e308}[part]
        path = tmp_path / "model.bin"
        save_model(model, path)
        out = tmp_path / command
        assert run_without_runtime_warnings(
            command, "--scene", str(ped_scene), "--model", str(path),
            "--config", str(small_embed), "--out", str(out)) == 1
        head = len(model.params) - 1
        expected = {
            "weight_log_stds": f"{path}: layer {head} has a log-std of 800.0, "
                               f"above the bound {MAX_LOG_STD!r}\n",
            "weight_means": f"{ped_scene}: the model's Monte Carlo interaction probabilities "
                            f"are not finite: a parameter or a node feature is too large\n",
        }[part]
        assert f"error: ValueError: {expected}" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_graph_model_reads_config_mc_samples(self, ped_scene, tmp_path):
        """``interaction.mc_samples`` of the pipeline config sets the number
        of weight draws of a ``--model`` run."""
        small = InteractionConfig(embed_dim=8)
        model = tmp_path / "model.bin"
        save_model(BgnnModel.initialize(small, seed=4), model)
        stds = {}
        for mc in (None, 2):
            section = {"embed_dim": 8} if mc is None else {"embed_dim": 8, "mc_samples": mc}
            config = tmp_path / f"config_{mc}.json"
            config.write_text(json.dumps({"interaction": section}))
            out = tmp_path / f"graph_{mc}"
            assert run("graph", "--scene", str(ped_scene), "--model", str(model),
                       "--config", str(config), "--out", str(out)) == 0
            refined = json.loads((out / "graph.json").read_text())["refined"]
            stds[mc] = [r["epistemic_std"] for r in refined]
        assert stds[2] != stds[None]
        two_draws = replace(small, mc_samples=2)
        result = run_scene(load_scene(ped_scene), PipelineConfig(interaction=two_draws),
                           BgnnModel(two_draws, load_model(model, small).params))
        assert stds[2] == [list(r.epistemic_std) for r in result.refined]

    def test_evaluate_manifest_not_utf8_names_file(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(bytes(range(0xb3, 0xf3)))  # 64 bytes, not UTF-8
        assert run("evaluate", "--manifest", str(manifest),
                   "--out", str(tmp_path / "out")) == 1
        assert (f"error: ValueError: {manifest}: 'utf-8' codec can't decode byte 0xb3 "
                f"in position 0: invalid start byte\n" in capsys.readouterr().err)

    def test_evaluate_error_exit_code(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(
            {"scenes": [{"path": "nope.json", "template": "empty-road"}]}))
        assert run("evaluate", "--manifest", str(manifest),
                   "--out", str(tmp_path / "out")) == 1

    def test_report_rerender(self, tmp_path):
        gen = tmp_path / "gen"
        assert run("generate", "--template", "empty-road", "--count", "1",
                   "--out", str(gen)) == 0
        out = tmp_path / "eval"
        assert run("evaluate", "--manifest", str(gen / "manifest.json"),
                   "--out", str(out)) == 0
        out2 = tmp_path / "re"
        assert run("report", "--csv", str(out / "report.csv"),
                   "--out", str(out2)) == 0
        assert (out2 / "report.csv").read_bytes() == (out / "report.csv").read_bytes()
        assert (out2 / "report.txt").read_bytes() == (out / "report.txt").read_bytes()

    @pytest.mark.parametrize(("row", "reason"), [
        ("scalar,mean_iou",
         "line 3: expected section,key,value, got 'scalar,mean_iou'"),
        ("count,scenes,x", "line 3: count scenes must be a number, got 'x'"),
        ("speed_f1,Brake,0.5", "speed_metrics.Brake: missing key 'precision'"),
        ("scalar,mean_iuo,0.5", "unknown key 'mean_iuo'"),
        ("path_accuracy,Straight,1.5", "path_accuracy.Straight must lie in [0, 1], got 1.5"),
        ("scalar,mean_iou,nan", "mean_iou must be finite, got nan"),
        ("speed_precision,Brake,-0.1\nspeed_recall,Brake,1.0\nspeed_f1,Brake,1.0",
         "speed_metrics.Brake: precision must lie in [0, 1], got -0.1"),
        ("count,scenes,-1", "counts.scenes must lie in [0, inf], got -1"),
        ("speed_confusion,Brake|Stop,-2",
         "speed_confusion.Brake.Stop must lie in [0, inf], got -2"),
        ("count,errors,1", "line 3: count errors repeats line 2"),
        ("path_accuracy,Nowhere,0.5", "path_accuracy: key must be one of "
                                      "['Straight', 'Turn', 'LaneChange'], got 'Nowhere'"),
        ("speed_precision,Stop,0.5\nspeed_recall,Stop,0.5\nspeed_f1,Stop,0.5",
         f"speed_metrics: key must be one of {[d.value for d in SpeedDecision]}, got 'Stop'"),
        ("speed_recall,Stop,0.5", "speed_metrics.Stop: missing key 'precision'"),
        ("speed_confusion,Brake|Bogus,3", "speed_confusion.Brake: key must be one of "
                                          f"{[d.value for d in SpeedDecision]}, got 'Bogus'"),
        ("speed_confusion,Bogus|Brake,3", "speed_confusion: key must be one of "
                                          f"{[d.value for d in SpeedDecision]}, got 'Bogus'"),
        ("speed_confusion,Brake,3",
         "line 3: speed_confusion key must be expected|predicted, got 'Brake'"),
        ("count,scenes,1.0", "counts.scenes must be an integer, got 1.0"),
        ("bogus,key,1", "line 3: unknown CSV section 'bogus'"),
        ("scalar,counts,5", "counts must be an object, got 5"),
    ], ids=["two-fields", "bad-count", "lone-speed-row", "unknown-scalar",
            "fraction-above-1", "nan", "negative-fraction", "negative-count",
            "negative-confusion", "repeated-row", "unknown-path-class", "unknown-speed-class",
            "lone-unknown-speed-row", "unknown-predicted-class", "unknown-expected-class",
            "confusion-key-without-bar", "float-count", "unknown-section",
            "scalar-named-like-a-section"])
    def test_report_bad_csv_names_file_and_line(self, tmp_path, capsys, row, reason):
        path = tmp_path / "report.csv"
        path.write_text(f"section,key,value\ncount,errors,0\n{row}\n")
        assert run("report", "--csv", str(path), "--out", str(tmp_path / "re")) == 1
        assert f"error: ValueError: {path}: {reason}\n" in capsys.readouterr().err

    @pytest.mark.parametrize(("text", "reason"), [
        ("count,scenes,30\ncount,errors,0\n",
         "line 1: expected the header 'section,key,value', got 'count,scenes,30'"),
        ("\n\ncount,scenes,30\n",
         "line 3: expected the header 'section,key,value', got 'count,scenes,30'"),
        ("", "line 1: expected the header 'section,key,value', got ''"),
    ], ids=["no-header", "no-header-after-blank-lines", "empty"])
    def test_report_csv_requires_header(self, tmp_path, capsys, text, reason):
        """A CSV whose first non-empty line is not the header is refused."""
        path = tmp_path / "report.csv"
        path.write_text(text)
        assert run("report", "--csv", str(path), "--out", str(tmp_path / "re")) == 1
        assert f"error: ValueError: {path}: {reason}\n" in capsys.readouterr().err

    def test_report_csv_leading_blank_lines_allowed(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_text("\n\nsection,key,value\ncount,scenes,30\n")
        assert run("report", "--csv", str(path), "--out", str(tmp_path / "re")) == 0
        assert (tmp_path / "re" / "report.csv").read_text().endswith("count,scenes,30\n")

    def test_report_csv_not_utf8_names_file(self, tmp_path, capsys):
        path = tmp_path / "report.csv"
        path.write_bytes(b"section,key,value\ncount,scenes,\xff\n")
        assert run("report", "--csv", str(path), "--out", str(tmp_path / "re")) == 1
        assert (f"error: ValueError: {path}: 'utf-8' codec can't decode byte 0xff in "
                f"position 31: invalid start byte\n") in capsys.readouterr().err


class TestArgsAndConfig:
    def test_bad_flags_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--no-such-flag"])
        assert exc.value.code == 2

    def test_missing_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", [["--config", "c.json"], ["--seed", "1"]])
    def test_report_takes_no_config_or_seed(self, tmp_path, flag):
        """``report`` only re-renders a CSV, so it reads no config and no seed."""
        with pytest.raises(SystemExit) as exc:
            main(["report", "--csv", str(tmp_path / "report.csv"), *flag])
        assert exc.value.code == 2

    def test_report_has_no_prefix(self, tmp_path):
        """``report`` always writes report.txt, report.csv and report_plot.json."""
        with pytest.raises(SystemExit) as exc:
            main(["report", "--csv", str(tmp_path / "report.csv"), "--prefix", "x"])
        assert exc.value.code == 2

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--help"])
        assert exc.value.code == 0

    def test_config_round_trip(self, tmp_path):
        cfg = PipelineConfig()
        path = tmp_path / "config.json"
        save_config(cfg, path)
        assert load_config(path) == cfg
        # serialize -> load -> serialize is a fixed point
        save_config(load_config(path), tmp_path / "config2.json")
        assert (tmp_path / "config2.json").read_bytes() == path.read_bytes()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="^c.json: unknown key 'bogus'$"):
            from_json(PipelineConfig, {"bogus": {}}, "c.json")
        with pytest.raises(ValueError, match="^c.json: risk: unknown key 'typo'$"):
            from_json(PipelineConfig, {"risk": {"decay_length": 10.0, "typo": 1}}, "c.json")
        with pytest.raises(ValueError, match="^c.json: unknown key 'normalization'$"):
            from_json(PipelineConfig, {"normalization": {}}, "c.json")

    def test_unknown_detector_lists_table(self):
        with pytest.raises(ValueError) as exc:
            PipelineConfig(detector="lidarnet")
        assert "lidarnet" in str(exc.value)
        for name in DETECTORS:
            assert repr(name) in str(exc.value)

    def test_section_override(self):
        cfg = from_json(PipelineConfig, {"risk": {"decay_length": 10.0}, "seed": 7}, "c.json")
        assert cfg.risk.decay_length == 10.0
        assert cfg.risk.tier_high == 0.6  # untouched default
        assert cfg.seed == 7

    def test_env_config_is_ignored(self, tmp_path, monkeypatch):
        # without --config the defaults hold, whatever the environment names
        d = asdict(PipelineConfig())
        d["seed"] = 99
        path = tmp_path / "env_config.json"
        path.write_text(json.dumps(d))
        monkeypatch.setenv("PRIME_CONFIG", str(path))
        assert load_config(None) == PipelineConfig()

    def test_writes_stay_in_out_dir(self, tmp_path, monkeypatch):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        out = tmp_path / "only_here"
        assert run("generate", "--template", "empty-road", "--count", "1",
                   "--out", str(out)) == 0
        assert list(workdir.iterdir()) == []
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("name", ["neighbor_radius", "ground_z_max"])
    def test_non_finite_cluster_config_exit_1(self, tmp_path, capsys, name):
        bad = tmp_path / "bad.json"
        bad.write_text('{"cluster": {"%s": NaN}, "detector": "geometric"}' % name)
        with pytest.raises(ValueError, match=f"cluster.{name} must be finite"):
            load_config(bad)
        assert run("generate", "--template", "empty-road",
                   "--config", str(bad), "--out", str(tmp_path / "o")) == 1
        assert f"cluster.{name}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize(("section", "key"), FLOAT_FIELDS)
    def test_non_finite_config_value_names_file_and_key(self, tmp_path, section, key, value):
        """Every float field of every section, including values that pass
        the section's range checks (a NaN fails no comparison) and values
        that fail them."""
        bad = tmp_path / "bad.json"
        bad.write_text('{"%s": {"%s": %s}}' % (section, key, value))
        with pytest.raises(ValueError) as exc:
            load_config(bad)
        got = {"NaN": "nan", "Infinity": "inf", "-Infinity": "-inf"}[value]
        assert str(exc.value) == f"{bad}: {section}.{key} must be finite, got {got}"

    @pytest.mark.parametrize(("text", "reason"), [
        ('{"risk": 3}', "risk must be an object, got 3"),
        ('[1]', "top level must be an object, got [1]"),
        ('{"risk": {"typo": 1}}', "risk: unknown key 'typo'"),
        ('{"bogus": {}}', "unknown key 'bogus'"),
        ('{"risk": {', "Expecting property name enclosed in double quotes: "
                       "line 1 column 11 (char 10)"),
        ('{"risk": {"decay_length": -5}}', "risk: decay_length must be > 0"),
        ('{"seed": 1.5}', "seed must be an integer, got 1.5"),
        ('{"seed": -1}', "seed must be a non-negative integer, got -1"),
        ('{"seed": true}', "seed must be an integer, got True"),
        ('{"seed": "3"}', "seed must be an integer, got '3'"),
        ('{"noise": {"seed": 7}}', "noise: unknown key 'seed'"),
        ('{"uncertainty": {"entropy_normalized": false}}',
         "uncertainty: unknown key 'entropy_normalized'"),
        ('{"interaction": {"attention_positive_energy": true}}',
         "interaction: unknown key 'attention_positive_energy'"),
        ('{"reasoner": {"epistemic_threshold": -0.1}}',
         "reasoner: epistemic_threshold must be >= 0, got -0.1"),
        ('{"reasoner": {"static_speed": -1}}', "reasoner: static_speed must be >= 0, got -1"),
        ('{"reasoner": {"follow_gap": -5}}', "reasoner: follow_gap must be > 0, got -5"),
        ('{"detector": ["oracle"]}', "detector must be a string, got ['oracle']"),
        ('{"detector": {}}', "detector must be a string, got {}"),
        ('{"detector": "lidarnet"}',
         "detector must be one of ['geometric', 'oracle'], got 'lidarnet'"),
    ], ids=["section-not-object", "top-not-object", "unknown-key", "unknown-section",
            "json-syntax", "invalid-value", "seed-float", "seed-negative", "seed-bool",
            "seed-string", "removed-noise-seed", "removed-entropy-normalized",
            "removed-attention-positive-energy", "negative-epistemic-threshold",
            "negative-static-speed", "negative-follow-gap", "detector-list", "detector-object", "detector-unknown"])
    def test_bad_config_file_error_names_file(self, tmp_path, capsys, text, reason):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_config(bad)
        assert str(exc.value) == f"{bad}: {reason}"
        assert run("generate", "--template", "empty-road",
                   "--config", str(bad), "--out", str(tmp_path / "o")) == 1
        assert f"error: ValueError: {bad}: {reason}" in capsys.readouterr().err

    @pytest.mark.parametrize(("text", "reason"), [
        ('{"reasoner": {"occlusion_sectors": true}}',
         "reasoner.occlusion_sectors must be an integer, got True"),
        ('{"reasoner": {"occlusion_sectors": 2.5}}',
         "reasoner.occlusion_sectors must be an integer, got 2.5"),
        ('{"cluster": {"min_points": 2.5}}', "cluster.min_points must be an integer, got 2.5"),
        ('{"interaction": {"mc_samples": 2.5}}',
         "interaction.mc_samples must be an integer, got 2.5"),
        ('{"interaction": {"edge_radius": "30"}}',
         "interaction.edge_radius must be a number, got '30'"),
        ('{"interaction": {"w_distance": "0.1"}}',
         "interaction.w_distance must be a number or null, got '0.1'"),
        ('{"risk": {"decay_length": false}}', "risk.decay_length must be a number, got False"),
    ], ids=["int-bool", "int-float", "min-points-float", "mc-samples-float", "float-string",
            "optional-string", "float-bool"])
    def test_wrong_json_type_config_exit_1(self, lead_scene, tmp_path, capsys, text, reason):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert run("reason", "--scene", str(lead_scene), "--config", str(bad),
                   "--out", str(tmp_path / "r")) == 1
        assert f"error: ValueError: {bad}: {reason}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["risk.decay_length", "interaction.w_distance"])
    def test_integer_too_large_for_a_float_exit_1(self, lead_scene, tmp_path, capsys, key):
        """1 followed by 400 zeros is a JSON integer that no float holds."""
        section, name = key.split(".")
        bad = tmp_path / "bad.json"
        bad.write_text('{"%s": {"%s": 1%s}}' % (section, name, "0" * 400))
        assert run("reason", "--scene", str(lead_scene), "--config", str(bad),
                   "--out", str(tmp_path / "r")) == 1
        assert capsys.readouterr().err == (f"error: ValueError: {bad}: {key} must be finite, "
                                           f"got an integer of 401 digits\n")

    @pytest.mark.parametrize(("section", "key"), FLOAT_FIELDS + [("interaction", "w_distance")])
    def test_float_field_refuses_an_integer_no_float_holds(self, tmp_path, section, key):
        """Ten times the largest float's integer, of either sign, is refused
        before any range check of the section."""
        path = tmp_path / "config.json"
        for value in (-10 * int(sys.float_info.max), 10 * int(sys.float_info.max)):
            path.write_text(json.dumps({section: {key: value}}))
            with pytest.raises(ValueError) as exc:
                load_config(path)
            assert str(exc.value) == (f"{path}: {section}.{key} must be finite, "
                                      f"got an integer of 310 digits")

    def test_largest_float_integer_kept_as_given(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"risk": {"decay_length": int(sys.float_info.max)}}))
        assert load_config(path).risk.decay_length == int(sys.float_info.max)

    @pytest.mark.parametrize(("section", "key"), [(section, f.name)
                                                  for section, cls in SECTIONS.items()
                                                  for f in fields(cls)])
    def test_every_section_field_refuses_a_string(self, tmp_path, section, key):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({section: {key: "1"}}))
        with pytest.raises(ValueError) as exc:
            load_config(bad)
        assert re.fullmatch(re.escape(f"{bad}: {section}.{key} must be ")
                            + "(an integer|a number|a number or null), got '1'", str(exc.value))

    def test_json_values_kept_as_given(self, tmp_path):
        """A float field keeps a JSON integer as an integer, so the config a
        command writes keeps its bytes, and ``w_distance`` takes null."""
        path = tmp_path / "given.json"
        path.write_text('{"risk": {"decay_length": 20}, "interaction": {"w_distance": null}}')
        config = load_config(path)
        assert type(config.risk.decay_length) is int
        assert config.interaction.w_distance == 1.0 / config.interaction.edge_radius
        out = tmp_path / "gen"
        assert run("generate", "--template", "empty-road", "--config", str(path),
                   "--out", str(out)) == 0
        assert '"decay_length": 20,' in (out / "config.json").read_text()

    def test_negative_seed_flag_exit_1(self, tmp_path, capsys):
        assert run("generate", "--template", "empty-road", "--seed", "-1",
                   "--out", str(tmp_path / "o")) == 1
        assert ("error: ValueError: seed must be a non-negative integer, got -1"
                in capsys.readouterr().err)

    def test_invalid_config_file_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"risk": {"decay_length": -5}}))
        assert run("generate", "--template", "empty-road",
                   "--config", str(bad), "--out", str(tmp_path / "o")) == 1
