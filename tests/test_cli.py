"""CLI behavior: determinism, artifacts, exit codes, config handling."""

import json
import os
from dataclasses import fields, replace

import numpy as np
import pytest

from drivetrace.cli import main
from drivetrace.config import (
    _SECTIONS,
    PipelineConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from drivetrace.detector import DETECTORS
from drivetrace.interaction import BgnnModel, InteractionConfig, load_model, save_model
from drivetrace.pipeline import run_scene
from drivetrace.scene_io import load_scene
from interaction_oracle import scalar_build_graph


#: (section, key) of every float config field
FLOAT_FIELDS = [(section, f.name) for section, cls in _SECTIONS.items()
                for f in fields(cls) if f.type in (float, "float")]


def run(*argv) -> int:
    return main(list(argv))


@pytest.fixture()
def ped_scene(tmp_path):
    out = tmp_path / "gen"
    assert run("generate", "--template", "pedestrian-crossing", "--count", "1",
               "--seed", "3", "--out", str(out)) == 0
    return out / "scene_pedestrian-crossing_0003.json"


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
        scene = run_scene(load_scene(ped_scene), config).scene
        ref = scalar_build_graph(scene.objects, scene.ego, config.interaction,
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
        d["ego"]["position"] = [float("nan"), 0.0, 0.0]
        bad = ped_scene.parent / "posnan.json"
        bad.write_text(json.dumps(d))
        assert run("reason", "--scene", str(bad), "--out", str(tmp_path / "r")) == 1
        err = capsys.readouterr().err
        assert f"error: ValueError: {bad}: EgoState.position must be 3 finite values" in err

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
        assert f"error: ValueError: {ped_scene}: {cloud}:4: could not convert" in err

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

    def test_train_bgnn_zero_steps_exit_1(self, tmp_path, capsys, small_embed):
        assert run("train-bgnn", "--steps", "0", "--samples", "2",
                   "--config", str(small_embed), "--out", str(tmp_path / "train")) == 1
        assert "ValueError: steps must be >= 1" in capsys.readouterr().err

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
        assert "EgoState.speed" in records[bad.name]["error"]
        assert records["scene_empty-road_0000.json"]["error"] is None

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


class TestArgsAndConfig:
    def test_bad_flags_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--no-such-flag"])
        assert exc.value.code == 2

    def test_missing_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
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
        with pytest.raises(ValueError, match="unknown top-level"):
            config_from_dict({"bogus": {}})
        with pytest.raises(ValueError, match="unknown keys in config section"):
            config_from_dict({"risk": {"decay_length": 10.0, "typo": 1}})
        with pytest.raises(ValueError, match="unknown top-level"):
            config_from_dict({"normalization": {}})

    def test_unknown_detector_lists_table(self):
        with pytest.raises(ValueError) as exc:
            PipelineConfig(detector="lidarnet")
        assert "lidarnet" in str(exc.value)
        for name in DETECTORS:
            assert repr(name) in str(exc.value)

    def test_section_override(self):
        cfg = config_from_dict({"risk": {"decay_length": 10.0}, "seed": 7})
        assert cfg.risk.decay_length == 10.0
        assert cfg.risk.tier_high == 0.6  # untouched default
        assert cfg.seed == 7

    def test_env_fallback(self, tmp_path, monkeypatch):
        d = config_to_dict(PipelineConfig())
        d["seed"] = 99
        path = tmp_path / "env_config.json"
        path.write_text(json.dumps(d))
        monkeypatch.setenv("PRIME_CONFIG", str(path))
        assert load_config(None).seed == 99
        monkeypatch.delenv("PRIME_CONFIG")
        assert load_config(None).seed == 0

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
        ('{"risk": 3}', "config section 'risk' must be an object, got 3"),
        ('[1]', "config must be an object, got [1]"),
        ('{"risk": {"typo": 1}}', "unknown keys in config section 'risk': ['typo']"),
        ('{"bogus": {}}', "unknown top-level config keys: ['bogus']"),
        ('{"risk": {', "Expecting property name enclosed in double quotes: "
                       "line 1 column 11 (char 10)"),
        ('{"risk": {"decay_length": -5}}', "decay_length must be > 0"),
        ('{"seed": 1.5}', "seed must be a non-negative integer, got 1.5"),
        ('{"seed": -1}', "seed must be a non-negative integer, got -1"),
        ('{"seed": true}', "seed must be a non-negative integer, got True"),
        ('{"seed": "3"}', "seed must be a non-negative integer, got '3'"),
    ], ids=["section-not-object", "top-not-object", "unknown-key", "unknown-section",
            "json-syntax", "invalid-value", "seed-float", "seed-negative", "seed-bool",
            "seed-string"])
    def test_bad_config_file_error_names_file(self, tmp_path, capsys, text, reason):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_config(bad)
        assert str(exc.value) == f"{bad}: {reason}"
        assert run("generate", "--template", "empty-road",
                   "--config", str(bad), "--out", str(tmp_path / "o")) == 1
        assert f"error: ValueError: {bad}: {reason}" in capsys.readouterr().err

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
