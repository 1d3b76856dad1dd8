"""Contract between the package and the benchmark's span recorder.

``perfbench/tracer.py`` wraps pipeline entry points by name, counts edges
with ``len(graph.edges)``, binds ``match_boxes``'s arguments by name and
counts Monte Carlo draws from ``model.config.mc_samples``.  This runs one
scene, a ``--model`` scene command and a two-scene evaluation under the
recorder, so a
rename or a change of type that breaks the tracer fails here rather than
only in the slow ``perfbench/test_smoke.py``.  The
recorder is only imported and installed; ``perfbench/`` is not changed.
"""

import json
import sys
from collections import Counter
from pathlib import Path

import drivetrace.cli as cli
import drivetrace.evaluate as evaluate
import drivetrace.pipeline as pipeline
from drivetrace.config import PipelineConfig
from drivetrace.interaction import BgnnModel, InteractionConfig, save_model
from drivetrace.scenario import ScenarioSpec, Template, generate

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracer  # noqa: E402


def test_traced_scene_records_every_pipeline_span():
    scene = generate(ScenarioSpec(template=Template.DENSE_TRAFFIC, seed=1, n_objects=12))
    recorder = tracer.Recorder()
    recorder.install()
    try:
        result = pipeline.run_scene(scene, PipelineConfig())
    finally:
        recorder.uninstall()
    # each traced pipeline name ran once per traced entry point
    expected = Counter(name for module, _, name, _, _ in tracer.TRACED if module is pipeline)
    assert Counter(span.name for span in recorder.spans) == expected
    (graph_span,) = [s for s in recorder.spans if s.name == "interaction.build_graph"]
    assert len(result.graph.edges) > 0
    assert graph_span.counts == {"edges": len(result.graph.edges)}


def test_traced_dense_scene_matches_untraced():
    """On a 60-object scene the traced ``run_scene`` returns what the
    untraced one does, and ``risk.assess`` counts one object per detection."""
    scene = generate(ScenarioSpec(template=Template.DENSE_TRAFFIC, seed=1, n_objects=60))
    untraced = pipeline.run_scene(scene, PipelineConfig())
    recorder = tracer.Recorder()
    recorder.install()
    try:
        traced = pipeline.run_scene(scene, PipelineConfig())
    finally:
        recorder.uninstall()
    assert traced == untraced
    assert len(traced.detections) > 50
    counts = {s.name: s.counts for s in recorder.spans if s.counts}
    assert counts["detector.detect"] == {"detections": len(traced.detections)}
    assert counts["risk.assess"] == {"objects": len(traced.detections)}


def test_traced_evaluate_counts_match_boxes_arguments(tmp_path):
    """The recorder binds ``match_boxes``'s ``predicted`` and ``truth`` and
    counts the pairs they span and the matches returned."""
    gen = tmp_path / "gen"
    assert cli.main(["generate", "--template", "dense-traffic", "--count", "2",
                     "--n-objects", "8", "--out", str(gen)]) == 0
    manifest = json.loads((gen / "manifest.json").read_text())
    recorder = tracer.Recorder()
    recorder.install()
    try:
        _, records = evaluate.evaluate_suite(gen / "manifest.json", PipelineConfig())
    finally:
        recorder.uninstall()
    spans = [s for s in recorder.spans if s.name == "evaluate.match_boxes"]
    by_path = {r.path: r for r in records}
    assert len(spans) == len(manifest["scenes"]) == 2
    for span, entry in zip(spans, manifest["scenes"]):
        record = by_path[entry["path"]]
        assert record.n_matched > 0
        assert span.counts == {"iou_pairs": record.n_detections * record.n_gt,
                               "matched": record.n_matched}


def test_traced_model_run_counts_config_mc_samples(tmp_path):
    """``mc_draws`` of a ``--model`` run is the pipeline config's
    ``interaction.mc_samples``, not the value the model was built with."""
    gen = tmp_path / "gen"
    assert cli.main(["generate", "--template", "pedestrian-crossing", "--out", str(gen)]) == 0
    model = tmp_path / "model.bin"
    save_model(BgnnModel.initialize(InteractionConfig(embed_dim=8, mc_samples=8)), model)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"interaction": {"embed_dim": 8, "mc_samples": 3}}))
    recorder = tracer.Recorder()
    recorder.install()
    try:
        assert cli.main(["graph", "--scene", str(gen / "scene_pedestrian-crossing_0000.json"),
                         "--model", str(model), "--config", str(config),
                         "--out", str(tmp_path / "graph")]) == 0
    finally:
        recorder.uninstall()
    (span,) = [s for s in recorder.spans if s.name == "interaction.refine_objects"]
    # three rounds of a self and a neighbour layer, 8 wide, then a 3-label head
    per_draw = sum(8 * (n_in + 1) for n_in in (16, 16, 8, 8, 8, 8)) + 3 * (8 + 1)
    assert span.counts == {"mc_draws": 3, "mc_weights_sampled": 3 * per_draw}
