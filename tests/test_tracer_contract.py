"""Contract between the package and the benchmark's span recorder.

``perfbench/tracer.py`` wraps pipeline entry points by name, counts edges
with ``len(graph.edges)`` and binds ``match_boxes``'s arguments by name.
This runs one scene, and a two-scene evaluation, under the recorder, so a
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
