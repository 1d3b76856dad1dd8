"""Contract between the package and the benchmark's span recorder.

``perfbench/tracer.py`` wraps pipeline entry points by name and counts
edges with ``len(graph.edges)``.  This runs one scene under the recorder,
so a rename or a change of the graph type that breaks the tracer fails
here rather than only in the slow ``perfbench/test_smoke.py``.  The
recorder is only imported and installed; ``perfbench/`` is not changed.
"""

import sys
from collections import Counter
from pathlib import Path

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
