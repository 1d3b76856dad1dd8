"""In-memory span recorder that traces drivetrace from outside.

The recorder replaces module attributes (the names that ``drivetrace.cli``,
``drivetrace.evaluate`` and ``drivetrace.pipeline`` look up when they call
into another layer) with wrappers that record one span per call: name,
start, end, parent span, the scene it belongs to, the pass it ran in and
the counts measured at that boundary.  Nothing under ``src/`` changes.

Spans stay in memory until :meth:`Recorder.write` is called.  A traced
name that does not exist is an error, so a refactor that renames a layer's
entry point fails the traced run loudly instead of dropping its span.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import drivetrace.cli as cli
import drivetrace.evaluate as evaluate
import drivetrace.pipeline as pipeline

Counter = Callable[[inspect.BoundArguments, Any], dict[str, int]]


@dataclass
class Span:
    id: int
    name: str
    scene: Optional[int]
    parent: Optional[int]
    phase: str
    start_ns: int
    end_ns: int
    counts: dict[str, int] = field(default_factory=dict)


def _load_counts(args: inspect.BoundArguments, scene) -> dict[str, int]:
    path = Path(args.arguments["scene_path"])
    raw = path.read_bytes()
    cloud = path.parent / json.loads(raw)["cloud_file"]
    return {"points": len(scene.cloud), "bytes_read": len(raw) + cloud.stat().st_size}


def _match_counts(args: inspect.BoundArguments, matches) -> dict[str, int]:
    a = args.arguments
    return {"iou_pairs": len(a["predicted"]) * len(a["truth"]), "matched": len(matches)}


def _refine_counts(args: inspect.BoundArguments, _refined) -> dict[str, int]:
    model = args.arguments.get("model")
    if model is None or not args.arguments["objects"]:
        return {"mc_draws": 0, "mc_weights_sampled": 0}
    draws = model.config.mc_samples
    per_draw = sum(p.weight_means.size + p.bias_means.size for p in model.params)
    return {"mc_draws": draws, "mc_weights_sampled": draws * per_draw}


# (module, attribute, span name, scope, counter).  Scope "scene" starts a
# new scene id, "pass" clears it, "call" inherits the current one.
TRACED: tuple[tuple[Any, str, str, str, Optional[Counter]], ...] = (
    (cli, "generate", "scenario.generate", "scene", None),
    (cli, "save_scene", "scene_io.save_scene", "call", None),
    (cli, "evaluate_suite", "evaluate.evaluate_suite", "pass", None),
    (cli, "write_report", "evaluate.write_report", "pass", None),
    (evaluate, "load_scene", "scene_io.load_scene", "scene", _load_counts),
    (evaluate, "run_scene", "pipeline.run_scene", "call", None),
    (evaluate, "match_boxes", "evaluate.match_boxes", "call", _match_counts),
    (pipeline, "run_scene", "pipeline.run_scene", "call", None),
    (pipeline, "detect", "detector.detect", "call",
     lambda a, r: {"detections": len(r)}),
    (pipeline, "assess", "risk.assess", "call", lambda a, r: {"objects": len(r)}),
    (pipeline, "build_graph", "interaction.build_graph", "call",
     lambda a, r: {"edges": len(r.edges)}),
    (pipeline, "refine_objects", "interaction.refine_objects", "call", _refine_counts),
    (pipeline, "extract_risk_factors", "reasoner.factors", "call", None),
    (pipeline, "risk_factors_with_graph_refs", "reasoner.factors", "call",
     lambda a, r: {"factors": len(r)}),
    (pipeline, "find_lead", "reasoner.decide", "call", None),
    (pipeline, "decide", "reasoner.decide", "call",
     lambda a, r: {"trace_steps": len(r.steps)}),
)


class Recorder:
    """Records spans for the traced names while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self.scene: Optional[int] = None
        self._next_scene = 0
        self._next_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any, Any]] = []
        for module, attr, name, scope, counter in TRACED:
            if not hasattr(module, attr):
                raise RuntimeError(
                    f"cannot trace {module.__name__}.{attr}: the name no longer exists")
            fn = getattr(module, attr)
            self._patches.append((module, attr, fn, self._wrap(fn, name, scope, counter)))

    def begin_scene(self) -> None:
        self.scene = self._next_scene
        self._next_scene += 1

    def install(self) -> None:
        for module, attr, _, traced in self._patches:
            setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, fn, _ in self._patches:
            setattr(module, attr, fn)

    def _wrap(self, fn, name: str, scope: str, counter: Optional[Counter]):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if scope == "scene":
                self.begin_scene()
            elif scope == "pass":
                self.scene = None
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                span = Span(span_id, name, self.scene, parent, self.phase, start, end)
                self.spans.append(span)
            if counter is not None:
                span.counts = counter(signature.bind(*args, **kwargs), result)
            return result

        return traced

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    """A span's duration minus the time its direct children cover."""
    own = {s.id: s.end_ns - s.start_ns for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.end_ns - s.start_ns
    return own


def layer_metrics(spans: list[Span], eval_phases: list[str]) -> dict[str, float]:
    """Per-layer statistics over the traced evaluate passes and the setup.

    ``<name>.p50_ms`` is the median over scenes of the self time the name
    spent on one scene; ``<name>.sum_ms`` and every count are summed over a
    pass, and the median over passes is reported.
    """
    own = self_times_ns(spans)
    evaluated = set(eval_phases)
    per_scene: dict[str, dict[tuple[str, int], int]] = defaultdict(lambda: defaultdict(int))
    per_pass: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    per_call: dict[str, list[int]] = defaultdict(list)
    counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for s in spans:
        per_pass[s.name][s.phase] += own[s.id]
        if s.phase in evaluated:
            per_call[s.name].append(own[s.id])
            if s.scene is not None:
                per_scene[s.name][(s.phase, s.scene)] += own[s.id]
        for key, n in s.counts.items():
            counts[key][s.phase] += n

    def p50_ms(name: str) -> float:
        return statistics.median(per_scene[name].values()) / 1e6

    def pass_median(table: dict[str, int]) -> float:
        return statistics.median(table.get(p, 0) for p in eval_phases)

    def sum_ms(name: str) -> float:
        return pass_median(per_pass[name]) / 1e6

    out: dict[str, float] = {
        "scene_io.load_scene.p50_ms": p50_ms("scene_io.load_scene"),
        "scene_io.load_scene.sum_ms": sum_ms("scene_io.load_scene"),
        "scene_io.points": pass_median(counts["points"]),
        "scene_io.bytes_read": pass_median(counts["bytes_read"]),
        "scene_io.save_scene.sum_ms": per_pass["scene_io.save_scene"]["setup"] / 1e6,
        "scenario.generate.sum_ms": per_pass["scenario.generate"]["setup"] / 1e6,
        "detector.detect.p50_ms": p50_ms("detector.detect"),
        "detector.detect.sum_ms": sum_ms("detector.detect"),
        "detector.detections": pass_median(counts["detections"]),
        "evaluate.match_boxes.p50_ms": p50_ms("evaluate.match_boxes"),
        "evaluate.match_boxes.sum_ms": sum_ms("evaluate.match_boxes"),
        "evaluate.iou_pairs": pass_median(counts["iou_pairs"]),
        "risk.assess.p50_ms": p50_ms("risk.assess"),
        "risk.assess.sum_ms": sum_ms("risk.assess"),
        "risk.objects": pass_median(counts["objects"]),
        "interaction.build_graph.p50_ms": p50_ms("interaction.build_graph"),
        "interaction.build_graph.sum_ms": sum_ms("interaction.build_graph"),
        "interaction.edges": pass_median(counts["edges"]),
        "interaction.refine_objects.p50_ms": p50_ms("interaction.refine_objects"),
        "interaction.refine_objects.sum_ms": sum_ms("interaction.refine_objects"),
        "interaction.mc_draws": pass_median(counts["mc_draws"]),
        "interaction.mc_weights_sampled": pass_median(counts["mc_weights_sampled"]),
        "reasoner.factors.p50_ms": p50_ms("reasoner.factors"),
        "reasoner.decide.p50_ms": p50_ms("reasoner.decide"),
        "reasoner.factors": pass_median(counts["factors"]),
        "reasoner.trace_steps": pass_median(counts["trace_steps"]),
        "pipeline.run_scene.self_p50_ms": p50_ms("pipeline.run_scene"),
        # per call: a pass writes the reports twice (evaluate, report --csv)
        "evaluate.write_report.ms": statistics.median(per_call["evaluate.write_report"]) / 1e6,
    }
    detections = [counts["detections"].get(p, 0) for p in eval_phases]
    matched = [counts["matched"].get(p, 0) for p in eval_phases]
    out["detector.precision"] = statistics.median(
        m / d if d else 1.0 for m, d in zip(matched, detections))
    return out
