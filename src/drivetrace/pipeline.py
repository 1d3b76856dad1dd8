"""End-to-end per-scene pipeline: detect, assess, graph, refine, reason.

This is the shared engine behind the CLI commands and the evaluation
harness.  Detections come only from the detector ``config.detector``
names.  All stages are pure given (scene, config, model), so scenes can
be processed concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .config import PipelineConfig
from .detector import DETECTORS
from .interaction import (
    BgnnModel,
    InteractionGraph,
    RefinedEstimate,
    build_graph,
    refine_objects,
)
from .reasoner import (
    DecisionTrace,
    RiskFactor,
    decide,
    extract_risk_factors,
    find_lead,
    risk_factors_with_graph_refs,
)
from .risk import ObjectAssessment, assess
from .scene import Scene, TrackedObject


@dataclass(frozen=True)
class SceneResult:
    """Every stage's output for one scene, ending in the decision trace."""

    detections: tuple[TrackedObject, ...]
    assessments: tuple[ObjectAssessment, ...]
    graph: InteractionGraph
    refined: tuple[RefinedEstimate, ...]
    factors: tuple[RiskFactor, ...]
    trace: DecisionTrace


def detect(scene: Scene, config: PipelineConfig) -> list[TrackedObject]:
    """Run the detector that ``config.detector`` names."""
    return DETECTORS[config.detector](scene, config)


def run_scene(scene: Scene, config: PipelineConfig,
              model: Optional[BgnnModel] = None) -> SceneResult:
    detections = detect(scene, config)
    assessments = assess(detections, scene.ego, scene.cloud,
                         config.uncertainty, config.risk)
    graph = build_graph(detections, scene.ego, config.interaction,
                        config.reasoner.static_speed)
    refined = refine_objects(detections, assessments, graph, scene.ego,
                             config.uncertainty, config.reasoner, model=model,
                             seed=config.seed)
    factors = extract_risk_factors(scene, detections, assessments, refined,
                                   config.reasoner, config.uncertainty)
    factors = risk_factors_with_graph_refs(factors, graph)
    lead = find_lead(detections, scene.ego, config.reasoner)
    trace = decide(factors, scene.ego, lead, config.reasoner)
    return SceneResult(
        detections=tuple(detections),
        assessments=tuple(assessments),
        graph=graph,
        refined=tuple(refined),
        factors=tuple(factors),
        trace=trace,
    )
