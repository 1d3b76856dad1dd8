"""Rule-cascade decision engine with evidence traces.

Risk factors (collision risk, occlusion, unpredictable objects) are
extracted from the assessed scene, then a fixed-priority cascade selects a
speed and path decision.  Every rule evaluation is recorded as a trace
step with its evidence, and each rule that passes adds its fixed-template
sentence to a short textual explanation.  The whole module is pure:
identical inputs produce byte-identical traces and text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from .interaction import InteractionGraph, RefinedEstimate
from .risk import ObjectAssessment, RiskTier, UncertaintyConfig
from .scene import (
    EgoState,
    Intent,
    ObjectClass,
    Scene,
    TrackedObject,
    check_object_order,
    forward_lateral,
    in_corridor,
)


class FactorKind(Enum):
    COLLISION_RISK = "CollisionRisk"
    OCCLUSION = "Occlusion"
    UNPREDICTABLE_OBJECT = "UnpredictableObject"


class SpeedDecision(Enum):
    SPEED_LIMIT = "SpeedLimit"
    FOLLOW_AHEAD = "FollowAhead"
    SLOW_DOWN = "SlowDown"
    SLOW_APPROACH = "SlowApproach"
    CAUTIOUS_TURN = "CautiousTurn"
    BRAKE = "Brake"


@dataclass(frozen=True)
class ReasonerConfig:
    """Thresholds and corridor geometry of the decision rules."""

    corridor_width: float = 3.5
    corridor_length: float = 40.0
    brake_level: float = 0.7
    slow_level: float = 0.4
    follow_gap: float = 25.0
    occlusion_sectors: int = 4
    occlusion_density_ratio: float = 0.3
    epistemic_threshold: float = 0.5
    static_speed: float = 0.5

    def __post_init__(self) -> None:
        if self.corridor_width <= 0 or self.corridor_length <= 0:
            raise ValueError("corridor dims must be > 0")
        if not (0.0 < self.slow_level < self.brake_level <= 1.0):
            raise ValueError("need 0 < slow_level < brake_level <= 1")
        if self.occlusion_sectors < 1:
            raise ValueError("occlusion_sectors must be >= 1")
        if not (0.0 < self.occlusion_density_ratio < 1.0):
            raise ValueError("occlusion_density_ratio must lie in (0, 1)")
        if not self.epistemic_threshold >= 0.0:
            raise ValueError(f"epistemic_threshold must be >= 0, got {self.epistemic_threshold!r}")


@dataclass(frozen=True)
class RiskFactor:
    """One risk the reasoner found, with its magnitude in [0, 1] and its evidence."""

    kind: FactorKind
    magnitude: float
    object_id: Optional[int] = None
    evidence: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (0.0 <= self.magnitude <= 1.0):
            raise ValueError(f"magnitude must lie in [0, 1], got {self.magnitude}")
        if self.kind in (FactorKind.COLLISION_RISK, FactorKind.UNPREDICTABLE_OBJECT) \
                and self.object_id is None:
            raise ValueError(f"{self.kind.value} factors must carry an object_id")


@dataclass(frozen=True)
class LeadInfo:
    """The vehicle the ego follows: its id, forward gap and speed."""

    object_id: int
    distance: float  # forward distance along ego heading, meters
    speed: float


@dataclass(frozen=True)
class TraceStep:
    """One rule's test in the trace: whether it passed, its evidence and its conclusion."""

    index: int
    rule_id: str
    passed: bool
    evidence: dict[str, Any]
    conclusion: str


@dataclass(frozen=True)
class DecisionTrace:
    """The rules tested in order, the speed and path decisions, and their explanation."""

    steps: tuple[TraceStep, ...]
    speed: SpeedDecision
    path: Intent
    explanation: str


def _class_name(obj: TrackedObject) -> str:
    return obj.class_dist.top_class.value


def _adjacent_clear(scene_objects: Sequence[TrackedObject], exclude_id: int,
                    ego: EgoState, cfg: ReasonerConfig) -> bool:
    """True if at least one adjacent-lane corridor is free of other objects."""
    for offset in (cfg.corridor_width, -cfg.corridor_width):
        blocked = any(
            o.id != exclude_id
            and in_corridor(o.box.center[0], o.box.center[1], ego,
                            cfg.corridor_width, cfg.corridor_length, offset)
            for o in scene_objects
        )
        if not blocked:
            return True
    return False


def _sector_densities(scene: Scene, cfg: ReasonerConfig) -> list[float]:
    """Cloud point density (points / m^2) per corridor range sector."""
    xyz = scene.cloud.xyz
    if xyz.shape[0] == 0:
        return [0.0] * cfg.occlusion_sectors
    fwd, lat = forward_lateral(xyz[:, 0], xyz[:, 1], scene.ego)
    half = cfg.corridor_width / 2.0
    sector_len = cfg.corridor_length / cfg.occlusion_sectors
    area = sector_len * cfg.corridor_width
    densities = []
    for k in range(cfg.occlusion_sectors):
        lo, hi = k * sector_len, (k + 1) * sector_len
        n = int(np.count_nonzero((fwd >= lo) & (fwd < hi) & (np.abs(lat) <= half)))
        densities.append(n / area)
    return densities


def _moving_in_corridor(objects: Sequence[TrackedObject], ego: EgoState,
                        cfg: ReasonerConfig) -> Iterator[tuple[TrackedObject, float]]:
    """Each object moving faster than ``static_speed`` with its centre in
    the ego corridor, in input order, with the forward distance of its
    centre along the ego heading."""
    for o in objects:
        cx, cy = o.box.center[0], o.box.center[1]
        if o.speed > cfg.static_speed and in_corridor(cx, cy, ego, cfg.corridor_width,
                                                      cfg.corridor_length):
            yield o, forward_lateral(cx, cy, ego)[0]


def _moving_block_distance(objects: Sequence[TrackedObject], ego: EgoState,
                           cfg: ReasonerConfig) -> Optional[float]:
    """Forward distance to the nearest moving corridor object, if any.

    Corridor sectors behind a moving object (a lead) are expected to be
    shadowed and are excluded from occlusion analysis; static occluders do
    not get this exemption.
    """
    return min((fwd - o.box.length / 2.0 for o, fwd in _moving_in_corridor(objects, ego, cfg)),
               default=None)


def extract_risk_factors(
    scene: Scene,
    objects: Sequence[TrackedObject],
    assessments: Sequence[ObjectAssessment],
    refined: Sequence[RefinedEstimate],
    cfg: ReasonerConfig,
    ucfg: UncertaintyConfig,
) -> list[RiskFactor]:
    """Evaluate collision, occlusion and unpredictability factors.

    Collision risk fires for high-tier objects inside the ego corridor,
    with the proximity risk as magnitude.  Occlusion fires for corridor
    sectors whose point density falls below the configured fraction of the
    densest sector.  Unpredictability fires for flagged objects and for
    objects whose epistemic spread exceeds its threshold.

    ``assessments`` and ``refined`` are in the order of ``objects``; the
    object factors are ordered by object id.
    """
    check_object_order(objects, assessments, "assessments")
    check_object_order(objects, refined, "refined")
    rows = sorted(zip(objects, assessments, refined, strict=True),
                  key=lambda row: row[0].id)
    factors: list[RiskFactor] = []

    for obj, a, _ in rows:
        cx, cy = obj.box.center[0], obj.box.center[1]
        if a.tier is RiskTier.HIGH and in_corridor(cx, cy, scene.ego,
                                                   cfg.corridor_width, cfg.corridor_length):
            factors.append(RiskFactor(
                kind=FactorKind.COLLISION_RISK,
                magnitude=min(a.risk, 1.0),
                object_id=a.object_id,
                evidence={"class": _class_name(obj), "min_distance": a.min_distance,
                          "risk": a.risk, "tier": a.tier.value, "speed": obj.speed,
                          "adjacent_clear": _adjacent_clear(objects, obj.id, scene.ego, cfg)},
            ))

    densities = _sector_densities(scene, cfg)
    ambient = max(densities)
    block = _moving_block_distance(objects, scene.ego, cfg)
    sector_len = cfg.corridor_length / cfg.occlusion_sectors
    if ambient > 0:
        for k, density in enumerate(densities):
            start = k * sector_len
            if block is not None and start >= block - 1.0:
                continue  # expected shadow of a lead vehicle
            ratio = density / ambient
            if ratio < cfg.occlusion_density_ratio:
                factors.append(RiskFactor(
                    kind=FactorKind.OCCLUSION,
                    magnitude=min(max(1.0 - ratio, 0.0), 1.0),
                    evidence={"sector": k, "range_start": start,
                              "range_end": start + sector_len, "density_ratio": ratio},
                ))

    for obj, a, est in rows:
        high_epistemic = max(est.epistemic_std) > cfg.epistemic_threshold
        if a.flagged or high_epistemic:
            factors.append(RiskFactor(
                kind=FactorKind.UNPREDICTABLE_OBJECT,
                magnitude=min(1.0, a.uncertainty / ucfg.threshold),
                object_id=a.object_id,
                evidence={"class": _class_name(obj), "uncertainty": a.uncertainty,
                          "flagged": a.flagged, "high_epistemic": high_epistemic,
                          "min_distance": a.min_distance},
            ))
    return factors


def find_lead(objects: Sequence[TrackedObject], ego: EgoState,
              cfg: ReasonerConfig) -> Optional[LeadInfo]:
    """Nearest moving vehicle ahead in the corridor, travelling with ego."""
    best: Optional[LeadInfo] = None
    for o, fwd in _moving_in_corridor(objects, ego, cfg):
        if o.class_dist.top_class is not ObjectClass.VEHICLE:
            continue
        vel_dir = math.atan2(o.velocity[1], o.velocity[0])
        if math.cos(vel_dir - ego.heading) <= 0:
            continue  # oncoming, not a lead
        if best is None or fwd < best.distance:
            best = LeadInfo(object_id=o.id, distance=fwd, speed=o.speed)
    return best


def _strongest(factors: list[RiskFactor]) -> Optional[RiskFactor]:
    """The factor of largest magnitude, the first of equal ones; None if none."""
    return max(factors, key=lambda f: f.magnitude) if factors else None


def _factor_ref(f: RiskFactor) -> dict[str, Any]:
    """Evidence of a step passed by ``f``: its kind, object and magnitude,
    then its own evidence."""
    return {"factor": f.kind.value, "object_id": f.object_id, "magnitude": f.magnitude,
            **f.evidence}


def decide(factors: Sequence[RiskFactor], ego: EgoState,
           lead: Optional[LeadInfo], cfg: ReasonerConfig) -> DecisionTrace:
    """Run the priority cascade and return the full decision trace.

    Rules, in order: (1) brake on any collision risk at or above
    brake_level; (2) lane-change + slow-down for a moderate static
    obstacle with a clear adjacent lane; (3) slow approach on occlusion;
    (4) slow down for unpredictable objects; (5) cautious turn when the
    ego intends to turn; (6) follow a lead vehicle within the follow gap;
    (7) keep to the speed limit when no earlier rule passes.  Every rule is
    evaluated and recorded, each that passes adds its sentence to the
    explanation, and the first that passes decides.  Path is LaneChange
    only via rule 2, otherwise the ego intent.
    """
    collisions = [f for f in factors if f.kind is FactorKind.COLLISION_RISK]
    # the strongest collision is also the strongest at or above brake_level
    strongest_collision = _strongest(collisions)
    max_collision_risk = 0.0 if strongest_collision is None else strongest_collision.magnitude
    intent = ego.intent.value
    # One row per rule: rule id, speed and path it decides, what passes it
    # (its strongest factor, else its evidence; None when skipped), its
    # conclusion from that, its sentence (ending with its action) from the
    # passed step's evidence, and its evidence and conclusion when skipped.
    rows = (
        ("brake", SpeedDecision.BRAKE, ego.intent,
         strongest_collision if max_collision_risk >= cfg.brake_level else None,
         lambda f: f"collision risk {f.magnitude:.3f} >= {cfg.brake_level}: Brake",
         lambda ev: (f"High risk due to nearby {ev['class'].lower()} at "
                     f"{ev['min_distance']:.1f} m; braking."),
         {"max_collision_risk": max_collision_risk},
         f"no collision risk >= {cfg.brake_level}"),
        ("lane_change", SpeedDecision.SLOW_DOWN, Intent.LANE_CHANGE,
         _strongest([f for f in collisions
                     if cfg.slow_level < f.magnitude < cfg.brake_level
                     and f.evidence.get("speed", 0.0) <= cfg.static_speed
                     and f.evidence.get("adjacent_clear", False)]),
         lambda f: (f"static obstacle risk {f.magnitude:.3f} in "
                    f"({cfg.slow_level}, {cfg.brake_level}), adjacent lane clear: "
                    "SlowDown, path LaneChange"),
         lambda ev: (f"Moderate risk from static {ev['class'].lower()} at "
                     f"{ev['min_distance']:.1f} m; changing lane and slowing down."),
         {"n_collision_factors": len(collisions)},
         "no moderate static corridor obstacle with clear adjacent lane"),
        ("occlusion", SpeedDecision.SLOW_APPROACH, ego.intent,
         _strongest([f for f in factors if f.kind is FactorKind.OCCLUSION]),
         lambda f: (f"corridor sector {f.evidence['sector']} density ratio "
                    f"{f.evidence['density_ratio']:.3f} below {cfg.occlusion_density_ratio}: "
                    "SlowApproach"),
         lambda ev: (f"Low visibility in corridor between {ev['range_start']:.0f} "
                     f"and {ev['range_end']:.0f} m; approaching slowly."),
         {"n_occlusion_factors": 0}, "no occluded corridor sector"),
        ("unpredictable", SpeedDecision.SLOW_DOWN, ego.intent,
         _strongest([f for f in factors if f.kind is FactorKind.UNPREDICTABLE_OBJECT]),
         lambda f: f"object {f.object_id} uncertainty above threshold: SlowDown",
         lambda ev: (f"Unpredictable {ev['class'].lower()} with uncertainty "
                     f"{ev['uncertainty']:.2f}; slowing down."),
         {"n_unpredictable_factors": 0}, "no unpredictable objects"),
        ("cautious_turn", SpeedDecision.CAUTIOUS_TURN, ego.intent,
         {"intent": intent} if ego.intent is Intent.TURN else None,
         lambda _: "ego intends to turn: CautiousTurn",
         lambda _: "Turning ahead; proceeding with caution.",
         {"intent": intent}, "ego not turning"),
        ("follow", SpeedDecision.FOLLOW_AHEAD, ego.intent,
         {"object_id": lead.object_id, "distance": lead.distance, "speed": lead.speed}
         if lead is not None and lead.distance <= cfg.follow_gap else None,
         lambda _: f"lead vehicle at {lead.distance:.1f} m within follow gap: FollowAhead",
         lambda ev: f"Lead vehicle at {ev['distance']:.1f} m; following at safe distance.",
         {"lead_distance": None if lead is None else lead.distance},
         "no lead vehicle within follow gap"),
    )
    n_factors = {"n_factors": len(factors)}
    rows += (("speed_limit", SpeedDecision.SPEED_LIMIT, ego.intent,
              None if any(row[3] is not None for row in rows) else n_factors,
              lambda _: "no hazards detected: SpeedLimit",
              lambda _: "No hazards detected; proceeding at speed limit.",
              n_factors, "higher-priority rule already decided"),)
    steps: list[TraceStep] = []
    sentences: list[str] = []
    decision = None
    for index, (rule_id, speed, path, hit, conclude, explain, skip_evidence,
                skip_conclusion) in enumerate(rows, 1):
        if hit is None:
            steps.append(TraceStep(index, rule_id, False, skip_evidence, skip_conclusion))
            continue
        evidence = _factor_ref(hit) if isinstance(hit, RiskFactor) else hit
        steps.append(TraceStep(index, rule_id, True, evidence, conclude(hit)))
        sentences.append(explain(evidence))
        if decision is None:
            decision = (speed, path)

    speed, path = decision
    speed_value, path_value = speed.value, path.value
    steps.append(TraceStep(len(steps) + 1, "decision", True,
                           {"speed": speed_value, "path": path_value},
                           f"Decision: {speed_value} / {path_value}"))
    return DecisionTrace(tuple(steps), speed, path, " ".join(sentences))


def format_trace(trace: DecisionTrace) -> str:
    """Numbered plain-text rendering of the reasoning steps."""
    lines = []
    for s in trace.steps:
        mark = "PASS" if s.passed else "skip"
        lines.append(f"{s.index:2d}. [{mark}] {s.rule_id}: {s.conclusion}")
        for k, v in s.evidence.items():
            lines.append(f"      - {k} = {v}")
    lines.append(f"speed decision: {trace.speed.value}")
    lines.append(f"path decision:  {trace.path.value}")
    lines.append(f"explanation:    {trace.explanation}")
    return "\n".join(lines)


def risk_factors_with_graph_refs(factors: Sequence[RiskFactor],
                                 graph: InteractionGraph) -> list[RiskFactor]:
    """Attach the ego-edge attention as extra evidence where available."""
    if all(f.object_id is None for f in factors):
        return list(factors)
    # the ego is the last node and the table is sorted by dst: its
    # in-edges are the tail
    rows = graph.edges[np.searchsorted(graph.edges["dst"], graph.n_nodes - 1):]
    ego_edges = {graph.node_ids[s]: (a, e)
                 for s, a, e in rows[["src", "attention", "energy"]].tolist()}
    out = []
    for f in factors:
        if f.object_id is not None and f.object_id in ego_edges:
            attention, energy = ego_edges[f.object_id]
            out.append(RiskFactor(
                f.kind, f.magnitude, f.object_id,
                {**f.evidence, "ego_edge_attention": attention, "ego_edge_energy": energy},
            ))
        else:
            out.append(f)
    return out
