"""Reference implementation of the decision cascade, kept as the oracle for
``drivetrace.reasoner.decide``.

This is the cascade the package used before the rules moved to one table:
one hand-written if/else block per rule, each restating "the first passing
rule decides", an action-clause table, and an if chain of explanation
sentences.  It shares the data types of ``drivetrace.reasoner``, so its
traces compare with ``==`` and render with the same ``json_text`` and
``format_trace``.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from drivetrace.reasoner import (
    DecisionTrace,
    FactorKind,
    LeadInfo,
    ReasonerConfig,
    RiskFactor,
    SpeedDecision,
    TraceStep,
)
from drivetrace.scene import EgoState, Intent


# (rule id, action clause used by the explanation templates)
_RULES = (
    ("brake", "braking"),
    ("lane_change", "changing lane and slowing down"),
    ("occlusion", "approaching slowly"),
    ("unpredictable", "slowing down"),
    ("cautious_turn", "proceeding with caution"),
    ("follow", "following at safe distance"),
    ("speed_limit", "proceeding at speed limit"),
)


def reference_decide(factors: Sequence[RiskFactor], ego: EgoState,
                     lead: Optional[LeadInfo], cfg: ReasonerConfig) -> DecisionTrace:
    """Run the priority cascade and return the full decision trace.

    Rules, in order: (1) brake on any collision risk at or above
    brake_level; (2) lane-change + slow-down for a moderate static
    obstacle with a clear adjacent lane; (3) slow approach on occlusion;
    (4) slow down for unpredictable objects; (5) cautious turn when the
    ego intends to turn; (6) follow a lead vehicle within the follow gap;
    (7) default to the speed limit.  The first passing rule decides; every
    rule is still evaluated and recorded.  Path is LaneChange only via
    rule 2, otherwise the ego intent.
    """
    collisions = [f for f in factors if f.kind is FactorKind.COLLISION_RISK]
    occlusions = [f for f in factors if f.kind is FactorKind.OCCLUSION]
    unpredictables = [f for f in factors if f.kind is FactorKind.UNPREDICTABLE_OBJECT]

    brake_hits = [f for f in collisions if f.magnitude >= cfg.brake_level]
    lane_hits = [
        f for f in collisions
        if cfg.slow_level < f.magnitude < cfg.brake_level
        and f.evidence.get("speed", 0.0) <= cfg.static_speed
        and f.evidence.get("adjacent_clear", False)
    ]

    steps: list[TraceStep] = []
    decision: Optional[tuple[SpeedDecision, Intent]] = None
    intent_path = ego.intent

    def record(rule_id: str, passed: bool, evidence: dict[str, Any],
               conclusion: str) -> None:
        steps.append(TraceStep(len(steps) + 1, rule_id, passed, evidence, conclusion))

    def factor_ref(f: RiskFactor) -> dict[str, Any]:
        return {"factor": f.kind.value, "object_id": f.object_id,
                "magnitude": f.magnitude, **f.evidence}

    # 1: brake
    if brake_hits:
        f = max(brake_hits, key=lambda f: f.magnitude)
        record("brake", True, factor_ref(f),
               f"collision risk {f.magnitude:.3f} >= {cfg.brake_level}: Brake")
        decision = (SpeedDecision.BRAKE, intent_path)
    else:
        record("brake", False, {"max_collision_risk":
                                max((f.magnitude for f in collisions), default=0.0)},
               f"no collision risk >= {cfg.brake_level}")

    # 2: lane change around a static obstacle
    if lane_hits:
        f = max(lane_hits, key=lambda f: f.magnitude)
        record("lane_change", True, factor_ref(f),
               f"static obstacle risk {f.magnitude:.3f} in "
               f"({cfg.slow_level}, {cfg.brake_level}), adjacent lane clear: "
               "SlowDown, path LaneChange")
        if decision is None:
            decision = (SpeedDecision.SLOW_DOWN, Intent.LANE_CHANGE)
    else:
        record("lane_change", False, {"n_collision_factors": len(collisions)},
               "no moderate static corridor obstacle with clear adjacent lane")

    # 3: occlusion
    if occlusions:
        f = max(occlusions, key=lambda f: f.magnitude)
        record("occlusion", True, factor_ref(f),
               f"corridor sector {f.evidence.get('sector')} density ratio "
               f"{f.evidence.get('density_ratio'):.3f} below {cfg.occlusion_density_ratio}: "
               "SlowApproach")
        if decision is None:
            decision = (SpeedDecision.SLOW_APPROACH, intent_path)
    else:
        record("occlusion", False, {"n_occlusion_factors": 0},
               "no occluded corridor sector")

    # 4: unpredictable objects
    if unpredictables:
        f = max(unpredictables, key=lambda f: f.magnitude)
        record("unpredictable", True, factor_ref(f),
               f"object {f.object_id} uncertainty above threshold: SlowDown")
        if decision is None:
            decision = (SpeedDecision.SLOW_DOWN, intent_path)
    else:
        record("unpredictable", False, {"n_unpredictable_factors": 0},
               "no unpredictable objects")

    # 5: turning intent
    if ego.intent is Intent.TURN:
        record("cautious_turn", True, {"intent": ego.intent.value},
               "ego intends to turn: CautiousTurn")
        if decision is None:
            decision = (SpeedDecision.CAUTIOUS_TURN, intent_path)
    else:
        record("cautious_turn", False, {"intent": ego.intent.value},
               "ego not turning")

    # 6: lead vehicle
    if lead is not None and lead.distance <= cfg.follow_gap:
        record("follow", True,
               {"object_id": lead.object_id, "distance": lead.distance,
                "speed": lead.speed},
               f"lead vehicle at {lead.distance:.1f} m within follow gap: FollowAhead")
        if decision is None:
            decision = (SpeedDecision.FOLLOW_AHEAD, intent_path)
    else:
        record("follow", False,
               {"lead_distance": None if lead is None else lead.distance},
               "no lead vehicle within follow gap")

    # 7: default
    if decision is None:
        record("speed_limit", True, {"n_factors": len(factors)},
               "no hazards detected: SpeedLimit")
        decision = (SpeedDecision.SPEED_LIMIT, intent_path)
    else:
        record("speed_limit", False, {"n_factors": len(factors)},
               "higher-priority rule already decided")

    speed, path = decision
    record("decision", True,
           {"speed": speed.value, "path": path.value},
           f"Decision: {speed.value} / {path.value}")
    explanation = _render_explanation(steps)
    return DecisionTrace(tuple(steps), speed, path, explanation)


def _sentence(step: TraceStep) -> Optional[str]:
    """Explanation sentence for a passed rule: 'evidence; action.'"""
    ev = step.evidence
    action = dict(_RULES).get(step.rule_id)
    if step.rule_id == "brake":
        return (f"High risk due to nearby {ev['class'].lower()} at "
                f"{ev['min_distance']:.1f} m; {action}.")
    if step.rule_id == "lane_change":
        return (f"Moderate risk from static {ev['class'].lower()} at "
                f"{ev['min_distance']:.1f} m; {action}.")
    if step.rule_id == "occlusion":
        return (f"Low visibility in corridor between {ev['range_start']:.0f} and "
                f"{ev['range_end']:.0f} m; {action}.")
    if step.rule_id == "unpredictable":
        return (f"Unpredictable {ev['class'].lower()} with uncertainty "
                f"{ev['uncertainty']:.2f}; {action}.")
    if step.rule_id == "cautious_turn":
        return f"Turning ahead; {action}."
    if step.rule_id == "follow":
        return f"Lead vehicle at {ev['distance']:.1f} m; {action}."
    if step.rule_id == "speed_limit":
        return f"No hazards detected; {action}."
    return None


def _render_explanation(steps: Sequence[TraceStep]) -> str:
    sentences = []
    for step in steps:
        if not step.passed or step.rule_id == "decision":
            continue
        text = _sentence(step)
        if text:
            sentences.append(text)
    return " ".join(sentences)
