"""Risk-factor extraction, the decision cascade, and explanations."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drivetrace.config import PipelineConfig, config_from_dict
from drivetrace.interaction import (
    EGO_ID,
    InteractionConfig,
    InteractionLabel,
    build_graph,
    refine_objects,
)
from drivetrace.pipeline import run_scene
from drivetrace.reasoner import (
    DecisionTrace,
    FactorKind,
    LeadInfo,
    ReasonerConfig,
    RiskFactor,
    SpeedDecision,
    decide,
    extract_risk_factors,
    find_lead,
    format_trace,
    risk_factors_with_graph_refs,
)
from drivetrace.risk import RiskConfig, UncertaintyConfig, assess
from drivetrace.scenario import ScenarioSpec, Template, generate
from drivetrace.scene import EgoState, Intent, PointCloud, Scene
from drivetrace.scene_io import json_text
from conftest import make_object
from interaction_oracle import scalar_build_graph
from reasoner_oracle import reference_decide

CFG = ReasonerConfig()
UCFG = UncertaintyConfig()
EGO = EgoState(heading=0.0, speed=8.0, intent=Intent.STRAIGHT)


def collision(magnitude, object_id=0, *, speed=0.0, adjacent_clear=True,
              cls="Vehicle", d=8.0):
    return RiskFactor(
        kind=FactorKind.COLLISION_RISK,
        magnitude=magnitude,
        object_id=object_id,
        evidence={"class": cls, "min_distance": d, "risk": magnitude,
                  "tier": "High", "speed": speed, "adjacent_clear": adjacent_clear},
    )


def occlusion(ratio=0.1, sector=2):
    return RiskFactor(
        kind=FactorKind.OCCLUSION,
        magnitude=1.0 - ratio,
        evidence={"sector": sector, "range_start": 20.0, "range_end": 30.0,
                  "density_ratio": ratio},
    )


def unpredictable(u=0.9, object_id=1, cls="Cyclist"):
    return RiskFactor(
        kind=FactorKind.UNPREDICTABLE_OBJECT,
        magnitude=min(1.0, u / 0.8),
        object_id=object_id,
        evidence={"class": cls, "uncertainty": u, "flagged": True,
                  "high_epistemic": False, "min_distance": 12.0},
    )


class TestCascade:
    def test_empty_speed_limit(self):
        trace = decide([], EGO, None, CFG)
        assert trace.speed is SpeedDecision.SPEED_LIMIT
        assert trace.path is Intent.STRAIGHT
        assert trace.explanation == "No hazards detected; proceeding at speed limit."

    def test_brake_dominates_everything(self):
        factors = [collision(0.9, cls="Pedestrian", d=5.0), occlusion(), unpredictable()]
        trace = decide(factors, EGO, LeadInfo(9, 12.0, 8.0), CFG)
        assert trace.speed is SpeedDecision.BRAKE

    def test_lane_change_static_moderate(self):
        trace = decide([collision(0.65, speed=0.0, adjacent_clear=True)], EGO, None, CFG)
        assert trace.speed is SpeedDecision.SLOW_DOWN
        assert trace.path is Intent.LANE_CHANGE

    def test_lane_change_requires_clear_adjacent(self):
        trace = decide([collision(0.65, adjacent_clear=False)], EGO, None, CFG)
        assert trace.speed is not SpeedDecision.SLOW_DOWN or \
            trace.path is not Intent.LANE_CHANGE

    def test_lane_change_requires_static(self):
        trace = decide([collision(0.65, speed=5.0)], EGO, None, CFG)
        assert trace.path is not Intent.LANE_CHANGE

    def test_occlusion_slow_approach(self):
        trace = decide([occlusion()], EGO, None, CFG)
        assert trace.speed is SpeedDecision.SLOW_APPROACH

    def test_occlusion_outranks_lead(self):
        trace = decide([occlusion()], EGO, LeadInfo(3, 15.0, 8.0), CFG)
        assert trace.speed is SpeedDecision.SLOW_APPROACH

    def test_unpredictable_slow_down(self):
        trace = decide([unpredictable()], EGO, None, CFG)
        assert trace.speed is SpeedDecision.SLOW_DOWN
        assert trace.path is Intent.STRAIGHT

    def test_cautious_turn(self):
        ego = EgoState(heading=0.0, speed=5.0, intent=Intent.TURN)
        trace = decide([], ego, None, CFG)
        assert trace.speed is SpeedDecision.CAUTIOUS_TURN
        assert trace.path is Intent.TURN

    def test_follow_ahead(self):
        trace = decide([], EGO, LeadInfo(4, 18.0, 8.0), CFG)
        assert trace.speed is SpeedDecision.FOLLOW_AHEAD

    def test_lead_beyond_gap_ignored(self):
        trace = decide([], EGO, LeadInfo(4, 30.0, 8.0), CFG)
        assert trace.speed is SpeedDecision.SPEED_LIMIT

    def test_pure_function(self):
        factors = [collision(0.72), occlusion(0.2, 3)]
        a = decide(factors, EGO, None, CFG)
        b = decide(factors, EGO, None, CFG)
        assert a == b

    def test_brake_absorbing_monotone(self, rng):
        # adding a brake-level collision factor never softens the decision
        pool = [collision(0.55), occlusion(), unpredictable(),
                collision(0.45, object_id=7, speed=3.0)]
        for _ in range(20):
            subset = [f for f in pool if rng.uniform() < 0.5]
            lead = LeadInfo(5, 15.0, 8.0) if rng.uniform() < 0.5 else None
            with_brake = decide(subset + [collision(0.95, object_id=99)], EGO, lead, CFG)
            assert with_brake.speed is SpeedDecision.BRAKE

    def test_totality(self, rng):
        pool = [collision(0.72), collision(0.55), occlusion(), unpredictable()]
        for intent in Intent:
            ego = EgoState(heading=0.0, speed=8.0, intent=intent)
            for _ in range(10):
                subset = [f for f in pool if rng.uniform() < 0.5]
                trace = decide(subset, ego, None, CFG)
                assert isinstance(trace.speed, SpeedDecision)
                assert isinstance(trace.path, Intent)

    def test_trace_structure(self):
        trace = decide([collision(0.9, cls="Pedestrian", d=5.0)], EGO, None, CFG)
        rule_ids = [s.rule_id for s in trace.steps]
        assert rule_ids == ["brake", "lane_change", "occlusion", "unpredictable",
                            "cautious_turn", "follow", "speed_limit", "decision"]
        assert [s.index for s in trace.steps] == list(range(1, 9))
        # final step names the chosen speed decision
        assert trace.speed.value in trace.steps[-1].conclusion
        # every step carries at least one evidence item
        assert all(len(s.evidence) >= 1 for s in trace.steps)


def _near(value, lo=0.0, hi=1.0):
    """``value`` and its two float neighbours that lie in [lo, hi]."""
    return [v for v in (math.nextafter(value, -math.inf), value,
                        math.nextafter(value, math.inf)) if lo <= v <= hi]


@st.composite
def cascade_inputs(draw):
    """Factors, ego, lead and config for one decide call.  Magnitudes,
    speeds and lead distances are often exactly at (or one float from) the
    config's thresholds, and are drawn from a few values so that ties are
    common."""
    slow = draw(st.floats(0.05, 0.9))
    brake = draw(st.floats(slow, 1.0, exclude_min=True))
    cfg = ReasonerConfig(
        slow_level=slow, brake_level=brake,
        follow_gap=draw(st.sampled_from([0.0, 10.0, 25.0])),
        static_speed=draw(st.sampled_from([0.0, 0.5, 2.0])),
        occlusion_density_ratio=draw(st.sampled_from([0.1, 0.3, 0.9])))
    magnitude = st.one_of(
        st.sampled_from(sum((_near(v) for v in (0.0, slow, brake, 1.0)), [])),
        st.floats(0.0, 1.0))
    speed = st.one_of(st.sampled_from(_near(cfg.static_speed, hi=30.0)), st.floats(0.0, 30.0))
    value = st.floats(0.0, 60.0)
    cls = st.sampled_from(["Vehicle", "Pedestrian", "Cyclist", "Unknown"])
    graph_refs = st.one_of(st.just({}), st.builds(
        lambda a, e: {"ego_edge_attention": a, "ego_edge_energy": e},
        st.floats(0.0, 1.0), st.floats(-5.0, 5.0)))
    object_id = st.integers(0, 5)

    collision = st.builds(
        lambda m, i, c, d, v, clear, refs: RiskFactor(
            FactorKind.COLLISION_RISK, m, i,
            {"class": c, "min_distance": d, "risk": m, "tier": "High",
             "speed": v, "adjacent_clear": clear, **refs}),
        magnitude, object_id, cls, value, speed, st.booleans(), graph_refs)
    occlusion = st.builds(
        lambda m, k, start, ratio: RiskFactor(
            FactorKind.OCCLUSION, m, None,
            {"sector": k, "range_start": start, "range_end": start + 10.0,
             "density_ratio": ratio}),
        magnitude, st.integers(0, 3), value, st.floats(0.0, 1.0))
    unpredictable = st.builds(
        lambda m, i, c, u, flagged, d, refs: RiskFactor(
            FactorKind.UNPREDICTABLE_OBJECT, m, i,
            {"class": c, "uncertainty": u, "flagged": flagged,
             "high_epistemic": not flagged, "min_distance": d, **refs}),
        magnitude, object_id, cls, st.floats(0.0, 2.0), st.booleans(), value, graph_refs)

    factors = draw(st.lists(st.one_of(collision, occlusion, unpredictable), max_size=6))
    ego = EgoState(heading=0.0, speed=8.0, intent=draw(st.sampled_from(Intent)))
    lead = draw(st.one_of(st.none(), st.builds(
        LeadInfo, object_id, st.one_of(st.sampled_from(_near(cfg.follow_gap, hi=60.0)), value),
        speed)))
    return factors, ego, lead, cfg


class TestReferenceCascade:
    """The rule table against the hand-unrolled cascade it replaced, kept in
    ``tests/reasoner_oracle.py``: the same JSON and text, byte for byte."""

    @settings(max_examples=400, deadline=None)
    @given(cascade_inputs())
    def test_same_trace_as_reference(self, inputs):
        got, want = decide(*inputs), reference_decide(*inputs)
        assert json_text(got) == json_text(want)
        assert format_trace(got) == format_trace(want)


class TestExplain:
    def test_brake_template_exact(self):
        trace = decide([collision(0.9, cls="Pedestrian", d=5.0)], EGO, None, CFG)
        assert trace.explanation == "High risk due to nearby pedestrian at 5.0 m; braking."

    def test_speed_limit_template_exact(self):
        trace = decide([], EGO, None, CFG)
        assert trace.explanation == "No hazards detected; proceeding at speed limit."

    def test_two_fired_rules_two_sentences_in_order(self):
        trace = decide([occlusion()], EGO, LeadInfo(4, 18.0, 8.0), CFG)
        assert trace.explanation == (
            "Low visibility in corridor between 20 and 30 m; approaching slowly. "
            "Lead vehicle at 18.0 m; following at safe distance.")

    def test_follow_template(self):
        trace = decide([], EGO, LeadInfo(4, 18.25, 8.0), CFG)
        assert trace.explanation == "Lead vehicle at 18.2 m; following at safe distance."

    def test_byte_identical(self):
        factors = [collision(0.9, cls="Pedestrian", d=5.0), unpredictable()]
        a = decide(factors, EGO, None, CFG).explanation
        b = decide(factors, EGO, None, CFG).explanation
        assert a == b


class TestExtractFactors:
    ICFG = InteractionConfig()

    def scene_factors(self, template, seed=0):
        scene = generate(ScenarioSpec(template=template, seed=seed))
        result = run_scene(scene, PipelineConfig())
        return result

    def test_empty_road_no_factors(self):
        result = self.scene_factors(Template.EMPTY_ROAD)
        assert result.factors == ()

    def test_pedestrian_magnitude_is_risk(self):
        result = self.scene_factors(Template.PEDESTRIAN_CROSSING, seed=3)
        hits = [f for f in result.factors if f.kind is FactorKind.COLLISION_RISK]
        assert len(hits) == 1
        a = result.assessments[0]
        assert hits[0].magnitude == pytest.approx(a.risk)
        assert hits[0].magnitude == pytest.approx(math.exp(-a.min_distance / 20.0))

    def test_corridor_gate_blocks_near_object(self):
        # tier-High object right beside the ego but outside the corridor
        obj = make_object(0, (0.5, 3.0, 0.0), dims=(0.5, 0.5, 1.7), support=(0,))
        cloud = PointCloud(np.array([[0.5, 3.0, 0.5, 1.0]]))
        ego = EgoState(speed=8.0)
        scene = generate(ScenarioSpec(template=Template.EMPTY_ROAD, seed=0))
        scene = scene.with_objects([obj])
        scene = type(scene)(scene.timestamp, ego, cloud, scene.objects, None)
        assessments = assess(scene.objects, ego, cloud, UncertaintyConfig(), RiskConfig())
        assert assessments[0].tier.value == "High"  # would be a High-tier risk...
        graph = build_graph(scene.objects, ego, self.ICFG, CFG.static_speed)
        refined = refine_objects(scene.objects, assessments, graph, ego, UCFG, CFG)
        factors = extract_risk_factors(scene, assessments, refined, CFG, UCFG)
        # ...but the corridor gate keeps CollisionRisk out
        assert not any(f.kind is FactorKind.COLLISION_RISK for f in factors)

    def test_occluded_junction_fires_occlusion(self):
        result = self.scene_factors(Template.OCCLUDED_JUNCTION, seed=1)
        occ = [f for f in result.factors if f.kind is FactorKind.OCCLUSION]
        assert occ, "occluded sectors behind the static obstacle must fire"
        for f in occ:
            assert f.evidence["density_ratio"] < CFG.occlusion_density_ratio

    def test_lead_shadow_not_occlusion(self):
        result = self.scene_factors(Template.LEAD_VEHICLE, seed=2)
        assert not any(f.kind is FactorKind.OCCLUSION for f in result.factors)

    def test_flagged_object_unpredictable(self):
        cloud = PointCloud(np.array([[12.0, 0.0, 0.5, 1.0]]))
        ego = EgoState(speed=8.0)
        obj = make_object(0, (12, 0, 0), yaw=3.0, probs=(0.25,) * 4, support=(0,))
        scene = generate(ScenarioSpec(template=Template.EMPTY_ROAD, seed=0))
        scene = type(scene)(scene.timestamp, ego, cloud, (obj,), None)
        assessments = assess(scene.objects, ego, cloud, UncertaintyConfig(), RiskConfig())
        assert assessments[0].flagged
        graph = build_graph(scene.objects, ego, self.ICFG, CFG.static_speed)
        refined = refine_objects(scene.objects, assessments, graph, ego, UCFG, CFG)
        factors = extract_risk_factors(scene, assessments, refined, CFG, UCFG)
        unp = [f for f in factors if f.kind is FactorKind.UNPREDICTABLE_OBJECT]
        assert len(unp) == 1
        assert unp[0].magnitude == pytest.approx(
            min(1.0, assessments[0].uncertainty / UCFG.threshold))

    @pytest.mark.parametrize("reordered", ["assessments", "refined"])
    def test_records_in_another_order_rejected(self, reordered):
        """Factors pair each object with the assessment and the refined
        estimate at its position, so either list in another order is
        refused rather than mixed up."""
        ego = EgoState(speed=8.0)
        objs = (make_object(0, (6, 0, 0), support=(0,)),
                make_object(1, (30, 8, 0), yaw=3.0, probs=(0.25,) * 4, support=(1,)))
        cloud = PointCloud(np.array([[6.0, 0.0, 0.5, 1.0], [30.0, 8.0, 0.5, 1.0]]))
        scene = Scene(0.0, ego, cloud, objs)
        records = {"assessments": assess(objs, ego, cloud, UCFG, RiskConfig())}
        graph = build_graph(objs, ego, self.ICFG, CFG.static_speed)
        records["refined"] = refine_objects(objs, records["assessments"], graph, ego, UCFG, CFG)
        records[reordered] = records[reordered][::-1]
        with pytest.raises(ValueError, match=rf"{reordered}\[0\] is for object 1, "
                                             r"but objects\[0\] has id 0"):
            extract_risk_factors(scene, records["assessments"], records["refined"], CFG, UCFG)

    def test_ego_edge_evidence(self):
        ego = EgoState(speed=8.0)
        objs = [make_object(0, (8, 0.5, 0), velocity=(3, 0, 0)),
                make_object(1, (60, 0, 0)),  # beyond edge_radius of the ego
                make_object(2, (5, -3, 0), yaw=1.0)]
        factors = [collision(0.9, object_id=0), occlusion(),
                   unpredictable(object_id=1), unpredictable(object_id=2)]
        graph = build_graph(objs, ego, self.ICFG, CFG.static_speed)
        out = risk_factors_with_graph_refs(factors, graph)
        ref = scalar_build_graph(objs, ego, self.ICFG, CFG.static_speed)
        assert out[1] == factors[1] and out[2] == factors[2]
        for f, new in ((factors[0], out[0]), (factors[3], out[3])):
            e = next(e for e in ref.edges if e.src == f.object_id and e.dst == EGO_ID)
            assert list(new.evidence.items())[:-2] == list(f.evidence.items())
            assert list(new.evidence)[-2:] == ["ego_edge_attention", "ego_edge_energy"]
            for key, expected in (("ego_edge_attention", e.attention),
                                  ("ego_edge_energy", e.energy)):
                assert type(new.evidence[key]) is float
                assert new.evidence[key] == pytest.approx(expected, rel=0, abs=1e-12)


class TestLead:
    def test_finds_nearest_corridor_vehicle(self):
        objs = [
            make_object(0, (30, 0, 0), velocity=(8, 0, 0)),
            make_object(1, (15, 0.5, 0), velocity=(7, 0, 0)),
            make_object(2, (10, 5, 0), velocity=(8, 0, 0)),  # adjacent lane
        ]
        lead = find_lead(objs, EGO, CFG)
        assert lead is not None and lead.object_id == 1

    def test_static_vehicle_not_lead(self):
        objs = [make_object(0, (12, 0, 0), velocity=(0, 0, 0))]
        assert find_lead(objs, EGO, CFG) is None

    def test_oncoming_not_lead(self):
        objs = [make_object(0, (20, 0, 0), velocity=(-8, 0, 0))]
        assert find_lead(objs, EGO, CFG) is None

    def test_pedestrian_not_lead(self):
        from drivetrace.scene import ObjectClass
        objs = [make_object(0, (12, 0, 0), velocity=(2, 0, 0),
                            label=ObjectClass.PEDESTRIAN)]
        assert find_lead(objs, EGO, CFG) is None


class TestTraceOutput:
    def test_json_round_trip_fields(self):
        trace = decide([collision(0.9, cls="Pedestrian", d=5.0)], EGO, None, CFG)
        d = json.loads(json_text(trace))
        assert d["speed"] == "Brake"
        assert d["path"] == "Straight"
        assert d["explanation"] == trace.explanation
        assert len(d["steps"]) == len(trace.steps)
        assert d["steps"][0]["evidence"]["class"] == "Pedestrian"

    def test_format_trace_mentions_rules(self):
        trace = decide([], EGO, None, CFG)
        text = format_trace(trace)
        for rule in ("brake", "occlusion", "speed_limit"):
            assert rule in text
        assert "SpeedLimit" in text


    def test_format_trace_keeps_evidence_order(self):
        """A passed step lists the factor's kind, object and magnitude, then
        its evidence in the order the rule recorded it."""
        trace = decide([collision(0.9, cls="Pedestrian", d=5.0)], EGO, None, CFG)
        lines = format_trace(trace).splitlines()
        assert lines[0].startswith(" 1. [PASS] brake: ")
        assert [line.split(" = ")[0].strip(" -") for line in lines[1:11]] == [
            "factor", "object_id", "magnitude", "class", "min_distance", "risk", "tier",
            "speed", "adjacent_clear", "2. [skip] lane_change: no moderate static corridor "
            "obstacle with clear adjacent lane"]


class TestReasonerConfigReach:
    """The corridor and the moving-speed threshold of ReasonerConfig reach
    the interaction labels as well as the decision rules."""

    def run(self, obj, **reasoner):
        scene = Scene(timestamp=0.0, ego=EgoState(speed=8.0), cloud=PointCloud(),
                      objects=(obj,))
        return run_scene(scene, config_from_dict({"reasoner": reasoner}))

    def test_wide_corridor_lead_is_followed(self):
        result = self.run(make_object(0, (15, 3, 0), velocity=(8, 0, 0)), corridor_width=8.0)
        assert result.trace.speed is SpeedDecision.FOLLOW_AHEAD
        assert result.refined[0].interaction_label is InteractionLabel.FOLLOW

    def test_static_speed_threshold_labels_yield(self):
        obj = make_object(0, (15, 0, 0), velocity=(7.6, 0, 0))  # closing at 0.4 m/s
        assert self.run(obj).refined[0].interaction_label is InteractionLabel.FOLLOW
        result = self.run(obj, static_speed=0.2)
        assert result.refined[0].interaction_label is InteractionLabel.YIELD
