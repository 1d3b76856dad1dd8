"""Scalar reference implementation of the interaction graph and belief
refinement, kept as the oracle for the array-backed code in
``drivetrace.interaction``.

This is the per-pair loop the package used before the graph moved to an
edge table: one ``ScalarEdge`` record per directed pair within the edge
radius, keyed by node ids, a softmax over each node's in-edges, in-edge
lookups by scanning every edge, and sequential log-linear pooling per
object.

It also keeps the Monte Carlo forward pass that draws fresh weights on
every call (``mc_logits``, ``forward_mc``), the oracle for the draws that
``BgnnModel.weight_draws`` makes once per seed, and ``fuse_refine``, the
one-object form of the package's log-linear pooling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from drivetrace.interaction import (
    EGO_ID,
    PROB_FLOOR,
    BgnnModel,
    InteractionConfig,
    InteractionLabel,
    RefinedEstimate,
    _forward,
    _log_beliefs,
    _pool_beliefs,
    _sample_layers,
    _softmax,
    classify_interaction,
    graph_features,
    interaction_energy,
    refine_uncertainty,
)
from drivetrace.reasoner import ReasonerConfig
from drivetrace.risk import ObjectAssessment, UncertaintyConfig
from drivetrace.scene import (
    NUM_CLASSES,
    ClassDistribution,
    EgoState,
    ObjectClass,
    TrackedObject,
)


def mc_logits(graph, feats: np.ndarray, params, mc_samples: int, seed: int) -> np.ndarray:
    """Logits of ``mc_samples`` weight draws, shape (samples, nodes, out);
    sample s draws fresh weights from the PCG64 stream seeded with (seed, s)."""
    samples = []
    for s in range(mc_samples):
        values, _ = _sample_layers(params, np.random.default_rng([seed, s]))
        logits, _ = _forward(values, graph.attention_matrix(), feats)
        samples.append(logits)
    return np.stack(samples)


def forward_mc(graph, feats: np.ndarray, params, mc_samples: int, seed: int = 0
               ) -> tuple[np.ndarray, np.ndarray]:
    """Mean and std of the logits over ``mc_samples`` fresh weight draws."""
    if mc_samples < 1:
        raise ValueError("mc_samples must be >= 1")
    if feats.shape[0] != graph.n_nodes:
        raise ValueError(f"feature rows {feats.shape[0]} != nodes {graph.n_nodes}")
    stack = mc_logits(graph, feats, params, mc_samples, seed)
    return stack.mean(axis=0), stack.std(axis=0)


def mc_estimates(graph, feats: np.ndarray, model: BgnnModel, seed: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Per-node class-probability std and argmax label index over the
    model's ``mc_samples`` fresh draws, as ``refine_objects`` reports them."""
    probs = _softmax(mc_logits(graph, feats, model.params, model.config.mc_samples, seed))
    return probs.std(axis=0), probs.mean(axis=0).argmax(axis=1)


def fuse_refine(raw: ClassDistribution,
                neighbor_evidence: Iterable[tuple[ClassDistribution, float]]
                ) -> ClassDistribution:
    """Log-linear pooling of one raw belief with attention-weighted
    neighbor beliefs through the package's ``_pool_beliefs``:
    log q = log raw + sum_j a_j log p_j, renormalized."""
    evidence = list(neighbor_evidence)
    attention = np.array([[a for _, a in evidence]], dtype=np.float64).reshape(1, -1)
    neighbors = np.array([d.probs for d, _ in evidence]).reshape(-1, NUM_CLASSES)
    q = _pool_beliefs(_log_beliefs(raw.as_array()), attention, _log_beliefs(neighbors))
    return ClassDistribution.from_array(q[0])


@dataclass(frozen=True)
class ScalarEdge:
    src: int
    dst: int
    distance: float
    speed_diff: float
    intensity: float
    energy: float
    attention: float = 0.0


@dataclass(frozen=True)
class ScalarGraph:
    node_ids: tuple[int, ...]
    edges: tuple[ScalarEdge, ...]

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    def in_edges(self, node_id: int) -> list[ScalarEdge]:
        return [e for e in self.edges if e.dst == node_id]

    def attention_matrix(self) -> np.ndarray:
        idx = {nid: i for i, nid in enumerate(self.node_ids)}
        a = np.zeros((self.n_nodes, self.n_nodes))
        for e in self.edges:
            a[idx[e.dst], idx[e.src]] = e.attention
        return a


def _pair_factor(a: ObjectClass, b: ObjectClass) -> float:
    pair = {a, b}
    if pair == {ObjectClass.VEHICLE, ObjectClass.PEDESTRIAN}:
        return 1.0
    if pair == {ObjectClass.VEHICLE}:
        return 0.8
    return 0.5


def _intensity(src_center, dst_center, src_heading, src_class, dst_class) -> float:
    bearing = math.atan2(dst_center[1] - src_center[1], dst_center[0] - src_center[0])
    alignment = 0.5 * (1.0 + math.cos(src_heading - bearing))
    return alignment * _pair_factor(src_class, dst_class)


def _heading(obj: TrackedObject, static_speed: float) -> float:
    if obj.speed > static_speed:
        return math.atan2(obj.velocity[1], obj.velocity[0])
    return obj.box.yaw


def scalar_build_graph(objects: Sequence[TrackedObject], ego: EgoState,
                       cfg: InteractionConfig, static_speed: float) -> ScalarGraph:
    nodes = [
        (o.id, np.asarray(o.box.center), np.asarray(o.velocity), _heading(o, static_speed),
         o.class_dist.top_class)
        for o in objects
    ]
    ego_vel = ego.speed * np.array([math.cos(ego.heading), math.sin(ego.heading), 0.0])
    nodes.append((EGO_ID, np.asarray(ego.position), ego_vel, ego.heading,
                  ObjectClass.VEHICLE))
    raw_edges: list[ScalarEdge] = []
    for s_id, s_c, s_v, s_h, s_cls in nodes:
        for d_id, d_c, d_v, _, d_cls in nodes:
            if s_id == d_id:
                continue
            d = float(np.linalg.norm(s_c - d_c))
            if d > cfg.edge_radius:
                continue
            dv = float(np.linalg.norm(s_v - d_v))
            inten = _intensity(s_c, d_c, s_h, s_cls, d_cls)
            e = interaction_energy(d, dv, inten, cfg)
            raw_edges.append(ScalarEdge(s_id, d_id, d, dv, inten, e))
    edges: list[ScalarEdge] = []
    for node_id, *_ in nodes:
        incoming = [e for e in raw_edges if e.dst == node_id]
        if not incoming:
            continue
        logits = np.array([-e.energy for e in incoming])
        w = np.exp(logits - logits.max())
        w /= w.sum()
        edges.extend(replace(e, attention=float(a)) for e, a in zip(incoming, w))
    return ScalarGraph(tuple(n[0] for n in nodes), tuple(edges))


def scalar_fuse_refine(raw: ClassDistribution,
                       neighbor_evidence: Iterable[tuple[ClassDistribution, float]]
                       ) -> ClassDistribution:
    log_q = np.log(np.maximum(raw.as_array(), PROB_FLOOR))
    for dist, attention in neighbor_evidence:
        if not (0.0 <= attention <= 1.0):
            raise ValueError(f"attention must lie in [0, 1], got {attention}")
        log_q = log_q + attention * np.log(np.maximum(dist.as_array(), PROB_FLOOR))
    q = np.exp(log_q - log_q.max())
    return ClassDistribution.from_array(q)


def scalar_refine_objects(
    objects: Sequence[TrackedObject],
    assessments: Sequence[ObjectAssessment],
    graph: ScalarGraph,
    ego: EgoState,
    ucfg: UncertaintyConfig,
    rcfg: ReasonerConfig,
    model: Optional[BgnnModel] = None,
    seed: int = 0,
) -> list[RefinedEstimate]:
    by_id = {o.id: o for o in objects}
    assess_by_id = {a.object_id: a for a in assessments}
    prob_std = pred_labels = None
    if model is not None and objects:
        feats = graph_features(objects, assessments, ego)
        prob_std, pred_labels = mc_estimates(graph, feats, model, seed)
    refined = []
    for row, obj in enumerate(objects):
        evidence = [(by_id[e.src].class_dist, e.attention)
                    for e in graph.in_edges(obj.id) if e.src != EGO_ID]
        fused = scalar_fuse_refine(obj.class_dist, evidence)
        if prob_std is not None:
            eps = tuple(float(v) for v in prob_std[row])
            label = list(InteractionLabel)[int(pred_labels[row])]
        else:
            eps = (0.0,) * len(InteractionLabel)
            label = classify_interaction(obj.box.center, obj.velocity,
                                         obj.class_dist.top_class, ego, rcfg)
        refined.append(RefinedEstimate(
            obj.id, fused,
            refine_uncertainty(fused, assess_by_id[obj.id].deviation, ucfg),
            eps, label))
    return refined
