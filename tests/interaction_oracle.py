"""Scalar reference implementation of the interaction graph and belief
refinement, kept as the oracle for the array-backed code in
``drivetrace.interaction``.

This is the per-pair loop the package used before the graph moved to an
edge table: one ``ScalarEdge`` record per directed pair within the edge
radius, keyed by node ids, a softmax over each node's in-edges, in-edge
lookups by scanning every edge, and sequential log-linear pooling per
object.

It also keeps the oracles for the array passes of ``classify_interaction``
and ``refine_objects``: the per-object kinematic rule
(``scalar_classify_interaction``), the refined uncertainty of one belief
(``refine_uncertainty``) and the per-object refinement on the package's
graph (``per_object_refine_objects``).  And it keeps the Monte Carlo
forward pass as the package ran it before its weight draws were stacked:
one 2-D forward per draw (``per_draw_forward``) on weights drawn fresh,
one draw at a time, from each draw's stream (``sample_layers``), on
every call (``mc_logits``, ``forward_mc``), the oracle for the stacked
draws that ``BgnnModel.weight_draws`` makes once per seed and the one
batched forward that ``refine_objects`` runs on them.  The ELBO as the
package computed it on those per-draw weights, with a forward and a
backward pass per draw and graph (``per_draw_elbo_loss``), is the oracle
for the one stacked pass per graph of ``elbo_loss``.  Last,
``fuse_refine`` is the one-object form of the package's log-linear pooling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from drivetrace.interaction import (
    EGO_ID,
    PROB_FLOOR,
    BayesianLayer,
    BgnnModel,
    ElboTerms,
    InteractionConfig,
    InteractionGraph,
    InteractionLabel,
    RefinedEstimate,
    _log_beliefs,
    _pool_beliefs,
    _ego_velocity,
    _softmax,
    graph_features,
    interaction_energy,
)
from drivetrace.reasoner import ReasonerConfig
from drivetrace.risk import ObjectAssessment, UncertaintyConfig, combined_uncertainty
from drivetrace.scene import (
    NUM_CLASSES,
    ClassDistribution,
    EgoState,
    ObjectClass,
    TrackedObject,
    in_corridor,
)
from risk_oracle import shannon_entropy


def scalar_classify_interaction(center: Sequence[float], velocity: Sequence[float],
                                top_class: ObjectClass, ego: EgoState,
                                cfg: ReasonerConfig) -> InteractionLabel:
    """Kinematic interaction rule for one object over the ego corridor."""
    if not in_corridor(center[0], center[1], ego, cfg.corridor_width, cfg.corridor_length):
        return InteractionLabel.IGNORE
    rel_v = np.asarray(velocity, dtype=np.float64) - _ego_velocity(ego)
    pos = np.asarray(center, dtype=np.float64)
    dist = float(np.linalg.norm(pos))
    closing = 0.0 if dist == 0 else float(-(pos @ rel_v) / dist)
    if top_class is ObjectClass.PEDESTRIAN or closing > cfg.static_speed:
        return InteractionLabel.YIELD
    if top_class is ObjectClass.VEHICLE:
        return InteractionLabel.FOLLOW
    return InteractionLabel.IGNORE


def refine_uncertainty(fused: ClassDistribution, deviation: float,
                       cfg: UncertaintyConfig) -> float:
    """The combined uncertainty of one fused belief; the deviation
    component is left unchanged."""
    return combined_uncertainty(shannon_entropy(fused), deviation, cfg)


def per_object_refine_objects(
    objects: Sequence[TrackedObject],
    assessments: Sequence[ObjectAssessment],
    graph: InteractionGraph,
    ego: EgoState,
    ucfg: UncertaintyConfig,
    rcfg: ReasonerConfig,
    model: Optional[BgnnModel] = None,
    seed: int = 0,
) -> list[RefinedEstimate]:
    """``refine_objects`` as the package ran it before its array passes:
    the log-linear pooling of every belief in one product, left
    unnormalized, then per object a validated ``ClassDistribution.from_array``,
    the scalar entropy and the scalar kinematic rule."""
    n = len(objects)
    if n == 0:
        return []
    assess_by_id = {a.object_id: a for a in assessments}
    log_p = _log_beliefs(np.array([o.class_dist.probs for o in objects]))
    log_q = log_p + graph.attention_matrix()[:n, :n] @ log_p
    fused = np.exp(log_q - log_q.max(axis=-1, keepdims=True))
    labels = list(InteractionLabel)
    if model is not None:
        prob_std, pred_labels = mc_estimates(
            graph, graph_features(objects, assessments, ego), model, seed)
    refined = []
    for row, obj in enumerate(objects):
        dist = ClassDistribution.from_array(fused[row])
        if model is not None:
            eps = tuple(prob_std[row].tolist())
            label = labels[int(pred_labels[row])]
        else:
            eps = (0.0,) * len(labels)
            label = scalar_classify_interaction(obj.box.center, obj.velocity,
                                                obj.class_dist.top_class, ego, rcfg)
        refined.append(RefinedEstimate(
            obj.id, dist.probs, refine_uncertainty(dist, assess_by_id[obj.id].deviation, ucfg),
            eps, label))
    return refined


def sample_layers(params: Sequence[BayesianLayer], rng: np.random.Generator
                  ) -> tuple[list[list[np.ndarray]], list[list[np.ndarray]]]:
    """Draw (weights, biases) per layer via w = mu + sigma * eps.
    Returns ([W, b] per layer, [epsW, epsb] per layer)."""
    values, epsilons = [], []
    for layer in params:
        eps_w = rng.standard_normal(layer.weight_means.shape)
        eps_b = rng.standard_normal(layer.bias_means.shape)
        w = layer.weight_means + np.exp(layer.weight_log_stds) * eps_w
        b = layer.bias_means + np.exp(layer.bias_log_stds) * eps_b
        values.append([w, b])
        epsilons.append([eps_w, eps_b])
    return values, epsilons


def per_draw_forward(values: Sequence[Sequence[np.ndarray]], attention: np.ndarray,
                     feats: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The logits of message passing with one draw, a [W, b] pair of 2-D
    and 1-D arrays per layer: [self_0, nbr_0, ..., head], and the
    per-round activations [H_0, ..., H_L] (H_0 = inputs)."""
    h = feats
    activations = [h]
    for r in range((len(values) - 1) // 2):
        w_self, b_self = values[2 * r]
        w_nbr, b_nbr = values[2 * r + 1]
        msg = h @ w_nbr.T + b_nbr
        z = h @ w_self.T + b_self + attention @ msg
        h = np.tanh(z)
        activations.append(h)
    w_head, b_head = values[-1]
    return h @ w_head.T + b_head, activations


def mc_logits(graph, feats: np.ndarray, params, mc_samples: int, seed: int) -> np.ndarray:
    """Logits of ``mc_samples`` weight draws, shape (samples, nodes, out);
    sample s draws fresh weights from the PCG64 stream seeded with (seed, s)
    and runs its own ``per_draw_forward``."""
    samples = []
    for s in range(mc_samples):
        values, _ = sample_layers(params, np.random.default_rng([seed, s]))
        samples.append(per_draw_forward(values, graph.attention_matrix(), feats)[0])
    return np.stack(samples)


def layer_kl_to_prior(params: Sequence[BayesianLayer], prior_std: float) -> float:
    """Closed-form KL(q || N(0, prior_std^2)) summed over all parameters,
    layer by layer, weights before biases."""
    total = 0.0
    for layer in params:
        for mu, log_std in ((layer.weight_means, layer.weight_log_stds),
                            (layer.bias_means, layer.bias_log_stds)):
            var = np.exp(2.0 * log_std)
            total += float(np.sum(
                math.log(prior_std) - log_std
                + (var + mu ** 2) / (2.0 * prior_std ** 2) - 0.5
            ))
    return total


def per_draw_elbo_loss(
    params: Sequence[BayesianLayer],
    batch: Sequence[tuple[InteractionGraph, np.ndarray, np.ndarray]],
    seed: int,
    prior_std: float,
    mc_samples: int,
) -> tuple[ElboTerms, list[BayesianLayer]]:
    """``elbo_loss`` as the package ran it before its draws were stacked:
    per draw s, fresh weights from the stream (seed, s), then a 2-D forward
    and backward pass per graph, and the draw's gradients mapped onto
    (mu, log_std) before the next draw."""
    kl_weight = 1.0 / len(batch)
    grads = [BayesianLayer(*(np.zeros_like(a) for a in layer.arrays())) for layer in params]
    n_graphs = len(batch)
    ce_total = 0.0
    prepared = [(g.attention_matrix(), feats, labels) for g, feats, labels in batch]
    for s in range(mc_samples):
        rng = np.random.default_rng([seed, s])
        values, epsilons = sample_layers(params, rng)
        raw = [[np.zeros_like(w), np.zeros_like(b)] for w, b in values]
        for attention, feats, labels in prepared:
            logits, activations = per_draw_forward(values, attention, feats)
            mask = labels >= 0
            n_labeled = int(mask.sum())
            if n_labeled == 0:
                continue
            probs = _softmax(logits)
            labeled = np.nonzero(mask)[0]
            picked = probs[labeled, labels[labeled]]
            ce_total += float(-np.log(np.maximum(picked, 1e-300)).sum()) / n_labeled / n_graphs
            d_logits = probs.copy()
            d_logits[labeled, labels[labeled]] -= 1.0
            d_logits[~mask] = 0.0
            d_logits /= n_labeled * n_graphs
            # head
            w_head, _ = values[-1]
            h_top = activations[-1]
            raw[-1][0] += d_logits.T @ h_top
            raw[-1][1] += d_logits.sum(axis=0)
            d_h = d_logits @ w_head
            # message-passing rounds, top down
            for r in range((len(values) - 1) // 2 - 1, -1, -1):
                h_out = activations[r + 1]
                h_in = activations[r]
                d_z = d_h * (1.0 - h_out ** 2)
                d_msg = attention.T @ d_z
                w_self, _ = values[2 * r]
                w_nbr, _ = values[2 * r + 1]
                raw[2 * r][0] += d_z.T @ h_in
                raw[2 * r][1] += d_z.sum(axis=0)
                raw[2 * r + 1][0] += d_msg.T @ h_in
                raw[2 * r + 1][1] += d_msg.sum(axis=0)
                d_h = d_z @ w_self + d_msg @ w_nbr
        # map raw weight grads onto (mu, log_std) via the reparameterization
        for layer, g, (d_w, d_b), (eps_w, eps_b) in zip(params, grads, raw, epsilons):
            g.weight_means += d_w / mc_samples
            g.bias_means += d_b / mc_samples
            g.weight_log_stds += d_w * eps_w * np.exp(layer.weight_log_stds) / mc_samples
            g.bias_log_stds += d_b * eps_b * np.exp(layer.bias_log_stds) / mc_samples
    cross_entropy = ce_total / mc_samples
    kl = kl_weight * layer_kl_to_prior(params, prior_std)
    for layer, g in zip(params, grads):
        var_w = np.exp(2.0 * layer.weight_log_stds)
        var_b = np.exp(2.0 * layer.bias_log_stds)
        g.weight_means += kl_weight * layer.weight_means / prior_std ** 2
        g.bias_means += kl_weight * layer.bias_means / prior_std ** 2
        g.weight_log_stds += kl_weight * (var_w / prior_std ** 2 - 1.0)
        g.bias_log_stds += kl_weight * (var_b / prior_std ** 2 - 1.0)
    return ElboTerms(cross_entropy + kl, cross_entropy, kl), grads


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
    log q = log raw + sum_j a_j log p_j, normalized."""
    evidence = list(neighbor_evidence)
    attention = np.array([[a for _, a in evidence]], dtype=np.float64).reshape(1, -1)
    neighbors = np.array([d.probs for d, _ in evidence]).reshape(-1, NUM_CLASSES)
    q = _pool_beliefs(_log_beliefs(np.array(raw.probs)), attention, _log_beliefs(neighbors))
    return ClassDistribution(tuple(q[0].tolist()))


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
    nodes.append((EGO_ID, np.zeros(3), ego_vel, ego.heading,
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
    log_q = np.log(np.maximum(np.array(raw.probs), PROB_FLOOR))
    for dist, attention in neighbor_evidence:
        if not (0.0 <= attention <= 1.0):
            raise ValueError(f"attention must lie in [0, 1], got {attention}")
        log_q = log_q + attention * np.log(np.maximum(np.array(dist.probs), PROB_FLOOR))
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
            label = scalar_classify_interaction(obj.box.center, obj.velocity,
                                                obj.class_dist.top_class, ego, rcfg)
        refined.append(RefinedEstimate(
            obj.id, fused.probs,
            refine_uncertainty(fused, assess_by_id[obj.id].deviation, ucfg),
            eps, label))
    return refined
