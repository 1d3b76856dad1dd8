"""Object interaction graph and Bayesian message-passing refinement.

Objects (plus the ego vehicle) form a directed graph; each edge carries a
linear interaction energy over relative distance, speed difference and a
contextual intensity term, and attention weights are the per-node softmax
of the negated edge energies.  A Bayesian GNN with Gaussian
weight posteriors runs message passing over this graph; Monte Carlo
sampling of the weights yields mean predictions plus an epistemic spread.
Inference and training share the weight draws, stacked on a leading
sample axis with draw s from the PCG64 stream (seed, s), and run each
graph's forward pass once over the stack.  Training maximizes the ELBO:
Monte Carlo cross-entropy plus a closed-form KL penalty to a zero-mean
Gaussian prior, with gradients propagated back through the same stack.

Class beliefs are refined separately by log-linear pooling of neighbor
distributions under the edge attention weights, which can only sharpen
agreeing evidence.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

import numpy as np

from .risk import (
    ObjectAssessment,
    UncertaintyConfig,
    assess,
    combined_uncertainty,
    entropies,
)
from .scene import (
    ClassDistribution,
    EgoState,
    ObjectClass,
    OrientedBox,
    PointCloud,
    TrackedObject,
    check_object_order,
    in_corridor,
)

if TYPE_CHECKING:
    from .config import PipelineConfig
    from .reasoner import ReasonerConfig

EGO_ID = -1
#: nominal ego body used for the ego node features
EGO_DIMS = (4.5, 1.9, 1.6)
FEATURE_DIM = 16  # center 3 + velocity 3 + dims 3 + sin/cos yaw + class 4 + risk
MODEL_MAGIC = b"BGNN0001"
PROB_FLOOR = 1e-9
#: log posterior std of every parameter of a new model
INIT_LOG_STD = math.log(0.05)
#: the largest log posterior std a model may hold.  Its std, exp(20) or
#: about 4.9e8, keeps a weight draw ``mean + std * eps`` and the forward
#: pass of any sane scene far from float overflow.
MAX_LOG_STD = 20.0


class InteractionLabel(Enum):
    YIELD = "Yield"
    FOLLOW = "Follow"
    IGNORE = "Ignore"

    @property
    def index(self) -> int:
        return list(InteractionLabel).index(self)


@dataclass(frozen=True)
class InteractionConfig:
    """Graph construction and BGNN hyperparameters."""

    edge_radius: float = 30.0
    w_distance: Optional[float] = None  # defaults to 1 / edge_radius
    w_speed: float = 0.1
    w_intensity: float = 1.0
    layers: int = 3
    embed_dim: int = 128
    mc_samples: int = 8
    prior_std: float = 1.0

    def __post_init__(self) -> None:
        if self.edge_radius <= 0:
            raise ValueError("edge_radius must be > 0")
        if self.layers < 1 or self.embed_dim < 1:
            raise ValueError("layers and embed_dim must be >= 1")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")
        if self.prior_std <= 0:
            raise ValueError("prior_std must be > 0")
        if self.w_distance is None:
            object.__setattr__(self, "w_distance", 1.0 / self.edge_radius)
        if self.w_distance < 0 or self.w_speed < 0 or self.w_intensity < 0:
            raise ValueError("energy weights must be >= 0")


#: one row per directed edge; ``src`` and ``dst`` are indices into the
#: graph's ``node_ids``
EDGE_DTYPE = np.dtype([("src", np.intp), ("dst", np.intp), ("distance", np.float64),
                       ("speed_diff", np.float64), ("intensity", np.float64),
                       ("energy", np.float64), ("attention", np.float64)])


@dataclass(frozen=True, eq=False)
class InteractionGraph:
    """Directed interaction graph over object nodes plus the ego node, which
    is always the last node.

    ``edges`` is one :data:`EDGE_DTYPE` table sorted by destination, then
    source, node index, so the ego's in-edges are its tail.  The table and
    the dense attention matrix built on construction are read-only.
    """

    node_ids: tuple[int, ...]
    edges: np.ndarray

    def __post_init__(self) -> None:
        self.edges.flags.writeable = False
        dense = np.zeros((self.n_nodes, self.n_nodes))
        dense[self.edges["dst"], self.edges["src"]] = self.edges["attention"]
        dense.flags.writeable = False
        object.__setattr__(self, "_attention_matrix", dense)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InteractionGraph):
            return NotImplemented
        return self.node_ids == other.node_ids and np.array_equal(self.edges, other.edges)

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    def attention_matrix(self) -> np.ndarray:
        """A[dst, src] = attention of edge src -> dst (rows sum to 1 or 0)."""
        return self._attention_matrix


def graph_to_dict(graph: InteractionGraph) -> dict:
    """Node ids and one record per edge, with ``src`` and ``dst`` as node ids."""
    ids = graph.node_ids
    return {
        "nodes": list(ids),
        "edges": [dict(zip(EDGE_DTYPE.names, (ids[s], ids[d], *rest)))
                  for s, d, *rest in graph.edges.tolist()],
    }


def interaction_energy(distance, speed_diff, intensity, cfg: InteractionConfig):
    """Linear pairwise energy over distance, speed difference and intensity,
    for one edge (floats) or many (arrays).  A NaN distance passes through."""
    if np.less(distance, 0).any() or np.less(speed_diff, 0).any():
        raise ValueError("distance and speed_diff must be >= 0")
    return cfg.w_distance * distance + cfg.w_speed * speed_diff + cfg.w_intensity * intensity


def _pair_factor(a: ObjectClass, b: ObjectClass) -> float:
    pair = {a, b}
    if pair == {ObjectClass.VEHICLE, ObjectClass.PEDESTRIAN}:
        return 1.0
    if pair == {ObjectClass.VEHICLE}:
        return 0.8
    return 0.5


_CLASSES = sorted(ObjectClass, key=lambda c: c.index)
#: _pair_factor indexed by [src class index, dst class index]
_PAIR_FACTOR = np.array([[_pair_factor(a, b) for b in _CLASSES] for a in _CLASSES])


def contextual_intensity(
    offset: np.ndarray,
    src_heading: np.ndarray,
    src_class: np.ndarray,
    dst_class: np.ndarray,
) -> np.ndarray:
    """Per-edge heading-alignment intensity in [0, 1]: maximal when the
    source heads straight at the destination, scaled by a class-pair
    factor.  ``offset`` is the (E, 3) array of destination minus source
    centers; classes are class indices."""
    bearing = np.arctan2(offset[:, 1], offset[:, 0])
    alignment = 0.5 * (1.0 + np.cos(src_heading - bearing))
    return alignment * _PAIR_FACTOR[src_class, dst_class]


def _object_heading(obj: TrackedObject, static_speed: float) -> float:
    if obj.speed > static_speed:
        return math.atan2(obj.velocity[1], obj.velocity[0])
    return obj.box.yaw


def _ego_velocity(ego: EgoState) -> np.ndarray:
    return ego.speed * np.array([math.cos(ego.heading), math.sin(ego.heading), 0.0])


def _norms(v: np.ndarray) -> np.ndarray:
    return np.sqrt((v * v).sum(axis=-1))


_EGO_CLASS = ClassDistribution.one_hot(ObjectClass.VEHICLE)
_EGO_ONLY = InteractionGraph((EGO_ID,), np.empty(0, EDGE_DTYPE))


def build_graph(objects: Sequence[TrackedObject], ego: EgoState,
                cfg: InteractionConfig, static_speed: float) -> InteractionGraph:
    """Build the interaction graph: object nodes plus the ego node at the
    origin, with directed edges between all node pairs within ``edge_radius``.

    An object heads along its velocity above ``static_speed`` and along its
    box yaw otherwise.  Attention is normalized over each node's in-edges.
    """
    for i, o in enumerate(objects):
        if o.id == EGO_ID:
            raise ValueError(
                f"object {i} has id {EGO_ID}, which is reserved for the ego node")
    if not objects:
        return _EGO_ONLY
    n = len(objects) + 1
    # one row per node: center, velocity, heading, class probabilities
    nodes = np.array(
        [(*o.box.center, *o.velocity, _object_heading(o, static_speed), *o.class_dist.probs)
         for o in objects]
        + [(0.0, 0.0, 0.0, *_ego_velocity(ego), ego.heading, *_EGO_CLASS.probs)])
    centers, velocities, headings = nodes[:, 0:3], nodes[:, 3:6], nodes[:, 6]
    classes = nodes[:, 7:].argmax(axis=1)
    offsets = centers[:, np.newaxis, :] - centers[np.newaxis, :, :]  # [dst, src]
    distances = _norms(offsets)
    # not "<=": a NaN distance keeps its edge, as in the per-pair builder, so a
    # NaN position shows up as NaN attention instead of a dropped edge
    near = ~(distances > cfg.edge_radius)
    near.flat[:: n + 1] = False  # no self-edges
    # row-major nonzero of the [dst, src] mask orders edges by dst, then src
    dst, src = np.nonzero(near)
    edges = np.empty(len(dst), EDGE_DTYPE)
    edges["src"], edges["dst"] = src, dst
    edges["distance"] = distance = distances[dst, src]
    edges["speed_diff"] = speed_diff = _norms(
        (velocities[np.newaxis, :, :] - velocities[:, np.newaxis, :])[dst, src])
    edges["intensity"] = intensity = contextual_intensity(
        offsets[dst, src], headings[src], classes[src], classes[dst])
    edges["energy"] = energy = interaction_energy(distance, speed_diff, intensity, cfg)
    in_degree = np.bincount(dst, minlength=n)
    # low energy is strong coupling: attention ~ exp(-e)
    edges["attention"] = _segment_softmax(-energy, np.cumsum(in_degree) - in_degree, in_degree)
    return InteractionGraph(tuple(o.id for o in objects) + (EGO_ID,), edges)


def _segment_softmax(logits: np.ndarray, starts: np.ndarray,
                     sizes: np.ndarray) -> np.ndarray:
    """Softmax within each segment ``starts[k]:starts[k] + sizes[k]`` of
    ``logits``; the segments tile it in order."""
    if len(logits) == 0:
        return logits.copy()
    nonempty = sizes > 0
    starts, sizes = starts[nonempty], sizes[nonempty]
    w = np.exp(logits - np.repeat(np.maximum.reduceat(logits, starts), sizes))
    return w / np.repeat(np.add.reduceat(w, starts), sizes)


def graph_features(
    objects: Sequence[TrackedObject],
    assessments: Sequence[ObjectAssessment],
    ego: EgoState,
) -> np.ndarray:
    """Node features in graph node order (objects, then the ego), one row
    of [center, velocity, dims, sin/cos yaw, class probs, risk] per node,
    length 16; the ordering is part of the model format.  The ego row has
    the frame origin as its center, the nominal ego body and the risk at
    zero distance, 1."""
    check_object_order(objects, assessments, "assessments")
    rows = [(*o.box.center, *o.velocity, o.box.length, o.box.width, o.box.height,
             math.sin(o.box.yaw), math.cos(o.box.yaw), *o.class_dist.probs, a.risk)
            for o, a in zip(objects, assessments, strict=True)]
    rows.append((0.0, 0.0, 0.0, *_ego_velocity(ego).tolist(), *EGO_DIMS, math.sin(ego.heading),
                 math.cos(ego.heading), *_EGO_CLASS.probs, 1.0))
    return np.array(rows)


# ---------------------------------------------------------------------------
# Bayesian GNN
# ---------------------------------------------------------------------------


@dataclass
class BayesianLayer:
    """Linear layer with independent Gaussian posteriors per parameter."""

    weight_means: np.ndarray
    weight_log_stds: np.ndarray
    bias_means: np.ndarray
    bias_log_stds: np.ndarray

    @property
    def out_dim(self) -> int:
        return self.weight_means.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight_means.shape[1]

    @staticmethod
    def initialize(out_dim: int, in_dim: int, rng: np.random.Generator) -> "BayesianLayer":
        return BayesianLayer(
            weight_means=rng.normal(0.0, 1.0 / math.sqrt(in_dim), (out_dim, in_dim)),
            weight_log_stds=np.full((out_dim, in_dim), INIT_LOG_STD),
            bias_means=np.zeros(out_dim),
            bias_log_stds=np.full(out_dim, INIT_LOG_STD),
        )

    def arrays(self) -> list[np.ndarray]:
        return [self.weight_means, self.weight_log_stds, self.bias_means, self.bias_log_stds]


def _pairs(params: Sequence[BayesianLayer]) -> list[tuple[np.ndarray, np.ndarray]]:
    """(mean, log-std) of every parameter array, in the order [W_0, b_0, W_1, ...]."""
    return [pair for layer in params for pair in ((layer.weight_means, layer.weight_log_stds),
                                                  (layer.bias_means, layer.bias_log_stds))]


@dataclass
class BgnnModel:
    """Message-passing BGNN: per round a self layer and a neighbor layer,
    then a class head.  ``params`` is flat:
    [self_0, nbr_0, self_1, nbr_1, ..., head].

    ``_draws`` memoises :meth:`weight_draws` for one ``(seed, mc_samples)``
    key; :func:`train_bgnn`, which changes ``params`` in place, drops it."""

    config: InteractionConfig
    params: list[BayesianLayer]
    _draws: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def weight_draws(self, seed: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The ``config.mc_samples`` weight draws, one read-only (W, b) pair
        per layer stacked on a leading sample axis; row s comes from the
        PCG64 stream seeded with (seed, s).  Drawn on the first call for
        ``seed`` and reused until another seed is asked for.  Two threads
        that draw at once store equal draws, so no lock is needed."""
        key = (seed, self.config.mc_samples)
        memo = self._draws
        if memo is None or memo[0] != key:
            memo = (key, _draw_weights(self.params, *key))
            self._draws = memo
        return memo[1]

    @staticmethod
    def initialize(cfg: InteractionConfig, seed: int = 0) -> "BgnnModel":
        rng = np.random.default_rng(seed)
        params: list[BayesianLayer] = []
        d_in = FEATURE_DIM
        for _ in range(cfg.layers):
            params.append(BayesianLayer.initialize(cfg.embed_dim, d_in, rng))
            params.append(BayesianLayer.initialize(cfg.embed_dim, d_in, rng))
            d_in = cfg.embed_dim
        params.append(BayesianLayer.initialize(len(InteractionLabel), d_in, rng))
        return BgnnModel(cfg, params)


def _draw_epsilons(params: Sequence[BayesianLayer], seed: int, mc_samples: int
                   ) -> list[np.ndarray]:
    """The standard normal draws of w = mu + sigma * eps: one
    ``(mc_samples, *shape)`` stack per parameter array, in the order
    [W_0, b_0, W_1, ...].  Row s of every stack comes from the one PCG64
    stream seeded with (seed, s), which fills its rows in that order."""
    rngs = [np.random.default_rng([seed, s]) for s in range(mc_samples)]
    stacks = [np.empty((mc_samples, *mean.shape)) for mean, _ in _pairs(params)]
    for stack in stacks:
        for rng, row in zip(rngs, stack):
            rng.standard_normal(out=row)
    return stacks


def _draw_weights(params: Sequence[BayesianLayer], seed: int, mc_samples: int
                  ) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The draws mean + std * eps over :func:`_draw_epsilons`, made in
    place, as one read-only (W, b) pair of stacks per layer."""
    stacks = _draw_epsilons(params, seed, mc_samples)
    for (mean, log_std), stack in zip(_pairs(params), stacks):
        np.multiply(np.exp(log_std), stack, out=stack)
        np.add(mean, stack, out=stack)
        stack.flags.writeable = False
    return tuple(zip(stacks[::2], stacks[1::2]))


def _forward(values: Sequence[Sequence[np.ndarray]], attention: np.ndarray,
             feats: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Run message passing on one draw or on a stack of them (leading axis);
    returns logits and per-round activations [H_0, ..., H_L] (H_0 = inputs)."""
    h = feats
    activations = [h]
    for r in range((len(values) - 1) // 2):
        w_self, b_self = values[2 * r]
        w_nbr, b_nbr = values[2 * r + 1]
        msg = h @ np.swapaxes(w_nbr, -1, -2) + b_nbr[..., None, :]
        z = h @ np.swapaxes(w_self, -1, -2) + b_self[..., None, :] + attention @ msg
        h = np.tanh(z)
        activations.append(h)
    w_head, b_head = values[-1]
    logits = h @ np.swapaxes(w_head, -1, -2) + b_head[..., None, :]
    return logits, activations


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def kl_to_prior(params: Sequence[BayesianLayer], prior_std: float) -> float:
    """Closed-form KL(q || N(0, prior_std^2)) summed over all parameters."""
    total = 0.0
    for mu, log_std in _pairs(params):
        var = np.exp(2.0 * log_std)
        total += float(np.sum(
            math.log(prior_std) - log_std
            + (var + mu ** 2) / (2.0 * prior_std ** 2) - 0.5
        ))
    return total


class ElboTerms(NamedTuple):
    """An :func:`elbo_loss` value and the two terms it is the sum of."""

    loss: float
    cross_entropy: float
    kl: float


def elbo_loss(
    params: Sequence[BayesianLayer],
    batch: Sequence[tuple[InteractionGraph, np.ndarray, np.ndarray]],
    seed: int,
    prior_std: float,
    mc_samples: int,
) -> tuple[ElboTerms, list[BayesianLayer]]:
    """ELBO-style loss with its terms, and analytic gradients, one
    :class:`BayesianLayer` of gradient arrays per parameter layer.

    ``batch`` holds (graph, features, labels) triples; labels are int
    class indices per node, -1 for unlabeled nodes.  The loss is the MC
    mean (over weight samples) of the batch-mean node cross-entropy, plus
    the KL term: 1/len(batch) times the closed-form KL to the prior.
    Gradients flow through the reparameterized draws w = mu + sigma * eps.
    """
    n_graphs = len(batch)
    kl_weight = 1.0 / n_graphs
    pairs = _pairs(params)
    epsilons = _draw_epsilons(params, seed, mc_samples)
    stds = [np.exp(log_std) for _, log_std in pairs]
    draws = [mean + std * eps for (mean, _), std, eps in zip(pairs, stds, epsilons)]
    values = list(zip(draws[::2], draws[1::2]))
    # d loss / d draw, one stack per parameter array like ``draws``
    raw = [np.zeros_like(d) for d in draws]

    def backward(k: int, d_out: np.ndarray, h_in: np.ndarray) -> np.ndarray:
        """Add layer k's (W, b) gradients to ``raw``; return d loss / d h_in."""
        raw[2 * k] += np.swapaxes(d_out, -1, -2) @ h_in
        raw[2 * k + 1] += d_out.sum(axis=1)
        return d_out @ values[k][0]

    ce_terms = []  # per labeled graph, its cross-entropy term of each draw
    for graph, feats, labels in batch:
        labeled = np.nonzero(labels >= 0)[0]
        if len(labeled) == 0:
            continue
        attention = graph.attention_matrix()
        logits, activations = _forward(values, attention, feats)
        probs = _softmax(logits)
        # contiguous, so each draw's row sums as its own 1-D array does
        picked = np.ascontiguousarray(probs[:, labeled, labels[labeled]])
        ce_terms.append([ce / len(labeled) / n_graphs
                         for ce in (-np.log(np.maximum(picked, 1e-300))).sum(axis=1).tolist()])
        d_out = probs  # d loss / d logits, in place
        d_out[:, labeled, labels[labeled]] -= 1.0
        d_out[:, labels < 0] = 0.0
        d_out /= len(labeled) * n_graphs
        # the head, then the message-passing rounds top down
        d_h = backward(len(values) - 1, d_out, activations[-1])
        for r in range(len(activations) - 2, -1, -1):
            d_z = d_h * (1.0 - activations[r + 1] ** 2)
            d_msg = attention.T @ d_z
            d_h = backward(2 * r, d_z, activations[r]) + backward(2 * r + 1, d_msg, activations[r])
    ce_total = 0.0
    for s in range(mc_samples):  # draw-major, so the loss is the one a loop over draws adds
        for terms in ce_terms:
            ce_total += terms[s]
    cross_entropy = ce_total / mc_samples
    kl = kl_weight * kl_to_prior(params, prior_std)
    grads = [BayesianLayer(*(np.zeros_like(a) for a in layer.arrays())) for layer in params]
    for (mean, log_std), (g_mean, g_log_std), std, eps, d_w in zip(
            pairs, _pairs(grads), stds, epsilons, raw):
        # map each draw's gradient onto (mu, log_std) via the reparameterization
        for s in range(mc_samples):
            g_mean += d_w[s] / mc_samples
            g_log_std += d_w[s] * eps[s] * std / mc_samples
        g_mean += kl_weight * mean / prior_std ** 2
        g_log_std += kl_weight * (np.exp(2.0 * log_std) / prior_std ** 2 - 1.0)
    return ElboTerms(cross_entropy + kl, cross_entropy, kl), grads


# ---------------------------------------------------------------------------
# Class-belief fusion and uncertainty refinement
# ---------------------------------------------------------------------------


def _log_beliefs(probs: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(probs, PROB_FLOOR))


def _pool_beliefs(log_raw: np.ndarray, attention: np.ndarray,
                  log_neighbors: np.ndarray) -> np.ndarray:
    """Log-linear pooling, one row per refined belief: the softmax of
    log_raw + attention @ log_neighbors."""
    valid = (attention >= 0.0) & (attention <= 1.0)
    if not valid.all():
        raise ValueError(f"attention must lie in [0, 1], got {attention[~valid][0]}")
    return _softmax(log_raw + attention @ log_neighbors)


@dataclass(frozen=True)
class RefinedEstimate:
    """One object's class belief and uncertainty after refinement, and its interaction label."""

    object_id: int
    refined_class_probs: tuple[float, ...]
    refined_uncertainty: float
    epistemic_std: tuple[float, ...]
    interaction_label: InteractionLabel


_LABELS = tuple(InteractionLabel)
_YIELD, _FOLLOW, _IGNORE = (InteractionLabel.YIELD.index, InteractionLabel.FOLLOW.index,
                            InteractionLabel.IGNORE.index)
_VEHICLE, _PEDESTRIAN = ObjectClass.VEHICLE.index, ObjectClass.PEDESTRIAN.index


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row pair of two (N, 3) arrays, through numpy's
    vector dot, so each is the float ``a[i] @ b[i]`` gives."""
    return (a[:, np.newaxis, :] @ b[:, :, np.newaxis])[:, 0, 0]


def classify_interaction(
    centers: np.ndarray,
    velocities: np.ndarray,
    classes: np.ndarray,
    ego: EgoState,
    cfg: ReasonerConfig,
) -> np.ndarray:
    """Kinematic interaction rule over the ego corridor of ``cfg``: the
    :class:`InteractionLabel` index of each object, from (N, 3) centers and
    velocities and class indices.

    Yield for corridor objects closing faster than ``cfg.static_speed`` and
    for any pedestrian in the corridor; Follow for corridor vehicles
    receding or matching speed; Ignore otherwise.
    """
    inside = in_corridor(centers[:, 0], centers[:, 1], ego, cfg.corridor_width,
                         cfg.corridor_length)
    dist = np.sqrt(_row_dots(centers, centers))  # np.linalg.norm of each center
    # an object at distance 0 is not closing
    closing = np.divide(-_row_dots(centers, velocities - _ego_velocity(ego)), dist,
                        out=np.zeros(len(dist)), where=dist != 0)
    yields = (classes == _PEDESTRIAN) | (closing > cfg.static_speed)
    in_corridor_label = np.where(yields, _YIELD, np.where(classes == _VEHICLE, _FOLLOW, _IGNORE))
    return np.where(inside, in_corridor_label, _IGNORE)


def refine_objects(
    objects: Sequence[TrackedObject],
    assessments: Sequence[ObjectAssessment],
    graph: InteractionGraph,
    ego: EgoState,
    ucfg: UncertaintyConfig,
    rcfg: ReasonerConfig,
    model: Optional[BgnnModel] = None,
    seed: int = 0,
) -> list[RefinedEstimate]:
    """Refine each object's class belief and uncertainty from its graph
    neighborhood, in array passes over all objects.

    Class beliefs are pooled over in-edges from object neighbors (the ego
    node carries no class belief) and normalized; the refined uncertainty
    combines the pooled belief's entropy with the object's assessed yaw
    deviation.  When a trained model is supplied, the per-class predictive
    std across its MC samples is reported as the epistemic spread and its
    argmax prediction as the interaction label; otherwise the label falls
    back to the kinematic rule and the spread is zero.
    """
    check_object_order(objects, assessments, "assessments")
    n = len(objects)
    if graph.node_ids[:n] != tuple(o.id for o in objects) or graph.n_nodes != n + 1:
        raise ValueError("graph nodes must be the objects, in order, then the ego")
    if n == 0:
        return []
    probs = np.array([o.class_dist.probs for o in objects])
    log_p = _log_beliefs(probs)
    # the ego row and column are dropped: the ego node carries no class belief
    fused = _pool_beliefs(log_p, graph.attention_matrix()[:n, :n], log_p)
    if model is not None:
        feats = graph_features(objects, assessments, ego)
        attention = graph.attention_matrix()
        # a non-finite result is refused below, so no warning on the way
        with np.errstate(over="ignore", invalid="ignore"):
            mc_probs = _softmax(_forward(model.weight_draws(seed), attention, feats)[0])
        if not np.isfinite(mc_probs).all():
            raise ValueError("the model's Monte Carlo interaction probabilities are not "
                             "finite: a parameter or a node feature is too large")
        # the last row, the ego's, is dropped
        spreads = map(tuple, mc_probs.std(axis=0)[:n].tolist())
        label_index = mc_probs.mean(axis=0)[:n].argmax(axis=1)
    else:
        spreads = [(0.0,) * len(_LABELS)] * n
        label_index = classify_interaction(
            np.array([o.box.center for o in objects]), np.array([o.velocity for o in objects]),
            probs.argmax(axis=1), ego, rcfg)
    return [
        RefinedEstimate(obj.id, q, combined_uncertainty(h, a.deviation, ucfg), spread, _LABELS[k])
        for obj, a, q, h, spread, k in zip(objects, assessments, map(tuple, fused.tolist()),
                                           entropies(fused).tolist(), spreads,
                                           label_index.tolist(), strict=True)
    ]


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def training_accuracy(model: BgnnModel,
                      dataset: Sequence[tuple[InteractionGraph, np.ndarray, np.ndarray]]
                      ) -> float:
    """Fraction of labeled nodes predicted correctly by the forward pass
    with the posterior means."""
    means = [[layer.weight_means, layer.bias_means] for layer in model.params]
    correct = total = 0
    for graph, feats, labels in dataset:
        logits, _ = _forward(means, graph.attention_matrix(), feats)
        mask = labels >= 0
        pred = logits.argmax(axis=1)
        correct += int((pred[mask] == labels[mask]).sum())
        total += int(mask.sum())
    return correct / total if total else 0.0


#: Weight draws per training step: the Monte Carlo samples of each
#: :func:`elbo_loss` that :func:`train_bgnn` takes.
TRAIN_MC_SAMPLES = 2


def _parameter_problem(params: Sequence[BayesianLayer]) -> Optional[str]:
    """What makes ``params`` unusable, naming the first such layer by its
    index: a non-finite parameter or a log-std above :data:`MAX_LOG_STD`;
    None when there is nothing."""
    for k, layer in enumerate(params):
        if not all(np.isfinite(a).all() for a in layer.arrays()):
            return f"layer {k} holds a non-finite parameter"
        largest = max(layer.weight_log_stds.max(), layer.bias_log_stds.max())
        if largest > MAX_LOG_STD:
            return (f"layer {k} has a log-std of {float(largest)!r}, "
                    f"above the bound {MAX_LOG_STD!r}")
    return None


def train_bgnn(
    model: BgnnModel,
    dataset: Sequence[tuple[InteractionGraph, np.ndarray, np.ndarray]],
    steps: int = 200,
    lr: float = 0.01,
    seed: int = 0,
) -> list[ElboTerms]:
    """Full-batch Adam training with :data:`TRAIN_MC_SAMPLES` weight draws
    per step; returns the per-step loss history, with its terms.

    Raises ValueError naming the step and ``lr`` once the loss or a
    parameter is not finite, or a log-std exceeds :data:`MAX_LOG_STD`.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be finite and > 0, got {lr!r}")
    if not dataset:
        raise ValueError("the training set must hold at least one graph")
    model._draws = None  # drawn from the parameters that the steps below change
    beta1, beta2, eps = 0.9, 0.999, 1e-8  # Adam's usual decay rates and epsilon
    arrays = [a for layer in model.params for a in layer.arrays()]
    moments = [(np.zeros_like(a), np.zeros_like(a)) for a in arrays]
    history = []
    for step in range(steps):
        # a non-finite result is refused below, so no warning on the way
        with np.errstate(over="ignore", invalid="ignore"):
            terms, grads = elbo_loss(model.params, dataset, seed=seed * 100003 + step,
                                     prior_std=model.config.prior_std,
                                     mc_samples=TRAIN_MC_SAMPLES)
            g_arrays = [g for layer in grads for g in layer.arrays()]
            for arr, g, (m, v) in zip(arrays, g_arrays, moments, strict=True):
                m += (1 - beta1) * (g - m)
                v += (1 - beta2) * (g * g - v)
                m_hat = m / (1 - beta1 ** (step + 1))
                v_hat = v / (1 - beta2 ** (step + 1))
                arr -= lr * m_hat / (np.sqrt(v_hat) + eps)
        problem = _parameter_problem(model.params)
        if problem or not math.isfinite(terms.loss):
            raise ValueError(f"training diverged at step {step + 1} of {steps}: "
                             f"{problem or 'the loss is not finite'}; "
                             f"try a smaller --lr than {lr!r}")
        history.append(terms)
    return history


def synthetic_yield_ignore_dataset(
    n_graphs: int,
    seed: int,
    config: "PipelineConfig",
) -> list[tuple[InteractionGraph, np.ndarray, np.ndarray]]:
    """Linearly separable Yield/Ignore set built from proximity and closing
    speed: near approaching objects are Yield, far receding ones Ignore.
    Objects are assessed, and graphs built, under the pipeline ``config``
    as in :func:`drivetrace.pipeline.run_scene`."""
    rng = np.random.default_rng(seed)
    ego = EgoState(heading=0.0, speed=8.0)
    dataset = []
    for k in range(n_graphs):
        is_yield = k % 2 == 0
        if is_yield:
            x = rng.uniform(4.0, 14.0)
            vx = rng.uniform(-9.0, -2.0)
            label = InteractionLabel.YIELD
        else:
            x = rng.uniform(26.0, 40.0)
            vx = rng.uniform(9.0, 16.0)
            label = InteractionLabel.IGNORE
        y = rng.uniform(-1.5, 1.5)
        obj = TrackedObject(
            id=0,
            box=OrientedBox((x, y, 0.8), 4.5, 1.9, 1.6, 0.0),
            velocity=(vx, 0.0, 0.0),
            class_dist=ClassDistribution.one_hot(ObjectClass.VEHICLE),
        )
        assessments = assess([obj], ego, PointCloud(), config.uncertainty, config.risk)
        graph = build_graph([obj], ego, config.interaction, config.reasoner.static_speed)
        feats = graph_features([obj], assessments, ego)
        labels = np.array([label.index, -1])
        dataset.append((graph, feats, labels))
    return dataset


# ---------------------------------------------------------------------------
# Parameter serialization
# ---------------------------------------------------------------------------


def save_model(model: BgnnModel, path: str | Path) -> None:
    """Write parameters to the flat binary format.

    Binary layout: 8-byte magic, uint32 layer count, then per layer two
    uint32 dims (out, in), then all layer tensors as little-endian float64
    row-major in order (weight means, weight log-stds, bias means, bias
    log-stds per layer).  The file holds no config: the reader checks the
    dims against the pipeline's.
    """
    path = Path(path)
    header = MODEL_MAGIC + struct.pack("<I", len(model.params))
    for layer in model.params:
        header += struct.pack("<II", layer.out_dim, layer.in_dim)
    body = b"".join(a.astype("<f8").tobytes() for layer in model.params
                    for a in layer.arrays())
    path.write_bytes(header + body)


def load_model(path: str | Path, cfg: InteractionConfig = InteractionConfig()) -> BgnnModel:
    """Read a model written by :func:`save_model` for the pipeline's
    ``interaction`` config ``cfg``, which the returned model carries.

    A file whose size differs from the size its header implies, and layer
    dims other than the chain that :data:`FEATURE_DIM` inputs,
    ``cfg.layers`` rounds of ``cfg.embed_dim`` units and one output per
    :class:`InteractionLabel` give, raise ValueError with the file's path
    in front of the reason; so does a layer holding a NaN or infinite
    parameter or a log-std above :data:`MAX_LOG_STD`, named by its index.
    """
    path = Path(path)
    raw = path.read_bytes()
    if raw[:8] != MODEL_MAGIC:
        raise ValueError(f"{path}: not a model file")

    def size_error(what: str, expected: int) -> ValueError:
        return ValueError(f"{path}: {what} take {expected} bytes, "
                          f"but the file has {len(raw)}")

    if len(raw) < 12:
        raise size_error("the magic and layer count", 12)
    (n_layers,) = struct.unpack_from("<I", raw, 8)
    pos = 12 + 8 * n_layers
    if len(raw) < pos:
        raise size_error(f"the dims of {n_layers} layers", pos)
    dims = [struct.unpack_from("<II", raw, 12 + 8 * k) for k in range(n_layers)]
    expected = pos + sum(16 * out_dim * (in_dim + 1) for out_dim, in_dim in dims)
    if len(raw) != expected:
        raise size_error(f"the header and {n_layers} layers", expected)
    # [self_0, nbr_0, ..., self_{L-1}, nbr_{L-1}, head] as (out, in)
    chain = [(cfg.embed_dim, FEATURE_DIM if r == 0 else cfg.embed_dim)
             for r in range(cfg.layers) for _ in ("self", "nbr")]
    chain.append((len(InteractionLabel), cfg.embed_dim))
    if n_layers != len(chain):
        raise ValueError(f"{path}: has {n_layers} layers, but interaction.layers "
                         f"{cfg.layers} needs {len(chain)}")
    for k, (dim, need) in enumerate(zip(dims, chain)):
        if dim != need:
            raise ValueError(
                f"{path}: layer {k} is {dim[0]} x {dim[1]} (out x in), but "
                f"interaction.embed_dim {cfg.embed_dim}, {FEATURE_DIM} node features "
                f"and {len(InteractionLabel)} labels need {need[0]} x {need[1]}")
    layers = []
    for k, (out_dim, in_dim) in enumerate(dims):
        arrays = []
        for shape in ((out_dim, in_dim), (out_dim, in_dim), (out_dim,), (out_dim,)):
            count = int(np.prod(shape))
            arr = np.frombuffer(raw, dtype="<f8", offset=pos, count=count).reshape(shape)
            arrays.append(arr.astype(np.float64))
            pos += count * 8
        layers.append(BayesianLayer(*arrays))
    problem = _parameter_problem(layers)
    if problem:
        raise ValueError(f"{path}: {problem}")
    return BgnnModel(cfg, layers)
