"""Interaction graph, Bayesian GNN, fusion, and variational training."""

import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from drivetrace.config import PipelineConfig
from drivetrace.interaction import (
    EGO_ID,
    FEATURE_DIM,
    MAX_LOG_STD,
    BayesianLayer,
    BgnnModel,
    InteractionConfig,
    InteractionLabel,
    _draw_weights,
    _forward,
    build_graph,
    classify_interaction,
    elbo_loss,
    graph_features,
    interaction_energy,
    kl_to_prior,
    load_model,
    refine_objects,
    save_model,
    synthetic_yield_ignore_dataset,
    train_bgnn,
    training_accuracy,
)
from drivetrace.reasoner import ReasonerConfig
from drivetrace.risk import RiskConfig, UncertaintyConfig, assess
from drivetrace.scene import (ClassDistribution, EgoState, ObjectClass, OrientedBox, PointCloud,
                              box_corners)
from conftest import UNIFORM, make_object
from interaction_oracle import (
    forward_mc,
    fuse_refine,
    mc_estimates,
    mc_logits,
    per_draw_elbo_loss,
    refine_uncertainty,
    scalar_build_graph,
    scalar_refine_objects,
)
from risk_oracle import min_distance, proximity_risk, shannon_entropy

CFG = InteractionConfig()
SMALL = InteractionConfig(layers=2, embed_dim=8, mc_samples=3)
RCFG = ReasonerConfig()
STATIC = RCFG.static_speed


def dist(*p):
    return ClassDistribution(tuple(p))


def in_edges(g, node_id):
    """The rows of ``g.edges`` that hold the in-edges of ``node_id``."""
    return g.edges[g.edges["dst"] == g.node_ids.index(node_id)]


def edge_ids(g):
    """(source id, destination id) of every edge, in table order."""
    ids = g.node_ids
    return [(ids[s], ids[d]) for s, d in g.edges[["src", "dst"]].tolist()]


class TestEnergy:
    def test_zero(self):
        assert interaction_energy(0, 0, 0, CFG) == 0.0

    def test_direct(self):
        cfg = InteractionConfig(w_distance=1.0, w_speed=1.0, w_intensity=1.0)
        assert interaction_energy(2.0, 1.0, 0.5, cfg) == pytest.approx(3.5)
        energy = interaction_energy(np.array([2.0, 0.0, np.nan]), np.array([1.0, 0.0, 0.0]),
                                    np.array([0.5, 0.25, 0.0]), cfg)
        np.testing.assert_allclose(energy[:2], [3.5, 0.25])
        assert np.isnan(energy[2])  # a NaN distance passes through

    @given(st.floats(0, 100), st.floats(0, 50), st.floats(0, 1),
           st.floats(0, 10))
    def test_homogeneous(self, d, dv, i, alpha):
        base = interaction_energy(d, dv, i, CFG)
        scaled = interaction_energy(alpha * d, alpha * dv, alpha * i, CFG)
        assert scaled == pytest.approx(alpha * base, rel=1e-9, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            interaction_energy(-1.0, 0, 0, CFG)
        with pytest.raises(ValueError):
            interaction_energy(np.zeros(3), np.array([0.0, -1e-9, 0.0]), np.zeros(3), CFG)


class TestBuildGraph:
    def test_radius_cut(self):
        objs = [make_object(0, (5, 0, 0)), make_object(1, (105, 0, 0))]
        g = build_graph(objs, EgoState(), CFG, STATIC)
        assert not any({s, d} == {0, 1} for s, d in edge_ids(g))

    def test_single_in_edge_attention_one(self):
        objs = [make_object(0, (5, 0, 0))]
        g = build_graph(objs, EgoState(), CFG, STATIC)
        incoming = in_edges(g, 0)
        assert len(incoming) == 1 and g.node_ids[incoming[0]["src"]] == EGO_ID
        assert incoming[0]["attention"] == pytest.approx(1.0)

    def test_equal_energy_attention_thirds(self):
        # three same-class static sources at distance 5, each headed straight
        # at the center object: identical (D, dV, I), attention exactly 1/3
        center = make_object(0, (20, 0, 0))
        sats = [
            make_object(1, (25, 0, 0), yaw=math.pi),
            make_object(2, (15, 0, 0), yaw=0.0),
            make_object(3, (20, 5, 0), yaw=-math.pi / 2),
        ]
        cfg = InteractionConfig(edge_radius=6.0)  # exclude the ego at origin
        g = build_graph([center, *sats], EgoState(), cfg, STATIC)
        att = in_edges(g, 0)["attention"]
        assert len(att) == 3
        np.testing.assert_allclose(att, [1 / 3] * 3, atol=1e-12)

    def test_attention_sums_to_one(self, rng):
        objs = [make_object(i, (rng.uniform(2, 28), rng.uniform(-8, 8), 0),
                            velocity=(rng.uniform(-5, 5), rng.uniform(-5, 5), 0))
                for i in range(6)]
        g = build_graph(objs, EgoState(speed=8.0), CFG, STATIC)
        for nid in g.node_ids:
            incoming = in_edges(g, nid)
            if len(incoming):
                assert incoming["attention"].sum() == pytest.approx(1.0, abs=1e-12)
        a = g.attention_matrix()
        rows = a.sum(axis=1)
        for r in rows:
            assert r == pytest.approx(1.0, abs=1e-12) or r == 0.0

    def test_edge_fields(self):
        objs = [make_object(0, (10, 0, 0), velocity=(2, 0, 0))]
        g = build_graph(objs, EgoState(speed=8.0), CFG, STATIC)
        e = next(e for ids, e in zip(edge_ids(g), g.edges) if ids == (EGO_ID, 0))
        assert e["distance"] == pytest.approx(10.0)
        assert e["speed_diff"] == pytest.approx(6.0)
        assert 0.0 <= e["intensity"] <= 1.0
        assert e["energy"] == pytest.approx(
            CFG.w_distance * 10.0 + CFG.w_speed * 6.0 + CFG.w_intensity * e["intensity"])

    def test_static_speed_picks_velocity_heading(self):
        # 0.3 m/s sideways at yaw 0: above a 0.2 m/s threshold the object
        # heads along its velocity (pi/2), below the default 0.5 along its yaw
        objs = [make_object(0, (10, 0, 0), yaw=0.0, velocity=(0, 0.3, 0))]
        (moving,) = in_edges(build_graph(objs, EgoState(), CFG, 0.2), EGO_ID)
        (static,) = in_edges(build_graph(objs, EgoState(), CFG, STATIC), EGO_ID)
        assert moving["intensity"] == pytest.approx(0.5 * 0.8, abs=1e-12)
        assert static["intensity"] == pytest.approx(0.0, abs=1e-12)
        assert moving["energy"] > static["energy"]

    def test_ego_id_rejected(self):
        objs = [make_object(0, (5, 0, 0)), make_object(EGO_ID, (10, 0, 0))]
        with pytest.raises(ValueError, match="object 1 has id -1"):
            build_graph(objs, EgoState(), CFG, STATIC)

    def test_empty_graph(self):
        g = build_graph([], EgoState(speed=8.0), CFG, STATIC)
        assert g.node_ids == (EGO_ID,) and len(g.edges) == 0 and len(in_edges(g, EGO_ID)) == 0
        np.testing.assert_array_equal(g.attention_matrix(), np.zeros((1, 1)))

    def test_value_equality(self):
        objs = [make_object(0, (5, 0, 0)), make_object(1, (9, 2, 0))]
        g = build_graph(objs, EgoState(speed=8.0), CFG, STATIC)
        assert g == build_graph(objs, EgoState(speed=8.0), CFG, STATIC)
        assert g != build_graph(objs, EgoState(speed=9.0), CFG, STATIC)


_probs = st.one_of(
    st.sampled_from([c.index for c in ObjectClass]).map(
        lambda k: tuple(float(i == k) for i in range(4))),
    st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4)
    .filter(lambda p: sum(p) > 0.1)
    .map(lambda p: ClassDistribution.from_array(p).probs),
)
_coord = st.floats(-40, 40)


@st.composite
def graph_inputs(draw, max_objects=10):
    """Objects (ids in arbitrary order, static and moving), an ego state,
    a graph config and a reasoner config (corridor and moving-speed
    threshold)."""
    ids = draw(st.lists(st.integers(0, 500), unique=True, max_size=max_objects))
    objs = [
        make_object(
            oid,
            (draw(_coord), draw(_coord), draw(st.floats(-1, 2))),
            yaw=draw(st.floats(-math.pi, math.pi)),
            velocity=(draw(st.floats(-10, 10)), draw(st.floats(-10, 10)), 0.0),
            probs=draw(_probs),
        )
        for oid in ids
    ]
    ego = EgoState(heading=draw(st.floats(-math.pi, math.pi)), speed=draw(st.floats(0, 20)))
    cfg = InteractionConfig(edge_radius=draw(st.sampled_from([0.5, 10.0, 30.0, 100.0])),
                            w_speed=draw(st.sampled_from([0.0, 0.1, 2.0])))
    rcfg = ReasonerConfig(corridor_width=draw(st.floats(0.5, 20)),
                          corridor_length=draw(st.floats(1, 80)),
                          static_speed=draw(st.floats(0, 15)))
    return objs, ego, cfg, rcfg


def assert_refined_close(new, old):
    assert [r.object_id for r in new] == [r.object_id for r in old]
    for a, b in zip(new, old):
        np.testing.assert_allclose(a.refined_class_probs, b.refined_class_probs,
                                   rtol=0, atol=1e-12)
        assert a.refined_uncertainty == pytest.approx(b.refined_uncertainty, rel=0, abs=1e-12)
        np.testing.assert_allclose(a.epistemic_std, b.epistemic_std, rtol=0, atol=1e-12)
        assert a.interaction_label is b.interaction_label


class TestScalarEquivalence:
    """The array-backed graph against the per-pair scalar builder kept in
    tests/interaction_oracle.py."""

    @settings(max_examples=200, deadline=None)
    @given(graph_inputs())
    def test_graph_matches_scalar_builder(self, inputs):
        objs, ego, cfg, rcfg = inputs
        g = build_graph(objs, ego, cfg, rcfg.static_speed)
        ref = scalar_build_graph(objs, ego, cfg, rcfg.static_speed)
        assert g.node_ids == ref.node_ids
        assert edge_ids(g) == [(e.src, e.dst) for e in ref.edges]
        for f in ("distance", "speed_diff", "intensity", "energy", "attention"):
            np.testing.assert_allclose(g.edges[f], [getattr(e, f) for e in ref.edges],
                                       rtol=0, atol=1e-12)
        for row_sum in g.attention_matrix().sum(axis=1):
            assert row_sum == pytest.approx(1.0, abs=1e-12) or row_sum == 0.0
        # sorted by dst, then src: the ego's in-edges, the last node's, are the tail
        keys = g.edges[["dst", "src"]].tolist()
        assert keys == sorted(set(keys))

    @settings(max_examples=200, deadline=None)
    @given(graph_inputs())
    def test_refine_matches_scalar(self, inputs):
        objs, ego, cfg, rcfg = inputs
        ucfg = UncertaintyConfig()
        assessments = assess(objs, ego, PointCloud(), ucfg, RiskConfig())
        new = refine_objects(objs, assessments, build_graph(objs, ego, cfg, rcfg.static_speed),
                             ego, ucfg, rcfg)
        old = scalar_refine_objects(objs, assessments,
                                    scalar_build_graph(objs, ego, cfg, rcfg.static_speed),
                                    ego, ucfg, rcfg)
        assert_refined_close(new, old)

    @settings(max_examples=25, deadline=None)
    @given(graph_inputs(max_objects=5), st.integers(0, 2**16))
    def test_refine_with_model_matches_scalar(self, inputs, seed):
        objs, ego, cfg, rcfg = inputs
        ucfg = UncertaintyConfig()
        model = BgnnModel.initialize(SMALL, seed=1)
        assessments = assess(objs, ego, PointCloud(), ucfg, RiskConfig())
        new = refine_objects(objs, assessments, build_graph(objs, ego, cfg, rcfg.static_speed),
                             ego, ucfg, rcfg, model=model, seed=seed)
        old = scalar_refine_objects(objs, assessments,
                                    scalar_build_graph(objs, ego, cfg, rcfg.static_speed),
                                    ego, ucfg, rcfg, model=model, seed=seed)
        assert_refined_close(new, old)


def refine_with(model, objs, ego, cfg, rcfg, seed):
    ucfg = UncertaintyConfig()
    assessments = assess(objs, ego, PointCloud(), ucfg, RiskConfig())
    graph = build_graph(objs, ego, cfg, rcfg.static_speed)
    refined = refine_objects(objs, assessments, graph, ego, ucfg, rcfg, model=model, seed=seed)
    return refined, graph, graph_features(objs, assessments, ego)


class TestWeightDraws:
    """``refine_objects`` reuses a model's weight draws across calls; every
    result must equal the fresh-draw oracle in tests/interaction_oracle.py."""

    @settings(max_examples=30, deadline=None)
    @given(st.lists(graph_inputs(max_objects=4), min_size=5, max_size=8),
           st.lists(st.integers(0, 2**16), min_size=2, max_size=2, unique=True))
    def test_reused_draws_equal_fresh_draws(self, calls, seeds):
        model = BgnnModel.initialize(SMALL, seed=1)
        labels = list(InteractionLabel)
        for k, (objs, ego, cfg, rcfg) in enumerate(calls):
            # seeds a, a, b, b, a, ...: each seed is reused, then replaced
            seed = seeds[(k // 2) % 2]
            refined, graph, feats = refine_with(model, objs, ego, cfg, rcfg, seed)
            without, _, _ = refine_with(None, objs, ego, cfg, rcfg, seed)
            if not objs:
                assert refined == []
                continue
            std, label_index = mc_estimates(graph, feats, model, seed)
            for row, (r, plain) in enumerate(zip(refined, without)):
                assert r.epistemic_std == tuple(std[row].tolist())
                assert r.interaction_label == labels[int(label_index[row])]
                assert r.refined_class_probs == plain.refined_class_probs
                assert r.refined_uncertainty == plain.refined_uncertainty

    def test_draws_are_read_only_and_reused_per_seed(self):
        model = BgnnModel.initialize(SMALL, seed=1)
        draws = model.weight_draws(4)
        assert len(draws) == len(model.params)
        for (w, b), layer in zip(draws, model.params):
            assert w.shape == (SMALL.mc_samples, layer.out_dim, layer.in_dim)
            assert b.shape == (SMALL.mc_samples, layer.out_dim)
        assert model.weight_draws(4) is draws
        assert all(not a.flags.writeable for pair in draws for a in pair)
        assert model.weight_draws(5) is not draws
        # the memo takes no part in equality or repr
        assert model == BgnnModel(SMALL, model.params)
        assert "_draws" not in repr(model)

    def test_threads_sharing_a_model(self):
        """Threads that refine with one model under alternating seeds race to
        fill and replace its draws; every result still equals that of a model
        whose draws were made for its seed alone."""
        objs = [make_object(0, (8, 0.5, 0), velocity=(-3, 0, 0)), make_object(1, (14, -2, 0))]
        ego = EgoState(speed=8.0)
        model = BgnnModel.initialize(SMALL, seed=3)
        expected = {seed: refine_with(BgnnModel(SMALL, model.params), objs, ego, SMALL, RCFG,
                                      seed)[0] for seed in (0, 1)}
        results, errors = [], []

        def work(k):
            try:
                for i in range(20):
                    seed = (k + i) % 2
                    results.append((seed, refine_with(model, objs, ego, SMALL, RCFG, seed)[0]))
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and len(results) == 80
        assert all(r == expected[seed] for seed, r in results)

    def test_training_drops_the_draws(self, tmp_path):
        """Inference, then training, then inference gives what a freshly
        loaded copy of the trained model gives, not the draws of before."""
        objs = [make_object(0, (8, 0.5, 0), velocity=(-3, 0, 0)),
                make_object(1, (14, -2, 0), velocity=(2, 0, 0), label=ObjectClass.PEDESTRIAN),
                make_object(2, (20, 3, 0))]
        ego = EgoState(speed=8.0)
        model = BgnnModel.initialize(SMALL, seed=2)
        before, _, _ = refine_with(model, objs, ego, SMALL, RCFG, seed=7)
        data = synthetic_yield_ignore_dataset(4, 0, PipelineConfig(interaction=SMALL))
        train_bgnn(model, data, steps=3, lr=0.05, seed=1)
        save_model(model, tmp_path / "model.bin")
        after, _, _ = refine_with(model, objs, ego, SMALL, RCFG, seed=7)
        fresh, _, _ = refine_with(load_model(tmp_path / "model.bin", SMALL), objs, ego,
                                  SMALL, RCFG, seed=7)
        assert after == fresh
        assert after != before

    def test_draw_memory_at_the_defaults(self):
        """Each draw is written into its row of the stacks: at the defaults
        the tracemalloc peak of drawing is the 4.32 MiB of the draws plus
        about one parameter array, within the 5.00 MiB that per-draw
        arrays held with their epsilons peaked at."""
        model = BgnnModel.initialize(CFG, seed=1)
        tracemalloc.start()
        try:
            draws = _draw_weights(model.params, 4, CFG.mc_samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(a.nbytes for pair in draws for a in pair) == 8 * 70_787 * 8
        assert peak <= 5.1 * 2**20


def dense_inputs(n=61, seed=0):
    """``n`` objects scattered within 25 m of the ego, so most pairs are
    edges, with the default graph config, in :func:`graph_inputs`' form."""
    rng = np.random.default_rng(seed)
    objs = [make_object(i, (rng.uniform(-25, 25), rng.uniform(-25, 25), 0.0),
                        yaw=rng.uniform(-math.pi, math.pi),
                        velocity=(rng.uniform(-10, 10), rng.uniform(-10, 10), 0.0),
                        label=list(ObjectClass)[i % len(ObjectClass)])
            for i in range(n)]
    return objs, EgoState(speed=8.0), InteractionConfig(), ReasonerConfig()


class TestStackedForward:
    """The one forward over a model's stacked draws against one 2-D forward
    per freshly drawn sample, the oracle in tests/interaction_oracle.py,
    compared to the bit."""

    @settings(max_examples=40, deadline=None)
    @given(graph_inputs(max_objects=61), st.integers(1, 3), st.integers(1, 16),
           st.integers(1, 8), st.integers(0, 2**16))
    @example(inputs=dense_inputs(), layers=3, embed_dim=128, mc_samples=8, seed=4)
    @example(inputs=dense_inputs(n=0), layers=1, embed_dim=3, mc_samples=1, seed=0)
    def test_refine_equals_per_draw_oracle(self, inputs, layers, embed_dim, mc_samples, seed):
        objs, ego, cfg, rcfg = inputs
        cfg = replace(cfg, layers=layers, embed_dim=embed_dim, mc_samples=mc_samples)
        model = BgnnModel.initialize(cfg, seed=seed % 5)
        refined, graph, feats = refine_with(model, objs, ego, cfg, rcfg, seed)
        # every node's logits, the ego's too
        stacked = _forward(model.weight_draws(seed), graph.attention_matrix(), feats)[0]
        assert stacked.tobytes() == mc_logits(graph, feats, model.params, mc_samples,
                                              seed).tobytes()
        n = len(objs)
        std, label_index = mc_estimates(graph, feats, model, seed)
        stds = np.array([r.epistemic_std for r in refined]).reshape(n, len(InteractionLabel))
        assert stds.tobytes() == std[:n].tobytes()
        assert [r.interaction_label.index for r in refined] == label_index[:n].tolist()


def labeled_graph(n, seed, labels):
    """A (graph, features, labels) triple of :func:`dense_inputs`' ``n``
    objects, ``labels`` naming a class index or -1 per node, the ego's too."""
    objs, ego, cfg, rcfg = dense_inputs(n, seed)
    assessments = assess(objs, ego, PointCloud(), UncertaintyConfig(), RiskConfig())
    graph = build_graph(objs, ego, cfg, rcfg.static_speed)
    return graph, graph_features(objs, assessments, ego), np.array(labels, dtype=np.intp)


@st.composite
def labeled_graphs(draw):
    n = draw(st.integers(0, 61))
    labels = draw(st.lists(st.sampled_from((-1, 0, 1, 2)), min_size=n + 1, max_size=n + 1))
    return labeled_graph(n, draw(st.integers(0, 2**16)), labels)


#: four 61-object graphs whose labels pick probabilities out of the stacked
#: softmax as a strided array; summed without a copy first, a row's
#: cross-entropy can differ from its 1-D sum in the last bit
DENSE_BATCH = [labeled_graph(61, k, np.random.default_rng(k).integers(-1, 3, 62))
               for k in range(4)]


class TestBatchedElbo:
    """``elbo_loss``'s one stacked pass per graph against the per-draw
    ELBO, the oracle in tests/interaction_oracle.py, compared to the bit."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 16), st.integers(1, 8),
           st.lists(labeled_graphs(), min_size=1, max_size=4), st.integers(0, 2**16))
    @example(layers=3, embed_dim=128, mc_samples=2, batch=DENSE_BATCH, seed=0)
    @example(layers=2, embed_dim=4, mc_samples=3,
             batch=[labeled_graph(5, 1, [-1] * 6), labeled_graph(3, 2, [0, 1, 2, -1])], seed=9)
    def test_equals_per_draw_oracle(self, layers, embed_dim, mc_samples, batch, seed):
        cfg = InteractionConfig(layers=layers, embed_dim=embed_dim)
        model = BgnnModel.initialize(cfg, seed=seed % 5)
        terms, grads = elbo_loss(model.params, batch, seed, cfg.prior_std, mc_samples)
        want_terms, want_grads = per_draw_elbo_loss(model.params, batch, seed, cfg.prior_std,
                                                    mc_samples)
        assert terms == want_terms
        assert ([a.tobytes() for g in grads for a in g.arrays()]
                == [a.tobytes() for g in want_grads for a in g.arrays()])


class TestNodeFeatures:
    def features(self, obj, ego=EgoState()):
        """The object's and the ego's rows of graph_features."""
        cloud = PointCloud(np.array([[*obj.box.center, 1.0]]))
        assessments = assess([obj], ego, cloud, UncertaintyConfig(), RiskConfig())
        return graph_features([obj], assessments, ego)

    def test_length(self):
        f = self.features(make_object(0, (3, 2, 0), support=(0,)))
        assert f.shape == (2, FEATURE_DIM) == (2, 16)

    def test_stationary_origin_zeros(self):
        f = self.features(make_object(0, (0, 0, 0), support=(0,)))[0]
        np.testing.assert_allclose(f[:6], 0.0)

    def test_yaw_encoding(self):
        f = self.features(make_object(0, (5, 0, 0), yaw=0.0, support=(0,)))[0]
        assert f[9] == pytest.approx(0.0)   # sin
        assert f[10] == pytest.approx(1.0)  # cos

    def test_assessments_in_another_order_rejected(self):
        """Rows pair objects and assessments by position, so assessments in
        another order are refused rather than mixed up."""
        objs = [make_object(0, (5, 0, 0)), make_object(1, (40, 2, 0))]
        assessments = assess(objs, EgoState(), PointCloud(), UncertaintyConfig(), RiskConfig())
        with pytest.raises(ValueError,
                           match=r"assessments\[0\] is for object 1, but objects\[0\] has id 0"):
            graph_features(objs, assessments[::-1], EgoState())

    def test_ego_row(self):
        f = self.features(make_object(0, (5, 0, 0), support=(0,)), EgoState(speed=8.0))[1]
        np.testing.assert_allclose(f[3:6], (8.0, 0.0, 0.0))  # velocity along the heading
        np.testing.assert_allclose(f[6:9], (4.5, 1.9, 1.6))  # nominal ego body
        assert f[15] == 1.0  # risk at distance zero


class TestForwardMc:
    def graph_and_feats(self, cfg=SMALL, seed=0):
        data = synthetic_yield_ignore_dataset(1, seed, PipelineConfig(interaction=cfg))
        return data[0][0], data[0][1]

    def test_degenerate_stds_equal_mean_forward(self):
        model = BgnnModel.initialize(SMALL, seed=0)
        for layer in model.params:
            layer.weight_log_stds[...] = -60.0
            layer.bias_log_stds[...] = -60.0
        graph, feats = self.graph_and_feats()
        mean, std = forward_mc(graph, feats, model.params, mc_samples=1, seed=5)
        means = [[layer.weight_means, layer.bias_means] for layer in model.params]
        np.testing.assert_allclose(mean, _forward(means, graph.attention_matrix(), feats)[0],
                                   atol=1e-12)
        np.testing.assert_allclose(std, 0.0, atol=1e-12)

    def test_seed_reproducible_bitwise(self):
        model = BgnnModel.initialize(SMALL, seed=1)
        graph, feats = self.graph_and_feats(seed=3)
        a_mean, a_std = forward_mc(graph, feats, model.params, 8, seed=11)
        b_mean, b_std = forward_mc(graph, feats, model.params, 8, seed=11)
        assert np.array_equal(a_mean, b_mean) and np.array_equal(a_std, b_std)
        c_mean, _ = forward_mc(graph, feats, model.params, 8, seed=12)
        assert not np.array_equal(a_mean, c_mean)

    def test_isolated_node_independent(self):
        # two objects far apart with a tiny edge radius: no edges at all
        cfg = InteractionConfig(layers=2, embed_dim=8, edge_radius=1e-6)
        objs = [make_object(0, (5, 0, 0), support=()),
                make_object(1, (25, 0, 0), support=())]
        ego = EgoState(speed=8.0)
        cloud = PointCloud(np.array([[5.0, 0, 0, 1.0], [25.0, 0, 0, 1.0]]))
        assessments = assess(objs, ego, cloud, UncertaintyConfig(), RiskConfig())
        graph = build_graph(objs, ego, cfg, STATIC)
        assert len(graph.edges) == 0
        feats = graph_features(objs, assessments, ego)
        model = BgnnModel.initialize(cfg, seed=2)
        base, _ = forward_mc(graph, feats, model.params, 4, seed=0)
        feats2 = feats.copy()
        feats2[1] += 100.0  # perturb the other node only
        pert, _ = forward_mc(graph, feats2, model.params, 4, seed=0)
        np.testing.assert_allclose(pert[0], base[0], atol=1e-12)
        assert not np.allclose(pert[1], base[1])

    def test_permutation_equivariance(self, rng):
        cfg = InteractionConfig(layers=2, embed_dim=8)
        objs = [make_object(i, (rng.uniform(3, 25), rng.uniform(-5, 5), 0),
                            velocity=(rng.uniform(-4, 4), 0, 0)) for i in range(4)]
        ego = EgoState(speed=8.0)
        cloud = PointCloud(np.column_stack([rng.uniform(1, 30, (4, 3)), np.ones(4)]))
        objs = [make_object(o.id, o.box.center, velocity=o.velocity, support=(i,))
                for i, o in enumerate(objs)]
        assessments = assess(objs, ego, cloud, UncertaintyConfig(), RiskConfig())
        model = BgnnModel.initialize(cfg, seed=3)

        graph = build_graph(objs, ego, cfg, STATIC)
        feats = graph_features(objs, assessments, ego)
        base, _ = forward_mc(graph, feats, model.params, 5, seed=7)

        perm = [2, 0, 3, 1]
        objs_p = [objs[i] for i in perm]
        assessments_p = [assessments[i] for i in perm]
        graph_p = build_graph(objs_p, ego, cfg, STATIC)
        feats_p = graph_features(objs_p, assessments_p, ego)
        out_p, _ = forward_mc(graph_p, feats_p, model.params, 5, seed=7)

        for new_row, old_row in enumerate(perm):
            np.testing.assert_allclose(out_p[new_row], base[old_row], atol=1e-9)
        np.testing.assert_allclose(out_p[-1], base[-1], atol=1e-9)  # ego row

    def test_dimension_mismatch_rejected(self):
        model = BgnnModel.initialize(SMALL, seed=0)
        graph, feats = self.graph_and_feats()
        with pytest.raises(ValueError):
            forward_mc(graph, feats[:1], model.params, 2, seed=0)


class TestFuseRefine:
    def test_no_neighbors_identity(self):
        d = dist(0.7, 0.2, 0.1, 0.0)
        assert fuse_refine(d, []).probs == pytest.approx(d.probs, abs=1e-9)

    def test_self_agreement_sharpens(self):
        d = dist(0.7, 0.2, 0.1, 0.0)
        fused = fuse_refine(d, [(d, 1.0)])
        assert shannon_entropy(fused) < shannon_entropy(d)

    def test_uniform_fixed_point(self):
        u = UNIFORM
        fused = fuse_refine(u, [(u, 1.0)])
        assert shannon_entropy(fused) == pytest.approx(shannon_entropy(u), abs=1e-12)

    def test_frozen_numeric_example(self):
        # p^2 renormalized for p = (0.7, 0.2, 0.1, 0); the floored zero entry
        # stays at ~1.9e-18
        fused = fuse_refine(dist(0.7, 0.2, 0.1, 0.0), [(dist(0.7, 0.2, 0.1, 0.0), 1.0)])
        np.testing.assert_allclose(
            fused.probs[:3], [0.9074074074074074, 0.07407407407407407, 0.018518518518518517],
            atol=1e-9)
        assert fused.probs[3] < 1e-15

    def test_attention_zero_is_identity(self):
        d = dist(0.6, 0.3, 0.05, 0.05)
        other = dist(0.05, 0.05, 0.3, 0.6)
        fused = fuse_refine(d, [(other, 0.0)])
        assert fused.probs == pytest.approx(d.probs, abs=1e-9)

    def test_bad_attention_rejected(self):
        d = UNIFORM
        with pytest.raises(ValueError):
            fuse_refine(d, [(d, 1.5)])

    @settings(max_examples=50)
    @given(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4))
    def test_agreeing_evidence_never_raises_entropy(self, raw):
        total = sum(raw)
        d = dist(*(v / total for v in raw))
        fused = fuse_refine(d, [(d, 1.0)])
        assert shannon_entropy(fused) <= shannon_entropy(d) + 1e-12


class TestRefine:
    def test_refine_uncertainty_identity(self):
        d = dist(0.7, 0.2, 0.1, 0.0)
        ucfg = UncertaintyConfig()
        u_raw = ucfg.w_entropy * shannon_entropy(d) / math.log(4)
        assert refine_uncertainty(d, 0.0, ucfg) == pytest.approx(u_raw, abs=1e-12)

    def test_frozen_chain(self):
        # chained oracles, recomputed directly: H 0.801819 -> 0.354829 nats,
        # normalized U (w1 = 0.5, w2 = 0) 0.289195 -> 0.127978
        ucfg = UncertaintyConfig(w_entropy=0.5, w_deviation=0.0)
        raw = dist(0.7, 0.2, 0.1, 0.0)
        fused = fuse_refine(raw, [(raw, 1.0)])
        assert shannon_entropy(fused) == pytest.approx(0.3548290085661215, abs=1e-9)
        assert refine_uncertainty(raw, 0.0, ucfg) == pytest.approx(
            0.28919491236175987, abs=1e-9)
        assert refine_uncertainty(fused, 0.0, ucfg) == pytest.approx(
            0.12797751275547276, abs=1e-9)

    def test_refine_objects_consensus_reduces_uncertainty(self):
        ego = EgoState(speed=8.0)
        probs = (0.475, 0.175, 0.175, 0.175)
        objs = [make_object(i, (10.0 + 4 * i, -2.0 + 2 * i, 0), probs=probs,
                            support=(i,)) for i in range(3)]
        cloud = PointCloud(np.column_stack(
            [np.array([o.box.center for o in objs]), np.ones(3)]))
        ucfg = UncertaintyConfig()
        assessments = assess(objs, ego, cloud, ucfg, RiskConfig())
        graph = build_graph(objs, ego, CFG, STATIC)
        refined = refine_objects(objs, assessments, graph, ego, ucfg, RCFG)
        for a, r in zip(assessments, refined):
            assert r.refined_uncertainty < a.uncertainty
            assert r.epistemic_std == (0.0, 0.0, 0.0)

    def test_graph_of_other_objects_rejected(self):
        objs = [make_object(0, (5, 0, 0)), make_object(1, (9, 2, 0))]
        ego, ucfg = EgoState(), UncertaintyConfig()
        assessments = assess(objs, ego, PointCloud(), ucfg, RiskConfig())
        graph = build_graph(objs[::-1], ego, CFG, STATIC)
        with pytest.raises(ValueError, match="graph nodes"):
            refine_objects(objs, assessments, graph, ego, ucfg, RCFG)

    def test_assessments_in_another_order_rejected(self):
        """The refined uncertainty takes each object's deviation from the
        assessment at its position, so assessments in another order are
        refused rather than mixed up."""
        objs = [make_object(0, (5, 0, 0), yaw=1.0), make_object(1, (9, 2, 0))]
        ego, ucfg = EgoState(), UncertaintyConfig()
        assessments = assess(objs, ego, PointCloud(), ucfg, RiskConfig())
        graph = build_graph(objs, ego, CFG, STATIC)
        with pytest.raises(ValueError,
                           match=r"assessments\[0\] is for object 1, but objects\[0\] has id 0"):
            refine_objects(objs, assessments[::-1], graph, ego, ucfg, RCFG)

    def test_classify_interaction_rules(self):
        ego = EgoState(speed=8.0)
        cases = [
            # closing static vehicle ahead: Yield
            ((10, 0, 0), (0, 0, 0), ObjectClass.VEHICLE, InteractionLabel.YIELD),
            # lead at matching speed: Follow
            ((15, 0, 0), (8, 0, 0), ObjectClass.VEHICLE, InteractionLabel.FOLLOW),
            # pedestrian in corridor: Yield regardless of motion
            ((12, 1, 0), (8.0, 0, 0), ObjectClass.PEDESTRIAN, InteractionLabel.YIELD),
            # outside corridor: Ignore
            ((10, 5, 0), (0, 0, 0), ObjectClass.VEHICLE, InteractionLabel.IGNORE),
        ]
        centers, velocities, classes, labels = zip(*cases)
        got = classify_interaction(np.array(centers, dtype=float),
                                   np.array(velocities, dtype=float),
                                   np.array([c.index for c in classes]), ego, RCFG)
        assert got.tolist() == [label.index for label in labels]


    def test_non_finite_mc_probabilities_raise(self):
        """Head means of 1e308 are finite, but the head's logits overflow."""
        model = BgnnModel.initialize(SMALL, seed=2)
        model.params[-1].weight_means[:] = 1e308
        objs = [make_object(0, (8.0, 0.5, 0.0), velocity=(-3.0, 0.0, 0.0))]
        with pytest.raises(ValueError, match="Monte Carlo interaction probabilities are not "
                                             "finite"):
            refine_with(model, objs, EgoState(speed=8.0), SMALL, RCFG, seed=0)


class TestElbo:
    def test_kl_zero_at_prior(self):
        model = BgnnModel.initialize(SMALL, seed=0)
        for layer in model.params:
            layer.weight_means[...] = 0.0
            layer.bias_means[...] = 0.0
            layer.weight_log_stds[...] = math.log(SMALL.prior_std)
            layer.bias_log_stds[...] = math.log(SMALL.prior_std)
        assert kl_to_prior(model.params, SMALL.prior_std) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_predictions_zero_loss(self):
        # a trained-to-saturation model reaches ~0 cross-entropy: the loss
        # less its KL term of 1/len(data) times the KL to the prior
        cfg = InteractionConfig(layers=1, embed_dim=8, mc_samples=1)
        model = BgnnModel.initialize(cfg, seed=0)
        data = synthetic_yield_ignore_dataset(16, 5, PipelineConfig(interaction=cfg))
        train_bgnn(model, data, steps=300, lr=0.05, seed=1)
        for layer in model.params:  # silence the sampling noise
            layer.weight_log_stds[...] = -60.0
            layer.bias_log_stds[...] = -60.0
        terms, _ = elbo_loss(model.params, data, seed=0, prior_std=cfg.prior_std,
                             mc_samples=1)
        assert terms.loss - kl_to_prior(model.params, cfg.prior_std) / len(data) < 0.05
        assert training_accuracy(model, data) == 1.0

    def test_loss_is_cross_entropy_plus_weighted_kl(self):
        """The terms: the Monte Carlo mean of the batch-mean cross-entropy,
        recomputed from the oracle's per-draw logits, and 1/len(batch) of
        the KL to the prior."""
        model = BgnnModel.initialize(SMALL, seed=4)
        data = synthetic_yield_ignore_dataset(4, 14, PipelineConfig(interaction=SMALL))
        terms, _ = elbo_loss(model.params, data, seed=5, prior_std=SMALL.prior_std,
                             mc_samples=3)
        ce = 0.0
        for graph, feats, labels in data:
            probs = np.exp(mc_logits(graph, feats, model.params, 3, seed=5))
            probs /= probs.sum(axis=-1, keepdims=True)
            labeled = np.nonzero(labels >= 0)[0]
            ce -= np.log(probs[:, labeled, labels[labeled]]).mean()
        assert terms.cross_entropy == pytest.approx(ce / len(data), rel=1e-12)
        assert terms.kl == 1.0 / len(data) * kl_to_prior(model.params, SMALL.prior_std)
        assert terms.loss == terms.cross_entropy + terms.kl

    def test_gradient_matches_finite_differences(self):
        cfg = SMALL
        model = BgnnModel.initialize(cfg, seed=4)
        data = synthetic_yield_ignore_dataset(2, 14, PipelineConfig(interaction=cfg))

        def flatten():
            return np.concatenate([a.ravel() for l in model.params for a in l.arrays()])

        def restore(vec):
            pos = 0
            for layer in model.params:
                for a in layer.arrays():
                    a[...] = vec[pos:pos + a.size].reshape(a.shape)
                    pos += a.size

        x0 = flatten().copy()
        _, grads = elbo_loss(model.params, data, seed=5, prior_std=cfg.prior_std,
                             mc_samples=3)
        g_an = np.concatenate([a.ravel() for g in grads for a in g.arrays()])
        rng = np.random.default_rng(0)
        idx = rng.choice(len(x0), size=60, replace=False)
        h = 1e-3
        for i in idx:
            xp, xm = x0.copy(), x0.copy()
            xp[i] += h
            xm[i] -= h
            restore(xp)
            lp = elbo_loss(model.params, data, seed=5, prior_std=cfg.prior_std,
                           mc_samples=3)[0].loss
            restore(xm)
            lm = elbo_loss(model.params, data, seed=5, prior_std=cfg.prior_std,
                           mc_samples=3)[0].loss
            fd = (lp - lm) / (2 * h)
            assert fd == pytest.approx(g_an[i], rel=1e-3, abs=1e-7)
        restore(x0)


class TestTraining:
    def test_loss_decreases(self):
        cfg = InteractionConfig(layers=2, embed_dim=16, mc_samples=2)
        model = BgnnModel.initialize(cfg, seed=1)
        data = synthetic_yield_ignore_dataset(64, 7, PipelineConfig(interaction=cfg))
        history = train_bgnn(model, data, steps=60, lr=0.02, seed=3)
        assert history[-1].loss < history[0].loss
        assert training_accuracy(model, data) > 0.9

    def test_dataset_reads_the_risk_section(self):
        """The node feature ``risk`` comes from the config's ``risk``
        section, as in the pipeline."""
        decay5 = RiskConfig(decay_length=5.0)
        config = PipelineConfig(interaction=SMALL, risk=decay5)
        for _, feats, _ in synthetic_yield_ignore_dataset(6, 3, config):
            obj = feats[0]
            box = OrientedBox(tuple(obj[0:3]), *obj[6:9], math.atan2(obj[9], obj[10]))
            d_min = min_distance(box_corners(box))  # no cloud: the nearest corner
            assert obj[-1] == proximity_risk(d_min, decay5)
            assert obj[-1] != proximity_risk(d_min, RiskConfig())


    def test_diverging_step_raises(self):
        """Head means of 1e308 overflow the first step's logits: training
        stops there, naming the step and the learning rate."""
        model = BgnnModel.initialize(SMALL, seed=1)
        model.params[-1].weight_means[:] = 1e308
        data = synthetic_yield_ignore_dataset(4, 7, PipelineConfig(interaction=SMALL))
        with pytest.raises(ValueError, match=r"^training diverged at step 1 of 3: .*"
                                             r"try a smaller --lr than 0\.01$"):
            train_bgnn(model, data, steps=3, lr=0.01, seed=3)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        model = BgnnModel.initialize(SMALL, seed=9)
        path = tmp_path / "model.bin"
        save_model(model, path)
        assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]
        back = load_model(path, SMALL)
        assert back.config == model.config
        assert len(back.params) == len(model.params)
        for a, b in zip(model.params, back.params):
            for x, y in zip(a.arrays(), b.arrays()):
                np.testing.assert_array_equal(x, y)
        save_model(back, tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

    def test_loaded_model_carries_the_given_config(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(BgnnModel.initialize(SMALL, seed=9), path)
        cfg = InteractionConfig(layers=2, embed_dim=8, mc_samples=5, edge_radius=12.0)
        assert load_model(path, cfg).config is cfg

    def test_forward_identical_after_reload(self, tmp_path):
        model = BgnnModel.initialize(SMALL, seed=9)
        data = synthetic_yield_ignore_dataset(1, 0, PipelineConfig(interaction=SMALL))
        graph, feats, _ = data[0]
        save_model(model, tmp_path / "m.bin")
        back = load_model(tmp_path / "m.bin", SMALL)
        a, _ = forward_mc(graph, feats, model.params, 4, seed=2)
        b, _ = forward_mc(graph, feats, back.params, 4, seed=2)
        np.testing.assert_array_equal(a, b)

    def test_log_std_bound(self, tmp_path):
        """A log-std of MAX_LOG_STD loads; the next float above it is named
        with its layer."""
        model = BgnnModel.initialize(SMALL, seed=9)
        path = tmp_path / "model.bin"
        model.params[-1].bias_log_stds[0] = MAX_LOG_STD
        save_model(model, path)
        assert load_model(path, SMALL).params[-1].bias_log_stds[0] == MAX_LOG_STD
        above = np.nextafter(MAX_LOG_STD, math.inf)
        model.params[2].weight_log_stds[1, 1] = above
        save_model(model, path)
        with pytest.raises(ValueError) as info:
            load_model(path, SMALL)
        assert str(info.value) == (f"{path}: layer 2 has a log-std of {float(above)!r}, "
                                   f"above the bound {MAX_LOG_STD!r}")

    def save_small(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(BgnnModel.initialize(SMALL, seed=9), path)
        return path, path.read_bytes()

    def test_truncated_body_rejected(self, tmp_path):
        path, raw = self.save_small(tmp_path)
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError) as info:
            load_model(path)
        assert str(info.value) == (f"{path}: the header and 5 layers take {len(raw)} bytes, "
                                   f"but the file has {len(raw) - 8}")

    def test_short_header_rejected(self, tmp_path):
        path, raw = self.save_small(tmp_path)
        path.write_bytes(raw[:10])
        with pytest.raises(ValueError) as info:
            load_model(path)
        assert str(info.value) == (f"{path}: the magic and layer count take 12 bytes, "
                                   f"but the file has 10")

    def test_trailing_bytes_rejected(self, tmp_path):
        path, raw = self.save_small(tmp_path)
        path.write_bytes(raw + bytes(8))
        with pytest.raises(ValueError) as info:
            load_model(path)
        assert str(info.value) == (f"{path}: the header and 5 layers take {len(raw)} bytes, "
                                   f"but the file has {len(raw) + 8}")

    def save_layers(self, tmp_path, dims):
        """Write a model whose layers have the given (out, in) dims."""
        rng = np.random.default_rng(0)
        path = tmp_path / "model.bin"
        save_model(BgnnModel(SMALL, [BayesianLayer.initialize(o, i, rng) for o, i in dims]),
                   path)
        return path

    def test_in_dim_other_than_features_rejected(self, tmp_path):
        path = self.save_layers(tmp_path, [(8, 10), (8, 10), (8, 8), (8, 8), (3, 8)])
        with pytest.raises(ValueError) as info:
            load_model(path, SMALL)
        assert str(info.value) == (
            f"{path}: layer 0 is 8 x 10 (out x in), but interaction.embed_dim 8, "
            f"{FEATURE_DIM} node features and 3 labels need 8 x {FEATURE_DIM}")

    def test_config_layers_disagree_with_body(self, tmp_path):
        path, _ = self.save_small(tmp_path)
        with pytest.raises(ValueError) as info:
            load_model(path, InteractionConfig(layers=1, embed_dim=8))
        assert str(info.value) == f"{path}: has 5 layers, but interaction.layers 1 needs 3"

    def test_config_embed_dim_disagrees_with_body(self, tmp_path):
        path, _ = self.save_small(tmp_path)
        with pytest.raises(ValueError) as info:
            load_model(path, InteractionConfig(layers=2, embed_dim=64))
        assert str(info.value) == (
            f"{path}: layer 0 is 8 x {FEATURE_DIM} (out x in), but interaction.embed_dim 64, "
            f"{FEATURE_DIM} node features and 3 labels need 64 x {FEATURE_DIM}")

    def test_head_out_dim_other_than_labels_rejected(self, tmp_path):
        path = self.save_layers(tmp_path, [(8, FEATURE_DIM), (8, FEATURE_DIM), (8, 8), (8, 8),
                                           (4, 8)])
        with pytest.raises(ValueError) as info:
            load_model(path, SMALL)
        assert str(info.value) == (
            f"{path}: layer 4 is 4 x 8 (out x in), but interaction.embed_dim 8, "
            f"{FEATURE_DIM} node features and 3 labels need 3 x 8")
