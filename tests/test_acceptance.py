"""Acceptance suite.

Each test covers one exit criterion at its stated tolerance and runtime
budget and prints a single PASS line (run with ``pytest -s`` to see them;
a failed assertion marks the criterion FAIL).
"""

import json
import math
import time

import numpy as np
import pytest

from drivetrace.cli import main
from drivetrace.config import PipelineConfig
from drivetrace.detector import NoiseModel
from drivetrace.evaluate import ClassMetrics, evaluate_suite, f1_per_class, parse_csv, render_csv
from drivetrace.interaction import (
    BgnnModel,
    InteractionConfig,
    build_graph,
    elbo_loss,
    interaction_energy,
    refine_objects,
    synthetic_yield_ignore_dataset,
    train_bgnn,
    training_accuracy,
)
from drivetrace.pipeline import run_scene
from drivetrace.risk import RiskConfig, UncertaintyConfig, assess, entropies
from drivetrace.scenario import ScenarioSpec, Template, generate
from drivetrace.scene import ClassDistribution, EgoState, PointCloud, box_iou
from conftest import UNIFORM, make_object, mc_box_iou, random_box
from interaction_oracle import forward_mc, fuse_refine
from risk_oracle import shannon_entropy


class Budget:
    def __init__(self, criterion: str, limit_s: float):
        self.criterion = criterion
        self.limit = limit_s

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.criterion}: {status} ({elapsed:.1f}s / {self.limit:.0f}s budget)")
        if exc_type is None:
            assert elapsed < self.limit, f"{self.criterion} exceeded runtime budget"
        return False


def test_c01_formula_unit_suite():
    with Budget("1 formula unit suite", 1.0):
        # entropy
        one_hot, uniform = entropies(np.array([(1.0, 0.0, 0.0, 0.0), UNIFORM.probs]))
        assert one_hot == 0.0
        assert uniform == pytest.approx(math.log(4), abs=1e-9)
        # proximity risk at 0 m and 20 m, and the deviation wrap of yaw 3 from -3
        cloud = PointCloud(np.array([[0.0, 0.0, 0.0, 1.0], [20.0, 0.0, 0.0, 1.0]]))
        near = make_object(0, (0.0, 0.0, 0.0), yaw=3.0, support=(0,))
        far = make_object(1, (20.0, 0.0, 0.0), support=(1,))
        a_near, a_far = assess([near, far], EgoState(lane_heading=-3.0), cloud,
                               UncertaintyConfig(), RiskConfig(decay_length=20.0))
        assert a_near.risk == 1.0
        assert a_far.risk == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert a_near.deviation == pytest.approx(2 * math.pi - 6.0, abs=1e-12)
        # interaction energy linearity
        cfg = InteractionConfig(w_distance=0.05, w_speed=0.1, w_intensity=1.0)
        for alpha in (0.0, 0.5, 1.0, 2.0, 7.5):
            base = interaction_energy(3.0, 2.0, 0.4, cfg)
            assert interaction_energy(3.0 * alpha, 2.0 * alpha, 0.4 * alpha, cfg) == \
                pytest.approx(alpha * base, abs=1e-12)


def test_c02_iou_oracle_equivalence():
    with Budget("2 IoU vs Monte Carlo oracle", 60.0):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for k in range(100):
            a, b = random_box(rng), random_box(rng)
            analytic = box_iou(a, b)
            sampled = mc_box_iou(a, b, n=1_000_000, seed=k)
            worst = max(worst, abs(analytic - sampled))
        assert worst < 0.01, f"worst |analytic - MC| = {worst}"


def test_c03_elbo_gradient_check():
    with Budget("3 ELBO gradient check", 30.0):
        cfg = InteractionConfig(layers=2, embed_dim=8, mc_samples=3)
        step = 1e-3
        for seed in range(5):
            model = BgnnModel.initialize(cfg, seed=seed)
            data = synthetic_yield_ignore_dataset(2, seed + 10, PipelineConfig(interaction=cfg))

            def flatten():
                return np.concatenate([a.ravel() for l in model.params
                                       for a in l.arrays()])

            def restore(vec):
                pos = 0
                for layer in model.params:
                    for a in layer.arrays():
                        a[...] = vec[pos:pos + a.size].reshape(a.shape)
                        pos += a.size

            def loss_at(vec):
                restore(vec)
                terms, _ = elbo_loss(model.params, data, seed=seed,
                                     prior_std=cfg.prior_std, mc_samples=3)
                return terms.loss

            x0 = flatten().copy()
            _, grads = elbo_loss(model.params, data, seed=seed,
                                 prior_std=cfg.prior_std, mc_samples=3)
            analytic = np.concatenate([a.ravel() for g in grads for a in g.arrays()])
            fd = np.zeros_like(x0)
            for i in range(len(x0)):
                xp, xm = x0.copy(), x0.copy()
                xp[i] += step
                xm[i] -= step
                fd[i] = (loss_at(xp) - loss_at(xm)) / (2 * step)
            restore(x0)
            rel = np.linalg.norm(analytic - fd) / max(
                np.linalg.norm(analytic), np.linalg.norm(fd))
            assert rel < 1e-4, f"seed {seed}: relative error {rel}"


def test_c04_monte_carlo_convergence():
    with Budget("4 Monte Carlo convergence", 60.0):
        cfg = InteractionConfig(layers=2, embed_dim=16, mc_samples=8)
        model = BgnnModel.initialize(cfg, seed=0)
        for layer in model.params:  # meaningful posterior spread
            layer.weight_log_stds[...] = math.log(0.3)
            layer.bias_log_stds[...] = math.log(0.3)
        graph, feats, _ = synthetic_yield_ignore_dataset(1, 99, PipelineConfig(interaction=cfg))[0]
        stds = {}
        for samples in (10, 100):
            means = [forward_mc(graph, feats, model.params, samples, seed=run)[0]
                     for run in range(10)]
            stds[samples] = float(np.stack(means).std(axis=0).mean())
        ratio = stds[10] / stds[100]
        target = math.sqrt(10.0)
        assert target * 0.7 <= ratio <= target * 1.3, f"ratio {ratio}"


def test_c05_fusion_sharpening_property():
    with Budget("5 fusion sharpening property", 5.0):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            raw = rng.uniform(0.02, 1.0, 4)
            p = ClassDistribution.from_array(raw / raw.sum())
            if max(p.probs) - min(p.probs) < 1e-6:
                continue  # effectively uniform
            fused = fuse_refine(p, [(p, 1.0)])
            assert shannon_entropy(fused) < shannon_entropy(p)
        u = UNIFORM
        assert shannon_entropy(fuse_refine(u, [(u, 1.0)])) == pytest.approx(
            shannon_entropy(u), abs=1e-12)


def test_c06_bgnn_trainer_sanity():
    with Budget("6 BGNN trainer sanity", 120.0):
        cfg = InteractionConfig(layers=2, embed_dim=16, mc_samples=2)
        model = BgnnModel.initialize(cfg, seed=1)
        data = synthetic_yield_ignore_dataset(128, 7, PipelineConfig(interaction=cfg))
        train_bgnn(model, data, steps=200, lr=0.02, seed=3)
        accuracy = training_accuracy(model, data)
        assert accuracy >= 0.95, f"training accuracy {accuracy}"


def test_c07_behavioral_suite():
    with Budget("7 behavioral suite", 120.0):
        config = PipelineConfig()  # default: noiseless oracle detector
        requirements = [
            (Template.PEDESTRIAN_CROSSING, lambda t: t.speed.value == "Brake", 19),
            (Template.STATIC_VEHICLE_AHEAD,
             lambda t: t.speed.value == "SlowDown" or t.path.value == "LaneChange", 19),
            (Template.LEAD_VEHICLE, lambda t: t.speed.value == "FollowAhead", 19),
            (Template.EMPTY_ROAD, lambda t: t.speed.value == "SpeedLimit", 20),
            (Template.OCCLUDED_JUNCTION, lambda t: t.speed.value == "SlowApproach", 19),
        ]
        for template, ok, need in requirements:
            hits = 0
            for seed in range(20):
                scene = generate(ScenarioSpec(template=template, seed=seed))
                result = run_scene(scene, config)
                if ok(result.trace):
                    hits += 1
            assert hits >= need, f"{template.value}: {hits}/20 < {need}/20"


def test_c08_uncertainty_reduction_direction():
    with Budget("8 uncertainty reduction on consensus suite", 120.0):
        # agreeing neighbor evidence: dense same-class traffic, detector with
        # temperature smoothing so the raw class entropy is non-trivial
        import dataclasses
        config = dataclasses.replace(
            PipelineConfig(), noise=NoiseModel(class_temperature=1.0))
        raw_total = refined_total = n = 0.0
        for seed in range(50):
            scene = generate(ScenarioSpec(template=Template.DENSE_TRAFFIC, seed=seed))
            result = run_scene(scene, config)
            for a, r in zip(result.assessments, result.refined):
                raw_total += a.uncertainty
                refined_total += r.refined_uncertainty
                n += 1
        assert n > 0
        mean_raw = raw_total / n
        mean_refined = refined_total / n
        reduction = (mean_raw - mean_refined) / mean_raw
        assert mean_refined < mean_raw
        assert reduction >= 0.05, f"reduction {reduction:.1%} below 5% floor"


def test_c09_cli_determinism(tmp_path):
    with Budget("9 CLI determinism", 60.0):
        outs = []
        for tag in ("a", "b"):
            root = tmp_path / tag
            gen = root / "gen"
            assert main(["generate", "--template",
                         "pedestrian-crossing,static-vehicle-ahead",
                         "--count", "2", "--seed", "4", "--out", str(gen)]) == 0
            scene = gen / "scene_pedestrian-crossing_0004.json"
            assert main(["detect", "--scene", str(scene), "--seed", "4",
                         "--out", str(root / "det")]) == 0
            assert main(["reason", "--scene", str(scene), "--seed", "4",
                         "--out", str(root / "reason")]) == 0
            assert main(["evaluate", "--manifest", str(gen / "manifest.json"),
                         "--seed", "4", "--out", str(root / "eval")]) == 0
            outs.append(root)
        a, b = outs
        compared = 0
        for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), str(rel)
            compared += 1
        assert compared >= 10


def test_c10_metric_harness(tmp_path):
    with Budget("10 metric harness", 60.0):
        # hand-computed confusion: TP = 8, FP = 2, FN = 4
        preds = ["Brake"] * 8 + ["Brake"] * 2 + ["SlowDown"] * 4
        labels = ["Brake"] * 8 + ["SlowDown"] * 2 + ["Brake"] * 4
        m = f1_per_class(preds, labels)["Brake"]
        assert m.precision == 0.8
        assert m.recall == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert m.f1 == pytest.approx(8.0 / 11.0, abs=1e-15)
        assert m == ClassMetrics(0.8, 8 / 12, 2 * 0.8 * (8 / 12) / (0.8 + 8 / 12))
        # suite-level CSV round trip on real pipeline output
        gen = tmp_path / "gen"
        assert main(["generate", "--template", "empty-road,pedestrian-crossing",
                     "--count", "2", "--out", str(gen)]) == 0
        result, records = evaluate_suite(gen / "manifest.json", PipelineConfig())
        assert parse_csv(render_csv(result), "report.csv") == result
        # confusion-matrix row sums equal per-class ground-truth counts
        row_sums = {k: sum(v.values()) for k, v in result.speed_confusion.items()}
        assert row_sums == {"SpeedLimit": 2, "Brake": 2}
        # micro accuracy from the confusion matrix equals the share of scenes
        # whose speed decision was right
        total = sum(row_sums.values())
        diag = sum(result.speed_confusion[c].get(c, 0) for c in result.speed_confusion)
        hits = sum(r.predicted_speed == r.expected_speed for r in records)
        assert diag / total == pytest.approx(hits / len(records))
