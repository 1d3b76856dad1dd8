"""Command-line interface wiring the pipeline stages together.

Every command writes all artifacts under ``--out <dir>``.  All but ``report``
also take ``--config <file>`` (JSON; without it, the built-in defaults) and
``--seed <n>``, and are deterministic for a fixed config and seed.  Exit
codes: 0 success, 1 runtime failure, 2 usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .config import PipelineConfig, load_config, save_config
from .evaluate import evaluate_suite, parse_csv, record_to_dict, write_report
from .interaction import (
    BgnnModel,
    graph_to_dict,
    load_model,
    save_model,
    synthetic_yield_ignore_dataset,
    train_bgnn,
    training_accuracy,
)
from .pipeline import run_scene
from .reasoner import format_trace
from .risk import assessment_to_dict
from .scenario import ScenarioSpec, Template, generate
from .scene_io import load_scene, object_to_dict, save_scene, write_json


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load(args) -> PipelineConfig:
    return load_config(args.config, seed=args.seed)


def cmd_generate(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    templates = [Template(t) for t in args.template.split(",")]
    for k, template in enumerate(templates):
        if template in templates[:k]:
            raise ValueError(f"--template lists {template.value} twice")
    config = _load(args)
    # every spec is checked before anything is written
    specs = [ScenarioSpec(template=template, seed=config.seed + k, n_objects=args.n_objects,
                          noise_std=args.noise_std, points_per_m2=args.density)
             for template in templates for k in range(args.count)]
    out = _out_dir(args)
    entries = []
    for spec in specs:
        name = f"scene_{spec.template.value}_{spec.seed:04d}.json"
        save_scene(generate(spec), out / name, cloud_format=args.cloud_format)
        entries.append({"path": name, "template": spec.template.value, "seed": spec.seed})
    write_json({"scenes": entries}, out / "manifest.json")
    save_config(config, out / "config.json")
    print(f"wrote {len(entries)} scenes to {out}")
    return 0


#: Scene commands: output file, payload of the pipeline result, and the
#: stdout line of (payload, output path).  A text payload is written as is.
SCENE_COMMANDS = {
    "detect": ("detections.json",
               lambda r: [object_to_dict(o) for o in r.detections],
               lambda dets, path: f"{len(dets)} detections -> {path}"),
    "assess": ("assessments.json",
               lambda r: [assessment_to_dict(a) for a in r.assessments],
               lambda assessments, path: f"{len(assessments)} assessments -> {path}"),
    "graph": ("graph.json",
              lambda r: {**graph_to_dict(r.graph), "refined": r.refined},
              lambda graph, path: f"graph with {len(graph['edges'])} edges -> {path}"),
    "reason": ("trace.json",
               lambda r: r.trace,
               lambda trace, path: f"{trace.speed.value} / {trace.path.value} -> {path}"),
    "trace": ("trace.txt",
              lambda r: format_trace(r.trace),
              lambda text, path: text),
}


def cmd_scene(args) -> int:
    """Run the pipeline on one scene and write the output of ``args.command``."""
    out = _out_dir(args)
    config = _load(args)
    scene = load_scene(args.scene)
    model = load_model(args.model, config.interaction) if args.model else None
    name, payload_of, line = SCENE_COMMANDS[args.command]
    try:
        result = run_scene(scene, config, model)
    except ValueError as exc:
        raise ValueError(f"{args.scene}: {exc}") from None
    payload = payload_of(result)
    if isinstance(payload, str):
        (out / name).write_text(payload + "\n")
    else:
        write_json(payload, out / name)
    print(line(payload, out / name))
    return 0


def cmd_train_bgnn(args) -> int:
    out = _out_dir(args)
    config = _load(args)
    model = BgnnModel.initialize(config.interaction, seed=config.seed)
    dataset = synthetic_yield_ignore_dataset(args.samples, config.seed, config)
    history = train_bgnn(model, dataset, steps=args.steps, lr=args.lr,
                         seed=config.seed)
    accuracy = training_accuracy(model, dataset)
    save_model(model, out / "model.bin")
    final = history[-1]
    write_json({"steps": args.steps, "final_loss": final.loss,
                "final_cross_entropy": final.cross_entropy, "final_kl": final.kl,
                "accuracy": accuracy}, out / "training.json")
    print(f"trained {args.steps} steps, accuracy {accuracy:.3f} -> {out / 'model.bin'}")
    return 0


def cmd_evaluate(args) -> int:
    out = _out_dir(args)
    config = _load(args)
    model = load_model(args.model, config.interaction) if args.model else None
    result, records = evaluate_suite(args.manifest, config, model=model)
    write_report(result, out)
    write_json(result, out / "result.json")
    write_json([record_to_dict(r) for r in records], out / "scenes.json")
    errors = result.counts.get("errors", 0)
    print((out / "report.txt").read_text())
    if errors:
        print(f"{errors} scene(s) failed", file=sys.stderr)
        return 1
    return 0


def cmd_report(args) -> int:
    out = _out_dir(args)
    try:
        text = Path(args.csv).read_text()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{args.csv}: {exc}") from None
    paths = write_report(parse_csv(text, args.csv), out)
    print("\n".join(str(p) for p in paths))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drivetrace",
        description="LiDAR scene risk assessment with interpretable decision traces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="pipeline config JSON (default: builtin)")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("generate", help="generate synthetic scenario scenes")
    common(p)
    p.add_argument("--template", required=True,
                   help="comma-separated template names "
                        f"({','.join(t.value for t in Template)})")
    p.add_argument("--count", type=int, default=1, help="scenes per template")
    p.add_argument("--density", type=float, default=50.0, help="surface points per m^2")
    p.add_argument("--noise-std", type=float, default=0.02, help="range noise std (m)")
    p.add_argument("--n-objects", type=int, default=4, help="extra objects (dense traffic)")
    p.add_argument("--cloud-format", choices=("ascii", "binary"), default="ascii")
    p.set_defaults(func=cmd_generate)

    for name in SCENE_COMMANDS:
        p = sub.add_parser(name, help=f"run the pipeline and write {name} output")
        common(p)
        p.add_argument("--scene", required=True, help="scene JSON file")
        p.add_argument("--model", help="trained BGNN parameter file")
        p.set_defaults(func=cmd_scene)

    p = sub.add_parser("train-bgnn", help="train the interaction BGNN on synthetic labels")
    common(p)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--samples", type=int, default=128, help="training graphs")
    p.add_argument("--lr", type=float, default=0.01)
    p.set_defaults(func=cmd_train_bgnn)

    p = sub.add_parser("evaluate", help="run a scenario suite and report metrics")
    common(p)
    p.add_argument("--manifest", required=True, help="suite manifest JSON")
    p.add_argument("--model", help="trained BGNN parameter file")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="re-render reports from a result CSV")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--csv", required=True, help="report.csv from a previous evaluate")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
