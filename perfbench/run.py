"""drivetrace benchmark: CLI suite throughput, per-frame latency and
per-layer traced timings.

Run from the root of a drivetrace checkout:

    python3 perfbench/run.py --workload suite-ascii --seed 1 --seconds 15 --trace 0

One client runs a closed loop: each pass starts when the previous one has
ended.  ``--trace 0`` reports the end-to-end metrics from untraced runs;
``--trace 1`` runs the same work with the span recorder of ``tracer.py``
installed and reports the per-layer metrics.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the environment and
the sample details.  The exit code is 0 only when every output check
passed.  See ``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"
CHILD_TIMEOUT_S = 120.0
ALL_TEMPLATES = ("empty-road", "lead-vehicle", "pedestrian-crossing",
                 "occluded-junction", "dense-traffic", "static-vehicle-ahead")
OUTPUT_FILES = ("result.json", "scenes.json", "report.txt", "report.csv",
                "report_plot.json")
REPORT_FILES = ("report.txt", "report.csv", "report_plot.json")


@dataclass(frozen=True)
class Workload:
    templates: tuple[str, ...]
    count: int  # scenes per template (the generate --count flag)
    cloud_format: str
    detector: str
    model: bool = False
    n_objects: Optional[int] = None


# Why each workload exists: BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    "suite-ascii": Workload(ALL_TEMPLATES, 5, "ascii", "oracle"),
    "suite-model": Workload(ALL_TEMPLATES, 5, "binary", "oracle", model=True),
    "dense-60": Workload(("dense-traffic",), 10, "binary", "oracle", n_objects=60),
    "suite-geometric": Workload(ALL_TEMPLATES, 5, "binary", "geometric"),
}


@dataclass(frozen=True)
class Sizing:
    setup_reps: int = 3  # setups per untraced run; setup_s is their median
    min_frames: int = 100  # so that p90 has at least ten samples beyond it
    min_passes: int = 3  # evaluate passes per untraced run
    min_traced_passes: int = 2
    frame_share: float = 0.3  # share of --seconds spent on per-frame calls
    import_reps: int = 5


SMOKE = Sizing(setup_reps=1, min_frames=1, min_passes=2, min_traced_passes=2,
               import_reps=1)


class Checks:
    """Counts operations and records every failed output check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


# Time of one reference burst on the machine this benchmark was tuned on
# (2-vCPU Intel Xeon VM, Python 3.11.7, numpy 2.4.6) when its vCPUs ran at
# full speed; it only sets the scale of the normalised times.
REFERENCE_BURST_MS = 10.0
FRAME_BLOCK_S = 0.25  # frames run in blocks of at least this long


def reference_burst_ms() -> float:
    """Time one fixed computation that does not touch drivetrace: a Python
    loop and small numpy operations, the mix the pipeline runs."""
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    a = np.linspace(0.0, 1.0, 2_000)
    for _ in range(500):
        a = np.sqrt(a * a + 1.0) - 0.5
    return (time.perf_counter() - start) * 1e3


class HostSpeed:
    """How slow the host runs, from a reference burst timed between every
    two operations of a run.

    The vCPUs of a shared machine drift: on the 2-vCPU VM this benchmark was
    tuned on, the same fixed computation ran up to 1.7x slower for seconds
    to minutes at a time, which put the raw run-to-run spread of the time
    metrics at 0.2-0.5 of their median.  Each timed value is therefore
    divided by the host factor over the operation that produced it, so that
    the metrics measure the program rather than the host.  The raw values
    are kept in the run's detail.
    """

    def __init__(self) -> None:
        self.bursts_ms = [reference_burst_ms()]

    def around(self, op):
        """Run ``op`` between two bursts; returns its result and the host
        factor over it: the mean of the two bursts over the reference."""
        before = self.bursts_ms[-1]
        result = op()
        self.bursts_ms.append(reference_burst_ms())
        return result, (before + self.bursts_ms[-1]) / (2 * REFERENCE_BURST_MS)

    @property
    def factor(self) -> float:
        """The median factor over the run."""
        return statistics.median(self.bursts_ms) / REFERENCE_BURST_MS


@dataclass
class Samples:
    """Timed values of a run, raw and divided by their host factor."""

    raw: list[float] = field(default_factory=list)
    normalised: list[float] = field(default_factory=list)

    def add(self, values: list[float], factor: float) -> None:
        self.raw.extend(values)
        self.normalised.extend(v / factor for v in values)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PRIME_CONFIG", None)
    return env


# Children are started through this small launcher rather than directly:
# Linux records a process's peak RSS across exec, so a child forked from the
# benchmark process (numpy and scenes loaded) would report the benchmark's
# peak instead of its own.
LAUNCHER = r"""
import json, os, subprocess, sys, threading, time
start = time.perf_counter()
proc = subprocess.Popen(sys.argv[2:], stdout=subprocess.DEVNULL)
killer = threading.Timer(float(sys.argv[1]), proc.kill)
killer.start()
try:
    _, status, usage = os.wait4(proc.pid, 0)
finally:
    killer.cancel()
wall = time.perf_counter() - start
print(json.dumps([os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0]))
"""


def run_child(args: list[str], log: Path) -> tuple[int, float, float]:
    """Run one child to completion; returns (exit code, wall s, peak RSS MB)."""
    with log.open("wb") as err:
        launched = subprocess.run(
            [sys.executable, "-S", "-c", LAUNCHER, str(CHILD_TIMEOUT_S), *args],
            stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT,
            timeout=CHILD_TIMEOUT_S + 30, check=True)
    rc, wall, rss_mb = json.loads(launched.stdout)
    return rc, wall, rss_mb


def cli_args(*args: str) -> list[str]:
    return [sys.executable, "-m", "drivetrace.cli", *args]


def generate_args(w: Workload, seed: int, out: Path) -> list[str]:
    args = ["generate", "--template", ",".join(w.templates), "--count", str(w.count),
            "--seed", str(seed), "--cloud-format", w.cloud_format, "--out", str(out)]
    if w.n_objects is not None:
        args += ["--n-objects", str(w.n_objects)]
    return args


def write_model(path: Path) -> None:
    from drivetrace.interaction import BgnnModel, InteractionConfig, save_model

    save_model(BgnnModel.initialize(InteractionConfig(), seed=0), path)


def evaluate_args(w: Workload, suite: Path, config: Path, out: Path) -> list[str]:
    args = ["evaluate", "--manifest", str(suite / "manifest.json"),
            "--config", str(config), "--out", str(out)]
    if w.model:
        args += ["--model", str(suite / "model.bin")]
    return args


def read_outputs(out: Path) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in OUTPUT_FILES
            if (out / name).exists()}


def check_pass(checks: Checks, label: str, rc: int, out: Path, rerender_rc: int,
               rerender: Path, reference: dict[str, bytes], n_scenes: int) -> dict[str, bytes]:
    """Output checks of one evaluate + report pass; returns its outputs."""
    outputs = read_outputs(out)
    checks.op(rc == 0 and len(outputs) == len(OUTPUT_FILES),
              f"{label}: evaluate exited {rc} or left outputs missing")
    scenes = json.loads(outputs.get("scenes.json", b"[]"))
    checks.op(len(scenes) == n_scenes,
              f"{label}: scenes.json lists {len(scenes)} of {n_scenes} scenes")
    for rec in scenes:
        checks.op(rec["error"] is None, f"{label}: {rec['path']} failed: {rec['error']}")
    if reference:
        for name in OUTPUT_FILES:
            checks.op(outputs.get(name) == reference.get(name),
                      f"{label}: {name} differs from the first pass")
    same = rerender_rc == 0 and all(
        (rerender / name).exists() and (rerender / name).read_bytes() == outputs.get(name)
        for name in REPORT_FILES)
    checks.op(same, f"{label}: report --csv did not reproduce the reports")
    return outputs


def decisions_of(scenes_json: bytes) -> dict[str, tuple[str, str]]:
    return {r["path"]: (r["predicted_speed"], r["predicted_path"])
            for r in json.loads(scenes_json)}


def quality(outputs: dict[str, bytes]) -> tuple[float, float]:
    scenes = json.loads(outputs["scenes.json"])
    hits = sum(1 for r in scenes if r["predicted_speed"] == r["expected_speed"]
               and r["predicted_path"] == r["expected_path"])
    mean_iou = json.loads(outputs["result.json"])["mean_iou"]
    return hits / len(scenes), float(mean_iou)


def load_inputs(w: Workload, suite: Path, config: Path):
    from drivetrace.config import load_config
    from drivetrace.interaction import load_model
    from drivetrace.scene_io import load_scene

    entries = json.loads((suite / "manifest.json").read_text())["scenes"]
    scenes = [(e["path"], load_scene(suite / e["path"])) for e in entries]
    model = load_model(suite / "model.bin") if w.model else None
    return scenes, load_config(config), model


def run_frame(scene, cfg, model) -> tuple[float, tuple[str, str]]:
    """One in-process ``run_scene`` call: its latency (ms) and decision."""
    import drivetrace.pipeline as pipeline

    start = time.perf_counter()
    result = pipeline.run_scene(scene, cfg, model)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    return elapsed_ms, (result.trace.speed.value, result.trace.path.value)


def frame_blocks(scenes, frame):
    """An operation that calls ``frame(path, scene)`` on the scenes in turn,
    round robin from where the previous block stopped, for at least
    ``FRAME_BLOCK_S``; it returns the latencies (ms) the calls return."""
    turn = itertools.cycle(scenes)

    def block() -> list[float]:
        samples: list[float] = []
        start = time.perf_counter()
        while not samples or time.perf_counter() - start < FRAME_BLOCK_S:
            samples.append(frame(*next(turn)))
        return samples

    return block


def frames_agree(checks: Checks, label: str, got: dict, expected: dict) -> None:
    for path, decision in expected.items():
        checks.op(got.get(path) == decision,
                  f"{label}: {path} decided {got.get(path)}, expected {decision}")


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"p25": values[0], "p50": values[0], "p75": values[0], "n": len(values)}
    q = statistics.quantiles(values, n=4)
    return {"p25": q[0], "p50": statistics.median(values), "p75": q[2], "n": len(values)}


def closed_loop(seconds: float, frame_share: float, min_frames: int, min_passes: int,
                frame_block, evaluate_pass, host: HostSpeed) -> tuple[Samples, Samples]:
    """One client, one operation at a time: evaluate passes interleaved with
    blocks of in-process frames, so that both sample the whole run.  Blocks get
    ``frame_share`` of the time and keep pace with ``min_frames``; the loop
    ends after ``seconds`` once both minimums are met.  Returns the frame
    latencies (ms) and the pass times (s)."""
    frames, passes = Samples(), Samples()
    start = time.perf_counter()
    frame_time = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            if len(frames.raw) >= min_frames and len(passes.raw) >= min_passes:
                return frames, passes
            do_frames = len(frames.raw) < min_frames
        else:
            do_frames = (frame_time < frame_share * elapsed
                         or len(frames.raw) < min_frames * elapsed / seconds)
        if do_frames:
            t0 = time.perf_counter()
            frames.add(*host.around(frame_block))
            frame_time += time.perf_counter() - t0
        else:
            passes.add(*host.around(evaluate_pass))


def untraced_run(w: Workload, seed: int, seconds: float, sizing: Sizing,
                 run_dir: Path, checks: Checks):
    config = run_dir / "config.json"
    host = HostSpeed()
    setup = Samples()
    for rep in range(sizing.setup_reps):
        suite = run_dir / f"suite{rep}"

        def set_up() -> list[float]:
            start = time.perf_counter()
            rc, _, _ = run_child(cli_args(*generate_args(w, seed, suite)),
                                 run_dir / "generate.log")
            if w.model:
                write_model(suite / "model.bin")
            config.write_text(json.dumps({"detector": w.detector}) + "\n")
            checks.op(rc == 0, f"generate exited {rc}")
            return [time.perf_counter() - start]

        setup.add(*host.around(set_up))
        if rep:
            shutil.rmtree(run_dir / f"suite{rep - 1}")
    scenes, cfg, model = load_inputs(w, suite, config)

    warm = {path: run_frame(scene, cfg, model)[1] for path, scene in scenes}
    rss_mb: list[float] = []
    reference: dict[str, bytes] = {}

    def frame(path: str, scene) -> float:
        elapsed_ms, decision = run_frame(scene, cfg, model)
        checks.op(decision == warm[path],
                  f"in-process {path} decided {decision}, first {warm[path]}")
        return elapsed_ms

    def evaluate_pass() -> list[float]:
        nonlocal reference
        out, rerender = run_dir / "eval", run_dir / "rerender"
        rc, wall, rss = run_child(cli_args(*evaluate_args(w, suite, config, out)),
                                  run_dir / "evaluate.log")
        rss_mb.append(rss)
        rrc, _, _ = run_child(cli_args("report", "--csv", str(out / "report.csv"),
                                       "--out", str(rerender)), run_dir / "report.log")
        outputs = check_pass(checks, f"pass {len(rss_mb)}", rc, out, rrc, rerender,
                             reference, len(scenes))
        reference = reference or outputs
        shutil.rmtree(out, ignore_errors=True)
        shutil.rmtree(rerender, ignore_errors=True)
        return [wall]

    frames, passes = closed_loop(
        seconds, sizing.frame_share, sizing.min_frames, sizing.min_passes,
        frame_blocks(scenes, frame), evaluate_pass, host)
    frames_agree(checks, "in-process run_scene vs CLI", warm,
                 decisions_of(reference.get("scenes.json", b"[]")))
    accuracy, mean_iou = quality(reference) if reference else (0.0, 0.0)

    def summary(setup_s: list[float], eval_s: list[float], frame_ms: list[float]) -> dict:
        return {
            "setup_s": statistics.median(setup_s),
            "scenes_per_s": statistics.median(len(scenes) / s for s in eval_s),
            "frame_p50_ms": statistics.median(frame_ms),
            "frame_p90_ms": p90(frame_ms),
        }

    value = summary(setup.normalised, passes.normalised, frames.normalised)
    metrics = {
        "setup_s": (value["setup_s"], "s"),
        "scenes_per_s": (value["scenes_per_s"], "scenes/s"),
        "frame_p50_ms": (value["frame_p50_ms"], "ms"),
        "frame_p90_ms": (value["frame_p90_ms"], "ms"),
        "peak_rss_mb": (max(rss_mb), "MB"),
        "decision_accuracy": (accuracy, "fraction"),
        "mean_iou": (mean_iou, "fraction"),
    }
    detail = {
        "raw": summary(setup.raw, passes.raw, frames.raw),
        "host_factor": host.factor,
        "reference_burst_ms": quartiles(host.bursts_ms),
        "setup_s": quartiles(setup.normalised),
        "scenes_per_s": quartiles([len(scenes) / s for s in passes.normalised]),
        "frame_ms": quartiles(frames.normalised),
        "scenes": len(scenes),
    }
    return metrics, detail


def traced_run(w: Workload, seed: int, seconds: float, sizing: Sizing,
               run_dir: Path, checks: Checks):
    import drivetrace.cli as cli
    from tracer import Recorder, layer_metrics

    recorder = Recorder()
    host = HostSpeed()
    suite, config = run_dir / "suite", run_dir / "config.json"
    recorder.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(generate_args(w, seed, suite))
    finally:
        recorder.uninstall()
    checks.op(rc == 0, f"traced generate exited {rc}")
    if w.model:
        write_model(suite / "model.bin")
    config.write_text(json.dumps({"detector": w.detector}) + "\n")

    import_ms = []
    for _ in range(sizing.import_reps):
        rc, wall, _ = run_child([sys.executable, "-c", "import drivetrace.cli"],
                                run_dir / "import.log")
        checks.op(rc == 0, f"import drivetrace.cli exited {rc}")
        import_ms.append(wall * 1e3)

    scenes, cfg, model = load_inputs(w, suite, config)
    untraced = {path: run_frame(scene, cfg, model)[1] for path, scene in scenes}

    phases: list[str] = []
    reference: dict[str, bytes] = {}
    traced_ms: list[float] = []

    def evaluate_pass() -> list[float]:
        nonlocal reference
        start = time.perf_counter()
        recorder.phase = f"evaluate-{len(phases)}"
        phases.append(recorder.phase)
        out, rerender = run_dir / "eval", run_dir / "rerender"
        recorder.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(evaluate_args(w, suite, config, out))
                rrc = cli.main(["report", "--csv", str(out / "report.csv"),
                                "--out", str(rerender)])
        finally:
            recorder.uninstall()
        outputs = check_pass(checks, recorder.phase, rc, out, rrc, rerender,
                             reference, len(scenes))
        frames_agree(checks, f"traced {recorder.phase}",
                     decisions_of(outputs.get("scenes.json", b"[]")), untraced)
        reference = reference or outputs
        shutil.rmtree(out, ignore_errors=True)
        shutil.rmtree(rerender, ignore_errors=True)
        return [time.perf_counter() - start]

    def frame(path: str, scene) -> float:
        # The untraced and the traced call back to back, so that machine
        # noise hits both alike.
        elapsed_ms, _ = run_frame(scene, cfg, model)
        recorder.phase = "frames"
        recorder.begin_scene()
        recorder.install()
        try:
            traced, decision = run_frame(scene, cfg, model)
        finally:
            recorder.uninstall()
        traced_ms.append(traced)
        checks.op(decision == untraced[path],
                  f"traced {path} decided {decision}, untraced {untraced[path]}")
        return elapsed_ms

    frames, _ = closed_loop(seconds, sizing.frame_share, 1, sizing.min_traced_passes,
                            frame_blocks(scenes, frame), evaluate_pass, host)

    recorder.write(run_dir / "spans.jsonl")
    layers = layer_metrics(recorder.spans, phases)
    plain_p50 = statistics.median(frames.raw)
    layers["trace.overhead_pct"] = 100.0 * (statistics.median(traced_ms) - plain_p50) / plain_p50
    layers["cli.import_ms"] = statistics.median(import_ms)
    units = {"trace.overhead_pct": "%", "detector.precision": "fraction",
             "scene_io.bytes_read": "bytes"}
    metrics = {}
    for name, value in layers.items():
        unit = units.get(name, "ms" if name.endswith("ms") else "count")
        metrics[name] = (value / host.factor if unit == "ms" else value, unit)
    detail = {"host_factor": host.factor, "reference_burst_ms": quartiles(host.bursts_ms),
              "traced_passes": len(phases), "spans": len(recorder.spans),
              "frame_samples": len(frames.raw), "spans_file": str(run_dir / "spans.jsonl")}
    return metrics, detail


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    blas: dict = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    commit = "unavailable (not a git checkout)"
    if head.exists():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).exists():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "workload": workload,
        "seed": seed,
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimum-size workload (one scene per template)")
    args = parser.parse_args(argv)
    if not (SRC / "drivetrace" / "__init__.py").is_file():
        print(f"perfbench: no drivetrace sources under {SRC}; run from the repo root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    os.environ.pop("PRIME_CONFIG", None)

    workload = WORKLOADS[args.workload]
    sizing = Sizing()
    if args.smoke:
        workload = replace(workload, count=1)
        sizing = SMOKE
    seed = args.seed % 1_000_000  # keeps generated file names short
    run_dir = WORK / f"{args.workload}-seed{seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    checks = Checks()
    run = traced_run if args.trace else untraced_run
    try:
        metrics, detail = run(workload, seed, args.seconds, sizing, run_dir, checks)
    except Exception as exc:  # a broken program is a failed run, not a crash
        traceback.print_exc()
        checks.op(False, f"run aborted: {type(exc).__name__}: {exc}")
        metrics, detail = {}, {}
    for path in run_dir.iterdir():  # keep the logs, the spans and the result
        if path.is_dir():
            shutil.rmtree(path)

    failed = len(checks.failures)
    detail["failed_frac"] = failed / max(checks.attempted, 1)
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"environment": environment(args.workload, args.seed), "detail": detail,
              "failures": checks.failures[:20]}
    (run_dir / "result.json").write_text(json.dumps({**record, **result}, indent=2) + "\n")
    for failure in checks.failures[:20]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
