"""Suite evaluation and reporting.

A manifest lists generated scenes with their templates; each template
declares the decision the pipeline is expected to reach.  The harness runs
the full pipeline per scene, scores speed decisions with one-vs-rest
precision/recall/F1, path decisions with per-class accuracy, and detection
quality with IoU / matched fraction / entropy / deviation / box regression
error against ground truth.

Reports are byte-stable: a text table, a loss-free CSV (floats serialized
with ``repr`` so parsing them back reproduces the result exactly), and a
plot-data JSON.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from .config import PipelineConfig
from .detector import box_regression_error, match_boxes
from .interaction import BgnnModel
from .pipeline import run_scene
from .reasoner import SpeedDecision
from .risk import RiskTier
from .scenario import Template
from .scene import Intent
from .scene_io import from_json, json_text, load_scene, read_json

SPEED_ORDER = [d.value for d in SpeedDecision]
PATH_ORDER = [d.value for d in Intent]

#: Decision each template is expected to produce (speed, path).
TEMPLATE_EXPECTED: dict[Template, tuple[SpeedDecision, Intent]] = {
    Template.EMPTY_ROAD: (SpeedDecision.SPEED_LIMIT, Intent.STRAIGHT),
    Template.LEAD_VEHICLE: (SpeedDecision.FOLLOW_AHEAD, Intent.STRAIGHT),
    Template.PEDESTRIAN_CROSSING: (SpeedDecision.BRAKE, Intent.STRAIGHT),
    Template.OCCLUDED_JUNCTION: (SpeedDecision.SLOW_APPROACH, Intent.STRAIGHT),
    Template.DENSE_TRAFFIC: (SpeedDecision.FOLLOW_AHEAD, Intent.STRAIGHT),
    Template.STATIC_VEHICLE_AHEAD: (SpeedDecision.SLOW_DOWN, Intent.LANE_CHANGE),
}


@dataclass(frozen=True)
class ClassMetrics:
    """One-vs-rest precision, recall and F1 of one speed decision."""

    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class SuiteResult:
    """A suite's decision, detection and uncertainty metrics, written as ``result.json``."""

    speed_metrics: dict[str, ClassMetrics]
    speed_confusion: dict[str, dict[str, int]]  # expected -> predicted -> n
    path_accuracy: dict[str, float]
    mean_iou: Optional[float]
    detection_accuracy: Optional[float]
    mean_entropy: Optional[float]
    mean_deviation_deg: Optional[float]
    reg_error: Optional[float]
    counts: dict[str, int] = field(default_factory=dict)


def f1_per_class(predictions: Sequence[str], labels: Sequence[str]) -> dict[str, ClassMetrics]:
    """One-vs-rest precision/recall/F1 for each class that is predicted or
    labelled, in :data:`SPEED_ORDER` and then sorted.  Zero denominators
    yield 0 for the affected metric.

    Raises:
        ValueError: on length mismatch.
    """
    if len(predictions) != len(labels):
        raise ValueError(f"length mismatch: {len(predictions)} vs {len(labels)}")
    seen = set(predictions) | set(labels)
    classes = [c for c in SPEED_ORDER if c in seen] + sorted(
        c for c in seen if c not in SPEED_ORDER)
    out = {}
    for cls in classes:
        tp = sum(1 for p, y in zip(predictions, labels) if p == cls and y == cls)
        fp = sum(1 for p, y in zip(predictions, labels) if p == cls and y != cls)
        fn = sum(1 for p, y in zip(predictions, labels) if p != cls and y == cls)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        out[cls] = ClassMetrics(precision, recall, f1)
    return out


@dataclass(frozen=True)
class SceneRecord:
    """One scene's decisions or error, and its detection and uncertainty sums."""

    path: str
    template: str
    expected_speed: Optional[str] = None
    expected_path: Optional[str] = None
    predicted_speed: Optional[str] = None
    predicted_path: Optional[str] = None
    error: Optional[str] = None
    n_gt: int = 0
    n_detections: int = 0
    n_matched: int = 0
    sum_iou: float = 0.0
    sum_sq_reg: float = 0.0
    sum_entropy: float = 0.0
    sum_deviation: float = 0.0
    tier_counts: tuple[tuple[str, int], ...] = ()
    n_flagged: int = 0


def _evaluate_one(path: str, template: Template, config: PipelineConfig,
                  model: Optional[BgnnModel], base: Path) -> SceneRecord:
    expected_speed, expected_path = TEMPLATE_EXPECTED[template]
    try:
        scene = load_scene(base / path)
        result = run_scene(scene, config, model)
    except Exception as exc:  # per-scene failure must not kill the suite
        return SceneRecord(path=path, template=template.value,
                           expected_speed=expected_speed.value,
                           expected_path=expected_path.value,
                           error=f"{type(exc).__name__}: {exc}")
    n_gt = len(scene.ground_truth or ())
    n_matched = 0
    sum_iou = 0.0
    sum_sq = 0.0
    if scene.ground_truth:
        pred_boxes = [o.box for o in result.detections]
        gt_boxes = [g.box for g in scene.ground_truth]
        matches = match_boxes(pred_boxes, gt_boxes)
        n_matched = len(matches)
        sum_iou = sum(m[2] for m in matches)
        reg = box_regression_error(pred_boxes, gt_boxes, [(m[0], m[1]) for m in matches])
        if reg is not None:
            sum_sq = reg * n_matched
    tiers: dict[str, int] = {}
    for a in result.assessments:
        tiers[a.tier.value] = tiers.get(a.tier.value, 0) + 1
    return SceneRecord(
        path=path,
        template=template.value,
        expected_speed=expected_speed.value,
        expected_path=expected_path.value,
        predicted_speed=result.trace.speed.value,
        predicted_path=result.trace.path.value,
        n_gt=n_gt,
        n_detections=len(result.detections),
        n_matched=n_matched,
        sum_iou=sum_iou,
        sum_sq_reg=sum_sq,
        sum_entropy=sum(a.entropy for a in result.assessments),
        sum_deviation=sum(a.deviation for a in result.assessments),
        tier_counts=tuple(sorted(tiers.items())),
        n_flagged=sum(1 for a in result.assessments if a.flagged),
    )


def evaluate_suite(
    manifest_path: str | Path,
    config: PipelineConfig,
    model: Optional[BgnnModel] = None,
) -> tuple[SuiteResult, list[SceneRecord]]:
    """Evaluate every scene in the manifest.

    Every manifest entry is checked before any scene runs, and a path
    listed twice is refused.  Unreadable or failing scenes are recorded
    with their error and skipped from the metrics; aggregation runs in a
    canonical order (sorted by scene path) so the result does not depend
    on manifest ordering.
    """
    manifest_path = Path(manifest_path)
    manifest = from_json(dict[str, Any], read_json(manifest_path), manifest_path)
    scenes = from_json(tuple[dict[str, Any], ...], manifest.get("scenes", MISSING),
                       manifest_path, "scenes")
    entries, index = [], {}  # index: Path(path) -> its entry's position
    for k, e in enumerate(scenes):
        path = from_json(str, e.get("path", MISSING), manifest_path, f"scenes[{k}].path")
        template = from_json(Template, e.get("template", MISSING), manifest_path,
                             f"scenes[{k}].template")
        if Path(path) in index:
            raise ValueError(f"{manifest_path}: scenes[{index[Path(path)]}] and scenes[{k}] "
                             f"both list {path!r}")
        index[Path(path)] = k
        entries.append((path, template))
    base = manifest_path.parent
    records = sorted((_evaluate_one(p, t, config, model, base) for p, t in entries),
                     key=lambda r: r.path)
    return _aggregate(records), records


def _aggregate(records: Sequence[SceneRecord]) -> SuiteResult:
    ok = [r for r in records if r.error is None]
    preds = [r.predicted_speed for r in ok]
    labels = [r.expected_speed for r in ok]
    confusion: dict[str, dict[str, int]] = {}
    for r in ok:
        row = confusion.setdefault(r.expected_speed, {})
        row[r.predicted_speed] = row.get(r.predicted_speed, 0) + 1
    path_hits: dict[str, list[int]] = {}
    for r in ok:
        path_hits.setdefault(r.expected_path, []).append(
            1 if r.predicted_path == r.expected_path else 0)
    path_accuracy = {
        k: sum(v) / len(v) for k, v in sorted(path_hits.items())
    }
    n_gt = sum(r.n_gt for r in ok)
    n_det = sum(r.n_detections for r in ok)
    n_matched = sum(r.n_matched for r in ok)
    sum_iou = sum(r.sum_iou for r in ok)
    sum_sq = sum(r.sum_sq_reg for r in ok)
    sum_entropy = sum(r.sum_entropy for r in ok)
    sum_dev = sum(r.sum_deviation for r in ok)
    counts: dict[str, int] = {
        "scenes": len(records),
        "errors": len(records) - len(ok),
        "gt_objects": n_gt,
        "detections": n_det,
        "matched": n_matched,
        "flagged": sum(r.n_flagged for r in ok),
    }
    for tier in RiskTier:
        counts[f"tier_{tier.value}"] = sum(
            dict(r.tier_counts).get(tier.value, 0) for r in ok)
    return SuiteResult(
        speed_metrics=f1_per_class(preds, labels) if ok else {},
        speed_confusion=confusion,
        path_accuracy=path_accuracy,
        mean_iou=sum_iou / n_matched if n_matched else None,
        detection_accuracy=n_matched / n_gt if n_gt else None,
        mean_entropy=sum_entropy / n_det if n_det else None,
        mean_deviation_deg=math.degrees(sum_dev / n_det) if n_det else None,
        reg_error=sum_sq / n_matched if n_matched else None,
        counts=counts,
    )


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def _fmt(v: Optional[float]) -> str:
    return "-" if v is None else f"{v:.4f}"


def render_text(result: SuiteResult) -> str:
    lines = ["Speed decisions (one-vs-rest)"]
    lines.append(f"  {'class':<14} {'precision':>9} {'recall':>9} {'f1':>9}")
    for cls in SPEED_ORDER:
        if cls in result.speed_metrics:
            m = result.speed_metrics[cls]
            lines.append(f"  {cls:<14} {m.precision:>9.4f} {m.recall:>9.4f} {m.f1:>9.4f}")
    lines.append("Path accuracy")
    for cls in PATH_ORDER:
        if cls in result.path_accuracy:
            lines.append(f"  {cls:<14} {100.0 * result.path_accuracy[cls]:>8.2f}%")
    lines.append("Detection")
    for key, (label, *_) in _SCALARS.items():
        lines.append(f"  {label:<19} {_fmt(getattr(result, key))}")
    lines.append("Counts")
    for k in sorted(result.counts):
        lines.append(f"  {k:<14} {result.counts[k]}")
    return "\n".join(lines) + "\n"


def _csv_value(v: Any) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def render_csv(result: SuiteResult) -> str:
    rows = [_CSV_HEADER]
    for cls in sorted(result.speed_metrics):
        m = result.speed_metrics[cls]
        rows.append(f"speed_precision,{cls},{_csv_value(m.precision)}")
        rows.append(f"speed_recall,{cls},{_csv_value(m.recall)}")
        rows.append(f"speed_f1,{cls},{_csv_value(m.f1)}")
    for exp in sorted(result.speed_confusion):
        for pred in sorted(result.speed_confusion[exp]):
            rows.append(f"speed_confusion,{exp}|{pred},{result.speed_confusion[exp][pred]}")
    for cls in sorted(result.path_accuracy):
        rows.append(f"path_accuracy,{cls},{_csv_value(result.path_accuracy[cls])}")
    for key in _SCALARS:
        rows.append(f"scalar,{key},{_csv_value(getattr(result, key))}")
    for k in sorted(result.counts):
        rows.append(f"count,{k},{result.counts[k]}")
    return "\n".join(rows) + "\n"


_CSV_HEADER = "section,key,value"
_SPEED_SECTIONS = ("speed_precision", "speed_recall", "speed_f1")
_UNIT = (0.0, 1.0)
_ANY = (-math.inf, math.inf)
#: the scalars of a SuiteResult, in report order, each with its label in
#: render_text and the range parse_csv accepts
_SCALARS = {"mean_iou": ("mean IoU", *_UNIT),
            "detection_accuracy": ("detection accuracy", *_UNIT),
            "mean_entropy": ("mean entropy (nats)", *_ANY),
            "mean_deviation_deg": ("mean deviation (deg)", *_ANY),
            "reg_error": ("box regression error", *_ANY)}


def _csv_number(value: str, what: str, low: float = -math.inf, high: float = math.inf,
                parse: Callable[[str], float] = float) -> float:
    """``parse(value)``; raises ValueError unless it is finite and in [low, high]."""
    v = parse(value)
    if not math.isfinite(v):
        raise ValueError(f"{what} must be finite, got {value!r}")
    if not low <= v <= high:
        raise ValueError(f"{what} must lie in [{low:g}, {high:g}], got {value}")
    return v


def _csv_class(name: str, section: str, classes: list[str]) -> str:
    """``name``, if it is one of ``classes``, the rows ``render_text`` shows."""
    if name not in classes:
        raise ValueError(f"{section} class must be one of {classes}, got {name!r}")
    return name


def parse_csv(text: str) -> SuiteResult:
    """Inverse of :func:`render_csv`; the round-trip is lossless.

    Raises:
        ValueError: naming the line, on a missing header, a malformed or
            repeated row, a speed or path class that ``render_text`` does
            not show, an unknown scalar, a value that is not finite, a
            fraction (speed metric, path accuracy, ``mean_iou``,
            ``detection_accuracy``) outside [0, 1], a negative count, or a
            speed class that lacks one of its three metric rows.
    """
    speed: dict[str, dict[str, float]] = {}
    confusion: dict[str, dict[str, int]] = {}
    path_accuracy: dict[str, float] = {}
    scalars: dict[str, Optional[float]] = {}
    counts: dict[str, int] = {}
    row_lines: dict[tuple[str, str], int] = {}  # (section, key) -> its line
    numbered = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln]
    number, header = numbered[0] if numbered else (1, "")
    if header != _CSV_HEADER:
        raise ValueError(f"line {number}: expected the header {_CSV_HEADER!r}, got {header!r}")
    for number, line in numbered[1:]:
        try:
            fields = line.split(",", 2)
            if len(fields) != 3:
                raise ValueError(f"expected section,key,value, got {line!r}")
            section, key, value = fields
            what = f"{section} {key}"
            first = row_lines.setdefault((section, key), number)
            if first != number:
                raise ValueError(f"{what} repeats line {first}")
            if section in _SPEED_SECTIONS:
                speed.setdefault(_csv_class(key, section, SPEED_ORDER), {})[section] = (
                    _csv_number(value, what, *_UNIT))
            elif section == "speed_confusion":
                exp, bar, pred = key.partition("|")
                if not bar:
                    raise ValueError(f"{section} key must be expected|predicted, got {key!r}")
                confusion.setdefault(_csv_class(exp, section, SPEED_ORDER), {})[
                    _csv_class(pred, section, SPEED_ORDER)] = _csv_number(value, what, 0, parse=int)
            elif section == "path_accuracy":
                path_accuracy[_csv_class(key, section, PATH_ORDER)] = (
                    _csv_number(value, what, *_UNIT))
            elif section == "scalar":
                if key not in _SCALARS:
                    raise ValueError(f"unknown scalar {key!r}")
                scalars[key] = _csv_number(value, what, *_SCALARS[key][1:]) if value else None
            elif section == "count":
                counts[key] = _csv_number(value, what, 0, parse=int)
            else:
                raise ValueError(f"unknown CSV section {section!r}")
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
    for cls, d in speed.items():
        missing = [section for section in _SPEED_SECTIONS if section not in d]
        if missing:
            first = min(row_lines[section, cls] for section in d)
            raise ValueError(f"line {first}: speed class {cls!r} has no {missing[0]} row")
    metrics = {cls: ClassMetrics(*(d[section] for section in _SPEED_SECTIONS))
               for cls, d in speed.items()}
    return SuiteResult(
        speed_metrics=metrics,
        speed_confusion=confusion,
        path_accuracy=path_accuracy,
        **{key: scalars.get(key) for key in _SCALARS},
        counts=counts,
    )


def render_plot_json(result: SuiteResult) -> str:
    payload = {
        "speed_f1": {c: result.speed_metrics[c].f1 for c in sorted(result.speed_metrics)},
        "path_accuracy": dict(sorted(result.path_accuracy.items())),
        "risk_histogram": {
            tier.value: result.counts.get(f"tier_{tier.value}", 0) for tier in RiskTier
        },
        "flagged": result.counts.get("flagged", 0),
    }
    return json_text(payload)


def write_report(result: SuiteResult, out_dir: str | Path) -> list[Path]:
    """Write text, CSV and plot-JSON reports; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / "report.txt", out / "report.csv", out / "report_plot.json"]
    paths[0].write_text(render_text(result))
    paths[1].write_text(render_csv(result))
    paths[2].write_text(render_plot_json(result))
    return paths


#: the SceneRecord fields of a scene's entry in ``scenes.json``
_SCENES_JSON_FIELDS = ("path", "template", "expected_speed", "predicted_speed",
                       "expected_path", "predicted_path", "error")


def record_to_dict(record: SceneRecord) -> dict[str, Any]:
    """One scene's entry in ``scenes.json``."""
    return {name: getattr(record, name) for name in _SCENES_JSON_FIELDS}
