"""Suite evaluation and reporting.

A manifest lists generated scenes with their templates; each template
declares the decision the pipeline is expected to reach.  The harness runs
the full pipeline per scene, scores speed decisions with one-vs-rest
precision/recall/F1, path decisions with per-class accuracy, and detection
quality with IoU / matched fraction / entropy / deviation / box regression
error against ground truth.

Reports are byte-stable: a text table, a loss-free CSV (floats serialized
with ``repr`` so parsing them back reproduces the result exactly), and a
plot-data JSON.  :func:`parse_csv` reads only the CSV's syntax: it puts
each row's value where ``result.json`` holds it, and ``scene_io.from_json``
reads that document as a :class:`SuiteResult`, as it reads
``result.json``.  ``SuiteResult`` and ``ClassMetrics`` check their own
classes, fractions and counts, also when :func:`evaluate_suite` builds
them, so ``evaluate`` writes no result that its reader refuses.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence

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


def _check_range(what: str, value: float, high: float = 1.0) -> None:
    if not 0 <= value <= high:  # NaN fails too
        raise ValueError(f"{what} must lie in [0, {high:g}], got {value}")
    if value == math.inf:  # neither result.json nor report.csv can hold it
        raise ValueError(f"{what} must be finite, got {value}")


def _check_classes(what: str, keys: Iterable[str], classes: list[str]) -> None:
    for key in keys:
        if key not in classes:
            raise ValueError(f"{what}: key must be one of {classes}, got {key!r}")


@dataclass(frozen=True)
class ClassMetrics:
    """One-vs-rest precision, recall and F1 of one speed decision, each a
    float in [0, 1]."""

    precision: float
    recall: float
    f1: float

    def __post_init__(self) -> None:
        for name in ("precision", "recall", "f1"):
            _check_range(name, getattr(self, name))
            object.__setattr__(self, name, float(getattr(self, name)))


@dataclass(frozen=True)
class SuiteResult:
    """A suite's decision, detection and uncertainty metrics, written as
    ``result.json``: speed classes are speed decisions, path classes are
    path intents, fractions lie in [0, 1], counts are integers >= 0 and the
    other values are finite floats >= 0.  ``report.csv`` can hold each
    result: no row of the confusion matrix is empty, and each count's name
    encodes as UTF-8 and holds no comma or line break."""

    speed_metrics: dict[str, ClassMetrics]
    speed_confusion: dict[str, dict[str, int]]  # expected -> predicted -> n
    path_accuracy: dict[str, float]
    mean_iou: Optional[float]
    detection_accuracy: Optional[float]
    mean_entropy: Optional[float]
    mean_deviation_deg: Optional[float]
    reg_error: Optional[float]
    counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for exp, row in self.speed_confusion.items():
            if not row:  # report.csv has a row per cell
                raise ValueError(f"speed_confusion.{exp} must not be empty")
            for pred, n in row.items():
                _check_range(f"speed_confusion.{exp}.{pred}", n, math.inf)
            _check_classes(f"speed_confusion.{exp}", row, SPEED_ORDER)
        for key, n in self.counts.items():
            # report.csv writes the name between commas, on a line of its own
            if "," in key or "".join(key.splitlines()) != key:
                raise ValueError(f"counts: key must hold no comma or line break, got {key!r}")
            try:
                key.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(f"counts: key must encode as UTF-8, got {key!r}") from None
            _check_range(f"counts.{key}", n, math.inf)
        for cls, v in self.path_accuracy.items():
            _check_range(f"path_accuracy.{cls}", v)
        _check_classes("speed_metrics", self.speed_metrics, SPEED_ORDER)
        _check_classes("speed_confusion", self.speed_confusion, SPEED_ORDER)
        _check_classes("path_accuracy", self.path_accuracy, PATH_ORDER)
        # a reader gives an integer such as the CSV's "1" as an int
        object.__setattr__(self, "path_accuracy",
                           {cls: float(v) for cls, v in self.path_accuracy.items()})
        for name in _SCALARS:
            if getattr(self, name) is not None:
                # no upper bound: a mean of deviations of pi can round past 180
                high = 1.0 if name in ("mean_iou", "detection_accuracy") else math.inf
                _check_range(name, getattr(self, name), high)
                object.__setattr__(self, name, float(getattr(self, name)))


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

    Every manifest entry is checked before any scene runs, and two entries
    whose paths resolve to one file are refused.  Unreadable or failing
    scenes are recorded with their error and skipped from the metrics;
    aggregation runs in a canonical order (sorted by scene path) so the
    result does not depend on manifest ordering.
    """
    manifest_path = Path(manifest_path)
    manifest = from_json(dict[str, Any], read_json(manifest_path), manifest_path)
    scenes = from_json(tuple[dict[str, Any], ...], manifest.get("scenes", MISSING),
                       manifest_path, "scenes")
    base = manifest_path.parent
    entries, index = [], {}  # index: resolved scene file -> its entry's position
    for k, e in enumerate(scenes):
        path = from_json(str, e.get("path", MISSING), manifest_path, f"scenes[{k}].path")
        template = from_json(Template, e.get("template", MISSING), manifest_path,
                             f"scenes[{k}].template")
        first = index.setdefault((base / path).resolve(), k)
        if first != k:
            raise ValueError(f"{manifest_path}: scenes[{first}] and scenes[{k}] "
                             f"both list {path!r}")
        entries.append((path, template))
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
    for key, label in _SCALARS.items():
        lines.append(f"  {label:<19} {_fmt(getattr(result, key))}")
    lines.append("Counts")
    for k in sorted(result.counts):
        lines.append(f"  {k:<14} {result.counts[k]}")
    return "\n".join(lines) + "\n"


def render_csv(result: SuiteResult) -> str:
    """One row per value; a float is written as its ``repr``, which
    ``str`` gives, and a None scalar as an empty value."""
    rows = [_CSV_HEADER]
    for cls in sorted(result.speed_metrics):
        for section, name in _SPEED_METRICS.items():
            rows.append(f"{section},{cls},{getattr(result.speed_metrics[cls], name)}")
    for exp in sorted(result.speed_confusion):
        for pred in sorted(result.speed_confusion[exp]):
            rows.append(f"speed_confusion,{exp}|{pred},{result.speed_confusion[exp][pred]}")
    for cls in sorted(result.path_accuracy):
        rows.append(f"path_accuracy,{cls},{result.path_accuracy[cls]}")
    for key in _SCALARS:
        value = getattr(result, key)
        rows.append(f"scalar,{key},{'' if value is None else value}")
    for k in sorted(result.counts):
        rows.append(f"count,{k},{result.counts[k]}")
    return "\n".join(rows) + "\n"


_CSV_HEADER = "section,key,value"
#: the ClassMetrics field of each speed metric section
_SPEED_METRICS = {"speed_precision": "precision", "speed_recall": "recall", "speed_f1": "f1"}
#: the scalars of a SuiteResult, in report order, with their labels in render_text
_SCALARS = {"mean_iou": "mean IoU", "detection_accuracy": "detection accuracy",
            "mean_entropy": "mean entropy (nats)",
            "mean_deviation_deg": "mean deviation (deg)", "reg_error": "box regression error"}


def _number(text: str, what: str) -> int | float:
    """The number ``text`` holds: an int where ``int`` reads it, as in JSON,
    else a float."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    raise ValueError(f"{what} must be a number, got {text!r}")


def parse_csv(text: str, where: str | Path) -> SuiteResult:
    """Inverse of :func:`render_csv`; the round-trip is lossless.  Each row's
    value goes where ``result.json`` holds it (``speed_f1,Brake,x`` to
    ``speed_metrics.Brake.f1``), and :func:`from_json` reads the document.

    Raises:
        ValueError: ``<where>: line <n>: <reason>`` on a missing header, a
            row without three fields, an unknown section, a
            ``speed_confusion`` key without ``|``, a value that is not a
            number, or a repeated row; ``from_json``'s
            ``<where>: <field> ...`` on a value ``SuiteResult`` refuses.
    """
    doc: dict[str, Any] = {"speed_metrics": {}, "speed_confusion": {}, "path_accuracy": {},
                           "counts": {}}
    scalars: dict[str, Any] = dict.fromkeys(_SCALARS)
    places = {"path_accuracy": doc["path_accuracy"], "count": doc["counts"], "scalar": scalars}
    row_lines: dict[tuple[str, str], int] = {}  # (section, key) -> its line
    numbered = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln]
    number, header = numbered[0] if numbered else (1, "")
    try:
        if header != _CSV_HEADER:
            raise ValueError(f"expected the header {_CSV_HEADER!r}, got {header!r}")
        for number, line in numbered[1:]:
            fields = line.split(",", 2)
            if len(fields) != 3:
                raise ValueError(f"expected section,key,value, got {line!r}")
            section, key, value = fields
            first = row_lines.setdefault((section, key), number)
            if first != number:
                raise ValueError(f"{section} {key} repeats line {first}")
            if section in _SPEED_METRICS:
                place, name = doc["speed_metrics"].setdefault(key, {}), _SPEED_METRICS[section]
            elif section == "speed_confusion":
                exp, bar, name = key.partition("|")
                if not bar:
                    raise ValueError(f"{section} key must be expected|predicted, got {key!r}")
                place = doc["speed_confusion"].setdefault(exp, {})
            elif section in places:
                place, name = places[section], key
            else:
                raise ValueError(f"unknown CSV section {section!r}")
            place[name] = (None if section == "scalar" and not value
                           else _number(value, f"{section} {key}"))
    except ValueError as exc:
        raise ValueError(f"{where}: line {number}: {exc}") from None
    # a scalar row named like a section replaces it, which from_json refuses
    return from_json(SuiteResult, {**doc, **scalars}, where)


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
