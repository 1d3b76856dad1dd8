"""Pipeline configuration: one JSON document covering every stage.

Unknown keys and non-finite numbers are rejected at load time and every
sub-config validates its own invariants, so a bad config fails fast
rather than mid-run.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from .detector import DETECTORS, ClusterParams, NoiseModel
from .interaction import InteractionConfig
from .reasoner import ReasonerConfig
from .risk import RiskConfig, UncertaintyConfig

_SECTIONS = {
    "cluster": ClusterParams,
    "noise": NoiseModel,
    "uncertainty": UncertaintyConfig,
    "risk": RiskConfig,
    "interaction": InteractionConfig,
    "reasoner": ReasonerConfig,
}


@dataclass(frozen=True)
class PipelineConfig:
    cluster: ClusterParams = field(default_factory=ClusterParams)
    noise: NoiseModel = field(default_factory=NoiseModel)
    uncertainty: UncertaintyConfig = field(default_factory=UncertaintyConfig)
    risk: RiskConfig = field(default_factory=RiskConfig)
    interaction: InteractionConfig = field(default_factory=InteractionConfig)
    reasoner: ReasonerConfig = field(default_factory=ReasonerConfig)
    detector: str = "oracle"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.detector not in DETECTORS:
            raise ValueError(f"detector must be one of {sorted(DETECTORS)}, got {self.detector!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


def _section_from_dict(cls: type, data: Any, section: str) -> Any:
    if not isinstance(data, dict):
        raise ValueError(f"config section {section!r} must be an object, got {data!r}")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ValueError(f"unknown keys in config section {section!r}: {sorted(unknown)}")
    for key, value in data.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{section}.{key} must be finite, got {value!r}")
    return cls(**data)


def config_from_dict(data: Any) -> PipelineConfig:
    if not isinstance(data, dict):
        raise ValueError(f"config must be an object, got {data!r}")
    known = set(_SECTIONS) | {"detector", "seed"}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown top-level config keys: {sorted(unknown)}")
    kwargs: dict[str, Any] = {}
    for section, cls in _SECTIONS.items():
        if section in data:
            kwargs[section] = _section_from_dict(cls, data[section], section)
    if "detector" in data:
        kwargs["detector"] = data["detector"]
    if "seed" in data:
        kwargs["seed"] = data["seed"]
    return PipelineConfig(**kwargs)


def config_to_dict(config: PipelineConfig) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for section, cls in _SECTIONS.items():
        sub = getattr(config, section)
        out[section] = {f.name: _plain(getattr(sub, f.name)) for f in dataclasses.fields(cls)}
    out["detector"] = config.detector
    out["seed"] = config.seed
    return out


def _plain(v: Any) -> Any:
    if isinstance(v, (bool, int, float, str)) or v is None:
        return v
    return float(v)


def load_config(path: Optional[str | Path] = None, seed: Optional[int] = None) -> PipelineConfig:
    """Load a config file, or the built-in defaults when none is given.

    ``seed`` overrides the file's seed when provided.  A bad file raises
    ValueError with its path in front of the reason.
    """
    if path is None:
        config = PipelineConfig()
    else:
        try:
            config = config_from_dict(json.loads(Path(path).read_text()))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    return config


def save_config(config: PipelineConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(config), indent=2, sort_keys=True) + "\n")
