"""Pipeline configuration: one JSON document covering every stage.

Unknown keys and non-finite numbers are rejected at load time and every
sub-config validates its own invariants, so a bad config fails fast
rather than mid-run.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from .detector import DETECTORS, ClusterParams, NoiseModel
from .interaction import InteractionConfig
from .reasoner import ReasonerConfig
from .risk import RiskConfig, UncertaintyConfig
from .scene_io import read_json, write_json


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


#: each config section's name and class
_SECTIONS = {f.name: f.default_factory for f in dataclasses.fields(PipelineConfig)
             if f.default_factory is not dataclasses.MISSING}


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
    unknown = set(data) - {f.name for f in dataclasses.fields(PipelineConfig)}
    if unknown:
        raise ValueError(f"unknown top-level config keys: {sorted(unknown)}")
    return PipelineConfig(**{key: _section_from_dict(_SECTIONS[key], value, key)
                             if key in _SECTIONS else value for key, value in data.items()})


def load_config(path: Optional[str | Path] = None, seed: Optional[int] = None) -> PipelineConfig:
    """Load a config file, or the built-in defaults when none is given.

    ``seed`` overrides the file's seed when provided.  A bad file raises
    ValueError with its path in front of the reason.
    """
    if path is None:
        config = PipelineConfig()
    else:
        data = read_json(path)
        try:
            config = config_from_dict(data)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    return config


def save_config(config: PipelineConfig, path: str | Path) -> None:
    write_json(config, path)
