"""Pipeline configuration: one JSON document covering every stage.

:func:`scene_io.from_json` refuses unknown keys, values of the wrong JSON
type and non-finite numbers, and every sub-config validates its own
invariants, so a bad config fails at load time rather than mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from .detector import DETECTORS, ClusterParams, NoiseModel
from .interaction import InteractionConfig
from .reasoner import ReasonerConfig
from .risk import RiskConfig, UncertaintyConfig
from .scene_io import from_json, read_json, write_json


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
        if not isinstance(self.detector, str) or self.detector not in DETECTORS:
            raise ValueError(f"detector must be one of {sorted(DETECTORS)}, got {self.detector!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


def load_config(path: Optional[str | Path] = None, seed: Optional[int] = None) -> PipelineConfig:
    """Load a config file, or the built-in defaults when none is given.

    ``seed`` overrides the file's seed when provided.  A bad file raises
    ValueError with its path in front of the reason.
    """
    config = PipelineConfig() if path is None else from_json(PipelineConfig, read_json(path), path)
    if seed is not None:
        config = replace(config, seed=seed)
    return config


def save_config(config: PipelineConfig, path: str | Path) -> None:
    write_json(config, path)
