"""drivetrace: uncertainty-aware LiDAR scene risk assessment with
interpretable decision traces."""

from .scene import (
    ClassDistribution,
    EgoState,
    GroundTruthObject,
    Intent,
    ObjectClass,
    OrientedBox,
    PointCloud,
    Scene,
    TrackedObject,
    box_corners,
    box_iou,
    wrap_angle,
)
from .risk import (
    ObjectAssessment,
    RiskConfig,
    RiskTier,
    UncertaintyConfig,
    assess,
    combined_uncertainty,
    deviation_angle,
    min_distance,
    proximity_risk,
    shannon_entropy,
)
from .detector import (
    ClusterParams,
    NoiseModel,
    box_regression_error,
    geometric_detect,
    match_boxes,
    oracle_detect,
)
from .interaction import (
    BgnnModel,
    InteractionConfig,
    InteractionGraph,
    InteractionLabel,
    build_graph,
    interaction_energy,
    refine_objects,
)
from .reasoner import (
    DecisionTrace,
    PathDecision,
    ReasonerConfig,
    RiskFactor,
    SpeedDecision,
    decide,
    extract_risk_factors,
)
from .scenario import ScenarioSpec, Template, generate, label_interactions
from .config import PipelineConfig, load_config
from .pipeline import run_scene

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
