"""drivetrace: uncertainty-aware LiDAR scene risk assessment with
interpretable decision traces.

Names are imported from their modules (``drivetrace.scene``,
``drivetrace.pipeline``, ...); the package root exports none.
"""

__version__ = "0.1.0"
