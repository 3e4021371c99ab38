"""rfflow: spectral gradient-flow laboratory for random feature regression."""

from .config import ExperimentConfig
from .features import (
    Dataset,
    FeatureSet,
    TargetSpec,
    build_feature_matrix,
    eval_feature,
    eval_target,
    sample_features,
    sample_sphere,
)
from .flow import (
    SpectralDecomposition,
    TrajectorySnapshot,
    coefficients_at,
    decompose,
    errors_on_grid,
    ode_oracle,
    predict,
    spectral_energy_profile,
)
from .runner import RunRecord, run_experiment, run_sweep, translate_curves

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "ExperimentConfig",
    "FeatureSet",
    "RunRecord",
    "SpectralDecomposition",
    "TargetSpec",
    "TrajectorySnapshot",
    "build_feature_matrix",
    "coefficients_at",
    "decompose",
    "errors_on_grid",
    "eval_feature",
    "eval_target",
    "ode_oracle",
    "predict",
    "run_experiment",
    "run_sweep",
    "sample_features",
    "sample_sphere",
    "spectral_energy_profile",
    "translate_curves",
]
