"""rfflow: spectral gradient-flow laboratory for random feature regression."""

from .config import ExperimentConfig
from .features import (
    Dataset,
    FeatureSet,
    TargetSpec,
    build_feature_matrix,
    sample_features,
    sample_sphere,
)
from .flow import (
    SpectralDecomposition,
    Trajectory,
    coefficients_at,
    decompose,
    errors_on_grid,
    spectral_energy_profile,
)
from .runner import (
    CellSummary,
    RunRecord,
    run_experiment,
    run_sweep,
    sweep_tables,
    translate_curves,
)

__version__ = "0.1.0"

__all__ = [
    "CellSummary",
    "Dataset",
    "ExperimentConfig",
    "FeatureSet",
    "RunRecord",
    "SpectralDecomposition",
    "TargetSpec",
    "Trajectory",
    "build_feature_matrix",
    "coefficients_at",
    "decompose",
    "errors_on_grid",
    "run_experiment",
    "run_sweep",
    "sample_features",
    "sample_sphere",
    "spectral_energy_profile",
    "sweep_tables",
    "translate_curves",
]
