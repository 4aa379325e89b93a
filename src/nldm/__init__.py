"""Nonlinear dynamics identification from delayed polynomial features.

Learn a linear one-step operator on monomial features of time-delayed
states, forecast trajectories by iterating it, score forecasts with
relative RMS errors, and map basins of attraction by sweeping grids of
initial conditions.
"""

from .basin import (
    BasinGrid,
    GridAgreement,
    classify_series,
    grid_agreement,
    ground_truth_grid,
    label_operator_cell,
    operator_grid,
)
from .config import (
    BasinSpec,
    ConfigError,
    ExperimentConfig,
    ModelSpec,
    NoiseSpec,
    SeriesSpec,
    SystemSpec,
    config_from_dict,
    config_to_dict,
    derived_seed,
)
from .core import (
    CapacityError,
    DimensionError,
    FeatureConfig,
    IntegrationError,
    LearnedOperator,
    Provenance,
    Trajectory,
    TrainingSummary,
    UndefinedScoreError,
    feature_dim,
)
from .features import (
    MonomialBasis,
    SnapshotPair,
    build_snapshot_pair,
    delayed_state,
    lift,
    monomial_basis,
)
from .identify import TrainingResult, train
from .io import (
    load_basin_csv,
    load_model,
    load_trajectory_csv,
    save_basin_csv,
    save_model,
    save_trajectory_csv,
    write_json,
)
from .lstsq import LstsqReport, solve_min_frobenius
from .metrics import SkillScore, rrmse
from .odes import (
    SYSTEM_IDS,
    BenchmarkSystem,
    CycleAttractor,
    IntegratorSettings,
    PointAttractor,
    add_noise,
    integrate,
    make_system,
)
from .predict import Prediction, iterate_batch, predict

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BasinGrid",
    "BasinSpec",
    "BenchmarkSystem",
    "CapacityError",
    "ConfigError",
    "CycleAttractor",
    "DimensionError",
    "ExperimentConfig",
    "FeatureConfig",
    "GridAgreement",
    "IntegrationError",
    "IntegratorSettings",
    "LearnedOperator",
    "LstsqReport",
    "ModelSpec",
    "MonomialBasis",
    "NoiseSpec",
    "PointAttractor",
    "Prediction",
    "Provenance",
    "SYSTEM_IDS",
    "SeriesSpec",
    "SkillScore",
    "SnapshotPair",
    "SystemSpec",
    "Trajectory",
    "TrainingResult",
    "TrainingSummary",
    "UndefinedScoreError",
    "add_noise",
    "build_snapshot_pair",
    "classify_series",
    "config_from_dict",
    "config_to_dict",
    "delayed_state",
    "derived_seed",
    "feature_dim",
    "grid_agreement",
    "ground_truth_grid",
    "integrate",
    "iterate_batch",
    "label_operator_cell",
    "lift",
    "load_basin_csv",
    "load_model",
    "load_trajectory_csv",
    "make_system",
    "monomial_basis",
    "operator_grid",
    "predict",
    "rrmse",
    "save_basin_csv",
    "save_model",
    "save_trajectory_csv",
    "solve_min_frobenius",
    "train",
    "write_json",
]
