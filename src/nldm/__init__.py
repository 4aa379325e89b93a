"""Nonlinear dynamics identification from delayed polynomial features.

Learn a linear one-step operator on monomial features of time-delayed
states, forecast trajectories by iterating it, score forecasts with
relative RMS errors, and map basins of attraction by sweeping grids of
initial conditions.

The namespace is lazy: each public name is imported from its home module
(``_HOMES``) the first time it is read, so a command loads only the
modules it runs.  ``predict`` alone is bound at import, since it names
both a submodule and that submodule's function, and a first import of
the submodule would otherwise bind the package attribute to the module.
"""

from importlib import import_module

from .predict import predict

__version__ = "0.1.0"

# Module -> the public names it defines.
_HOMES = {
    "basin": ("BasinGrid", "GridAgreement", "classify_series", "grid_agreement",
              "ground_truth_grid", "operator_grid"),
    "config": ("BasinSpec", "ConfigError", "ExperimentConfig", "ModelSpec", "NoiseSpec",
               "SeriesSpec", "SystemSpec", "config_from_dict", "config_to_dict",
               "derived_seed"),
    "core": ("CapacityError", "DimensionError", "FeatureConfig", "IntegrationError",
             "LearnedOperator", "Provenance", "Trajectory", "TrainingSummary",
             "UndefinedScoreError", "feature_dim"),
    "features": ("MonomialBasis", "SnapshotPair", "build_snapshot_pair", "monomial_basis"),
    "identify": ("TrainingResult", "train"),
    "io": ("load_model", "save_basin_csv", "save_model", "save_trajectory_csv", "write_json"),
    "lstsq": ("LstsqReport", "solve_min_frobenius"),
    "metrics": ("SkillScore", "rrmse"),
    "odes": ("SYSTEM_IDS", "BenchmarkSystem", "CycleAttractor", "IntegratorSettings",
             "PointAttractor", "add_noise", "integrate", "make_system"),
    "predict": ("Prediction", "iterate_batch", "predict"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = ["__version__", *sorted(_HOME)]


def __getattr__(name):
    """Import a public name from its home module on first use."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
