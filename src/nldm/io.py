"""Plain-text artifacts: trajectory CSVs, operator files, basin rasters.

All floats are written with 17 significant digits, so the text reads
back to every value bit for bit.  Trajectory files carry their
sampling metadata in a leading comment; operator files start with a
versioned header naming the dimensions and the monomial ordering.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import numpy as np

from .basin import BasinGrid
from .core import FeatureConfig, LearnedOperator, Trajectory

__all__ = [
    "save_trajectory_csv",
    "save_model",
    "load_model",
    "save_basin_csv",
    "write_json",
]

MODEL_MAGIC = "nldm-operator v1"
MODEL_ORDERING = "graded-lex"


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _header_fields(text: str) -> dict[str, str]:
    """The ``key=value`` words of header text; other words are skipped."""
    return dict(part.split("=", 1) for part in text.split() if "=" in part)


@functools.lru_cache(maxsize=8)
def _time_column(t0: float, dt: float, num_samples: int) -> tuple[str, ...]:
    """Each time of ``Trajectory.times`` as _fmt writes it, with its comma.

    The column is ``t0 + dt * arange(num_samples)``, so these three values
    fix its text; the series of one run mostly share one.
    """
    times = t0 + dt * np.arange(num_samples)
    return tuple(["%.17g," % value for value in times.tolist()])


def save_trajectory_csv(path, trajectory: Trajectory) -> None:
    path = Path(path)
    prov = trajectory.provenance
    if prov.kind == "noisy":
        prov_text = (
            f"provenance=noisy sigma_pct={_fmt(prov.sigma_pct)} "
            f"seed={prov.seed if prov.seed is not None else 'none'}"
        )
    else:
        prov_text = "provenance=clean"
    lines = [
        f"# dt={_fmt(trajectory.dt)} t0={_fmt(trajectory.t0)} {prov_text}",
        "t," + ",".join(f"x{n + 1}" for n in range(trajectory.num_states)),
    ]
    # One %-format for every row writes what _fmt writes for each state.
    values = np.empty((trajectory.num_samples, trajectory.num_states + 1), dtype=object)
    values[:, 0] = _time_column(trajectory.t0, trajectory.dt, trajectory.num_samples)
    values[:, 1:] = trajectory.states
    row_format = "%s" + ",".join(["%.17g"] * trajectory.num_states)
    lines.append("\n".join([row_format] * len(values)) % tuple(values.ravel().tolist()))
    path.write_text("\n".join(lines) + "\n")


def save_model(path, operator: LearnedOperator) -> None:
    config = operator.config
    lines = [
        MODEL_MAGIC,
        f"num_states={config.num_states} delays={config.delays} "
        f"degree={config.degree} num_features={config.num_features}",
        f"dt={_fmt(operator.dt)}",
        f"ordering={MODEL_ORDERING}",
    ]
    for row in operator.matrix:
        lines.append(" ".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_model(path) -> LearnedOperator:
    path = Path(path)
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    if not lines or lines[0].strip() != MODEL_MAGIC:
        raise ValueError(f"{path}: not a {MODEL_MAGIC!r} file")
    header = _header_fields(" ".join(lines[1:4]))
    for key in ("num_states", "delays", "degree", "num_features", "dt", "ordering"):
        if key not in header:
            raise ValueError(f"{path}: header has no {key}= field")
    config = FeatureConfig(
        num_states=int(header["num_states"]),
        delays=int(header["delays"]),
        degree=int(header["degree"]),
    )
    if int(header["num_features"]) != config.num_features:
        raise ValueError(
            f"{path}: header claims {header['num_features']} features, "
            f"configuration implies {config.num_features}"
        )
    dt = float(header["dt"])
    ordering = header["ordering"]
    if ordering != MODEL_ORDERING:
        raise ValueError(f"{path}: unsupported feature ordering {ordering!r}")
    rows = [[float(token) for token in line.split()] for line in lines[4:]]
    matrix = np.array(rows)
    if matrix.shape != (config.num_states, config.num_features):
        raise ValueError(
            f"{path}: expected a {config.num_states}x{config.num_features} "
            f"matrix, got {matrix.shape}"
        )
    return LearnedOperator(matrix=matrix, config=config, dt=dt, training_summary=None)


def save_basin_csv(path, grid: BasinGrid) -> None:
    lines = [
        "# source={kind} system={system} resolution={res} "
        "x_range={xlo}:{xhi} y_range={ylo}:{yhi}".format(
            kind=grid.source.get("kind", "unknown"),
            system=grid.source.get("system", "unknown"),
            res=grid.resolution,
            xlo=_fmt(grid.x_range[0]),
            xhi=_fmt(grid.x_range[1]),
            ylo=_fmt(grid.y_range[0]),
            yhi=_fmt(grid.y_range[1]),
        ),
        "x,y,label",
    ]
    # Cells go x-major; each coordinate is formatted once, as _fmt writes it.
    xs, ys = (["%.17g," % v for v in axis.tolist()] for axis in (grid.xs, grid.ys))
    lines.extend(
        x + y + str(label)
        for x, row in zip(xs, grid.labels.tolist())
        for y, label in zip(ys, row)
    )
    Path(path).write_text("\n".join(lines) + "\n")


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(key): _json_safe(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(value) for value in obj]
    if isinstance(obj, np.ndarray):
        return [_json_safe(value) for value in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        return value if math.isfinite(value) else None
    return obj


def write_json(path, payload: dict) -> None:
    """Serialize with non-finite floats mapped to null."""
    Path(path).write_text(
        json.dumps(_json_safe(payload), indent=2, allow_nan=False) + "\n"
    )
