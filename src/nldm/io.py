"""Plain-text artifacts: trajectory CSVs, operator files, basin rasters.

All floats are written with 17 significant digits so a load after a save
reproduces every value bit for bit.  Trajectory files carry their
sampling metadata in a leading comment; operator files start with a
versioned header naming the dimensions and the monomial ordering.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .basin import BasinGrid
from .core import FeatureConfig, LearnedOperator, Provenance, Trajectory

__all__ = [
    "save_trajectory_csv",
    "load_trajectory_csv",
    "save_model",
    "load_model",
    "save_basin_csv",
    "load_basin_csv",
    "write_json",
]

MODEL_MAGIC = "nldm-operator v1"
MODEL_ORDERING = "graded-lex"


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _header_fields(text: str) -> dict[str, str]:
    """The ``key=value`` words of header text; other words are skipped."""
    return dict(part.split("=", 1) for part in text.split() if "=" in part)


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
    # One %-format for every row writes what _fmt writes for each value.
    values = np.column_stack([trajectory.times, trajectory.states])
    row_format = ",".join(["%.17g"] * values.shape[1])
    lines.append("\n".join([row_format] * len(values)) % tuple(values.ravel().tolist()))
    path.write_text("\n".join(lines) + "\n")


def load_trajectory_csv(path) -> Trajectory:
    path = Path(path)
    dt = t0 = None
    provenance = Provenance.clean()
    rows = []
    times = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            fields = _header_fields(line[1:])
            noisy = fields.get("provenance") == "noisy"
            if noisy and "sigma_pct" not in fields:
                raise ValueError(f"{path}:{lineno}: noisy header has no sigma_pct= field")
            try:
                if "dt" in fields:
                    dt = float(fields["dt"])
                if "t0" in fields:
                    t0 = float(fields["t0"])
                if noisy:
                    seed_text = fields.get("seed", "none")
                    provenance = Provenance.noisy(
                        float(fields["sigma_pct"]),
                        None if seed_text == "none" else int(seed_text),
                    )
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed header: {exc}") from exc
            continue
        if line.startswith("t,"):
            continue
        parts = line.split(",")
        try:
            values = [float(part) for part in parts]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: unparseable row {line!r}") from exc
        if rows and len(values) != len(rows[0]) + 1:
            raise ValueError(
                f"{path}:{lineno}: expected {len(rows[0]) + 1} fields, got {len(values)}"
            )
        times.append(values[0])
        rows.append(values[1:])
    if len(rows) < 2:
        raise ValueError(f"{path}: fewer than two samples")
    if dt is None:
        dt = times[1] - times[0]
    if t0 is None:
        t0 = times[0]
    return Trajectory(np.array(rows), dt=dt, t0=t0, provenance=provenance)


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
    # One %-format for every row, as for trajectories; cells go x-major.
    xs, ys = (axis.ravel().tolist() for axis in np.meshgrid(grid.xs, grid.ys, indexing="ij"))
    values = [v for cell in zip(xs, ys, grid.labels.ravel().tolist()) for v in cell]
    lines.append("\n".join(["%.17g,%.17g,%s"] * grid.labels.size) % tuple(values))
    Path(path).write_text("\n".join(lines) + "\n")


def load_basin_csv(path) -> BasinGrid:
    path = Path(path)
    meta = {}
    labels = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line == "x,y,label":
            continue
        if line.startswith("#"):
            meta = _header_fields(line[1:])
            continue
        fields = line.split(",")
        if len(fields) != 3:
            raise ValueError(f"{path}:{lineno}: expected x,y,label, got {line!r}")
        labels.append(fields[2])
    for key in ("resolution", "x_range", "y_range"):
        if key not in meta:
            raise ValueError(f"{path}: header has no {key}= field")
    try:
        resolution = int(meta["resolution"])
        x_lo, x_hi = (float(v) for v in meta["x_range"].split(":"))
        y_lo, y_hi = (float(v) for v in meta["y_range"].split(":"))
    except ValueError as exc:
        raise ValueError(f"{path}: malformed header: {exc}") from exc
    if resolution < 2:
        raise ValueError(f"{path}: resolution must be >= 2, got {resolution}")
    if len(labels) != resolution * resolution:
        raise ValueError(
            f"{path}: expected {resolution * resolution} cells, got {len(labels)}"
        )
    return BasinGrid(
        x_range=(x_lo, x_hi),
        y_range=(y_lo, y_hi),
        resolution=resolution,
        labels=np.array(labels, dtype=object).reshape(resolution, resolution),
        source={"kind": meta.get("source", "unknown"), "system": meta.get("system", "unknown")},
        meta={},
    )


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
