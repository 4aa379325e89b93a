"""Artifact files: exact round trips and descriptive load failures.

The series and basin CSVs have no loader in the package: they read back
with ``np.loadtxt(path, delimiter=",", skiprows=2)``, and their metadata
is the ``#`` header line."""

import json

import numpy as np
import pytest

from nldm.basin import BasinGrid
from nldm.core import FeatureConfig, LearnedOperator, Provenance, Trajectory
from nldm.io import (
    MODEL_MAGIC,
    _fmt,
    load_model,
    save_basin_csv,
    save_model,
    save_trajectory_csv,
    write_json,
)


def awkward_trajectory(provenance):
    rng = np.random.default_rng(7)
    states = rng.standard_normal((12, 3))
    states[3, 1] = 0.1 + 0.2  # not representable in few digits
    states[5, 2] = 1e-17
    return Trajectory(states, dt=0.01, t0=0.25, provenance=provenance)


# ------------------------------------------------------------ trajectory csv


def read_csv(path, **kwargs):
    """The header line and the rows of a series or basin CSV."""
    header = path.read_text().splitlines()[0]
    return header, np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2, **kwargs)


def test_trajectory_round_trip_is_bit_exact(tmp_path):
    trajectory = awkward_trajectory(Provenance.noisy(0.1, seed=42))
    path = tmp_path / "series.csv"
    save_trajectory_csv(path, trajectory)
    header, rows = read_csv(path)
    np.testing.assert_array_equal(rows[:, 1:], trajectory.states)
    np.testing.assert_array_equal(rows[:, 0], trajectory.times)
    assert header == "# dt=0.01 t0=0.25 provenance=noisy sigma_pct=0.10000000000000001 seed=42"


def test_trajectory_round_trip_preserves_provenance_variants(tmp_path):
    for provenance, text in ((Provenance.clean(), "provenance=clean"),
                             (Provenance.noisy(0.5, seed=None), "provenance=noisy sigma_pct=0.5 seed=none")):
        path = tmp_path / "series.csv"
        save_trajectory_csv(path, awkward_trajectory(provenance))
        assert read_csv(path)[0] == "# dt=0.01 t0=0.25 " + text


def test_trajectory_round_trip_keeps_nan_rows(tmp_path):
    states = np.ones((4, 2))
    states[2] = np.nan
    trajectory = Trajectory(states, dt=0.1, t0=0.0, provenance=Provenance.clean())
    path = tmp_path / "series.csv"
    save_trajectory_csv(path, trajectory)
    loaded = read_csv(path)[1][:, 1:]
    assert np.isnan(loaded[2]).all()
    np.testing.assert_array_equal(loaded[[0, 1, 3]], states[[0, 1, 3]])


def test_trajectory_rows_are_written_as_fmt_writes_each_value(tmp_path):
    specials = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-320, np.finfo(float).max]
    states = np.array([specials, specials[::-1]]).T
    trajectory = Trajectory(states, dt=0.1, t0=-0.0, provenance=Provenance.clean())
    path = tmp_path / "series.csv"
    # The time column's text is kept per (t0, dt, length), and t0 = 0.0
    # shares -0.0's key: written first, it must not change these rows.
    save_trajectory_csv(path, Trajectory(states, dt=0.1, t0=0.0))
    save_trajectory_csv(path, trajectory)
    rows = path.read_text().splitlines()[2:]
    expected = [
        ",".join(_fmt(v) for v in [t, *state])
        for t, state in zip(trajectory.times, states)
    ]
    assert rows == expected
    assert rows[0].split(",")[1:] == ["-0", "1.7976931348623157e+308"]
    assert rows[2].split(",")[1:] == ["inf", "4.9406564584124654e-324"]


def test_trajectory_file_bytes_are_fmt_of_each_value(tmp_path):
    # The whole file, header to last newline, for three states whose
    # columns mix ordinary values with every special a float can hold.
    rng = np.random.default_rng(12)
    states = rng.normal(size=(40, 3)) * 10.0 ** rng.integers(-300, 300, (40, 3))
    specials = [-0.0, 0.0, 5e-324, -2.5e-310, np.inf, -np.inf, np.nan, np.finfo(float).max]
    states[rng.integers(0, 40, 24), rng.integers(0, 3, 24)] = np.resize(specials, 24)
    trajectory = Trajectory(states, dt=0.05, t0=-1.25, provenance=Provenance.noisy(0.5, 3))
    path = tmp_path / "series.csv"
    save_trajectory_csv(path, trajectory)
    lines = [
        f"# dt={_fmt(0.05)} t0={_fmt(-1.25)} provenance=noisy sigma_pct={_fmt(0.5)} seed=3",
        "t,x1,x2,x3",
        *(",".join(_fmt(v) for v in [t, *row]) for t, row in zip(trajectory.times, states)),
    ]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert {"-0", "0", "4.9406564584124654e-324", "inf", "-inf", "nan"} <= set(
        path.read_text().replace("\n", ",").split(",")
    )


# ------------------------------------------------------------- operator files


def test_model_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    config = FeatureConfig(2, 2, 2)
    operator = LearnedOperator(
        rng.standard_normal((2, config.num_features)), config, dt=0.01
    )
    path = tmp_path / "operator.txt"
    save_model(path, operator)
    loaded = load_model(path)
    np.testing.assert_array_equal(loaded.matrix, operator.matrix)
    assert loaded.config == config
    assert loaded.dt == operator.dt
    assert loaded.training_summary is None


def test_model_loader_rejects_corrupted_files(tmp_path):
    config = FeatureConfig(2, 2, 2)
    operator = LearnedOperator(np.ones((2, 14)), config, dt=0.01)
    path = tmp_path / "operator.txt"
    save_model(path, operator)
    original = path.read_text()

    path.write_text(original.replace(MODEL_MAGIC, "some-other-format"))
    with pytest.raises(ValueError, match="not a"):
        load_model(path)

    path.write_text(original.replace("num_features=14", "num_features=15"))
    with pytest.raises(ValueError, match="header claims 15"):
        load_model(path)

    path.write_text(original.replace("ordering=graded-lex", "ordering=lex"))
    with pytest.raises(ValueError, match="unsupported feature ordering"):
        load_model(path)

    lines = original.splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")  # drop one matrix row
    with pytest.raises(ValueError, match="expected a 2x14 matrix"):
        load_model(path)


@pytest.mark.parametrize(
    "corrupt, field",
    [
        (lambda lines: [lines[0], lines[1].replace(" num_features=14", "")] + lines[2:], "num_features"),
        (lambda lines: [lines[0], lines[1].replace("delays=2 ", "")] + lines[2:], "delays"),
        (lambda lines: lines[:2], "dt"),  # cut after the second line
        (lambda lines: lines[:3], "ordering"),
        (lambda lines: lines[:1], "num_states"),
    ],
)
def test_model_loader_names_missing_header_fields(tmp_path, corrupt, field):
    config = FeatureConfig(2, 2, 2)
    path = tmp_path / "operator.txt"
    save_model(path, LearnedOperator(np.ones((2, 14)), config, dt=0.01))
    path.write_text("\n".join(corrupt(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError, match=f"operator.txt: header has no {field}="):
        load_model(path)


# ----------------------------------------------------------------- basin csv


def test_basin_round_trip(tmp_path):
    grid = BasinGrid(
        x_range=(-3.0, 3.0),
        y_range=(-1.0, 1.0),
        resolution=2,
        labels=np.array(
            [["left_sink", "unresolved"], ["diverged", "right_sink"]], dtype=object
        ),
        source={"kind": "operator", "system": "two_attractor"},
        meta={"steps": 100},
    )
    path = tmp_path / "basin.csv"
    save_basin_csv(path, grid)
    header, rows = read_csv(path, dtype=str)
    assert header == "# source=operator system=two_attractor resolution=2 x_range=-3:3 y_range=-1:1"
    np.testing.assert_array_equal(rows[:, 2].reshape(2, 2), grid.labels)
    cells = np.stack(np.meshgrid(grid.xs, grid.ys, indexing="ij"), axis=-1).reshape(-1, 2)
    np.testing.assert_array_equal(rows[:, :2].astype(float), cells)


def test_basin_file_bytes_are_fmt_of_each_value(tmp_path):
    # Window ends that are not short decimals, so every coordinate needs
    # all 17 digits; cells go x-major.
    labels = np.array(["left_sink", "right_sink", "unresolved", "diverged"], dtype=object)
    grid = BasinGrid(
        x_range=(-0.1, 0.2),
        y_range=(1 / 3, 2.7),
        resolution=7,
        labels=np.resize(labels, (7, 7)),
        source={"kind": "integrator", "system": "two_attractor"},
        meta={},
    )
    path = tmp_path / "basin.csv"
    save_basin_csv(path, grid)
    lines = [
        f"# source=integrator system=two_attractor resolution=7 "
        f"x_range={_fmt(-0.1)}:{_fmt(0.2)} y_range={_fmt(1 / 3)}:{_fmt(2.7)}",
        "x,y,label",
        *(f"{_fmt(x)},{_fmt(y)},{grid.labels[i, j]}"
          for i, x in enumerate(grid.xs) for j, y in enumerate(grid.ys)),
    ]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert "-0.10000000000000001" in lines[2] and len(lines) == 2 + 49
    np.testing.assert_array_equal(read_csv(path, usecols=(0, 1))[1][::7, 0], grid.xs)


# ---------------------------------------------------------------- json sidecar


def test_write_json_normalizes_numpy_and_nonfinite(tmp_path):
    path = tmp_path / "summary.json"
    write_json(
        path,
        {
            "mean": np.float64(0.5),
            "count": np.int64(3),
            "series": np.array([1.5, 2.5]),
            "missing": float("nan"),
            "blown": np.inf,
            "pair": (1, 2),
            7: "numbered",
            "flag": True,
            "np_flag": np.bool_(False),
        },
    )
    loaded = json.loads(path.read_text())
    assert loaded == {
        "mean": 0.5,
        "count": 3,
        "series": [1.5, 2.5],
        "missing": None,
        "blown": None,
        "pair": [1, 2],
        "7": "numbered",
        "flag": True,
        "np_flag": False,
    }
    assert loaded["flag"] is True
    assert loaded["np_flag"] is False
