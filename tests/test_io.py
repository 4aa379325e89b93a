"""Artifact files: exact round trips and descriptive load failures."""

import json

import numpy as np
import pytest

from nldm.basin import BasinGrid
from nldm.core import FeatureConfig, LearnedOperator, Provenance, Trajectory
from nldm.io import (
    MODEL_MAGIC,
    _fmt,
    load_basin_csv,
    load_model,
    load_trajectory_csv,
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


def test_trajectory_round_trip_is_bit_exact(tmp_path):
    trajectory = awkward_trajectory(Provenance.noisy(0.1, seed=42))
    path = tmp_path / "series.csv"
    save_trajectory_csv(path, trajectory)
    loaded = load_trajectory_csv(path)
    np.testing.assert_array_equal(loaded.states, trajectory.states)
    assert loaded.dt == trajectory.dt
    assert loaded.t0 == trajectory.t0
    assert loaded.provenance == trajectory.provenance


def test_trajectory_round_trip_preserves_provenance_variants(tmp_path):
    for provenance in (Provenance.clean(), Provenance.noisy(0.5, seed=None)):
        path = tmp_path / "series.csv"
        save_trajectory_csv(path, awkward_trajectory(provenance))
        assert load_trajectory_csv(path).provenance == provenance


def test_trajectory_round_trip_keeps_nan_rows(tmp_path):
    states = np.ones((4, 2))
    states[2] = np.nan
    trajectory = Trajectory(states, dt=0.1, t0=0.0, provenance=Provenance.clean())
    path = tmp_path / "series.csv"
    save_trajectory_csv(path, trajectory)
    loaded = load_trajectory_csv(path)
    assert np.isnan(loaded.states[2]).all()
    np.testing.assert_array_equal(loaded.states[[0, 1, 3]], states[[0, 1, 3]])


def test_trajectory_rows_are_written_as_fmt_writes_each_value(tmp_path):
    specials = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-320, np.finfo(float).max]
    states = np.array([specials, specials[::-1]]).T
    trajectory = Trajectory(states, dt=0.1, t0=-0.0, provenance=Provenance.clean())
    path = tmp_path / "series.csv"
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


def test_trajectory_loader_names_file_and_line(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text(
        "# dt=0.1 t0=0 provenance=clean\n"
        "t,x1\n"
        "0,1.0\n"
        "0.1,oops\n"
    )
    with pytest.raises(ValueError, match=r"broken\.csv:4.*oops"):
        load_trajectory_csv(path)


@pytest.mark.parametrize(
    "header, message",
    [
        ("# dt=abc t0=0 provenance=clean", r"bad\.csv:1: malformed header"),
        ("# dt=0.1 t0=0 provenance=noisy seed=3", r"bad\.csv:1: noisy header has no sigma_pct="),
        ("# dt=0.1 t0=0 provenance=noisy sigma_pct=1 seed=x", r"bad\.csv:1: malformed header"),
    ],
)
def test_trajectory_loader_names_the_line_of_a_malformed_header(tmp_path, header, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"{header}\nt,x1\n0,1.0\n0.1,2.0\n")
    with pytest.raises(ValueError, match=message):
        load_trajectory_csv(path)


@pytest.mark.parametrize("row", ["0.1,2.0", "0.1,2.0,3.0,4.0"])
def test_trajectory_loader_names_the_line_of_a_row_of_the_wrong_width(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"t,x1,x2\n0,1.0,1.0\n{row}\n")
    with pytest.raises(ValueError, match=r"bad\.csv:3: expected 3 fields"):
        load_trajectory_csv(path)


def test_trajectory_loader_requires_two_samples(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("t,x1\n0,1.0\n")
    with pytest.raises(ValueError, match="fewer than two samples"):
        load_trajectory_csv(path)


def test_trajectory_loader_infers_sampling_from_time_column(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("t,x1\n2.0,1.0\n2.5,2.0\n3.0,4.0\n")
    loaded = load_trajectory_csv(path)
    assert loaded.dt == 0.5
    assert loaded.t0 == 2.0
    assert loaded.provenance == Provenance.clean()


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
    loaded = load_basin_csv(path)
    np.testing.assert_array_equal(loaded.labels, grid.labels)
    assert loaded.x_range == grid.x_range
    assert loaded.y_range == grid.y_range
    assert loaded.resolution == grid.resolution
    assert loaded.source == {"kind": "operator", "system": "two_attractor"}


def test_basin_loader_checks_cell_count(tmp_path):
    grid = BasinGrid(
        x_range=(0.0, 1.0),
        y_range=(0.0, 1.0),
        resolution=2,
        labels=np.array([["a", "b"], ["c", "d"]], dtype=object),
        source={},
        meta={},
    )
    path = tmp_path / "basin.csv"
    save_basin_csv(path, grid)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match="expected 4 cells, got 3"):
        load_basin_csv(path)


def two_by_two_basin_lines(tmp_path):
    grid = BasinGrid(
        x_range=(0.0, 1.0),
        y_range=(0.0, 1.0),
        resolution=2,
        labels=np.array([["a", "b"], ["c", "d"]], dtype=object),
        source={},
        meta={},
    )
    path = tmp_path / "basin.csv"
    save_basin_csv(path, grid)
    return path, path.read_text().splitlines()


@pytest.mark.parametrize("field", ["resolution", "x_range", "y_range"])
def test_basin_loader_names_missing_header_fields(tmp_path, field):
    path, lines = two_by_two_basin_lines(tmp_path)
    header = " ".join(part for part in lines[0].split() if not part.startswith(field + "="))
    path.write_text("\n".join([header] + lines[1:]) + "\n")
    with pytest.raises(ValueError, match=f"basin.csv: header has no {field}= field"):
        load_basin_csv(path)


@pytest.mark.parametrize(
    "old, new",
    [
        ("resolution=2", "resolution=two"),
        ("resolution=2", "resolution=-2"),
        ("x_range=0:1", "x_range=0"),
        ("y_range=0:1", "y_range=0:1:2"),
    ],
)
def test_basin_loader_rejects_malformed_header_values(tmp_path, old, new):
    path, lines = two_by_two_basin_lines(tmp_path)
    assert old in lines[0]
    path.write_text("\n".join([lines[0].replace(old, new)] + lines[1:]) + "\n")
    with pytest.raises(ValueError, match="basin.csv: (malformed header|resolution)"):
        load_basin_csv(path)


@pytest.mark.parametrize("row", ["0,a", "0,0,a,b", "a"])
def test_basin_loader_names_the_line_of_a_malformed_row(tmp_path, row):
    path, lines = two_by_two_basin_lines(tmp_path)
    lines[3] = row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="basin.csv:4: expected x,y,label"):
        load_basin_csv(path)


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
