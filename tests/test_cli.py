"""End-to-end command pipeline: artifacts, exit codes, reproducibility."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nldm import (
    SYSTEM_IDS,
    IntegratorSettings,
    LearnedOperator,
    classify_series,
    integrate,
    make_system,
)
from nldm import cli
from nldm.cli import EXIT_CONFIG, EXIT_OK, EXIT_PIPELINE, main
from nldm.core import IntegrationError
from nldm.config import config_from_dict, derived_seed
from nldm.io import load_model, save_trajectory_csv


def base_config():
    return {
        "system": {"ident": "lho"},
        "model": {"delays": 2, "degree": 1},
        "train": [
            {
                "ic": [2.0, 0.0],
                "t_span": [0.0, 0.59],
                "num_samples": 60,
                "noise": {"sigma_pct": 0.1, "seed": 5},
            },
            {"ic": [-1.0, 2.0], "t_span": [0.0, 0.59], "num_samples": 60},
        ],
        "test": [
            {
                "ic": [0.0, 2.0],
                "t_span": [0.0, 0.59],
                "num_samples": 60,
                "noise": {"sigma_pct": 0.1},
            }
        ],
        "basin": {"window": [[-2.0, 2.0], [-2.0, 2.0]], "resolution": 3, "steps": 1200},
        "global_seed": 3,
    }


def write_config(tmp_path, raw=None, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw if raw is not None else base_config()))
    return path


def read_states(path):
    """The state columns of a series CSV, bit for bit."""
    return np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)[:, 1:]


def test_run_produces_every_artifact(tmp_path):
    config_path = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == EXIT_OK

    expected = {
        "train_00_clean.csv",
        "train_00_noisy.csv",
        "train_01_clean.csv",
        "test_00_clean.csv",
        "test_00_noisy.csv",
        "model.txt",
        "train_metrics.json",
        "predicted_test_00.csv",
        "scores.json",
        "basin_truth.csv",
        "basin_operator.csv",
        "agreement.json",
    }
    for name in expected | {"manifest.json"}:
        assert (out / name).exists(), name

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "run"
    assert set(manifest["artifacts"]) == expected
    assert manifest["global_seed"] == 3
    # The echoed config parses back to the exact configuration that ran.
    assert config_from_dict(manifest["config"]) == config_from_dict(base_config())
    assert set(manifest["versions"]) == {"python", "numpy", "nldm"}
    for stage in ("simulate", "train", "evaluate", "basin_truth", "basin_operator"):
        assert manifest["timings_seconds"][stage] >= 0
    assert manifest["resolved_noise_seeds"]["train"] == [5, None]
    assert manifest["resolved_noise_seeds"]["test"] == [derived_seed(3, "test", 0)]

    scores = json.loads((out / "scores.json").read_text())["test"]
    assert len(scores) == 1
    assert scores[0]["diverged"] is False
    assert scores[0]["mean_rrmse"] < 0.5

    metrics = json.loads((out / "train_metrics.json").read_text())
    assert metrics["num_trajectories"] == 2
    assert metrics["total_columns"] == 2 * 58
    assert metrics["underdetermined"] is False

    agreement = json.loads((out / "agreement.json").read_text())
    assert agreement["fraction_agree"] == 1.0


SERIES_FILES = ["train_00_clean.csv", "train_00_noisy.csv", "train_01_clean.csv",
                "test_00_clean.csv", "test_00_noisy.csv"]


def assert_no_child_left():
    # Every process the command forked has ended and been reaped.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_writes_the_files_of_the_commands_run_one_by_one(tmp_path):
    # run forks right after the solve and writes the series and the truth
    # grid in the child; it scores the fit and forecasts the test series
    # in one batch.  Its files are those of simulate, train, evaluate
    # --model and basin --model, listed in serial order.
    config_path = write_config(tmp_path)
    run, alone = tmp_path / "run", tmp_path / "alone"
    assert main(["run", "--config", str(config_path), "--out", str(run)]) == EXIT_OK
    assert_no_child_left()
    model = ["--model", str(alone / "model.txt")]
    for command in (["simulate"], ["train"], ["evaluate", *model], ["basin", *model]):
        assert main([*command, "--config", str(config_path), "--out", str(alone)]) == EXIT_OK
    for name in SERIES_FILES + ["model.txt", "train_metrics.json", "predicted_test_00.csv",
                                "scores.json", "basin_truth.csv", "basin_operator.csv"]:
        assert (run / name).read_bytes() == (alone / name).read_bytes(), name

    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["artifacts"] == SERIES_FILES + [
        "model.txt", "train_metrics.json", "predicted_test_00.csv", "scores.json",
        "basin_truth.csv", "basin_operator.csv", "agreement.json",
    ]
    # Stage times overlap; the pipeline's wall time covers each of them.
    timings = manifest["timings_seconds"]
    assert timings["total"] >= max(value for stage, value in timings.items() if stage != "total")


def forking_argv(tmp_path, command):
    """The arguments, bar ``--out``, of a command that forks: ``run``, or
    ``basin --model`` with the model ``train`` saves."""
    config = ["--config", str(write_config(tmp_path))]
    if command == "run":
        return ["run", *config]
    fit = tmp_path / "fit"
    assert main(["train", *config, "--out", str(fit)]) == EXIT_OK
    return ["basin", *config, "--model", str(fit / "model.txt")]


FORKING = ["run", "basin --model"]


@pytest.mark.parametrize("command", FORKING)
def test_run_where_fork_is_refused_writes_the_same_files(tmp_path, monkeypatch, command):
    argv = forking_argv(tmp_path, command)
    forked, inline = tmp_path / "forked", tmp_path / "inline"
    assert main([*argv, "--out", str(forked)]) == EXIT_OK

    def refuse():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", refuse)
    assert main([*argv, "--out", str(inline)]) == EXIT_OK
    assert_no_child_left()
    names = sorted(path.name for path in forked.iterdir())
    assert names == sorted(path.name for path in inline.iterdir())
    for name in names:
        if name != "manifest.json":
            assert (forked / name).read_bytes() == (inline / name).read_bytes(), name


class _Unpicklable(ValueError):
    """An error that pickles but does not unpickle: its constructor takes
    two arguments and the error carries one."""

    def __init__(self, cell, reason):
        super().__init__(f"cell {cell}: {reason}")


def _raises(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


_TEST_PID = os.getpid()


def _dies(*args, **kwargs):
    assert os.getpid() != _TEST_PID, "expected to run in the forked child"
    os._exit(7)


_FORK_FAILURES = {
    "child-error": ("ground_truth_grid", _raises(IntegrationError("truth cell 4 failed")),
                    "pipeline error: truth cell 4 failed"),
    "child-unpicklable-error": ("ground_truth_grid", _raises(_Unpicklable(4, "no label")),
                                "pipeline error: _Unpicklable: cell 4: no label"),
    "child-dies": ("ground_truth_grid", _dies, "ended with exit code 7 and no result"),
    "parent-error": ("operator_grid", _raises(ValueError("operator cell 4 failed")),
                     "pipeline error: operator cell 4 failed"),
    "parent-forecast-error": ("_forecast_batch",
                              _raises(ValueError("seeds contain non-finite entries")),
                              "pipeline error: seeds contain non-finite entries"),
}


@pytest.mark.parametrize("command, failure", [
    (command, failure) for command in FORKING for failure in _FORK_FAILURES
    # basin --model forecasts nothing.
    if (command, failure) != ("basin --model", "parent-forecast-error")
])
def test_run_failing_on_either_side_of_the_fork_exits_3_and_leaves_no_child(
        tmp_path, capsys, monkeypatch, command, failure):
    argv = forking_argv(tmp_path, command)
    name, replacement, message = _FORK_FAILURES[failure]
    monkeypatch.setattr(cli, name, replacement)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == EXIT_PIPELINE
    assert_no_child_left()
    assert message in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_commands_with_one_half_of_the_work_do_not_fork(tmp_path, monkeypatch):
    config_path = write_config(tmp_path)
    out = tmp_path / "out"
    monkeypatch.setattr(os, "fork", _raises(AssertionError("forked")))
    model = ["--model", str(out / "model.txt")]
    for command in (["train"], ["simulate"], ["predict", *model], ["evaluate", *model],
                    ["basin"]):
        assert main([*command, "--config", str(config_path), "--out", str(out)]) == EXIT_OK


def test_run_with_an_unwritable_truth_grid_file_exits_2(tmp_path, capsys):
    blocker = tmp_path / "out" / "basin_truth.csv"
    blocker.mkdir(parents=True)
    argv = ["run", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_CONFIG
    assert_no_child_left()
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert str(blocker) in err


def test_only_the_command_entry_freezes_the_collector(tmp_path, capsys):
    # main runs in-process for tests and library users, so it leaves the
    # collector alone; the console entry freezes the import heap first and
    # otherwise ends as main returns.
    config_path = write_config(tmp_path)
    bad = write_config(tmp_path, {**base_config(), "extra": 1}, name="bad.json")
    frozen = gc.get_freeze_count()
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "a")]) == EXIT_CONFIG
    assert gc.get_freeze_count() == frozen
    bad_err = capsys.readouterr().err
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    for path, code, err in ((config_path, EXIT_OK, ""), (bad, EXIT_CONFIG, bad_err)):
        argv = ["run", "--config", str(path), "--out", str(tmp_path / "b")]
        result = subprocess.run([sys.executable, "-m", "nldm.cli", *argv], capture_output=True,
                                text=True, env=env, timeout=120)
        assert (result.returncode, result.stderr) == (code, err)
    code = ("import atexit, gc, sys; from nldm import cli; "
            "atexit.register(lambda: print(gc.get_freeze_count() > 0)); "
            "sys.argv[1:] = ['train', '--config', sys.argv[1]]; cli.entry()")
    result = subprocess.run([sys.executable, "-c", code, str(bad)], capture_output=True,
                            text=True, env=env, timeout=120)
    assert (result.returncode, result.stdout, result.stderr) == (EXIT_CONFIG, "True\n", bad_err)


def test_cli_import_loads_no_process_pool_module():
    # A process pool's modules would add to the start-up of every command.
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import sys, nldm.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, check=True, timeout=60)
    assert result.stdout.strip() == "[]"


def test_prediction_matches_test_series_shape(tmp_path):
    config_path = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
    predicted = read_states(out / "predicted_test_00.csv")
    reference = read_states(out / "test_00_clean.csv")
    assert predicted.shape == reference.shape
    header = (out / "predicted_test_00.csv").read_text().splitlines()[0]
    assert header == "# dt=0.01 t0=0 provenance=clean"
    # Seed rows are carried over from the (noisy) test series verbatim.
    noisy = read_states(out / "test_00_noisy.csv")
    np.testing.assert_array_equal(predicted[:2], noisy[:2])


def test_simulate_reruns_are_byte_identical(tmp_path):
    config_path = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(config_path), "--out", str(out_a)]) == EXIT_OK
    assert main(["simulate", "--config", str(config_path), "--out", str(out_b)]) == EXIT_OK
    for name in ("train_00_noisy.csv", "test_00_noisy.csv", "train_01_clean.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_train_reruns_are_byte_identical(tmp_path):
    # Wall-clock times live only in the manifest's timings_seconds.
    config_path = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(config_path), "--out", str(out_a)]) == EXIT_OK
    assert main(["train", "--config", str(config_path), "--out", str(out_b)]) == EXIT_OK
    for name in ("train_metrics.json", "model.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_integrator_section_sets_series_tolerances(tmp_path):
    raw = base_config()
    raw["integrator"] = {"rel_tol": 1e-3, "abs_tol": 1e-6}
    config_path = write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
    states = read_states(out / "train_01_clean.csv")
    loose = IntegratorSettings(rel_tol=1e-3, abs_tol=1e-6)
    args = (make_system("lho"), (-1.0, 2.0), (0.0, 0.59), 60)
    np.testing.assert_array_equal(states, integrate(*args, loose).states)
    assert not np.array_equal(states, integrate(*args).states)


def test_seed_override_changes_derived_noise_only(tmp_path):
    config_path = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", str(config_path), "--out", str(out_a)])
    main(["simulate", "--config", str(config_path), "--out", str(out_b), "--seed", "9"])
    # test noise seed is derived from the global seed, so it moves...
    assert (out_a / "test_00_noisy.csv").read_bytes() != (
        out_b / "test_00_noisy.csv"
    ).read_bytes()
    # ...while the explicitly seeded train series stays put.
    assert (out_a / "train_00_noisy.csv").read_bytes() == (
        out_b / "train_00_noisy.csv"
    ).read_bytes()
    manifest = json.loads((out_b / "manifest.json").read_text())
    assert manifest["global_seed"] == 9
    assert manifest["resolved_noise_seeds"]["test"] == [derived_seed(9, "test", 0)]


def test_train_then_evaluate_with_saved_model(tmp_path):
    config_path = write_config(tmp_path)
    train_out, eval_out = tmp_path / "fit", tmp_path / "eval"
    assert main(["train", "--config", str(config_path), "--out", str(train_out)]) == EXIT_OK
    assert (train_out / "model.txt").exists()
    assert not (train_out / "train_00_clean.csv").exists()  # train writes no series

    assert (
        main(
            [
                "evaluate",
                "--config",
                str(config_path),
                "--out",
                str(eval_out),
                "--model",
                str(train_out / "model.txt"),
            ]
        )
        == EXIT_OK
    )
    scores = json.loads((eval_out / "scores.json").read_text())["test"]
    assert scores[0]["mean_rrmse"] < 0.5
    operator = load_model(train_out / "model.txt")
    assert operator.config.num_features == 4


def test_predict_skips_scoring(tmp_path):
    config_path = write_config(tmp_path)
    train_out, predict_out = tmp_path / "fit", tmp_path / "pred"
    main(["train", "--config", str(config_path), "--out", str(train_out)])
    assert (
        main(
            [
                "predict",
                "--config",
                str(config_path),
                "--out",
                str(predict_out),
                "--model",
                str(train_out / "model.txt"),
            ]
        )
        == EXIT_OK
    )
    assert (predict_out / "predicted_test_00.csv").exists()
    assert not (predict_out / "scores.json").exists()


def _handed_the_model_in_its_out(command):
    """An argv builder for a command that reads no --model."""
    return lambda tmp, cfg: [command, "--config", str(cfg), "--out", str(tmp / "fit"),
                             "--model", str(tmp / "fit" / "model.txt")]


@pytest.mark.parametrize(
    "argv_builder",
    [
        lambda tmp, cfg: ["train", "--config", str(tmp / "missing.json")],
        lambda tmp, cfg: ["train", "--config", str(cfg), "--seed", "-1"],
        lambda tmp, cfg: ["evaluate", "--config", str(cfg)],  # no --model
        *(_handed_the_model_in_its_out(command) for command in ("simulate", "train", "run")),
    ],
)
def test_configuration_failures_exit_2(tmp_path, capsys, argv_builder):
    config_path = write_config(tmp_path)
    fit = tmp_path / "fit"
    assert main(["train", "--config", str(config_path), "--out", str(fit)]) == EXIT_OK
    files = {path.name: path.read_bytes() for path in fit.iterdir()}
    assert main(argv_builder(tmp_path, config_path)) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in fit.iterdir()} == files


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_output_path_through_a_file_exits_2(tmp_path, capsys, out):
    config_path = write_config(tmp_path)
    (tmp_path / "file").write_text("not a directory\n")
    argv = ["simulate", "--config", str(config_path), "--out", str(tmp_path / out)]
    assert main(argv) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    assert (tmp_path / "file").read_text() == "not a directory\n"


def test_unwritable_artifact_path_exits_2(tmp_path, capsys):
    config_path = write_config(tmp_path)
    blocker = tmp_path / "out" / "train_00_clean.csv"
    blocker.mkdir(parents=True)
    argv = ["simulate", "--config", str(config_path), "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert str(blocker) in err


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    # Truncated, and nested past the parser's recursion limit.
    for text in ("{", "[" * 100_000):
        path.write_text(text)
        assert main(["train", "--config", str(path)]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    raw = base_config()
    raw["extra"] = 1
    config_path = write_config(tmp_path, raw)
    assert main(["train", "--config", str(config_path)]) == EXIT_CONFIG
    assert "'extra'" in capsys.readouterr().err


def test_corrupt_model_file_exits_2(tmp_path, capsys):
    config_path = write_config(tmp_path)
    bad_model = tmp_path / "model.txt"
    bad_model.write_text("not an operator\n")
    argv = [
        "evaluate",
        "--config",
        str(config_path),
        "--out",
        str(tmp_path / "out"),
        "--model",
        str(bad_model),
    ]
    assert main(argv) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_model_file_with_cut_header_exits_2(tmp_path, capsys):
    config_path = write_config(tmp_path)
    assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "a")]) == EXIT_OK
    model = tmp_path / "a" / "model.txt"
    model.write_text("\n".join(model.read_text().splitlines()[:2]) + "\n")
    argv = ["basin", "--config", str(config_path), "--out", str(tmp_path / "b")]
    assert main(argv + ["--model", str(model)]) == EXIT_CONFIG
    assert "header has no dt=" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("train", "num_samples", None),
        ("basin", "fixed", [1]),
        ("basin", "fixed", {"5": 0.0}),
        ("train", "ic", None),
        ("train", "ic", [None, 1.0]),
        ("train", "t_span", None),
        ("basin", "window", None),
        ("system", "params", {"delta": None}),
        ("config", "train", [None]),
        ("config", "test", [None]),
        ("config", "system", 5),
        ("config", "model", 3),
        ("config", "basin", 5),
        ("train", "noise", 0.1),
        ("config", "output_dir", None),
        ("config", "output_dir", 5),
        ("config", "integrator", {"rel_tol": None}),
        ("config", "integrator", {"abs_tol": 0.0}),
        ("config", "integrator", {"max_step": 0.1}),
        ("model", "delays", float("inf")),  # written as JSON's Infinity
        ("model", "delays", 2.7),
        ("basin", "fixed", {"0": 1.0}),  # one free axis: once exit 3 after the truth grid
        ("basin", "window", [[float("-inf"), 2.0], [-2.0, 2.0]]),  # once exit 0, axis not finite
        ("train", "noise", {"sigma_pct": float("inf")}),  # once exit 3 after simulating
        ("system", "params", {"delta": float("nan")}),  # written as JSON's NaN
    ],
)
def test_malformed_config_values_exit_2(tmp_path, capsys, section, key, value):
    raw = base_config()
    entry = {"basin": raw["basin"], "train": raw["train"][0], "system": raw["system"],
             "model": raw["model"], "config": raw}[section]
    entry[key] = value
    config_path = write_config(tmp_path, raw)
    assert main(["basin", "--config", str(config_path), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_model_beyond_feature_capacity_exits_2_before_simulating(tmp_path, capsys):
    # Such a shape once simulated (exit 0), and training then exited 3.
    root = Path(__file__).resolve().parents[1]
    raw = json.loads((root / "configs" / "oscillator_noise.json").read_text())
    raw["model"] = {"delays": 30, "degree": 30}
    argv = ["simulate", "--config", str(write_config(tmp_path, raw)), "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_CONFIG
    assert "model: feature space of size" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_scores_carry_capture_labels(tmp_path):
    # Ten seconds let the test series settle at the oscillator's origin;
    # the labels follow the grids' capture rule at the basin tolerance.
    raw = base_config()
    raw["test"][0].update(t_span=[0.0, 9.99], num_samples=1000)
    raw["basin"]["tol"] = 0.1
    config_path = write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
    entry = json.loads((out / "scores.json").read_text())["test"][0]
    attractors = make_system("lho").attractors
    for field, name in (("reference_label", "test_00_clean.csv"),
                        ("forecast_label", "predicted_test_00.csv")):
        states = read_states(out / name)
        assert entry[field] == classify_series(states, attractors, 0.1) == "origin"


def test_undefined_test_score_is_written_not_fatal(tmp_path):
    # A start on the invariant axis x = 0 keeps x constant, so the
    # reference's x has no spread and its RRMSE is undefined.
    raw = base_config()
    raw["system"] = {"ident": "two_attractor"}
    raw["train"][0]["ic"] = [2.0, 1.0]
    raw["train"][1]["ic"] = [-0.5, 2.0]
    raw["test"] = [{"ic": [0.0, -3.0], "t_span": [0.0, 0.59], "num_samples": 60,
                    "noise": {"sigma_pct": 0.1, "seed": 52}}]
    del raw["basin"]
    config_path = write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
    assert "scores.json" in json.loads((out / "manifest.json").read_text())["artifacts"]
    entry = json.loads((out / "scores.json").read_text())["test"][0]
    assert entry["mean_rrmse"] is None and entry["per_state_rrmse"] is None
    assert "reference state 0 is constant" in entry["undefined"]
    assert entry["diverged"] is False and entry["diverged_at"] is None
    assert entry["compared_points"] == 58


def test_commands_check_required_sections(tmp_path):
    raw = base_config()
    del raw["test"], raw["basin"]
    config_path = write_config(tmp_path, raw)
    assert main(["predict", "--config", str(config_path)]) == EXIT_CONFIG
    assert main(["basin", "--config", str(config_path)]) == EXIT_CONFIG


def test_training_series_with_an_undefined_score_is_scored_null(tmp_path):
    # two_attractor keeps x = 1 fixed, so the first series' x is constant
    # and its re-prediction score is undefined; the fit is still saved.
    raw = base_config()
    raw["system"] = {"ident": "two_attractor"}
    raw["model"] = {"delays": 2, "degree": 3}
    raw["train"] = [
        {"ic": [1.0, 1.0], "t_span": [0.0, 0.59], "num_samples": 60},
        {"ic": [-0.5, 1.0], "t_span": [0.0, 0.59], "num_samples": 60},
    ]
    del raw["test"], raw["basin"]
    config_path = write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert main(["train", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
    metrics = json.loads((out / "train_metrics.json").read_text())
    first, second = metrics["per_trajectory_rrmse"]
    assert first is None and np.isfinite(second)
    assert metrics["mean_rrmse"] is None
    assert load_model(out / "model.txt").config.delays == 2


@pytest.mark.parametrize("command", ["train", "run"])
def test_training_series_without_signal_exit_3(tmp_path, capsys, command):
    # run solves before it forks, so it fails with no child to reap.
    raw = base_config()
    raw["model"] = {"delays": 1, "degree": 1}
    raw["train"] = [{"ic": [0.0, 0.0], "t_span": [0.0, 0.59], "num_samples": 60}]
    del raw["test"], raw["basin"]
    out = tmp_path / "out"
    assert main([command, "--config", str(write_config(tmp_path, raw)),
                 "--out", str(out)]) == EXIT_PIPELINE
    assert_no_child_left()
    assert "effective rank 0" in capsys.readouterr().err
    assert not (out / "model.txt").exists()


@pytest.mark.parametrize("command", ["train", "run"])
def test_underdetermined_fit_warns_in_one_line(tmp_path, capsys, command):
    raw = base_config()
    raw["model"] = {"delays": 2, "degree": 2}  # 14 features
    for entry in raw["train"]:
        entry.update(t_span=[0.0, 0.05], num_samples=6)  # 4 snapshot columns each
    out = tmp_path / "out"
    assert main([command, "--config", str(write_config(tmp_path, raw)),
                 "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == (
        "nldm: warning: underdetermined fit: 14 features but only 8 snapshot "
        "columns; the minimum-norm solution is reported\n"
    )
    assert json.loads((out / "train_metrics.json").read_text())["underdetermined"] is True


def _overcommit_mode():
    try:
        return Path("/proc/sys/vm/overcommit_memory").read_text().strip()
    except OSError:
        return None


# Linux refuses the scan's 14.6 TiB request at once under its heuristic (0)
# and strict (2) overcommit modes; mode 1 would grant it and page it in.
@pytest.mark.skipif(_overcommit_mode() not in ("0", "2"),
                    reason="needs an allocator that refuses oversized requests")
def test_scan_too_large_to_allocate_exits_3(tmp_path, capsys):
    raw = base_config()
    raw["basin"]["resolution"] = 10**6
    out = tmp_path / "out"
    assert main(["basin", "--config", str(write_config(tmp_path, raw)),
                 "--out", str(out)]) == EXIT_PIPELINE
    assert "Unable to allocate" in capsys.readouterr().err


def _double_dt(raw):
    for entry in raw["train"] + raw["test"]:
        entry["t_span"] = [0.0, 1.18]


def _three_states(raw):
    raw["system"] = {"ident": "mfcd"}
    for entry in raw["train"] + raw["test"]:
        entry["ic"] = [1.0, 0.0, 0.5]
    raw["basin"]["fixed"] = {"2": 1.0}


def _other_shape(raw):
    raw["model"] = {"delays": 1, "degree": 2}


@pytest.mark.parametrize("command", ["basin", "evaluate"])
@pytest.mark.parametrize("change, message", [
    (_double_dt, "dt="), (_three_states, "2 states"), (_other_shape, "delays=2 degree=1"),
])
def test_saved_model_that_does_not_fit_the_config_exits_2(tmp_path, capsys, command,
                                                          change, message):
    fit = tmp_path / "fit"
    assert main(["train", "--config", str(write_config(tmp_path)), "--out", str(fit)]) == EXIT_OK
    raw = base_config()
    change(raw)
    config_path = write_config(tmp_path, raw, name="other.json")
    argv = [command, "--config", str(config_path), "--out", str(tmp_path / "out"),
            "--model", str(fit / "model.txt")]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err
    assert not (tmp_path / "out").exists()


def test_series_of_several_spans_and_lengths_equal_single_integrations(tmp_path):
    # The CLI integrates the series that share a span and a length in one
    # batch, train and test alike; each file must be byte for byte the
    # series integrated alone.
    raw = base_config()
    raw["train"] = [
        {"ic": [2.0, 0.0], "t_span": [0.0, 0.59], "num_samples": 60},
        {"ic": [-1.0, 2.0], "t_span": [0.0, 1.19], "num_samples": 120},
        {"ic": [0.5, -1.5], "t_span": [0.0, 0.59], "num_samples": 60},
        {"ic": [1.5, 1.0], "t_span": [3.0, 3.59], "num_samples": 60},
    ]
    raw["test"] = [
        {"ic": [0.0, 2.0], "t_span": [0.0, 0.59], "num_samples": 60},
        {"ic": [-0.5, 0.5], "t_span": [0.0, 0.99], "num_samples": 100},
        {"ic": [1.0, -1.0], "t_span": [0.0, 1.19], "num_samples": 120},
    ]
    del raw["basin"]
    config_path = write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
    system = make_system("lho")
    for role in ("train", "test"):
        for index, entry in enumerate(raw[role]):
            alone = integrate(system, entry["ic"], entry["t_span"], entry["num_samples"])
            save_trajectory_csv(tmp_path / "alone.csv", alone)
            written = (out / f"{role}_{index:02d}_clean.csv").read_bytes()
            assert written == (tmp_path / "alone.csv").read_bytes(), (role, index)


@pytest.fixture(scope="module")
def model_and_basin_config(tmp_path_factory):
    """A saved model's bytes, and a config whose basin scan is tiny."""
    work = tmp_path_factory.mktemp("fuzz")
    raw = base_config()
    assert main(["train", "--config", str(write_config(work, raw)), "--out", str(work)]) == EXIT_OK
    raw["basin"].update(resolution=2, steps=20)
    return (work / "model.txt").read_bytes(), write_config(work, raw, name="basin.json"), work


# Bytes that keep a model file parseable more often than a random byte does.
_MODEL_BYTES = st.sampled_from(list(b"0123456789.-+eE =\n")) | st.integers(0, 255)


def _edited(original, edits):
    data = bytearray(original)
    for at, byte in edits:
        data[at] = byte
    return bytes(data)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_truncated_or_mutated_model_files_load_or_fail_by_name(model_and_basin_config, data):
    original, config_path, work = model_and_basin_config
    positions = st.integers(0, len(original) - 1)
    truncated = positions.map(lambda n: original[:n])
    mutated = st.lists(st.tuples(positions, _MODEL_BYTES), min_size=1, max_size=4).map(
        lambda edits: _edited(original, edits)
    )
    path = work / "damaged.txt"
    path.write_bytes(data.draw(truncated | mutated))
    try:
        assert isinstance(load_model(path), LearnedOperator)
    except ValueError:
        pass
    argv = ["basin", "--config", str(config_path), "--out", str(work / "out"),
            "--model", str(path)]
    assert main(argv) in (EXIT_OK, EXIT_CONFIG, EXIT_PIPELINE)


def tiny_config():
    """A valid config small enough to run end to end in a few ms."""
    return {
        "system": {"ident": "lho"},
        "model": {"delays": 2, "degree": 2},
        "train": [
            {"ic": [1.0, -0.5], "t_span": [0.0, 1.9], "num_samples": 20,
             "noise": {"sigma_pct": 1.0, "seed": 4}},
        ],
        "test": [{"ic": [-0.5, 1.0], "t_span": [0.0, 1.9], "num_samples": 20}],
        "basin": {"window": [[-1.0, 1.0], [-1.0, 1.0]], "resolution": 2, "steps": 10,
                  "tol": 0.1, "fixed": {}},
        "integrator": {"rel_tol": 1e-6, "abs_tol": 1e-9},
        "global_seed": 2,
    }


def _leaf_paths(node, path=()):
    """The path to every scalar or empty container in a JSON value."""
    children = list(node.items() if isinstance(node, dict)
                    else enumerate(node) if isinstance(node, list) else ())
    if not children:
        yield path
    for key, child in children:
        yield from _leaf_paths(child, path + (key,))


# Size fields stay small, so an example runs in milliseconds.
_INT_CAPS = {"resolution": 4, "steps": 20, "num_samples": 50}


def _values_by_type(cap):
    """A strategy for JSON values of each type, integers in -2..cap."""
    ints = st.integers(-2, cap)
    return {
        type(None): st.none(),
        bool: st.booleans(),
        int: ints,
        float: st.floats(),
        str: st.sampled_from(SYSTEM_IDS) | st.text(max_size=4),
        list: st.lists(ints | st.floats(), max_size=3),
        dict: st.dictionaries(st.sampled_from("012") | st.text(max_size=3), ints | st.floats(),
                              max_size=2),
    }


@st.composite
def mutated_configs(draw):
    """``tiny_config`` with one leaf replaced by a value of its type,
    deleted, or replaced by a value of another type."""
    raw = tiny_config()
    path = draw(st.sampled_from(list(_leaf_paths(raw))))
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    leaf = parent[path[-1]]
    name = next((key for key in reversed(path) if isinstance(key, str)), None)
    values = _values_by_type(_INT_CAPS.get(name, 8))
    how = draw(st.sampled_from(["replace", "delete", "retype"]))
    if how == "delete":
        del parent[path[-1]]
    elif how == "replace":
        parent[path[-1]] = draw(values[type(leaf)])
    else:
        parent[path[-1]] = draw(st.one_of(*(v for t, v in values.items() if t is not type(leaf))))
    return raw


@settings(max_examples=40, deadline=None)
@given(raw=mutated_configs(),
       command=st.sampled_from(["simulate", "train", "predict", "evaluate", "basin", "run"]))
def test_main_on_a_mutated_config_exits_by_code(tmp_path_factory, raw, command):
    # Any one-leaf edit of a valid config ends in a named exit code, never
    # a traceback; pytest turns numpy's RuntimeWarnings into errors here.
    work = tmp_path_factory.mktemp("mutated")
    config_path = work / "config.json"
    config_path.write_text(json.dumps(raw))
    assert main([command, "--config", str(config_path), "--out", str(work / "out")]) in (
        EXIT_OK, EXIT_CONFIG, EXIT_PIPELINE)
