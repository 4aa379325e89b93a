"""End-to-end command pipeline: artifacts, exit codes, reproducibility."""

import gc
import json
import os
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nldm import (
    SYSTEM_IDS,
    IntegratorSettings,
    LearnedOperator,
    classify_series,
    integrate,
    make_system,
)
from nldm import basin, cli
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
    # run forks the truth grid as it starts and, after the solve, a worker
    # that claims the operator grid, the forecasts and the series files
    # with it; it scores the fit and forecasts the test series in one
    # batch.  Its files are those of simulate, train, evaluate
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


def test_stage_time_covers_its_runs_and_not_the_waits_between_them():
    # Runs in two processes overlap, and a child's list repeats the runs
    # it inherited.
    assert cli._covered([(0.0, 2.0), (5.0, 6.0), (1.0, 3.0), (0.0, 2.0), (5.5, 5.75)]) == 4.0
    assert cli._covered([]) == 0.0


def forking_argv(tmp_path, command, raw=None):
    """The arguments, bar ``--out``, of a command that forks: ``run``, or
    ``basin --model`` with the model ``train`` saves."""
    config = ["--config", str(write_config(tmp_path, raw))]
    if command == "run":
        return ["run", *config]
    fit = tmp_path / "fit"
    assert main(["train", *config, "--out", str(fit)]) == EXIT_OK
    return ["basin", *config, "--model", str(fit / "model.txt")]


FORKING = ["run", "basin --model"]


def assert_same_files(first, second):
    """The two output directories hold the same files, byte for byte,
    the manifest's timings aside."""
    names = sorted(path.name for path in first.iterdir())
    assert names == sorted(path.name for path in second.iterdir())
    for name in names:
        if name != "manifest.json":
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
    manifests = [json.loads((out / "manifest.json").read_text()) for out in (first, second)]
    for manifest in manifests:
        del manifest["timings_seconds"]
    assert manifests[0] == manifests[1]


@pytest.mark.parametrize("command", FORKING)
def test_run_where_fork_is_refused_writes_the_same_files(tmp_path, monkeypatch, command):
    # Once with the one-chunk operator grid and once in 4 chunks of 2-3
    # cells, which a forked worker would claim alongside the command.
    argv = forking_argv(tmp_path, command)
    fork = os.fork

    def refuse():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    for chunk_cells in (cli._CHUNK_CELLS, 2):
        monkeypatch.setattr(cli, "_CHUNK_CELLS", chunk_cells)
        forked, inline = tmp_path / f"forked{chunk_cells}", tmp_path / f"inline{chunk_cells}"
        monkeypatch.setattr(os, "fork", fork)
        assert main([*argv, "--out", str(forked)]) == EXIT_OK
        monkeypatch.setattr(os, "fork", refuse)
        assert main([*argv, "--out", str(inline)]) == EXIT_OK
        assert_no_child_left()
        assert_same_files(forked, inline)
    assert_same_files(tmp_path / f"forked{cli._CHUNK_CELLS}", tmp_path / "forked2")


@pytest.mark.parametrize("command", FORKING)
def test_operator_grid_chunks_claimed_by_both_processes_write_the_one_chunk_files(
        tmp_path, monkeypatch, command):
    # A 5² grid in chunks of at least 6 cells is 4 chunks of 6, 6, 6 and 7
    # cells.  Each process waits in its first chunk until the other has
    # begun one, so both label chunks whatever the claim order (basin
    # --model queues the truth grid's chunks first).  With at most 3 claim
    # tokens, each token names a run of the queue's items.
    raw = base_config()
    raw["basin"]["resolution"] = 5
    argv = forking_argv(tmp_path, command, raw)
    whole, chunked = tmp_path / "whole", tmp_path / "chunked"
    assert main([*argv, "--out", str(whole)]) == EXIT_OK
    claims = tmp_path / "claims"
    claims.mkdir()

    def recording_scan(*args, **kwargs):
        scan = basin._operator_scan(*args, **kwargs)
        deadline = time.monotonic() + 10.0

        def blocks(points):
            (claims / f"{os.getpid()}-{len(list(claims.iterdir()))}").write_text(str(len(points)))
            _await_the_other(claims, deadline)
            return scan_blocks(points)

        scan_blocks, scan.blocks = scan.blocks, blocks
        return scan

    monkeypatch.setattr(cli, "_CHUNK_CELLS", 6)
    monkeypatch.setattr(cli, "_MAX_CLAIMS", 3)
    monkeypatch.setattr(cli, "_operator_scan", recording_scan)
    assert main([*argv, "--out", str(chunked)]) == EXIT_OK
    assert_no_child_left()
    sizes = sorted(int(path.read_text()) for path in claims.iterdir())
    assert sizes == [6, 6, 6, 7]
    assert len({path.name.split("-")[0] for path in claims.iterdir()}) == 2
    assert_same_files(whole, chunked)


def test_two_processes_claim_each_token_of_a_full_queue_once():
    # The most tokens a queue holds go into the pipe in one write; this
    # process and a forked one then claim them at once.
    read_end = cli._claims(cli._MAX_CLAIMS)
    try:
        child = cli._start_child(lambda: list(cli._claim(read_end)))
        mine = list(cli._claim(read_end))
        theirs = child.join()
        child.reap()
    finally:
        os.close(read_end)
    assert_no_child_left()
    assert sorted(mine + theirs) == list(range(cli._MAX_CLAIMS))


def _await_the_other(directory, deadline):
    """Wait until ``directory`` holds a file of another process, named by
    its pid and a dash, or ``deadline`` (time.monotonic) has passed."""
    mine = f"{os.getpid()}-"
    while time.monotonic() < deadline and all(
            path.name.startswith(mine) for path in directory.iterdir()):
        time.sleep(0.01)


_TEST_PID = os.getpid()


def _in_the_worker():
    return os.getpid() != _TEST_PID


def _scan_with(make_scan, begin):
    """``make_scan`` whose scans call ``begin()`` as each chunk begins."""
    def make(*args, **kwargs):
        scan = make_scan(*args, **kwargs)
        scan_blocks = scan.blocks

        def blocks(points):
            begin()
            return scan_blocks(points)

        scan.blocks = blocks
        return scan

    return make


# The directory in which each process that begins a chunk of an
# ``_after_the_other`` scan leaves a file; each test sets its own.
_BEGUN = None


def _after_the_other(action):
    """A chunk's start that, once another process has begun one too, runs
    ``action()``.  Given two or more chunks, both processes begin one,
    whichever process claims which item."""
    def begin(*args, **kwargs):
        (_BEGUN / f"{os.getpid()}-begun").touch()
        _await_the_other(_BEGUN, time.monotonic() + 10.0)
        action()

    return begin


def _in_the_worker_only(action):
    def act():
        if _in_the_worker():
            action()

    return act


def _truth_failing_in_the_worker(action):
    return _scan_with(basin._truth_scan, _after_the_other(_in_the_worker_only(action)))


_simulate = cli._simulate
# The pids that simulated, as the reading process holds the list: a
# forked worker sees it as it was at the fork.
_SIMULATED = []


def _noted_simulate(*args):
    _SIMULATED.append(os.getpid())
    return _simulate(*args)


class _Unpicklable(ValueError):
    """An error that pickles but does not unpickle: its constructor takes
    two arguments and the error carries one."""

    def __init__(self, cell, reason):
        super().__init__(f"cell {cell}: {reason}")


def _raises(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


# Longer than any failing command may take.
_SLOW_SECONDS = 30.0


def _fails_here_and_is_slow_in_the_worker():
    if not _in_the_worker():
        raise ValueError("operator cell 4 failed")
    time.sleep(_SLOW_SECONDS)


def _dies():
    os._exit(7)


def _needs_the_series():
    if not _SIMULATED:
        raise IntegrationError("truth grid started before the series")


_FORK_FAILURES = {
    "child-error": ("_truth_scan",
                    _truth_failing_in_the_worker(_raises(IntegrationError("truth cell 4 failed"))),
                    "pipeline error: truth cell 4 failed"),
    "child-unpicklable-error": ("_truth_scan",
                                _truth_failing_in_the_worker(_raises(_Unpicklable(4, "no label"))),
                                "pipeline error: _Unpicklable: cell 4: no label"),
    "child-dies": ("_truth_scan", _truth_failing_in_the_worker(_dies),
                   "ended with exit code 7 and no result"),
    "parent-error": ("_operator_scan", _scan_with(
        basin._operator_scan, _after_the_other(_fails_here_and_is_slow_in_the_worker)),
                     "pipeline error: operator cell 4 failed"),
    "simulate-error": ("_simulate",
                       _after_the_other(_raises(IntegrationError("series step too small"))),
                       "pipeline error: series step too small"),
    "parent-forecast-error": ("_forecast_batch",
                              _raises(ValueError("seeds contain non-finite entries")),
                              "pipeline error: seeds contain non-finite entries"),
    "worker-chunk-error": ("_operator_scan", _scan_with(basin._operator_scan, _after_the_other(
        _in_the_worker_only(_raises(ValueError("operator chunk failed in the worker"))))),
                           "pipeline error: operator chunk failed in the worker"),
    "early-truth-child-error": ("_truth_scan",
                                _scan_with(basin._truth_scan, _after_the_other(_needs_the_series)),
                                "pipeline error: truth grid started before the series"),
}
# Further settings of some failures: truth chunks that, in the worker,
# outlast the failing simulate, and simulations that leave a note in the
# process's memory.
_FORK_FAILURE_SETTINGS = {
    "simulate-error": {"_truth_scan": _scan_with(basin._truth_scan, _after_the_other(
        _in_the_worker_only(partial(time.sleep, _SLOW_SECONDS))))},
    "early-truth-child-error": {"_simulate": _noted_simulate},
}


@pytest.mark.parametrize("command, failure", [
    (command, failure) for command in FORKING for failure in _FORK_FAILURES
    # basin --model simulates and forecasts nothing.
    if command == "run" or failure not in ("simulate-error", "parent-forecast-error")
])
def test_run_failing_on_either_side_of_the_fork_exits_3_and_leaves_no_child(
        tmp_path, capsys, monkeypatch, command, failure):
    # Each failure holds whichever process claims which item: a failing
    # chunk or simulate strikes only once the other process has begun a
    # chunk, so a command that fails while its worker is still asleep in
    # a chunk must kill it.  The early-truth failure strikes a truth chunk
    # in a process that has not simulated, which a worker forked before
    # the simulate is, unless it took the simulate itself.
    argv = forking_argv(tmp_path, command)
    monkeypatch.setattr(cli, "_CHUNK_CELLS", 2)  # each grid in 4 chunks of 2-3 cells
    name, replacement, message = _FORK_FAILURES[failure]
    monkeypatch.setattr(cli, name, replacement)
    for setting, value in _FORK_FAILURE_SETTINGS.get(failure, {}).items():
        monkeypatch.setattr(cli, setting, value)
    _SIMULATED.clear()
    monkeypatch.setitem(globals(), "_BEGUN", tmp_path / "begun")
    _BEGUN.mkdir()
    out = tmp_path / "out"
    started = time.monotonic()
    assert main([*argv, "--out", str(out)]) == EXIT_PIPELINE
    # A child still at work when the command fails is killed, not awaited.
    assert time.monotonic() - started < _SLOW_SECONDS / 2
    assert_no_child_left()
    assert message in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command", FORKING)
def test_a_queue_forks_its_worker_only_once_the_last_worker_has_sent_its_result(
        tmp_path, monkeypatch, command):
    # run's first queue is the simulate and the truth grid's chunks; its
    # worker has sent its result before the solve, and the second worker
    # is forked as the solve returns, before any item of the second queue
    # (the operator grid's chunks, the forecast batch and the series
    # files) runs.  basin --model has one queue, both grids' chunks.
    from nldm import identify

    argv = forking_argv(tmp_path, command)
    log = tmp_path / "events"

    def note(event):
        with open(log, "a") as file:  # one append per event, from either process
            file.write(f"{event}\n")

    def noting(event, fn, after=False):
        def call(*args, **kwargs):
            if not after:
                note(event)
            result = fn(*args, **kwargs)
            if after:
                note(event)
            return result

        return call

    monkeypatch.setattr(cli, "_CHUNK_CELLS", 2)  # 4 chunks of each grid
    monkeypatch.setattr(os, "fork", noting("fork", os.fork))
    monkeypatch.setattr(cli._Child, "join", noting("join", cli._Child.join, after=True))
    monkeypatch.setattr(identify, "_solve", noting("solved", identify._solve, after=True))
    monkeypatch.setattr(cli, "_simulate", noting("simulate", cli._simulate))
    monkeypatch.setattr(cli, "_forecast_batch", noting("forecast", cli._forecast_batch))
    monkeypatch.setattr(cli, "save_trajectory_csv", noting("csv", cli.save_trajectory_csv))
    for stage in ("truth", "operator"):
        scan = getattr(basin, f"_{stage}_scan")
        monkeypatch.setattr(cli, f"_{stage}_scan", _scan_with(scan, partial(note, stage)))
    assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert_no_child_left()
    events = log.read_text().split()
    assert (events[0], events[-1]) == ("fork", "join")
    joined = events.index("join")
    if command == "run":
        assert sorted(events[1:joined]) == ["simulate"] + ["truth"] * 4
        assert events[joined + 1:joined + 3] == ["solved", "fork"]
        second = events[joined + 3:-1]
        assert sorted(set(second)) == ["csv", "forecast", "operator"]
        assert second.count("operator") == 4
    else:
        assert sorted(events[1:-1]) == ["operator"] * 4 + ["truth"] * 4


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


def test_command_modules_compile_no_source_at_import():
    # Every command pays its imports at start-up; a class whose methods
    # are compiled from generated source, as a stdlib dataclass's are,
    # would add an exec of a string per method.  numpy is loaded first:
    # only this package's share counts.  Python 3.13's dataclass runs one
    # builder per class even where it makes no method, a source that
    # returns ``()``; it is not counted.
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import builtins, importlib, numpy\n"
            "sources, real_exec = [], builtins.exec\n"
            "def counting_exec(source, *args, **kwargs):\n"
            "    if isinstance(source, str) and not source.endswith('return ()'):\n"
            "        sources.append(source)\n"
            "    return real_exec(source, *args, **kwargs)\n"
            "builtins.exec = counting_exec\n"
            "for name in ('nldm.cli', 'nldm.identify', 'nldm.lstsq', 'nldm.metrics'):\n"
            "    importlib.import_module(name)\n"
            "    print(name, len(sources))\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, check=True, timeout=60)
    assert result.stdout.split("\n") == [
        "nldm.cli 0", "nldm.identify 0", "nldm.lstsq 0", "nldm.metrics 0", ""]


COMMAND_HELP = {
    "simulate": "integrate the configured series and write CSVs",
    "train": "fit an operator to the training series",
    "predict": "forecast the test series with a trained operator",
    "evaluate": "forecast and score the test series",
    "basin": "map basins of attraction",
    "run": "simulate, train, evaluate, and map basins in one pass",
}


@pytest.mark.parametrize("command", COMMAND_HELP)
def test_every_command_parses_the_shared_options(command):
    args = cli._build_parser().parse_args(
        [command, "--config", "c.json", "--model", "m.txt", "--out", "o", "--seed", "7",
         "--threads", "2"])
    assert vars(args) == dict(command=command, config="c.json", model="m.txt", out="o",
                              seed=7, threads=2)
    args = cli._build_parser().parse_args([command, "--config", "c.json"])
    assert vars(args) == dict(command=command, config="c.json", model=None, out=None,
                              seed=None, threads=None)


@pytest.mark.parametrize("argv, error", [
    (["fit", "--config", "c.json"], "argument command: invalid choice: 'fit'"),
    (["run"], "the following arguments are required: --config"),
    (["run", "--config", "c.json", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
])
def test_usage_errors_exit_2_with_the_usage_line(argv, error, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: nldm [-h] --config CONFIG")
    assert f"nldm: error: {error}" in err


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
def test_help_names_every_command_with_its_one_line_help(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: nldm [-h]") and err == ""
    listed = [line.split(None, 1) for line in out.partition("\ncommands:\n")[2].splitlines()]
    assert listed == [[name, text] for name, text in COMMAND_HELP.items()]
    for option in ("--config", "--model", "--out", "--seed", "--threads"):
        assert f"  {option} " in out


def _package_env():
    # Buffered, as a console's pipes are, so that only a flush at exit
    # delivers what is left in a buffer.
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    return env


def test_commands_load_only_the_modules_their_stages_run(tmp_path):
    # Only a command that fits or scores imports the fit's, the solver's
    # and the scores' modules; run does, so the check is not vacuous.
    config_path = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["train", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
    unloaded = {"nldm.identify", "nldm.lstsq", "nldm.metrics"}
    code = ("import sys; from nldm import cli; code = cli.main(sys.argv[1:]); "
            "print(code, *sorted(m for m in sys.modules if m.startswith('nldm.')))")
    for command, loads in ((["basin", "--model", str(out / "model.txt")], False),
                           (["simulate"], False), (["run"], True)):
        argv = [*command, "--config", str(config_path), "--out", str(tmp_path / "cmd")]
        result = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                                text=True, env=_package_env(), check=True, timeout=120)
        code_printed, *loaded = result.stdout.split()
        assert code_printed == str(EXIT_OK)
        assert (unloaded <= set(loaded)) if loads else not (unloaded & set(loaded)), command


def _session_processes(sid):
    """The live processes (no zombies) of session ``sid``, from /proc."""
    live = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, _, _, session = stat.read_text().rsplit(")", 1)[1].split()[:4]
        except OSError:  # ended while read
            continue
        if int(session) == sid and state != "Z":
            live.append(stat.parent.name)
    return live


def _command(argv, closed=None):
    """Run ``python -m nldm.cli argv`` in a session of its own, with the
    ``closed`` stream's descriptor closed; (exit code, stdout, stderr),
    once no process of the session is left."""
    prefix = ["sh", "-c", f'exec "$@" {closed}>&-', "sh"] if closed else []
    proc = subprocess.Popen([*prefix, sys.executable, "-m", "nldm.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=_package_env(), start_new_session=True)
    stdout, stderr = proc.communicate(timeout=120)
    if Path("/proc/self/stat").exists():
        assert _session_processes(proc.pid) == []
    return proc.returncode, stdout, stderr


def _flat_config():
    """A config whose one training series never leaves the origin, so its
    fit fails: a pipeline error."""
    flat = base_config()
    flat["model"] = {"delays": 1, "degree": 1}
    flat["train"] = [{"ic": [0.0, 0.0], "t_span": [0.0, 0.59], "num_samples": 60}]
    del flat["test"], flat["basin"]
    return flat


def test_module_entry_exits_with_the_code_and_messages_of_main(tmp_path, capsys):
    # The command leaves through os._exit once main returns: its exit code
    # and its stderr lines are main's, and no process it forked is left.
    config_path = write_config(tmp_path)
    bad = write_config(tmp_path, {**base_config(), "extra": 1}, name="bad.json")
    few = base_config()
    few["model"] = {"delays": 2, "degree": 2}
    for entry in few["train"]:
        entry.update(t_span=[0.0, 0.05], num_samples=6)
    cases = [("run", config_path, EXIT_OK),
             ("run", bad, EXIT_CONFIG),
             ("run", write_config(tmp_path, _flat_config(), name="flat.json"), EXIT_PIPELINE),
             ("train", write_config(tmp_path, few, name="few.json"), EXIT_OK)]
    for command, path, code in cases:
        argv = [command, "--config", str(path), "--out", str(tmp_path / "main")]
        assert main(argv) == code
        expected = capsys.readouterr()
        argv[-1] = str(tmp_path / "entry")
        assert _command(argv) == (code, expected.out, expected.err)
    assert "nldm: warning: underdetermined fit" in expected.err
    for name in ("model.txt", "train_metrics.json"):
        assert (tmp_path / "main" / name).read_bytes() == (tmp_path / "entry" / name).read_bytes()


def test_module_entry_with_a_closed_stream_keeps_its_exit_code(tmp_path):
    config_path = write_config(tmp_path)
    bad = write_config(tmp_path, {**base_config(), "extra": 1}, name="bad.json")
    out = ["--out", str(tmp_path / "out")]
    for closed in (1, 2):
        for path, code in ((config_path, EXIT_OK), (bad, EXIT_CONFIG)):
            exit_code, stdout, stderr = _command(["run", "--config", str(path), *out], closed)
            assert exit_code == code
            assert "Traceback" not in stdout + stderr
    # The exit handlers registered before the entry run and what they
    # print arrives; a stream one of them closes changes nothing.
    for handler, printed in (("print, 'handler ran'", "handler ran\n"), ("sys.stdout.close", "")):
        script = (f"import atexit, sys; from nldm import cli; atexit.register({handler}); "
                  "sys.argv[1:] = ['run', '--config', *sys.argv[1:]]; cli.entry()")
        for path, code in ((config_path, EXIT_OK), (bad, EXIT_CONFIG)):
            result = subprocess.run([sys.executable, "-c", script, str(path), *out],
                                    capture_output=True, text=True, env=_package_env(),
                                    timeout=120)
            assert (result.returncode, result.stdout) == (code, printed)
            assert "Traceback" not in result.stderr


def test_module_entry_with_a_readerless_stderr_pipe_keeps_its_exit_code(tmp_path):
    # The error line goes into a pipe whose reader has closed it, which
    # fails (EPIPE): the line is lost, and the exit code is the command's.
    bad = write_config(tmp_path, {**base_config(), "extra": 1}, name="bad.json")
    flat = write_config(tmp_path, _flat_config(), name="flat.json")
    for path, code in ((bad, EXIT_CONFIG), (flat, EXIT_PIPELINE)):
        argv = ["run", "--config", str(path), "--out", str(tmp_path / "out")]
        proc = subprocess.Popen([sys.executable, "-m", "nldm.cli", *argv],
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                env=_package_env())
        proc.stderr.close()
        assert proc.wait(timeout=120) == code


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
        ("train", "t_span", [-1e308, 1e308]),  # width inf: once exit 3 after simulating
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
# A test series whose squares overflow, which its score once warned of.
@example(raw={**tiny_config(), "test": [{"ic": [3.17e154, 1.0], "t_span": [0.0, 1.9],
                                         "num_samples": 20}]}, command="run")
def test_main_on_a_mutated_config_exits_by_code(tmp_path_factory, raw, command):
    # Any one-leaf edit of a valid config ends in a named exit code, never
    # a traceback; pytest turns numpy's RuntimeWarnings into errors here.
    work = tmp_path_factory.mktemp("mutated")
    config_path = work / "config.json"
    config_path.write_text(json.dumps(raw))
    assert main([command, "--config", str(config_path), "--out", str(work / "out")]) in (
        EXIT_OK, EXIT_CONFIG, EXIT_PIPELINE)
