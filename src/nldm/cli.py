"""Command-line pipeline: simulate, train, predict, evaluate, basin, run.

Each command is a row of ``_STAGES``, the stages it runs out of one
pipeline (series files, fit, test forecasts, basin grids), and
``_Pipeline.execute`` runs any row the same way, forking once where the
stages leave work both with and without an operator.

Exit codes: 0 on success, 2 for configuration problems, 3 for numerical
failures inside the pipeline and for arrays too large to allocate.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import pickle
import platform
import sys
import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .basin import classify_series, ground_truth_grid, grid_agreement, operator_grid
from .config import (
    BasinSpec,
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    derived_seed,
)
from .core import FeatureConfig, IntegrationError, Trajectory, UndefinedScoreError, _dt_differs
from .identify import _score, _solve
from .io import (
    load_model,
    save_basin_csv,
    save_model,
    save_trajectory_csv,
    write_json,
)
from .metrics import rrmse
from .odes import _integrate_series, add_noise, make_system
from .predict import _forecast_batch, _starts

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PIPELINE = 3


@dataclass
class SeriesData:
    """One simulated series: clean reference, optional noisy copy."""

    clean: Trajectory
    noisy: Trajectory | None
    seed: int | None

    @property
    def working(self) -> Trajectory:
        return self.noisy if self.noisy is not None else self.clean


def _simulate(config: ExperimentConfig, system, global_seed: int):
    """The train and test series of ``system``, as two lists of SeriesData."""
    entries = [
        (role, index, entry)
        for role, specs in (("train", config.train), ("test", config.test))
        for index, entry in enumerate(specs)
    ]
    # Series that share a span and a length are integrated in one batch,
    # train and test alike.
    batches: dict[tuple, list[int]] = {}
    for key, (_, _, entry) in enumerate(entries):
        batches.setdefault((entry.t_span, entry.num_samples), []).append(key)
    cleans = {}
    for (t_span, num_samples), keys in batches.items():
        ics = [entries[key][2].ic for key in keys]
        series = _integrate_series(system, ics, t_span, num_samples, config.integrator)
        cleans.update(zip(keys, series))
    out = {"train": [], "test": []}
    for key, (role, index, entry) in enumerate(entries):
        clean = cleans[key]
        noisy = None
        seed = None
        if entry.noise is not None:
            seed = (
                entry.noise.seed
                if entry.noise.seed is not None
                else derived_seed(global_seed, role, index)
            )
            noisy = add_noise(clean, entry.noise.sigma_pct, seed)
        out[role].append(SeriesData(clean=clean, noisy=noisy, seed=seed))
    return out["train"], out["test"]


def _score_payload(prediction, reference, skip, label):
    """One ``scores.json`` test entry; a score that is undefined for the
    reference (a constant state) is written as null with the reason."""
    try:
        score = rrmse(prediction.trajectory, reference, skip)
        per_state, mean, undefined = score.per_state_rrmse, score.mean_rrmse, {}
    except UndefinedScoreError as exc:
        per_state, mean, undefined = None, None, {"undefined": str(exc)}
    return {
        "per_state_rrmse": per_state,
        "mean_rrmse": mean,
        "compared_points": reference.num_samples - skip,
        "diverged": prediction.diverged_at is not None,
        "diverged_at": prediction.diverged_at,
        "rrmse_std_window": "compared samples only",
        **undefined,
        "reference_label": label(reference),
        "forecast_label": label(prediction.trajectory),
    }


def _pickled_error(exc: BaseException) -> bytes:
    """``(False, exc)`` pickled; an exception that does not survive the
    round trip is sent as a RuntimeError naming its type and message."""
    try:
        data = pickle.dumps((False, exc))
        pickle.loads(data)
        return data
    except Exception:
        return pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))


def _inline(work):
    """``work()`` run here, in the shape of ``_start_child``'s ``join``."""
    result = work()
    return lambda: result


def _start_child(work):
    """Run ``work()`` in a forked child while the caller goes on.

    Returns ``join``, which waits for the child and returns ``work()``'s
    result or raises its exception again, with the same type and message.
    ``join`` reaps the child whatever the outcome; call it once.  A child
    that ends without a result makes ``join`` raise a RuntimeError.
    Where the system refuses the fork or has none, ``work`` runs here
    before this returns.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except (OSError, AttributeError):  # refused, or a platform without fork
        os.close(read_end)
        os.close(write_end)
        return _inline(work)
    if pid == 0:
        # The child never returns into the caller: whatever happens, it
        # leaves through os._exit, which runs no exit handlers and
        # flushes none of the parent's buffers.
        code = 1
        try:
            os.close(read_end)
            try:
                data = pickle.dumps((True, work()))
            except BaseException as exc:  # handed to the parent, which raises it
                data = _pickled_error(exc)
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)

    def join():
        # Read to the end before waiting: a result larger than the pipe's
        # buffer holds the child until it is read.
        with os.fdopen(read_end, "rb") as pipe:
            data = pipe.read()
        _, status = os.waitpid(pid, 0)
        code = os.waitstatus_to_exitcode(status)
        if code != 0:  # the child exits 0 only once its result is written
            raise RuntimeError(f"child process ended with exit code {code} and no result")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    return join


# The stages of each command.  Every command runs its stages in this
# order: the series files, the fit, the test forecasts (scored under
# "evaluate") and the basin grids.
_STAGES = {
    "simulate": ("series",),
    "train": ("fit",),
    "predict": ("predict",),
    "evaluate": ("evaluate",),
    "basin": ("grids",),
    "run": ("series", "fit", "evaluate", "grids"),
}


class _Pipeline:
    """One command's stages.  Each stage writes its artifacts into
    ``out`` and records its wall time in ``timings``; the manifest lists
    the artifacts in the order of the stages.
    """

    def __init__(self, config, system, out_dir: Path, global_seed: int, operator=None):
        self.config = config
        self.system = system
        self.out = out_dir
        self.global_seed = global_seed
        self.operator = operator
        self.started = time.perf_counter()
        self.timings: dict[str, float] = {}
        self.artifacts: list[str] = []
        self.train_data = None
        self.test_data = None

    def _timed(self, stage: str, fn):
        """``fn()``, its wall time added to the stage's."""
        started = time.perf_counter()
        result = fn()
        self.timings[stage] = self.timings.get(stage, 0.0) + time.perf_counter() - started
        return result

    def _series_files(self):
        """(file name, trajectory) for every simulated series."""
        files = []
        for role, series in (("train", self.train_data), ("test", self.test_data)):
            for index, data in enumerate(series):
                files.append((f"{role}_{index:02d}_clean.csv", data.clean))
                if data.noisy is not None:
                    files.append((f"{role}_{index:02d}_noisy.csv", data.noisy))
        return files

    def _save_training(self, result):
        self.operator = result.operator
        save_model(self.out / "model.txt", self.operator)
        self.artifacts.append("model.txt")
        summary = self.operator.training_summary
        write_json(
            self.out / "train_metrics.json",
            {
                "num_trajectories": summary.num_trajectories,
                "total_columns": summary.total_columns,
                "residual_frobenius": summary.residual_frobenius,
                "effective_rank": summary.effective_rank,
                "underdetermined": summary.underdetermined,
                "origin_multiplier": summary.origin_multiplier,
                "per_trajectory_rrmse": summary.per_trajectory_rrmse,
                "mean_rrmse": result.mean_rrmse,
                "rrmse_std_window": "compared samples only",
            },
        )
        self.artifacts.append("train_metrics.json")

    def _save_forecasts(self, predictions, stage: str):
        """Write the test series' forecasts and, to evaluate, their scores."""
        tol = (self.config.basin or BasinSpec).tol  # the section's, else its default
        delays = self.config.model.delays
        evaluate = stage == "evaluate"
        scores = []

        def label(trajectory):
            return classify_series(trajectory.states, self.system.attractors, tol)

        def write():
            for index, (data, prediction) in enumerate(zip(self.test_data, predictions)):
                name = f"predicted_test_{index:02d}.csv"
                save_trajectory_csv(self.out / name, prediction.trajectory)
                self.artifacts.append(name)
                if evaluate:
                    scores.append(_score_payload(prediction, data.clean, delays, label))

        self._timed(stage, write)
        if evaluate:
            write_json(self.out / "scores.json", {"test": scores})
            self.artifacts.append("scores.json")

    def _forecast(self, fit, stage):
        """One forecast batch over the training seeds, whose rows score
        ``fit``, and then, for a forecast ``stage``, the test seeds."""
        trained = fit.trajectories if fit is not None else []
        tests = [data.working for data in self.test_data] if stage is not None else []
        if not trained and not tests:
            return
        operator = fit.operator if fit is not None else self.operator
        starts = _starts(trained + tests, self.config.model.delays)
        predictions = self._timed("train" if fit is not None else stage,
                                  lambda: _forecast_batch(operator, starts))
        if fit is not None:
            self._save_training(self._timed("train",
                                            lambda: _score(fit, predictions[:len(trained)])))
        if tests:
            self._save_forecasts(predictions[len(trained):], stage)

    def _scan(self):
        """The one scan both grids take."""
        spec = self.config.basin
        return dict(window=spec.window, resolution=spec.resolution, steps=spec.steps,
                    tol=spec.tol, fixed_coords=dict(spec.fixed) or None)

    def _truth_grid(self):
        """Scan and write the truth grid, which steps the series' dt."""
        dt = self.config.train[0].dt
        truth = self._timed("basin_truth",
                            lambda: ground_truth_grid(self.system, dt=dt, **self._scan()))
        save_basin_csv(self.out / "basin_truth.csv", truth)
        return truth

    def _operator_grid(self):
        predicted = self._timed(
            "basin_operator", lambda: operator_grid(self.operator, self.system, **self._scan())
        )
        save_basin_csv(self.out / "basin_operator.csv", predicted)
        return predicted

    def _list_grids(self, truth, predicted):
        """List the written grids and, given both, write their agreement."""
        self.artifacts.append("basin_truth.csv")
        if predicted is None:
            return
        self.artifacts.append("basin_operator.csv")
        agreement = grid_agreement(truth, predicted)
        write_json(
            self.out / "agreement.json",
            {
                "fraction_agree": agreement.fraction_agree,
                "compared_cells": agreement.compared_cells,
                "confusion": agreement.confusion,
            },
        )
        self.artifacts.append("agreement.json")

    def execute(self, stages):
        """Run ``stages``, one value of ``_STAGES``.

        Every stage but the grids reads the simulated series, and a
        command that fits solves first (``identify._solve``).  The work
        then falls into two halves.  One needs no operator: writing the
        series files and scanning and writing the truth grid.  The other
        does: one forecast batch over the training seeds and then the test
        seeds (``_forecast_batch``), whose rows score and write the fit and
        are the test forecasts, then the operator grid.  When both halves
        have work (``run``, ``basin --model``), the first runs in a forked
        child (``_start_child``) while this process runs the second;
        otherwise the one with work runs here.  The ``train`` stage covers
        the solve, the batch and the training scores; a command that fits
        nothing times the batch under its forecast stage.  Stage times
        overlap, so ``timings["total"]`` holds the pipeline's own wall
        time.
        """
        if stages != ("grids",):
            self.train_data, self.test_data = self._timed(
                "simulate", lambda: _simulate(self.config, self.system, self.global_seed))
        series = self._series_files() if "series" in stages else []
        self.artifacts.extend(name for name, _ in series)
        fits = "fit" in stages
        fit = None
        if fits:
            model, train = self.config.model, self.train_data
            shape = FeatureConfig(self.system.num_states, model.delays, model.degree)
            fit = self._timed("train", lambda: _solve([data.working for data in train], shape,
                                                      [data.clean for data in train]))
        forecast = next((stage for stage in ("predict", "evaluate") if stage in stages), None)
        grids = "grids" in stages and self.config.basin is not None
        scan_operator = grids and (fits or self.operator is not None)

        def operator_free():
            for name, trajectory in series:
                save_trajectory_csv(self.out / name, trajectory)
            if grids:
                return self._truth_grid(), self.timings["basin_truth"]
            return None

        both_halves = bool(series or grids) and (fits or forecast is not None or scan_operator)
        join = (_start_child if both_halves else _inline)(operator_free)
        try:
            self._forecast(fit, forecast)
            predicted = self._operator_grid() if scan_operator else None
        except BaseException:
            # This process's error is the one reported; the child is
            # still reaped before the command ends.
            with contextlib.suppress(BaseException):
                join()
            raise
        outcome = join()
        if grids:
            truth, self.timings["basin_truth"] = outcome
            self._list_grids(truth, predicted)

    def manifest(self, command: str):
        payload = {
            "command": command,
            "config": config_to_dict(self.config),
            "global_seed": self.global_seed,
            "resolved_noise_seeds": {
                "train": [d.seed for d in self.train_data or []],
                "test": [d.seed for d in self.test_data or []],
            },
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "nldm": __version__,
            },
            "timings_seconds": {**self.timings, "total": time.perf_counter() - self.started},
            "artifacts": self.artifacts,
        }
        write_json(self.out / "manifest.json", payload)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nldm",
        description="Learn one-step operators from simulated trajectories, "
        "forecast, score, and map basins of attraction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("simulate", "integrate the configured series and write CSVs"),
        ("train", "fit an operator to the training series"),
        ("predict", "forecast the test series with a trained operator"),
        ("evaluate", "forecast and score the test series"),
        ("basin", "map basins of attraction"),
        ("run", "simulate, train, evaluate, and map basins in one pass"),
    ):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", required=True, help="experiment config (JSON)")
        cmd.add_argument("--model", help="previously saved operator file")
        cmd.add_argument("--out", help="output directory (overrides config)")
        cmd.add_argument("--seed", type=int, help="override the global seed")
        cmd.add_argument(
            "--threads",
            type=int,
            help="accepted and ignored; run and basin --model overlap their two halves "
            "in one forked child",
        )
    return parser


def _check_model_fits(operator, config: ExperimentConfig, system, path) -> None:
    """A saved model must have the system's state count and the config's
    model shape and series dt."""
    if operator.config.num_states != system.num_states:
        raise ConfigError(
            f"model {path} has {operator.config.num_states} states, system "
            f"{config.system.ident!r} has {system.num_states}"
        )
    shape, model = operator.config, config.model
    if (shape.delays, shape.degree) != (model.delays, model.degree):
        raise ConfigError(f"model {path} has delays={shape.delays} degree={shape.degree}, the "
                          f"config's model has delays={model.delays} degree={model.degree}")
    dt = config.train[0].dt
    if _dt_differs(operator.dt, dt):
        raise ConfigError(f"model {path} has dt={operator.dt}, the config's series have dt={dt}")


def _print_warning(message, category, filename, lineno, file=None, line=None):
    """Show a warning (an underdetermined fit) as one line on stderr, as
    the errors are, without its source location."""
    print(f"nldm: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    stages = _STAGES[args.command]
    # A command that fits nothing takes its operator from --model, which
    # its forecasts need and its grids use when given; it also needs the
    # config section its stage reads.
    fits = "fit" in stages
    forecasts = not fits and ("predict" in stages or "evaluate" in stages)
    scans = not fits and "grids" in stages
    try:
        raw = json.loads(Path(args.config).read_text())
        config = config_from_dict(raw)
        # An override obeys the config's own global_seed rule.
        seeded = config if args.seed is None else replace(config, global_seed=args.seed)
        global_seed = seeded.global_seed
        out_dir = Path(args.out if args.out else config.output_dir)
        system = make_system(config.system.ident, **config.system.params)
        if forecasts and not config.test:
            raise ConfigError(f"{args.command} needs at least one test series")
        if scans and config.basin is None:
            raise ConfigError("config has no basin section")
        operator = None
        if args.model:
            if not (forecasts or scans):
                raise ConfigError(f"--model is not read by {args.command}")
            operator = load_model(args.model)
            _check_model_fits(operator, config, system, args.model)
        elif forecasts:
            raise ConfigError(f"--model is required for {args.command}")
        out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, json.JSONDecodeError, RecursionError, ConfigError, ValueError) as exc:
        print(f"nldm: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    pipeline = _Pipeline(config, system, out_dir, global_seed, operator)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
            pipeline.execute(stages)
            pipeline.manifest(args.command)
    except (ConfigError, OSError) as exc:
        print(f"nldm: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrationError, ValueError, RuntimeError, np.linalg.LinAlgError,
            MemoryError) as exc:
        print(f"nldm: pipeline error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    return EXIT_OK


def entry() -> None:
    # The import heap lives until exit, where the interpreter's final
    # collection would walk all of it; frozen, it is never walked, and
    # the forked child (``_start_child``) leaves its pages unwritten.  Only
    # the command's own process freezes: ``main`` is also called
    # in-process, by tests and library users.
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
