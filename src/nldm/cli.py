"""Command-line pipeline: simulate, train, predict, evaluate, basin, run.

Exit codes: 0 on success, 2 for configuration problems, 3 for numerical
failures inside the pipeline and for arrays too large to allocate.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pickle
import platform
import sys
import time
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
from .identify import train as fit_operator
from .io import (
    load_model,
    save_basin_csv,
    save_model,
    save_trajectory_csv,
    write_json,
)
from .metrics import rrmse
from .odes import _integrate_series, add_noise, make_system
from .predict import predict as run_prediction

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


def _simulate(config: ExperimentConfig, global_seed: int):
    """The train and test series, as two lists of SeriesData."""
    system = make_system(config.system.ident, **config.system.params)
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
        result = work()
        return lambda: result
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


class _Pipeline:
    """The stages of one command.  Each stage writes its artifacts into
    ``out`` and records its wall time in ``timings``; the manifest lists
    the artifacts in the order of a serial run.

    ``run`` forks once, after training (``_start_child``): the child
    writes the series files and scans and writes the truth grid, none of
    which needs the operator, while this process forecasts the test
    series and scans the operator grid.  Stage times then overlap, so
    ``timings["total"]`` holds the pipeline's own wall time.
    """

    def __init__(self, config, out_dir: Path, global_seed: int):
        self.config = config
        self.out = out_dir
        self.global_seed = global_seed
        self.started = time.perf_counter()
        self.timings: dict[str, float] = {}
        self.artifacts: list[str] = []
        self.train_data = None
        self.test_data = None
        self.operator = None

    def _write_csv(self, name: str, trajectory: Trajectory):
        path = self.out / name
        save_trajectory_csv(path, trajectory)
        self.artifacts.append(name)

    def _timed(self, stage: str, fn):
        started = time.perf_counter()
        result = fn()
        self.timings[stage] = time.perf_counter() - started
        return result

    def _series_files(self):
        """(file name, trajectory) for every simulated series."""
        self.ensure_simulated()
        files = []
        for role, series in (("train", self.train_data), ("test", self.test_data)):
            for index, data in enumerate(series):
                files.append((f"{role}_{index:02d}_clean.csv", data.clean))
                if data.noisy is not None:
                    files.append((f"{role}_{index:02d}_noisy.csv", data.noisy))
        return files

    def simulate(self):
        for name, trajectory in self._series_files():
            self._write_csv(name, trajectory)

    def ensure_simulated(self):
        if self.train_data is not None:
            return

        def stage():
            self.train_data, self.test_data = _simulate(self.config, self.global_seed)

        self._timed("simulate", stage)

    def train(self):
        self.ensure_simulated()
        feature_config = FeatureConfig(
            num_states=len(self.config.train[0].ic),
            delays=self.config.model.delays,
            degree=self.config.model.degree,
        )

        def stage():
            return fit_operator(
                [data.working for data in self.train_data],
                feature_config,
                references=[data.clean for data in self.train_data],
            )

        result = self._timed("train", stage)
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

    def predict(self, evaluate: bool):
        self.ensure_simulated()
        delays = self.operator.config.delays
        scores = []
        attractors = make_system(self.config.system.ident, **self.config.system.params).attractors
        tol = (self.config.basin or BasinSpec).tol  # the section's, else its default

        def label(trajectory):
            return classify_series(trajectory.states, attractors, tol)

        def stage():
            for index, data in enumerate(self.test_data):
                seeds = data.working.states[:delays]
                steps = data.working.num_samples - delays
                prediction = run_prediction(
                    self.operator, seeds, steps, t0=data.working.t0
                )
                self._write_csv(
                    f"predicted_test_{index:02d}.csv", prediction.trajectory
                )
                if evaluate:
                    scores.append(_score_payload(prediction, data.clean, delays, label))

        self._timed("evaluate" if evaluate else "predict", stage)
        if evaluate:
            write_json(self.out / "scores.json", {"test": scores})
            self.artifacts.append("scores.json")

    def _scan(self):
        """The configured system and the one scan both grids take."""
        spec = self.config.basin
        system = make_system(self.config.system.ident, **self.config.system.params)
        return system, dict(window=spec.window, resolution=spec.resolution, steps=spec.steps,
                            tol=spec.tol, fixed_coords=dict(spec.fixed) or None)

    def _truth_grid(self):
        """Scan and write the truth grid, which steps the series' dt."""
        system, scan = self._scan()
        dt = self.config.train[0].dt
        truth = self._timed("basin_truth", lambda: ground_truth_grid(system, dt=dt, **scan))
        save_basin_csv(self.out / "basin_truth.csv", truth)
        return truth

    def _operator_grid(self):
        system, scan = self._scan()
        predicted = self._timed(
            "basin_operator", lambda: operator_grid(self.operator, system, **scan)
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

    def basin(self):
        truth = self._truth_grid()
        predicted = self._operator_grid() if self.operator is not None else None
        self._list_grids(truth, predicted)

    def run(self):
        series = self._series_files()
        self.artifacts.extend(name for name, _ in series)
        self.train()
        grids = self.config.basin is not None

        def operator_free():
            for name, trajectory in series:
                save_trajectory_csv(self.out / name, trajectory)
            if grids:
                return self._truth_grid(), self.timings["basin_truth"]
            return None

        join = _start_child(operator_free)
        try:
            if self.config.test:
                self.predict(evaluate=True)
            predicted = self._operator_grid() if grids else None
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
            help="accepted and ignored; run overlaps its truth grid with the operator "
            "work in a forked child, and other commands run in one process",
        )
    return parser


def _check_model_fits(operator, config: ExperimentConfig, path) -> None:
    """A saved model must have the config's state count, model shape and
    series dt."""
    num_states = make_system(config.system.ident, **config.system.params).num_states
    if operator.config.num_states != num_states:
        raise ConfigError(
            f"model {path} has {operator.config.num_states} states, system "
            f"{config.system.ident!r} has {num_states}"
        )
    shape, model = operator.config, config.model
    if (shape.delays, shape.degree) != (model.delays, model.degree):
        raise ConfigError(f"model {path} has delays={shape.delays} degree={shape.degree}, the "
                          f"config's model has delays={model.delays} degree={model.degree}")
    dt = config.train[0].dt
    if _dt_differs(operator.dt, dt):
        raise ConfigError(f"model {path} has dt={operator.dt}, the config's series have dt={dt}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        raw = json.loads(Path(args.config).read_text())
        config = config_from_dict(raw)
        # An override obeys the config's own global_seed rule.
        seeded = config if args.seed is None else replace(config, global_seed=args.seed)
        global_seed = seeded.global_seed
        out_dir = Path(args.out if args.out else config.output_dir)
        if args.command in ("predict", "evaluate") and not config.test:
            raise ConfigError(f"{args.command} needs at least one test series")
        if args.command == "basin" and config.basin is None:
            raise ConfigError("config has no basin section")
        operator = load_model(args.model) if args.model else None
        if operator is not None:
            _check_model_fits(operator, config, args.model)
        if args.command in ("predict", "evaluate") and operator is None:
            raise ConfigError(f"--model is required for {args.command}")
        out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, json.JSONDecodeError, RecursionError, ConfigError, ValueError) as exc:
        print(f"nldm: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    pipeline = _Pipeline(config, out_dir, global_seed)
    pipeline.operator = operator
    try:
        if args.command == "simulate":
            pipeline.simulate()
        elif args.command == "train":
            pipeline.train()
        elif args.command in ("predict", "evaluate"):
            pipeline.predict(evaluate=args.command == "evaluate")
        elif args.command == "basin":
            pipeline.basin()
        elif args.command == "run":
            pipeline.run()
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
    sys.exit(main())


if __name__ == "__main__":
    entry()
