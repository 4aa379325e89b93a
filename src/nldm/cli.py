"""Command-line pipeline: simulate, train, predict, evaluate, basin, run.

Each command is a row of ``_STAGES``, the stages it runs out of one
pipeline (series files, fit, test forecasts, basin grids), and
``_Pipeline.execute`` runs any row the same way: two queues of items,
one before the solve and one after it, each of which a forked worker may
claim with the command, one worker at a time.  The modules every command
runs are imported here, those of one stage only where that stage runs,
so a command loads no module it does not run.  The console entry (``entry``) leaves through ``os._exit``
once ``main`` has returned, skipping the interpreter's teardown.

Exit codes: 0 on success, 2 for configuration problems, 3 for numerical
failures inside the pipeline and for arrays too large to allocate.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import pickle
import platform
import sys
import time
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .basin import _operator_scan, _truth_scan, classify_series, grid_agreement
from .config import (
    BasinSpec,
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    derived_seed,
)
from .core import (
    FeatureConfig, IntegrationError, Trajectory, UndefinedScoreError, _dt_differs, record)
from .io import (
    load_model,
    save_basin_csv,
    save_model,
    save_trajectory_csv,
    write_json,
)
from .odes import _integrate_series, add_noise, make_system
from .predict import _forecast_batch, _starts

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PIPELINE = 3

# A grid is cut into chunks of at least this many contiguous cells, each
# one item of the claim queue (``_Pipeline._claim_all``): the forecasting
# kernel's cost per row is near its least from about 900 rows to a few
# thousand (CHANGES.md has the per-step table).
_CHUNK_CELLS = 2500
# A claim token is an index in this many bytes.  A queue holds at most
# ``_MAX_CLAIMS`` tokens, so that they all go into the pipe in one write
# of at most a page, which a pipe takes whole and at once; the tokens of
# a longer queue each name a run of its items.
_TOKEN_BYTES = 2
_MAX_CLAIMS = 2048


@record
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
    from .metrics import rrmse

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


class _Child:
    """A forked child that runs ``work()`` (``_start_child``)."""

    def __init__(self, pid, read_end):
        self.pid = pid
        self.pipe = os.fdopen(read_end, "rb")
        self.code = None

    def join(self):
        """``work()``'s result, or its exception raised again with the same
        type and message; call it once.  It waits for the result, not for
        the child to end (``reap``).  A child that ends without a whole
        result is reaped and makes this raise a RuntimeError."""
        with self.pipe:
            data = self.pipe.read()
        try:
            ok, value = pickle.loads(data)
        except (EOFError, pickle.UnpicklingError):  # none, or cut short
            raise RuntimeError(
                f"child process ended with exit code {self.reap()} and no result") from None
        if not ok:
            raise value
        return value

    def kill(self):
        """End the child at once, unless it has been reaped."""
        if self.code is None:
            import signal  # only a failing command needs it

            os.kill(self.pid, signal.SIGKILL)

    def reap(self):
        """Wait for the child to end and return its exit code; later calls
        return it again.  A result not yet read is read first and dropped:
        one larger than the pipe's buffer holds the child until it is
        read."""
        if self.code is None:
            if not self.pipe.closed:
                with self.pipe:
                    self.pipe.read()
            _, status = os.waitpid(self.pid, 0)
            self.code = os.waitstatus_to_exitcode(status)
        return self.code


def _flush_std_streams():
    """Flush stdout and stderr, skipping one the process started without
    (None) and one that is closed or broken."""
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            try:
                stream.flush()
            except (OSError, ValueError):
                pass


def _start_child(work):
    """Run ``work()`` in a forked child while the caller goes on, and
    return the ``_Child``; None where the system refuses the fork or has
    none."""
    _flush_std_streams()
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except (OSError, AttributeError):  # refused, or a platform without fork
        os.close(read_end)
        os.close(write_end)
        return None
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
    return _Child(pid, read_end)


def _split(count, parts):
    """``parts`` contiguous ranges that cover ``range(count)``, their
    lengths within one of each other."""
    bounds = [count * k // parts for k in range(parts + 1)]
    return [range(start, stop) for start, stop in zip(bounds, bounds[1:])]


def _claims(count):
    """The read end of a pipe that holds the claim tokens 0 .. count - 1
    and whose write end is closed, so a read past the last token reads
    nothing."""
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, b"".join(k.to_bytes(_TOKEN_BYTES, "little") for k in range(count)))
    finally:
        os.close(write_end)
    return read_end


def _claim(read_end):
    """Yield each token claimed from ``read_end`` until none is left.
    Every read takes exactly one token from a pipe that holds only whole
    ones, so no two processes claim the same token."""
    while token := os.read(read_end, _TOKEN_BYTES):
        yield int.from_bytes(token, "little")


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


def _covered(runs):
    """The time covered by at least one of ``runs``, (start, end) pairs."""
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(runs):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


class _Pipeline:
    """One command's stages.  Each stage writes its artifacts into
    ``out`` and records the start and end of each of its runs in
    ``runs``, in either process; the manifest lists the artifacts in the
    order of the stages.
    """

    def __init__(self, config, system, out_dir: Path, global_seed: int, operator=None):
        self.config = config
        self.system = system
        self.out = out_dir
        self.global_seed = global_seed
        self.operator = operator
        self.started = time.perf_counter()
        # Stage -> its runs' (start, end) on the perf_counter clock,
        # which a forked child shares.
        self.runs: dict[str, list[tuple[float, float]]] = {}
        self.artifacts: list[str] = []
        self.children = []  # the forked workers, each reaped before ``execute`` returns
        self.train_data = None
        self.test_data = None

    def _timed(self, stage: str, fn):
        """``fn()``, its start and end added to the stage's runs."""
        started = time.perf_counter()
        result = fn()
        self.runs.setdefault(stage, []).append((started, time.perf_counter()))
        return result

    def _merge(self, runs):
        """Add another process's ``runs``.  A forked child's also hold
        those it inherited, which cover no more time."""
        for stage, more in runs.items():
            self.runs.setdefault(stage, []).extend(more)

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
        """Write the fit's files; returns their names."""
        save_model(self.out / "model.txt", result.operator)
        summary = result.operator.training_summary
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
        return ["model.txt", "train_metrics.json"]

    def _save_forecasts(self, predictions, stage: str):
        """Write the test series' forecasts and, to evaluate, their
        scores; returns the files' names, in the order written."""
        tol = (self.config.basin or BasinSpec).tol  # the section's, else its default
        delays = self.config.model.delays
        evaluate = stage == "evaluate"
        scores, names = [], []

        def label(trajectory):
            return classify_series(trajectory.states, self.system.attractors, tol)

        def write():
            for index, (data, prediction) in enumerate(zip(self.test_data, predictions)):
                names.append(f"predicted_test_{index:02d}.csv")
                save_trajectory_csv(self.out / names[-1], prediction.trajectory)
                if evaluate:
                    scores.append(_score_payload(prediction, data.clean, delays, label))

        self._timed(stage, write)
        if evaluate:
            write_json(self.out / "scores.json", {"test": scores})
            names.append("scores.json")
        return names

    def _forecast(self, fit, stage):
        """One forecast batch over the training seeds, whose rows score
        ``fit``, and then, for a forecast ``stage``, the test seeds;
        returns the names of the files written, in their order."""
        trained = fit.trajectories if fit is not None else []
        tests = [data.working for data in self.test_data] if stage is not None else []
        if not trained and not tests:
            return []
        operator = fit.operator if fit is not None else self.operator
        starts = _starts(trained + tests, self.config.model.delays)
        predictions = self._timed("train" if fit is not None else stage,
                                  lambda: _forecast_batch(operator, starts))
        names = []
        if fit is not None:
            from .identify import _score

            names += self._save_training(
                self._timed("train", lambda: _score(fit, predictions[:len(trained)])))
        if tests:
            names += self._save_forecasts(predictions[len(trained):], stage)
        return names

    def _scan(self):
        """The one scan both grids take."""
        spec = self.config.basin
        return dict(window=spec.window, resolution=spec.resolution, steps=spec.steps,
                    tol=spec.tol, fixed_coords=dict(spec.fixed) or None)

    def _chunks(self, stage, scan):
        """Items that label ``scan``'s cells in cell order, each a chunk of
        at least ``_CHUNK_CELLS`` contiguous cells timed under ``stage``."""
        cells = len(scan.points)
        return [partial(self._timed, stage, partial(scan.codes, chunk.start, chunk.stop))
                for chunk in _split(cells, max(cells // _CHUNK_CELLS, 1))]

    def _write_grids(self, grids):
        """Write each of ``grids`` (stage -> grid) to the stage's file and,
        given both, their agreement; list the files."""
        for stage, grid in grids.items():
            save_basin_csv(self.out / f"{stage}.csv", grid)
            self.artifacts.append(f"{stage}.csv")
        if len(grids) < 2:
            return
        agreement = grid_agreement(grids["basin_truth"], grids["basin_operator"])
        write_json(
            self.out / "agreement.json",
            {
                "fraction_agree": agreement.fraction_agree,
                "compared_cells": agreement.compared_cells,
                "confusion": agreement.confusion,
            },
        )
        self.artifacts.append("agreement.json")

    def _claim_all(self, items, fork: bool):
        """Run every item of ``items``; returns their results in the items'
        order.

        Each process claims a token from one pipe (``_claims``), runs the
        items it names and claims again until none is left.  Given
        ``fork`` and two or more items, a forked worker (``_start_child``,
        listed in ``children``) claims alongside this process and sends
        home its results and its stages' runs; otherwise, or where the
        fork is refused, this process runs them all.  A process whose item
        fails claims the rest unrun, so the other stops after its current
        item, and raises its error; this process's error comes first, and
        ``execute`` reaps the worker.
        """
        if not items:
            return []
        runs = _split(len(items), min(len(items), _MAX_CLAIMS))
        read_end = _claims(len(runs))

        def work():
            done = {}
            try:
                for token in _claim(read_end):
                    for index in runs[token]:
                        done[index] = items[index]()
            except BaseException:
                for _ in _claim(read_end):
                    pass
                raise
            return done

        try:
            worker = _start_child(lambda: (work(), self.runs)) if fork and len(items) > 1 else None
            if worker is not None:
                self.children.append(worker)
            done = work()
        finally:
            os.close(read_end)
        if worker is not None:
            theirs, their_runs = worker.join()
            self._merge(their_runs)
            done.update(theirs)
        return [done[index] for index in range(len(items))]

    def execute(self, stages):
        """Run ``stages``, one value of ``_STAGES``, as two queues of items
        (``_claim_all``) split by the solve.

        The first queue needs only the config and ``--model``'s operator:
        the simulate, whose series every stage but the grids reads, then
        the truth grid and, given an operator, the operator grid, each in
        chunks of at least ``_CHUNK_CELLS`` contiguous cells.  A command
        that fits then solves alone (``identify._solve``).  The second
        queue holds, in this order: the operator grid of a command that
        fits, in chunks; one forecast batch over the training seeds and
        then the test seeds (``_forecast_batch``), whose rows score and
        write the fit and are the test forecasts, with their files; and
        each series file.  A command that scans both grids forks a worker
        for the first queue, and one with an operator forks one for the
        second, each only to share two or more items; the first worker
        has sent its results before the second is forked, so at most one
        child is at work at any moment.  This process then lays out and
        writes the grids from their chunks' codes, and the agreement; the
        manifest lists the files in the stages' order, whichever process
        wrote them.  Every child is reaped before this returns, on every
        path; on an error, those still running are killed first, and the
        first error raised is the one reported.  A stage's time is the
        time its runs cover in either process, waits in the queue left
        out: ``train`` runs the solve and then the batch and the training
        scores; a command that fits nothing times the batch under its
        forecast stage.  Stage times overlap, so the manifest's ``total``
        holds the pipeline's own wall time.
        """
        fits = "fit" in stages
        forecast = next((stage for stage in ("predict", "evaluate") if stage in stages), None)
        grids = "grids" in stages and self.config.basin is not None
        items, at = [], {}  # both queues' items, and each group's places among them
        scans = {}  # a grid's stage -> its scan, in the order of the grids' files

        def add(group, new):
            at[group] = range(len(items), len(items) + len(new))
            items.extend(new)

        def add_grid(stage, scan):
            scans[stage] = scan
            add(stage, self._chunks(stage, scan))

        try:
            if stages != ("grids",):
                add("simulate", [partial(self._timed, "simulate", partial(
                    _simulate, self.config, self.system, self.global_seed))])
            if grids:
                add_grid("basin_truth", _truth_scan(self.system, dt=self.config.train[0].dt,
                                                    **self._scan()))
            if grids and self.operator is not None:
                add_grid("basin_operator", _operator_scan(self.operator, self.system, **self._scan()))
            done = self._claim_all(items, fork=grids and (fits or self.operator is not None))
            if "simulate" in at:
                self.train_data, self.test_data = done[at["simulate"][0]]
            fit = None
            if fits:
                from .identify import _solve

                model, train = self.config.model, self.train_data
                shape = FeatureConfig(self.system.num_states, model.delays, model.degree)
                fit = self._timed("train", lambda: _solve([data.working for data in train], shape,
                                                          [data.clean for data in train]))
                self.operator = fit.operator
                if grids:
                    add_grid("basin_operator",
                             _operator_scan(self.operator, self.system, **self._scan()))
            if fits or forecast is not None:
                add("forecast", [partial(self._forecast, fit, forecast)])
            series = self._series_files() if "series" in stages else []
            add("series", [partial(self._timed, "series",
                                   partial(save_trajectory_csv, self.out / name, trajectory))
                           for name, trajectory in series])
            # The second worker is forked right after the solve, and that
            # matters: after a solve, OpenBLAS's helper thread spins on,
            # about 83 ms of CPU in the next 300 ms at its default two
            # threads, taken from the queue's work.  The fork handler it
            # registers (pthread_atfork) stops that thread.
            done += self._claim_all(items[len(done):], fork=self.operator is not None)
            written = done[at["forecast"][0]] if "forecast" in at else []
            self.artifacts = [name for name, _ in series] + written
            self._write_grids({stage: scan.grid(np.concatenate([done[k] for k in at[stage]]))
                               for stage, scan in scans.items()})
        except BaseException:
            # A failing command waits for no child's work.
            for child in self.children:
                child.kill()
            raise
        finally:
            # Reaped last, the worker's exit overlaps this process's last
            # writes.
            for child in self.children:
                child.reap()

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
            # The time each stage's runs cover, in the order the stages
            # started.
            "timings_seconds": {
                **{stage: _covered(runs) for stage, runs in sorted(
                    self.runs.items(), key=lambda item: min(item[1]))},
                "total": time.perf_counter() - self.started,
            },
            "artifacts": self.artifacts,
        }
        write_json(self.out / "manifest.json", payload)


def _build_parser() -> argparse.ArgumentParser:
    """One parser for every command: the command is a positional choice
    and all of them take the same options, so no subparser is built."""
    commands = (
        ("simulate", "integrate the configured series and write CSVs"),
        ("train", "fit an operator to the training series"),
        ("predict", "forecast the test series with a trained operator"),
        ("evaluate", "forecast and score the test series"),
        ("basin", "map basins of attraction"),
        ("run", "simulate, train, evaluate, and map basins in one pass"),
    )
    parser = argparse.ArgumentParser(
        prog="nldm",
        description="Learn one-step operators from simulated trajectories, forecast,\n"
        "score, and map basins of attraction.",
        epilog="commands:\n" + "".join(f"  {name:<10}{text}\n" for name, text in commands),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_STAGES, metavar="command",
                        help="the command to run, one of those below")
    parser.add_argument("--config", required=True, help="experiment config (JSON)")
    parser.add_argument("--model", help="previously saved operator file")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="override the global seed")
    parser.add_argument(
        "--threads",
        type=int,
        help="accepted and ignored; a command forks at most one worker at a time, to "
        "share a queue of two or more items, whatever this says",
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


def _tell(line):
    """Print ``line`` on stderr; a stderr that is gone (a pipe whose
    reader has closed it) loses the line and leaves the exit code alone."""
    try:
        print(line, file=sys.stderr)
    except OSError:
        pass


def _print_warning(message, category, filename, lineno, file=None, line=None):
    """Show a warning (an underdetermined fit) as one line on stderr, as
    the errors are, without its source location."""
    _tell(f"nldm: warning: {message}")


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
        _tell(f"nldm: configuration error: {exc}")
        return EXIT_CONFIG

    pipeline = _Pipeline(config, system, out_dir, global_seed, operator)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
            pipeline.execute(stages)
            pipeline.manifest(args.command)
    except (ConfigError, OSError) as exc:
        _tell(f"nldm: configuration error: {exc}")
        return EXIT_CONFIG
    except (IntegrationError, ValueError, RuntimeError, np.linalg.LinAlgError,
            MemoryError) as exc:
        _tell(f"nldm: pipeline error: {exc}")
        return EXIT_PIPELINE
    return EXIT_OK


def entry() -> None:
    # The import heap lives until exit, where the interpreter's final
    # collection would walk all of it; frozen, it is never walked, and
    # the forked child (``_start_child``) leaves its pages unwritten.  Only
    # the command's own process freezes and leaves through ``os._exit``:
    # ``main`` is also called in-process, by tests and library users.
    gc.freeze()
    code = main()
    # ``main`` has reaped every child and closed every file it wrote, so
    # what the interpreter's teardown has left to do is clear modules and
    # free the heap object by object, which no one reads.  The exit
    # handlers registered so far and the standard streams' buffers are
    # all it would do that shows; a usage error or --help leaves by
    # SystemExit, the normal way.
    atexit._run_exitfuncs()
    _flush_std_streams()
    os._exit(code)


if __name__ == "__main__":
    entry()
