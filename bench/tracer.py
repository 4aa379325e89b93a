"""Traced ``nldm`` run: wraps the package's public functions from outside.

Run as ``python3 bench/tracer.py SPANS_JSON NLDM_ARGS...`` with the
package on ``PYTHONPATH``.  Wrappers go in at the names each module
imported, so the package itself is unchanged.  Spans (name, start, end,
parent, counters) stay in memory and are written to SPANS_JSON once
``nldm.cli.main`` returns.  ``layer_metrics`` turns that file into the
per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

import numpy as np

class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, counters]
        self.stack = []
        self.missing = {}

    def wrap(self, owner, attr, name, on_result=None, on_call=None):
        """Replace ``owner.attr`` with a span-recording wrapper."""
        try:
            fn = getattr(owner, attr)
        except AttributeError:
            self.missing[name] = f"{getattr(owner, '__name__', owner)}.{attr} no longer exists"
            return

        def wrapper(*args, **kwargs):
            counters = {}
            if on_call is not None:
                on_call(counters, args, kwargs)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, counters]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counters["error"] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if on_result is not None:
                on_result(counters, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)


def _arg(args, kwargs, index, key):
    return kwargs[key] if key in kwargs else args[index]


def install(tracer: Tracer, config: dict) -> None:
    """Wrap every traced call site; names are ``layer.what``."""
    from capture import ATTRACTORS, OpenCells

    # The package re-exports functions named like some of its modules
    # (``nldm.predict`` is the function), so modules come from importlib.
    cli, basin, features, identify, odes, predict = (
        importlib.import_module(f"nldm.{name}")
        for name in ("cli", "basin", "features", "identify", "odes", "predict")
    )
    tol = config.get("basin", {}).get("tol", 0.05)
    tracker = {}

    def size_of(counters, args, kwargs, result):
        counters["bytes"] = Path(args[0]).stat().st_size

    def nfev(counters, args, kwargs, result):
        counters["nfev"] = int(result.nfev)

    def operator_start(counters, args, kwargs):
        attractors = ATTRACTORS[config["system"]["ident"]]
        tracker["cells"] = OpenCells(attractors, tol)

    def operator_done(counters, args, kwargs, result):
        cells = tracker.pop("cells")
        counters["useful"], counters["total"] = cells.useful, cells.total

    def basin_step(counters, args, kwargs, result):
        counters["rows"] = int(args[0].shape[0])
        cells = tracker.get("cells")
        if cells is None:
            return
        if cells.open is None:
            cells.start(args[0])
        cells.step(result)

    def rows(counters, args, kwargs):
        counters["rows"] = int(args[0].shape[0])

    def lstsq(counters, args, kwargs, result):
        counters["rank"] = int(result.effective_rank)
        counters["truncated"] = int(result.truncated_singular_values)

    def snapshot(counters, args, kwargs, result):
        counters["mb"] = (result.features.nbytes + result.targets.nbytes) / 1e6

    def repredict(counters, args, kwargs):
        counters["steps"] = int(_arg(args, kwargs, 2, "steps"))

    def forecast(counters, args, kwargs, result):
        counters["diverged"] = int(result.diverged_at is not None)

    def evaluate(counters, args, kwargs):
        counters["rows"] = int(np.shape(args[1])[0])

    sites = [
        (cli, "config_from_dict", "config.parse", None, None),
        (cli, "config_to_dict", "config.dump", None, None),
        (cli, "derived_seed", "config.seed", None, None),
        (cli, "make_system", "odes.make_system", None, None),
        (cli, "integrate", "odes.simulate", None, None),
        (cli, "add_noise", "odes.noise", None, None),
        (odes, "solve_ivp", "odes.solve_ivp", nfev, None),
        (basin, "integrate", "odes.grid_cell", None, None),
        (cli, "fit_operator", "identify.train", None, None),
        (identify, "predict", "identify.repredict", None, repredict),
        (identify, "build_snapshot_pair", "features.snapshot", snapshot, None),
        (features.MonomialBasis, "evaluate_batch", "features.evaluate", None, evaluate),
        (identify, "solve_min_frobenius", "lstsq.solve", lstsq, None),
        (identify, "rrmse", "metrics.rrmse", None, None),
        (cli, "rrmse", "metrics.rrmse", None, None),
        (cli, "run_prediction", "predict.forecast", forecast, None),
        (predict, "step_batch", "predict.step", None, rows),
        (cli, "ground_truth_grid", "basin.truth", None, None),
        (basin, "classify_series", "basin.classify", None, None),
        (cli, "operator_grid", "basin.operator", operator_done, operator_start),
        (basin, "step_batch", "basin.step", basin_step, None),
        (cli, "grid_agreement", "basin.agreement", None, None),
        (cli, "load_model", "io.read", None, None),
        (cli, "save_trajectory_csv", "io.write", size_of, None),
        (cli, "save_model", "io.write", size_of, None),
        (cli, "save_basin_csv", "io.write", size_of, None),
        (cli, "write_json", "io.write", size_of, None),
    ]
    for owner, attr, name, on_result, on_call in sites:
        tracer.wrap(owner, attr, name, on_result, on_call)


def main(argv) -> int:
    spans_path, nldm_args = Path(argv[0]), argv[1:]
    config = json.loads(Path(nldm_args[nldm_args.index("--config") + 1]).read_text())
    tracer = Tracer()
    install(tracer, config)
    import nldm.cli

    code = nldm.cli.main(nldm_args)
    # perf_counter is CLOCK_MONOTONIC, which the parent's spawn time shares.
    ended = time.perf_counter()
    spans_path.write_text(json.dumps({
        "exit_code": code,
        "ended": ended,
        "missing": tracer.missing,
        "spans": tracer.spans,
    }))
    return code


# ---------------------------------------------------------------------------
# Per-layer metrics from a spans file.

LAYERS = ("config", "odes", "features", "lstsq", "identify", "predict",
          "metrics", "basin", "io", "cli")

# name -> (unit, better, the span the metric needs)
PER_LAYER = {
    "config.parse_s": ("s", "lower", "config.parse"),
    "odes.grid_s": ("s", "lower", "odes.grid_cell"),
    "odes.grid_cells": ("count", "lower", "odes.grid_cell"),
    "odes.grid_nfev": ("count", "lower", "odes.solve_ivp"),
    "odes.grid_cell_ms_p50": ("ms", "lower", "odes.grid_cell"),
    "odes.grid_cell_ms_p99": ("ms", "lower", "odes.grid_cell"),
    "odes.grid_failures": ("count", "lower", "odes.grid_cell"),
    "odes.simulate_s": ("s", "lower", "odes.simulate"),
    "odes.simulate_nfev": ("count", "lower", "odes.solve_ivp"),
    "odes.noise_s": ("s", "lower", "odes.noise"),
    "features.snapshot_s": ("s", "lower", "features.snapshot"),
    "features.snapshot_mb": ("MB", "lower", "features.snapshot"),
    "features.evaluate_calls": ("count", "lower", "features.evaluate"),
    "features.evaluate_rows": ("count", "lower", "features.evaluate"),
    "features.evaluate_s": ("s", "lower", "features.evaluate"),
    "lstsq.solve_s": ("s", "lower", "lstsq.solve"),
    "lstsq.rank": ("count", "higher", "lstsq.solve"),
    "lstsq.truncated": ("count", "lower", "lstsq.solve"),
    "identify.train_s": ("s", "lower", "identify.train"),
    "identify.repredict_s": ("s", "lower", "identify.repredict"),
    "identify.repredict_steps": ("count", "lower", "identify.repredict"),
    "predict.forecast_s": ("s", "lower", "predict.forecast"),
    "predict.steps": ("count", "lower", "predict.step"),
    "predict.step_us": ("us", "lower", "predict.step"),
    "predict.diverged": ("count", "lower", "predict.forecast"),
    "metrics.rrmse_s": ("s", "lower", "metrics.rrmse"),
    "basin.truth_s": ("s", "lower", "basin.truth"),
    "basin.classify_s": ("s", "lower", "basin.classify"),
    "basin.operator_s": ("s", "lower", "basin.operator"),
    "basin.operator_cell_steps": ("count", "lower", "basin.step"),
    "basin.operator_step_ms": ("ms", "lower", "basin.step"),
    "basin.operator_useful_ratio": ("ratio", "higher", "basin.operator"),
    "basin.agreement_s": ("s", "lower", "basin.agreement"),
    "io.write_s": ("s", "lower", "io.write"),
    "io.files": ("count", "lower", "io.write"),
    "io.mb_written": ("MB", "lower", "io.write"),
    "io.read_s": ("s", "lower", "io.read"),
    **{f"{layer}.self_s": ("s", "lower", None) for layer in LAYERS[:-1]},
    "cli.unattributed_s": ("s", "lower", None),
    "trace.wall_s": ("s", "lower", None),
    "trace.overhead_s": ("s", "lower", None),
}


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(trace: dict, spawned: float, untraced_median: float) -> tuple[dict, dict]:
    """Per-layer metric values and the reason each missing one is missing.

    A metric whose wrapped name no longer exists reads 0: no span of it
    was recorded.  The reason says why, so the 0 is not taken for a
    measurement.
    """
    spans = trace["spans"]
    by_name = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)

    def total(name):
        return sum(s[2] - s[1] for s in by_name.get(name, []))

    def count(name, key=None):
        group = by_name.get(name, [])
        return len(group) if key is None else sum(s[4].get(key, 0) for s in group)

    def under(name, ancestor):
        """Spans of ``name`` with ``ancestor`` somewhere above them."""
        found = []
        for span in by_name.get(name, []):
            parent = span[3]
            while parent >= 0 and spans[parent][0] != ancestor:
                parent = spans[parent][3]
            if parent >= 0:
                found.append(span)
        return found

    cell_ms = [1e3 * (s[2] - s[1]) for s in by_name.get("odes.grid_cell", [])]
    single_steps = [s for s in by_name.get("predict.step", []) if s[4]["rows"] == 1]
    useful = count("basin.operator", "useful")
    attempted = count("basin.operator", "total")
    basin_steps = by_name.get("basin.step", [])

    wall = trace["ended"] - spawned
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    self_time = dict.fromkeys(LAYERS, 0.0)
    covered = 0.0
    for span, children in zip(spans, child_time):
        self_time[span[0].split(".")[0]] += (span[2] - span[1]) - children
        if span[3] < 0:
            covered += span[2] - span[1]

    values = {
        "config.parse_s": total("config.parse"),
        "odes.grid_s": total("odes.grid_cell"),
        "odes.grid_cells": count("odes.grid_cell"),
        "odes.grid_nfev": sum(s[4]["nfev"] for s in under("odes.solve_ivp", "odes.grid_cell")),
        "odes.grid_cell_ms_p50": _percentile(cell_ms, 50),
        "odes.grid_cell_ms_p99": _percentile(cell_ms, 99),
        "odes.grid_failures": sum("error" in s[4] for s in by_name.get("odes.grid_cell", [])),
        "odes.simulate_s": total("odes.simulate"),
        "odes.simulate_nfev": sum(s[4]["nfev"] for s in under("odes.solve_ivp", "odes.simulate")),
        "odes.noise_s": total("odes.noise"),
        "features.snapshot_s": total("features.snapshot"),
        "features.snapshot_mb": count("features.snapshot", "mb"),
        "features.evaluate_calls": count("features.evaluate"),
        "features.evaluate_rows": count("features.evaluate", "rows"),
        "features.evaluate_s": total("features.evaluate"),
        "lstsq.solve_s": total("lstsq.solve"),
        "lstsq.rank": count("lstsq.solve", "rank"),
        "lstsq.truncated": count("lstsq.solve", "truncated"),
        "identify.train_s": total("identify.train"),
        "identify.repredict_s": total("identify.repredict"),
        "identify.repredict_steps": count("identify.repredict", "steps"),
        "predict.forecast_s": total("predict.forecast"),
        "predict.steps": count("predict.step"),
        "predict.step_us": (
            1e6 * sum(s[2] - s[1] for s in single_steps) / len(single_steps)
            if single_steps else 0.0
        ),
        "predict.diverged": count("predict.forecast", "diverged"),
        "metrics.rrmse_s": total("metrics.rrmse"),
        "basin.truth_s": total("basin.truth"),
        "basin.classify_s": total("basin.classify"),
        "basin.operator_s": total("basin.operator"),
        "basin.operator_cell_steps": count("basin.step", "rows"),
        "basin.operator_step_ms": (
            1e3 * total("basin.step") / len(basin_steps) if basin_steps else 0.0
        ),
        "basin.operator_useful_ratio": useful / attempted if attempted else 0.0,
        "basin.agreement_s": total("basin.agreement"),
        "io.write_s": total("io.write"),
        "io.files": count("io.write"),
        "io.mb_written": count("io.write", "bytes") / 1e6,
        "io.read_s": total("io.read"),
        **{f"{layer}.self_s": self_time[layer] for layer in LAYERS[:-1]},
        "cli.unattributed_s": wall - covered,
        "trace.wall_s": wall,
        "trace.overhead_s": wall - untraced_median,
    }
    missing_spans = set(trace["missing"])
    reasons = {}
    for name, (_, _, span) in PER_LAYER.items():
        if span in missing_spans:
            values[name] = 0.0
            reasons[name] = trace["missing"][span]
    return values, reasons


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
