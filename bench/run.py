#!/usr/bin/env python3
"""Benchmark of the ``nldm`` command line on two fixed workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs the workload's ``nldm`` command as a subprocess, one at a
time, back to back until ``--seconds`` have passed (a closed loop; the
bistable workload's command itself uses two grid worker processes).  The
package is imported from ``src/`` next to this directory.

``--trace 0`` reports the end-to-end metrics, each a median over the run:
the command's wall time relative to a reference process (``run_rel``),
the start-up cost every command pays and peak memory; it also prints the
plain wall time (``run_s``) and the result figures the paper's claims rest
on.  ``--trace 1`` first times a few untraced commands at ``--threads 1``,
then runs the same command once in-process under ``tracer.py`` and
reports per-layer metrics.

Every command is checked: exit code 0, the expected artifact set,
artifacts byte-identical to the run's first command (apart from the
wall-clock fields in ``CLOCK_FIELDS``), and the acceptance-08 agreement
floor on ``bistable_basin``.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric with its unit and the environment.
``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import PER_LAYER, layer_metrics
from workloads import BISTABLE_AGREEMENT_FLOOR, WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Every nldm command must end well inside the 180 s a run may take.
RUN_DEADLINE_S = 170.0
# Commands per run at least, so byte identity is always checked.
MIN_COMMANDS = 2

END_TO_END = {
    "run_rel": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Result figures: deterministic for a seed but different between seeds
# (a new seed redraws the training noise), so they are printed on the lines
# before the result rather than gated.  ``test_rrmse`` is None where no test
# forecast has a finite score (``cycle_basin`` forecasts none).
QUALITY = {
    "fraction_agree": "fraction",
    "test_rrmse": "ratio",
    "train_rrmse": "ratio",
    "test_diverged": "count",
}

SETUP_SNIPPET = (
    "import json, sys; from pathlib import Path; import nldm.cli; "
    "nldm.cli.config_from_dict(json.loads(Path(sys.argv[1]).read_text()))"
)
# The reference process: the third-party imports the package needs and
# nothing of the package, so no change to the program moves its time.
# Its time follows the machine's slow load swings (a third or more over
# tens of minutes) with the command's; see README.md.
REFERENCE_SNIPPET = "import numpy, scipy.integrate, scipy.linalg"


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, failed set-up)."""


@dataclass
class Completed:
    code: int
    wall: float
    spawned: float
    maxrss_mb: float
    cpu_s: float


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{label}: {'; '.join(problems)}")
            print(f"FAILED {self.failures[-1]}", file=sys.stderr)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list[str], log: Path, deadline: float) -> Completed:
    """Run ``argv`` to completion; peak memory covers reaped workers."""
    with open(log, "wb") as out:
        spawned = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=subprocess.STDOUT, env=child_env(),
            cwd=ROOT, start_new_session=True,
        )
    timer = threading.Timer(max(deadline - time.perf_counter(), 0.0), _kill_group, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _kill_group(proc.pid)
        os.waitpid(proc.pid, 0)
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - spawned
    # Reaped here, so Popen must not wait for it again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Completed(
        code=proc.returncode,
        wall=wall,
        spawned=spawned,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        cpu_s=usage.ru_utime + usage.ru_stime,
    )


def environment() -> dict:
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS for the thread query)

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            query = getattr(ctypes.CDLL(lib), symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                threads[Path(lib).name] = query()
                break
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": threads,
        "thread_env": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                        "NLDM_THREADS")
        },
    }


# ---------------------------------------------------------------------------
# Output checks and quality figures.

# Wall-clock fields, the only artifact content that may differ between
# same-seed runs.
CLOCK_FIELDS = {"manifest.json": "timings_seconds", "train_metrics.json": "elapsed_seconds"}


def digests(out_dir: Path) -> dict[str, str]:
    found = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name in CLOCK_FIELDS:
            payload = json.loads(data)
            payload.pop(CLOCK_FIELDS[path.name], None)
            data = json.dumps(payload, sort_keys=True).encode()
        found[path.name] = hashlib.sha256(data).hexdigest()
    return found


def _read_json(path: Path):
    return json.loads(path.read_text())


def quality(out_dir: Path, model_dir: Path | None) -> dict:
    """The result figures of one command's output.

    ``test_rrmse`` averages the probes whose forecast did not diverge
    (a diverged probe has no score); ``test_diverged`` counts the others.
    A command that reads a model takes ``train_rrmse`` from the set-up
    run that trained it and has no test figures.
    """
    agree = _read_json(out_dir / "agreement.json")["fraction_agree"]
    scores = []
    if (out_dir / "scores.json").exists():
        scores = [entry["mean_rrmse"] for entry in _read_json(out_dir / "scores.json")["test"]]
    finite = [score for score in scores if score is not None]
    trained = out_dir if model_dir is None else model_dir
    return {
        "fraction_agree": agree,
        "test_rrmse": float(np.mean(finite)) if finite else None,
        "test_diverged": len(scores) - len(finite),
        "train_rrmse": _read_json(trained / "train_metrics.json")["mean_rrmse"],
    }


def check(workload: Workload, done: Completed, out_dir: Path, reference: dict | None,
          model_dir: Path | None):
    """Problems found with one command's result, its digests and quality."""
    if done.code != 0:
        return [f"exit code {done.code}"], None, None
    problems = []
    present = {path.name for path in out_dir.iterdir()}
    if present != workload.artifacts:
        problems.append(
            f"artifacts differ: missing {sorted(workload.artifacts - present)}, "
            f"extra {sorted(present - workload.artifacts)}"
        )
        return problems, None, None
    listed = set(_read_json(out_dir / "manifest.json")["artifacts"]) | {"manifest.json"}
    if listed != workload.artifacts:
        problems.append("manifest artifact list differs from the files written")
    found = digests(out_dir)
    if reference is not None:
        changed = sorted(name for name in found if found[name] != reference[name])
        if changed:
            problems.append(f"not byte-identical to the first same-seed run: {changed}")
    figures = quality(out_dir, model_dir)
    if not math.isfinite(figures["fraction_agree"]):
        problems.append(f"fraction_agree is {figures['fraction_agree']}")
    if workload.name == "bistable_basin" and figures["fraction_agree"] < BISTABLE_AGREEMENT_FLOOR:
        problems.append(
            f"fraction_agree {figures['fraction_agree']:.4f} below the "
            f"acceptance-08 floor {BISTABLE_AGREEMENT_FLOOR}"
        )
    return problems, found, figures


# ---------------------------------------------------------------------------
# One workload.

class WorkloadRun:
    def __init__(self, workload: Workload, seed: int, work: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.tally = Tally()
        self.reference = None
        self.figures = None
        self.model_dir = None
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(workload.config, indent=1))

    def nldm_argv(self, out_dir: Path, threads: int) -> list[str]:
        argv = [*self.workload.command, "--config", str(self.config_path),
                "--out", str(out_dir), "--seed", str(self.seed), "--threads", str(threads)]
        if self.model_dir is not None:
            argv += ["--model", str(self.model_dir / "model.txt")]
        return argv

    def train_model(self) -> None:
        """Set-up for model-reading workloads: ``nldm train`` on the model config."""
        if self.workload.model_config is None:
            return
        self.model_dir = self.work / "model"
        config = self.work / "model_config.json"
        config.write_text(json.dumps(self.workload.model_config, indent=1))
        done = spawn(
            [sys.executable, "-m", "nldm.cli", "train", "--config", str(config),
             "--out", str(self.model_dir), "--seed", str(self.seed), "--threads", "1"],
            self.work / "model.log", self.deadline,
        )
        if done.code != 0:
            tail = (self.work / "model.log").read_text(errors="replace")[-400:].strip()
            raise BenchError(f"set-up training failed with exit code {done.code}: {tail}")

    def probe(self, label: str, argv: list[str]) -> float:
        """Wall time of one fresh interpreter running ``argv``."""
        done = spawn([sys.executable, *argv], self.work / f"{label}.log", self.deadline)
        self.tally.record(label, [] if done.code == 0 else [f"exit code {done.code}"])
        return done.wall

    def settle(self, label: str, done: Completed, out_dir: Path, log: Path) -> None:
        problems, found, figures = check(
            self.workload, done, out_dir, self.reference, self.model_dir
        )
        if done.code != 0:
            problems.append(log.read_text(errors="replace")[-400:].strip())
        self.tally.record(label, problems)
        if found is not None and self.reference is None:
            self.reference, self.figures = found, figures
        shutil.rmtree(out_dir, ignore_errors=True)

    def command_loop(self, seconds: float, threads: int, minimum: int,
                     probes: dict | None = None) -> list[Completed]:
        """Closed loop: one command at a time for ``seconds``.

        With ``probes`` given, a reference process and a set-up probe
        precede every command and their times are appended to
        ``probes["reference"]`` and ``probes["setup"]``, so probes and
        command see the same stretch of machine load.  After ``minimum``
        commands, a further one starts only if a round of median length
        would still end inside the window, so a run's length does not
        grow with the command's.
        """
        runs, rounds = [], []
        started = time.perf_counter()
        while len(runs) < minimum or (
            time.perf_counter() - started + statistics.median(rounds) <= seconds
        ):
            begun = time.perf_counter()
            if probes is not None:
                index = len(runs)
                probes["reference"].append(
                    self.probe(f"reference {index}", ["-c", REFERENCE_SNIPPET]))
                probes["setup"].append(
                    self.probe(f"setup probe {index}",
                               ["-c", SETUP_SNIPPET, str(self.config_path)]))
            out_dir = self.work / f"cmd{len(runs):03d}"
            log = self.work / f"cmd{len(runs):03d}.log"
            done = spawn([sys.executable, "-m", "nldm.cli", *self.nldm_argv(out_dir, threads)],
                         log, self.deadline)
            self.settle(f"command {len(runs)}", done, out_dir, log)
            runs.append(done)
            rounds.append(time.perf_counter() - begun)
        return runs

    def measure(self, seconds: float) -> tuple[dict, dict]:
        probes = {"reference": [], "setup": []}
        runs = self.command_loop(seconds, self.workload.threads, MIN_COMMANDS, probes)
        walls = [run.wall for run in runs]
        values = {
            "run_rel": statistics.median(
                wall / reference for wall, reference in zip(walls, probes["reference"])
            ),
            "setup_s": statistics.median(probes["setup"]),
            "peak_rss_mb": statistics.median(run.maxrss_mb for run in runs),
        }
        details = {
            "run_s": statistics.median(walls),
            "run_s_samples": walls,
            "run_rel_samples": [w / r for w, r in zip(walls, probes["reference"])],
            "run_cpu_s_samples": [run.cpu_s for run in runs],
            "reference_s_samples": probes["reference"],
            "setup_s_samples": probes["setup"],
            "peak_rss_mb_samples": [run.maxrss_mb for run in runs],
            "quality": self.figures,
        }
        return values, details

    def trace(self, seconds: float) -> tuple[dict, dict]:
        runs = self.command_loop(seconds / 2.0, 1, 1)
        untraced = statistics.median(run.wall for run in runs)
        out_dir = self.work / "traced"
        spans = self.work / "spans.json"
        log = self.work / "traced.log"
        done = spawn([sys.executable, str(BENCH / "tracer.py"), str(spans),
                      *self.nldm_argv(out_dir, 1)], log, self.deadline)
        if done.code != 0 or not spans.exists():
            self.tally.record("traced command", [f"exit code {done.code}",
                                                 log.read_text(errors="replace")[-400:]])
            return dict.fromkeys(PER_LAYER, 0.0), {
                "missing": dict.fromkeys(PER_LAYER, "traced command failed")}
        self.settle("traced command", done, out_dir, log)
        values, reasons = layer_metrics(_read_json(spans), done.spawned, untraced)
        details = {
            "untraced_s_samples": [run.wall for run in runs],
            "traced_wall_s": done.wall,
            "missing": reasons,
            "quality": self.figures,
        }
        return values, details


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "nldm" / "cli.py").is_file():
        raise BenchError(f"no nldm sources under {SRC}")
    deadline = time.perf_counter() + RUN_DEADLINE_S
    env = environment()
    work = ROOT / ".bench_work" / f"{workload.name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = WorkloadRun(workload, seed, work, deadline)
        run.train_model()
        # Untimed: compiles the package's bytecode in a fresh checkout and
        # loads the imports into the page cache before any timing.
        run.probe("warm-up", ["-c", SETUP_SNIPPET, str(run.config_path)])
        if trace:
            values, details = run.trace(seconds)
            units = {name: spec[0] for name, spec in PER_LAYER.items()}
        else:
            values, details = run.measure(seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "loop": f"closed loop, 1 client, 1 nldm process at a time, --threads "
                f"{1 if trace else workload.threads}",
        "env": env,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "failures": run.tally.failures,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "details": details,
    }


def print_result(result: dict) -> None:
    print(f"== {result['workload']}  seed {result['seed']}  ({result['loop']})")
    details = result["details"]
    if "run_s" in details:
        print(f"  {'run_s':32s} {details['run_s']:>14.6g} s  (median of "
              f"{len(details['run_s_samples'])}; not gated)")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = f"{value:.6g}"
        samples = details.get(f"{name}_samples")
        note = f"  (median of {len(samples)})" if samples else ""
        reason = details.get("missing", {})
        if name in reason:
            note = f"  (missing: {reason[name]})"
        print(f"  {name:32s} {shown:>14s} {metric['unit']}{note}")
    figures = details.get("quality")
    for name, unit in QUALITY.items() if figures else ():
        shown = "none" if figures[name] is None else f"{figures[name]:.6g}"
        print(f"  {name:32s} {shown:>14s} {unit}  (result; not gated)")
    share = result["failed"] / result["attempted"]
    print(f"  {'failed_runs':32s} {share:>14.6g} share  "
          f"({result['failed']} of {result['attempted']} processes checked)")
    print("env " + json.dumps(result["env"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result (with samples) here")
    args = parser.parse_args(argv)
    # A terminated benchmark still stops its command and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [
            run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            for name in names
        ]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print_result(result)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": metric
                   for r in results for name, metric in r["metrics"].items()}
    # allow_nan=False: a value JSON cannot carry stops the run loudly.
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
