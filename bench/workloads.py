"""The workloads: experiment configs, CLI commands, expected outputs.

Each workload is one ``nldm`` command on one config.  The benchmark seed
reaches the program only as ``--seed``, which picks the noise drawn for
every training series that has no explicit noise seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Acceptance-09 setup: a stable origin inside a stable cycle of radius 2.
_CYCLE_TRAIN_POLAR = [
    (0.2, 1.0), (0.35, 2.5), (0.5, 0.0), (0.5, 2.094), (0.5, 4.189),
    (0.7, 3.8), (0.9, 5.5), (0.9, 1.8),
    (1.2, 0.6), (1.6, 3.2),
    *[(3.1, k * math.pi / 5.0) for k in range(10)],
    (2.5, 0.9), (2.5, 4.0),
]
_CYCLE_PROBES_POLAR = [
    (3.0, 4 * math.pi / 3.0), (3.0, 0.7), (0.5, math.pi / 6.0), (0.5, 3.5),
]

# Grids are coarser than the pinned README scan (100) so that one command
# lasts a few seconds and a run of fixed length collects several of them.
BISTABLE_RESOLUTION = 30
CYCLE_RESOLUTION = 12

# Acceptance-08 floor for the learned bistable basin map.
BISTABLE_AGREEMENT_FLOOR = 0.90


def _polar(radius, angle):
    return [radius * math.cos(angle), radius * math.sin(angle)]


def _series(ic, samples, noisy):
    entry = {"ic": list(ic), "t_span": [0.0, 10.0], "num_samples": samples}
    if noisy:
        entry["noise"] = {"sigma_pct": 0.1}
    return entry


def bistable_config():
    """Acceptance-08 training series with the README's test probe and scan.

    The 0.90 agreement floor checked on this workload is acceptance 08's
    claim, made for these ten series; the README's six-series config fell
    below it on 1 of 54 seeds tried (0.884 at seed 105).
    """
    train = [
        _series(ic, 2000, True)
        for ic in ([-3.0, 3.0], [-3.0, -3.0], [3.0, 3.0], [3.0, -3.0],
                   [-3.0, 0.3], [3.0, -0.3], [-0.2, 3.0], [0.2, 3.0],
                   [-0.2, -3.0], [0.2, -3.0])
    ]
    return {
        "system": {"ident": "two_attractor"},
        "model": {"delays": 2, "degree": 3},
        "train": train,
        "test": [_series([0.025, 1.0], 2000, False)],
        "basin": {"window": [[-3.0, 3.0], [-3.0, 3.0]],
                  "resolution": BISTABLE_RESOLUTION, "steps": 2000},
        "global_seed": 7,
    }


def cycle_model_config():
    """Acceptance-09 training series and probes, no basin section.

    ``cycle_basin`` trains its model on this config in set-up.
    """
    return {
        "system": {"ident": "dual_limit_cycle"},
        "model": {"delays": 5, "degree": 2},
        "train": [_series(_polar(r, a), 1000, True) for r, a in _CYCLE_TRAIN_POLAR],
        "test": [_series(_polar(r, a), 1000, False) for r, a in _CYCLE_PROBES_POLAR],
        "global_seed": 0,
    }


def cycle_basin_config():
    config = cycle_model_config()
    config["basin"] = {"window": [[-3.0, 3.0], [-3.0, 3.0]],
                       "resolution": CYCLE_RESOLUTION, "steps": 1000}
    return config


def pipeline_artifacts(config) -> set[str]:
    """Files ``nldm run`` writes for ``config``."""
    names = {"manifest.json", "model.txt", "train_metrics.json"}
    for role in ("train", "test"):
        for index, entry in enumerate(config.get(role, [])):
            names.add(f"{role}_{index:02d}_clean.csv")
            if "noise" in entry:
                names.add(f"{role}_{index:02d}_noisy.csv")
    if config.get("test"):
        names.add("scores.json")
        names.update(f"predicted_test_{i:02d}.csv" for i in range(len(config["test"])))
    if "basin" in config:
        names.update({"basin_truth.csv", "basin_operator.csv", "agreement.json"})
    return names


BASIN_ARTIFACTS = {"manifest.json", "basin_truth.csv", "basin_operator.csv", "agreement.json"}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``command`` lists the ``nldm`` arguments after the subcommand's
    ``--config``/``--out``/``--seed``.  With ``model_config`` set, set-up
    first trains a model with ``nldm train`` on it and the command reads
    that model with ``--model``.
    """

    name: str
    why: str
    config: dict
    command: tuple[str, ...]
    threads: int
    artifacts: frozenset
    model_config: dict | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bistable_basin",
            why="full run led by the 2-process truth grid and an operator grid whose "
            "cells all settle by step 1000 of 2000",
            config=bistable_config(),
            command=("run",),
            threads=2,
            artifacts=frozenset(pipeline_artifacts(bistable_config())),
        ),
        Workload(
            name="cycle_basin",
            why="single-process basin scan from a saved 65-feature model: costly "
            "truth cells and operator cells that almost never settle",
            config=cycle_basin_config(),
            command=("basin",),
            threads=1,
            artifacts=frozenset(BASIN_ARTIFACTS),
            model_config=cycle_model_config(),
        ),
    )
}
