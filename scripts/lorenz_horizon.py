#!/usr/bin/env python3
"""Short-horizon forecasts of the chaotic three-variable convection model.

Five trajectories train a delay-3 quadratic operator; a held-out start
is forecast over the same ten-second window.  The integrator tolerance
is deliberately moderate: on chaotic data the sampling error acts as a
regularizer, and integrating much more tightly makes the iterated map
unstable while much more loosely degrades the fit.
"""

import argparse
from pathlib import Path

from nldm import (
    FeatureConfig,
    IntegratorSettings,
    integrate,
    make_system,
    rrmse,
    save_model,
    train,
    write_json,
)
from nldm.predict import predict

TRAIN_ICS = [
    (0.0, 1.0, 1.05),
    (3.0, 3.0, 5.0),
    (-10.0, -10.0, 2.0),
    (-10.0, -1.0, 2.0),
    (20.0, 10.0, 10.0),
]
TEST_IC = (5.0, 1.0, 6.0)
SPAN = (0.0, 10.0)
SAMPLES = 4000


def run(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    system = make_system("lorenz")
    settings = IntegratorSettings(rel_tol=args.rel_tol, abs_tol=args.abs_tol)

    trajectories = [
        integrate(system, ic, SPAN, SAMPLES, settings) for ic in TRAIN_ICS
    ]
    result = train(trajectories, FeatureConfig(3, 3, 2))
    save_model(out / "model.txt", result.operator)
    train_scores = result.operator.training_summary.per_trajectory_rrmse
    for ic, score in zip(TRAIN_ICS, train_scores):
        print(f"train {ic}: rrmse {score:.3e}")

    reference = integrate(system, TEST_IC, SPAN, SAMPLES, settings)
    prediction = predict(result.operator, reference.states[:3], SAMPLES - 3)
    test_score = rrmse(prediction.trajectory, reference, skip=3).mean_rrmse
    print(f"train mean rrmse {result.mean_rrmse:.3e}")
    print(f"test {TEST_IC}: rrmse {test_score:.3e}")

    write_json(
        out / "summary.json",
        {
            "system": "lorenz",
            "rel_tol": args.rel_tol,
            "abs_tol": args.abs_tol,
            "per_trajectory_rrmse": train_scores,
            "train_mean_rrmse": result.mean_rrmse,
            "test_rrmse": test_score,
        },
    )
    print(f"artifacts in {out}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="runs/lorenz_horizon")
    parser.add_argument("--rel-tol", type=float, default=5e-7)
    parser.add_argument("--abs-tol", type=float, default=5e-10)
    run(parser.parse_args())


if __name__ == "__main__":
    main()
