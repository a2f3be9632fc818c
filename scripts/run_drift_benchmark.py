#!/usr/bin/env python3
"""Benchmark the two calibration formulations on the synthetic dipole drift problem.

Runs the headline config ``configs/dipole_compare.json`` (a 43-run /
5-observation dataset whose first two parameters drift toward the
small-separation end of the domain): trains the emulator, runs both
calibrators, and prints the headline comparison: full predictive fit for
each, and the emulator-only error of the single-theta baseline in the
high-drift region against the embedded formulation.

Usage:
    python scripts/run_drift_benchmark.py --out runs/benchmark --seed 0
"""

import argparse
import json
import sys
from pathlib import Path

from driftcal.config import parse_config
from driftcal.runner import orchestrate

HEADLINE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "dipole_compare.json"


def benchmark_config(out_dir: str, seed: int, iterations: int | None = None) -> dict:
    """The headline config with ``out_dir`` and ``seed`` replaced.

    ``iterations``, when given, sets the embedded chains' iteration count and
    scales the baseline's by the same factor; burn-in and thinning are kept.
    """
    config = json.loads(HEADLINE_CONFIG.read_text())
    config["out_dir"] = out_dir
    config["seed"] = seed
    if iterations is not None:
        scale = iterations / config["mcmc"]["iterations"]
        config["mcmc"]["iterations"] = iterations
        config["koh"]["iterations"] = round(scale * config["koh"]["iterations"])
    return config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="runs/drift_benchmark")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--iterations", type=int, default=None,
                        help="embedded-chain iterations, the baseline's scaled alike "
                             "(default: the config's)")
    args = parser.parse_args(argv)

    config = parse_config(json.dumps(benchmark_config(args.out, args.seed, args.iterations)))
    report = orchestrate(config)

    m = report.metrics
    print(f"\nrun directory: {args.out}")
    print(f"embedded-drift predictive RMSE at observations:  {m['integrated_delta.rmse_obs']:.4f}")
    print(f"baseline (eta + delta) predictive RMSE:          {m['koh.rmse_obs']:.4f}")
    print(f"baseline emulator-only RMSE, high-drift region:  "
          f"{m['koh.rmse_obs_emulator_only_lowx']:.4f}")
    print(f"embedded-drift RMSE, high-drift region:          "
          f"{m['integrated_delta.rmse_obs_lowx']:.4f}")
    print(f"high-drift RMSE ratio (baseline eta-only / embedded): "
          f"{m['lowx_rmse_ratio']:.1f}x")
    print(f"emulator extrapolations beyond the training box: {report.extrapolation_count}")
    print(f"wall clock: {report.wall_clock_s:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
