"""Command-line front door.

Subcommands: ``generate`` (write a synthetic dataset), ``fit-emulator``
(train and record the emulator), ``calibrate`` (run the mode named in the
config), ``compare`` (run the embedded calibrator and the baseline, both on
the one sampler engine, and report the benchmark), and ``report``
(recompute metrics from an existing run directory's emitted files).
``--seed`` and ``--out`` override the config; the environment variable
``DRIFTCAL_THREADS`` caps chain-level parallelism for every calibrator.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .config import ConfigError, parse_config
from .runner import StageError, orchestrate, recompute_report


def _load_config(args, forced_mode: str | None):
    with open(args.config) as fh:
        config = parse_config(fh.read())
    if forced_mode is not None and config.mode != forced_mode:
        config = replace(config, mode=forced_mode)
    if args.seed is not None:
        config = replace(
            config,
            seed=args.seed,
            mcmc=replace(config.mcmc, seed=args.seed),
            koh_mcmc=(
                replace(config.koh_mcmc, seed=args.seed + 1_000_003)
                if config.koh_mcmc is not None else None
            ),
        )
    if args.out is not None:
        config = replace(config, out_dir=args.out)
    return config


def _cmd_run(args, forced_mode: str | None) -> int:
    config = _load_config(args, forced_mode)
    if forced_mode is None and config.mode not in ("koh", "integrated_delta", "combined"):
        raise ConfigError(
            [("mode", f"'calibrate' needs mode koh/integrated_delta/combined, got {config.mode!r}")]
        )
    report = orchestrate(config)
    print(f"mode={report.mode} seed={report.seed} out={config.out_dir}")
    for key in sorted(report.metrics):
        print(f"  {key} = {report.metrics[key]:.6g}")
    if report.extrapolation_count:
        print(f"  emulator extrapolations beyond training box: {report.extrapolation_count}")
    print(f"  wall clock: {report.wall_clock_s:.2f} s")
    return 0


def _cmd_report(args) -> int:
    metrics = recompute_report(args.out)
    if not metrics:
        print(f"no predictive_obs.csv files found under {args.out}", file=sys.stderr)
        return 1
    print(json.dumps(metrics, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftcal",
        description="Bayesian calibration with embedded parameter-drift fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_command(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
        return p

    add_run_command("generate", "generate a synthetic dataset file")
    add_run_command("fit-emulator", "train the emulator and record its settings")
    add_run_command("calibrate", "run the calibrator selected by the config mode")
    add_run_command("compare", "run both calibrators and report the benchmark")

    p = sub.add_parser("report", help="recompute metrics from an existing run directory")
    p.add_argument("--out", required=True, help="run directory to recompute")
    return parser


_FORCED_MODE = {
    "generate": "generate",
    "fit-emulator": "fit_emulator",
    "calibrate": None,       # use the mode from the config
    "compare": "compare",
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return _cmd_report(args)
        return _cmd_run(args, _FORCED_MODE[args.command])
    except ConfigError as exc:
        print("configuration errors:", file=sys.stderr)
        for path, msg in exc.errors:
            print(f"  {path}: {msg}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
