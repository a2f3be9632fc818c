"""Batch orchestration: dataset, emulator, calibration, predictive, report.

Every run directory receives a config echo, the dataset (when generated),
emulator settings, a posterior-sample directory per calibrator, plot-ready
delimited files, and a ``report.json``. All numeric outputs are
reproducible bit-for-bit from the echoed config and seed on one platform;
wall-clock timing goes to a separate ``timing.json`` so the summary files
stay byte-stable.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import RunConfig
from .design import from_unit
from .diagnostics import coverage_2sd, effective_sample_size, rmse, split_rhat
from .embedded import (
    McmcConfig,
    _conditional_curves,
    _draw_subset,
    delta_field_curves,
    posterior_predictive,
    run_combined,
    run_integrated_delta,
)
from .gp import GPModel, KernelParams, TrainingSet, fit_gp, log_marginal_likelihood, optimize_emulator, predict
from .koh import run_koh
from .samples import PosteriorSamples, save_samples
from .simulators import CalibrationDataset, generate_dataset, load_dataset, save_dataset

__all__ = ["RunReport", "StageError", "orchestrate", "emit_plot_data", "recompute_report"]

REPORT_FORMAT = "driftcal-report v1"
_FMT = "%.17g"
LOW_DRIFT_X = 0.25


class StageError(RuntimeError):
    """Pipeline failure tagged with the stage that raised it."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"[{stage}] {message}")


@dataclass
class RunReport:
    """Per-run summary: fit metrics, chain diagnostics, and output inventory."""

    mode: str
    seed: int
    metrics: dict[str, float] = field(default_factory=dict)
    acceptance: dict[str, float] = field(default_factory=dict)
    rhat: dict[str, float] = field(default_factory=dict)
    ess: dict[str, float] = field(default_factory=dict)
    extrapolation_count: int = 0
    wall_clock_s: float = 0.0
    stage_s: dict[str, float] = field(default_factory=dict)
    # per calibrator: chain count and mean microseconds per step of each block
    block_us: dict[str, dict] = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        body = asdict(self)
        # in timing.json: reports stay byte-stable
        del body["wall_clock_s"], body["stage_s"], body["block_us"]
        body["format"] = REPORT_FORMAT
        return json.dumps(body, indent=2, sort_keys=True) + "\n"


def _stage(name: str):
    def wrap(fn):
        def inner(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except StageError:
                raise
            except Exception as exc:
                raise StageError(name, str(exc)) from exc

        return inner

    return wrap


@_stage("dataset")
def _obtain_dataset(config: RunConfig, out_dir: str, outputs: list[str]) -> CalibrationDataset:
    if config.dataset_path is not None:
        ds = load_dataset(config.dataset_path)
        if ds.dx != 1:
            raise ValueError("grid summaries and plot files require a 1-D domain")
        return ds
    ds = generate_dataset(config.synthetic, config.seed)
    path = os.path.join(out_dir, "dataset.csv")
    save_dataset(ds, path)
    outputs.append(path)
    return ds


@_stage("emulator")
def _train_emulator(config: RunConfig, ds: CalibrationDataset, out_dir: str,
                    outputs: list[str]) -> GPModel:
    train = TrainingSet.from_raw(ds.sim_inputs_unit(), ds.sim_y)
    # the tuner starts at unit variance and lengthscale 0.4 of the unit box in every input
    init = KernelParams(1.0, np.full(train.dim, 0.4), nugget=config.emulator.nugget)
    tuned = optimize_emulator(train, init, budget=config.emulator.budget, seed=config.seed)
    model = fit_gp(train, tuned)
    path = os.path.join(out_dir, "emulator.json")
    body = {
        "format": "driftcal-emulator v1",
        "variance_scale": model.params.variance_scale,
        "lengthscales": model.params.lengthscales.tolist(),
        "nugget": model.params.nugget,
        "log_marginal_likelihood": log_marginal_likelihood(model),
        "n_train": train.n,
        "y_shift": train.shift,
        "y_scale": train.scale,
        "optimizer_budget": config.emulator.budget,
    }
    with open(path, "w") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")
    outputs.append(path)
    return model


def emit_plot_data(samples: PosteriorSamples, grid: np.ndarray, out_dir, emulator,
                   trajectories: int = RunConfig.trajectories,
                   predictive_draws: int | None = McmcConfig.predictive_draws) -> list[str]:
    """Write plot-ready delimited files: predictive bands plus per-field drift bands.

    ``grid`` is a normalized evaluation grid. The drift files carry the
    posterior mean/sd in normalized and physical units plus a configurable
    number of sampled trajectories (conditional-mean curves of strided
    posterior draws, picked among the ``predictive_draws`` ones). The bands
    come from :func:`posterior_predictive` and :func:`delta_field_curves`,
    which return what the sampler's summary pass stored when the grid and
    ``predictive_draws`` are the sampler's. Raises when the sample set holds
    no draws.
    """
    if samples.n_draws == 0:
        raise ValueError("emit_plot_data needs at least one stored draw")
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    os.makedirs(out_dir, exist_ok=True)
    written: list[str] = []

    x_phys = from_unit(grid[:, None], samples.domain_bounds)
    pred = posterior_predictive(samples, emulator, x_phys, max_draws=predictive_draws)
    table = np.column_stack([
        x_phys[:, 0], grid, pred.mean, pred.sd,
        pred.mean - pred.sd, pred.mean + pred.sd,
        pred.mean - 2 * pred.sd, pred.mean + 2 * pred.sd,
    ])
    path = os.path.join(out_dir, "predictive.csv")
    np.savetxt(path, table, fmt=_FMT, delimiter=",",
               header="x,x_norm,mean,sd,lo1,hi1,lo2,hi2", comments="# ")
    written.append(path)

    widths = {name: hi - lo for name, (lo, hi) in zip(samples.param_names, samples.theta_bounds)}
    sel = _draw_subset(samples.n_draws, predictive_draws)
    traj = sel[_draw_subset(sel.size, trajectories)]
    for name in sorted(samples.delta_draws):
        mean, sd = delta_field_curves(samples, name, grid, max_draws=predictive_draws)
        scale = widths.get(name, samples.y_scale)  # additive field scales with y
        cols = [grid, mean, sd, mean * scale, sd * scale]
        cols += list(_conditional_curves(samples.knots, grid[:, None],
                                         samples.delta_draws[name][traj],
                                         samples.hyper_draws[name][traj], variances=False)[0])
        headers = ["x_norm", "mean", "sd", "mean_phys", "sd_phys"]
        headers += [f"traj_{j:03d}" for j in range(traj.size)]
        path = os.path.join(out_dir, f"drift_{name}.csv")
        np.savetxt(path, np.column_stack(cols), fmt=_FMT, delimiter=",",
                   header=",".join(headers), comments="# ")
        written.append(path)
    return written


def _chain_diagnostics(samples: PosteriorSamples) -> tuple[dict, dict]:
    rhat, ess = {}, {}
    for name, trace in samples.scalar_traces().items():
        rhat[name] = split_rhat(samples.per_chain(trace))
        ess[name] = effective_sample_size(trace)
    return rhat, ess


def _calibrator_metrics(prefix: str, samples: PosteriorSamples, emulator,
                        ds: CalibrationDataset, mean, sd) -> dict[str, float]:
    lowx = ds.obs_x_unit()[:, 0] <= LOW_DRIFT_X
    metrics = {
        f"{prefix}rmse_obs": rmse(mean, ds.obs_y),
        f"{prefix}coverage_obs": coverage_2sd(mean, sd, ds.obs_y),
    }
    if lowx.any():
        metrics[f"{prefix}rmse_obs_lowx"] = rmse(mean[lowx], ds.obs_y[lowx])
    if samples.theta_draws is not None:
        # the emulator alone at the posterior-mean constant theta (no discrepancy)
        theta_hat = samples.theta_draws.mean(axis=0)
        Q = np.hstack([ds.obs_x_unit(), np.tile(theta_hat, (ds.n_obs, 1))])
        emulator_only = predict(emulator, Q).mean
        metrics[f"{prefix}rmse_obs_emulator_only"] = rmse(emulator_only, ds.obs_y)
        if lowx.any():
            metrics[f"{prefix}rmse_obs_emulator_only_lowx"] = rmse(emulator_only[lowx],
                                                                    ds.obs_y[lowx])
    return metrics


_RUNNERS = {
    "koh": run_koh,
    "integrated_delta": run_integrated_delta,
    "combined": run_combined,
}


@_stage("calibration")
def _run_calibrator(mode: str, ds, emulator, config: RunConfig, mcmc: McmcConfig,
                    timing: dict):
    return _RUNNERS[mode](ds, emulator, config.priors, mcmc, timing=timing)


@_stage("predictive")
def _emit_outputs(samples, emulator, ds, config, mcmc, sub_dir, outputs) -> tuple:
    """Write the samples, the plot files and ``predictive_obs.csv``; returns its mean and sd."""
    outputs.extend(save_samples(samples, os.path.join(sub_dir, "samples")))
    outputs.extend(
        emit_plot_data(samples, samples.grid, sub_dir, emulator,
                       trajectories=config.trajectories,
                       predictive_draws=mcmc.predictive_draws)
    )
    pred = posterior_predictive(samples, emulator, ds.obs_x, max_draws=mcmc.predictive_draws)
    xcols = ",".join(f"x{j}" for j in range(ds.dx))
    path = os.path.join(sub_dir, "predictive_obs.csv")
    np.savetxt(path, np.column_stack([ds.obs_x, ds.obs_y, pred.mean, pred.sd]), fmt=_FMT,
               delimiter=",", header=f"{xcols},y_obs,pred_mean,pred_sd", comments="# ")
    outputs.append(path)
    return pred.mean, pred.sd


def _lap(stages: dict[str, float], name: str, since: float) -> float:
    """Record the wall time of stage ``name`` begun at ``since``; returns now."""
    now = time.perf_counter()
    stages[name] = now - since
    return now


def orchestrate(config: RunConfig) -> RunReport:
    """Execute a full run per the configuration and write the run directory.

    Stages: dataset (load or generate), emulator training, calibration
    (one or both formulations), predictive outputs, report. Raises
    :class:`StageError` on the first failing stage.
    """
    t0 = time.perf_counter()
    out_dir = config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    report = RunReport(mode=config.mode, seed=config.seed)

    echo_path = os.path.join(out_dir, "config_echo.json")
    with open(echo_path, "w") as fh:
        json.dump(config.raw, fh, indent=2, sort_keys=True)
        fh.write("\n")
    report.outputs.append(echo_path)

    ds = _obtain_dataset(config, out_dir, report.outputs)
    t = _lap(report.stage_s, "dataset", t0)
    report.metrics["n_obs"] = float(ds.n_obs)
    report.metrics["n_sim"] = float(ds.n_sim)

    if config.mode == "generate":
        _finish(report, out_dir, t0)
        return report

    emulator = _train_emulator(config, ds, out_dir, report.outputs)
    t = _lap(report.stage_s, "emulator", t)
    if config.mode == "fit_emulator":
        _finish(report, out_dir, t0)
        return report

    modes = ["koh", "integrated_delta"] if config.mode == "compare" else [config.mode]
    for mode in modes:
        mcmc = config.mcmc
        if mode == "koh" and config.koh_mcmc is not None:
            mcmc = config.koh_mcmc
        samples = _run_calibrator(mode, ds, emulator, config, mcmc,
                                  report.block_us.setdefault(mode, {}))
        t = _lap(report.stage_s, f"calibration:{mode}", t)
        sub_dir = os.path.join(out_dir, mode) if config.mode == "compare" else out_dir
        os.makedirs(sub_dir, exist_ok=True)
        mean, sd = _emit_outputs(samples, emulator, ds, config, mcmc, sub_dir, report.outputs)

        prefix = f"{mode}." if config.mode == "compare" else ""
        report.metrics.update(_calibrator_metrics(prefix, samples, emulator, ds, mean, sd))
        rhat, ess = _chain_diagnostics(samples)
        report.acceptance.update({f"{prefix}{k}": v for k, v in samples.acceptance_rates.items()})
        report.rhat.update({f"{prefix}{k}": v for k, v in rhat.items()})
        report.ess.update({f"{prefix}{k}": v for k, v in ess.items()})
        report.extrapolation_count += samples.extrapolation_count
        t = _lap(report.stage_s, f"outputs:{mode}", t)

    if config.mode == "compare":
        koh_eta = report.metrics.get("koh.rmse_obs_emulator_only_lowx")
        id_full = report.metrics.get("integrated_delta.rmse_obs_lowx")
        if koh_eta is not None and id_full not in (None, 0.0):
            report.metrics["lowx_rmse_ratio"] = koh_eta / id_full

    _finish(report, out_dir, t0)
    return report


def _finish(report: RunReport, out_dir: str, t0: float) -> None:
    for key, val in report.metrics.items():
        if "coverage" in key and not 0.0 <= val <= 1.0:
            raise StageError("report", f"metric {key} outside [0, 1]: {val}")
    for key, val in report.acceptance.items():
        if not 0.0 <= val <= 1.0:
            raise StageError("report", f"acceptance rate {key} outside [0, 1]: {val}")
    report.wall_clock_s = time.perf_counter() - t0
    # record outputs relative to the run directory: reports stay identical
    # across reruns into different locations
    report.outputs = sorted(
        os.path.relpath(p, out_dir).replace(os.sep, "/") for p in report.outputs
    )
    report_path = os.path.join(out_dir, "report.json")
    with open(report_path, "w") as fh:
        fh.write(report.to_json())
    report.outputs.append("report.json")
    with open(os.path.join(out_dir, "timing.json"), "w") as fh:
        json.dump({"wall_clock_s": report.wall_clock_s, "stage_s": report.stage_s,
                   "block_us": report.block_us}, fh)
        fh.write("\n")


def _read_predictive(path: str) -> list[np.ndarray]:
    """The ``y_obs``, ``pred_mean`` and ``pred_sd`` columns of a ``predictive_obs.csv``.

    Columns are found by the header names :func:`_emit_outputs` writes;
    a file whose first line does not name them, or that has no rows, a row
    of another width or a cell that is not a number, raises a
    :class:`StageError`.
    """
    with open(path) as fh:
        header, *lines = [line for line in fh.read().splitlines() if line.strip()] or [""]
    names = [name.strip() for name in header.lstrip("#").split(",")]
    wanted = ("y_obs", "pred_mean", "pred_sd")
    missing = [name for name in wanted if name not in names]
    if missing:
        raise StageError("report", f"{path}: the header names no {', '.join(missing)} column")
    if not lines:
        raise StageError("report", f"{path}: a header and no rows")
    rows = []
    for number, line in enumerate(lines, start=1):
        cells = line.split(",")
        if len(cells) != len(names):
            raise StageError("report", f"{path}: row {number} has {len(cells)} cells, "
                                       f"the header names {len(names)} columns")
        try:
            rows.append([float(cell) for cell in cells])
        except ValueError as exc:
            raise StageError("report", f"{path}: row {number}: {exc}") from exc
    table = np.array(rows)
    return [table[:, names.index(name)] for name in wanted]


def recompute_report(run_dir: str) -> dict[str, float]:
    """Recompute fit metrics from the emitted predictive files of a run directory.

    Walks the directory (including compare-mode subdirectories), reads each
    ``predictive_obs.csv``, and recomputes RMSE and coverage from the file
    contents alone. A malformed file raises a :class:`StageError`.
    """
    out: dict[str, float] = {}
    for root, _dirs, files in os.walk(run_dir):
        if "predictive_obs.csv" not in files:
            continue
        y_obs, mean, sd = _read_predictive(os.path.join(root, "predictive_obs.csv"))
        rel = os.path.relpath(root, run_dir)
        prefix = "" if rel == "." else f"{rel.replace(os.sep, '/')}."
        out[f"{prefix}rmse_obs"] = rmse(mean, y_obs)
        out[f"{prefix}coverage_obs"] = coverage_2sd(mean, sd, y_obs)
    return out
