"""Posterior sample storage and its versioned on-disk format.

A sample set serializes to a directory: ``meta.json`` plus one delimited
file per stored quantity (delta knot draws per field, hyperparameters,
noise variance, optional theta draws) and a ``summary.csv`` with grid
means/sds. Both calibrators emit this same layout.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

SAMPLES_FORMAT = "driftcal-samples v1"

_FLOAT_FMT = "%.17g"


@dataclass
class PosteriorSamples:
    """Stored MCMC draws plus the metadata needed to interpret them.

    Delta knot values are kept in normalized units (theta-box units for the
    per-parameter fields, standardized-y units for an additive "eta" field);
    ``sigma2_draws`` is observation noise variance in standardized-y units.
    Draws from multiple chains are stacked chain-major with equal lengths.
    """

    kind: str
    param_names: tuple[str, ...]
    knots: np.ndarray
    delta_draws: dict[str, np.ndarray]
    hyper_draws: dict[str, np.ndarray]
    sigma2_draws: np.ndarray
    theta_draws: np.ndarray | None
    base_theta: np.ndarray
    acceptance_rates: dict[str, float]
    chains: int
    domain_bounds: tuple[tuple[float, float], ...]
    theta_bounds: tuple[tuple[float, float], ...]
    y_shift: float
    y_scale: float
    grid: np.ndarray
    summaries: dict[str, np.ndarray] = field(default_factory=dict)
    extrapolation_count: int = 0
    extrapolation_max_distance: float = 0.0
    seed: int = 0
    # reduced grid summaries already computed from these draws, keyed by what
    # they read (see driftcal.embedded._remembered); never saved
    _summary_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.sigma2_draws = np.atleast_1d(np.asarray(self.sigma2_draws, dtype=float))
        t = self.n_draws
        for name, arr in self.delta_draws.items():
            if arr.shape[0] != t:
                raise ValueError(f"delta draws for {name!r} have {arr.shape[0]} rows, expected {t}")
        for name, arr in self.hyper_draws.items():
            if arr.shape[0] != t:
                raise ValueError(f"hyper draws for {name!r} have {arr.shape[0]} rows, expected {t}")
        if self.theta_draws is not None and self.theta_draws.shape[0] != t:
            raise ValueError("theta draws row count mismatch")
        for name, rate in self.acceptance_rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"acceptance rate for {name!r} outside [0, 1]: {rate}")
        if self.chains < 1 or t % self.chains != 0:
            raise ValueError("draw count must split evenly across chains")

    @property
    def n_draws(self) -> int:
        return int(self.sigma2_draws.size)

    def per_chain(self, values: np.ndarray) -> np.ndarray:
        """Reshape stacked draws to (chains, per_chain, ...)."""
        per = self.n_draws // self.chains
        return values.reshape(self.chains, per, *values.shape[1:])

    def scalar_traces(self) -> dict[str, np.ndarray]:
        """Named scalar chains used for convergence diagnostics."""
        out = {"sigma2": self.sigma2_draws}
        for name, arr in self.hyper_draws.items():
            out[f"variance:{name}"] = arr[:, 0]
            out[f"lengthscale:{name}"] = arr[:, 1]
            for j in range(1, arr.shape[1] - 1):
                out[f"lengthscale{j}:{name}"] = arr[:, 1 + j]
        if self.theta_draws is not None:
            for k in range(self.theta_draws.shape[1]):
                pname = self.param_names[k] if k < len(self.param_names) else f"theta{k}"
                out[f"theta:{pname}"] = self.theta_draws[:, k]
        return out


def save_samples(samples: PosteriorSamples, out_dir) -> list[str]:
    """Write a sample directory; returns the created file paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def _write(name: str, arr: np.ndarray, header: str) -> None:
        path = os.path.join(out_dir, name)
        np.savetxt(path, np.atleast_2d(arr), fmt=_FLOAT_FMT, delimiter=",",
                   header=header, comments="# ")
        written.append(path)

    meta = {
        "format": SAMPLES_FORMAT,
        "kind": samples.kind,
        "param_names": list(samples.param_names),
        "chains": samples.chains,
        "n_draws": samples.n_draws,
        "base_theta": samples.base_theta.tolist(),
        "domain_bounds": [list(b) for b in samples.domain_bounds],
        "theta_bounds": [list(b) for b in samples.theta_bounds],
        "y_shift": samples.y_shift,
        "y_scale": samples.y_scale,
        "acceptance_rates": samples.acceptance_rates,
        "extrapolation_count": samples.extrapolation_count,
        "extrapolation_max_distance": samples.extrapolation_max_distance,
        "seed": samples.seed,
        "delta_fields": sorted(samples.delta_draws),
        "has_theta_draws": samples.theta_draws is not None,
    }
    meta_path = os.path.join(out_dir, "meta.json")
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(meta_path)

    _write("knots.csv", samples.knots, "knot locations (normalized x)")
    _write("grid.csv", samples.grid[:, None], "evaluation grid (normalized x)")
    for name in sorted(samples.delta_draws):
        _write(f"delta_{name}.csv", samples.delta_draws[name], f"delta knot draws: {name}")
    for name in sorted(samples.hyper_draws):
        _write(f"hyper_{name}.csv", samples.hyper_draws[name],
               f"hyperparameter draws (variance, lengthscale): {name}")
    _write("sigma2.csv", samples.sigma2_draws[:, None], "noise variance draws (standardized y)")
    if samples.theta_draws is not None:
        _write("theta.csv", samples.theta_draws, "theta draws (normalized units)")
    if samples.summaries:
        names = sorted(samples.summaries)
        table = np.column_stack([samples.summaries[n] for n in names])
        _write("summary.csv", table, ",".join(names))
    return written


def load_samples(in_dir) -> PosteriorSamples:
    """Read a sample directory written by :func:`save_samples`."""
    with open(os.path.join(in_dir, "meta.json")) as fh:
        meta = json.load(fh)
    if meta.get("format") != SAMPLES_FORMAT:
        raise ValueError(f"unrecognized samples format tag {meta.get('format')!r}")

    def _read(name: str) -> np.ndarray:
        return np.loadtxt(os.path.join(in_dir, name), delimiter=",", comments="#", ndmin=2)

    delta = {n: _read(f"delta_{n}.csv") for n in meta["delta_fields"]}
    hyper = {n: _read(f"hyper_{n}.csv") for n in meta["delta_fields"]}
    summaries: dict[str, np.ndarray] = {}
    summary_path = os.path.join(in_dir, "summary.csv")
    if os.path.exists(summary_path):
        with open(summary_path) as fh:
            names = fh.readline().lstrip("# ").strip().split(",")
        table = _read("summary.csv")
        summaries = {n: table[:, j] for j, n in enumerate(names)}
    theta = _read("theta.csv") if meta["has_theta_draws"] else None
    return PosteriorSamples(
        kind=meta["kind"],
        param_names=tuple(meta["param_names"]),
        knots=_read("knots.csv"),
        delta_draws=delta,
        hyper_draws=hyper,
        sigma2_draws=_read("sigma2.csv").ravel(),
        theta_draws=theta,
        base_theta=np.asarray(meta["base_theta"], dtype=float),
        acceptance_rates=dict(meta["acceptance_rates"]),
        chains=int(meta["chains"]),
        domain_bounds=tuple(tuple(b) for b in meta["domain_bounds"]),
        theta_bounds=tuple(tuple(b) for b in meta["theta_bounds"]),
        y_shift=float(meta["y_shift"]),
        y_scale=float(meta["y_scale"]),
        grid=_read("grid.csv").ravel(),
        summaries=summaries,
        extrapolation_count=int(meta["extrapolation_count"]),
        extrapolation_max_distance=float(meta["extrapolation_max_distance"]),
        seed=int(meta["seed"]),
    )
