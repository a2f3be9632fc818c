"""Baseline calibrator: single theta plus an additive output-discrepancy GP.

The observation model is y_i = eta(x_i, theta) + delta(x_i) + e_i with one
calibration-parameter vector shared across the domain and a zero-mean GP
discrepancy represented at the observation inputs. Sampling mirrors the
embedded calibrator (MH blocks with adaptive steps, conjugate Gibbs noise
update) so the two formulations are compared on equal footing.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .design import from_unit, to_unit
from .embedded import (
    CalibrationPriors,
    DiscrepancyField,
    McmcConfig,
    StepAdapter,
    _BlockStats,
    _build_knots,
    _attach_summaries,
    _box_distances,
    _field_params,
    _hyper_logprior,
    _hyper_proposal,
    _hyper_vector,
    _knot_chol,
    _mvn_logpdf_zero,
    _n_workers,
    _predict_std,
    gaussian_loglik,
    gibbs_sigma2,
    mh_accept,
)
from .gp import KernelParams
from .samples import PosteriorSamples
from .simulators import CalibrationDataset

__all__ = ["KohState", "koh_log_posterior", "run_koh"]


@dataclass
class KohState:
    """MCMC state of the baseline calibrator.

    ``theta`` lives on the normalized unit box (hard support: proposals
    outside the prior domain are rejected); ``delta_knots`` holds the
    discrepancy values at the observation inputs in standardized-y units.
    """

    theta: np.ndarray
    delta_knots: np.ndarray
    eta_params: KernelParams
    delta_params: KernelParams
    noise_var: float
    log_post: float = 0.0

    def __post_init__(self) -> None:
        self.theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        self.delta_knots = np.atleast_1d(np.asarray(self.delta_knots, dtype=float))
        if not self.noise_var > 0:
            raise ValueError("noise_var must be positive")


def _theta_support_ok(theta_unit: np.ndarray, priors: CalibrationPriors, theta_bounds) -> bool:
    if np.any(theta_unit < 0.0) or np.any(theta_unit > 1.0):
        return False
    if priors.theta is None:
        return True
    phys = from_unit(theta_unit[None, :], theta_bounds)[0]
    return all(math.isfinite(p.logpdf(v)) for p, v in zip(priors.theta, phys))


def _theta_logprior(theta_unit: np.ndarray, priors: CalibrationPriors, theta_bounds) -> float:
    if np.any(theta_unit < 0.0) or np.any(theta_unit > 1.0):
        return -math.inf
    if priors.theta is None:
        return 0.0
    phys = from_unit(theta_unit[None, :], theta_bounds)[0]
    return float(sum(p.logpdf(v) for p, v in zip(priors.theta, phys)))


def koh_log_posterior(
    state: KohState,
    data: CalibrationDataset,
    emulator,
    priors: CalibrationPriors,
    knots: np.ndarray | None = None,
) -> float:
    """Log-posterior of the baseline model; -inf encodes out-of-support theta.

    The discrepancy knots default to the (deduplicated) observation inputs.
    """
    tp = _theta_logprior(state.theta, priors, data.theta_bounds)
    if not math.isfinite(tp):
        return -math.inf
    x_unit = data.obs_x_unit()
    if knots is None:
        knots, obs_idx = _build_knots(data, 0)
    else:
        obs_idx = np.array(
            [int(np.where(np.all(knots == row, axis=1))[0][0]) for row in x_unit]
        )
    field = DiscrepancyField(knots, state.delta_knots, state.delta_params)

    Q = np.hstack([x_unit, np.tile(state.theta, (x_unit.shape[0], 1))])
    mean, var = _predict_std(emulator, Q)
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(var))):
        return -math.inf
    shift = getattr(emulator, "y_shift", 0.0)
    scale = getattr(emulator, "y_scale", 1.0)
    y_std = (data.obs_y - shift) / scale
    total = gaussian_loglik(
        y_std - mean - state.delta_knots[obs_idx], state.noise_var + var
    )
    total += field.log_prior()
    total += _hyper_logprior(
        _hyper_vector(state.delta_params), priors.eta_variance, priors.eta_lengthscale
    )
    total += priors.noise.logpdf(state.noise_var)
    total += tp
    return total


class _KohChain:
    def __init__(self, data, emulator, priors, config, rng, knots, obs_idx):
        self.data = data
        self.emulator = emulator
        self.priors = priors
        self.cfg = config
        self.rng = rng
        self.knots = knots
        self.obs_idx = obs_idx

        self.x_obs_unit = data.obs_x_unit()
        shift = getattr(emulator, "y_shift", 0.0)
        scale = getattr(emulator, "y_scale", 1.0)
        self.y_std = (data.obs_y - shift) / scale
        self.dtheta = data.dtheta

        if config.theta0 is not None:
            self.theta = to_unit(np.asarray(config.theta0, float)[None, :], data.theta_bounds)[0]
        elif priors.theta is not None:
            med = np.array([p.median() for p in priors.theta])
            self.theta = to_unit(med[None, :], data.theta_bounds)[0]
        else:
            self.theta = np.full(self.dtheta, 0.5)

        dx = knots.shape[1]
        self.diff_kk = knots[:, None, :] - knots[None, :, :]
        self.delta_hyper = np.r_[priors.eta_variance.median(),
                                 np.full(dx, priors.eta_lengthscale.median())]
        self.delta_values = np.zeros(len(knots))
        self.delta_chol = _knot_chol(self.diff_kk, self.delta_hyper)
        s0 = priors.noise.mean()
        self.sigma2 = s0 if math.isfinite(s0) else priors.noise.median()

        self.blocks = ["theta", "delta:eta", "hyper:eta"]
        self.adapters = {b: StepAdapter(config.initial_step, config.adapt_target)
                         for b in self.blocks}
        # theta moves on the unit box; a full-box step would mix poorly
        self.adapters["theta"].step = min(config.initial_step, 0.15)
        self.stats = {b: _BlockStats() for b in self.blocks}
        self.extrap_count = 0
        self.extrap_max = 0.0

        self._init_parts()

    def _emulate(self, Q):
        mean, var = _predict_std(self.emulator, Q)
        d = _box_distances(Q)
        n_out = int(np.count_nonzero(d > 0))
        if n_out:
            self.extrap_count += n_out
            self.extrap_max = max(self.extrap_max, float(d.max()))
        ok = bool(np.isfinite(mean).all() and np.isfinite(var).all())
        return mean, var, ok

    def _init_parts(self):
        Q = np.hstack([self.x_obs_unit, np.tile(self.theta, (self.x_obs_unit.shape[0], 1))])
        mean, var, ok = self._emulate(Q)
        if not ok:
            raise RuntimeError("non-finite emulator output at initialization")
        self.emu_mean, self.emu_var = mean, var
        self.loglik = gaussian_loglik(
            self.y_std - mean - self.delta_values[self.obs_idx], self.sigma2 + var
        )
        self.field_prior = _mvn_logpdf_zero(self.delta_values, self.delta_chol)
        self.hyper_prior = _hyper_logprior(
            self.delta_hyper, self.priors.eta_variance, self.priors.eta_lengthscale
        )
        self.sigma2_prior = self.priors.noise.logpdf(self.sigma2)
        self.theta_prior = _theta_logprior(self.theta, self.priors, self.data.theta_bounds)
        if not math.isfinite(self.total()):
            raise RuntimeError("non-finite log posterior at initialization")

    def total(self) -> float:
        return (self.loglik + self.field_prior + self.hyper_prior
                + self.sigma2_prior + self.theta_prior)

    def snapshot(self) -> KohState:
        delta_params = _field_params(self.delta_hyper)
        return KohState(
            theta=self.theta.copy(),
            delta_knots=self.delta_values.copy(),
            eta_params=getattr(self.emulator, "params", delta_params),
            delta_params=delta_params,
            noise_var=self.sigma2,
            log_post=self.total(),
        )

    def _track(self, name, accepted, adapting):
        if adapting:
            self.adapters[name].update(accepted)
        else:
            st = self.stats[name]
            st.proposed += 1
            st.accepted += accepted

    def _update_theta(self, adapting):
        step = self.adapters["theta"].step
        theta_new = self.theta + step * self.rng.standard_normal(self.dtheta)
        tp_new = _theta_logprior(theta_new, self.priors, self.data.theta_bounds)
        accepted = False
        if math.isfinite(tp_new):
            Q = np.hstack([self.x_obs_unit, np.tile(theta_new, (self.x_obs_unit.shape[0], 1))])
            mean, var, ok = self._emulate(Q)
            if ok:
                loglik_new = gaussian_loglik(
                    self.y_std - mean - self.delta_values[self.obs_idx], self.sigma2 + var
                )
                delta = (loglik_new + tp_new) - (self.loglik + self.theta_prior)
                accepted = mh_accept(delta, 0.0, self.rng)
                if accepted:
                    self.theta = theta_new
                    self.emu_mean, self.emu_var = mean, var
                    self.loglik = loglik_new
                    self.theta_prior = tp_new
        self._track("theta", accepted, adapting)

    def _update_delta(self, adapting):
        z = self.rng.standard_normal(len(self.delta_values))
        vals_new = self.delta_values + self.adapters["delta:eta"].step * (self.delta_chol @ z)
        loglik_new = gaussian_loglik(
            self.y_std - self.emu_mean - vals_new[self.obs_idx], self.sigma2 + self.emu_var
        )
        fp_new = _mvn_logpdf_zero(vals_new, self.delta_chol)
        delta = (loglik_new + fp_new) - (self.loglik + self.field_prior)
        accepted = mh_accept(delta, 0.0, self.rng)
        if accepted:
            self.delta_values = vals_new
            self.loglik = loglik_new
            self.field_prior = fp_new
        self._track("delta:eta", accepted, adapting)

    def _update_hyper(self, adapting):
        prop = _hyper_proposal(
            self.rng, self.delta_hyper, self.adapters["hyper:eta"].step, self.diff_kk,
            self.delta_values, self.field_prior, self.hyper_prior,
            self.priors.eta_variance, self.priors.eta_lengthscale,
        )
        accepted = prop is not None and mh_accept(prop[0], 0.0, self.rng)
        if accepted:
            _, self.delta_hyper, self.delta_chol, self.field_prior, self.hyper_prior = prop
        self._track("hyper:eta", accepted, adapting)

    def _gibbs_sigma2(self):
        resid = self.y_std - self.emu_mean - self.delta_values[self.obs_idx]
        self.sigma2 = gibbs_sigma2(resid, self.priors.noise, self.rng)
        self.loglik = gaussian_loglik(resid, self.sigma2 + self.emu_var)
        self.sigma2_prior = self.priors.noise.logpdf(self.sigma2)

    def _audit(self):
        recomputed = koh_log_posterior(
            self.snapshot(), self.data, self.emulator, self.priors, knots=self.knots
        )
        cached = self.total()
        if abs(recomputed - cached) > 1e-9:
            raise RuntimeError(
                f"log-posterior audit failed: cached {cached!r} vs recomputed {recomputed!r}"
            )

    def run(self):
        cfg = self.cfg
        n_stored = (cfg.iterations - cfg.burn_in + cfg.thin - 1) // cfg.thin
        K = len(self.knots)
        dx = self.knots.shape[1]
        out_delta = np.empty((n_stored, K))
        out_hyper = np.empty((n_stored, 1 + dx))
        out_sigma2 = np.empty(n_stored)
        out_theta = np.empty((n_stored, self.dtheta))
        stored = 0
        sample_theta = cfg.sample_theta if cfg.sample_theta is not None else True
        for it in range(cfg.iterations):
            adapting = it < cfg.burn_in
            if sample_theta:
                self._update_theta(adapting)
            self._update_delta(adapting)
            if cfg.sample_hyper:
                self._update_hyper(adapting)
            if cfg.sample_sigma2:
                self._gibbs_sigma2()
            if cfg.audit_every and (it + 1) % cfg.audit_every == 0:
                self._audit()
            if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thin == 0:
                out_delta[stored] = self.delta_values
                out_hyper[stored] = self.delta_hyper
                out_sigma2[stored] = self.sigma2
                out_theta[stored] = self.theta
                stored += 1
        return {
            "delta": out_delta,
            "hyper": out_hyper,
            "sigma2": out_sigma2,
            "theta": out_theta,
            "stats": self.stats,
            "extrap_count": self.extrap_count,
            "extrap_max": self.extrap_max,
            "base_theta": self.theta,
        }


def run_koh(
    data: CalibrationDataset,
    emulator,
    priors: CalibrationPriors,
    mcmc_config: McmcConfig,
) -> PosteriorSamples:
    """MH-within-Gibbs sweep for the baseline model.

    Per iteration: theta random-walk block on the normalized box,
    discrepancy knot block, discrepancy hyperparameter block, conjugate
    Gibbs noise update. Setting ``sample_theta=False`` clamps theta at its
    initial value. Deterministic for a fixed seed; emits the same sample
    layout as the embedded calibrator with the discrepancy stored under
    the "eta" key.
    """
    knots, obs_idx = _build_knots(data, mcmc_config.refine_knots)
    seeds = np.random.SeedSequence(mcmc_config.seed).spawn(mcmc_config.chains)

    def one_chain(i: int):
        rng = np.random.default_rng(seeds[i])
        return _KohChain(data, emulator, priors, mcmc_config, rng, knots, obs_idx).run()

    workers = _n_workers(mcmc_config.chains)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one_chain, range(mcmc_config.chains)))
    else:
        results = [one_chain(i) for i in range(mcmc_config.chains)]

    acceptance = {}
    for block in results[0]["stats"]:
        proposed = sum(r["stats"][block].proposed for r in results)
        accepted = sum(r["stats"][block].accepted for r in results)
        acceptance[block] = accepted / proposed if proposed else 0.0

    samples = PosteriorSamples(
        kind="koh",
        param_names=data.param_names,
        knots=knots,
        delta_draws={"eta": np.vstack([r["delta"] for r in results])},
        hyper_draws={"eta": np.vstack([r["hyper"] for r in results])},
        sigma2_draws=np.concatenate([r["sigma2"] for r in results]),
        theta_draws=np.vstack([r["theta"] for r in results]),
        base_theta=results[0]["base_theta"],
        acceptance_rates=acceptance,
        chains=mcmc_config.chains,
        domain_bounds=data.domain_bounds,
        theta_bounds=data.theta_bounds,
        y_shift=float(getattr(emulator, "y_shift", 0.0)),
        y_scale=float(getattr(emulator, "y_scale", 1.0)),
        grid=np.linspace(0.0, 1.0, mcmc_config.grid_points),
        extrapolation_count=sum(r["extrap_count"] for r in results),
        extrapolation_max_distance=max(r["extrap_max"] for r in results),
        seed=mcmc_config.seed,
    )
    _attach_summaries(samples, emulator)
    return samples
