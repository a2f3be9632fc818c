import math

import numpy as np
import pytest

from driftcal.design import Prior
from driftcal.diagnostics import split_rhat
from driftcal.embedded import (
    FIELD_JITTER,
    CalibrationPriors,
    ChainState,
    McmcConfig,
    embedded_log_posterior,
    posterior_predictive,
)
from driftcal.gp import ExactEmulator, KernelParams, TrainingSet, fit_gp, optimize_emulator
from driftcal.koh import run_koh
from driftcal.problems import dipole_dataset
from driftcal.simulators import CalibrationDataset

UNIT_BOUNDS = ((0.0, 1.0),)


def unit_dataset(obs_x, obs_y, dtheta=1):
    theta_bounds = tuple((0.0, 1.0) for _ in range(dtheta))
    return CalibrationDataset(
        obs_x=np.asarray(obs_x, float),
        obs_y=np.asarray(obs_y, float),
        sim_x=np.array([[0.1], [0.9]]),
        sim_theta=np.full((2, dtheta), 0.5),
        sim_y=np.zeros(2),
        domain_bounds=UNIT_BOUNDS,
        theta_bounds=theta_bounds,
    )


def state_for(data, theta, delta, noise_var, v0=0.04, l0=0.3):
    """Baseline state: no drift fields, the discrepancy as the additive field at the knots."""
    return ChainState(theta, [delta], [[v0, l0]], noise_var, additive=True)


def test_log_posterior_grid_scan_peaks_at_truth():
    emu = ExactEmulator(lambda row: row[1])  # y = theta
    knots = np.array([[0.2], [0.5], [0.8]])
    truth = 0.6
    data = unit_dataset(knots, np.full(3, truth))
    priors = CalibrationPriors()
    grid = np.linspace(0.05, 0.95, 19)
    lp = [
        embedded_log_posterior(state_for(data, [t], np.zeros(3), 0.01), data, emu, priors)
        for t in grid
    ]
    assert grid[int(np.argmax(lp))] == pytest.approx(truth, abs=0.051)


def test_log_posterior_hard_support():
    emu = ExactEmulator(lambda row: row[1])
    data = unit_dataset(np.array([[0.5]]), np.array([0.5]))
    priors = CalibrationPriors()
    for theta in (1.2, -0.1):
        state = state_for(data, [theta], [0.0], 0.01)
        assert embedded_log_posterior(state, data, emu, priors) == -math.inf


def test_log_posterior_noise_normalization():
    emu = ExactEmulator(lambda row: row[1])
    knots = np.array([[0.3], [0.7]])
    data = unit_dataset(knots, np.full(2, 0.5))  # zero residuals at theta = 0.5
    priors = CalibrationPriors()

    def loglik(nv):
        lp = embedded_log_posterior(state_for(data, [0.5], np.zeros(2), nv), data, emu, priors)
        return lp - priors.noise.logpdf(nv)

    assert loglik(0.02) < loglik(0.01)  # doubling sigma^2 on zero residuals hurts


def batch_se(x, batches=50):
    n = (len(x) // batches) * batches
    bm = x[:n].reshape(batches, -1).mean(axis=1)
    return bm.std(ddof=1) / math.sqrt(batches)


def test_theta_chain_matches_analytic_gaussian():
    # linear response y = theta1 + theta2 * x with fixed discrepancy hyper and
    # fixed noise: the theta posterior is Gaussian (flat prior, far from the box edge)
    x_obs = np.array([[0.1], [0.35], [0.6], [0.85]])
    A = np.hstack([np.ones((4, 1)), x_obs])
    theta_true = np.array([0.5, 0.4])
    y = A @ theta_true
    data = unit_dataset(x_obs, y, dtheta=2)
    emu = ExactEmulator(lambda row: row[1] + row[2] * row[0])

    sigma2 = 0.03**2
    v0, l0 = 0.02**2, 0.4
    priors = CalibrationPriors(
        eta_variance=Prior.log_normal(math.log(v0), 0.01),
        eta_lengthscale=Prior.log_normal(math.log(l0), 0.01),
        noise=Prior.inverse_gamma(3.0, 2.0 * sigma2),
    )
    cfg = McmcConfig(
        iterations=42_000, burn_in=6_000, thin=1, chains=1, seed=3,
        sample_hyper=False, sample_sigma2=False, theta0=(0.5, 0.4), audit_every=10_000,
    )
    samples = run_koh(data, emu, priors, cfg)

    d = x_obs - x_obs.T
    C = v0 * np.exp(-(d**2) / l0**2) + (FIELD_JITTER + sigma2) * np.eye(4)
    Cinv = np.linalg.inv(C)
    cov = np.linalg.inv(A.T @ Cinv @ A)
    mean = cov @ A.T @ Cinv @ y

    draws = samples.theta_draws
    for k in range(2):
        se = batch_se(draws[:, k])
        assert abs(draws[:, k].mean() - mean[k]) < 3 * se
    prod = (draws[:, 0] - mean[0]) * (draws[:, 1] - mean[1])
    assert abs(prod.mean() - cov[0, 1]) < 3 * batch_se(prod)


@pytest.fixture(scope="module")
def koh_closure_run():
    ds = dipole_dataset(n_sim=43, n_obs=5, noise_sd=0.05, seed=5, drift=False)
    train = TrainingSet.from_raw(ds.sim_inputs_unit(), ds.sim_y)
    init = KernelParams(1.0, np.full(4, 0.4), nugget=1e-8)
    model = fit_gp(train, optimize_emulator(train, init, budget=150, seed=0))
    priors = CalibrationPriors(
        theta=(Prior.uniform(35.0, 55.0), Prior.uniform(0.28, 0.38),
               Prior.uniform(0.56, 2.88)),
        noise=Prior.inverse_gamma(3.0, 2.0 * (0.05 / train.scale) ** 2),
    )
    cfg = McmcConfig(iterations=9000, burn_in=3000, thin=3, chains=2, seed=11,
                     initial_step=0.3)
    return ds, model, run_koh(ds, model, priors, cfg)


def test_koh_closure_recovers_truth(koh_closure_run):
    ds, model, samples = koh_closure_run
    from driftcal.design import to_unit

    truth_unit = to_unit(ds.truth.theta0[None, :], ds.theta_bounds)[0]
    draws = samples.theta_draws
    for k in range(3):
        mean, sd = draws[:, k].mean(), draws[:, k].std()
        assert abs(mean - truth_unit[k]) < 2.0 * sd
    # discrepancy consistent with zero
    delta = samples.delta_draws["eta"]
    assert np.all(np.abs(delta.mean(axis=0)) <= 2.0 * delta.std(axis=0) + 1e-9)


def test_koh_closure_chain_convergence(koh_closure_run):
    _, _, samples = koh_closure_run
    draws = samples.per_chain(samples.theta_draws)
    for k in range(3):
        assert split_rhat(draws[:, :, k]) <= 1.1


def test_koh_predictive_interpolates_observations(koh_closure_run):
    ds, model, samples = koh_closure_run
    pred = posterior_predictive(samples, model, ds.obs_x)
    assert np.all(np.abs(pred.mean - ds.obs_y) <= 2.0 * pred.sd)


def test_koh_theta_clamped_when_disabled():
    emu = ExactEmulator(lambda row: row[1])
    data = unit_dataset(np.array([[0.3], [0.7]]), np.array([0.55, 0.5]))
    cfg = McmcConfig(iterations=300, burn_in=100, thin=1, chains=1, seed=0,
                     sample_theta=False, theta0=(0.42,), audit_every=100)
    samples = run_koh(data, emu, CalibrationPriors(), cfg)
    assert np.all(samples.theta_draws == 0.42)
    assert "theta" not in samples.acceptance_rates  # the block never ran
