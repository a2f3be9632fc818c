"""Limit behavior of the combined formulation (drift fields + additive field)."""

import math

import numpy as np
import pytest

import driftcal.diagnostics as diag
from driftcal.design import Prior
from driftcal.embedded import (
    CalibrationPriors,
    McmcConfig,
    posterior_predictive,
    run_combined,
    run_integrated_delta,
)
from driftcal.gp import KernelParams, TrainingSet, fit_gp, optimize_emulator
from driftcal.koh import run_koh
from driftcal.problems import dipole_dataset


@pytest.fixture(scope="module")
def assets():
    ds = dipole_dataset(n_sim=30, n_obs=5, noise_sd=0.08, seed=4, drift=True)
    train = TrainingSet.from_raw(ds.sim_inputs_unit(), ds.sim_y)
    model = fit_gp(
        train,
        optimize_emulator(train, KernelParams(1.0, np.full(4, 0.4), nugget=1e-8),
                          budget=120, seed=0),
    )
    sig = 0.08 / train.scale
    noise = Prior.inverse_gamma(3.0, 2.0 * sig * sig)
    cfg = McmcConfig(iterations=4000, burn_in=1500, thin=4, chains=2, seed=6)
    return ds, model, noise, cfg


# test_both_mechanisms_do_not_hurt_fit's three calibrations, each run once per module;
# the embedded and clamped-KOH runs also serve the two reduction tests


@pytest.fixture(scope="module")
def embedded_run(assets):
    ds, model, noise, cfg = assets
    return run_integrated_delta(ds, model, CalibrationPriors(noise=noise), cfg)


@pytest.fixture(scope="module")
def clamped_koh_run(assets):
    ds, model, noise, cfg = assets
    return run_koh(
        ds, model, CalibrationPriors(noise=noise),
        McmcConfig(iterations=4000, burn_in=1500, thin=4, chains=2, seed=6,
                   sample_theta=False),
    )


@pytest.fixture(scope="module")
def combined_run(assets):
    ds, model, noise, cfg = assets
    return run_combined(ds, model, CalibrationPriors(noise=noise), cfg)


def test_zero_eta_variance_reduces_to_embedded(assets, embedded_run):
    ds, model, noise, cfg = assets
    s_id = embedded_run
    pinned = CalibrationPriors(
        noise=noise,
        eta_variance=Prior.log_normal(math.log(1e-12), 0.01),
        eta_lengthscale=Prior.log_normal(math.log(0.3), 0.01),
    )
    s_c = run_combined(ds, model, pinned, cfg)
    assert np.max(np.abs(s_c.summaries["delta_mean:eta"])) < 1e-4
    diff = np.max(np.abs(s_c.summaries["predictive_mean"] - s_id.summaries["predictive_mean"]))
    scale = np.median(s_id.summaries["predictive_sd"])
    assert diff <= 0.35 * scale  # within Monte-Carlo wiggle of two finite chains


def test_zero_theta_variance_reduces_to_clamped_koh(assets, clamped_koh_run):
    ds, model, noise, cfg = assets
    pinned = CalibrationPriors(
        noise=noise,
        field_variance=Prior.log_normal(math.log(1e-12), 0.01),
        field_lengthscale=Prior.log_normal(math.log(0.3), 0.01),
    )
    s_c = run_combined(ds, model, pinned, cfg)
    s_koh = clamped_koh_run
    diff = np.max(np.abs(s_c.summaries["predictive_mean"] - s_koh.summaries["predictive_mean"]))
    scale = np.median(s_koh.summaries["predictive_sd"])
    assert diff <= 0.35 * scale


def test_both_mechanisms_do_not_hurt_fit(assets, embedded_run, clamped_koh_run, combined_run):
    ds, model, noise, cfg = assets
    runs = {"id": embedded_run, "koh": clamped_koh_run, "both": combined_run}
    rmse = {
        name: diag.rmse(posterior_predictive(s, model, ds.obs_x).mean, ds.obs_y)
        for name, s in runs.items()
    }
    assert rmse["both"] <= min(rmse["id"], rmse["koh"]) + 0.03
