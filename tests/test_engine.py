"""The one sampler engine in each block configuration its calibrators use."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftcal import embedded
from driftcal.design import Prior
from driftcal.embedded import (
    CalibrationPriors,
    McmcConfig,
    _build_knots,
    _Chain,
    run_integrated_delta,
)
from driftcal.gp import ExactEmulator
from driftcal.koh import run_koh
from driftcal.simulators import CalibrationDataset


def edge_dataset(obs_y):
    """Two parameters on unit boxes, so normalized and physical theta agree."""
    obs_x = np.linspace(0.1, 0.9, 4)[:, None]
    return CalibrationDataset(
        obs_x=obs_x,
        obs_y=np.asarray(obs_y, float),
        sim_x=np.array([[0.1], [0.9]]),
        sim_theta=np.full((2, 2), 0.5),
        sim_y=np.zeros(2),
        domain_bounds=((0.0, 1.0),),
        theta_bounds=((0.0, 1.0), (0.0, 1.0)),
    )


def response(Q):
    return Q[:, 1] + 0.5 * Q[:, 2] * Q[:, 0]


EMULATOR = ExactEmulator(response, vectorized=True)
PRIORS = CalibrationPriors(noise=Prior.inverse_gamma(3.0, 2.0 * 0.05**2))


def test_embedded_theta_block_stays_in_the_unit_box():
    # the observations sit above anything theta in the box can reach, so an
    # unbounded theta block walks out of it
    data = edge_dataset(np.full(4, 1.6))
    cfg = McmcConfig(iterations=600, burn_in=200, thin=1, chains=2, seed=4,
                     sample_theta=True, theta0=(0.97, 0.97), initial_step=2.0,
                     audit_every=10, grid_points=5)
    samples = run_integrated_delta(data, EMULATOR, PRIORS, cfg)  # raises on audit failure
    assert samples.theta_draws is not None
    assert np.all((samples.theta_draws >= 0.0) & (samples.theta_draws <= 1.0))


# the block settings of run_koh, of the embedded calibrators with theta on,
# and of run_combined with theta on
CONFIGURATIONS = {
    "koh": dict(drift=False, additive=True, sample_theta=True),
    "embedded_theta": dict(drift=True, additive=False, sample_theta=True),
    "combined": dict(drift=True, additive=True, sample_theta=True),
}

edge = st.one_of(st.floats(0.0, 0.02), st.floats(0.98, 1.0))
step = st.floats(-6.0, 3.0).map(lambda e: 10.0**e)  # log-uniform on [1e-6, 1e3]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=25, deadline=None)
@given(config=st.sampled_from(sorted(CONFIGURATIONS)), theta0=st.tuples(edge, edge),
       theta_step=step, hyper_step=step, seed=st.integers(0, 2**16))
def test_extreme_steps_are_counted_rejections(config, theta0, theta_step, hyper_step, seed):
    data = edge_dataset(0.4 + 0.3 * np.linspace(0.1, 0.9, 4))
    cfg = McmcConfig(iterations=40, burn_in=10, thin=1, chains=1, seed=seed,
                     theta0=theta0, audit_every=5)
    knots, obs_idx = _build_knots(data)
    chain = _Chain(data, EMULATOR, PRIORS, cfg, np.random.default_rng(seed), knots, obs_idx,
                   accept=embedded.mh_accept, gibbs=embedded.gibbs_sigma2,
                   **CONFIGURATIONS[config])
    for name, adapter in chain.adapters.items():
        if name == "theta":
            adapter.step = theta_step
        elif name.startswith("hyper:"):
            adapter.step = hyper_step
    out = chain.run()

    for name in chain.block_names:  # every block here runs
        assert out["stats"][name].proposed == cfg.iterations - cfg.burn_in, name
    for name in out["delta"]:
        assert np.all(np.isfinite(out["delta"][name]))
        assert np.all(np.isfinite(out["hyper"][name])) and np.all(out["hyper"][name] > 0)
    assert np.all(np.isfinite(out["sigma2"])) and np.all(out["sigma2"] > 0)
    if out["theta"] is not None:
        assert np.all((out["theta"] >= 0.0) & (out["theta"] <= 1.0))
    assert math.isfinite(chain.total())


@pytest.mark.parametrize("calibrator", [run_integrated_delta, run_koh])
@pytest.mark.parametrize("n", [1, 3])
def test_theta_inputs_must_match_the_parameter_count(calibrator, n):
    # the dataset has 2 parameters: one entry too few, or one too many
    data = edge_dataset(0.4 + 0.3 * np.linspace(0.1, 0.9, 4))
    cfg = McmcConfig(iterations=4, burn_in=2, thin=1, chains=1, theta0=(0.5, 0.5))
    priors = CalibrationPriors(noise=PRIORS.noise, theta=(Prior.uniform(0.0, 1.0),) * n)
    with pytest.raises(ValueError, match=f"{n} theta priors for a dataset with 2"):
        calibrator(data, EMULATOR, priors, cfg)
    with pytest.raises(ValueError, match=f"theta0 has {n} entries, dataset has 2"):
        calibrator(data, EMULATOR, PRIORS, McmcConfig(iterations=4, burn_in=2, theta0=(0.5,) * n))
