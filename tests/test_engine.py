"""The one sampler engine in each block configuration its calibrators use."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftcal import embedded, koh
from driftcal.design import Prior
from driftcal.embedded import (
    CalibrationPriors,
    McmcConfig,
    _build_knots,
    _Chain,
    run_combined,
    run_integrated_delta,
)
from driftcal.gp import ExactEmulator, KernelParams, TrainingSet, fit_gp
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


# the block settings of run_koh, of the embedded calibrators and of run_combined;
# the engines built on them sample theta
CONFIGURATIONS = {
    "koh": dict(drift=False, additive=True),
    "embedded_theta": dict(drift=True, additive=False),
    "combined": dict(drift=True, additive=True),
}


def record_decisions(chain):
    """Wrap each block of ``chain`` to record what its calls return; returns the record."""
    calls = {name: [] for name, _ in chain.blocks}

    def recorder(name, step):
        def recorded(engine):
            calls[name].append(step(engine))
            return calls[name][-1]

        return recorded

    chain.blocks = [(name, recorder(name, step)) for name, step in chain.blocks]
    return calls


def assert_counted_decisions(chain, calls):
    """Each Metropolis block of a run of ``chain`` decided once for every chain on every
    sweep, and its reported rate is its accepted decisions after burn-in over
    (post-burn-in sweeps x chains)."""
    cfg, C = chain.cfg, len(chain.rngs)
    assert calls.pop("sigma2", [None] * cfg.iterations) == [None] * cfg.iterations
    assert list(calls) == list(chain.accepted)
    rates = chain.acceptance_rates()
    for name, decisions in calls.items():
        assert len(decisions) == cfg.iterations, name
        assert all(len(d) == C and all(type(a) is bool for a in d) for d in decisions), name
        counted = [sum(chain_decisions) for chain_decisions in zip(*decisions[cfg.burn_in:])]
        assert chain.accepted[name] == counted, name
        assert rates[name] == sum(counted) / ((cfg.iterations - cfg.burn_in) * C), name


edge = st.one_of(st.floats(0.0, 0.02), st.floats(0.98, 1.0))
step = st.floats(-6.0, 3.0).map(lambda e: 10.0**e)  # log-uniform on [1e-6, 1e3]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=25, deadline=None)
@given(config=st.sampled_from(sorted(CONFIGURATIONS)), theta0=st.tuples(edge, edge),
       theta_step=step, hyper_step=step, seed=st.integers(0, 2**16))
def test_extreme_steps_are_counted_rejections(config, theta0, theta_step, hyper_step, seed):
    data = edge_dataset(0.4 + 0.3 * np.linspace(0.1, 0.9, 4))
    cfg = McmcConfig(iterations=40, burn_in=10, thin=1, chains=1, seed=seed,
                     sample_theta=True, theta0=theta0, audit_every=5)
    knots, obs_idx = _build_knots(data)
    chain = _Chain(data, EMULATOR, PRIORS, cfg, [np.random.default_rng(seed)], knots, obs_idx,
                   accept=embedded.mh_accept, gibbs=embedded.gibbs_sigma2,
                   **CONFIGURATIONS[config])
    for name, steps in chain.steps.items():
        if name == "theta":
            steps[0] = theta_step
        elif name.startswith("hyper:"):
            steps[0] = hyper_step
    calls = record_decisions(chain)
    out = chain.run()

    assert_counted_decisions(chain, calls)  # every Metropolis block, all of them active here
    for name in out["delta"]:
        assert np.all(np.isfinite(out["delta"][name]))
        assert np.all(np.isfinite(out["hyper"][name])) and np.all(out["hyper"][name] > 0)
    assert np.all(np.isfinite(out["sigma2"])) and np.all(out["sigma2"] > 0)
    if out["theta"] is not None:
        assert np.all((out["theta"] >= 0.0) & (out["theta"] <= 1.0))
    assert math.isfinite(chain.total(0))


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


@pytest.mark.parametrize("calibrator", [run_integrated_delta, run_combined, run_koh])
def test_a_domain_of_more_than_one_dimension_fails_before_any_sweep(calibrator, monkeypatch):
    def no_decision(*args):
        raise AssertionError("the sampler ran before the domain was checked")

    monkeypatch.setattr(embedded, "mh_accept", no_decision)
    monkeypatch.setattr(koh, "mh_accept", no_decision)
    obs_x = np.array([[0.2, 0.3], [0.8, 0.6]])
    data = CalibrationDataset(
        obs_x=obs_x, obs_y=np.zeros(2), sim_x=obs_x, sim_theta=np.full((2, 2), 0.5),
        sim_y=np.zeros(2), domain_bounds=((0.0, 1.0),) * 2,
        theta_bounds=((0.0, 1.0), (0.0, 1.0)),
    )
    cfg = McmcConfig(iterations=40, burn_in=10, chains=2, theta0=(0.5, 0.5))
    with pytest.raises(ValueError, match="grid summaries require a 1-D domain"):
        calibrator(data, ExactEmulator(lambda Q: Q.sum(axis=1), vectorized=True), PRIORS, cfg)


@pytest.mark.parametrize("sample_theta", [False, True])
@pytest.mark.parametrize("sample_sigma2", [False, True])
@pytest.mark.parametrize("sample_hyper", [False, True])
@pytest.mark.parametrize("calibrator, fields", [
    (run_integrated_delta, ["theta0", "theta1"]),
    (run_combined, ["theta0", "theta1", "eta"]),
    (run_koh, ["eta"]),
])
def test_reported_blocks_are_the_blocks_that_ran(calibrator, fields, sample_hyper,
                                                 sample_sigma2, sample_theta):
    data = edge_dataset(0.4 + 0.3 * np.linspace(0.1, 0.9, 4))
    cfg = McmcConfig(iterations=12, burn_in=6, thin=1, chains=2, seed=3, theta0=(0.6, 0.4),
                     sample_hyper=sample_hyper, sample_sigma2=sample_sigma2,
                     sample_theta=sample_theta, grid_points=3)
    timing = {}
    samples = calibrator(data, EMULATOR, PRIORS, cfg, timing=timing)
    metropolis = (["theta"] if sample_theta else []) + [f"delta:{f}" for f in fields]
    metropolis += [f"hyper:{f}" for f in fields] if sample_hyper else []
    assert list(samples.acceptance_rates) == metropolis
    assert list(timing["us_per_step"]) == metropolis + (["sigma2"] if sample_sigma2 else [])


@pytest.mark.parametrize("calibrator", [run_integrated_delta, run_combined, run_koh])
def test_every_acceptance_rate_is_a_python_float(calibrator):
    data = edge_dataset(0.4 + 0.3 * np.linspace(0.1, 0.9, 4))
    cfg = McmcConfig(iterations=60, burn_in=20, thin=1, chains=2, seed=3, theta0=(0.6, 0.4),
                     sample_theta=True, grid_points=3)
    rates = calibrator(data, EMULATOR, PRIORS, cfg).acceptance_rates
    # hyperparameter proposals were accepted, so their counts went through an accepted state
    assert min(rate for name, rate in rates.items() if name.startswith("hyper:")) > 0
    assert {name: type(rate) for name, rate in rates.items()} == dict.fromkeys(rates, float)


class ProtocolOnlyEmulator:
    """``response`` behind the emulator protocol's four members and nothing else."""

    y_shift = 0.0
    y_scale = 1.0

    def predict_std(self, Q):
        mean = response(Q)
        return mean, np.zeros_like(mean)

    def at_inputs(self, x):
        def query(theta):
            X = np.broadcast_to(x, (*theta.shape[:-1], x.shape[1]))
            Q = np.concatenate([X, theta], axis=-1)
            mean = response(Q.reshape(-1, Q.shape[-1])).reshape(theta.shape[:-1])
            return mean, np.zeros_like(mean)

        return query


@pytest.mark.parametrize("calibrator", [run_integrated_delta, run_koh, run_combined])
def test_an_emulator_needs_only_the_two_protocol_calls(calibrator):
    # the whole theta stack in one call, where ExactEmulator calls response once per chain
    # and once per posterior draw
    data = edge_dataset(0.4 + 0.3 * np.linspace(0.1, 0.9, 4))
    cfg = McmcConfig(iterations=60, burn_in=20, thin=2, chains=3, seed=9, theta0=(0.6, 0.4),
                     sample_theta=True, audit_every=20, grid_points=5)
    got = calibrator(data, ProtocolOnlyEmulator(), PRIORS, cfg)
    ref = calibrator(data, EMULATOR, PRIORS, cfg)
    assert got.delta_draws.keys() == ref.delta_draws.keys()
    for name in ref.delta_draws:
        assert np.array_equal(got.delta_draws[name], ref.delta_draws[name]), name
        assert np.array_equal(got.hyper_draws[name], ref.hyper_draws[name]), name
    assert np.array_equal(got.sigma2_draws, ref.sigma2_draws)
    assert np.array_equal(got.theta_draws, ref.theta_draws)
    assert got.acceptance_rates == ref.acceptance_rates
    assert got.summaries.keys() == ref.summaries.keys()
    for key in ref.summaries:
        assert np.array_equal(got.summaries[key], ref.summaries[key]), key


# -- lockstep chains ----------------------------------------------------------


def gp_emulator():
    X = np.random.default_rng(5).random((30, 3))
    return fit_gp(TrainingSet.from_raw(X, response(X)), KernelParams(1.0, [0.4, 0.4, 0.4], 1e-8))


def engine(config, emulator, rngs, **mcmc):
    """The engine on ``rngs`` in a block configuration, on the edge dataset."""
    data = edge_dataset(0.4 + 0.3 * np.linspace(0.1, 0.9, 4))
    knots, obs_idx = _build_knots(data)
    settings = dict(iterations=60, burn_in=20, thin=2, sample_theta=True, theta0=(0.6, 0.4),
                    audit_every=20)
    settings.update(mcmc)
    cfg = McmcConfig(chains=len(rngs), **settings)
    return _Chain(data, emulator, PRIORS, cfg, rngs, knots, obs_idx,
                  accept=embedded.mh_accept, gibbs=embedded.gibbs_sigma2,
                  **CONFIGURATIONS[config])


def generators(seed):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)]


def run_each_chain(chain):
    """Run ``chain``; per chain, its draws, acceptance counts and extrapolation figures."""
    draws = chain.run()
    return [
        {
            "delta": {n: a[c] for n, a in draws["delta"].items()},
            "hyper": {n: a[c] for n, a in draws["hyper"].items()},
            "sigma2": draws["sigma2"][c],
            "theta": None if draws["theta"] is None else draws["theta"][c],
            "base_theta": chain.base_theta[c],
            "accepted": {n: counts[c] for n, counts in chain.accepted.items()},
            "extrap": (chain.extrap_count[c], chain.extrap_max[c]),
        }
        for c in range(len(chain.rngs))
    ]


def lockstep_runs(config, emulator, seed, hyper_steps=None, **mcmc):
    """One 3-chain engine and three 1-chain engines on the same generators.

    ``hyper_steps`` maps a chain index to the hyperparameter step it keeps
    (with no burn-in, steps do not adapt). Returns :func:`run_each_chain`
    of the 3-chain engine and each 1-chain engine's only chain.
    """
    together = engine(config, emulator, generators(seed), **mcmc)
    alone = [engine(config, emulator, [rng], **mcmc) for rng in generators(seed)]
    for c, step in (hyper_steps or {}).items():
        for name in together.steps:
            if name.startswith("hyper:"):
                together.steps[name][c] = step
                alone[c].steps[name][0] = step
    return run_each_chain(together), [run_each_chain(chain)[0] for chain in alone]


def assert_same_chain(a, b):
    assert a["delta"].keys() == b["delta"].keys()
    for name in a["delta"]:
        assert np.array_equal(a["delta"][name], b["delta"][name]), name
        assert np.array_equal(a["hyper"][name], b["hyper"][name]), name
    assert np.array_equal(a["sigma2"], b["sigma2"])
    assert (a["theta"] is None) == (b["theta"] is None)
    if a["theta"] is not None:
        assert np.array_equal(a["theta"], b["theta"])
    assert np.array_equal(a["base_theta"], b["base_theta"])
    assert a["accepted"] == b["accepted"]
    assert a["extrap"] == b["extrap"]


def test_a_finished_engine_is_freed_with_its_last_reference():
    # no reference cycle keeps the engine's arrays alive until the cyclic collector runs
    chain = engine("combined", EMULATOR, generators(2))
    chain.run()
    ref = weakref.ref(chain)
    gc.disable()
    try:
        del chain
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("emulator", [EMULATOR, gp_emulator()], ids=["exact", "gp"])
@pytest.mark.parametrize("config", sorted(CONFIGURATIONS))
def test_lockstep_chains_equal_chains_run_alone(config, emulator):
    together, alone = lockstep_runs(config, emulator, seed=21, initial_step=1.5)
    for a, b in zip(together, alone):
        assert_same_chain(a, b)
    # the chains differ, so the comparison is not of three copies of one chain
    assert not np.array_equal(together[0]["sigma2"], together[1]["sigma2"])
    if config != "koh":  # drift fields push theta*(x) out of the box at this step size
        assert sum(r["extrap"][0] for r in together) > 0


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("config", sorted(CONFIGURATIONS))
def test_one_chains_overflowing_hyper_proposals_reject_only_its_own(config):
    # chain 1 keeps a log-space step of 1e3, so its proposals overflow or
    # underflow; chains 0 and 2 keep a small one
    together, alone = lockstep_runs(config, gp_emulator(), seed=8, burn_in=0,
                                    hyper_steps={0: 0.3, 1: 1e3, 2: 0.3})
    for a, b in zip(together, alone):
        assert_same_chain(a, b)
    iterations = 60  # engine()'s sweeps: with no burn-in, each one's decisions are counted
    rates = [{n: acc / iterations for n, acc in r["accepted"].items() if n.startswith("hyper:")}
             for r in together]
    assert max(rates[1].values()) < 0.1 < min(min(rates[0].values()), min(rates[2].values()))


def test_non_finite_output_for_one_chain_rejects_only_its_proposal():
    def nan_emulator(flags):
        def mean(Q):
            # NaN wherever theta*(x) of the first parameter passes 0.7
            flags.append(bool(np.any(Q[:, 1] > 0.7)))
            return np.full(len(Q), np.nan) if flags[-1] else response(Q)

        return ExactEmulator(mean, vectorized=True)

    mcmc = dict(seed=3, initial_step=1.0)
    together = run_each_chain(engine("embedded_theta", nan_emulator([]), generators(3), **mcmc))
    flags = [[], [], []]
    alone = [run_each_chain(engine("embedded_theta", nan_emulator(f), [rng], **mcmc))[0]
             for f, rng in zip(flags, generators(3))]
    for a, b in zip(together, alone):
        assert_same_chain(a, b)
    # every chain met NaN output, each on its own proposals
    assert all(any(f) and not all(f) for f in flags)
    assert len({tuple(f) for f in flags}) == 3
