import copy
import logging
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from driftcal import embedded, gp
from driftcal.design import Prior
from driftcal.embedded import (
    FIELD_JITTER,
    CalibrationPriors,
    ChainState,
    McmcConfig,
    delta_field_curves,
    embedded_log_posterior,
    gibbs_sigma2,
    mh_accept,
    posterior_predictive,
    run_integrated_delta,
    _build_knots,
    _Chain,
    _conditional_curves,
    _knot_chol,
)
from driftcal.gp import ExactEmulator, KernelParams, TrainingSet, _se_diff, build_covariance
from driftcal.koh import run_koh
from driftcal.runner import emit_plot_data
from driftcal.samples import PosteriorSamples, load_samples, save_samples
from driftcal.simulators import CalibrationDataset
from test_engine import assert_counted_decisions, record_decisions

UNIT_BOUNDS = ((0.0, 1.0),)


def unit_dataset(obs_x, obs_y, dtheta=1, names=None):
    """Dataset on unit bounds so normalized and physical coordinates agree."""
    theta_bounds = tuple((0.0, 1.0) for _ in range(dtheta))
    sim_x = np.array([[0.1], [0.9]])
    sim_theta = np.full((2, dtheta), 0.5)
    return CalibrationDataset(
        obs_x=np.asarray(obs_x, float),
        obs_y=np.asarray(obs_y, float),
        sim_x=sim_x,
        sim_theta=sim_theta,
        sim_y=np.array([0.0, 0.0]),
        domain_bounds=UNIT_BOUNDS,
        theta_bounds=theta_bounds,
        param_names=names or tuple(f"p{k}" for k in range(dtheta)),
    )


def field_kernel(knots, h):
    """A field's prior covariance at its knots, with ``FIELD_JITTER`` on the diagonal."""
    return build_covariance(knots, None, KernelParams(h[0], h[1:], FIELD_JITTER))


def field_log_prior(knots, values, h):
    """Zero-mean GP prior log-density of one field's knot values under raw hyperparameters."""
    knots = np.asarray(knots, float)
    [L] = _knot_chol(_se_diff(knots, knots), np.array([h], float))
    return embedded._mvn_logpdf_zero(np.asarray(values, float), L)


# -- field and theta-star basics -------------------------------------------


def test_field_conditional_exact_at_knots():
    knots = np.array([[0.2], [0.5], [0.8]])
    values = np.array([[0.3, -0.1, 0.2]])
    hypers = np.array([[0.04, 0.3]])
    mean, var = _conditional_curves(knots, knots, values, hypers)
    assert np.array_equal(mean, values)
    assert np.all(var == 0.0)
    mid, _ = _conditional_curves(knots, np.array([[0.35]]), values, hypers)
    assert np.isfinite(mid[0, 0])


def test_field_log_prior_matches_scipy_mvn():
    knots = np.array([[0.1], [0.4], [0.9]])
    values = np.array([0.05, -0.02, 0.01])
    h = [0.04, 0.3]
    ref = stats.multivariate_normal(mean=np.zeros(3), cov=field_kernel(knots, h)).logpdf(values)
    assert field_log_prior(knots, values, h) == pytest.approx(ref, abs=1e-9)


def test_oracle_queries_theta_plus_drift_at_the_knots():
    """theta*(x) = theta + d(x) exactly at the knots, which are the observation inputs."""
    knots = np.array([[0.2], [0.7]])
    data = unit_dataset(knots, [0.5, 0.5], dtheta=2)
    seen = []
    emu = ExactEmulator(lambda Q: seen.append(Q.copy()) or np.zeros(len(Q)), vectorized=True)
    state = ChainState(np.array([0.5, 0.4]), [[0.11, -0.04], [0.0, 0.25]],
                       [[0.04, 0.3], [0.04, 0.3]], noise_var=0.01)
    assert math.isfinite(embedded_log_posterior(state, data, emu, CalibrationPriors()))
    [Q] = seen
    assert Q[0].tolist() == [0.2, 0.5 + 0.11, 0.4 + 0.0]
    assert Q[1].tolist() == [0.7, 0.5 - 0.04, 0.4 + 0.25]


def test_conditional_rows_match_one_point_at_a_time():
    knots = np.array([[0.2], [0.5], [0.7]])
    values = np.array([[0.11, 0.03, -0.04], [0.0, -0.1, 0.25]])
    hypers = np.array([[0.04, 0.3], [0.04, 0.3]])
    X = np.array([[0.0], [0.2], [0.33], [0.5], [0.61], [0.7], [0.95]])
    rows = _conditional_curves(knots, X, values, hypers)[0]
    single = np.hstack([_conditional_curves(knots, X[i:i + 1], values, hypers)[0]
                        for i in range(len(X))])
    assert rows.shape == (2, len(X))
    at_knots = np.isin(X[:, 0], knots[:, 0])
    assert np.array_equal(rows[:, at_knots], single[:, at_knots])
    assert np.allclose(rows[:, ~at_knots], single[:, ~at_knots], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("hypers", [[0.04, 0.3], [[0.0, 0.3]], [[0.04, -0.3]], [[math.inf, 0.3]],
                                    [[0.04, math.nan]], [[0.04, 0.3], [0.04, 0.3]]])
def test_chain_state_hypers_are_one_positive_finite_row_per_field(hypers):
    with pytest.raises(ValueError, match="hypers must be one row of positive finite reals"):
        ChainState([0.5], [[0.0, 0.0]], hypers, noise_var=0.01)


@pytest.mark.parametrize("values", [[0.0, 0.0], [[0.0, math.nan]], [[math.inf, 0.0]]])
def test_chain_state_values_are_finite_rows(values):
    with pytest.raises(ValueError, match="values must be finite"):
        ChainState([0.5], values, [[0.04, 0.3]], noise_var=0.01)


@pytest.mark.parametrize("n_rows, additive", [(1, False), (3, False), (0, True), (2, True)])
def test_chain_state_needs_one_drift_field_per_parameter_or_none(n_rows, additive):
    with pytest.raises(ValueError, match="need one drift field per parameter, or none"):
        ChainState([0.5, 0.5], np.zeros((n_rows, 2)), np.full((n_rows, 2), 0.1), noise_var=0.01,
                   additive=additive)


@pytest.mark.parametrize("noise_var", [0.0, -0.01, math.nan])
def test_chain_state_noise_var_must_be_positive(noise_var):
    with pytest.raises(ValueError, match="noise_var must be positive"):
        ChainState([0.5], np.zeros((0, 2)), np.zeros((0, 2)), noise_var=noise_var)


@pytest.mark.parametrize("base, values, hypers, message", [
    ([0.5], [[0.0, 0.0, 0.0]], [[0.04, 0.3]], "one value per knot required: 3 values, 2 knots"),
    ([0.5], [[0.0, 0.0]], [[0.04]], "hypers need 2 columns"),
    ([0.5], [[0.0, 0.0]], [[0.04, 0.3, 0.3]], "hypers need 2 columns"),
    ([0.5, 0.3], np.zeros((0, 2)), np.zeros((0, 2)), "base_theta needs 1 entries, got 2"),
])
def test_log_posterior_refuses_a_state_that_does_not_fit_the_dataset(base, values, hypers,
                                                                     message):
    data = unit_dataset([[0.1], [0.6]], [0.5, 0.4])
    state = ChainState(base, values, hypers, noise_var=0.01)
    with pytest.raises(ValueError, match=message):
        embedded_log_posterior(state, data, ExactEmulator(lambda row: 0.5), CalibrationPriors())


# -- proposals and acceptance ------------------------------------------------


def field_chain(data, emu, priors, cfg=None, additive=False, seed=5):
    """The production chain with drift fields on, theta fixed (``cfg.sample_theta`` None),
    decisions by ``embedded``."""
    cfg = cfg or McmcConfig(iterations=2, burn_in=1, theta0=(0.5,))
    knots, obs_idx = _build_knots(data)
    return _Chain(data, emu, priors, cfg, [np.random.default_rng(seed)], knots, obs_idx,
                  drift=True, additive=additive,
                  accept=embedded.mh_accept, gibbs=embedded.gibbs_sigma2)


def test_propose_zero_step_is_identity():
    data = unit_dataset([[0.1], [0.6]], [0.5, 0.5])
    chain = field_chain(data, ExactEmulator(lambda row: row[1]), CalibrationPriors(), seed=0)
    chain.values[0, 0] = np.array([0.2, -0.3])
    chain._init_parts()
    chain.steps["delta:p0"][0] = 0.0
    chain._update_field(0)
    assert np.array_equal(chain.values[0, 0], [0.2, -0.3])


def test_propose_covariance_matches_prior(monkeypatch):
    # constant emulator and every proposal accepted: the increments are the proposals
    monkeypatch.setattr(embedded, "mh_accept", lambda new, old, rng: True)
    data = unit_dataset([[0.1], [0.5], [0.9]], np.zeros(3))
    emu = ExactEmulator(lambda Q: np.zeros(len(Q)), vectorized=True)
    chain = field_chain(data, emu, CalibrationPriors(), seed=1)
    chain.steps["delta:p0"][0] = 1.0
    draws = np.empty((100_000, 3))
    for i in range(draws.shape[0]):
        before = chain.values[0, 0].copy()
        chain._update_field(0)
        draws[i] = chain.values[0, 0] - before
    sample_cov = np.cov(draws.T)
    h = chain.hypers[0, 0]
    K = field_kernel(data.obs_x, h)
    rel = np.linalg.norm(sample_cov - K) / np.linalg.norm(K)
    assert rel < 0.05


def test_mh_accept_rules():
    rng = np.random.default_rng(0)
    assert mh_accept(1.0, 0.0, rng)
    assert mh_accept(0.0, 0.0, rng)
    assert not mh_accept(-math.inf, 0.0, rng)
    assert not mh_accept(math.nan, 0.0, rng)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       deltas=st.lists(st.floats(-5.0, 1.0), min_size=1, max_size=20))
def test_mh_accept_draws_as_uniform_draws(seed, deltas):
    # the same decisions, and the generator left where a uniform() draw leaves it
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for d in deltas:
        expected = d >= 0.0 or math.log(ref.uniform()) < d
        assert mh_accept(d, 0.0, rng) == expected
    assert rng.bit_generator.state == ref.bit_generator.state


def test_mh_accept_frequency_at_half():
    rng = np.random.default_rng(3)
    n = 100_000
    acc = sum(mh_accept(-math.log(2.0), 0.0, rng) for _ in range(n))
    assert abs(acc / n - 0.5) < 0.01


class ZeroDraw:
    """A generator stand-in whose every uniform draw is the 0.0 that ``random()`` may return."""

    def __init__(self):
        self.calls = 0

    def random(self):
        self.calls += 1
        return 0.0


@pytest.mark.parametrize("delta", [-1e-12, -5.0, -745.0, -1e300])
def test_mh_accept_takes_a_zero_uniform_draw_as_an_acceptance(delta):
    # log(0.0) raises; u = 0 lies below exp(delta) for every finite delta
    rng = ZeroDraw()
    assert mh_accept(delta, 0.0, rng)
    assert rng.calls == 1
    assert not mh_accept(-math.inf, 0.0, rng) and not mh_accept(math.nan, 0.0, rng)
    assert rng.calls == 1  # -inf and NaN are refused before any draw


# -- Gibbs noise update -------------------------------------------------------


def test_gibbs_sigma2_no_data_draws_from_prior():
    prior = Prior.inverse_gamma(4.0, 3.0)
    rng = np.random.default_rng(5)
    draws = np.array([gibbs_sigma2([], prior, rng) for _ in range(20_000)])
    ks = stats.kstest(draws, stats.invgamma(4.0, scale=3.0).cdf)
    assert ks.pvalue > 0.01


def test_gibbs_sigma2_mean_matches_analytic_conditional():
    rng = np.random.default_rng(6)
    resid = np.array([0.3, -0.5, 0.1, 0.7, -0.2])
    a0, b0 = 3.0, 0.5
    prior = Prior.inverse_gamma(a0, b0)
    draws = np.array([gibbs_sigma2(resid, prior, rng) for _ in range(20_000)])
    a_n = a0 + resid.size / 2
    b_n = b0 + 0.5 * float(resid @ resid)
    assert abs(draws.mean() - b_n / (a_n - 1)) / (b_n / (a_n - 1)) < 0.03


def test_gibbs_sigma2_quadratic_in_residual_scale():
    resid = np.array([0.4, -0.8, 0.6])
    prior = Prior.inverse_gamma(2.0, 1e-12)
    d1 = gibbs_sigma2(resid, prior, np.random.default_rng(9))
    d2 = gibbs_sigma2(2.0 * resid, prior, np.random.default_rng(9))
    assert d2 / d1 == pytest.approx(4.0, rel=1e-9)


def test_gibbs_sigma2_requires_inverse_gamma():
    with pytest.raises(ValueError):
        gibbs_sigma2([0.1], Prior.normal(0, 1), np.random.default_rng(0))


# -- log posterior ------------------------------------------------------------


def offset_state(knots, offset, noise_var=0.01, base=0.5):
    return ChainState([base], np.full((1, len(knots)), offset), [[1.0, 0.3]], noise_var)


def test_log_posterior_scan_peaks_at_zero_offset():
    # exact emulator f(x, t) = t; observations generated at theta = base
    emu = ExactEmulator(lambda row: row[1])
    knots = np.array([[0.0], [0.5], [1.0]])
    data = unit_dataset(knots, np.full(3, 0.5))
    priors = CalibrationPriors()
    offsets = np.linspace(-0.3, 0.3, 13)
    lp = [
        embedded_log_posterior(offset_state(knots, c), data, emu, priors) for c in offsets
    ]
    assert int(np.argmax(lp)) == 6  # center of the scan, offset 0


def test_log_posterior_change_matches_direct_evaluation():
    # doubling the field values on a quadratic response, emulator bypassed
    def quad(row):
        return 2.0 * row[1] ** 2 + 0.5 * row[0]

    emu = ExactEmulator(quad)
    knots = np.array([[0.2], [0.8]])
    y = np.array([0.9, 1.3])
    data = unit_dataset(knots, y)
    priors = CalibrationPriors()
    values = np.array([0.05, -0.08])
    noise = 0.02

    def state_for(v):
        return ChainState([0.5], [v], [[1.0, 0.3]], noise)

    def direct_loglik(v):
        out = 0.0
        for (x,), yi, vi in zip(knots, y, v):
            m = quad(np.array([x, 0.5 + vi]))
            out += stats.norm(m, math.sqrt(noise)).logpdf(yi)
        return out

    lp1 = embedded_log_posterior(state_for(values), data, emu, priors)
    lp2 = embedded_log_posterior(state_for(2 * values), data, emu, priors)
    expected = (direct_loglik(2 * values) + field_log_prior(knots, 2 * values, [1.0, 0.3])) - (
        direct_loglik(values) + field_log_prior(knots, values, [1.0, 0.3])
    )
    assert lp2 - lp1 == pytest.approx(expected, abs=1e-9)


def test_log_posterior_gaussian_tail_in_noise_variance():
    emu = ExactEmulator(lambda row: row[1])
    knots = np.array([[0.3], [0.7]])
    data = unit_dataset(knots, np.array([0.52, 0.46]))
    priors = CalibrationPriors()

    def loglik_term(noise_var):
        # isolate the likelihood: same state except sigma2, subtract priors
        st = offset_state(knots, 0.0, noise_var=noise_var)
        lp = embedded_log_posterior(st, data, emu, priors)
        return lp - priors.noise.logpdf(noise_var)

    sigmas = np.array([1.0, 10.0, 100.0, 1000.0])
    vals = np.array([loglik_term(s) for s in sigmas])
    assert np.all(np.diff(vals) < 0)  # monotone decreasing beyond the residual scale
    # approaches the pure normalization trend -n/2 log(2 pi sigma^2)
    trend = -1.0 * np.log(2 * math.pi * sigmas)  # n = 2 observations
    assert abs((vals[-1] - vals[-2]) - (trend[-1] - trend[-2])) < 1e-3


# -- hyperparameter updates ---------------------------------------------------


def test_tiny_lengthscale_proposal_is_hopeless():
    priors = CalibrationPriors()
    knots, values = [[0.1], [0.5], [0.9]], [0.0, 0.0, 0.0]
    variance, ell = priors.field_variance.median(), priors.field_lengthscale.median()
    log_ratio = (
        field_log_prior(knots, values, [variance, 1e-3])
        + priors.field_lengthscale.logpdf(1e-3)
        - field_log_prior(knots, values, [variance, ell])
        - priors.field_lengthscale.logpdf(ell)
        + math.log(1e-3)
        - math.log(ell)
    )
    assert log_ratio < -20.0  # acceptance probability below e^-20


def test_hyper_chain_matches_quadrature_conditional():
    # the production hyper block with the knot values held at zero samples
    # p(v, l | delta=0) ~ N(0; K(v, l)) p(v) p(l); compare chain means to
    # a dense quadrature of that density
    knots = np.array([[0.1], [0.5], [0.9]])
    vp = Prior.log_normal(math.log(0.05), 0.75)
    lp = Prior.log_normal(math.log(0.3), 0.5)
    priors = CalibrationPriors(field_variance=vp, field_lengthscale=lp)
    data = unit_dataset(knots, np.zeros(3))
    chain = field_chain(data, ExactEmulator(lambda row: row[1]), priors, seed=0)
    chain.steps["hyper:p0"][0] = 0.5
    vs, ls = [], []
    for _ in range(30_000):
        chain._update_hyper(0)
        vs.append(chain.hypers[0, 0, 0])
        ls.append(chain.hypers[0, 0, 1])
    assert np.array_equal(chain.values[0, 0], np.zeros(3))
    vs = np.array(vs[2000:])
    ls = np.array(ls[2000:])

    lv_grid = np.linspace(math.log(0.05) - 6.0, math.log(0.05) + 4.0, 220)
    ll_grid = np.linspace(math.log(0.3) - 4.0, math.log(0.3) + 4.0, 220)
    d2 = (knots - knots.T) ** 2
    logw = np.empty((lv_grid.size, ll_grid.size))
    for i, lv in enumerate(lv_grid):
        for j, ll in enumerate(ll_grid):
            K = math.exp(lv) * np.exp(-d2 / math.exp(ll) ** 2) + FIELD_JITTER * np.eye(3)
            _, logdet = np.linalg.slogdet(K)
            logw[i, j] = (
                -0.5 * logdet
                - 1.5 * math.log(2 * math.pi)
                + vp.logpdf(math.exp(lv))
                + lp.logpdf(math.exp(ll))
                + lv + ll  # jacobian of the log-space quadrature grid
            )
    w = np.exp(logw - logw.max())
    w /= w.sum()
    ev = float((w * np.exp(lv_grid)[:, None]).sum())
    el = float((w * np.exp(ll_grid)[None, :]).sum())
    assert vs.mean() == pytest.approx(ev, rel=0.12)
    assert ls.mean() == pytest.approx(el, rel=0.12)


class FixedNormals:
    """Stands in for the generator: every standard normal draw is a fixed vector."""

    def __init__(self, z):
        self.z = np.asarray(z, float)

    def standard_normal(self, n):
        return self.z[:n].copy()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("z", [[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])
def test_hyper_proposal_outside_float_range_is_refused(z):
    # a log-space step of 800 overflows the variance past 1.8e308 or
    # underflows the variance or the lengthscale to zero
    data = unit_dataset([[0.1], [0.5], [0.9]], [0.5, 0.5, 0.5])
    chain = field_chain(data, ExactEmulator(lambda row: row[1]), CalibrationPriors())
    chain.rngs = [FixedNormals(z)]

    def no_decision(*args):
        raise AssertionError("an out-of-range proposal reached the Metropolis decision")

    chain.accept = no_decision
    chain.steps["hyper:p0"] = [800.0]
    state = ("hypers", "log_hypers", "chols", "log_hyper_sum", "log_diag", "field_prior",
             "hyper_prior")
    before = {name: copy.deepcopy(getattr(chain, name)) for name in state}
    assert chain._update_hyper(0) == [False]  # one decision for the one chain: a rejection
    for name in state:
        assert np.array_equal(np.asarray(getattr(chain, name)), np.asarray(before[name])), name


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("additive", [False, True])
def test_overflowing_hyper_proposals_are_counted_rejections(additive):
    # with no burn-in the hyper steps stay at their cap of 1e3, so about a
    # quarter of the proposals overflow exp() and many more underflow
    data, emu, priors, _, _ = gaussian_rig([0.6, 0.45])
    cfg = McmcConfig(iterations=300, burn_in=0, thin=1, chains=1, seed=5,
                     initial_step=1e3, theta0=(0.5,), audit_every=50)
    chain = field_chain(data, emu, priors, cfg, additive=additive)
    calls = record_decisions(chain)
    out = chain.run()
    assert [name for name in calls if name.startswith("hyper:")] == (
        ["hyper:p0"] + (["hyper:eta"] if additive else []))
    assert_counted_decisions(chain, calls)
    assert np.all(np.isfinite(out["hyper"]["p0"])) and np.all(out["hyper"]["p0"] > 0)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowing_hyper_proposals_do_not_stop_the_baseline():
    data, emu, priors, _, _ = gaussian_rig([0.6, 0.45])
    cfg = McmcConfig(iterations=300, burn_in=0, thin=1, chains=1, seed=5,
                     initial_step=1e3, theta0=(0.5,), audit_every=50)
    samples = run_koh(data, emu, priors, cfg)
    assert 0.0 <= samples.acceptance_rates["hyper:eta"] < 0.5
    assert np.all(np.isfinite(samples.hyper_draws["eta"]))


# -- full sampler --------------------------------------------------------------


def gaussian_rig(y_obs, sigma2=0.0025, v0=0.04, l0=0.3):
    """Linear-Gaussian setup with an exact analytic posterior over 2 knot values."""
    knots = np.array([[0.3], [0.7]])
    data = unit_dataset(knots, y_obs)
    emu = ExactEmulator(lambda row: row[1])
    priors = CalibrationPriors(
        field_variance=Prior.log_normal(math.log(v0), 0.01),
        field_lengthscale=Prior.log_normal(math.log(l0), 0.01),
        noise=Prior.inverse_gamma(3.0, 2.0 * sigma2),
    )
    K0 = v0 * np.exp(-((knots - knots.T) ** 2) / l0**2) + FIELD_JITTER * np.eye(2)
    prec = np.linalg.inv(K0) + np.eye(2) / sigma2
    cov = np.linalg.inv(prec)
    mean = cov @ ((np.asarray(y_obs) - 0.5) / sigma2)
    return data, emu, priors, mean, cov


def batch_se(x, batches=50):
    n = (len(x) // batches) * batches
    bm = x[:n].reshape(batches, -1).mean(axis=1)
    return bm.std(ddof=1) / math.sqrt(batches)


def test_sampler_matches_analytic_gaussian_posterior():
    data, emu, priors, mean, cov = gaussian_rig([0.8, 0.3])
    cfg = McmcConfig(
        iterations=24_000, burn_in=4_000, thin=1, chains=1, seed=1,
        sample_hyper=False, sample_sigma2=False, theta0=(0.5,), audit_every=5000,
    )
    samples = run_integrated_delta(data, emu, priors, cfg)
    draws = samples.delta_draws["p0"]
    for k in range(2):
        se = batch_se(draws[:, k])
        assert abs(draws[:, k].mean() - mean[k]) < 3 * se
    prod = (draws[:, 0] - mean[0]) * (draws[:, 1] - mean[1])
    se = batch_se(prod)
    assert abs(prod.mean() - cov[0, 1]) < 3 * se


def test_flat_likelihood_recovers_prior():
    knots = np.array([[0.2], [0.5], [0.8]])
    data = unit_dataset(knots, np.zeros(3))
    emu = ExactEmulator(lambda row: 0.0)
    v0, l0 = 0.04, 0.3
    priors = CalibrationPriors(
        field_variance=Prior.log_normal(math.log(v0), 0.01),
        field_lengthscale=Prior.log_normal(math.log(l0), 0.01),
        noise=Prior.inverse_gamma(3.0, 2.0e8),  # keeps sigma2 ~ 1e8: flat likelihood
    )
    cfg = McmcConfig(
        iterations=60_500, burn_in=500, thin=1, chains=1, seed=4,
        sample_hyper=False, sample_sigma2=False, theta0=(0.5,), audit_every=10_000,
    )
    samples = run_integrated_delta(data, emu, priors, cfg)
    draws = samples.delta_draws["p0"]
    K0 = v0 * np.exp(-((knots - knots.T) ** 2) / l0**2) + FIELD_JITTER * np.eye(3)
    for k in range(3):
        assert abs(draws[:, k].mean()) < 3 * batch_se(draws[:, k])
    rel = np.linalg.norm(np.cov(draws.T) - K0) / np.linalg.norm(K0)
    assert rel < 0.05


def test_seed_determinism():
    data, emu, priors, _, _ = gaussian_rig([0.7, 0.4])
    cfg = McmcConfig(iterations=400, burn_in=100, thin=2, chains=2, seed=7, theta0=(0.5,))
    s1 = run_integrated_delta(data, emu, priors, cfg)
    s2 = run_integrated_delta(data, emu, priors, cfg)
    assert np.array_equal(s1.delta_draws["p0"], s2.delta_draws["p0"])
    assert np.array_equal(s1.sigma2_draws, s2.sigma2_draws)
    assert np.array_equal(s1.summaries["predictive_mean"], s2.summaries["predictive_mean"])


def test_posterior_predictive_degenerate_draw_and_variance_floor():
    data, emu, priors, _, _ = gaussian_rig([0.5, 0.5])
    cfg = McmcConfig(iterations=2, burn_in=1, thin=1, chains=1, seed=0,
                     sample_hyper=False, sample_sigma2=False, theta0=(0.5,), audit_every=0)
    samples = run_integrated_delta(data, emu, priors, cfg)
    # force the single stored draw to exactly zero drift
    samples.delta_draws["p0"][:] = 0.0
    query = np.linspace(0, 1, 9)[:, None]
    pred = posterior_predictive(samples, emu, query)
    assert np.allclose(pred.mean, 0.5)  # emulator at (x, theta0): f = theta = 0.5
    sigma2 = float(samples.sigma2_draws[0])
    assert np.all(pred.variance >= sigma2 - 1e-12)  # noise variance always added


def test_log_posterior_audit_passes_during_runs():
    data, emu, priors, _, _ = gaussian_rig([0.6, 0.45])
    cfg = McmcConfig(iterations=500, burn_in=100, thin=1, chains=1, seed=2,
                     theta0=(0.5,), audit_every=50)
    run_integrated_delta(data, emu, priors, cfg)  # raises on audit failure


def test_log_posterior_audit_fails_on_one_chains_cached_log_likelihood():
    data = unit_dataset([[0.1], [0.6]], [0.5, 0.4])
    knots, obs_idx = _build_knots(data)
    chain = _Chain(data, ExactEmulator(lambda row: row[1]), CalibrationPriors(),
                   McmcConfig(iterations=2, burn_in=1, theta0=(0.5,)),
                   [np.random.default_rng(seed) for seed in (0, 1)], knots, obs_idx,
                   drift=True, additive=False, accept=mh_accept, gibbs=gibbs_sigma2)
    chain.loglik[1] += 1e-6
    chain._audit(0)
    cached = chain.total(1)
    recomputed = embedded_log_posterior(chain.snapshot(1), data, chain.emulator, chain.priors)
    with pytest.raises(RuntimeError) as err:
        chain._audit(1)
    assert str(err.value) == (f"log-posterior audit failed: cached {cached!r} "
                              f"vs recomputed {recomputed!r}")


def test_log_posterior_of_a_nan_emulator_output_is_minus_inf(caplog):
    data = unit_dataset([[0.1], [0.6]], [0.5, 0.4])
    state = ChainState([0.5], np.zeros((0, 2)), np.zeros((0, 2)), noise_var=0.01)
    priors = CalibrationPriors()
    assert math.isfinite(embedded_log_posterior(state, data, ExactEmulator(lambda row: 0.5),
                                                priors))
    nan_at_one = ExactEmulator(lambda row: math.nan if row[0] > 0.5 else 0.5)
    with caplog.at_level(logging.WARNING, logger="driftcal.embedded"):
        assert embedded_log_posterior(state, data, nan_at_one, priors) == -math.inf
    assert caplog.messages == ["emulator returned non-finite output; state rejected"]


def test_mcmc_config_burn_in_defaults_to_half_the_iterations_up_to_1500():
    assert McmcConfig(iterations=1000).burn_in == 500
    assert McmcConfig().burn_in == 1500
    assert McmcConfig(iterations=1).burn_in == 0
    assert McmcConfig(iterations=1000, burn_in=10).burn_in == 10


def test_mcmc_config_validation():
    with pytest.raises(ValueError):
        McmcConfig(iterations=10, burn_in=10)
    with pytest.raises(ValueError):
        McmcConfig(thin=0)
    with pytest.raises(ValueError):
        McmcConfig(chains=0)


def test_out_of_support_initial_theta_is_an_error():
    data, emu, _, _, _ = gaussian_rig([0.6, 0.4])
    priors = CalibrationPriors(theta=(Prior.uniform(0.0, 0.4),))  # theta0 below
    cfg = McmcConfig(iterations=100, burn_in=10, thin=1, chains=1, seed=0,
                     theta0=(0.9,))
    with pytest.raises(RuntimeError, match="initialization"):
        run_integrated_delta(data, emu, priors, cfg)


def test_step_adaptation_moves_toward_target():
    # over 200 burn-in sweeps, every proposal of chain 0 is accepted and none of chain 1's
    data = unit_dataset([[0.1], [0.5], [0.9]], [0.5, 0.5, 0.5])
    cfg = McmcConfig(iterations=201, burn_in=200, chains=2, theta0=(0.5,), audit_every=0)
    knots, obs_idx = _build_knots(data)
    chain = _Chain(data, ExactEmulator(lambda row: row[1]), CalibrationPriors(), cfg,
                   [np.random.default_rng(s) for s in (5, 6)], knots, obs_idx, drift=True,
                   additive=False, accept=embedded.mh_accept, gibbs=embedded.gibbs_sigma2)
    chain.blocks = [("delta:p0", lambda engine: [True, False])]
    chain.run()
    [up, down] = chain.steps["delta:p0"]
    assert up > 0.5 > down  # the step grows while proposals are accepted, shrinks otherwise


# -- grid summaries, remembered per sample set -----------------------------------


def two_field_samples(T=6, K=3):
    rng = np.random.default_rng(8)
    return PosteriorSamples(
        kind="integrated_delta",
        param_names=("a", "b"),
        knots=np.linspace(0.1, 0.9, K)[:, None],
        delta_draws={n: 0.1 * rng.standard_normal((T, K)) for n in "ab"},
        hyper_draws={n: rng.uniform(0.2, 0.6, (T, 2)) for n in "ab"},
        sigma2_draws=rng.uniform(0.01, 0.02, T),
        theta_draws=rng.uniform(0.3, 0.7, (T, 2)),
        base_theta=np.array([0.5, 0.5]),
        acceptance_rates={},
        chains=2,
        domain_bounds=UNIT_BOUNDS,
        theta_bounds=((0.0, 1.0), (0.0, 1.0)),
        y_shift=0.25,
        y_scale=2.0,
        grid=np.linspace(0.0, 1.0, 9),
    )


def drift_response(Q):
    return Q[:, 1] + 0.5 * Q[:, 2] * Q[:, 0]


def counting_emulator():
    """An exact emulator that records the row count of each query in ``rows``."""
    emu = ExactEmulator(lambda Q: emu.rows.append(len(Q)) or drift_response(Q), vectorized=True)
    emu.rows = []
    return emu


def test_summaries_of_an_empty_sample_set_raise():
    s = two_field_samples(T=0)
    with pytest.raises(ValueError, match="at least one stored draw"):
        delta_field_curves(s, "a", s.grid)
    with pytest.raises(ValueError, match="at least one stored draw"):
        posterior_predictive(s, counting_emulator(), s.grid[:, None])


def test_summaries_are_remembered_until_anything_they_read_changes(monkeypatch):
    s = two_field_samples()
    query, grid = np.linspace(0.0, 1.0, 7)[:, None], s.grid
    band_passes = []
    curves = embedded._conditional_curves

    def counted_curves(knots, X, *rest, **kw):
        if np.array_equal(X, grid[:, None]):  # a band pass; the predictive's query is not the grid
            band_passes.append(1)
        return curves(knots, X, *rest, **kw)

    monkeypatch.setattr(embedded, "_conditional_curves", counted_curves)
    emu = counting_emulator()

    def summaries(samples, emulator=emu, q=query, max_draws=4):
        return (posterior_predictive(samples, emulator, q, max_draws=max_draws),
                delta_field_curves(samples, "a", grid, max_draws=max_draws))

    def assert_fresh(got, samples, **kw):
        """``got`` equals, bitwise, the summaries of a copy of ``samples`` with nothing remembered."""
        (pred, band), (ref_pred, ref_band) = got, summaries(replace(samples), **kw)
        assert np.array_equal(pred.mean, ref_pred.mean)
        assert np.array_equal(pred.variance, ref_pred.variance)
        assert np.array_equal(band[0], ref_band[0]) and np.array_equal(band[1], ref_band[1])

    def assert_miss(samples, *, band=True, **kw):
        queried = kw.get("emulator", emu).rows
        n_rows, n_bands = len(queried), len(band_passes)
        got = summaries(samples, **kw)
        assert len(queried) > n_rows and len(band_passes) == n_bands + band
        assert_fresh(got, samples, **kw)
        return got

    first = summaries(s)
    n_rows, n_bands = len(emu.rows), len(band_passes)
    again = summaries(s)
    assert (len(emu.rows), len(band_passes)) == (n_rows, n_bands)  # both hits
    assert again[0] is first[0] and again[1] is first[1]
    assert_fresh(first, s)
    for a in (first[0].mean, first[0].variance, *first[1]):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0

    s.delta_draws["a"][1, 0] += 0.05  # an in-place write to a selected draw
    moved = assert_miss(s)
    assert not np.array_equal(moved[0].mean, first[0].mean)
    assert not np.array_equal(moved[1][0], first[1][0])
    s.hyper_draws["a"] = s.hyper_draws["a"] * 1.5  # a rebound draw array
    assert not np.array_equal(assert_miss(s)[1][1], moved[1][1])
    assert_miss(s, band=False, q=query[::2])  # another query
    assert_miss(s, max_draws=None)  # another draw selection
    assert_miss(s, band=False, emulator=counting_emulator())  # another emulator object


def test_plot_files_reuse_the_sampler_summary_pass(tmp_path, monkeypatch):
    data = unit_dataset(np.linspace(0.1, 0.9, 5)[:, None],
                        0.4 + 0.3 * np.linspace(0.1, 0.9, 5), dtheta=2)
    X = np.random.default_rng(5).random((30, 3))
    emu = gp.fit_gp(TrainingSet.from_raw(X, drift_response(X)),
                    KernelParams(1.0, [0.4, 0.4, 0.4], nugget=1e-8))
    priors = CalibrationPriors(noise=Prior.inverse_gamma(3.0, 2.0 * 0.05**2))
    cfg = McmcConfig(iterations=200, burn_in=100, thin=2, chains=2, seed=3,
                     theta0=(0.5, 0.5), grid_points=11)
    samples = run_integrated_delta(data, emu, priors, cfg)

    rows = []  # the row count of each call of a fixed-input emulator query
    at_inputs = gp.GPModel.at_inputs

    def counted_at_inputs(model, x):
        query = at_inputs(model, x)
        return lambda theta: rows.append(theta.shape[-2]) or query(theta)

    monkeypatch.setattr(gp.GPModel, "at_inputs", counted_at_inputs)
    emit_plot_data(samples, samples.grid, tmp_path / "reused", emu)
    assert rows == []  # the sampler's summary pass answered every grid query

    save_samples(samples, tmp_path / "samples")
    loaded = load_samples(tmp_path / "samples")  # nothing remembered
    emit_plot_data(loaded, loaded.grid, tmp_path / "recomputed", emu)
    assert rows == [samples.grid.size] * samples.n_draws
    names = sorted(p.name for p in (tmp_path / "reused").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "recomputed").iterdir())
    assert len(names) == 3  # predictive.csv and one drift file per field
    for name in names:
        assert (tmp_path / "reused" / name).read_bytes() == (
            tmp_path / "recomputed" / name).read_bytes(), name
