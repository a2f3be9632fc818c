import copy
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from driftcal import embedded, gp
from driftcal.design import Prior
from driftcal.embedded import (
    FIELD_JITTER,
    CalibrationPriors,
    ChainState,
    DiscrepancyField,
    McmcConfig,
    StepAdapter,
    ThetaStar,
    delta_field_curves,
    embedded_log_posterior,
    gibbs_sigma2,
    mh_accept,
    posterior_predictive,
    run_integrated_delta,
    _build_knots,
    _Chain,
)
from driftcal.gp import ExactEmulator, KernelParams, TrainingSet
from driftcal.koh import run_koh
from driftcal.runner import emit_plot_data
from driftcal.samples import PosteriorSamples, load_samples, save_samples
from driftcal.simulators import CalibrationDataset

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


def make_field(knots, values, variance=0.04, lengthscale=0.3):
    return DiscrepancyField(
        np.asarray(knots, float),
        np.asarray(values, float),
        KernelParams(variance, [lengthscale], FIELD_JITTER),
    )


# -- field and theta-star basics -------------------------------------------


def test_field_conditional_exact_at_knots():
    knots = np.array([[0.2], [0.5], [0.8]])
    values = np.array([0.3, -0.1, 0.2])
    f = make_field(knots, values)
    mean, var = f.conditional(knots)
    assert np.array_equal(mean, values)
    assert np.all(var == 0.0)
    mid, _ = f.conditional([[0.35]])
    assert np.isfinite(mid[0])


def test_field_log_prior_matches_scipy_mvn():
    knots = np.array([[0.1], [0.4], [0.9]])
    values = np.array([0.05, -0.02, 0.01])
    f = make_field(knots, values)
    ref = stats.multivariate_normal(mean=np.zeros(3), cov=f.prior_cov()).logpdf(values)
    assert f.log_prior() == pytest.approx(ref, abs=1e-9)


def test_theta_star_exact_addition_at_knots():
    knots = np.array([[0.2], [0.7]])
    f1 = make_field(knots, [0.11, -0.04])
    f2 = make_field(knots, [0.0, 0.25])
    ts = ThetaStar(base_theta=np.array([0.5, 0.4]), fields=(f1, f2))
    out = ts.evaluate([[0.2]])[0]
    assert out[0] == 0.5 + 0.11
    assert out[1] == 0.4 + 0.0
    out = ts.evaluate([[0.7]])[0]
    assert out[0] == 0.5 - 0.04
    assert out[1] == 0.4 + 0.25


def test_theta_star_rows_match_one_point_at_a_time():
    knots = np.array([[0.2], [0.5], [0.7]])
    f1 = make_field(knots, [0.11, 0.03, -0.04])
    f2 = make_field(knots, [0.0, -0.1, 0.25])
    ts = ThetaStar(base_theta=np.array([0.5, 0.4]), fields=(f1, f2))
    X = np.array([[0.0], [0.2], [0.33], [0.5], [0.61], [0.7], [0.95]])
    rows = ts.evaluate(X)
    single = np.vstack([ts.evaluate(X[i:i + 1]) for i in range(len(X))])
    assert rows.shape == (len(X), 2)
    at_knots = np.isin(X[:, 0], knots[:, 0])
    assert np.array_equal(rows[at_knots], single[at_knots])
    assert np.allclose(rows[~at_knots], single[~at_knots], rtol=1e-12, atol=0.0)


# -- proposals and acceptance ------------------------------------------------


def field_chain(data, emu, priors, cfg=None, additive=False, seed=5):
    """The production chain with drift fields on, theta fixed, decisions by ``embedded``."""
    cfg = cfg or McmcConfig(iterations=2, burn_in=1, theta0=(0.5,))
    knots, obs_idx = _build_knots(data)
    return _Chain(data, emu, priors, cfg, [np.random.default_rng(seed)], knots, obs_idx,
                  drift=True, additive=additive, sample_theta=False,
                  accept=embedded.mh_accept, gibbs=embedded.gibbs_sigma2)


def test_propose_zero_step_is_identity():
    data = unit_dataset([[0.1], [0.6]], [0.5, 0.5])
    chain = field_chain(data, ExactEmulator(lambda row: row[1]), CalibrationPriors(), seed=0)
    chain.values[0, 0] = np.array([0.2, -0.3])
    chain._init_parts()
    chain.adapters["delta:p0"][0].step = 0.0
    chain._update_field(0, adapting=False)
    assert np.array_equal(chain.values[0, 0], [0.2, -0.3])


def test_propose_covariance_matches_prior(monkeypatch):
    # constant emulator and every proposal accepted: the increments are the proposals
    monkeypatch.setattr(embedded, "mh_accept", lambda new, old, rng: True)
    data = unit_dataset([[0.1], [0.5], [0.9]], np.zeros(3))
    emu = ExactEmulator(lambda Q: np.zeros(len(Q)), vectorized=True)
    chain = field_chain(data, emu, CalibrationPriors(), seed=1)
    chain.adapters["delta:p0"][0].step = 1.0
    draws = np.empty((100_000, 3))
    for i in range(draws.shape[0]):
        before = chain.values[0, 0].copy()
        chain._update_field(0, adapting=False)
        draws[i] = chain.values[0, 0] - before
    sample_cov = np.cov(draws.T)
    h = chain.hypers[0, 0]
    K = make_field(data.obs_x, np.zeros(3), variance=h[0], lengthscale=h[1]).prior_cov()
    rel = np.linalg.norm(sample_cov - K) / np.linalg.norm(K)
    assert rel < 0.05


def test_mh_accept_rules():
    rng = np.random.default_rng(0)
    assert mh_accept(1.0, 0.0, rng)
    assert mh_accept(0.0, 0.0, rng)
    assert not mh_accept(-math.inf, 0.0, rng)
    assert not mh_accept(math.nan, 0.0, rng)


def test_mh_accept_frequency_at_half():
    rng = np.random.default_rng(3)
    n = 100_000
    acc = sum(mh_accept(-math.log(2.0), 0.0, rng) for _ in range(n))
    assert abs(acc / n - 0.5) < 0.01


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
    f = make_field(knots, np.full(len(knots), offset), variance=1.0, lengthscale=0.3)
    return ChainState(
        theta_star=ThetaStar(np.array([base]), (f,)),
        noise_var=noise_var,
    )


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
        f = make_field(knots, v, variance=1.0, lengthscale=0.3)
        return ChainState(
            theta_star=ThetaStar(np.array([0.5]), (f,)),
            noise_var=noise,
        )

    def direct_loglik(v):
        out = 0.0
        for (x,), yi, vi in zip(knots, y, v):
            m = quad(np.array([x, 0.5 + vi]))
            out += stats.norm(m, math.sqrt(noise)).logpdf(yi)
        return out

    lp1 = embedded_log_posterior(state_for(values), data, emu, priors)
    lp2 = embedded_log_posterior(state_for(2 * values), data, emu, priors)
    f1 = make_field(knots, values, variance=1.0, lengthscale=0.3)
    f2 = make_field(knots, 2 * values, variance=1.0, lengthscale=0.3)
    expected = (direct_loglik(2 * values) + f2.log_prior()) - (
        direct_loglik(values) + f1.log_prior()
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
    f = make_field([[0.1], [0.5], [0.9]], [0.0, 0.0, 0.0],
                   variance=priors.field_variance.median(),
                   lengthscale=priors.field_lengthscale.median())
    tiny = replace(f, hyper=KernelParams(f.hyper.variance_scale, [1e-3], FIELD_JITTER))
    log_ratio = (
        tiny.log_prior()
        + priors.field_lengthscale.logpdf(1e-3)
        - f.log_prior()
        - priors.field_lengthscale.logpdf(f.hyper.lengthscales[0])
        + math.log(1e-3)
        - math.log(f.hyper.lengthscales[0])
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
    chain.adapters["hyper:p0"][0].step = 0.5
    vs, ls = [], []
    for _ in range(30_000):
        chain._update_hyper(0, adapting=False)
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
    [adapter] = chain.adapters["hyper:p0"]
    adapter.step = 800.0
    state = ("hypers", "log_hypers", "chols", "log_hyper_sum", "log_diag", "field_prior",
             "hyper_prior")
    before = {name: copy.deepcopy(getattr(chain, name)) for name in state}
    chain._update_hyper(0, adapting=False)
    assert (chain.proposed["hyper:p0"], chain.accepted["hyper:p0"]) == (1, [0])
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
    out = chain.run()
    blocks = ["hyper:p0"] + (["hyper:eta"] if additive else [])
    for block in blocks:
        assert chain.proposed[block] == cfg.iterations
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


def test_step_adapter_moves_toward_target():
    up = StepAdapter(0.5)
    for _ in range(200):
        up.update(True)  # always accepted: step should grow
    down = StepAdapter(0.5)
    for _ in range(200):
        down.update(False)
    assert up.step > 0.5 > down.step


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


def test_summaries_are_remembered_until_anything_they_read_changes(monkeypatch):
    s = two_field_samples()
    band_passes = []
    curves = embedded._conditional_curves
    monkeypatch.setattr(embedded, "_conditional_curves",
                        lambda *a: band_passes.append(1) or curves(*a))
    emu = counting_emulator()
    query, grid = np.linspace(0.0, 1.0, 7)[:, None], s.grid

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

    rows = []
    predict = gp.predict_standardized
    monkeypatch.setattr(gp, "predict_standardized",
                        lambda model, Q: rows.append(len(Q)) or predict(model, Q))
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
