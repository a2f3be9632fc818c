"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Expensive synthetic-recovery runs are shared through module-scoped
fixtures; their build time is charged against the criteria that consume
them.
"""

import json
import math
import os
import time

import numpy as np
import pytest
from scipy import stats

import driftcal.diagnostics as diag
from driftcal.config import parse_config
from driftcal.design import Prior, latin_hypercube
from driftcal.embedded import (
    CalibrationPriors,
    McmcConfig,
    posterior_predictive,
    run_integrated_delta,
)
from driftcal.gp import (
    KernelParams,
    TrainingSet,
    fit_gp,
    log_marginal_likelihood,
    optimize_emulator,
    predict,
    predict_standardized,
)
from driftcal.koh import run_koh
from driftcal.problems import dipole_dataset, dipole_problem
from driftcal.runner import orchestrate
from driftcal.simulators import CalibrationDataset, CriticalSearchSpec, bisection_critical_search

NOISE_SD = 0.08


def stamp(num, label, t0, limit):
    dt = time.perf_counter() - t0
    assert dt < limit, f"criterion {num} exceeded its runtime budget: {dt:.1f}s >= {limit}s"
    print(f"\nACCEPTANCE {num:>2} {label}: PASS ({dt:.1f}s < {limit}s)")


# ---------------------------------------------------------------------------
# shared synthetic-recovery assets
# ---------------------------------------------------------------------------


def build_emulator(ds, budget=200, seed=0):
    train = TrainingSet.from_raw(ds.sim_inputs_unit(), ds.sim_y)
    init = KernelParams(1.0, np.full(train.dim, 0.4), nugget=1e-8)
    return fit_gp(train, optimize_emulator(train, init, budget=budget, seed=seed)), train


def noise_prior(noise_sd, train):
    s = noise_sd / train.scale
    return Prior.inverse_gamma(3.0, 2.0 * s * s)


@pytest.fixture(scope="module")
def drift_assets():
    t0 = time.perf_counter()
    ds = dipole_dataset(n_sim=43, n_obs=5, noise_sd=NOISE_SD, seed=0, drift=True)
    model, train = build_emulator(ds)
    t_setup = time.perf_counter() - t0

    t0 = time.perf_counter()
    id_priors = CalibrationPriors(noise=noise_prior(NOISE_SD, train))
    id_samples = run_integrated_delta(
        ds, model, id_priors,
        McmcConfig(iterations=6000, burn_in=2500, thin=5, chains=2, seed=1),
    )
    t_id = time.perf_counter() - t0

    t0 = time.perf_counter()
    koh_priors = CalibrationPriors(
        theta=(Prior.uniform(35.0, 55.0), Prior.uniform(0.28, 0.38),
               Prior.uniform(0.56, 2.88)),
        noise=noise_prior(NOISE_SD, train),
    )
    koh_samples = run_koh(
        ds, model, koh_priors,
        McmcConfig(iterations=9000, burn_in=3000, thin=3, chains=2, seed=21,
                   initial_step=0.3),
    )
    t_koh = time.perf_counter() - t0
    return {
        "ds": ds, "model": model, "train": train,
        "id": id_samples, "koh": koh_samples,
        "t_setup": t_setup, "t_id": t_id, "t_koh": t_koh,
    }


# ---------------------------------------------------------------------------
# 1. GP oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_1_gp_oracles():
    # noisy-GP instances (nugget 1e-2 bounds the conditioning) so the dense
    # LU-based oracle and the Cholesky path are both accurate to 1e-10
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    from driftcal.gp import build_covariance

    for trial in range(20):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 4))
        x = rng.uniform(size=(n, d))
        y = rng.standard_normal(n)
        p = KernelParams(float(rng.uniform(0.3, 2.0)), rng.uniform(0.1, 0.9, d),
                         nugget=1e-2)

        K_oracle = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                s = sum(((x[i, dd] - x[j, dd]) / p.lengthscales[dd]) ** 2 for dd in range(d))
                K_oracle[i, j] = p.variance_scale * math.exp(-s)
        assert np.max(np.abs(build_covariance(x, x.copy(), p) - K_oracle)) < 1e-10

        train = TrainingSet.from_raw(x, y)
        model = fit_gp(train, p)
        q = rng.uniform(size=(3, d))
        Kn = K_oracle + p.nugget * np.eye(n)
        Ks = np.empty((3, n))
        for i in range(3):
            for j in range(n):
                s = sum(((q[i, dd] - x[j, dd]) / p.lengthscales[dd]) ** 2 for dd in range(d))
                Ks[i, j] = p.variance_scale * math.exp(-s)
        mean_oracle = Ks @ np.linalg.solve(Kn, train.targets)
        var_oracle = p.variance_scale - np.einsum("ij,ji->i", Ks, np.linalg.solve(Kn, Ks.T))
        mean, var = predict_standardized(model, q)
        assert np.max(np.abs(mean - mean_oracle)) < 1e-10
        assert np.max(np.abs(var - var_oracle)) < 1e-10

        sign, logdet = np.linalg.slogdet(Kn)
        lml_oracle = (-0.5 * train.targets @ np.linalg.solve(Kn, train.targets)
                      - 0.5 * logdet - 0.5 * n * math.log(2 * math.pi))
        assert log_marginal_likelihood(model) == pytest.approx(lml_oracle, abs=1e-10)

    # noise-free interpolation: nugget 0, which the kernel of the 10 points takes as it is
    x = np.sort(np.random.default_rng(7).uniform(size=10))[:, None]
    y = np.sin(3 * x[:, 0])
    model = fit_gp(TrainingSet.from_raw(x, y), KernelParams(1.0, [0.4], nugget=0.0))
    assert model.params.nugget == 0.0
    assert np.max(np.abs(predict(model, x).mean - y)) < 1e-6
    stamp(1, "gp-oracle-equivalence", t0, 5.0)


# ---------------------------------------------------------------------------
# 2. LHS stratification
# ---------------------------------------------------------------------------


def test_criterion_2_lhs_stratification():
    t0 = time.perf_counter()
    rng = np.random.default_rng(200)
    for _ in range(200):
        n = int(rng.integers(1, 101))
        d = int(rng.integers(1, 7))
        seed = int(rng.integers(0, 2**31 - 1))
        design = latin_hypercube(n, d, seed)
        for j in range(d):
            bins = np.floor(design[:, j] * n).astype(int)
            assert sorted(bins) == list(range(n))
    stamp(2, "lhs-stratification", t0, 5.0)


# ---------------------------------------------------------------------------
# 3. bisection threshold search
# ---------------------------------------------------------------------------


def test_criterion_3_bisection():
    t0 = time.perf_counter()
    rng = np.random.default_rng(300)
    for _ in range(100):
        lo = float(rng.uniform(-5, 5))
        span = float(rng.uniform(0.5, 20.0))
        threshold = lo + float(rng.uniform(0.02, 0.98)) * span
        tol = float(rng.uniform(1e-6, 1e-2))
        calls = {"n": 0}

        def predicate(tau, th=threshold):
            calls["n"] += 1
            return tau >= th

        spec = CriticalSearchSpec(lo, lo + span, tolerance=tol, max_iter=200)
        out = bisection_critical_search(predicate, spec, check_bracket=False)
        assert abs(out - threshold) <= tol
        assert calls["n"] <= math.ceil(math.log2(span / tol))
    stamp(3, "bisection-log2-bound", t0, 1.0)


# ---------------------------------------------------------------------------
# 4. Gibbs conditional
# ---------------------------------------------------------------------------


def test_criterion_4_gibbs_conditional():
    t0 = time.perf_counter()
    from driftcal.embedded import gibbs_sigma2

    rng = np.random.default_rng(400)
    resid = np.array([0.21, -0.43, 0.05, 0.62, -0.37, 0.11, -0.2, 0.3])
    a0, b0 = 3.0, 0.4
    prior = Prior.inverse_gamma(a0, b0)
    draws = np.array([gibbs_sigma2(resid, prior, rng) for _ in range(10_000)])
    a_n = a0 + resid.size / 2
    b_n = b0 + 0.5 * float(resid @ resid)
    ks = stats.kstest(draws, stats.invgamma(a_n, scale=b_n).cdf)
    assert ks.pvalue > 0.01
    analytic_mean = b_n / (a_n - 1.0)
    assert abs(draws.mean() - analytic_mean) / analytic_mean < 0.03
    stamp(4, "gibbs-inverse-gamma-conditional", t0, 10.0)


# ---------------------------------------------------------------------------
# 5. MH correctness on an analytic 2-D Gaussian posterior
# ---------------------------------------------------------------------------


def batch_se(x, batches=50):
    n = (len(x) // batches) * batches
    bm = x[:n].reshape(batches, -1).mean(axis=1)
    return bm.std(ddof=1) / math.sqrt(batches)


def test_criterion_5_mh_gaussian():
    t0 = time.perf_counter()
    from driftcal.embedded import FIELD_JITTER
    from driftcal.gp import ExactEmulator

    knots = np.array([[0.3], [0.7]])
    y_obs = np.array([0.8, 0.3])
    sigma2, v0, l0 = 0.0025, 0.04, 0.3
    data = CalibrationDataset(
        obs_x=knots, obs_y=y_obs,
        sim_x=np.array([[0.1], [0.9]]), sim_theta=np.full((2, 1), 0.5),
        sim_y=np.zeros(2),
        domain_bounds=((0.0, 1.0),), theta_bounds=((0.0, 1.0),),
        param_names=("p0",),
    )
    emu = ExactEmulator(lambda Q: Q[:, 1], vectorized=True)
    priors = CalibrationPriors(
        field_variance=Prior.log_normal(math.log(v0), 0.01),
        field_lengthscale=Prior.log_normal(math.log(l0), 0.01),
        noise=Prior.inverse_gamma(3.0, 2.0 * sigma2),
    )
    cfg = McmcConfig(
        iterations=105_000, burn_in=5_000, thin=1, chains=1, seed=5,
        sample_hyper=False, sample_sigma2=False, theta0=(0.5,), audit_every=20_000,
    )
    samples = run_integrated_delta(data, emu, priors, cfg)
    draws = samples.delta_draws["p0"]
    assert draws.shape[0] == 100_000

    K0 = v0 * np.exp(-((knots - knots.T) ** 2) / l0**2) + FIELD_JITTER * np.eye(2)
    cov = np.linalg.inv(np.linalg.inv(K0) + np.eye(2) / sigma2)
    mean = cov @ ((y_obs - 0.5) / sigma2)

    for k in range(2):
        se = batch_se(draws[:, k])
        assert abs(draws[:, k].mean() - mean[k]) < 3 * se, f"mean component {k}"
    for i, j in ((0, 0), (0, 1), (1, 1)):
        prod = (draws[:, i] - mean[i]) * (draws[:, j] - mean[j])
        se = batch_se(prod)
        assert abs(prod.mean() - cov[i, j]) < 3 * se, f"cov entry ({i},{j})"
    stamp(5, "mh-analytic-gaussian", t0, 60.0)


# ---------------------------------------------------------------------------
# 6. null-drift closure
# ---------------------------------------------------------------------------


def test_criterion_6_null_drift_closure():
    t0 = time.perf_counter()
    ds = dipole_dataset(n_sim=43, n_obs=5, noise_sd=0.05, seed=2, drift=False)
    model, train = build_emulator(ds)
    priors = CalibrationPriors(noise=noise_prior(0.05, train))
    samples = run_integrated_delta(
        ds, model, priors,
        McmcConfig(iterations=6000, burn_in=2500, thin=5, chains=2, seed=3),
    )
    for name in ds.param_names:
        mean = samples.summaries[f"delta_mean:{name}"]
        sd = samples.summaries[f"delta_sd:{name}"]
        assert np.all(np.abs(mean) <= 2.0 * sd), f"delta for {name} not within 2 sd of 0"
    stamp(6, "null-drift-closure", t0, 300.0)


# ---------------------------------------------------------------------------
# 7. drift recovery (the core synthetic-truth claim)
# ---------------------------------------------------------------------------


def test_criterion_7_drift_recovery(drift_assets):
    t0 = time.perf_counter()
    samples = drift_assets["id"]
    _sim, _spec, truth = dipole_problem(n_sim=43, seed=0, drift=True)
    grid = samples.grid
    assert grid.size == 101

    drifted = {"mu": truth.drifts[0], "nu": truth.drifts[1]}
    for name, drift_fn in drifted.items():
        mean = samples.summaries[f"delta_mean:{name}"]
        sd = samples.summaries[f"delta_sd:{name}"]
        coverage = np.mean(np.abs(mean - drift_fn(grid)) <= 2.0 * sd)
        assert coverage >= 0.90, f"{name}: true-drift coverage {coverage:.2f} < 0.90"
    mean = samples.summaries["delta_mean:l_c"]
    sd = samples.summaries["delta_sd:l_c"]
    coverage = np.mean(np.abs(mean) <= 2.0 * sd)
    assert coverage >= 0.90, f"l_c: zero coverage {coverage:.2f} < 0.90"

    # adapted step sizes land in a sane acceptance window
    for block, rate in samples.acceptance_rates.items():
        assert 0.1 <= rate <= 0.6, f"{block} acceptance {rate:.2f} outside [0.1, 0.6]"

    elapsed_budget = drift_assets["t_setup"] + drift_assets["t_id"]
    assert elapsed_budget < 300.0
    stamp(7, "drift-recovery", t0, 300.0)


# ---------------------------------------------------------------------------
# 8. benchmark asymmetry between the two formulations
# ---------------------------------------------------------------------------


def test_criterion_8_benchmark_asymmetry(drift_assets):
    t0 = time.perf_counter()
    ds = drift_assets["ds"]
    model = drift_assets["model"]
    id_samples = drift_assets["id"]
    koh_samples = drift_assets["koh"]

    id_pred = posterior_predictive(id_samples, model, ds.obs_x)
    koh_pred = posterior_predictive(koh_samples, model, ds.obs_x)
    limit = 2.0 * NOISE_SD
    id_rmse = diag.rmse(id_pred.mean, ds.obs_y)
    koh_rmse = diag.rmse(koh_pred.mean, ds.obs_y)
    assert id_rmse <= limit, f"integrated-delta predictive RMSE {id_rmse:.3f} > {limit}"
    assert koh_rmse <= limit, f"KOH combined predictive RMSE {koh_rmse:.3f} > {limit}"
    # both predictive means track every observation inside the 2 sd band
    assert np.all(np.abs(id_pred.mean - ds.obs_y) <= 2.0 * id_pred.sd)
    assert np.all(np.abs(koh_pred.mean - ds.obs_y) <= 2.0 * koh_pred.sd)

    lowx = ds.obs_x_unit()[:, 0] <= 0.25
    assert lowx.sum() >= 2
    theta_hat = koh_samples.theta_draws.mean(axis=0)
    Q = np.hstack([ds.obs_x_unit(), np.tile(theta_hat, (ds.n_obs, 1))])
    koh_eta_only = diag.rmse(predict(model, Q).mean[lowx], ds.obs_y[lowx])
    id_lowx = diag.rmse(id_pred.mean[lowx], ds.obs_y[lowx])
    ratio = koh_eta_only / id_lowx
    assert ratio >= 2.0, f"low-x RMSE ratio {ratio:.2f} < 2"

    total = (drift_assets["t_setup"] + drift_assets["t_id"] + drift_assets["t_koh"]
             + time.perf_counter() - t0)
    assert total < 600.0
    stamp(8, "benchmark-asymmetry", t0, 600.0)


# ---------------------------------------------------------------------------
# 9. overfit monotonicity (bundled with the drift run)
# ---------------------------------------------------------------------------


def test_criterion_9_overfit_monotonicity(drift_assets):
    t0 = time.perf_counter()
    pm = drift_assets["id"].summaries["predictive_mean"]
    violations = int(np.sum(np.diff(pm) > 1e-9))
    assert violations == 0, f"{violations} increasing steps in the predictive mean"
    stamp(9, "overfit-monotonicity", t0, 300.0)


def test_drift_band_file_covers_zero_for_undrifted_parameter(drift_assets, tmp_path):
    # plot-data side of the drift run: the band for the undrifted parameter
    # must include zero at the far end of the domain
    from driftcal.runner import emit_plot_data

    emit_plot_data(drift_assets["id"], drift_assets["id"].grid, tmp_path,
                   drift_assets["model"], trajectories=5)
    table = np.loadtxt(tmp_path / "drift_l_c.csv", delimiter=",", comments="#", ndmin=2)
    mean_end, sd_end = table[-1, 1], table[-1, 2]
    assert abs(mean_end) <= 2.0 * sd_end
    assert table.shape[1] == 5 + 5  # x_norm, mean, sd, phys pair, 5 trajectories


# ---------------------------------------------------------------------------
# 10. determinism
# ---------------------------------------------------------------------------


def _compare_config(out_dir):
    return {
        "mode": "compare",
        "out_dir": out_dir,
        "seed": 9,
        "synthetic": {
            "simulator": {"kind": "analytic_dipole"},
            "domain_bounds": [[5.0, 40.0]],
            "theta_priors": [
                {"kind": "uniform", "lo": 35.0, "hi": 55.0},
                {"kind": "uniform", "lo": 0.28, "hi": 0.38},
                {"kind": "uniform", "lo": 0.56, "hi": 2.88},
            ],
            "param_names": ["mu", "nu", "l_c"],
            "n_sim": 20,
            "n_obs": 5,
            "noise_sd": 0.08,
            "truth": {
                "theta0": [45.0, 0.33, 1.72],
                "drifts": [
                    {"kind": "exp_decay", "params": [-0.3, 0.2]},
                    {"kind": "zero", "params": []},
                    {"kind": "zero", "params": []},
                ],
            },
        },
        "emulator": {"budget": 40},
        "mcmc": {"iterations": 240, "burn_in": 100, "thin": 2, "chains": 2},
        "koh": {"iterations": 240, "burn_in": 100, "thin": 2, "chains": 2},
        "grid_points": 21,
        "trajectories": 3,
        "predictive_draws": 50,
    }


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    orchestrate(parse_config(json.dumps(_compare_config(str(tmp_path / "a")))))
    orchestrate(parse_config(json.dumps(_compare_config(str(tmp_path / "b")))))
    skip = {"timing.json", "config_echo.json"}  # echo embeds the output path
    compared = 0
    for root, _dirs, files in os.walk(tmp_path / "a"):
        for name in files:
            if name in skip:
                continue
            a = os.path.join(root, name)
            b = a.replace(str(tmp_path / "a"), str(tmp_path / "b"), 1)
            with open(a, "rb") as fa, open(b, "rb") as fb:
                assert fa.read() == fb.read(), f"{name} differs between reruns"
            compared += 1
    assert compared >= 10
    stamp(10, "byte-identical-reruns", t0, 120.0)
