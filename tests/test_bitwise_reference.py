"""The LAPACK fast paths against the scipy and KernelParams code they replace.

The samplers call ``dtrtrs``/``dpotrs`` directly and build knot kernels from
raw hyperparameter vectors. Both must reproduce, bit for bit, the
``solve_triangular``/``cho_solve`` and ``build_covariance`` + ``_chol`` path,
which these tests keep as the reference.
"""

import numpy as np
import pytest
from scipy.linalg import cho_solve, solve_triangular

from driftcal import embedded, gp, koh
from driftcal.design import Prior
from driftcal.embedded import (
    FIELD_JITTER,
    CalibrationPriors,
    McmcConfig,
    _build_knots,
    _chol,
    _knot_chol,
    run_combined,
    run_integrated_delta,
)
from driftcal.gp import ExactEmulator, KernelParams, TrainingSet, build_covariance
from driftcal.koh import run_koh
from driftcal.simulators import CalibrationDataset


def ref_solve_lower(L, b):
    return solve_triangular(L, b, lower=True, check_finite=False)


def ref_cho_solve(L, b):
    return cho_solve((L, True), b)


def ref_knot_chol(knots):
    def knot_chol(diff_kk, h):
        return _chol(build_covariance(knots, None, KernelParams(h[0], h[1:], FIELD_JITTER)))

    return knot_chol


def spd_matrix(rng, n):
    A = rng.standard_normal((n, n + 3))
    return A @ A.T + 1e-3 * np.eye(n)


def se_knot_kernel(rng, n):
    knots = np.sort(rng.random(n))[:, None]
    params = KernelParams(rng.uniform(0.01, 2.0), [rng.uniform(0.05, 1.0)], FIELD_JITTER)
    return build_covariance(knots, None, params)


@pytest.mark.parametrize("n", [5, 20])
@pytest.mark.parametrize("make", [spd_matrix, se_knot_kernel])
def test_solvers_match_scipy_bitwise(n, make):
    rng = np.random.default_rng(n)
    for _ in range(20):
        L = _chol(make(rng, n))
        b = rng.standard_normal(n)
        B = rng.standard_normal((7, n))  # solved as B.T: a transposed right-hand side
        for rhs in (b, B.T):
            assert np.array_equal(gp._solve_lower(L, rhs), ref_solve_lower(L, rhs))
            assert np.array_equal(gp._cho_solve(L, rhs), ref_cho_solve(L, rhs))


def test_singular_triangle_raises_like_solve_triangular():
    L = np.tril(np.ones((3, 3)))
    L[1, 1] = 0.0
    with pytest.raises(np.linalg.LinAlgError, match="diagonal 1"):
        gp._solve_lower(L, np.ones(3))


@pytest.mark.parametrize("n", [5, 20])
@pytest.mark.parametrize("dx", [1, 2])
def test_knot_chol_matches_build_covariance_bitwise(n, dx):
    rng = np.random.default_rng(10 * n + dx)
    knots = rng.random((n, dx))
    diff_kk = knots[:, None, :] - knots[None, :, :]
    for _ in range(20):
        h = np.exp(rng.normal(0.0, 1.5, 1 + dx))
        assert np.array_equal(_knot_chol(diff_kk, h), ref_knot_chol(knots)(diff_kk, h))


def test_duplicate_knots_factor_through_jitter_escalation():
    knots = np.array([[0.2], [0.2], [0.7]])
    K = build_covariance(knots, None, KernelParams(1.0, [0.3]))  # no nugget: singular
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(K)
    L = _chol(K)
    assert np.array_equal(L, np.linalg.cholesky(K + 1e-12 * np.eye(3)))
    # at a large variance FIELD_JITTER alone no longer makes the kernel factor
    diff_kk = knots[:, None, :] - knots[None, :, :]
    L = _knot_chol(diff_kk, np.array([1e8, 0.3]))
    assert np.all(np.isfinite(L))
    assert np.allclose(L @ L.T, 1e8 * K, rtol=0, atol=1e-3)


def test_gp_fit_and_predict_match_scipy_path(monkeypatch):
    rng = np.random.default_rng(3)
    train = TrainingSet.from_raw(rng.random((20, 3)), rng.standard_normal(20))
    params = KernelParams(1.2, [0.3, 0.5, 0.8], nugget=1e-8)
    query = rng.random((5, 3))
    model = gp.fit_gp(train, params)
    fast = gp.predict_standardized(model, query)
    monkeypatch.setattr(gp, "_solve_lower", ref_solve_lower)
    monkeypatch.setattr(gp, "_cho_solve", ref_cho_solve)
    ref_model = gp.fit_gp(train, params)
    assert np.array_equal(model.alpha, ref_model.alpha)
    for a, b in zip(fast[:2], gp.predict_standardized(ref_model, query)[:2]):
        assert np.array_equal(a, b)


def drift_dataset():
    obs_x = np.linspace(0.1, 0.9, 5)[:, None]
    return CalibrationDataset(
        obs_x=obs_x,
        obs_y=0.4 + 0.3 * obs_x[:, 0],
        sim_x=np.array([[0.1], [0.9]]),
        sim_theta=np.full((2, 2), 0.5),
        sim_y=np.zeros(2),
        domain_bounds=((0.0, 1.0),),
        theta_bounds=((0.0, 1.0), (0.0, 1.0)),
    )


@pytest.mark.parametrize("runner", [run_integrated_delta, run_combined, run_koh])
def test_production_draws_unchanged_with_reference_helpers(runner, monkeypatch):
    data = drift_dataset()
    emu = ExactEmulator(lambda Q: Q[:, 1] + 0.5 * Q[:, 2] * Q[:, 0], vectorized=True)
    priors = CalibrationPriors(noise=Prior.inverse_gamma(3.0, 2.0 * 0.05**2))
    cfg = McmcConfig(iterations=300, burn_in=100, thin=1, chains=2, seed=11,
                     theta0=(0.5, 0.5), audit_every=100, grid_points=11)
    fast = runner(data, emu, priors, cfg)

    knots, _ = _build_knots(data, 0)
    for mod in (embedded, koh):
        monkeypatch.setattr(mod, "_knot_chol", ref_knot_chol(knots))
    monkeypatch.setattr(embedded, "_solve_lower", ref_solve_lower)
    monkeypatch.setattr(embedded, "_cho_solve", ref_cho_solve)
    ref = runner(data, emu, priors, cfg)

    for name in fast.delta_draws:
        assert np.array_equal(fast.delta_draws[name], ref.delta_draws[name])
        assert np.array_equal(fast.hyper_draws[name], ref.hyper_draws[name])
    assert np.array_equal(fast.sigma2_draws, ref.sigma2_draws)
    if fast.theta_draws is not None:
        assert np.array_equal(fast.theta_draws, ref.theta_draws)
    assert fast.acceptance_rates == ref.acceptance_rates
    for key in fast.summaries:
        assert np.array_equal(fast.summaries[key], ref.summaries[key]), key
