"""The fast paths against the code they replace.

The samplers call ``dtrtrs``/``dpotrs`` directly, build knot kernels from
raw hyperparameter vectors, and every squared-exponential kernel is built in
dimension-major layout. All must reproduce, bit for bit, the
``solve_triangular``/``cho_solve`` path and the (G, n, D) broadcast kernel
formula, which these tests keep as frozen references.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, solve_triangular

from driftcal import embedded, gp
from driftcal.design import Prior
from driftcal.embedded import (
    FIELD_JITTER,
    CalibrationPriors,
    DiscrepancyField,
    McmcConfig,
    _build_knots,
    _chol,
    _knot_chol,
    run_combined,
    run_integrated_delta,
)
from driftcal.gp import (ExactEmulator, KernelParams, TrainingSet, _as_matrix, _se_diff,
                         _se_kernel, build_covariance)
from driftcal.koh import run_koh
from driftcal.simulators import CalibrationDataset


def ref_solve_lower(L, b):
    return solve_triangular(L, b, lower=True, check_finite=False)


def ref_cho_solve(L, b):
    return cho_solve((L, True), b)


def ref_build_covariance(a, b, params):
    """``build_covariance`` as the (G, n, D) broadcast formula."""
    same = b is None or b is a
    A = _as_matrix(a)
    B = A if b is None else _as_matrix(b)
    diff = (A[:, None, :] - B[None, :, :]) / params.lengthscales
    K = params.variance_scale * np.exp(-(diff * diff).sum(axis=2))
    if same and params.nugget > 0:
        K.flat[:: K.shape[0] + 1] += params.nugget
    return K


def ref_knot_chol(knots):
    def knot_chol(knot_diff, h):
        return _chol(ref_build_covariance(knots, None, KernelParams(h[0], h[1:], FIELD_JITTER)))

    return knot_chol


def ref_knot_chols(knots):
    """``embedded._knot_chols`` as one ``ref_knot_chol`` per row."""
    def knot_chols(knot_diff, H):
        return np.array([ref_knot_chol(knots)(knot_diff, h) for h in H]), [True] * len(H)

    return knot_chols


def ref_conditional_curves(knots, X, values_rows, hyper_rows):
    """``embedded._conditional_curves`` with the broadcast kernel and scipy solvers."""
    diff_xk = X[:, None, :] - knots[None, :, :]
    rows, cols = embedded._exact_matches(X, knots)
    T = values_rows.shape[0]
    means = np.empty((T, X.shape[0]))
    vars_ = np.empty((T, X.shape[0]))
    for t in range(T):
        v, ls = hyper_rows[t, 0], hyper_rows[t, 1:]
        kxk = v * np.exp(-np.sum((diff_xk / ls) ** 2, axis=2))
        L = ref_knot_chol(knots)(None, hyper_rows[t])
        means[t] = kxk @ ref_cho_solve(L, values_rows[t])
        s = ref_solve_lower(L, kxk.T)
        vars_[t] = np.maximum(v - np.einsum("ij,ij->j", s, s), 0.0)
        means[t, rows] = values_rows[t, cols]
        vars_[t, rows] = 0.0
    return means, vars_


def ulp_distance(a, b):
    """Units in the last place between equal-signed doubles."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


@st.composite
def kernel_case(draw, dims):
    """Random inputs (1-300 x D against 1-40 x D) and kernel parameters."""
    d = draw(dims)
    g, n = draw(st.integers(1, 300)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.floats(1e-3, 1e2))
    A = spread * rng.standard_normal((g, d))
    B = spread * rng.standard_normal((n, d))
    ls = np.exp(rng.uniform(np.log(1e-3), np.log(1e2), d))
    params = KernelParams(draw(st.floats(1e-6, 1e4)), ls, draw(st.sampled_from([0.0, 1e-8, 1e-4])))
    return A, B, params


def assert_kernels_bitwise(A, B, params):
    assert np.array_equal(build_covariance(A, B, params), ref_build_covariance(A, B, params),
                          equal_nan=True)
    assert np.array_equal(_se_kernel(_se_diff(A, B), params.variance_scale, params.lengthscales),
                          ref_build_covariance(A, B, params), equal_nan=True)
    for b in (None, A):  # self-covariance: the nugget lands on the diagonal
        assert np.array_equal(build_covariance(A, b, params), ref_build_covariance(A, b, params),
                              equal_nan=True)


@settings(max_examples=100, deadline=None)
@given(kernel_case(st.integers(1, 7)))
def test_se_kernel_matches_broadcast_formula_bitwise(case):
    assert_kernels_bitwise(*case)


@settings(max_examples=50, deadline=None)
@given(kernel_case(st.integers(8, 12)))
def test_se_kernel_from_eight_dims_differs_only_by_exponent_rounding(case):
    """From D = 8 numpy sums an innermost axis pairwise; the helper adds D planes in order.

    Both sums of the D non-negative terms s are within (D - 1) unit roundoffs
    of s each, and exp turns an exponent error e into a relative error e, so
    the kernels differ by at most 2 (D - 1) s ulp plus the roundings of exp
    and the variance product.
    """
    A, B, params = case
    d = params.ndim
    diff = (A[:, None, :] - B[None, :, :]) / params.lengthscales
    s = (diff * diff).sum(axis=2)
    got, ref = build_covariance(A, B, params), ref_build_covariance(A, B, params)
    assert np.all(ulp_distance(got, ref) <= 4 + 2 * (d - 1) * s)


@settings(max_examples=50, deadline=None)
@given(kernel_case(st.integers(1, 7)), st.data())
def test_se_kernel_non_finite_inputs_land_in_the_same_places(case, data):
    A, B, params = case
    for X in (A, B):
        for value in data.draw(st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), max_size=4)):
            i = data.draw(st.integers(0, X.shape[0] - 1))
            X[i, data.draw(st.integers(0, X.shape[1] - 1))] = value
    with np.errstate(invalid="ignore"):
        assert_kernels_bitwise(A, B, params)


@st.composite
def chain_query_case(draw):
    """A GP on 1-60 runs in D = 2-5, C = 1-4 stacked queries of 1-8 rows reaching
    outside the unit box, and a sequence of column blocks to replace."""
    d, n, chains, rows = (draw(st.integers(2, 5)), draw(st.integers(1, 60)),
                          draw(st.integers(1, 4)), draw(st.integers(1, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.random((n, d))
    params = KernelParams(rng.uniform(0.1, 3.0), np.exp(rng.uniform(-2.0, 1.0, d)), 1e-8)
    model = gp.fit_gp(TrainingSet.from_raw(X, rng.standard_normal(n)), params)
    Q = rng.uniform(-0.5, 1.5, (chains, rows, d))
    blocks = draw(st.lists(st.tuples(st.integers(0, d - 1), st.integers(1, d)), max_size=5))
    moves = [(slice(lo, min(lo + w, d)), rng.uniform(-0.5, 1.5, (chains, rows, min(w, d - lo))))
             for lo, w in blocks]
    return model, Q, moves


@settings(max_examples=100, deadline=None)
@given(chain_query_case())
def test_chain_query_matches_predict_standardized_bitwise(case):
    model, Q, moves = case
    planes = np.empty((*Q.shape, model.train.n))
    mean, var = gp.predict_columns(model, planes, Q, slice(None))
    for cols, values in [(None, None)] + moves:
        if cols is not None:
            Q[:, :, cols] = values
            mean, var = gp.predict_columns(model, planes, Q, cols)
        for c in range(Q.shape[0]):
            ref_mean, ref_var, _ = gp.predict_standardized(model, Q[c])
            assert np.array_equal(mean[c], ref_mean)
            assert np.array_equal(var[c], ref_var)


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
    knot_diff = _se_diff(knots, knots)
    for _ in range(20):
        h = np.exp(rng.normal(0.0, 1.5, 1 + dx))
        assert np.array_equal(_knot_chol(knot_diff, h), ref_knot_chol(knots)(knot_diff, h))


@pytest.mark.parametrize("n", [5, 20])
@pytest.mark.parametrize("dx", [1, 2])
def test_field_conditional_and_log_prior_match_build_covariance_bitwise(n, dx):
    """A field's conditional and prior density, against the formula written with
    ``build_covariance``, ``_chol`` and the triangular solves."""
    rng = np.random.default_rng(100 * n + dx)
    knots = rng.random((n, dx))
    X = rng.random((30, dx))  # off the knots: the conditional, not the exact overrides
    for _ in range(20):
        h = np.exp(rng.normal(0.0, 1.5, 1 + dx))
        field = DiscrepancyField(knots, rng.normal(0.0, 0.2, n),
                                 KernelParams(h[0], h[1:], FIELD_JITTER))
        L = _chol(field.prior_cov())
        kxk = build_covariance(X, knots, replace(field.hyper, nugget=0.0))
        s = gp._solve_lower(L, kxk.T)
        mean, var = field.conditional(X)
        assert np.array_equal(mean, kxk @ gp._cho_solve(L, field.values))
        assert np.array_equal(var, np.maximum(h[0] - np.einsum("ij,ij->j", s, s), 0.0))
        assert field.log_prior() == embedded._mvn_logpdf_zero(field.values, L)


def test_duplicate_knots_factor_through_jitter_escalation():
    knots = np.array([[0.2], [0.2], [0.7]])
    K = build_covariance(knots, None, KernelParams(1.0, [0.3]))  # no nugget: singular
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(K)
    L = _chol(K)
    assert np.array_equal(L, np.linalg.cholesky(K + 1e-12 * np.eye(3)))
    # at a large variance FIELD_JITTER alone no longer makes the kernel factor
    L = _knot_chol(_se_diff(knots, knots), np.array([1e8, 0.3]))
    assert np.all(np.isfinite(L))
    assert np.allclose(L @ L.T, 1e8 * K, rtol=0, atol=1e-3)


def test_gp_fit_and_predict_match_scipy_path(monkeypatch):
    rng = np.random.default_rng(3)
    train = TrainingSet.from_raw(rng.random((20, 3)), rng.standard_normal(20))
    params = KernelParams(1.2, [0.3, 0.5, 0.8], nugget=1e-8)
    query = rng.random((5, 3))
    model = gp.fit_gp(train, params)
    fast = gp.predict_standardized(model, query, want_cov=True)
    monkeypatch.setattr(gp, "_solve_lower", ref_solve_lower)
    monkeypatch.setattr(gp, "_cho_solve", ref_cho_solve)
    monkeypatch.setattr(gp, "build_covariance", ref_build_covariance)
    ref_model = gp.fit_gp(train, params)
    assert np.array_equal(model.alpha, ref_model.alpha)
    for a, b in zip(fast[:2], gp.predict_standardized(ref_model, query)[:2]):
        assert np.array_equal(a, b)
    # the full covariance, as built before from a nugget-free copy of the query
    v = ref_solve_lower(ref_model.chol, ref_build_covariance(query, train.inputs, params).T)
    cov = ref_build_covariance(query, query.copy(), ref_model.params) - v.T @ v
    assert np.array_equal(fast[2], 0.5 * (cov + cov.T))


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


def drift_response(Q):
    return Q[:, 1] + 0.5 * Q[:, 2] * Q[:, 0]


def assert_draws_unchanged_with_reference_helpers(runner, emu, monkeypatch):
    data = drift_dataset()
    priors = CalibrationPriors(noise=Prior.inverse_gamma(3.0, 2.0 * 0.05**2))
    cfg = McmcConfig(iterations=300, burn_in=100, thin=1, chains=2, seed=11,
                     theta0=(0.5, 0.5), audit_every=100, grid_points=11)
    fast = runner(data, emu, priors, cfg)

    knots, _ = _build_knots(data)
    monkeypatch.setattr(embedded, "_knot_chol", ref_knot_chol(knots))
    monkeypatch.setattr(embedded, "_knot_chols", ref_knot_chols(knots))
    for mod in (embedded, gp):
        monkeypatch.setattr(mod, "_solve_lower", ref_solve_lower)
        monkeypatch.setattr(mod, "_cho_solve", ref_cho_solve)
        monkeypatch.setattr(mod, "build_covariance", ref_build_covariance)
    monkeypatch.setattr(embedded, "_conditional_curves", ref_conditional_curves)
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


@pytest.mark.parametrize("runner", [run_integrated_delta, run_combined, run_koh])
def test_production_draws_unchanged_with_reference_helpers(runner, monkeypatch):
    emu = ExactEmulator(drift_response, vectorized=True)
    assert_draws_unchanged_with_reference_helpers(runner, emu, monkeypatch)


@pytest.mark.parametrize("runner", [run_integrated_delta, run_combined, run_koh])
def test_gp_emulator_draws_unchanged_with_reference_helpers(runner, monkeypatch):
    X = np.random.default_rng(5).random((30, 3))
    emu = gp.fit_gp(TrainingSet.from_raw(X, drift_response(X)),
                    KernelParams(1.0, [0.4, 0.4, 0.4], nugget=1e-8))
    assert_draws_unchanged_with_reference_helpers(runner, emu, monkeypatch)
