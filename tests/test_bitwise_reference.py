"""The fast paths against the code they replace.

The samplers call ``dtrtrs``/``dpotrs`` directly, build and factor the knot
kernels of a stack of raw hyperparameter vectors in one batched call, and
every squared-exponential kernel is built in dimension-major layout. All
must reproduce, bit for bit, the ``solve_triangular``/``cho_solve`` path, one
``_chol`` per kernel and the (G, n, D) broadcast kernel formula, which these
tests keep as frozen references: ``ref_knot_chol`` factors one kernel and
``ref_conditional_curves`` conditions one draw at a time. The engine's sweep
loop adapts the proposal steps of all blocks and chains; it must reproduce
the per-chain step adapter it replaced, kept here as a frozen reference too,
and ``_build_knots`` must find each observation's knot as the per-row search
it replaced did.
"""

import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, solve_triangular

from driftcal import embedded, gp
from driftcal import runner as runner_module
from driftcal.design import Prior
from driftcal.embedded import (
    FIELD_JITTER,
    CalibrationPriors,
    McmcConfig,
    _build_knots,
    _Chain,
    _chol,
    _conditional_curves,
    _knot_chol,
    _knot_chols,
    posterior_predictive,
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
    A = _as_matrix(a)
    B = A if b is None else _as_matrix(b)
    diff = (A[:, None, :] - B[None, :, :]) / params.lengthscales
    K = params.variance_scale * np.exp(-(diff * diff).sum(axis=2))
    if b is None and params.nugget > 0:
        K.flat[:: K.shape[0] + 1] += params.nugget
    return K


def ref_knot_chol(knots):
    """One field kernel's factor, from ``build_covariance`` and ``_chol``."""
    def knot_chol(knot_diff, h):
        return _chol(ref_build_covariance(knots, None, KernelParams(h[0], h[1:], FIELD_JITTER)))

    return knot_chol


def ref_knot_chols(knots):
    """``embedded._knot_chols`` as one ``ref_knot_chol`` per row."""
    def knot_chols(knot_diff, H):
        return np.array([ref_knot_chol(knots)(knot_diff, h) for h in H]), [True] * len(H)

    return knot_chols


def ref_conditional_curves(knots, X, values_rows, hyper_rows, variances=True):
    """``embedded._conditional_curves`` one draw at a time, with the broadcast kernel,
    ``ref_knot_chol`` and scipy solvers; the variances are dropped when not asked for."""
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
    return means, vars_ if variances else None


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
    for b in (None, A):  # the nugget lands on the diagonal of the self-covariance (b=None) alone
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
def fixed_input_case(draw):
    """An emulator in D = 2-5 and a query at G = 1-201 fixed rows of its first dx = 1 to
    D - 1 columns, with a (C, G, D - dx) stack of C = 1-4 chains' theta rows; both reach
    outside the unit box. The emulator is a GP on 1-160 runs, or an exact function,
    vectorized or called per row. The stack may be one theta row per chain broadcast over
    the G rows, as a constant-theta posterior draw is, and may hold a NaN in one chain."""
    d, n, chains = draw(st.integers(2, 5)), draw(st.integers(1, 160)), draw(st.integers(1, 4))
    dx = draw(st.integers(1, d - 1))
    G = draw(st.one_of(st.just(1), st.integers(2, 201)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["gp", "exact", "exact_vectorized"]))
    if kind == "gp":
        X = rng.random((n, d))
        params = KernelParams(rng.uniform(0.1, 3.0), np.exp(rng.uniform(-2.0, 1.0, d)), 1e-8)
        emulator = gp.fit_gp(TrainingSet.from_raw(X, rng.standard_normal(n)), params)
    else:
        w = rng.standard_normal(d)
        vectorized = kind == "exact_vectorized"
        emulator = ExactEmulator((lambda Q: np.sin(Q @ w) + Q[:, 0] ** 2) if vectorized
                                 else (lambda row: math.sin(row @ w) + row[0] ** 2), vectorized)
    x = rng.uniform(-0.5, 1.5, (G, dx))
    theta = rng.uniform(-0.5, 1.5, (chains, G, d - dx))
    if draw(st.booleans()):
        theta = np.broadcast_to(theta[:, :1], theta.shape)
    elif draw(st.booleans()):
        theta[draw(st.integers(0, chains - 1)), draw(st.integers(0, G - 1)),
              draw(st.integers(0, d - dx - 1))] = np.nan
    return emulator, x, theta


@settings(max_examples=100, deadline=None)
@given(fixed_input_case())
def test_chain_query_matches_predict_standardized_bitwise(case):
    # the engine's and the predictive's query at fixed inputs, over a stack of chains and
    # for one chain's rows alone, against predict_std at the stacked rows; a NaN stays in
    # its chain's row
    emulator, x, theta = case
    query = emulator.at_inputs(x)
    mean, var = query(theta)
    assert mean.shape == var.shape == theta.shape[:2]
    for c in range(theta.shape[0]):
        # C-ordered, as the engine's and the predictive's rows are: np.hstack of a broadcast
        # view is F-ordered, and the exact functions' matmul rounds by layout
        Q = np.hstack([x, np.ascontiguousarray(theta[c])])
        refs = [emulator.predict_std(Q)]
        if isinstance(emulator, gp.GPModel):
            refs.append(gp.predict_standardized(emulator, Q))
        for got in ((mean[c], var[c]), query(theta[c])):
            for ref in refs:
                assert np.array_equal(got[0], ref[0], equal_nan=True)
                assert np.array_equal(got[1], ref[1], equal_nan=True)
        finite = ~np.isnan(theta[c]).any(axis=1)
        assert np.isfinite(mean[c][finite]).all() and np.isfinite(var[c][finite]).all()


def ref_build_knots(x_unit):
    """``_build_knots``' search of each observation's row among the knots, one row at a time."""
    knots = np.unique(x_unit, axis=0)
    obs_idx = np.empty(x_unit.shape[0], dtype=int)
    for i, row in enumerate(x_unit):
        obs_idx[i] = int(np.where(np.all(knots == row, axis=1))[0][0])
    return knots, obs_idx


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 200), st.integers(0, 2**32 - 1))
def test_build_knots_matches_the_per_row_search(d, n, seed):
    # a few distinct values per column, so rows repeat; signed zeros are one value
    rng = np.random.default_rng(seed)
    X = rng.choice(np.array([-0.0, 0.0, 0.25, 0.5, 1.0]), size=(n, d))
    knots, obs_idx = _build_knots(SimpleNamespace(obs_x_unit=lambda: X))
    ref_knots, ref_idx = ref_build_knots(X)
    assert np.array_equal(knots, ref_knots)
    assert obs_idx.shape == (n,) and np.array_equal(obs_idx, ref_idx)
    assert np.array_equal(knots[obs_idx], X)


@st.composite
def fit_case(draw):
    """A training set of 1-60 runs in D = 1-7, some of them repeated where the
    nugget is positive, and kernel parameters from rough kernels that factor at
    once to smooth ones whose nugget must be escalated."""
    d, n = draw(st.integers(1, 7)), draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nugget = draw(st.sampled_from([0.0, 1e-8, 1e-6]))
    X = rng.random((n, d))
    if nugget > 0 and draw(st.booleans()):
        X[rng.random(n) < 0.2] = X[0]
    smooth = draw(st.booleans())
    ls = np.exp(rng.uniform(np.log(10.0), np.log(200.0), d) if smooth
                else rng.uniform(np.log(0.05), np.log(2.0), d))
    return TrainingSet.from_raw(X, rng.standard_normal(n)), KernelParams(rng.uniform(0.1, 3.0), ls, nugget)


@settings(max_examples=100, deadline=None)
@given(fit_case())
def test_fit_gp_matches_full_kernel_factor_bitwise(case):
    """``fit_gp`` builds only the kernel's lower triangle; the factor is that of the full one."""
    train, params = case
    model = gp.fit_gp(train, params)
    L = np.linalg.cholesky(ref_build_covariance(train.inputs, None, model.params))
    assert np.array_equal(model.chol, L)
    assert np.array_equal(model.alpha, ref_cho_solve(L, train.targets))


def test_fit_gp_escalated_nugget_matches_full_kernel_factor():
    X = np.random.default_rng(2).random((40, 3))
    train = TrainingSet.from_raw(X, np.sin(X).sum(axis=1))
    params = KernelParams(1.0, [100.0, 100.0, 100.0], nugget=0.0)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(ref_build_covariance(X, None, params))
    model = gp.fit_gp(train, params)
    assert model.params.nugget == gp.NUGGET_FLOOR
    L = np.linalg.cholesky(ref_build_covariance(X, None, model.params))
    assert np.array_equal(model.chol, L)
    assert np.array_equal(model.alpha, ref_cho_solve(L, train.targets))


@pytest.mark.parametrize("variance, nugget", [(1e8, 1e-7), (1e10, 9.999999999999999e-05)])
def test_fit_gp_steps_the_nugget_by_ten_up_to_the_ceiling(variance, nugget):
    # the fourth step from 1e-8 rounds to just below the 1e-4 ceiling
    X = np.random.default_rng(2).random((40, 3))
    train = TrainingSet.from_raw(X, np.sin(X).sum(axis=1))
    model = gp.fit_gp(train, KernelParams(variance, [100.0, 100.0, 100.0], nugget=1e-8))
    assert model.params.nugget == nugget
    L = np.linalg.cholesky(ref_build_covariance(X, None, model.params))
    assert np.array_equal(model.chol, L)
    assert np.array_equal(model.alpha, ref_cho_solve(L, train.targets))


def test_fit_gp_raises_when_the_kernel_does_not_factor_at_the_ceiling():
    X = np.random.default_rng(2).random((40, 3))
    train = TrainingSet.from_raw(X, np.sin(X).sum(axis=1))
    params = KernelParams(1e12, [100.0, 100.0, 100.0], nugget=1e-8)
    at_ceiling = replace(params, nugget=9.999999999999999e-05)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(ref_build_covariance(X, None, at_ceiling))
    with pytest.raises(gp.SingularKernelError, match="even at nugget=0.0001"):
        gp.fit_gp(train, params)


def spd_matrix(rng, n):
    A = rng.standard_normal((n, n + 3))
    return A @ A.T + 1e-3 * np.eye(n)


def se_knot_kernel(rng, n):
    knots = np.sort(rng.random(n))[:, None]
    params = KernelParams(rng.uniform(0.01, 2.0), [rng.uniform(0.05, 1.0)], FIELD_JITTER)
    return build_covariance(knots, None, params)


@pytest.mark.parametrize("n", [5, 20, 43, 160])
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
    H = np.exp(rng.normal(0.0, 1.5, (20, 1 + dx)))
    chols = _knot_chol(knot_diff, H)
    assert chols.shape == (20, n, n)
    for L, h in zip(chols, H):
        assert np.array_equal(L, ref_knot_chol(knots)(knot_diff, h))


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
        values = rng.normal(0.0, 0.2, n)
        L = _chol(build_covariance(knots, None, KernelParams(h[0], h[1:], FIELD_JITTER)))
        kxk = build_covariance(X, knots, KernelParams(h[0], h[1:]))
        s = gp._solve_lower(L, kxk.T)
        [mean], [var] = _conditional_curves(knots, X, values[None], h[None])
        assert np.array_equal(mean, kxk @ gp._cho_solve(L, values))
        assert np.array_equal(var, np.maximum(h[0] - np.einsum("ij,ij->j", s, s), 0.0))
        [prior_chol] = _knot_chol(_se_diff(knots, knots), h[None])
        assert (embedded._mvn_logpdf_zero(values, prior_chol)
                == embedded._mvn_logpdf_zero(values, L))


DUPLICATE_KNOTS = np.array([[0.2], [0.2], [0.7]])


def test_duplicate_knots_factor_through_jitter_escalation():
    knots = DUPLICATE_KNOTS
    K = build_covariance(knots, None, KernelParams(1.0, [0.3]))  # no nugget: singular
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(K)
    L = _chol(K)
    assert np.array_equal(L, np.linalg.cholesky(K + 1e-12 * np.eye(3)))
    # at a large variance FIELD_JITTER alone no longer makes the kernel factor
    [L] = _knot_chol(_se_diff(knots, knots), np.array([[1e8, 0.3]]))
    assert np.all(np.isfinite(L))
    assert np.allclose(L @ L.T, 1e8 * K, rtol=0, atol=1e-3)


def test_mixed_stack_factors_row_by_row_and_flags_the_nan_row():
    """A plain row, a row that needs jitter escalation, and a NaN row, which LAPACK
    factors into NaN without an error: the stacked factor keeps the first two and flags
    the third, and the strict callers raise on it."""
    knots = DUPLICATE_KNOTS
    knot_diff = _se_diff(knots, knots)
    H = np.array([[1.0, 0.3], [1e8, 0.3], [np.nan, 0.3]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(build_covariance(knots, None, KernelParams(1e8, [0.3], FIELD_JITTER)))
    chols, ok = _knot_chols(knot_diff, H)
    assert ok == [True, True, False]
    for L, h in zip(chols[:2], H):
        assert np.array_equal(L, _chol(build_covariance(knots, None,
                                                        KernelParams(h[0], h[1:], FIELD_JITTER))))
    assert np.isnan(chols[2].diagonal()).all()
    with pytest.raises(np.linalg.LinAlgError):
        _knot_chol(knot_diff, H)
    with pytest.raises(np.linalg.LinAlgError):
        embedded._conditional_curves(knots, np.array([[0.4]]), np.zeros((3, 3)), H)


def test_means_only_conditional_curves_are_the_full_calls_means():
    rng = np.random.default_rng(4)
    knots = np.linspace(0.0, 1.0, 6)[:, None]
    X = np.r_[np.linspace(0.0, 1.0, 41), knots[:, 0]][:, None]  # the last rows hit the knots
    values = rng.standard_normal((5, 6))
    H = np.column_stack([rng.uniform(0.5, 2.0, 5), rng.uniform(0.1, 0.6, 5)])
    means, _ = embedded._conditional_curves(knots, X, values, H)
    only, none = embedded._conditional_curves(knots, X, values, H, variances=False)
    assert none is None
    assert only.tobytes() == means.tobytes()
    assert np.array_equal(only[:, -6:], values)


def test_knot_rows_take_the_knot_values_without_factoring(monkeypatch):
    """Rows that are all knots (repeated, in any order) give ``ref_conditional_curves``'
    overrides bitwise, with no factor built; one row off the knots takes the full path."""
    rng = np.random.default_rng(6)
    knots = np.linspace(0.0, 1.0, 6)[:, None]
    values = rng.standard_normal((5, 6))
    values[0, 2] = -0.0
    H = np.column_stack([rng.uniform(0.5, 2.0, 5), rng.uniform(0.1, 0.6, 5)])
    factored = []
    knot_chol = embedded._knot_chol
    monkeypatch.setattr(embedded, "_knot_chol",
                        lambda *a: factored.append(1) or knot_chol(*a))
    on_knots = knots[[3, 0, 5, 5, 2]]
    some_knots = np.r_[on_knots, [[0.33]]]
    for X, full in ((on_knots, False), (some_knots, True)):
        n_factored = len(factored)
        means, vars_ = embedded._conditional_curves(knots, X, values, H)
        ref_means, ref_vars = ref_conditional_curves(knots, X, values, H)
        assert means.tobytes() == ref_means.tobytes()
        assert vars_.tobytes() == ref_vars.tobytes()
        only, none = embedded._conditional_curves(knots, X, values, H, variances=False)
        assert none is None and only.tobytes() == means.tobytes()
        assert len(factored) == n_factored + 2 * full
    assert not vars_[:, :-1].any() and vars_[:, -1].all()
    # hyperparameters that do not factor raise off the knots alone
    H[1, 0] = np.nan
    means, vars_ = embedded._conditional_curves(knots, on_knots, values, H)
    assert means.tobytes() == values[:, [3, 0, 5, 5, 2]].tobytes() and not vars_.any()
    with pytest.raises(np.linalg.LinAlgError):
        embedded._conditional_curves(knots, some_knots, values, H)


def test_gp_fit_and_predict_match_scipy_path(monkeypatch):
    rng = np.random.default_rng(3)
    train = TrainingSet.from_raw(rng.random((20, 3)), rng.standard_normal(20))
    params = KernelParams(1.2, [0.3, 0.5, 0.8], nugget=1e-8)
    model = gp.fit_gp(train, params)
    monkeypatch.setattr(gp, "_cho_solve", ref_cho_solve)
    ref_model = gp.fit_gp(train, params)
    assert np.array_equal(model.alpha, ref_model.alpha)
    for g in (1, 5):  # a lone right-hand side takes LAPACK's other path
        query = rng.random((g, 3))
        Ks = ref_build_covariance(query, train.inputs, params)
        s = ref_solve_lower(ref_model.chol, Ks.T)
        mean, var = gp.predict_standardized(model, query)
        assert np.array_equal(mean, Ks @ ref_model.alpha)
        assert np.array_equal(var, np.maximum(params.variance_scale - np.einsum("ij,ij->j", s, s),
                                              0.0))


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


DRIFT_PRIORS = CalibrationPriors(noise=Prior.inverse_gamma(3.0, 2.0 * 0.05**2))


class RefStepAdapter:
    """Robbins-Monro scaling of one chain's proposal step, counting its own updates."""

    def __init__(self, step: float):
        self.step = float(step)
        self._n = 0

    def update(self, accepted: bool) -> None:
        self._n += 1
        gain = self._n ** (-embedded.ADAPT_DECAY)
        self.step *= math.exp(gain * ((1.0 if accepted else 0.0) - embedded.ADAPT_TARGET))
        self.step = min(max(self.step, 1e-6), 1e3)


@st.composite
def adaptation_case(draw):
    """An initial step (the clamp bounds and beyond included) and, per burn-in sweep, one
    decision per chain."""
    chains = draw(st.integers(1, 3))
    initial = draw(st.one_of(st.sampled_from([1e-6, 1e3]), st.floats(1e-7, 2e3)))
    sweeps = draw(st.lists(st.lists(st.booleans(), min_size=chains, max_size=chains),
                           min_size=1, max_size=80))
    return initial, sweeps


@settings(max_examples=100, deadline=None)
@given(adaptation_case())
def test_step_adaptation_matches_the_reference_adapter_bitwise(case):
    initial, sweeps = case
    chains = len(sweeps[0])
    data = drift_dataset()
    cfg = McmcConfig(iterations=len(sweeps) + 1, burn_in=len(sweeps), chains=chains,
                     initial_step=initial, theta0=(0.5, 0.5), audit_every=0)
    knots, obs_idx = _build_knots(data)
    chain = _Chain(data, ExactEmulator(drift_response, vectorized=True), DRIFT_PRIORS, cfg,
                   [np.random.default_rng(c) for c in range(chains)], knots, obs_idx,
                   drift=True, additive=False, accept=embedded.mh_accept,
                   gibbs=embedded.gibbs_sigma2)
    decisions = iter(sweeps + [[True] * chains])  # the last sweep's are counted, not adapted
    chain.blocks = [("delta:theta0", lambda engine: next(decisions))]
    chain.run()

    ref = [RefStepAdapter(initial) for _ in range(chains)]
    for sweep in sweeps:
        for adapter, accepted in zip(ref, sweep):
            adapter.update(accepted)
    assert [s.hex() for s in chain.steps["delta:theta0"]] == [a.step.hex() for a in ref]
    assert chain.accepted["delta:theta0"] == [1] * chains


def assert_draws_unchanged_with_reference_helpers(runner, emu, monkeypatch, tmp_path):
    """The draws, the summaries, the plot files and the predictive at the observations,
    against those computed with every reference helper in place."""
    data = drift_dataset()
    priors = DRIFT_PRIORS
    cfg = McmcConfig(iterations=300, burn_in=100, thin=1, chains=2, seed=11,
                     theta0=(0.5, 0.5), audit_every=100, grid_points=11)

    def outputs(tag):
        samples = runner(data, emu, priors, cfg)
        files = runner_module.emit_plot_data(samples, samples.grid, tmp_path / tag, emu)
        return samples, files, posterior_predictive(samples, emu, data.obs_x)

    fast, fast_files, fast_obs = outputs("fast")

    knots, _ = _build_knots(data)
    monkeypatch.setattr(embedded, "_knot_chols", ref_knot_chols(knots))
    for mod in (embedded, gp):
        monkeypatch.setattr(mod, "_solve_lower", ref_solve_lower)
        monkeypatch.setattr(mod, "_cho_solve", ref_cho_solve)
    monkeypatch.setattr(gp, "build_covariance", ref_build_covariance)
    # the plot files' trajectories call the runner's binding
    for mod in (embedded, runner_module):
        monkeypatch.setattr(mod, "_conditional_curves", ref_conditional_curves)
    ref, ref_files, ref_obs = outputs("ref")

    for name in fast.delta_draws:
        assert np.array_equal(fast.delta_draws[name], ref.delta_draws[name])
        assert np.array_equal(fast.hyper_draws[name], ref.hyper_draws[name])
    assert np.array_equal(fast.sigma2_draws, ref.sigma2_draws)
    if fast.theta_draws is not None:
        assert np.array_equal(fast.theta_draws, ref.theta_draws)
    assert fast.acceptance_rates == ref.acceptance_rates
    for key in fast.summaries:
        assert np.array_equal(fast.summaries[key], ref.summaries[key]), key
    assert len(fast_files) == len(ref_files) == 1 + len(fast.delta_draws)
    for a, b in zip(fast_files, ref_files):
        assert Path(a).read_bytes() == Path(b).read_bytes(), Path(a).name
    assert np.array_equal(fast_obs.mean, ref_obs.mean)
    assert np.array_equal(fast_obs.variance, ref_obs.variance)


@pytest.mark.parametrize("runner", [run_integrated_delta, run_combined, run_koh])
def test_production_draws_unchanged_with_reference_helpers(runner, monkeypatch, tmp_path):
    emu = ExactEmulator(drift_response, vectorized=True)
    assert_draws_unchanged_with_reference_helpers(runner, emu, monkeypatch, tmp_path)


@pytest.mark.parametrize("runner", [run_integrated_delta, run_combined, run_koh])
def test_gp_emulator_draws_unchanged_with_reference_helpers(runner, monkeypatch, tmp_path):
    X = np.random.default_rng(5).random((30, 3))
    emu = gp.fit_gp(TrainingSet.from_raw(X, drift_response(X)),
                    KernelParams(1.0, [0.4, 0.4, 0.4], nugget=1e-8))
    assert_draws_unchanged_with_reference_helpers(runner, emu, monkeypatch, tmp_path)
