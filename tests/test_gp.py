import math
import os
import platform
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftcal.gp import (
    DimensionMismatchError,
    ExactEmulator,
    KernelParams,
    SingularKernelError,
    TrainingSet,
    _nelder_mead,
    build_covariance,
    fit_gp,
    log_marginal_likelihood,
    optimize_emulator,
    predict,
    predict_standardized,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def dense_kernel(a, b, params):
    """Scalar double-loop oracle for the covariance formula."""
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    K = np.empty((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            s = 0.0
            for d in range(a.shape[1]):
                s += ((a[i, d] - b[j, d]) / params.lengthscales[d]) ** 2
            K[i, j] = params.variance_scale * math.exp(-s)
    return K


def test_zero_distance_gives_variance_scale():
    p = KernelParams(1.0, [1.0], nugget=0.0)
    a = np.array([[0.0]])
    K = build_covariance(a, a, p)
    assert K.shape == (1, 1)
    assert K[0, 0] == pytest.approx(1.0, abs=0)


def test_single_pair_matches_kernel_formula():
    rho, lam, xp = 2.3, 0.7, 0.45
    p = KernelParams(rho, [lam])
    K = build_covariance(np.array([[0.0]]), np.array([[xp]]), p)
    assert K[0, 0] == pytest.approx(rho * math.exp(-(xp**2) / lam**2), rel=1e-14)


def test_covariance_matches_double_loop_oracle():
    rng = np.random.default_rng(3)
    a = rng.uniform(size=(5, 2))
    b = rng.uniform(size=(4, 2))
    p = KernelParams(1.7, [0.3, 0.9])
    assert np.max(np.abs(build_covariance(a, b, p) - dense_kernel(a, b, p))) < 1e-12


def test_self_covariance_symmetric_and_nugget_on_diagonal_only():
    rng = np.random.default_rng(4)
    a = rng.uniform(size=(6, 2))
    p = KernelParams(1.0, [0.5, 0.5], nugget=1e-3)
    K = build_covariance(a, None, p)
    assert np.allclose(K, K.T)
    assert np.allclose(np.diag(K), 1.0 + 1e-3)
    for b in (a.copy(), a):  # an array b, even a itself, makes a cross matrix
        assert np.array_equal(np.diag(build_covariance(a, b, p)), np.ones(6))


def test_dimension_mismatch_raises():
    p = KernelParams(1.0, [1.0, 1.0])
    with pytest.raises(DimensionMismatchError):
        build_covariance(np.zeros((3, 1)), np.zeros((3, 1)), p)


def test_fixed_input_query_checks_its_columns():
    rng = np.random.default_rng(8)
    model = fit_gp(TrainingSet.from_raw(rng.uniform(size=(6, 3)), rng.standard_normal(6)),
                   KernelParams(1.0, [0.5, 0.5, 0.5], nugget=1e-8))
    for x in (np.zeros((4, 0)), np.zeros((4, 3))):  # no x column, or no theta column left
        with pytest.raises(DimensionMismatchError):
            model.at_inputs(x)
    query = model.at_inputs(np.zeros((4, 1)))
    assert query(np.zeros((2, 4, 2)))[0].shape == (2, 4)
    for theta in (np.zeros((4, 1)), np.zeros((2, 4, 3))):
        with pytest.raises(DimensionMismatchError):
            query(theta)


def test_exact_query_results_outlive_its_reused_rows():
    # the function returns a view of the rows the query reuses on its next call
    query = ExactEmulator(lambda Q: Q[:, 1], vectorized=True).at_inputs(np.zeros((3, 1)))
    for lead in ((), (2,)):
        first = query(np.full((*lead, 3, 1), 0.25))
        query(np.full((*lead, 3, 1), 0.75))
        assert np.array_equal(first[0], np.full((*lead, 3), 0.25))
    with pytest.raises(DimensionMismatchError):
        query(np.zeros((1, 2, 3, 1)))


@pytest.mark.parametrize("bad", [dict(variance_scale=0.0), dict(nugget=-1e-9),
                                 dict(lengthscales=[0.0])])
def test_invalid_hyperparameters_rejected(bad):
    kw = dict(variance_scale=1.0, lengthscales=[1.0], nugget=0.0)
    kw.update(bad)
    with pytest.raises(ValueError):
        KernelParams(**kw)


def test_standardization_round_trip():
    rng = np.random.default_rng(0)
    y = 3.0 + 10.0 * rng.standard_normal(20)
    train = TrainingSet.from_raw(rng.uniform(size=(20, 1)), y)
    assert np.max(np.abs(train.destandardize(train.targets) - y)) < 1e-12
    assert abs(train.targets.mean()) < 1e-12
    assert train.targets.std() == pytest.approx(1.0, abs=1e-12)


def test_single_point_interpolation():
    train = TrainingSet.from_raw([[0.5]], [2.0])
    model = fit_gp(train, KernelParams(1.0, [0.3], nugget=1e-8))
    pred = predict(model, [[0.5]])
    assert pred.mean[0] == pytest.approx(2.0, abs=1e-9)


def test_noise_free_interpolation_within_1e6():
    rng = np.random.default_rng(1)
    x = np.sort(rng.uniform(size=10))[:, None]
    y = np.sin(3.0 * x[:, 0]) + 0.5 * x[:, 0]
    train = TrainingSet.from_raw(x, y)
    model = fit_gp(train, KernelParams(1.0, [0.4], nugget=0.0))
    assert model.params.nugget == 0.0  # the kernel of the 10 points factors as it is
    for query in (x, x.copy()):  # the training array itself and an equal one
        assert np.max(np.abs(predict(model, query).mean - y)) < 1e-6


def test_predict_at_the_training_array_equals_predict_at_a_copy():
    # a query is a cross covariance: the nugget never lands on it, not even when the query
    # is the training array object itself
    rng = np.random.default_rng(1)
    x = np.sort(rng.uniform(size=10))[:, None]
    model = fit_gp(TrainingSet.from_raw(x, np.sin(3.0 * x[:, 0])),
                   KernelParams(1.0, [0.4], nugget=1e-8))
    assert model.train.inputs is x
    same, copy = predict(model, model.train.inputs), predict(model, x.copy())
    assert same.mean.tobytes() == copy.mean.tobytes()
    assert same.variance.tobytes() == copy.variance.tobytes()


def test_duplicate_rows_zero_nugget_is_singular():
    train = TrainingSet.from_raw([[0.2], [0.2], [0.8]], [1.0, 1.0, 2.0])
    for _ in range(2):  # the duplicate check is made once per training set
        with pytest.raises(SingularKernelError):
            fit_gp(train, KernelParams(1.0, [0.3], nugget=0.0))
    assert fit_gp(train, KernelParams(1.0, [0.3], nugget=1e-4)).params.nugget == 1e-4
    distinct = TrainingSet.from_raw([[0.2], [0.5], [0.8]], [1.0, 1.0, 2.0])
    assert fit_gp(distinct, KernelParams(1.0, [0.3], nugget=0.0)).params.nugget == 0.0


def test_cholesky_reconstructs_kernel():
    rng = np.random.default_rng(7)
    x = rng.uniform(size=(12, 2))
    train = TrainingSet.from_raw(x, rng.standard_normal(12))
    model = fit_gp(train, KernelParams(1.3, [0.4, 0.6], nugget=1e-8))
    K = build_covariance(x, None, model.params)
    rel = np.max(np.abs(model.chol @ model.chol.T - K)) / np.max(np.abs(K))
    assert rel < 1e-8


def test_predict_on_training_point_and_prior_reversion():
    rng = np.random.default_rng(2)
    x = rng.uniform(low=0.0, high=0.3, size=(8, 1))
    y = np.cos(4.0 * x[:, 0])
    train = TrainingSet.from_raw(x, y)
    model = fit_gp(train, KernelParams(1.0, [0.1], nugget=1e-8))
    at_train = predict(model, x[:1])
    assert at_train.mean[0] == pytest.approx(y[0], abs=1e-5)
    mean_std, var_std = predict_standardized(model, x[:1])
    assert var_std[0] <= 1e-8 * model.params.variance_scale + 1e-12

    far = predict_standardized(model, [[50.0]])
    assert abs(far[0][0]) < 1e-6  # reverts to the standardized prior mean 0
    assert far[1][0] == pytest.approx(model.params.variance_scale, rel=0.01)


def test_predict_matches_dense_inverse_oracle():
    rng = np.random.default_rng(5)
    x = rng.uniform(size=(3, 1))
    y = rng.standard_normal(3)
    train = TrainingSet.from_raw(x, y)
    p = KernelParams(0.8, [0.25], nugget=1e-6)
    model = fit_gp(train, p)
    q = rng.uniform(size=(4, 1))

    K = dense_kernel(x, x, p) + p.nugget * np.eye(3)
    Ks = dense_kernel(q, x, p)
    Kinv = np.linalg.inv(K)
    mean_oracle = Ks @ Kinv @ train.targets
    var_oracle = p.variance_scale - np.einsum("ij,ij->i", Ks @ Kinv, Ks)

    mean, var = predict_standardized(model, q)
    assert np.max(np.abs(mean - mean_oracle)) < 1e-10
    assert np.max(np.abs(var - var_oracle)) < 1e-10


def test_lml_standard_normal_case():
    train = TrainingSet(inputs=[[0.0]], targets=[0.0])
    model = fit_gp(train, KernelParams(1.0, [1.0], nugget=0.0))
    assert log_marginal_likelihood(model) == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)


def test_lml_matches_dense_determinant_oracle():
    rng = np.random.default_rng(6)
    x = rng.uniform(size=(6, 2))
    y = rng.standard_normal(6)
    train = TrainingSet.from_raw(x, y)
    p = KernelParams(1.1, [0.5, 0.7], nugget=1e-6)
    model = fit_gp(train, p)

    K = dense_kernel(x, x, p) + p.nugget * np.eye(6)
    sign, logdet = np.linalg.slogdet(K)
    assert sign > 0
    ys = train.targets
    oracle = -0.5 * ys @ np.linalg.inv(K) @ ys - 0.5 * logdet - 3 * math.log(2 * math.pi)
    assert log_marginal_likelihood(model) == pytest.approx(oracle, abs=1e-10)


def test_optimizer_monotone_and_recovers_lengthscale():
    rng = np.random.default_rng(11)
    x = rng.uniform(size=(30, 1))
    true = KernelParams(1.0, [0.2], nugget=1e-8)
    K = build_covariance(x, None, true)
    y = np.linalg.cholesky(K + 1e-10 * np.eye(30)) @ rng.standard_normal(30)
    train = TrainingSet.from_raw(x, y)

    init = KernelParams(1.0, [1.0], nugget=1e-8)
    tuned = optimize_emulator(train, init, budget=200, seed=0)
    lml_init = log_marginal_likelihood(fit_gp(train, init))
    lml_tuned = log_marginal_likelihood(fit_gp(train, tuned))
    assert lml_tuned >= lml_init
    assert 0.1 <= tuned.lengthscales[0] <= 0.4


def test_optimizer_budget_zero_rejected():
    train = TrainingSet.from_raw([[0.1], [0.9]], [0.0, 1.0])
    with pytest.raises(ValueError):
        optimize_emulator(train, KernelParams(1.0, [0.5], nugget=1e-8), budget=0)


def test_optimizer_scores_singular_fits_1e12_and_keeps_init():
    # a repeated input row at nugget 0 makes every candidate's fit singular
    x = np.random.default_rng(4).random((20, 2))
    x[7] = x[3]
    train = TrainingSet.from_raw(x, np.sin(x).sum(axis=1))
    init = KernelParams(1.0, [0.4, 0.3], nugget=0.0)
    with pytest.raises(SingularKernelError):
        fit_gp(train, init)
    tuned = optimize_emulator(train, init, budget=60, seed=0)  # restarts from 60
    assert tuned.variance_scale == init.variance_scale
    assert tuned.lengthscales.tolist() == [0.4, 0.3]
    assert tuned.nugget == 0.0


def test_optimizer_flat_targets_shrinks_variance():
    x = np.linspace(0, 1, 12)[:, None]
    train = TrainingSet.from_raw(x, np.full(12, 3.7))
    init = KernelParams(1.0, [0.5], nugget=1e-8)
    tuned = optimize_emulator(train, init, budget=150, seed=0)
    assert tuned.variance_scale < init.variance_scale


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    adaptive=st.booleans(),
    budget=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["quadratic", "capped", "stepped"]),
    outside=st.booleans(),
)
def test_nelder_mead_is_scipy_minimize_bitwise(n, adaptive, budget, seed, kind, outside):
    # capped and stepped objectives tie on whole regions, so the simplex order of
    # equal values is checked too; a start outside the box is clipped into it
    from scipy.optimize import OptimizeWarning, minimize

    rng = np.random.default_rng(seed)
    lb = rng.uniform(-3.0, 1.0, n)
    ub = lb + rng.uniform(0.05, 4.0, n)
    x0 = rng.uniform(lb - 2.0, ub + 2.0) if outside else rng.uniform(lb, ub)
    x0[rng.random(n) < 0.2] = 0.0
    centre, weight = rng.uniform(-4.0, 4.0, n), rng.uniform(0.1, 5.0, n)

    def f(x):
        q = float(np.sum(weight * (x - centre) ** 2))
        return {"quadratic": q, "capped": min(q, 2.0), "stepped": math.floor(2.0 * q) / 2.0}[kind]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OptimizeWarning)
        ref = minimize(f, x0, method="Nelder-Mead", bounds=list(zip(lb, ub)),
                       options={"maxiter": budget, "xatol": 1e-4, "fatol": 1e-8,
                                "adaptive": adaptive})
    x, fun, nit, nfev = _nelder_mead(f, x0, lb, ub, budget, 1e-4, 1e-8, adaptive)
    assert x.tobytes() == ref.x.tobytes()
    assert (fun, nit, nfev) == (ref.fun, ref.nit, ref.nfev)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 8),
    d=st.integers(1, 3),
    seed=st.integers(0, 10_000),
    var=st.floats(0.1, 5.0),
)
def test_kernel_psd_property(n, d, seed, var):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, d))
    ls = rng.uniform(0.05, 2.0, size=d)
    K = build_covariance(x, None, KernelParams(var, ls, nugget=1e-8))
    np.linalg.cholesky(K)  # raises if not PSD


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_predictive_variance_never_exceeds_prior(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(6, 1))
    train = TrainingSet.from_raw(x, rng.standard_normal(6))
    p = KernelParams(float(rng.uniform(0.2, 3.0)), [float(rng.uniform(0.05, 1.5))], nugget=1e-8)
    model = fit_gp(train, p)
    _, var = predict_standardized(model, rng.uniform(-1, 2, size=(10, 1)))
    assert np.all(var <= model.params.variance_scale + model.params.nugget + 1e-8)


def test_exact_emulator_matches_function():
    Q = np.array([[0.5, 1.0], [2.0, 0.0]])
    emu = ExactEmulator(lambda row: row[0] ** 2 + 3.0 * row[1])
    mean, var = emu.predict_std(Q)
    assert np.allclose(mean, [3.25, 4.0])
    assert np.all(var == 0.0)
    vec = ExactEmulator(lambda Q: Q[:, 0] ** 2 + 3.0 * Q[:, 1], vectorized=True)
    assert np.allclose(vec.mean_at(Q), mean)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins glibc malloc thresholds")
def test_optimizer_reuses_heap_pages_between_evaluations():
    # glibc's start-up thresholds (128 KiB) make it unmap or trim every freed
    # 160 x 4 x 160 kernel temporary, so each evaluation would fault its pages in anew
    code = textwrap.dedent("""
        import resource
        import numpy as np
        from driftcal import gp
        fit_gp, fits = gp.fit_gp, []
        gp.fit_gp = lambda *a: fits.append(1) or fit_gp(*a)
        x = np.random.default_rng(0).random((160, 4))
        train = gp.TrainingSet.from_raw(x, np.sin(6 * x).sum(axis=1))
        init = gp.KernelParams(1.0, np.full(4, 0.5), nugget=1e-8)
        gp.optimize_emulator(train, init, budget=40)
        fits.clear()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        gp.optimize_emulator(train, init, budget=40)
        print(len(fits), resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    env = {**os.environ, "PYTHONPATH": str(SRC),
           "MALLOC_MMAP_THRESHOLD_": "131072", "MALLOC_TRIM_THRESHOLD_": "131072"}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    fits, faults = map(int, out.stdout.split())
    assert fits >= 40
    assert faults < 5 * fits


def test_fit_gp_bytes_do_not_depend_on_blas_threads():
    # the training set of the combined_dense benchmark workload (160 x 4): OpenBLAS
    # factors a kernel of 128 rows or more in an order set by its thread count
    code = textwrap.dedent("""
        import hashlib
        from driftcal import gp
        from driftcal.problems import dipole_dataset
        ds = dipole_dataset(n_sim=160, n_obs=20, seed=0)
        train = gp.TrainingSet.from_raw(ds.sim_inputs_unit(), ds.sim_y)
        model = gp.fit_gp(train, gp.KernelParams(1.4, [0.17, 3.8, 6.9, 42.1], nugget=1e-8))
        print(model.chol.shape, hashlib.sha256(model.chol.tobytes()).hexdigest(),
              hashlib.sha256(model.alpha.tobytes()).hexdigest())
    """)
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": threads}
        outs.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                   capture_output=True, text=True).stdout)
    assert outs[0].startswith("(160, 160)")
    assert outs[0] == outs[1]
