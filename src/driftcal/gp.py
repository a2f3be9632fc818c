"""Gaussian-process engine shared by both calibrators.

Anisotropic squared-exponential kernels, Cholesky-based fitting and
prediction, log marginal likelihood, and a derivative-free hyperparameter
tuner. Inputs are expected on the unit hypercube; targets are held in
standardized form (zero mean, unit variance) with the affine transform
stored for inversion back to physical units.

The two LAPACK routines the solves call, ``dtrtrs`` and ``dpotrs``, come
from scipy's LAPACK extension module, loaded on its own: neither importing
this module nor fitting, tuning and querying a GP imports ``scipy`` or any
of its subpackages. The tuner's Nelder-Mead is scipy's, ported step for
step (see :func:`_nelder_mead`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import find_spec, module_from_spec, spec_from_file_location
from pathlib import Path
from typing import Callable

import numpy as np

from .process_settings import keep_freed_arrays, one_blas_thread

__all__ = [
    "DimensionMismatchError",
    "SingularKernelError",
    "KernelParams",
    "TrainingSet",
    "GPModel",
    "PredictiveDistribution",
    "ExactEmulator",
    "build_covariance",
    "fit_gp",
    "predict",
    "predict_standardized",
    "log_marginal_likelihood",
    "optimize_emulator",
]

NUGGET_FLOOR = 1e-8
NUGGET_CEILING = 1e-4

_LOG_2PI = math.log(2.0 * math.pi)


class DimensionMismatchError(ValueError):
    """Inputs disagree on the number of columns."""


class SingularKernelError(RuntimeError):
    """Kernel matrix stayed non positive definite after nugget escalation."""


def _lapack_routines(linalg_dir: Path) -> tuple:
    """``(dpotrs, dtrtrs)`` of the LAPACK extension module in ``linalg_dir``, loaded alone.

    ``scipy.linalg``'s package init clones the numpy namespace, which loads
    ``numpy.f2py``, ``numpy.ma``, ``numpy.testing`` and more: over half of
    a cold ``import driftcal``. The extension module loads in milliseconds
    and registers itself in ``sys.modules`` under its own name, so a later
    ``import scipy.linalg`` reuses it and both hold the very same functions.
    Where the file is missing they are imported from ``scipy.linalg.lapack``.
    """
    paths = (linalg_dir / f"_flapack{suffix}" for suffix in EXTENSION_SUFFIXES)
    path = next((p for p in paths if p.is_file()), None)
    if path is None:
        from scipy.linalg.lapack import dpotrs, dtrtrs
        return dpotrs, dtrtrs
    spec = spec_from_file_location("scipy.linalg._flapack", path)
    flapack = module_from_spec(spec)
    spec.loader.exec_module(flapack)
    return flapack.dpotrs, flapack.dtrtrs


# find_spec locates scipy without running its package init
dpotrs, dtrtrs = _lapack_routines(Path(find_spec("scipy").origin).parent / "linalg")


def _solve_lower(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``solve_triangular(L, b, lower=True)`` for a C-ordered ``L``: the same LAPACK
    call, so the same bits, without the wrapper's per-call argument checks or the
    ``scipy.linalg`` import (see :func:`_lapack_routines`)."""
    x, info = dtrtrs(L.T, b, lower=0, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


def _cho_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``cho_solve((L, True), b)`` without the wrapper's checks.

    The C-ordered ``L`` is passed as the Fortran-ordered upper factor
    ``L.T``, which ``dpotrs`` takes without copying; the bits are the same.
    """
    x, info = dpotrs(L.T, b, lower=0)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    elif a.ndim != 2:
        raise DimensionMismatchError(f"expected 1-D or 2-D input, got ndim={a.ndim}")
    return a


@dataclass(frozen=True)
class KernelParams:
    """Squared-exponential kernel hyperparameters.

    ``variance_scale`` is the kernel amplitude (prior variance),
    ``lengthscales`` hold one correlation length per input dimension, and
    ``nugget`` is the diagonal jitter used for numerical stability.
    """

    variance_scale: float
    lengthscales: np.ndarray
    nugget: float = 0.0

    def __post_init__(self) -> None:
        ls = np.atleast_1d(np.asarray(self.lengthscales, dtype=float))
        object.__setattr__(self, "lengthscales", ls)
        object.__setattr__(self, "variance_scale", float(self.variance_scale))
        object.__setattr__(self, "nugget", float(self.nugget))
        if not (np.isfinite(self.variance_scale) and self.variance_scale > 0):
            raise ValueError(f"variance_scale must be positive, got {self.variance_scale}")
        if ls.ndim != 1 or ls.size == 0 or not np.all(np.isfinite(ls) & (ls > 0)):
            raise ValueError("lengthscales must be a non-empty vector of positive reals")
        if not (np.isfinite(self.nugget) and self.nugget >= 0):
            raise ValueError(f"nugget must be non-negative, got {self.nugget}")

    @property
    def ndim(self) -> int:
        return int(self.lengthscales.size)


@dataclass(frozen=True)
class TrainingSet:
    """Inputs on the unit cube plus standardized targets.

    ``shift``/``scale`` store the affine transform between raw and
    standardized targets so that predictions can be mapped back to the
    original units. Use :meth:`from_raw` to build one from physical data.
    The inputs are fixed once the set is built: what :func:`fit_gp` derives
    from them alone is computed once per set.
    """

    inputs: np.ndarray
    targets: np.ndarray
    shift: float = 0.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        X = _as_matrix(self.inputs)
        y = np.atleast_1d(np.asarray(self.targets, dtype=float))
        object.__setattr__(self, "inputs", X)
        object.__setattr__(self, "targets", y)
        object.__setattr__(self, "shift", float(self.shift))
        object.__setattr__(self, "scale", float(self.scale))
        if X.shape[0] < 1:
            raise ValueError("training set needs at least one point")
        if y.ndim != 1 or y.size != X.shape[0]:
            raise ValueError(f"targets length {y.size} does not match {X.shape[0]} inputs")
        if not self.scale > 0:
            raise ValueError("target scale must be positive")

    @classmethod
    def from_raw(cls, inputs, targets) -> "TrainingSet":
        """Standardize raw targets to zero mean / unit variance."""
        y = np.atleast_1d(np.asarray(targets, dtype=float))
        shift = float(y.mean())
        sd = float(y.std())
        scale = sd if sd > 1e-12 else 1.0
        return cls(inputs, (y - shift) / scale, shift, scale)

    @property
    def n(self) -> int:
        return int(self.inputs.shape[0])

    @property
    def dim(self) -> int:
        return int(self.inputs.shape[1])

    @cached_property
    def _lower_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat positions in an (n, n) array of the P pairs ``i >= j`` of the lower
        triangle, and their (1, D, P) differences ``inputs[i] - inputs[j]`` in
        :func:`_se_diff`'s dimension-major layout."""
        rows, cols = np.tril_indices(self.n)
        X = self.inputs
        return rows * self.n + cols, np.ascontiguousarray((X[rows] - X[cols]).T[None])

    @cached_property
    def _has_duplicate_rows(self) -> bool:
        return np.unique(self.inputs, axis=0).shape[0] < self.n

    def destandardize(self, z) -> np.ndarray:
        return self.shift + self.scale * np.asarray(z, dtype=float)

    def destandardize_variance(self, v) -> np.ndarray:
        return (self.scale**2) * np.asarray(v, dtype=float)


@dataclass(frozen=True)
class PredictiveDistribution:
    """Pointwise predictive mean and variance."""

    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self) -> None:
        m = np.atleast_1d(np.asarray(self.mean, dtype=float))
        v = np.atleast_1d(np.asarray(self.variance, dtype=float))
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "variance", v)
        if m.shape != v.shape:
            raise ValueError("mean and variance shapes differ")
        if np.any(v < 0):
            raise ValueError("predictive variance must be non-negative")

    @property
    def sd(self) -> np.ndarray:
        return np.sqrt(self.variance)


@dataclass(frozen=True)
class GPModel:
    """Fitted GP: kernel parameters, training data, Cholesky factor, weights.

    Immutable after :func:`fit_gp`; safe to share read-only across chains. Like
    :class:`ExactEmulator` it answers the emulator protocol: :meth:`predict_std` at
    any query (the log-posterior oracle's path), and :meth:`at_inputs`, the query at
    input rows fixed for a whole pass, which the sampler engine and the posterior
    predictive call.
    """

    params: KernelParams
    train: TrainingSet
    chol: np.ndarray
    alpha: np.ndarray

    @property
    def y_shift(self) -> float:
        return self.train.shift

    @property
    def y_scale(self) -> float:
        return self.train.scale

    def predict_std(self, Q):
        """:func:`predict_standardized` at ``Q``, looked up at call time (a rebound one is used)."""
        return predict_standardized(self, Q)

    def at_inputs(self, x: np.ndarray) -> Callable[[np.ndarray], tuple]:
        """The query at the fixed (G, dx) input rows ``x``: a callable from theta rows to
        standardized ``(mean, var)``.

        The callable takes a (G, dtheta) set of theta rows, or a (C, G, dtheta) stack of
        them, and returns (G,) or (C, G) arrays, each chain ``c`` bitwise
        ``predict_standardized(self, np.hstack([x, theta[c]]))``. The x columns' scaled
        squared differences to the training inputs are summed here, once; each call adds
        only the theta planes to that sum (see :func:`_add_planes`) and ends in
        :func:`_predict_from_planes`, as :func:`predict_standardized` does.
        """
        dx = x.shape[1]
        if not 0 < dx < self.train.dim:
            raise DimensionMismatchError(
                f"{dx} fixed input columns leave no theta column of {self.train.dim}")
        XT, ls = np.ascontiguousarray(self.train.inputs.T), self.params.lengthscales.tolist()
        x_sum = _add_planes(None, x, XT[:dx], ls[:dx])
        theta_XT, theta_ls = XT[dx:], ls[dx:]

        def query(theta: np.ndarray):
            if theta.shape[-1] != len(theta_ls):
                raise DimensionMismatchError(
                    f"{theta.shape[-1]} theta columns, the emulator takes {len(theta_ls)}")
            return _predict_from_planes(self, _add_planes(x_sum, theta, theta_XT, theta_ls))

        return query


def _se_diff(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Differences ``A[..., g, d] - B[i, d]`` in dimension-major (..., G, D, n) layout."""
    return A[..., None] - np.ascontiguousarray(B.T)


def _add_planes(acc, A: np.ndarray, BT: np.ndarray, ls: list):
    """``acc`` plus, one column ``d`` of ``A`` after another, the (..., G, n) planes
    ``((A[..., g, d] - BT[d, i]) / ls[d]) ** 2``, always in sequence: :func:`_se_kernel`'s
    sum over D <= 7 dimensions, bitwise, continued from ``acc`` (None: from the first
    plane). Each plane is scaled by a Python float, which numpy does faster than by a
    broadcast vector. The planes of every emulator query are summed here."""
    for d, scale in enumerate(ls):
        z = A[..., d, None] - BT[d]
        z /= scale
        z *= z
        acc = z if acc is None else np.add(acc, z, out=z)
    return acc


def _se_kernel(diff: np.ndarray, variance, lengthscales: np.ndarray) -> np.ndarray:
    """Squared-exponential kernel ``variance * exp(-sum_d (diff_d / ls_d)^2)``.

    ``diff`` holds dimension-major differences from :func:`_se_diff`, so the
    sum over dimensions adds D contiguous (G, n) planes in sequence instead
    of reducing a short innermost axis. The elementwise operations are those
    of the (G, n, D) broadcast formula in its order, and for D <= 7 numpy's
    innermost-axis sum also adds in sequence, so the result is bitwise
    identical. From D = 8 numpy sums pairwise: the exponent may then differ
    in its last bits, which exp turns into a relative difference of the
    kernel that grows with the exponent. It builds the kernels of cached
    differences: the training self-covariance and the drift fields'.

    A (C, D) stack of lengthscales, with ``variance`` broadcast as (C, 1, 1),
    gives a (C, G, n) stack of kernels, each bitwise the one built alone.
    """
    z = diff / lengthscales[..., None, :, None]
    z *= z
    # the planes are squares, never -0.0, so a sum of one plane is that plane
    K = z[..., 0, :].copy() if z.shape[-2] == 1 else z.sum(axis=-2)
    np.negative(K, out=K)
    np.exp(K, out=K)
    K *= variance
    return K


def build_covariance(a, b, params: KernelParams) -> np.ndarray:
    """Kernel matrix with entries ``variance_scale * exp(-sum_d ((a_d-b_d)/ls_d)^2)``.

    Pass ``b=None`` to build the self-covariance of ``a``; the nugget is
    added to the diagonal only in that case. An array ``b`` is a cross
    covariance even when it is ``a`` itself: a query never gets the nugget.
    """
    A = _as_matrix(a)
    B = A if b is None else _as_matrix(b)
    d = params.ndim
    if A.shape[1] != d or B.shape[1] != d:
        raise DimensionMismatchError(
            f"inputs with {A.shape[1]} and {B.shape[1]} columns do not match "
            f"{d} lengthscales"
        )
    K = _se_kernel(_se_diff(A, B), params.variance_scale, params.lengthscales)
    if b is None and params.nugget > 0:
        K.flat[:: K.shape[0] + 1] += params.nugget
    return K


def _self_covariance(train: TrainingSet, params: KernelParams) -> np.ndarray:
    """``build_covariance(train.inputs, None, params)`` in the lower triangle, zeros above.

    ``np.linalg.cholesky`` reads the lower triangle alone, so the factor is
    bitwise the one of the full matrix, for half the kernel work.
    """
    flat, diff = train._lower_pairs
    n = train.n
    K = np.zeros((n, n))
    K.ravel()[flat] = _se_kernel(diff, params.variance_scale, params.lengthscales)[0]
    if params.nugget > 0:
        K.flat[:: n + 1] += params.nugget
    return K


def fit_gp(train: TrainingSet, params: KernelParams) -> GPModel:
    """Fit a zero-mean GP, escalating the nugget on Cholesky failure.

    The nugget starts at the configured value and is raised stepwise
    (floor 1e-8, factor 10, ceiling 1e-4) until the kernel matrix factors;
    beyond the ceiling a :class:`SingularKernelError` is raised.

    The kernel is factored and solved on one BLAS thread (see
    :func:`~driftcal.process_settings.one_blas_thread`): the factor of a
    large kernel would otherwise depend in its last bits on the host's core
    count, and with it every output downstream of the emulator.
    """
    if train.dim != params.ndim:
        raise DimensionMismatchError(
            f"training dimension {train.dim} does not match {params.ndim} lengthscales"
        )
    if params.nugget == 0 and train._has_duplicate_rows:
        raise SingularKernelError(
            "duplicate training inputs make the kernel singular at nugget=0; "
            "set a positive nugget"
        )
    nugget = params.nugget
    with one_blas_thread():
        while True:
            p = replace(params, nugget=nugget)
            try:
                L = np.linalg.cholesky(_self_covariance(train, p))
                break
            except np.linalg.LinAlgError:
                if nugget < NUGGET_FLOOR:
                    nugget = NUGGET_FLOOR
                elif nugget * 10 <= NUGGET_CEILING:
                    nugget *= 10
                else:
                    raise SingularKernelError(
                        f"kernel not positive definite even at nugget={nugget:g}"
                    ) from None
        alpha = _cho_solve(L, train.targets)
    return GPModel(params=p, train=train, chol=L, alpha=alpha)


def _predict_from_planes(model: GPModel, S: np.ndarray):
    """Standardized ``(mean, var)`` of ``model`` at the query rows whose scaled squared
    differences to the training inputs sum to the (..., G, n) planes ``S``, overwritten.

    The exp and the variance give the cross-kernel, whose product with the weights is
    the mean; one triangular solve over every column gives the variance, floored at 0.
    (LAPACK solves a lone right-hand side by another path, so where G is 1 each row is
    solved on its own, as a one-row query is.)
    """
    variance, chol, n = model.params.variance_scale, model.chol, model.train.n
    np.negative(S, out=S)
    np.exp(S, out=S)
    S *= variance
    mean = np.matmul(S, model.alpha)
    if mean.shape[-1] == 1:
        v = np.asfortranarray(np.hstack([_solve_lower(chol, k.T) for k in S.reshape(-1, 1, n)]))
    else:
        v = _solve_lower(chol, S.reshape(-1, n).T)
    var = np.maximum(variance - np.einsum("ij,ij->j", v, v), 0.0)
    return mean, var.reshape(mean.shape)


def predict_standardized(model: GPModel, query):
    """Conditional mean/variance at ``query`` in standardized target units."""
    Q = _as_matrix(query)
    if Q.shape[1] != model.train.dim:
        raise DimensionMismatchError(
            f"query dimension {Q.shape[1]} does not match training dimension "
            f"{model.train.dim}"
        )
    planes = _add_planes(None, Q, model.train.inputs.T, model.params.lengthscales.tolist())
    return _predict_from_planes(model, planes)


def predict(model: GPModel, query) -> PredictiveDistribution:
    """GP conditional at ``query``, de-standardized to original target units."""
    mean, var = predict_standardized(model, query)
    return PredictiveDistribution(
        mean=model.train.destandardize(mean),
        variance=model.train.destandardize_variance(var),
    )


def log_marginal_likelihood(model: GPModel) -> float:
    """Marginal log-likelihood of the standardized targets under the model."""
    y = model.train.targets
    return float(
        -0.5 * (y @ model.alpha)
        - np.log(np.diag(model.chol)).sum()
        - 0.5 * model.train.n * _LOG_2PI
    )


_LOG_BOUNDS_VARIANCE = (math.log(1e-6), math.log(1e4))
_LOG_BOUNDS_LENGTH = (math.log(1e-3), math.log(1e2))


def _nelder_mead(f, x0, lb, ub, maxiter, xatol, fatol, adaptive):
    """Minimise ``f`` over the box ``[lb, ub]`` by Nelder-Mead: ``(x, fun, nit, nfev)``.

    This is scipy 1.17's ``minimize(f, x0, method="Nelder-Mead", bounds=...,
    options={"maxiter", "xatol", "fatol", "adaptive"})`` step for step, so
    the result is bitwise scipy's. ``x0`` is clipped into the box. The first
    simplex moves each entry by 5% (a zero entry to 0.00025), reflects what
    leaves the box through the upper bound and clips; every later point is
    clipped too. ``adaptive`` takes Gao & Han's (2012, *Comput. Optim.
    Appl.* 51:259) dimension-dependent parameters. The search stops when the
    simplex spans at most ``xatol`` in every coordinate and ``fatol`` in
    value, or at ``maxiter`` iterations, counted from 1.
    """
    x0 = np.clip(np.asarray(x0, dtype=float), lb, ub)
    N = x0.size
    if adaptive:
        chi, psi, sigma = 1 + 2 / N, 0.75 - 1 / (2 * N), 1 - 1 / N
    else:
        chi, psi, sigma = 2, 0.5, 0.5
    nfev = 0

    def fun(x):
        nonlocal nfev
        nfev += 1
        return f(x)

    sim = np.tile(x0, (N + 1, 1))
    for k in range(N):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    sim = np.clip(np.where(sim > ub, 2 * ub - sim, sim), lb, ub)
    fsim = np.array([fun(x) for x in sim], dtype=float)
    # scipy sorts the first simplex twice; an unstable sort may reorder ties again
    for _ in range(2):
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    nit = 1
    while nit < maxiter:
        if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = np.clip(2 * xbar - sim[-1], lb, ub)
        fxr = fun(xr)
        if fxr < fsim[0]:
            xe = np.clip((1 + chi) * xbar - chi * sim[-1], lb, ub)
            fxe = fun(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # contract outside the simplex, towards the reflection
                xc = np.clip((1 + psi) * xbar - psi * sim[-1], lb, ub)
                fxc = fun(xc)
                shrink = not fxc <= fxr
            else:  # contract inside, towards the worst point
                xc = np.clip((1 - psi) * xbar + psi * sim[-1], lb, ub)
                fxc = fun(xc)
                shrink = not fxc < fsim[-1]
            if shrink:
                for j in range(1, N + 1):
                    sim[j] = np.clip(sim[0] + sigma * (sim[j] - sim[0]), lb, ub)
                    fsim[j] = fun(sim[j])
            else:
                sim[-1], fsim[-1] = xc, fxc
        nit += 1
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim[0], np.min(fsim), nit, nfev


def optimize_emulator(
    train: TrainingSet,
    init: KernelParams,
    budget: int,
    seed: int = 0,
) -> KernelParams:
    """Tune (variance_scale, lengthscales) by maximizing marginal likelihood.

    Runs bounded Nelder-Mead (:func:`_nelder_mead`, adaptive above two
    lengthscales) over log hyperparameters from the initial point plus a
    couple of seeded restarts when the budget allows, and returns whichever
    candidate scores best; the result never scores below ``init``. A
    restart that leaves the bounds is clipped into them. The whole search
    runs on the one BLAS thread each fit pins, so that its fits do not
    switch the thread pools back and forth. It imports nothing from scipy.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")

    keep_freed_arrays()
    d = init.ndim
    lb = np.array([_LOG_BOUNDS_VARIANCE[0]] + [_LOG_BOUNDS_LENGTH[0]] * d)
    ub = np.array([_LOG_BOUNDS_VARIANCE[1]] + [_LOG_BOUNDS_LENGTH[1]] * d)

    def unpack(logp: np.ndarray) -> KernelParams:
        return KernelParams(
            variance_scale=math.exp(logp[0]),
            lengthscales=np.exp(logp[1:]),
            nugget=init.nugget,
        )

    def neg_lml(logp: np.ndarray) -> float:
        try:
            return -log_marginal_likelihood(fit_gp(train, unpack(logp)))
        except SingularKernelError:
            return 1e12

    x0 = np.clip(np.log(np.r_[init.variance_scale, init.lengthscales]), lb, ub)
    starts = [x0]
    if budget >= 60:
        rng = np.random.default_rng(seed)
        starts += [x0 + 0.5 * rng.standard_normal(x0.size) for _ in range(2)]

    with one_blas_thread():
        best_x, best_f = x0, neg_lml(x0)
        for s in starts:
            x, fun, _, _ = _nelder_mead(neg_lml, s, lb, ub, maxiter=budget, xatol=1e-4,
                                        fatol=1e-8, adaptive=d > 2)
            if fun < best_f:
                best_x, best_f = x, fun
    return unpack(best_x)


class ExactEmulator:
    """Emulator stand-in that evaluates an exact function with zero variance.

    Usable wherever an emulator is expected: when the simulator is cheap
    enough to query directly, and in oracle tests that must bypass GP
    approximation error. Operates in raw units (shift 0, scale 1). Pass
    ``vectorized=True`` when ``fn`` maps a whole (M, D) array to an (M,)
    vector. It answers :class:`GPModel`'s emulator protocol: the query of
    :meth:`at_inputs` writes the theta rows beside the fixed inputs and calls
    :meth:`mean_at` once for a (G, dtheta) set and once per chain for a
    (C, G, dtheta) stack, so a vectorized ``fn`` may treat the rows of one
    call as one query: a non-finite value among them rejects that chain's
    proposal alone. The query reuses one array for those rows while their
    shape stays the same, so ``fn`` must neither modify nor keep the rows it
    is given.
    """

    y_shift = 0.0
    y_scale = 1.0

    def __init__(self, fn: Callable[[np.ndarray], float], vectorized: bool = False):
        self.fn = fn
        self.vectorized = vectorized

    def mean_at(self, Q: np.ndarray) -> np.ndarray:
        if self.vectorized:
            return np.asarray(self.fn(Q), dtype=float)
        return np.array([float(self.fn(row)) for row in Q])

    def predict_std(self, Q: np.ndarray):
        mean = self.mean_at(Q)
        return mean, np.zeros_like(mean)

    def at_inputs(self, x: np.ndarray) -> Callable[[np.ndarray], tuple]:
        dx = x.shape[1]
        rows = np.empty((0, dx))  # the last call's [x, theta] rows: their x columns stay

        def query(theta: np.ndarray):
            nonlocal rows
            if theta.ndim not in (2, 3):
                raise DimensionMismatchError(f"theta rows of {theta.ndim} dimensions, not 2 or 3")
            shape = (*theta.shape[:-1], dx + theta.shape[-1])
            if rows.shape != shape:
                rows = np.empty(shape)
                rows[..., :dx] = x
            rows[..., dx:] = theta
            if theta.ndim == 2:
                mean = np.array(self.mean_at(rows))  # a copy: fn may return a view of the rows
            else:
                mean = np.empty(shape[:2])
                for j, q in enumerate(rows):
                    mean[j] = self.mean_at(q)
            return mean, np.zeros_like(mean)

        return query
