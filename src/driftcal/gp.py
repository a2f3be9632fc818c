"""Gaussian-process engine shared by both calibrators.

Anisotropic squared-exponential kernels, Cholesky-based fitting and
prediction, log marginal likelihood, and a derivative-free hyperparameter
tuner. Inputs are expected on the unit hypercube; targets are held in
standardized form (zero mean, unit variance) with the affine transform
stored for inversion back to physical units.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dpotrs, dtrtrs
from scipy.optimize import minimize

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


def _solve_lower(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``solve_triangular(L, b, lower=True)`` for a C-ordered ``L``: the same LAPACK
    call, so the same bits, without the wrapper's per-call argument checks."""
    x, info = dtrtrs(L.T, b, lower=0, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


def _cho_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``cho_solve((L, True), b)``: the same LAPACK call without the wrapper's checks."""
    x, info = dpotrs(L, b, lower=1)
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

    def destandardize(self, z) -> np.ndarray:
        return self.shift + self.scale * np.asarray(z, dtype=float)

    def destandardize_variance(self, v) -> np.ndarray:
        return (self.scale**2) * np.asarray(v, dtype=float)


@dataclass(frozen=True)
class PredictiveDistribution:
    """Pointwise predictive mean/variance, optionally a full covariance."""

    mean: np.ndarray
    variance: np.ndarray
    covariance: np.ndarray | None = None

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

    Immutable after :func:`fit_gp`; safe to share read-only across chains.
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

    def predict(self, query, want_cov: bool = False) -> PredictiveDistribution:
        return predict(self, query, want_cov)


def _se_diff(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Differences ``A[g, d] - B[i, d]`` in dimension-major (G, D, n) layout."""
    return A[:, :, None] - np.ascontiguousarray(B.T)


def _se_kernel(diff: np.ndarray, variance, lengthscales: np.ndarray,
               overwrite: bool = False) -> np.ndarray:
    """Squared-exponential kernel ``variance * exp(-sum_d (diff_d / ls_d)^2)``.

    ``diff`` holds dimension-major differences from :func:`_se_diff`, so the
    sum over dimensions adds D contiguous (G, n) planes in sequence instead
    of reducing a short innermost axis. The elementwise operations are those
    of the (G, n, D) broadcast formula in its order, and for D <= 7 numpy's
    innermost-axis sum also adds in sequence, so the result is bitwise
    identical. From D = 8 numpy sums pairwise: the exponent may then differ
    in its last bits, which exp turns into a relative difference of the
    kernel that grows with the exponent. ``diff`` is scaled in place when
    ``overwrite`` is set.
    """
    z = np.divide(diff, lengthscales[:, None], out=diff if overwrite else None)
    z *= z
    K = z.sum(axis=1)
    np.negative(K, out=K)
    np.exp(K, out=K)
    K *= variance
    return K


def build_covariance(a, b, params: KernelParams) -> np.ndarray:
    """Kernel matrix with entries ``variance_scale * exp(-sum_d ((a_d-b_d)/ls_d)^2)``.

    Pass ``b=None`` (or the identical object as ``a``) to build the
    self-covariance of ``a``; the nugget is added to the diagonal only in
    that case.
    """
    same = b is None or b is a
    A = _as_matrix(a)
    B = A if b is None else _as_matrix(b)
    d = params.ndim
    if A.shape[1] != d or B.shape[1] != d:
        raise DimensionMismatchError(
            f"inputs with {A.shape[1]} and {B.shape[1]} columns do not match "
            f"{d} lengthscales"
        )
    K = _se_kernel(_se_diff(A, B), params.variance_scale, params.lengthscales, overwrite=True)
    if same and params.nugget > 0:
        K.flat[:: K.shape[0] + 1] += params.nugget
    return K


def _has_duplicate_rows(X: np.ndarray) -> bool:
    return np.unique(X, axis=0).shape[0] < X.shape[0]


def fit_gp(train: TrainingSet, params: KernelParams) -> GPModel:
    """Fit a zero-mean GP, escalating the nugget on Cholesky failure.

    The nugget starts at the configured value and is raised stepwise
    (floor 1e-8, factor 10, ceiling 1e-4) until the kernel matrix factors;
    beyond the ceiling a :class:`SingularKernelError` is raised.
    """
    if train.dim != params.ndim:
        raise DimensionMismatchError(
            f"training dimension {train.dim} does not match {params.ndim} lengthscales"
        )
    if params.nugget == 0 and _has_duplicate_rows(train.inputs):
        raise SingularKernelError(
            "duplicate training inputs make the kernel singular at nugget=0; "
            "set a positive nugget"
        )
    nugget = params.nugget
    while True:
        p = replace(params, nugget=nugget)
        K = build_covariance(train.inputs, None, p)
        try:
            L = np.linalg.cholesky(K)
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


def predict_standardized(model: GPModel, query, want_cov: bool = False):
    """Conditional mean/variance at ``query`` in standardized target units."""
    Q = _as_matrix(query)
    if Q.shape[1] != model.train.dim:
        raise DimensionMismatchError(
            f"query dimension {Q.shape[1]} does not match training dimension "
            f"{model.train.dim}"
        )
    Ks = build_covariance(Q, model.train.inputs, model.params)
    mean = Ks @ model.alpha
    v = _solve_lower(model.chol, Ks.T)
    var = np.maximum(model.params.variance_scale - np.einsum("ij,ij->j", v, v), 0.0)
    cov = None
    if want_cov:
        p = model.params
        cov = _se_kernel(_se_diff(Q, Q), p.variance_scale, p.lengthscales, overwrite=True)
        cov -= v.T @ v
        cov = 0.5 * (cov + cov.T)
    return mean, var, cov


def predict(model: GPModel, query, want_cov: bool = False) -> PredictiveDistribution:
    """GP conditional at ``query``, de-standardized to original target units."""
    mean, var, cov = predict_standardized(model, query, want_cov)
    return PredictiveDistribution(
        mean=model.train.destandardize(mean),
        variance=model.train.destandardize_variance(var),
        covariance=None if cov is None else model.train.destandardize_variance(cov),
    )


def log_marginal_likelihood(model: GPModel) -> float:
    """Marginal log-likelihood of the standardized targets under the model."""
    y = model.train.targets
    return float(
        -0.5 * (y @ model.alpha)
        - np.log(np.diag(model.chol)).sum()
        - 0.5 * model.train.n * _LOG_2PI
    )


# glibc's mallopt parameters and the ceiling its adaptive mmap threshold can reach
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_MAX = 32 * 1024 * 1024


def _keep_freed_arrays() -> None:
    """Have glibc keep freed arrays below 32 MiB in the heap instead of unmapping them.

    Every likelihood evaluation of the tuner allocates and frees the same
    n x d x n kernel temporaries. glibc unmaps or trims such blocks unless an
    earlier free in the process happened to raise its adaptive thresholds,
    and when it does not the pages are faulted in afresh on every evaluation.
    Pinning both thresholds at the ceiling glibc itself adapts to makes the
    tuner reuse the same pages whatever the process did before. The setting
    is process-wide; it does nothing where the C library has no ``mallopt``.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
        mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX)


_LOG_BOUNDS_VARIANCE = (math.log(1e-6), math.log(1e4))
_LOG_BOUNDS_LENGTH = (math.log(1e-3), math.log(1e2))


def optimize_emulator(
    train: TrainingSet,
    init: KernelParams,
    budget: int,
    seed: int = 0,
) -> KernelParams:
    """Tune (variance_scale, lengthscales) by maximizing marginal likelihood.

    Runs Nelder-Mead over log hyperparameters from the initial point plus a
    couple of seeded restarts when the budget allows, and returns whichever
    candidate scores best; the result never scores below ``init``.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")

    _keep_freed_arrays()
    d = init.ndim
    bounds = [_LOG_BOUNDS_VARIANCE] + [_LOG_BOUNDS_LENGTH] * d

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

    x0 = np.clip(
        np.log(np.r_[init.variance_scale, init.lengthscales]),
        [lo for lo, _ in bounds],
        [hi for _, hi in bounds],
    )
    starts = [x0]
    if budget >= 60:
        rng = np.random.default_rng(seed)
        starts += [x0 + 0.5 * rng.standard_normal(x0.size) for _ in range(2)]

    best_x, best_f = x0, neg_lml(x0)
    for s in starts:
        res = minimize(
            neg_lml,
            s,
            method="Nelder-Mead",
            bounds=bounds,
            options={"maxiter": budget, "xatol": 1e-4, "fatol": 1e-8, "adaptive": d > 2},
        )
        if res.fun < best_f:
            best_x, best_f = res.x, res.fun
    return unpack(best_x)


class ExactEmulator:
    """Emulator stand-in that evaluates an exact function with zero variance.

    Mirrors the :class:`GPModel` prediction surface, which makes it usable
    wherever an emulator is expected: when the simulator is cheap enough to
    query directly, and in oracle tests that must bypass GP approximation
    error. Operates in raw units (shift 0, scale 1). Pass ``vectorized=True``
    when ``fn`` maps a whole (M, D) array to an (M,) vector.
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

    def predict(self, query, want_cov: bool = False) -> PredictiveDistribution:
        Q = _as_matrix(query)
        mean = self.mean_at(Q)
        var = np.zeros_like(mean)
        cov = np.zeros((Q.shape[0], Q.shape[0])) if want_cov else None
        return PredictiveDistribution(mean=mean, variance=var, covariance=cov)
