"""One Metropolis-within-Gibbs engine for every calibrator.

In the embedded formulation each calibration parameter gets a zero-mean GP
field d_k(x) over the application domain; the emulator is queried at
theta*(x) = theta + d(x), so all systematic observation/simulator mismatch
is expressed as input-parameter drift rather than an additive output
correction. Inference runs Metropolis-Hastings sweeps over the field knot
values (with prior-preconditioned proposals and per-block adaptive step
sizes) and the field hyperparameters, plus a conjugate Gibbs draw for the
observation noise variance. An optional additive output-discrepancy field
turns the sampler into the combined formulation; with the drift fields off,
the theta block on and the additive field present it is the Kennedy &
O'Hagan baseline of :mod:`driftcal.koh`.

The engine steps all chains of a run in lockstep: each block runs once per
sweep for every chain, its array work stacked over the chains, while each
chain keeps its own generator and makes the calls it would make alone, so
the draws equal those of the chains run one after another.
"""

from __future__ import annotations

import hashlib
import logging
import math
import time
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from operator import attrgetter

import numpy as np

from . import gp
from .design import Prior, from_unit, to_unit
from .gp import KernelParams, PredictiveDistribution, build_covariance, _as_matrix
from .gp import _cho_solve, _se_diff, _se_kernel, _solve_lower
from .samples import PosteriorSamples
from .simulators import CalibrationDataset

__all__ = [
    "DiscrepancyField",
    "ThetaStar",
    "ChainState",
    "CalibrationPriors",
    "McmcConfig",
    "embedded_log_posterior",
    "mh_accept",
    "gibbs_sigma2",
    "run_integrated_delta",
    "run_combined",
    "posterior_predictive",
    "delta_field_curves",
    "StepAdapter",
]

log = logging.getLogger("driftcal.embedded")

_LOG_2PI = math.log(2.0 * math.pi)
FIELD_JITTER = 1e-10
_STEP = attrgetter("step")


def _chol(K: np.ndarray) -> np.ndarray:
    """Cholesky with jitter escalation for near-singular field covariances."""
    jitter = 0.0
    for _ in range(8):
        try:
            return np.linalg.cholesky(K + jitter * np.eye(K.shape[0]) if jitter else K)
        except np.linalg.LinAlgError:
            jitter = max(jitter * 10.0, 1e-12)
    raise np.linalg.LinAlgError("field covariance not positive definite")


@lru_cache(maxsize=8)
def _jitter_matrix(n: int) -> np.ndarray:
    """``FIELD_JITTER`` on the diagonal of an n x n zero matrix (read-only)."""
    J = FIELD_JITTER * np.eye(n)
    J.setflags(write=False)
    return J


def _knot_chol(knot_diff: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Prior Cholesky factor of a field from raw hyperparameters ``[variance, *lengthscales]``.

    ``knot_diff`` is the cached ``_se_diff(knots, knots)``; the kernel is
    :func:`build_covariance`'s, with ``FIELD_JITTER`` on the diagonal.
    """
    K = _se_kernel(knot_diff, h[0], h[1:])
    K += _jitter_matrix(len(K))  # its zeros leave the non-negative kernel as it is
    return _chol(K)


def _knot_chols(knot_diff: np.ndarray, H: np.ndarray):
    """:func:`_knot_chol` of each row of a (C, 1 + dx) stack of hyperparameters.

    Returns the (C, K, K) factors and, per row, whether it factored. The
    kernels are built and factored in one batched call, each bitwise as
    alone. When the batch does not factor, each kernel goes through
    :func:`_chol`'s jitter escalation on its own; one that still does not
    factor is left NaN.
    """
    K = _se_kernel(knot_diff, H[:, :1, None], H[:, 1:])
    K += _jitter_matrix(K.shape[-1])
    ok = [True] * len(K)
    try:
        return np.linalg.cholesky(K), ok
    except np.linalg.LinAlgError:
        pass
    for i, k in enumerate(K):
        try:
            K[i] = _chol(k)
        except np.linalg.LinAlgError:
            K[i], ok[i] = np.nan, False
    return K, ok


def _mvn_logpdf_zero(values: np.ndarray, L: np.ndarray, log_diag=None) -> float:
    """N(0, L L^T) log-density of ``values``; ``log_diag`` is the sum of the log of
    ``L``'s diagonal when known."""
    w = _solve_lower(L, values)
    if log_diag is None:
        log_diag = np.log(L.diagonal()).sum()
    return float(-0.5 * (w @ w) - log_diag - 0.5 * values.size * _LOG_2PI)


def gaussian_loglik(resid: np.ndarray, var: np.ndarray):
    """Sum of independent N(0, var_i) log-densities at the residuals.

    Sums over the last axis: a float for one residual vector, a list of
    floats, one per row, for a stack of them.
    """
    return (-0.5 * (resid * resid / var + np.log(2.0 * math.pi * var)).sum(axis=-1)).tolist()


def _predict_std(emulator, Q: np.ndarray):
    """Mean/variance of a ``GPModel`` or ``ExactEmulator`` on its standardized target scale."""
    if isinstance(emulator, gp.GPModel):
        # looked up at call time, so a rebound gp.predict_standardized is used
        return gp.predict_standardized(emulator, Q)
    mean = emulator.mean_at(Q)
    return mean, np.zeros_like(mean)


def _box_distances(Q: np.ndarray) -> np.ndarray:
    """Euclidean distance of each row (last axis) beyond the training unit box."""
    excess = np.maximum(Q - 1.0, 0.0) + np.maximum(-Q, 0.0)
    return np.sqrt((excess * excess).sum(axis=-1))


def _exact_matches(X: np.ndarray, knots: np.ndarray):
    """Row indices of X that coincide bitwise with a knot, plus the knot index."""
    eq = np.all(X[:, None, :] == knots[None, :, :], axis=2)
    rows, cols = np.nonzero(eq)
    keep = np.unique(rows, return_index=True)[1]
    return rows[keep], cols[keep]


@dataclass(frozen=True)
class DiscrepancyField:
    """One drift field: knot locations, knot values, and its GP prior.

    Values are in normalized units (theta-box units for parameter fields,
    standardized-y units for an additive output field). Conditioning on the
    knot values is noise-free, so predictions at knot locations reproduce
    the stored values exactly.
    """

    knots: np.ndarray
    values: np.ndarray
    hyper: KernelParams

    def __post_init__(self) -> None:
        k = _as_matrix(self.knots)
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "knots", k)
        object.__setattr__(self, "values", v)
        if v.size != k.shape[0]:
            raise ValueError("one value per knot required")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")

    def prior_cov(self) -> np.ndarray:
        return build_covariance(self.knots, None, replace(self.hyper, nugget=FIELD_JITTER))

    def log_prior(self) -> float:
        """Zero-mean GP prior log-density of the knot values."""
        L = _knot_chol(_se_diff(self.knots, self.knots), _hyper_vector(self.hyper))
        return _mvn_logpdf_zero(self.values, L)

    def conditional(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Noise-free conditional mean and variance of the field at ``x``."""
        means, vars_ = _conditional_curves(self.knots, _as_matrix(x), self.values[None, :],
                                           _hyper_vector(self.hyper)[None, :])
        return means[0], vars_[0]


@dataclass(frozen=True)
class ThetaStar:
    """Drift-corrected parameter map theta*(x) = theta + d(x).

    With no fields (the baseline calibrator) theta*(x) is theta everywhere.
    """

    base_theta: np.ndarray
    fields: tuple[DiscrepancyField, ...]

    def __post_init__(self) -> None:
        bt = np.atleast_1d(np.asarray(self.base_theta, dtype=float))
        object.__setattr__(self, "base_theta", bt)
        object.__setattr__(self, "fields", tuple(self.fields))
        if self.fields and len(self.fields) != bt.size:
            raise ValueError("need one drift field per parameter, or none")

    def evaluate(self, X) -> np.ndarray:
        """theta*(x) at each row of the (n, dx) normalized inputs; exact at knot locations.

        Returns an (n, dtheta) array; each field is conditioned once for all rows.
        """
        X = _as_matrix(X)
        out = np.tile(self.base_theta, (X.shape[0], 1))
        for k, f in enumerate(self.fields):
            out[:, k] += f.conditional(X)[0]
        return out


@dataclass
class ChainState:
    """Mutable MCMC chain state of any calibrator, as the log-posterior oracle reads it."""

    theta_star: ThetaStar
    noise_var: float
    eta_field: DiscrepancyField | None = None

    def __post_init__(self) -> None:
        if not self.noise_var > 0:
            raise ValueError("noise_var must be positive")


@dataclass(frozen=True)
class CalibrationPriors:
    """Priors shared by the calibrators.

    Field hyperpriors default to log-normals (lengthscale median 0.3 of the
    unit domain, variance median 0.05 on the normalized value scale); the
    noise prior must be inverse-gamma so the Gibbs step stays conjugate.
    """

    field_variance: Prior = Prior.log_normal(math.log(0.05), 0.75)
    field_lengthscale: Prior = Prior.log_normal(math.log(0.3), 0.5)
    eta_variance: Prior = Prior.log_normal(math.log(0.05), 0.75)
    eta_lengthscale: Prior = Prior.log_normal(math.log(0.3), 0.5)
    noise: Prior = Prior.inverse_gamma(3.0, 0.005)
    theta: tuple[Prior, ...] | None = None

    def __post_init__(self) -> None:
        if self.noise.kind != "inverse_gamma":
            raise ValueError("noise prior must be inverse_gamma (Gibbs conjugacy)")
        if self.theta is not None:
            object.__setattr__(self, "theta", tuple(self.theta))


@dataclass(frozen=True)
class McmcConfig:
    """Chain-length, adaptation, and block-selection settings."""

    iterations: int = 4000
    burn_in: int | None = None  # None resolves to min(1500, iterations // 2)
    thin: int = 2
    chains: int = 2
    seed: int = 0
    initial_step: float = 0.5
    sample_hyper: bool = True
    sample_sigma2: bool = True
    # None resolves per calibrator: False for the embedded sampler (theta
    # stays at its initial estimate), True for the baseline.
    sample_theta: bool | None = None
    theta0: tuple[float, ...] | None = None
    audit_every: int = 1000
    grid_points: int = 101

    def __post_init__(self) -> None:
        if self.burn_in is None:
            object.__setattr__(self, "burn_in", min(1500, self.iterations // 2))
        if not (self.iterations > self.burn_in >= 0):
            raise ValueError(
                f"need iterations > burn_in >= 0, got iterations={self.iterations}, "
                f"burn_in={self.burn_in}"
            )
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.chains < 1:
            raise ValueError("chains must be >= 1")
        if self.grid_points < 1:
            raise ValueError("grid_points must be >= 1")


ADAPT_TARGET = 0.3  # the acceptance rate the step adaptation aims at
ADAPT_DECAY = 0.66  # the adaptation gain falls as n ** -ADAPT_DECAY


class StepAdapter:
    """Robbins-Monro scaling of a proposal step toward ``ADAPT_TARGET`` acceptance."""

    def __init__(self, step: float):
        self.step = float(step)
        self._n = 0

    def update(self, accepted: bool) -> None:
        self._n += 1
        gain = self._n ** (-ADAPT_DECAY)
        self.step *= math.exp(gain * ((1.0 if accepted else 0.0) - ADAPT_TARGET))
        self.step = min(max(self.step, 1e-6), 1e3)


def mh_accept(log_post_new: float, log_post_old: float, rng: np.random.Generator) -> bool:
    """Metropolis decision: accept with probability min(1, exp(new - old))."""
    if math.isnan(log_post_new) or log_post_new == -math.inf:
        return False
    if log_post_new >= log_post_old:
        return True
    return math.log(rng.uniform()) < log_post_new - log_post_old


def gibbs_sigma2(residuals, prior: Prior, rng: np.random.Generator) -> float:
    """Draw the noise variance from its conjugate inverse-gamma conditional.

    With prior IG(a0, b0) and N residuals, the conditional is
    IG(a0 + N/2, b0 + sum(r^2)/2).
    """
    if prior.kind != "inverse_gamma":
        raise ValueError("gibbs_sigma2 requires an inverse_gamma prior")
    r = np.atleast_1d(np.asarray(residuals, dtype=float))
    if not np.isfinite(r).all():
        raise ValueError("residuals must be finite")
    a = prior.p1 + 0.5 * r.size
    b = prior.p2 + 0.5 * float(r @ r)
    return 1.0 / float(rng.gamma(a, 1.0 / b))


def _hyper_vector(hyper: KernelParams) -> np.ndarray:
    """Raw field hyperparameters ``[variance, *lengthscales]``: the stored layout."""
    return np.r_[hyper.variance_scale, hyper.lengthscales]


def _field_params(h: np.ndarray) -> KernelParams:
    """Validated field kernel parameters from raw ``[variance, *lengthscales]``."""
    return KernelParams(h[0], h[1:], FIELD_JITTER)


def _hyper_logprior(h: np.ndarray, var_prior: Prior, len_prior: Prior) -> float:
    """Hyperprior log-density of raw ``[variance, *lengthscales]``."""
    out = var_prior.logpdf(h[0])
    for ell in h[1:]:
        out += len_prior.logpdf(ell)
    return out


def _theta_logprior(theta_unit: np.ndarray, priors: CalibrationPriors, theta_bounds) -> float:
    """Theta prior on the unit box: -inf outside it, then the configured priors."""
    unit = theta_unit.tolist()
    if any(t < 0.0 or t > 1.0 for t in unit):
        return -math.inf
    if priors.theta is None:
        return 0.0
    # from_unit's arithmetic, in Python floats
    return float(sum(p.logpdf(lo + t * (hi - lo))
                     for p, t, (lo, hi) in zip(priors.theta, unit, theta_bounds)))


def embedded_log_posterior(
    state: ChainState,
    data: CalibrationDataset,
    emulator,
    priors: CalibrationPriors,
) -> float:
    """Joint log-posterior of every calibrator: the audit and test oracle.

    Likelihood: y_i ~ N(eta(x_i, theta*(x_i)) [+ delta_eta(x_i)],
    sigma^2 + emulator variance), evaluated on the emulator's standardized
    target scale; plus GP priors of every field's knot values, the field
    hyperpriors, the noise prior, and the theta prior. With no drift fields
    and an additive field this is the Kennedy & O'Hagan posterior. Theta
    outside the unit box and non-finite emulator output map to -inf.
    """
    theta_prior = _theta_logprior(state.theta_star.base_theta, priors, data.theta_bounds)
    if not math.isfinite(theta_prior):
        return -math.inf
    x_unit = data.obs_x_unit()
    Q = np.hstack([x_unit, state.theta_star.evaluate(x_unit)])
    mean, var = _predict_std(emulator, Q)
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(var))):
        log.warning("emulator returned non-finite output; state rejected")
        return -math.inf

    y_std = (data.obs_y - emulator.y_shift) / emulator.y_scale
    fields = [(f, priors.field_variance, priors.field_lengthscale)
              for f in state.theta_star.fields]
    eta_at_obs = 0.0
    if state.eta_field is not None:
        eta_at_obs = state.eta_field.conditional(x_unit)[0]
        fields.append((state.eta_field, priors.eta_variance, priors.eta_lengthscale))
    total = gaussian_loglik(y_std - mean - eta_at_obs, state.noise_var + var)
    for f, var_prior, len_prior in fields:
        total += f.log_prior() + _hyper_logprior(_hyper_vector(f.hyper), var_prior, len_prior)
    return total + priors.noise.logpdf(state.noise_var) + theta_prior


class _Chain:
    """The sampler engine: C chains stepped in lockstep over their active blocks.

    The engine holds the state of all chains as stacked arrays: knot values
    (C, F, K), hyperparameters ``[variance, *lengthscales]`` (C, F, 1 + dx),
    prior Cholesky factors (C, F, K, K) (one factorization per
    hyperparameter change), the emulator queries at the observations
    (C, n, dx + dtheta), whose last columns are theta*(x), and the cached
    emulator mean and variance (C, n). Each block runs once per sweep for all
    chains: proposals, the emulator query, Gaussian likelihoods and kernel
    factorizations are array work over the stack, while step adaptation,
    Metropolis decisions (``accept``), noise draws (``gibbs``), prior and
    knot-value densities stay per chain, in Python floats. Each chain draws
    from its own generator in ``rngs`` and makes the calls it would make
    running alone, in the same order, so its draws do not depend on the
    chains beside it; a proposal that fails numerically is a rejection of
    that chain's alone.

    A GP emulator is queried through :func:`driftcal.gp.predict_columns`:
    the observation columns of the query never change, so their kernel
    planes are computed once, and a drift-field proposal recomputes only
    its parameter's plane.

    The fields are one list: a drift field per parameter when ``drift`` is
    set, then the additive "eta" field when ``additive`` is. Each has its own
    hyperpriors. ``sample_theta`` runs the theta block; its draws are stored
    when it runs and, constant, when ``drift`` is off (the baseline). Data
    are shared read-only.

    Sweep order: theta, drift fields, eta, hyperparameters, Gibbs sigma^2.
    """

    def __init__(self, data, emulator, priors, config, rngs, knots: np.ndarray,
                 obs_idx: np.ndarray, *, drift: bool, additive: bool, sample_theta: bool,
                 accept, gibbs):
        self.data = data
        self.emulator = emulator
        self.priors = priors
        self.cfg = config
        self.rngs = list(rngs)
        self.knots = knots
        # the observations' knots; a slice when they are the knots in order
        identity = np.array_equal(obs_idx, np.arange(len(knots)))
        self.obs_sel = slice(None) if identity else obs_idx
        self.additive = additive
        self.sample_theta = sample_theta
        self.record_theta = sample_theta or not drift
        self.accept = accept
        self.gibbs = gibbs
        self.is_gp = isinstance(emulator, gp.GPModel)

        C = len(self.rngs)
        x_obs_unit = data.obs_x_unit()
        # observations and noise variances repeated per chain: same-shape array
        # operations skip numpy's broadcasting set-up, which dominates at these sizes
        y_std = (data.obs_y - emulator.y_shift) / emulator.y_scale
        self.y_rows = np.repeat(y_std[None], C, axis=0)
        self.dx = x_obs_unit.shape[1]
        self.dtheta = data.dtheta
        self.n_drift = self.dtheta if drift else 0
        self.names = list(data.param_names[: self.n_drift]) + (["eta"] if additive else [])
        self.field_priors = [(priors.field_variance, priors.field_lengthscale)] * self.n_drift
        if additive:
            self.field_priors.append((priors.eta_variance, priors.eta_lengthscale))
        self.knot_diff = _se_diff(knots, knots)
        h0 = np.array([np.r_[vp.median(), np.full(self.dx, lp.median())]
                       for vp, lp in self.field_priors])
        self.values = np.zeros((C, len(self.names), len(knots)))
        self.hypers = np.repeat(h0[None], C, axis=0)
        self.chols = np.repeat(np.array([_knot_chol(self.knot_diff, h) for h in h0])[None],
                               C, axis=0)

        if config.theta0 is not None:
            t0 = to_unit(np.asarray(config.theta0, float)[None, :], data.theta_bounds)[0]
        elif priors.theta is not None:
            med = np.array([p.median() for p in priors.theta])
            t0 = to_unit(med[None, :], data.theta_bounds)[0]
        else:
            t0 = np.full(self.dtheta, 0.5)
        self.base_theta = np.repeat(t0[None], C, axis=0)
        self.Q = np.empty((C, obs_idx.size, self.dx + self.dtheta))
        self.Q[:, :, : self.dx] = x_obs_unit

        s0 = priors.noise.mean()
        self.sigma2 = np.full(C, s0 if math.isfinite(s0) else priors.noise.median())
        self.noise_rows = np.empty_like(self.y_rows)

        self.block_names = ["theta"] if sample_theta else []
        self.block_names += [f"delta:{n}" for n in self.names]
        self.block_names += [f"hyper:{n}" for n in self.names]
        # per block, one entry per chain
        self.adapters = {
            n: [StepAdapter(config.initial_step) for _ in range(C)]
            for n in self.block_names
        }
        if sample_theta:
            # theta moves on the unit box; a full-box step would mix poorly
            for adapter in self.adapters["theta"]:
                adapter.step = min(config.initial_step, 0.15)
        # after burn-in: each block's proposal count, the same for every chain, and each
        # chain's accepted count
        self.proposed = dict.fromkeys(self.block_names, 0)
        self.accepted = {n: [0] * C for n in self.block_names}
        self.extrap_count = [0] * C
        self.extrap_max = [0.0] * C
        self.block_ns: dict[str, int] = {}

        self._init_parts()

    # -- cached log-posterior parts -------------------------------------

    def _emulate(self, chains, Q: np.ndarray, planes, cols: slice):
        """Standardized emulator mean and variance (C', n) at the queries ``Q`` of ``chains``.

        ``planes`` are the queries' GP planes, of which columns ``cols`` are
        refreshed in place. Counts extrapolations beyond the unit box per
        chain.
        """
        if self.is_gp:
            mean, var = gp.predict_columns(self.emulator, planes, Q, cols)
        else:
            mean = np.empty(Q.shape[:2])
            for j, q in enumerate(Q):
                mean[j] = self.emulator.mean_at(q)
            var = np.zeros_like(mean)
        if not (Q.min() >= 0.0 and Q.max() <= 1.0):
            for c, d in zip(chains, _box_distances(Q)):
                n_out = int(np.count_nonzero(d > 0))
                if n_out:
                    self.extrap_count[c] += n_out
                    dmax = float(d.max())
                    if dmax > self.extrap_max[c]:
                        self.extrap_max[c] = dmax
                    log.debug("emulator extrapolation: %d points, max box distance %.3g",
                              n_out, dmax)
        return mean, var

    def _loglik(self, mean, eta, var, chains=slice(None)):
        """Each chain's Gaussian log-likelihood at emulator output ``(mean, var)``,
        and whether that output is finite (the likelihood of a non-finite one is never read)."""
        resid = self.y_rows[: len(mean)] - mean
        if self.additive:
            resid -= eta
        loglik = gaussian_loglik(resid, self.noise_rows[chains] + var)
        if all(map(math.isfinite, loglik)):  # only finite output has a finite likelihood
            return loglik, [True] * len(loglik)
        return loglik, (np.isfinite(mean).all(axis=1) & np.isfinite(var).all(axis=1)).tolist()

    def _set_theta(self, Q: np.ndarray, base_theta: np.ndarray, values: np.ndarray) -> None:
        """Write theta*(x) at the observations, ``base_theta`` plus each drift field there,
        into the theta columns of ``Q``."""
        theta = Q[:, :, self.dx:]
        theta[...] = base_theta[:, None, :]
        if self.n_drift:
            drift = values[:, : self.n_drift, self.obs_sel]
            theta[:, :, : self.n_drift] += drift.transpose(0, 2, 1)

    def _init_parts(self) -> None:
        C = len(self.rngs)
        self.noise_rows[:] = self.sigma2[:, None]
        self._set_theta(self.Q, self.base_theta, self.values)
        self.planes = np.empty((*self.Q.shape, self.emulator.train.n)) if self.is_gp else None
        mean, var = self._emulate(range(C), self.Q, self.planes, slice(None))
        self.eta_at_obs = self.values[:, -1, self.obs_sel].copy() if self.additive else 0.0
        self.loglik, ok = self._loglik(mean, self.eta_at_obs, var)
        if not all(ok):
            raise RuntimeError("non-finite emulator output at initialization")
        self.emu_mean, self.emu_var = mean, var
        # per field, one entry per chain
        self.log_diag = [[np.log(L.diagonal()).sum() for L in self.chols[:, k]]
                         for k in range(len(self.names))]
        self.field_prior = [
            [_mvn_logpdf_zero(self.values[c, k], self.chols[c, k], self.log_diag[k][c])
             for c in range(C)]
            for k in range(len(self.names))
        ]
        self.hyper_prior = [[_hyper_logprior(h, *p) for h in self.hypers[:, k]]
                            for k, p in enumerate(self.field_priors)]
        # the log of each chain's hyperparameters and its sum: a proposal's start
        self.log_hypers = np.log(self.hypers)
        self.log_hyper_sum = [self.log_hypers[:, k].sum(axis=1).tolist()
                              for k in range(len(self.names))]
        self.sigma2_prior = list(map(self.priors.noise.logpdf, self.sigma2.tolist()))
        self.theta_prior = [_theta_logprior(t, self.priors, self.data.theta_bounds)
                            for t in self.base_theta]
        for c in range(C):
            if not math.isfinite(self.total(c)):
                raise RuntimeError("non-finite log posterior at initialization")

    def total(self, c: int) -> float:
        """The cached log posterior of chain ``c``."""
        return (
            self.loglik[c]
            + sum(fp[c] for fp in self.field_prior)
            + sum(hp[c] for hp in self.hyper_prior)
            + self.sigma2_prior[c]
            + self.theta_prior[c]
        )

    def snapshot(self, c: int) -> ChainState:
        fields = [
            DiscrepancyField(self.knots, v.copy(), _field_params(h))
            for v, h in zip(self.values[c], self.hypers[c])
        ]
        return ChainState(
            theta_star=ThetaStar(self.base_theta[c].copy(), fields[: self.n_drift]),
            noise_var=float(self.sigma2[c]),
            eta_field=fields[-1] if self.additive else None,
        )

    # -- MCMC blocks ------------------------------------------------------

    def _steps(self, name: str) -> list:
        return list(map(_STEP, self.adapters[name]))

    def _track(self, name: str, accepted: list, adapting: bool) -> None:
        if adapting:
            for adapter, acc in zip(self.adapters[name], accepted):
                adapter.update(acc)
        else:
            self.proposed[name] += 1
            counts = self.accepted[name]
            for c, acc in enumerate(accepted):
                counts[c] += acc

    def _field_proposal(self, k: int, name: str):
        """Prior-preconditioned proposals of field ``k``'s knot values, one per chain."""
        L = self.chols[:, k]
        z = np.array([rng.standard_normal(L.shape[-1]) for rng in self.rngs])
        steps = np.array(self._steps(name))[:, None]
        return L, self.values[:, k] + steps * np.matmul(L, z[:, :, None])[:, :, 0]

    def _update_theta(self, adapting: bool) -> None:
        base_new = self.base_theta + np.array([
            step * rng.standard_normal(self.dtheta)
            for step, rng in zip(self._steps("theta"), self.rngs)
        ])
        tp_new = [_theta_logprior(b, self.priors, self.data.theta_bounds) for b in base_new]
        accepted = [False] * len(self.rngs)
        live = [c for c, tp in enumerate(tp_new) if math.isfinite(tp)]
        if live:
            sel = slice(None) if len(live) == len(tp_new) else live
            Q = self.Q[sel].copy()
            self._set_theta(Q, base_new[sel], self.values[sel])
            planes = self.planes[sel].copy() if self.is_gp else None
            mean, var = self._emulate(live, Q, planes, slice(self.dx, None))
            eta = self.eta_at_obs[sel] if self.additive else 0.0
            loglik, ok = self._loglik(mean, eta, var, sel)
            for j, c in enumerate(live):
                if not ok[j]:
                    continue
                delta = (loglik[j] + tp_new[c]) - (self.loglik[c] + self.theta_prior[c])
                accepted[c] = self.accept(delta, 0.0, self.rngs[c])
                if accepted[c]:
                    self.base_theta[c] = base_new[c]
                    self.Q[c] = Q[j]
                    if planes is not None:
                        self.planes[c] = planes[j]
                    self.emu_mean[c], self.emu_var[c] = mean[j], var[j]
                    self.loglik[c] = loglik[j]
                    self.theta_prior[c] = tp_new[c]
        self._track("theta", accepted, adapting)

    def _update_field(self, k: int, adapting: bool) -> None:
        name = f"delta:{self.names[k]}"
        L, vals_new = self._field_proposal(k, name)
        j = self.dx + k
        Q = self.Q.copy()
        np.add(self.base_theta[:, k, None], vals_new[:, self.obs_sel], out=Q[:, :, j])
        planes = self.planes.copy() if self.is_gp else None
        mean, var = self._emulate(range(len(self.rngs)), Q, planes, slice(j, j + 1))
        loglik, ok = self._loglik(mean, self.eta_at_obs, var)
        field_prior, log_diag = self.field_prior[k], self.log_diag[k]
        accepted = [False] * len(self.rngs)
        for c, rng in enumerate(self.rngs):
            if not ok[c]:
                continue
            fp_new = _mvn_logpdf_zero(vals_new[c], L[c], log_diag[c])
            delta = (loglik[c] + fp_new) - (self.loglik[c] + field_prior[c])
            accepted[c] = self.accept(delta, 0.0, rng)
            if accepted[c]:
                self.values[c, k] = vals_new[c]
                self.Q[c] = Q[c]
                if planes is not None:
                    self.planes[c] = planes[c]
                self.emu_mean[c], self.emu_var[c] = mean[c], var[c]
                self.loglik[c] = loglik[c]
                field_prior[c] = fp_new
        self._track(name, accepted, adapting)

    def _update_eta(self, adapting: bool) -> None:
        """The additive field's values: no emulator query, the cached mean is reused."""
        L, vals_new = self._field_proposal(-1, "delta:eta")
        eta_new = vals_new[:, self.obs_sel]
        loglik = gaussian_loglik(self.y_rows - self.emu_mean - eta_new,
                                 self.noise_rows + self.emu_var)
        field_prior, log_diag = self.field_prior[-1], self.log_diag[-1]
        accepted = [False] * len(self.rngs)
        for c, rng in enumerate(self.rngs):
            fp_new = _mvn_logpdf_zero(vals_new[c], L[c], log_diag[c])
            delta = (loglik[c] + fp_new) - (self.loglik[c] + field_prior[c])
            accepted[c] = self.accept(delta, 0.0, rng)
            if accepted[c]:
                self.values[c, -1] = vals_new[c]
                self.eta_at_obs[c] = eta_new[c]
                self.loglik[c] = loglik[c]
                field_prior[c] = fp_new
        self._track("delta:eta", accepted, adapting)

    def _update_hyper(self, k: int, adapting: bool) -> None:
        """A log-space random walk on field ``k``'s raw ``[variance, *lengthscales]``.

        The log ratio includes the log-space Jacobian. A proposed value that
        overflows or underflows, or a proposed kernel that does not factor,
        is a rejection of that chain's proposal alone.
        """
        name = f"hyper:{self.names[k]}"
        field_prior, hyper_prior = self.field_prior[k], self.hyper_prior[k]
        log_diag, log_sum = self.log_diag[k], self.log_hyper_sum[k]
        logp = self.log_hypers[:, k]
        logp2 = logp + np.array([step * rng.standard_normal(logp.shape[1])
                                 for step, rng in zip(self._steps(name), self.rngs)])
        H2 = np.exp(logp2)
        live, rows = [], []
        for c, lp in enumerate(logp2.tolist()):
            try:
                variance = math.exp(lp[0])  # raises past 709.78
            except OverflowError:
                continue
            H2[c, 0] = variance
            h2 = H2[c].tolist()
            if 0.0 < min(h2) and max(h2) < math.inf:  # finite logp2: no NaN to compare
                live.append(c)
                rows.append(h2)
        accepted = [False] * len(self.rngs)
        if live:
            logp2_sum = logp2.sum(axis=1).tolist()
            chols, factored = _knot_chols(self.knot_diff,
                                          H2 if len(live) == len(self.rngs) else H2[live])
            var_prior, len_prior = self.field_priors[k]
            for j, c in enumerate(live):
                if not factored[j]:
                    continue
                chol2 = chols[j]
                log_diag2 = np.log(chol2.diagonal()).sum()
                fp2 = _mvn_logpdf_zero(self.values[c, k], chol2, log_diag2)
                hp2 = _hyper_logprior(rows[j], var_prior, len_prior)
                jacobian = logp2_sum[c] - log_sum[c]
                log_ratio = (fp2 - field_prior[c]) + (hp2 - hyper_prior[c]) + jacobian
                accepted[c] = self.accept(log_ratio, 0.0, self.rngs[c])
                if accepted[c]:
                    self.chols[c, k], log_diag[c] = chol2, log_diag2
                    field_prior[c], hyper_prior[c] = fp2, hp2
                    self.hypers[c, k] = H2[c]
                    # the log of H2, not logp2, whose exp rounded
                    log_h2 = self.log_hypers[c, k] = np.log(H2[c])
                    log_sum[c] = log_h2.sum()
        self._track(name, accepted, adapting)

    def _gibbs_sigma2(self, adapting: bool = False) -> None:
        resid = self.y_rows - self.emu_mean
        if self.additive:
            resid -= self.eta_at_obs
        for c, rng in enumerate(self.rngs):
            self.sigma2[c] = self.noise_rows[c] = self.gibbs(resid[c], self.priors.noise, rng)
        self.loglik = gaussian_loglik(resid, self.noise_rows + self.emu_var)
        self.sigma2_prior = list(map(self.priors.noise.logpdf, self.sigma2.tolist()))

    def _audit(self, c: int) -> None:
        recomputed = embedded_log_posterior(self.snapshot(c), self.data, self.emulator,
                                            self.priors)
        cached = self.total(c)
        if abs(recomputed - cached) > 1e-9:
            raise RuntimeError(
                f"log-posterior audit failed: cached {cached!r} vs recomputed {recomputed!r}"
            )

    def _block_steps(self) -> list:
        """(name, step) of each active block in sweep order; ``step(adapting)`` runs it."""
        steps = [("theta", self._update_theta)] if self.sample_theta else []
        steps += [(f"delta:{n}", partial(self._update_field, k))
                  for k, n in enumerate(self.names[: self.n_drift])]
        if self.additive:
            steps.append(("delta:eta", self._update_eta))
        if self.cfg.sample_hyper:
            steps += [(f"hyper:{n}", partial(self._update_hyper, k))
                      for k, n in enumerate(self.names)]
        if self.cfg.sample_sigma2:
            steps.append(("sigma2", self._gibbs_sigma2))
        return steps

    def block_us(self) -> dict[str, float]:
        """Mean wall time of one step of each block, all chains together, in microseconds."""
        return {name: ns / 1e3 / self.cfg.iterations for name, ns in self.block_ns.items()}

    def run(self) -> dict:
        """Run the configured sweeps; returns the stored draws, stacked over the chains.

        The dict holds ``delta`` and ``hyper`` (field name to (C, S, K) knot
        values and (C, S, 1 + dx) hyperparameters), ``sigma2`` (C, S) and
        ``theta`` (C, S, dtheta), None when theta is not recorded. The
        acceptance counts and extrapolation figures stay on the engine.
        """
        cfg = self.cfg
        C = len(self.rngs)
        n_stored = (cfg.iterations - cfg.burn_in + cfg.thin - 1) // cfg.thin
        out_delta = {n: np.empty((C, n_stored, len(self.knots))) for n in self.names}
        out_hyper = {n: np.empty((C, n_stored, 1 + self.dx)) for n in self.names}
        out_sigma2 = np.empty((C, n_stored))
        out_theta = np.empty((C, n_stored, self.dtheta)) if self.record_theta else None

        steps = self._block_steps()
        ns = self.block_ns = dict.fromkeys((name for name, _ in steps), 0)
        clock = time.perf_counter_ns
        stored = 0
        for it in range(cfg.iterations):
            adapting = it < cfg.burn_in
            for name, step in steps:
                t = clock()
                step(adapting)
                ns[name] += clock() - t
            if cfg.audit_every and (it + 1) % cfg.audit_every == 0:
                for c in range(C):
                    self._audit(c)
            if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thin == 0:
                for k, n in enumerate(self.names):
                    out_delta[n][:, stored] = self.values[:, k]
                    out_hyper[n][:, stored] = self.hypers[:, k]
                out_sigma2[:, stored] = self.sigma2
                if out_theta is not None:
                    out_theta[:, stored] = self.base_theta
                stored += 1
        return {"delta": out_delta, "hyper": out_hyper, "sigma2": out_sigma2,
                "theta": out_theta}


def _build_knots(data: CalibrationDataset):
    """Knots at the deduplicated observation inputs, and each observation's knot index."""
    x_unit = data.obs_x_unit()
    knots = np.unique(x_unit, axis=0)
    obs_idx = np.empty(x_unit.shape[0], dtype=int)
    for i, row in enumerate(x_unit):
        obs_idx[i] = int(np.where(np.all(knots == row, axis=1))[0][0])
    return knots, obs_idx


def _run_chains(data, emulator, priors, config, kind: str, timing: dict | None = None,
                **blocks) -> PosteriorSamples:
    """Run ``config.chains`` seeded chains in lockstep through one :class:`_Chain`.

    The sample set holds the draws chain-major, chain 0's first. ``blocks``
    are the engine's keyword-only block settings. Each chain draws
    from its own ``SeedSequence`` child of ``config.seed``. A ``timing`` dict
    receives the chain count and the mean wall time of each block step in
    microseconds. Raises when the theta priors or ``config.theta0`` do not
    give one entry per parameter.
    """
    if priors.theta is not None and len(priors.theta) != data.dtheta:
        raise ValueError(
            f"{len(priors.theta)} theta priors for a dataset with "
            f"{data.dtheta} calibration parameters"
        )
    if config.theta0 is not None and len(config.theta0) != data.dtheta:
        raise ValueError(
            f"theta0 has {len(config.theta0)} entries, dataset has {data.dtheta} parameters"
        )
    knots, obs_idx = _build_knots(data)
    rngs = [np.random.default_rng(seed)
            for seed in np.random.SeedSequence(config.seed).spawn(config.chains)]
    engine = _Chain(data, emulator, priors, config, rngs, knots, obs_idx, **blocks)
    draws = engine.run()
    if timing is not None:
        timing.update(chains=config.chains, us_per_step=engine.block_us())

    def chain_major(a):  # (C, S, ...) to (C * S, ...), chain 0's draws first
        return a.reshape(-1, *a.shape[2:])

    acceptance = {
        block: sum(engine.accepted[block]) / (proposed * config.chains) if proposed else 0.0
        for block, proposed in engine.proposed.items()
    }

    samples = PosteriorSamples(
        kind=kind,
        param_names=data.param_names,
        knots=knots,
        delta_draws={n: chain_major(a) for n, a in draws["delta"].items()},
        hyper_draws={n: chain_major(a) for n, a in draws["hyper"].items()},
        sigma2_draws=chain_major(draws["sigma2"]),
        theta_draws=None if draws["theta"] is None else chain_major(draws["theta"]),
        base_theta=engine.base_theta[0].copy(),
        acceptance_rates=acceptance,
        chains=config.chains,
        domain_bounds=data.domain_bounds,
        theta_bounds=data.theta_bounds,
        y_shift=float(emulator.y_shift),
        y_scale=float(emulator.y_scale),
        grid=np.linspace(0.0, 1.0, config.grid_points),
        extrapolation_count=sum(engine.extrap_count),
        extrapolation_max_distance=max(engine.extrap_max),
        seed=config.seed,
    )
    _attach_summaries(samples, emulator)
    return samples


SUMMARY_MAX_DRAWS = 2000


def _attach_summaries(samples: PosteriorSamples, emulator) -> None:
    """Fill ``samples.summaries`` with the grid bands of every field and the grid predictive.

    Each uses at most ``SUMMARY_MAX_DRAWS`` draws. This is the summary pass
    that later calls reuse: :func:`delta_field_curves` and
    :func:`posterior_predictive` remember their results on ``samples``, so a
    later call on ``samples.grid`` that selects the same draws (as
    ``runner.emit_plot_data`` does at its default ``predictive_draws``)
    reads them back instead of computing them again.
    """
    grid = samples.grid
    samples.summaries["x_norm"] = grid
    for name in samples.delta_draws:
        mean, sd = delta_field_curves(samples, name, grid, max_draws=SUMMARY_MAX_DRAWS)
        samples.summaries[f"delta_mean:{name}"] = mean
        samples.summaries[f"delta_sd:{name}"] = sd
    query = from_unit(grid[:, None], samples.domain_bounds)
    pred = posterior_predictive(samples, emulator, query, max_draws=SUMMARY_MAX_DRAWS)
    samples.summaries["predictive_mean"] = pred.mean
    samples.summaries["predictive_sd"] = pred.sd


def run_integrated_delta(
    data: CalibrationDataset,
    emulator,
    priors: CalibrationPriors,
    mcmc_config: McmcConfig,
    timing: dict | None = None,
) -> PosteriorSamples:
    """Run the embedded-discrepancy sampler.

    Per iteration: an optional theta block (a random walk held to the unit
    box), an MH sweep over each parameter's drift-field knot values
    (prior-preconditioned proposals), MH updates of each field's
    (variance, lengthscale), and a conjugate Gibbs draw of the noise
    variance. Step sizes adapt toward the target
    acceptance rate during burn-in only; draws after burn-in are stored
    with the configured stride. Deterministic for a fixed seed. A ``timing``
    dict receives the chain count and each block's mean step time in
    microseconds.
    """
    return _run_chains(
        data, emulator, priors, mcmc_config, "integrated_delta", timing, drift=True, additive=False,
        sample_theta=bool(mcmc_config.sample_theta), accept=mh_accept, gibbs=gibbs_sigma2,
    )


def run_combined(
    data: CalibrationDataset,
    emulator,
    priors: CalibrationPriors,
    mcmc_config: McmcConfig,
    timing: dict | None = None,
) -> PosteriorSamples:
    """Embedded drift fields plus one additive output-discrepancy field.

    The extra field acts on the standardized observation scale like a
    classic additive discrepancy; everything else matches
    :func:`run_integrated_delta`. Experimental.
    """
    return _run_chains(
        data, emulator, priors, mcmc_config, "combined", timing, drift=True, additive=True,
        sample_theta=bool(mcmc_config.sample_theta), accept=mh_accept, gibbs=gibbs_sigma2,
    )


def _draw_subset(n_draws: int, max_draws: int | None) -> np.ndarray:
    if max_draws is None or n_draws <= max_draws:
        return np.arange(n_draws)
    return np.unique(np.linspace(0, n_draws - 1, max_draws).astype(int))


def _conditional_curves(knots, X, values_rows, hyper_rows):
    """Noise-free field conditionals for a stack of draws.

    ``values_rows`` is (T, K), ``hyper_rows`` is (T, 1 + dx); returns (T, G)
    mean and variance arrays, with exact overrides where grid points
    coincide with knots.
    """
    diff_xk = _se_diff(X, knots)
    knot_diff = _se_diff(knots, knots)
    rows, cols = _exact_matches(X, knots)
    T = values_rows.shape[0]
    means = np.empty((T, X.shape[0]))
    vars_ = np.empty((T, X.shape[0]))
    for t in range(T):
        v = hyper_rows[t, 0]
        kxk = _se_kernel(diff_xk, v, hyper_rows[t, 1:])
        L = _knot_chol(knot_diff, hyper_rows[t])
        means[t] = kxk @ _cho_solve(L, values_rows[t])
        s = _solve_lower(L, kxk.T)
        vars_[t] = np.maximum(v - np.einsum("ij,ij->j", s, s), 0.0)
        means[t, rows] = values_rows[t, cols]
        vars_[t, rows] = 0.0
    return means, vars_


def _conditional_means(knots, X, values_rows, hyper_rows):
    """The means of :func:`_conditional_curves`, bitwise, without the variances' solves."""
    diff_xk = _se_diff(X, knots)
    knot_diff = _se_diff(knots, knots)
    rows, cols = _exact_matches(X, knots)
    means = np.empty((values_rows.shape[0], X.shape[0]))
    for t in range(values_rows.shape[0]):
        kxk = _se_kernel(diff_xk, hyper_rows[t, 0], hyper_rows[t, 1:])
        means[t] = kxk @ _cho_solve(_knot_chol(knot_diff, hyper_rows[t]), values_rows[t])
        means[t, rows] = values_rows[t, cols]
    return means


def _summary_key(samples: PosteriorSamples, emulator, X: np.ndarray, sel: np.ndarray,
                 tag) -> tuple:
    """What a grid summary reads: the emulator's identity and a blake2b digest of the rest.

    The digest covers ``tag``, the query ``X`` in unit coordinates, the
    selected draw indices ``sel``, every draw array (knots, field values and
    hyperparameters, sigma^2, theta draws) with its name, dtype and shape,
    ``base_theta``, ``param_names``, ``y_shift`` and ``y_scale``.
    """
    h = hashlib.blake2b(repr((tag, samples.param_names, samples.y_shift,
                              samples.y_scale)).encode())
    parts = [("x", X), ("sel", sel), ("knots", samples.knots), ("sigma2", samples.sigma2_draws),
             ("theta", samples.theta_draws), ("base_theta", samples.base_theta)]
    parts += [(f"delta:{n}", a) for n, a in samples.delta_draws.items()]
    parts += [(f"hyper:{n}", a) for n, a in samples.hyper_draws.items()]
    for label, a in parts:
        if a is None:
            h.update(f"{label}:None;".encode())
            continue
        a = np.ascontiguousarray(a)
        h.update(f"{label}:{a.dtype.str}{a.shape};".encode())
        h.update(a)
    return id(emulator), h.digest()


def _remembered(samples: PosteriorSamples, emulator, X, sel, tag, compute):
    """``compute()``, once per :func:`_summary_key` of a sample set.

    The entry keeps a reference to ``emulator``, so no other object can take
    its id while the entry lives.
    """
    key = _summary_key(samples, emulator, X, sel, tag)
    entry = samples._summary_memo.get(key)
    if entry is None:
        entry = samples._summary_memo[key] = (emulator, compute())
    return entry[1]


def _read_only(*arrays: np.ndarray) -> tuple:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def delta_field_curves(
    samples: PosteriorSamples,
    name: str,
    grid_norm: np.ndarray,
    max_draws: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior band ``(mean, sd)`` of one field on a normalized grid: two read-only G-vectors.

    Over the draws (optionally a strided subset), the mean averages each
    draw's conditional mean, and the sd adds the spread of those means to
    the average conditional variance. The band is remembered on ``samples``
    as :func:`posterior_predictive`'s results are.
    """
    X = np.atleast_1d(np.asarray(grid_norm, dtype=float))[:, None]
    if samples.knots.shape[1] != 1:
        raise ValueError("grid summaries require a 1-D domain")
    sel = _draw_subset(samples.n_draws, max_draws)

    def band():
        mean_c, var_c = _conditional_curves(
            samples.knots, X, samples.delta_draws[name][sel], samples.hyper_draws[name][sel]
        )
        return _read_only(mean_c.mean(axis=0), np.sqrt(mean_c.var(axis=0) + var_c.mean(axis=0)))

    return _remembered(samples, None, X, sel, ("band", name), band)


def posterior_predictive(
    samples: PosteriorSamples,
    emulator,
    query_x,
    max_draws: int | None = None,
) -> PredictiveDistribution:
    """Monte-Carlo posterior predictive at physical query inputs, one row per point.

    For every stored draw the drift fields are conditioned on their knot
    values, the emulator is queried at (x, theta + d(x)), and the noise and
    emulator variances are added; the reported variance combines the spread
    of the per-draw means with the average per-draw variance. KOH-style
    sample sets (constant theta draws plus an additive field) are handled
    with the same integral.

    Results are remembered per sample set: a call with the same emulator
    object, the same query in unit coordinates and the same selected draws,
    on sample arrays and metadata whose digest is unchanged (see
    :func:`_summary_key`), returns the stored distribution. Its arrays are
    read-only.
    """
    T = samples.n_draws
    if T == 0:
        raise ValueError("posterior_predictive needs at least one stored draw")
    sel = _draw_subset(T, max_draws)
    x_unit = to_unit(query_x, samples.domain_bounds)
    return _remembered(samples, emulator, x_unit, sel, "predictive",
                       partial(_predictive, samples, emulator, x_unit, sel))


def _predictive(samples: PosteriorSamples, emulator, x_unit: np.ndarray,
                sel: np.ndarray) -> PredictiveDistribution:
    G = x_unit.shape[0]
    # drift fields shift theta, the additive "eta" field adds to the mean
    curves = {
        name: _conditional_means(
            samples.knots, x_unit, samples.delta_draws[name][sel],
            samples.hyper_draws[name][sel],
        )
        for name in samples.delta_draws
    }
    means = np.empty((sel.size, G))
    vars_ = np.empty((sel.size, G))
    for j, t in enumerate(sel):
        if samples.theta_draws is not None:
            theta = np.tile(samples.theta_draws[t], (G, 1))
        else:
            theta = np.tile(samples.base_theta, (G, 1))
        for k, name in enumerate(samples.param_names):
            if name in curves:
                theta[:, k] += curves[name][j]
        m, v = _predict_std(emulator, np.hstack([x_unit, theta]))
        means[j] = m + curves["eta"][j] if "eta" in curves else m
        vars_[j] = v + samples.sigma2_draws[t]

    mean_std = means.mean(axis=0)
    var_std = means.var(axis=0) + vars_.mean(axis=0)
    pred = PredictiveDistribution(
        mean=samples.y_shift + samples.y_scale * mean_std,
        variance=(samples.y_scale**2) * var_std,
    )
    _read_only(pred.mean, pred.variance)
    return pred
