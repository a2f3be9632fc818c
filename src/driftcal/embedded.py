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
from dataclasses import dataclass
from functools import lru_cache, partial
from operator import add

import numpy as np

from .design import Prior, from_unit, to_unit
from .gp import PredictiveDistribution
from .gp import _cho_solve, _se_diff, _se_kernel, _solve_lower
from .samples import PosteriorSamples
from .simulators import CalibrationDataset

__all__ = [
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
]

log = logging.getLogger("driftcal.embedded")

_LOG_2PI = math.log(2.0 * math.pi)
FIELD_JITTER = 1e-10


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


def _knot_chols(knot_diff: np.ndarray, H: np.ndarray):
    """Prior Cholesky factors of a field, one per row of a (T, 1 + dx) stack of raw
    hyperparameters ``[variance, *lengthscales]``.

    ``knot_diff`` is the cached ``_se_diff(knots, knots)``; each kernel is
    :func:`~driftcal.gp.build_covariance`'s with ``FIELD_JITTER`` on the
    diagonal. The kernels are built and factored in one batched call, each
    bitwise as alone. When the batch does not factor, each kernel goes
    through :func:`_chol`'s jitter escalation on its own, and one that still
    does not factor is left NaN. Returns the (T, K, K) factors and, per row,
    whether its factor is finite.
    """
    K = _se_kernel(knot_diff, H[:, :1, None], H[:, 1:])
    K += _jitter_matrix(K.shape[-1])  # its zeros leave the non-negative kernel as it is
    try:
        L = np.linalg.cholesky(K)
    except np.linalg.LinAlgError:
        for i, k in enumerate(K):
            try:
                K[i] = _chol(k)
            except np.linalg.LinAlgError:
                K[i] = np.nan
        L = K
    # LAPACK factors a NaN kernel without an error; the NaN reaches the diagonal, so the trace
    return L, np.isfinite(np.trace(L, axis1=1, axis2=2)).tolist()


def _knot_chol(knot_diff: np.ndarray, H: np.ndarray) -> np.ndarray:
    """The factors of :func:`_knot_chols`; raises ``LinAlgError`` when a row does not factor."""
    L, ok = _knot_chols(knot_diff, H)
    if not all(ok):
        raise np.linalg.LinAlgError("field covariance not positive definite")
    return L


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


@dataclass
class ChainState:
    """A chain's state as the log-posterior oracle reads it, in the engine's layout.

    ``values`` (F, K) and ``hypers`` (F, 1 + dx) hold one row per field: a
    drift field per parameter, or none, then the additive "eta" field when
    ``additive`` is set. Knot values are in normalized units (theta-box units
    for drift fields, standardized-y units for the additive field) at the
    knots of :func:`_build_knots`; ``hypers`` rows are raw ``[variance,
    *lengthscales]``.
    """

    base_theta: np.ndarray
    values: np.ndarray
    hypers: np.ndarray
    noise_var: float
    additive: bool = False

    def __post_init__(self) -> None:
        self.base_theta = np.atleast_1d(np.asarray(self.base_theta, dtype=float))
        v = self.values = np.asarray(self.values, dtype=float)
        h = self.hypers = np.asarray(self.hypers, dtype=float)
        if v.ndim != 2 or not np.all(np.isfinite(v)):
            raise ValueError(f"values must be finite (fields, knots) rows, got {v!r}")
        if h.shape[:1] != v.shape[:1] or h.ndim != 2 or not np.all(np.isfinite(h) & (h > 0)):
            raise ValueError(f"hypers must be one row of positive finite reals "
                             f"[variance, *lengthscales] per field, got {h!r}")
        if len(v) - self.additive not in (0, self.base_theta.size):
            raise ValueError(f"{len(v)} field rows: need one drift field per parameter, "
                             f"or none, then the additive field when additive")
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
    """Chain-length, adaptation, block-selection and summary settings: every posterior
    summary of a run, the sampler's and the runner's, reads at most ``predictive_draws``
    evenly strided draws, and the grid ones ``grid_points`` points."""

    iterations: int = 4000
    burn_in: int | None = None  # None resolves to min(1500, iterations // 2)
    thin: int = 2
    chains: int = 2
    seed: int = 0
    initial_step: float = 0.5
    sample_hyper: bool = True
    sample_sigma2: bool = True
    # None resolves in the engine: True with the drift fields off (the
    # baseline), False with them on (theta stays at its initial estimate).
    sample_theta: bool | None = None
    theta0: tuple[float, ...] | None = None
    audit_every: int = 1000
    grid_points: int = 101
    predictive_draws: int = 2000

    def __post_init__(self) -> None:
        if self.burn_in is None:
            object.__setattr__(self, "burn_in", min(1500, self.iterations // 2))
        if not (self.iterations > self.burn_in >= 0):
            raise ValueError(
                f"need iterations > burn_in >= 0, got iterations={self.iterations}, "
                f"burn_in={self.burn_in}"
            )
        for name in ("thin", "chains", "grid_points", "predictive_draws"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not (math.isfinite(self.initial_step) and self.initial_step > 0):
            raise ValueError(f"initial_step must be finite and > 0, got {self.initial_step}")
        if self.audit_every < 0:
            raise ValueError(f"audit_every must be >= 0, got {self.audit_every}")


ADAPT_TARGET = 0.3  # the acceptance rate the step adaptation aims at
ADAPT_DECAY = 0.66  # the adaptation gain of sweep n (from 1) is n ** -ADAPT_DECAY


def mh_accept(log_post_new: float, log_post_old: float, rng: np.random.Generator) -> bool:
    """Metropolis decision: accept with probability min(1, exp(new - old))."""
    if math.isnan(log_post_new) or log_post_new == -math.inf:
        return False
    if log_post_new >= log_post_old:
        return True
    u = rng.random()  # uniform()'s [0, 1) draw without its argument checks; log(0.0) would raise
    return u == 0.0 or math.log(u) < log_post_new - log_post_old


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


def _check_theta_priors(priors: CalibrationPriors, data: CalibrationDataset) -> None:
    if priors.theta is not None and len(priors.theta) != data.dtheta:
        raise ValueError(f"{len(priors.theta)} theta priors for a dataset with "
                         f"{data.dtheta} calibration parameters")


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
    Raises ``ValueError`` when the state or the theta priors do not fit the
    dataset: one base theta and one theta prior (when given) per parameter,
    one value per knot of :func:`_build_knots`, and 1 + dx hyperparameters.
    """
    if state.base_theta.size != data.dtheta:
        raise ValueError(f"base_theta needs {data.dtheta} entries, got {state.base_theta.size}")
    _check_theta_priors(priors, data)
    knots, _ = _build_knots(data)
    n_fields, n_knots = state.values.shape
    if n_knots != len(knots):
        raise ValueError(f"one value per knot required: {n_knots} values, {len(knots)} knots")
    if state.hypers.shape[1] != 1 + data.dx:
        raise ValueError(f"hypers need {1 + data.dx} columns [variance, *lengthscales], "
                         f"got {state.hypers.shape[1]}")
    theta_prior = _theta_logprior(state.base_theta, priors, data.theta_bounds)
    if not math.isfinite(theta_prior):
        return -math.inf
    x_unit = data.obs_x_unit()
    # every observation is a knot: the conditionals are the knot values there
    at_obs = _conditional_curves(knots, x_unit, state.values, state.hypers, variances=False)[0]
    n_drift = n_fields - state.additive
    theta_star = np.tile(state.base_theta, (len(x_unit), 1))
    theta_star[:, :n_drift] += at_obs[:n_drift].T
    mean, var = emulator.predict_std(np.hstack([x_unit, theta_star]))
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(var))):
        log.warning("emulator returned non-finite output; state rejected")
        return -math.inf

    y_std = (data.obs_y - emulator.y_shift) / emulator.y_scale
    eta_at_obs = at_obs[-1] if state.additive else 0.0
    total = gaussian_loglik(y_std - mean - eta_at_obs, state.noise_var + var)
    field_priors = [(priors.field_variance, priors.field_lengthscale)] * n_drift
    if state.additive:
        field_priors.append((priors.eta_variance, priors.eta_lengthscale))
    chols = _knot_chol(_se_diff(knots, knots), state.hypers)
    for v, h, L, (var_prior, len_prior) in zip(state.values, state.hypers, chols, field_priors):
        total += _mvn_logpdf_zero(v, L) + _hyper_logprior(h, var_prior, len_prior)
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
    factorizations are array work over the stack, while step sizes,
    Metropolis decisions (``accept``), noise draws (``gibbs``), prior and
    knot-value densities stay per chain, in Python floats. Each chain draws
    from its own generator in ``rngs`` and makes the calls it would make
    running alone, in the same order, so its draws do not depend on the
    chains beside it; a proposal that fails numerically is a rejection of
    that chain's alone.

    The emulator answers the protocol of :class:`~driftcal.gp.GPModel`: the
    engine takes one ``at_inputs`` query at the observations when it is built,
    and calls it once per proposal with the stacked theta*(x) columns of all
    chains; an :class:`~driftcal.gp.ExactEmulator` is called per chain.

    The fields are one list: a drift field per parameter when ``drift`` is
    set, then the additive "eta" field when ``additive`` is. Each has its own
    hyperpriors. Data are shared read-only.

    ``blocks`` lists the active blocks once, as ``(name, step)`` in sweep
    order: ``theta`` when ``config.sample_theta`` (None resolves to ``not
    drift``; theta draws are stored then and, constant, when ``drift`` is
    off), each field's knot values, each field's hyperparameters when
    ``config.sample_hyper`` and the Gibbs ``sigma2`` draw when
    ``config.sample_sigma2``. A Metropolis block returns one decision per
    chain, from which :meth:`run` adapts ``steps`` and counts ``accepted``;
    step times exist for every block listed, so a block that does not run
    has no acceptance rate.
    """

    def __init__(self, data, emulator, priors, config, rngs, knots: np.ndarray,
                 obs_idx: np.ndarray, *, drift: bool, additive: bool, accept, gibbs):
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
        sample_theta = not drift if config.sample_theta is None else config.sample_theta
        self.record_theta = sample_theta or not drift
        self.accept = accept
        self.gibbs = gibbs

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
        self.chols = np.repeat(_knot_chol(self.knot_diff, h0)[None], C, axis=0)

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
        self.query = emulator.at_inputs(x_obs_unit)

        s0 = priors.noise.mean()
        self.sigma2 = np.full(C, s0 if math.isfinite(s0) else priors.noise.median())
        self.noise_rows = np.empty_like(self.y_rows)

        # the active blocks in sweep order; step(self) runs one for every chain. Functions,
        # not bound methods: those would keep the engine alive in a reference cycle.
        self.blocks = [("theta", _Chain._update_theta)] if sample_theta else []
        self.blocks += [(f"delta:{n}", partial(_Chain._update_field, k=k))
                        for k, n in enumerate(self.names)]
        if config.sample_hyper:
            self.blocks += [(f"hyper:{n}", partial(_Chain._update_hyper, k=k))
                            for k, n in enumerate(self.names)]
        if config.sample_sigma2:
            self.blocks.append(("sigma2", _Chain._gibbs_sigma2))
        metropolis = [name for name, _ in self.blocks if name != "sigma2"]
        # per Metropolis block, one entry per chain: the step and the accepted count after
        # burn-in
        self.steps = {n: [float(config.initial_step)] * C for n in metropolis}
        if sample_theta:
            # theta moves on the unit box; a full-box step would mix poorly
            self.steps["theta"] = [min(config.initial_step, 0.15)] * C
        self.accepted = {n: [0] * C for n in metropolis}
        self.block_ns = dict.fromkeys((name for name, _ in self.blocks), 0)
        self.extrap_count = [0] * C
        self.extrap_max = [0.0] * C

        self._init_parts()

    # -- cached log-posterior parts -------------------------------------

    def _emulate(self, chains, Q: np.ndarray):
        """Standardized emulator mean and variance (C', n) at the queries ``Q`` of ``chains``.

        Counts extrapolations beyond the unit box per chain.
        """
        mean, var = self.query(Q[:, :, self.dx:])
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
        mean, var = self._emulate(range(C), self.Q)
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
        return ChainState(self.base_theta[c].copy(), self.values[c].copy(),
                          self.hypers[c].copy(), float(self.sigma2[c]), self.additive)

    # -- MCMC blocks: each returns its decision for every chain ------------

    def _update_theta(self) -> list:
        base_new = self.base_theta + np.array([
            step * rng.standard_normal(self.dtheta)
            for step, rng in zip(self.steps["theta"], self.rngs)
        ])
        tp_new = [_theta_logprior(b, self.priors, self.data.theta_bounds) for b in base_new]
        accepted = [False] * len(self.rngs)
        live = [c for c, tp in enumerate(tp_new) if math.isfinite(tp)]
        if live:
            sel = slice(None) if len(live) == len(tp_new) else live
            Q = self.Q[sel].copy()
            self._set_theta(Q, base_new[sel], self.values[sel])
            mean, var = self._emulate(live, Q)
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
                    self.emu_mean[c], self.emu_var[c] = mean[j], var[j]
                    self.loglik[c] = loglik[j]
                    self.theta_prior[c] = tp_new[c]
        return accepted

    def _update_field(self, k: int) -> list:
        """Prior-preconditioned proposals of field ``k``'s knot values, one per chain.

        A drift field's proposal queries the emulator at its moved theta
        column; the additive field's reuses the cached emulator output and
        moves the field at the observations.
        """
        L = self.chols[:, k]
        z = np.array([rng.standard_normal(L.shape[-1]) for rng in self.rngs])
        steps = np.array(self.steps[f"delta:{self.names[k]}"])[:, None]
        vals_new = self.values[:, k] + steps * np.matmul(L, z[:, :, None])[:, :, 0]
        drift = k < self.n_drift
        if drift:
            j = self.dx + k
            Q = self.Q.copy()
            np.add(self.base_theta[:, k, None], vals_new[:, self.obs_sel], out=Q[:, :, j])
            mean, var = self._emulate(range(len(self.rngs)), Q)
            eta = self.eta_at_obs
        else:
            mean, var, eta = self.emu_mean, self.emu_var, vals_new[:, self.obs_sel]
        loglik, ok = self._loglik(mean, eta, var)
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
                if drift:
                    self.Q[c] = Q[c]
                    self.emu_mean[c], self.emu_var[c] = mean[c], var[c]
                else:
                    self.eta_at_obs[c] = eta[c]
                self.loglik[c] = loglik[c]
                field_prior[c] = fp_new
        return accepted

    def _update_hyper(self, k: int) -> list:
        """A log-space random walk on field ``k``'s raw ``[variance, *lengthscales]``.

        The log ratio includes the log-space Jacobian. A proposed value that
        overflows or underflows, or a proposed kernel that does not factor,
        is a rejection of that chain's proposal alone.
        """
        field_prior, hyper_prior = self.field_prior[k], self.hyper_prior[k]
        log_diag, log_sum = self.log_diag[k], self.log_hyper_sum[k]
        logp = self.log_hypers[:, k]
        steps = self.steps[f"hyper:{self.names[k]}"]
        logp2 = logp + np.array([step * rng.standard_normal(logp.shape[1])
                                 for step, rng in zip(steps, self.rngs)])
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
                    log_sum[c] = float(log_h2.sum())
        return accepted

    def _gibbs_sigma2(self) -> None:
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

    def block_us(self) -> dict[str, float]:
        """Mean wall time of one step of each block, all chains together, in microseconds."""
        return {name: ns / 1e3 / self.cfg.iterations for name, ns in self.block_ns.items()}

    def acceptance_rates(self) -> dict[str, float]:
        """Each Metropolis block's accepted share of its proposals after burn-in, all chains."""
        proposed = (self.cfg.iterations - self.cfg.burn_in) * len(self.rngs)
        return {name: sum(counts) / proposed for name, counts in self.accepted.items()}

    def run(self) -> dict:
        """Run the configured sweeps; returns the stored draws, stacked over the chains.

        The dict holds ``delta`` and ``hyper`` (field name to (C, S, K) knot
        values and (C, S, 1 + dx) hyperparameters), ``sigma2`` (C, S) and
        ``theta`` (C, S, dtheta), None when theta is not recorded. The
        acceptance counts and extrapolation figures stay on the engine. During
        burn-in each chain's steps move by Robbins-Monro toward ``ADAPT_TARGET``
        acceptance, clamped to [1e-6, 1e3]; after it the decisions are counted.
        """
        cfg = self.cfg
        C = len(self.rngs)
        n_stored = (cfg.iterations - cfg.burn_in + cfg.thin - 1) // cfg.thin
        out_delta = {n: np.empty((C, n_stored, len(self.knots))) for n in self.names}
        out_hyper = {n: np.empty((C, n_stored, 1 + self.dx)) for n in self.names}
        out_sigma2 = np.empty((C, n_stored))
        out_theta = np.empty((C, n_stored, self.dtheta)) if self.record_theta else None

        ns = self.block_ns
        clock = time.perf_counter_ns
        stored = 0
        for it in range(cfg.iterations):
            adapting = it < cfg.burn_in
            if adapting:  # the sweep's step factors of an acceptance and of a rejection
                gain = (it + 1) ** -ADAPT_DECAY
                up = math.exp(gain * (1.0 - ADAPT_TARGET))
                down = math.exp(gain * (0.0 - ADAPT_TARGET))
            for name, step in self.blocks:
                t = clock()
                accepted = step(self)
                if accepted is not None:  # None from the Gibbs draw
                    if adapting:
                        self.steps[name] = [min(max(s * (up if a else down), 1e-6), 1e3)
                                            for s, a in zip(self.steps[name], accepted)]
                    else:
                        self.accepted[name] = list(map(add, self.accepted[name], accepted))
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
    knots, obs_idx = np.unique(x_unit, axis=0, return_inverse=True)
    # numpy 2.0.0 returned the inverse of an axis-0 unique with the input's dimensions
    return knots, obs_idx.reshape(-1)


def _run_chains(data, emulator, priors, config, kind: str, timing: dict | None = None,
                **blocks) -> PosteriorSamples:
    """Run ``config.chains`` seeded chains in lockstep through one :class:`_Chain`.

    The sample set holds the draws chain-major, chain 0's first. ``blocks``
    are the engine's keyword-only block settings. Each chain draws
    from its own ``SeedSequence`` child of ``config.seed``. A ``timing`` dict
    receives the chain count and the mean wall time of each block step in
    microseconds. Raises when the theta priors or ``config.theta0`` do not
    give one entry per parameter, or when the domain is not 1-D (the grid
    summaries need one), before any sweep.
    """
    _check_theta_priors(priors, data)
    if config.theta0 is not None and len(config.theta0) != data.dtheta:
        raise ValueError(
            f"theta0 has {len(config.theta0)} entries, dataset has {data.dtheta} parameters"
        )
    if data.dx != 1:
        raise ValueError("grid summaries require a 1-D domain")
    knots, obs_idx = _build_knots(data)
    rngs = [np.random.default_rng(seed)
            for seed in np.random.SeedSequence(config.seed).spawn(config.chains)]
    engine = _Chain(data, emulator, priors, config, rngs, knots, obs_idx, **blocks)
    draws = engine.run()
    if timing is not None:
        timing.update(chains=config.chains, us_per_step=engine.block_us())

    def chain_major(a):  # (C, S, ...) to (C * S, ...), chain 0's draws first
        return a.reshape(-1, *a.shape[2:])

    samples = PosteriorSamples(
        kind=kind,
        param_names=data.param_names,
        knots=knots,
        delta_draws={n: chain_major(a) for n, a in draws["delta"].items()},
        hyper_draws={n: chain_major(a) for n, a in draws["hyper"].items()},
        sigma2_draws=chain_major(draws["sigma2"]),
        theta_draws=None if draws["theta"] is None else chain_major(draws["theta"]),
        base_theta=engine.base_theta[0].copy(),
        acceptance_rates=engine.acceptance_rates(),
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
    _attach_summaries(samples, emulator, config.predictive_draws)
    return samples


def _attach_summaries(samples: PosteriorSamples, emulator, max_draws: int) -> None:
    """Fill ``samples.summaries`` with the grid bands of every field and the grid predictive.

    Each uses at most ``max_draws`` draws, the run's ``predictive_draws``.
    This is the summary pass that later calls reuse: :func:`delta_field_curves`
    and :func:`posterior_predictive` remember their results on ``samples``, so
    ``runner.emit_plot_data``, given the same grid and ``predictive_draws``,
    reads them back instead of computing them again.
    """
    grid = samples.grid
    samples.summaries["x_norm"] = grid
    for name in samples.delta_draws:
        mean, sd = delta_field_curves(samples, name, grid, max_draws=max_draws)
        samples.summaries[f"delta_mean:{name}"] = mean
        samples.summaries[f"delta_sd:{name}"] = sd
    query = from_unit(grid[:, None], samples.domain_bounds)
    pred = posterior_predictive(samples, emulator, query, max_draws=max_draws)
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
        accept=mh_accept, gibbs=gibbs_sigma2,
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
        accept=mh_accept, gibbs=gibbs_sigma2,
    )


def _draw_subset(n_draws: int, max_draws: int | None) -> np.ndarray:
    if max_draws is None or n_draws <= max_draws:
        return np.arange(n_draws)
    return np.unique(np.linspace(0, n_draws - 1, max_draws).astype(int))


def _conditional_curves(knots, X, values_rows, hyper_rows, variances: bool = True):
    """Noise-free field conditionals for a stack of draws.

    ``values_rows`` is (T, K), ``hyper_rows`` is (T, 1 + dx); returns (T, G)
    mean and variance arrays, with exact overrides where grid points
    coincide with knots. The T prior factors come from one
    :func:`_knot_chol` call, which raises when one does not factor. With
    ``variances`` off the variance is None and its triangular solves are
    skipped; the means are the same bits. When every row of ``X`` is a knot
    the result is those overrides alone: the knot values and zero variances,
    with nothing factored or solved (so hyperparameters that do not factor
    raise only off the knots).
    """
    rows, cols = _exact_matches(X, knots)
    if rows.size == X.shape[0]:
        means = values_rows[:, cols]
        return means, np.zeros_like(means) if variances else None
    diff_xk = _se_diff(X, knots)
    chols = _knot_chol(_se_diff(knots, knots), hyper_rows)
    means = np.empty((len(chols), X.shape[0]))
    vars_ = np.empty_like(means) if variances else None
    for t, L in enumerate(chols):
        v = hyper_rows[t, 0]
        kxk = _se_kernel(diff_xk, v, hyper_rows[t, 1:])
        means[t] = kxk @ _cho_solve(L, values_rows[t])
        if variances:
            s = _solve_lower(L, kxk.T)
            vars_[t] = np.maximum(v - np.einsum("ij,ij->j", s, s), 0.0)
    means[:, rows] = values_rows[:, cols]
    if variances:
        vars_[:, rows] = 0.0
    return means, vars_


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
    if samples.n_draws == 0:
        raise ValueError("delta_field_curves needs at least one stored draw")
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
        name: _conditional_curves(
            samples.knots, x_unit, samples.delta_draws[name][sel],
            samples.hyper_draws[name][sel], variances=False,
        )[0]
        for name in samples.delta_draws
    }
    query = emulator.at_inputs(x_unit)
    means = np.empty((sel.size, G))
    vars_ = np.empty((sel.size, G))
    for j, t in enumerate(sel):
        base = samples.base_theta if samples.theta_draws is None else samples.theta_draws[t]
        theta = np.tile(base, (G, 1))
        for k, name in enumerate(samples.param_names):
            if name in curves:
                theta[:, k] += curves[name][j]
        m, v = query(theta)
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
