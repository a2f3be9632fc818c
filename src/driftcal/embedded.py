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
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

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


def _chol(K: np.ndarray) -> np.ndarray:
    """Cholesky with jitter escalation for near-singular field covariances."""
    jitter = 0.0
    for _ in range(8):
        try:
            return np.linalg.cholesky(K + jitter * np.eye(K.shape[0]) if jitter else K)
        except np.linalg.LinAlgError:
            jitter = max(jitter * 10.0, 1e-12)
    raise np.linalg.LinAlgError("field covariance not positive definite")


def _knot_chol(knot_diff: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Prior Cholesky factor of a field from raw hyperparameters ``[variance, *lengthscales]``.

    ``knot_diff`` is the cached ``_se_diff(knots, knots)``; the kernel is
    :func:`build_covariance`'s, with ``FIELD_JITTER`` on the diagonal.
    """
    K = _se_kernel(knot_diff, h[0], h[1:])
    K.flat[:: K.shape[0] + 1] += FIELD_JITTER
    return _chol(K)


def _mvn_logpdf_zero(values: np.ndarray, L: np.ndarray) -> float:
    w = _solve_lower(L, values)
    return float(-0.5 * (w @ w) - np.log(L.diagonal()).sum() - 0.5 * values.size * _LOG_2PI)


def gaussian_loglik(resid: np.ndarray, var: np.ndarray) -> float:
    """Sum of independent N(0, var_i) log-densities at the residuals."""
    return float(-0.5 * (resid * resid / var + np.log(2.0 * math.pi * var)).sum())


def _predict_std(emulator, Q: np.ndarray):
    """Mean/variance of a ``GPModel`` or ``ExactEmulator`` on its standardized target scale."""
    if isinstance(emulator, gp.GPModel):
        # looked up at call time, so a rebound gp.predict_standardized is used
        mean, var, _ = gp.predict_standardized(emulator, Q)
        return mean, var
    mean = emulator.mean_at(Q)
    return mean, np.zeros_like(mean)


def _box_distances(Q: np.ndarray) -> np.ndarray:
    """Euclidean distance of each row beyond the training unit box."""
    excess = np.maximum(Q - 1.0, 0.0) + np.maximum(-Q, 0.0)
    return np.sqrt((excess * excess).sum(axis=1))


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
    adapt_target: float = 0.3
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
        if not 0.0 < self.adapt_target < 1.0:
            raise ValueError("adapt_target must lie in (0, 1)")
        if self.grid_points < 1:
            raise ValueError("grid_points must be >= 1")


class StepAdapter:
    """Robbins-Monro scaling of a proposal step toward a target acceptance rate."""

    def __init__(self, step: float, target: float = 0.3, decay: float = 0.66):
        self.step = float(step)
        self.target = float(target)
        self.decay = float(decay)
        self._n = 0

    def update(self, accepted: bool) -> None:
        self._n += 1
        gain = self._n ** (-self.decay)
        self.step *= math.exp(gain * ((1.0 if accepted else 0.0) - self.target))
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
    if np.any(theta_unit < 0.0) or np.any(theta_unit > 1.0):
        return -math.inf
    if priors.theta is None:
        return 0.0
    phys = from_unit(theta_unit[None, :], theta_bounds)[0]
    return float(sum(p.logpdf(v) for p, v in zip(priors.theta, phys)))


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


class _BlockStats:
    __slots__ = ("proposed", "accepted")

    def __init__(self) -> None:
        self.proposed = 0
        self.accepted = 0


def _hyper_proposal(rng, h, step, knot_diff, values, field_prior, hyper_prior,
                    var_prior, len_prior):
    """One log-space random-walk proposal on a field's raw ``[variance, *lengthscales]``.

    Returns ``(log_ratio, h2, chol2, field_prior2, hyper_prior2)``, the log
    ratio including the log-space Jacobian, or None when a proposed value
    overflows or underflows or the proposed kernel does not factor: the
    caller counts that as a rejection.
    """
    logp = np.log(h)
    logp2 = logp + step * rng.standard_normal(logp.size)
    try:
        variance = math.exp(logp2[0])  # raises past 709.78, before np.exp warns
        h2 = np.exp(logp2)
        h2[0] = variance
        if not all(0.0 < v < math.inf for v in h2.tolist()):
            return None
        chol2 = _knot_chol(knot_diff, h2)
    except (OverflowError, np.linalg.LinAlgError):
        return None
    fp2 = _mvn_logpdf_zero(values, chol2)
    hp2 = _hyper_logprior(h2, var_prior, len_prior)
    log_ratio = (fp2 - field_prior) + (hp2 - hyper_prior) + float(logp2.sum() - logp.sum())
    return log_ratio, h2, chol2, fp2, hp2


class _Chain:
    """Single-chain sampler over its active blocks; owns its state and RNG.

    Data are shared read-only between chains.

    The fields are one list: a drift field per parameter when ``drift`` is
    set, then the additive "eta" field when ``additive`` is. Each has its own
    hyperpriors. Values, hyperparameters ``[variance, *lengthscales]`` and
    prior Cholesky factors are raw arrays (one factorization per
    hyperparameter change) so that per-proposal work is a matrix-vector
    product, an emulator query, and two Gaussian densities.
    ``sample_theta`` runs the theta block; its draws are stored when it runs
    and, constant, when ``drift`` is off (the baseline). Every Metropolis
    decision goes through ``accept`` and every noise draw through ``gibbs``.

    Sweep order: theta, drift fields, eta, hyperparameters, Gibbs sigma^2.
    """

    def __init__(self, data, emulator, priors, config, rng, knots: np.ndarray,
                 obs_idx: np.ndarray, *, drift: bool, additive: bool, sample_theta: bool,
                 accept, gibbs):
        self.data = data
        self.emulator = emulator
        self.priors = priors
        self.cfg = config
        self.rng = rng
        self.knots = knots
        self.obs_idx = obs_idx
        self.additive = additive
        self.sample_theta = sample_theta
        self.record_theta = sample_theta or not drift
        self.accept = accept
        self.gibbs = gibbs

        self.x_obs_unit = data.obs_x_unit()
        self.y_std = (data.obs_y - emulator.y_shift) / emulator.y_scale
        self.dtheta = data.dtheta
        self.n_drift = self.dtheta if drift else 0
        self.names = list(data.param_names[: self.n_drift]) + (["eta"] if additive else [])
        self.field_priors = [(priors.field_variance, priors.field_lengthscale)] * self.n_drift
        if additive:
            self.field_priors.append((priors.eta_variance, priors.eta_lengthscale))
        self.knot_diff = _se_diff(knots, knots)
        dx = knots.shape[1]
        self.values = [np.zeros(len(knots)) for _ in self.names]
        self.hypers = [np.r_[vp.median(), np.full(dx, lp.median())]
                       for vp, lp in self.field_priors]
        self.chols = [_knot_chol(self.knot_diff, h) for h in self.hypers]

        if config.theta0 is not None:
            t0 = to_unit(np.asarray(config.theta0, float)[None, :], data.theta_bounds)[0]
        elif priors.theta is not None:
            med = np.array([p.median() for p in priors.theta])
            t0 = to_unit(med[None, :], data.theta_bounds)[0]
        else:
            t0 = np.full(self.dtheta, 0.5)
        self.base_theta = t0

        s0 = priors.noise.mean()
        self.sigma2 = s0 if math.isfinite(s0) else priors.noise.median()

        self.block_names = ["theta"] if sample_theta else []
        self.block_names += [f"delta:{n}" for n in self.names]
        self.block_names += [f"hyper:{n}" for n in self.names]
        self.adapters = {
            n: StepAdapter(config.initial_step, config.adapt_target) for n in self.block_names
        }
        if "theta" in self.adapters:
            # theta moves on the unit box; a full-box step would mix poorly
            self.adapters["theta"].step = min(config.initial_step, 0.15)
        self.stats = {n: _BlockStats() for n in self.block_names}
        self.extrap_count = 0
        self.extrap_max = 0.0

        self._init_parts()

    # -- cached log-posterior parts -------------------------------------

    def _emulate(self, Q: np.ndarray):
        mean, var = _predict_std(self.emulator, Q)
        d = _box_distances(Q)
        n_out = int(np.count_nonzero(d > 0))
        if n_out:
            self.extrap_count += n_out
            dmax = float(d.max())
            if dmax > self.extrap_max:
                self.extrap_max = dmax
            log.debug("emulator extrapolation: %d points, max box distance %.3g",
                      n_out, dmax)
        ok = bool(np.isfinite(mean).all() and np.isfinite(var).all())
        return mean, var, ok

    def _theta_at_obs(self, base_theta: np.ndarray) -> np.ndarray:
        """theta*(x) at the observations: ``base_theta`` plus each drift field there."""
        theta = np.tile(base_theta, (self.obs_idx.size, 1))
        for k in range(self.n_drift):
            theta[:, k] += self.values[k][self.obs_idx]
        return theta

    def _init_parts(self) -> None:
        self.theta_mat = self._theta_at_obs(self.base_theta)
        mean, var, ok = self._emulate(np.hstack([self.x_obs_unit, self.theta_mat]))
        if not ok:
            raise RuntimeError("non-finite emulator output at initialization")
        self.emu_mean, self.emu_var = mean, var
        self.eta_at_obs = self.values[-1][self.obs_idx] if self.additive else 0.0
        self.loglik = gaussian_loglik(
            self.y_std - mean - self.eta_at_obs, self.sigma2 + var
        )
        self.field_prior = np.array(
            [_mvn_logpdf_zero(v, L) for v, L in zip(self.values, self.chols)]
        )
        self.hyper_prior = np.array(
            [_hyper_logprior(h, *p) for h, p in zip(self.hypers, self.field_priors)]
        )
        self.sigma2_prior = self.priors.noise.logpdf(self.sigma2)
        self.theta_prior = _theta_logprior(self.base_theta, self.priors, self.data.theta_bounds)
        if not math.isfinite(self.total()):
            raise RuntimeError("non-finite log posterior at initialization")

    def total(self) -> float:
        return (
            self.loglik
            + float(self.field_prior.sum())
            + float(self.hyper_prior.sum())
            + self.sigma2_prior
            + self.theta_prior
        )

    def snapshot(self) -> ChainState:
        fields = [
            DiscrepancyField(self.knots, v.copy(), _field_params(h))
            for v, h in zip(self.values, self.hypers)
        ]
        return ChainState(
            theta_star=ThetaStar(self.base_theta, fields[: self.n_drift]),
            noise_var=self.sigma2,
            eta_field=fields[-1] if self.additive else None,
        )

    # -- MCMC blocks ------------------------------------------------------

    def _track(self, name: str, accepted: bool, adapting: bool) -> None:
        if adapting:
            self.adapters[name].update(accepted)
        else:
            st = self.stats[name]
            st.proposed += 1
            st.accepted += accepted

    def _update_theta(self, adapting: bool) -> None:
        step = self.adapters["theta"].step
        base_new = self.base_theta + step * self.rng.standard_normal(self.dtheta)
        tp_new = _theta_logprior(base_new, self.priors, self.data.theta_bounds)
        accepted = False
        if math.isfinite(tp_new):
            theta_new = self._theta_at_obs(base_new)
            mean, var, ok = self._emulate(np.hstack([self.x_obs_unit, theta_new]))
            if ok:
                loglik_new = gaussian_loglik(
                    self.y_std - mean - self.eta_at_obs, self.sigma2 + var
                )
                delta = (loglik_new + tp_new) - (self.loglik + self.theta_prior)
                accepted = self.accept(delta, 0.0, self.rng)
                if accepted:
                    self.base_theta = base_new
                    self.theta_mat = theta_new
                    self.emu_mean, self.emu_var = mean, var
                    self.loglik = loglik_new
                    self.theta_prior = tp_new
        self._track("theta", accepted, adapting)

    def _update_field(self, k: int, adapting: bool) -> None:
        name = f"delta:{self.names[k]}"
        L = self.chols[k]
        z = self.rng.standard_normal(len(self.values[k]))
        vals_new = self.values[k] + self.adapters[name].step * (L @ z)
        theta_new = self.theta_mat.copy()
        theta_new[:, k] = self.base_theta[k] + vals_new[self.obs_idx]
        mean, var, ok = self._emulate(np.hstack([self.x_obs_unit, theta_new]))
        accepted = False
        if ok:
            loglik_new = gaussian_loglik(
                self.y_std - mean - self.eta_at_obs, self.sigma2 + var
            )
            fp_new = _mvn_logpdf_zero(vals_new, L)
            delta = (loglik_new + fp_new) - (self.loglik + self.field_prior[k])
            accepted = self.accept(delta, 0.0, self.rng)
            if accepted:
                self.values[k] = vals_new
                self.theta_mat = theta_new
                self.emu_mean, self.emu_var = mean, var
                self.loglik = loglik_new
                self.field_prior[k] = fp_new
        self._track(name, accepted, adapting)

    def _update_eta(self, adapting: bool) -> None:
        """The additive field's values: no emulator query, the cached mean is reused."""
        L = self.chols[-1]
        z = self.rng.standard_normal(len(self.values[-1]))
        vals_new = self.values[-1] + self.adapters["delta:eta"].step * (L @ z)
        loglik_new = gaussian_loglik(
            self.y_std - self.emu_mean - vals_new[self.obs_idx], self.sigma2 + self.emu_var
        )
        fp_new = _mvn_logpdf_zero(vals_new, L)
        delta = (loglik_new + fp_new) - (self.loglik + self.field_prior[-1])
        accepted = self.accept(delta, 0.0, self.rng)
        if accepted:
            self.values[-1] = vals_new
            self.eta_at_obs = vals_new[self.obs_idx]
            self.loglik = loglik_new
            self.field_prior[-1] = fp_new
        self._track("delta:eta", accepted, adapting)

    def _update_hyper(self, k: int, adapting: bool) -> None:
        name = f"hyper:{self.names[k]}"
        prop = _hyper_proposal(
            self.rng, self.hypers[k], self.adapters[name].step, self.knot_diff, self.values[k],
            self.field_prior[k], self.hyper_prior[k], *self.field_priors[k],
        )
        accepted = prop is not None and self.accept(prop[0], 0.0, self.rng)
        if accepted:
            _, self.hypers[k], self.chols[k], self.field_prior[k], self.hyper_prior[k] = prop
        self._track(name, accepted, adapting)

    def _gibbs_sigma2(self) -> None:
        resid = self.y_std - self.emu_mean - self.eta_at_obs
        self.sigma2 = self.gibbs(resid, self.priors.noise, self.rng)
        self.loglik = gaussian_loglik(resid, self.sigma2 + self.emu_var)
        self.sigma2_prior = self.priors.noise.logpdf(self.sigma2)

    def _audit(self) -> None:
        recomputed = embedded_log_posterior(self.snapshot(), self.data, self.emulator, self.priors)
        cached = self.total()
        if abs(recomputed - cached) > 1e-9:
            raise RuntimeError(
                f"log-posterior audit failed: cached {cached!r} vs recomputed {recomputed!r}"
            )

    def run(self):
        cfg = self.cfg
        n_stored = (cfg.iterations - cfg.burn_in + cfg.thin - 1) // cfg.thin
        K = len(self.knots)
        dx = self.knots.shape[1]
        out_delta = {n: np.empty((n_stored, K)) for n in self.names}
        out_hyper = {n: np.empty((n_stored, 1 + dx)) for n in self.names}
        out_sigma2 = np.empty(n_stored)
        out_theta = np.empty((n_stored, self.dtheta)) if self.record_theta else None

        stored = 0
        for it in range(cfg.iterations):
            adapting = it < cfg.burn_in
            if self.sample_theta:
                self._update_theta(adapting)
            for k in range(self.n_drift):
                self._update_field(k, adapting)
            if self.additive:
                self._update_eta(adapting)
            if cfg.sample_hyper:
                for k in range(len(self.names)):
                    self._update_hyper(k, adapting)
            if cfg.sample_sigma2:
                self._gibbs_sigma2()
            if cfg.audit_every and (it + 1) % cfg.audit_every == 0:
                self._audit()
            if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thin == 0:
                for k, n in enumerate(self.names):
                    out_delta[n][stored] = self.values[k]
                    out_hyper[n][stored] = self.hypers[k]
                out_sigma2[stored] = self.sigma2
                if out_theta is not None:
                    out_theta[stored] = self.base_theta
                stored += 1
        return {
            "delta": out_delta,
            "hyper": out_hyper,
            "sigma2": out_sigma2,
            "theta": out_theta,
            "stats": self.stats,
            "extrap_count": self.extrap_count,
            "extrap_max": self.extrap_max,
            "base_theta": self.base_theta,
        }


def _build_knots(data: CalibrationDataset):
    """Knots at the deduplicated observation inputs, and each observation's knot index."""
    x_unit = data.obs_x_unit()
    knots = np.unique(x_unit, axis=0)
    obs_idx = np.empty(x_unit.shape[0], dtype=int)
    for i, row in enumerate(x_unit):
        obs_idx[i] = int(np.where(np.all(knots == row, axis=1))[0][0])
    return knots, obs_idx


def _run_chains(data, emulator, priors, config, kind: str, **blocks) -> PosteriorSamples:
    """Run ``config.chains`` seeded chains of :class:`_Chain` one after another and merge them.

    ``blocks`` are the chain's keyword-only block settings. Each chain draws
    from its own ``SeedSequence`` child of ``config.seed``. Raises when the
    theta priors or ``config.theta0`` do not give one entry per parameter.
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
    results = [
        _Chain(data, emulator, priors, config, np.random.default_rng(seed), knots, obs_idx,
               **blocks).run()
        for seed in np.random.SeedSequence(config.seed).spawn(config.chains)
    ]

    names = list(results[0]["delta"])
    delta = {n: np.vstack([r["delta"][n] for r in results]) for n in names}
    hyper = {n: np.vstack([r["hyper"][n] for r in results]) for n in names}
    sigma2 = np.concatenate([r["sigma2"] for r in results])
    theta = (
        np.vstack([r["theta"] for r in results]) if results[0]["theta"] is not None else None
    )
    acceptance = {}
    for block in results[0]["stats"]:
        proposed = sum(r["stats"][block].proposed for r in results)
        accepted = sum(r["stats"][block].accepted for r in results)
        acceptance[block] = accepted / proposed if proposed else 0.0

    samples = PosteriorSamples(
        kind=kind,
        param_names=data.param_names,
        knots=knots,
        delta_draws=delta,
        hyper_draws=hyper,
        sigma2_draws=sigma2,
        theta_draws=theta,
        base_theta=results[0]["base_theta"],
        acceptance_rates=acceptance,
        chains=config.chains,
        domain_bounds=data.domain_bounds,
        theta_bounds=data.theta_bounds,
        y_shift=float(emulator.y_shift),
        y_scale=float(emulator.y_scale),
        grid=np.linspace(0.0, 1.0, config.grid_points),
        extrapolation_count=sum(r["extrap_count"] for r in results),
        extrapolation_max_distance=max(r["extrap_max"] for r in results),
        seed=config.seed,
    )
    _attach_summaries(samples, emulator)
    return samples


SUMMARY_MAX_DRAWS = 2000


def _attach_summaries(samples: PosteriorSamples, emulator) -> None:
    grid = samples.grid
    samples.summaries["x_norm"] = grid
    for name in samples.delta_draws:
        mean, sd = _curve_band(*delta_field_curves(samples, name, grid,
                                                  max_draws=SUMMARY_MAX_DRAWS))
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
) -> PosteriorSamples:
    """Run the embedded-discrepancy sampler.

    Per iteration: an optional theta block (a random walk held to the unit
    box), an MH sweep over each parameter's drift-field knot values
    (prior-preconditioned proposals), MH updates of each field's
    (variance, lengthscale), and a conjugate Gibbs draw of the noise
    variance. Step sizes adapt toward the target
    acceptance rate during burn-in only; draws after burn-in are stored
    with the configured stride. Deterministic for a fixed seed.
    """
    return _run_embedded(data, emulator, priors, mcmc_config, "integrated_delta", additive=False)


def run_combined(
    data: CalibrationDataset,
    emulator,
    priors: CalibrationPriors,
    mcmc_config: McmcConfig,
) -> PosteriorSamples:
    """Embedded drift fields plus one additive output-discrepancy field.

    The extra field acts on the standardized observation scale like a
    classic additive discrepancy; everything else matches
    :func:`run_integrated_delta`. Experimental.
    """
    return _run_embedded(data, emulator, priors, mcmc_config, "combined", additive=True)


def _run_embedded(data, emulator, priors, config, kind: str, additive: bool) -> PosteriorSamples:
    """The drift-field calibrators: theta is sampled and stored only when configured."""
    theta = bool(config.sample_theta)
    return _run_chains(data, emulator, priors, config, kind, drift=True, additive=additive,
                       sample_theta=theta, accept=mh_accept, gibbs=gibbs_sigma2)


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


def delta_field_curves(
    samples: PosteriorSamples,
    name: str,
    grid_norm: np.ndarray,
    max_draws: int | None = None,
):
    """Per-draw conditional mean and variance of one field on a normalized grid.

    Returns two (T, G) arrays (optionally a strided subset of draws).
    """
    X = np.atleast_1d(np.asarray(grid_norm, dtype=float))[:, None]
    if samples.knots.shape[1] != 1:
        raise ValueError("grid summaries require a 1-D domain")
    sel = _draw_subset(samples.n_draws, max_draws)
    return _conditional_curves(
        samples.knots, X, samples.delta_draws[name][sel], samples.hyper_draws[name][sel]
    )


def _curve_band(mean_c: np.ndarray, var_c: np.ndarray):
    """Posterior mean and sd of a field from its (T, G) per-draw conditional curves.

    The sd adds the spread of the per-draw means to the average per-draw variance.
    """
    return mean_c.mean(axis=0), np.sqrt(mean_c.var(axis=0) + var_c.mean(axis=0))


def posterior_predictive(
    samples: PosteriorSamples,
    emulator,
    query_x,
    max_draws: int | None = None,
) -> PredictiveDistribution:
    """Monte-Carlo posterior predictive at physical query inputs.

    For every stored draw the drift fields are conditioned on their knot
    values, the emulator is queried at (x, theta + d(x)), and the noise and
    emulator variances are added; the reported variance combines the spread
    of the per-draw means with the average per-draw variance. KOH-style
    sample sets (constant theta draws plus an additive field) are handled
    with the same integral.
    """
    T = samples.n_draws
    if T == 0:
        raise ValueError("posterior_predictive needs at least one stored draw")
    sel = _draw_subset(T, max_draws)

    X = np.atleast_2d(np.asarray(query_x, dtype=float))
    if X.shape[1] != len(samples.domain_bounds):
        X = X.T if X.shape[0] == len(samples.domain_bounds) else X
    x_unit = to_unit(X, samples.domain_bounds)
    G = x_unit.shape[0]

    # drift fields shift theta, the additive "eta" field adds to the mean
    curves = {
        name: _conditional_curves(
            samples.knots, x_unit, samples.delta_draws[name][sel],
            samples.hyper_draws[name][sel],
        )[0]
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
    return PredictiveDistribution(
        mean=samples.y_shift + samples.y_scale * mean_std,
        variance=(samples.y_scale**2) * var_std,
    )
