"""Rank-normalised split bulk effective sample size.

Follows Vehtari, Gelman, Simpson, Carpenter & Bürkner (2021), "Rank-
normalization, folding, and localization: an improved R-hat for assessing
convergence of MCMC", Bayesian Analysis 16(2): every chain is split in
half, the pooled draws are replaced by normal scores of their ranks, and
the autocorrelation is estimated within each half-chain (never across a
chain boundary) and combined across chains, with Geyer's initial
monotone-sequence truncation.

The benchmark owns this code so that fixes to the library's own
diagnostics cannot move the benchmark's figures.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row of a (chains, draws) array, via FFT."""
    n = x.shape[1]
    xc = x - x.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(xc, size, axis=1)
    return np.fft.irfft(f * np.conj(f), size, axis=1)[:, :n] / n


def _ess(chains: np.ndarray) -> float:
    """Multi-chain ESS of a (chains, draws) array, Geyer initial monotone."""
    m, n = chains.shape
    acov = _autocovariance(chains)
    chain_var = acov[:, 0] * n / (n - 1.0)
    mean_var = chain_var.mean()
    var_plus = mean_var * (n - 1.0) / n
    if m > 1:
        var_plus += chains.mean(axis=1).var(ddof=1)
    if not var_plus > 0:
        return float("nan")
    rho_hat = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus

    rho = np.zeros(n)
    rho[0] = 1.0
    rho[1] = rho_hat[1]
    t = 0
    even, odd = 1.0, rho_hat[1]
    while t < n - 5 and even + odd > 0:
        t += 2
        even, odd = rho_hat[t], rho_hat[t + 1]
        if even + odd >= 0:
            rho[t], rho[t + 1] = even, odd
    max_t = t
    if even > 0:
        rho[max_t] = even
    # initial monotone sequence: pair sums may not increase
    t = 0
    while t <= max_t - 4:
        t += 2
        if rho[t] + rho[t + 1] > rho[t - 2] + rho[t - 1]:
            rho[t] = rho[t + 1] = (rho[t - 2] + rho[t - 1]) / 2.0
    total = m * n
    tau = -1.0 + 2.0 * rho[:max_t].sum() + rho[max_t]
    tau = max(tau, 1.0 / np.log10(total))
    return float(total / tau)


def bulk_ess(chains) -> float:
    """Rank-normalised split bulk-ESS of one scalar given as (chains, draws).

    A constant trace has no defined ESS and returns NaN.
    """
    c = np.atleast_2d(np.asarray(chains, dtype=float))
    half = c.shape[1] // 2
    split = np.vstack([c[:, :half], c[:, c.shape[1] - half:]])
    if split.shape[1] < 4:
        return float("nan")
    ranks = rankdata(split, method="average").reshape(split.shape)
    z = ndtri((ranks - 0.375) / (split.size + 0.25))
    return _ess(z)


def scalar_chains(samples) -> dict[str, np.ndarray]:
    """Every stored scalar of a posterior sample set, each as (chains, draws).

    Covers the noise variance, the variance and every lengthscale of each
    field, every knot value of each field, and every theta component.
    """
    per = samples.per_chain
    out = {"sigma2": per(samples.sigma2_draws)}
    for name in sorted(samples.hyper_draws):
        hyper = per(samples.hyper_draws[name])
        out[f"variance:{name}"] = hyper[:, :, 0]
        for j in range(1, hyper.shape[2]):
            out[f"lengthscale{j - 1}:{name}"] = hyper[:, :, j]
    for name in sorted(samples.delta_draws):
        knots = per(samples.delta_draws[name])
        for k in range(knots.shape[2]):
            out[f"knot{k}:{name}"] = knots[:, :, k]
    if samples.theta_draws is not None:
        theta = per(samples.theta_draws)
        for k in range(theta.shape[2]):
            out[f"theta:{samples.param_names[k]}"] = theta[:, :, k]
    return out


def min_bulk_ess(samples) -> tuple[float, str]:
    """Smallest bulk-ESS over every stored scalar, with the scalar's name.

    Scalars that never move (NaN ESS) count as zero effective draws.
    """
    worst, worst_name = float("inf"), ""
    for name, chains in scalar_chains(samples).items():
        ess = bulk_ess(chains)
        if np.isnan(ess):
            ess = 0.0
        if ess < worst:
            worst, worst_name = ess, name
    return worst, worst_name
