"""The benchmark's bulk-ESS against closed forms and a direct-sum transcription."""

import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from ess import bulk_ess, min_bulk_ess, scalar_chains  # noqa: E402

from driftcal.samples import PosteriorSamples  # noqa: E402


def ar1(phi: float, chains: int, draws: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((chains, draws))
    x = np.empty((chains, draws))
    x[:, 0] = e[:, 0] / np.sqrt(1.0 - phi**2)
    for t in range(1, draws):
        x[:, t] = phi * x[:, t - 1] + e[:, t]
    return x


def reference_bulk_ess(chains) -> float:
    """Direct-sum transcription of Vehtari et al. (2021), pair-sum form."""
    c = np.asarray(chains, dtype=float)
    half = c.shape[1] // 2
    z = np.vstack([c[:, :half], c[:, c.shape[1] - half:]])
    m, n = z.shape
    ranks = stats.rankdata(z, method="average").reshape(z.shape)
    z = stats.norm.ppf((ranks - 0.375) / (z.size + 0.25))
    zc = z - z.mean(axis=1, keepdims=True)
    acov = np.array([[zc[j, :n - t] @ zc[j, t:] / n for t in range(n)] for j in range(m)])
    w = np.mean(acov[:, 0] * n / (n - 1))
    var_plus = w * (n - 1) / n + np.var(z.mean(axis=1), ddof=1)
    rho = 1.0 - (w - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    pairs = []  # Geyer: leading positive pair sums, each capped by the one before
    k = 0
    while 2 * k + 1 < n - 4:
        p = rho[2 * k] + rho[2 * k + 1]
        if p <= 0:
            break
        pairs.append(min(p, pairs[-1]) if pairs else p)
        k += 1
    tail = max(rho[2 * k], 0.0) if 2 * k < n else 0.0
    tau = -1.0 + 2.0 * sum(pairs) + tail
    return m * n / max(tau, 1.0 / np.log10(m * n))


@pytest.mark.parametrize("phi,seed", [(0.6, 1), (0.95, 2), (0.0, 3), (-0.5, 4)])
def test_matches_direct_transcription(phi, seed):
    x = ar1(phi, 3, 1001, seed)
    assert bulk_ess(x) == pytest.approx(reference_bulk_ess(x), rel=1e-9)


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.9, -0.3])
@pytest.mark.parametrize("chains", [1, 4])
def test_ar1_matches_closed_form(phi, chains):
    draws = 80_000 // chains
    x = ar1(phi, chains, draws, seed=7)
    expected = chains * draws * (1.0 - phi) / (1.0 + phi)
    assert bulk_ess(x) == pytest.approx(expected, rel=0.1)


def test_chains_stuck_apart_have_few_effective_draws():
    # two well-mixed chains around different means: pooled they are not
    # draws from one distribution, which a per-stacked-trace ESS misses
    x = ar1(0.0, 2, 4000, seed=3)
    x[1] += 5.0
    assert bulk_ess(x) < 10


def test_rank_normalisation_ignores_monotone_transforms():
    x = ar1(0.7, 2, 5000, seed=11)
    assert bulk_ess(np.exp(3.0 * x)) == pytest.approx(bulk_ess(x), rel=1e-12)


def make_samples(chains=2, per_chain=400, dx=2, seed=0):
    rng = np.random.default_rng(seed)
    t, k = chains * per_chain, 3
    names = ("a", "b")
    return PosteriorSamples(
        kind="integrated_delta", param_names=names,
        knots=rng.uniform(size=(k, dx)),
        delta_draws={n: rng.standard_normal((t, k)) for n in names},
        hyper_draws={n: rng.uniform(0.1, 1.0, (t, 1 + dx)) for n in names},
        sigma2_draws=rng.uniform(0.1, 1.0, t),
        theta_draws=rng.uniform(size=(t, 2)),
        base_theta=np.full(2, 0.5), acceptance_rates={}, chains=chains,
        domain_bounds=((0.0, 1.0),) * dx, theta_bounds=((0.0, 1.0),) * 2,
        y_shift=0.0, y_scale=1.0, grid=np.linspace(0, 1, 3),
    )


def test_every_stored_scalar_is_diagnosed():
    samples = make_samples()
    chains = scalar_chains(samples)
    # sigma2 + per field (variance + 2 lengthscales + 3 knots) + 2 theta
    assert len(chains) == 1 + 2 * (1 + 2 + 3) + 2
    assert {"lengthscale0:a", "lengthscale1:a", "knot2:b", "theta:b"} <= set(chains)
    assert all(c.shape == (2, 400) for c in chains.values())


def test_min_bulk_ess_names_the_worst_scalar():
    samples = make_samples()
    samples.hyper_draws["b"][:, 2] = np.repeat(np.arange(8.0), 100)  # barely moves
    ess, name = min_bulk_ess(samples)
    assert name == "lengthscale1:b"
    assert ess < 20
