import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from driftcal.design import (
    DesignSpec,
    Prior,
    latin_hypercube,
    sample_prior,
    from_unit,
    scale_design,
    to_unit,
    unscale_design,
)


def stratified(design):
    n = design.shape[0]
    for j in range(design.shape[1]):
        bins = np.floor(design[:, j] * n).astype(int)
        if sorted(bins) != list(range(n)):
            return False
    return True


def test_lhs_four_bins():
    d = latin_hypercube(4, 1, seed=123)
    assert sorted(np.floor(d[:, 0] * 4).astype(int)) == [0, 1, 2, 3]


def test_lhs_43_by_4_budget():
    d = latin_hypercube(43, 4, seed=7)
    assert d.shape == (43, 4)
    assert stratified(d)


def test_lhs_seed_determinism_and_sensitivity():
    a = latin_hypercube(10, 3, seed=1)
    b = latin_hypercube(10, 3, seed=1)
    c = latin_hypercube(10, 3, seed=2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert stratified(c)


@pytest.mark.parametrize("n,d", [(0, 1), (1, 0)])
def test_lhs_rejects_empty(n, d):
    with pytest.raises(ValueError):
        latin_hypercube(n, d, seed=0)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 100), d=st.integers(1, 6), seed=st.integers(0, 2**31 - 1))
def test_lhs_stratification_property(n, d, seed):
    assert stratified(latin_hypercube(n, d, seed))


def _spec():
    return DesignSpec(
        domain_bounds=((0.56, 2.88),),
        theta_priors=(Prior.uniform(0.0, 10.0), Prior.normal(0.0, 1.0)),
        n_samples=8,
        seed=0,
    )


def test_scale_design_midpoint_and_endpoints():
    spec = _spec()
    unit = np.array([[0.5, 0.5, 0.5], [0.0, 0.0, 0.5]])
    phys = scale_design(unit, spec)
    assert phys[0, 0] == pytest.approx(1.72)
    assert phys[1, 0] == pytest.approx(0.56)
    assert phys[0, 1] == pytest.approx(5.0)
    assert phys[0, 2] == pytest.approx(0.0, abs=1e-12)  # median of the normal column


def test_scale_design_rejects_out_of_range():
    spec = _spec()
    with pytest.raises(ValueError):
        scale_design(np.array([[1.0, 0.5, 0.5]]), spec)
    with pytest.raises(ValueError):
        scale_design(np.array([[-0.1, 0.5, 0.5]]), spec)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_scale_design_monotone_and_invertible(seed):
    spec = _spec()
    rng = np.random.default_rng(seed)
    u = np.sort(rng.uniform(0.01, 0.99, size=(6, 3)), axis=0)
    phys = scale_design(u, spec)
    assert np.all(np.diff(phys, axis=0) >= 0)
    back = unscale_design(phys, spec)
    assert np.max(np.abs(back - u)) < 1e-9


def test_scale_design_heavy_tailed_prior_columns():
    spec = DesignSpec(
        domain_bounds=((0.0, 1.0),),
        theta_priors=(Prior.log_normal(np.log(0.3), 0.5), Prior.inverse_gamma(3.0, 2.0)),
        n_samples=6,
        seed=0,
    )
    u = np.sort(np.random.default_rng(1).uniform(0.02, 0.98, size=(6, 3)), axis=0)
    phys = scale_design(u, spec)
    assert np.all(phys[:, 1:] > 0)
    assert np.all(np.diff(phys, axis=0) >= 0)
    back = unscale_design(phys, spec)
    assert np.max(np.abs(back - u)) < 1e-9


def test_unit_maps_reject_a_column_count_other_than_the_bounds():
    bounds = ((0.0, 2.0), (1.0, 3.0))
    for cols in (1, 3):  # too few columns, and one left unfilled
        for fn in (to_unit, from_unit):
            with pytest.raises(ValueError, match=f"{cols} columns for 2"):
                fn(np.ones((4, cols)), bounds)
    assert np.array_equal(to_unit(np.ones((4, 2)), bounds), np.tile([0.5, 0.0], (4, 1)))
    assert np.array_equal(from_unit(np.ones((4, 2)), bounds), np.tile([2.0, 3.0], (4, 1)))


def test_degenerate_uniform_prior():
    p = Prior.uniform(2.0, 2.0)
    rng = np.random.default_rng(0)
    assert all(sample_prior(p, rng) == 2.0 for _ in range(5))


def test_normal_sample_mean():
    p = Prior.normal(3.0, 0.5)
    rng = np.random.default_rng(42)
    draws = np.array([sample_prior(p, rng) for _ in range(1_000_000)])
    assert abs(draws.mean() - 3.0) < 0.005


def test_inverse_gamma_sample_mean():
    p = Prior.inverse_gamma(3.0, 2.0)
    rng = np.random.default_rng(42)
    draws = np.array([sample_prior(p, rng) for _ in range(1_000_000)])
    assert np.all(draws > 0)
    assert abs(draws.mean() - 1.0) < 0.02  # analytic mean b/(a-1) = 1


def test_log_normal_sample_positive_and_median():
    p = Prior.log_normal(np.log(0.3), 0.5)
    rng = np.random.default_rng(0)
    draws = np.array([sample_prior(p, rng) for _ in range(200_000)])
    assert np.all(draws > 0)
    assert np.median(draws) == pytest.approx(0.3, rel=0.02)


def test_prior_validation():
    with pytest.raises(ValueError):
        Prior.uniform(2.0, 1.0)
    with pytest.raises(ValueError):
        Prior.normal(0.0, 0.0)
    with pytest.raises(ValueError):
        Prior.inverse_gamma(-1.0, 2.0)
    with pytest.raises(ValueError):
        Prior("weird", 0.0, 1.0)


def test_prior_logpdf_against_scipy():
    cases = [
        (Prior.uniform(1.0, 3.0), stats.uniform(1.0, 2.0), 2.2),
        (Prior.normal(1.0, 2.0), stats.norm(1.0, 2.0), 0.3),
        (Prior.inverse_gamma(3.0, 2.0), stats.invgamma(3.0, scale=2.0), 0.7),
        (Prior.log_normal(0.1, 0.9), stats.lognorm(0.9, scale=np.exp(0.1)), 1.4),
    ]
    for prior, ref, x in cases:
        assert prior.logpdf(x) == pytest.approx(ref.logpdf(x), abs=1e-10)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


# signed values from 1e-30 to 1e30 in magnitude
_many_decades = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-30.0, 30.0)).map(
    lambda t: t[0] * 10.0 ** t[1])


@settings(max_examples=300, deadline=None)
@given(
    shape=_log_uniform(0.05, 50.0), scale=_log_uniform(1e-4, 20.0),
    loc=st.floats(-10.0, 10.0), spread=_log_uniform(1e-3, 10.0),
    q=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
    x=st.lists(_many_decades, min_size=1, max_size=12),
)
def test_closed_form_ppf_and_cdf_equal_scipy_stats_bitwise(shape, scale, loc, spread, q, x):
    q, x = np.array(q), np.array(x)
    clipped = np.clip(q, 1e-15, 1.0 - 1e-15)  # Prior.ppf clips before inverting
    pairs = [
        (Prior.inverse_gamma(shape, scale).ppf(q), stats.invgamma.ppf(clipped, shape, scale=scale)),
        (Prior.inverse_gamma(shape, scale).cdf(x), stats.invgamma.cdf(x, shape, scale=scale)),
        (Prior.normal(loc, spread).cdf(x), stats.norm.cdf(x, loc, spread)),
        (Prior.log_normal(loc, spread).cdf(x), stats.lognorm.cdf(x, spread, scale=math.exp(loc))),
    ]
    for ours, ref in pairs:
        assert np.array_equal(ours, ref, equal_nan=True)


@pytest.mark.parametrize("prior,ref", [
    (Prior.normal(0.5, 2.0), stats.norm(0.5, 2.0)),
    (Prior.inverse_gamma(3.0, 2.0), stats.invgamma(3.0, scale=2.0)),
    (Prior.log_normal(0.1, 0.9), stats.lognorm(0.9, scale=math.exp(0.1))),
])
def test_closed_form_cdf_support_edges_and_return_types(prior, ref):
    edges = np.array([-1.0, 0.0, 5e-324, np.inf, np.nan])
    out = prior.cdf(edges)
    assert isinstance(out, np.ndarray) and out.shape == (5,)
    assert np.array_equal(out, ref.cdf(edges), equal_nan=True)
    if prior.kind != "normal":
        assert np.array_equal(out, [0.0, 0.0, 0.0, 1.0, np.nan], equal_nan=True)
    assert out[3] == 1.0 and np.isnan(out[4])
    for x in edges:
        value = prior.cdf(x)
        assert type(value) is float
        assert np.array_equal(value, ref.cdf(x), equal_nan=True)
    assert type(prior.ppf(0.3)) is float
    assert prior.cdf(np.ones((2, 3))).shape == (2, 3)


def test_prior_dict_round_trip():
    for p in [Prior.uniform(0, 1), Prior.normal(2, 3), Prior.inverse_gamma(4, 5),
              Prior.log_normal(-1, 0.5)]:
        assert Prior.from_dict(p.to_dict()) == p


def test_design_spec_validation():
    with pytest.raises(ValueError):
        DesignSpec(domain_bounds=((1.0, 1.0),), theta_priors=(), n_samples=3)
    with pytest.raises(ValueError):
        DesignSpec(domain_bounds=((0.0, 1.0),), theta_priors=(), n_samples=0)
