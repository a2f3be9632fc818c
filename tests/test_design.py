import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from driftcal.design import (
    Prior,
    latin_hypercube,
    from_unit,
    scale_design,
    to_unit,
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


def _bounds_and_priors():
    """Domain bounds and theta priors of a 1-D, two-parameter design."""
    return ((0.56, 2.88),), (Prior.uniform(0.0, 10.0), Prior.normal(0.0, 1.0))


def test_scale_design_midpoint_and_endpoints():
    box = _bounds_and_priors()
    unit = np.array([[0.5, 0.5, 0.5], [0.0, 0.0, 0.5]])
    phys = scale_design(unit, *box)
    assert phys[0, 0] == pytest.approx(1.72)
    assert phys[1, 0] == pytest.approx(0.56)
    assert phys[0, 1] == pytest.approx(5.0)
    assert phys[0, 2] == pytest.approx(0.0, abs=1e-12)  # median of the normal column


def test_scale_design_rejects_out_of_range():
    box = _bounds_and_priors()
    with pytest.raises(ValueError):
        scale_design(np.array([[1.0, 0.5, 0.5]]), *box)
    with pytest.raises(ValueError):
        scale_design(np.array([[-0.1, 0.5, 0.5]]), *box)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_scale_design_monotone(seed):
    box = _bounds_and_priors()
    rng = np.random.default_rng(seed)
    u = np.sort(rng.uniform(0.01, 0.99, size=(6, 3)), axis=0)
    phys = scale_design(u, *box)
    assert np.all(np.diff(phys, axis=0) >= 0)


def test_scale_design_heavy_tailed_prior_columns():
    priors = (Prior.log_normal(np.log(0.3), 0.5), Prior.inverse_gamma(3.0, 2.0))
    u = np.sort(np.random.default_rng(1).uniform(0.02, 0.98, size=(6, 3)), axis=0)
    phys = scale_design(u, ((0.0, 1.0),), priors)
    assert np.all(phys[:, 1:] > 0)
    assert np.all(np.diff(phys, axis=0) >= 0)


def test_unit_maps_reject_a_column_count_other_than_the_bounds():
    bounds = ((0.0, 2.0), (1.0, 3.0))
    for cols in (1, 3):  # too few columns, and one left unfilled
        for fn in (to_unit, from_unit):
            with pytest.raises(ValueError, match=f"{cols} columns for 2"):
                fn(np.ones((4, cols)), bounds)
    assert np.array_equal(to_unit(np.ones((4, 2)), bounds), np.tile([0.5, 0.0], (4, 1)))
    assert np.array_equal(from_unit(np.ones((4, 2)), bounds), np.tile([2.0, 3.0], (4, 1)))


@st.composite
def bounds_and_values(draw):
    """Per-column (lo, hi) bounds and a strided (rows, cols) view of values."""
    cols = draw(st.integers(1, 4))
    lo = draw(st.lists(st.floats(-1e3, 1e3), min_size=cols, max_size=cols))
    width = draw(st.lists(_log_uniform(1e-3, 1e3), min_size=cols, max_size=cols))
    rows = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(-0.5, 1.5, size=(rows, cols + 1))[:, 1:]  # as an emulator query slices
    return tuple((l, l + w) for l, w in zip(lo, width)), values


@settings(max_examples=200, deadline=None)
@given(bounds_and_values())
def test_unit_maps_equal_the_per_column_formulas_bitwise(case):
    bounds, values = case
    unit, phys = np.empty_like(values), np.empty_like(values)
    for j, (lo, hi) in enumerate(bounds):
        unit[:, j] = (values[:, j] - lo) / (hi - lo)
        phys[:, j] = lo + values[:, j] * (hi - lo)
    assert np.array_equal(to_unit(values, bounds), unit)
    assert np.array_equal(from_unit(values, bounds), phys)
    # lists take the uncached, converting path to the same values
    listed = [list(b) for b in bounds]
    assert np.array_equal(to_unit(values.tolist(), listed), unit)
    assert np.array_equal(from_unit(values.tolist(), listed), phys)


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


@settings(max_examples=300, deadline=None)
@given(
    shape=_log_uniform(0.05, 50.0), scale=_log_uniform(1e-4, 20.0),
    loc=st.floats(-10.0, 10.0), spread=_log_uniform(1e-3, 10.0),
    q=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
)
def test_closed_form_ppf_equals_scipy_stats_bitwise(shape, scale, loc, spread, q):
    q = np.array(q)
    clipped = np.clip(q, 1e-15, 1.0 - 1e-15)  # Prior.ppf clips before inverting
    ref = stats.invgamma.ppf(clipped, shape, scale=scale)
    assert np.array_equal(Prior.inverse_gamma(shape, scale).ppf(q), ref, equal_nan=True)
    for prior in (Prior.normal(loc, spread), Prior.inverse_gamma(shape, scale),
                  Prior.log_normal(loc, spread)):
        assert type(prior.ppf(0.3)) is float


@settings(max_examples=300, deadline=None)
@given(loc=st.floats(-300.0, 300.0) | st.sampled_from([0.0, -0.0]),
       spread=_log_uniform(1e-3, 10.0))
def test_closed_form_median_equals_ppf_at_half_bitwise(loc, spread):
    for prior in (Prior.normal(loc, spread), Prior.log_normal(loc, spread)):
        median = prior.median()
        assert type(median) is float
        assert median.hex() == float(prior.ppf(0.5)).hex()  # -0.0 and 0.0 differ here


def test_prior_from_dict_builds_each_kind():
    for d, p in [({"kind": "uniform", "lo": 0, "hi": 1}, Prior.uniform(0, 1)),
                 ({"kind": "normal", "mean": 2, "sd": 3}, Prior.normal(2, 3)),
                 ({"kind": "inverse_gamma", "shape": 4, "scale": 5}, Prior.inverse_gamma(4, 5)),
                 ({"kind": "log_normal", "mu": -1, "sigma": 0.5}, Prior.log_normal(-1, 0.5))]:
        assert Prior.from_dict(d) == p
