from dataclasses import replace

import numpy as np
import pytest

from driftcal.samples import PosteriorSamples, load_samples, save_samples


def make_samples(T=6, K=3, chains=2):
    rng = np.random.default_rng(0)
    return PosteriorSamples(
        kind="integrated_delta",
        param_names=("a", "b"),
        knots=rng.uniform(size=(K, 1)),
        delta_draws={"a": rng.standard_normal((T, K)), "b": rng.standard_normal((T, K))},
        hyper_draws={"a": rng.uniform(0.1, 1, (T, 2)), "b": rng.uniform(0.1, 1, (T, 2))},
        sigma2_draws=rng.uniform(0.01, 0.1, T),
        theta_draws=None,
        base_theta=np.array([0.5, 0.4]),
        acceptance_rates={"delta:a": 0.31, "hyper:a": 0.44},
        chains=chains,
        domain_bounds=((0.0, 1.0),),
        theta_bounds=((0.0, 1.0), (0.0, 1.0)),
        y_shift=1.5,
        y_scale=2.0,
        grid=np.linspace(0, 1, 11),
        summaries={"x_norm": np.linspace(0, 1, 11), "predictive_mean": np.zeros(11)},
        extrapolation_count=4,
        extrapolation_max_distance=0.02,
        seed=9,
    )


def test_round_trip(tmp_path):
    s = make_samples()
    save_samples(s, tmp_path / "run")
    back = load_samples(tmp_path / "run")
    assert back.kind == s.kind
    assert back.param_names == s.param_names
    np.testing.assert_allclose(back.delta_draws["a"], s.delta_draws["a"])
    np.testing.assert_allclose(back.hyper_draws["b"], s.hyper_draws["b"])
    np.testing.assert_allclose(back.sigma2_draws, s.sigma2_draws)
    assert back.theta_draws is None
    assert back.acceptance_rates == s.acceptance_rates
    assert back.y_shift == s.y_shift and back.y_scale == s.y_scale
    np.testing.assert_allclose(back.summaries["predictive_mean"], s.summaries["predictive_mean"])
    assert back.extrapolation_count == 4


def test_validation_catches_bad_shapes():
    s = make_samples()
    with pytest.raises(ValueError, match="rows"):
        replace(s, delta_draws={"a": np.zeros((2, 3))})
    with pytest.raises(ValueError, match="acceptance"):
        replace(s, acceptance_rates={"x": 1.4})
    with pytest.raises(ValueError, match="chains"):
        replace(s, chains=4)


def test_per_chain_reshape():
    s = make_samples(T=6, chains=2)
    per = s.per_chain(s.delta_draws["a"])
    assert per.shape == (2, 3, 3)
    np.testing.assert_array_equal(per[0], s.delta_draws["a"][:3])


def test_scalar_traces_names():
    s = make_samples()
    traces = s.scalar_traces()
    assert {"sigma2", "variance:a", "lengthscale:a", "variance:b", "lengthscale:b"} <= set(traces)


def test_scalar_traces_cover_every_lengthscale():
    s = make_samples(T=6)
    rng = np.random.default_rng(1)
    s.hyper_draws["a"] = rng.uniform(0.1, 1, (6, 3))  # variance + a 2-D domain's lengthscales
    traces = s.scalar_traces()
    np.testing.assert_array_equal(traces["lengthscale:a"], s.hyper_draws["a"][:, 1])
    np.testing.assert_array_equal(traces["lengthscale1:a"], s.hyper_draws["a"][:, 2])
    assert "lengthscale2:a" not in traces
    assert [k for k in traces if k.endswith(":b")] == ["variance:b", "lengthscale:b"]
