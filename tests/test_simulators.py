import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from driftcal.design import Prior
from driftcal.problems import dipole_dataset, dipole_problem
from driftcal.simulators import (
    AnalyticDipole,
    BracketError,
    CriticalSearchSpec,
    DriftFunction,
    DriftTestbed,
    DriftTruth,
    ResolutionError,
    bisection_critical_search,
    eval_simulator,
    generate_dataset,
    load_dataset,
    save_dataset,
    theta_bounds_from_priors,
)


def test_dipole_halves_with_doubled_height():
    sim = AnalyticDipole(amplitude=1.0, spread_weight=0.0)
    theta = [48.0, 0.34, 1.7]
    y1 = eval_simulator(sim, [10.0], theta)
    y2 = eval_simulator(sim, [20.0], theta)
    assert y2 == pytest.approx(0.5 * y1, rel=1e-14)


def test_dipole_linear_in_first_parameter():
    sim = AnalyticDipole(spread_weight=0.0)  # the leading term alone
    base = sim.simulate(np.array([8.0]), np.array([50.0, 0.3, 1.0]))
    scaled = sim.simulate(np.array([8.0]), np.array([45.0, 0.3, 1.0]))
    assert scaled == pytest.approx(0.9 * base, rel=1e-14)


def test_dipole_strictly_decreasing_in_height():
    sim = AnalyticDipole(amplitude=1.0, spread_weight=0.5, spread_length=8.0)
    h = np.linspace(5.0, 40.0, 200)
    y = np.array([eval_simulator(sim, [v], [45.0, 0.33, 1.7]) for v in h])
    assert np.all(np.diff(y) < 0)


def test_drift_testbed_linear():
    sim = DriftTestbed.named("linear")
    assert eval_simulator(sim, [0.5], [1.0, 2.0]) == pytest.approx(2.0)


def test_drift_testbed_quadratic_and_unknown_name():
    sim = DriftTestbed.named("quadratic")
    assert eval_simulator(sim, [2.0], [1.0, 2.0, 3.0]) == pytest.approx(1 + 4 + 12)
    with pytest.raises(ValueError, match="unknown testbed"):
        DriftTestbed.named("nope")


def test_eval_simulator_rejects_non_finite():
    sim = AnalyticDipole()
    with pytest.raises(ValueError):
        eval_simulator(sim, [np.nan], [48.0, 0.3, 1.0])
    with pytest.raises(ValueError):
        eval_simulator(sim, [10.0], [np.inf, 0.3, 1.0])


# -- bisection ------------------------------------------------------------


def test_bisection_recovers_threshold_within_budget():
    threshold = 0.37
    calls = {"n": 0}

    def predicate(tau):
        calls["n"] += 1
        return tau >= threshold

    spec = CriticalSearchSpec(0.0, 1.0, tolerance=1e-3)
    out = bisection_critical_search(predicate, spec, check_bracket=False)
    assert abs(out - threshold) <= 1e-3
    assert calls["n"] <= math.ceil(math.log2(1.0 / 1e-3))


def test_bisection_randomized_thresholds_meet_log2_bound():
    rng = np.random.default_rng(0)
    for _ in range(100):
        lo, span = rng.uniform(-5, 5), rng.uniform(0.5, 10.0)
        threshold = lo + rng.uniform(0.05, 0.95) * span
        tol = rng.uniform(1e-5, 1e-2)
        calls = {"n": 0}

        def predicate(tau, th=threshold):
            calls["n"] += 1
            return tau >= th

        spec = CriticalSearchSpec(lo, lo + span, tolerance=tol, max_iter=200)
        out = bisection_critical_search(predicate, spec, check_bracket=False)
        assert abs(out - threshold) <= tol
        assert calls["n"] <= math.ceil(math.log2(span / tol))


def test_bisection_bracket_errors():
    spec = CriticalSearchSpec(0.0, 1.0, tolerance=1e-3)
    with pytest.raises(BracketError):
        bisection_critical_search(lambda t: t >= 0.0, spec)  # true already at tau_min
    with pytest.raises(BracketError):
        bisection_critical_search(lambda t: t >= 2.0, spec)  # never true inside bracket


def test_bisection_immediate_convergence_on_wide_tolerance():
    calls = {"n": 0}

    def predicate(tau):
        calls["n"] += 1
        return tau >= 0.4

    spec = CriticalSearchSpec(0.0, 1.0, tolerance=1.5)
    out = bisection_critical_search(predicate, spec, check_bracket=False)
    assert out == pytest.approx(0.5)
    assert calls["n"] <= 1


def test_bisection_max_iter_reports_final_bracket():
    spec = CriticalSearchSpec(0.0, 1.0, tolerance=1e-9, max_iter=3)
    with pytest.raises(ResolutionError, match="bracket"):
        bisection_critical_search(lambda t: t >= 0.3, spec, check_bracket=False)


# -- dataset assembly ------------------------------------------------------


def test_generate_dataset_budget_shape():
    ds = dipole_dataset(n_sim=43, n_obs=5, noise_sd=0.05, seed=0)
    assert ds.n_sim == 43
    assert ds.n_obs == 5
    assert ds.sim_theta.shape == (43, 3)
    assert ds.param_names == ("mu", "nu", "l_c")


def test_generate_dataset_zero_drift_zero_noise_lies_on_simulator():
    sim, spec, truth = dipole_problem(n_sim=10, drift=False)
    ds = generate_dataset(replace(spec, n_obs=4, noise_sd=0.0), seed=1)
    for x, y in zip(ds.obs_x, ds.obs_y):
        assert y == pytest.approx(eval_simulator(sim, x, truth.theta0), rel=1e-12)


def test_generate_dataset_drift_decays_at_large_x():
    sim, spec, truth = dipole_problem(n_sim=10, drift=True)
    ds = generate_dataset(replace(spec, n_obs=5, noise_sd=0.0), seed=2)
    y_far = ds.obs_y[-1]  # x_norm = 1: drift has decayed
    y_base = eval_simulator(sim, ds.obs_x[-1], truth.theta0)
    assert abs(y_far - y_base) / abs(y_base) < 0.01


def test_synthetic_spec_validation():
    spec = dipole_problem()[1]
    for changes, message in [
        ({"domain_bounds": ((1.0, 1.0),)}, "needs lo < hi"),
        ({"n_sim": 0}, "n_sim must be >= 2, got 0"),
        ({"n_sim": 1}, "n_sim must be >= 2, got 1"),
        ({"n_obs": 0}, "n_obs must be >= 1, got 0"),
        ({"n_obs": -1}, "n_obs must be >= 1, got -1"),
        ({"domain_bounds": ((5.0, 40.0), (0.0, 1.0))}, "1-D domain"),
        ({"noise_sd": -0.1}, "noise_sd must be non-negative"),
    ]:
        with pytest.raises(ValueError, match=message):
            replace(spec, **changes)


def test_drift_truth_evaluates_in_physical_units():
    truth = DriftTruth(
        theta0=np.array([10.0, 0.5]),
        drifts=(DriftFunction.exp_decay(-0.3, 0.2), DriftFunction.zero()),
    )
    bounds = ((0.0, 20.0), (0.0, 1.0))
    th = truth.theta_at(0.0, bounds)
    assert th[0] == pytest.approx(10.0 - 0.3 * 20.0)
    assert th[1] == pytest.approx(0.5)


def test_theta_bounds_from_priors():
    bounds = theta_bounds_from_priors(
        (Prior.uniform(1.0, 2.0), Prior.normal(0.0, 1.0))
    )
    assert bounds[0] == (1.0, 2.0)
    assert bounds[1] == (-3.0, 3.0)


@pytest.mark.parametrize("prior, ref", [
    (Prior.log_normal(0.2, 0.5), stats.lognorm(s=0.5, scale=math.exp(0.2))),
    (Prior.inverse_gamma(3.0, 2.0), stats.invgamma(3.0, scale=2.0)),
])
def test_theta_bounds_of_an_unbounded_prior_are_its_central_99_percent(prior, ref):
    [(lo, hi)] = theta_bounds_from_priors([prior])
    assert lo == pytest.approx(ref.ppf(0.005), rel=1e-12)
    assert hi == pytest.approx(ref.ppf(0.995), rel=1e-12)


def test_dataset_validation():
    with pytest.raises(ValueError, match="n_obs must be >= 1"):
        dipole_dataset(n_sim=5, n_obs=0)
    ds = dipole_dataset(n_sim=5, n_obs=2)
    with pytest.raises(ValueError, match="need at least 1 observation"):
        replace(ds, obs_x=np.empty((0, 1)), obs_y=np.empty(0))
    with pytest.raises(ValueError, match="need at least 2 simulator runs"):
        replace(ds, sim_x=ds.sim_x[:1], sim_theta=ds.sim_theta[:1], sim_y=ds.sim_y[:1])
    with pytest.raises(ValueError, match="bounds"):
        type(ds)(
            obs_x=np.array([[100.0]]),
            obs_y=np.array([1.0]),
            sim_x=ds.sim_x,
            sim_theta=ds.sim_theta,
            sim_y=ds.sim_y,
            domain_bounds=ds.domain_bounds,
            theta_bounds=ds.theta_bounds,
        )


@pytest.mark.parametrize("names", [("mu", "eta", "l_c"), ("mu", "mu", "l_c")])
def test_dataset_refuses_eta_and_repeated_param_names(tmp_path, names):
    # the samplers key each field by its name, and "eta" names the additive field
    ds = dipole_dataset(n_sim=5, n_obs=2)
    message = "param_names must be distinct and not 'eta'"
    with pytest.raises(ValueError, match=message):
        replace(ds, param_names=names)
    path = tmp_path / "ds.csv"
    save_dataset(ds, path)
    header = ",".join(["role", "x0", *ds.param_names, "y"])
    text = path.read_text()
    assert header in text
    path.write_text(text.replace(header, ",".join(["role", "x0", *names, "y"])))
    with pytest.raises(ValueError, match=message):
        load_dataset(path)


@pytest.mark.parametrize("field", ["domain_bounds", "theta_bounds"])
@pytest.mark.parametrize("width", [0.0, -1.0])
def test_dataset_refuses_a_bound_without_width(tmp_path, field, width):
    # a box of width 0 divides by zero in to_unit; the last bound has it
    ds = dipole_dataset(n_sim=5, n_obs=2)
    bounds = getattr(ds, field)
    lo = bounds[-1][0]
    bad = (*bounds[:-1], (lo, lo + width))
    j, kind = len(bounds) - 1, field.split("_")[0]
    message = rf"{kind} bound {j} needs lo < hi, got \({lo}, {lo + width}\)"
    with pytest.raises(ValueError, match=message):
        replace(ds, **{field: bad})
    path = tmp_path / "ds.csv"
    save_dataset(ds, path)
    text = path.read_text()
    header = f"# {field}: {json.dumps([list(b) for b in bounds])}"
    assert header in text
    path.write_text(text.replace(header, f"# {field}: {json.dumps([list(b) for b in bad])}"))
    with pytest.raises(ValueError, match=message):
        load_dataset(path)


@pytest.mark.parametrize("name, file_message", [
    ("nu/x", "param_names must be identifiers"),  # a path: samples/delta_nu/x.csv
    ("a,b", "param_names length does not match"),  # two columns of the dataset file
    ("", "param_names must be identifiers"),  # drift_.csv
    ("2nu", "param_names must be identifiers"),
])
def test_dataset_refuses_names_that_are_not_identifiers(tmp_path, name, file_message):
    # a name heads the sample, plot and dataset files and their columns
    ds = dipole_dataset(n_sim=5, n_obs=2)
    names = ("mu", name, "l_c")
    with pytest.raises(ValueError, match=re.escape(f"param_names must be identifiers, "
                                                   f"got {list(names)}")):
        replace(ds, param_names=names)
    path = tmp_path / "ds.csv"
    save_dataset(ds, path)
    header = "role,x0,mu,nu,l_c,y"
    text = path.read_text()
    assert header in text
    path.write_text(text.replace(header, ",".join(["role", "x0", *names, "y"])))
    with pytest.raises(ValueError, match=file_message):
        load_dataset(path)


def test_identifier_names_and_the_default_names_pass():
    ds = dipole_dataset(n_sim=5, n_obs=2)
    assert ds.param_names == ("mu", "nu", "l_c")
    assert replace(ds, param_names=()).param_names == ("theta0", "theta1", "theta2")
    assert replace(ds, param_names=("_a", "b2", "l_c")).param_names == ("_a", "b2", "l_c")


def test_dataset_file_round_trip_with_a_parameter_named_like_a_domain_column(tmp_path):
    # the domain dimension comes from the domain_bounds header, not from column names
    ds = replace(dipole_dataset(n_sim=5, n_obs=2), param_names=("x1", "nu", "l_c"))
    path = tmp_path / "ds.csv"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.param_names == ("x1", "nu", "l_c")
    for name in ("obs_x", "obs_y", "sim_x", "sim_theta", "sim_y"):
        assert np.array_equal(getattr(back, name), getattr(ds, name)), name


def test_dataset_file_round_trip(tmp_path):
    ds = dipole_dataset(n_sim=7, n_obs=3, noise_sd=0.05, seed=3)
    path = tmp_path / "ds.csv"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert np.array_equal(back.obs_x, ds.obs_x)
    assert np.array_equal(back.obs_y, ds.obs_y)
    assert np.array_equal(back.sim_theta, ds.sim_theta)
    assert back.domain_bounds == ds.domain_bounds
    assert back.theta_bounds == ds.theta_bounds
    assert back.param_names == ds.param_names
    assert back.truth is not None
    assert np.array_equal(back.truth.theta0, ds.truth.theta0)
    assert back.truth.drifts == ds.truth.drifts


def test_dataset_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# format: something-else v9\nrole,x0,y\n")
    with pytest.raises(ValueError, match="format"):
        load_dataset(path)


def test_dataset_file_without_records_is_a_value_error(tmp_path):
    ds = dipole_dataset(n_sim=5, n_obs=2)
    path = tmp_path / "ds.csv"
    save_dataset(ds, path)
    headers = [line for line in path.read_text().splitlines() if line.startswith("#")]
    path.write_text("\n".join(headers) + "\n")
    with pytest.raises(ValueError, match="no column header or record rows"):
        load_dataset(path)


@pytest.mark.parametrize("header", ["domain_bounds", "theta_bounds"])
def test_dataset_file_without_a_bounds_header_names_it(tmp_path, header):
    ds = dipole_dataset(n_sim=5, n_obs=2)
    path = tmp_path / "ds.csv"
    save_dataset(ds, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(l for l in lines if not l.startswith(f"# {header}:")) + "\n")
    with pytest.raises(ValueError, match=f"no {header} header"):
        load_dataset(path)
