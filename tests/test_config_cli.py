import inspect
import json
import os
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from driftcal import config as config_module
from driftcal import embedded
from driftcal.cli import main
from driftcal.config import ConfigError, EmulatorSettings, parse_config
from driftcal.design import Prior, to_unit
from driftcal.embedded import McmcConfig, _build_knots, _Chain, gibbs_sigma2, mh_accept
from driftcal.gp import ExactEmulator
from driftcal.problems import DIPOLE_PARAM_NAMES, dipole_dataset, dipole_problem
from driftcal.runner import emit_plot_data, orchestrate, recompute_report
from driftcal.samples import load_samples
from driftcal.simulators import CalibrationDataset, generate_dataset, save_dataset

HEADLINE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "dipole_compare.json"
README = HEADLINE_CONFIG.parent.parent / "README.md"


def base_config(out_dir="out", mode="integrated_delta", **extra):
    cfg = {
        "mode": mode,
        "out_dir": out_dir,
        "seed": 3,
        "synthetic": {
            "simulator": {"kind": "analytic_dipole", "amplitude": 1.0,
                          "spread_weight": 0.5, "spread_length": 8.0},
            "domain_bounds": [[5.0, 40.0]],
            "theta_priors": [
                {"kind": "uniform", "lo": 35.0, "hi": 55.0},
                {"kind": "uniform", "lo": 0.28, "hi": 0.38},
                {"kind": "uniform", "lo": 0.56, "hi": 2.88},
            ],
            "param_names": ["mu", "nu", "l_c"],
            "n_sim": 20,
            "n_obs": 5,
            "noise_sd": 0.08,
            "truth": {
                "theta0": [45.0, 0.33, 1.72],
                "drifts": [
                    {"kind": "exp_decay", "params": [-0.3, 0.2]},
                    {"kind": "exp_decay", "params": [-0.2, 0.25]},
                    {"kind": "zero", "params": []},
                ],
            },
        },
        "emulator": {"budget": 40},
        "mcmc": {"iterations": 220, "burn_in": 100, "thin": 2, "chains": 2},
        "grid_points": 21,
        "trajectories": 4,
        "predictive_draws": 60,
    }
    cfg.update(extra)
    return cfg


def test_minimal_config_fills_defaults():
    cfg = parse_config(json.dumps(base_config()))
    assert cfg.mode == "integrated_delta"
    assert cfg.mcmc.seed == 3
    assert cfg.priors.noise.kind == "inverse_gamma"
    assert cfg.priors.theta is not None and len(cfg.priors.theta) == 3
    assert cfg.mcmc.theta0 is None  # the engine starts at the prior medians


def test_omitted_blocks_parse_to_the_dataclass_defaults():
    raw = base_config()
    for key in ("mcmc", "emulator", "grid_points", "trajectories", "predictive_draws"):
        del raw[key]
    for key in ("n_sim", "n_obs", "noise_sd"):
        del raw["synthetic"][key]
    cfg = parse_config(json.dumps(raw))
    assert cfg.mcmc == McmcConfig(seed=3)
    assert cfg.emulator == EmulatorSettings()
    spec = cfg.synthetic
    assert (spec.n_sim, spec.n_obs, spec.noise_sd) == (43, 5, 0.0)
    assert (cfg.trajectories, cfg.mcmc.predictive_draws) == (20, 2000)
    raw["mcmc"], raw["emulator"] = {}, {}
    assert parse_config(json.dumps(raw)).mcmc == McmcConfig(seed=3)


def test_chain_starts_at_prior_medians_not_at_the_synthetic_truth():
    raw = base_config()
    raw["synthetic"]["truth"]["theta0"] = [40.0, 0.36, 1.0]
    cfg = parse_config(json.dumps(raw))
    spec = cfg.synthetic
    ds = generate_dataset(spec, cfg.seed)
    knots, obs_idx = _build_knots(ds)
    chain = _Chain(ds, ExactEmulator(lambda row: 0.0), cfg.priors, cfg.mcmc,
                   [np.random.default_rng(0)], knots, obs_idx, drift=True, additive=False,
                   accept=mh_accept, gibbs=gibbs_sigma2)
    medians = np.array([[p.median() for p in spec.theta_priors]])
    assert np.array_equal(chain.base_theta[0], to_unit(medians, ds.theta_bounds)[0])
    assert not np.array_equal(chain.base_theta[0], to_unit(spec.truth.theta0[None, :],
                                                         ds.theta_bounds)[0])


def test_headline_config_spells_the_dipole_problem_of_problems_module():
    cfg = parse_config(HEADLINE_CONFIG.read_text())
    spec = cfg.synthetic
    problem = dipole_problem()[1]
    defaults = inspect.signature(dipole_dataset).parameters
    for field in fields(spec):
        if field.name != "truth":  # truth.theta0 is an array
            assert getattr(spec, field.name) == getattr(problem, field.name), field.name
    assert np.array_equal(spec.truth.theta0, problem.truth.theta0)
    assert spec.truth.drifts == problem.truth.drifts
    for name in ("n_sim", "n_obs", "noise_sd"):
        assert getattr(spec, name) == defaults[name].default, name
    assert spec.param_names == DIPOLE_PARAM_NAMES

    from_config = generate_dataset(spec, cfg.seed)
    from_module = dipole_dataset(seed=cfg.seed)
    for name in ("obs_x", "obs_y", "sim_x", "sim_theta", "sim_y"):
        assert np.array_equal(getattr(from_config, name), getattr(from_module, name)), name
    for name in ("domain_bounds", "theta_bounds", "noise_sd", "param_names"):
        assert getattr(from_config, name) == getattr(from_module, name), name


def test_every_cli_mode_parses_from_a_config_file():
    # the CLI forces generate, fit_emulator and compare; a config may name them too
    for mode in ("koh", "integrated_delta", "combined", "generate", "fit_emulator"):
        assert parse_config(json.dumps(base_config(mode=mode))).mode == mode


def test_burn_in_constraint_reported_with_both_fields():
    raw = base_config()
    raw["mcmc"] = {"iterations": 100, "burn_in": 100}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(raw))
    msg = str(err.value)
    assert "burn_in" in msg and "iterations" in msg


def test_each_error_is_reported_where_its_check_lives():
    raw = base_config()
    raw["seed"] = None
    raw["grid_points"] = 0
    raw["mcmc"]["burn_in"] = raw["mcmc"]["iterations"]
    raw["priors"] = {"noise": {"kind": "normal", "mean": 0.0, "sd": 1.0}}
    raw["synthetic"]["truth"]["drifts"].pop()
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(raw))
    paths = {p for p, _ in err.value.errors}
    assert paths == {"seed", "grid_points", "mcmc", "priors", "synthetic.truth"}


def test_parameter_counts_are_checked_against_the_theta_priors_at_parse_time():
    # the dipole has three theta priors; each list below has two entries
    raw = base_config()
    raw["synthetic"]["truth"]["theta0"] = [45.0, 0.33]
    raw["theta0"] = [45.0, 0.33]
    raw["priors"] = {"theta": [{"kind": "uniform", "lo": 35.0, "hi": 55.0}] * 2}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(raw))
    assert {p: msg for p, msg in err.value.errors} == dict.fromkeys(
        ["synthetic.truth.theta0", "theta0", "priors.theta"],
        "expected 3 entries, one per synthetic.theta_priors entry, got 2")


def test_top_level_theta0_reaches_both_calibrators_as_floats():
    raw = base_config(mode="compare", theta0=[45, 0.33, 2],
                      koh={"iterations": 220, "burn_in": 100})
    cfg = parse_config(json.dumps(raw))
    for mcmc in (cfg.mcmc, cfg.koh_mcmc):
        assert mcmc.theta0 == (45.0, 0.33, 2.0)
        assert all(type(v) is float for v in mcmc.theta0)


def test_priors_theta_replaces_the_synthetic_theta_priors():
    theta = [{"kind": "normal", "mean": 45.0, "sd": 2.0},
             {"kind": "uniform", "lo": 0.3, "hi": 0.36},
             {"kind": "log_normal", "mu": 0.5, "sigma": 0.2}]
    raw = base_config(priors={"theta": theta})
    cfg = parse_config(json.dumps(raw))
    assert cfg.priors.theta == tuple(map(Prior.from_dict, theta))
    assert cfg.synthetic.theta_priors == tuple(map(Prior.from_dict,
                                                   raw["synthetic"]["theta_priors"]))


def _readme_names(text: str) -> set[str]:
    """The names a stretch of the README writes in backticks."""
    return set(re.findall(r"`([A-Za-z_]\w*)`", text))


def _readme_paragraph(lead: str) -> str:
    """The rest of the README paragraph that starts with ``lead``."""
    text = README.read_text()
    start = text.index(lead) + len(lead)
    return text[start:text.index("\n\n", start)]


def test_readme_grammar_names_exactly_the_keys_the_parser_accepts():
    grammar = README.read_text().split("## Configuration grammar", 1)[1]
    rows = dict(re.findall(r"^\| `(\w+)` \| (.*)$", grammar, flags=re.MULTILINE))
    assert set(rows) == config_module._TOP_KEYS
    assert _readme_names(rows["emulator"]) == set(config_module._EMULATOR_CHECKS)
    assert _readme_names(_readme_paragraph("`mcmc` keys:")) == set(config_module._MCMC_CHECKS)
    assert _readme_names(_readme_paragraph("`priors` keys:")) == {*config_module._PRIOR_KEYS,
                                                                   "theta"}


def test_negative_seed_is_refused_at_parse_time(tmp_path, capsys):
    raw = base_config(out_dir=str(tmp_path / "run"), seed=-1)
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(raw))
    assert [p for p, _ in err.value.errors] == ["seed"]
    raw["seed"] = 3
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["generate", "--config", str(cfg_path), "--seed", "-1"]) == 2
    assert "seed: must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_unknown_simulator_kind_is_refused_at_its_key(tmp_path, capsys):
    raw = base_config(out_dir=str(tmp_path / "run"))
    raw["synthetic"]["simulator"] = {"kind": "bogus"}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(raw))
    assert err.value.errors == [
        ("synthetic.simulator", "required object with kind 'analytic_dipole' or 'drift_testbed'")]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["generate", "--config", str(cfg_path)]) == 2
    assert "synthetic.simulator: required object" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("names, message", [
    (["mu", "eta", "l_c"], "param_names must be distinct and not 'eta' (the additive field's "
                           "name), got ['mu', 'eta', 'l_c']"),
    (["mu", "mu", "l_c"], "param_names must be distinct and not 'eta' (the additive field's "
                          "name), got ['mu', 'mu', 'l_c']"),
    (None, "expected a list of strings"),
])
def test_eta_and_repeated_param_names_are_refused_at_parse_time(tmp_path, capsys, names, message):
    # each field is keyed by its name, and "eta" names the additive field
    raw = base_config(out_dir=str(tmp_path / "run"))
    raw["synthetic"]["param_names"] = names
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(raw))
    assert err.value.errors == [("synthetic.param_names", message)]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["calibrate", "--config", str(cfg_path)]) == 2
    assert f"synthetic.param_names: {message}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("name", ["nu/x", "a,b", ""])
def test_param_names_that_are_not_identifiers_are_refused_at_parse_time(tmp_path, capsys, name):
    # "nu/x" failed after every chain had run, "a,b" wrote a dataset.csv that does not
    # load, and "" wrote drift_.csv
    raw = base_config(out_dir=str(tmp_path / "run"))
    raw["synthetic"]["param_names"] = ["mu", name, "l_c"]
    message = f"param_names must be identifiers, got ['mu', {name!r}, 'l_c']"
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(raw))
    assert err.value.errors == [("synthetic.param_names", message)]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["calibrate", "--config", str(cfg_path)]) == 2
    assert f"synthetic.param_names: {message}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key, value, message", [
    ("initial_step", 0.0, "must be > 0.0, got 0.0"),
    ("initial_step", -1.0, "must be > 0.0, got -1.0"),
    ("audit_every", -1, "must be >= 0, got -1"),
])
def test_the_config_reports_step_and_audit_values_at_their_keys(key, value, message):
    # McmcConfig refuses these too; the parser's check runs first and names the key
    for block in ("mcmc", "koh"):
        raw = base_config(mode="compare", koh={"iterations": 220, "burn_in": 100})
        raw[block][key] = value
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(raw))
        assert err.value.errors == [(f"{block}.{key}", message)]


def test_zero_width_theta_prior_is_refused_at_parse_time(tmp_path, capsys):
    # a uniform prior with lo == hi is a valid prior but gives a theta box of width 0
    Prior.uniform(1.72, 1.72)
    raw = base_config(out_dir=str(tmp_path / "run"))
    raw["synthetic"]["theta_priors"][2] = {"kind": "uniform", "lo": 1.72, "hi": 1.72}
    message = "gives the parameter a box of width 0, (1.72, 1.72)"
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(raw))
    assert err.value.errors == [("synthetic.theta_priors[2]", message)]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["calibrate", "--config", str(cfg_path)]) == 2
    assert f"synthetic.theta_priors[2]: {message}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_dataset_file_with_an_eta_parameter_is_a_stage_error(tmp_path, capsys):
    path = tmp_path / "ds.csv"
    save_dataset(dipole_dataset(n_sim=5, n_obs=2), path)
    path.write_text(path.read_text().replace("role,x0,mu,nu,l_c,y", "role,x0,mu,eta,l_c,y"))
    raw = base_config(out_dir=str(tmp_path / "run"), dataset=str(path))
    del raw["synthetic"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["calibrate", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert "[dataset]" in err and "param_names must be distinct and not 'eta'" in err
    assert not (tmp_path / "run" / "samples").exists()


def test_domain_of_more_than_one_dimension_is_refused_at_parse_time(tmp_path, capsys):
    # the dataset stage builds its observation grid on a 1-D domain only
    raw = base_config(out_dir=str(tmp_path / "run"), mode="generate")
    raw["synthetic"]["domain_bounds"] = [[5.0, 40.0], [0.0, 1.0]]
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(raw))
    assert err.value.errors == [
        ("synthetic.domain_bounds", "expected one [lo, hi] pair (a 1-D domain), got 2")]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["generate", "--config", str(cfg_path)]) == 2
    assert "synthetic.domain_bounds: expected one [lo, hi] pair" in capsys.readouterr().err
    assert not (tmp_path / "run" / "dataset.csv").exists()


@pytest.mark.parametrize("path, edit, expected", [
    ("mcmc.adapt_target", lambda raw: raw["mcmc"].update(adapt_target=0.3), "unknown key"),
    ("koh.adapt_target", lambda raw: raw["koh"].update(adapt_target=0.3), "unknown key"),
    ("emulator.init_variance", lambda raw: raw["emulator"].update(init_variance=1.0),
     "unknown key"),
    ("emulator.init_lengthscale", lambda raw: raw["emulator"].update(init_lengthscale=0.4),
     "unknown key"),
    ("synthetic.truth.drifts[0].kind",
     lambda raw: raw["synthetic"]["truth"]["drifts"][0].update(kind="linear"),
     "expected one of ['zero', 'exp_decay'], got 'linear'"),
    ("synthetic.truth.drifts[0].kind",
     lambda raw: raw["synthetic"]["truth"]["drifts"][0].update(kind="gaussian_bump",
                                                               params=[0.1, 0.5, 0.2]),
     "expected one of ['zero', 'exp_decay'], got 'gaussian_bump'"),
])
def test_removed_settings_are_refused_at_their_key(path, edit, expected):
    raw = json.loads(HEADLINE_CONFIG.read_text())
    edit(raw)
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(raw))
    assert err.value.errors == [(path, expected)]


def test_non_finite_numbers_are_refused_at_their_key():
    # Python's JSON parser reads NaN, Infinity and -Infinity as floats
    edits = {
        "synthetic.noise_sd": lambda raw, v: raw["synthetic"].update(noise_sd=v),
        "koh.initial_step": lambda raw, v: raw["koh"].update(initial_step=v),
        "theta0": lambda raw, v: raw.update(theta0=[v, 0.33, 1.7]),
        "synthetic.domain_bounds[0]":
            lambda raw, v: raw["synthetic"].update(domain_bounds=[[5.0, v]]),
        "synthetic.truth.theta0":
            lambda raw, v: raw["synthetic"]["truth"].update(theta0=[45.0, v, 1.72]),
    }
    for path, edit in edits.items():
        for value in (float("nan"), float("inf"), float("-inf")):
            raw = json.loads(HEADLINE_CONFIG.read_text())
            edit(raw, value)
            with pytest.raises(ConfigError) as err:
                parse_config(json.dumps(raw))
            [(where, msg)] = err.value.errors
            assert where == path and "finite" in msg, (path, value)


def test_simulator_settings_and_drift_params_are_checked_at_their_key():
    def simulator(**kv):
        return lambda raw: raw["synthetic"]["simulator"].update(kv)

    def first_drift(**kv):
        return lambda raw: raw["synthetic"]["truth"]["drifts"][0].update(kv)

    cases = [
        ("synthetic.simulator.amplitude", simulator(amplitude=float("nan"))),
        ("synthetic.simulator.amplitude", simulator(amplitude="abc")),
        ("synthetic.simulator.typo", simulator(typo=1)),
        ("synthetic.truth.drifts[0].params", first_drift(params=[float("nan"), 0.2])),
    ]
    for path, edit in cases:
        raw = json.loads(HEADLINE_CONFIG.read_text())
        edit(raw)
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(raw))
        assert [where for where, _ in err.value.errors] == [path]


def test_compare_requires_koh_block():
    raw = base_config(mode="compare")
    with pytest.raises(ConfigError, match="koh"):
        parse_config(json.dumps(raw))
    raw["koh"] = {"iterations": 200, "burn_in": 80}
    cfg = parse_config(json.dumps(raw))
    assert cfg.koh_mcmc is not None
    assert cfg.koh_mcmc.seed != cfg.mcmc.seed


def test_unknown_keys_rejected_with_paths():
    raw = base_config()
    raw["mcmc"]["wrong"] = 1
    raw["typo_top"] = True
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(raw))
    paths = [p for p, _ in err.value.errors]
    assert "mcmc.wrong" in paths
    assert "typo_top" in paths


def test_errors_are_collected_not_first_only():
    raw = base_config()
    raw["mcmc"] = {"iterations": 0, "thin": 0}
    raw["synthetic"]["noise_sd"] = -1
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(raw))
    assert len(err.value.errors) >= 3


def test_dataset_or_synthetic_required():
    raw = {"mode": "koh", "out_dir": "x"}
    with pytest.raises(ConfigError, match="dataset"):
        parse_config(json.dumps(raw))


def test_dataset_and_synthetic_together_are_refused(tmp_path, capsys):
    # a dataset run would otherwise take the synthetic block's theta priors and parameter count
    raw = base_config(out_dir=str(tmp_path / "run"), mode="generate",
                      dataset=str(tmp_path / "ds.csv"))
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(raw))
    assert err.value.errors == [
        ("dataset", "exactly one of 'dataset' or 'synthetic' must be provided")]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["generate", "--config", str(cfg_path)]) == 2
    assert "dataset: exactly one of 'dataset' or 'synthetic'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_generate_writes_budgeted_dataset(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    raw = base_config(out_dir=str(tmp_path / "run"), mode="generate")
    raw["synthetic"]["n_sim"] = 43
    cfg_path.write_text(json.dumps(raw))
    assert main(["generate", "--config", str(cfg_path)]) == 0
    lines = (tmp_path / "run" / "dataset.csv").read_text().strip().splitlines()
    records = [l for l in lines if not l.startswith("#")][1:]  # drop the column header
    assert len(records) == 48  # 43 simulator runs + 5 observations


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    raw = base_config(out_dir=str(out))
    cfg = parse_config(json.dumps(raw))
    report = orchestrate(cfg)
    return out, raw, report


def test_orchestrate_writes_declared_outputs(small_run):
    out, raw, report = small_run
    for name in ("config_echo.json", "dataset.csv", "emulator.json", "report.json",
                 "timing.json", "predictive.csv", "predictive_obs.csv"):
        assert (out / name).exists(), name
    for name in ("drift_mu.csv", "drift_nu.csv", "drift_l_c.csv"):
        assert (out / name).exists(), name
    assert (out / "samples" / "meta.json").exists()
    assert 0.0 <= report.metrics["coverage_obs"] <= 1.0
    timing = json.loads((out / "timing.json").read_text())
    stages = timing["stage_s"]
    assert sorted(stages) == ["calibration:integrated_delta", "dataset", "emulator",
                              "outputs:integrated_delta"]
    assert all(s >= 0.0 for s in stages.values())
    assert sum(stages.values()) <= timing["wall_clock_s"]
    [(mode, blocks)] = timing["block_us"].items()
    assert mode == "integrated_delta" and blocks["chains"] == raw["mcmc"]["chains"]
    assert sorted(blocks["us_per_step"]) == ["delta:l_c", "delta:mu", "delta:nu", "hyper:l_c",
                                             "hyper:mu", "hyper:nu", "sigma2"]
    assert all(us > 0.0 for us in blocks["us_per_step"].values())
    assert "block_us" not in (out / "report.json").read_text()
    loaded = load_samples(out / "samples")
    assert loaded.kind == "integrated_delta"


def test_report_rmse_matches_recomputation(small_run):
    out, _raw, report = small_run
    recomputed = recompute_report(str(out))
    assert abs(recomputed["rmse_obs"] - report.metrics["rmse_obs"]) < 1e-12
    assert abs(recomputed["coverage_obs"] - report.metrics["coverage_obs"]) < 1e-12


def test_cli_report_subcommand(small_run, capsys):
    out, _raw, _report = small_run
    assert main(["report", "--out", str(out)]) == 0
    body = json.loads(capsys.readouterr().out)
    assert "rmse_obs" in body


@pytest.mark.parametrize("body, message", [
    ("# x0,y_obs,pred_mean,pred_sd\n", "a header and no rows"),
    ("# x0,y_obs,pred_mean,pred_sd\n0.1,1.0,abc,0.2\n",
     "row 1: could not convert string to float: 'abc'"),
    ("# x0,y_obs,pred_mean,pred_sd\n0.1,1.0,1.1\n0.5,2.0,1.9\n",
     "row 1 has 3 cells, the header names 4 columns"),
    ("0.1,1.0,1.1,0.2\n", "the header names no y_obs, pred_mean, pred_sd column"),
], ids=["no_rows", "non_numeric_cell", "three_columns", "no_header"])
def test_cli_report_refuses_a_malformed_predictive_table(tmp_path, capsys, body, message):
    path = tmp_path / "predictive_obs.csv"
    path.write_text(body)
    assert main(["report", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"[report] {path}: {message}\n"


def test_rerun_is_byte_identical(tmp_path):
    raw1 = base_config(out_dir=str(tmp_path / "a"))
    raw2 = base_config(out_dir=str(tmp_path / "b"))
    orchestrate(parse_config(json.dumps(raw1)))
    orchestrate(parse_config(json.dumps(raw2)))
    skip = {"timing.json", "config_echo.json"}  # config echo embeds out_dir
    for root, _dirs, files in os.walk(tmp_path / "a"):
        for name in files:
            if name in skip:
                continue
            a = os.path.join(root, name)
            b = a.replace(str(tmp_path / "a"), str(tmp_path / "b"), 1)
            with open(a, "rb") as fa, open(b, "rb") as fb:
                assert fa.read() == fb.read(), name


@pytest.mark.parametrize("predictive_draws", [50, None])
def test_every_summary_reads_the_one_draw_selection(tmp_path, monkeypatch, predictive_draws):
    # each calibrator computes one grid predictive and one band per field, at the config's
    # predictive_draws, and summary.csv, predictive.csv and drift_*.csv all carry them
    raw = base_config(out_dir=str(tmp_path / "run"), mode="compare",
                      koh={"iterations": 220, "burn_in": 100, "thin": 2, "chains": 2})
    if predictive_draws is None:
        del raw["predictive_draws"]  # the default of 2000 selects all 120 stored draws
    else:
        raw["predictive_draws"] = predictive_draws
    n_sel = predictive_draws or 120
    grid_passes, bands = [], []
    predictive, curves = embedded._predictive, embedded._conditional_curves

    def counted_predictive(samples, emulator, x_unit, sel):
        if len(x_unit) == raw["grid_points"]:  # the predictive at the 5 observations is not
            grid_passes.append((samples.kind, sel.size))
        return predictive(samples, emulator, x_unit, sel)

    def counted_curves(knots, X, values_rows, hyper_rows, variances=True):
        if variances:  # a band; the predictive and the trajectories need no variances
            bands.append(len(values_rows))
        return curves(knots, X, values_rows, hyper_rows, variances)

    monkeypatch.setattr(embedded, "_predictive", counted_predictive)
    monkeypatch.setattr(embedded, "_conditional_curves", counted_curves)
    orchestrate(parse_config(json.dumps(raw)))
    assert grid_passes == [("koh", n_sel), ("integrated_delta", n_sel)]
    assert bands == [n_sel] * (1 + 3)  # koh's eta field, then the three drift fields

    for mode, names in (("koh", ["eta"]), ("integrated_delta", ["l_c", "mu", "nu"])):
        run = tmp_path / "run" / mode
        summary = load_samples(run / "samples").summaries
        pred = np.loadtxt(run / "predictive.csv", delimiter=",", comments="#")
        assert np.array_equal(summary["predictive_mean"], pred[:, 2])
        assert np.array_equal(summary["predictive_sd"], pred[:, 3])
        for name in names:
            band = np.loadtxt(run / f"drift_{name}.csv", delimiter=",", comments="#")
            assert np.array_equal(summary[f"delta_mean:{name}"], band[:, 1]), (mode, name)
            assert np.array_equal(summary[f"delta_sd:{name}"], band[:, 2]), (mode, name)


def test_emit_plot_data_guards(tmp_path):
    raw = base_config(out_dir=str(tmp_path / "r"))
    cfg = parse_config(json.dumps(raw))
    orchestrate(cfg)
    samples = load_samples(tmp_path / "r" / "samples")

    class NoDraws:
        n_draws = 0

    with pytest.raises(ValueError, match="draw"):
        emit_plot_data(NoDraws(), np.linspace(0, 1, 5), tmp_path / "e", emulator=None)

    from driftcal.gp import ExactEmulator

    emu = ExactEmulator(lambda row: 0.0)
    files = emit_plot_data(samples, np.array([0.5]), tmp_path / "one", emu, trajectories=2)
    table = np.atleast_2d(np.loadtxt(files[0], delimiter=",", comments="#"))
    assert table.shape[0] == 1  # single-row file is still valid


def test_rerun_from_echoed_config_reproduces_outputs(tmp_path):
    raw = base_config(out_dir=str(tmp_path / "first"))
    orchestrate(parse_config(json.dumps(raw)))
    # the echo of a CLI run records the overridden seed and out_dir
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(out_dir=str(tmp_path / "unused"))))
    assert main(["calibrate", "--config", str(cfg_path), "--seed", "7",
                 "--out", str(tmp_path / "cli")]) == 0
    for first in ("first", "cli"):
        echoed = json.loads((tmp_path / first / "config_echo.json").read_text())
        assert echoed["out_dir"] == str(tmp_path / first)
        echoed["out_dir"] = str(tmp_path / f"{first}_rerun")
        orchestrate(parse_config(json.dumps(echoed)))
        for name in ("dataset.csv", "predictive.csv", "predictive_obs.csv",
                     "samples/sigma2.csv", "samples/delta_mu.csv", "report.json"):
            a = (tmp_path / first / name).read_bytes()
            b = (tmp_path / f"{first}_rerun" / name).read_bytes()
            assert a == b, (first, name)


def test_cli_fit_emulator_subcommand(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(out_dir=str(tmp_path / "run"))))
    assert main(["fit-emulator", "--config", str(cfg_path)]) == 0
    body = json.loads((tmp_path / "run" / "emulator.json").read_text())
    assert body["format"] == "driftcal-emulator v1"
    assert body["n_train"] == 20
    assert not (tmp_path / "run" / "samples").exists()  # stops before calibration


def test_cli_seed_override_changes_outputs(tmp_path):
    for seed_args, sub in ((["--seed", "3"], "a"), (["--seed", "4"], "b")):
        cfg_path = tmp_path / f"cfg_{sub}.json"
        cfg_path.write_text(json.dumps(base_config(out_dir=str(tmp_path / sub))))
        assert main(["calibrate", "--config", str(cfg_path), *seed_args]) == 0
    a = np.loadtxt(tmp_path / "a" / "sigma2.csv".replace("sigma2", "samples/sigma2"),
                   delimiter=",", comments="#")
    b = np.loadtxt(tmp_path / "b" / "samples" / "sigma2.csv", delimiter=",", comments="#")
    assert not np.array_equal(a, b)


def test_compare_mode_report_keys(tmp_path):
    raw = base_config(out_dir=str(tmp_path / "cmp"), mode="compare")
    raw["koh"] = {"iterations": 220, "burn_in": 100, "thin": 2, "chains": 2}
    report = orchestrate(parse_config(json.dumps(raw)))
    for key in ("koh.rmse_obs", "integrated_delta.rmse_obs",
                "koh.rmse_obs_emulator_only", "lowx_rmse_ratio"):
        assert key in report.metrics, key
    # on the drift problem the single-theta emulator fit trails the drift-field fit
    assert (report.metrics["koh.rmse_obs_emulator_only"]
            > report.metrics["integrated_delta.rmse_obs"])
    assert (tmp_path / "cmp" / "koh" / "samples" / "meta.json").exists()
    assert (tmp_path / "cmp" / "integrated_delta" / "predictive.csv").exists()


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"mode": "nope", "out_dir": ""}))
    assert main(["calibrate", "--config", str(bad)]) == 2
    assert "configuration errors" in capsys.readouterr().err


def test_cli_calibrate_refuses_a_mode_without_a_calibrator(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(out_dir=str(tmp_path / "run"), mode="generate")))
    assert main(["calibrate", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "'calibrate' needs mode koh/integrated_delta/combined, got 'generate'" in err
    assert not (tmp_path / "run").exists()


def test_cli_overrides_apply_before_the_config_is_checked(tmp_path, capsys):
    raw = json.loads(HEADLINE_CONFIG.read_text())
    del raw["out_dir"]  # --out supplies it
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
    echoed = json.loads((tmp_path / "run" / "config_echo.json").read_text())
    assert echoed["out_dir"] == str(tmp_path / "run") and echoed["mode"] == "generate"
    assert (tmp_path / "run" / "dataset.csv").exists()
    # a file that is not JSON is still a configuration error
    cfg_path.write_text("{not json")
    assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_cli_config_naming_a_directory_is_an_os_error(tmp_path, capsys):
    assert main(["generate", "--config", str(tmp_path)]) == 1
    assert "Is a directory" in capsys.readouterr().err


def test_cli_config_that_is_not_utf8_is_a_configuration_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(json.dumps(base_config(out_dir=str(tmp_path / "run"))).encode("utf-16"))
    assert main(["generate", "--config", str(cfg_path)]) == 2
    assert "<document>: not UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_cli_out_naming_an_existing_file_is_an_os_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(koh={"iterations": 220, "burn_in": 100})))
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    assert main(["compare", "--config", str(cfg_path), "--out", str(taken)]) == 1
    assert "File exists" in capsys.readouterr().err
    assert taken.read_text() == "not a directory"


def test_cli_missing_dataset_is_stage_error(tmp_path, capsys):
    raw = base_config(out_dir=str(tmp_path / "r"))
    del raw["synthetic"]
    raw["dataset"] = str(tmp_path / "missing.csv")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["calibrate", "--config", str(cfg_path)]) == 1
    assert "[dataset]" in capsys.readouterr().err


def test_a_run_from_a_dataset_file_reproduces_the_synthetic_run_it_came_from(tmp_path):
    koh = {"iterations": 220, "burn_in": 100, "thin": 2, "chains": 2}
    raw = base_config(out_dir=str(tmp_path / "synthetic"), mode="compare", koh=koh)
    orchestrate(parse_config(json.dumps(raw)))
    from_file = base_config(out_dir=str(tmp_path / "file"), mode="compare", koh=koh,
                            dataset=str(tmp_path / "synthetic" / "dataset.csv"),
                            priors={"theta": raw["synthetic"]["theta_priors"]})
    del from_file["synthetic"]
    orchestrate(parse_config(json.dumps(from_file)))

    def written(root):
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    synthetic, file = written(tmp_path / "synthetic"), written(tmp_path / "file")
    assert synthetic - file == {"dataset.csv"} and file <= synthetic
    for name in sorted(file - {"config_echo.json", "timing.json", "report.json"}):
        assert ((tmp_path / "synthetic" / name).read_bytes()
                == (tmp_path / "file" / name).read_bytes()), name
    report = json.loads((tmp_path / "synthetic" / "report.json").read_text())
    report["outputs"].remove("dataset.csv")
    assert report == json.loads((tmp_path / "file" / "report.json").read_text())


def test_a_dataset_file_of_a_two_dimensional_domain_is_a_stage_error(tmp_path, capsys):
    rng = np.random.default_rng(0)
    path = tmp_path / "ds.csv"
    save_dataset(CalibrationDataset(
        obs_x=rng.random((3, 2)), obs_y=rng.random(3), sim_x=rng.random((4, 2)),
        sim_theta=rng.random((4, 1)), sim_y=rng.random(4),
        domain_bounds=((0.0, 1.0), (0.0, 1.0)), theta_bounds=((0.0, 1.0),)), path)
    raw = base_config(out_dir=str(tmp_path / "run"), dataset=str(path))
    del raw["synthetic"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["calibrate", "--config", str(cfg_path)]) == 1
    assert "[dataset] grid summaries and plot files require a 1-D domain" in capsys.readouterr().err
    assert not (tmp_path / "run" / "emulator.json").exists()
