"""Run-configuration parsing and validation.

Configs are JSON (nested key/value text); every violation is collected and
reported with its path rather than failing on the first problem. The exact
grammar is documented in the repository README.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .design import Prior
from .embedded import SUMMARY_MAX_DRAWS, CalibrationPriors, McmcConfig
from .simulators import (DRIFT_KINDS, TESTBED_NAMES, AnalyticDipole, DriftFunction,
                         DriftTestbed, DriftTruth, SyntheticSpec, theta_bounds_from_priors)

__all__ = ["ConfigError", "RunConfig", "EmulatorSettings", "parse_config"]

MODES = ("koh", "integrated_delta", "combined", "generate", "fit_emulator", "compare")


class ConfigError(ValueError):
    """Carries every (path, message) violation found in a config."""

    def __init__(self, errors: list[tuple[str, str]]):
        self.errors = errors
        super().__init__("\n".join(f"{path}: {msg}" for path, msg in errors))


@dataclass(frozen=True)
class EmulatorSettings:
    nugget: float = 1e-8
    budget: int = 150


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run configuration with defaults filled in.

    The top-level ``theta0`` and ``grid_points`` keys are stored in ``mcmc``
    and ``koh_mcmc``.
    """

    mode: str
    out_dir: str
    seed: int
    dataset_path: str | None
    synthetic: SyntheticSpec | None
    emulator: EmulatorSettings
    priors: CalibrationPriors
    mcmc: McmcConfig
    koh_mcmc: McmcConfig | None
    trajectories: int = 20
    predictive_draws: int = SUMMARY_MAX_DRAWS
    raw: dict = field(default_factory=dict, repr=False)


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _is_finite_number(val) -> bool:
    """An int, or a float other than the NaN and Infinity that JSON parsing admits."""
    if isinstance(val, bool):
        return False
    return isinstance(val, int) or (isinstance(val, float) and math.isfinite(val))


def _number(minimum=None, above=None, integer=False):
    """A check that a value is a finite number (an integer if ``integer``), >= ``minimum``,
    > ``above``.

    The check returns an error message, or None when the value passes.
    """
    def check(val):
        if not _is_finite_number(val) or (integer and not isinstance(val, int)):
            return f"expected {'an integer' if integer else 'a finite number'}, got {val!r}"
        if minimum is not None and val < minimum:
            return f"must be >= {minimum}, got {val}"
        if above is not None and val <= above:
            return f"must be > {above}, got {val}"
        return None
    return check


def _integer(minimum=None):
    return _number(minimum, integer=True)


def _boolean(val):
    return None if isinstance(val, bool) else f"expected true/false, got {val!r}"


def _boolean_or_null(val):
    if val is None or isinstance(val, bool):
        return None
    return f"expected true/false/null, got {val!r}"


def _is_number_list(val) -> bool:
    return isinstance(val, list) and all(_is_finite_number(v) for v in val)


def _number_list(val):
    return None if _is_number_list(val) else f"expected a list of finite numbers, got {val!r}"


def _one_of(options):
    def check(val):
        return None if val in options else f"expected one of {list(options)}, got {val!r}"
    return check


class _Checker:
    def __init__(self):
        self.errors: list[tuple[str, str]] = []

    def fail(self, path: str, msg: str) -> None:
        self.errors.append((path, msg))

    def known_keys(self, obj: dict, allowed, path: str) -> None:
        for key in obj:
            if key not in allowed:
                self.fail(_join(path, key), "unknown key")

    def given(self, obj: dict, path: str, checks: dict) -> dict:
        """The keys of ``checks`` that ``obj`` gives and that pass their check.

        A key that fails is reported with its path and left out, so the
        dataclass default applies while the remaining errors are collected.
        """
        out = {}
        for key, check in checks.items():
            if key in obj:
                msg = check(obj[key])
                if msg is None:
                    out[key] = obj[key]
                else:
                    self.fail(_join(path, key), msg)
        return out

    def block(self, raw: dict, key: str, checks: dict) -> dict:
        """The checked settings the optional object ``raw[key]`` gives."""
        obj = raw.get(key, {})
        if not isinstance(obj, dict):
            self.fail(key, "expected an object")
            return {}
        self.known_keys(obj, checks, key)
        return self.given(obj, key, checks)

    def one_per_parameter(self, values, n_theta: int | None, path: str) -> bool:
        """Whether ``values`` has ``n_theta`` entries, or no count is declared; reports a
        mismatch at ``path``."""
        if n_theta is None or len(values) == n_theta:
            return True
        self.fail(path, f"expected {n_theta} entries, one per synthetic.theta_priors entry, "
                        f"got {len(values)}")
        return False

    def build(self, cls, path: str, **kwargs):
        """``cls(**kwargs)``, or None with its ValueError reported at ``path``."""
        try:
            return cls(**kwargs)
        except ValueError as exc:
            self.fail(path, str(exc))
            return None

    def prior(self, spec, path: str) -> Prior | None:
        if not isinstance(spec, dict):
            self.fail(path, f"expected a prior object, got {spec!r}")
            return None
        try:
            return Prior.from_dict(spec)
        except (ValueError, TypeError, KeyError) as exc:
            self.fail(path, str(exc))
            return None


# The keys of each block and their per-key checks. The dataclasses hold the
# defaults; McmcConfig checks burn_in against iterations.
_MCMC_CHECKS = {
    "iterations": _integer(1), "burn_in": _integer(0), "thin": _integer(1),
    "chains": _integer(1), "initial_step": _number(above=0.0), "sample_hyper": _boolean,
    "sample_sigma2": _boolean, "sample_theta": _boolean_or_null, "audit_every": _integer(0),
}
_EMULATOR_CHECKS = {"nugget": _number(minimum=0.0), "budget": _integer(1)}
_SYNTHETIC_CHECKS = {"n_sim": _integer(2), "n_obs": _integer(1), "noise_sd": _number(minimum=0.0)}
# synthetic.simulator: the settings of each simulator kind besides "kind"
_SIMULATOR_CHECKS = {
    "analytic_dipole": {"amplitude": _number(), "spread_weight": _number(),
                        "spread_length": _number(above=0.0)},
    "drift_testbed": {"name": _one_of(TESTBED_NAMES)},
}
# synthetic.simulator: the constructor of each simulator kind, given the checked settings
_SIMULATORS = {"analytic_dipole": AnalyticDipole, "drift_testbed": DriftTestbed.named}
_DRIFT_CHECKS = {"kind": _one_of(DRIFT_KINDS), "params": _number_list}
_SHARED_MCMC_CHECKS = {"grid_points": _integer(1)}  # top-level, for both calibrators
_RUN_CHECKS = {"trajectories": _integer(0), "predictive_draws": _integer(1)}
_PRIOR_KEYS = ("field_variance", "field_lengthscale", "eta_variance", "eta_lengthscale", "noise")


def _parse_synthetic(chk: _Checker, obj: dict, path: str,
                     n_theta: int | None) -> SyntheticSpec | None:
    allowed = {"simulator", "domain_bounds", "theta_priors", "param_names", "truth",
               *_SYNTHETIC_CHECKS}
    chk.known_keys(obj, allowed, path)
    sim = obj.get("simulator")
    if not isinstance(sim, dict) or sim.get("kind") not in _SIMULATOR_CHECKS:
        chk.fail(f"{path}.simulator",
                 "required object with kind 'analytic_dipole' or 'drift_testbed'")
        return None
    sim_checks = _SIMULATOR_CHECKS[sim["kind"]]
    chk.known_keys(sim, {"kind", *sim_checks}, f"{path}.simulator")
    simulator = _SIMULATORS[sim["kind"]](**chk.given(sim, f"{path}.simulator", sim_checks))
    bounds_raw = obj.get("domain_bounds")
    bounds: list[tuple[float, float]] = []
    if not isinstance(bounds_raw, list) or not bounds_raw:
        chk.fail(f"{path}.domain_bounds", "required non-empty list of [lo, hi] pairs")
    elif len(bounds_raw) > 1:
        # generate_dataset's observation grid spans a 1-D domain
        chk.fail(f"{path}.domain_bounds",
                 f"expected one [lo, hi] pair (a 1-D domain), got {len(bounds_raw)}")
    else:
        for j, b in enumerate(bounds_raw):
            if (not isinstance(b, list) or len(b) != 2
                    or not _is_number_list(b) or b[0] >= b[1]):
                chk.fail(f"{path}.domain_bounds[{j}]",
                         f"expected finite [lo, hi] with lo < hi, got {b!r}")
            else:
                bounds.append((float(b[0]), float(b[1])))
    priors_raw = obj.get("theta_priors")
    theta_priors: list[Prior] = []
    if not isinstance(priors_raw, list) or not priors_raw:
        chk.fail(f"{path}.theta_priors", "required non-empty list of prior objects")
    else:
        for j, p in enumerate(priors_raw):
            prior = chk.prior(p, f"{path}.theta_priors[{j}]")
            if prior is None:
                continue
            [(lo, hi)] = theta_bounds_from_priors([prior])
            if lo < hi:
                theta_priors.append(prior)
            else:
                chk.fail(f"{path}.theta_priors[{j}]",
                         f"gives the parameter a box of width 0, ({lo}, {hi})")
    settings = chk.given(obj, path, _SYNTHETIC_CHECKS)

    truth_raw = obj.get("truth")
    truth = None
    if not isinstance(truth_raw, dict):
        chk.fail(f"{path}.truth", "required object with theta0 and drifts")
    else:
        chk.known_keys(truth_raw, {"theta0", "drifts"}, f"{path}.truth")
        theta0 = truth_raw.get("theta0")
        drifts_raw = truth_raw.get("drifts")
        ok = True
        if not _is_number_list(theta0):
            chk.fail(f"{path}.truth.theta0", "required list of finite numbers")
            ok = False
        elif not chk.one_per_parameter(theta0, n_theta, f"{path}.truth.theta0"):
            ok = False
        if not isinstance(drifts_raw, list):
            chk.fail(f"{path}.truth.drifts", "required list of drift objects")
            ok = False
        drifts = []
        if ok:
            for j, d in enumerate(drifts_raw):
                drift = _parse_drift(chk, d, f"{path}.truth.drifts[{j}]")
                ok = ok and drift is not None
                drifts.append(drift)
        if ok:
            truth = chk.build(DriftTruth, f"{path}.truth",
                              theta0=np.asarray(theta0, float), drifts=tuple(drifts))
    names = obj.get("param_names", [])
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        chk.fail(f"{path}.param_names", "expected a list of strings")
        names = []
    elif "eta" in names or len(set(names)) != len(names):
        chk.fail(f"{path}.param_names",
                 f"expected distinct names, none of them 'eta' (the additive field's), got {names}")
    if truth is None or not bounds or len(theta_priors) != len(priors_raw or []):
        return None
    if names and len(names) != len(theta_priors):
        chk.fail(f"{path}.param_names",
                 f"expected {len(theta_priors)} names, got {len(names)}")
    return chk.build(
        SyntheticSpec, path,
        simulator=simulator,
        domain_bounds=tuple(bounds),
        theta_priors=tuple(theta_priors),
        truth=truth,
        param_names=tuple(names),
        **settings,
    )


def _parse_drift(chk: _Checker, obj, path: str) -> DriftFunction | None:
    if not isinstance(obj, dict) or "kind" not in obj:
        chk.fail(path, f"expected a drift object with a kind, got {obj!r}")
        return None
    n_errors = len(chk.errors)
    chk.known_keys(obj, _DRIFT_CHECKS, path)
    given = chk.given(obj, path, _DRIFT_CHECKS)
    if len(chk.errors) > n_errors:
        return None
    return chk.build(DriftFunction, path, kind=given["kind"],
                     params=tuple(given.get("params", ())))


def _parse_priors(chk: _Checker, obj: dict, path: str, theta_default: tuple[Prior, ...] | None,
                  n_theta: int | None) -> CalibrationPriors | None:
    chk.known_keys(obj, {*_PRIOR_KEYS, "theta"}, path)
    given = {}
    for key in _PRIOR_KEYS:
        if key in obj:
            p = chk.prior(obj[key], f"{path}.{key}")
            if p is not None:
                given[key] = p
    theta = theta_default
    if "theta" in obj:
        raw = obj["theta"]
        if not isinstance(raw, list):
            chk.fail(f"{path}.theta", "expected a list of prior objects")
        else:
            parsed = [chk.prior(p, f"{path}.theta[{j}]") for j, p in enumerate(raw)]
            if (chk.one_per_parameter(raw, n_theta, f"{path}.theta")
                    and all(p is not None for p in parsed)):
                theta = tuple(parsed)
    return chk.build(CalibrationPriors, path, theta=theta, **given)


_TOP_KEYS = {
    "mode", "out_dir", "seed", "dataset", "synthetic", "emulator", "priors",
    "theta0", "mcmc", "koh", *_SHARED_MCMC_CHECKS, *_RUN_CHECKS,
}


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration.

    Only the settings a config gives are checked and passed on; the
    dataclasses they configure own every default. Raises
    :class:`ConfigError` listing every violation with its path.
    """
    chk = _Checker()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([("<document>", f"invalid JSON: {exc}")]) from None
    if not isinstance(raw, dict):
        raise ConfigError([("<document>", "top level must be an object")])

    chk.known_keys(raw, _TOP_KEYS, "")
    mode = raw.get("mode")
    if mode not in MODES:
        chk.fail("mode", f"required, one of {list(MODES)}; got {mode!r}")
        mode = "integrated_delta"
    out_dir = raw.get("out_dir")
    if not isinstance(out_dir, str) or not out_dir:
        chk.fail("out_dir", "required non-empty string")
        out_dir = "."
    seed = chk.given(raw, "", {"seed": _integer(0)}).get("seed", 0)

    dataset_path = raw.get("dataset")
    if dataset_path is not None and not isinstance(dataset_path, str):
        chk.fail("dataset", f"expected a file path string, got {dataset_path!r}")
        dataset_path = None
    synthetic = n_theta = None
    if "synthetic" in raw:
        if not isinstance(raw["synthetic"], dict):
            chk.fail("synthetic", "expected an object")
        else:
            # the declared parameter count, which theta0 and priors.theta must match
            theta_priors = raw["synthetic"].get("theta_priors")
            if isinstance(theta_priors, list) and theta_priors:
                n_theta = len(theta_priors)
            synthetic = _parse_synthetic(chk, raw["synthetic"], "synthetic", n_theta)
    if (raw.get("dataset") is not None) == ("synthetic" in raw):
        chk.fail("dataset", "exactly one of 'dataset' or 'synthetic' must be provided")
    if mode == "generate" and "synthetic" not in raw:
        chk.fail("synthetic", "mode=generate requires a synthetic block")
    if mode == "compare" and "koh" not in raw:
        chk.fail("koh", "mode=compare requires a koh settings block")

    emulator = EmulatorSettings(**chk.block(raw, "emulator", _EMULATOR_CHECKS))

    theta_default = synthetic.theta_priors if synthetic is not None else None
    priors_raw = raw.get("priors", {})
    if not isinstance(priors_raw, dict):
        chk.fail("priors", "expected an object")
        priors_raw = {}
    priors = _parse_priors(chk, priors_raw, "priors", theta_default, n_theta)

    shared = chk.given(raw, "", _SHARED_MCMC_CHECKS)
    theta0 = raw.get("theta0")
    if theta0 is not None:
        if not _is_number_list(theta0):
            chk.fail("theta0", "expected a list of finite numbers")
        elif chk.one_per_parameter(theta0, n_theta, "theta0"):
            shared["theta0"] = tuple(float(v) for v in theta0)
    mcmc = chk.build(McmcConfig, "mcmc", seed=seed, **shared,
                     **chk.block(raw, "mcmc", _MCMC_CHECKS))
    koh_mcmc = None
    if "koh" in raw:
        # fixed offset keeps the two calibrators on distinct seed streams
        koh_mcmc = chk.build(McmcConfig, "koh", seed=seed + 1_000_003, **shared,
                             **chk.block(raw, "koh", _MCMC_CHECKS))

    outputs = chk.given(raw, "", _RUN_CHECKS)
    if chk.errors:
        raise ConfigError(chk.errors)
    return RunConfig(
        mode=mode,
        out_dir=out_dir,
        seed=seed,
        dataset_path=dataset_path,
        synthetic=synthetic,
        emulator=emulator,
        priors=priors,
        mcmc=mcmc,
        koh_mcmc=koh_mcmc,
        raw=raw,
        **outputs,
    )
