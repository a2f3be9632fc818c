"""Run-configuration parsing and validation.

Configs are JSON (nested key/value text); every violation is collected and
reported with its path rather than failing on the first problem. The exact
grammar is documented in the repository README.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .design import DesignSpec, Prior
from .embedded import CalibrationPriors, McmcConfig
from .simulators import AnalyticDipole, DriftFunction, DriftTestbed, DriftTruth

__all__ = ["ConfigError", "RunConfig", "SyntheticSpec", "EmulatorSettings", "parse_config"]

MODES = ("koh", "integrated_delta", "combined", "generate", "fit_emulator", "compare")


class ConfigError(ValueError):
    """Carries every (path, message) violation found in a config."""

    def __init__(self, errors: list[tuple[str, str]]):
        self.errors = errors
        super().__init__("\n".join(f"{path}: {msg}" for path, msg in errors))


@dataclass(frozen=True)
class EmulatorSettings:
    init_variance: float = 1.0
    init_lengthscale: float = 0.4
    nugget: float = 1e-8
    budget: int = 150


@dataclass(frozen=True)
class SyntheticSpec:
    """Synthetic problem description: simulator, design, truth, noise."""

    simulator: dict
    domain_bounds: tuple[tuple[float, float], ...]
    theta_priors: tuple[Prior, ...]
    n_sim: int
    n_obs: int
    noise_sd: float
    truth: DriftTruth
    param_names: tuple[str, ...] = ()

    def build_simulator(self):
        kind = self.simulator.get("kind")
        if kind == "analytic_dipole":
            return AnalyticDipole(
                amplitude=float(self.simulator.get("amplitude", 1.0)),
                spread_weight=float(self.simulator.get("spread_weight", 0.5)),
                spread_length=float(self.simulator.get("spread_length", 8.0)),
            )
        if kind == "drift_testbed":
            return DriftTestbed.named(self.simulator.get("name", "linear"))
        raise ValueError(f"cannot build simulator of kind {kind!r}")

    def design_spec(self, seed: int) -> DesignSpec:
        return DesignSpec(
            domain_bounds=self.domain_bounds,
            theta_priors=self.theta_priors,
            n_samples=self.n_sim,
            seed=seed,
        )


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
    predictive_draws: int = 2000
    raw: dict = field(default_factory=dict, repr=False)


class _Checker:
    def __init__(self):
        self.errors: list[tuple[str, str]] = []

    def fail(self, path: str, msg: str) -> None:
        self.errors.append((path, msg))

    def known_keys(self, obj: dict, allowed: set[str], path: str) -> None:
        for key in obj:
            if key not in allowed:
                self.fail(f"{path}.{key}" if path else key, "unknown key")

    def number(self, obj: dict, key: str, path: str, default=None, minimum=None,
               strict_min=None):
        val = obj.get(key, default)
        if val is None:
            return None
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            self.fail(f"{path}.{key}", f"expected a number, got {val!r}")
            return default
        if minimum is not None and val < minimum:
            self.fail(f"{path}.{key}", f"must be >= {minimum}, got {val}")
        if strict_min is not None and val <= strict_min:
            self.fail(f"{path}.{key}", f"must be > {strict_min}, got {val}")
        return val

    def integer(self, obj: dict, key: str, path: str, default=None, minimum=None):
        val = obj.get(key, default)
        if val is None:
            return None
        if not isinstance(val, int) or isinstance(val, bool):
            self.fail(f"{path}.{key}", f"expected an integer, got {val!r}")
            return default
        if minimum is not None and val < minimum:
            self.fail(f"{path}.{key}", f"must be >= {minimum}, got {val}")
        return val

    def boolean(self, obj: dict, key: str, path: str, default=None):
        val = obj.get(key, default)
        if val is None:
            return None
        if not isinstance(val, bool):
            self.fail(f"{path}.{key}", f"expected true/false, got {val!r}")
            return default
        return val

    def prior(self, spec, path: str) -> Prior | None:
        if not isinstance(spec, dict):
            self.fail(path, f"expected a prior object, got {spec!r}")
            return None
        try:
            return Prior.from_dict(spec)
        except (ValueError, TypeError, KeyError) as exc:
            self.fail(path, str(exc))
            return None


_MCMC_KEYS = {
    "iterations", "burn_in", "thin", "chains", "adapt_target", "initial_step",
    "sample_hyper", "sample_sigma2", "sample_theta", "audit_every",
}


def _parse_mcmc(chk: _Checker, obj: dict, path: str, seed: int,
                theta0, grid_points: int) -> McmcConfig:
    chk.known_keys(obj, _MCMC_KEYS, path)
    iterations = chk.integer(obj, "iterations", path, default=4000, minimum=1)
    burn_in = chk.integer(obj, "burn_in", path, default=min(1500, iterations // 2), minimum=0)
    if iterations is not None and burn_in is not None and burn_in >= iterations:
        chk.fail(f"{path}.burn_in",
                 f"burn_in ({burn_in}) must be smaller than iterations ({iterations})")
        burn_in = iterations // 2
    thin = chk.integer(obj, "thin", path, default=2, minimum=1)
    chains = chk.integer(obj, "chains", path, default=2, minimum=1)
    adapt_target = chk.number(obj, "adapt_target", path, default=0.3, strict_min=0.0)
    if adapt_target is not None and not 0.0 < adapt_target < 1.0:
        chk.fail(f"{path}.adapt_target", f"must lie in (0, 1), got {adapt_target}")
        adapt_target = 0.3
    initial_step = chk.number(obj, "initial_step", path, default=0.5, strict_min=0.0)
    sample_hyper = chk.boolean(obj, "sample_hyper", path, default=True)
    sample_sigma2 = chk.boolean(obj, "sample_sigma2", path, default=True)
    sample_theta = obj.get("sample_theta", None)
    if sample_theta is not None and not isinstance(sample_theta, bool):
        chk.fail(f"{path}.sample_theta", f"expected true/false/null, got {sample_theta!r}")
        sample_theta = None
    audit_every = chk.integer(obj, "audit_every", path, default=1000, minimum=0)
    try:
        return McmcConfig(
            iterations=iterations, burn_in=burn_in, thin=thin, chains=chains,
            seed=seed, adapt_target=adapt_target, initial_step=initial_step,
            sample_hyper=sample_hyper, sample_sigma2=sample_sigma2,
            sample_theta=sample_theta, theta0=theta0, audit_every=audit_every,
            grid_points=grid_points,
        )
    except ValueError as exc:
        chk.fail(path, str(exc))
        return McmcConfig(seed=seed)


def _parse_synthetic(chk: _Checker, obj: dict, path: str) -> SyntheticSpec | None:
    allowed = {"simulator", "domain_bounds", "theta_priors", "param_names",
               "n_sim", "n_obs", "noise_sd", "truth"}
    chk.known_keys(obj, allowed, path)
    sim = obj.get("simulator")
    if not isinstance(sim, dict) or sim.get("kind") not in ("analytic_dipole", "drift_testbed"):
        chk.fail(f"{path}.simulator",
                 "required object with kind 'analytic_dipole' or 'drift_testbed'")
        return None
    bounds_raw = obj.get("domain_bounds")
    bounds: list[tuple[float, float]] = []
    if not isinstance(bounds_raw, list) or not bounds_raw:
        chk.fail(f"{path}.domain_bounds", "required non-empty list of [lo, hi] pairs")
    else:
        for j, b in enumerate(bounds_raw):
            if (not isinstance(b, list) or len(b) != 2
                    or not all(isinstance(v, (int, float)) for v in b) or b[0] >= b[1]):
                chk.fail(f"{path}.domain_bounds[{j}]", f"expected [lo, hi] with lo < hi, got {b!r}")
            else:
                bounds.append((float(b[0]), float(b[1])))
    priors_raw = obj.get("theta_priors")
    theta_priors: list[Prior] = []
    if not isinstance(priors_raw, list) or not priors_raw:
        chk.fail(f"{path}.theta_priors", "required non-empty list of prior objects")
    else:
        for j, p in enumerate(priors_raw):
            prior = chk.prior(p, f"{path}.theta_priors[{j}]")
            if prior is not None:
                theta_priors.append(prior)
    n_sim = chk.integer(obj, "n_sim", path, default=43, minimum=2)
    n_obs = chk.integer(obj, "n_obs", path, default=5, minimum=1)
    noise_sd = chk.number(obj, "noise_sd", path, default=0.0, minimum=0.0)

    truth_raw = obj.get("truth")
    truth = None
    if not isinstance(truth_raw, dict):
        chk.fail(f"{path}.truth", "required object with theta0 and drifts")
    else:
        chk.known_keys(truth_raw, {"theta0", "drifts"}, f"{path}.truth")
        theta0 = truth_raw.get("theta0")
        drifts_raw = truth_raw.get("drifts")
        ok = True
        if (not isinstance(theta0, list)
                or not all(isinstance(v, (int, float)) for v in theta0)):
            chk.fail(f"{path}.truth.theta0", "required list of numbers")
            ok = False
        if not isinstance(drifts_raw, list):
            chk.fail(f"{path}.truth.drifts", "required list of drift objects")
            ok = False
        drifts = []
        if ok:
            for j, d in enumerate(drifts_raw):
                try:
                    drifts.append(DriftFunction.from_dict(d))
                except (ValueError, TypeError, KeyError) as exc:
                    chk.fail(f"{path}.truth.drifts[{j}]", str(exc))
                    ok = False
        if ok and len(drifts) != len(theta0):
            chk.fail(f"{path}.truth.drifts",
                     f"need one drift per parameter ({len(theta0)}), got {len(drifts)}")
            ok = False
        if ok:
            try:
                truth = DriftTruth(theta0=np.asarray(theta0, float), drifts=tuple(drifts))
            except ValueError as exc:
                chk.fail(f"{path}.truth", str(exc))
    names = obj.get("param_names", [])
    if names and (not isinstance(names, list) or not all(isinstance(n, str) for n in names)):
        chk.fail(f"{path}.param_names", "expected a list of strings")
        names = []
    if truth is None or not bounds or len(theta_priors) != len(priors_raw or []):
        return None
    if names and len(names) != len(theta_priors):
        chk.fail(f"{path}.param_names",
                 f"expected {len(theta_priors)} names, got {len(names)}")
    return SyntheticSpec(
        simulator=sim,
        domain_bounds=tuple(bounds),
        theta_priors=tuple(theta_priors),
        n_sim=n_sim,
        n_obs=n_obs,
        noise_sd=noise_sd,
        truth=truth,
        param_names=tuple(names),
    )


def _parse_priors(chk: _Checker, obj: dict, path: str,
                  theta_default: tuple[Prior, ...] | None) -> CalibrationPriors:
    allowed = {"field_variance", "field_lengthscale", "eta_variance",
               "eta_lengthscale", "noise", "theta"}
    chk.known_keys(obj, allowed, path)
    defaults = CalibrationPriors()
    out = {}
    for key in ("field_variance", "field_lengthscale", "eta_variance",
                "eta_lengthscale", "noise"):
        if key in obj:
            p = chk.prior(obj[key], f"{path}.{key}")
            out[key] = p if p is not None else getattr(defaults, key)
        else:
            out[key] = getattr(defaults, key)
    if out["noise"].kind != "inverse_gamma":
        chk.fail(f"{path}.noise", "noise prior must be inverse_gamma")
        out["noise"] = defaults.noise
    theta = theta_default
    if "theta" in obj:
        raw = obj["theta"]
        if not isinstance(raw, list):
            chk.fail(f"{path}.theta", "expected a list of prior objects")
        else:
            parsed = [chk.prior(p, f"{path}.theta[{j}]") for j, p in enumerate(raw)]
            if all(p is not None for p in parsed):
                theta = tuple(parsed)
    return CalibrationPriors(theta=theta, **out)


_TOP_KEYS = {
    "mode", "out_dir", "seed", "dataset", "synthetic", "emulator", "priors",
    "theta0", "mcmc", "koh", "grid_points", "trajectories", "predictive_draws",
}


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration.

    Raises :class:`ConfigError` listing every violation with its path.
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
    seed = chk.integer(raw, "seed", "", default=0)

    dataset_path = raw.get("dataset")
    if dataset_path is not None and not isinstance(dataset_path, str):
        chk.fail("dataset", f"expected a file path string, got {dataset_path!r}")
        dataset_path = None
    synthetic = None
    if "synthetic" in raw:
        if not isinstance(raw["synthetic"], dict):
            chk.fail("synthetic", "expected an object")
        else:
            synthetic = _parse_synthetic(chk, raw["synthetic"], "synthetic")
    if dataset_path is None and "synthetic" not in raw:
        chk.fail("dataset", "either 'dataset' or 'synthetic' must be provided")
    if mode == "generate" and "synthetic" not in raw:
        chk.fail("synthetic", "mode=generate requires a synthetic block")
    if mode == "compare" and "koh" not in raw:
        chk.fail("koh", "mode=compare requires a koh settings block")

    emu_raw = raw.get("emulator", {})
    emulator = EmulatorSettings()
    if not isinstance(emu_raw, dict):
        chk.fail("emulator", "expected an object")
    else:
        chk.known_keys(emu_raw, {"init_variance", "init_lengthscale", "nugget", "budget"},
                       "emulator")
        emulator = EmulatorSettings(
            init_variance=chk.number(emu_raw, "init_variance", "emulator",
                                     default=1.0, strict_min=0.0),
            init_lengthscale=chk.number(emu_raw, "init_lengthscale", "emulator",
                                        default=0.4, strict_min=0.0),
            nugget=chk.number(emu_raw, "nugget", "emulator", default=1e-8, minimum=0.0),
            budget=chk.integer(emu_raw, "budget", "emulator", default=150, minimum=1),
        )

    theta_default = synthetic.theta_priors if synthetic is not None else None
    priors_raw = raw.get("priors", {})
    if not isinstance(priors_raw, dict):
        chk.fail("priors", "expected an object")
        priors_raw = {}
    priors = _parse_priors(chk, priors_raw, "priors", theta_default)

    theta0 = raw.get("theta0")
    if theta0 is not None:
        if (not isinstance(theta0, list)
                or not all(isinstance(v, (int, float)) for v in theta0)):
            chk.fail("theta0", "expected a list of numbers")
            theta0 = None
        else:
            theta0 = tuple(float(v) for v in theta0)
    if theta0 is None and synthetic is not None:
        theta0 = tuple(float(v) for v in synthetic.truth.theta0)

    grid_points = chk.integer(raw, "grid_points", "", default=101, minimum=1)
    trajectories = chk.integer(raw, "trajectories", "", default=20, minimum=0)
    predictive_draws = chk.integer(raw, "predictive_draws", "", default=2000, minimum=1)

    mcmc_raw = raw.get("mcmc", {})
    if not isinstance(mcmc_raw, dict):
        chk.fail("mcmc", "expected an object")
        mcmc_raw = {}
    mcmc = _parse_mcmc(chk, mcmc_raw, "mcmc", seed, theta0, grid_points)
    koh_mcmc = None
    if "koh" in raw:
        if not isinstance(raw["koh"], dict):
            chk.fail("koh", "expected an object")
        else:
            # fixed offset keeps the two calibrators on distinct seed streams
            koh_mcmc = _parse_mcmc(chk, raw["koh"], "koh", seed + 1_000_003,
                                   theta0, grid_points)

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
        trajectories=trajectories,
        predictive_draws=predictive_draws,
        raw=raw,
    )
