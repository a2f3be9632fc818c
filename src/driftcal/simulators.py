"""Synthetic simulator stand-ins, bisection threshold search, and dataset assembly.

The analytic dipole surrogate mimics a critical-stress response that decays
like 1/h in the domain variable with a bounded core-spreading correction,
so the full calibration pipeline can be exercised without an external
physics code. Externally computed runs arrive as a dataset file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .design import Prior, latin_hypercube, scale_design, to_unit

__all__ = [
    "BracketError",
    "ResolutionError",
    "AnalyticDipole",
    "DriftTestbed",
    "DriftFunction",
    "DriftTruth",
    "CriticalSearchSpec",
    "CalibrationDataset",
    "SyntheticSpec",
    "eval_simulator",
    "bisection_critical_search",
    "generate_dataset",
    "theta_bounds_from_priors",
    "save_dataset",
    "load_dataset",
]

DATASET_FORMAT = "driftcal-dataset v1"


class BracketError(ValueError):
    """Bisection bracket does not straddle the threshold."""


class ResolutionError(RuntimeError):
    """Bisection ran out of iterations before reaching the tolerance."""


@dataclass(frozen=True)
class AnalyticDipole:
    """Critical-stress surrogate  amplitude*mu/((1-nu)*h) + core-spreading term.

    theta = (mu, nu, l_c); x = (h,). The correction
    ``spread_weight * l_c * exp(-h/spread_length)`` is bounded, smooth, and
    decreasing in h, so the whole response is strictly decreasing in h.
    """

    amplitude: float = 1.0
    spread_weight: float = 0.5
    spread_length: float = 8.0

    def simulate(self, x: np.ndarray, theta: np.ndarray) -> float:
        h = float(x[0])
        mu, nu, l_c = (float(t) for t in theta[:3])
        if h <= 0:
            raise ValueError(f"dipole height must be positive, got {h}")
        lead = self.amplitude * mu / ((1.0 - nu) * h)
        spread = self.spread_weight * l_c * math.exp(-h / self.spread_length)
        return lead + spread


_TESTBED_FUNCTIONS: dict[str, Callable[[np.ndarray, np.ndarray], float]] = {
    "linear": lambda x, th: float(th[0] + th[1] * x[0]),
    "quadratic": lambda x, th: float(th[0] + th[1] * x[0] + th[2] * x[0] ** 2),
}
TESTBED_NAMES = tuple(_TESTBED_FUNCTIONS)


@dataclass(frozen=True)
class DriftTestbed:
    """Cheap smooth simulator f(x, theta) for pipeline tests; pick a named form
    or pass any callable."""

    fn: Callable[[np.ndarray, np.ndarray], float]
    name: str = "custom"

    @classmethod
    def named(cls, name: str = "linear") -> "DriftTestbed":
        if name not in _TESTBED_FUNCTIONS:
            raise ValueError(
                f"unknown testbed {name!r}; available: {sorted(_TESTBED_FUNCTIONS)}"
            )
        return cls(fn=_TESTBED_FUNCTIONS[name], name=name)

    def simulate(self, x: np.ndarray, theta: np.ndarray) -> float:
        return float(self.fn(np.asarray(x, float), np.asarray(theta, float)))


def eval_simulator(sim, x, theta) -> float:
    """Evaluate a simulator at one (x, theta) point, rejecting non-finite values."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(theta)):
        raise ValueError("simulator inputs must be finite")
    out = float(sim.simulate(x, theta))
    if not math.isfinite(out):
        raise ValueError(f"simulator returned non-finite output at x={x}, theta={theta}")
    return out


@dataclass(frozen=True)
class CriticalSearchSpec:
    """Bracket, resolution, and iteration cap for the critical-value search."""

    tau_min: float
    tau_max: float
    tolerance: float
    max_iter: int = 64

    def __post_init__(self) -> None:
        if not self.tau_min < self.tau_max:
            raise ValueError(f"need tau_min < tau_max, got ({self.tau_min}, {self.tau_max})")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


def bisection_critical_search(
    predicate: Callable[[float], bool],
    spec: CriticalSearchSpec,
    check_bracket: bool = True,
) -> float:
    """Locate the smallest tau where ``predicate`` flips False -> True.

    ``predicate(tau)`` must be monotone: False below the threshold (no
    motion), True at or above it. Each step evaluates the bracket midpoint
    and keeps the half that still straddles the flip, so the interior
    evaluation count never exceeds ceil(log2(span/tolerance)).
    ``check_bracket=False`` skips the two endpoint evaluations.
    """
    lo, hi = spec.tau_min, spec.tau_max
    if check_bracket:
        if predicate(lo):
            raise BracketError(
                f"predicate already true at tau_min={lo}; bracket does not straddle"
            )
        if not predicate(hi):
            raise BracketError(
                f"predicate still false at tau_max={hi}; bracket does not straddle"
            )
    span = hi - lo
    if span <= spec.tolerance:
        return 0.5 * (lo + hi)
    needed = math.ceil(math.log2(span / spec.tolerance))
    for _ in range(min(needed, spec.max_iter)):
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    if needed > spec.max_iter:
        raise ResolutionError(
            f"max_iter={spec.max_iter} exhausted; final bracket [{lo}, {hi}] wider "
            f"than tolerance {spec.tolerance}"
        )
    return 0.5 * (lo + hi)


# each drift kind and its parameter count
_DRIFT_ARITY = {"zero": 0, "exp_decay": 2}
DRIFT_KINDS = tuple(_DRIFT_ARITY)


@dataclass(frozen=True)
class DriftFunction:
    """Scalar drift d(x) on the normalized domain, in normalized theta units."""

    kind: str = "zero"
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.kind not in _DRIFT_ARITY:
            raise ValueError(f"unknown drift kind {self.kind!r}")
        if len(self.params) != _DRIFT_ARITY[self.kind]:
            raise ValueError(f"drift kind {self.kind!r} takes {_DRIFT_ARITY[self.kind]} "
                             f"params, got {len(self.params)}")

    @classmethod
    def zero(cls) -> "DriftFunction":
        return cls("zero", ())

    @classmethod
    def exp_decay(cls, amplitude: float, length: float) -> "DriftFunction":
        return cls("exp_decay", (amplitude, length))

    def __call__(self, x_norm) -> np.ndarray | float:
        x = np.asarray(x_norm, dtype=float)
        if self.kind == "zero":
            out = np.zeros_like(x)
        else:
            a, ell = self.params
            out = a * np.exp(-x / ell)
        return float(out) if np.ndim(out) == 0 else out

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": list(self.params)}

    @classmethod
    def from_dict(cls, d: dict) -> "DriftFunction":
        return cls(d["kind"], tuple(d.get("params", ())))


@dataclass(frozen=True)
class DriftTruth:
    """Ground-truth parameter drift: theta0 in physical units plus one drift
    function per parameter (normalized x in, normalized theta offset out)."""

    theta0: np.ndarray
    drifts: tuple[DriftFunction, ...]

    def __post_init__(self) -> None:
        t0 = np.atleast_1d(np.asarray(self.theta0, dtype=float))
        object.__setattr__(self, "theta0", t0)
        object.__setattr__(self, "drifts", tuple(self.drifts))
        if len(self.drifts) != t0.size:
            raise ValueError("need one drift function per parameter")

    def drift_at(self, x_norm: float) -> np.ndarray:
        """Normalized-theta offsets at one normalized x."""
        return np.array([d(x_norm) for d in self.drifts])

    def theta_at(self, x_norm: float, theta_bounds) -> np.ndarray:
        """Physical theta*(x) = theta0 + drift scaled by the theta box widths."""
        widths = np.array([hi - lo for lo, hi in theta_bounds])
        return self.theta0 + self.drift_at(x_norm) * widths

    def to_dict(self) -> dict:
        return {
            "theta0": self.theta0.tolist(),
            "drifts": [d.to_dict() for d in self.drifts],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DriftTruth":
        return cls(
            theta0=np.asarray(d["theta0"], dtype=float),
            drifts=tuple(DriftFunction.from_dict(f) for f in d["drifts"]),
        )


def theta_bounds_from_priors(priors) -> tuple[tuple[float, float], ...]:
    """Normalization box per parameter: prior bounds, or central 99%/3-sigma range."""
    out = []
    for p in priors:
        if p.kind == "uniform":
            out.append((p.p1, p.p2))
        elif p.kind == "normal":
            out.append((p.p1 - 3.0 * p.p2, p.p1 + 3.0 * p.p2))
        else:
            out.append((float(p.ppf(0.005)), float(p.ppf(0.995))))
    return tuple(out)


@dataclass(frozen=True)
class CalibrationDataset:
    """Observations (x, y) plus simulator design runs (x, theta, y_sim).

    ``truth`` optionally carries the generating drift for scoring synthetic
    recovery experiments; it is preserved through file round-trips.
    """

    obs_x: np.ndarray
    obs_y: np.ndarray
    sim_x: np.ndarray
    sim_theta: np.ndarray
    sim_y: np.ndarray
    domain_bounds: tuple[tuple[float, float], ...]
    theta_bounds: tuple[tuple[float, float], ...]
    noise_sd: float = 0.0
    truth: DriftTruth | None = None
    param_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        ox = np.atleast_2d(np.asarray(self.obs_x, dtype=float))
        oy = np.atleast_1d(np.asarray(self.obs_y, dtype=float))
        sx = np.atleast_2d(np.asarray(self.sim_x, dtype=float))
        st = np.atleast_2d(np.asarray(self.sim_theta, dtype=float))
        sy = np.atleast_1d(np.asarray(self.sim_y, dtype=float))
        db = tuple((float(lo), float(hi)) for lo, hi in self.domain_bounds)
        tb = tuple((float(lo), float(hi)) for lo, hi in self.theta_bounds)
        names = tuple(self.param_names) or tuple(f"theta{k}" for k in range(st.shape[1]))
        for attr, val in (
            ("obs_x", ox), ("obs_y", oy), ("sim_x", sx), ("sim_theta", st),
            ("sim_y", sy), ("domain_bounds", db), ("theta_bounds", tb),
            ("param_names", names),
        ):
            object.__setattr__(self, attr, val)
        if oy.size < 1:
            raise ValueError("need at least 1 observation")
        if sy.size < 2:
            raise ValueError("need at least 2 simulator runs")
        if ox.shape != (oy.size, len(db)) or sx.shape != (sy.size, len(db)):
            raise ValueError("x arrays do not match the declared domain dimension")
        if st.shape != (sy.size, len(tb)):
            raise ValueError("theta array does not match the declared parameter count")
        if len(names) != len(tb):
            raise ValueError("param_names length does not match theta dimension")
        if "eta" in names or len(set(names)) != len(names):
            raise ValueError(f"param_names must be distinct and not 'eta' (the additive "
                             f"field's name), got {list(names)}")
        for kind, bounds in (("domain", db), ("theta", tb)):
            for j, (lo, hi) in enumerate(bounds):
                if not lo < hi:
                    raise ValueError(f"{kind} bound {j} needs lo < hi, got ({lo}, {hi})")
        eps = 1e-9
        for j, (lo, hi) in enumerate(db):
            allx = np.r_[ox[:, j], sx[:, j]]
            if allx.min() < lo - eps or allx.max() > hi + eps:
                raise ValueError(f"x column {j} outside domain bounds ({lo}, {hi})")
        for k, (lo, hi) in enumerate(tb):
            if st[:, k].min() < lo - eps or st[:, k].max() > hi + eps:
                raise ValueError(f"theta column {k} outside bounds ({lo}, {hi})")

    @property
    def n_obs(self) -> int:
        return int(self.obs_y.size)

    @property
    def n_sim(self) -> int:
        return int(self.sim_y.size)

    @property
    def dx(self) -> int:
        return len(self.domain_bounds)

    @property
    def dtheta(self) -> int:
        return len(self.theta_bounds)

    def obs_x_unit(self) -> np.ndarray:
        return to_unit(self.obs_x, self.domain_bounds)

    def sim_inputs_unit(self) -> np.ndarray:
        """Joint (x, theta) simulator inputs mapped onto the unit cube."""
        return np.hstack(
            [to_unit(self.sim_x, self.domain_bounds), to_unit(self.sim_theta, self.theta_bounds)]
        )


@dataclass(frozen=True)
class SyntheticSpec:
    """A synthetic calibration problem: simulator, design box, truth, budget, noise.

    ``simulator`` answers ``simulate(x, theta)``. The design draws ``n_sim``
    runs over the 1-D ``domain_bounds`` and the ``theta_priors``; ``n_obs``
    observations of the drifted ``truth`` carry N(0, noise_sd^2) noise.
    """

    simulator: object
    domain_bounds: tuple[tuple[float, float], ...]
    theta_priors: tuple[Prior, ...]
    truth: DriftTruth
    n_sim: int = 43
    n_obs: int = 5
    noise_sd: float = 0.0
    param_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        db = tuple((float(lo), float(hi)) for lo, hi in self.domain_bounds)
        object.__setattr__(self, "domain_bounds", db)
        object.__setattr__(self, "theta_priors", tuple(self.theta_priors))
        object.__setattr__(self, "param_names", tuple(self.param_names))
        if len(db) != 1:
            raise ValueError(f"the observation grid needs a 1-D domain, got {len(db)} "
                             f"(lo, hi) pairs")
        for lo, hi in db:
            if not lo < hi:
                raise ValueError(f"domain bound ({lo}, {hi}) needs lo < hi")
        if self.n_sim < 2:
            raise ValueError(f"n_sim must be >= 2, got {self.n_sim}")
        if self.n_obs < 1:
            raise ValueError(f"n_obs must be >= 1, got {self.n_obs}")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be non-negative")


def generate_dataset(spec: SyntheticSpec, seed: int) -> CalibrationDataset:
    """Assemble a synthetic calibration dataset.

    Simulator runs come from a Latin-hypercube design over (x, theta);
    observations are the simulator at the drifted truth theta0 + d(x) plus
    noise, at ``spec.n_obs`` inputs evenly spaced over the domain.
    """
    ss = np.random.SeedSequence(seed)
    lhs_seed, noise_seed = (int(s.generate_state(1)[0]) for s in ss.spawn(2))

    unit = latin_hypercube(spec.n_sim, 1 + len(spec.theta_priors), lhs_seed)
    phys = scale_design(unit, spec.domain_bounds, spec.theta_priors)
    sim_x, sim_theta = phys[:, :1], phys[:, 1:]
    sim = spec.simulator
    sim_y = np.array([eval_simulator(sim, x, th) for x, th in zip(sim_x, sim_theta)])

    theta_bounds = theta_bounds_from_priors(spec.theta_priors)
    [(lo, hi)] = spec.domain_bounds
    obs_x = np.linspace(lo, hi, spec.n_obs)[:, None]

    rng = np.random.default_rng(noise_seed)
    obs_y = np.empty(obs_x.shape[0])
    for i, x in enumerate(obs_x):
        x_norm = float(to_unit(x[None, :], spec.domain_bounds)[0, 0])
        theta_true = spec.truth.theta_at(x_norm, theta_bounds)
        obs_y[i] = eval_simulator(sim, x, theta_true) + rng.normal(0.0, spec.noise_sd)

    return CalibrationDataset(
        obs_x=obs_x,
        obs_y=obs_y,
        sim_x=sim_x,
        sim_theta=sim_theta,
        sim_y=sim_y,
        domain_bounds=spec.domain_bounds,
        theta_bounds=theta_bounds,
        noise_sd=spec.noise_sd,
        truth=spec.truth,
        param_names=spec.param_names,
    )


def save_dataset(ds: CalibrationDataset, path) -> None:
    """Write the delimited dataset format: comment headers, then one record per point.

    Columns: role, x0..x{dx-1}, <param names>, y. Observation rows leave the
    theta cells empty.
    """
    lines = [f"# format: {DATASET_FORMAT}"]
    lines.append(f"# domain_bounds: {json.dumps([list(b) for b in ds.domain_bounds])}")
    lines.append(f"# theta_bounds: {json.dumps([list(b) for b in ds.theta_bounds])}")
    lines.append(f"# noise_sd: {ds.noise_sd!r}")
    if ds.truth is not None:
        lines.append(f"# truth: {json.dumps(ds.truth.to_dict())}")
    xcols = [f"x{j}" for j in range(ds.dx)]
    lines.append(",".join(["role", *xcols, *ds.param_names, "y"]))
    for i in range(ds.n_sim):
        cells = ["sim"]
        cells += [f"{v:.17g}" for v in ds.sim_x[i]]
        cells += [f"{v:.17g}" for v in ds.sim_theta[i]]
        cells.append(f"{ds.sim_y[i]:.17g}")
        lines.append(",".join(cells))
    for i in range(ds.n_obs):
        cells = ["obs"]
        cells += [f"{v:.17g}" for v in ds.obs_x[i]]
        cells += [""] * ds.dtheta
        cells.append(f"{ds.obs_y[i]:.17g}")
        lines.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dataset(path) -> CalibrationDataset:
    """Read a dataset written by :func:`save_dataset`."""
    headers: dict[str, str] = {}
    rows: list[list[str]] = []
    with open(path) as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                key, _, val = line[1:].partition(":")
                headers[key.strip()] = val.strip()
            else:
                rows.append(line.split(","))
    if headers.get("format") != DATASET_FORMAT:
        raise ValueError(f"unrecognized dataset format tag {headers.get('format')!r}")
    missing = [key for key in ("domain_bounds", "theta_bounds") if key not in headers]
    if missing:
        raise ValueError(f"dataset file has no {' or '.join(missing)} header")
    if not rows:
        raise ValueError("dataset file has no column header or record rows")
    domain_bounds = tuple(tuple(b) for b in json.loads(headers["domain_bounds"]))
    theta_bounds = tuple(tuple(b) for b in json.loads(headers["theta_bounds"]))
    noise_sd = float(headers.get("noise_sd", "0.0"))
    truth = DriftTruth.from_dict(json.loads(headers["truth"])) if "truth" in headers else None

    columns = rows[0]
    dx = len(domain_bounds)
    param_names = tuple(columns[1 + dx : -1])
    sim_x, sim_theta, sim_y, obs_x, obs_y = [], [], [], [], []
    for cells in rows[1:]:
        role = cells[0]
        x = [float(v) for v in cells[1 : 1 + dx]]
        if role == "sim":
            sim_x.append(x)
            sim_theta.append([float(v) for v in cells[1 + dx : -1]])
            sim_y.append(float(cells[-1]))
        elif role == "obs":
            obs_x.append(x)
            obs_y.append(float(cells[-1]))
        else:
            raise ValueError(f"unknown record role {role!r}")
    return CalibrationDataset(
        obs_x=np.array(obs_x),
        obs_y=np.array(obs_y),
        sim_x=np.array(sim_x),
        sim_theta=np.array(sim_theta),
        sim_y=np.array(sim_y),
        domain_bounds=domain_bounds,
        theta_bounds=theta_bounds,
        noise_sd=noise_sd,
        truth=truth,
        param_names=param_names,
    )
