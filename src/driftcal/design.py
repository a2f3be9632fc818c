"""Priors, Latin-hypercube designs, and unit-interval scaling utilities."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Prior",
    "latin_hypercube",
    "scale_design",
    "to_unit",
    "from_unit",
]

_LOG_2PI = math.log(2.0 * math.pi)
_PPF_CLIP = 1e-15

# the named parameters (p1, p2) of each prior kind, as configs spell them
_PARAM_NAMES = {
    "uniform": ("lo", "hi"),
    "normal": ("mean", "sd"),
    "inverse_gamma": ("shape", "scale"),
    "log_normal": ("mu", "sigma"),
}


@dataclass(frozen=True)
class Prior:
    """One-dimensional prior; kind is uniform, normal, inverse_gamma or log_normal.

    ``p1``/``p2`` hold (lo, hi), (mean, sd), (shape, scale) or (mu, sigma)
    depending on the kind. Build instances through the named constructors.
    """

    kind: str
    p1: float
    p2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p1", float(self.p1))
        object.__setattr__(self, "p2", float(self.p2))
        if self.kind not in _PARAM_NAMES:
            raise ValueError(f"unknown prior kind {self.kind!r}")
        if not (math.isfinite(self.p1) and math.isfinite(self.p2)):
            raise ValueError("prior parameters must be finite")
        if self.kind == "uniform" and self.p1 > self.p2:
            raise ValueError(f"uniform prior needs lo <= hi, got ({self.p1}, {self.p2})")
        if self.kind == "normal" and self.p2 <= 0:
            raise ValueError("normal prior needs sd > 0")
        if self.kind == "inverse_gamma" and (self.p1 <= 0 or self.p2 <= 0):
            raise ValueError("inverse_gamma prior needs shape > 0 and scale > 0")
        if self.kind == "log_normal" and self.p2 <= 0:
            raise ValueError("log_normal prior needs sigma > 0")

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "Prior":
        return cls("uniform", lo, hi)

    @classmethod
    def normal(cls, mean: float, sd: float) -> "Prior":
        return cls("normal", mean, sd)

    @classmethod
    def inverse_gamma(cls, shape: float, scale: float) -> "Prior":
        return cls("inverse_gamma", shape, scale)

    @classmethod
    def log_normal(cls, mu: float, sigma: float) -> "Prior":
        return cls("log_normal", mu, sigma)

    def logpdf(self, x: float) -> float:
        x = float(x)
        if self.kind == "uniform":
            lo, hi = self.p1, self.p2
            if lo == hi:
                return 0.0 if x == lo else -math.inf
            return -math.log(hi - lo) if lo <= x <= hi else -math.inf
        if self.kind == "normal":
            z = (x - self.p1) / self.p2
            return -0.5 * z * z - math.log(self.p2) - 0.5 * _LOG_2PI
        if x <= 0:
            return -math.inf
        if self.kind == "inverse_gamma":
            a, b = self.p1, self.p2
            return a * math.log(b) - math.lgamma(a) - (a + 1.0) * math.log(x) - b / x
        mu, sig = self.p1, self.p2
        z = (math.log(x) - mu) / sig
        return -math.log(x) - math.log(sig) - 0.5 * _LOG_2PI - 0.5 * z * z

    def ppf(self, q) -> np.ndarray | float:
        """Inverse CDF; ``q`` is clipped to [1e-15, 1 - 1e-15] for every kind, uniform included.

        ``scipy.special`` is imported on first use, so a run that never asks
        for a quantile does not load it.
        """
        q = np.clip(np.asarray(q, dtype=float), _PPF_CLIP, 1.0 - _PPF_CLIP)
        if self.kind == "uniform":
            out = self.p1 + q * (self.p2 - self.p1)
        elif self.kind == "inverse_gamma":
            from scipy.special import gammainccinv

            out = self.p2 * (1.0 / gammainccinv(self.p1, q))
        else:
            from scipy.special import ndtri

            z = self.p1 + self.p2 * ndtri(q)
            out = z if self.kind == "normal" else np.exp(z)
        return float(out) if np.ndim(out) == 0 else out

    def mean(self) -> float:
        if self.kind == "uniform":
            return 0.5 * (self.p1 + self.p2)
        if self.kind == "normal":
            return self.p1
        if self.kind == "inverse_gamma":
            return self.p2 / (self.p1 - 1.0) if self.p1 > 1.0 else math.inf
        return math.exp(self.p1 + 0.5 * self.p2**2)

    def median(self) -> float:
        """``float(ppf(0.5))``; closed form for the normal and log-normal kinds."""
        if self.kind == "normal":
            return self.p1 + 0.0  # ppf's p1 + p2 * ndtri(0.5), with ndtri(0.5) == 0.0
        if self.kind == "log_normal":
            return float(np.exp(self.p1))
        return float(self.ppf(0.5))

    @classmethod
    def from_dict(cls, d: dict) -> "Prior":
        kind = d.get("kind")
        names = _PARAM_NAMES.get(kind)
        if names is None:
            raise ValueError(f"unknown prior kind {kind!r}")
        missing = [n for n in names if n not in d]
        if missing:
            raise ValueError(f"prior {kind!r} missing parameters {missing}")
        return cls(kind, d[names[0]], d[names[1]])


def latin_hypercube(n: int, d: int, seed: int) -> np.ndarray:
    """Stratified n-by-d design on [0, 1): each column hits every width-1/n bin once.

    Bin permutation and in-bin jitter both derive from the single seed.
    """
    if n < 1 or d < 1:
        raise ValueError(f"latin_hypercube needs n >= 1 and d >= 1, got n={n}, d={d}")
    rng = np.random.default_rng(seed)
    out = np.empty((n, d))
    for j in range(d):
        perm = rng.permutation(n)
        out[:, j] = (perm + rng.uniform(size=n)) / n
    return out


def scale_design(unit: np.ndarray, domain_bounds, theta_priors) -> np.ndarray:
    """Map a unit design to physical units: x columns affinely, theta via prior ppf."""
    U = np.atleast_2d(np.asarray(unit, dtype=float))
    if U.min() < 0.0 or U.max() >= 1.0:
        raise ValueError("unit design entries must lie in [0, 1)")
    dx = len(domain_bounds)
    d = dx + len(theta_priors)
    if U.shape[1] != d:
        raise ValueError(f"design has {U.shape[1]} columns, bounds and priors give {d}")
    out = np.empty_like(U)
    out[:, :dx] = from_unit(U[:, :dx], domain_bounds)
    for k, prior in enumerate(theta_priors):
        out[:, dx + k] = prior.ppf(U[:, dx + k])
    return out


def _columns(values, bounds) -> np.ndarray:
    """``values`` as a float matrix, checked to have one column per (lo, hi) bound."""
    if type(values) is np.ndarray and values.ndim == 2 and values.dtype == np.float64:
        V = values  # what the conversions below would return
    else:
        V = np.atleast_2d(np.asarray(values, dtype=float))
    if V.shape[1] != len(bounds):
        raise ValueError(f"{V.shape[1]} columns for {len(bounds)} (lo, hi) bounds")
    return V


@lru_cache(maxsize=32)
def _cached_lo_width(bounds: tuple) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = zip(*bounds)
    lo = np.array(lo, dtype=float)
    width = np.array(hi, dtype=float) - lo
    lo.setflags(write=False)
    width.setflags(write=False)
    return lo, width


def _lo_width(bounds) -> tuple[np.ndarray, np.ndarray]:
    """Per-column lower bounds and widths ``hi - lo`` as read-only float rows.

    They are computed once per tuple of bounds, as datasets and sample sets
    hold them; other sequences of pairs are converted on every call. Equal
    tuples share one entry, so a bound of -0.0 may be read as 0.0: that
    changes at most the sign of a zero result.
    """
    try:
        return _cached_lo_width(bounds)
    except TypeError:  # unhashable, such as a list of pairs
        return _cached_lo_width.__wrapped__(bounds)


def to_unit(values, bounds) -> np.ndarray:
    """Affine map of physical columns onto [0, 1] using per-column (lo, hi) bounds."""
    V = _columns(values, bounds)
    lo, width = _lo_width(bounds)
    return (V - lo) / width


def from_unit(unit, bounds) -> np.ndarray:
    """Inverse of :func:`to_unit`."""
    U = _columns(unit, bounds)
    lo, width = _lo_width(bounds)
    return lo + U * width
