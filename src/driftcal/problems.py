"""Canonical synthetic calibration problems used by benchmarks and examples.

The dipole problem calibrates three parameters (an elastic amplitude, a
contraction ratio, a core-spreading length) of the analytic dipole
surrogate over a separation-distance domain; the drifted variant injects
decaying drift into the first two parameters and leaves the third alone,
concentrating discrepancy at small separations.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .design import Prior
from .simulators import (
    AnalyticDipole,
    CalibrationDataset,
    DriftFunction,
    DriftTruth,
    SyntheticSpec,
    generate_dataset,
)

__all__ = ["dipole_problem", "dipole_dataset", "DIPOLE_PARAM_NAMES"]

DIPOLE_PARAM_NAMES = ("mu", "nu", "l_c")

_DOMAIN = ((5.0, 40.0),)
_PRIORS = (
    Prior.uniform(35.0, 55.0),   # elastic amplitude
    Prior.uniform(0.28, 0.38),   # contraction ratio
    Prior.uniform(0.56, 2.88),   # core-spreading length
)
_THETA0 = (45.0, 0.33, 1.72)


def dipole_problem(n_sim: int = 43, seed: int = 0, drift: bool = True):
    """Simulator, problem spec, and ground truth for the dipole testbed.

    The spec carries 5 observations with noise sd 0.08. With ``drift=True``
    the first two parameters drift downward toward the small-separation end
    of the domain (amplitudes -0.30 and -0.20 of their normalization boxes,
    decay lengths 0.20 and 0.25 of the unit domain); the spreading length
    never drifts. ``seed`` is not read: :func:`generate_dataset` takes the
    design's seed. The triple and ``seed`` stay for ``perfbench``, which
    unpacks and indexes the result.
    """
    sim = AnalyticDipole(amplitude=1.0, spread_weight=0.5, spread_length=8.0)
    if drift:
        drifts = (
            DriftFunction.exp_decay(-0.30, 0.20),
            DriftFunction.exp_decay(-0.20, 0.25),
            DriftFunction.zero(),
        )
    else:
        drifts = (DriftFunction.zero(), DriftFunction.zero(), DriftFunction.zero())
    truth = DriftTruth(theta0=np.asarray(_THETA0), drifts=drifts)
    spec = SyntheticSpec(simulator=sim, domain_bounds=_DOMAIN, theta_priors=_PRIORS,
                         truth=truth, n_sim=n_sim, n_obs=5, noise_sd=0.08,
                         param_names=DIPOLE_PARAM_NAMES)
    return sim, spec, truth


def dipole_dataset(
    n_sim: int = 43,
    n_obs: int = 5,
    noise_sd: float = 0.08,
    seed: int = 0,
    drift: bool = True,
) -> CalibrationDataset:
    """Synthetic dipole dataset with the default 43-run / 5-observation budget."""
    spec = dipole_problem(n_sim=n_sim, drift=drift)[1]
    return generate_dataset(replace(spec, n_obs=n_obs, noise_sd=noise_sd), seed)
