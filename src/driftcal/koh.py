"""Baseline calibrator (Kennedy & O'Hagan 2001): one theta plus an additive discrepancy GP.

The observation model is y_i = eta(x_i, theta) + delta(x_i) + e_i with one
calibration-parameter vector shared across the domain and a zero-mean GP
discrepancy represented at the observation inputs. It runs the embedded
calibrator's engine with the drift fields off, the theta block on and the
additive field present, so the two formulations are compared on equal
footing and :func:`driftcal.embedded.embedded_log_posterior` is the oracle
of both.
"""

from __future__ import annotations

from .embedded import CalibrationPriors, McmcConfig, _run_chains, gibbs_sigma2, mh_accept
from .samples import PosteriorSamples
from .simulators import CalibrationDataset

__all__ = ["run_koh"]


def run_koh(
    data: CalibrationDataset,
    emulator,
    priors: CalibrationPriors,
    mcmc_config: McmcConfig,
    timing: dict | None = None,
) -> PosteriorSamples:
    """MH-within-Gibbs sweep for the baseline model.

    Per iteration: theta random-walk block on the normalized box,
    discrepancy knot block, discrepancy hyperparameter block, conjugate
    Gibbs noise update. ``sample_theta`` None resolves to True here (the
    drift fields are off); False clamps theta at its initial value and
    leaves "theta" out of the acceptance rates.
    Deterministic for a fixed seed; emits the same sample layout as the
    embedded calibrator with theta draws always stored (the engine stores
    them whenever the drift fields are off) and the discrepancy under "eta".
    A ``timing`` dict receives the chain count and each block's mean step
    time in microseconds.
    """
    # this module's mh_accept/gibbs_sigma2 bindings make every decision
    return _run_chains(
        data, emulator, priors, mcmc_config, "koh", timing, drift=False, additive=True,
        accept=mh_accept, gibbs=gibbs_sigma2,
    )
