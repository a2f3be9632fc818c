"""Bayesian model calibration with drift fields embedded in a GP emulator.

Calibrators over a shared Gaussian-process engine and one sampler engine: a
baseline with a single parameter vector plus an additive output
discrepancy, an embedded formulation where every calibration parameter
carries its own input-dependent drift field fed through the emulator, and
their combination. One log-posterior, ``embedded_log_posterior``, serves
all three.
"""

from .config import ConfigError, RunConfig, parse_config
from .design import Prior, latin_hypercube, scale_design
from .diagnostics import coverage_2sd, effective_sample_size, rmse, split_rhat
from .embedded import (
    CalibrationPriors,
    ChainState,
    McmcConfig,
    embedded_log_posterior,
    gibbs_sigma2,
    mh_accept,
    posterior_predictive,
    run_combined,
    run_integrated_delta,
)
from .gp import (
    ExactEmulator,
    GPModel,
    KernelParams,
    PredictiveDistribution,
    TrainingSet,
    build_covariance,
    fit_gp,
    log_marginal_likelihood,
    optimize_emulator,
    predict,
)
from .koh import run_koh
from .runner import RunReport, StageError, emit_plot_data, orchestrate, recompute_report
from .samples import PosteriorSamples, load_samples, save_samples
from .simulators import (
    AnalyticDipole,
    BracketError,
    CalibrationDataset,
    CriticalSearchSpec,
    DriftFunction,
    DriftTestbed,
    DriftTruth,
    ResolutionError,
    SyntheticSpec,
    bisection_critical_search,
    eval_simulator,
    generate_dataset,
    load_dataset,
    save_dataset,
)

__version__ = "0.1.0"
