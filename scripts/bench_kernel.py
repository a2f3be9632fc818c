"""Micro-benchmark of the squared-exponential kernel builder (opt-in, pytest-benchmark).

Times ``gp.build_covariance`` on D = 4 inputs (the dipole problem's emulator
dimension) at the shapes the calibration pipeline builds, next to the
(G, n, D) broadcast formula it replaced. Not collected by the test suite;
run it explicitly:

    PYTHONPATH=src python -m pytest scripts/bench_kernel.py
"""

import numpy as np
import pytest

from driftcal.gp import KernelParams, build_covariance

SHAPES = {
    "posterior_grid_201x160": (201, 160),
    "tuning_self_160x160": (160, None),
    "combined_sampler_20x160": (20, 160),
    "summary_grid_101x43": (101, 43),
    "headline_sampler_5x43": (5, 43),
}
PARAMS = KernelParams(1.3, [0.3, 0.5, 0.7, 0.9], nugget=1e-8)


def broadcast_covariance(a, b, params):
    """The kernel as built before: one (G, n, D) array reduced over its last axis."""
    B = a if b is None else b
    diff = (a[:, None, :] - B[None, :, :]) / params.lengthscales
    K = params.variance_scale * np.exp(-(diff * diff).sum(axis=2))
    if b is None:
        K.flat[:: K.shape[0] + 1] += params.nugget
    return K


@pytest.mark.parametrize("build", [build_covariance, broadcast_covariance],
                         ids=["dimension_major", "broadcast"])
@pytest.mark.parametrize("shape", list(SHAPES))
def test_kernel(benchmark, shape, build):
    g, n = SHAPES[shape]
    rng = np.random.default_rng(0)
    A = rng.random((g, PARAMS.ndim))
    B = None if n is None else rng.random((n, PARAMS.ndim))
    K = benchmark(build, A, B, PARAMS)
    assert np.array_equal(K, broadcast_covariance(A, B, PARAMS))
