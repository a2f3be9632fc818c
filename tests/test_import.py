import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
README = SRC.parent / "README.md"


def run_fresh(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    return out.stdout.strip()


def test_import_loads_no_scipy_subpackage_and_no_lazy_numpy_module():
    # scipy.stats costs about as much to import as the rest of driftcal together, and
    # scipy.linalg's package init loads numpy.f2py, numpy.ma and numpy.testing; the
    # LAPACK extension module and the OpenBLAS pools are found without scipy's own init
    names = ("scipy", "scipy.linalg", "scipy.optimize", "scipy.special", "scipy.stats",
             "numpy.f2py", "numpy.testing", "numpy.ma")
    code = f"import sys, driftcal, driftcal.cli; print([n for n in {names} if n in sys.modules])"
    assert run_fresh(code) == "[]"


@pytest.mark.parametrize("first", ["driftcal.gp", "scipy.linalg.lapack"])
def test_gp_solves_call_scipy_linalg_lapack_routines_whichever_loads_first(first):
    code = f"""
import importlib
importlib.import_module({first!r})
import driftcal.gp as gp, scipy.linalg.lapack as lapack
print(gp.dtrtrs is lapack.dtrtrs, gp.dpotrs is lapack.dpotrs)
"""
    assert run_fresh(code) == "True True"


def test_lapack_lookup_in_a_directory_without_the_extension_falls_back_to_scipy_linalg(tmp_path):
    code = f"""
import pathlib, sys
import driftcal.gp as gp
before = "scipy.linalg" in sys.modules
dpotrs, dtrtrs = gp._lapack_routines(pathlib.Path({str(tmp_path)!r}))
import scipy.linalg.lapack as lapack
print(before, "scipy.linalg" in sys.modules, dpotrs is gp.dpotrs is lapack.dpotrs,
      dtrtrs is gp.dtrtrs is lapack.dtrtrs)
"""
    assert run_fresh(code) == "False True True True"


def test_gp_tuning_fitting_and_prediction_load_no_scipy_package():
    # the tuner's Nelder-Mead is driftcal's own, and the solves call the LAPACK
    # extension module that driftcal.gp loads alone
    code = """
import sys
import numpy as np
from driftcal import gp
x = np.random.default_rng(0).random((20, 2))
train = gp.TrainingSet.from_raw(x, np.sin(6 * x).sum(axis=1))
params = gp.optimize_emulator(train, gp.KernelParams(1.0, [0.5, 0.5], nugget=1e-8), budget=60)
gp.predict(gp.fit_gp(train, params), x[:3] + 0.01)
print([n for n in ("scipy", "scipy.linalg", "scipy.optimize") if n in sys.modules])
"""
    assert run_fresh(code) == "[]"


def test_tuner_and_inverse_cdfs_load_on_first_use():
    # an exact-emulator run needs neither the GP tuner (scipy.optimize) nor the
    # inverse CDFs (scipy.special), and its solves need no scipy.linalg; each
    # costs import time and memory
    code = """
import sys
import driftcal, driftcal.cli
from driftcal import embedded, problems
from driftcal.design import from_unit
from driftcal.gp import ExactEmulator

def loaded():
    return [name in sys.modules for name in ("scipy.linalg", "scipy.optimize", "scipy.special")]

print(loaded())
ds = problems.dipole_dataset(seed=3)
sim, spec, _ = problems.dipole_problem(seed=3)

def dipole(row):
    x = from_unit(row[None, :1], ds.domain_bounds)[0]
    return sim.simulate(x, from_unit(row[None, 1:], ds.theta_bounds)[0])

priors = embedded.CalibrationPriors(theta=spec.theta_priors)
mcmc = embedded.McmcConfig(iterations=40, burn_in=20, thin=2, chains=1, seed=3)
samples = embedded.run_integrated_delta(ds, ExactEmulator(dipole), priors, mcmc)
embedded.posterior_predictive(samples, ExactEmulator(dipole), ds.obs_x)
print(loaded())
"""
    assert run_fresh(code).splitlines() == ["[False, False, False]"] * 2


def test_import_leaves_blas_pool_sizes_alone():
    # both OpenBLAS pools are set to two threads before driftcal is imported; the
    # controls are found as driftcal.process_settings finds them, but without importing it
    code = """
import ctypes, pathlib, numpy, scipy, scipy.linalg
pools = []
for package, suffix in ((numpy, "64_"), (scipy, "")):
    libs = pathlib.Path(package.__file__).parent.parent / f"{package.__name__}.libs"
    for path in libs.glob("libscipy_openblas*.so*"):
        lib = ctypes.CDLL(str(path))
        pools.append((getattr(lib, f"scipy_openblas_get_num_threads{suffix}"),
                      getattr(lib, f"scipy_openblas_set_num_threads{suffix}")))
for _, set_ in pools:
    set_(2)
before = [get() for get, _ in pools]
import driftcal, driftcal.cli
print(len(pools), before == [get() for get, _ in pools] == [2] * len(pools))
"""
    count, unchanged = run_fresh(code).split()
    assert unchanged == "True"
    assert int(count) in (0, 2)


def test_every_name_in_a_module_all_resolves():
    # a deletion that leaves its name in an __all__ fails here, not at a user's import
    import driftcal
    exported = {}
    for info in pkgutil.iter_modules(driftcal.__path__):
        if info.name != "__main__":  # runs the command line on import
            module = importlib.import_module(f"driftcal.{info.name}")
            exported[info.name] = [n for n in getattr(module, "__all__", ())
                                   if not hasattr(module, n)]
    assert {"design", "embedded", "gp", "simulators"} <= set(exported)
    assert not any(exported.values()), exported


def test_readme_library_use_block_runs_as_written():
    # the block a reader copies: a renamed import or argument would break it silently
    section = README.read_text().split("## Library use", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert run_fresh(block)
