"""The benchmark's binding sets, checked on small traced runs of its workloads.

``perfbench/workloads.py`` names, per workload, the driftcal bindings a run
must reach and those it must never reach; the benchmark refuses a run that
breaks either set. These runs are far too short for the quality gates, so
only the bindings are asserted. ``perfbench``'s own tests check
``dipole_compare``'s set.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402


def traced(run):
    """The calls per binding of ``run(tracer)``, with every binding the benchmark traces wrapped."""
    with spans.Tracer() as tracer:
        workloads.install(tracer, full=True)
        run(tracer)
    return tracer.sites


def assert_bindings(sites, workload):
    spec = workloads.WORKLOADS[workload]
    assert {site for site in spec.reached if sites[site] == 0} == set()
    assert {site: sites[site] for site in spec.bypassed if sites[site]} == {}


def test_exact_single_reaches_its_bindings_and_bypasses_the_gp(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "EXACT_MCMC",
                        {"iterations": 300, "burn_in": 100, "thin": 2, "chains": 1})
    sites = traced(lambda tracer: workloads.run_exact_single(7, tmp_path / "run", tracer))
    assert_bindings(sites, "exact_single")


def test_combined_dense_reaches_its_bindings(tmp_path):
    raw = workloads.combined_dense_config(7, tmp_path / "run")
    raw["emulator"] = {"budget": 40}
    raw["synthetic"].update(n_sim=40, n_obs=8)
    # in combined mode the GP is queried at arbitrary inputs only by the audit
    raw["mcmc"] = {"iterations": 200, "burn_in": 100, "thin": 2, "chains": 2,
                   "audit_every": 100}
    raw["grid_points"] = 21
    sites = traced(lambda tracer: workloads._run_config(raw, tracer,
                                                        workloads.MANY_POINTS_INSIDE))
    assert_bindings(sites, "combined_dense")
