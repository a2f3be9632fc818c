"""The benchmark's tracer, workload helpers and metric tables."""

import importlib.util
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

from driftcal import runner  # noqa: E402
from driftcal.problems import dipole_dataset, dipole_problem  # noqa: E402


def test_tracer_wraps_each_binding_and_restores_it():
    mod = types.ModuleType("pkg.fake")
    mod.f = lambda x: x + 1
    table = {"g": lambda x: 2 * x}
    original_f, original_g = mod.f, table["g"]
    with spans.Tracer() as tracer:
        tracer.wrap(mod, "f", "layer.f")
        tracer.wrap(table, "g", "layer.g", timed=False, site="table[g]")
        assert mod.f(1) == 2 and mod.f(2) == 3 and table["g"](3) == 6
    assert mod.f is original_f and table["g"] is original_g
    assert tracer.sites["fake.f"] == 2 and tracer.counts["layer.f"] == 2
    assert tracer.sites["table[g]"] == 1 and tracer.counts["layer.g"] == 1
    assert [s[0] for s in tracer.spans] == ["layer.f", "layer.f"]


def test_unreached_binding_counts_zero():
    mod = types.ModuleType("fake")
    mod.f = lambda: None
    with spans.Tracer() as tracer:
        tracer.wrap(mod, "f", "layer.f")
    assert "fake.f" in tracer.sites and tracer.sites["fake.f"] == 0


def test_self_and_total_times():
    # name, start, end, parent
    s = [
        ["run", 0.0, 10.0, -1],
        ["sampler", 1.0, 7.0, 0],
        ["predict", 2.0, 3.0, 1],
        ["predictive", 4.0, 6.0, 1],
        ["predict", 4.5, 5.0, 3],
        ["predictive", 8.0, 9.0, 0],
    ]
    assert spans.self_time(s, "run") == pytest.approx(10.0 - 6.0 - 1.0)
    assert spans.total_time(s, ["sampler"], exclude=["predictive"]) == pytest.approx(4.0)
    assert spans.total_time(s, ["predictive"]) == pytest.approx(3.0)
    assert spans.split_by_ancestor(s, "predict", "predictive") == pytest.approx((1.0, 0.5))


def test_exact_emulator_is_the_dipole_simulator():
    ds = dipole_dataset(seed=4)
    sim = dipole_problem(seed=4)[0]
    emu = workloads.dipole_emulator(sim, ds)
    Q = np.random.default_rng(0).uniform(size=(7, 4))
    h = 5.0 + 35.0 * Q[:, 0]
    lo, hi = np.array(ds.theta_bounds).T
    theta = lo + Q[:, 1:] * (hi - lo)
    expected = [sim.simulate(np.array([x]), t) for x, t in zip(h, theta)]
    np.testing.assert_allclose(emu.mean_at(Q), expected, rtol=1e-13)


def test_combined_dense_changes_only_the_named_keys(tmp_path):
    head = workloads.headline_config(3, tmp_path)
    dense = workloads.combined_dense_config(3, tmp_path)
    assert "koh" not in dense
    changed = {k for k in head.keys() | dense.keys() if head.get(k) != dense.get(k)}
    assert changed == {"mode", "synthetic", "mcmc", "grid_points", "koh"}
    assert {k for k in head["synthetic"]
            if head["synthetic"][k] != dense["synthetic"][k]} == {"n_sim", "n_obs"}


def test_traced_run_reaches_every_binding_and_writes_the_same_bytes(tmp_path):
    small = workloads.headline_config(0, tmp_path / "run")
    small.update({
        "emulator": {"budget": 40},
        "mcmc": {"iterations": 240, "burn_in": 100, "thin": 2, "chains": 2},
        "koh": {"iterations": 240, "burn_in": 100, "thin": 2, "chains": 2},
        "grid_points": 21, "predictive_draws": 50,
    })
    outcomes = []
    for full in (False, True):
        with spans.Tracer() as tracer:
            workloads.install(tracer, full)
            outcomes.append(workloads._run_config(small, tracer, workloads.ALL_INSIDE))
    assert outcomes[0].digest == outcomes[1].digest
    assert outcomes[0].counts == outcomes[1].counts
    reached = workloads.WORKLOADS["dipole_compare"].reached
    assert all(tracer.sites[site] > 0 for site in reached), {
        s: tracer.sites[s] for s in reached}
    assert tracer.counts["runner.orchestrate"] == 1
    assert tracer.counts["embedded.mh_accept"] == (
        tracer.sites["embedded.mh_accept"] + tracer.sites["koh.mh_accept"])
    assert runner._RUNNERS["koh"].__module__ == "driftcal.koh"  # restored


def test_benchmark_json_lists_the_reported_metrics():
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run  # dataclasses look their module up
    spec.loader.exec_module(run)
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
