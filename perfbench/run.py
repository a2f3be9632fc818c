"""driftcal's benchmark: one workload, closed loop, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dipole_compare --seed 1 --seconds 20 --trace 0

One process runs one calibration at a time and starts the next only when
the previous one has finished. With ``--trace 0`` it repeats whole runs of
the workload, all with the same seed, as many as fit in ``--seconds`` (at
least one), and reports the end-to-end metrics. With ``--trace 1`` it makes
one untraced run and then one traced run, which wraps driftcal's public
functions (see ``spans.py``), and reports the per-layer metrics; the
tracing overhead is the difference of the two run times, so it carries
the run-to-run noise of one pair.

Library defaults are kept: ``DRIFTCAL_THREADS`` and the BLAS thread
variables are read, recorded and left alone.

Every run is checked: the acceptance-suite quality thresholds, byte-identical
outputs and identical exact counts across runs of one workload and seed
(within the process, and against earlier processes through a record kept
under ``.perfbench/records``), and, in the traced run, that every wrapped
binding the workload goes through was reached. A run that fails a check
counts in ``failed``; a run that raises ends the benchmark without a result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A result file with
the environment, every run and the quality numbers goes to
``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOAD_NAMES = ("dipole_compare", "combined_dense", "exact_single")
IMPORT_REPEATS = 3

# name -> unit; BENCHMARK.json lists the same names. Times are summed over
# the spans of a layer in the traced run; a layer the workload never enters
# reads 0 (koh.* outside dipole_compare, gp.* on exact_single).
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "import_s": "s",  # import driftcal in a fresh interpreter, median of 3
    "config.parse_s": "s",
    "simulators.dataset_s": "s",
    "gp.tune_s": "s",  # optimize_emulator
    "gp.fit_calls": "count",
    "gp.predict_calls": "count",  # predict_standardized
    "gp.predict_us": "us",
    "gp.predict_s_sampler": "s",  # predict time outside posterior_predictive
    "gp.predict_s_post": "s",  # predict time inside posterior_predictive
    "embedded.sampler_s": "s",  # calibrator span minus its summary passes
    "embedded.us_per_iter": "us",  # sampler_s per sweep of one chain
    "embedded.min_bulk_ess": "count",  # over every stored scalar (ess.py)
    "embedded.ess_per_s": "1/s",  # min_bulk_ess / sampler_s
    "embedded.accept_min": "ratio",
    "embedded.accept_max": "ratio",
    "embedded.mh_accept_calls": "count",  # both calibrators: koh imports mh_accept
    "embedded.gibbs_calls": "count",  # both calibrators, likewise
    "embedded.extrapolations": "count",
    "koh.sampler_s": "s",
    "koh.us_per_iter": "us",
    "koh.min_bulk_ess": "count",
    "koh.ess_per_s": "1/s",
    "koh.accept_min": "ratio",
    "koh.accept_max": "ratio",
    "koh.extrapolations": "count",
    "embedded.predictive_calls": "count",
    "embedded.predictive_s": "s",
    "embedded.predictive_draws": "count",  # draws used, summed over calls
    "embedded.curves_calls": "count",  # delta_field_curves
    "embedded.curves_s": "s",
    "samples.save_s": "s",
    "samples.bytes": "bytes",  # every file of the samples directories
    "runner.plot_s": "s",  # emit_plot_data, its summary passes included
    "runner.self_s": "s",  # orchestrate minus the spans it encloses
    "diagnostics.s": "s",  # split_rhat + effective_sample_size
    "min_ess_per_s": "1/s",  # smallest min_bulk_ess of the run / untraced run_s
    "trace_overhead_s": "s",  # traced run_s minus untraced run_s
}
# counts that must repeat exactly across runs of one workload and seed
EXACT_COUNTS = (
    "gp.fit_calls", "gp.predict_calls", "embedded.mh_accept_calls", "embedded.gibbs_calls",
    "embedded.predictive_calls", "embedded.predictive_draws", "embedded.curves_calls",
    "samples.bytes", "embedded.extrapolations", "koh.extrapolations",
)


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return ap.parse_args(argv)


# -- environment -----------------------------------------------------------------


def _source_sha256() -> str:
    """Digest of the library sources and the headline config: names the code run."""
    h = hashlib.sha256()
    for p in sorted((SRC / "driftcal").glob("*.py")) + [ROOT / "configs" / "dipole_compare.json"]:
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _blas() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def environment(workload: str, seed: int, source_sha: str) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "DRIFTCAL_THREADS")},
        "git_commit": _git_commit(),
        "source_sha256": source_sha,
        "machine": platform.machine(),
    }


def fresh_import_s() -> float:
    """Seconds ``import driftcal`` takes in a new interpreter."""
    code = ("import time; t = time.perf_counter(); import driftcal; "
            "print(repr(time.perf_counter() - t))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


# -- runs ------------------------------------------------------------------------


@dataclass
class Run:
    traced: bool
    outcome: object = None  # workloads.Outcome, unless the run raised
    tracer: object = None
    counts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    error: str = ""


def one_run(workload, seed: int, traced: bool) -> Run:
    """Run the workload once, fully traced or with set-up markers only."""
    from spans import Tracer
    from workloads import install

    run = Run(traced, tracer=Tracer())
    try:
        with run.tracer:
            install(run.tracer, traced)
            run.outcome = workload.run(seed, WORK / "runs" / workload.name, run.tracer)
    except Exception:
        run.error = traceback.format_exc()
        return run
    run.failures = list(run.outcome.failures)
    run.counts = trace_counts(run.tracer, run.outcome) if traced else dict(run.outcome.counts)
    if traced:
        run.failures += binding_failures(workload, run.tracer)
    return run


def schedule(trace: bool, seconds: float):
    """Which runs to make, traced or not: untraced runs fill ``seconds``.

    A run is started only if, taking as long as the one before, it ends
    within ``seconds`` of the first; the first always runs.
    """
    if trace:
        yield from (False, True)
        return
    start = perf_counter()
    while True:
        t = perf_counter()
        yield False
        now = perf_counter()
        if now - start + (now - t) > seconds:
            return


def trace_counts(tracer, outcome) -> dict[str, int]:
    c = tracer.counts
    counts = {
        "gp.fit_calls": c["gp.fit"],
        "gp.predict_calls": c["gp.predict"],
        "embedded.mh_accept_calls": c["embedded.mh_accept"],
        "embedded.gibbs_calls": c["embedded.gibbs"],
        "embedded.predictive_calls": c["embedded.predictive"],
        "embedded.predictive_draws": c["embedded.predictive.units"],
        "embedded.curves_calls": c["embedded.curves"],
    }
    counts.update(outcome.counts)
    return counts


def binding_failures(workload, tracer) -> list[str]:
    c = tracer.sites
    out = [f"binding {s} was never reached" for s in sorted(workload.reached) if c[s] == 0]
    out += [f"binding {s} reached {c[s]} times, expected 0"
            for s in sorted(workload.bypassed) if c[s] != 0]
    return out


def count_mismatches(expected: dict, got: dict, what: str) -> list[str]:
    return [f"{k} = {got[k]} differs from {expected[k]} in {what}"
            for k in sorted(set(expected) & set(got)) if expected[k] != got[k]]


def check_record(workload: str, seed: int, source_sha: str, digest: str,
                 counts: dict) -> list[str]:
    """Compare with, then extend, the record of earlier runs of this code and seed."""
    path = WORK / "records" / f"{workload}-{seed}-{source_sha[:16]}.json"
    record = {"digest": digest, "counts": {}}
    if path.exists():
        record = json.loads(path.read_text())
    failures = []
    if record["digest"] != digest:
        failures.append("outputs differ from an earlier run of this seed")
    failures += count_mismatches(record["counts"], counts, "an earlier run of this seed")
    record["counts"] = {**counts, **record["counts"]}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return failures


# -- metrics ---------------------------------------------------------------------


def calibration_metrics(calibrations) -> dict[str, dict]:
    """Per layer: min bulk-ESS, acceptance range, iterations (summed over calibrators)."""
    from ess import min_bulk_ess

    out: dict[str, dict] = {}
    for cal in calibrations:
        ess, scalar = min_bulk_ess(cal.samples)
        rates = list(cal.samples.acceptance_rates.values())
        m = out.setdefault(cal.layer, {"min_bulk_ess": float("inf"), "scalar": "",
                                       "accept_min": 1.0, "accept_max": 0.0, "iterations": 0})
        if ess < m["min_bulk_ess"]:
            m["min_bulk_ess"], m["scalar"] = ess, scalar
        m["accept_min"] = min(m["accept_min"], min(rates))
        m["accept_max"] = max(m["accept_max"], max(rates))
        m["iterations"] += cal.iterations
    return out


def layer_metrics(tracer, counts: dict, base, traced, import_s: float,
                  cal: dict) -> dict[str, float]:
    """Per-layer metrics from the traced run; ``base`` is the untraced run."""
    from spans import self_time, split_by_ancestor, total_time

    spans = tracer.spans
    predict_outside, predict_inside = split_by_ancestor(spans, "gp.predict", "embedded.predictive")
    n_predict = counts["gp.predict_calls"]
    m: dict[str, float] = {
        "import_s": import_s,
        "config.parse_s": total_time(spans, ["config.parse"]),
        "simulators.dataset_s": total_time(spans, ["simulators.dataset"]),
        "gp.tune_s": total_time(spans, ["gp.tune"]),
        "gp.predict_us": (1e6 * (predict_outside + predict_inside) / n_predict
                          if n_predict else 0.0),
        "gp.predict_s_sampler": predict_outside,
        "gp.predict_s_post": predict_inside,
        "embedded.predictive_s": total_time(spans, ["embedded.predictive"]),
        "embedded.curves_s": total_time(spans, ["embedded.curves"]),
        "samples.save_s": total_time(spans, ["samples.save"]),
        "runner.plot_s": total_time(spans, ["runner.plot"]),
        "runner.self_s": self_time(spans, "runner.orchestrate"),
        "diagnostics.s": total_time(spans, ["diagnostics"]),
        "trace_overhead_s": traced.run_s - base.run_s,
    }
    m.update({k: counts.get(k, 0) for k in EXACT_COUNTS})
    min_ess = float("inf")
    for layer in ("embedded", "koh"):
        sampler_s = total_time(spans, [f"{layer}.sampler"],
                               exclude=["embedded.predictive", "embedded.curves"])
        c = cal.get(layer)
        m[f"{layer}.sampler_s"] = sampler_s
        m[f"{layer}.us_per_iter"] = 1e6 * sampler_s / c["iterations"] if c else 0.0
        m[f"{layer}.min_bulk_ess"] = c["min_bulk_ess"] if c else 0.0
        m[f"{layer}.ess_per_s"] = c["min_bulk_ess"] / sampler_s if c else 0.0
        m[f"{layer}.accept_min"] = c["accept_min"] if c else 0.0
        m[f"{layer}.accept_max"] = c["accept_max"] if c else 0.0
        if c:
            min_ess = min(min_ess, c["min_bulk_ess"])
    m["min_ess_per_s"] = min_ess / base.run_s
    return m


def percentile_line(values: list[float]) -> str:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.4f} over n={n}"
    if n >= 20:
        p = 100 * (1 - 10 / n)
        cut = statistics.quantiles(values, n=100, method="inclusive")[int(p) - 1]
        text += f", p{int(p)} {cut:.4f}"
    else:
        text += " (no percentile above the median has ten samples beyond it)"
    return text


# -- main ---------------------------------------------------------------------


def main(argv=None) -> int:
    args = _parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in
               (SRC / "driftcal" / "__init__.py", ROOT / "configs" / "dipole_compare.json")
               if not p.is_file()]
    if missing:
        print(f"perfbench: driftcal sources not found: {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    source_sha = _source_sha256()
    env = environment(args.workload, args.seed, source_sha)
    import_s = statistics.median(fresh_import_s() for _ in range(IMPORT_REPEATS))

    runs: list[Run] = []
    for traced in schedule(bool(args.trace), args.seconds):
        run = one_run(workload, args.seed, traced)
        if run.error:
            print(run.error, file=sys.stderr)
            print("perfbench: a run raised; nothing to report", file=sys.stderr)
            return 1
        if runs:
            if run.outcome.digest != runs[0].outcome.digest:
                run.failures.append("outputs differ from the first run of this seed")
            run.failures += count_mismatches(runs[0].counts, run.counts, "the first run")
        run.failures += check_record(args.workload, args.seed, source_sha,
                                     run.outcome.digest, run.counts)
        runs.append(run)

    failed = sum(1 for r in runs if r.failures)
    for r in runs:
        for line in r.failures:
            print(f"check failed: {line}")

    untraced = [r.outcome for r in runs if not r.traced]
    base = untraced[0]
    cal = calibration_metrics(base.calibrations)
    run_s = [o.run_s for o in untraced]
    if args.trace:
        traced = runs[1]
        values = layer_metrics(traced.tracer, traced.counts, base, traced.outcome,
                               import_s, cal)
        units = PER_LAYER
    else:
        values = {
            "run_s": statistics.median(run_s),
            "setup_s": import_s + statistics.median(o.setup_s for o in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"run_s: {percentile_line(run_s)}")
    print(f"runs_failed: {failed}/{len(runs)}")
    for layer, c in sorted(cal.items()):
        print(f"{layer}: min bulk-ESS {c['min_bulk_ess']:.1f} ({c['scalar']})")
    for key, val in sorted(base.quality.items()):
        print(f"quality {key} = {val:.6g}")
    for key, unit in units.items():
        print(f"{key} = {values[key]:.6g} {unit}")

    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK / "results" / name).write_text(json.dumps({
        **result,
        "environment": env,
        "import_s": import_s,
        "quality": base.quality,
        "min_bulk_ess": {k: [c["min_bulk_ess"], c["scalar"]] for k, c in cal.items()},
        "runs": [{"traced": r.traced, "failures": r.failures, "counts": r.counts,
                  "run_s": r.outcome.run_s, "setup_s": r.outcome.setup_s,
                  "digest": r.outcome.digest} for r in runs],
    }, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
