"""Child process of the market_analysis workload: one pass of timed library calls.

Run by ``run.py`` once per pass, which measures this process's peak RSS
with ``os.wait4``. It loads the pickled distributions, runs the timed ops
once, and writes their outputs and timings as JSON for the parent to check.
With ``--trace 1`` it then runs a traced pass and adds the per-layer metrics
of that pass.

    python bench/market_worker.py MARKET.pkl --trace 0 --out result.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pickle
import time
import traceback
from pathlib import Path

import tracing  # bench/tracing.py; the script directory is on sys.path

from driftkit import analysis, forecast
from driftkit.divergence import Measure

SOURCE_YEAR, TARGET_YEAR = 2022, 2023
TRAJECTORY_K = 1000


def _series(dists) -> dict:
    local = analysis.local_drift(dists)
    glob = analysis.global_drift(dists, dists[0].bin.label)
    alpha = analysis.local_drift(dists, measure=Measure("jsd_alpha", 2.0))
    jaccard = analysis.local_drift(dists, measure=Measure("jaccard"))
    source = analysis.DriftSeries(
        "local", local.measure, [p for p in local.points if p.bin.start.year == SOURCE_YEAR]
    )
    observed = analysis.DriftSeries(
        "local", local.measure, [p for p in local.points if p.bin.start.year == TARGET_YEAR]
    )
    predicted = forecast.predict_drift(source, [p.bin for p in observed.points])
    report = forecast.score(predicted, observed, SOURCE_YEAR, TARGET_YEAR)
    return {
        "local": local.values(),
        "global": glob.values(),
        "alpha2": alpha.values(),
        "jaccard": jaccard.values(),
        "source": source.values(),
        "predicted": predicted.values(),
        "mae": report.mae,
    }


def _matrix(dists) -> dict:
    return {"matrix": analysis.drift_matrix(dists).values.tolist()}


def _decompose(dists) -> dict:
    schedule = analysis.build_group_schedule(dists)
    transitions = analysis.transition_matrix(schedule)
    panel = analysis.trajectory_panel(
        dists, analysis.TopGlobalContrib(TRAJECTORY_K, dists[-1].bin.label)
    )
    return {
        "transitions": transitions.tolist(),
        "panel_items": len(panel.items),
        "panel_loans": int(panel.counts.sum()),
    }


OPS = (("series", _series), ("matrix", _matrix), ("decompose", _decompose))


def _digest(values: dict) -> str:
    return hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()


def run_pass(dists, tracer=None) -> dict:
    record = {"wall_s": {}, "outputs": {}, "digests": {}, "errors": {}}
    for name, fn in OPS:
        if tracer is not None:
            tracer.op_id += 1
        t0 = time.perf_counter()
        try:
            out = fn(dists)
        except Exception:
            record["errors"][name] = traceback.format_exc()
            out = None
        record["wall_s"][name] = time.perf_counter() - t0
        if out is not None:
            record["outputs"][name] = out
            record["digests"][name] = _digest(out)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("market")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-dir")
    args = parser.parse_args(argv)

    with open(args.market, "rb") as fh:
        dists = pickle.load(fh)

    result = {"pass": run_pass(dists)}
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(tracing.driftkit_modules())
        try:
            traced = run_pass(dists, tracer)
        finally:
            tracer.uninstall()
        traced_s = sum(traced["wall_s"].values())
        result["traced_pass"] = traced
        result["traced_s"] = traced_s
        result["missing_hooks"] = tracer.missing_hooks
        result["layer_metrics"] = tracing.layer_metrics(tracer, 1)
        result["layer_table"] = tracing.write_report(tracer, Path(args.trace_dir), traced_s)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
