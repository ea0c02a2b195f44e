"""driftkit benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

    python3 bench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

Run from the repository root (or any copy of it holding ``src/`` and
``bench/``). The program is used from ``src/`` as is; nothing is installed.
Inputs come from ``driftkit.synthmarket`` and ``--seed`` only, so one seed
always gives the same inputs. After set-up, the workload's ops run one at a
time, in passes, until ``--seconds`` have gone by (at least two passes);
each metric is the median over passes. The set-up's synthmarket call is
repeated after every pass for ``setup_s``. Every op's output is checked, and an
op that exits non-zero, prints a traceback, writes a wrong or unparseable
output, or whose output digest differs from its first run, counts as failed.

Workloads (see WORKLOADS below for why each exists):

* ``pipeline``: the CLI pipeline ``canon`` -> ``drift local --catalog`` ->
  ``drift global --catalog`` with a sex/age cohort, each op a child
  process, over a log with title variants and injected malformed rows.
* ``market_analysis``: library calls on a sampled market, one child
  process per pass: four drift series plus a seasonal-naive forecast, the
  full drift matrix, and the group schedule, transitions and a trajectory
  panel.
* ``bootstrap_small``: ``drift local --estimator bootstrap --top-k 0`` on a
  small-sample log, where bootstrap resampling dominates.

With ``--trace 0`` the last stdout line is the JSON result with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics from
a traced in-process replay of the same ops (see ``tracing.py``). Everything
is written under ``.bench_work/`` in the repository root: the inputs, the op
outputs, ``results/<workload>-seed<n>-trace<t>.json`` (metrics, per-op
figures and the machine stamp) and, for traced runs, ``spans.jsonl`` and
``trace_table.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = {
    "pipeline": "whole CLI pipeline on a log with title variants and malformed rows; "
    "ingest, aggregate and canon dominate",
    "market_analysis": "library series, all-pairs matrix and decomposition on a sampled "
    "market; divergence and analysis dominate, no CSV",
    "bootstrap_small": "bootstrap-corrected local drift on a small-sample log; "
    "estimators dominate",
}

# Sizes keep one pass at about 2-4 s on a 2-core machine, so that a 30 s run
# holds seven to ten passes, set-up repeats included, for the medians.
SIZES = {
    "pipeline": dict(
        catalog=15_000,
        bins=20,
        loans=5_000,
        loaners=20_000,
        variant_items=0.2,
        variant_events=0.5,
        malformed_share=0.005,
    ),
    "market_analysis": dict(catalog=10_000, bins=24, loans=50_000),
    "bootstrap_small": dict(catalog=10_000, bins=7, loans=5_000, loaners=20_000, resamples=500),
}
# synthmarket calls repeated after each pass for setup_s: more for the shorter ones
SETUP_PER_PASS = {"pipeline": 1, "market_analysis": 2, "bootstrap_small": 2}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "oracle_err_bits": "bits",
}
PER_LAYER = {
    "events.us_per_row": "us",
    "events.rows": "count",
    "events.malformed": "count",
    "events.accepted_ratio": "ratio",
    "popularity.us_per_event": "us",
    "canon.us_per_item": "us",
    "canon.items": "count",
    "canon.groups": "count",
    "popularity.restrict_top_k_s": "s",
    "popularity.kept_loan_ratio": "ratio",
    "popularity.distinct_items": "count",
    "divergence.calls": "count",
    "divergence.ms_per_call_p50": "ms",
    "divergence.ms_per_call_p90": "ms",
    "divergence.union_items": "count",
    "divergence.bytes_computed": "B",
    "analysis.ms_per_pair_p50": "ms",
    "analysis.ms_per_pair_p90": "ms",
    "analysis.pairs": "count",
    "analysis.matrix_self_s": "s",
    "analysis.schedule_s": "s",
    "analysis.transition_s": "s",
    "analysis.trajectory_s": "s",
    "estimators.ms_per_resample": "ms",
    "estimators.resamples": "count",
    "estimators.plugin_s": "s",
    "forecast.predict_score_s": "s",
    "tabular.write_s": "s",
    "tabular.bytes_written": "B",
    "synthmarket.us_per_event": "us",
    "cli.import_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}

MIN_PASSES = 2
OP_TIMEOUT_S = 100
IMPORT_PROBES = 5
SERIES_TOL = 1e-12


def _require_program():
    if not (SRC / "driftkit" / "__init__.py").is_file():
        print(f"bench: driftkit sources not found under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


# running ops ---------------------------------------------------------------------


@dataclass
class OpResult:
    wall_s: float
    rss_mb: float = 0.0
    failures: list[str] = field(default_factory=list)


@dataclass
class CliOp:
    name: str
    argv: list[str]
    out_dir: Path
    check: Callable[[Path], list[str]]


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    env["PYTHONHASHSEED"] = "0"
    return env


class Spawner:
    """Client of ``spawner.py``, which forks and reaps every measured child.

    Peak RSS comes from ``os.wait4`` on each child alone (``RUSAGE_CHILDREN``
    would report the maximum over every child reaped so far); the spawner
    explains why the children are not forked from this process.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(),
            text=True,
        )

    def run(self, cmd: list[str], log_path: Path) -> tuple[int, float, float, str]:
        """Exit code, wall s, peak RSS MB and output of one child run to completion."""
        request = {"cmd": cmd, "log": str(log_path), "timeout": OP_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("spawner process exited")
        reply = json.loads(line)
        text = log_path.read_text(errors="replace")
        return reply["rc"], reply["wall_s"], reply["maxrss_kb"] / 1024.0, text

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=OP_TIMEOUT_S)
        self.proc.stdout.close()


def run_inprocess(argv: list[str], tracer=None) -> tuple[int, float, str]:
    """``cli.main(argv)`` in this process, optionally under the tracer."""
    from driftkit import cli

    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.span("cli.main", "cli", cli.main, argv)
    except (Exception, SystemExit):
        rc = -1
        buf.write(traceback.format_exc())
    return rc, time.perf_counter() - t0, buf.getvalue()


def dir_digest(path: Path) -> str:
    from inputs import file_digest

    files = sorted(p for p in path.iterdir() if p.is_file())
    return file_digest(*files)


class OpRunner:
    """Executes ops, checks outputs, and keeps the attempted/failed tally."""

    def __init__(self, work: Path, spawner: Spawner):
        self.work = work
        self.spawner = spawner
        self.attempted = 0
        self.failed = 0
        self.failure_log: list[str] = []
        self.first_digest: dict[str, str] = {}

    def record(self, name: str, failures: list[str]):
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failure_log.extend(f"{name}: {f}" for f in failures)

    def execute(self, op: CliOp, mode: str, tracer=None) -> OpResult:
        op.out_dir.mkdir(parents=True, exist_ok=True)
        for stale in op.out_dir.iterdir():
            stale.unlink()
        rss = 0.0
        if mode == "child":
            cmd = [sys.executable, "-m", "driftkit.cli", *op.argv]
            rc, wall, rss, text = self.spawner.run(cmd, self.work / f"{op.name}.log")
        else:
            rc, wall, text = run_inprocess(op.argv, tracer)
        failures = []
        if rc != 0:
            failures.append(f"exit code {rc}: {text.strip()[-300:]}")
        elif "Traceback" in text:
            failures.append("traceback in output")
        else:
            try:
                failures.extend(op.check(op.out_dir))
            except (OSError, ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
                failures.append(f"unparseable output: {exc!r}")
            if not failures:
                digest = dir_digest(op.out_dir)
                if self.first_digest.setdefault(op.name, digest) != digest:
                    failures.append("output digest differs from the first run")
        self.record(f"{op.name}[{mode}]", failures)
        return OpResult(wall, rss, failures)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def timed_passes(seconds: float, one_pass: Callable[[], None]):
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() < deadline:
        one_pass()
        passes += 1


# output checks ---------------------------------------------------------------------


def read_series(path: Path) -> tuple[list[float], list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return [float(r["value"]) for r in rows], [r["std_error"] for r in rows]


def check_values(values: list[float], n: int, ref: list[float] | None = None) -> list[str]:
    failures = []
    if len(values) != n:
        failures.append(f"{len(values)} values, expected {n}")
    if not all(0.0 <= v <= 1.0 for v in values):
        failures.append("value outside [0, 1]")
    if ref is not None and len(ref) == len(values):
        worst = max((abs(a - b) for a, b in zip(values, ref)), default=0.0)
        if not worst <= SERIES_TOL:
            failures.append(f"max |value - reference| {worst:.3e} > {SERIES_TOL:g}")
    return failures


def check_manifest(out_dir: Path, expected: dict) -> list[str]:
    manifest = json.loads((out_dir / "manifest.json").read_text())
    run = manifest["config"]["run"]
    got = {k: run["ingest"][k] for k in expected}
    failures = []
    if got != expected:
        failures.append(f"ingest report {got} != injected {expected}")
    if run["unknown_keys"] != 0:
        failures.append(f"{run['unknown_keys']} item keys missing from the catalog")
    return failures


def mean_abs_err(values: list[float], truth: list[float]) -> float:
    return math.fsum(abs(a - b) for a, b in zip(values, truth)) / len(truth)


# CLI workloads ---------------------------------------------------------------------


def pipeline_ops(work: Path, inputs, seed: int, observed: dict) -> list[CliOp]:
    from inputs import COHORT_ARGS, reference_cohort, reference_local, true_local

    n_pairs = len(inputs.result.distributions) - 1
    ref_local = reference_local(inputs)
    ref_cohort = reference_cohort(inputs)
    truth = true_local(inputs.result.truth)
    ingest_expected = {
        "rows": inputs.rows,
        "accepted": inputs.rows - inputs.malformed,
        "malformed": inputs.malformed,
        "out_of_window": 0,
        "excluded": 0,
    }
    mapping_path = work / "canon" / "mapping.csv"

    def check_canon(out_dir: Path) -> list[str]:
        with open(out_dir / "mapping.csv", newline="", encoding="utf-8") as fh:
            got = {r["item_key"]: r["canonical_id"] for r in csv.DictReader(fh)}
        if got == inputs.expected_mapping:
            return []
        wrong = sum(got.get(k) != v for k, v in inputs.expected_mapping.items())
        return [f"{wrong} items mapped differently from the injected variant groups"]

    def check_local(out_dir: Path) -> list[str]:
        values, _ = read_series(out_dir / "drift_local.csv")
        observed["oracle_err_bits"] = mean_abs_err(values, truth)
        return check_values(values, n_pairs, ref_local) + check_manifest(out_dir, ingest_expected)

    def check_cohort(out_dir: Path) -> list[str]:
        values, _ = read_series(out_dir / "drift_global.csv")
        return check_values(values, len(ref_cohort), ref_cohort) + check_manifest(
            out_dir, ingest_expected
        )

    common = ["--input", str(inputs.events_path), "--catalog", str(mapping_path)]
    return [
        CliOp(
            "canon",
            ["canon", "--items", str(inputs.items_path), "--out", str(mapping_path)],
            mapping_path.parent,
            check_canon,
        ),
        CliOp(
            "drift_local",
            ["drift", "local", *common, "--seed", str(seed), "--output-dir", str(work / "local")],
            work / "local",
            check_local,
        ),
        CliOp(
            "drift_cohort",
            ["drift", "global", *common, *COHORT_ARGS, "--output-dir", str(work / "cohort")],
            work / "cohort",
            check_cohort,
        ),
    ]


def bootstrap_ops(work: Path, inputs, seed: int, observed: dict, resamples: int) -> list[CliOp]:
    from driftkit import analysis
    from inputs import true_local

    dists = inputs.result.distributions
    n_pairs = len(dists) - 1
    truth = true_local(inputs.result.truth)
    plugin_err = mean_abs_err(analysis.local_drift(dists).values(), truth)
    ingest_expected = {"rows": inputs.rows, "accepted": inputs.rows, "malformed": 0}

    def check(out_dir: Path) -> list[str]:
        values, errors = read_series(out_dir / "drift_local.csv")
        corrected_err = mean_abs_err(values, truth)
        observed["oracle_err_bits"] = corrected_err
        failures = check_values(values, n_pairs) + check_manifest(out_dir, ingest_expected)
        if not all(e and float(e) >= 0.0 for e in errors):
            failures.append("missing or negative bootstrap standard error")
        if not corrected_err < plugin_err:
            failures.append(
                f"corrected error {corrected_err:.5f} not below plugin error {plugin_err:.5f}"
            )
        return failures

    argv = [
        "drift",
        "local",
        "--input",
        str(inputs.events_path),
        "--estimator",
        "bootstrap",
        "--resamples",
        str(resamples),
        "--top-k",
        "0",
        "--seed",
        str(seed),
        "--output-dir",
        str(work / "local"),
    ]
    return [CliOp("drift_local", argv, work / "local", check)]


class SetupReps:
    """Repeats the set-up's synthmarket call between timed passes.

    The repeats sample the same phases of the machine as the passes do, and
    only the synthmarket call is timed, not the benchmark's own
    post-processing or pickling. Each repeat must give the same bytes as the
    set-up whose inputs the ops use.
    """

    def __init__(self, synth: Callable[[], tuple[float, Path]], reference: Path, per_pass: int):
        from inputs import file_digest

        self.synth = synth  # () -> (seconds in the synthmarket call, file it wrote)
        self.expected = file_digest(reference)
        self.per_pass = per_pass
        self.times: list[float] = []
        self.differ = 0

    def repeat(self):
        from inputs import file_digest

        for _ in range(self.per_pass):
            seconds, path = self.synth()
            self.times.append(seconds)
            self.differ += file_digest(path) != self.expected

    def report(self, runner: OpRunner, out: dict, events: int):
        failures = [f"{self.differ} repeated set-ups differ from the first"] if self.differ else []
        runner.record("setup", failures)
        out["setup_s"] = median(self.times)
        out["synthmarket.us_per_event"] = 1e6 * out["setup_s"] / events


def record_missing_hooks(runner: OpRunner, missing: list[str]):
    """A hook whose target is gone would read as a layer doing no work."""
    runner.record("trace_hooks", [f"hook target not found: {name}" for name in missing])


def import_probe(work: Path, spawner: Spawner) -> float:
    code = (
        "import time; t = time.perf_counter(); import driftkit.cli; "
        "print(repr(time.perf_counter() - t))"
    )
    times = []
    for _ in range(IMPORT_PROBES):
        rc, _, _, text = spawner.run([sys.executable, "-c", code], work / "import.log")
        if rc == 0:
            times.append(float(text.strip().splitlines()[-1]))
    return median(times)


def run_cli_workload(name, work, seed, seconds, trace, size, runner, out):
    import inputs as inp
    import tracing

    observed: dict = {}
    if name == "pipeline":
        data = inp.pipeline_log(work / "inputs", seed, size)
        ops = pipeline_ops(work, data, seed, observed)
    else:
        data = inp.generate_log(work / "inputs", seed, size)
        ops = bootstrap_ops(work, data, seed, observed, size["resamples"])

    def synth():
        rep = inp.generate_log(work / "setup_reps", seed, size)
        return rep.generate_s, rep.events_path

    setup = SetupReps(synth, data.result.events_path, SETUP_PER_PASS[name])

    passes: list[dict[str, OpResult]] = []
    tracer = tracing.Tracer() if trace else None
    overhead, inproc_s, traced_s = [], [], []

    def one_pass():
        results = {}
        for op in ops:
            results[op.name] = runner.execute(op, "child")
            if tracer is not None:
                plain = runner.execute(op, "inprocess")
                tracer.op_id += 1
                tracer.install(tracing.driftkit_modules())
                try:
                    traced = runner.execute(op, "inprocess", tracer)
                finally:
                    tracer.uninstall()
                overhead.append(results[op.name].wall_s - plain.wall_s)
                inproc_s.append(plain.wall_s)
                traced_s.append(traced.wall_s)
        passes.append(results)
        setup.repeat()

    timed_passes(seconds, one_pass)
    setup.report(runner, out, size["loans"] * size["bins"])
    out["oracle_err_bits"] = observed.get("oracle_err_bits", 0.0)
    out["wall_s"] = median(sum(r.wall_s for r in p.values()) for p in passes)
    out["peak_rss_mb"] = median(max(r.rss_mb for r in p.values()) for p in passes)
    for op in ops:
        out[f"detail.{op.name}_s"] = median(p[op.name].wall_s for p in passes)
    out["detail.passes"] = len(passes)
    out["pass_walls"] = [{k: r.wall_s for k, r in p.items()} for p in passes]
    if name == "pipeline":
        ingest_s = out["detail.drift_local_s"] + out["detail.drift_cohort_s"]
        out["detail.events_per_s"] = 2 * data.rows / ingest_s
    else:
        pairs = size["bins"] - 1
        out["detail.resamples_per_s"] = pairs * size["resamples"] / out["detail.drift_local_s"]

    if tracer is not None:
        record_missing_hooks(runner, tracer.missing_hooks)
        out.update(tracing.layer_metrics(tracer, len(passes)))
        out["cli.import_s"] = import_probe(work, runner.spawner)
        out["cli.overhead_s"] = median(overhead)
        out["trace.overhead_ratio"] = sum(traced_s) / sum(inproc_s)
        out["layer_table"] = tracing.write_report(tracer, work / "trace", sum(traced_s))


# market_analysis ---------------------------------------------------------------------


def check_market_pass(record: dict, truth: list[float], observed: dict) -> dict[str, list[str]]:
    """Failures per op of one worker pass."""
    failures = {name: [f"raised: {err.strip()[-300:]}"] for name, err in record["errors"].items()}
    out = record["outputs"]
    n = len(truth)
    if "series" in out:
        s = out["series"]
        f = failures.setdefault("series", [])
        for key in ("local", "global", "alpha2", "jaccard"):
            f.extend(f"{key}: {msg}" for msg in check_values(s[key], n))
        if not set(s["predicted"]) <= set(s["source"]) or not s["predicted"]:
            f.append("forecast holds values not in its source series")
        if not (math.isfinite(s["mae"]) and s["mae"] >= 0.0):
            f.append(f"forecast MAE {s['mae']!r}")
        observed["oracle_err_bits"] = max(abs(a - b) for a, b in zip(s["local"], truth))
    if "matrix" in out:
        m = out["matrix"]["matrix"]
        f = failures.setdefault("matrix", [])
        flat = [v for row in m for v in row]
        if len(m) != n + 1 or not all(0.0 <= v <= 1.0 for v in flat):
            f.append("matrix shape or values out of range")
        elif any(m[i][j] != m[j][i] for i in range(n + 1) for j in range(i)):
            f.append("matrix not symmetric")
        elif "series" in out:
            s = out["series"]
            local_ok = all(m[t][t + 1] == v for t, v in enumerate(s["local"]))
            global_ok = all(m[0][t] == v for t, v in enumerate(s["global"], start=1))
            if not (local_ok and global_ok):
                f.append("matrix differs from the local/global series (must be bit-exact)")
    if "decompose" in out:
        d = out["decompose"]
        f = failures.setdefault("decompose", [])
        for row in d["transitions"]:
            if not (abs(math.fsum(row) - 1.0) <= 1e-9 and all(0.0 <= v <= 1.0 for v in row)):
                f.append("transition matrix row not stochastic")
                break
        if d["panel_items"] < 1 or d["panel_loans"] < 1:
            f.append("empty trajectory panel")
    return failures


def group_share_failures(dists) -> list[str]:
    from driftkit import analysis

    try:
        sums = [math.fsum(analysis.contribution_groups(a, b)[2]) for a, b in zip(dists, dists[1:])]
    except Exception:
        return [f"raised: {traceback.format_exc().strip()[-300:]}"]
    if all(abs(s - 1.0) <= 1e-9 for s in sums):
        return []
    return ["contribution group shares do not sum to 1"]


def run_market(work, seed, seconds, trace, size, runner, out):
    """Each pass is one ``market_worker.py`` child, so set-ups can run between passes."""
    import inputs as inp

    path, dists, truth, _ = inp.market(work / "inputs", seed, size)
    true_series = inp.true_local(truth)

    def synth():
        rep_path, _, _, sample_s = inp.market(work / "setup_reps", seed, size)
        return sample_s, rep_path

    setup = SetupReps(synth, path, SETUP_PER_PASS["market_analysis"])
    result_path = work / "market_result.json"
    observed: dict = {}
    first: dict[str, str] = {}
    passes, rss, traced = [], [], []

    def worker_pass():
        cmd = [sys.executable, str(BENCH / "market_worker.py"), str(path)]
        cmd += ["--trace", str(trace), "--out", str(result_path)]
        cmd += ["--trace-dir", str(work / "trace" / f"pass{len(passes):02d}")]
        result_path.unlink(missing_ok=True)
        rc, _, peak, text = runner.spawner.run(cmd, work / "market_worker.log")
        if rc != 0 or not result_path.exists():
            runner.record("market_worker", [f"exit code {rc}: {text.strip()[-300:]}"])
            return
        result = json.loads(result_path.read_text())
        for record in [result["pass"]] + ([result["traced_pass"]] if trace else []):
            failures = check_market_pass(record, true_series, observed)
            for name, digest in record["digests"].items():
                if first.setdefault(name, digest) != digest:
                    failures.setdefault(name, []).append("output digest differs from the first run")
            for name in ("series", "matrix", "decompose"):
                runner.record(name, failures.get(name, []))
        passes.append(result["pass"])
        rss.append(peak)
        if trace:
            traced.append(result)

    def one_pass():
        worker_pass()
        setup.repeat()

    timed_passes(seconds, one_pass)
    setup.report(runner, out, size["loans"] * size["bins"])
    runner.record("group_shares", group_share_failures(dists))

    out["oracle_err_bits"] = observed.get("oracle_err_bits", 0.0)
    out["wall_s"] = median(sum(p["wall_s"].values()) for p in passes)
    out["peak_rss_mb"] = median(rss)
    for name in ("series", "matrix", "decompose"):
        out[f"detail.{name}_s"] = median(p["wall_s"][name] for p in passes)
    out["detail.passes"] = len(passes)
    out["pass_walls"] = [p["wall_s"] for p in passes]
    if trace and traced:
        record_missing_hooks(runner, sorted({h for r in traced for h in r["missing_hooks"]}))
        for name in traced[0]["layer_metrics"]:
            out[name] = median(r["layer_metrics"][name] for r in traced)
        out["cli.import_s"] = import_probe(work, runner.spawner)
        out["cli.overhead_s"] = 0.0
        untraced_s = sum(sum(p["wall_s"].values()) for p in passes)
        out["trace.overhead_ratio"] = sum(r["traced_s"] for r in traced) / untraced_s
        out["layer_table"] = traced[-1]["layer_table"]


# result ------------------------------------------------------------------------------


def _git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def stamp() -> dict:
    import numpy

    from inputs import file_digest

    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "commit": _git_commit(),
        "source_sha256": file_digest(*sorted((SRC / "driftkit").glob("*.py"))),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(affinity) if affinity else os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def run(workload: str, seed: int, seconds: float, trace: int, spawner: Spawner, sizes=SIZES) -> dict:
    """Run one workload; returns the full result record (see ``print_result``)."""
    started = stamp()
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = OpRunner(work, spawner)
    out: dict = {}
    size = sizes[workload]
    if workload == "market_analysis":
        run_market(work, seed, seconds, trace, size, runner, out)
    else:
        run_cli_workload(workload, work, seed, seconds, trace, size, runner, out)
    names = PER_LAYER if trace else END_TO_END
    metrics = {k: {"value": float(out.get(k, 0.0)), "unit": u} for k, u in names.items()}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "stamp": started,
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "error_rate": runner.failed / max(runner.attempted, 1),
        "failures": runner.failure_log,
        "metrics": metrics,
        "details": {k: v for k, v in out.items() if k.startswith("detail.")},
        "pass_walls": out.get("pass_walls", []),
        "layer_table": out.get("layer_table", ""),
    }


def print_result(record: dict):
    err = sys.stderr
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}", file=err)
    for name, m in record["metrics"].items():
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}", file=err)
    for name, value in record["details"].items():
        print(f"  {name:<32} {value:>14.6g}", file=err)
    print(
        f"  error_rate {record['error_rate']:.4g} "
        f"({record['failed']} failed / {record['attempted']} attempted)",
        file=err,
    )
    for line in record["failures"][:20]:
        print(f"  FAILED {line}", file=err)
    if record["layer_table"]:
        print(record["layer_table"], file=err)
    summary = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _require_program()
    sys.path.insert(0, str(BENCH))

    spawner = Spawner()  # before numpy, driftkit or any input is loaded; see Spawner
    try:
        record = run(args.workload, args.seed, args.seconds, args.trace, spawner)
    finally:
        spawner.close()
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n")
    print_result(record)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
