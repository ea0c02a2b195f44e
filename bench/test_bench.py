"""Self-tests of the benchmark at a tiny size.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import inputs  # noqa: E402
import run  # noqa: E402

TINY = {
    "pipeline": dict(
        catalog=300,
        bins=4,
        loans=800,
        loaners=400,
        variant_items=0.3,
        variant_events=0.5,
        malformed_share=0.005,
    ),
    "market_analysis": dict(catalog=300, bins=24, loans=2_000),
    "bootstrap_small": dict(catalog=300, bins=3, loans=400, loaners=400, resamples=20),
}


# per-layer metrics of each workload's dominant layers; a missing hook would read 0
DOMINANT = {
    "pipeline": ("events.us_per_row", "canon.us_per_item", "popularity.us_per_event"),
    "market_analysis": ("divergence.ms_per_call_p50", "analysis.ms_per_pair_p50"),
    "bootstrap_small": ("estimators.ms_per_resample", "events.us_per_row"),
}


@pytest.fixture(scope="module")
def spawner():
    spawner = run.Spawner()
    yield spawner
    spawner.close()


@pytest.fixture(autouse=True)
def work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    return tmp_path / "work"


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["paths"] == ["bench"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_run_is_correct_and_reports_every_metric(spawner, workload, trace):
    record = run.run(workload, 3, 0.1, trace, spawner, sizes=TINY)
    assert record["failures"] == []
    assert record["correct"] and record["attempted"] >= 2 and record["failed"] == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in record["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in record["metrics"].values())
    if trace:
        assert all(record["metrics"][name]["value"] > 0 for name in DOMINANT[workload])
    else:
        assert all(m["value"] > 0 for m in record["metrics"].values())


def test_missing_hook_is_a_failed_check(spawner, monkeypatch):
    import tracing

    monkeypatch.setattr(tracing, "HOOKS", tracing.HOOKS + (("cli", "no_such_entry", "events"),))
    record = run.run("bootstrap_small", 3, 0.1, 1, spawner, sizes=TINY)
    assert not record["correct"]
    assert any("hook target not found: cli.no_such_entry" in f for f in record["failures"])


def _pipeline(work: Path, spawner, **size_changes):
    size = dict(TINY["pipeline"], **size_changes)
    data = inputs.pipeline_log(work / "inputs", 5, size)
    runner = run.OpRunner(work, spawner)
    ops = {op.name: op for op in run.pipeline_ops(work, data, 5, {})}
    return runner, ops


def test_corrupted_output_is_a_failed_op(work_dir, spawner):
    runner, ops = _pipeline(work_dir, spawner)
    assert runner.execute(ops["canon"], "child").failures == []
    good = ops["drift_local"]
    assert runner.execute(good, "child").failures == []

    def corrupt_then_check(content):
        def check(out_dir):
            (out_dir / "drift_local.csv").write_text(content)
            return good.check(out_dir)

        return check

    out_of_range = "bin_start,value,std_error\n" + "2022-02-01,1.5,\n" * 3
    for content in (out_of_range, "not,a,series\n1,2\n"):
        op = run.CliOp("drift_local", good.argv, good.out_dir, corrupt_then_check(content))
        assert runner.execute(op, "child").failures
    assert (runner.attempted, runner.failed) == (4, 2)


def test_over_threshold_malformed_log_is_a_failed_op(work_dir, spawner):
    runner, ops = _pipeline(work_dir, spawner, malformed_share=0.05)
    runner.execute(ops["canon"], "child")
    result = runner.execute(ops["drift_local"], "child")
    assert result.failures and "exit code 2" in result.failures[0]
    assert (runner.attempted, runner.failed) == (2, 1)


def test_exits_nonzero_without_result_when_program_is_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pipeline", "--seed", "1"]
        + ["--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
