"""The bootstrap split over forked workers gives the serial bits, errors and output.

Every test that forks patches the usable-core count to 4, so three children
run even on a 2-core host; afterwards no child may be left unreaped.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from driftkit import _fork, estimators
from driftkit.cli import _config_from_args, build_parser, main
from driftkit.divergence import Measure
from driftkit.estimators import Estimator, bootstrap_divergence

from conftest import dist

FIXTURE = Path(__file__).parent / "fixtures" / "events_1k.csv"
SRC = Path(__file__).resolve().parents[1] / "src"
FIELDS = ("plugin_value", "corrected_value", "std_error", "resample_mean")
MEASURES = [
    Measure("jsd"),
    Measure("jsd_alpha", 0.0),
    Measure("jsd_alpha", 0.5),
    Measure("jsd_alpha", 2.0),
    Measure("jaccard"),
]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def four_cores():
    return patch.object(_fork, "usable_cores", lambda: 4)


@st.composite
def table_pairs(draw):
    """Two count tables: overlapping, identical or disjoint, one item or many."""
    n_items = draw(st.integers(1, 12))
    shape = draw(st.sampled_from(["overlap", "identical", "disjoint"]))
    counts = st.lists(st.integers(0, 40), min_size=n_items, max_size=n_items)
    a = draw(counts.filter(any))
    if shape == "identical":
        b = list(a)
    elif shape == "disjoint":
        a = a + [0] * n_items
        b = [0] * n_items + draw(counts.filter(any))
    else:
        b = draw(counts.filter(any))

    def table(row, month):
        return dist({f"i{k}": c for k, c in enumerate(row) if c}, month=month)

    return table(a, 1), table(b, 2)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    tables=table_pairs(),
    measure=st.sampled_from(MEASURES),
    n_resamples=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
    jobs=st.integers(2, 4),
)
def test_forked_workers_give_the_serial_bits(tables, measure, n_resamples, seed, jobs):
    a, b = tables
    serial = bootstrap_divergence(a, b, measure, n_resamples, seed, jobs=1)
    with four_cores():
        assert _fork.worker_count(jobs, n_resamples) == min(jobs, n_resamples)
        forked = bootstrap_divergence(a, b, measure, n_resamples, seed, jobs=jobs)
    for name in FIELDS:
        assert getattr(forked, name) == getattr(serial, name), name
    assert forked == serial
    assert_no_child_left()


def test_resample_seed_is_the_spawned_child():
    seed, n = 2024, 7
    spawned = np.random.SeedSequence(seed).spawn(n)
    for b in range(n):
        keyed = np.random.SeedSequence(seed, spawn_key=(b,))
        assert keyed.generate_state(8).tolist() == spawned[b].generate_state(8).tolist()
        assert (
            np.random.default_rng(keyed).random(4).tolist()
            == np.random.default_rng(spawned[b]).random(4).tolist()
        )


def test_worker_count_starts_no_process(monkeypatch):
    def no_fork():
        raise AssertionError("worker_count forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    assert _fork.usable_cores() == _fork.MAX_WORKERS
    assert _fork.worker_count(10**6, 500) == _fork.MAX_WORKERS
    assert _fork.worker_count(10**6, 3) == 3
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert _fork.worker_count(10**6, 500) == 3
    assert _fork.worker_count(1, 500) == 1


def test_without_fork_the_helper_runs_serially(monkeypatch):
    a, b = dist({"a": 5, "b": 3, "c": 1}), dist({"a": 2, "c": 6}, month=2)
    serial = bootstrap_divergence(a, b, n_resamples=30, seed=4)
    monkeypatch.delattr(os, "fork")
    with four_cores():
        assert _fork.worker_count(4, 30) == 1
        assert bootstrap_divergence(a, b, n_resamples=30, seed=4, jobs=4) == serial


@pytest.mark.parametrize("jobs", [0, -1])
def test_estimator_rejects_jobs_below_one(jobs):
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        Estimator("bootstrap", jobs=jobs)


def test_jobs_takes_no_part_in_estimator_equality():
    assert Estimator("bootstrap", 20, 3, jobs=1) == Estimator("bootstrap", 20, 3, jobs=4)


# Error parity: resample b fails in the parent's block or in a child's -------

N = 40  # jobs=3 splits b into blocks [0, 13), [13, 26), [26, 40)
PAIR = (
    dist({f"i{k}": 3 + k % 7 for k in range(30)}),
    dist({f"i{k}": 1 + k % 5 for k in range(10, 40)}, month=2),
)


def _resample_inputs():
    """The (p, q) each resample b hands the kernel, recorded serially."""
    calls = []
    real = estimators.divergence_of_arrays

    def record(measure, p, q):
        calls.append((p.copy(), q.copy()))
        return real(measure, p, q)

    with patch.object(estimators, "divergence_of_arrays", record):
        bootstrap_divergence(*PAIR, n_resamples=N, seed=11)
    assert len(calls) == N
    return calls


def failing_kernel(failures: dict[int, BaseException]):
    """The kernel, raising ``failures[b]`` on resample b."""
    inputs = _resample_inputs()
    real = estimators.divergence_of_arrays

    def kernel(measure, p, q):
        for b, error in failures.items():
            if np.array_equal(p, inputs[b][0]) and np.array_equal(q, inputs[b][1]):
                raise error
        return real(measure, p, q)

    return kernel


@pytest.mark.parametrize(
    "failing",
    [(5,), (30,), (20, 35), (12, 13), (3, 39)],
    ids=["parent", "last-child", "two-children", "block-edge", "parent-and-child"],
)
def test_first_failing_resample_reaches_the_caller(failing):
    failures = {b: FloatingPointError(f"resample {b} failed") for b in failing}
    with patch.object(estimators, "divergence_of_arrays", failing_kernel(failures)):
        with pytest.raises(FloatingPointError) as serial:
            bootstrap_divergence(*PAIR, n_resamples=N, seed=11, jobs=1)
        with four_cores(), pytest.raises(FloatingPointError) as forked:
            bootstrap_divergence(*PAIR, n_resamples=N, seed=11, jobs=3)
    assert str(serial.value) == f"resample {min(failing)} failed"
    assert str(forked.value) == str(serial.value)
    assert_no_child_left()


@pytest.mark.parametrize("b", [2, 33], ids=["parent", "child"])
def test_interrupt_kills_and_reaps_every_worker(b):
    with patch.object(estimators, "divergence_of_arrays", failing_kernel({b: KeyboardInterrupt()})):
        with four_cores(), pytest.raises(KeyboardInterrupt):
            bootstrap_divergence(*PAIR, n_resamples=N, seed=11, jobs=3)
    assert_no_child_left()


# The CLI ----------------------------------------------------------------------


def _outputs(out: Path) -> dict[str, bytes]:
    """Every file of a run, the manifest included; the directory is emptied for the next run."""
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    shutil.rmtree(out)
    return files


@pytest.mark.parametrize("mode", ["local", "global", "matrix"])
def test_every_jobs_writes_the_same_bytes(tmp_path, capfd, mode):
    out = tmp_path / "out"
    argv = (
        "drift", mode, "--input", str(FIXTURE), "--output-dir", str(out), "--top-k", "0",
        "--estimator", "bootstrap", "--resamples", "20", "--seed", "5",
    )
    cfg = tmp_path / "run.cfg"
    cfg.write_text("jobs = 2\n")
    flags = {
        "1": ("--jobs", "1"),
        "2": ("--jobs", "2"),
        "3": ("--jobs", "3"),
        "default": (),
        "config": ("--config", str(cfg)),
    }
    runs = {}
    with four_cores():
        for name, extra in flags.items():
            assert main([*argv, *extra]) == 0
            runs[name] = (_outputs(out), capfd.readouterr())
    assert "manifest.json" in runs["1"][0]
    for name, run in runs.items():
        assert run == runs["1"], name
    assert_no_child_left()


@pytest.mark.parametrize(
    "flags, config, jobs",
    [((), "", 4), (("--jobs", "2"), "", 2), ((), "jobs = 3\n", 3), (("--jobs", "1"), "jobs = 3\n", 1)],
    ids=["default", "flag", "config", "flag-over-config"],
)
def test_cli_jobs_defaults_to_the_usable_cores(tmp_path, flags, config, jobs):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    argv = ["drift", "local", "--input", str(FIXTURE), "--estimator", "bootstrap", "--config", str(cfg)]
    with four_cores():
        parsed = build_parser().parse_args([*argv, *flags])
        assert _config_from_args(parsed).estimator.jobs == jobs


@pytest.mark.parametrize("jobs", ["0", "-1", "x"])
def test_jobs_below_one_or_not_an_integer_is_usage_error(tmp_path, capsys, jobs):
    out = tmp_path / "out"
    argv = ("--estimator", "bootstrap", f"--jobs={jobs}", "--output-dir", str(out))
    assert main(["drift", "local", "--input", str(FIXTURE), *argv]) == 1
    assert "jobs" in capsys.readouterr().err
    assert not out.exists()


_FAILING_RUN = """
import sys
from unittest.mock import patch
from driftkit import _fork, estimators
from driftkit.cli import main

real = estimators.divergence_of_arrays
calls = 0

def kernel(measure, p, q):
    global calls
    calls += 1  # counted per process: fails once in the parent and in every child
    if calls == 4:
        raise ValueError("kernel failed")
    return real(measure, p, q)

print("before the run", end="")  # left in the stdout buffer across the fork
with patch.object(_fork, "usable_cores", lambda: 4):
    with patch.object(estimators, "divergence_of_arrays", kernel):
        sys.exit(main(sys.argv[1:]))
"""


def test_failing_run_prints_and_exits_as_the_serial_run(tmp_path):
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    results = {}
    for jobs in ("1", "3"):
        out = tmp_path / f"jobs-{jobs}"
        proc = subprocess.run(
            [sys.executable, "-c", _FAILING_RUN, "drift", "local", "--input", str(FIXTURE),
             "--top-k", "0", "--estimator", "bootstrap", "--resamples", "40", "--seed", "5",
             "--jobs", jobs, "--output-dir", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert not out.exists()
        results[jobs] = (proc.returncode, proc.stdout, proc.stderr)
    assert results["1"] == (2, "before the run", "driftkit: kernel failed\n")
    assert results["3"] == results["1"]
