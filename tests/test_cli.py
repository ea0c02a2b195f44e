import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from datetime import date
from pathlib import Path

import pytest

from driftkit import tabular
from driftkit.cli import _synth_spec, build_parser, main
from driftkit.synthmarket import SynthMarketSpec, generate

FIXTURE = Path(__file__).parent / "fixtures" / "events_1k.csv"
GOLDEN = Path(__file__).parent / "fixtures" / "golden_drift_local"
GOLDEN_ANALYSIS = Path(__file__).parent / "fixtures" / "golden_analysis"


def run(*argv):
    return main(list(argv))


# each command that writes files: its argv writing into directory `out`, the
# tabular writer a test breaks, and flags that change the bytes it writes
WRITING_RUNS = {
    "drift": (
        lambda out: ("drift", "local", "--input", str(FIXTURE), "--dump-distributions",
                     "--output-dir", str(out)),
        "write_distributions",
        ("--measure", "jaccard"),
    ),
    "canon": (
        lambda out: ("canon", "--items", str(FIXTURE), "--out", str(out / "mapping.csv")),
        "write_mapping",
        ("--max-edit", "0"),
    ),
    "synth": (
        lambda out: ("synth", "--truth", "--catalog-size", "200", "--loans-per-bin", "100",
                     "--bins", "2", "--loaners", "10", "--out", str(out)),
        "write_manifest",
        ("--seed", "2"),
    ),
}


def break_writer(monkeypatch, name, error):
    """Make ``tabular.<name>`` write a partial file, then raise ``error``."""

    def broken(path, *args, **kwargs):
        path.write_text("partial\n")
        raise error("disk full")

    monkeypatch.setattr(tabular, name, broken)


def check_failed_writer_leaves_the_previous_run(tmp_path, capsys, monkeypatch, command):
    argv, writer, changed = WRITING_RUNS[command]
    assert run(*argv(tmp_path)) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    break_writer(monkeypatch, writer, OSError)
    capsys.readouterr()
    assert run(*argv(tmp_path), *changed) == 2
    assert capsys.readouterr().err == "driftkit: disk full\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def check_failed_writer_removes_the_output_dirs(tmp_path, monkeypatch, error, command):
    argv, writer, _ = WRITING_RUNS[command]
    break_writer(monkeypatch, writer, error)
    args = argv(tmp_path / "new" / "deeper")
    if error is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            run(*args)
    else:
        assert run(*args) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def static_log(tmp_path_factory):
    """A churn-free market: every month shares one true distribution."""
    out = tmp_path_factory.mktemp("static")
    spec = SynthMarketSpec(
        catalog_size=50,
        zipf_exponent=1.0,
        monthly_churn=0.0,
        seasonal_fraction=0.0,
        stable_head_ranks=0,
        loans_per_bin=2000,
        n_bins=26,
        start=date(2022, 1, 1),
        n_loaners=40,
        seed=7,
    )
    generate(spec, out / "events.csv")
    return out / "events.csv"


class TestDrift:
    def test_local_on_static_market_near_zero(self, static_log, tmp_path):
        code = run(
            "drift", "local", "--input", str(static_log), "--output-dir", str(tmp_path)
        )
        assert code == 0
        with open(tmp_path / "drift_local.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 25
        assert all(0.0 <= float(r["value"]) < 0.05 for r in rows)
        assert (tmp_path / "manifest.json").exists()

    def test_global_missing_baseline_exits_2(self, static_log, tmp_path, capsys):
        code = run(
            "drift",
            "global",
            "--input",
            str(static_log),
            "--output-dir",
            str(tmp_path),
            "--baseline",
            "2031-05-01",
        )
        assert code == 2
        assert "2031-05-01" in capsys.readouterr().err

    def test_matrix_written_square(self, static_log, tmp_path):
        code = run(
            "drift", "matrix", "--input", str(static_log), "--output-dir", str(tmp_path),
            "--window-start", "2022-01-01", "--window-end", "2022-04-30",
        )
        assert code == 0
        with open(tmp_path / "drift_matrix.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 5 and len(rows[0]) == 5
        assert rows[1][1] == "0.0"

    def test_bootstrap_fills_std_error(self, static_log, tmp_path):
        code = run(
            "drift", "local", "--input", str(static_log), "--output-dir", str(tmp_path),
            "--estimator", "bootstrap", "--resamples", "25", "--seed", "3",
            "--window-start", "2022-01-01", "--window-end", "2022-03-31",
        )
        assert code == 0
        with open(tmp_path / "drift_local.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["std_error"] for r in rows)


class TestGoldenFixture:
    def test_matches_golden_output(self, tmp_path):
        code = run(
            "drift", "local", "--input", str(FIXTURE), "--output-dir", str(tmp_path),
            "--top-k", "0",
        )
        assert code == 0
        got = (tmp_path / "drift_local.csv").read_bytes()
        assert got == (GOLDEN / "drift_local.csv").read_bytes()

    @pytest.mark.parametrize(
        "golden, flags",
        [
            ("drift_local_jsd_alpha2.csv", ("--measure", "jsd_alpha", "--alpha", "2")),
            ("drift_local_jaccard.csv", ("--measure", "jaccard")),
        ],
    )
    def test_other_measures_match_golden(self, tmp_path, golden, flags):
        code = run(
            "drift", "local", "--input", str(FIXTURE), "--output-dir", str(tmp_path),
            "--top-k", "0", *flags,
        )
        assert code == 0
        assert (tmp_path / "drift_local.csv").read_bytes() == (GOLDEN / golden).read_bytes()

    def test_bootstrap_matches_golden(self, tmp_path):
        # resamples are summed with np.sum, so the last bits may move with the
        # kernel's reduction order; bin labels must match exactly
        code = run(
            "drift", "local", "--input", str(FIXTURE), "--output-dir", str(tmp_path),
            "--top-k", "0", "--estimator", "bootstrap", "--resamples", "50", "--seed", "5",
        )
        assert code == 0
        with open(tmp_path / "drift_local.csv", newline="") as fh:
            got = list(csv.DictReader(fh))
        with open(GOLDEN / "drift_local_bootstrap.csv", newline="") as fh:
            want = list(csv.DictReader(fh))
        assert [r["bin_start"] for r in got] == [r["bin_start"] for r in want]
        for g, w in zip(got, want):
            for column in ("value", "std_error"):
                assert abs(float(g[column]) - float(w[column])) <= 1e-12

    @pytest.mark.parametrize(
        "argv, outputs",
        [
            (
                ("contrib", "--kind", "local", "--dump-pair", "2022-03-01"),
                ("contributions_2022-03-01.csv", "group_shares_local.csv"),
            ),
            (("transitions",), ("transitions.csv",)),
            (
                ("trajectories", "--selector", "top_global_contrib", "--at", "2022-04-01",
                 "--k", "50"),
                ("trajectories.csv",),
            ),
        ],
    )
    def test_decomposition_matches_golden(self, tmp_path, argv, outputs):
        code = run(*argv, "--input", str(FIXTURE), "--output-dir", str(tmp_path))
        assert code == 0
        for name in outputs:
            assert (tmp_path / name).read_bytes() == (GOLDEN_ANALYSIS / name).read_bytes()

    def test_repeated_runs_byte_identical(self, tmp_path):
        args = (
            "drift", "local", "--input", str(FIXTURE), "--output-dir", str(tmp_path),
            "--top-k", "0", "--estimator", "bootstrap", "--resamples", "20", "--seed", "5",
        )
        assert run(*args) == 0
        first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert run(*args) == 0
        second = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert first == second

    def test_failed_writer_leaves_the_previous_run_intact(self, tmp_path, capsys, monkeypatch):
        check_failed_writer_leaves_the_previous_run(tmp_path, capsys, monkeypatch, "drift")

    @pytest.mark.parametrize("command", ["canon", "synth"])
    def test_failed_canon_or_synth_writer_leaves_the_previous_run_intact(
        self, tmp_path, capsys, monkeypatch, command
    ):
        check_failed_writer_leaves_the_previous_run(tmp_path, capsys, monkeypatch, command)

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_failed_writer_removes_the_output_dirs_it_created(self, tmp_path, monkeypatch, error):
        check_failed_writer_removes_the_output_dirs(tmp_path, monkeypatch, error, "drift")

    @pytest.mark.parametrize("command", ["canon", "synth"])
    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_failed_canon_or_synth_writer_removes_the_output_dirs_it_created(
        self, tmp_path, monkeypatch, error, command
    ):
        check_failed_writer_removes_the_output_dirs(tmp_path, monkeypatch, error, command)

    def test_stale_temporaries_of_another_run_are_ignored(self, tmp_path):
        args = ("drift", "local", "--input", str(FIXTURE), "--output-dir", str(tmp_path))
        assert run(*args) == 0
        clean = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        stale = tmp_path / f".drift_local.csv.{os.getpid() + 1}.tmp"  # another process's
        stale.write_text("bin_start,value\n")
        assert run(*args) == 0
        assert stale.read_text() == "bin_start,value\n"
        stale.unlink()
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == clean


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run("frobnicate") == 1

    def test_conflicting_or_bad_flag(self):
        assert run("drift", "local", "--estimator", "magic") == 1

    def test_missing_input_is_usage_error(self, tmp_path):
        assert run("drift", "local", "--output-dir", str(tmp_path)) == 1

    def test_unreadable_input_is_data_error(self, tmp_path):
        assert (
            run("drift", "local", "--input", str(tmp_path / "nope.csv"), "--output-dir", str(tmp_path))
            == 2
        )

    def test_bad_config_file_value(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("granularity = fortnight\n")
        assert run("drift", "local", "--config", str(cfg)) == 1

    def test_unknown_config_key_is_usage_error(self, static_log, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {static_log}\ntop-k = 0\ngranularty = week\n")
        code = run("drift", "local", "--config", str(cfg), "--output-dir", str(tmp_path / "out"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.rstrip().endswith("unknown config keys: top-k, granularty")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("subcommand", ["contrib", "transitions", "trajectories"])
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_top_k_rejected_where_all_items_are_spanned(
        self, tmp_path, capsys, subcommand, where
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {FIXTURE}\n" + ("top_k = 5\n" if where == "config" else ""))
        flags = ("--top-k", "5") if where == "flag" else ()
        code = run(subcommand, "--config", str(cfg), "--output-dir", str(tmp_path / "out"), *flags)
        assert code == 1
        err = capsys.readouterr().err
        assert f"{subcommand} spans all items; --top-k (config key top_k) is not accepted" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("drift", "global", "--baseline", "1999-01-01"),
            ("contrib", "--dump-pair", "1999-01-01"),
            ("transitions", "--exclude", "2022-03-01:2022-03-31"),
            ("trajectories", "--selector", "top_global_contrib", "--at", "1999-01-01"),
            ("predict", "--source-year", "1999", "--target-year", "2000"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_failed_analysis_leaves_no_output_dir(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run(*argv, "--input", str(FIXTURE), "--output-dir", str(out)) == 2
        assert capsys.readouterr().err.startswith("driftkit: ")
        assert not out.exists()

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_age_bins_is_not_an_option(self, tmp_path, capsys, where):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {FIXTURE}\n" + ("age_bins = 0-30,30-\n" if where == "config" else ""))
        flags = ("--age-bins", "0-30,30-") if where == "flag" else ()
        code = run("drift", "local", "--config", str(cfg), "--output-dir", str(tmp_path / "out"), *flags)
        assert code == 1
        assert "age" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "catalog, message",
        [
            ("key,canonical\n", "expected columns item_key,canonical_id"),
            ("key,canonical\nK0000001,K0000001\n", "expected columns item_key,canonical_id"),
            ("item_key,canonical_id\nK0000001\n", "expected columns item_key,canonical_id"),
            ("item_key,canonical_id\nK0000002,K0000001\nK0000064,\n",
             "{path}:3: empty canonical_id"),
            ("item_key,canonical_id\n,K0000001\n", "{path}:2: empty item_key"),
            ("item_key,canonical_id\nK0000001,K0000001\nK0000001,K0000064\n",
             "{path}:2 and {path}:3: item_key 'K0000001' mapped to both 'K0000001' and 'K0000064'"),
        ],
        ids=["no-rows", "rows", "short-row", "empty-canonical-id", "empty-item-key", "key-twice"],
    )
    def test_catalog_without_mapping_columns_is_data_error(
        self, tmp_path, capsys, catalog, message
    ):
        path = tmp_path / "mapping.csv"
        path.write_text(catalog)
        code = run(
            "drift", "local", "--input", str(FIXTURE), "--catalog", str(path),
            "--output-dir", str(tmp_path / "out"),
        )
        assert code == 2
        assert message.format(path=path) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_repeated_identical_catalog_row_is_accepted(self, tmp_path):
        path = tmp_path / "mapping.csv"
        path.write_text("item_key,canonical_id\nK0000002,K0000001\nK0000002,K0000001\n")
        argv = ("--catalog", str(path), "--output-dir", str(tmp_path / "out"))
        assert run("drift", "local", "--input", str(FIXTURE), *argv) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ("drift", "local", "--estimator", "bootstrap", "--input", "absent.csv", "--output-dir"),
            ("drift", "local", "--input", "absent.csv", "--output-dir"),
            ("synth", "--out"),
        ],
        ids=["drift-bootstrap", "drift-plugin", "synth"],
    )
    def test_negative_seed_is_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        # the log does not exist: the seed is rejected before it is read
        monkeypatch.chdir(tmp_path)
        assert run(*argv, "out", "--seed", "-1") == 1
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("age_range", ["46-30", "30-30"])
    def test_empty_age_band_is_usage_error(self, tmp_path, capsys, age_range):
        # the log does not exist: the band is rejected before it is read
        out = tmp_path / "out"
        argv = ("--input", str(tmp_path / "absent.csv"), "--output-dir", str(out))
        assert run("drift", "local", "--age-range", age_range, *argv) == 1
        assert f"bad age_range '{age_range}'" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("k", ["-5", "0"])
    def test_trajectories_k_below_one_is_usage_error(self, tmp_path, capsys, k):
        out = tmp_path / "out"
        assert run("trajectories", "--input", str(FIXTURE), "--k", k, "--output-dir", str(out)) == 1
        assert "--k" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--exclude", "2022-03-01:2022-03-31"), "gaps in bin sequence; missing bins: 2022-03-01"),
            (("--window-start", "2022-02-01", "--window-end", "2022-02-28"), "at least two bins"),
        ],
        ids=["gap", "one-bin"],
    )
    def test_local_contrib_follows_the_local_drift_rules(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        code = run("contrib", "--kind", "local", "--input", str(FIXTURE), "--output-dir", str(out), *argv)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv", [("drift", "global"), ("contrib", "--kind", "global")], ids=["drift", "contrib"]
    )
    def test_global_view_over_one_bin_is_data_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        code = run(
            *argv, "--input", str(FIXTURE), "--output-dir", str(out),
            "--window-start", "2022-02-01", "--window-end", "2022-02-28",
        )
        assert code == 2
        assert "global drift needs at least two bins" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("drift", "local", "--baseline", "2022-03-01"), "--baseline"),
            (("drift", "matrix", "--baseline", "2022-03-01"), "--baseline"),
            (("contrib", "--kind", "local", "--baseline", "2022-03-01"), "--baseline"),
            (("trajectories", "--selector", "top_total", "--at", "2022-03-01"), "--at"),
            (("trajectories", "--selector", "top_peak", "--baseline", "2022-03-01"), "--baseline"),
        ],
        ids=["drift-local", "drift-matrix", "contrib-local", "top-total-at", "top-peak-baseline"],
    )
    def test_view_flag_the_run_never_reads_is_usage_error(self, tmp_path, capsys, argv, flag):
        # the log does not exist: the flag is rejected before it is read
        out = tmp_path / "out"
        code = run(*argv, "--input", str(tmp_path / "absent.csv"), "--output-dir", str(out))
        assert code == 1
        assert f"{argv[0]} {flag} applies only to " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("at", [(), ("--at", "")], ids=["absent", "empty"])
    def test_top_global_contrib_without_at_is_usage_error(self, tmp_path, capsys, at):
        # the log does not exist: the missing flag is reported before it is read
        out = tmp_path / "out"
        code = run(
            "trajectories", "--selector", "top_global_contrib", *at,
            "--input", str(tmp_path / "absent.csv"), "--output-dir", str(out),
        )
        assert code == 1
        assert "--at BIN is required for selector top_global_contrib" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, empty",
        [
            (("drift", "global"), ("--baseline", "")),
            (("drift", "local"), ("--baseline", "")),
            (("contrib", "--kind", "global"), ("--baseline", "")),
            (("trajectories", "--selector", "top_total", "--k", "20"), ("--at", "")),
            (("trajectories", "--selector", "top_global_contrib", "--at", "2022-04-01"),
             ("--baseline", "")),
        ],
        ids=["drift-global", "drift-local", "contrib-global", "top-total-at", "contrib-baseline"],
    )
    def test_empty_view_flag_is_unset(self, tmp_path, argv, empty):
        out = tmp_path / "out"
        written = []
        for extra in ((), empty):
            assert run(*argv, *extra, "--input", str(FIXTURE), "--output-dir", str(out)) == 0
            written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
            for p in out.iterdir():
                p.unlink()
        assert written[0] == written[1]

    def test_predict_global_names_the_year_without_bins(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(
            "predict", "--kind", "global", "--input", str(FIXTURE), "--output-dir", str(out),
            "--source-year", "2021", "--target-year", "2022",
        )
        assert code == 2
        assert "year 2021: global drift needs at least two bins" in capsys.readouterr().err
        assert not out.exists()

    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-m", "driftkit", "drift", "local", "--input", str(FIXTURE),
             "--window-start", "2099-01-01", "--window-end", "2099-12-31"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr == "driftkit: no events matched the window and cohort filters\n"

    @pytest.mark.parametrize(
        "kind, role", [("local", "the first bin"), ("global", "the baseline")], ids=["local", "global"]
    )
    def test_dump_pair_that_ends_no_pair_is_named_as_such(self, tmp_path, capsys, kind, role):
        out = tmp_path / "out"
        code = run(
            "contrib", "--kind", kind, "--dump-pair", "2022-01-01",
            "--input", str(FIXTURE), "--output-dir", str(out),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"pair bin 2022-01-01 is {role}, which ends no {kind} pair" in err
        assert "not present" not in err
        assert not out.exists()

    @pytest.mark.parametrize("baseline", [(), ("--baseline", "2022-03-01")], ids=["default", "given"])
    def test_trajectories_at_the_baseline_is_data_error(self, tmp_path, capsys, baseline):
        at = baseline[1] if baseline else "2022-01-01"
        out = tmp_path / "out"
        code = run(
            "trajectories", "--selector", "top_global_contrib", "--at", at, *baseline,
            "--input", str(FIXTURE), "--output-dir", str(out),
        )
        assert code == 2
        assert f"bin {at} is the baseline" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "option, value, applies",
        [
            ("alpha", "2", "measure jsd_alpha, not jsd"),
            ("resamples", "7", "estimator bootstrap, not plugin"),
            ("jobs", "2", "estimator bootstrap, not plugin"),
        ],
    )
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_option_the_run_never_reads_is_usage_error(
        self, tmp_path, capsys, option, value, applies, where
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {FIXTURE}\n" + (f"{option} = {value}\n" if where == "config" else ""))
        flags = (f"--{option}", value) if where == "flag" else ()
        out = tmp_path / "out"
        assert run("drift", "local", "--config", str(cfg), "--output-dir", str(out), *flags) == 1
        err = capsys.readouterr().err
        assert f"--{option} (config key {option}) applies only to {applies}" in err
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-0.5"])
    def test_alpha_not_finite_and_nonnegative_is_usage_error(self, tmp_path, capsys, alpha):
        out = tmp_path / "out"
        argv = ("--measure", "jsd_alpha", f"--alpha={alpha}", "--output-dir", str(out))
        assert run("drift", "local", "--input", str(FIXTURE), *argv) == 1
        assert f"alpha must be a finite number >= 0, got {float(alpha):g}" in capsys.readouterr().err
        assert not out.exists()

    def test_alpha_without_precision_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ("--measure", "jsd_alpha", "--alpha=1e308", "--output-dir", str(out))
        with pytest.warns(UserWarning, match="alpha"):
            assert run("drift", "local", "--input", str(FIXTURE), *argv) == 2
        assert "alpha=1e+308: the power sums have no precision left" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", [("ingest-check",), ("drift", "local")])
    def test_undecodable_byte_names_file_and_row(self, tmp_path, capsys, subcommand):
        lines = FIXTURE.read_bytes().splitlines(keepends=True)[:301]
        bad_row = 250  # data row with one stray Latin-1 byte in its title
        lines[bad_row] = lines[bad_row].replace(b",a", b",\xe9", 1)
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"".join(lines))
        out = tmp_path / "out"
        assert run(*subcommand, "--input", str(path), "--output-dir", str(out)) == 2
        err = capsys.readouterr().err
        match = re.search(r"undecodable byte 0xe9 after data row (\d+)", err)
        assert str(path) in err and match
        assert int(match.group(1)) < bad_row
        assert not out.exists()

    @pytest.mark.parametrize("table", ["items", "catalog"])
    def test_undecodable_byte_in_catalog_or_items_table(self, tmp_path, capsys, table):
        header = "item_key,title,creator" if table == "items" else "item_key,canonical_id"
        width = header.count(",") + 1
        rows = [",".join([f"K{i:04d}"] * width) for i in range(2000)]
        bad_row = 1500
        path = tmp_path / f"{table}.csv"
        path.write_bytes("\n".join([header] + rows).encode().replace(b"K1500", b"K\xe9", 1))
        out = tmp_path / "out"
        if table == "items":
            code = run("canon", "--items", str(path), "--out", str(out / "mapping.csv"))
        else:
            code = run(
                "drift", "local", "--input", str(FIXTURE), "--catalog", str(path),
                "--output-dir", str(out),
            )
        assert code == 2
        err = capsys.readouterr().err
        match = re.search(r"undecodable byte 0xe9 after data row (\d+)", err)
        assert str(path) in err and match
        assert int(match.group(1)) < bad_row
        assert not out.exists()

    def test_short_items_row_is_data_error(self, tmp_path, capsys):
        items = tmp_path / "items.csv"
        items.write_text("item_key,title,creator\nK1,Pixel Ninja,A. Writer\nK2\n")
        out = tmp_path / "out"
        assert run("canon", "--items", str(items), "--out", str(out / "mapping.csv")) == 2
        assert f"driftkit: {items}:3: expected columns item_key,title[,creator]\n" == (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_empty_items_key_is_data_error(self, tmp_path, capsys):
        items = tmp_path / "items.csv"
        items.write_text("item_key,title,creator\nK1,Pixel Ninja,A. Writer\n,Ninja,A. Writer\n")
        out = tmp_path / "out"
        assert run("canon", "--items", str(items), "--out", str(out / "mapping.csv")) == 2
        assert capsys.readouterr().err == f"driftkit: {items}:3: empty item_key\n"
        assert not out.exists()


class TestInputEncoding:
    def test_bom_prefixed_log_runs_as_the_plain_one(self, tmp_path, capsys):
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + FIXTURE.read_bytes())
        reports = {}
        for name, path in (("plain", FIXTURE), ("bom", bom)):
            out = tmp_path / name
            assert run("drift", "local", "--input", str(path), "--output-dir", str(out)) == 0
            assert run("ingest-check", "--input", str(path)) == 0
            printed = json.loads(capsys.readouterr().out)
            manifest = json.loads((out / "manifest.json").read_text())["config"]["run"]
            assert printed == manifest["ingest"]
            reports[name] = {k: v for k, v in printed.items() if k != "path"}
        assert reports["bom"] == reports["plain"]
        assert reports["plain"]["accepted"] == 1000
        assert (tmp_path / "bom" / "drift_local.csv").read_bytes() == (
            tmp_path / "plain" / "drift_local.csv"
        ).read_bytes()

    def test_bom_prefixed_items_table_and_catalog(self, tmp_path):
        items = tmp_path / "items.csv"
        items.write_bytes(
            b"\xef\xbb\xbfitem_key,title,creator\n"
            b"k1,Pixel Ninja,A. Writer\nk2,Pixel Ninja 1,A. Writer\n"
        )
        catalog = tmp_path / "mapping.csv"
        assert run("canon", "--items", str(items), "--out", str(catalog)) == 0
        catalog.write_bytes(b"\xef\xbb\xbf" + catalog.read_bytes() + b"\n")  # and a blank line
        assert tabular.read_mapping(catalog).mapping == {"k1": "k1", "k2": "k1"}


class TestConfigFile:
    def test_config_merging_and_flag_override(self, static_log, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "\n".join(
                [
                    "# analysis window",
                    f"input = {static_log}",
                    "granularity = month",
                    "window_start = 2022-01-01",
                    "window_end = 2022-05-31",
                    "top_k = 0",
                    f"output_dir = {tmp_path / 'out_a'}",
                ]
            )
        )
        assert run("drift", "local", "--config", str(cfg)) == 0
        with open(tmp_path / "out_a" / "drift_local.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 4
        # flag overrides the file's window
        assert (
            run(
                "drift", "local", "--config", str(cfg),
                "--window-end", "2022-03-31",
                "--output-dir", str(tmp_path / "out_b"),
            )
            == 0
        )
        with open(tmp_path / "out_b" / "drift_local.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 2

    def test_exclusion_ranges_drop_months(self, static_log, tmp_path):
        assert (
            run(
                "drift", "local", "--input", str(static_log),
                "--output-dir", str(tmp_path),
                "--window-start", "2022-01-01", "--window-end", "2022-06-30",
                "--exclude", "2022-03-01:2022-03-31",
            )
            == 2  # gap in the bin sequence is a data error for local drift
        )

    # each run option as a config-file line and as its flag: one parse path
    @pytest.mark.parametrize(
        "options",
        [
            {"catalog": "mapping.csv"},
            {"output_dir": "out"},
            {"granularity": "week"},
            {"window_start": "2022-02-01", "window_end": "2022-05-31"},
            {"exclude": ["2022-02-01:2022-02-10", "2022-05-01:2022-05-03"]},
            {"sex": "female"},
            {"education": "higher"},
            {"residence": "large_city"},
            {"category": "adult_fiction,children"},
            {"age_range": "30-46"},
            {"measure": "jsd_alpha", "alpha": "2"},
            {"measure": "jaccard"},
            {"estimator": "bootstrap", "resamples": "20", "seed": "5"},
            {"estimator": "bootstrap", "resamples": "20", "jobs": "2"},
            {"seed": "7"},
            {"top_k": "5"},
            {"max_malformed_fraction": "0.5"},
        ],
        ids=lambda options: "+".join(options),
    )
    def test_config_line_and_flag_agree(self, tmp_path, options):
        mapping = tmp_path / "mapping.csv"
        mapping.write_text("item_key,canonical_id\nK0000002,K0000001\n")
        options = {
            k: str(tmp_path / v) if k in ("catalog", "output_dir") else v
            for k, v in options.items()
        }
        out = options.get("output_dir", str(tmp_path / "out"))

        def manifest_config(config_lines, flags):
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"input = {FIXTURE}\n" + "".join(config_lines))
            argv = ["drift", "global", "--config", str(cfg), *flags]
            if "output_dir" not in options:
                argv += ["--output-dir", out]
            assert run(*argv) == 0
            return json.loads((Path(out) / "manifest.json").read_text())["config"]

        from_file = manifest_config(
            [f"{k} = {','.join(v) if isinstance(v, list) else v}\n" for k, v in options.items()],
            [],
        )
        flags = []
        for key, value in options.items():
            for v in value if isinstance(value, list) else [value]:
                flags += ["--" + key.replace("_", "-"), v]
        assert manifest_config([], flags) == from_file
        if "output_dir" not in options:
            assert manifest_config([], []) != from_file


class TestIngestCheckAndCanon:
    def test_ingest_check_reports(self, static_log, capsys):
        assert run("ingest-check", "--input", str(static_log)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["accepted"] == 52000 and report["malformed"] == 0

    def test_canon_roundtrip(self, tmp_path):
        items = tmp_path / "items.csv"
        with open(items, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["item_key", "title", "creator"])
            writer.writerow(["k1", "Pixel Ninja", "A. Writer"])
            writer.writerow(["k2", "Pixel Ninja 1", "A. Writer"])
            writer.writerow(["k3", "Pixel Ninja 2", "A. Writer"])
        out = tmp_path / "mapping.csv"
        assert run("canon", "--items", str(items), "--out", str(out)) == 0
        with open(out, newline="") as fh:
            mapping = {r["item_key"]: r["canonical_id"] for r in csv.DictReader(fh)}
        assert mapping == {"k1": "k1", "k2": "k1", "k3": "k3"}

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--window", "0"), "--window: expected an integer >= 1, got '0'"),
            (("--window", "-3"), "--window: expected an integer >= 1, got '-3'"),
            (("--max-edit", "-1"), "--max-edit: expected an integer >= 0, got '-1'"),
        ],
        ids=["window-0", "window-negative", "max-edit-negative"],
    )
    def test_canon_out_of_range_flag_is_usage_error(self, tmp_path, capsys, flags, message):
        # at these values variant merging would be off: 2 canonical items, not 1
        items = tmp_path / "items.csv"
        items.write_text("item_key,title,creator\nk1,pixel ninja,A\nk2,pixel ninja,A\nk3,pixel ninjaz,A\n")
        out = tmp_path / "mapping.csv"
        assert run("canon", "--items", str(items), "--out", str(out), *flags) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "table",
        [
            "item_key,title,creator\nk1,Pixel Ninja\nk2,Ninja,A. Writer\n",
            "title,item_key\nPixel Ninja,k1\nNinja,k2\n",
        ],
        ids=["short-creator", "no-creator-column"],
    )
    def test_items_table_missing_creator_reads_empty(self, tmp_path, table):
        items = tmp_path / "items.csv"
        items.write_text(table)
        creator = "A. Writer" if "creator" in table else ""
        expected = [("k1", "Pixel Ninja", ""), ("k2", "Ninja", creator)]
        assert tabular.read_items_table(items) == expected


class TestAnalysisCommands:
    def test_contrib_shares_sum_to_one(self, static_log, tmp_path):
        code = run(
            "contrib", "--input", str(static_log), "--output-dir", str(tmp_path),
            "--window-start", "2022-01-01", "--window-end", "2022-04-30",
            "--dump-pair", "2022-03-01",
        )
        assert code == 0
        with open(tmp_path / "group_shares_local.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                total = sum(float(row[g]) for g in ("g1", "g2", "g3", "g4", "g5"))
                assert total == pytest.approx(1.0, abs=1e-9)
        assert (tmp_path / "contributions_2022-03-01.csv").exists()

    def test_transitions_rows_stochastic(self, static_log, tmp_path):
        code = run(
            "transitions", "--input", str(static_log), "--output-dir", str(tmp_path),
            "--window-start", "2022-01-01", "--window-end", "2022-05-31",
        )
        assert code == 0
        with open(tmp_path / "transitions.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                total = sum(float(row[g]) for g in ("g1", "g2", "g3", "g4", "g5"))
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_trajectories_sorted_by_peak(self, static_log, tmp_path):
        code = run(
            "trajectories", "--input", str(static_log), "--output-dir", str(tmp_path),
            "--selector", "top_total", "--k", "10",
        )
        assert code == 0
        with open(tmp_path / "trajectories.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        peaks = [r["peak_bin"] for r in rows]
        assert peaks == sorted(peaks)

    def test_predict_round_trip(self, static_log, tmp_path):
        code = run(
            "predict", "--kind", "local", "--input", str(static_log),
            "--output-dir", str(tmp_path),
            "--source-year", "2022", "--target-year", "2023",
        )
        assert code == 0
        summary = json.loads((tmp_path / "forecast_local.json").read_text())
        assert summary["source_year"] == 2022 and summary["target_year"] == 2023
        assert summary["mae"] < 0.05  # static market: drift is all noise
        assert (tmp_path / "forecast_local.csv").exists()

    def test_predict_global_uses_year_baselines(self, static_log, tmp_path):
        code = run(
            "predict", "--kind", "global", "--input", str(static_log),
            "--output-dir", str(tmp_path),
            "--source-year", "2022", "--target-year", "2023",
        )
        assert code == 0
        summary = json.loads((tmp_path / "forecast_global.json").read_text())
        assert summary["baselines"] == ["2022-01-01", "2023-01-01"]

    @pytest.mark.parametrize(
        "argv, baseline",
        [
            (("contrib", "--kind", "global", "--baseline", "2022-03-01"), "2022-03-01"),
            (("contrib", "--kind", "global"), None),
            (("trajectories", "--selector", "top_global_contrib", "--at", "2022-04-01",
              "--baseline", "2022-02-01"), "2022-02-01"),
            (("trajectories", "--selector", "top_total"), None),
        ],
        ids=["contrib-given", "contrib-default", "trajectories-given", "trajectories-none"],
    )
    def test_manifest_records_the_baseline(self, tmp_path, argv, baseline):
        out = tmp_path / "out"
        assert run(*argv, "--input", str(FIXTURE), "--output-dir", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["run"]["baseline"] == baseline

    def test_manifest_records_the_row_accounting(self, tmp_path):
        rows = FIXTURE.read_text().splitlines(keepends=True)
        fields = rows[1].split(",")
        fields[7] = ""  # birthdate
        rows[1] = ",".join(fields)
        log = tmp_path / "events.csv"
        log.write_text("".join(rows))
        accounting = {}
        for cohort in ((), ("--age-range", "0-")):
            out = tmp_path / "out"
            argv = ("--input", str(log), "--output-dir", str(out), *cohort)
            assert run("drift", "local", *argv) == 0
            entries = json.loads((out / "manifest.json").read_text())["config"]["run"]
            accounting[cohort] = {k: entries[k] for k in ("matched", "skipped", "unknown_keys")}
        assert accounting[()] == {"matched": 1000, "skipped": {}, "unknown_keys": 0}
        assert accounting[("--age-range", "0-")] == {
            "matched": 999, "skipped": {"missing_birthdate": 1}, "unknown_keys": 0
        }


class TestSynthCommand:
    def test_synth_writes_log_and_truth(self, tmp_path):
        code = run(
            "synth", "--out", str(tmp_path), "--catalog-size", "50", "--churn", "0.0",
            "--seasonal-fraction", "0.0", "--loans-per-bin", "100", "--bins", "2",
            "--loaners", "20", "--seed", "1", "--truth",
        )
        assert code == 0
        with open(tmp_path / "events.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 200
        assert (tmp_path / "truth.csv").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["subcommand"] == "synth"

    def test_synth_manifest_records_full_spec(self, tmp_path):
        code = run(
            "synth", "--out", str(tmp_path), "--catalog-size", "50", "--churn", "0.0",
            "--seasonal-fraction", "0.0", "--loans-per-bin", "100", "--bins", "2",
            "--loaners", "20", "--start", "2021-03-01",
        )
        assert code == 0
        config = json.loads((tmp_path / "manifest.json").read_text())["config"]
        assert set(config) == {f.name for f in dataclasses.fields(SynthMarketSpec)}
        assert config["start"] == "2021-03-01"
        assert config["seasonal_rank_range"] == list(SynthMarketSpec().seasonal_rank_range)

    def test_synth_defaults_are_the_spec_defaults(self, tmp_path):
        args = build_parser().parse_args(["synth", "--out", str(tmp_path)])
        assert _synth_spec(args) == SynthMarketSpec()

    def test_synth_invalid_params_usage_error(self, tmp_path):
        assert run("synth", "--out", str(tmp_path), "--churn", "2.0") == 1

    @pytest.mark.parametrize(
        "flag, value, bins",
        [
            ("--zipf-exponent", "nan", "12"),
            ("--zipf-exponent", "inf", "12"),
            ("--seasonal-multiplier", "nan", "12"),
            ("--seasonal-multiplier", "inf", "12"),
            ("--seasonal-multiplier", "inf", "2"),
        ],
    )
    def test_synth_non_finite_number_is_usage_error(self, tmp_path, capsys, flag, value, bins):
        out = tmp_path / "market"
        small = ("--catalog-size", "200", "--loans-per-bin", "100", "--loaners", "10")
        assert run("synth", "--out", str(out), *small, "--bins", bins, flag, value) == 1
        field = "zipf_exponent" if flag == "--zipf-exponent" else "seasonal_multiplier"
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not out.exists()
