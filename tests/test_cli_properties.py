"""The CLI's plug-in products depend on the loans, not on how the log is written.

Each property runs the CLI in process on small drawn logs:

- Row order: permuting the data rows, written to the same path, leaves every
  file of every run byte-identical, `manifest.json` included.
- Count scaling: repeating every row k times leaves every value of the
  drift, group-share, contribution and transition products bit-identical,
  since (k*c)/(k*n) rounds to the float c/n does. A trajectory panel keeps
  its items and peak bins, with each count multiplied by k.

The drawn logs are well formed, with loans in each of three months: a
malformed row's example in the manifest cites its row number, which a
permutation moves.
"""

import csv
import io
import shutil
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from driftkit.cli import main
from driftkit.events import Category, Education, Residence, Sex

from conftest import write_events_csv

# each run: its name (the directory it writes) and its argv before --input
RUNS = {
    "drift_local": ("drift", "local"),
    "drift_global": ("drift", "global"),
    "drift_matrix": ("drift", "matrix"),
    "contrib_local": ("contrib", "--kind", "local", "--dump-pair", "2022-02-01"),
    "contrib_global": ("contrib", "--kind", "global", "--dump-pair", "2022-02-01"),
    "transitions": ("transitions",),
    "top_total": ("trajectories", "--selector", "top_total"),
    "top_peak": ("trajectories", "--selector", "top_peak"),
    "top_global_contrib": (
        "trajectories", "--selector", "top_global_contrib", "--at", "2022-03-01"
    ),  # fmt: skip
}

DAYS = [
    "2022-01-01", "2022-01-17", "2022-01-31", "2022-02-01", "2022-02-28", "2022-03-01",
    "2022-03-31",
]  # fmt: skip
KEYS = ["K1", "K2", "K3", "K,4", 'K"5', "K 6", "K7"]


def rows_on(days):
    """Well-formed log rows (the `write_events_csv` columns) with loan dates from ``days``."""
    return st.tuples(
        days,
        st.sampled_from(KEYS),
        st.sampled_from(["Title", "A, B"]),
        st.sampled_from(["", "Creator"]),
        st.sampled_from([c.value for c in Category]),
        st.sampled_from(["physical", "ebook"]),
        st.sampled_from(["L1", "L2", "L3"]),
        st.sampled_from(["", "1950-06-15", "1992-01-31"]),
        st.sampled_from([s.value for s in Sex]),
        st.sampled_from([e.value for e in Education]),
        st.sampled_from([r.value for r in Residence]),
    ).map(list)


@st.composite
def logs(draw):
    """The data rows of a log with loans in January, February and March 2022."""
    rows = [draw(rows_on(st.just(day))) for day in ("2022-01-10", "2022-02-10", "2022-03-10")]
    return rows + draw(st.lists(rows_on(st.sampled_from(DAYS)), max_size=40))


def products(root: Path, rows) -> dict:
    """Write ``rows`` to ``root/events.csv`` and run each of `RUNS` on it into
    ``root/<name>``; return each run's files, by run and file name."""
    log = write_events_csv(root / "events.csv", rows)
    files = {}
    for name, argv in RUNS.items():
        out = root / name
        shutil.rmtree(out, ignore_errors=True)
        assert main([*argv, "--input", str(log), "--output-dir", str(out)]) == 0
        files[name] = {path.name: path.read_bytes() for path in out.iterdir()}
    return files


def trajectory_rows(data: bytes):
    header, *rows = csv.reader(io.StringIO(data.decode()))
    return header, [(row[:2], [int(c) for c in row[2:]]) for row in rows]


@settings(max_examples=25, deadline=None)
@given(logs(), st.randoms(use_true_random=False))
def test_row_order_leaves_every_file_byte_identical(rows, rng):
    shuffled = list(rows)
    rng.shuffle(shuffled)
    with tempfile.TemporaryDirectory() as tmp:
        assert products(Path(tmp), shuffled) == products(Path(tmp), rows)


@settings(max_examples=25, deadline=None)
@given(logs(), st.integers(2, 3))
def test_repeating_every_row_scales_only_the_counts(rows, k):
    with tempfile.TemporaryDirectory() as tmp:
        once = products(Path(tmp), rows)
        repeated = products(Path(tmp), [row for row in rows for _ in range(k)])
    for name, files in once.items():
        del files["manifest.json"], repeated[name]["manifest.json"]  # it counts the rows
        if "trajectories.csv" not in files:
            assert repeated[name] == files
            continue
        (header, panel), (scaled_header, scaled) = (
            trajectory_rows(f["trajectories.csv"]) for f in (files, repeated[name])
        )
        assert scaled_header == header
        assert scaled == [(row, [k * c for c in counts]) for row, counts in panel]
