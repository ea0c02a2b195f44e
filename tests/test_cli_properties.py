"""The CLI's products depend on the loans, not on how the log is written.

Each property runs the CLI in process on small drawn logs:

- Row order: permuting the data rows, written to the same path, leaves every
  file of every run byte-identical, `manifest.json` included, the
  bootstrap's too: it draws its resamples in id order.
- Count scaling: repeating every row k times leaves every value of the
  drift, group-share, contribution and transition products bit-identical,
  since (k*c)/(k*n) rounds to the float c/n does. A trajectory panel keeps
  its items and peak bins, with each count multiplied by k. The bootstrap
  is left out: its resamples draw as many loans as the bin holds.
- Relabeling: renaming the item keys one to one leaves the drift and
  group-share files byte-identical. Contribution and trajectory rows are
  the same once the keys are mapped back, up to the order of tied items
  (equal partials; equal peak bins), which rank by id.

The drawn logs are well formed, with loans in each of three months: a
malformed row's example in the manifest cites its row number, which a
permutation moves.
"""

import csv
import io
import shutil
import tempfile
from itertools import groupby
from operator import itemgetter
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
# runs whose values depend on the loans' order-free counts, but not only on the shares
RESAMPLED = {
    "drift_local_bootstrap": (
        "drift", "local", "--top-k", "0", "--estimator", "bootstrap", "--resamples", "20",
        "--seed", "3", "--jobs", "1",
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


def products(root: Path, rows, runs=RUNS) -> dict:
    """Write ``rows`` to ``root/events.csv`` and run each of ``runs`` on it into
    ``root/<name>``; return each run's files, by run and file name."""
    log = write_events_csv(root / "events.csv", rows)
    files = {}
    for name, argv in runs.items():
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
    runs = {**RUNS, **RESAMPLED}
    with tempfile.TemporaryDirectory() as tmp:
        assert products(Path(tmp), shuffled, runs) == products(Path(tmp), rows, runs)


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


def untied(data: bytes, back: dict, placed: int) -> list:
    """A ranked file's rows, ids mapped through ``back``, each run of rows equal in
    the second column sorted by id. The last ``placed`` columns hold the rank's
    place and stay; the others move with the id."""
    header, *rows = csv.reader(io.StringIO(data.decode()))
    out = [header]
    for _, run in groupby(rows, key=itemgetter(1)):
        run = list(run)
        moved = sorted([back[row[0]], *row[1 : len(row) - placed]] for row in run)
        out += [row + old[len(old) - placed :] for row, old in zip(moved, run)]
    return out


@settings(max_examples=25, deadline=None)
@given(
    logs(),
    st.lists(
        st.text(alphabet='aKZ1 ,"\u00e9', min_size=1, max_size=3),
        min_size=len(KEYS),
        max_size=len(KEYS),
        unique=True,
    ),
)
def test_relabeling_the_keys_leaves_every_value(rows, names):
    rename = dict(zip(KEYS, names))
    back = {new: old for old, new in rename.items()}
    relabeled = [[row[0], rename[row[1]], *row[2:]] for row in rows]
    with tempfile.TemporaryDirectory() as tmp:
        once = products(Path(tmp), rows)
        renamed = products(Path(tmp), relabeled)
    same = {key: key for key in KEYS}
    for name, files in once.items():
        for file, data in files.items():
            got = renamed[name][file]
            if file.startswith("contributions_"):  # id, partial_bits | rank, group
                assert untied(got, back, 2) == untied(data, same, 2)
            elif file == "trajectories.csv":  # id, peak_bin, counts: ties share a peak bin
                assert untied(got, back, 0) == untied(data, same, 0)
            elif file != "transitions.csv":  # a tie can cross a group boundary there
                assert got == data, (name, file)
