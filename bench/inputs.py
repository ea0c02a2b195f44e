"""Seeded benchmark inputs and the reference answers their outputs are checked against.

Every input comes from ``driftkit.synthmarket`` and a seed; nothing is read
from outside the work directory. The pipeline log is post-processed in two
ways the plain generator never produces:

* a seeded share of the events of a seeded item subset is relabelled to a
  typo, punctuation or edition-1 variant key of the item (the variant recipe
  of acceptance criterion 9), and the items table gets those variants plus
  an edition-2 decoy per item, so ``canon`` has real merging to do;
* a seeded 0.5% of extra malformed rows is inserted: bad date, short row,
  empty key, and birthdate after the loan date.
"""

from __future__ import annotations

import csv
import hashlib
import pickle
import time
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from driftkit import analysis, synthmarket
from driftkit.popularity import PopularityDistribution, restrict_top_k

VARIANT_KINDS = ("typo", "punct", "ed1")
MALFORMED_KINDS = ("bad_date", "short_row", "empty_key", "birth_after_loan")
TOP_K = 10_000
COHORT_ARGS = ("--sex", "female", "--age-range", "30-46")
COHORT_AGE = (30, 46)


@dataclass
class LogInputs:
    """A generated event log plus what the benchmark knows about it."""

    events_path: Path
    items_path: Path | None
    result: synthmarket.GenerateResult
    rows: int  # data rows in the final log
    malformed: int  # injected malformed rows
    malformed_rows: set[int] = field(default_factory=set)  # 0-based data-row indices
    expected_mapping: dict[str, str] = field(default_factory=dict)
    generate_s: float = 0.0


def file_digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def generate_log(work: Path, seed: int, size: dict) -> LogInputs:
    """Plain synthetic log, no variants or malformed rows."""
    work.mkdir(parents=True, exist_ok=True)
    spec = synthmarket.SynthMarketSpec(
        catalog_size=size["catalog"],
        loans_per_bin=size["loans"],
        n_bins=size["bins"],
        n_loaners=size["loaners"],
        seed=seed,
    )
    t0 = time.perf_counter()
    result = synthmarket.generate(spec, work / "events.csv")
    elapsed = time.perf_counter() - t0
    rows = spec.loans_per_bin * spec.n_bins
    return LogInputs(result.events_path, None, result, rows, 0, generate_s=elapsed)


def _variant_title(title: str, kind: str) -> str:
    if kind == "typo":
        return title[:-1] + ("q" if title[-1] != "q" else "r")
    if kind == "punct":
        return title.upper() + "!"
    if kind == "ed1":
        return title + " 1"
    return title + " 2"  # edition-2 decoy, must stay apart


def _malformed_row(row: list[str], kind: str) -> list[str]:
    bad = list(row)
    if kind == "bad_date":
        bad[0] = bad[0][:8] + "32"
    elif kind == "short_row":
        bad = bad[:5]
    elif kind == "empty_key":
        bad[1] = ""
    else:
        bad[7] = (date.fromisoformat(bad[0]) + timedelta(days=1)).isoformat()
    return bad


def pipeline_log(work: Path, seed: int, size: dict) -> LogInputs:
    """Synthetic log with variant relabelling, malformed rows and an items table."""
    plain = generate_log(work / "raw", seed, size)
    rng = np.random.default_rng([seed, 9])
    n = plain.rows

    # items present in the log, and the seeded subset that gets variants
    present = sorted({k for d in plain.result.distributions for k in d.counts})
    with_variants = rng.random(len(present)) < size["variant_items"]
    variant_items = {k for k, flag in zip(present, with_variants.tolist()) if flag}
    relabel = (rng.random(n) < size["variant_events"]).tolist()
    kinds = rng.integers(0, len(VARIANT_KINDS), size=n).tolist()

    n_bad = round(size["malformed_share"] * n)
    before = np.sort(rng.choice(n, size=n_bad, replace=False)).tolist()
    bad_kinds = rng.integers(0, len(MALFORMED_KINDS), size=n_bad).tolist()

    events_path = work / "events.csv"
    malformed_rows: set[int] = set()

    def rows_out(reader):
        b = 0
        out = 0
        for i, row in enumerate(reader):
            while b < n_bad and before[b] == i:
                malformed_rows.add(out)
                yield _malformed_row(row, MALFORMED_KINDS[bad_kinds[b]])
                out += 1
                b += 1
            if relabel[i] and row[1] in variant_items:
                kind = VARIANT_KINDS[kinds[i]]
                row[1] = f"{row[1]}_{kind}"
                row[2] = _variant_title(row[2], kind)
            yield row
            out += 1

    with open(plain.events_path, newline="", encoding="utf-8") as src, open(
        events_path, "w", newline="", encoding="utf-8"
    ) as dst:
        reader = csv.reader(src)
        writer = csv.writer(dst)
        writer.writerow(next(reader))
        writer.writerows(rows_out(reader))

    items_path = work / "items.csv"
    mapping: dict[str, str] = {}
    with open(items_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["item_key", "title", "creator"])
        for key in present:
            index = int(key[1:])
            title = synthmarket.item_title(index)
            creator = synthmarket.item_creator(index)
            writer.writerow([key, title, creator])
            mapping[key] = key
            if key in variant_items:
                for kind in VARIANT_KINDS + ("ed2",):
                    variant = f"{key}_{kind}"
                    writer.writerow([variant, _variant_title(title, kind), creator])
                    mapping[variant] = key if kind != "ed2" else variant

    return LogInputs(
        events_path,
        items_path,
        plain.result,
        n + n_bad,
        n_bad,
        malformed_rows,
        mapping,
        plain.generate_s,
    )


def market(work: Path, seed: int, size: dict):
    """Criterion-6 style market via ``sample_counts``, pickled for the worker."""
    work.mkdir(parents=True, exist_ok=True)
    spec = synthmarket.SynthMarketSpec(
        catalog_size=size["catalog"],
        loans_per_bin=size["loans"],
        n_bins=size["bins"],
        seed=seed,
    )
    t0 = time.perf_counter()
    dists, truth = synthmarket.sample_counts(spec)
    elapsed = time.perf_counter() - t0
    path = work / "market.pkl"
    with open(path, "wb") as fh:
        pickle.dump(dists, fh, protocol=pickle.HIGHEST_PROTOCOL)
    return path, dists, truth, elapsed


# reference answers -------------------------------------------------------------


def true_local(truth) -> list[float]:
    return [synthmarket.true_jsd(truth, i, i + 1) for i in range(len(truth.bins) - 1)]


def reference_local(inputs: LogInputs) -> list[float]:
    dists = restrict_top_k(inputs.result.distributions, TOP_K)
    return analysis.local_drift(dists).values()


def _age(birth: date, on: date) -> int:
    years = on.year - birth.year
    if (on.month, on.day) < (birth.month, birth.day):
        years -= 1
    return years


def reference_cohort(inputs: LogInputs) -> list[float]:
    """Global drift of the cohort, tallied straight from the CSV rows."""
    lo, hi = COHORT_AGE
    per_bin: dict[date, dict[str, int]] = {}
    with open(inputs.events_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for i, row in enumerate(reader):
            if i in inputs.malformed_rows or row[8] != "female" or not row[7]:
                continue
            loaned = date.fromisoformat(row[0])
            if not lo <= _age(date.fromisoformat(row[7]), loaned) < hi:
                continue
            cid = inputs.expected_mapping[row[1]]
            counts = per_bin.setdefault(loaned.replace(day=1), {})
            counts[cid] = counts.get(cid, 0) + 1
    bins = {d.bin.start: d.bin for d in inputs.result.distributions}
    dists = [
        PopularityDistribution(bins[start], "cohort", counts, sum(counts.values()))
        for start, counts in sorted(per_bin.items())
    ]
    dists = restrict_top_k(dists, TOP_K)
    return analysis.global_drift(dists, dists[0].bin.label).values()
