"""Delimited-text and JSON output for every analysis product; catalog and items-table input.

Floats are written with repr (shortest round-trip form) and manifests carry
no timestamps, so identical runs produce byte-identical files. Input tables
are read like logs, through `events.open_table` and `events.table_rows`.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .analysis import N_GROUPS, DriftMatrix, DriftSeries, TrajectoryPanel, group_of_rank
from .canon import CanonicalCatalog
from .divergence import ContributionBreakdown
from .events import open_table, table_rows
from .forecast import ForecastReport
from .popularity import PopularityDistribution, rank_items

GROUP_LABELS = [f"g{g}" for g in range(1, N_GROUPS + 1)]


def _fmt(x: float) -> str:
    return repr(float(x))


def write_series(path: Path, series: DriftSeries):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_start", "value", "std_error"])
        for p in series.points:
            writer.writerow(
                [p.bin.label, _fmt(p.value), _fmt(p.std_error) if p.std_error is not None else ""]
            )


def write_matrix(path: Path, matrix: DriftMatrix):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_start"] + [b.label for b in matrix.bins])
        for b, row in zip(matrix.bins, matrix.values):
            writer.writerow([b.label] + [_fmt(v) for v in row])


def write_group_shares(path: Path, rows: list[tuple[str, list[float]]]):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_start"] + GROUP_LABELS)
        for label, shares in rows:
            writer.writerow([label] + [_fmt(s) for s in shares])


def write_transitions(path: Path, matrix):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group"] + GROUP_LABELS)
        for label, row in zip(GROUP_LABELS, matrix):
            writer.writerow([label] + [_fmt(v) for v in row])


def write_contributions(path: Path, breakdown: ContributionBreakdown):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["canonical_id", "partial_bits", "rank", "group"])
        for rank, item in enumerate(breakdown.ranking, start=1):
            writer.writerow([item, _fmt(breakdown.partials[item]), rank, group_of_rank(rank)])


def write_trajectories(path: Path, panel: TrajectoryPanel):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["canonical_id", "peak_bin"] + [b.label for b in panel.bins])
        for item, peak, row in zip(panel.items, panel.peak_bins, panel.counts):
            writer.writerow([item, peak.label] + [int(c) for c in row])


def write_distributions(path: Path, dists: list[PopularityDistribution]):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_start", "canonical_id", "count"])
        for dist in dists:
            label = dist.bin.label
            for item in rank_items(dist.counts):
                writer.writerow([label, item, dist.counts[item]])


def write_mapping(path: Path, mapping: dict[str, str]):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["item_key", "canonical_id"])
        for key in sorted(mapping):
            writer.writerow([key, mapping[key]])


def read_mapping(path: Path) -> CanonicalCatalog:
    """The catalog `write_mapping` wrote: item_key,canonical_id rows."""
    missing = "catalog {path}: expected columns item_key,canonical_id"
    names = ("item_key", "canonical_id")
    handle, reader, cols = open_table(path, {c: c for c in names}, names, missing)
    i_key, i_cid = cols["item_key"], cols["canonical_id"]
    rows = table_rows(path, handle, reader, max(i_key, i_cid) + 1, missing)
    mapping = {row[i_key]: row[i_cid] for row in rows}
    groups: dict[str, list[str]] = {}
    for key, cid in mapping.items():
        groups.setdefault(cid, []).append(key)
    return CanonicalCatalog(mapping, groups)


def read_items_table(path: Path) -> list[tuple[str, str, str]]:
    """(item_key, title, creator) rows for the canonicalizer; a missing creator reads as ""."""
    missing = "{path}: expected columns item_key,title[,creator]"
    names = ("item_key", "title", "creator")
    handle, reader, cols = open_table(path, {c: c for c in names}, names[:2], missing)
    i_key, i_title, i_creator = cols["item_key"], cols["title"], cols["creator"]
    items = []
    for row in table_rows(path, handle, reader, max(i_key, i_title) + 1, missing):
        has_creator = i_creator is not None and i_creator < len(row)
        items.append((row[i_key], row[i_title], row[i_creator] if has_creator else ""))
    return items


def write_forecast(csv_path: Path, json_path: Path, report: ForecastReport):
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_start", "predicted", "observed", "abs_error"])
        for e in report.entries:
            writer.writerow(
                [e.bin.label, _fmt(e.predicted), _fmt(e.observed), _fmt(e.abs_error)]
            )
    summary = {
        "kind": report.kind,
        "measure": report.measure,
        "n_bins": len(report.entries),
        "mae": report.mae,
        "mape_percent": report.mape,
        "mape_excluded_bins": report.mape_excluded,
        "source_year": report.source_year,
        "target_year": report.target_year,
        "baselines": list(report.baselines),
    }
    json_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_manifest(path: Path, subcommand: str, config_dict: dict, outputs: list[str]):
    manifest = {
        "tool": "driftkit",
        "subcommand": subcommand,
        "config": config_dict,
        "outputs": sorted(outputs),
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
