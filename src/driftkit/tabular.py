"""Delimited-text and JSON output for every analysis product; catalog and items-table input.

Floats are written with repr (shortest round-trip form) and manifests carry
no timestamps, so identical runs produce byte-identical files. Every CSV
product goes through one writer, `_write_csv`. Input tables
are read like logs, through `events.open_table` and `events.table_rows`.
"""

from __future__ import annotations

import csv
import json
from itertools import repeat
from pathlib import Path
from typing import Iterable

from .analysis import N_GROUPS, DriftMatrix, DriftSeries, TrajectoryPanel, group_of_rank
from .canon import CanonicalCatalog
from .divergence import ContributionBreakdown
from .events import SchemaError, open_table, table_rows
from .forecast import ForecastReport
from .popularity import PopularityDistribution, panel_of

GROUP_LABELS = [f"g{g}" for g in range(1, N_GROUPS + 1)]


def _fmt(x: float | None) -> str:
    return "" if x is None else repr(float(x))


def _write_csv(path: Path, header: list[str], rows: Iterable[list]):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_series(path: Path, series: DriftSeries):
    rows = ([p.bin.label, _fmt(p.value), _fmt(p.std_error)] for p in series.points)
    _write_csv(path, ["bin_start", "value", "std_error"], rows)


def write_matrix(path: Path, matrix: DriftMatrix):
    rows = ([b.label] + [_fmt(v) for v in row] for b, row in zip(matrix.bins, matrix.values))
    _write_csv(path, ["bin_start"] + [b.label for b in matrix.bins], rows)


def write_group_shares(path: Path, rows: list[tuple[str, list[float]]]):
    lines = ([label] + [_fmt(s) for s in shares] for label, shares in rows)
    _write_csv(path, ["bin_start"] + GROUP_LABELS, lines)


def write_transitions(path: Path, matrix):
    rows = ([label] + [_fmt(v) for v in row] for label, row in zip(GROUP_LABELS, matrix))
    _write_csv(path, ["group"] + GROUP_LABELS, rows)


def write_contributions(path: Path, breakdown: ContributionBreakdown):
    ranked = enumerate(breakdown.ranking, start=1)
    rows = ([i, _fmt(breakdown.partials[i]), r, group_of_rank(r)] for r, i in ranked)
    _write_csv(path, ["canonical_id", "partial_bits", "rank", "group"], rows)


def write_trajectories(path: Path, panel: TrajectoryPanel):
    lines = zip(panel.items, panel.peak_bins, panel.counts)
    rows = ([item, peak.label] + [int(c) for c in row] for item, peak, row in lines)
    _write_csv(path, ["canonical_id", "peak_bin"] + [b.label for b in panel.bins], rows)


def _ranked_counts(dists: list[PopularityDistribution]):
    """Each bin's (label, id, count) rows by descending count, then id (`CountPanel.rank`)."""
    panel = panel_of(dists)
    for d, index, counts in zip(dists, panel.index, panel.counts):
        order = panel.rank(index, counts)
        ids = panel.ids[index[order]].tolist()
        yield from zip(repeat(d.bin.label), ids, counts[order].tolist())


def write_distributions(path: Path, dists: list[PopularityDistribution]):
    _write_csv(path, ["bin_start", "canonical_id", "count"], _ranked_counts(dists))


def write_mapping(path: Path, mapping: dict[str, str]):
    _write_csv(path, ["item_key", "canonical_id"], ([k, mapping[k]] for k in sorted(mapping)))


def read_mapping(path: Path) -> CanonicalCatalog:
    """The catalog `write_mapping` wrote: item_key,canonical_id rows, neither empty.

    A key mapped to two canonical ids is a SchemaError naming both rows'
    PATH:LINE; a repeated identical row is accepted. The keys of one
    canonical id share its string.
    """
    missing = "catalog {path}: expected columns item_key,canonical_id"
    names = ("item_key", "canonical_id")
    handle, reader, cols = open_table(path, {c: c for c in names}, names, missing)
    i_key, i_cid = cols["item_key"], cols["canonical_id"]
    mapping: dict[str, str] = {}
    ids: dict[str, str] = {}
    lines: list[int] = []  # each key's first line, in mapping order
    for row in table_rows(path, handle, reader, max(i_key, i_cid) + 1, missing, cols.items()):
        key, cid = row[i_key], ids.setdefault(row[i_cid], row[i_cid])
        if mapping.setdefault(key, cid) != cid:
            first = lines[list(mapping).index(key)]
            raise SchemaError(
                f"{path}:{first} and {path}:{reader.line_num}: item_key {key!r} "
                f"mapped to both {mapping[key]!r} and {cid!r}"
            )
        if len(lines) < len(mapping):
            lines.append(reader.line_num)
    return CanonicalCatalog(mapping)


def read_items_table(path: Path) -> list[tuple[str, str, str]]:
    """(item_key, title, creator) rows for the canonicalizer; a missing creator reads as "".

    An empty item_key is a SchemaError naming PATH:LINE, as a short row is.
    """
    missing = "{path}: expected columns item_key,title[,creator]"
    names = ("item_key", "title", "creator")
    handle, reader, cols = open_table(path, {c: c for c in names}, names[:2], missing)
    i_key, i_title, i_creator = cols["item_key"], cols["title"], cols["creator"]
    items = []
    rows = table_rows(path, handle, reader, max(i_key, i_title) + 1, missing, [("item_key", i_key)])
    for row in rows:
        has_creator = i_creator is not None and i_creator < len(row)
        items.append((row[i_key], row[i_title], row[i_creator] if has_creator else ""))
    return items


def write_forecast(csv_path: Path, json_path: Path, report: ForecastReport):
    entries = report.entries
    rows = ([e.bin.label, _fmt(e.predicted), _fmt(e.observed), _fmt(e.abs_error)] for e in entries)
    _write_csv(csv_path, ["bin_start", "predicted", "observed", "abs_error"], rows)
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
