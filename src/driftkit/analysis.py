"""Drift analyses over binned distributions: series, matrices, contribution groups.

A plug-in view (local or global series, or the all-pairs matrix) interns its
bins once per call over one item index (``divergence.BinRows``), which
normalizes each bin once and caches its own term of the measure; every pair
then computes only its union term. Bootstrap views estimate each
pair from its two count tables.

Contribution groups band the ranking that ``jsd_with_contributions`` builds
(descending partial, then descending combined share p + q, then id) into
ranks 1-100, 101-1K, 1K-10K, 10K-50K and the rest. The bands are defined
here and nowhere else: ``DEFAULT_GROUP_BOUNDS``, ``N_GROUPS`` and
``group_of_rank``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from datetime import date

import numpy as np

from .divergence import BinRows, ContributionBreakdown, Measure, jsd_with_contributions
# not called here since the plug-in views read BinRows; kept importable as
# analysis.divergence_of, where bench/tracing.py hooks the dict API
from .divergence import divergence_of
from .estimators import Estimator, bootstrap_divergence
from .events import TimeBin, bin_from_index
from .popularity import PopularityDistribution, normalize, require_loans

DEFAULT_GROUP_BOUNDS = (100, 1000, 10000, 50000)
N_GROUPS = len(DEFAULT_GROUP_BOUNDS) + 1


def group_of_rank(rank: int) -> int:
    """1-based rank to 1-based contribution group."""
    return bisect_left(DEFAULT_GROUP_BOUNDS, rank) + 1


@dataclass(frozen=True)
class SeriesPoint:
    bin: TimeBin
    value: float
    std_error: float | None = None


@dataclass
class DriftSeries:
    """Ordered drift values; local entries sit at the right bin of each pair."""

    kind: str  # "local" | "global"
    measure: str
    points: list[SeriesPoint]
    baseline: TimeBin | None = None

    def values(self) -> list[float]:
        return [p.value for p in self.points]


@dataclass
class DriftMatrix:
    bins: list[TimeBin]
    values: np.ndarray  # symmetric, zero diagonal


def _pair_seed(seed: int, i: int, j: int) -> int:
    """Scheduling-independent seed for the (i, j) bin pair."""
    return int(np.random.SeedSequence((seed, i, j)).generate_state(1)[0])


def _earlier_first(dists: list[PopularityDistribution], i: int, j: int) -> tuple[int, int]:
    return (j, i) if dists[i].bin.index > dists[j].bin.index else (i, j)


def _plugin_rows(
    dists: list[PopularityDistribution], pairs: list[tuple[int, int]], measure: Measure
) -> BinRows:
    """The view's bins interned once as rows, keyed by position.

    Bins are checked in the order the pairs first reach them, earlier bin
    first within a pair, so the empty bin reported is the one a pair-by-pair
    loop would meet first.
    """
    tables = {}
    for i, j in pairs:
        for k in _earlier_first(dists, i, j):
            if k not in tables:
                require_loans(dists[k])
                tables[k] = dists[k]
    return BinRows(measure, tables)


def _evaluate(
    dists: list[PopularityDistribution],
    i: int,
    j: int,
    estimator: Estimator,
    measure: Measure,
    rows: BinRows | None,
) -> tuple[float, float | None]:
    """Estimate one pair, always oriented earlier-bin-first so every view agrees.

    Plug-in values come from the view's ``rows``; the bootstrap works on the
    two count tables, since its resamples are drawn in their aligned order.
    """
    i, j = _earlier_first(dists, i, j)
    if rows is not None:
        return rows.value(i, j), None
    A, B = dists[i], dists[j]
    est = bootstrap_divergence(
        A,
        B,
        measure,
        estimator.n_resamples,
        _pair_seed(estimator.seed, A.bin.index, B.bin.index),
    )
    return est.corrected_value, est.std_error


def _evaluate_pairs(
    dists: list[PopularityDistribution],
    pairs: list[tuple[int, int]],
    estimator: Estimator,
    measure: Measure,
) -> list[tuple[float, float | None]]:
    """Every pair of one view; a plug-in view interns its bins once for all of them."""
    rows = _plugin_rows(dists, pairs, measure) if estimator.kind == "plugin" else None
    return [_evaluate(dists, i, j, estimator, measure, rows) for i, j in pairs]


def _check_consecutive(dists: list[PopularityDistribution]):
    gaps = []
    for prev, cur in zip(dists, dists[1:]):
        gaps.extend(range(prev.bin.index + 1, cur.bin.index))
    if gaps:
        granularity = dists[0].bin.granularity
        missing = ", ".join(bin_from_index(i, granularity).label for i in gaps)
        raise ValueError(f"gaps in bin sequence; missing bins: {missing}")


def local_drift(
    dists: list[PopularityDistribution],
    estimator: Estimator = Estimator(),
    measure: Measure = Measure("jsd"),
) -> DriftSeries:
    """Drift between each bin and its predecessor."""
    if len(dists) < 2:
        raise ValueError("local drift needs at least two bins")
    _check_consecutive(dists)
    pairs = [(t - 1, t) for t in range(1, len(dists))]
    values = _evaluate_pairs(dists, pairs, estimator, measure)
    points = [SeriesPoint(dists[t].bin, v, err) for (_, t), (v, err) in zip(pairs, values)]
    return DriftSeries("local", measure.label, points)


def _find_baseline(dists, baseline) -> int:
    for k, dist in enumerate(dists):
        if (
            dist.bin == baseline
            or dist.bin.start == baseline
            or dist.bin.label == baseline
        ):
            return k
    name = baseline.label if isinstance(baseline, TimeBin) else baseline
    raise ValueError(f"baseline bin {name} not present in distribution list")


def global_drift(
    dists: list[PopularityDistribution],
    baseline: TimeBin | date | str,
    estimator: Estimator = Estimator(),
    measure: Measure = Measure("jsd"),
) -> DriftSeries:
    """Drift between a fixed baseline bin and every other bin."""
    b = _find_baseline(dists, baseline)
    base = dists[b].bin
    pairs = [(b, t) for t, dist in enumerate(dists) if dist.bin != base]
    values = _evaluate_pairs(dists, pairs, estimator, measure)
    points = [SeriesPoint(dists[t].bin, v, err) for (_, t), (v, err) in zip(pairs, values)]
    return DriftSeries("global", measure.label, points, baseline=base)


def drift_matrix(
    dists: list[PopularityDistribution],
    estimator: Estimator = Estimator(),
    measure: Measure = Measure("jsd"),
) -> DriftMatrix:
    """Symmetric drift between all bin pairs, each cell evaluated once."""
    n = len(dists)
    if n < 2:
        raise ValueError("drift matrix needs at least two bins")
    values = np.zeros((n, n), dtype=np.float64)
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for (i, j), (v, _) in zip(cells, _evaluate_pairs(dists, cells, estimator, measure)):
        values[i, j] = values[j, i] = v
    return DriftMatrix([d.bin for d in dists], values)


def contribution_groups(
    A: PopularityDistribution, B: PopularityDistribution
) -> tuple[ContributionBreakdown, dict[str, int], list[float]]:
    """Rank items by their partial JSD for one bin pair and band them into groups.

    Only items with at least one loan in the pair take part, in the order of
    ``breakdown.ranking``. Group shares are each band's slice of the total
    JSD; they sum to one whenever the pair actually drifted, and are all
    zero for identical distributions.
    """
    _, breakdown = jsd_with_contributions(normalize(A), normalize(B), A.total, B.total)
    groups = {item: group_of_rank(r) for r, item in enumerate(breakdown.ranking, start=1)}
    if breakdown.total_bits > 0.0:
        per_group = [[] for _ in range(N_GROUPS)]
        for item, g in groups.items():
            per_group[g - 1].append(breakdown.partials[item])
        shares = [math.fsum(vals) / breakdown.total_bits for vals in per_group]
    else:
        shares = [0.0] * N_GROUPS
    return breakdown, groups, shares


def build_group_schedule(
    dists: list[PopularityDistribution],
) -> list[tuple[str, dict[str, int]]]:
    """Contribution-group assignment for every consecutive bin pair."""
    if len(dists) < 2:
        raise ValueError("group schedule needs at least two bins")
    _check_consecutive(dists)
    schedule = []
    for prev, cur in zip(dists, dists[1:]):
        _, groups, _ = contribution_groups(prev, cur)
        schedule.append((cur.bin.label, groups))
    return schedule


def transition_matrix(schedule: list[tuple[str, dict[str, int]]]) -> np.ndarray:
    """Average group-to-group transition probabilities across consecutive pairs.

    An item ranked in one pair but missing from the next pair's ranking
    counts as landing in the last group. A group with no occupants across
    all transitions keeps itself (identity row), so the matrix is always
    row-stochastic.
    """
    if len(schedule) < 2:
        raise ValueError("transition matrix needs at least two consecutive pairs")
    sums = np.zeros((N_GROUPS, N_GROUPS), dtype=np.float64)
    rows_seen = np.zeros(N_GROUPS, dtype=np.int64)
    for (_, prev), (_, nxt) in zip(schedule, schedule[1:]):
        counts = np.zeros((N_GROUPS, N_GROUPS), dtype=np.float64)
        for item, g in prev.items():
            counts[g - 1, nxt.get(item, N_GROUPS) - 1] += 1
        for g in range(N_GROUPS):
            row_total = counts[g].sum()
            if row_total > 0:
                sums[g] += counts[g] / row_total
                rows_seen[g] += 1
    matrix = np.zeros((N_GROUPS, N_GROUPS), dtype=np.float64)
    for g in range(N_GROUPS):
        if rows_seen[g]:
            matrix[g] = sums[g] / rows_seen[g]
        else:
            matrix[g, g] = 1.0
    return matrix


# Trajectory panels ------------------------------------------------------------


@dataclass(frozen=True)
class TopTotal:
    """Items with the highest total loans across all bins."""

    k: int


@dataclass(frozen=True)
class TopPeak:
    """Items with the highest single-bin loan count."""

    k: int


@dataclass(frozen=True)
class TopGlobalContrib:
    """Items contributing most to global drift at one bin (default baseline: first bin)."""

    k: int
    at: str  # bin label
    baseline: str | None = None


@dataclass
class TrajectoryPanel:
    bins: list[TimeBin]
    items: list[str]
    peak_bins: list[TimeBin]
    counts: np.ndarray  # len(items) x len(bins)


def _find_dist(dists, label) -> PopularityDistribution:
    for dist in dists:
        if dist.bin.label == label:
            return dist
    raise ValueError(f"bin {label} not present in distribution list")


def trajectory_panel(
    dists: list[PopularityDistribution],
    selector: TopTotal | TopPeak | TopGlobalContrib,
) -> TrajectoryPanel:
    """Per-bin loan counts for a selected item set, rows ordered by peak bin.

    An item's peak bin is the earliest bin attaining its maximum count; rows
    with equal peak bins order by item id. If k exceeds the catalog, all
    items are kept.
    """
    if not dists:
        raise ValueError("trajectory panel needs at least one bin")
    totals: dict[str, int] = {}
    peaks: dict[str, int] = {}
    for dist in dists:
        for item, c in dist.counts.items():
            totals[item] = totals.get(item, 0) + c
            if c > peaks.get(item, 0):
                peaks[item] = c

    if isinstance(selector, TopTotal):
        order = sorted(totals, key=lambda k: (-totals[k], k))
        selected = order[: selector.k]
    elif isinstance(selector, TopPeak):
        order = sorted(peaks, key=lambda k: (-peaks[k], k))
        selected = order[: selector.k]
    elif isinstance(selector, TopGlobalContrib):
        base = _find_dist(dists, selector.baseline) if selector.baseline else dists[0]
        at = _find_dist(dists, selector.at)
        _, breakdown = jsd_with_contributions(normalize(base), normalize(at))
        selected = breakdown.ranking[: selector.k]
    else:
        raise TypeError(f"unknown selector {selector!r}")

    bins = [d.bin for d in dists]
    n_bins = len(bins)
    peak_idx: dict[str, int] = {}
    counts = np.zeros((len(selected), n_bins), dtype=np.int64)
    col = {item: r for r, item in enumerate(selected)}
    for j, dist in enumerate(dists):
        for item, c in dist.counts.items():
            r = col.get(item)
            if r is not None:
                counts[r, j] = c
    for item, r in col.items():
        peak_idx[item] = int(np.argmax(counts[r]))

    ordered = sorted(selected, key=lambda k: (peak_idx[k], k))
    perm = [col[item] for item in ordered]
    return TrajectoryPanel(
        bins,
        ordered,
        [bins[peak_idx[item]] for item in ordered],
        counts[perm],
    )
