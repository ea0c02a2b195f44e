"""Drift analyses over binned distributions: series, matrices, contribution groups.

Every view is planned here only, and needs two or more bins (``_two_bins``).
``_local_pairs`` pairs each bin with its predecessor (no gaps allowed) and
``_global_pairs`` the baseline, by default the first bin, with every other
bin; the series, ``contribution_pairs`` and ``TopGlobalContrib`` read them.

Every all-items view reads its bins as rows of one count panel
(``popularity.panel_of``): the producers' shared panel, so no view interns
the items again. A plug-in view (local or global series, or the all-pairs
matrix) reads the view's bins by position through ``divergence.BinRows``,
which caches each bin's shares and its own term of the measure; every pair
then computes only its union term. Bootstrap views estimate each pair from
its two count tables. The decomposition, ``transition_matrix``'s schedule
and the trajectory selectors gather the same rows: contributions come from
``jsd_with_contributions`` on two panel rows, with no ``normalize``, and
totals and peaks are bincounts over the rows. Every pair of rows, in every
view, is aligned by the one ``divergence._aligned``.

Contribution groups band the ranking that ``jsd_with_contributions`` builds
(descending partial, then descending combined share p + q, then id) into
contiguous slices: ranks 1-100, 101-1K, 1K-10K, 10K-50K and the rest. The
bands are defined here and nowhere else: ``DEFAULT_GROUP_BOUNDS``,
``N_GROUPS``, ``_BAND_EDGES`` and ``group_of_rank``.

Bins are found by ``events.find_bin``; selectors rank by ``CountPanel.rank``,
the one item ranking (descending score, then id).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass
from datetime import date

import numpy as np

from .divergence import BinRows, ContributionBreakdown, Measure, jsd_with_contributions
# not called here since every view reads panel rows; kept importable as
# analysis.divergence_of and analysis.normalize, where bench/tracing.py
# hooks them
from .divergence import divergence_of  # noqa: F401
from .estimators import Estimator, bootstrap_divergence
from .events import TimeBin, bin_from_index, find_bin
from .popularity import (  # noqa: F401
    CountPanel,
    PopularityDistribution,
    normalize,
    panel_of,
    require_loans,
)

DEFAULT_GROUP_BOUNDS = (100, 1000, 10000, 50000)
N_GROUPS = len(DEFAULT_GROUP_BOUNDS) + 1
# group g is the ranking slice [_BAND_EDGES[g - 1]:_BAND_EDGES[g]]
_BAND_EDGES = (0, *DEFAULT_GROUP_BOUNDS, None)


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
    """The view's bins as panel rows, read by position.

    Bins are checked in the order the pairs first reach them, earlier bin
    first within a pair, so the empty bin reported is the one a pair-by-pair
    loop would meet first.
    """
    checked = set()
    for i, j in pairs:
        for k in _earlier_first(dists, i, j):
            if k not in checked:
                require_loans(dists[k])
                checked.add(k)
    return BinRows(measure, dists)


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
    """Every pair of one view; a plug-in view reads its bins' rows once for all of them."""
    rows = _plugin_rows(dists, pairs, measure) if estimator.kind == "plugin" else None
    return [_evaluate(dists, i, j, estimator, measure, rows) for i, j in pairs]


def _two_bins(dists: list[PopularityDistribution], view: str):
    if len(dists) < 2:
        raise ValueError(f"{view} drift needs at least two bins")


def _local_pairs(dists: list[PopularityDistribution]) -> list[tuple[int, int]]:
    """Each bin with its predecessor; a local view has no gaps."""
    _two_bins(dists, "local")
    gaps = []
    for prev, cur in zip(dists, dists[1:]):
        gaps.extend(range(prev.bin.index + 1, cur.bin.index))
    if gaps:
        granularity = dists[0].bin.granularity
        missing = ", ".join(bin_from_index(i, granularity).label for i in gaps)
        raise ValueError(f"gaps in bin sequence; missing bins: {missing}")
    return [(t - 1, t) for t in range(1, len(dists))]


def _global_pairs(dists: list[PopularityDistribution], baseline=None) -> list[tuple[int, int]]:
    """The baseline bin (``find_bin``; the first bin if None) with every other, on the left."""
    _two_bins(dists, "global")
    b = 0 if baseline is None else find_bin([d.bin for d in dists], baseline)
    return [(b, t) for t in range(len(dists)) if t != b]


def local_drift(
    dists: list[PopularityDistribution],
    estimator: Estimator = Estimator(),
    measure: Measure = Measure("jsd"),
) -> DriftSeries:
    """Drift between each bin and its predecessor."""
    pairs = _local_pairs(dists)
    values = _evaluate_pairs(dists, pairs, estimator, measure)
    points = [SeriesPoint(dists[t].bin, v, err) for (_, t), (v, err) in zip(pairs, values)]
    return DriftSeries("local", measure.label, points)


def global_drift(
    dists: list[PopularityDistribution],
    baseline: TimeBin | date | str | None = None,
    estimator: Estimator = Estimator(),
    measure: Measure = Measure("jsd"),
) -> DriftSeries:
    """Drift between a fixed baseline bin (by default the first) and every other bin."""
    pairs = _global_pairs(dists, baseline)
    values = _evaluate_pairs(dists, pairs, estimator, measure)
    points = [SeriesPoint(dists[t].bin, v, err) for (_, t), (v, err) in zip(pairs, values)]
    return DriftSeries("global", measure.label, points, baseline=dists[pairs[0][0]].bin)


def drift_matrix(
    dists: list[PopularityDistribution],
    estimator: Estimator = Estimator(),
    measure: Measure = Measure("jsd"),
) -> DriftMatrix:
    """Symmetric drift between all bin pairs, each cell evaluated once."""
    _two_bins(dists, "matrix")
    n = len(dists)
    values = np.zeros((n, n), dtype=np.float64)
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for (i, j), (v, _) in zip(cells, _evaluate_pairs(dists, cells, estimator, measure)):
        values[i, j] = values[j, i] = v
    return DriftMatrix([d.bin for d in dists], values)


def _contributions(
    dists: list[PopularityDistribution], panel: CountPanel, i: int, j: int
) -> tuple[ContributionBreakdown, dict[str, int], list[float]]:
    """``contribution_groups`` of bins i and j, read from their panel rows."""
    require_loans(dists[i])
    require_loans(dists[j])
    _, breakdown = jsd_with_contributions(panel.shares(i), panel.shares(j))
    groups, sums = {}, []
    for g, (lo, hi) in enumerate(zip(_BAND_EDGES, _BAND_EDGES[1:]), start=1):
        band = breakdown.ranking[lo:hi]
        groups.update(dict.fromkeys(band, g))
        sums.append(math.fsum(map(breakdown.partials.__getitem__, band)))
    total = breakdown.total_bits
    shares = [s / total for s in sums] if total > 0.0 else [0.0] * N_GROUPS
    return breakdown, groups, shares


def contribution_groups(
    A: PopularityDistribution, B: PopularityDistribution
) -> tuple[ContributionBreakdown, dict[str, int], list[float]]:
    """Rank items by their partial JSD for one bin pair and band them into groups.

    Only items with at least one loan in the pair take part, in the order of
    ``breakdown.ranking``. Group shares are each band's slice of the total
    JSD; they sum to one whenever the pair actually drifted, and are all
    zero for identical distributions.
    """
    return _contributions([A, B], panel_of([A, B]), 0, 1)


def contribution_pairs(
    dists: list[PopularityDistribution],
    kind: str = "local",
    baseline: TimeBin | date | str | None = None,
) -> Iterator[tuple[TimeBin, ContributionBreakdown, dict[str, int], list[float]]]:
    """``(right bin, *contribution_groups)`` for each pair of one view, lazily.

    ``kind`` is "local" or "global" (``baseline`` as in ``global_drift``), and
    the pairs are those of the drift series of that kind.
    """
    if kind not in ("local", "global"):
        raise ValueError(f"unknown view kind {kind!r}")
    pairs = _local_pairs(dists) if kind == "local" else _global_pairs(dists, baseline)
    panel = panel_of(dists)
    for i, j in pairs:
        yield (dists[j].bin, *_contributions(dists, panel, i, j))


def build_group_schedule(dists: list[PopularityDistribution]) -> list[tuple[str, dict[str, int]]]:
    """Contribution-group assignment for every local pair, keyed by its right bin."""
    return [(right.label, groups) for right, _, groups, _ in contribution_pairs(dists)]


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
        moves = [(g - 1) * N_GROUPS + nxt.get(item, N_GROUPS) - 1 for item, g in prev.items()]
        counts = np.bincount(moves, minlength=N_GROUPS**2).reshape(N_GROUPS, N_GROUPS)
        row_totals = counts.sum(axis=1)
        occupied = row_totals > 0
        sums[occupied] += counts[occupied] / row_totals[occupied, None]
        rows_seen += occupied
    seen = rows_seen[:, None] > 0
    return np.where(seen, sums / np.maximum(rows_seen, 1)[:, None], np.eye(N_GROUPS))


# Trajectory panels ------------------------------------------------------------


@dataclass(frozen=True)
class _Selector:
    """The k items a trajectory panel keeps; k below 1 is rejected."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


@dataclass(frozen=True)
class TopTotal(_Selector):
    """Items with the highest total loans across all bins."""


@dataclass(frozen=True)
class TopPeak(_Selector):
    """Items with the highest single-bin loan count."""


@dataclass(frozen=True)
class TopGlobalContrib(_Selector):
    """Items contributing most to global drift at one bin (default baseline: first bin)."""

    at: str  # bin label
    baseline: str | None = None


@dataclass
class TrajectoryPanel:
    bins: list[TimeBin]
    items: list[str]
    peak_bins: list[TimeBin]
    counts: np.ndarray  # len(items) x len(bins)


def trajectory_panel(
    dists: list[PopularityDistribution],
    selector: TopTotal | TopPeak | TopGlobalContrib,
) -> TrajectoryPanel:
    """Per-bin loan counts for a selected item set, rows ordered by peak bin.

    An item's peak bin is the earliest bin attaining its maximum count; rows
    with equal peak bins order by item id. If k exceeds the catalog, all
    items are kept. ``TopGlobalContrib`` rejects an ``at`` bin that is its baseline.
    """
    if not dists:
        raise ValueError("trajectory panel needs at least one bin")
    bins = [d.bin for d in dists]
    panel = panel_of(dists)
    if isinstance(selector, TopGlobalContrib):
        b = _global_pairs(dists, selector.baseline)[0][0]
        t = find_bin(bins, selector.at)
        if t == b:
            raise ValueError(f"bin {selector.at} is the baseline; contributions need another bin")
        require_loans(dists[b])
        require_loans(dists[t])
        _, breakdown = jsd_with_contributions(panel.shares(b), panel.shares(t))
        position = dict(zip(panel.ids.tolist(), range(panel.n_items)))
        selected = np.array([position[i] for i in breakdown.ranking[: selector.k]], dtype=np.intp)
    elif isinstance(selector, TopTotal):
        positions, loans = panel.all_index, panel.all_counts
        present = np.bincount(positions, minlength=panel.n_items) > 0
        totals = np.bincount(positions, weights=loans, minlength=panel.n_items)
        selected = panel.rank(totals, present, selector.k)
    elif isinstance(selector, TopPeak):
        positions, loans = panel.all_index, panel.all_counts
        peaks = np.zeros(panel.n_items, dtype=loans.dtype)
        np.maximum.at(peaks, positions, loans)
        selected = panel.rank(peaks, peaks > 0, selector.k)
    else:
        raise TypeError(f"unknown selector {selector!r}")

    counts = np.zeros((len(selected), len(bins)), dtype=np.int64)
    spread = np.zeros(panel.n_items, dtype=np.int64)
    for j, (index, c) in enumerate(zip(panel.index, panel.counts)):
        spread[index] = c
        counts[:, j] = spread[selected]
        spread[index] = 0
    peak = counts.argmax(axis=1)
    order = np.lexsort((panel.id_rank[selected], peak))
    items = panel.ids[selected[order]].tolist()
    return TrajectoryPanel(bins, items, [bins[p] for p in peak[order].tolist()], counts[order])
