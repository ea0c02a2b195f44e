"""Drift analyses over binned distributions: series, matrices, contribution groups.

Every view is planned here only, and needs two or more bins (``_two_bins``).
``_local_pairs`` pairs each bin with its predecessor (no gaps allowed) and
``_global_pairs`` the baseline, by default the first bin, with every other
bin; the series, ``contribution_pairs`` and ``TopGlobalContrib`` read them.

Every all-items view reads its bins as rows of one count panel
(``popularity.panel_of``): the producers' shared panel, so no view interns
the items again. Each view reads them through one ``divergence.BinRows``,
the one reader of a pair, built once per view after the view's bins are
checked for loans (``_rows``): a plug-in series or matrix takes each pair's
``value``, and ``contribution_pairs`` and ``contribution_groups`` each
pair's ``breakdown``. ``TopGlobalContrib`` reads its one pair through
``jsd_with_contributions`` on the two normalized bins, which builds a
two-row reader of its own, until the benchmark times ``BinRows`` (ROADMAP
item 1). So do bootstrap views, from each pair's two count tables
(``bootstrap_divergence``).

The decomposition stays on panel positions. ``BinRows.breakdown`` gives a
pair's union positions, partials and ranking order as arrays; a pair's
groups are a ``popularity.PositionMap`` of its ranked positions to their
groups (each band a contiguous slice of the order); ``transition_matrix``
tallies each consecutive pair with one bincount, and ``TopGlobalContrib``
keeps the positions of the first k ranked items. Item ids are read only where a caller
asks for them. The other selectors' totals and peaks are bincounts over the
rows.

Contribution groups band the ranking that ``BinRows.breakdown`` builds
(descending partial, then descending combined share p + q, then id) into
contiguous slices: ranks 1-100, 101-1K, 1K-10K, 10K-50K and the rest. The
bands are defined here and nowhere else: ``DEFAULT_GROUP_BOUNDS``,
``N_GROUPS``, ``_BAND_EDGES`` and ``group_of_rank``.

Bins are found by ``events.find_bin``; the selectors' top k and a trajectory
panel's row order (peak bin, then id) come from the one ``CountPanel.rank``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass
from datetime import date

import numpy as np

from .divergence import BinRows, ContributionBreakdown, Measure, exact_sum, jsd_with_contributions
# not called here since every view reads its pairs through BinRows; kept
# importable as analysis.divergence_of, where bench/tracing.py hooks it
from .divergence import divergence_of  # noqa: F401
from .estimators import Estimator, bootstrap_divergence
from .events import TimeBin, bin_from_index, find_bin
from .popularity import PopularityDistribution, PositionMap, normalize, panel_of, require_loans

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


def _rows(
    dists: list[PopularityDistribution], pairs: list[tuple[int, int]], measure: Measure
) -> BinRows:
    """The view's one reader: its bins as rows of their count panel, read by position.

    Bins are checked in the order the pairs first reach them, earlier bin
    first within a pair, so the empty bin reported is the one a pair-by-pair
    loop would meet first, before any of their cells is divided.
    """
    checked = set()
    for i, j in pairs:
        for k in _earlier_first(dists, i, j):
            if k not in checked:
                require_loans(dists[k])
                checked.add(k)
    return BinRows(measure, panel_of(dists))


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
    two count tables, as rows of their shared panel.
    Pairs run one after another in this process; only a pair's resamples
    are split over ``estimator.jobs`` processes.
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
        jobs=estimator.jobs,
    )
    return est.corrected_value, est.std_error


def _evaluate_pairs(
    dists: list[PopularityDistribution],
    pairs: list[tuple[int, int]],
    estimator: Estimator,
    measure: Measure,
) -> list[tuple[float, float | None]]:
    """Every pair of one view; a plug-in view reads its bins' rows once for all of them."""
    rows = _rows(dists, pairs, measure) if estimator.kind == "plugin" else None
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
    rows: BinRows, i: int, j: int
) -> tuple[ContributionBreakdown, PositionMap, list[float]]:
    """``contribution_groups`` of bins i and j, read from the view's rows."""
    breakdown = rows.breakdown(i, j)
    ranked = breakdown.parts[breakdown.order]
    bands = [ranked[lo:hi] for lo, hi in zip(_BAND_EDGES, _BAND_EDGES[1:])]
    codes = np.repeat(np.arange(1, N_GROUPS + 1, dtype=np.int8), [len(b) for b in bands])
    groups = PositionMap(breakdown.ids, breakdown.union[breakdown.order], codes)
    total = breakdown.total_bits
    shares = [exact_sum(b) / total for b in bands] if total > 0.0 else [0.0] * N_GROUPS
    return breakdown, groups, shares


def contribution_groups(
    A: PopularityDistribution, B: PopularityDistribution
) -> tuple[ContributionBreakdown, PositionMap, list[float]]:
    """Rank items by their partial JSD for one bin pair and band them into groups.

    Only items with at least one loan in the pair take part, in the order of
    ``breakdown.ranking``. Group shares are each band's slice of the total
    JSD; they sum to one whenever the pair actually drifted, and are all
    zero for identical distributions.
    """
    return _contributions(_rows([A, B], [(0, 1)], Measure("jsd")), 0, 1)


def contribution_pairs(
    dists: list[PopularityDistribution],
    kind: str = "local",
    baseline: TimeBin | date | str | None = None,
) -> Iterator[tuple[TimeBin, ContributionBreakdown, PositionMap, list[float]]]:
    """``(right bin, *contribution_groups)`` for each pair of one view, lazily.

    ``kind`` is "local" or "global" (``baseline`` as in ``global_drift``), and
    the pairs are those of the drift series of that kind.
    """
    if kind not in ("local", "global"):
        raise ValueError(f"unknown view kind {kind!r}")
    pairs = _local_pairs(dists) if kind == "local" else _global_pairs(dists, baseline)
    rows = _rows(dists, pairs, Measure("jsd"))
    for i, j in pairs:
        yield (dists[j].bin, *_contributions(rows, i, j))


def build_group_schedule(dists: list[PopularityDistribution]) -> list[tuple[str, PositionMap]]:
    """Contribution-group assignment for every local pair, keyed by its right bin."""
    return [(right.label, groups) for right, _, groups, _ in contribution_pairs(dists)]


def transition_matrix(schedule: list[tuple[str, PositionMap]]) -> np.ndarray:
    """Average group-to-group transition probabilities across consecutive pairs.

    ``schedule`` is what ``build_group_schedule`` returns, whose group maps
    share one panel, so each pair's moves are one bincount over panel
    positions. An item ranked in one pair but missing from the next pair's
    ranking counts as landing in the last group. A group with no occupants
    across all transitions keeps itself (identity row), so the matrix is
    always row-stochastic.
    """
    if len(schedule) < 2:
        raise ValueError("transition matrix needs at least two consecutive pairs")
    maps = [groups for _, groups in schedule]
    for groups in maps:
        if type(groups) is not PositionMap:
            kind = type(groups).__name__
            raise ValueError(f"transition matrix reads build_group_schedule's maps, not a {kind}")
        if groups.ids is not maps[0].ids:
            raise ValueError("transition matrix needs the group maps of one panel")
    sums = np.zeros((N_GROUPS, N_GROUPS), dtype=np.float64)
    rows_seen = np.zeros(N_GROUPS, dtype=np.int64)
    # each item's group in the next pair, the last group where it has none
    landing = np.full(len(maps[0].ids), N_GROUPS, dtype=np.intp)
    for prev, nxt in zip(maps, maps[1:]):
        landing[nxt.positions] = nxt.data
        moves = (prev.data - 1) * N_GROUPS + landing[prev.positions] - 1
        landing[nxt.positions] = N_GROUPS
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
        # its one pair goes through the mapping API until bench/tracing.py times
        # BinRows: the benchmark's divergence layer is this call (ROADMAP item 1)
        shares = {k: normalize(dists[k]) for k in _earlier_first(dists, b, t)}
        _, breakdown = jsd_with_contributions(shares[b], shares[t])
        top = breakdown.ranking[: selector.k]
        pair = np.concatenate((panel.index[b], panel.index[t]))
        position = dict(zip(panel.ids[pair].tolist(), pair.tolist()))
        selected = np.fromiter(map(position.__getitem__, top), dtype=np.intp, count=len(top))
    elif isinstance(selector, TopTotal):
        present, totals = panel.item_loans()
        selected = panel.top(totals, present, selector.k)
    elif isinstance(selector, TopPeak):
        positions, loans = panel.all_index, panel.all_counts
        peaks = np.zeros(panel.n_items, dtype=loans.dtype)
        np.maximum.at(peaks, positions, loans)
        selected = panel.top(peaks, peaks > 0, selector.k)
    else:
        raise TypeError(f"unknown selector {selector!r}")

    counts = np.zeros((len(selected), len(bins)), dtype=np.int64)
    spread = np.zeros(panel.n_items, dtype=np.int64)
    for j, (index, c) in enumerate(zip(panel.index, panel.counts)):
        spread[index] = c
        counts[:, j] = spread[selected]
        spread[index] = 0
    peak = counts.argmax(axis=1)
    order = panel.rank(selected, -peak)
    items = panel.ids[selected[order]].tolist()
    return TrajectoryPanel(bins, items, [bins[p] for p in peak[order].tolist()], counts[order])
