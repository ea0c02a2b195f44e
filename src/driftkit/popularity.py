"""Sparse popularity distributions per (time bin, cohort), on one shared count panel.

`aggregate` maps the per-bin raw-key tallies of `events.ingest` through the
canonical catalog into `PopularityDistribution`s. The producers
(`aggregate`, `restrict_top_k` and `synthmarket`'s sampler) build their
distributions as rows of one `CountPanel`: the item ids are interned once,
each id's rank in Python string order is computed once, and each bin is an
int index array into the ids plus its counts and total. A producer-built
distribution's ``counts`` is a read-only mapping view of its row
(`RowCounts`), iterating in the bin's own item order; a distribution built
by hand from a plain mapping works everywhere too. Every consumer gets its
panel from one function, `panel_of`, which returns the shared panel, or
interns a list of hand-built distributions once.

Four rules live only here: `require_loans`, `normalize` (to a plain dict of
item shares), the ranking of items by descending score, then id
(`rank_items` over a mapping, `CountPanel.rank` over panel positions),
which every item selection uses, and `panel_of`.
"""

from __future__ import annotations

import heapq
import logging
import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable

import numpy as np

from .canon import CanonicalCatalog
from .events import BinTally, TimeBin

log = logging.getLogger(__name__)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class CountPanel:
    """Loan counts of several bins over one interned list of item ids.

    ``ids`` is an object array of the item ids; ``id_rank[i]`` is the rank
    of ``ids[i]`` in Python string order, the id tie-break of the ranking
    rule, computed once, on first use. The rows are stored end to end:
    ``all_index`` holds positions into ``ids`` and ``all_counts`` their
    counts, and row r is the slice ``offsets[r]:offsets[r + 1]`` of both.
    Row r is one bin: ``index[r]`` and ``counts[r]`` are its slices, in the
    bin's own item order, and ``totals[r]`` is its loan total. Every array
    is read-only, so no row can drift from the distributions built on it.
    A panel pickles as one object, so the rows of one panel still share it
    after a round trip.
    """

    def __init__(self, ids, all_index, all_counts, sizes, totals, id_rank=None):
        self.ids = _frozen(np.asarray(ids, dtype=object))
        self.all_index = _frozen(np.asarray(all_index, dtype=np.intp))
        self.all_counts = _frozen(np.asarray(all_counts))
        self.offsets = _frozen(np.concatenate(([0], np.cumsum(sizes, dtype=np.intp))))
        bounds = list(zip(self.offsets.tolist(), self.offsets[1:].tolist()))
        self.index = [self.all_index[a:b] for a, b in bounds]
        self.counts = [self.all_counts[a:b] for a, b in bounds]
        self.totals = list(totals)
        self._id_rank = id_rank if id_rank is None else _frozen(np.asarray(id_rank, np.intp))

    @property
    def id_rank(self) -> np.ndarray:
        """Each id's rank in Python string order, computed on first use."""
        if self._id_rank is None:
            names = self.ids.tolist()
            id_rank = np.empty(len(names), dtype=np.intp)
            id_rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
            self._id_rank = _frozen(id_rank)
        return self._id_rank

    @classmethod
    def intern(cls, tables: list[Mapping], totals: list) -> CountPanel:
        """One row per mapping of item id to count, with the given totals."""
        position = dict.fromkeys(chain.from_iterable(tables))
        for i, item in enumerate(position):
            position[item] = i
        sizes = [len(table) for table in tables]
        cells = map(position.__getitem__, chain.from_iterable(tables))
        all_index = np.fromiter(cells, dtype=np.intp, count=sum(sizes))
        all_counts = np.array(list(chain.from_iterable(table.values() for table in tables)))
        if all_counts.dtype.kind != "i":
            all_counts = all_counts.astype(np.float64)
        return cls(list(position), all_index, all_counts, sizes, totals)

    def __reduce__(self):
        sizes = np.diff(self.offsets)
        return CountPanel, (
            self.ids, self.all_index, self.all_counts, sizes, self.totals, self._id_rank
        )

    @property
    def n_items(self) -> int:
        return len(self.ids)

    def shares(self, r: int) -> RowShares:
        return RowShares(self, r)

    def select(self, rows: list[int]) -> CountPanel:
        """The given rows, in that order, over the same ids and id ranks."""
        return CountPanel(
            self.ids,
            np.concatenate([self.index[r] for r in rows]),
            np.concatenate([self.counts[r] for r in rows]),
            [len(self.index[r]) for r in rows],
            [self.totals[r] for r in rows],
            self._id_rank,
        )

    def rank(self, scores: np.ndarray, candidates: np.ndarray, k: int | None = None) -> np.ndarray:
        """Positions of the candidate items by descending score, then id; the first k if given."""
        where = np.flatnonzero(candidates)
        order = np.lexsort((self.id_rank[where], -scores[where]))
        return where[order if k is None else order[:k]]


class RowCounts(Mapping):
    """One panel row as a read-only mapping of item id to count, in the row's item order."""

    __slots__ = ("panel", "row", "_table")

    def __init__(self, panel: CountPanel, row: int):
        self.panel, self.row, self._table = panel, row, None

    def __reduce__(self):
        return type(self), (self.panel, self.row)

    def _values(self) -> np.ndarray:
        return self.panel.counts[self.row]

    def __iter__(self):
        return iter(self.panel.ids[self.panel.index[self.row]].tolist())

    def __len__(self) -> int:
        return len(self.panel.index[self.row])

    def __getitem__(self, key):
        if self._table is None:  # built on the first lookup by id
            self._table = dict(self.items())
        return self._table[key]

    def values(self) -> list:
        return self._values().tolist()

    def items(self) -> list:
        return list(zip(self, self.values()))


class RowShares(RowCounts):
    """One panel row's relative popularity: item id to count / total, read-only."""

    __slots__ = ()

    def _values(self) -> np.ndarray:
        return self.panel.counts[self.row] / self.panel.totals[self.row]


@dataclass
class PopularityDistribution:
    """Loan counts of canonical items within one (bin, cohort) cell.

    ``counts`` is a plain mapping for a hand-built distribution, and a
    read-only `RowCounts` view for one that a producer built on a panel.
    """

    bin: TimeBin
    cohort: str
    counts: Mapping[str, int]
    total: int


def on_panel(
    panel: CountPanel, cells: Iterable[tuple[TimeBin, str]]
) -> list[PopularityDistribution]:
    """One distribution per panel row, with the (bin, cohort) of each row in order."""
    return [
        PopularityDistribution(b, cohort, RowCounts(panel, r), panel.totals[r])
        for r, (b, cohort) in enumerate(cells)
    ]


def panel_of(dists: list[PopularityDistribution]) -> CountPanel:
    """The count panel whose row k holds ``dists[k]``'s counts and total.

    When every distribution is a row of one shared panel (with its total),
    that panel is returned, or the selection of its rows that ``dists``
    names; nothing is interned. Otherwise the list is interned once.
    """
    shared = dists[0].counts.panel if dists and type(dists[0].counts) is RowCounts else None
    rows = []
    for dist in dists:
        counts = dist.counts
        if (
            type(counts) is not RowCounts
            or counts.panel is not shared
            or dist.total != shared.totals[counts.row]
        ):
            return CountPanel.intern([d.counts for d in dists], [d.total for d in dists])
        rows.append(counts.row)
    if shared is None:  # no distributions
        return CountPanel.intern([], [])
    return shared if rows == list(range(len(shared.index))) else shared.select(rows)


@dataclass
class AggregateReport:
    events_seen: int = 0
    matched: int = 0
    unknown_keys: int = 0
    skipped: Counter = field(default_factory=Counter)


def aggregate(
    tallies: Iterable[BinTally],
    catalog: CanonicalCatalog | None = None,
) -> tuple[list[PopularityDistribution], AggregateReport]:
    """Turn `ingest`'s per-bin tallies into one distribution per bin with loans.

    Each raw item key is mapped through the catalog once per bin; keys
    missing from the catalog pass through as their own canonical id, and
    their loans are counted in the report. Returns the distributions in the
    tallies' order, which `ingest` makes bin order, as rows of one panel.
    """
    report = AggregateReport()
    mapping = catalog.mapping if catalog is not None else None
    tables, totals, cells = [], [], []
    for tally in tallies:
        report.events_seen += tally.rows
        report.skipped.update(tally.skipped)
        if not tally.counts:
            continue
        if mapping is None:
            counts = tally.counts
        else:
            counts = {}
            for key, c in tally.counts.items():
                cid = mapping.get(key)
                if cid is None:
                    report.unknown_keys += c
                    cid = key
                counts[cid] = counts.get(cid, 0) + c
        total = sum(counts.values())
        report.matched += total
        tables.append(counts)
        totals.append(total)
        cells.append((tally.bin, tally.cohort))

    if not cells:
        log.warning("no events matched the window and cohort filters")
    return on_panel(CountPanel.intern(tables, totals), cells), report


def require_loans(dist: PopularityDistribution) -> None:
    """Reject a bin without loans, which has no relative popularity."""
    if dist.total < 1:
        raise ValueError(f"empty distribution for bin {dist.bin.label}")


def normalize(dist: PopularityDistribution) -> dict[str, float]:
    """Relative popularity: a plain dict of each item's count over the bin's loan total."""
    require_loans(dist)
    total = dist.total
    return {k: c / total for k, c in dist.counts.items()}


def rank_items(scores: Mapping[str, int], k: int | None = None) -> list[str]:
    """Item ids by descending score, then id; only the first k if k is given."""

    def key(item):
        return -scores[item], item

    return sorted(scores, key=key) if k is None else heapq.nsmallest(k, scores, key=key)


def restrict_top_k(
    dists: list[PopularityDistribution], k: int
) -> list[PopularityDistribution]:
    """Keep only the k items most loaned across all input bins.

    The kept set is global: items are ranked by total loans over the whole
    input (ties broken by canonical id), and every bin is filtered to that
    one set, keeping its item order, so supports stay comparable across
    bins. Bins may shrink. The result is the rows of one new panel.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    panel = panel_of(dists)
    positions, counts = panel.all_index, panel.all_counts
    present = np.bincount(positions, minlength=panel.n_items) > 0
    n_present = int(np.count_nonzero(present))
    if n_present <= k:
        if n_present < k:
            log.info("only %d distinct items, fewer than k=%d; keeping all", n_present, k)
        return list(dists)
    totals = np.bincount(positions, weights=counts, minlength=panel.n_items)
    kept = np.zeros(panel.n_items, dtype=bool)
    kept[panel.rank(totals, present, k)] = True
    keep = kept[positions]
    kept_counts = counts[keep]
    offsets = np.concatenate(([0], np.cumsum(keep)))[panel.offsets].tolist()
    row_totals = [sum(kept_counts[a:b].tolist()) for a, b in zip(offsets, offsets[1:])]
    id_rank = panel.id_rank[kept]
    compact = np.empty_like(id_rank)
    compact[np.argsort(id_rank)] = np.arange(len(id_rank))
    restricted = CountPanel(
        panel.ids[kept],
        (np.cumsum(kept) - 1)[positions[keep]],
        kept_counts,
        np.diff(offsets),
        row_totals,
        compact,
    )
    return on_panel(restricted, ((d.bin, d.cohort) for d in dists))


def check_probabilities(probs: Mapping[str, float], tol: float = 1e-12) -> bool:
    """Exact-summation check that probabilities form a distribution."""
    if not probs:
        return False
    if any(p <= 0.0 for p in probs.values()):
        return False
    return abs(math.fsum(probs.values()) - 1.0) <= tol
