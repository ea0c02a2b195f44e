"""Sparse popularity distributions per (time bin, cohort), on one shared count panel.

`aggregate` turns the per-bin key-code tallies of `events.ingest`, each key
mapped once through the canonical catalog, into `PopularityDistribution`s.
The count panel is the library's one item representation: the producers
(`aggregate`, `restrict_top_k` and `synthmarket`'s sampler) build their
distributions from arrays as rows of one `CountPanel`: each item id is
held once, its rank in Python string order is computed once, and each bin
is an int index array into the ids plus its counts and total. A producer-built
distribution's ``counts`` is a read-only mapping view of its row
(`RowCounts`), iterating in the bin's own item order; a distribution built
by hand from a plain mapping works everywhere too. Every consumer gets its
panel from one function, `panel_of`, which returns the shared panel, or
interns a list of hand-built distributions once. The views read relative
popularity off the panel through `divergence.BinRows`, the one reader of a
pair; `normalize` gives it as a plain dict, the input of the mapping API.

Four rules live only here: `require_loans`, `normalize` (to a plain dict of
item shares), `panel_of`, and `CountPanel.rank` (descending keys, then id),
the one ordering that every sort breaking ties by item id runs through.
"""

from __future__ import annotations

import logging
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

    ``ids`` is an object array of the item ids; ``id_rank`` orders them as
    Python strings (with gaps in a panel cut from another), the id
    tie-break of `rank`, computed once, on first use. The rows are stored
    end to end: ``all_index`` holds positions into ``ids`` and
    ``all_counts`` their counts, and row r is the slice
    ``offsets[r]:offsets[r + 1]`` of both. Row r is one bin: ``index[r]``
    and ``counts[r]`` are its slices, in the bin's own item order, and
    ``totals[r]`` is its loan total. Every array is read-only, so no row
    can drift from the distributions built on it. A panel pickles as one
    object, so the rows of one panel still share it after a round trip.
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
        """An order key of the ids in Python string order, computed on first use."""
        if self._id_rank is None:
            names = self.ids.tolist()
            id_rank = np.empty(len(names), dtype=np.intp)
            id_rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
            self._id_rank = _frozen(id_rank)
        return self._id_rank

    @classmethod
    def intern(cls, tables: list[Mapping], totals: list) -> CountPanel:
        """One row per mapping of item id to count, with the given totals."""
        ids = list(dict.fromkeys(chain.from_iterable(tables)))
        position = dict(zip(ids, range(len(ids))))
        sizes = [len(table) for table in tables]
        cells = map(position.__getitem__, chain.from_iterable(tables))
        all_index = np.fromiter(cells, dtype=np.intp, count=sum(sizes))
        all_counts = np.array(list(chain.from_iterable(table.values() for table in tables)))
        if all_counts.dtype.kind != "i":
            all_counts = all_counts.astype(np.float64)
        return cls(ids, all_index, all_counts, sizes, totals)

    def __reduce__(self):
        sizes = np.diff(self.offsets)
        return CountPanel, (
            self.ids, self.all_index, self.all_counts, sizes, self.totals, self._id_rank
        )

    @property
    def n_items(self) -> int:
        return len(self.ids)

    def item_loans(self) -> tuple[np.ndarray, np.ndarray]:
        """Whether any row holds each item, and the item's loans summed over all rows."""
        present = np.bincount(self.all_index, minlength=self.n_items) > 0
        return present, np.bincount(self.all_index, weights=self.all_counts, minlength=self.n_items)

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

    def rank(self, positions: np.ndarray, *keys: np.ndarray) -> np.ndarray:
        """Indices into ``positions`` by descending keys, first key first, then by id.

        Each key holds one entry per position; ids compare as Python
        strings (``id_rank``), as numpy's string sort treats trailing NULs
        differently. An unstable sort by the first key places the items whose
        first key is unique; only the tied ones are sorted by id, then stably
        by every key. A lexsort of all items with their id ranks took 4x as
        long on 10k-item contribution pairs (2-core x86 host), past
        acceptance criterion 1's time limit.
        """
        first = keys[0]
        order = np.argsort(-first)
        ranked = first[order]
        equal = ranked[1:] == ranked[:-1]
        tied = np.zeros(len(order), dtype=bool)
        tied[1:] = equal
        tied[:-1] |= equal
        if tied.any():
            sub = order[tied]
            sub = sub[np.argsort(self.id_rank[positions[sub]])]  # id ranks are unique
            order[tied] = sub[np.lexsort(tuple(-key[sub] for key in reversed(keys)))]
        return order

    def top(self, scores: np.ndarray, candidates: np.ndarray, k: int) -> np.ndarray:
        """Positions of the k candidate items ranked first by descending score, then id.

        Only the candidates scoring at least the k-th largest score, ties
        included, are ranked.
        """
        where = np.flatnonzero(candidates)
        if 0 < k < len(where):
            score = scores[where]
            where = where[score >= np.partition(score, -k)[-k]]
        return where[self.rank(where, scores[where])[:k]]


class PositionMap(Mapping):
    """A read-only mapping of ``ids[positions[k]]`` to ``data[k]``, in that order.

    ``ids`` are a panel's ids and ``positions`` and ``data`` arrays of one
    length. Iterating reads the arrays; the dict behind a lookup by id is
    built on the first lookup.
    """

    __slots__ = ("ids", "positions", "data", "_table")

    def __init__(self, ids: np.ndarray, positions: np.ndarray, data: np.ndarray):
        self.ids, self.positions, self.data, self._table = ids, positions, data, None

    def __reduce__(self):
        return PositionMap, (self.ids, self.positions, self.data)

    def __iter__(self):
        return iter(self.ids[self.positions].tolist())

    def __len__(self) -> int:
        return len(self.positions)

    def __getitem__(self, key):
        if self._table is None:
            self._table = dict(self.items())
        return self._table[key]

    def values(self) -> list:
        return self.data.tolist()

    def items(self) -> list:
        return list(zip(self, self.values()))


class RowCounts(PositionMap):
    """One panel row as a read-only mapping of item id to count, in the row's item order."""

    __slots__ = ("panel", "row")

    def __init__(self, panel: CountPanel, row: int):
        super().__init__(panel.ids, panel.index[row], panel.counts[row])
        self.panel, self.row = panel, row

    def __reduce__(self):
        return type(self), (self.panel, self.row)


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

    Each key of the pass's key table is mapped through the catalog once;
    keys missing from it (all keys, with no catalog) are their own canonical
    id, and their loans (none, with no catalog) are counted in the report. A
    bin's keys of one id are summed at the first one's place. Returns the
    distributions in the tallies' order, which `ingest` makes bin order, as
    rows of one panel, ids in first-count order; the list is empty when no
    row matched, which the caller reports. Tallies of two passes raise ValueError.
    """
    report = AggregateReport()
    tallies = list(tallies)
    keys = tallies[0].keys if tallies else []
    for tally in tallies:
        if tally.keys is not keys:
            raise ValueError("the tallies come from more than one ingest pass")
        report.events_seen += tally.rows
        report.skipped.update(tally.skipped)
    tallies = [tally for tally in tallies if tally.counts]

    raw = np.array(keys, dtype=object)
    cid = raw if catalog is None else np.array([*map(catalog.mapping.get, keys)], dtype=object)
    unknown = np.equal(cid, None)
    cid[unknown] = raw[unknown]
    # only the keys a catalog renames, and the keys named as one of their ids, can
    # share an id; ``lead`` is the code of the first key with each key's id
    shared = cid != raw
    shared |= np.fromiter(map(set(cid[shared]).__contains__, keys), bool, len(keys))
    lead = np.arange(len(keys))
    first: dict[str, int] = {}
    sharing = np.flatnonzero(shared).tolist()
    lead[sharing] = list(map(first.setdefault, cid[sharing].tolist(), sharing))

    sizes = [len(tally.counts) for tally in tallies]
    n = sum(sizes)
    codes = np.fromiter(chain.from_iterable(t.counts for t in tallies), np.intp, n)
    loans = np.fromiter(chain.from_iterable(t.counts.values() for t in tallies), np.int64, n)
    totals = [sum(tally.counts.values()) for tally in tallies]
    report.matched, report.unknown_keys = sum(totals), int(loans[unknown[codes]].sum())
    # a bin counts each id once, at its first key's place: sum the shared keys'
    # cells there (float64 sums of loan counts are exact below 2**53)
    rows = np.repeat(np.arange(len(tallies)), sizes)
    kept = ~shared[codes]
    meet = np.flatnonzero(~kept)
    pair = rows[meet] * len(keys) + lead[codes[meet]]
    _, at, cell = np.unique(pair, return_index=True, return_inverse=True)
    kept[meet[at]] = True
    loans[meet[at]] = np.bincount(cell, weights=loans[meet])
    leads = lead == np.arange(len(keys))
    index = (np.cumsum(leads) - 1)[lead[codes[kept]]]
    panel = CountPanel(cid[leads], index, loans[kept], np.bincount(rows[kept]), totals)
    return on_panel(panel, [(tally.bin, tally.cohort) for tally in tallies]), report


def require_loans(dist: PopularityDistribution) -> None:
    """Reject a bin without loans, which has no relative popularity."""
    if dist.total < 1:
        raise ValueError(f"empty distribution for bin {dist.bin.label}")


def normalize(dist: PopularityDistribution) -> dict[str, float]:
    """Relative popularity: a plain dict of each item's count over the bin's loan total."""
    require_loans(dist)
    total = dist.total
    return {k: c / total for k, c in dist.counts.items()}


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
    present, totals = panel.item_loans()
    n_present = int(np.count_nonzero(present))
    if n_present <= k:
        if n_present < k:
            log.info("only %d distinct items, fewer than k=%d; keeping all", n_present, k)
        return list(dists)
    kept = np.zeros(panel.n_items, dtype=bool)
    kept[panel.top(totals, present, k)] = True
    keep = kept[positions]
    kept_counts = counts[keep]
    offsets = np.concatenate(([0], np.cumsum(keep)))[panel.offsets].tolist()
    row_totals = [sum(kept_counts[a:b].tolist()) for a, b in zip(offsets, offsets[1:])]
    restricted = CountPanel(
        panel.ids[kept],
        (np.cumsum(kept) - 1)[positions[keep]],
        kept_counts,
        np.diff(offsets),
        row_totals,
        panel.id_rank[kept],  # still in string order; ranks need not be dense
    )
    return on_panel(restricted, ((d.bin, d.cohort) for d in dists))
