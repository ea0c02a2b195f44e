"""Sparse popularity distributions per (time bin, cohort), with top-K restriction.

`aggregate` maps the per-bin raw-key tallies of `events.ingest` through the
canonical catalog into `PopularityDistribution`s. Three rules live only
here: `require_loans`, `normalize` (to a plain dict of item shares) and
`rank_items` (descending score, then id), which every item selection uses.
"""

from __future__ import annotations

import heapq
import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .canon import CanonicalCatalog
from .events import BinTally, TimeBin

log = logging.getLogger(__name__)


@dataclass
class PopularityDistribution:
    """Loan counts of canonical items within one (bin, cohort) cell."""

    bin: TimeBin
    cohort: str
    counts: dict[str, int]
    total: int


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
    tallies' order, which `ingest` makes bin order.
    """
    report = AggregateReport()
    mapping = catalog.mapping if catalog is not None else None
    dists = []
    for tally in tallies:
        report.events_seen += tally.rows
        report.skipped.update(tally.skipped)
        if not tally.counts:
            continue
        if mapping is None:
            counts = dict(tally.counts)
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
        dists.append(PopularityDistribution(tally.bin, tally.cohort, counts, total))

    if not dists:
        log.warning("no events matched the window and cohort filters")
    return dists, report


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
    one set, so supports stay comparable across bins. Bins may shrink.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    totals: Counter = Counter()
    for dist in dists:
        totals.update(dist.counts)
    if len(totals) <= k:
        if len(totals) < k:
            log.info("only %d distinct items, fewer than k=%d; keeping all", len(totals), k)
        return list(dists)
    kept = set(rank_items(totals, k))
    out = []
    for dist in dists:
        counts = {key: c for key, c in dist.counts.items() if key in kept}
        out.append(
            PopularityDistribution(dist.bin, dist.cohort, counts, sum(counts.values()))
        )
    return out


def check_probabilities(probs: Mapping[str, float], tol: float = 1e-12) -> bool:
    """Exact-summation check that probabilities form a distribution."""
    if not probs:
        return False
    if any(p <= 0.0 for p in probs.values()):
        return False
    return abs(math.fsum(probs.values()) - 1.0) <= tol
