"""Sparse popularity distributions per (time bin, cohort), with top-K restriction."""

from __future__ import annotations

import heapq
import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from .canon import CanonicalCatalog
from .events import EVERYONE, CohortFilter, LoanEvent, TimeBin, assign_bin, matches

log = logging.getLogger(__name__)


@dataclass
class PopularityDistribution:
    """Loan counts of canonical items within one (bin, cohort) cell."""

    bin: TimeBin
    cohort: str
    counts: dict[str, int]
    total: int

    def support(self) -> set[str]:
        return set(self.counts)


@dataclass
class RelativeDistribution:
    """Strictly positive probabilities over canonical items, summing to one."""

    probs: dict[str, float]

    def support(self) -> set[str]:
        return set(self.probs)


@dataclass
class AggregateReport:
    events_seen: int = 0
    matched: int = 0
    unknown_keys: int = 0
    skipped: Counter = field(default_factory=Counter)


def aggregate(
    events: Iterable[LoanEvent],
    granularity: str = "month",
    cohort: CohortFilter = EVERYONE,
    catalog: CanonicalCatalog | None = None,
) -> tuple[list[PopularityDistribution], AggregateReport]:
    """Tally events into one distribution per non-empty bin, keyed by canonical id.

    Item keys missing from the catalog pass through as their own canonical id
    and are counted in the report. Returns distributions sorted by bin.
    """
    report = AggregateReport()
    take_all = cohort.is_empty()
    mapping = catalog.mapping if catalog is not None else None
    bin_index: dict[object, int] = {}
    bin_meta: dict[int, TimeBin] = {}
    per_bin: dict[int, Counter] = {}
    tally = report.skipped

    for ev in events:
        report.events_seen += 1
        if not take_all and not matches(ev, cohort, tally):
            continue
        report.matched += 1
        d = ev.date
        idx = bin_index.get(d)
        if idx is None:
            tb = assign_bin(d, granularity)
            idx = tb.index
            bin_index[d] = idx
            bin_meta[idx] = tb
            if idx not in per_bin:
                per_bin[idx] = Counter()
        key = ev.item_key
        if mapping is not None:
            cid = mapping.get(key)
            if cid is None:
                report.unknown_keys += 1
                cid = key
        else:
            cid = key
        per_bin[idx][cid] += 1

    if not per_bin:
        log.warning("no events matched cohort %r", cohort.label)
        return [], report

    dists = [
        PopularityDistribution(
            bin_meta[idx], cohort.label, dict(per_bin[idx]), sum(per_bin[idx].values())
        )
        for idx in sorted(per_bin)
    ]
    return dists, report


def normalize(dist: PopularityDistribution) -> RelativeDistribution:
    """Relative popularity: each count divided by the bin's loan total."""
    if dist.total < 1:
        raise ValueError(f"empty distribution for bin {dist.bin.label}")
    total = dist.total
    return RelativeDistribution({k: c / total for k, c in dist.counts.items()})


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
    kept = {
        key
        for key, _ in heapq.nsmallest(k, totals.items(), key=lambda kv: (-kv[1], kv[0]))
    }
    out = []
    for dist in dists:
        counts = {key: c for key, c in dist.counts.items() if key in kept}
        out.append(
            PopularityDistribution(dist.bin, dist.cohort, counts, sum(counts.values()))
        )
    return out


def check_probabilities(rel: RelativeDistribution, tol: float = 1e-12) -> bool:
    """Exact-summation check that probabilities form a distribution."""
    if not rel.probs:
        return False
    if any(p <= 0.0 for p in rel.probs.values()):
        return False
    return abs(math.fsum(rel.probs.values()) - 1.0) <= tol
