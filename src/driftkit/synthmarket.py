"""Seeded synthetic loan-market generator with exact ground-truth distributions.

The market keeps a fixed rank-frequency shape (Zipf weights over ranks) while
item identities move: each month a fixed fraction of rank positions hand their
weight to fresh entrants (churn), and a designated seasonal item set has its
weight multiplied during active months, then renormalized. Because the true
per-bin distributions are known exactly, sampled logs come with an oracle for
every divergence the toolkit estimates.

Two deliberate choices keep the oracle's drift signal clean under heavy-tailed
weights. First, churned ranks are drawn one-per-stratum from equal-size strata
of the eligible ranks, so the total churned weight is nearly identical every
month and the true local drift is flat. Second, a small head of top ranks and
the seasonal ranks are exempt from churn; otherwise the occasional replacement
of a top item would swamp the series with single-rank noise.

`generate` writes every log row from one template: the loan day, the item's
four fields (key, title, creator, category), the medium and the loaner's five
fields, under the header `events.DEFAULT_SCHEMA` declares.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import date, timedelta
from functools import cache
from pathlib import Path

import numpy as np

from .divergence import jsd
from .events import DEFAULT_SCHEMA, TimeBin, assign_bin, bin_from_index, find_bin
from .popularity import CountPanel, PopularityDistribution, on_panel

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass
class CohortMix:
    """Marginal weights for the synthetic loaner pool's demographics."""

    sex: tuple[tuple[str, float], ...] = (("female", 0.54), ("male", 0.44), ("unknown", 0.02))
    age_bands: tuple[tuple[tuple[int, int], float], ...] = (
        ((6, 18), 0.12),
        ((18, 30), 0.10),
        ((30, 46), 0.30),
        ((46, 65), 0.26),
        ((65, 90), 0.22),
    )
    education: tuple[tuple[str, float], ...] = (
        ("basic", 0.26),
        ("upper_secondary", 0.36),
        ("higher", 0.36),
        ("unknown", 0.02),
    )
    residence: tuple[tuple[str, float], ...] = (
        ("large_city", 0.44),
        ("town_rural", 0.54),
        ("unknown", 0.02),
    )


@dataclass
class SynthMarketSpec:
    """Generative parameters; together with the seed they fix every distribution."""

    catalog_size: int = 50_000
    zipf_exponent: float = 1.0
    monthly_churn: float = 0.05
    seasonal_fraction: float = 0.01
    seasonal_multiplier: float = 3.0
    seasonal_months: tuple[int, ...] = (11, 12)
    seasonal_rank_range: tuple[int, int] = (11, 1000)
    stable_head_ranks: int = 100
    loans_per_bin: int = 500_000
    n_bins: int = 24
    start: date = date(2022, 1, 1)
    n_loaners: int = 50_000
    category_weights: tuple[tuple[str, float], ...] = (
        ("adult_fiction", 0.34),
        ("adult_nonfiction", 0.22),
        ("children", 0.34),
        ("other", 0.10),
    )
    medium_weights: tuple[tuple[str, float], ...] = (
        ("physical", 0.62),
        ("ebook", 0.22),
        ("audiobook", 0.16),
    )
    cohort_mix: CohortMix = field(default_factory=CohortMix)
    seed: int = 0

    @property
    def n_churn(self) -> int:
        return round(self.monthly_churn * self.catalog_size)

    @property
    def n_seasonal(self) -> int:
        return round(self.seasonal_fraction * self.catalog_size)

    def validate(self):
        if self.catalog_size < 1:
            raise ValueError("catalog_size must be >= 1")
        if not 0.0 <= self.zipf_exponent < math.inf:
            raise ValueError("zipf_exponent must be finite and >= 0")
        if not 0.0 <= self.monthly_churn <= 1.0:
            raise ValueError("monthly_churn must lie in [0, 1]")
        if not 0.0 <= self.seasonal_fraction <= 1.0:
            raise ValueError("seasonal_fraction must lie in [0, 1]")
        if not 0.0 < self.seasonal_multiplier < math.inf:
            raise ValueError("seasonal_multiplier must be finite and > 0")
        if self.loans_per_bin < 1 or self.n_bins < 1 or self.n_loaners < 1:
            raise ValueError("loans_per_bin, n_bins and n_loaners must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.start.day != 1:
            raise ValueError("start must be the first day of a month")
        if self.n_seasonal:
            lo, hi = self.seasonal_rank_range
            hi = min(hi, self.catalog_size)
            if lo < 1 or hi < lo or hi - lo + 1 < self.n_seasonal:
                raise ValueError("seasonal_rank_range too small for the seasonal set")
        if self.n_churn:
            head = min(self.stable_head_ranks, self.catalog_size)
            eligible = self.catalog_size - head - self.n_seasonal
            if eligible < self.n_churn:
                raise ValueError(
                    "not enough churn-eligible ranks; shrink stable_head_ranks, "
                    "the seasonal set, or monthly_churn"
                )


def item_id(index: int) -> str:
    return f"K{index:07d}"


def _alpha_code(index: int) -> str:
    chars = []
    for _ in range(5):
        index, rem = divmod(index, 26)
        chars.append(_LETTERS[rem])
    return "".join(reversed(chars))


def item_title(index: int) -> str:
    # letters tripled, so distinct items are always >= 3 edits apart and the
    # canonicalizer keeps them separate
    return "".join(c * 3 for c in _alpha_code(index))


def item_creator(index: int) -> str:
    return "w" + item_title(index)


def zipf_weights(catalog_size: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, catalog_size + 1, dtype=np.float64)
    weights = ranks**-exponent
    return weights / math.fsum(weights.tolist())


class GroundTruth:
    """Exact per-bin distributions of the generated market."""

    def __init__(self, spec, bins, occupants, weights, seasonal_ranks):
        self.spec = spec
        self.bins: list[TimeBin] = bins
        self.occupants: list[np.ndarray] = occupants  # rank -> item index, per bin
        self.weights: list[np.ndarray] = weights  # rank -> probability, per bin
        self.seasonal_ranks: np.ndarray = seasonal_ranks

    def bin_index(self, which: int | TimeBin | str) -> int:
        return which if isinstance(which, int) else find_bin(self.bins, which)

    def distribution(self, which: int | TimeBin | str) -> dict[str, float]:
        i = self.bin_index(which)
        ids = [item_id(x) for x in self.occupants[i].tolist()]
        return dict(zip(ids, self.weights[i].tolist()))

    def probability_sum(self, which: int | TimeBin | str) -> float:
        return math.fsum(self.weights[self.bin_index(which)].tolist())


def true_jsd(truth: GroundTruth, bin_a: int | TimeBin | str, bin_b: int | TimeBin | str) -> float:
    """Exact JSD in bits between two bins' true distributions."""
    return jsd(truth.distribution(bin_a), truth.distribution(bin_b)).value


def _build_truth(spec: SynthMarketSpec):
    """Plan the market; returns the truth plus the bin/pool/category seed sequences."""
    spec.validate()
    root = np.random.SeedSequence(spec.seed)
    seasonal_ss, churn_ss, bins_ss, pool_ss, cat_ss = root.spawn(5)

    k = spec.catalog_size
    base = zipf_weights(k, spec.zipf_exponent)

    if spec.n_seasonal:
        lo, hi = spec.seasonal_rank_range
        hi = min(hi, k)
        pool = np.arange(lo - 1, hi)  # 0-based rank indices
        rng = np.random.default_rng(seasonal_ss)
        seasonal = np.sort(rng.choice(pool, size=spec.n_seasonal, replace=False))
    else:
        seasonal = np.empty(0, dtype=np.int64)

    active = base.copy()
    if seasonal.size:
        active[seasonal] *= spec.seasonal_multiplier
        active /= math.fsum(active.tolist())

    head = min(spec.stable_head_ranks, k)
    mask = np.ones(k, dtype=bool)
    mask[:head] = False
    mask[seasonal] = False
    eligible = np.flatnonzero(mask)

    n_churn = spec.n_churn
    strata = np.array_split(eligible, n_churn) if n_churn else []
    sizes = np.array([len(s) for s in strata], dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(sizes)))[:-1] if n_churn else None

    first = assign_bin(spec.start, "month").index
    bins = [bin_from_index(first + t, "month") for t in range(spec.n_bins)]

    churn_children = churn_ss.spawn(spec.n_bins)
    occupants = [np.arange(k, dtype=np.int64)]
    next_item = k
    for t in range(1, spec.n_bins):
        occ = occupants[-1].copy()
        if n_churn:
            rng = np.random.default_rng(churn_children[t])
            offsets = rng.integers(0, sizes)
            churned = eligible[starts + offsets]
            occ[churned] = np.arange(next_item, next_item + n_churn, dtype=np.int64)
            next_item += n_churn
        occupants.append(occ)

    weights = [active if b.start.month in spec.seasonal_months else base for b in bins]
    truth = GroundTruth(spec, bins, occupants, weights, seasonal)
    return truth, bins_ss, pool_ss, cat_ss


def _sampled_bins(spec: SynthMarketSpec, truth: GroundTruth, bins_ss):
    """Every bin's multinomial loan tallies, each from the bin's own child seed.

    Returns the bins' distributions, rows of one count panel that interns
    each drawn item once, and per bin the drawn items' indices and counts
    and the seed reserved for the bin's event details.
    """
    draws = []
    for i, child in enumerate(bins_ss.spawn(spec.n_bins)):
        sample_ss, events_ss = child.spawn(2)
        counts = np.random.default_rng(sample_ss).multinomial(
            spec.loans_per_bin, truth.weights[i]
        )
        nz = np.flatnonzero(counts)
        draws.append((truth.occupants[i][nz], counts[nz], events_ss))
    distinct, position = np.unique(
        np.concatenate([items for items, _, _ in draws]), return_inverse=True
    )
    panel = CountPanel(
        [item_id(x) for x in distinct.tolist()],
        position,
        np.concatenate([counts for _, counts, _ in draws]),
        [len(items) for items, _, _ in draws],
        [spec.loans_per_bin] * spec.n_bins,
    )
    return on_panel(panel, ((b, "all") for b in truth.bins)), draws


def sample_counts(spec: SynthMarketSpec) -> tuple[list[PopularityDistribution], GroundTruth]:
    """Multinomial loan tallies per bin, alongside the exact truth."""
    truth, bins_ss, _, _ = _build_truth(spec)
    dists, _ = _sampled_bins(spec, truth, bins_ss)
    return dists, truth


def _weighted_codes(rng, weights: tuple[tuple[str, float], ...], size: int) -> np.ndarray:
    cum = np.cumsum([w for _, w in weights])
    cum = cum / cum[-1]
    return np.searchsorted(cum, rng.random(size), side="right")


def _loaner_pool(spec: SynthMarketSpec, rng) -> list[tuple[str, str, str, str, str]]:
    """One (loaner_id, birthdate, sex, education, residence) tuple per loaner."""
    mix = spec.cohort_mix
    n = spec.n_loaners
    band_idx = _weighted_codes(rng, tuple((str(b), w) for b, w in mix.age_bands), n)
    bands = [b for b, _ in mix.age_bands]
    lo = np.array([b[0] for b in bands], dtype=np.float64)
    hi = np.array([b[1] for b in bands], dtype=np.float64)
    age_days = (lo[band_idx] + (hi - lo)[band_idx] * rng.random(n)) * 365.25
    start_ord = spec.start.toordinal()
    birth = [date.fromordinal(int(start_ord - d)).isoformat() for d in age_days]

    def pick(weights):
        codes = _weighted_codes(rng, weights, n)
        values = [v for v, _ in weights]
        return [values[c] for c in codes]

    ids = [f"L{i:06d}" for i in range(n)]
    return list(zip(ids, birth, pick(mix.sex), pick(mix.education), pick(mix.residence)))


@dataclass
class GenerateResult:
    events_path: Path
    truth_path: Path | None
    truth: GroundTruth
    distributions: list[PopularityDistribution]


def generate(
    spec: SynthMarketSpec,
    events_path: str | Path,
    truth_path: str | Path | None = None,
) -> GenerateResult:
    """Write a synthetic event log (and optional truth sidecar) to disk.

    Every row is one template, ``(day, *item_fields(item), medium, *loaner)``,
    streamed to the writer under the header of `events.DEFAULT_SCHEMA`.
    Event tallies per bin equal the sampled multinomial counts exactly, so
    aggregating the file reproduces the distributions returned here.
    """
    truth, bins_ss, pool_ss, cat_ss = _build_truth(spec)
    pool = _loaner_pool(spec, np.random.default_rng(pool_ss))

    total_items = spec.catalog_size + spec.n_churn * max(spec.n_bins - 1, 0)
    cat_rng = np.random.default_rng(cat_ss)
    cat_values = [c for c, _ in spec.category_weights]
    item_category = [
        cat_values[c] for c in _weighted_codes(cat_rng, spec.category_weights, total_items)
    ]
    medium_values = [m for m, _ in spec.medium_weights]

    @cache
    def item_fields(idx: int) -> tuple[str, str, str, str]:
        return (item_id(idx), item_title(idx), item_creator(idx), item_category[idx])

    events_path = Path(events_path)
    dists, draws = _sampled_bins(spec, truth, bins_ss)
    with open(events_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DEFAULT_SCHEMA.values())
        for b, (drawn, drawn_counts, events_ss) in zip(truth.bins, draws):
            ev_rng = np.random.default_rng(events_ss)
            n = spec.loans_per_bin
            items = np.repeat(drawn, drawn_counts)
            items = items[ev_rng.permutation(n)]
            n_days = (b.end - b.start).days
            days = ev_rng.integers(0, n_days, size=n)
            order = np.argsort(days, kind="stable")
            items = items[order]
            days = days[order]
            loaners = ev_rng.integers(0, spec.n_loaners, size=n)[order]
            media = _weighted_codes(ev_rng, spec.medium_weights, n)[order]

            day_str = [(b.start + timedelta(days=d)).isoformat() for d in range(n_days)]
            writer.writerows(
                (day_str[day], *item_fields(idx), medium_values[med], *pool[who])
                for idx, day, who, med in zip(
                    items.tolist(), days.tolist(), loaners.tolist(), media.tolist()
                )
            )

    truth_file = None
    if truth_path is not None:
        truth_file = Path(truth_path)
        with open(truth_file, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["bin_start", "canonical_id", "true_probability"])
            for i, b in enumerate(truth.bins):
                occ = truth.occupants[i].tolist()
                probs = truth.weights[i].tolist()
                writer.writerows(
                    (b.label, item_id(idx), repr(p)) for idx, p in zip(occ, probs)
                )

    return GenerateResult(events_path, truth_file, truth, dists)
