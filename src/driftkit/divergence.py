"""Divergence measures over sparse relative-popularity distributions.

Standard Jensen-Shannon divergence is reported in bits (base-2 logs), which
bounds it between 0 (identical distributions) and 1 (disjoint supports). The
per-item decomposition uses

    partial_i = 1/2 * (p_i log2(2 p_i / (p_i + q_i)) + q_i log2(2 q_i / (p_i + q_i)))

with 0 * log(.) == 0; the sum of partials equals the entropy form
H(M) - (H(P) + H(Q)) / 2 with M = (P + Q) / 2. The 1/2 factor is required for
that agreement and for the 1-bit bound: without it the disjoint case would
score 2 rather than 1.

This module is the only place a measure is computed. Each measure has one
private kernel over aligned probability vectors (the JSD entropy form, the
normalized alpha-JSD with its alpha = 1 and alpha = 0 limits, and the support
overlap behind Jaccard and Dice), reached through one dispatch on
``Measure.kind``. Callers differ only in how the kernels sum. The dict API
(``divergence_of`` and the per-measure functions) sums with math.fsum: exact
summation makes results independent of key order, so symmetry holds
bit-exactly and pinned outputs stay byte-identical. Bootstrap resamples go
through ``divergence_of_arrays``, which sums with np.sum (its docstring says
why). Inputs can be RelativeDistribution objects or plain mappings of item id
to probability.

``jsd_with_contributions`` ranks the items once, where it computes their
partials, by the one ranking rule: descending partial, then descending
combined share p + q, then id. The rank bands that turn the ranking into
contribution groups live in ``analysis``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import repeat
from typing import Mapping

import numpy as np

JSD_BITS = "jsd_bits"
JACCARD = "jaccard"


def alpha_label(alpha: float) -> str:
    return f"jsd_alpha_norm({alpha:g})"


@dataclass(frozen=True)
class Measure:
    """Which divergence to compute: 'jsd' (bits), 'jsd_alpha' (needs alpha), or 'jaccard'."""

    kind: str = "jsd"
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in ("jsd", "jsd_alpha", "jaccard"):
            raise ValueError(f"unknown measure kind {self.kind!r}")
        if self.kind == "jsd_alpha" and self.alpha is None:
            raise ValueError("jsd_alpha requires alpha")
        if self.kind == "jsd_alpha" and not 0.0 <= self.alpha <= 2.0:
            warnings.warn(
                f"alpha={self.alpha:g} outside [0, 2]; the square root of the result is "
                "not a metric there",
                stacklevel=3,
            )

    @property
    def label(self) -> str:
        if self.kind == "jsd":
            return JSD_BITS
        if self.kind == "jaccard":
            return JACCARD
        return alpha_label(self.alpha)


@dataclass(frozen=True)
class DriftValue:
    """One divergence value with its measure tag and the input loan totals."""

    value: float
    measure: str = JSD_BITS
    n_left: int | None = None
    n_right: int | None = None


@dataclass(frozen=True)
class ContributionBreakdown:
    """Per-item partial JSD in bits, plus the ranking they induce.

    ``total_bits`` is the exact sum of the partials. ``ranking`` lists the
    item ids in the order of the one ranking rule (module docstring);
    ``jsd_with_contributions`` builds it once, and every contribution-group
    analysis reads it.
    """

    partials: dict[str, float]
    total_bits: float
    ranking: list[str]


def _probs(dist) -> Mapping[str, float]:
    return getattr(dist, "probs", dist)


def _aligned(p_map: Mapping[str, float], q_map: Mapping[str, float]):
    """Union-support alignment of two sparse mappings into paired arrays."""
    ids = list(p_map)
    extra = [k for k in q_map if k not in p_map]
    n_p, n = len(ids), len(ids) + len(extra)
    ids.extend(extra)
    p = np.zeros(n, dtype=np.float64)
    p[:n_p] = np.fromiter(p_map.values(), dtype=np.float64, count=n_p)
    q = np.fromiter(map(q_map.get, ids, repeat(0.0)), dtype=np.float64, count=n)
    if not (p.any() and q.any()):
        raise ValueError("divergence needs two distributions with non-empty support")
    return ids, p, q


def _fsum(values: np.ndarray) -> float:
    return math.fsum(values.tolist())


def _entropy_bits(p: np.ndarray, total) -> float:
    nz = p[p > 0.0]
    if nz.size == 0:
        return 0.0
    return -total(nz * np.log2(nz)) + 0.0


def shannon_entropy(dist) -> float:
    """H(P) = -sum p_i log2 p_i, in bits."""
    p_map = _probs(dist)
    p = np.fromiter(p_map.values(), dtype=np.float64, count=len(p_map))
    return _entropy_bits(p, _fsum)


def _jsd_bits_from_arrays(p: np.ndarray, q: np.ndarray, total) -> float:
    m = 0.5 * (p + q)
    value = _entropy_bits(m, total) - 0.5 * (_entropy_bits(p, total) + _entropy_bits(q, total))
    # rounding dust can stray a few ulp past the [0, 1] bits bound; clip it
    if value <= 0.0:
        return 0.0
    return value if value < 1.0 else min(value, 1.0)


def jsd(P, Q, n_left: int | None = None, n_right: int | None = None) -> DriftValue:
    """Jensen-Shannon divergence in bits, via the entropy form over the union support."""
    return divergence_of(Measure("jsd"), P, Q, n_left, n_right)


def _partial_terms(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    s = p + q
    safe = np.where(s > 0.0, s, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        tp = np.where(p > 0.0, p * np.log2(np.where(p > 0.0, 2.0 * p / safe, 1.0)), 0.0)
        tq = np.where(q > 0.0, q * np.log2(np.where(q > 0.0, 2.0 * q / safe, 1.0)), 0.0)
    # each partial is nonnegative by the log-sum inequality; clip rounding dust
    return np.maximum(0.5 * (tp + tq), 0.0)


def jsd_with_contributions(
    P, Q, n_left: int | None = None, n_right: int | None = None
) -> tuple[DriftValue, ContributionBreakdown]:
    """JSD plus each item's additive share of it.

    The returned DriftValue is the entropy-form JSD; the breakdown's
    ``total_bits`` is the exact partial sum. The two agree to ~1e-15.
    Items carrying no mass in either input contribute nothing and are
    excluded. The ranking follows the one ranking rule; ids compare as
    Python strings, because numpy's string sort treats trailing NULs
    differently.
    """
    ids, p, q = _aligned(_probs(P), _probs(Q))
    parts = _partial_terms(p, q)
    # Every call pays for the ranking, so a fast unstable sort by partial
    # places the items whose partial is unique, and one lexsort puts only the
    # runs of equal partials in the rule's order. A lexsort of all items, each
    # with an id rank, took about 4x as long on random 10k-item pairs (2-core
    # x86 host) and pushed acceptance criterion 1 past its time limit.
    names = np.array(ids, dtype=object)
    order = np.argsort(-parts)
    ranked = parts[order]
    equal = ranked[1:] == ranked[:-1]
    tied = np.zeros(len(ids), dtype=bool)
    tied[1:] = equal
    tied[:-1] |= equal
    if tied.any():
        sub = order[tied]
        sub_ids = names[sub].tolist()
        id_rank = np.empty(len(sub_ids), dtype=np.intp)
        id_rank[sorted(range(len(sub_ids)), key=sub_ids.__getitem__)] = np.arange(len(sub_ids))
        order[tied] = sub[np.lexsort((id_rank, -(p + q)[sub], -parts[sub]))]
    values = parts.tolist()
    breakdown = ContributionBreakdown(
        dict(zip(ids, values)), math.fsum(values), names[order].tolist()
    )
    value = _jsd_bits_from_arrays(p, q, _fsum)
    return DriftValue(value, JSD_BITS, n_left, n_right), breakdown


def _tsallis_from_array(p: np.ndarray, alpha: float, total) -> float:
    nz = p[p > 0.0]
    return (total(nz**alpha) - 1.0) / (1.0 - alpha) + 0.0


def tsallis_entropy(dist, alpha: float) -> float:
    """Order-alpha entropy (sum p_i^alpha - 1) / (1 - alpha), logarithm-free units.

    alpha = 1 is the Shannon limit and must go through shannon_entropy instead.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if alpha == 1:
        raise ValueError("order 1 is the Shannon limit; use shannon_entropy")
    p_map = _probs(dist)
    p = np.fromiter(p_map.values(), dtype=np.float64, count=len(p_map))
    return _tsallis_from_array(p, alpha, _fsum)


def _support_distance(p: np.ndarray, q: np.ndarray, dice: bool) -> float:
    """One minus the supports' Dice (2|P&Q| / (|P|+|Q|)) or Jaccard (|P&Q| / |P|Q|) overlap."""
    sp, sq = p > 0.0, q > 0.0
    inter = np.count_nonzero(sp & sq)
    sizes = np.count_nonzero(sp) + np.count_nonzero(sq)
    if dice:
        return 1.0 - 2.0 * inter / sizes
    return 1.0 - inter / (sizes - inter)


def _jsd_alpha_from_arrays(p: np.ndarray, q: np.ndarray, alpha: float, total) -> float:
    if alpha == 1.0:
        return _jsd_bits_from_arrays(p, q, total)
    if alpha == 0.0:
        return _support_distance(p, q, dice=True)
    m = 0.5 * (p + q)
    ha_p = _tsallis_from_array(p, alpha, total)
    ha_q = _tsallis_from_array(q, alpha, total)
    numerator = _tsallis_from_array(m, alpha, total) - 0.5 * (ha_p + ha_q)
    if numerator <= 0.0:
        return 0.0
    maximum = 0.5 * (2.0 ** (1.0 - alpha) - 1.0) * (ha_p + ha_q + 2.0 / (1.0 - alpha))
    return min(max(numerator / maximum, 0.0), 1.0)


def jsd_alpha_normalized(
    P, Q, alpha: float, n_left: int | None = None, n_right: int | None = None
) -> DriftValue:
    """Generalized JSD of order alpha divided by its analytic maximum, in [0, 1].

    alpha > 1 emphasizes changes among popular items, alpha < 1 among rare
    ones. Order 1 is handled by its limit (the maximum tends to ln 2, so the
    value equals the standard JSD in bits) and order 0 by its closed form,
    one minus the Dice overlap of the supports. An alpha outside [0, 2]
    warns, because the square root of the result is not a metric there.
    """
    return divergence_of(Measure("jsd_alpha", alpha), P, Q, n_left, n_right)


def jaccard_distance(
    P, Q, n_left: int | None = None, n_right: int | None = None
) -> DriftValue:
    """One minus the Jaccard overlap of the two supports; blind to popularity."""
    return divergence_of(Measure("jaccard"), P, Q, n_left, n_right)


def _measure_value(measure: Measure, p: np.ndarray, q: np.ndarray, total) -> float:
    """The one dispatch on Measure.kind, over aligned probability vectors."""
    if measure.kind == "jsd":
        return _jsd_bits_from_arrays(p, q, total)
    if measure.kind == "jaccard":
        return _support_distance(p, q, dice=False)
    return _jsd_alpha_from_arrays(p, q, measure.alpha, total)


def divergence_of(measure: Measure, P, Q, n_left=None, n_right=None) -> DriftValue:
    """``measure`` between two sparse distributions, over their union support."""
    _, p, q = _aligned(_probs(P), _probs(Q))
    return DriftValue(_measure_value(measure, p, q, _fsum), measure.label, n_left, n_right)


def divergence_of_arrays(measure: Measure, p: np.ndarray, q: np.ndarray) -> float:
    """``measure`` between two aligned probability vectors (bootstrap resamples).

    Sums with np.sum, not math.fsum: a pair's resamples all come in one fixed
    aligned order, so exact summation buys no order independence there, and
    it would make each resample about 2.5x slower. The result agrees with
    ``divergence_of`` on the same vectors to a few ulp, and exactly for
    Jaccard and alpha = 0.
    """
    return _measure_value(measure, p, q, np.sum)
