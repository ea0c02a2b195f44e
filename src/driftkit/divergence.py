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
kernel (the JSD entropy form, the normalized alpha-JSD with its alpha = 1 and
alpha = 0 limits, and the support overlap behind Jaccard and Dice), split in
three private steps: a side term of one distribution alone (H(P), the Tsallis
sum or the support size), a pair term over the union support (the same side
term of the midpoint, or the shared support size), and their combination.
Callers differ only in how they align the vectors and how the terms sum. The
dict API (``divergence_of`` and the per-measure functions) aligns two
mappings and sums with math.fsum: exact summation makes results independent
of key order, so symmetry holds bit-exactly and pinned outputs stay
byte-identical. ``BinRows`` interns a whole view's count tables once over
one item index, normalizes each once and caches its side term, so each pair
pays only for its pair term; it runs the same steps with math.fsum, so its
values equal the dict API's bit for bit. Bootstrap resamples go through
``divergence_of_arrays``, which sums with np.sum (its docstring says why).
Inputs are plain mappings of item id to probability, as
``popularity.normalize`` returns them.

``jsd_with_contributions`` ranks the items once, where it computes their
partials, by the one ranking rule: descending partial, then descending
combined share p + q, then id. The rank bands that turn the ranking into
contribution groups live in ``analysis``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Mapping

import numpy as np

JSD_BITS = "jsd_bits"
JACCARD = "jaccard"
EMPTY_SUPPORT = "divergence needs two distributions with non-empty support"


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
    """One divergence value with its measure tag."""

    value: float
    measure: str = JSD_BITS


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
        raise ValueError(EMPTY_SUPPORT)
    return ids, p, q


def _fsum(values: np.ndarray) -> float:
    return math.fsum(values.tolist())


def _entropy_bits(p: np.ndarray, total) -> float:
    nz = p[p > 0.0]
    if nz.size == 0:
        return 0.0
    return -total(nz * np.log2(nz)) + 0.0


def shannon_entropy(dist: Mapping[str, float]) -> float:
    """H(P) = -sum p_i log2 p_i, in bits."""
    p = np.fromiter(dist.values(), dtype=np.float64, count=len(dist))
    return _entropy_bits(p, _fsum)


def jsd(P, Q) -> DriftValue:
    """Jensen-Shannon divergence in bits, via the entropy form over the union support."""
    return divergence_of(Measure("jsd"), P, Q)


def _partial_terms(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    s = p + q
    safe = np.where(s > 0.0, s, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        tp = np.where(p > 0.0, p * np.log2(np.where(p > 0.0, 2.0 * p / safe, 1.0)), 0.0)
        tq = np.where(q > 0.0, q * np.log2(np.where(q > 0.0, 2.0 * q / safe, 1.0)), 0.0)
    # each partial is nonnegative by the log-sum inequality; clip rounding dust
    return np.maximum(0.5 * (tp + tq), 0.0)


def jsd_with_contributions(P, Q) -> tuple[DriftValue, ContributionBreakdown]:
    """JSD plus each item's additive share of it.

    The returned DriftValue is the entropy-form JSD; the breakdown's
    ``total_bits`` is the exact partial sum. The two agree to ~1e-15.
    Items carrying no mass in either input contribute nothing and are
    excluded. The ranking follows the one ranking rule; ids compare as
    Python strings, because numpy's string sort treats trailing NULs
    differently.
    """
    ids, p, q = _aligned(P, Q)
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
    value = _measure_value(Measure("jsd"), p, q, _fsum)
    return DriftValue(value, JSD_BITS), breakdown


def _tsallis_from_array(p: np.ndarray, alpha: float, total) -> float:
    nz = p[p > 0.0]
    return (total(nz**alpha) - 1.0) / (1.0 - alpha) + 0.0


def tsallis_entropy(dist: Mapping[str, float], alpha: float) -> float:
    """Order-alpha entropy (sum p_i^alpha - 1) / (1 - alpha), logarithm-free units.

    alpha = 1 is the Shannon limit and must go through shannon_entropy instead.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if alpha == 1:
        raise ValueError("order 1 is the Shannon limit; use shannon_entropy")
    p = np.fromiter(dist.values(), dtype=np.float64, count=len(dist))
    return _tsallis_from_array(p, alpha, _fsum)


def jsd_alpha_normalized(P, Q, alpha: float) -> DriftValue:
    """Generalized JSD of order alpha divided by its analytic maximum, in [0, 1].

    alpha > 1 emphasizes changes among popular items, alpha < 1 among rare
    ones. Order 1 is handled by its limit (the maximum tends to ln 2, so the
    value equals the standard JSD in bits) and order 0 by its closed form,
    one minus the Dice overlap of the supports. An alpha outside [0, 2]
    warns, because the square root of the result is not a metric there.
    """
    return divergence_of(Measure("jsd_alpha", alpha), P, Q)


def jaccard_distance(P, Q) -> DriftValue:
    """One minus the Jaccard overlap of the two supports; blind to popularity."""
    return divergence_of(Measure("jaccard"), P, Q)


def _form(measure: Measure) -> str:
    """Which kernel ``measure`` runs: the Shannon or the Tsallis entropy form, or supports."""
    if measure.kind == "jaccard" or (measure.kind == "jsd_alpha" and measure.alpha == 0.0):
        return "support"
    if measure.kind == "jsd" or measure.alpha == 1.0:
        return "shannon"
    return "tsallis"


def _side_term(measure: Measure, p: np.ndarray, total):
    """The term of one distribution alone: H(P), the Tsallis sum or the support size.

    Over the midpoint M = (P + Q) / 2 it is also the pair term of the two
    entropy forms.
    """
    form = _form(measure)
    if form == "support":
        return int(np.count_nonzero(p > 0.0))
    if form == "shannon":
        return _entropy_bits(p, total)
    return _tsallis_from_array(p, measure.alpha, total)


def _pair_term(measure: Measure, p: np.ndarray, q: np.ndarray, total):
    """The union term of two aligned vectors: the midpoint's side term, or the shared support."""
    if _form(measure) == "support":
        return int(np.count_nonzero((p > 0.0) & (q > 0.0)))
    return _side_term(measure, 0.5 * (p + q), total)


def _combine(measure: Measure, side_p, side_q, pair) -> float:
    """The measure from two side terms and the pair term."""
    form = _form(measure)
    if form == "support":
        # one minus the Jaccard (|P&Q| / |P|Q|) or Dice (2|P&Q| / (|P|+|Q|)) overlap
        sizes = side_p + side_q
        if measure.kind == "jaccard":
            return 1.0 - pair / (sizes - pair)
        return 1.0 - 2.0 * pair / sizes
    value = pair - 0.5 * (side_p + side_q)
    if value <= 0.0:
        return 0.0
    if form == "shannon":
        # rounding dust can stray a few ulp past the [0, 1] bits bound; clip it
        return value if value < 1.0 else min(value, 1.0)
    alpha = measure.alpha
    maximum = 0.5 * (2.0 ** (1.0 - alpha) - 1.0) * (side_p + side_q + 2.0 / (1.0 - alpha))
    return min(max(value / maximum, 0.0), 1.0)


def _measure_value(measure: Measure, p: np.ndarray, q: np.ndarray, total) -> float:
    """The one kernel per measure, over aligned probability vectors."""
    return _combine(
        measure,
        _side_term(measure, p, total),
        _side_term(measure, q, total),
        _pair_term(measure, p, q, total),
    )


def divergence_of(measure: Measure, P, Q) -> DriftValue:
    """``measure`` between two sparse distributions, over their union support."""
    _, p, q = _aligned(P, Q)
    return DriftValue(_measure_value(measure, p, q, _fsum), measure.label)


def divergence_of_arrays(
    measure: Measure, p: np.ndarray, q: np.ndarray, exact: bool = False
) -> float:
    """``measure`` between two aligned probability vectors.

    Bootstrap resamples sum with np.sum (``exact=False``), not math.fsum: a
    pair's resamples all come in one fixed aligned order, so exact summation
    buys no order independence there, and it would make each resample about
    2.5x slower. Such a result agrees with ``divergence_of`` on the same
    vectors to a few ulp, and exactly for Jaccard and alpha = 0. With
    ``exact=True`` the sum is math.fsum and the result equals
    ``divergence_of`` bit for bit.
    """
    return _measure_value(measure, p, q, _fsum if exact else np.sum)


class BinRows:
    """One view's count tables as sparse rows over one shared item index.

    The item index (id to int) is interned once over all tables. Each table
    becomes an int index array into it plus its probabilities count / total
    (zero counts dropped), and its side term under ``measure`` is cached, so
    a pair computes only its pair term, over the union gathered through one
    reused scratch vector of length n_items. Memory is O(sum of supports +
    distinct items). Values equal ``divergence_of`` on the normalized tables
    bit for bit: the divisions and elementwise terms are the same, and both
    sum them with math.fsum. Pairs share the scratch vector, so one object
    must not be used from two threads at once.
    """

    def __init__(self, measure: Measure, tables: Mapping):
        """``tables`` maps a caller's key to an object with ``counts`` and ``total``.

        Totals must be positive; callers check that where they can name the bin.
        """
        self.measure = measure
        counts = [t.counts for t in tables.values()]
        items = dict.fromkeys(chain.from_iterable(counts))
        index = dict(zip(items, range(len(items))))
        self._rows = {}
        for (key, table), c in zip(tables.items(), counts):
            n = len(c)
            ids = np.fromiter(map(index.__getitem__, c), dtype=np.intp, count=n)
            p = np.fromiter(c.values(), dtype=np.float64, count=n) / table.total
            keep = p > 0.0
            ids, p = ids[keep], p[keep]
            self._rows[key] = (ids, p, _side_term(measure, p, _fsum))
        self._scratch = np.zeros(len(index), dtype=np.float64)

    def value(self, left, right) -> float:
        """``measure`` between the rows stored under keys ``left`` and ``right``."""
        ia, p, side_p = self._rows[left]
        ib, q, side_q = self._rows[right]
        if not (p.size and q.size):
            raise ValueError(EMPTY_SUPPORT)
        # align q to p's support, then append q's own items after p's
        scratch = self._scratch
        scratch[ib] = q
        q_on_p = scratch[ia]
        scratch[ia] = 0.0
        q_rest = scratch[ib]  # zero where the item is shared
        scratch[ib] = 0.0
        pair = _pair_term(
            self.measure,
            np.concatenate((p, np.zeros(q.size))),
            np.concatenate((q_on_p, q_rest)),
            _fsum,
        )
        return _combine(self.measure, side_p, side_q, pair)
