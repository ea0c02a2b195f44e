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

Every input is two rows of one count panel (``popularity.CountPanel``),
and one private step, ``_aligned``, lays any two rows side by side: row a's
items, then row b's, with b's shares gathered onto a's items through a
scratch vector of length n_items. ``divergence_of``, the per-measure
functions and ``jsd_with_contributions`` take their inputs through
``_shares``: two rows of one panel (``CountPanel.shares``) go through
``_aligned``, two plain mappings of item id to probability
(``popularity.normalize``) are laid out directly (P's ids, then Q's other
ids), and either pair is cut to its joint support, the items with a
positive share on some side. ``BinRows`` reads a whole view's bins as rows
of one panel (``popularity.panel_of``), divides each row once, caches its
nonzero shares and side term, and aligns each pair with ``_aligned`` too,
so each pair pays only for its pair term. All of them sum with math.fsum:
exact summation makes results independent of key order, so symmetry holds
bit-exactly, ``BinRows`` equals ``divergence_of`` bit for bit and pinned
outputs stay byte-identical. Bootstrap resamples go through
``divergence_of_arrays``, which sums with np.sum (its docstring says why).

``jsd_with_contributions`` ranks the items once, where it computes their
partials, by the one ranking rule: descending partial, then descending
combined share p + q, then id (the panel's id rank). The rank bands that
turn the ranking into contribution groups live in ``analysis``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .popularity import CountPanel, PopularityDistribution, RowShares, panel_of

JSD_BITS = "jsd_bits"
JACCARD = "jaccard"
EMPTY_SUPPORT = "divergence needs two distributions with non-empty support"


@dataclass(frozen=True)
class Measure:
    """Which divergence to compute: 'jsd' (bits), 'jsd_alpha' (needs alpha), or 'jaccard'.

    A jsd_alpha alpha must be finite and >= 0; one above 2 warns.
    """

    kind: str = "jsd"
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in ("jsd", "jsd_alpha", "jaccard"):
            raise ValueError(f"unknown measure kind {self.kind!r}")
        if self.kind != "jsd_alpha":
            return
        if self.alpha is None:
            raise ValueError("jsd_alpha requires alpha")
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError(f"alpha must be a finite number >= 0, got {self.alpha:g}")
        if self.alpha > 2.0:
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
        return f"jsd_alpha_norm({self.alpha:g})"


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


def _fsum(values: np.ndarray) -> float:
    return math.fsum(values.tolist())


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


def _aligned(ia, p: np.ndarray, ib, q: np.ndarray, scratch: np.ndarray):
    """The shares of two rows of one panel side by side, over positions ``ia`` then ``ib``.

    ``ia`` and ``ib`` are the rows' positions into the panel's ids and ``p``
    and ``q`` their shares. q is gathered onto a's items through
    ``scratch``, a zero vector of length n_items that is zero again on
    return. An item in both rows holds 0.0 on both sides in its second
    slot, where every kernel skips it.
    """
    scratch[ib] = q
    q_on_a = scratch[ia]
    scratch[ia] = 0.0
    q_rest = scratch[ib]  # zero where the item is shared
    scratch[ib] = 0.0
    return np.concatenate((p, np.zeros(q.size))), np.concatenate((q_on_a, q_rest))


def _shares(P, Q):
    """The panel, positions and aligned shares of two distributions over their joint support.

    Two rows of one panel (``CountPanel.shares``) go through ``_aligned``.
    Any other two mappings are laid out directly, P's ids, then Q's other
    ids, on a panel that holds only those ids. Either way the items with no
    positive share on either side are dropped.
    """
    if type(P) is RowShares and type(Q) is RowShares and P.panel is Q.panel:
        panel, a, b = P.panel, P.row, Q.row
        ia, ib = panel.index[a], panel.index[b]
        positions = np.concatenate((ia, ib))
        p, q = _aligned(
            ia, panel.counts[a] / panel.totals[a], ib, panel.counts[b] / panel.totals[b],
            np.zeros(panel.n_items),
        )
    else:
        ids = list(P)
        n_p = len(ids)
        ids.extend(k for k in Q if k not in P)
        n = len(ids)
        panel, positions = CountPanel(ids, (), (), (), ()), np.arange(n)
        p = np.zeros(n)
        p[:n_p] = np.fromiter(P.values(), dtype=np.float64, count=n_p)
        q = np.fromiter(map(Q.get, ids, repeat(0.0)), dtype=np.float64, count=n)
    keep = (p > 0.0) | (q > 0.0)
    p, q = p[keep], q[keep]
    if not (p.any() and q.any()):
        raise ValueError(EMPTY_SUPPORT)
    return panel, positions[keep], p, q


def _ranking(parts: np.ndarray, mass: np.ndarray, panel: CountPanel, union) -> np.ndarray:
    """Positions by the one ranking rule: descending partial, then descending mass, then id.

    Every call pays for the ranking, so a fast unstable sort by partial
    places the items whose partial is unique, and one lexsort puts only the
    runs of equal partials in the rule's order. A lexsort of all items, each
    with an id rank, took about 4x as long on random 10k-item pairs (2-core
    x86 host) and pushed acceptance criterion 1 past its time limit. The
    tied items' id ranks are read from ``panel.id_rank`` through ``union``
    (the items' positions in ``panel.ids``), so the panel sorts its ids
    only when some partials tie.
    """
    order = np.argsort(-parts)
    ranked = parts[order]
    equal = ranked[1:] == ranked[:-1]
    tied = np.zeros(len(parts), dtype=bool)
    tied[1:] = equal
    tied[:-1] |= equal
    if tied.any():
        sub = order[tied]
        order[tied] = sub[np.lexsort((panel.id_rank[union[sub]], -mass[sub], -parts[sub]))]
    return order


def jsd_with_contributions(P, Q) -> tuple[DriftValue, ContributionBreakdown]:
    """JSD plus each item's additive share of it.

    The returned DriftValue is the entropy-form JSD; the breakdown's
    ``total_bits`` is the exact partial sum. The two agree to ~1e-15.
    The ranking follows the one ranking rule; ids compare as Python
    strings (the panel's id rank), because numpy's string sort treats
    trailing NULs differently.
    """
    panel, union, p, q = _shares(P, Q)
    parts = _partial_terms(p, q)
    order = _ranking(parts, p + q, panel, union)
    names = panel.ids[union]
    values = parts.tolist()
    breakdown = ContributionBreakdown(
        dict(zip(names.tolist(), values)), math.fsum(values), names[order].tolist()
    )
    value = _measure_value(Measure("jsd"), p, q, _fsum)
    return DriftValue(value, JSD_BITS), breakdown


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
    """The term of one distribution alone: the support size, H(P) in bits or the Tsallis entropy.

    The Tsallis entropy of order alpha is (sum p_i^alpha - 1) / (1 - alpha).
    Over the midpoint M = (P + Q) / 2 the term is also the pair term of the
    two entropy forms. Zero shares take no part.
    """
    form = _form(measure)
    if form == "support":
        return int(np.count_nonzero(p > 0.0))
    nz = p[p > 0.0]
    if form == "shannon":
        return -total(nz * np.log2(nz)) + 0.0
    return (total(nz**measure.alpha) - 1.0) / (1.0 - measure.alpha) + 0.0


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
    _, _, p, q = _shares(P, Q)
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
    """One view's distributions as sparse rows of one count panel.

    The panel comes from ``popularity.panel_of``: the distributions' own
    shared panel when they are its rows, or else one interned once for the
    view. Every row's probabilities count / total come from one division
    over the panel's cells; a row's nonzero ones and its side term under
    ``measure`` are cached on the row's first use, so a pair computes only
    its pair term, over the rows ``_aligned`` through one reused scratch
    vector. Values equal ``divergence_of`` on the normalized tables
    bit for bit: the divisions and elementwise terms are the same, and both
    sum them with math.fsum. Pairs share the scratch vector, so one object
    must not be used from two threads at once.
    """

    def __init__(self, measure: Measure, dists: list[PopularityDistribution]):
        """Row r is ``dists[r]``; the totals of the rows used must be positive.

        Callers check the totals where they can name the bin.
        """
        self.measure = measure
        self._panel = panel = panel_of(dists)
        # one division over every cell: dividing row by row gives the same bits, but
        # in a fresh process it made the matrix 30% slower (33k vs 1k page faults)
        per_cell = np.repeat(np.asarray(panel.totals), np.diff(panel.offsets))
        self._shares = panel.all_counts / per_cell
        self._rows = [None] * len(dists)
        self._scratch = np.zeros(panel.n_items, dtype=np.float64)

    def _row(self, r: int):
        row = self._rows[r]
        if row is None:
            panel = self._panel
            p = self._shares[panel.offsets[r] : panel.offsets[r + 1]]
            keep = p > 0.0
            p = p[keep]
            row = self._rows[r] = (panel.index[r][keep], p, _side_term(self.measure, p, _fsum))
        return row

    def value(self, left: int, right: int) -> float:
        """``measure`` between rows ``left`` and ``right``."""
        ia, p, side_p = self._row(left)
        ib, q, side_q = self._row(right)
        if not (p.size and q.size):
            raise ValueError(EMPTY_SUPPORT)
        p, q = _aligned(ia, p, ib, q, self._scratch)
        return _combine(self.measure, side_p, side_q, _pair_term(self.measure, p, q, _fsum))
