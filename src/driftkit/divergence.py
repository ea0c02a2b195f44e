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

``BinRows`` is the one reader of a pair. It reads distributions as rows of
one count panel (``popularity.CountPanel``) and is the only caller of
``_aligned``, which lays two rows side by side: row a's items, then row
b's, with b's shares gathered onto a's items through a scratch vector of
length n_items. It has three steps. ``value`` divides every cell once and
caches each row's nonzero shares and side term, so a pair pays only for its
pair term; the series and the matrix read it. ``pair`` divides just its two
rows and gives their panel positions and aligned shares over the joint
support, the items with a positive share on some side; the bootstrap draws
its resamples over them. ``breakdown`` gives the pair's partials, ranked,
with their exact sum; the decomposition views read it. The mapping API
(``divergence_of``, the per-measure functions and
``jsd_with_contributions``) takes two plain mappings of item id to
probability (``popularity.normalize``) as the two rows of a panel interned
with totals 1.0, and reads them the same way. Every value sums
with ``exact_sum``, a numpy kernel that gives math.fsum's bits: the
correctly rounded exact sum does not depend on the order of the terms, so
symmetry holds bit-exactly, the matrix equals the series and a view equals
``divergence_of`` bit for bit, and pinned outputs stay byte-identical.
Bootstrap resamples go through ``divergence_of_arrays``, which sums with
np.sum (its docstring says why).

``breakdown`` ranks the items once, where it computes their partials, by
the panel's one ranking rule (``CountPanel.rank``): descending partial,
then descending combined share p + q, then id. Its ``ContributionBreakdown``
keeps the pair on panel positions (the union's positions into the panel's
ids, the partials and the ranking order, as arrays) and builds the id-keyed
``partials`` and ``ranking`` only when they are read. The rank bands that
turn the ranking into contribution groups live in ``analysis``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .popularity import CountPanel

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
        alpha = float(self.alpha) + 0.0  # -0.0 + 0.0 is 0.0; :g unless it loses digits
        return f"jsd_alpha_norm({f'{alpha:g}' if float(f'{alpha:g}') == alpha else repr(alpha)})"


@dataclass(frozen=True)
class DriftValue:
    """One divergence value with its measure tag."""

    value: float
    measure: str = JSD_BITS


@dataclass(frozen=True, eq=False)
class ContributionBreakdown:
    """Per-item partial JSD in bits over one pair, plus the ranking they induce.

    The pair's items are ``ids[union]``, ``ids`` being the ids of the panel
    it was read from. ``parts`` are their partials, ``order`` ranks them by
    the one ranking rule (module docstring) and ``total_bits`` is the exact
    sum of the partials. The id-keyed ``partials`` (in union order) and
    ``ranking`` are built on first access; equality compares those and the
    total.
    """

    ids: np.ndarray
    union: np.ndarray
    parts: np.ndarray
    order: np.ndarray
    total_bits: float

    @cached_property
    def partials(self) -> dict[str, float]:
        return dict(zip(self.ids[self.union].tolist(), self.parts.tolist()))

    @cached_property
    def ranking(self) -> list[str]:
        return self.ids[self.union[self.order]].tolist()

    def __eq__(self, other):
        if type(other) is not ContributionBreakdown:
            return NotImplemented
        return (self.total_bits, self.ranking, self.partials) == (
            other.total_bits, other.ranking, other.partials
        )


def exact_sum(values: np.ndarray) -> float:
    """``math.fsum`` of a float64 array, bit for bit, with no Python float per value.

    Every |value| is below 2**top. The values are cut from the top into
    chunks of ``bits`` bits, so each chunk is an integer below 2**bits and
    a column of n of them sums exactly in float64 (n * 2**bits < 2**52);
    a Python int collects the columns until no remainder is left, and one
    correctly rounded division gives fsum's float. np.trunc keeps every
    remainder representable (np.floor would leave 2**scale - |r| for a
    tiny negative r). Non-finite input, and input whose partial sums could
    overflow, go to math.fsum itself.
    """
    n = values.size
    big = float(np.abs(values).max(initial=0.0))
    if not big:
        return 0.0
    top = math.frexp(big)[1]
    if not math.isfinite(big) or top + n.bit_length() > 1020:
        return math.fsum(values.tolist())
    bits = 52 - n.bit_length()
    total, scale, rest = 0, top, values
    while rest.any():
        scale -= bits
        chunk = np.trunc(np.ldexp(rest, -scale))
        rest = rest - np.ldexp(chunk, scale)
        total = (total << bits) + int(chunk.sum())
    return total / (1 << -scale) if scale < 0 else float(total << scale)


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


def jsd_with_contributions(P, Q) -> tuple[DriftValue, ContributionBreakdown]:
    """JSD plus each item's additive share of it.

    The returned DriftValue is the entropy-form JSD; the breakdown's
    ``total_bits`` is the exact partial sum. The two agree to ~1e-15.
    The ranking is ``CountPanel.rank`` by partial, then p + q.
    """
    rows = _mapping_rows(Measure("jsd"), P, Q)
    return DriftValue(rows.value(0, 1), JSD_BITS), rows.breakdown(0, 1)


def jsd_alpha_normalized(P, Q, alpha: float) -> DriftValue:
    """Generalized JSD of order alpha divided by its analytic maximum, in [0, 1].

    alpha > 1 emphasizes changes among popular items, alpha < 1 among rare
    ones. Order 1 is handled by its limit (the maximum tends to ln 2, so the
    value equals the standard JSD in bits) and order 0 by its closed form,
    one minus the Dice overlap of the supports. An alpha outside [0, 2]
    warns, because the square root of the result is not a metric there, and
    one that drives sum p^alpha + sum q^alpha below 2e-8 raises ValueError.
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
    # (1 - alpha)(side_p + side_q) + 2 is sum p^alpha + sum q^alpha; below 2e-8 it is noise
    if form == "tsallis" and (1.0 - measure.alpha) * (side_p + side_q) + 2.0 < 2e-8:
        raise ValueError(f"alpha={measure.alpha!r}: the power sums have no precision left")
    if value <= 0.0:
        return 0.0
    if form == "shannon":
        # rounding dust can stray a few ulp past the [0, 1] bits bound; clip it
        return value if value < 1.0 else min(value, 1.0)
    alpha = measure.alpha
    maximum = 0.5 * (2.0 ** (1.0 - alpha) - 1.0) * (side_p + side_q + 2.0 / (1.0 - alpha))
    return min(max(value / maximum, 0.0), 1.0)


def _mapping_rows(measure: Measure, P, Q) -> BinRows:
    """Two plain mappings of item id to probability as rows 0 and 1 of one reader."""
    return BinRows(measure, CountPanel.intern([P, Q], [1.0, 1.0]))


def divergence_of(measure: Measure, P, Q) -> DriftValue:
    """``measure`` between two sparse distributions, over their union support."""
    return DriftValue(_mapping_rows(measure, P, Q).value(0, 1), measure.label)


def divergence_of_arrays(measure: Measure, p: np.ndarray, q: np.ndarray) -> float:
    """``measure`` between two aligned probability vectors, summed with np.sum.

    Bootstrap resamples sum with np.sum, not ``exact_sum``: a pair's
    resamples all come in one fixed aligned order, so exact summation buys
    no order independence there, and it would make each resample of a
    2.8k-item pair about 1.2x slower (math.fsum: 1.4x; 2-core x86 host)
    and move the pinned bootstrap bits. Such a result agrees with
    ``BinRows.value`` on the same vectors to a few ulp, and exactly for
    Jaccard and alpha = 0.
    """
    return _combine(
        measure,
        _side_term(measure, p, np.sum),
        _side_term(measure, q, np.sum),
        _pair_term(measure, p, q, np.sum),
    )


class BinRows:
    """Distributions as sparse rows of one count panel: the one reader of a pair.

    A row's probabilities are its counts / its total. For ``value``, they
    come from one division over all the panel's cells, on the first value
    read, and a row's nonzero shares and its side term under ``measure`` are
    cached on the row's first use, so a pair computes only its pair term,
    over the rows ``_aligned`` through one reused scratch vector. ``pair``
    and ``breakdown`` divide just their two rows and align them whole, zeros
    included, so that an item a row lists with no loans keeps its place.
    Values equal ``divergence_of`` on the normalized tables bit for bit:
    the divisions and elementwise terms are the same, and both sum them with
    ``exact_sum``, whose correctly rounded result (math.fsum's bits) does
    not depend on the order of the terms, so the matrix agrees with the
    series exactly. Pairs share the scratch vector, so one object must not
    be used from two threads at once.
    """

    def __init__(self, measure: Measure, panel: CountPanel):
        """Row r is the panel's row r; the totals of the rows used must be positive.

        Callers check the totals where they can name the bin.
        """
        self.measure = measure
        self._panel = panel
        self._cell_shares = None
        self._rows = [None] * len(panel.index)
        self._scratch = np.zeros(panel.n_items, dtype=np.float64)

    def _full_row(self, r: int) -> np.ndarray:
        """Row r's shares, zeros included, in the row's item order."""
        return self._panel.counts[r] / self._panel.totals[r]

    def _row(self, r: int):
        row = self._rows[r]
        if row is None:
            panel = self._panel
            if self._cell_shares is None:
                # one division over every cell: dividing row by row gives the same bits,
                # but in a fresh process it made the matrix 30% slower (33k vs 1k page
                # faults); ``pair`` divides just its two rows, so a decomposition view
                # holds no copy of every cell
                per_cell = np.repeat(np.asarray(panel.totals), np.diff(panel.offsets))
                self._cell_shares = panel.all_counts / per_cell
            p = self._cell_shares[panel.offsets[r] : panel.offsets[r + 1]]
            keep = p > 0.0
            p = p[keep]
            side = _side_term(self.measure, p, exact_sum)
            row = self._rows[r] = (panel.index[r][keep], p, side)
        return row

    def value(self, left: int, right: int) -> float:
        """``measure`` between rows ``left`` and ``right``."""
        ia, p, side_p = self._row(left)
        ib, q, side_q = self._row(right)
        if not (p.size and q.size):
            raise ValueError(EMPTY_SUPPORT)
        p, q = _aligned(ia, p, ib, q, self._scratch)
        return _combine(self.measure, side_p, side_q, _pair_term(self.measure, p, q, exact_sum))

    def pair(self, left: int, right: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Positions and aligned shares of rows ``left`` and ``right`` over their joint support.

        The items are row left's, in its order (one it lists with no loans
        keeps its place when row right has loans), then row right's others;
        items with no loans in either row are dropped. The bootstrap's
        multinomial categories come in this order.
        """
        ia, ib = self._panel.index[left], self._panel.index[right]
        p, q = _aligned(ia, self._full_row(left), ib, self._full_row(right), self._scratch)
        keep = (p > 0.0) | (q > 0.0)
        p, q = p[keep], q[keep]
        if not (p.any() and q.any()):
            raise ValueError(EMPTY_SUPPORT)
        return np.concatenate((ia, ib))[keep], p, q

    def breakdown(self, left: int, right: int) -> ContributionBreakdown:
        """Each item's partial JSD over rows ``left`` and ``right``, ranked, and their exact sum.

        The ranking is ``CountPanel.rank`` by partial, then p + q. The
        entropy-form value is not computed here; ``value`` gives it.
        """
        union, p, q = self.pair(left, right)
        parts = _partial_terms(p, q)
        order = self._panel.rank(union, parts, p + q)
        return ContributionBreakdown(self._panel.ids, union, parts, order, exact_sum(parts))
