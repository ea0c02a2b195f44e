"""Properties of the one count panel that every all-items view reads.

The producers build distributions as rows of one shared ``CountPanel``;
a library caller may build them by hand from plain dicts, which
``panel_of`` interns once per call. Both must give every view the same
bits, and the panel paths must equal references that never touch a panel:
the dict API's ``jsd_with_contributions`` on ``normalize``d tables and the
trajectory selection written with plain dicts. The panel must also select
the top-K items by the one ranking rule, survive a pickle round trip as one
object, and refuse to be mutated.
"""

import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftkit.analysis import (
    TopGlobalContrib,
    TopPeak,
    TopTotal,
    build_group_schedule,
    contribution_pairs,
    drift_matrix,
    global_drift,
    local_drift,
    trajectory_panel,
    transition_matrix,
)
from driftkit.divergence import Measure, jsd_with_contributions
from driftkit.popularity import (
    CountPanel,
    normalize,
    on_panel,
    panel_of,
    rank_items,
    restrict_top_k,
)

from conftest import dist

MEASURES = [Measure("jsd"), Measure("jaccard")] + [
    Measure("jsd_alpha", a) for a in (0.0, 0.5, 1.0, 1.5, 2.0)
]
ITEMS = [f"i{k:03d}" for k in range(240)] + ["i", "i\x00", "i0", "I9", "z", "é"]


@st.composite
def markets(draw):
    """3-6 consecutive bins of 1-160 items; small counts, so partials and totals tie."""
    tables = []
    for _ in range(draw(st.integers(min_value=3, max_value=6))):
        ids = draw(st.lists(st.sampled_from(ITEMS), min_size=1, max_size=160, unique=True))
        counts = draw(st.lists(st.integers(1, 4), min_size=len(ids), max_size=len(ids)))
        tables.append(dict(zip(ids, counts)))
    hand = [dist(table, month=t + 1) for t, table in enumerate(tables)]
    panel = CountPanel.intern(tables, [d.total for d in hand])
    shared = on_panel(panel, ((d.bin, d.cohort) for d in hand))
    return hand, shared


def hexes(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


def reference_panel(dists, selector):
    """The trajectory panel written with plain dicts, ``sorted`` and ``rank_items``."""
    if isinstance(selector, TopGlobalContrib):
        labels = [d.bin.label for d in dists]
        base, at = labels.index(selector.baseline), labels.index(selector.at)
        _, breakdown = jsd_with_contributions(normalize(dists[base]), normalize(dists[at]))
        selected = breakdown.ranking[: selector.k]
    elif isinstance(selector, TopTotal):
        totals = Counter()
        for d in dists:
            totals.update(d.counts)
        selected = rank_items(totals, selector.k)
    else:
        peaks = {}
        for d in dists:
            for item, c in d.counts.items():
                peaks[item] = max(peaks.get(item, 0), c)
        selected = rank_items(peaks, selector.k)
    rows = [[d.counts.get(item, 0) for d in dists] for item in selected]
    peak = [row.index(max(row)) for row in rows]
    order = sorted(range(len(selected)), key=lambda r: (peak[r], selected[r]))
    return (
        [d.bin for d in dists],
        [selected[r] for r in order],
        [dists[peak[r]].bin for r in order],
        [rows[r] for r in order],
    )


def same_panel(a, b) -> bool:
    return (
        a.bins == b.bins
        and a.items == b.items
        and a.peak_bins == b.peak_bins
        and np.array_equal(a.counts, b.counts)
    )


@settings(max_examples=60, deadline=None)
@given(markets(), st.data())
def test_shared_rows_and_hand_built_dicts_agree_bit_for_bit(market, data):
    hand, shared = market
    panel = shared[0].counts.panel
    assert panel_of(shared) is panel
    n = len(hand)
    b = data.draw(st.integers(0, n - 1), label="baseline")
    some = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=2), label="rows"))
    for measure in MEASURES:
        assert hexes(local_drift(shared, measure=measure).values()) == hexes(
            local_drift(hand, measure=measure).values()
        )
        base = hand[b].bin.label
        assert hexes(global_drift(shared, base, measure=measure).values()) == hexes(
            global_drift(hand, base, measure=measure).values()
        )
        assert hexes(drift_matrix(shared, measure=measure).values) == hexes(
            drift_matrix(hand, measure=measure).values
        )
        # a selection of the shared rows reads the same panel
        picked = [shared[i] for i in some]
        assert panel_of(picked).ids is panel.ids
        assert hexes(drift_matrix(picked, measure=measure).values) == hexes(
            drift_matrix([hand[i] for i in some], measure=measure).values
        )

    for kind in ("local", "global"):
        baseline = hand[b].bin.label if kind == "global" else None
        plan = [(t - 1, t) for t in range(1, n)] if kind == "local" else [
            (b, t) for t in range(n) if t != b
        ]
        pairs = zip(
            plan,
            contribution_pairs(shared, kind, baseline),
            contribution_pairs(hand, kind, baseline),
        )
        for (i, j), (bin_s, bd_s, groups_s, shares_s), (bin_h, bd_h, groups_h, shares_h) in pairs:
            _, bd_d = jsd_with_contributions(normalize(hand[i]), normalize(hand[j]))
            assert bin_s == bin_h == hand[j].bin
            assert bd_s.ranking == bd_h.ranking == bd_d.ranking
            assert list(bd_s.partials) == list(bd_h.partials) == list(bd_d.partials)
            assert (
                hexes(list(bd_s.partials.values()))
                == hexes(list(bd_h.partials.values()))
                == hexes(list(bd_d.partials.values()))
            )
            assert bd_s.total_bits.hex() == bd_h.total_bits.hex() == bd_d.total_bits.hex()
            assert groups_s == groups_h
            assert hexes(shares_s) == hexes(shares_h)

    assert hexes(transition_matrix(build_group_schedule(shared))) == hexes(
        transition_matrix(build_group_schedule(hand))
    )
    k = data.draw(st.integers(1, 300), label="k")
    at = hand[data.draw(st.sampled_from([t for t in range(n) if t != b]), label="at")].bin.label
    for selector in (TopTotal(k), TopPeak(k), TopGlobalContrib(k, at, hand[b].bin.label)):
        got = trajectory_panel(shared, selector)
        assert same_panel(got, trajectory_panel(hand, selector))
        bins, items, peak_bins, rows = reference_panel(hand, selector)
        assert (got.bins, got.items, got.peak_bins) == (bins, items, peak_bins)
        assert got.counts.tolist() == rows


@settings(max_examples=100, deadline=None)
@given(markets(), st.integers(min_value=1, max_value=300))
def test_restrict_top_k_keeps_the_rank_items_set_in_bin_order(market, k):
    hand, shared = market
    totals = Counter()
    for d in hand:
        totals.update(d.counts)
    kept = set(rank_items(totals, k))
    for dists in (hand, shared):
        restricted = restrict_top_k(dists, k)
        if len(totals) <= k:
            assert restricted == dists
            continue
        assert len({id(d.counts.panel) for d in restricted}) == 1
        for before, after in zip(hand, restricted):
            assert list(after.counts.items()) == [
                (i, c) for i, c in before.counts.items() if i in kept
            ]
            assert after.total == sum(after.counts.values())
            assert (after.bin, after.cohort) == (before.bin, before.cohort)


@settings(max_examples=30, deadline=None)
@given(markets())
def test_pickle_keeps_one_shared_panel(market):
    _, shared = market
    loaded = pickle.loads(pickle.dumps(shared, protocol=pickle.HIGHEST_PROTOCOL))
    panel = loaded[0].counts.panel
    assert all(d.counts.panel is panel for d in loaded)
    assert panel_of(loaded) is panel
    assert [list(d.counts.items()) for d in loaded] == [list(d.counts.items()) for d in shared]
    assert np.array_equal(panel.id_rank, shared[0].counts.panel.id_rank)
    assert hexes(local_drift(loaded).values()) == hexes(local_drift(shared).values())


def test_panel_rows_are_read_only():
    shared = on_panel(CountPanel.intern([{"a": 2, "b": 1}], [3]), [(dist({"a": 1}).bin, "all")])
    row = shared[0].counts
    with pytest.raises(TypeError):
        row["a"] = 5
    with pytest.raises(TypeError):
        del row["a"]
    for array in (row.panel.counts[0], row.panel.index[0], row.panel.id_rank, row.panel.ids):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]
    loaded = pickle.loads(pickle.dumps(shared))[0].counts
    with pytest.raises(ValueError, match="read-only"):
        loaded.panel.counts[0][0] = 7
    assert dict(loaded) == {"a": 2, "b": 1}
