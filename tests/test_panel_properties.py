"""Properties of the one count panel that every all-items view reads.

The producers build distributions as rows of one shared ``CountPanel``;
a library caller may build them by hand from plain dicts, which
``panel_of`` interns once per call. Both must give every view the same
bits as ``jsd_with_contributions`` on ``normalize``d tables, and agree
within 1e-12 with references that never touch a panel (``tests/reference.py``
and the trajectory selection written with plain dicts). The panel must also
rank items by the one rule (``CountPanel.rank``, against a plain ``sorted``),
survive a pickle round trip as one object, and refuse to be mutated.
"""

import csv
import io
import math
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
    aggregate,
    normalize,
    on_panel,
    panel_of,
    restrict_top_k,
)
from driftkit.tabular import write_distributions

import reference as oracle
from conftest import dist
from reference import rank_items

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
        matrix = drift_matrix(shared, measure=measure).values
        assert hexes(matrix) == hexes(drift_matrix(hand, measure=measure).values)
        for i, j in zip(*np.triu_indices(n, 1)):
            P, Q = normalize(hand[i]), normalize(hand[j])
            assert abs(matrix[i, j] - oracle.value(measure.kind, P, Q, measure.alpha)) <= 1e-12
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
            partials = oracle.partials("jsd", normalize(hand[i]), normalize(hand[j]))
            assert list(partials) == list(bd_s.partials)
            assert all(abs(bd_s.partials[k] - v) <= 1e-12 for k, v in partials.items())
            assert abs(bd_s.total_bits - math.fsum(partials.values())) <= 1e-12
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


@settings(max_examples=200, deadline=None)
@given(markets(), st.integers(min_value=0, max_value=60), st.data())
def test_rank_is_a_sort_by_descending_keys_then_id(market, k, data):
    _, shared = market
    # k = 0 keeps the shared panel; a restricted panel's id ranks have gaps
    panel = (restrict_top_k(shared, k) if k else shared)[0].counts.panel
    positions = data.draw(
        st.lists(st.integers(0, panel.n_items - 1), unique=True, max_size=panel.n_items),
        label="positions",
    )
    keys = [
        np.array(data.draw(st.lists(values, min_size=len(positions), max_size=len(positions))))
        for values in data.draw(
            st.lists(
                st.sampled_from([st.integers(0, 2), st.sampled_from([0.0, -0.0, 0.5, 1.0])]),
                min_size=1,
                max_size=3,
            ),
            label="key kinds",
        )
    ]
    ids = panel.ids[positions].tolist()
    want = sorted(range(len(positions)), key=lambda i: (*(-key[i] for key in keys), ids[i]))
    assert panel.rank(np.array(positions, dtype=np.intp), *keys).tolist() == want


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_top_is_the_first_k_of_the_full_ranking(data):
    n = data.draw(st.integers(0, 40), label="items")
    ids = data.draw(st.lists(st.sampled_from(ITEMS), min_size=n, max_size=n, unique=True))
    panel = CountPanel(ids, np.arange(n), np.ones(n, dtype=np.int64), [n], [n])
    # few distinct scores, so the k-th place is usually tied
    scores = np.array(
        data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 7.5]), min_size=n, max_size=n)),
        dtype=np.float64,
    )
    candidates = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    k = data.draw(st.integers(0, n + 2), label="k")
    where = np.flatnonzero(candidates)
    want = where[panel.rank(where, scores[where])[:k]].tolist()
    assert want == sorted(where.tolist(), key=lambda i: (-scores[i], ids[i]))[:k]
    assert panel.top(scores, candidates, k).tolist() == want


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


@settings(max_examples=60, deadline=None)
@given(markets(), st.integers(min_value=1, max_value=300))
def test_distribution_rows_follow_the_rank_items_reference(tmp_path_factory, market, k):
    path = tmp_path_factory.getbasetemp() / "distributions.csv"
    hand, shared = market
    # tied counts on ids that numpy's string order would misplace
    hand = hand + [dist({"i\x00": 2, "é": 2, "i": 2, "z": 1}, month=len(hand) + 1)]
    aggregated, _ = aggregate(oracle.tallies_of(hand))
    restricted = restrict_top_k(aggregated, k)
    # ranking again on a restricted panel, whose id ranks are not dense
    twice = restrict_top_k(restricted, max(1, k // 2))
    for dists in (hand, aggregated, restricted, twice, shared):
        write_distributions(path, dists)
        rows = [[d.bin.label, i, d.counts[i]] for d in dists for i in rank_items(d.counts)]
        want = io.StringIO()
        csv.writer(want).writerows([["bin_start", "canonical_id", "count"], *rows])
        assert path.read_bytes() == want.getvalue().encode("utf-8")


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
