"""Properties of the decomposition products against pair-by-pair references.

``contribution_pairs`` must span exactly the pairs of the drift view of its
kind, its groups must be the rank bands written out here independently of
``analysis``, its shares an exact per-group sum, and ``transition_matrix``
must equal a per-item tally loop bit for bit. The markets have more than 100
items per bin, so the first two bands fill, and small counts, so the
partials tie exactly.
"""

import math
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from driftkit.analysis import (
    build_group_schedule,
    contribution_groups,
    contribution_pairs,
    transition_matrix,
)

from conftest import dist

BOUNDS = (100, 1000, 10000, 50000)
GROUPS = len(BOUNDS) + 1
POOL = [f"i{k:03d}" for k in range(400)]


@st.composite
def markets(draw):
    """3-6 consecutive bins of 101-300 items with counts 1-4; a bin may repeat its predecessor."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    tables = []
    for _ in range(draw(st.integers(min_value=3, max_value=6))):
        if tables and draw(st.booleans()) and draw(st.booleans()):
            tables.append(dict(tables[-1]))
        else:
            ids = rng.sample(POOL, rng.randint(101, 300))
            tables.append({item: rng.randint(1, 4) for item in ids})
    return [dist(t, month=m + 1) for m, t in enumerate(tables)]


def reference_groups(ranking):
    return {item: 1 + sum(r > b for b in BOUNDS) for r, item in enumerate(ranking, start=1)}


def reference_shares(breakdown, groups):
    per_group = [[] for _ in range(GROUPS)]
    for item, g in groups.items():
        per_group[g - 1].append(breakdown.partials[item])
    if breakdown.total_bits > 0.0:
        return [math.fsum(vals) / breakdown.total_bits for vals in per_group]
    return [0.0] * GROUPS


def reference_transitions(schedule):
    """One scalar increment per item, one normalization per row."""
    sums = np.zeros((GROUPS, GROUPS), dtype=np.float64)
    rows_seen = np.zeros(GROUPS, dtype=np.int64)
    for (_, prev), (_, nxt) in zip(schedule, schedule[1:]):
        counts = np.zeros((GROUPS, GROUPS), dtype=np.float64)
        for item, g in prev.items():
            counts[g - 1, nxt.get(item, GROUPS) - 1] += 1
        for g in range(GROUPS):
            row_total = counts[g].sum()
            if row_total > 0:
                sums[g] += counts[g] / row_total
                rows_seen[g] += 1
    matrix = np.zeros((GROUPS, GROUPS), dtype=np.float64)
    for g in range(GROUPS):
        if rows_seen[g]:
            matrix[g] = sums[g] / rows_seen[g]
        else:
            matrix[g, g] = 1.0
    return matrix


@settings(max_examples=60, deadline=None)
@given(markets(), st.data())
def test_contribution_pairs_follow_the_view_and_the_bands(dists, data):
    n = len(dists)
    b = data.draw(st.integers(min_value=0, max_value=n - 1), label="baseline")
    views = [
        (None, [(t - 1, t) for t in range(1, n)]),
        (dists[b].bin.label, [(b, t) for t in range(n) if t != b]),
    ]
    for baseline, pairs in views:
        got = list(contribution_pairs(dists, baseline))
        assert got == [(dists[j].bin, *contribution_groups(dists[i], dists[j])) for i, j in pairs]
        for _, breakdown, groups, shares in got:
            assert groups == reference_groups(breakdown.ranking)
            assert shares == reference_shares(breakdown, groups)
            assert {1, 2} <= set(groups.values())

    schedule = build_group_schedule(dists)
    assert np.array_equal(transition_matrix(schedule), reference_transitions(schedule))
