"""Properties of the one kernel per measure and the one ranking rule.

The dict API (exact fsum), the plug-in views' per-view rows (exact fsum) and
the bootstrap's array call (np.sum) run the same kernels; these checks tie
them together and pin the dict API's order independence. The contribution
ranking is checked on the same random count tables, and so are the partial
sum against the entropy form, invariance under renaming the items and the
continuity of alpha-JSD at alpha = 1.
"""

import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftkit.analysis import drift_matrix, global_drift, local_drift
from driftkit.divergence import (
    Measure,
    _aligned,
    divergence_of,
    divergence_of_arrays,
    jsd,
    jsd_alpha_normalized,
    jsd_with_contributions,
)
from driftkit.popularity import PopularityDistribution, normalize

from conftest import dist

# alpha near 1 divides by (1 - alpha), which magnifies summation dust past any
# fixed tolerance; these orders cover the limits and both sides of 1
MEASURES = [Measure("jsd"), Measure("jaccard")] + [
    Measure("jsd_alpha", a) for a in (0.0, 0.5, 1.0, 1.5, 2.0)
]
EXACT = {Measure("jaccard"), Measure("jsd_alpha", 0.0)}

ITEMS = [f"i{k}" for k in range(60)]
tables = st.dictionaries(
    st.sampled_from(ITEMS), st.integers(min_value=1, max_value=1000), min_size=1
)


def shuffled(table: dict, seed: int) -> dict:
    keys = list(table)
    random.Random(seed).shuffle(keys)
    return {k: table[k] for k in keys}


@settings(max_examples=200, deadline=None)
@given(tables, tables, st.integers(min_value=0, max_value=2**32 - 1))
def test_one_kernel_per_measure(counts_a, counts_b, seed):
    A, B = dist(counts_a), dist(counts_b)
    P, Q = normalize(A), normalize(B)
    P_shuffled, Q_shuffled = normalize(dist(shuffled(counts_a, seed))), normalize(
        dist(shuffled(counts_b, seed + 1))
    )
    _, ca, cb = _aligned(A.counts, B.counts)
    for measure in MEASURES:
        value = divergence_of(measure, P, Q).value
        assert divergence_of(measure, Q, P).value == value
        assert divergence_of(measure, Q_shuffled, P_shuffled).value == value
        assert 0.0 <= value <= 1.0

        assert divergence_of_arrays(measure, ca / A.total, cb / B.total, exact=True) == value
        resample = divergence_of_arrays(measure, ca / A.total, cb / B.total)
        if measure in EXACT:
            assert resample == value
        else:
            assert abs(resample - value) <= 1e-13


@settings(max_examples=200, deadline=None)
@given(tables, tables, st.integers(min_value=0, max_value=2**32 - 1))
def test_one_ranking_rule(counts_a, counts_b, seed):
    P, Q = normalize(dist(counts_a)), normalize(dist(counts_b))
    _, breakdown = jsd_with_contributions(P, Q)
    ranking, partials = breakdown.ranking, breakdown.partials
    assert sorted(ranking) == sorted(set(counts_a) | set(counts_b))
    parts = [partials[k] for k in ranking]
    assert all(x >= y for x, y in zip(parts, parts[1:]))
    # the rule written as a plain three-key sort is the reference
    assert ranking == sorted(
        partials, key=lambda k: (-partials[k], -(P.get(k, 0.0) + Q.get(k, 0.0)), k)
    )

    P_shuffled = normalize(dist(shuffled(counts_a, seed)))
    Q_shuffled = normalize(dist(shuffled(counts_b, seed + 1)))
    assert jsd_with_contributions(P_shuffled, Q_shuffled)[1].ranking == ranking


@settings(max_examples=200, deadline=None)
@given(tables, tables)
def test_partial_sum_equals_the_entropy_form(counts_a, counts_b):
    value, breakdown = jsd_with_contributions(normalize(dist(counts_a)), normalize(dist(counts_b)))
    assert abs(breakdown.total_bits - value.value) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(
    tables,
    tables,
    st.sampled_from([10.0**-e for e in range(2, 10)]),
    st.sampled_from([-1.0, 1.0]),
)
def test_alpha_jsd_tends_to_jsd_at_one(counts_a, counts_b, eps, side):
    """alpha-JSD at 1 +- eps is within 2 eps of the JSD, up to rounding dust.

    The value's slope in alpha near 1 stayed below 0.5 on these tables; the
    Tsallis sums' rounding error is divided by |1 - alpha|, so its allowance
    scales with 1 / eps.
    """
    P, Q = normalize(dist(counts_a)), normalize(dist(counts_b))
    near = jsd_alpha_normalized(P, Q, 1.0 + side * eps).value
    assert abs(near - jsd(P, Q).value) <= 2.0 * eps + 1e-14 / eps


new_names = st.lists(
    st.text(min_size=1, max_size=6), min_size=len(ITEMS), max_size=len(ITEMS), unique=True
)


@settings(max_examples=200, deadline=None)
@given(tables, tables, new_names, st.integers(min_value=0, max_value=2**32 - 1))
def test_relabeling_items(counts_a, counts_b, names, seed):
    """Values ignore item ids; the ranking sees them only through their order."""
    P, Q = normalize(dist(counts_a)), normalize(dist(counts_b))
    values = [divergence_of(measure, P, Q).value for measure in MEASURES]
    _, breakdown = jsd_with_contributions(P, Q)
    order_preserving = dict(zip(sorted(ITEMS), sorted(names)))
    any_renaming = dict(zip(ITEMS, names))
    for rename in (order_preserving, any_renaming):
        P2 = normalize(dist(shuffled({rename[k]: c for k, c in counts_a.items()}, seed)))
        Q2 = normalize(dist(shuffled({rename[k]: c for k, c in counts_b.items()}, seed + 1)))
        assert [divergence_of(measure, P2, Q2).value for measure in MEASURES] == values
        _, renamed = jsd_with_contributions(P2, Q2)
        assert renamed.partials == {rename[k]: v for k, v in breakdown.partials.items()}
        assert [renamed.partials[k] for k in renamed.ranking] == [
            breakdown.partials[k] for k in breakdown.ranking
        ]
        if rename is order_preserving:
            assert renamed.ranking == [rename[k] for k in breakdown.ranking]


counts = st.integers(min_value=1, max_value=1000)


@st.composite
def bin_tables(draw):
    """2-5 consecutive bins: random tables, single items, repeats and disjoint supports."""
    out = []
    for t in range(draw(st.integers(min_value=2, max_value=5))):
        kind = draw(st.sampled_from(("random", "single", "repeat", "disjoint")))
        if kind == "repeat" and out:
            out.append(dict(out[-1]))
        elif kind == "single":
            out.append({draw(st.sampled_from(ITEMS)): draw(counts)})
        elif kind == "disjoint":
            ids = st.sampled_from([f"d{t}_{k}" for k in range(20)])
            out.append(draw(st.dictionaries(ids, counts, min_size=1)))
        else:
            out.append(draw(tables))
    return [dist(c, month=t + 1) for t, c in enumerate(out)]


@settings(max_examples=150, deadline=None)
@given(bin_tables(), st.data())
def test_plugin_views_equal_the_dict_api(dists, data):
    n = len(dists)
    b = data.draw(st.integers(min_value=0, max_value=n - 1), label="baseline")
    for measure in MEASURES:

        def reference(i, j):
            return divergence_of(measure, normalize(dists[i]), normalize(dists[j])).value

        local = local_drift(dists, measure=measure).values()
        assert local == [reference(t - 1, t) for t in range(1, n)]
        glob = global_drift(dists, dists[b].bin.label, measure=measure).values()
        assert glob == [reference(b, t) for t in range(n) if t != b]
        matrix = drift_matrix(dists, measure=measure).values
        assert np.array_equal(matrix, matrix.T)
        assert not np.diagonal(matrix).any()
        assert all(matrix[i, j] == reference(i, j) for i in range(n) for j in range(i + 1, n))


def _pair_loop_error(dists, pairs):
    """The error a pair-by-pair loop normalizing each pair, earlier bin first, meets first."""
    for i, j in pairs:
        for k in sorted((i, j), key=lambda k: dists[k].bin.index):
            try:
                normalize(dists[k])
            except ValueError as exc:
                return exc
    return None


@settings(max_examples=100, deadline=None)
@given(bin_tables(), st.data())
def test_empty_bin_raises_as_the_pair_loop_did(dists, data):
    n = len(dists)
    empty = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1), label="empty")
    for k in empty:
        dists[k] = PopularityDistribution(dists[k].bin, "all", {}, 0)
    b = data.draw(st.integers(min_value=0, max_value=n - 1), label="baseline")
    views = [
        (lambda: local_drift(dists), [(t - 1, t) for t in range(1, n)]),
        (lambda: global_drift(dists, dists[b].bin.label), [(b, t) for t in range(n) if t != b]),
        (lambda: drift_matrix(dists), [(i, j) for i in range(n) for j in range(i + 1, n)]),
    ]
    for view, pairs in views:
        expected = _pair_loop_error(dists, pairs)
        with pytest.raises(type(expected), match=f"^{re.escape(str(expected))}$"):
            view()
