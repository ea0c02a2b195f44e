"""Properties of the one kernel per measure and the one ranking rule.

The dict API (exact fsum) and the bootstrap's array call (np.sum) run the
same kernels; these checks tie the two together and pin the dict API's
order independence. The contribution ranking is checked on the same random
count tables.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from driftkit.divergence import (
    Measure,
    _aligned,
    divergence_of,
    divergence_of_arrays,
    jsd_with_contributions,
)
from driftkit.popularity import normalize

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
    p, q = P.probs, Q.probs
    assert ranking == sorted(
        partials, key=lambda k: (-partials[k], -(p.get(k, 0.0) + q.get(k, 0.0)), k)
    )

    P_shuffled = normalize(dist(shuffled(counts_a, seed)))
    Q_shuffled = normalize(dist(shuffled(counts_b, seed + 1)))
    assert jsd_with_contributions(P_shuffled, Q_shuffled)[1].ranking == ranking
