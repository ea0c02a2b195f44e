"""Properties of the one kernel per measure, the exact sum and the one ranking rule.

``divergence_of`` and the views' one reader ``BinRows`` (``exact_sum``) and
the bootstrap's array call (np.sum) run the same kernels; these
checks tie them together, pin their order independence and hold them to
the plain-dict references of ``tests/reference.py``, which import none of
it. The contribution ranking is checked on the same random count tables,
and so are the partial sum against the entropy form, invariance under
renaming the items and the continuity of alpha-JSD at alpha = 1. Every view
is planned once: the global baseline defaults to the first bin, and every
view refuses a single bin. ``exact_sum`` itself must return math.fsum's
float bit for bit, or raise as it does.
"""

import ast
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftkit.analysis import (
    TopGlobalContrib,
    build_group_schedule,
    contribution_pairs,
    drift_matrix,
    global_drift,
    local_drift,
    trajectory_panel,
)
from driftkit.divergence import (
    BinRows,
    Measure,
    _partial_terms,
    divergence_of,
    divergence_of_arrays,
    exact_sum,
    jsd,
    jsd_alpha_normalized,
    jsd_with_contributions,
)
from driftkit.popularity import (
    CountPanel,
    PopularityDistribution,
    aggregate,
    normalize,
    on_panel,
    panel_of,
    restrict_top_k,
)

import reference as oracle
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
    panel = panel_of([A, B])
    for measure in MEASURES:
        value = divergence_of(measure, P, Q).value
        assert divergence_of(measure, Q, P).value == value
        assert divergence_of(measure, Q_shuffled, P_shuffled).value == value
        assert 0.0 <= value <= 1.0

        rows = BinRows(measure, panel)  # the bootstrap's plug-in value and resampled shares
        _, p, q = rows.pair(0, 1)
        assert rows.value(0, 1) == value
        resample = divergence_of_arrays(measure, p, q)
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
            P, Q = normalize(dists[i]), normalize(dists[j])
            value = divergence_of(measure, P, Q).value
            assert abs(value - oracle.value(measure.kind, P, Q, measure.alpha)) <= 1e-12
            return value

        local = local_drift(dists, measure=measure).values()
        assert local == [reference(t - 1, t) for t in range(1, n)]
        glob = global_drift(dists, dists[b].bin.label, measure=measure).values()
        assert glob == [reference(b, t) for t in range(n) if t != b]
        matrix = drift_matrix(dists, measure=measure).values
        assert np.array_equal(matrix, matrix.T)
        assert not np.diagonal(matrix).any()
        assert all(matrix[i, j] == reference(i, j) for i in range(n) for j in range(i + 1, n))


@st.composite
def row_sources(draw):
    """2-4 tables whose entries may be zero, each with a loan, read four ways.

    As hand-built tables, as rows of one interned panel (zeros kept), as
    ``aggregate``'s rows and as ``restrict_top_k``'s rows of those.
    """
    loans = st.integers(min_value=0, max_value=6)
    tables = draw(
        st.lists(
            st.dictionaries(st.sampled_from(ITEMS[:24]), loans, min_size=1).filter(
                lambda table: any(table.values())
            ),
            min_size=2,
            max_size=4,
        )
    )
    hand = [dist(table, month=t + 1) for t, table in enumerate(tables)]
    panel = CountPanel.intern(tables, [d.total for d in hand])
    shared = on_panel(panel, [(d.bin, d.cohort) for d in hand])
    aggregated, _ = aggregate(oracle.tallies_of(hand))
    top = restrict_top_k(aggregated, draw(st.integers(min_value=1, max_value=24)))
    return [hand, shared, aggregated, [d for d in top if d.total > 0]]


@settings(max_examples=150, deadline=None)
@given(row_sources(), st.data())
def test_one_alignment_of_two_rows(sources, data):
    """Every pair meets in ``BinRows``: the reference union, shares, and a clean scratch.

    The union holds the items with a loan in the pair: P's, in P's order
    (an item P lists with no loans keeps its place when Q has loans), then
    Q's others. ``BinRows.pair`` gives it for two rows of the view's panel,
    ``jsd_with_contributions`` on the two normalized mappings lists its
    ``partials`` in it, and ``BinRows.value`` gives ``divergence_of``'s value
    bit for bit.
    """
    for dists in sources:
        if len(dists) < 2:
            continue
        panel = panel_of(dists)
        views = [BinRows(measure, panel) for measure in MEASURES]
        for _ in range(3):
            i = data.draw(st.integers(0, len(dists) - 1), label="left")
            j = data.draw(st.integers(0, len(dists) - 1), label="right")
            A, B = dists[i], dists[j]
            union = [k for k, c in A.counts.items() if c > 0 or B.counts.get(k, 0) > 0]
            union += [k for k, c in B.counts.items() if c > 0 and k not in A.counts]
            p = [A.counts.get(k, 0) / A.total for k in union]
            q = [B.counts.get(k, 0) / B.total for k in union]
            positions, pa, qa = views[0].pair(i, j)
            assert panel.ids[positions].tolist() == union
            assert (pa.tolist(), qa.tolist()) == (p, q)
            assert not views[0]._scratch.any()
            breakdown = jsd_with_contributions(normalize(A), normalize(B))[1]
            assert list(breakdown.partials) == union
            reference = _partial_terms(np.array(p), np.array(q)).tolist()
            assert list(breakdown.partials.values()) == reference
            for measure, rows in zip(MEASURES, views):
                value = divergence_of(measure, normalize(A), normalize(B)).value
                assert rows.value(i, j) == value
                assert not rows._scratch.any()


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
    baseline, at = dists[b].bin.label, min(empty - {b}, default=(b + 1) % n)  # an empty pair
    local, glob = [(t - 1, t) for t in range(1, n)], [(b, t) for t in range(n) if t != b]
    views = [
        (lambda: local_drift(dists), local),
        (lambda: global_drift(dists, baseline), glob),
        (lambda: drift_matrix(dists), [(i, j) for i in range(n) for j in range(i + 1, n)]),
        (lambda: list(contribution_pairs(dists, "local")), local),
        (lambda: list(contribution_pairs(dists, "global", baseline)), glob),
        (lambda: build_group_schedule(dists), local),
        (
            lambda: trajectory_panel(dists, TopGlobalContrib(1, dists[at].bin.label, baseline)),
            [(b, at)],
        ),
    ]
    for view, pairs in views:
        expected = _pair_loop_error(dists, pairs)
        with pytest.raises(type(expected), match=f"^{re.escape(str(expected))}$"):
            view()


@settings(max_examples=60, deadline=None)
@given(bin_tables())
def test_views_default_to_the_first_bin_and_need_two_bins(dists):
    default, first = global_drift(dists), global_drift(dists, dists[0].bin.label)
    assert default == first and default.baseline == dists[0].bin
    assert [p.value.hex() for p in default.points] == [p.value.hex() for p in first.points]

    one = dists[:1]
    views = [
        lambda: local_drift(one),
        lambda: global_drift(one),
        lambda: drift_matrix(one),
        lambda: list(contribution_pairs(one, "local")),
        lambda: list(contribution_pairs(one, "global")),
        lambda: trajectory_panel(one, TopGlobalContrib(1, at=one[0].bin.label)),
    ]
    for view in views:
        with pytest.raises(ValueError, match="at least two bins"):
            view()


def fsum_outcome(total, values: list[float]):
    """What ``total`` gives for ``values``: the float's hex (a zero's sign too), or the error type."""
    try:
        return total(np.array(values, dtype=np.float64)).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc)


def assert_sums_like_fsum(values: list[float]):
    assert fsum_outcome(exact_sum, values) == fsum_outcome(lambda a: math.fsum(a.tolist()), values)


def scaled(exponents):
    return st.builds(
        lambda sign, mantissa, exponent: sign * math.ldexp(mantissa, exponent),
        st.sampled_from([-1.0, 1.0]),
        st.integers(min_value=0, max_value=2**53 - 1),
        exponents,
    )


# subnormals, signed zeros and magnitudes from 2**-1126 (rounded to a subnormal) to 2**1000
finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    scaled(st.integers(min_value=-1126, max_value=947)),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
)


@settings(max_examples=1000, deadline=None)
@given(st.lists(finite, max_size=40))
def test_exact_sum_is_fsum_on_any_floats(values):
    assert_sums_like_fsum(values)


@st.composite
def near_halfway(draw):
    """k ones (some one ulp above 1), half an ulp of k and a far smaller term, in any order.

    The exact sum sits on or just off a rounding tie. A tiny negative term
    next to large positive ones is where a floor-based split loses a bit.
    """
    k = draw(st.integers(min_value=1, max_value=70))
    half = math.ulp(float(k)) / 2
    tiny = draw(st.sampled_from([-1.0, 1.0])) * math.ldexp(half, -draw(st.integers(1, 1000)))
    ones = [draw(st.sampled_from([1.0, 1.0 + 2**-52])) for _ in range(k)]
    return draw(st.permutations(ones + [draw(st.sampled_from([half, -half])), tiny]))


@settings(max_examples=500, deadline=None)
@given(near_halfway())
def test_exact_sum_is_fsum_on_rounding_ties(values):
    assert_sums_like_fsum(values)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=13),
    st.sampled_from([-1, 0, 1]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_exact_sum_is_fsum_at_every_chunk_width(power, step, seed):
    """Sizes next to a power of two, where the chunk width 52 - n.bit_length() changes."""
    rng = np.random.default_rng(seed)
    n = 2**power + step
    values = rng.standard_normal(n) * np.ldexp(1.0, rng.integers(-80, 80, n))
    assert_sums_like_fsum(values.tolist())


@pytest.mark.parametrize(
    "values",
    [
        [],
        [-0.0, -0.0],
        [1 + 2**-52, 2**-53, -(2**-200)],  # a floor-based split rounds this up
        [1.0, 2**-53, 2**-106],
        [1.0, 2**-53, -(2**-106)],
        [5e-324, 5e-324, -2.2250738585072014e-308],
        [1e300, 1e-300, -1e300],
        [math.inf],
        [-math.inf, 1.0],
        [math.nan, 1.0],
        [math.inf, -math.inf],
        [1.7976931348623157e308, 1e292],
        [1e308, 1e308, -1e308],  # fsum's intermediate overflow
    ],
)
def test_exact_sum_is_fsum_on_edge_cases(values):
    assert_sums_like_fsum(values)


@pytest.mark.parametrize("values", [[1.7976931348623157e308, 1e292], [-1e308, -1e308, 1e308]])
def test_exact_sum_overflows_as_fsum_does(values):
    with pytest.raises(OverflowError):
        exact_sum(np.array(values))


class _NoPythonFloats(np.ndarray):
    def tolist(self):
        raise AssertionError("a Python float per value")

    def __iter__(self):
        raise AssertionError("a Python float per value")


def test_exact_sum_makes_no_python_float_per_value():
    values = np.random.default_rng(3).dirichlet(np.ones(5000))
    expected = math.fsum(values.tolist())
    assert exact_sum(values.view(_NoPythonFloats)) == expected


def test_reference_imports_none_of_the_code_it_checks():
    """No oracle in tests/reference.py may become an adapter over the code it checks."""
    forbidden = re.compile(r"^driftkit\.(divergence|estimators|analysis)(\.|$)|(^|\.)CountPanel$")
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:  # a name, an attribute, or a module name in a string
            names = [getattr(node, key, None) for key in ("id", "attr", "value")]
        assert not any(isinstance(n, str) and forbidden.search(n) for n in names), ast.dump(node)
