import math
import random

import numpy as np
import pytest

from driftkit.analysis import (
    TopGlobalContrib,
    TopPeak,
    TopTotal,
    build_group_schedule,
    contribution_groups,
    contribution_pairs,
    drift_matrix,
    global_drift,
    group_of_rank,
    local_drift,
    trajectory_panel,
    transition_matrix,
)
from driftkit.divergence import BinRows, Measure
from driftkit.estimators import Estimator, plugin_jsd
from driftkit.popularity import panel_of

from conftest import dist


def months(counts_by_month, year=2022):
    return [dist(c, year=year, month=m) for m, c in counts_by_month]


class TestLocalDrift:
    def test_constant_distributions_zero(self):
        dists = months([(1, {"a": 3, "b": 1}), (2, {"a": 3, "b": 1}), (3, {"a": 3, "b": 1})])
        series = local_drift(dists)
        assert series.values() == [0.0, 0.0]
        assert [p.bin.start.month for p in series.points] == [2, 3]

    def test_two_bins_single_value(self):
        a, b = months([(1, {"a": 3, "b": 1}), (2, {"a": 4})])
        series = local_drift([a, b])
        assert series.values() == [plugin_jsd(a, b).value]

    def test_gap_error_names_missing_bin(self):
        dists = months([(1, {"a": 1}), (3, {"a": 1})])
        with pytest.raises(ValueError, match="2022-02-01"):
            local_drift(dists)

    def test_needs_two_bins(self):
        with pytest.raises(ValueError):
            local_drift(months([(1, {"a": 1})]))

    def test_bootstrap_carries_std_error(self):
        dists = months([(1, {"a": 30, "b": 10}), (2, {"a": 20, "b": 20})])
        series = local_drift(dists, Estimator("bootstrap", 50, 3))
        assert series.points[0].std_error is not None
        again = local_drift(dists, Estimator("bootstrap", 50, 3))
        assert series.points == again.points


class TestGlobalDrift:
    def test_baseline_excluded_and_identical_zero(self):
        dists = months([(m, {"a": 2, "b": 2}) for m in (1, 2, 3)])
        series = global_drift(dists, "2022-01-01")
        assert [p.bin.start.month for p in series.points] == [2, 3]
        assert series.values() == [0.0, 0.0]
        assert series.baseline.start.month == 1

    def test_missing_baseline(self):
        dists = months([(1, {"a": 1}), (2, {"a": 1})])
        with pytest.raises(ValueError, match="2022-05-01"):
            global_drift(dists, "2022-05-01")

    def test_mid_series_baseline(self):
        dists = months([(1, {"a": 1}), (2, {"b": 1}), (3, {"a": 1})])
        series = global_drift(dists, "2022-02-01")
        assert [p.value for p in series.points] == [1.0, 1.0]


class TestDriftMatrix:
    def test_two_bins(self):
        a, b = months([(1, {"a": 3, "b": 1}), (2, {"a": 4})])
        m = drift_matrix([a, b])
        assert m.values[0, 0] == m.values[1, 1] == 0.0
        assert m.values[0, 1] == m.values[1, 0] == plugin_jsd(a, b).value

    def test_consistency_with_series(self, rng):
        dists = []
        for i, month in enumerate((1, 2, 3, 4)):
            counts = {f"i{k}": int(c) + 1 for k, c in enumerate(rng.integers(0, 30, size=40))}
            dists.append(dist(counts, month=month))
        matrix = drift_matrix(dists)
        local = local_drift(dists)
        global_series = global_drift(dists, dists[0].bin.label)
        for t, point in enumerate(global_series.points, start=1):
            assert matrix.values[0, t] == point.value  # bit-exact
        for t, point in enumerate(local.points):
            assert matrix.values[t, t + 1] == point.value

    def test_label_permutation_invariance(self, rng):
        dists = []
        for month in (1, 2, 3, 4):
            counts = {f"i{k}": int(c) + 1 for k, c in enumerate(rng.integers(0, 30, size=30))}
            dists.append(dist(counts, month=month))
        forward = drift_matrix(dists)
        reversed_ = drift_matrix(dists[::-1])
        perm = list(range(len(dists)))[::-1]
        assert np.array_equal(reversed_.values, forward.values[np.ix_(perm, perm)])

    def test_cell_order_never_changes_results(self, rng):
        # the rows share one scratch vector: a cell must not see another's leftovers
        dists = []
        for month in (1, 2, 3, 4, 5):
            size = int(rng.integers(1, 40))
            counts = {f"i{k}": int(c) + 1 for k, c in enumerate(rng.integers(0, 30, size=size))}
            dists.append(dist(counts, month=month))
        matrix = drift_matrix(dists).values
        order = list(range(len(dists)))
        random.Random(5).shuffle(order)  # interning order
        rows = BinRows(Measure("jsd"), panel_of([dists[k] for k in order]))
        row_of = {k: r for r, k in enumerate(order)}
        cells = [(i, j) for i in range(len(dists)) for j in range(len(dists)) if i != j]
        random.Random(6).shuffle(cells)
        assert all(rows.value(row_of[i], row_of[j]) == matrix[i, j] for i, j in cells)

    def test_bootstrap_consistency_across_views(self, rng):
        dists = []
        for month in (1, 2, 3):
            counts = {f"i{k}": int(c) + 1 for k, c in enumerate(rng.integers(0, 30, size=25))}
            dists.append(dist(counts, month=month))
        est = Estimator("bootstrap", 40, 11)
        matrix = drift_matrix(dists, est)
        global_series = global_drift(dists, dists[0].bin.label, est)
        for t, point in enumerate(global_series.points, start=1):
            assert matrix.values[0, t] == point.value


class TestContributionGroups:
    def test_single_item_change_tops_ranking(self):
        a = dist({"a": 50, "b": 50, "c": 50})
        b = dist({"a": 50, "b": 50, "c": 50, "d": 50}, month=2)
        breakdown, groups, shares = contribution_groups(a, b)
        assert breakdown.ranking[0] == "d"
        assert groups["d"] == 1
        assert math.fsum(shares) == pytest.approx(1.0, abs=1e-9)

    def test_shares_sum_to_one(self, rng):
        for _ in range(20):
            ca = {f"i{k}": int(c) + 1 for k, c in enumerate(rng.integers(0, 40, size=60))}
            cb = {f"i{k}": int(c) + 1 for k, c in enumerate(rng.integers(0, 40, size=60))}
            _, _, shares = contribution_groups(dist(ca), dist(cb, month=2))
            assert math.fsum(shares) == pytest.approx(1.0, abs=1e-9)

    def test_identical_pair_zero_shares(self):
        a = dist({"a": 3, "b": 1})
        _, _, shares = contribution_groups(a, dist({"a": 3, "b": 1}, month=2))
        assert shares == [0.0] * 5

    def test_uniform_shift_share_is_group_size_fraction(self):
        # P uniform on 150 items, Q uniform on 150 fresh items: every item has
        # the same partial, so the top-100 group holds 100/300 of the total
        a = dist({f"p{k}": 1 for k in range(150)})
        b = dist({f"q{k}": 1 for k in range(150)}, month=2)
        _, groups, shares = contribution_groups(a, b)
        assert shares[0] == pytest.approx(100 / 300, abs=1e-12)
        assert shares[1] == pytest.approx(200 / 300, abs=1e-12)

    def test_zero_partial_ties_break_by_combined_share_then_id(self):
        # y, z, a, b keep their share, so their partials are all 0.0; g and h
        # swap the same mass between disjoint supports and tie exactly
        a = dist({"a": 10, "b": 10, "y": 20, "z": 30, "g": 30})
        b = dist({"a": 10, "b": 10, "y": 20, "z": 30, "h": 30}, month=2)
        breakdown, _, _ = contribution_groups(a, b)
        partials = breakdown.partials
        assert {partials[k] for k in "abyz"} == {0.0}
        assert partials["g"] == partials["h"] > 0.0
        assert breakdown.ranking == ["g", "h", "z", "y", "a", "b"]

    def test_swapped_shares_tie_break_by_id(self):
        # b and c swap shares 0.2 <-> 0.1 between bins of unequal totals: their
        # partials and combined shares tie exactly, so the id decides, even
        # though c has more loans (50 against 40)
        a = dist({"b": 20, "c": 10, "k": 70})
        b = dist({"b": 20, "c": 40, "k": 140}, month=2)
        breakdown, _, _ = contribution_groups(a, b)
        partials = breakdown.partials
        assert partials["b"] == partials["c"] > 0.0
        assert partials["k"] == 0.0
        assert breakdown.ranking == ["b", "c", "k"]

    def test_zero_loan_items_take_no_part(self):
        # k has an entry but no loan in the pair, so it is neither ranked nor grouped
        breakdown, groups, _ = contribution_groups(
            dist({"a": 1, "k": 0}), dist({"a": 1, "b": 1}, month=2)
        )
        assert breakdown.ranking == ["b", "a"]
        assert set(breakdown.partials) == set(groups) == {"a", "b"}

    @pytest.mark.parametrize(
        "counts, message",
        [([(1, {"a": 1})], "at least two bins"), ([(1, {"a": 1}), (3, {"a": 2})], "2022-02-01")],
        ids=["one-bin", "gap"],
    )
    def test_local_pairs_need_the_local_drift_input(self, counts, message):
        dists = months(counts)
        for view in (local_drift, lambda d: list(contribution_pairs(d)), build_group_schedule):
            with pytest.raises(ValueError, match=message):
                view(dists)

    def test_group_bounds(self):
        assert group_of_rank(1) == 1
        assert group_of_rank(100) == 1
        assert group_of_rank(101) == 2
        assert group_of_rank(1000) == 2
        assert group_of_rank(10_000) == 3
        assert group_of_rank(50_000) == 4
        assert group_of_rank(50_001) == 5


class TestTransitions:
    def test_static_ranking_is_identity(self):
        dists = months(
            [(m, {f"i{k}": 100 - k for k in range(120)}) for m in (1, 2, 3, 4)]
        )
        # give every pair the same slight change so rankings are stable
        for i, d in enumerate(dists):
            d.counts["mover"] = 1000 + 100 * i
            d.total = sum(d.counts.values())
        schedule = build_group_schedule(dists)
        matrix = transition_matrix(schedule)
        assert matrix.shape == (5, 5)
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-9)
        # groups 3..5 are unpopulated at this catalog size -> identity rows
        assert matrix[2, 2] == matrix[3, 3] == matrix[4, 4] == 1.0

    def test_rows_stochastic_random(self, rng):
        dists = []
        for month in (1, 2, 3, 4, 5):
            counts = {f"i{k}": int(c) + 1 for k, c in enumerate(rng.integers(0, 60, size=200))}
            dists.append(dist(counts, month=month))
        matrix = transition_matrix(build_group_schedule(dists))
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-9)
        assert (matrix >= 0).all()

    def test_random_reshuffle_rows_approach_group_sizes(self, rng):
        # fresh random counts every month reshuffle the contribution ranking,
        # so landing probabilities approach the group-size proportions
        n_items = 200
        ids = [f"i{k}" for k in range(n_items)]
        dists = []
        for i, month in enumerate(range(1, 13)):
            counts = {ids[k]: int(c) for k, c in enumerate(rng.integers(1, 1000, size=n_items))}
            dists.append(dist(counts, month=month))
        matrix = transition_matrix(build_group_schedule(dists))
        # every item stays ranked (all have loans each month): groups are
        # G1 (100 items) and G2 (100 items), so each row tends to 0.5 / 0.5
        for g in (0, 1):
            assert matrix[g, 0] == pytest.approx(0.5, abs=0.12)
            assert matrix[g, 1] == pytest.approx(0.5, abs=0.12)
            assert matrix[g, 2:].sum() == 0.0

    def test_absent_items_land_in_last_group(self):
        a = dist({"a": 5, "b": 5}, month=1)
        b = dist({"a": 5, "c": 5}, month=2)
        c = dist({"x": 5, "y": 5}, month=3)
        schedule = build_group_schedule([a, b, c])
        matrix = transition_matrix(schedule)
        # pair 1 ranks {b, c, a}; only b has zero loans in both bins of
        # pair 2, so exactly one of the three G1 items falls to G5
        assert matrix[0, 4] == pytest.approx(1 / 3, abs=1e-12)
        assert matrix[0, 0] == pytest.approx(2 / 3, abs=1e-12)

    def test_zero_loan_entries_change_nothing(self):
        plain = [{"a": 5, "b": 5}, {"a": 5, "c": 5}, {"x": 5, "y": 5}]
        padded = [{**counts, "k": 0} for counts in plain]
        matrices = [
            transition_matrix(build_group_schedule(months(enumerate(tables, start=1))))
            for tables in (plain, padded)
        ]
        assert np.array_equal(*matrices)

    def test_needs_two_pairs(self):
        with pytest.raises(ValueError):
            transition_matrix(build_group_schedule(months([(1, {"a": 1}), (2, {"b": 1})])))

    def test_rejects_a_schedule_it_cannot_read(self):
        a, b, c = months([(1, {"a": 5, "b": 5}), (2, {"a": 5, "c": 5}), (3, {"x": 5})])
        schedule = build_group_schedule([a, b, c])
        as_dicts = [(label, dict(groups)) for label, groups in schedule]
        with pytest.raises(ValueError, match="not a dict"):
            transition_matrix(as_dicts)
        # contribution_groups reads each pair on a panel of its own
        apart = [(x.bin.label, contribution_groups(x, y)[1]) for x, y in ((a, b), (b, c))]
        with pytest.raises(ValueError, match="the group maps of one panel"):
            transition_matrix(apart)


class TestTrajectories:
    def test_peak_ordering_and_cells(self):
        dists = months(
            [
                (1, {"early": 9, "late": 1}),
                (2, {"early": 4, "late": 2}),
                (3, {"early": 1, "late": 7}),
            ]
        )
        panel = trajectory_panel(dists, TopTotal(2))
        assert panel.items == ["early", "late"]
        assert [b.start.month for b in panel.peak_bins] == [1, 3]
        assert panel.counts[0].tolist() == [9, 4, 1]
        assert panel.counts[1].tolist() == [1, 2, 7]

    def test_top_total_matches_sort_oracle(self, rng):
        dists = []
        for month in (1, 2):
            counts = {f"i{k}": int(c) + 1 for k, c in enumerate(rng.integers(0, 100, size=50))}
            dists.append(dist(counts, month=month))
        totals = {}
        for d in dists:
            for k, c in d.counts.items():
                totals[k] = totals.get(k, 0) + c
        oracle = set(sorted(totals, key=lambda k: (-totals[k], k))[:10])
        panel = trajectory_panel(dists, TopTotal(10))
        assert set(panel.items) == oracle

    def test_top_peak_selector(self):
        dists = months([(1, {"spiky": 100, "steady": 60}), (2, {"spiky": 1, "steady": 60})])
        panel = trajectory_panel(dists, TopPeak(1))
        assert panel.items == ["spiky"]

    def test_earliest_peak_wins_ties(self):
        dists = months([(1, {"a": 5}), (2, {"a": 5})])
        panel = trajectory_panel(dists, TopTotal(1))
        assert panel.peak_bins[0].start.month == 1

    def test_k_beyond_catalog_keeps_all(self):
        dists = months([(1, {"a": 1, "b": 2})])
        panel = trajectory_panel(dists, TopTotal(99))
        assert len(panel.items) == 2

    def test_top_global_contrib(self):
        dists = months(
            [
                (1, {"a": 50, "b": 50}),
                (2, {"a": 50, "b": 50}),
                (3, {"a": 10, "b": 50, "c": 40}),
            ]
        )
        panel = trajectory_panel(dists, TopGlobalContrib(2, at="2022-03-01"))
        assert set(panel.items) <= {"a", "b", "c"}
        assert "c" in panel.items  # the entrant drives drift vs the baseline

    @pytest.mark.parametrize("k", [0, -1])
    @pytest.mark.parametrize(
        "build",
        [TopTotal, TopPeak, lambda k: TopGlobalContrib(k, at="2022-02-01")],
        ids=["top_total", "top_peak", "top_global_contrib"],
    )
    def test_selector_rejects_k_below_one(self, build, k):
        with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
            build(k)

    @pytest.mark.parametrize("baseline", [None, "2022-02-01"])
    def test_top_global_contrib_at_the_baseline_raises(self, baseline):
        dists = months([(1, {"a": 5}), (2, {"a": 1, "b": 4}), (3, {"b": 5})])
        at = baseline or "2022-01-01"
        with pytest.raises(ValueError, match=f"bin {at} is the baseline"):
            trajectory_panel(dists, TopGlobalContrib(1, at=at, baseline=baseline))

    def test_selector_bins_found_by_label(self):
        dists = months([(1, {"a": 5}), (2, {"a": 1, "b": 4}), (3, {"b": 5})])
        panel = trajectory_panel(dists, TopGlobalContrib(1, at="2022-03-01", baseline="2022-02-01"))
        assert panel.items == ["a"]
        with pytest.raises(ValueError, match="bin 2022-07-01 not present"):
            trajectory_panel(dists, TopGlobalContrib(1, at="2022-07-01"))
