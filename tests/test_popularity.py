import math
from collections import Counter
from datetime import date

import pytest

from driftkit.canon import CanonicalCatalog
from driftkit.events import EVERYONE, CohortFilter, Sex, ingest
from driftkit.popularity import aggregate, normalize, restrict_top_k

from conftest import dist, event_row, write_events_csv
from reference import check_probabilities


def loan(day, item, category="adult_fiction", sex="female", birthdate="1980-01-01"):
    return event_row(
        loan_date=day.isoformat(),
        item_key=item,
        title=f"title {item}",
        creator="writer",
        category=category,
        sex=sex,
        birthdate=birthdate,
    )


def aggregate_log(path, rows, cohort=EVERYONE, catalog=None):
    """`ingest` a log of the given rows, then `aggregate` its tallies."""
    stream, _ = ingest(write_events_csv(path, rows), cohort=cohort)
    return aggregate(stream, catalog)


class TestAggregate:
    def test_single_month_tally(self, tmp_path):
        events = [loan(date(2022, 3, 5), "a")] * 3 + [loan(date(2022, 3, 9), "b")]
        dists, report = aggregate_log(tmp_path / "ev.csv", events)
        assert len(dists) == 1
        assert dists[0].counts == {"a": 3, "b": 1}
        assert dists[0].total == 4
        assert report.matched == 4

    def test_catalog_merges_raw_keys(self, tmp_path):
        catalog = CanonicalCatalog({"a1": "a", "a2": "a"})
        events = [loan(date(2022, 3, 5), "a1"), loan(date(2022, 3, 6), "a2")]
        dists, report = aggregate_log(tmp_path / "ev.csv", events, catalog=catalog)
        assert dists[0].counts == {"a": 2}
        assert report.unknown_keys == 0

    def test_renamed_keys_and_their_id_as_a_key_share_one_cell(self, tmp_path):
        # "a" is not in the catalog, so it is its own id, the id of "a1" and "a2"
        catalog = CanonicalCatalog({"a1": "a", "a2": "a", "b1": "b"})
        day = date(2022, 3, 5)
        events = [loan(day, "z"), loan(day, "a2"), loan(day, "b1"), loan(day, "a"), loan(day, "a1")]
        events += [loan(date(2022, 4, 1), key) for key in ("a1", "a", "a", "z")]
        dists, report = aggregate_log(tmp_path / "ev.csv", events, catalog=catalog)
        assert [list(d.counts.items()) for d in dists] == [
            [("z", 1), ("a", 3), ("b", 1)],
            [("a", 3), ("z", 1)],
        ]
        assert report.unknown_keys == 5  # "z" and "a" are not in the catalog

    def test_unknown_keys_pass_through_counted(self, tmp_path):
        catalog = CanonicalCatalog({"a1": "a"})
        events = [loan(date(2022, 3, 5), "zz")]
        dists, report = aggregate_log(tmp_path / "ev.csv", events, catalog=catalog)
        assert dists[0].counts == {"zz": 1}
        assert report.unknown_keys == 1

    def test_bins_sorted_and_separate(self, tmp_path):
        events = [loan(date(2022, 4, 1), "b"), loan(date(2022, 3, 31), "a")]
        dists, _ = aggregate_log(tmp_path / "ev.csv", events)
        assert [d.bin.start for d in dists] == [date(2022, 3, 1), date(2022, 4, 1)]
        assert [d.counts for d in dists] == [{"a": 1}, {"b": 1}]

    def test_cohort_filter_and_empty_result(self, tmp_path):
        events = [loan(date(2022, 3, 5), "a", sex="male")]
        dists, report = aggregate_log(
            tmp_path / "ev.csv", events, cohort=CohortFilter(sex=Sex.FEMALE)
        )
        assert dists == []
        assert (report.events_seen, report.matched) == (1, 0)

    def test_tallies_of_two_passes_rejected(self, tmp_path):
        path = write_events_csv(tmp_path / "ev.csv", [loan(date(2022, 3, 5), "a")])
        (first,), (second,) = (list(ingest(path)[0]) for _ in range(2))
        assert first.keys == second.keys == ["a"]
        with pytest.raises(ValueError, match="more than one ingest pass"):
            aggregate([first, second])

    def test_age_skips_counted(self, tmp_path):
        events = [loan(date(2022, 3, 5), "a", birthdate="")]
        _, report = aggregate_log(
            tmp_path / "ev.csv", events, cohort=CohortFilter(age_range=(30, 46))
        )
        assert report.skipped["missing_birthdate"] == 1

    def test_sampled_month_matches_tally_oracle(self, tmp_path, rng):
        items = [f"i{k}" for k in range(50)]
        probs = rng.random(50)
        probs /= probs.sum()
        draws = rng.choice(50, size=2000, p=probs)
        events = [loan(date(2022, 5, 1 + int(i) % 28), items[i]) for i in draws]
        oracle = Counter(items[i] for i in draws)
        dists, _ = aggregate_log(tmp_path / "ev.csv", events)
        assert dists[0].counts == dict(oracle)

    def test_linearity(self, tmp_path, rng):
        # aggregating a concatenation equals summing per-bin counts
        all_events = [
            loan(date(2022, 1 + int(rng.integers(0, 3)), 1 + int(rng.integers(0, 28))), f"i{rng.integers(0, 20)}")
            for _ in range(400)
        ]
        half = len(all_events) // 2
        joined, _ = aggregate_log(tmp_path / "all.csv", all_events)
        first, _ = aggregate_log(tmp_path / "first.csv", all_events[:half])
        second, _ = aggregate_log(tmp_path / "second.csv", all_events[half:])
        merged: dict[int, Counter] = {}
        for part in (first, second):
            for d in part:
                merged.setdefault(d.bin.index, Counter()).update(d.counts)
        assert {d.bin.index: Counter(d.counts) for d in joined} == merged


class TestNormalize:
    def test_simple(self):
        rel = normalize(dist({"a": 3, "b": 1}))
        assert rel == {"a": 0.75, "b": 0.25}

    def test_point_mass(self):
        assert normalize(dist({"a": 5})) == {"a": 1.0}

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            normalize(dist({}))

    def test_sums_to_one_large(self, rng):
        counts = {f"i{k}": int(c) for k, c in enumerate(rng.integers(1, 10**6, size=10000))}
        rel = normalize(dist(counts))
        assert abs(math.fsum(rel.values()) - 1.0) <= 1e-12
        assert check_probabilities(rel)


class TestRestrictTopK:
    def test_dominant_item(self):
        bins = [dist({"a": 10, "b": 1}, month=1), dist({"a": 8, "b": 2}, month=2)]
        out = restrict_top_k(bins, 1)
        assert [d.counts for d in out] == [{"a": 10}, {"a": 8}]
        assert out[0].total == 10

    def test_k_at_least_catalog_is_identity(self):
        bins = [dist({"a": 1, "b": 2})]
        assert [d.counts for d in restrict_top_k(bins, 2)] == [{"a": 1, "b": 2}]
        assert [d.counts for d in restrict_top_k(bins, 99)] == [{"a": 1, "b": 2}]

    def test_global_kept_set_matches_sort_oracle(self, rng):
        items = [f"i{k}" for k in range(500)]
        bins = []
        for m in (1, 2, 3):
            counts = {items[k]: int(c) for k, c in enumerate(rng.integers(0, 50, size=500)) if c}
            bins.append(dist(counts, month=m))
        totals = Counter()
        for d in bins:
            totals.update(d.counts)
        oracle = set(sorted(totals, key=lambda k: (-totals[k], k))[:100])
        out = restrict_top_k(bins, 100)
        kept_sets = [set(d.counts) for d in out]
        for kept in kept_sets:
            assert kept <= oracle
        assert set().union(*kept_sets) <= oracle
        # every oracle item present somewhere in the input remains somewhere
        assert oracle == set().union(*kept_sets)

    def test_tie_break_by_id(self):
        bins = [dist({"b": 5, "a": 5, "c": 5})]
        out = restrict_top_k(bins, 2)
        assert set(out[0].counts) == {"a", "b"}

    def test_k_validation(self):
        with pytest.raises(ValueError):
            restrict_top_k([dist({"a": 1})], 0)
