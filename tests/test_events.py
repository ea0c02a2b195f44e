from collections import Counter
from datetime import date

import numpy as np
import pytest

from driftkit.events import (
    EVERYONE,
    Category,
    CohortFilter,
    DateRange,
    IngestError,
    Medium,
    SchemaError,
    Sex,
    Education,
    Residence,
    age_at,
    assign_bin,
    bin_from_index,
    ingest,
)

from conftest import event_row, write_events_csv
from reference import LoanEvent, matches, read_events


def make_event(**kwargs):
    defaults = dict(
        date=date(2022, 6, 1),
        item_key="k1",
        title="t",
        creator="c",
        category=Category.ADULT_FICTION,
        medium=Medium.PHYSICAL,
        loaner_id="L1",
        birthdate=date(1990, 1, 1),
        sex=Sex.FEMALE,
        education=Education.HIGHER,
        residence=Residence.LARGE_CITY,
    )
    defaults.update(kwargs)
    return LoanEvent(**defaults)


class TestAssignBin:
    def test_week_monday_anchor(self):
        b = assign_bin(date(2021, 4, 26), "week")
        assert b.start == date(2021, 4, 26)  # that day is a Monday
        assert b.end == date(2021, 5, 3)

    def test_week_midweek(self):
        b = assign_bin(date(2021, 4, 29), "week")
        assert b.start == date(2021, 4, 26)
        assert b.start.weekday() == 0

    def test_month(self):
        b = assign_bin(date(2021, 5, 15), "month")
        assert (b.start, b.end) == (date(2021, 5, 1), date(2021, 6, 1))

    def test_quarter(self):
        b = assign_bin(date(2021, 8, 15), "quarter")
        assert (b.start, b.end) == (date(2021, 7, 1), date(2021, 10, 1))

    def test_year_boundaries(self):
        assert assign_bin(date(2021, 12, 31), "month").end == date(2022, 1, 1)
        assert assign_bin(date(2021, 12, 31), "quarter").end == date(2022, 1, 1)

    def test_unknown_granularity(self):
        with pytest.raises(ValueError):
            assign_bin(date(2021, 1, 1), "day")

    def test_partition_property(self):
        # every date lands in exactly one bin; bins tile without gaps
        rng = np.random.default_rng(7)
        start = date(2020, 1, 1).toordinal()
        for granularity in ("week", "month", "quarter"):
            for _ in range(300):
                d = date.fromordinal(int(rng.integers(start, start + 4 * 365)))
                b = assign_bin(d, granularity)
                assert b.contains(d)
                assert assign_bin(b.start, granularity) == b
                nxt = bin_from_index(b.index + 1, granularity)
                assert nxt.start == b.end
                prev = bin_from_index(b.index - 1, granularity)
                assert prev.end == b.start


class TestCohorts:
    def test_empty_filter_matches_everything(self):
        assert matches(make_event(), EVERYONE)
        assert matches(make_event(birthdate=None, sex=Sex.UNKNOWN), EVERYONE)

    def test_age_example(self):
        # born 1990-01-01, loan on 2022-06-01 -> age 32, inside [30, 46)
        ev = make_event()
        assert age_at(ev.birthdate, ev.date) == 32
        assert matches(ev, CohortFilter(age_range=(30, 46)))
        assert not matches(ev, CohortFilter(age_range=(33, None)))

    def test_sex_mismatch(self):
        assert not matches(make_event(sex=Sex.MALE), CohortFilter(sex=Sex.FEMALE))

    def test_age_is_dynamic_across_birthday(self):
        flt = CohortFilter(age_range=(30, 31))
        before = make_event(date=date(2020, 5, 20), birthdate=date(1990, 5, 21))
        after = make_event(date=date(2020, 5, 21), birthdate=date(1990, 5, 21))
        assert not matches(before, flt)  # still 29
        assert matches(after, flt)  # turned 30

    def test_missing_birthdate_counts_in_tally(self):
        tally = Counter()
        ev = make_event(birthdate=None)
        assert not matches(ev, CohortFilter(age_range=(30, 46)), tally)
        assert tally["missing_birthdate"] == 1

    def test_category_set(self):
        flt = CohortFilter(categories=frozenset({Category.CHILDREN}))
        assert not matches(make_event(), flt)
        assert matches(make_event(category=Category.CHILDREN), flt)


def accepted_rows(stream):
    return sum(tally.rows for tally in stream)


def raw_counts(tally):
    """A tally's counts by raw item key, read through its pass's key table."""
    return {tally.keys[code]: n for code, n in tally.counts.items()}


class TestIngest:
    def test_clean_file(self, tmp_path):
        rows = [event_row(loan_date=f"2022-03-{d:02d}", item_key=f"k{d}") for d in range(1, 11)]
        path = write_events_csv(tmp_path / "ev.csv", rows)
        window = DateRange(date(2022, 1, 1), date(2022, 12, 31))
        stream, report = ingest(path, window=window)
        (tally,) = list(stream)
        assert tally.bin == assign_bin(date(2022, 3, 1), "month")
        assert raw_counts(tally) == {f"k{d}": 1 for d in range(1, 11)}
        assert tally.rows == 10
        assert report.accepted == 10
        assert report.malformed == 0 and report.out_of_window == 0
        events, _ = read_events(path, window=window)
        events = list(events)
        assert len(events) == 10
        assert events[0].item_key == "k1" and events[0].date == date(2022, 3, 1)
        assert events[0].sex is Sex.FEMALE

    def test_out_of_window_counted(self, tmp_path):
        rows = [event_row(), event_row(loan_date="2019-01-01")]
        path = write_events_csv(tmp_path / "ev.csv", rows)
        stream, report = ingest(path, window=DateRange(date(2022, 1, 1), date(2022, 12, 31)))
        assert accepted_rows(stream) == 1
        assert report.out_of_window == 1

    def test_exclusion_ranges(self, tmp_path):
        rows = [event_row(loan_date="2022-03-10"), event_row(loan_date="2022-04-10")]
        path = write_events_csv(tmp_path / "ev.csv", rows)
        stream, report = ingest(
            path, exclude=[DateRange(date(2022, 4, 1), date(2022, 4, 30))]
        )
        assert accepted_rows(stream) == 1
        assert report.excluded == 1

    def test_malformed_threshold_aborts(self, tmp_path):
        rows = [event_row(item_key=f"k{i}") for i in range(95)]
        rows += [event_row(item_key="") for _ in range(5)]  # 5% lack item_key
        path = write_events_csv(tmp_path / "ev.csv", rows)
        stream, report = ingest(path, max_malformed_fraction=0.01)
        with pytest.raises(IngestError, match="malformed"):
            list(stream)
        assert report.malformed == 5

    def test_malformed_below_threshold_passes(self, tmp_path):
        rows = [event_row(item_key=f"k{i}") for i in range(99)]
        rows += [event_row(item_key="")]
        path = write_events_csv(tmp_path / "ev.csv", rows)
        stream, report = ingest(path, max_malformed_fraction=0.02)
        assert accepted_rows(stream) == 99
        assert report.malformed == 1

    def test_bad_dates_and_birthdates_are_malformed(self, tmp_path):
        rows = [
            event_row(),
            event_row(loan_date="not-a-date"),
            event_row(birthdate="2031-01-01"),  # after loan date
            event_row(birthdate="nope"),
        ]
        path = write_events_csv(tmp_path / "ev.csv", rows)
        stream, report = ingest(path, max_malformed_fraction=1.0)
        assert accepted_rows(stream) == 1
        assert report.malformed == 3
        assert any("birthdate" in ex for ex in report.malformed_examples)

    def test_unknown_enum_flagged_but_accepted(self, tmp_path):
        rows = [event_row(category="weird"), event_row(category="")]
        path = write_events_csv(tmp_path / "ev.csv", rows)
        other = CohortFilter(categories=frozenset({Category.OTHER}))
        stream, report = ingest(path, cohort=other)
        (tally,) = list(stream)
        assert raw_counts(tally) == {"k1": 2}  # both read as Category.OTHER
        assert report.flagged_enum_values == 1  # empty string is sanctioned unknown
        events, _ = read_events(path)
        assert [e.category for e in events] == [Category.OTHER, Category.OTHER]

    def test_missing_mandatory_column(self, tmp_path):
        path = write_events_csv(
            tmp_path / "ev.csv", [["2022-01-01", "t"]], header=["loan_date", "title"]
        )
        with pytest.raises(SchemaError, match="item_key"):
            ingest(path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(IngestError, match="cannot read"):
            ingest(tmp_path / "missing.csv")

    def test_schema_remap(self, tmp_path):
        path = write_events_csv(
            tmp_path / "ev.csv",
            [["2022-01-02", "K9", "Title", "L7"]],
            header=["when", "book", "name", "who"],
        )
        schema = {"date": "when", "item_key": "book", "title": "name", "loaner_id": "who"}
        stream, report = ingest(path, schema=schema)
        (tally,) = list(stream)
        assert raw_counts(tally) == {"K9": 1}
        events, _ = read_events(path, schema=schema)
        (ev,) = list(events)
        assert ev.item_key == "K9" and ev.loaner_id == "L7"
        assert ev.creator == "" and ev.birthdate is None

    def test_determinism(self, tmp_path):
        rows = [event_row(item_key=f"k{i}", loan_date=f"2022-03-{(i % 28) + 1:02d}") for i in range(50)]
        rows.append(event_row(item_key=""))
        path = write_events_csv(tmp_path / "ev.csv", rows)
        stream_a, report_a = ingest(path, max_malformed_fraction=0.5)
        first = list(stream_a)
        stream_b, report_b = ingest(path, max_malformed_fraction=0.5)
        second = list(stream_b)
        assert first == second
        assert report_a == report_b
