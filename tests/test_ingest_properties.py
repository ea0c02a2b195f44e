"""Differential properties of the one-pass ingest tally.

`ingest` plus `aggregate` must give what the per-row reference reader
(`reference.read_events`) gives when its events are filtered by `matches`, binned by
`assign_bin` and mapped through the catalog one by one: the same
distributions, with the same bin order and the panel's ids in the order the
pass first counted each id, the same `IngestReport` and `AggregateReport`,
and the same abort when too many rows are malformed. The order of a bin's
items is no contract. The tallies themselves must share one key table,
numbered in the order each key was first counted, and hold each bin's raw
key loans. The fuzzed logs mix quoted commas, CRLF line ends, short rows,
bad and out-of-order birthdates, unknown enum values, dates on window and
exclusion edges, and permuted or missing optional columns.
"""

import csv
from collections import Counter
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftkit.canon import CanonicalCatalog
from driftkit.events import (
    DEFAULT_SCHEMA,
    EVERYONE,
    Category,
    CohortFilter,
    DateRange,
    Education,
    IngestError,
    Residence,
    Sex,
    assign_bin,
    ingest,
)
from driftkit.popularity import AggregateReport, PopularityDistribution, aggregate

from reference import matches, read_events

FIXTURE = Path(__file__).parent / "fixtures" / "events_1k.csv"

DAYS = [
    "2021-12-31", "2022-01-01", "2022-01-02", "2022-01-31", "2022-02-01",
    "2022-02-28", "2022-03-01", "2022-03-31", "2022-04-04",
]  # fmt: skip
# the pools repeat good values, so that most rows are accepted and most logs pass
LOAN_DATES = DAYS * 6 + ["", "2022-02-30", "31/01/2022"]
BIRTHDATES = ["", "1950-06-15", "1980-01-01", "1992-01-31"] * 6 + [
    "1992-02-29", "2022-01-02", "2023-05-05", "nope"
]
KEYS = ["K1", "K2", "K3", "K,4", 'K"5', "K 6"]
TITLES = ["Title", "A, B", 'Say "hi"'] * 6 + [""]
LOANERS = ["L1", "L2", "L3"] * 6 + [""]
ENUM_VALUES = {
    "category": [c.value for c in Category] + ["", "weird"],
    "medium": ["physical", "ebook", "audiobook", "other", "", "vinyl"],
    "sex": [s.value for s in Sex] + ["", "x"],
    "education": [e.value for e in Education] + ["", "phd"],
    "residence": [r.value for r in Residence] + ["", "moon"],
}
COLUMNS = list(DEFAULT_SCHEMA.values())
MANDATORY = ["loan_date", "item_key", "title", "loaner_id"]
OPTIONAL = [c for c in COLUMNS if c not in MANDATORY]


def reference(path, granularity, cohort, catalog, **options):
    """The per-row path: `read_events`, then `matches`, `assign_bin` and the catalog per event."""
    events, ingest_report = read_events(path, **options)
    report = AggregateReport()
    per_bin, raw_per_bin, counted, ids = {}, {}, [], []
    try:
        for ev in events:
            report.events_seen += 1
            if not matches(ev, cohort, report.skipped):
                continue
            report.matched += 1
            counted.append(ev.item_key)
            cid = ev.item_key
            if catalog is not None:
                cid = catalog.mapping.get(ev.item_key)
                if cid is None:
                    report.unknown_keys += 1
                    cid = ev.item_key
            ids.append(cid)
            tb = assign_bin(ev.date, granularity)
            counts = per_bin.setdefault(tb, {})
            counts[cid] = counts.get(cid, 0) + 1
            raw = raw_per_bin.setdefault(tb, {})
            raw[ev.item_key] = raw.get(ev.item_key, 0) + 1
    except IngestError as exc:
        return str(exc), ingest_report, None, None
    dists = [
        PopularityDistribution(tb, cohort.label, counts, sum(counts.values()))
        for tb, counts in sorted(per_bin.items(), key=lambda kv: kv[0].index)
    ]
    raw_counts = [raw_per_bin[d.bin] for d in dists]
    first_counted = list(dict.fromkeys(counted)), list(dict.fromkeys(ids))
    return dists, ingest_report, report, (*first_counted, raw_counts)


def tallied(path, granularity, cohort, catalog, **options):
    """`ingest` plus `aggregate`, and the tallies, read through their key table."""
    stream, ingest_report = ingest(path, granularity=granularity, cohort=cohort, **options)
    try:
        tallies = list(stream)
    except IngestError as exc:
        return (str(exc), ingest_report, None, None), []
    dists, report = aggregate(tallies, catalog)
    keys = tallies[0].keys if tallies else []
    ids = dists[0].counts.panel.ids.tolist() if dists else []
    raw_counts = [dict(Counter(keys[c] for c in t.codes)) for t in tallies if t.codes]
    return (dists, ingest_report, report, (keys, ids, raw_counts)), tallies


def assert_same(path, granularity="month", cohort=EVERYONE, catalog=None, **options):
    want = reference(path, granularity, cohort, catalog, **options)
    got, tallies = tallied(path, granularity, cohort, catalog, **options)
    assert got == want  # with the key table and the ids in first-count order
    if tallies:  # one key table per pass, coded 0..n-1 with no key twice
        keys = tallies[0].keys
        assert all(tally.keys is keys for tally in tallies)
        assert len(set(keys)) == len(keys)
        assert set().union(*(tally.codes for tally in tallies)) == set(range(len(keys)))
    report = got[1]
    skipped = report.out_of_window + report.excluded + report.malformed
    assert report.rows == report.accepted + skipped
    return got[:3]


dates = st.sampled_from(DAYS)
ranges = st.tuples(dates, dates).map(lambda ab: DateRange(*sorted(map(date.fromisoformat, ab))))


@st.composite
def logs(draw):
    """(header, rows, line terminator) of a log with the mandatory columns."""
    optional = draw(st.lists(st.sampled_from(OPTIONAL), unique=True))
    header = draw(st.permutations(MANDATORY + optional))
    header += draw(st.lists(st.just("notes"), max_size=1))  # a column no field maps

    def field(name):
        if name == "loan_date":
            return st.sampled_from(LOAN_DATES)
        if name == "item_key":
            return st.sampled_from(KEYS * 4 + [""])
        if name == "title":
            return st.sampled_from(TITLES)
        if name == "loaner_id":
            return st.sampled_from(LOANERS)
        if name == "birthdate":
            return st.sampled_from(BIRTHDATES)
        if name in ENUM_VALUES:
            return st.sampled_from(ENUM_VALUES[name])
        return st.sampled_from(["", "x, y"])

    full_row = st.tuples(*(field(name) for name in header)).map(list)
    short_row = full_row.flatmap(lambda r: st.integers(0, len(r) - 1).map(lambda n: r[:n]))
    row = st.sampled_from([full_row] * 29 + [short_row]).flatmap(lambda rows: rows)
    rows = draw(st.lists(row, min_size=1, max_size=40))
    return header, rows, draw(st.sampled_from(["\n", "\r\n"]))


def maybe(values):
    """None (the field is unset) three times as often as each value."""
    return st.sampled_from([None] * (3 * len(values)) + list(values))


cohorts = st.builds(
    CohortFilter,
    age_range=maybe([(0, 30), (30, 46), (40, None), (0, 1)]),
    sex=maybe(list(Sex)),
    education=maybe(list(Education)),
    residence=maybe(list(Residence)),
    categories=maybe(
        [frozenset({Category.ADULT_FICTION}), frozenset(set(Category) - {Category.OTHER})]
    ),
)
catalogs = st.none() | st.dictionaries(
    st.sampled_from(KEYS), st.sampled_from(["K1", "K2", "C9"]), max_size=4
).map(CanonicalCatalog)


@pytest.fixture(scope="module")
def log_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "events.csv"


@settings(max_examples=300, deadline=None)
@given(
    log=logs(),
    granularity=st.sampled_from(["week", "month", "quarter"]),
    cohort=cohorts,
    catalog=catalogs,
    window=st.sampled_from([None, None, None]) | ranges,
    exclude=st.sampled_from([[], [], []]) | st.lists(ranges, min_size=1, max_size=2),
    max_bad=st.sampled_from([0.0, 0.05, 0.2, 0.2, 1.0, 1.0]),
)
def test_tally_equals_the_reference_reader(
    log_path, log, granularity, cohort, catalog, window, exclude, max_bad
):
    header, rows, newline = log
    with open(log_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator=newline)
        writer.writerow(header)
        writer.writerows(rows)
    assert_same(
        log_path,
        granularity,
        cohort,
        catalog,
        window=window,
        exclude=exclude,
        max_malformed_fraction=max_bad,
    )


@pytest.mark.parametrize(
    "cohort",
    [
        EVERYONE,
        CohortFilter(age_range=(30, 46)),
        CohortFilter(age_range=(65, None)),
        CohortFilter(sex=Sex.FEMALE),
        CohortFilter(education=Education.HIGHER),
        CohortFilter(residence=Residence.TOWN_RURAL),
        CohortFilter(categories=frozenset({Category.CHILDREN, Category.OTHER})),
    ],
    ids=lambda cohort: cohort.label,
)
def test_fixture_tally_equals_the_reference_reader(cohort):
    catalog = CanonicalCatalog({"K0000002": "K0000001", "K0000003": "K0000001"})
    dists, report, agg = assert_same(FIXTURE, "month", cohort, catalog)
    assert report.accepted == 1000 and agg.matched > 0
    assert_same(
        FIXTURE,
        "week",
        cohort,
        window=DateRange(date(2022, 1, 15), date(2022, 4, 10)),
        exclude=[DateRange(date(2022, 2, 1), date(2022, 2, 14))],
    )
