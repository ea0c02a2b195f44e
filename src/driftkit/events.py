"""Loan-log data model: time bins, cohort filters, and CSV ingestion.

`ingest` is the one pass from CSV rows to per-bin loans: it checks each
row, resolves each distinct date string once into its bin, window and
exclusion status, applies the cohort (`CohortFilter.admits`, the one cohort
rule) and appends the code of the row's raw item key in the pass's one key
table to its bin's `BinTally`, with no other per-row record. `open_table`
opens every input table (log, catalog, items table); `find_bin` finds a
bin by name.
"""

from __future__ import annotations

import csv
import logging
from array import array
from collections import Counter
from dataclasses import asdict, dataclass, field
from datetime import date, timedelta
from enum import Enum
from operator import itemgetter
from pathlib import Path
from typing import Iterator, Sequence

log = logging.getLogger(__name__)

GRANULARITIES = ("week", "month", "quarter")

# Monday 1970-01-05 anchors week indexing, so every week bin starts on a Monday.
_WEEK_EPOCH = date(1970, 1, 5).toordinal()


class Category(str, Enum):
    ADULT_FICTION = "adult_fiction"
    ADULT_NONFICTION = "adult_nonfiction"
    CHILDREN = "children"
    OTHER = "other"


class Medium(str, Enum):
    PHYSICAL = "physical"
    EBOOK = "ebook"
    AUDIOBOOK = "audiobook"
    OTHER = "other"


class Sex(str, Enum):
    FEMALE = "female"
    MALE = "male"
    UNKNOWN = "unknown"


class Education(str, Enum):
    BASIC = "basic"
    UPPER_SECONDARY = "upper_secondary"
    HIGHER = "higher"
    UNKNOWN = "unknown"


class Residence(str, Enum):
    LARGE_CITY = "large_city"
    TOWN_RURAL = "town_rural"
    UNKNOWN = "unknown"


@dataclass(frozen=True, slots=True)
class TimeBin:
    """One cell of the week/month/quarter partition of the timeline."""

    granularity: str
    index: int
    start: date
    end: date  # exclusive

    @property
    def label(self) -> str:
        return self.start.isoformat()

    def contains(self, d: date) -> bool:
        return self.start <= d < self.end


@dataclass(frozen=True)
class DateRange:
    """Inclusive calendar-day range, used for analysis windows and exclusions."""

    start: date
    end: date

    def __post_init__(self):
        if self.end < self.start:
            raise ValueError(f"range end {self.end} before start {self.start}")

    def contains(self, d: date) -> bool:
        return self.start <= d <= self.end


def assign_bin(d: date, granularity: str) -> TimeBin:
    """Return the unique bin of the given granularity containing the date."""
    if granularity == "month":
        index = (d.year - 1970) * 12 + (d.month - 1)
        start = date(d.year, d.month, 1)
        end = date(d.year + (d.month == 12), d.month % 12 + 1, 1)
    elif granularity == "week":
        index = (d.toordinal() - _WEEK_EPOCH) // 7
        start = date.fromordinal(_WEEK_EPOCH + index * 7)
        end = start + timedelta(days=7)
    elif granularity == "quarter":
        q = (d.month - 1) // 3
        index = (d.year - 1970) * 4 + q
        start = date(d.year, 3 * q + 1, 1)
        end = date(d.year + (q == 3), (3 * q + 3) % 12 + 1, 1)
    else:
        raise ValueError(f"unknown granularity: {granularity!r}")
    return TimeBin(granularity, index, start, end)


def bin_from_index(index: int, granularity: str) -> TimeBin:
    """Reconstruct a bin from its ordinal, the inverse of assign_bin on starts."""
    if granularity == "month":
        return assign_bin(date(1970 + index // 12, index % 12 + 1, 1), granularity)
    if granularity == "week":
        return assign_bin(date.fromordinal(_WEEK_EPOCH + index * 7), granularity)
    if granularity == "quarter":
        return assign_bin(date(1970 + index // 4, (index % 4) * 3 + 1, 1), granularity)
    raise ValueError(f"unknown granularity: {granularity!r}")


def find_bin(bins: Sequence[TimeBin], which: TimeBin | date | str) -> int:
    """Position of the bin that is ``which``, starts on it, or is labelled with it."""
    for k, tb in enumerate(bins):
        if tb == which or tb.start == which or tb.label == which:
            return k
    raise ValueError(f"bin {getattr(which, 'label', which)} not present")


def age_at(birthdate: date, on: date) -> int:
    """Whole years between birthdate and a reference date."""
    return on.year - birthdate.year - ((on.month, on.day) < (birthdate.month, birthdate.day))


@dataclass(frozen=True)
class CohortFilter:
    """Demographic and category predicate; empty fields match everything.

    Age is dynamic: it is evaluated against each event's date, so the same
    loaner can fall in different age bands on opposite sides of a birthday.
    """

    age_range: tuple[int, int | None] | None = None  # half-open [lo, hi)
    sex: Sex | None = None
    education: Education | None = None
    residence: Residence | None = None
    categories: frozenset[Category] | None = None

    def is_empty(self) -> bool:
        return (
            self.age_range is None
            and self.sex is None
            and self.education is None
            and self.residence is None
            and self.categories is None
        )

    def admits(
        self,
        on: date,
        birthdate: date | None,
        category: Category,
        sex: Sex,
        education: Education,
        residence: Residence,
        tally: Counter | None = None,
    ) -> bool:
        """The cohort rule: True iff every set field matches a loan made on ``on``.

        An age filter against a loan with no birthdate never matches; such
        loans are counted under ``missing_birthdate`` in the optional tally.
        """
        if self.age_range is not None:
            if birthdate is None:
                if tally is not None:
                    tally["missing_birthdate"] += 1
                return False
            lo, hi = self.age_range
            years = age_at(birthdate, on)
            if years < lo or (hi is not None and years >= hi):
                return False
        return (
            (self.sex is None or sex is self.sex)
            and (self.education is None or education is self.education)
            and (self.residence is None or residence is self.residence)
            and (self.categories is None or category in self.categories)
        )

    @property
    def label(self) -> str:
        if self.is_empty():
            return "all"
        parts = []
        if self.age_range is not None:
            lo, hi = self.age_range
            parts.append(f"age{lo}-{hi if hi is not None else ''}")
        if self.sex is not None:
            parts.append(f"sex={self.sex.value}")
        if self.education is not None:
            parts.append(f"edu={self.education.value}")
        if self.residence is not None:
            parts.append(f"res={self.residence.value}")
        if self.categories is not None:
            parts.append("cat=" + "+".join(sorted(c.value for c in self.categories)))
        return ",".join(parts)


EVERYONE = CohortFilter()


# CSV ingestion ---------------------------------------------------------------

DEFAULT_SCHEMA = {
    "date": "loan_date",
    "item_key": "item_key",
    "title": "title",
    "creator": "creator",
    "category": "category",
    "medium": "medium",
    "loaner_id": "loaner_id",
    "birthdate": "birthdate",
    "sex": "sex",
    "education": "education",
    "residence": "residence",
}

MANDATORY_FIELDS = ("date", "item_key", "title", "loaner_id")


class IngestError(Exception):
    """File-level ingestion failure (unreadable input, bad schema, dirty data)."""


class SchemaError(IngestError):
    pass


@dataclass
class IngestReport:
    """Row accounting for one ingestion pass; complete once the stream is exhausted.

    Every row is counted once: rows == accepted + out_of_window + excluded
    + malformed.
    """

    path: str = ""
    rows: int = 0
    accepted: int = 0
    out_of_window: int = 0
    excluded: int = 0
    malformed: int = 0
    flagged_enum_values: int = 0
    malformed_examples: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return asdict(self)


_MAX_EXAMPLES = 10

# the optional enum columns: schema field, value lookup, default member
_ENUM_FIELDS = tuple(
    (name, {m.value: m for m in enum}, default)
    for name, enum, default in (
        ("category", Category, Category.OTHER),
        ("medium", Medium, Medium.OTHER),
        ("sex", Sex, Sex.UNKNOWN),
        ("education", Education, Education.UNKNOWN),
        ("residence", Residence, Residence.UNKNOWN),
    )
)

_BAD = object()  # cache entry of a date or birthdate string that does not parse


@dataclass(slots=True)
class BinTally:
    """The raw item keys loaned in one time bin, from one ingestion pass.

    ``rows`` counts the accepted rows dated in the bin; ``codes`` holds the
    item key code of each one the cohort (labelled ``cohort``) admitted, in
    no meaningful order: code ``c`` is the raw item key ``keys[c]`` of the
    pass's key table, which all its tallies share. ``skipped`` says why
    other rows were not admitted.
    """

    bin: TimeBin
    cohort: str
    keys: list[str]
    codes: array = field(default_factory=lambda: array("q"))
    rows: int = 0
    skipped: Counter = field(default_factory=Counter)


def open_table(path, columns: dict[str, str], mandatory, missing: str):
    """Open a UTF-8 table (a BOM is skipped) and find its columns by header name.

    Returns the handle, a ``csv.reader`` past the header, and the position of
    each field of ``columns`` (field -> header name), None if absent. A file
    that cannot be read or decoded raises IngestError; no header, or no column
    for a ``mandatory`` field, SchemaError (``missing`` with path and column).
    """
    for fld in mandatory:
        if fld not in columns:
            raise SchemaError(f"schema does not map mandatory field {fld!r}")

    try:
        handle = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc

    reader = csv.reader(handle)
    try:
        header = next(reader)
    except StopIteration:
        handle.close()
        raise SchemaError(f"{path}: empty file, no header row")
    except (UnicodeDecodeError, csv.Error) as exc:
        handle.close()
        raise _read_error(path, 0, exc) from exc

    positions = {name: i for i, name in enumerate(header)}
    for fld, col in columns.items():
        if fld in mandatory and col not in positions:
            handle.close()
            raise SchemaError(missing.format(path=path, column=col))
    return handle, reader, {fld: positions.get(col) for fld, col in columns.items()}


def table_rows(path, handle, reader, width: int, missing: str, nonempty=()):
    """The non-blank data rows of a table from `open_table`, closing it at the end.

    A row of fewer than ``width`` fields raises SchemaError (``missing`` with
    PATH:LINE), and so does a row with an empty field of ``nonempty``, (name,
    position) pairs; a byte that is not UTF-8 or a field past the csv field
    limit, IngestError naming the last row read.
    """
    rows = 0
    with handle:
        try:
            for rows, row in enumerate(reader, 1):
                if len(row) < width:
                    if not row:
                        continue
                    raise SchemaError(missing.format(path=f"{path}:{reader.line_num}"))
                for name, i in nonempty:
                    if not row[i]:
                        raise SchemaError(f"{path}:{reader.line_num}: empty {name}")
                yield row
        except (UnicodeDecodeError, csv.Error) as exc:
            raise _read_error(path, rows, exc) from exc


def _read_error(path, rows: int, exc: UnicodeDecodeError | csv.Error) -> IngestError:
    """The IngestError of a read that failed after ``rows`` data rows."""
    if isinstance(exc, csv.Error):  # a field longer than csv.field_size_limit()
        return IngestError(f"{path}: {exc} after data row {rows}")
    byte = exc.object[exc.start : exc.start + 1].hex()
    return IngestError(
        f"{path}: undecodable byte 0x{byte} after data row {rows}: the file is not UTF-8"
    )


def ingest(
    path: str | Path,
    schema: dict[str, str] | None = None,
    window: DateRange | None = None,
    exclude: tuple[DateRange, ...] | list[DateRange] = (),
    max_malformed_fraction: float = 0.01,
    granularity: str = "month",
    cohort: CohortFilter = EVERYONE,
) -> tuple[Iterator[BinTally], IngestReport]:
    """Tally a delimited loan log into per-bin raw item key codes, in one pass.

    Returns the tally iterator and a report that is complete once the
    iterator is exhausted. Each row is checked in this order, and the first
    failed check counts it malformed: short row, bad date, empty item_key,
    title or loaner_id, bad birthdate, birthdate after the loan date. A
    well-formed row outside the window or inside an exclusion range is
    skipped and counted; every other row is accepted, its unknown non-empty
    enum values are counted, and it is counted in its bin if ``cohort``
    admits it. Each distinct date and birthdate string is
    parsed once. Once the file is exhausted, the iterator raises IngestError
    if more than ``max_malformed_fraction`` of rows were malformed, and
    otherwise yields one `BinTally` per bin with accepted rows, in bin
    order, all over the pass's one key table. The header is validated
    eagerly; a UTF-8 BOM is skipped, and bytes that are not UTF-8 or a field
    past csv's field size limit raise IngestError naming the last good row.
    """
    if granularity not in GRANULARITIES:
        raise ValueError(f"unknown granularity: {granularity!r}")
    missing = "{path}: missing mandatory column {column!r}"
    schema = DEFAULT_SCHEMA if schema is None else schema
    handle, reader, columns = open_table(path, schema, MANDATORY_FIELDS, missing)
    report = IngestReport(path=str(path))
    tallies = _tally_stream(
        handle,
        reader,
        columns,
        window,
        tuple(exclude),
        max_malformed_fraction,
        granularity,
        cohort,
        report,
    )
    return tallies, report


def _tally_stream(handle, reader, columns, window, exclude, max_bad, granularity, cohort, report):
    i_date, i_key, i_title, i_loaner = (columns[f] for f in MANDATORY_FIELDS)
    i_birth = columns.get("birthdate")
    ncols_min = max(i for i in columns.values() if i is not None) + 1
    enums = [(columns.get(f), lookup, default) for f, lookup, default in _ENUM_FIELDS]
    present = [i for i, _, _ in enums if i is not None]
    if len(present) > 1:
        enum_values = itemgetter(*present)
    else:  # itemgetter of one index returns a bare value, and of none fails
        enum_values = lambda row: tuple(row[i] for i in present)  # noqa: E731
    admits = None if cohort.is_empty() else cohort.admits
    label = cohort.label
    from_iso = date.fromisoformat

    tallies: dict[int, BinTally] = {}
    codes: dict[str, int] = {}  # raw item key -> code, in first-count order
    keys: list[str] = []  # the key table: ``codes``' keys, once the file is read
    # date string -> _BAD or (date, its bin's tally or None, 0 kept | 1 out of window | 2 excluded)
    days: dict[str, object] = {}
    births: dict[str, object] = {}  # birthdate string -> date or _BAD
    # enum strings -> (unknown non-empty values, (category, sex, education, residence))
    demographics: dict[tuple, tuple] = {}

    def resolve_day(text):
        try:
            d = from_iso(text)
        except ValueError:
            return _BAD
        if window is not None and not window.contains(d):
            return d, None, 1
        for rng in exclude:
            if rng.contains(d):
                return d, None, 2
        tb = assign_bin(d, granularity)
        tally = tallies.get(tb.index)
        if tally is None:
            tally = tallies[tb.index] = BinTally(tb, label, keys)
        return d, tally, 0

    def resolve_birth(text):
        try:
            return from_iso(text)
        except ValueError:
            return _BAD

    def resolve_enums(values):
        values = iter(values)
        flagged, members = 0, []
        for i, lookup, default in enums:
            raw = next(values) if i is not None else ""
            member = lookup.get(raw)
            if member is None:
                member = default
                flagged += bool(raw)
            members.append(member)
        category, _, sex, education, residence = members
        return flagged, (category, sex, education, residence)

    examples = report.malformed_examples

    def reject(row_no, reason):
        nonlocal malformed
        malformed += 1
        if len(examples) < _MAX_EXAMPLES:
            examples.append(f"row {row_no}: {reason}")

    rows = malformed = out_of_window = excluded = flagged = 0
    try:
        for rows, row in enumerate(reader, 1):
            if len(row) < ncols_min:
                reject(rows, "short row")
                continue
            text = row[i_date]
            day = days.get(text)
            if day is None:
                day = days[text] = resolve_day(text)
            if day is _BAD:
                reject(rows, f"bad date {text!r}")
                continue
            key = row[i_key]
            if not key or not row[i_title] or not row[i_loaner]:
                reject(rows, "empty mandatory field")
                continue
            d, tally, skip = day

            birth = None
            if i_birth is not None:
                raw = row[i_birth]
                if raw:
                    birth = births.get(raw)
                    if birth is None:
                        birth = births[raw] = resolve_birth(raw)
                    if birth is _BAD:
                        reject(rows, f"bad birthdate {raw!r}")
                        continue
                    if birth > d:
                        reject(rows, "birthdate after loan date")
                        continue

            if skip:
                if skip == 1:
                    out_of_window += 1
                else:
                    excluded += 1
                continue

            values = enum_values(row)
            demo = demographics.get(values)
            if demo is None:
                demo = demographics[values] = resolve_enums(values)
            flagged += demo[0]
            tally.rows += 1
            if admits is not None and not admits(d, birth, *demo[1], tally.skipped):
                continue
            tally.codes.append(codes.setdefault(key, len(codes)))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise _read_error(report.path, rows, exc) from exc
    finally:
        handle.close()
        report.rows = rows
        report.malformed = malformed
        report.out_of_window = out_of_window
        report.excluded = excluded
        report.accepted = rows - malformed - out_of_window - excluded
        report.flagged_enum_values = flagged

    if rows and malformed > max_bad * rows:
        raise IngestError(
            f"{report.path}: {malformed} of {rows} rows malformed "
            f"(threshold {max_bad:.1%}); first offenders: {examples}"
        )
    days.clear()
    keys.extend(codes)
    for index in sorted(tallies):
        tally = tallies.pop(index)
        if tally.rows:
            yield tally
