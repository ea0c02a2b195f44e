"""Reference implementations that the tests compare the library against.

Each is written apart from the code it checks, with plain dicts, loops,
``math.log2`` and ``math.fsum``; a test parses this file to make sure it
imports none of ``driftkit.divergence``, ``driftkit.estimators``,
``driftkit.analysis`` and ``CountPanel``. ``read_events`` is the per-row
loan reader and ``matches`` the cohort test of one loan, the oracle of the
ingest tally; ``rank_items`` ranks a mapping's items by descending score,
then id; ``tsallis`` is the order-alpha entropy of a plain dict;
``partials`` splits JSD, alpha-JSD or the Jaccard distance of two plain
dicts into per-item shares, and ``value`` sums them.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from datetime import date
from typing import Mapping

from driftkit import events
from driftkit.events import Category, CohortFilter, Education, Medium, Residence, Sex

# the optional enum columns: schema field, enum, the member of a missing or unknown value
ENUMS = (
    ("category", Category, Category.OTHER),
    ("medium", Medium, Medium.OTHER),
    ("sex", Sex, Sex.UNKNOWN),
    ("education", Education, Education.UNKNOWN),
    ("residence", Residence, Residence.UNKNOWN),
)


@dataclass(frozen=True, slots=True)
class LoanEvent:
    """One consumption record, demographics snapshotted at loan time."""

    date: date
    item_key: str
    title: str
    creator: str
    category: Category
    medium: Medium
    loaner_id: str
    birthdate: date | None
    sex: Sex
    education: Education
    residence: Residence


def matches(event: LoanEvent, cohort: CohortFilter, tally: Counter | None = None) -> bool:
    """True iff all present filter fields match the event (`CohortFilter.admits`)."""
    demographics = (event.category, event.sex, event.education, event.residence)
    return cohort.admits(event.date, event.birthdate, *demographics, tally)


def read_events(path, schema=None, window=None, exclude=(), max_malformed_fraction=0.01):
    """Stream one `LoanEvent` per accepted row, and the `IngestReport`.

    The report is complete once the stream is exhausted; a log with too
    many malformed rows raises IngestError at its end, after its events.
    """
    schema = events.DEFAULT_SCHEMA if schema is None else schema
    missing = "{path}: missing mandatory column {column!r}"
    handle, reader, columns = events.open_table(path, schema, events.MANDATORY_FIELDS, missing)
    report = events.IngestReport(path=str(path))
    return _events(handle, reader, columns, window, exclude, max_malformed_fraction, report), report


def _parse_day(text: str) -> date | None:
    try:
        return date.fromisoformat(text)
    except ValueError:
        return None


def _events(handle, reader, columns, window, exclude, max_bad, report):
    width = max(i for i in columns.values() if i is not None) + 1

    def field(row, name):
        i = columns.get(name)
        return row[i] if i is not None else ""

    def reject(reason):
        report.malformed += 1
        if len(report.malformed_examples) < 10:
            report.malformed_examples.append(f"row {report.rows}: {reason}")

    with handle:
        for row in reader:
            report.rows += 1
            if len(row) < width:
                reject("short row")
                continue
            day = _parse_day(row[columns["date"]])
            if day is None:
                reject(f"bad date {row[columns['date']]!r}")
                continue
            key, title, loaner = (row[columns[name]] for name in ("item_key", "title", "loaner_id"))
            if not key or not title or not loaner:
                reject("empty mandatory field")
                continue
            raw = field(row, "birthdate")
            birth = _parse_day(raw) if raw else None
            if raw and (birth is None or birth > day):
                reject(f"bad birthdate {raw!r}" if birth is None else "birthdate after loan date")
                continue
            if window is not None and not window.contains(day):
                report.out_of_window += 1
                continue
            if any(rng.contains(day) for rng in exclude):
                report.excluded += 1
                continue
            members = {}
            for name, enum, default in ENUMS:
                raw = field(row, name)
                member = next((m for m in enum if m.value == raw), None)
                if member is None:
                    member = default
                    report.flagged_enum_values += bool(raw)
                members[name] = member
            report.accepted += 1
            creator = field(row, "creator")
            yield LoanEvent(day, key, title, creator, loaner_id=loaner, birthdate=birth, **members)

    if report.rows and report.malformed > max_bad * report.rows:
        raise events.IngestError(
            f"{report.path}: {report.malformed} of {report.rows} rows malformed "
            f"(threshold {max_bad:.1%}); first offenders: {report.malformed_examples}"
        )


def rank_items(scores: Mapping[str, int], k: int | None = None) -> list[str]:
    """Item ids by descending score, then id; only the first k if k is given."""

    def key(item):
        return -scores[item], item

    return sorted(scores, key=key) if k is None else heapq.nsmallest(k, scores, key=key)


def check_probabilities(probs: Mapping[str, float], tol: float = 1e-12) -> bool:
    """Exact-summation check that probabilities form a distribution."""
    positive = bool(probs) and all(p > 0.0 for p in probs.values())
    return positive and abs(math.fsum(probs.values()) - 1.0) <= tol


def tsallis(D: Mapping[str, float], alpha: float) -> float:
    """Order-alpha entropy (sum p^alpha - 1) / (1 - alpha) of a plain dict; zeros take no part."""
    return (math.fsum(x**alpha for x in D.values() if x > 0.0) - 1.0) / (1.0 - alpha)


def partials(kind: str, P: Mapping[str, float], Q: Mapping[str, float], alpha=None) -> dict:
    """Each union item's share of measure ``kind`` ('jsd', 'jsd_alpha' or 'jaccard').

    JSD: (p log2(2p / (p + q)) + q log2(2q / (p + q))) / 2 bits. Alpha-JSD:
    (m^a - (p^a + q^a) / 2) / (1 - a) over the maximum (2^(1-a) - 1)
    (S(P) + S(Q) + 2 / (1 - a)) / 2, S the Tsallis entropy; order 1 is the
    JSD and order 0 one minus the Dice overlap. Jaccard (Dice): an item in
    one support only adds 1 / |P or Q| (1 / (|P| + |Q|)).
    """
    ids = list(P) + [k for k in Q if k not in P]
    pairs = {k: (P.get(k, 0.0), Q.get(k, 0.0)) for k in ids}
    if kind == "jsd" or (kind == "jsd_alpha" and alpha == 1.0):
        return {
            k: 0.5 * math.fsum(x * math.log2(2.0 * x / (p + q)) for x in (p, q) if x > 0.0)
            for k, (p, q) in pairs.items()
        }
    if kind == "jaccard" or alpha == 0.0:
        only_one = {k: (p > 0.0) != (q > 0.0) for k, (p, q) in pairs.items()}
        if kind == "jaccard":
            size = sum(1 for p, q in pairs.values() if p > 0.0 or q > 0.0)
        else:
            size = sum(1 for p, q in pairs.values() for x in (p, q) if x > 0.0)
        return {k: one / size for k, one in only_one.items()}

    def power(x):
        return x**alpha if x > 0.0 else 0.0

    sides = tsallis(P, alpha) + tsallis(Q, alpha)
    maximum = 0.5 * (2.0 ** (1.0 - alpha) - 1.0) * (sides + 2.0 / (1.0 - alpha))
    return {
        k: (power((p + q) / 2.0) - (power(p) + power(q)) / 2.0) / (1.0 - alpha) / maximum
        for k, (p, q) in pairs.items()
    }


def value(kind: str, P: Mapping[str, float], Q: Mapping[str, float], alpha=None) -> float:
    """Measure ``kind`` between two plain dicts: the exact sum of its ``partials``."""
    return math.fsum(partials(kind, P, Q, alpha).values())
