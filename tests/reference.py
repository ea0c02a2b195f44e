"""Reference implementations that the tests compare the library against.

Each is written apart from the code it checks, with plain dicts, loops,
``math.log2`` and ``math.fsum``; a test parses this file to make sure it
imports none of ``driftkit.divergence``, ``driftkit.estimators``,
``driftkit.analysis`` and ``CountPanel``. ``read_events`` is the per-row
loan reader and ``matches`` the cohort test of one loan, the oracle of the
ingest tally; ``tallies_of`` builds one pass's tallies by hand;
``rank_items`` ranks a mapping's items by descending score, then id;
``tsallis`` is the order-alpha entropy of a plain dict;
``partials`` splits JSD, alpha-JSD or the Jaccard distance of two plain
dicts into per-item shares, and ``value`` sums them. ``normalize_text``,
``build_catalog`` and ``canonicalize`` are the plain canonicalizer (two regex
substitutions, a (title, creator) tuple and a key list per signature, one
``RawItem`` per signature and a forward window over the sorted items); its
``Catalog`` record holds a mapping and groups that its own loops build.
"""

from __future__ import annotations

import heapq
import math
import re
from collections import Counter
from dataclasses import dataclass
from datetime import date
from typing import Iterable, Mapping, Sequence

from driftkit import events
from driftkit.canon import DEFAULT_MAX_EDIT, DEFAULT_WINDOW, digit_token, edit_distance_at_most
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


def tallies_of(dists) -> list[events.BinTally]:
    """One hand-built ingest pass: a `BinTally` per distribution, over one shared key table.

    Each tally counts its distribution's items by code, in the distribution's
    item order, with the distribution's total as its rows.
    """
    keys = list(dict.fromkeys(key for d in dists for key in d.counts))
    code = {key: c for c, key in enumerate(keys)}
    return [
        events.BinTally(
            d.bin, d.cohort, keys, Counter({code[k]: n for k, n in d.counts.items()}), d.total
        )
        for d in dists
    ]


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


# The plain canonicalizer, the oracle of `canon.normalize_text` and
# `canon.canonicalize`: a (title, creator) tuple and a key list per
# signature, an item per signature paired within a forward window, a dict
# disjoint set over every key.

_STRIP_RE = re.compile(r"[^0-9a-z ]+")
_SPACE_RE = re.compile(r" +")


def normalize_text(text: str) -> str:
    """Lowercase, drop anything that is not a letter, digit or space, collapse runs of spaces."""
    cleaned = _STRIP_RE.sub(" ", text.lower())
    return _SPACE_RE.sub(" ", cleaned).strip()


def _strip_digit_token(title_norm: str, token: str) -> str:
    words = title_norm.split(" ")
    for i in range(len(words) - 1, -1, -1):
        if words[i] == token:
            del words[i]
            break
    return " ".join(words)


@dataclass(frozen=True, slots=True)
class RawItem:
    """Normalized view of one catalog row, its derived fields set once.

    ``title_core`` is the title with the edition digit removed, the basis for
    edit-distance checks; ``edition`` is the numeric edition, with a missing
    digit reading as edition 1.
    """

    item_key: str
    title_norm: str
    creator_norm: str
    digit_token: str | None
    title_core: str
    edition: int


def _raw_item(item_key: str, title_norm: str, creator_norm: str) -> RawItem:
    token = digit_token(title_norm)
    if token is None:
        return RawItem(item_key, title_norm, creator_norm, None, title_norm, 1)
    core = _strip_digit_token(title_norm, token)
    return RawItem(item_key, title_norm, creator_norm, token, core, int(token))


def candidate_pairs(
    items: Sequence[RawItem],
    window: int = DEFAULT_WINDOW,
    max_edit: int = DEFAULT_MAX_EDIT,
) -> list[tuple[RawItem, RawItem]]:
    """All variant pairs within a forward window of the sorted item list.

    ``items`` must be sorted by (title_norm, creator_norm) and hold one row
    per distinct normalized signature. A pair qualifies when the digit-free
    title cores and the creators are each within ``max_edit`` and the
    edition digits agree.
    """
    pairs = []
    n = len(items)
    for i in range(n):
        a = items[i]
        a_core = a.title_core
        a_ed = a.edition
        for j in range(i + 1, min(i + 1 + window, n)):
            b = items[j]
            if b.edition != a_ed:
                continue
            if not edit_distance_at_most(a_core, b.title_core, max_edit):
                continue
            if not edit_distance_at_most(a.creator_norm, b.creator_norm, max_edit):
                continue
            pairs.append((a, b))
    return pairs


class _DisjointSet:
    def __init__(self):
        self.parent: dict[str, str] = {}

    def add(self, x: str):
        if x not in self.parent:
            self.parent[x] = x

    def find(self, x: str) -> str:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: str, b: str):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


@dataclass
class Catalog:
    """The reference canonicalizer's result: each key's canonical id, and
    each canonical id's keys, both built by its own loops."""

    mapping: dict[str, str]
    groups: dict[str, list[str]]


def build_catalog(all_keys: Iterable[str], pairs: Iterable[tuple[str, str]]) -> Catalog:
    """Disjoint-set closure of pairs over the full key universe."""
    ds = _DisjointSet()
    for key in all_keys:
        ds.add(key)
    for a, b in pairs:
        ds.add(a)
        ds.add(b)
        ds.union(a, b)
    members: dict[str, list[str]] = {}
    for key in ds.parent:
        members.setdefault(ds.find(key), []).append(key)
    mapping: dict[str, str] = {}
    groups: dict[str, list[str]] = {}
    for bunch in members.values():
        bunch.sort()
        canon_id = bunch[0]
        groups[canon_id] = bunch
        for key in bunch:
            mapping[key] = canon_id
    return Catalog(mapping, groups)


def canonicalize(
    rows: Iterable[tuple[str, str, str]],
    window: int = DEFAULT_WINDOW,
    max_edit: int = DEFAULT_MAX_EDIT,
) -> Catalog:
    """Full pipeline over (item_key, title, creator) rows.

    Each row's text is normalized once, and rows sharing an identical
    normalized signature collapse into one slot before the windowed
    comparison; the edition fields are derived once per distinct signature,
    and pairing operates on the distinct, sorted signatures.
    """
    by_signature: dict[tuple[str, str], list[str]] = {}
    for key, title, creator in rows:
        by_signature.setdefault((normalize_text(title), normalize_text(creator)), []).append(key)

    signatures = sorted(by_signature)
    distinct = [_raw_item(min(by_signature[sig]), *sig) for sig in signatures]
    pair_keys = [(a.item_key, b.item_key) for a, b in candidate_pairs(distinct, window, max_edit)]

    all_keys: list[str] = []
    same_signature: list[tuple[str, str]] = []
    for sig in signatures:
        keys = by_signature[sig]
        all_keys.extend(keys)
        head = min(keys)
        same_signature.extend((head, k) for k in keys if k != head)

    return build_catalog(all_keys, pair_keys + same_signature)
