"""Merge edition and media variants of the same title into one canonical item.

The rule set is one pass: normalize titles/creators, sort the distinct
(title, creator) signatures, compare each with the ten before it, pair two
whose digit-free titles and creators are both within edit distance 1 and
whose edition digits agree (a missing digit counts as edition 1), then take
the transitive closure of the pairs.

Normalizing lowercases the text and keeps its runs of ASCII letters and
digits, joined by single spaces; everything else (punctuation, whitespace
of any kind, accented letters) only separates words.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable

DEFAULT_WINDOW = 10
DEFAULT_MAX_EDIT = 1

_WORDS = re.compile(r"[0-9a-z]+").findall


def normalize_text(text: str) -> str:
    """The lowercased text's runs of ASCII letters and digits, joined by single spaces.

    ``lower`` is Unicode's, so it can yield ASCII letters (the Kelvin sign's "k").
    """
    return " ".join(_WORDS(text.lower()))


def digit_token(title_norm: str) -> str | None:
    """Edition marker: the last all-digit word of the normalized title.

    Only digit runs of length 1 or 2 qualify; a title containing any longer
    run (a year, an ISBN fragment) carries no marker at all.
    """
    token = None
    for word in title_norm.split(" "):
        if word.isdigit():
            if len(word) > 2:
                return None
            token = word
    return token


def _edition(title_norm: str) -> tuple[str, int]:
    """The title without its edition digit, the basis of edit-distance checks,
    and the edition number, a missing digit reading as edition 1."""
    token = digit_token(title_norm)
    if token is None:
        return title_norm, 1
    words = title_norm.split(" ")
    del words[len(words) - 1 - words[::-1].index(token)]  # the token's last occurrence
    return " ".join(words), int(token)


def edit_distance_at_most(a: str, b: str, limit: int) -> bool:
    """Levenshtein distance with unit costs, early-exited at the limit.

    Limit 1, the canonicalizer's, compares slices, not characters. Strings
    whose last characters differ can hold their one edit only at the end;
    most pairs of sorted neighbours end that way. Otherwise, with ``b`` the
    longer string by ``shift`` characters, ``a`` and ``b`` agree outside a
    span ``[lo, hi)`` of ``a`` (past ``hi``, ``b`` shifted by ``shift``).
    Each step halves the span and keeps the half that disagrees; a span
    whose halves both disagree holds two edits.
    """
    if a == b:
        return True
    if len(a) > len(b):
        a, b = b, a
    la, lb = len(a), len(b)
    shift = lb - la
    if shift > limit:
        return False
    if limit == 1:
        if a[-1:] != b[-1:]:
            return a[: lb - 1] == b[: lb - 1]
        lo, hi = 0, la
        while hi - lo > 1:
            mid = (lo + hi) >> 1
            if a[lo:mid] == b[lo:mid]:
                lo = mid
            elif a[mid:hi] == b[mid + shift : hi + shift]:
                hi = mid
            else:
                return False
        # one substitution, or a[lo:hi] (at most one character) is b[lo] or b[lo + 1]
        return not shift or a[lo:hi] in b[lo : hi + 1]
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        best = cur0 = i
        row = [cur0]
        ca = a[i - 1]
        for j in range(1, lb + 1):
            cost = prev[j - 1] + (ca != b[j - 1])
            cost = min(cost, prev[j] + 1, row[j - 1] + 1)
            row.append(cost)
            if cost < best:
                best = cost
        if best > limit:
            return False
        prev = row
    return prev[lb] <= limit


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
class CanonicalCatalog:
    """Partition of raw item keys into canonical items, held as its mapping.

    ``mapping`` sends each raw key to its canonical id, the lexicographically
    smallest item key of its group. A catalog is its mapping: ``groups``
    (each canonical id's keys, in mapping order) is derived from it when
    first read.
    """

    mapping: dict[str, str]

    def canonical(self, item_key: str) -> str:
        return self.mapping.get(item_key, item_key)

    @cached_property
    def groups(self) -> dict[str, list[str]]:
        groups: dict[str, list[str]] = {}
        for key, canon_id in self.mapping.items():
            groups.setdefault(canon_id, []).append(key)
        return groups

    @property
    def n_items(self) -> int:
        return len(self.mapping)

    @property
    def n_canonical(self) -> int:
        return len(self.groups)


def build_catalog(
    all_keys: Iterable[str], pairs: Iterable[tuple[str, str]]
) -> CanonicalCatalog:
    """Disjoint-set closure of pairs over the full key universe; the mapping
    runs group by group, each sorted, in the order of their first keys there."""
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
    for bunch in members.values():
        bunch.sort()
        mapping.update(dict.fromkeys(bunch, bunch[0]))
    return CanonicalCatalog(mapping)


def canonicalize(
    rows: Iterable[tuple[str, str, str]],
    window: int = DEFAULT_WINDOW,
    max_edit: int = DEFAULT_MAX_EDIT,
) -> CanonicalCatalog:
    """Full pipeline over (item_key, title, creator) rows.

    Each row is keyed by one signature string, ``title_norm + "\\0" +
    creator_norm``; ``"\\0"`` sorts below every normalized character, so sorted
    signatures are in (title, creator) order. A signature keeps its first
    key, its head, and a later row of it only adds a (head, key) pair, so rows
    sharing a signature collapse into one slot. One pass over the sorted
    signatures derives each one's edition fields and compares it with the
    ``window`` signatures before it, the only ones kept. The heads in
    signature order are the key universe: `build_catalog` orders the groups
    by their first key there, every group holds a head, and the later keys
    join through their pairs. A ``window`` below 1 or a ``max_edit`` below 0
    raises ValueError before any row is read.
    """
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    if max_edit < 0:
        raise ValueError(f"max_edit must be at least 0, got {max_edit}")
    first: dict[str, str] = {}
    # each pair's two keys go in two flat lists, here and in the windowed
    # comparison: a tuple per pair would pin the freed signatures' memory pages
    later_heads: list[str] = []
    later_keys: list[str] = []
    for key, title, creator in rows:
        head = first.setdefault(f"{normalize_text(title)}\0{normalize_text(creator)}", key)
        if head != key:
            later_heads.append(head)
            later_keys.append(key)

    heads: list[str] = []
    lefts: list[str] = []
    rights: list[str] = []
    recent: deque[tuple[str, str, int, str]] = deque(maxlen=window)
    for signature in sorted(first):
        head = first[signature]
        title, creator = signature.split("\0")
        core, edition = _edition(title)
        for left, left_core, left_edition, left_creator in recent:
            if (
                left_edition == edition
                and edit_distance_at_most(left_core, core, max_edit)
                and edit_distance_at_most(left_creator, creator, max_edit)
            ):
                lefts.append(left)
                rights.append(head)
        recent.append((head, core, edition, creator))
        heads.append(head)
    del first
    return build_catalog(heads, chain(zip(lefts, rights), zip(later_heads, later_keys)))
