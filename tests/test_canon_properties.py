"""The canonicalizer against the plain one in ``tests/reference.py``, and its memory.

``canon.normalize_text`` must give the reference's string for any text, and
``canon.canonicalize`` the reference's ``mapping`` and ``groups``, dict order
included, since ``write_mapping`` and every caller of a catalog read them in
that order. The corpora are drawn to hit what the signature-keyed code treats
apart: repeated signatures and keys, titles that normalize to nothing, empty
creators, edition tokens of one to three digits, edit-1 neighbours and row
order. ``read_mapping`` must give back the catalog that ``write_mapping``
wrote, and leave its groups to be derived when first read. The memory guard
keeps a per-row tuple or list, or a per-signature item list, from coming
back.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as oracle
from driftkit.canon import canonicalize, normalize_text
from driftkit.tabular import read_mapping, write_mapping

# punctuation runs, tabs, NBSP, digits, upper case, and letters whose
# lowercase is or holds ASCII: dotted capital I, Kelvin sign, sharp s
TRICKY = " \t\n\xa0 -.,!?'\"_/()0123456789aAbBzZİKßé中"


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(), st.text(st.sampled_from(TRICKY), max_size=30)))
def test_normalize_text_equals_the_reference(text):
    assert normalize_text(text) == oracle.normalize_text(text)


def test_normalize_text_named_cases():
    cases = ["HARRY  POTTER", "!!!", "", " \t\xa0 ", "Kelvin K", "İstanbul", "a--b__c", "Vol.12"]
    for text in cases:
        assert normalize_text(text) == oracle.normalize_text(text)
    assert normalize_text("İstanbul") == "i stanbul"
    assert normalize_text("Kelvin K") == "kelvin k"


WORDS = ["saga", "sagb", "the", "pixel", "ninja", "nnja", "a", "b"]
EDITIONS = ["", " 1", " 2", " 12", " 123"]
CREATORS = ["", "w one", "w onf", "W. One", "x"]


@st.composite
def corpora(draw):
    """(item_key, title, creator) rows built from a few words, with their variants."""
    bases = draw(st.lists(st.lists(st.sampled_from(WORDS), min_size=1, max_size=3), max_size=12))
    rows = []
    for words in bases:
        title = " ".join(words)
        creator = draw(st.sampled_from(CREATORS))
        kinds = st.sampled_from(["same", "punct", "edit", "edition", "bare"])
        variants = draw(st.lists(kinds, max_size=4))
        rows.append((title, creator))
        for kind in variants:
            if kind == "same":  # a repeated signature
                rows.append((title, creator))
            elif kind == "punct":
                rows.append((title.upper() + "!!", creator + "."))
            elif kind == "edit":  # one substitution, insertion or deletion
                at = draw(st.integers(0, len(title)))
                new = draw(st.sampled_from("aqz "))
                cut = draw(st.booleans())
                rows.append((title[:at] + ("" if cut else new) + title[at + cut :], creator))
            elif kind == "edition":
                rows.append((title + draw(st.sampled_from(EDITIONS)), creator))
            else:  # a title that normalizes to nothing
                rows.append(("?!" * draw(st.integers(0, 2)), creator))
    # keys from a small pool, so that one key can name two rows
    pool = st.sampled_from([f"k{i}" for i in range(30)])
    keys = draw(st.lists(pool, min_size=len(rows), max_size=len(rows)))
    rows = [(key, title, creator) for key, (title, creator) in zip(keys, rows)]
    return draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(corpora(), st.integers(1, 12), st.integers(0, 2))
def test_canonicalize_equals_the_reference(rows, window, max_edit):
    got = canonicalize(rows, window=window, max_edit=max_edit)
    want = oracle.canonicalize(rows, window=window, max_edit=max_edit)
    assert list(got.mapping.items()) == list(want.mapping.items())
    assert list(got.groups.items()) == list(want.groups.items())


@pytest.fixture(scope="module")
def mapping_path(tmp_path_factory):
    return tmp_path_factory.mktemp("catalog") / "mapping.csv"


@settings(max_examples=200, deadline=None)
@given(rows=corpora())
def test_read_mapping_round_trips_the_catalog(mapping_path, rows):
    catalog = canonicalize(rows)
    write_mapping(mapping_path, catalog.mapping)
    back = read_mapping(mapping_path)
    # the file is in key order, and each canonical id is its group's smallest key
    assert list(back.mapping.items()) == sorted(catalog.mapping.items())
    assert back.groups == catalog.groups and list(back.groups) == sorted(catalog.groups)
    assert (back.n_items, back.n_canonical) == (catalog.n_items, catalog.n_canonical)


def test_read_mapping_leaves_the_groups_unbuilt(tmp_path):
    write_mapping(tmp_path / "mapping.csv", {"a1": "a1", "a2": "a1", "b": "b"})
    catalog = read_mapping(tmp_path / "mapping.csv")
    assert "groups" not in vars(catalog)
    assert catalog.n_canonical == 2 and "groups" in vars(catalog)


def memory_corpus(n_bases: int, seed: int) -> list[tuple[str, str, str]]:
    """Five rows per base title: itself, a typo, punctuation, edition 1 and an edition-2 decoy."""
    rng = np.random.default_rng(seed)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    rows = []
    for i in range(n_bases):
        title = "".join(rng.choice(letters, 14))
        creator = "w" + "".join(rng.choice(letters, 10))
        key = f"K{i:07d}"
        rows += [
            (key, title, creator),
            (f"{key}_typo", title[:-1] + "q", creator),
            (f"{key}_punct", title.upper() + "!", creator),
            (f"{key}_ed1", title + " 1", creator),
            (f"{key}_ed2", title + " 2", creator),
        ]
    return [rows[j] for j in rng.permutation(len(rows))]


def traced_peak(fn, *args) -> int:
    """tracemalloc's peak, in bytes, over one call of ``fn``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# On the 20k-row corpus below (x86-64, CPython 3.11.7) the plain canonicalizer
# of tests/reference.py peaks at 506-512 B/row and the one-pass one at
# 123 B/row, 0.24 of it; the bound is that ratio + 25%. A ratio, not a byte
# count, since object sizes differ between CPython versions.
PEAK_RATIO_TO_REFERENCE = 0.30


def test_canonicalize_peak_memory_against_reference():
    rows = memory_corpus(4000, seed=23)
    catalog = canonicalize(rows)
    assert catalog.n_items == len(rows) and catalog.n_canonical == 2 * 4000
    del catalog
    ratio = traced_peak(canonicalize, rows) / traced_peak(oracle.canonicalize, rows)
    assert ratio < PEAK_RATIO_TO_REFERENCE, f"{ratio:.3f} of the reference peak"
