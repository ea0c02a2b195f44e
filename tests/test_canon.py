import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftkit.canon import (
    CanonicalCatalog,
    build_catalog,
    canonicalize,
    digit_token,
    edit_distance_at_most,
    normalize_text,
)


def merged(rows, **kwargs):
    """The groups of more than one key that ``canonicalize`` makes of ``rows``."""
    catalog = canonicalize(rows, **kwargs)
    return [group for group in catalog.groups.values() if len(group) > 1]


class TestNormalize:
    def test_special_characters_removed(self):
        assert normalize_text("Pixel Ninja!") == "pixel ninja"
        assert digit_token("pixel ninja") is None
        assert normalize_text("A. Writer") == "a writer"

    def test_edition_digit_kept(self):
        assert normalize_text("Pixel Ninja 1") == "pixel ninja 1"
        assert digit_token("pixel ninja 1") == "1"
        # only the digit-free core is one edit from "pixel ninjas"
        rows = [("k1", "Pixel Ninja 1", "A. Writer"), ("k2", "Pixel Ninjas", "A. Writer")]
        assert merged(rows) == [["k1", "k2"]]
        # the marker is the last digit word, so both cores read "2 saga"
        assert merged([("a", "2 saga 2", "w"), ("b", "2 2 saga", "w")]) == [["a", "b"]]

    def test_case_and_space_collapse(self):
        assert normalize_text("HARRY  POTTER") == "harry potter"

    def test_empty_result_allowed(self):
        assert normalize_text("!!!") == ""

    def test_digit_token_rules(self):
        assert digit_token("pixel ninja 2") == "2"
        assert digit_token("vol 12 saga") == "12"
        assert digit_token("a 2 b 3") == "3"  # last run wins
        assert digit_token("history 1984") is None  # runs of 3+ disqualify
        assert digit_token("part 2 of 1984") is None
        assert digit_token("plain title") is None

    def test_missing_digit_reads_as_edition_one(self):
        rows = [("a", "Pixel Ninja", "w"), ("b", "Pixel Ninja 1", "w"), ("c", "Pixel Ninja 2", "w")]
        assert merged(rows) == [["a", "b"]]


def levenshtein(a, b):
    la, lb = len(a), len(b)
    dp = [[0] * (lb + 1) for _ in range(la + 1)]
    for i in range(la + 1):
        dp[i][0] = i
    for j in range(lb + 1):
        dp[0][j] = j
    for i in range(1, la + 1):
        for j in range(1, lb + 1):
            dp[i][j] = min(
                dp[i - 1][j] + 1,
                dp[i][j - 1] + 1,
                dp[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return dp[la][lb]


class TestEditDistance:
    @pytest.mark.parametrize(
        "a,b,limit,expected",
        [
            ("abc", "abc", 1, True),
            ("abc", "abd", 1, True),
            ("abc", "ab", 1, True),
            ("abc", "xabc", 1, True),
            ("abc", "axbxc", 1, False),
            ("abc", "xyz", 1, False),
            ("mara s song", "maras song", 1, True),
            ("abcd", "badc", 2, False),
            ("abcd", "acbd", 2, True),
        ],
    )
    def test_cases(self, a, b, limit, expected):
        assert edit_distance_at_most(a, b, limit) is expected

    def test_agrees_with_reference(self, rng):
        letters = "ab"
        for _ in range(300):
            a = "".join(rng.choice(list(letters), size=rng.integers(0, 6)))
            b = "".join(rng.choice(list(letters), size=rng.integers(0, 6)))
            for limit in (1, 2):
                assert edit_distance_at_most(a, b, limit) == (levenshtein(a, b) <= limit)

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_limit_one_agrees_with_reference(self, data):
        # the canonicalizer's limit takes the slice path; b is a with up to two
        # edits, so equal strings and length gaps of 0, 1 and 2 all occur
        text = st.text(st.sampled_from("ab é中"), max_size=40)
        a = data.draw(text, label="a")
        b = a
        for _ in range(data.draw(st.integers(0, 2), label="edits")):
            at = data.draw(st.integers(0, len(b)), label="at")
            kind = data.draw(st.sampled_from(["insert", "delete", "substitute"]), label="kind")
            new = data.draw(st.sampled_from("ab é中"), label="char")
            if kind == "insert":
                b = b[:at] + new + b[at:]
            else:
                b = b[:at] + (new if kind == "substitute" else "") + b[at + 1 :]
        if data.draw(st.booleans(), label="unrelated"):
            b = data.draw(text, label="b")
        want = levenshtein(a, b) <= 1
        assert edit_distance_at_most(a, b, 1) is want
        assert edit_distance_at_most(b, a, 1) is want


class TestCandidatePairs:
    """Which signatures the windowed comparison pairs."""

    def test_edition_variant_pairs(self):
        rows = [("a", "pixel ninja", "same writer"), ("b", "pixel ninja 1", "same writer")]
        assert merged(rows) == [["a", "b"]]

    def test_different_editions_do_not_pair(self):
        rows = [("a", "pixel ninja 1", "same writer"), ("b", "pixel ninja 2", "same writer")]
        assert merged(rows) == []

    def test_typo_title_pairs(self):
        rows = [("a", "mara s song", "same writer"), ("b", "maras song", "same writer")]
        assert merged(rows) == [["a", "b"]]

    def test_creator_distance_blocks(self):
        rows = [("a", "same title", "writer one"), ("b", "same title", "other person")]
        assert merged(rows) == []

    def test_window_limits_comparisons(self):
        # 11 distinct fillers sort between the two variants, pushing them apart
        titles = ["aaa x", "aaa y"]  # distance 1
        titles += [f"aaa x{c} yyyy {c}{c}" for c in "bcdefghijkl"]
        rows = [(f"k{i}", title, "same writer") for i, title in enumerate(titles)]
        assert merged(rows, window=5) == []
        assert merged(rows, window=len(rows)) == [["k0", "k1"]]


class TestBuildCatalog:
    def test_transitive_grouping(self):
        catalog = build_catalog(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert catalog.n_canonical == 1
        assert catalog.mapping == {"a": "a", "b": "a", "c": "a"}

    def test_no_pairs_gives_singletons(self):
        catalog = build_catalog(["x", "y", "z"], [])
        assert catalog.n_canonical == 3
        assert all(catalog.canonical(k) == k for k in "xyz")

    def test_canonical_id_is_smallest_key(self):
        catalog = build_catalog(["z9", "m5", "a1"], [("z9", "m5"), ("m5", "a1")])
        assert set(catalog.mapping.values()) == {"a1"}
        assert catalog.groups["a1"] == ["a1", "m5", "z9"]


class TestCanonicalCatalog:
    def test_groups_are_derived_from_the_mapping_in_its_order(self):
        catalog = CanonicalCatalog({"a1": "a", "a2": "a", "b": "b"})
        assert (catalog.n_items, catalog.n_canonical) == (3, 2)
        assert list(catalog.groups.items()) == [("a", ["a1", "a2"]), ("b", ["b"])]
        catalog = CanonicalCatalog({"b": "b", "a2": "a", "a1": "a"})
        assert list(catalog.groups.items()) == [("b", ["b"]), ("a", ["a2", "a1"])]


def synth_corpus(n_bases, rng):
    """Ground-truth corpus: each base has clean/typo/punct/edition variants
    plus a decoy with a different edition digit that must stay separate."""
    letters = "abcdefghijklmnopqrstuvwxyz"

    def code(i):
        out = []
        for _ in range(4):
            i, r = divmod(i, 26)
            out.append(letters[r])
        return "".join(c * 3 for c in reversed(out))

    rows, truth = [], {}
    for i in range(n_bases):
        stem = code(i)
        base = f"{stem} saga"
        creator = f"w{stem}"
        # typo in the last stem letter keeps variants adjacent in sort order,
        # which the forward-window heuristic requires by design
        typo = f"{stem[:-1]}q saga" if stem[-1] != "q" else f"{stem[:-1]}r saga"
        variants = {
            f"b{i}_clean": base,
            f"b{i}_typo": typo,
            f"b{i}_punct": base.replace(" saga", ", saga!"),
            f"b{i}_ed1": base + " 1",
        }
        for key, title in variants.items():
            rows.append((key, title, creator))
            truth[key] = f"b{i}_clean"
        decoy = f"b{i}_decoy"
        rows.append((decoy, base + " 2", creator))
        truth[decoy] = decoy
    order = rng.permutation(len(rows))
    return [rows[j] for j in order], truth


class TestCanonicalize:
    def test_synthetic_corpus_exact(self, rng):
        rows, truth = synth_corpus(150, rng)
        catalog = canonicalize(rows)
        groups_found = {}
        for key, cid in catalog.mapping.items():
            groups_found.setdefault(cid, set()).add(key)
        groups_true = {}
        for key, cid in truth.items():
            groups_true.setdefault(cid, set()).add(key)
        assert set(map(frozenset, groups_found.values())) == set(
            map(frozenset, groups_true.values())
        )

    def test_identical_signature_merges(self):
        catalog = canonicalize([("k2", "Same Book", "W"), ("k1", "Same Book!", "W")])
        assert catalog.n_canonical == 1
        assert catalog.canonical("k2") == "k1"

    def test_idempotence(self, rng):
        rows, _ = synth_corpus(40, rng)
        catalog = canonicalize(rows)
        by_key = {k: (t, c) for k, t, c in rows}
        rerun_rows = [(cid, *by_key[cid]) for cid in catalog.groups]
        again = canonicalize(rerun_rows)
        assert all(again.canonical(cid) == cid for cid in catalog.groups)
        assert again.n_canonical == catalog.n_canonical

    def test_merge_monotonicity(self, rng):
        rows, _ = synth_corpus(40, rng)
        catalog = canonicalize(rows)
        assert catalog.n_canonical <= catalog.n_items
        lonely = canonicalize([("a", "first title", "x"), ("b", "completely other", "y")])
        assert lonely.n_canonical == lonely.n_items  # no pairs -> equality

    @pytest.mark.parametrize(
        "kwargs, name",
        [({"window": 0}, "window"), ({"window": -1}, "window"), ({"max_edit": -1}, "max_edit")],
    )
    def test_out_of_range_arguments_raise_before_any_row_is_read(self, kwargs, name):
        def rows():
            raise AssertionError("a row was read")
            yield

        with pytest.raises(ValueError, match=f"^{name} must be at least"):
            canonicalize(rows(), **kwargs)

    def test_order_robustness(self, rng):
        rows, _ = synth_corpus(60, rng)
        catalog_a = canonicalize(rows)
        shuffled = [rows[j] for j in rng.permutation(len(rows))]
        catalog_b = canonicalize(shuffled)
        assert catalog_a.mapping == catalog_b.mapping
