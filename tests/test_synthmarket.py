import csv
import hashlib
import io
import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftkit.events import assign_bin
from driftkit.popularity import PopularityDistribution, aggregate
from driftkit.events import ingest
from driftkit.estimators import plugin_jsd
from driftkit.synthmarket import (
    _csv_renderer,
    CohortMix,
    GroundTruth,
    SynthMarketSpec,
    generate,
    item_id,
    item_title,
    sample_counts,
    true_jsd,
    zipf_weights,
)

from reference import read_events


def small_spec(**kwargs):
    defaults = dict(
        catalog_size=200,
        zipf_exponent=1.0,
        monthly_churn=0.0,
        seasonal_fraction=0.0,
        stable_head_ranks=10,
        loans_per_bin=2000,
        n_bins=3,
        n_loaners=100,
        seed=11,
    )
    defaults.update(kwargs)
    return SynthMarketSpec(**defaults)


class TestTruth:
    def test_zipf_weights_sum_exactly(self):
        for k, s in ((10, 1.0), (50_000, 1.0), (5000, 0.7), (100, 0.0)):
            w = zipf_weights(k, s)
            assert abs(math.fsum(w.tolist()) - 1.0) <= 1e-15
            assert (w > 0).all()

    def test_static_market_identical_bins(self):
        dists, truth = sample_counts(small_spec())
        assert truth.probability_sum(0) == pytest.approx(1.0, abs=1e-15)
        for i in range(3):
            for j in range(3):
                assert true_jsd(truth, i, j) == 0.0
        assert truth.distribution(0) == truth.distribution(2)

    def test_hand_built_three_item_truth(self):
        bins = [assign_bin(date(2022, m, 1), "month") for m in (1, 2)]
        truth = GroundTruth(
            None,
            bins,
            [np.array([0, 1, 2]), np.array([0, 1, 3])],
            [np.array([0.5, 0.3, 0.2]), np.array([0.5, 0.3, 0.2])],
            np.empty(0, dtype=np.int64),
        )
        got = true_jsd(truth, 0, 1)
        h_pq = -(0.5 * math.log2(0.5) + 0.3 * math.log2(0.3) + 0.2 * math.log2(0.2))
        h_m = -(
            0.5 * math.log2(0.5)
            + 0.3 * math.log2(0.3)
            + 0.1 * math.log2(0.1) * 2
        )
        assert got == pytest.approx(h_m - h_pq, abs=1e-12)

    def test_churned_market_near_constant_local_truth(self):
        spec = small_spec(catalog_size=5000, monthly_churn=0.05, stable_head_ranks=100, n_bins=8)
        _, truth = sample_counts(spec)
        locals_ = [true_jsd(truth, i, i + 1) for i in range(7)]
        assert min(locals_) > 0.0
        spread = (max(locals_) - min(locals_)) / np.mean(locals_)
        assert spread < 0.05

    def test_global_truth_grows(self):
        spec = small_spec(catalog_size=5000, monthly_churn=0.05, stable_head_ranks=100, n_bins=8)
        _, truth = sample_counts(spec)
        globals_ = [true_jsd(truth, 0, t) for t in range(1, 8)]
        assert all(b > a for a, b in zip(globals_, globals_[1:]))

    def test_seasonality_signature(self):
        spec = small_spec(
            catalog_size=5000,
            monthly_churn=0.05,
            stable_head_ranks=100,
            seasonal_fraction=0.01,
            seasonal_multiplier=3.0,
            seasonal_rank_range=(11, 100),
            n_bins=14,
            start=date(2022, 1, 1),
        )
        _, truth = sample_counts(spec)
        active = set(spec.seasonal_months)
        boundary, off = [], []
        for i in range(len(truth.bins) - 1):
            a = truth.bins[i].start.month in active
            b = truth.bins[i + 1].start.month in active
            v = true_jsd(truth, i, i + 1)
            if a != b:
                boundary.append(v)
            elif not a and not b:
                off.append(v)
        assert boundary and off
        assert min(boundary) > max(off)

    def test_validation(self):
        with pytest.raises(ValueError, match="churn-eligible"):
            small_spec(monthly_churn=0.99, stable_head_ranks=150).validate()
        with pytest.raises(ValueError, match="seasonal"):
            small_spec(seasonal_fraction=0.9, seasonal_rank_range=(11, 20)).validate()
        with pytest.raises(ValueError, match="first day"):
            small_spec(start=date(2022, 1, 5)).validate()
        for bad in (math.nan, math.inf, -math.inf, -1.0):
            with pytest.raises(ValueError, match="zipf_exponent must be finite and >= 0"):
                small_spec(zipf_exponent=bad).validate()
        for bad in (math.nan, math.inf, 0.0, -2.0):
            with pytest.raises(ValueError, match="seasonal_multiplier must be finite and > 0"):
                small_spec(seasonal_multiplier=bad).validate()


class TestSampling:
    def test_reproducible_tallies_tiny(self):
        spec = small_spec(catalog_size=2, zipf_exponent=0.0, stable_head_ranks=0, loans_per_bin=4, n_bins=1)
        a, _ = sample_counts(spec)
        b, _ = sample_counts(spec)
        assert a[0].counts == b[0].counts
        assert a[0].total == 4

    def test_different_seed_differs(self):
        spec_a = small_spec(loans_per_bin=5000)
        spec_b = small_spec(loans_per_bin=5000, seed=99)
        a, _ = sample_counts(spec_a)
        b, _ = sample_counts(spec_b)
        assert a[0].counts != b[0].counts

    def test_sampling_consistency(self):
        # plugin JSD of sampled bins approaches the exact value as N grows
        spec = small_spec(catalog_size=2000, monthly_churn=0.1, stable_head_ranks=50, n_bins=2)
        _, truth = sample_counts(spec)
        exact = true_jsd(truth, 0, 1)
        ids0 = [item_id(x) for x in truth.occupants[0].tolist()]
        ids1 = [item_id(x) for x in truth.occupants[1].tolist()]
        medians = []
        root = np.random.SeedSequence(505)
        for n in (1000, 10_000, 100_000):
            devs = []
            for child in root.spawn(50):
                rng = np.random.default_rng(child)
                ca = rng.multinomial(n, truth.weights[0])
                cb = rng.multinomial(n, truth.weights[1])
                A = PopularityDistribution(
                    truth.bins[0], "all",
                    {i: int(c) for i, c in zip(ids0, ca) if c}, n)
                B = PopularityDistribution(
                    truth.bins[1], "all",
                    {i: int(c) for i, c in zip(ids1, cb) if c}, n)
                devs.append(abs(plugin_jsd(A, B).value - exact))
            medians.append(float(np.median(devs)))
        assert medians[0] > medians[1] > medians[2]


class TestGenerate:
    def test_file_tallies_match_sampled_counts(self, tmp_path):
        spec = small_spec(monthly_churn=0.05, stable_head_ranks=10, loans_per_bin=1500)
        res = generate(spec, tmp_path / "events.csv", tmp_path / "truth.csv")
        stream, report = ingest(tmp_path / "events.csv")
        dists, _ = aggregate(stream)
        assert len(dists) == len(res.distributions)
        for got, want in zip(dists, res.distributions):
            assert got.bin == want.bin
            assert got.counts == want.counts
        assert report.malformed == 0

    def test_generation_bytes_deterministic(self, tmp_path):
        spec = small_spec(loans_per_bin=500, n_bins=2)
        generate(spec, tmp_path / "a.csv", tmp_path / "ta.csv")
        generate(spec, tmp_path / "b.csv", tmp_path / "tb.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "ta.csv").read_bytes() == (tmp_path / "tb.csv").read_bytes()

    def test_truth_sidecar_matches_truth(self, tmp_path):
        spec = small_spec(loans_per_bin=300, n_bins=2)
        res = generate(spec, tmp_path / "events.csv", tmp_path / "truth.csv")
        with open(tmp_path / "truth.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == spec.catalog_size * spec.n_bins
        first_bin = res.truth.bins[0].label
        sidecar = {
            r["canonical_id"]: float(r["true_probability"])
            for r in rows
            if r["bin_start"] == first_bin
        }
        assert sidecar == res.truth.distribution(0)

    def test_loaner_demographics_consistent(self, tmp_path):
        spec = small_spec(loans_per_bin=800, n_bins=1)
        generate(spec, tmp_path / "events.csv")
        stream, _ = read_events(tmp_path / "events.csv")
        seen = {}
        for ev in stream:
            key = ev.loaner_id
            demo = (ev.birthdate, ev.sex, ev.education, ev.residence)
            assert seen.setdefault(key, demo) == demo
            assert ev.date.month == spec.start.month

    def test_titles_survive_canonicalization_unmerged(self):
        from driftkit.canon import canonicalize

        rows = [(item_id(i), item_title(i), f"w{item_title(i)}") for i in range(400)]
        catalog = canonicalize(rows)
        assert catalog.n_canonical == 400


# Field text that csv.writer must quote or may render specially: the
# delimiter, the quote, both line-end characters, non-ASCII and "".
AWKWARD = st.text(st.sampled_from(',"\r\n aé中'), max_size=6)


@settings(max_examples=300, deadline=None)
@given(
    title=AWKWARD,
    creator=AWKWARD,
    category=AWKWARD,
    medium=AWKWARD,
    loaner=st.tuples(*[AWKWARD] * 5),
)
def test_rendered_row_is_what_csv_writer_writes(title, creator, category, medium, loaner):
    render = _csv_renderer()
    item = ("K0000001", title, creator, category)
    row = f"2022-01-01,{render(item)},{render((medium,))},{render(loaner)}\r\n"
    buf = io.StringIO()
    csv.writer(buf).writerow(("2022-01-01", *item, medium, *loaner))
    assert row == buf.getvalue()
    # a lone empty field is quoted only as a whole row, never inside one
    assert render(("",)) == ""


def test_awkward_category_and_medium_names_round_trip(tmp_path):
    names = ["", 'q"uote', "com,ma", "line\r\nend", "é中", "\n"]
    plain = small_spec(
        n_bins=2,
        loans_per_bin=400,
        category_weights=tuple((f"c{i}", 1.0) for i in range(len(names))),
        medium_weights=tuple((f"m{i}", 1.0) for i in range(len(names))),
    )
    awkward = small_spec(
        n_bins=2,
        loans_per_bin=400,
        category_weights=tuple((name, 1.0) for name in names),
        medium_weights=tuple((name, 1.0) for name in reversed(names)),
    )
    generate(plain, tmp_path / "plain.csv")
    generate(awkward, tmp_path / "awkward.csv")
    with open(tmp_path / "plain.csv", newline="", encoding="utf-8") as fh:
        want = list(csv.reader(fh))
    text = (tmp_path / "awkward.csv").read_bytes().decode("utf-8")
    got = list(csv.reader(io.StringIO(text, newline="")))
    category = {f"c{i}": name for i, name in enumerate(names)}
    medium = {f"m{i}": name for i, name in enumerate(reversed(names))}
    for row in want[1:]:
        row[4], row[5] = category[row[4]], medium[row[5]]
    assert got == want
    assert {row[4] for row in got[1:]} == {row[5] for row in got[1:]} == set(names)
    buf = io.StringIO()
    csv.writer(buf).writerows(got)
    assert text == buf.getvalue()


# Two small markets whose generated bytes are pinned: one crossing the
# seasonal months with churn, one with a non-default loaner mix.
PINNED_SPECS = {
    "seasonal_churn": SynthMarketSpec(
        catalog_size=300,
        monthly_churn=0.05,
        seasonal_fraction=0.02,
        seasonal_rank_range=(11, 100),
        stable_head_ranks=10,
        loans_per_bin=400,
        n_bins=4,
        start=date(2022, 10, 1),
        n_loaners=60,
        seed=13,
    ),
    "cohort_mix": SynthMarketSpec(
        catalog_size=150,
        monthly_churn=0.0,
        seasonal_fraction=0.0,
        loans_per_bin=300,
        n_bins=2,
        n_loaners=40,
        seed=5,
        cohort_mix=CohortMix(
            sex=(("male", 0.7), ("female", 0.3)),
            age_bands=(((20, 40), 0.5), ((40, 80), 0.5)),
            education=(("higher", 0.9), ("basic", 0.1)),
            residence=(("town_rural", 1.0),),
        ),
    ),
}

# sha256 of events.csv, of truth.csv and of the sample_counts tables
PINNED_DIGESTS = {
    "seasonal_churn": (
        "736f422fb34d711745bf6009b91ded37ae619da8384ccf3592953805d51ecf20",
        "6dc9323524100e375d143d0fc11380cde81e90711d6ee64c8d2e85f1b971b92d",
        "35ee00f0c66a0b40f25ff0eece6b21b16e8143b16b8ff54202cd6a87314d7b1c",
    ),
    "cohort_mix": (
        "dd2a35c6c2f6a954da2d7e8fb788ae0e7f46b2bab571a143fd3acc0287ef187b",
        "019f72ea27f8cd9e2822a4e00f57bbab9d378551fb42466f6fc04b7236ceb59c",
        "b0fd4d217641b88a746c33aeb1b89fe7abbe570705c02cd02ec75e4c8c9c2422",
    ),
}


def _tables_digest(dists):
    h = hashlib.sha256()
    for d in dists:
        h.update(f"{d.bin.label},{d.cohort},{d.total}\n".encode())
        for key, count in sorted(d.counts.items()):
            h.update(f"{key},{count}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_SPECS))
def test_generated_bytes_are_pinned(tmp_path, name):
    spec = PINNED_SPECS[name]
    res = generate(spec, tmp_path / "events.csv", tmp_path / "truth.csv")
    got = (
        hashlib.sha256((tmp_path / "events.csv").read_bytes()).hexdigest(),
        hashlib.sha256((tmp_path / "truth.csv").read_bytes()).hexdigest(),
        _tables_digest(sample_counts(spec)[0]),
    )
    assert got == PINNED_DIGESTS[name]
    assert _tables_digest(res.distributions) == PINNED_DIGESTS[name][2]
