import math

import numpy as np
import pytest

from driftkit.divergence import Measure
from driftkit.estimators import (
    BootstrapEstimate,
    Estimator,
    bootstrap_divergence,
    bootstrap_jsd,
    plugin_divergence,
    plugin_jsd,
)

from conftest import dist


class TestPlugin:
    def test_identical_tables(self):
        assert plugin_jsd(dist({"a": 3, "b": 1}), dist({"a": 3, "b": 1})).value == 0.0

    def test_disjoint_tables(self):
        assert plugin_jsd(dist({"a": 4}), dist({"b": 9})).value == 1.0

    def test_counts_pair_oracle(self):
        # entropy arithmetic: H(0.875, 0.125) - H(0.75, 0.25) / 2
        h_m = -(0.875 * math.log2(0.875) + 0.125 * math.log2(0.125))
        h_p = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        expected = h_m - h_p / 2
        got = plugin_jsd(dist({"a": 3, "b": 1}), dist({"a": 4}))
        assert got.value == pytest.approx(expected, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            plugin_jsd(dist({}), dist({"a": 1}))

    def test_other_measures(self):
        a, b = dist({"a": 3, "b": 1}), dist({"b": 2, "c": 2})
        assert plugin_divergence(a, b, Measure("jaccard")).value == pytest.approx(1 - 1 / 3)
        v = plugin_divergence(a, b, Measure("jsd_alpha", 2.0)).value
        assert 0.0 < v <= 1.0


class TestBootstrap:
    def test_deterministic_given_seed(self, rng):
        counts_a = {f"i{k}": int(c) + 1 for k, c in enumerate(rng.integers(0, 20, size=50))}
        counts_b = {f"i{k}": int(c) + 1 for k, c in enumerate(rng.integers(0, 20, size=50))}
        a, b = dist(counts_a), dist(counts_b)
        first = bootstrap_jsd(a, b, n_resamples=100, seed=42)
        second = bootstrap_jsd(a, b, n_resamples=100, seed=42)
        assert first == second  # bit-identical dataclasses
        third = bootstrap_jsd(a, b, n_resamples=100, seed=43)
        assert third.corrected_value != first.corrected_value

    def test_null_with_large_totals(self, rng):
        probs = rng.random(2000)
        probs /= probs.sum()
        counts = rng.multinomial(1_000_000, probs)
        a = dist({f"i{k}": int(c) for k, c in enumerate(counts) if c})
        est = bootstrap_jsd(a, a, n_resamples=100, seed=1)
        assert est.plugin_value == 0.0
        assert est.corrected_value <= 3 * est.std_error

    def test_corrected_clamped_and_std_nonnegative(self, rng):
        a = dist({"a": 2, "b": 1})
        b = dist({"c": 2, "d": 1})
        est = bootstrap_jsd(a, b, n_resamples=50, seed=5)
        assert 0.0 <= est.corrected_value <= 1.0
        assert est.std_error >= 0.0
        assert est.n_resamples == 50 and est.seed == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_jsd(dist({"a": 1}), dist({"b": 1}), n_resamples=1)
        with pytest.raises(ValueError):
            bootstrap_jsd(dist({}), dist({"b": 1}))

    def test_null_correction_beats_plugin(self, rng):
        # A, B sampled from one distribution: plugin is biased up, the
        # corrected estimate must sit closer to zero on average
        probs = rng.random(2000)
        probs /= probs.sum()
        ids = [f"i{k}" for k in range(2000)]
        plugin_errs, corrected_errs = [], []
        for trial in range(20):
            ca = rng.multinomial(500, probs)
            cb = rng.multinomial(500, probs)
            a = dist({ids[k]: int(c) for k, c in enumerate(ca) if c})
            b = dist({ids[k]: int(c) for k, c in enumerate(cb) if c})
            est = bootstrap_jsd(a, b, n_resamples=100, seed=trial)
            plugin_errs.append(est.plugin_value)
            corrected_errs.append(est.corrected_value)
            assert est.plugin_value > 0.0
        assert np.mean(corrected_errs) < np.mean(plugin_errs)

    def test_monotone_concentration(self, rng):
        # std_error shrinks as totals grow on a fixed underlying pair
        probs_a = rng.random(300)
        probs_a /= probs_a.sum()
        probs_b = np.roll(probs_a, 7)
        ids = [f"i{k}" for k in range(300)]
        errors = []
        for n in (100, 1000, 10000):
            ca = rng.multinomial(n, probs_a)
            cb = rng.multinomial(n, probs_b)
            a = dist({ids[k]: int(c) for k, c in enumerate(ca) if c})
            b = dist({ids[k]: int(c) for k, c in enumerate(cb) if c})
            errors.append(bootstrap_jsd(a, b, n_resamples=200, seed=n).std_error)
        assert errors[0] > errors[1] > errors[2]

    def test_measure_agnostic(self):
        a, b = dist({"a": 30, "b": 10}), dist({"b": 20, "c": 20})
        for measure in (Measure("jsd"), Measure("jaccard"), Measure("jsd_alpha", 0.5)):
            est = bootstrap_divergence(a, b, measure, n_resamples=50, seed=3)
            assert isinstance(est, BootstrapEstimate)
            assert 0.0 <= est.corrected_value <= 1.0


class TestEstimatorSpec:
    def test_kinds(self):
        assert Estimator().kind == "plugin"
        assert Estimator("bootstrap", 250, 7).n_resamples == 250
        with pytest.raises(ValueError):
            Estimator("jackknife")
