import math

import numpy as np
import pytest

from driftkit.divergence import (
    Measure,
    _side_term,
    divergence_of,
    exact_sum,
    jaccard_distance,
    jsd,
    jsd_alpha_normalized,
    jsd_with_contributions,
)

import reference as oracle
from conftest import random_rel, random_rel_pair

POINT = {"a": 1.0}
HALF = {"a": 0.5, "b": 0.5}


def side_term(measure: Measure, dist: dict) -> float:
    """The kernel's term of one distribution alone, summed exactly."""
    return _side_term(measure, np.array(list(dist.values()), dtype=np.float64), exact_sum)


class TestShannonEntropy:
    SHANNON = Measure("jsd")

    def test_point_mass(self):
        assert side_term(self.SHANNON, POINT) == 0.0

    def test_uniform_two(self):
        assert side_term(self.SHANNON, HALF) == 1.0

    def test_uniform_eight(self):
        assert side_term(self.SHANNON, {c: 1 / 8 for c in "abcdefgh"}) == 3.0


class TestJsd:
    def test_identical_is_exactly_zero(self):
        assert jsd({"a": 0.3, "b": 0.7}, {"a": 0.3, "b": 0.7}).value == 0.0

    def test_disjoint_is_one(self):
        assert jsd(POINT, {"b": 1.0}).value == 1.0

    def test_point_vs_half(self):
        # closed form: H(0.75, 0.25) - (0 + 1)/2
        expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25)) - 0.5
        assert jsd(POINT, HALF).value == pytest.approx(expected, abs=1e-15)
        assert jsd(POINT, HALF).value == pytest.approx(0.311278, abs=1e-6)

    def test_exact_symmetry(self, rng):
        for _ in range(50):
            P, Q = random_rel_pair(rng, max_support=300)
            assert jsd(P, Q).value == jsd(Q, P).value

    def test_bounds(self, rng):
        for _ in range(100):
            P, Q = random_rel_pair(rng, max_support=200)
            assert 0.0 <= jsd(P, Q).value <= 1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            jsd({}, POINT)

    def test_totals_carried(self):
        assert jsd(POINT, HALF).measure == "jsd_bits"


class TestContributions:
    def test_worked_example(self):
        dv, br = jsd_with_contributions(POINT, HALF)
        expect_a = 0.5 * (math.log2(4 / 3) + 0.5 * math.log2(2 / 3))
        assert br.partials["a"] == pytest.approx(expect_a, abs=1e-15)
        assert br.partials["a"] == pytest.approx(0.061278, abs=1e-6)
        assert br.partials["b"] == pytest.approx(0.25, abs=1e-15)
        assert br.total_bits == pytest.approx(dv.value, abs=1e-12)

    def test_unchanged_item_contributes_nothing(self):
        _, br = jsd_with_contributions(
            {"a": 0.5, "b": 0.25, "c": 0.25}, {"a": 0.5, "b": 0.1, "c": 0.4}
        )
        assert br.partials["a"] == 0.0

    def test_decomposition_identity_random(self, rng):
        for _ in range(100):
            P, Q = random_rel_pair(rng, max_support=500)
            dv, br = jsd_with_contributions(P, Q)
            assert abs(br.total_bits - dv.value) <= 1e-12

    def test_partials_nonnegative(self, rng):
        for _ in range(50):
            P, Q = random_rel_pair(rng, max_support=300)
            _, br = jsd_with_contributions(P, Q)
            assert min(br.partials.values()) >= 0.0

    def test_zero_share_items_take_no_part(self):
        dv, br = jsd_with_contributions({"a": 0.5, "b": 0.5, "k": 0.0}, {"a": 1.0, "z": 0.0})
        assert br.ranking == ["b", "a"]
        assert set(br.partials) == {"a", "b"}
        assert dv.value == jsd({"a": 0.5, "b": 0.5}, {"a": 1.0}).value

    def test_ranking_sorted_with_id_ties(self):
        _, br = jsd_with_contributions(
            {"a": 0.25, "b": 0.25, "z": 0.5}, {"c": 0.25, "d": 0.25, "z": 0.5}
        )
        parts = [br.partials[k] for k in br.ranking]
        assert parts == sorted(parts, reverse=True)
        # a, b, c, d all share the same partial; ties resolve by id
        assert br.ranking[:4] == ["a", "b", "c", "d"]


class TestTsallis:
    def test_order_two_uniform(self):
        assert side_term(Measure("jsd_alpha", 2.0), HALF) == 0.5

    def test_order_zero_support(self):
        # order 0 runs the support kernel: its side term is the support size
        assert side_term(Measure("jsd_alpha", 0.0), {"a": 0.2, "b": 0.3, "c": 0.5}) == 3

    def test_order_two_point_mass(self):
        assert side_term(Measure("jsd_alpha", 2.0), POINT) == 0.0


class TestAlphaNormalized:
    def test_alpha2_disjoint_exactly_one(self):
        assert jsd_alpha_normalized(POINT, {"b": 1.0}, 2.0).value == 1.0

    def test_alpha1_equals_jsd_bits(self):
        assert jsd_alpha_normalized(POINT, HALF, 1.0).value == jsd(POINT, HALF).value

    def test_alpha0_dice_closed_form(self):
        P = {"a": 0.2, "b": 0.3, "c": 0.5}
        Q = {"b": 0.1, "c": 0.4, "d": 0.5}
        v = jsd_alpha_normalized(P, Q, 0.0).value
        assert v == pytest.approx(1.0 - 2.0 / 3.0, abs=1e-15)

    def test_alpha_continuity_at_one(self, rng):
        for _ in range(20):
            P, Q = random_rel_pair(rng, max_support=200)
            base = jsd(P, Q).value
            for alpha in (1 - 1e-4, 1 + 1e-4):
                assert abs(jsd_alpha_normalized(P, Q, alpha).value - base) < 1e-3

    def test_identical_zero(self, rng):
        P = random_rel(rng, max_support=100)
        for alpha in (0.0, 0.5, 1.0, 1.5, 2.0):
            assert jsd_alpha_normalized(P, dict(P), alpha).value == 0.0

    def test_point_identical_zero_entropy_edge(self):
        assert jsd_alpha_normalized(POINT, dict(POINT), 2.0).value == 0.0

    def test_bounds_and_symmetry(self, rng):
        for _ in range(30):
            P, Q = random_rel_pair(rng, max_support=150)
            for alpha in (0.0, 0.5, 2.0):
                v = jsd_alpha_normalized(P, Q, alpha).value
                assert 0.0 <= v <= 1.0
                assert v == jsd_alpha_normalized(Q, P, alpha).value

    def test_alpha_outside_range_warns_but_computes(self):
        with pytest.warns(UserWarning, match="alpha"):
            v = jsd_alpha_normalized(POINT, HALF, 2.5)
        assert 0.0 <= v.value <= 1.0

    def test_power_sums_without_precision_are_refused(self):
        # the power sums of this pair fall below 2e-8 between alpha 8 and 10;
        # at 20 the side terms cancel to nothing and the value read 0.0
        rng = np.random.default_rng(0)
        p, q = rng.dirichlet(np.ones(50)), rng.dirichlet(np.ones(50))
        P = {f"i{k}": v for k, v in enumerate(p.tolist())}
        Q = {f"i{k}": v for k, v in enumerate(q.tolist())}
        m = 0.5 * (p + q)
        with pytest.warns(UserWarning, match="alpha"):
            for alpha in (10.0, 20.0):
                with pytest.raises(ValueError, match=f"alpha={alpha!r}: the power sums"):
                    jsd_alpha_normalized(P, Q, alpha)
            # cancellation-free form (2 S_m / (S_p + S_q) - 1) / (2^(1 - alpha) - 1)
            s_p, s_q, s_m = ((x**8.0).sum() for x in (p, q, m))
            stable = (2.0 * s_m / (s_p + s_q) - 1.0) / (2.0**-7.0 - 1.0)
            assert jsd_alpha_normalized(P, Q, 8.0).value == pytest.approx(stable, abs=1e-8)

    def test_matches_raw_tsallis_formulas(self, rng):
        # independent route: plug the raw order-alpha entropies into the
        # normalization instead of calling the fused implementation
        for alpha in (0.25, 0.5, 1.5, 2.0):
            P, Q = random_rel_pair(rng, max_support=100)
            keys = set(P) | set(Q)
            M = {k: 0.5 * (P.get(k, 0.0) + Q.get(k, 0.0)) for k in keys}
            sides = oracle.tsallis(P, alpha) + oracle.tsallis(Q, alpha)
            num = oracle.tsallis(M, alpha) - 0.5 * sides
            den = 0.5 * (2 ** (1 - alpha) - 1) * (sides + 2 / (1 - alpha))
            assert jsd_alpha_normalized(P, Q, alpha).value == pytest.approx(
                num / den, abs=1e-12
            )


class TestJaccard:
    def test_identical_supports(self):
        assert jaccard_distance({"a": 0.4, "b": 0.6}, {"a": 0.9, "b": 0.1}).value == 0.0

    def test_disjoint(self):
        assert jaccard_distance(POINT, {"b": 1.0}).value == 1.0

    def test_partial_overlap(self):
        P = {"a": 0.2, "b": 0.3, "c": 0.5}
        Q = {"b": 0.1, "c": 0.4, "d": 0.5}
        assert jaccard_distance(P, Q).value == 0.5

    def test_popularity_blind(self):
        assert (
            jaccard_distance({"a": 0.99, "b": 0.01}, {"a": 0.01, "b": 0.99}).value == 0.0
        )


class TestMetricSpotChecks:
    def test_sqrt_jsd_triangle(self, rng):
        for _ in range(200):
            P, Q = random_rel_pair(rng, max_support=80)
            R = random_rel(rng, max_support=80)
            ab = math.sqrt(jsd(P, Q).value)
            bc = math.sqrt(jsd(Q, R).value)
            ac = math.sqrt(jsd(P, R).value)
            assert ab + bc - ac >= -1e-12

    def test_jaccard_triangle(self, rng):
        for _ in range(200):
            P, Q = random_rel_pair(rng, max_support=80)
            R = random_rel(rng, max_support=80)
            ab = jaccard_distance(P, Q).value
            bc = jaccard_distance(Q, R).value
            ac = jaccard_distance(P, R).value
            assert ab + bc - ac >= -1e-12

    def test_sqrt_alpha_triangle_shared_rank_frequency(self, rng):
        # alpha-JSD metric property holds under one shared rank-frequency
        # shape; build P, Q, R by permuting item identities over fixed weights
        weights = np.arange(1, 61, dtype=float) ** -1.0
        weights /= weights.sum()
        ids = [f"i{k}" for k in range(90)]
        for alpha in (0.5, 1.0, 2.0):
            for _ in range(60):
                dists = []
                for _ in range(3):
                    chosen = rng.choice(90, size=60, replace=False)
                    dists.append(dict(zip((ids[c] for c in chosen), weights.tolist())))
                P, Q, R = dists
                ab = math.sqrt(jsd_alpha_normalized(P, Q, alpha).value)
                bc = math.sqrt(jsd_alpha_normalized(Q, R, alpha).value)
                ac = math.sqrt(jsd_alpha_normalized(P, R, alpha).value)
                assert ab + bc - ac >= -1e-12


class TestMeasureDispatch:
    def test_labels(self):
        assert Measure("jsd").label == "jsd_bits"
        assert Measure("jaccard").label == "jaccard"
        assert Measure("jsd_alpha", 0.5).label == "jsd_alpha_norm(0.5)"
        # equal measures share a label
        assert Measure("jsd_alpha", -0.0) == Measure("jsd_alpha", 0.0)
        assert Measure("jsd_alpha", -0.0).label == "jsd_alpha_norm(0)"
        assert Measure("jsd_alpha", 2.0).label == "jsd_alpha_norm(2)"
        # unequal measures do not: both alphas print as 0.123457 under :g
        assert Measure("jsd_alpha", 0.1234567).label == "jsd_alpha_norm(0.1234567)"
        assert Measure("jsd_alpha", 0.1234571).label == "jsd_alpha_norm(0.1234571)"

    def test_dispatch(self):
        assert divergence_of(Measure("jsd"), POINT, HALF).value == jsd(POINT, HALF).value
        assert divergence_of(Measure("jaccard"), POINT, HALF).value == 0.5
        assert (
            divergence_of(Measure("jsd_alpha", 2.0), POINT, {"b": 1.0}).value == 1.0
        )

    def test_invalid_measures(self):
        with pytest.raises(ValueError):
            Measure("kl")
        with pytest.raises(ValueError):
            Measure("jsd_alpha")
        for alpha in (math.nan, math.inf, -math.inf, -0.5):
            with pytest.raises(ValueError, match="alpha must be a finite number >= 0"):
                Measure("jsd_alpha", alpha)

    @pytest.mark.parametrize(
        "measure", [Measure("jsd"), Measure("jaccard"), Measure("jsd_alpha", 0.0)]
    )
    def test_empty_support_rejected(self, measure):
        for P, Q in (({}, POINT), ({"a": 0.0}, POINT), (POINT, {"b": 0.0})):
            with pytest.raises(ValueError, match="non-empty support"):
                divergence_of(measure, P, Q)
            with pytest.raises(ValueError, match="non-empty support"):
                jsd_with_contributions(P, Q)
