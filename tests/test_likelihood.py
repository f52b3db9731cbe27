"""Likelihoods: closed forms, cross-representation equality, normalization,
sample-average approximation, and the conditional-demand counter-example."""

import math
import random
from fractions import Fraction
from itertools import product as iter_product

import numpy as np
import pytest
from scipy.stats import poisson

from stockout_demand import (
    Assortment,
    AttractionModel,
    CompletePath,
    ModelParams,
    NULL,
    SalesSummary,
    TransactionRecord,
    TruncationPolicy,
    counterexample_bruteforce,
    counterexample_expectations,
    l1_complete,
    l2_choice_sequence,
    l3_transactions_timed,
    l4_integral,
    l4_lauricella,
    l4_transactions,
    l5_saa,
    l5_sales,
    l5_sales_attraction,
    l6_choice_part,
    l6_generic,
    l6_sales_no_null,
    lauricella_mgf,
)
from stockout_demand.likelihood import (
    table_complete,
    table_naive_sales,
    table_sales_attraction,
    table_sales_no_null,
    table_sales_saa,
    table_timed_transactions,
    table_transactions,
)
from stockout_demand.types import InvalidObservation

from conftest import (
    infeasible_observations,
    random_params,
    random_sales_summary,
    random_transaction_record,
)

MODEL = AttractionModel()


def path_with_choices(choices, stocks, includes_null=True, horizon=1.0):
    n = len(choices)
    events = tuple(
        (horizon * (i + 1) / (n + 1), c) for i, c in enumerate(choices)
    )
    return CompletePath(
        horizon=horizon,
        initial_assortment=Assortment(tuple(sorted(stocks)), includes_null),
        stocks=dict(stocks),
        events=events,
    )


class TestTruncationPolicy:
    def test_fixed_below_observed_rejected(self):
        with pytest.raises(InvalidObservation):
            TruncationPolicy(m=3).resolve(1.0, 2.0, observed=5)

    def test_adaptive_controls_tail(self):
        m = TruncationPolicy().resolve(1.0, 4.0, observed=2)
        assert m >= 2
        assert poisson.sf(m, 4.0) < 1e-10
        assert poisson.sf(m - 1, 4.0) >= 1e-10

    @pytest.mark.parametrize("epsilon", [0.0, -1e-10, math.nan, math.inf])
    def test_nonpositive_or_nonfinite_epsilon_rejected(self, epsilon):
        # resolve() would never stop: the tail mass underflows to zero
        with pytest.raises(ValueError, match="epsilon"):
            TruncationPolicy(epsilon=epsilon)


class TestCompleteData:
    def test_l1_manual_value(self):
        params = ModelParams(rate=2.0, weights={0: 1.0, 1: 0.5})
        path = path_with_choices([0, NULL], {0: 1, 1: 1})
        # arrival 1 sees {0,1}+null (denom 2.5) and buys 0 (stock-out);
        # arrival 2 sees {1}+null (denom 1.5) and walks away
        expected = (
            2 * math.log(2.0) - 2.0 + math.log(1.0 / 2.5) + math.log(1.0 / 1.5)
        )
        assert l1_complete(path, params) == pytest.approx(expected, rel=1e-12)

    def test_l2_differs_by_time_density(self):
        params = ModelParams(rate=1.7, weights={0: 0.8, 1: 0.6})
        path = path_with_choices([1, NULL, 0], {0: 2, 1: 2}, horizon=2.0)
        n = path.arrivals
        expected = (
            l1_complete(path, params) + n * math.log(2.0) - math.lgamma(n + 1)
        )
        assert l2_choice_sequence(path, params) == pytest.approx(expected, rel=1e-12)

    def test_infeasible_path_impossible(self):
        params = ModelParams(rate=1.0, weights={0: 1.0, 1: 1.0})
        path = path_with_choices([0, 0], {0: 1, 1: 1})
        assert l1_complete(path, params) == float("-inf")

    def test_table_matches_direct(self, rng):
        for _ in range(25):
            stocks = {0: rng.randint(1, 2), 1: rng.randint(1, 2)}
            params = random_params(rng, (0, 1))
            remaining = dict(stocks)
            choices = []
            for _ in range(rng.randint(0, 5)):
                opts = [NULL] + [a for a in (0, 1) if remaining[a] > 0]
                c = rng.choice(opts)
                if c is not NULL:
                    remaining[c] -= 1
                choices.append(c)
            path = path_with_choices(choices, stocks)
            table = table_complete(path)
            assert table.loglik(params) == pytest.approx(
                l2_choice_sequence(path, params), rel=1e-12, abs=1e-12
            )

    def test_l2_normalization(self):
        # sum of exp(L2) over every feasible choice sequence of length <= m
        # equals the Poisson probability of at most m arrivals
        params = ModelParams(rate=1.0, weights={0: 1.0, 1: 0.5})
        stocks = {0: 1, 1: 1}
        m = 7
        total = 0.0
        for n in range(m + 1):
            for seq in iter_product((NULL, 0, 1), repeat=n):
                path = path_with_choices(list(seq), stocks)
                v = l2_choice_sequence(path, params)
                if v != float("-inf"):
                    total += math.exp(v)
        assert total == pytest.approx(float(poisson.cdf(m, 1.0)), abs=1e-9)


class TestTimedTransactions:
    def test_zero_purchases_closed_form(self):
        params = ModelParams(rate=3.0, weights={0: 1.0, 1: 1.0})
        record = TransactionRecord(
            horizon=2.0,
            initial_assortment=Assortment((0, 1), True),
            stocks={0: 1, 1: 1},
            transactions=(),
            timestamps_present=True,
        )
        p_buy = 2.0 / 3.0  # 1 - P(null) with two unit weights
        assert l3_transactions_timed(record, params) == pytest.approx(
            -3.0 * 2.0 * p_buy, rel=1e-12
        )

    def test_table_matches_direct(self, rng):
        for _ in range(25):
            record = random_transaction_record(rng, timestamps=True)
            params = random_params(rng, record.initial_assortment.products)
            table = table_timed_transactions(record)
            assert table.loglik(params) == pytest.approx(
                l3_transactions_timed(record, params), rel=1e-12, abs=1e-12
            )

    def test_huge_rate_keeps_independent_poisson_limit(self):
        # with f = r / rate and rate -> inf, purchases of product a become
        # Poisson with rate r_a while offered: the value tends to
        # sum_a z_a log r_a - sum_j t_j R_j at an O(1 / rate) distance
        record = TransactionRecord(
            horizon=1.0,
            initial_assortment=Assortment((0, 1), True),
            stocks={0: 1, 1: 3},
            transactions=((0.2, 1), (0.3, 0), (0.7, 1)),
            timestamps_present=True,
        )
        r = {0: 0.7, 1: 2.3}
        rate = 1e12
        params = ModelParams(rate=rate, weights={a: v / rate for a, v in r.items()})
        limit = 2 * math.log(r[1]) + math.log(r[0]) - 0.3 * (r[0] + r[1]) - 0.7 * r[1]
        value = table_timed_transactions(record).loglik(params)
        assert value == pytest.approx(limit, rel=0, abs=1e-9)

    def test_requires_timestamps(self):
        record = random_transaction_record(random.Random(0))
        params = random_params(random.Random(1), record.initial_assortment.products)
        with pytest.raises(InvalidObservation):
            l3_transactions_timed(record, params)


class TestUntimedTransactions:
    def test_three_representations_agree(self, rng):
        trunc = TruncationPolicy(m=None)
        for _ in range(30):
            record = random_transaction_record(rng)
            params = random_params(rng, record.initial_assortment.products)
            m = record.total + 10
            policy = TruncationPolicy(m=m)
            direct = l4_transactions(record, params, policy)
            series = l4_lauricella(record, params, policy)
            table = table_transactions(record, m).loglik(params)
            assert series == pytest.approx(direct, rel=1e-10, abs=1e-10)
            assert table == pytest.approx(direct, rel=1e-10, abs=1e-10)

    def test_monte_carlo_integral_within_three_sigma(self, rng):
        record = random_transaction_record(rng, max_purchases=4)
        params = random_params(rng, record.initial_assortment.products)
        exact = l4_transactions(record, params, TruncationPolicy())
        est, rel_se = l4_integral(record, params, mc_samples=200_000, seed=5)
        assert abs(est - exact) < 3.0 * rel_se + 1e-9

    def test_normalization(self):
        # 2 products, one unit each: only five feasible purchase sequences;
        # their probabilities sum to the mass of at most m arrivals
        params = ModelParams(rate=1.0, weights={0: 0.7, 1: 1.3})
        assortment = Assortment((0, 1), True)
        stocks = {0: 1, 1: 1}
        m = 10
        total = 0.0
        for seq in [(), (0,), (1,), (0, 1), (1, 0)]:
            record = TransactionRecord(
                1.0, assortment, stocks, tuple((None, p) for p in seq), False
            )
            total += math.exp(l4_transactions(record, params, TruncationPolicy(m=m)))
        assert 1.0 - 1e-6 <= total <= 1.0 + 1e-12
        assert total == pytest.approx(float(poisson.cdf(m, 1.0)), abs=1e-9)

    def test_lauricella_single_segment_is_truncated_exponential(self):
        # one segment of size s: the series collapses to sum theta^e / e!
        theta, size, extra = 0.8, 3, 12
        expected = sum(theta**e / math.factorial(e) for e in range(extra + 1))
        assert lauricella_mgf([size], [theta], extra) == pytest.approx(
            expected, rel=1e-12
        )


class TestSales:
    def test_attraction_fast_path_equals_generic(self, rng):
        for _ in range(40):
            summary = random_sales_summary(rng)
            params = random_params(rng, summary.initial_assortment.products)
            policy = TruncationPolicy(m=summary.total_sales + 5)
            generic = l5_sales(summary, params, policy)
            fast = l5_sales_attraction(summary, params, policy)
            assert fast == pytest.approx(generic, rel=1e-10, abs=1e-10)

    def test_no_stockouts_reduces_to_independent_thinning(self):
        # nothing sells out, so per-product sales are independent Poissons
        # at the thinned rates T * lambda * P_a
        params = ModelParams(rate=2.0, weights={0: 1.0, 1: 0.5})
        summary = SalesSummary(
            1.0, Assortment((0, 1), True), {0: 5, 1: 5}, {0: 1, 1: 2}
        )
        p0 = MODEL.prob(params, 0, summary.initial_assortment)
        p1 = MODEL.prob(params, 1, summary.initial_assortment)
        expected = poisson.logpmf(1, 2.0 * p0) + poisson.logpmf(2, 2.0 * p1)
        value = l5_sales_attraction(summary, params, TruncationPolicy())
        assert value == pytest.approx(float(expected), rel=1e-8)

    def test_normalization(self):
        # s = (1,1), T*lambda = 1, m = 10: total mass within the truncation
        # tail of one
        params = ModelParams(rate=1.0, weights={0: 0.9, 1: 1.4})
        assortment = Assortment((0, 1), True)
        stocks = {0: 1, 1: 1}
        total = 0.0
        for z0, z1 in iter_product((0, 1), repeat=2):
            summary = SalesSummary(1.0, assortment, stocks, {0: z0, 1: z1})
            total += math.exp(l5_sales(summary, params, TruncationPolicy(m=10)))
        assert 1.0 - 1e-6 <= total <= 1.0 + 1e-12

    def test_impossible_sales_minus_infinity(self):
        summary = SalesSummary(
            1.0, Assortment((0, 1), True), {0: 1, 1: 1}, {0: 2, 1: 0}
        )
        params = ModelParams(rate=1.0, weights={0: 1.0, 1: 1.0})
        assert l5_sales(summary, params, TruncationPolicy(m=5)) == float("-inf")


class TestSalesNoNull:
    def test_table_matches_generic(self, rng):
        for _ in range(40):
            summary = random_sales_summary(rng, includes_null=False)
            params = random_params(rng, summary.initial_assortment.products)
            generic = l6_generic(summary, params)
            fast = l6_sales_no_null(summary, params)
            assert fast == pytest.approx(generic, rel=1e-10, abs=1e-10)

    def test_choice_part_sums_to_one(self):
        params = ModelParams(rate=3.0, weights={0: 1.0, 1: 0.4})
        assortment = Assortment((0, 1), False)
        stocks = {0: 2, 1: 2}
        total_sales = 3
        total = 0.0
        for z0 in range(stocks[0] + 1):
            z1 = total_sales - z0
            if not 0 <= z1 <= stocks[1]:
                continue
            summary = SalesSummary(1.0, assortment, stocks, {0: z0, 1: z1})
            v = l6_choice_part(summary, params)
            if v != float("-inf"):
                total += math.exp(v)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_poisson_factor_separates(self):
        params = ModelParams(rate=2.5, weights={0: 1.0, 1: 0.4})
        summary = SalesSummary(
            2.0, Assortment((0, 1), False), {0: 2, 1: 3}, {0: 2, 1: 1}
        )
        expected = float(poisson.logpmf(3, 5.0)) + l6_choice_part(summary, params)
        assert l6_generic(summary, params) == pytest.approx(expected, rel=1e-12)


class TestInfeasibleTables:
    """A fast-path table of an infeasible visit holds no terms and
    evaluates to ``-inf`` with a zero gradient."""

    params = ModelParams(rate=1.5, weights={0: 0.7, 1: 1.2})

    @pytest.mark.parametrize(
        "kind, build",
        [
            ("complete", table_complete),
            ("transactions", lambda obs: table_transactions(obs, 6)),
            ("sales", lambda obs: table_sales_attraction(obs, 6)),
            ("sales", lambda obs: table_naive_sales(obs, 6)),
            ("sales-no-null", table_sales_no_null),
            ("sales-no-null", lambda obs: table_naive_sales(obs, 6)),
        ],
    )
    def test_table_minus_infinity(self, kind, build):
        table = build(infeasible_observations()[kind])
        assert table.n.size == 0
        value, grad = table.loglik_grad(self.params)
        assert value == float("-inf")
        assert table.loglik(self.params) == float("-inf")
        assert not grad.any()

    def test_fast_path_wrappers_minus_infinity(self):
        observations = infeasible_observations()
        policy = TruncationPolicy(m=6)
        assert l5_sales_attraction(observations["sales"], self.params, policy) == float("-inf")
        assert l6_sales_no_null(observations["sales-no-null"], self.params) == float("-inf")


class TestSampleAverageApproximation:
    def test_full_coverage_equals_exact(self, rng):
        # enough samples to cover every feasible vector: SAA is exact
        for _ in range(10):
            summary = random_sales_summary(rng)
            params = random_params(rng, summary.initial_assortment.products)
            policy = TruncationPolicy(m=summary.total_sales + 3)
            exact = l5_sales_attraction(summary, params, policy)
            approx = l5_saa(summary, params, policy, samples_per_n=10**6, seed=0)
            assert approx == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_deterministic_in_seed_and_key(self):
        summary = SalesSummary(
            1.0, Assortment((0, 1), True), {0: 2, 1: 2}, {0: 2, 1: 2}
        )
        params = ModelParams(rate=4.0, weights={0: 1.0, 1: 1.0})
        policy = TruncationPolicy(m=10)
        a = l5_saa(summary, params, policy, samples_per_n=1, seed=3, key=7)
        b = l5_saa(summary, params, policy, samples_per_n=1, seed=3, key=7)
        assert a == b
        c = l5_saa(summary, params, policy, samples_per_n=1, seed=4, key=7)
        assert a != c

    def test_unbiased_in_probability_space(self):
        # the scaled without-replacement sample mean is unbiased for each
        # arrival count's vector sum, hence for the total likelihood
        summary = SalesSummary(
            1.0, Assortment((0, 1), True), {0: 2, 1: 2}, {0: 2, 1: 2}
        )
        params = ModelParams(rate=4.0, weights={0: 1.0, 1: 0.6})
        policy = TruncationPolicy(m=12)
        exact = math.exp(l5_sales_attraction(summary, params, policy))
        draws = np.array(
            [
                math.exp(l5_saa(summary, params, policy, samples_per_n=1, seed=s))
                for s in range(200)
            ]
        )
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - exact) < 3.0 * se

    def test_applies_to_no_null_regime(self):
        summary = SalesSummary(
            1.0, Assortment((0, 1), False), {0: 2, 1: 3}, {0: 2, 1: 2}
        )
        params = ModelParams(rate=4.0, weights={0: 1.0, 1: 0.6})
        exact = l6_sales_no_null(summary, params)
        table = table_sales_saa(summary, m=4, samples_per_n=10**6, seed=0)
        assert table.loglik(params) == pytest.approx(exact, rel=1e-12)


class TestCounterexample:
    def test_exact_reference_values(self):
        correct, heuristic = counterexample_expectations(2, 2, Fraction(1, 2))
        assert correct == Fraction(10, 11)
        assert heuristic == Fraction(26, 33)

    def test_bruteforce_agrees_with_closed_form(self):
        for n_target, n_other, p in [
            (2, 2, Fraction(1, 2)),
            (1, 3, Fraction(1, 3)),
            (3, 1, Fraction(2, 3)),
            (2, 4, Fraction(1, 4)),
        ]:
            correct, _ = counterexample_expectations(n_target, n_other, p)
            assert counterexample_bruteforce(n_target, n_other, p) == correct

    def test_zero_other_sales_edge(self):
        for p in [Fraction(1, 3), Fraction(1, 2), Fraction(4, 5)]:
            correct, heuristic = counterexample_expectations(1, 0, p)
            assert correct == 0
            assert heuristic == 0

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            counterexample_expectations(2, 2, Fraction(1, 1))
