"""Likelihoods: closed forms, cross-representation equality, normalization,
sample-average approximation, and the conditional-demand counter-example."""

import math
import random
from dataclasses import replace
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
    compile_dataset,
    counterexample_bruteforce,
    counterexample_expectations,
    dataset_log_likelihood,
    l1_complete,
    l2_choice_sequence,
    l3_transactions_timed,
    l4_integral,
    l4_lauricella,
    l4_transactions,
    l5_sales,
    l6_choice_part,
    l6_generic,
    lauricella_mgf,
)
from stockout_demand.likelihood import (
    fold_timed,
    stack_tables,
    table_complete,
    table_naive_sales,
    table_sales_attraction,
    table_sales_no_null,
    table_sales_saa,
    table_transactions,
)
from stockout_demand.types import InvalidObservation

from conftest import (
    IMPOSSIBLE_VISIT_CHANGES,
    badly_timed_records,
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

    def test_compiled_matches_direct(self, rng):
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
            value = dataset_log_likelihood([path], params, "complete")
            assert value == pytest.approx(
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

    def test_compiled_matches_direct(self, rng):
        for _ in range(25):
            record = random_transaction_record(rng, timestamps=True)
            params = random_params(rng, record.initial_assortment.products)
            value = dataset_log_likelihood([record], params, "transactions-timed")
            assert value == pytest.approx(
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
        value = dataset_log_likelihood([record], params, "transactions-timed")
        assert value == pytest.approx(limit, rel=0, abs=1e-9)

    @pytest.mark.parametrize("message", list(badly_timed_records()))
    def test_badly_timed_record_rejected(self, message):
        # a stock-out past T or out of order gives a segment a negative or
        # NaN exposure
        record = badly_timed_records()[message]
        params = ModelParams(rate=2.0, weights={0: 0.5, 1: 1.5})
        with pytest.raises(InvalidObservation, match=f"transaction 2: {message}"):
            compile_dataset([record], "transactions-timed")
        with pytest.raises(InvalidObservation, match=message):
            l3_transactions_timed(record, params)

    def test_requires_timestamps(self):
        record = random_transaction_record(random.Random(0))
        params = random_params(random.Random(1), record.initial_assortment.products)
        with pytest.raises(InvalidObservation):
            l3_transactions_timed(record, params)

    def test_fold_requires_timestamps(self):
        # an untimed stock-out has no time to split the segments at
        record = TransactionRecord(
            1.0, Assortment((0, 1)), {0: 1, 1: 3}, ((None, 1), (None, 0)), False
        )
        with pytest.raises(InvalidObservation, match="timestamps"):
            fold_timed([(record, 1)], record.initial_assortment.products)


@pytest.mark.parametrize("timed", [True, False])
def test_transaction_tables_refuse_no_null_regime(timed):
    # like l3 and l4, the tables are defined with a null option only
    record = TransactionRecord(
        1.0,
        Assortment((0, 1), False),
        {0: 1, 1: 3},
        ((0.2 if timed else None, 0), (0.5 if timed else None, 1)),
        timed,
    )
    with pytest.raises(InvalidObservation, match="null-inclusive"):
        if timed:
            fold_timed([(record, 1)], record.initial_assortment.products)
        else:
            table_transactions(record, 6)


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
            compiled = dataset_log_likelihood([record], params, "transactions", policy)
            assert series == pytest.approx(direct, rel=1e-10, abs=1e-10)
            assert compiled == pytest.approx(direct, rel=1e-10, abs=1e-10)

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

    @pytest.mark.parametrize(
        "horizon, transactions",
        [
            (0.0, ()),
            (-1.0, ()),
            (1.0, ((None, 0), (None, 1), (None, 0))),  # product 0 has stock 1
        ],
        ids=["T=0", "T=-1", "beyond stock"],
    )
    def test_impossible_record_minus_infinity(self, horizon, transactions):
        record = TransactionRecord(
            horizon, Assortment((0, 1), True), {0: 1, 1: 2}, transactions, False
        )
        params = ModelParams(rate=2.0, weights={0: 0.7, 1: 1.2})
        policy = TruncationPolicy(m=6)
        assert l4_transactions(record, params, policy) == float("-inf")
        assert l4_lauricella(record, params, policy) == float("-inf")
        assert l4_integral(record, params, mc_samples=50, seed=0) == (float("-inf"), 0.0)
        assert table_transactions(record, 6).explicit_n == []
        with pytest.raises(InvalidObservation):
            compile_dataset([record], "transactions", policy)

    def test_lauricella_single_segment_is_truncated_exponential(self):
        # one segment of size s: the series collapses to sum theta^e / e!
        theta, size, extra = 0.8, 3, 12
        expected = sum(theta**e / math.factorial(e) for e in range(extra + 1))
        assert lauricella_mgf([size], [theta], extra) == pytest.approx(
            expected, rel=1e-12
        )


class TestSales:
    def test_compiled_equals_generic(self, rng):
        for _ in range(40):
            summary = random_sales_summary(rng)
            params = random_params(rng, summary.initial_assortment.products)
            policy = TruncationPolicy(m=summary.total_sales + 5)
            generic = l5_sales(summary, params, policy)
            compiled = dataset_log_likelihood([summary], params, "sales", policy)
            assert compiled == pytest.approx(generic, rel=1e-10, abs=1e-10)

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
        value = dataset_log_likelihood([summary], params, "sales")
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
    def test_compiled_matches_generic(self, rng):
        for _ in range(40):
            summary = random_sales_summary(rng, includes_null=False)
            params = random_params(rng, summary.initial_assortment.products)
            generic = l6_generic(summary, params)
            compiled = dataset_log_likelihood([summary], params, "sales-no-null")
            assert compiled == pytest.approx(generic, rel=1e-10, abs=1e-10)

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


class TestNaiveSales:
    @pytest.mark.parametrize("includes_null", [True, False])
    def test_is_the_sales_fit_with_nothing_sold_out(self, rng, includes_null):
        # with every stock above its sales nothing sells out, so the exact
        # compile faces the whole assortment just as the naive one does
        granularity = "sales" if includes_null else "sales-no-null"
        for _ in range(20):
            summary = random_sales_summary(rng, includes_null=includes_null)
            products = summary.initial_assortment.products
            raised = SalesSummary(
                summary.horizon,
                summary.initial_assortment,
                {a: summary.sales[a] + 1 for a in products},
                summary.sales,
            )
            policy = TruncationPolicy(m=summary.total_sales + 3)
            exact = compile_dataset([raised], granularity, policy)
            naive = compile_dataset([summary], granularity, policy, naive=True)
            params = random_params(rng, products)
            x = np.log([params.rate] + [params.weights[a] for a in products])
            value, grad = naive.loglik_grad(x)
            expected, expected_grad = exact.loglik_grad(x)
            assert value == pytest.approx(expected, rel=1e-12, abs=0)
            np.testing.assert_allclose(grad, expected_grad, rtol=1e-12, atol=1e-12)


class TestInfeasibleTables:
    """The table of an infeasible visit lists no terms, so compiling the
    visit raises :class:`InvalidObservation`; the generic oracles give
    ``-inf``."""

    params = ModelParams(rate=1.5, weights={0: 0.7, 1: 1.2})

    @pytest.mark.parametrize(
        "kind, options, build",
        [
            ("complete", {}, table_complete),
            ("transactions", {}, lambda obs: table_transactions(obs, 6)),
            ("sales", {}, lambda obs: table_sales_attraction(obs, 6)),
            ("sales", {"naive": True}, lambda obs: table_naive_sales(obs, 6)),
            ("sales-no-null", {}, table_sales_no_null),
            ("sales-no-null", {"naive": True}, lambda obs: table_naive_sales(obs, 6)),
        ],
    )
    def test_table_without_terms_refused(self, kind, options, build):
        obs = infeasible_observations()[kind]
        table = build(obs)
        assert table.layouts == [] and table.explicit_n == []
        with pytest.raises(InvalidObservation, match="impossible"):
            compile_dataset([obs], kind, TruncationPolicy(m=6), **options)

    def test_oracles_minus_infinity(self):
        observations = infeasible_observations()
        policy = TruncationPolicy(m=6)
        assert l5_sales(observations["sales"], self.params, policy) == float("-inf")
        assert l6_generic(observations["sales-no-null"], self.params) == float("-inf")


class TestImpossibleVisitRules:
    """A visit whose horizon or stocks no visit can have is impossible:
    its table lists no terms and its oracle gives ``-inf``, whatever it
    records, never ``nan`` or a finite value."""

    params = ModelParams(rate=2.0, weights={0: 0.7, 1: 1.2})

    @pytest.mark.parametrize("change, rule", IMPOSSIBLE_VISIT_CHANGES)
    @pytest.mark.parametrize(
        "includes_null, build",
        [
            (True, lambda obs: table_sales_attraction(obs, 6)),
            (True, lambda obs: table_naive_sales(obs, 6)),
            (False, table_sales_no_null),
        ],
    )
    def test_sales_table_without_terms(self, change, rule, includes_null, build):
        summary = SalesSummary(
            1.0, Assortment((0, 1), includes_null), {0: 1, 1: 2}, {0: 0, 1: 1}
        )

        def oracle(obs):
            if includes_null:
                return l5_sales(obs, self.params, TruncationPolicy(m=6))
            return l6_generic(obs, self.params)

        assert build(summary).layouts
        assert oracle(summary) > float("-inf")
        bad = replace(summary, **change)
        with pytest.raises(InvalidObservation, match=rule):
            bad.validate()
        assert build(bad).layouts == []
        assert oracle(bad) == float("-inf")

    @pytest.mark.parametrize("change, rule", IMPOSSIBLE_VISIT_CHANGES)
    def test_complete_path_minus_infinity(self, change, rule):
        # no arrivals at all, so only the horizon and the stocks are wrong
        path = CompletePath(1.0, Assortment((0, 1), True), {0: 1, 1: 2}, ())
        assert l1_complete(path, self.params) == -2.0
        bad = replace(path, **change)
        with pytest.raises(InvalidObservation, match=rule):
            bad.validate()
        assert l1_complete(bad, self.params) == float("-inf")
        assert table_complete(bad).explicit_n == []


class TestSampleAverageApproximation:
    def test_full_coverage_equals_exact(self, rng):
        # enough samples to cover every feasible vector: SAA is exact
        for _ in range(10):
            summary = random_sales_summary(rng)
            params = random_params(rng, summary.initial_assortment.products)
            policy = TruncationPolicy(m=summary.total_sales + 3)
            exact = dataset_log_likelihood([summary], params, "sales", policy)
            approx = dataset_log_likelihood(
                [summary], params, "sales", policy, saa_samples=10**6, seed=0
            )
            assert approx == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_deterministic_in_seed_and_key(self):
        summary = SalesSummary(
            1.0, Assortment((0, 1), True), {0: 2, 1: 2}, {0: 2, 1: 2}
        )

        def stacked(seed, key):
            table = table_sales_saa(summary, 10, 1, seed, key)
            return stack_tables(summary.initial_assortment.products, [(table, 1)])

        def same(a, b):
            return all(np.array_equal(x, y) for x, y in zip(a, b))

        a = stacked(3, 7)
        assert same(a, stacked(3, 7))
        assert not same(a, stacked(4, 7))
        assert not same(a, stacked(3, 8))

    def test_unbiased_in_probability_space(self):
        # the scaled without-replacement sample mean is unbiased for each
        # arrival count's vector sum, hence for the total likelihood
        summary = SalesSummary(
            1.0, Assortment((0, 1), True), {0: 2, 1: 2}, {0: 2, 1: 2}
        )
        params = ModelParams(rate=4.0, weights={0: 1.0, 1: 0.6})
        policy = TruncationPolicy(m=12)
        exact = math.exp(dataset_log_likelihood([summary], params, "sales", policy))
        draws = np.array(
            [
                math.exp(
                    dataset_log_likelihood(
                        [summary], params, "sales", policy, saa_samples=1, seed=s
                    )
                )
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
        exact = dataset_log_likelihood([summary], params, "sales-no-null")
        approx = dataset_log_likelihood(
            [summary], params, "sales-no-null", saa_samples=10**6, seed=0
        )
        assert approx == pytest.approx(exact, rel=1e-12)


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
