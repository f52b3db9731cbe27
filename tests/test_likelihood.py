"""Likelihoods: closed forms, cross-representation equality, normalization,
sample-average approximation, and the conditional-demand counter-example."""

import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import product as iter_product

import numpy as np
import pytest
from scipy.stats import poisson

from stockout_demand import (
    Assortment,
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
    fit,
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
from stockout_demand import choice
from stockout_demand.likelihood import (
    TAIL_EPSILON,
    _compositions,
    fold_timed,
    sales_key,
    table_sales,
    table_sequences,
)
from stockout_demand.types import InvalidObservation

from conftest import (
    IMPOSSIBLE_VISIT_CHANGES,
    TIMED_VISIT,
    badly_timed_transactions,
    random_params,
    random_sales_summary,
    random_transaction_record,
)


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

    def test_negative_m_cannot_be_built(self):
        # no-null data never read m, so a negative one used to be accepted
        with pytest.raises(ValueError, match="truncation m must be >= 0, got -1"):
            TruncationPolicy(m=-1)
        assert TruncationPolicy(m=0).resolve(1.0, 2.0, observed=0) == 0

    @pytest.mark.parametrize("observed", [0, 7, 400])
    def test_adaptive_matches_scipy_poisson_tail(self, observed):
        # the smallest m >= max(observed, ceil(mu)) whose tail P(N > m),
        # by scipy.stats as the oracle, is below the tail epsilon
        for mu in np.geomspace(1e-3, 2000.0, 41):
            want = max(observed, math.ceil(mu))
            while poisson.sf(want, mu) >= TAIL_EPSILON:
                want += 1
            assert TruncationPolicy().resolve(2.0, mu / 2.0, observed) == want, mu


def test_import_leaves_scipy_stats_unloaded():
    # the package's Poisson tails come from scipy.special; loading
    # scipy.stats would cost every run its import time and memory
    src = os.path.dirname(os.path.dirname(choice.__file__))
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    code = "import sys, stockout_demand.cli; assert 'scipy.stats' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=path)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestCompositions:
    @pytest.mark.parametrize("parts", [1, 2, 3, 4])
    def test_exact_lists_every_composition_in_lexicographic_order(self, parts):
        for total in range(9):
            rows = _compositions(total, parts)
            assert rows.dtype == np.int64
            exact = [c for c in iter_product(range(total + 1), repeat=parts) if sum(c) == total]
            assert [tuple(row) for row in rows.tolist()] == exact
            # the last column dropped: every way of parts - 1 ints summing
            # to at most total, in the same order
            at_most = [
                c for c in iter_product(range(total + 1), repeat=parts - 1) if sum(c) <= total
            ]
            assert [tuple(row) for row in rows[:, :-1].tolist()] == at_most


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

    def test_infeasible_path_cannot_be_built(self):
        with pytest.raises(InvalidObservation, match="event 2: choice of product 0 after it"):
            path_with_choices([0, 0], {0: 1, 1: 1})

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
        # equals the Poisson probability of at most m arrivals; an
        # infeasible sequence is no path
        params = ModelParams(rate=1.0, weights={0: 1.0, 1: 0.5})
        stocks = {0: 1, 1: 1}
        m = 7
        total = 0.0
        for n in range(m + 1):
            for seq in iter_product((NULL, 0, 1), repeat=n):
                try:
                    path = path_with_choices(list(seq), stocks)
                except InvalidObservation:
                    continue
                total += math.exp(l2_choice_sequence(path, params))
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

    @pytest.mark.parametrize("message", list(badly_timed_transactions()))
    def test_badly_timed_record_cannot_be_built(self, message):
        # a stock-out past T or out of order would give a segment a
        # negative or NaN exposure
        transactions = badly_timed_transactions()[message]
        with pytest.raises(InvalidObservation, match=f"transaction 2: {message}"):
            TransactionRecord(*TIMED_VISIT, transactions, True)

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
            table_sequences(record.initial_assortment.products, [(record, 1, 6)])


@pytest.mark.parametrize(
    "route",
    [
        lambda visits: compile_dataset(visits, "transactions"),
        lambda visits: fit(visits, "transactions"),
    ],
    ids=["compile_dataset", "fit"],
)
def test_untimed_no_null_record_refused(route):
    # a record's hidden null choices need a null option to choose
    record = TransactionRecord(
        1.0, Assortment((0, 1), False), {0: 1, 1: 3}, ((None, 0), (None, 1)), False
    )
    with pytest.raises(InvalidObservation, match="null-inclusive"):
        route([record])


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

    @pytest.mark.parametrize("samples", [0, -1])
    def test_monte_carlo_needs_a_sample(self, rng, samples):
        record = random_transaction_record(rng, max_purchases=4)
        params = random_params(rng, record.initial_assortment.products)
        with pytest.raises(ValueError, match=f"mc_samples must be >= 1, got {samples}"):
            l4_integral(record, params, mc_samples=samples, seed=5)

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
        "horizon, transactions, rule",
        [
            (0.0, (), "T must be finite and positive, got 0.0"),
            (-1.0, (), "T must be finite and positive, got -1.0"),
            (
                1.0,
                ((None, 0), (None, 1), (None, 0)),
                "transaction 3: product 0 bought beyond its stock of 1",
            ),
        ],
        ids=["T=0", "T=-1", "beyond stock"],
    )
    def test_impossible_record_cannot_be_built(self, horizon, transactions, rule):
        with pytest.raises(InvalidObservation, match=rule):
            TransactionRecord(
                horizon, Assortment((0, 1), True), {0: 1, 1: 2}, transactions, False
            )

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
        p0 = choice.prob(params, 0, summary.initial_assortment)
        p1 = choice.prob(params, 1, summary.initial_assortment)
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

    def test_impossible_sales_cannot_be_built(self):
        with pytest.raises(InvalidObservation, match=r"sales 2 of product 0 outside \[0, 1\]"):
            SalesSummary(1.0, Assortment((0, 1), True), {0: 1, 1: 1}, {0: 2, 1: 0})


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
            total += math.exp(l6_choice_part(summary, params))
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


class TestImpossibleVisitRules:
    """A visit whose horizon or stocks no visit can have cannot be built,
    whatever it records; with a possible horizon and stocks, the same
    visit fills its table and has a finite oracle value."""

    params = ModelParams(rate=2.0, weights={0: 0.7, 1: 1.2})

    @pytest.mark.parametrize("change, rule", IMPOSSIBLE_VISIT_CHANGES)
    @pytest.mark.parametrize(
        "includes_null, build",
        [
            (True, lambda obs: table_sales((0, 1), [(sales_key(obs), 1, 6, 0)])),
            (True, lambda obs: table_sales((0, 1), [(sales_key(obs), 1, 6, 0)], naive=True)),
            (False, lambda obs: table_sales((0, 1), [(sales_key(obs), 1, 0, 0)])),
        ],
    )
    def test_sales_visit_cannot_be_built(self, change, rule, includes_null, build):
        summary = SalesSummary(
            1.0, Assortment((0, 1), includes_null), {0: 1, 1: 2}, {0: 0, 1: 1}
        )
        if includes_null:
            value = l5_sales(summary, self.params, TruncationPolicy(m=6))
        else:
            value = l6_generic(summary, self.params)
        assert build(summary)[2].size  # its terms
        assert math.isfinite(value)
        with pytest.raises(InvalidObservation, match=rule):
            replace(summary, **change)

    @pytest.mark.parametrize("change, rule", IMPOSSIBLE_VISIT_CHANGES)
    def test_complete_path_cannot_be_built(self, change, rule):
        # no arrivals at all, so only the horizon and the stocks are wrong
        path = CompletePath(1.0, Assortment((0, 1), True), {0: 1, 1: 2}, ())
        assert l1_complete(path, self.params) == -2.0
        with pytest.raises(InvalidObservation, match=rule):
            replace(path, **change)


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
            group = (sales_key(summary), 1, 10, key)
            return table_sales(summary.initial_assortment.products, [group], 1, seed)

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
