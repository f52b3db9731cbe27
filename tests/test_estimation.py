"""Fitting: closed forms, dataset compilation, joint fit, naive baseline."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import poisson as poisson_dist

from stockout_demand import (
    Assortment,
    CompletePath,
    SalesSummary,
    InvalidObservation,
    ModelParams,
    NULL,
    SECTION7_PRESET,
    TruncationPolicy,
    catalog_probabilities,
    compile_dataset,
    dataset_log_likelihood,
    fit,
    fit_complete,
    fit_naive,
    l2_choice_sequence,
    l3_transactions_timed,
    l4_transactions,
    l5_sales,
    l6_generic,
    naive_rate,
    simulate_dataset,
)
from stockout_demand import estimation
from stockout_demand.io import project_path, read_visits, serialize_visit
from stockout_demand.likelihood import TAIL_EPSILON
from stockout_demand.simulate import VisitConfig, simulate_visit, visit_rng
from stockout_demand.types import (
    TransactionRecord,
    project_sales,
    project_transactions,
    transaction_segments,
)

from conftest import (
    TIMED_VISIT,
    badly_timed_transactions,
    infeasible_visits,
    random_params,
    random_transaction_record,
)


def make_path(choices, stocks, horizon=1.0, includes_null=True):
    n = len(choices)
    events = tuple((horizon * (i + 1) / (n + 1), c) for i, c in enumerate(choices))
    return CompletePath(
        horizon=horizon,
        initial_assortment=Assortment(tuple(sorted(stocks)), includes_null),
        stocks=dict(stocks),
        events=events,
    )


def two_product_config(include_null=True, rate=3.0, stock=2):
    return VisitConfig(
        horizon=1.0,
        params=ModelParams(rate=rate, weights={0: 1.0, 1: 0.5}),
        always_available=(),
        optional_products=(0, 1),
        offer_probability=1.0,
        stock_level=stock,
        include_null=include_null,
    )


class TestHelpers:
    def test_naive_rate_pools_time(self):
        paths = [
            make_path([0, NULL, 0], {0: 5}, horizon=2.0),
            make_path([0], {0: 5}, horizon=3.0),
        ]
        assert naive_rate(paths) == pytest.approx(4 / 5)

    def test_catalog_probabilities_normalize(self):
        params = ModelParams(rate=1.0, weights={0: 0.5, 1: 1.5})
        with_null = catalog_probabilities(params, (0, 1), True)
        assert sum(with_null.values()) == pytest.approx(1.0)
        assert with_null[None] == pytest.approx(1.0 / 3.0)
        no_null = catalog_probabilities(params, (0, 1), False)
        assert None not in no_null
        assert sum(no_null.values()) == pytest.approx(1.0)


class TestDatasetLikelihood:
    def test_empty_dataset_is_zero(self):
        params = ModelParams(rate=1.0, weights={0: 1.0})
        assert dataset_log_likelihood([], params, "sales") == 0.0

    def test_duplicates_double(self):
        paths = simulate_dataset(two_product_config(), 5, seed=1)
        summaries = [project_sales(p) for p in paths]
        params = ModelParams(rate=2.5, weights={0: 0.8, 1: 0.7})
        one = dataset_log_likelihood(summaries, params, "sales")
        two = dataset_log_likelihood(summaries * 2, params, "sales")
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_matches_per_visit_sum(self):
        paths = simulate_dataset(two_product_config(), 20, seed=2)
        summaries = [project_sales(p) for p in paths]
        params = ModelParams(rate=2.5, weights={0: 0.8, 1: 0.7})
        policy = TruncationPolicy(m=25)
        total = dataset_log_likelihood(summaries, params, "sales", policy)
        expected = sum(l5_sales(s, params, policy) for s in summaries)
        assert total == pytest.approx(expected, rel=1e-10)

    def test_gradient_matches_finite_differences(self):
        paths = simulate_dataset(two_product_config(), 15, seed=3)
        summaries = [project_sales(p) for p in paths]
        ds = compile_dataset(summaries, "sales", TruncationPolicy(m=20))
        x = np.array([math.log(2.2), 0.3, -0.4])
        _, grad = ds.loglik_grad(x)
        step = 1e-6
        for i in range(len(x)):
            up, dn = x.copy(), x.copy()
            up[i] += step
            dn[i] -= step
            fd = (ds.loglik_grad(up)[0] - ds.loglik_grad(dn)[0]) / (2 * step)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_empty_dataset_compilation_rejected(self):
        with pytest.raises(InvalidObservation):
            compile_dataset([], "sales")


def random_timed_records(seed, visits=40, duplicates=10):
    """Timestamped records over catalogs of two to four products, the
    first ``duplicates`` of them repeated."""
    rnd = random.Random(seed)
    records = [
        random_transaction_record(rnd, max_products=4, max_stockouts=3, timestamps=True)
        for _ in range(visits)
    ]
    return records + records[:duplicates]


def log_point(params, catalog):
    return np.log([params.rate] + [params.weights[a] for a in catalog])


class TestTimedDataset:
    def test_matches_per_visit_sum(self):
        records = random_timed_records(31)
        stockouts = [
            len(transaction_segments(r.initial_assortment, r.stocks, r.products)[0])
            for r in records
        ]
        assert max(stockouts) >= 2
        ds = compile_dataset(records, "transactions-timed")
        rnd = random.Random(32)
        for _ in range(5):
            params = random_params(rnd, ds.catalog)
            value, grad = ds.loglik_grad(log_point(params, ds.catalog))
            expected = sum(l3_transactions_timed(r, params) for r in records)
            assert value == pytest.approx(expected, rel=1e-12)
            per_visit = np.zeros(1 + len(ds.catalog))
            for r in records:
                one = compile_dataset([r], "transactions-timed")
                g = one.loglik_grad(log_point(params, one.catalog))[1]
                per_visit[0] += g[0]
                cols = 1 + np.searchsorted(ds.catalog, one.catalog)
                per_visit[cols] += g[1:]
            np.testing.assert_allclose(grad, per_visit, rtol=1e-10, atol=1e-10)

    def test_gradient_matches_finite_differences(self):
        # the relative error measure and tolerance of criterion 09
        ds = compile_dataset(random_timed_records(33), "transactions-timed")
        rnd = random.Random(34)
        step = 1e-6
        worst = 0.0
        for _ in range(10):
            x = np.array(
                [rnd.uniform(-0.5, 1.2)] + [rnd.uniform(-1.0, 1.0) for _ in ds.catalog]
            )
            _, grad = ds.loglik_grad(x)
            for i in range(len(x)):
                up, dn = x.copy(), x.copy()
                up[i] += step
                dn[i] -= step
                fd = (ds.loglik_grad(up)[0] - ds.loglik_grad(dn)[0]) / (2 * step)
                worst = max(worst, abs(grad[i] - fd) / max(abs(fd), abs(grad[i]), 1e-6))
        assert worst <= 1e-4, worst

    def test_huge_rate_keeps_independent_poisson_limit(self):
        # with f = r / rate and rate -> inf, purchases of product a become
        # Poisson with rate r_a while offered; each visit tends to
        # sum_a z_a log r_a - sum_j t_j R_j
        first = TransactionRecord(
            horizon=1.0,
            initial_assortment=Assortment((0, 1), True),
            stocks={0: 1, 1: 3},
            transactions=((0.2, 1), (0.3, 0), (0.7, 1)),
            timestamps_present=True,
        )
        second = TransactionRecord(
            horizon=2.0,
            initial_assortment=Assortment((0, 1, 2), True),
            stocks={0: 1, 1: 1, 2: 5},
            transactions=((0.5, 0), (0.9, 2), (1.5, 1)),
            timestamps_present=True,
        )
        r = {0: 0.7, 1: 2.3, 2: 1.1}
        limit_first = 2 * math.log(r[1]) + math.log(r[0]) - 0.3 * (r[0] + r[1]) - 0.7 * r[1]
        limit_second = (
            math.log(r[0] * r[1] * r[2])
            - 0.5 * (r[0] + r[1] + r[2])
            - 1.0 * (r[1] + r[2])
            - 0.5 * r[2]
        )
        rate = 1e12
        params = ModelParams(rate=rate, weights={a: v / rate for a, v in r.items()})
        ds = compile_dataset([first, second, first], "transactions-timed")
        value, _ = ds.loglik_grad(log_point(params, ds.catalog))
        assert value == pytest.approx(2 * limit_first + limit_second, rel=0, abs=1e-9)


def nothing_sold_out(summary):
    """The summary with every stock one above its sales."""
    stocks = {a: summary.sales[a] + 1 for a in summary.initial_assortment.products}
    return replace(summary, stocks=stocks)


# visit kind -> (granularity, null option, compile_dataset options, generic
# oracle of one visit at a fixed truncation policy; SAA draws have none)
SINGLE_VISIT_KINDS = {
    "complete": (
        "complete",
        True,
        {},
        lambda obs, params, policy: l2_choice_sequence(obs, params),
    ),
    "transactions": ("transactions", True, {}, l4_transactions),
    "timed": (
        "transactions-timed",
        True,
        {},
        lambda obs, params, policy: l3_transactions_timed(obs, params),
    ),
    "sales": ("sales", True, {}, l5_sales),
    "saa": ("sales", True, {"saa_samples": 2, "seed": 4}, None),
    "no-null": (
        "sales-no-null",
        False,
        {},
        lambda obs, params, policy: l6_generic(obs, params),
    ),
    # the stock-out-blind baseline is the sales likelihood with nothing sold out
    "naive": (
        "sales",
        True,
        {"naive": True},
        lambda obs, params, policy: l5_sales(nothing_sold_out(obs), params, policy),
    ),
}


class TestSingleVisitIsOneGroupDataset:
    @pytest.mark.parametrize(
        "kind", sorted(k for k, row in SINGLE_VISIT_KINDS.items() if row[3] is not None)
    )
    def test_one_visit_dataset_equals_oracle(self, kind):
        granularity, include_null, options, oracle = SINGLE_VISIT_KINDS[kind]
        paths = simulate_dataset(
            two_product_config(include_null=include_null, stock=1), 6, seed=21
        )
        # layouts with one and with two stock-outs
        assert {1, 2} <= {len(project_sales(p).stocked_out) for p in paths}
        rnd = random.Random(22)
        policy = TruncationPolicy(m=8)  # at least every visit's purchase count
        for path in paths:
            obs = project_path(path, granularity)
            ds = compile_dataset([obs], granularity, policy, **options)
            for _ in range(3):
                params = random_params(rnd, ds.catalog)
                value, _ = ds.loglik_grad(log_point(params, ds.catalog))
                expected = oracle(obs, params, policy)
                assert value == pytest.approx(expected, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("kind", sorted(SINGLE_VISIT_KINDS))
    def test_dataset_is_count_weighted_sum_of_one_visit_datasets(self, kind):
        granularity, include_null, options, _ = SINGLE_VISIT_KINDS[kind]
        # the section7 catalog offers a random subset of products per visit;
        # with a null option, the rate of the null-sales benchmark workload
        # makes products sell out
        config = replace(SECTION7_PRESET, include_null=include_null)
        if include_null:
            config = replace(config, rate=10.0)
        paths = simulate_dataset(config.visit_config(), 10, seed=26)
        assert {1, 2} <= {len(project_sales(p).stocked_out) for p in paths}
        m = 2 + max(sum(c is not NULL for c in p.choices) for p in paths)
        policy = TruncationPolicy(m=m)
        groups = [(project_path(p, granularity), 1 + i % 3) for i, p in enumerate(paths)]
        assert len({obs.initial_assortment.products for obs, _ in groups}) > 1
        ds = compile_dataset(
            [obs for obs, count in groups for _ in range(count)],
            granularity,
            policy,
            **options,
        )
        column = {a: 1 + i for i, a in enumerate(ds.catalog)}
        # SAA draws are keyed by visit content, so a visit compiled alone
        # draws what it draws within the dataset
        singles = [
            (compile_dataset([obs], granularity, policy, **options), count)
            for obs, count in groups
        ]
        rnd = random.Random(26)
        for _ in range(3):
            params = random_params(rnd, ds.catalog)
            value, grad = ds.loglik_grad(log_point(params, ds.catalog))
            expected, expected_grad = 0.0, np.zeros(grad.size)
            for one, count in singles:
                v, g = one.loglik_grad(log_point(params, one.catalog))
                expected += count * v
                expected_grad[[0] + [column[a] for a in one.catalog]] += count * g
            assert value == pytest.approx(expected, rel=1e-12, abs=0)
            np.testing.assert_allclose(grad, expected_grad, rtol=1e-12, atol=0)


class TestInfeasibleVisit:
    @pytest.mark.parametrize(
        "kind, granularity, options",
        [
            ("complete", "complete", {}),
            ("transactions", "transactions", {}),
            ("sales", "sales", {}),
            ("sales", "sales", {"saa_samples": 2}),
            ("sales", "sales", {"naive": True}),
            ("sales-no-null", "sales-no-null", {}),
        ],
    )
    def test_dataset_cannot_hold_one(self, kind, granularity, options):
        # the visit fails its own construction, so no dataset holds it
        build, rule = infeasible_visits()[kind]
        paths = simulate_dataset(
            two_product_config(include_null=kind != "sales-no-null"), 3, seed=23
        )
        good = [project_path(p, granularity) for p in paths]
        with pytest.raises(InvalidObservation, match=rule):
            compile_dataset(good + [build()], granularity, TruncationPolicy(m=8), **options)

    @pytest.mark.parametrize("message", list(badly_timed_transactions()))
    def test_badly_timed_record_cannot_be_built(self, message):
        # in memory, not parsed: such a record would give a segment a
        # negative or NaN exposure
        paths = simulate_dataset(two_product_config(), 20, seed=29)
        data = [project_path(p, "transactions-timed") for p in paths]
        with pytest.raises(InvalidObservation, match=f"transaction 2: {message}"):
            data.append(TransactionRecord(*TIMED_VISIT, badly_timed_transactions()[message], True))

    def test_missing_stock_is_invalid_observation(self):
        # grouping reads the stock of every offered product, so a visit
        # missing one must be refused before any dataset holds it
        with pytest.raises(InvalidObservation, match="stocks must cover exactly the assortment"):
            compile_dataset(
                [SalesSummary(1.0, Assortment((0, 1), True), {1: 2}, {0: 0, 1: 1})], "sales"
            )

    @pytest.mark.parametrize(
        "change, rule",
        [
            ({"sales": {0: 0, 1: 1, 2: 0}}, "sales recorded for unoffered product 2"),
            ({"stocks": {0: 1, 1: 2, 2: 1}}, "stocks must cover exactly the assortment"),
        ],
    )
    def test_visit_order_cannot_decide_acceptance(self, change, rule):
        # B is A plus an entry for unoffered product 2; grouping keys on the
        # offered products only, so A and B would share one group, and
        # whether [A, B] compiles would depend on which comes first
        a = SalesSummary(1.0, Assortment((0, 1), True), {0: 1, 1: 2}, {0: 0, 1: 1})
        with pytest.raises(InvalidObservation, match=rule):
            compile_dataset([a, replace(a, **change)], "sales")


    def test_untimed_record_rejected_at_timed_granularity(self):
        # the stock-out purchase has no time, so no segment boundary
        record = TransactionRecord(
            1.0, Assortment((0, 1)), {0: 1, 1: 3}, ((None, 1), (None, 0)), False
        )
        with pytest.raises(InvalidObservation, match="timestamps"):
            compile_dataset([record], "transactions-timed")
        with pytest.raises(InvalidObservation, match="timestamps"):
            fit([record], "transactions-timed")


#: the observation class each granularity fits
FITTED_KIND = {
    "complete": CompletePath,
    "transactions-timed": TransactionRecord,
    "transactions": TransactionRecord,
    "sales": SalesSummary,
    "sales-no-null": SalesSummary,
}


def one_visit_of_each_kind():
    path = make_path([0, NULL, 1], {0: 1, 1: 2})
    return {
        CompletePath: path,
        TransactionRecord: project_transactions(path, True),
        SalesSummary: project_sales(path),
    }


def reference_start(observations, catalog):
    """The fit's start point computed from the visits themselves: the log
    naive rate, then the log naive sales shares floored at 1e-6."""
    counts = {a: 0.0 for a in catalog}
    for obs in observations:
        if isinstance(obs, SalesSummary):
            for a, z in obs.sales.items():
                counts[a] += z
        elif isinstance(obs, TransactionRecord):
            for a in obs.products:
                counts[a] += 1
        else:
            for c in obs.choices:
                if c is not None:
                    counts[c] += 1
    total = max(sum(counts.values()), 1.0)
    shares = np.log([max(counts[a] / total, 1e-6) for a in catalog])
    return np.concatenate(([math.log(naive_rate(observations))], shares))


class TestEstimatorChecks:
    @pytest.mark.parametrize(
        "granularity, kind",
        [
            (granularity, kind)
            for granularity, fitted in FITTED_KIND.items()
            for kind in (CompletePath, TransactionRecord, SalesSummary)
            if kind is not fitted
        ],
    )
    def test_visit_of_another_kind_rejected(self, granularity, kind):
        good = one_visit_of_each_kind()[FITTED_KIND[granularity]]
        if granularity == "sales-no-null":
            good = replace(good, initial_assortment=Assortment((0, 1), False))
        data = [good] * 3 + [one_visit_of_each_kind()[kind]]
        message = f"visit 4 is a {kind.__name__}; {granularity} fits"
        with pytest.raises(InvalidObservation, match=message):
            compile_dataset(data, granularity)
        with pytest.raises(InvalidObservation, match=message):
            fit(data, granularity)

    @pytest.mark.parametrize("granularity", ["complete", "transactions-timed", "transactions"])
    @pytest.mark.parametrize(
        "options, estimator", [({"saa_samples": 4}, "SAA"), ({"naive": True}, "naive")]
    )
    def test_saa_and_naive_fit_sales_only(self, granularity, options, estimator):
        paths = simulate_dataset(two_product_config(), 5, seed=31)
        data = [project_path(p, granularity) for p in paths]
        message = f"the {estimator} estimator fits sales, not {granularity}"
        with pytest.raises(InvalidObservation, match=message):
            compile_dataset(data, granularity, **options)
        with pytest.raises(InvalidObservation, match=message):
            fit(data, granularity, **options)

    def test_each_distinct_visit_is_keyed_once(self, monkeypatch):
        paths = simulate_dataset(two_product_config(), 6, seed=41)
        distinct = [project_sales(p) for p in paths]
        distinct.append(replace(distinct[0]))  # equal content, another object
        data = [distinct[i % 7] for i in range(35)]
        keyed = []
        group_key = estimation._group_key

        def counted(obs, granularity):
            keyed.append(obs)
            return group_key(obs, granularity)

        monkeypatch.setattr(estimation, "_group_key", counted)
        ds = compile_dataset(data, "sales", TruncationPolicy(m=12))
        assert len(keyed) == 7
        assert all(a is b for a, b in zip(keyed, distinct))
        assert ds.visits == 35
        assert ds.counts.sum() == 35

    @pytest.mark.parametrize("granularity", ["sales", "sales-no-null", "transactions"])
    def test_one_pass_grouping_of_varied_horizons(self, granularity, tmp_path, monkeypatch):
        # W2v's horizons, T from U(0.5, 1.5) rounded to 3 decimals, and a
        # visit at T = 1 written once as "T": 1.0 and once as "T": 1: equal
        # content in two objects; repeated lines are one object each
        config = two_product_config(granularity != "sales-no-null", rate=2.0, stock=1)
        horizons = np.round(np.random.default_rng(0).uniform(0.5, 1.5, 200), 3).tolist()
        paths = [
            simulate_visit(replace(config, horizon=T), visit_rng(5, i))
            for i, T in enumerate(horizons + [1.0])
        ]
        lines = [serialize_visit(project_path(p, granularity), granularity) for p in paths]
        assert '"T": 1.0,' in lines[-1]
        lines.append(lines[-1].replace('"T": 1.0,', '"T": 1,'))
        path = tmp_path / "visits.jsonl"
        path.write_text("".join(f"{line}\n" for line in lines + lines[::3] + lines[-2:]))
        observations, _ = read_visits(str(path))
        distinct = list({id(o): o for o in observations}.values())
        assert len(distinct) == len(set(lines)) < len(observations)
        multiplicity = {}
        for obs in observations:
            key = estimation._group_key(obs, granularity)
            multiplicity[key] = multiplicity.get(key, 0) + 1
        assert len(multiplicity) < len(distinct)  # the two spellings of T = 1
        keyed = []
        group_key = estimation._group_key

        def counted(obs, granularity):
            keyed.append(obs)
            return group_key(obs, granularity)

        monkeypatch.setattr(estimation, "_group_key", counted)
        ds = compile_dataset(observations, granularity)
        assert len(keyed) == len(distinct)
        assert all(a is b for a, b in zip(keyed, distinct))
        assert ds.counts.tolist() == list(multiplicity.values())
        assert ds.start[0] == math.log(naive_rate(observations))

    def test_naive_and_saa_together_rejected(self):
        # the naive fit used to run and be labelled with the SAA options
        paths = simulate_dataset(two_product_config(), 5, seed=31)
        data = [project_sales(p) for p in paths]
        options = {"naive": True, "saa_samples": 4, "seed": 1}
        message = "the naive and SAA estimators cannot be combined"
        with pytest.raises(InvalidObservation, match=message):
            compile_dataset(data, "sales", **options)
        with pytest.raises(InvalidObservation, match=message):
            fit(data, "sales", **options)

    @pytest.mark.parametrize("granularity", ["transactions-timed", "transactions"])
    def test_no_null_transactions_rejected(self, granularity):
        record = TransactionRecord(
            1.0, Assortment((0, 1), False), {0: 1, 1: 3}, ((0.2, 0), (0.5, 1)), True
        )
        with pytest.raises(InvalidObservation, match="null-inclusive"):
            compile_dataset([record] * 3, granularity)
        with pytest.raises(InvalidObservation, match="null-inclusive"):
            fit([record] * 3, granularity)

    @pytest.mark.parametrize(
        "granularity, options",
        [
            ("complete", {}),
            ("transactions-timed", {}),
            ("transactions", {}),
            ("sales", {}),
            ("sales", {"saa_samples": 2}),
            ("sales", {"naive": True}),
            ("sales-no-null", {}),
        ],
    )
    def test_start_point_is_naive_rate_and_sales_shares(self, granularity, options):
        includes_null = granularity != "sales-no-null"
        paths = simulate_dataset(two_product_config(includes_null), 40, seed=37)
        # product 2 is offered once and never bought: its share is floored
        paths.append(make_path([], {2: 1}, includes_null=includes_null))
        data = [project_path(p, granularity) for p in paths]
        ds = compile_dataset(data, granularity, TruncationPolicy(m=12), **options)
        start = reference_start(data, ds.catalog)
        assert start[-1] == math.log(1e-6)
        np.testing.assert_array_equal(ds.start, start)
        assert ds.includes_null is includes_null


COMPILED_ARRAYS = (
    "membership", "nulls", "coef", "n", "exp_data", "exp_indices", "exp_indptr", "expt_data",
    "expt_indices", "expt_indptr", "bounds", "group_of", "counts", "exposures", "Z", "thinned",
    "start",
)


class TestSalesRegime:
    """The visit's null regime, not the sales granularity's label, picks a
    sales visit's likelihood, whichever sales estimator fits it."""

    @pytest.mark.parametrize("includes_null", [True, False])
    @pytest.mark.parametrize(
        "options", [{}, {"saa_samples": 2, "seed": 5}, {"naive": True}],
        ids=["exact", "saa", "naive"],
    )
    def test_both_sales_labels_compile_alike(self, includes_null, options):
        paths = simulate_dataset(two_product_config(includes_null), 40, seed=43)
        summaries = [project_sales(p) for p in paths]
        assert any(s.stocked_out for s in summaries)
        policy = TruncationPolicy(m=12)
        as_sales, as_no_null = (
            compile_dataset(summaries, granularity, policy, **options)
            for granularity in ("sales", "sales-no-null")
        )
        assert as_sales.catalog == as_no_null.catalog
        assert as_sales.includes_null is as_no_null.includes_null is includes_null
        for name in COMPILED_ARRAYS:
            np.testing.assert_array_equal(getattr(as_sales, name), getattr(as_no_null, name))


class TestTruncationSizing:
    @pytest.fixture
    def resolve_calls(self, monkeypatch):
        calls = []
        resolve = TruncationPolicy.resolve

        def counted(policy, *args):
            calls.append(args)
            return resolve(policy, *args)

        monkeypatch.setattr(TruncationPolicy, "resolve", counted)
        return calls

    def test_timed_fit_never_sizes_truncation(self, resolve_calls):
        paths = simulate_dataset(two_product_config(), 60, seed=12)
        records = [project_transactions(p, True) for p in paths]
        default = fit(records, "transactions-timed")
        # m = 0 lies below most observed counts; timed data never use it
        fixed = fit(records, "transactions-timed", TruncationPolicy(m=0))
        assert resolve_calls == []
        assert fixed.params.rate == default.params.rate
        assert fixed.params.weights == default.params.weights
        assert fixed.loglik == default.loglik
        compile_dataset([project_transactions(p, False) for p in paths], "transactions")
        assert resolve_calls

    def test_no_null_sales_never_size_truncation(self, resolve_calls):
        # arrivals equal sales without a null option, so SAA and the naive
        # baseline have no arrival count to truncate either
        paths = simulate_dataset(two_product_config(include_null=False), 30, seed=13)
        summaries = [project_sales(p) for p in paths]
        for options in ({}, {"saa_samples": 2}, {"naive": True}):
            default = fit(summaries, "sales-no-null", **options)
            fixed = fit(summaries, "sales-no-null", TruncationPolicy(m=0), **options)
            assert fixed.loglik == default.loglik
        assert resolve_calls == []
        with_null = simulate_dataset(two_product_config(), 5, seed=13)
        compile_dataset([project_sales(p) for p in with_null], "sales")
        assert resolve_calls


class TestCompleteFit:
    def test_rate_is_arrivals_per_unit_time(self):
        paths = simulate_dataset(two_product_config(rate=6.0), 10, seed=4)
        total = sum(p.arrivals for p in paths)
        result = fit_complete(paths)
        assert result.params.rate == pytest.approx(total / 10.0, rel=1e-12)
        assert result.converged

    def test_fit_delegates_to_closed_form(self):
        paths = simulate_dataset(two_product_config(), 10, seed=5)
        a = fit(paths, "complete")
        b = fit_complete(paths)
        assert a.params.rate == b.params.rate
        assert a.loglik == pytest.approx(b.loglik, rel=1e-12)

    def test_single_product_share_estimate(self):
        # 4 purchases and 6 nulls in 10 arrivals: fitted purchase
        # probability is the empirical share 0.4
        paths = [
            make_path([0, NULL, 0, NULL, NULL], {0: 50}),
            make_path([NULL, 0, NULL, 0, NULL], {0: 50}),
        ]
        result = fit_complete(paths)
        assert result.params.rate == pytest.approx(5.0, rel=1e-12)
        assert result.probabilities[0] == pytest.approx(0.4, abs=1e-6)
        assert result.probabilities[None] == pytest.approx(0.6, abs=1e-6)


class TestLikelihoodDominance:
    def test_fitted_params_beat_truth(self):
        config = two_product_config()
        paths = simulate_dataset(config, 150, seed=6)
        summaries = [project_sales(p) for p in paths]
        result = fit(summaries, "sales")
        at_truth = dataset_log_likelihood(summaries, config.params, "sales")
        assert result.loglik >= at_truth - 1e-6


class TestGranularities:
    def test_all_granularities_recover_roughly(self):
        config = two_product_config(rate=3.0)
        paths = simulate_dataset(config, 300, seed=7)
        truth = catalog_probabilities(config.params, (0, 1), True)
        datasets = {
            "complete": paths,
            "transactions-timed": [project_transactions(p, True) for p in paths],
            "transactions": [project_transactions(p, False) for p in paths],
            "sales": [project_sales(p) for p in paths],
        }
        for granularity, data in datasets.items():
            result = fit(data, granularity)
            assert result.converged, granularity
            # the per-product purchase rates lambda * P_a and the purchase
            # shares are sharply identified at every granularity; the split
            # between the arrival rate and the null share is only weakly
            # identified once null choices are latent, so absolute choice
            # probabilities are checked for complete data alone
            purchase_total = 1.0 - result.probabilities[None]
            for a in (0, 1):
                assert abs(
                    result.params.rate * result.probabilities[a]
                    - config.params.rate * truth[a]
                ) < 0.2, granularity
                assert abs(
                    result.probabilities[a] / purchase_total
                    - truth[a] / (1.0 - truth[None])
                ) < 0.05, granularity
            if granularity == "complete":
                for a, p in truth.items():
                    assert abs(result.probabilities[a] - p) < 0.1

    def test_no_null_fit_recovers_choice_probabilities(self):
        # one product never exhausts, so no arrival is ever discarded and
        # the no-null likelihood matches the generating process exactly
        config = VisitConfig(
            horizon=1.0,
            params=ModelParams(rate=3.0, weights={0: 1.0, 1: 0.5}),
            always_available=(0,),
            optional_products=(1,),
            offer_probability=1.0,
            stock_level=2,
            include_null=False,
        )
        paths = simulate_dataset(config, 400, seed=8)
        summaries = [project_sales(p) for p in paths]
        result = fit(summaries, "sales-no-null")
        truth = catalog_probabilities(config.params, (0, 1), False)
        assert result.converged
        for a, p in truth.items():
            assert abs(result.probabilities[a] - p) < 0.05

    def test_fully_exhausted_no_null_visits_fit_cleanly(self):
        # visits where every product sells out put an empty assortment in
        # the final segment; its zero denominator must not poison the fit
        summaries = [
            SalesSummary(
                1.0, Assortment((0, 1), False), {0: 2, 1: 2}, {0: z0, 1: z1}
            )
            for z0, z1 in [(2, 2), (2, 1), (1, 2), (2, 0), (1, 1)]
        ]
        params = ModelParams(rate=4.0, weights={0: 1.0, 1: 1.0})
        value = dataset_log_likelihood(summaries, params, "sales-no-null")
        assert math.isfinite(value)
        result = fit(summaries, "sales-no-null")
        # the (2, 2) visit sells out both products: arrivals after that are
        # not recorded, so its arrival count is censored
        assert not result.converged
        assert result.message.endswith(
            "not the MLE: 1 no-null visits sell out every offered product, "
            "so their arrival counts are censored"
        )
        assert math.isfinite(result.loglik)

    @pytest.mark.parametrize("granularity", ["sales-no-null", "complete"])
    @pytest.mark.parametrize(
        "always_available, censored", [((), 819), ((0,), 0)], ids=["sells-out", "unlimited"]
    )
    def test_censored_no_null_arrival_counts_are_flagged(
        self, granularity, always_available, censored
    ):
        # with no always-available product, 82 % of the visits sell out
        # everything, and the fitted rate falls to 5.66 against 8
        config = replace(
            SECTION7_PRESET,
            catalog=(0, 1, 2),
            weights={0: 1.0, 1: 2.0, 2: 1.5},
            rate=8.0,
            always_available=always_available,
            offer_probability=1.0,
            stock_level=2,
        )
        paths = simulate_dataset(config.visit_config(), 1000, seed=1)
        result = fit([project_path(p, granularity) for p in paths], granularity)
        message = (
            f"{censored} no-null visits sell out every offered product, "
            "so their arrival counts are censored"
        )
        assert result.converged == (not censored)
        assert (message in result.message) == bool(censored)


def walkaway_config():
    """The preset at a tenth of its weights and rate 20: 91 % of arrivals
    walk away, so the arrival rate is far above the purchase rate."""
    preset = SECTION7_PRESET
    return replace(
        preset,
        weights={a: 0.1 * w for a, w in preset.weights.items()},
        rate=20.0,
        stock_level=1,
        include_null=True,
    ).visit_config()


class TestWalkAway:
    def test_high_walk_away_rate_is_not_clamped(self):
        # the fit starts from the purchase rate, far below the arrival rate
        config = walkaway_config()
        paths = simulate_dataset(config, 1500, seed=3)
        records = [project_transactions(p, True) for p in paths]
        result = fit(records, "transactions-timed")
        truth = catalog_probabilities(config.params, SECTION7_PRESET.catalog, True)
        assert result.converged
        assert abs(result.probabilities[None] - truth[None]) < 0.03
        ds = compile_dataset(records, "transactions-timed")
        x = np.log([result.params.rate] + [result.params.weights[a] for a in ds.catalog])
        _, grad = ds.loglik_grad(x)
        assert np.max(np.abs(grad)) <= 1e-3 * len(records)


class TestNotTheMLE:
    """A fit with a coordinate at its box, or whose truncated arrival sums
    miss Poisson mass at the fitted rate, is not the MLE: it keeps its
    estimates but does not report convergence."""

    @pytest.fixture(scope="class")
    def walkaway_records(self):
        paths = simulate_dataset(walkaway_config(), 200, seed=6)
        return [project_transactions(p, False) for p in paths]

    def test_adaptive_truncation_too_small_for_the_fitted_rate(self, walkaway_records):
        # m is sized from 4 x the purchase rate, far below the arrival rate
        result = fit(walkaway_records, "transactions")
        ((horizon, m),) = compile_dataset(walkaway_records, "transactions").truncations
        tail = poisson_dist.sf(m, horizon * result.params.rate)
        assert tail > TAIL_EPSILON
        assert not result.converged
        assert f"Poisson tail {tail:.2g} beyond m={m}" in result.message
        assert result.message.startswith("L-BFGS-B: ")

    def test_fixed_truncation_just_above_the_observed_counts(self, walkaway_records):
        m = max(r.total for r in walkaway_records) + 1
        result = fit(walkaway_records, "transactions", TruncationPolicy(m=m))
        assert not result.converged
        assert f"beyond m={m}" in result.message

    def test_never_sold_product_at_the_lower_bound(self):
        # product 2 is offered at every visit and never bought
        paths = [
            replace(p, initial_assortment=Assortment((0, 1, 2)), stocks={**p.stocks, 2: 3})
            for p in simulate_dataset(two_product_config(rate=6.0), 20, seed=3)
        ]
        result = fit([project_transactions(p, True) for p in paths], "transactions-timed")
        assert result.params.weights[2] == math.exp(-30.0)
        assert not result.converged
        assert result.message.endswith("not the MLE: product 2 never sold, its weight's supremum 0")

    @pytest.mark.parametrize("naive", [False, True])
    def test_never_sold_product_inside_the_box(self, naive):
        # product 1 is offered at stock 3 and never sold: the solve stops
        # short of the -30 box, but its weight's supremum is still 0
        assortment = Assortment((0, 1), True)
        summaries = [
            SalesSummary(1.0, assortment, {0: 2, 1: 3}, {0: z, 1: 0}) for z in (1, 2)
        ]
        result = fit(summaries, "sales", naive=naive)
        assert result.params.weights[1] > math.exp(-30.0)
        assert not result.converged
        assert result.message.endswith("not the MLE: product 1 never sold, its weight's supremum 0")

    @pytest.mark.parametrize(
        "granularity, visits",
        [
            (
                "sales",
                [
                    SalesSummary(1.0, Assortment((0, 1)), {0: 2, 1: 3}, {0: 0, 1: 0}),
                    SalesSummary(2.0, Assortment((0,)), {0: 1}, {0: 0}),
                ],
            ),
            (
                "transactions-timed",
                [
                    TransactionRecord(1.0, Assortment((0, 1)), {0: 2, 1: 3}, (), True),
                    TransactionRecord(2.0, Assortment((0,)), {0: 1}, (), True),
                ],
            ),
        ],
    )
    def test_no_purchases_leave_the_rate_unidentified(self, granularity, visits):
        # nothing bought anywhere: the likelihood rises as the rate falls to 0
        result = fit(visits, granularity)
        assert result.params.rate == pytest.approx(1e-8)
        assert not result.converged
        assert result.message.endswith(
            "not the MLE: no purchases, so the rate is not identified, "
            "product 0 never sold, its weight's supremum 0, "
            "product 1 never sold, its weight's supremum 0"
        )

    @pytest.mark.parametrize("events", [(), ((0.5, NULL),)])
    def test_complete_data_rate_unidentified_only_without_arrivals(self, events):
        # walk-aways are observed arrivals: they identify the rate
        path = CompletePath(1.0, Assortment((0,)), {0: 1}, events)
        result = fit([path], "complete")
        assert not result.converged
        assert ("rate is not identified" in result.message) == (not events)


class TestNaiveBaseline:
    def test_agrees_with_correct_fit_without_stockouts(self):
        # huge stocks: nothing sells out, so ignoring stock-outs is exact
        config = two_product_config(stock=50)
        paths = simulate_dataset(config, 200, seed=9)
        summaries = [project_sales(p) for p in paths]
        correct = fit(summaries, "sales")
        naive = fit_naive(summaries)
        assert naive.loglik == pytest.approx(correct.loglik, abs=1e-5)
        for a in correct.probabilities:
            assert naive.probabilities[a] == pytest.approx(
                correct.probabilities[a], abs=1e-3
            )

    def test_rejects_non_sales_data(self):
        paths = simulate_dataset(two_product_config(), 5, seed=10)
        with pytest.raises(InvalidObservation):
            fit_naive(paths)


class TestSAAFit:
    def test_saa_fit_close_to_exact_with_many_samples(self):
        config = two_product_config()
        paths = simulate_dataset(config, 100, seed=11)
        summaries = [project_sales(p) for p in paths]
        exact = fit(summaries, "sales")
        # enough samples to cover every vector: identical likelihood surface
        saa = fit(summaries, "sales", saa_samples=10**6, seed=0)
        assert saa.loglik == pytest.approx(exact.loglik, rel=1e-9)
        for a in exact.probabilities:
            assert saa.probabilities[a] == pytest.approx(
                exact.probabilities[a], abs=1e-5
            )
        assert saa.saa_samples == 10**6
        assert saa.seed == 0
