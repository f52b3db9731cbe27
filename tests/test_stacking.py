"""Term-table stacking against a per-term reference.

The reference below is the earlier per-term stacker: each table holds one
``(n, coef, [(assortment, exponent), ...])`` tuple per term, filled layout
by layout, and the stacker walks every term and segment in Python.
:func:`table_sequences` (untimed transactions) and
:func:`table_sales` (every sales estimator) must return exactly its
arrays, element for element.
"""

import math
from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest

from stockout_demand import io as sd_io
from stockout_demand import likelihood, simulate
from stockout_demand.combinatorics import (
    count_stockout_vectors,
    log_binomial,
    log_multinomial,
    sample_stockout_vectors,
)
from stockout_demand.likelihood import (
    membership_matrix,
    sales_key,
    table_sales,
    table_sequences,
)
from stockout_demand.types import Assortment, InvalidObservation, SalesSummary, TransactionRecord

from conftest import random_transaction_record

NEG_INF = float("-inf")


class ReferenceTable:
    def __init__(self, horizon, catalog, sales):
        self.horizon = horizon
        self.catalog = tuple(catalog)
        self.sales = np.array([sales.get(a, 0) for a in self.catalog], dtype=float)
        self.terms = []

    def add_term(self, n, coef, segs):
        if coef != NEG_INF:
            self.terms.append((n, coef, segs))


def reference_layouts(stocks_in_order, n):
    k = len(stocks_in_order)
    cums = [0]
    for s in stocks_in_order:
        cums.append(cums[-1] + s)

    def rec(j, prev_r, acc):
        if j == k:
            yield acc + (n - prev_r,)
            return
        lo = max(0, cums[j + 1] - prev_r - 1)
        hi = n - (k - j - 1) - prev_r - 1
        for size in range(lo, hi + 1):
            yield from rec(j + 1, prev_r + size + 1, acc + (size,))

    yield from rec(0, 0, ())


def reference_sales_table(summary, n_values, stocked, sampler=None):
    assortment = summary.initial_assortment
    catalog = assortment.products
    table = ReferenceTable(summary.horizon, catalog, summary.sales)
    stocks_of = {a: summary.stocks[a] for a in stocked}
    free_sales = [summary.sales.get(a, 0) for a in catalog if a not in stocks_of]
    n_sales = summary.total_sales
    for n in n_values:
        n_o = n - n_sales
        if n_o < 0:
            continue
        log_free = log_multinomial([n_o] + free_sales)
        drawn = None if sampler is None else sampler(n)
        if drawn is None:
            layouts = (
                (order, sizes)
                for order in permutations(stocked)
                for sizes in reference_layouts([stocks_of[a] for a in order], n)
            )
            log_weight = 0.0
        else:
            layouts, log_weight = drawn
        for order, sizes in layouts:
            k = len(order)
            coef = -math.lgamma(n + 1) + log_free + log_weight
            prev_slots = 0
            for j in range(k):
                s_j = stocks_of[order[j]]
                slots = sizes[j] + prev_slots
                coef += log_binomial(slots, s_j - 1)
                prev_slots = slots + 1 - s_j
            segs = [
                (assortment.without(*order[:j]), sizes[j] + (1.0 if j < k else 0.0))
                for j in range(k + 1)
            ]
            table.add_term(n, coef, segs)
    return table


def arrival_counts(summary, m):
    if summary.initial_assortment.includes_null:
        return range(summary.total_sales, m + 1)
    return [summary.total_sales]


def reference_exact(summary, m):
    return reference_sales_table(summary, arrival_counts(summary, m), summary.stocked_out)


def reference_naive(summary, m):
    return reference_sales_table(summary, arrival_counts(summary, m), ())


def reference_saa(summary, m, samples_per_n, seed, key=0):
    stocked = summary.stocked_out
    stocks = [summary.stocks[a] for a in stocked]

    def sampler(n):
        count = count_stockout_vectors(stocks, n)
        if count == 0:
            return [], 0.0
        take = min(samples_per_n, count)
        if take == count:
            return None
        draw_seed = int(np.random.SeedSequence((seed, key, n)).generate_state(1)[0])
        layouts = []
        for v in sample_stockout_vectors(stocks, n, take, draw_seed).tolist():
            # the products in stock-out order; each segment's arrivals up to
            # the next stock-out, that stock-out's arrival excluded
            r, order = zip(*sorted(zip(v, stocked)))
            sizes = [b - a - 1 for a, b in zip((0,) + r, r + (n + 1,))]
            layouts.append((order, sizes))
        return layouts, math.log(count) - math.log(take)

    return reference_sales_table(summary, arrival_counts(summary, m), stocked, sampler)


def reference_transactions(record, m):
    counts = {}
    for a in record.products:
        counts[a] = counts.get(a, 0) + 1
    table = ReferenceTable(record.horizon, record.initial_assortment.products, counts)
    _, seg_counts, assortments, _ = record.segments()
    k = len(seg_counts) - 1
    exponents = [c + (1.0 if j < k else 0.0) for j, c in enumerate(seg_counts)]
    n_purch = record.total

    def compositions(limit, parts):
        if parts == 0:
            yield ()
            return
        for first in range(limit + 1):
            for rest in compositions(limit - first, parts - 1):
                yield (first,) + rest

    for n_o in compositions(m - n_purch, len(assortments)):
        n = n_purch + sum(n_o)
        coef = -math.lgamma(n + 1)
        segs = []
        for j, a in enumerate(assortments):
            coef += log_binomial(n_o[j] + seg_counts[j], n_o[j])
            segs.append((a, exponents[j] + n_o[j]))
        table.add_term(n, coef, segs)
    return table


def reference_stack(catalog, tables):
    col = {a: i for i, a in enumerate(catalog)}
    registry = {}
    n, coef, starts, rows, idx, exps = [], [], [], [], [], []
    sales = np.zeros((len(tables), len(catalog)))
    for g, (table, _) in enumerate(tables):
        if not table.terms:
            raise InvalidObservation(f"term table {g} lists no terms")
        starts.append(len(n))
        sales[g, [col[a] for a in table.catalog]] = table.sales
        for term_n, term_coef, segs in table.terms:
            for a, e in segs:
                d = registry.setdefault(a, len(registry))
                if e != 0.0:
                    rows.append(len(n))
                    idx.append(d)
                    exps.append(e)
            n.append(term_n)
            coef.append(term_coef)
    term_of = np.asarray(rows, dtype=np.int64)
    slot = np.arange(term_of.size) - np.searchsorted(term_of, term_of)
    width = int(slot.max()) + 1 if slot.size else 0
    seg_idx = np.zeros((len(n), width), dtype=np.int64)
    seg_exp = np.zeros((len(n), width))
    seg_idx[term_of, slot] = idx
    seg_exp[term_of, slot] = exps
    n = np.asarray(n, dtype=np.int64)
    group_of = np.searchsorted(starts, np.arange(n.size), side="right") - 1
    horizons = np.array([table.horizon for table, _ in tables], dtype=float)
    return (
        membership_matrix(catalog, list(registry)),
        np.array([float(a.includes_null) for a in registry]),
        # each term's n log T, from its Poisson factor (lambda T)^n / n!
        np.asarray(coef, dtype=float) + n * np.log(horizons)[group_of],
        n,
        seg_idx,
        seg_exp,
        np.asarray(starts, dtype=np.int64),
        group_of,
        np.array([count for _, count in tables], dtype=float),
        horizons,
        sales,
        np.zeros(len(registry)),
    )


NAMES = (
    "membership", "nulls", "coef", "n", "seg_idx", "seg_exp",
    "starts", "group_of", "counts", "exposures", "sales", "thinned",
)


def catalog_of(observations):
    return sorted({a for o in observations for a in o.initial_assortment.products})


def assert_same_arrays(got, want):
    """Two stacks are equal array for array, dtype and shape included."""
    assert got[2].size > 0
    for name, g, w in zip(NAMES, got, want):
        assert g.dtype == w.dtype, name
        assert g.shape == w.shape, name
        assert np.array_equal(g, w), name


def assert_same_stack(observations, m, reference, counts):
    """``table_sequences`` of the visits, each at ``m(obs)`` arrivals at
    most, equals the reference stack of ``reference(obs)``."""
    catalog = catalog_of(observations)
    groups = [(o, c, m(o)) for o, c in zip(observations, counts)]
    got = table_sequences(catalog, groups)
    want = reference_stack(catalog, [(reference(o), c) for o, c in zip(observations, counts)])
    assert_same_arrays(got, want)


#: the sales estimators, as ``table_sales`` options
ESTIMATORS = {
    "exact": {},
    "naive": {"naive": True},
    "saa": {"saa_samples": 4, "seed": 3},
}


def assert_same_sales_stack(
    summaries, m=lambda s: 0, counts=None, stream=lambda s: 0, **options
):
    """``table_sales`` of the summaries, each at truncation ``m(s)`` with
    SAA stream ``stream(s)``, equals the reference stack of their
    per-visit reference tables; returns the stack."""
    catalog = catalog_of(summaries)
    counts = counts or [1] * len(summaries)
    groups = [(sales_key(s), c, m(s), stream(s)) for s, c in zip(summaries, counts)]
    got = table_sales(catalog, groups, **options)
    if options.get("naive"):
        reference = lambda s: reference_naive(s, m(s))
    elif options.get("saa_samples") is not None:
        samples, seed = options["saa_samples"], options.get("seed", 0)
        reference = lambda s: reference_saa(s, m(s), samples, seed, stream(s))
    else:
        reference = lambda s: reference_exact(s, m(s))
    want = reference_stack(catalog, [(reference(s), c) for s, c in zip(summaries, counts)])
    assert_same_arrays(got, want)
    return got


def block_sizes(stacked):
    """Terms per arrival count ``n`` of a one-visit stack."""
    n = stacked[3]
    return dict(zip(*np.unique(n, return_counts=True)))


def simulated_sales(config, visits, seed, granularity):
    paths = simulate.simulate_dataset(config.visit_config(), visits, seed)
    return [sd_io.project_path(p, granularity) for p in paths]


@pytest.fixture(scope="module")
def section7_sales():
    return simulated_sales(sd_io.SECTION7_PRESET, 300, 123, "sales-no-null")


@pytest.fixture(scope="module")
def null_sales():
    """W2-style null-inclusive sales (the preset with a null option at rate
    10) with 0-3 stock-outs: simulated visits for 0-2, which is all the
    simulation gives at this size, and two built visits for 3."""
    config = replace(sd_io.SECTION7_PRESET, include_null=True, rate=10.0)
    by_count = {}
    for summary in simulated_sales(config, 400, 5, "sales"):
        by_count.setdefault(len(summary.stocked_out), []).append(summary)
    assortment = Assortment((0, 1, 2, 3, 4), True)
    stocks = {a: 3 for a in assortment.products}
    by_count[3] = [
        SalesSummary(1.0, assortment, stocks, {0: 3, 1: 3, 2: 3, 3: 1, 4: 0}),
        SalesSummary(1.0, assortment, stocks, {0: 0, 1: 2, 2: 3, 3: 3, 4: 3}),
    ]
    summaries = [s for k in range(4) for s in by_count[k][:3]]
    assert sorted({len(s.stocked_out) for s in summaries}) == [0, 1, 2, 3]
    return summaries


class TestStackMatchesReference:
    def test_section7_exact(self, section7_sales):
        assert_same_sales_stack(section7_sales)

    def test_section7_naive(self, section7_sales):
        assert_same_sales_stack(section7_sales, naive=True)

    def test_section7_saa(self, section7_sales):
        # one SAA stream per visit
        key = {id(s): i for i, s in enumerate(section7_sales)}
        saa = assert_same_sales_stack(
            section7_sales, stream=lambda s: key[id(s)], saa_samples=16, seed=0
        )
        exact = table_sales(catalog_of(section7_sales), [(sales_key(s), 1, 0, 0) for s in section7_sales])
        assert saa[2].size < exact[2].size  # some visits sample

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_null_sales_fixed_m(self, null_sales, estimator):
        # arrival counts up to m, and groups of more than one visit
        assert_same_sales_stack(
            null_sales,
            m=lambda s: s.total_sales + 4,
            counts=[1, 2, 3] * 3 + [1, 2],
            stream=lambda s: s.total_sales,
            **ESTIMATORS[estimator],
        )

    @pytest.mark.parametrize("includes_null", [True, False])
    def test_same_shape_different_products(self, includes_null):
        # products 0, 1 sell out in one visit and 1, 2 in the other, both
        # with stocks (2, 3) in assortment order: one shape, two groups
        catalog = Assortment((0, 1, 2), includes_null)
        first = SalesSummary(1.0, catalog, {0: 2, 1: 3, 2: 4}, {0: 2, 1: 3, 2: 1})
        second = SalesSummary(1.0, catalog, {0: 4, 1: 2, 2: 3}, {0: 1, 1: 2, 2: 3})
        assert_same_sales_stack([first, second], m=lambda s: 9 if includes_null else 0)

    @pytest.mark.parametrize("includes_null", [True, False])
    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_same_products_in_two_orders(self, estimator, includes_null):
        # one product set listed in two orders: the assortments the two
        # visits face keep distinct registry rows with equal membership
        stocks = {0: 3, 2: 2, 4: 2}
        sales = {0: 1, 2: 2, 4: 2}
        summaries = [
            SalesSummary(1.0, Assortment(order, includes_null), stocks, sales)
            for order in [(2, 0, 4), (0, 2, 4)]
        ]
        stacked = assert_same_sales_stack(
            summaries,
            m=lambda s: 8 if includes_null else 0,
            counts=[2, 3],
            stream=lambda s: s.initial_assortment.products[0],
            **ESTIMATORS[estimator],
        )
        membership = stacked[0]
        assert len(np.unique(membership, axis=0)) < len(membership)

    def test_every_offered_product_sells_out(self):
        # no null option: the last segment faces the empty assortment with
        # exponent zero, which still enters the registry
        empty_after = SalesSummary(
            1.0, Assortment((0, 1), False), {0: 2, 1: 1}, {0: 2, 1: 1}
        )
        other = SalesSummary(1.0, Assortment((1, 2), False), {1: 2, 2: 2}, {1: 1, 2: 2})
        assert_same_sales_stack([empty_after, other])

    def test_saa_sample_covering_every_vector(self):
        # at n = 5 there are 5 vectors, so 5 samples cover them (the exact
        # block); at n = 6 and 7 a sample of 5 is drawn
        summary = SalesSummary(1.0, Assortment((0, 1), True), {0: 3, 1: 2}, {0: 3, 1: 2})
        assert [count_stockout_vectors((3, 2), n) for n in (5, 6, 7)] == [5, 12, 21]
        stacked = assert_same_sales_stack(
            [summary], m=lambda s: 7, stream=lambda s: 2, saa_samples=5, seed=1
        )
        assert block_sizes(stacked) == {5: 5, 6: 5, 7: 5}

    def test_saa_mixes_full_and_drawn_blocks(self):
        # one group whose every block is drawn (two products of stock 3 sell
        # out: 6 vectors at n = 6), one drawn only above its first arrival
        # count, and one that never samples (nothing sells out)
        assortment = Assortment((0, 1, 2), True)
        drawn = SalesSummary(1.0, assortment, {0: 3, 1: 3, 2: 4}, {0: 3, 1: 3, 2: 0})
        mixed = SalesSummary(1.0, assortment, {0: 3, 1: 2, 2: 4}, {0: 3, 1: 2, 2: 0})
        full = SalesSummary(1.0, assortment, {0: 3, 1: 3, 2: 4}, {0: 1, 1: 2, 2: 3})
        assert count_stockout_vectors((3, 3), 6) == 6
        assert count_stockout_vectors((3, 2), 5) == 5
        summaries = [drawn, mixed, full, drawn]
        stacked = assert_same_sales_stack(
            summaries,
            m=lambda s: s.total_sales + 2,
            counts=[2, 1, 3, 1],
            stream=lambda s: s.total_sales,
            saa_samples=5,
            seed=4,
        )
        starts = list(stacked[6]) + [stacked[2].size]
        terms = [b - a for a, b in zip(starts, starts[1:])]
        assert terms[0] == 3 * 5  # n = 6, 7, 8 all drawn
        assert terms[1] == 5 + 5 + 5  # full at n = 5 (5 vectors), drawn at 6, 7
        assert terms[2] == 3  # one term per arrival count

    @pytest.mark.parametrize("includes_null", [True, False])
    def test_saa_many_stockouts_faces_only_drawn_subsets(self, includes_null, monkeypatch):
        # 20 products sell out: a group of drawn layouts only faces the
        # sold-out subsets its 4 samples reach, not all 2^20 candidates
        stacked_candidates = []
        stack = likelihood._stacked

        def spy(*args):
            stacked_candidates.append(len(args[5]))  # the candidates' fields
            return stack(*args)

        monkeypatch.setattr(likelihood, "_stacked", spy)
        k = 20
        stocks = {a: 1 + a % 2 for a in range(k)}
        stocks[k] = 5000
        sales = {a: stocks[a] for a in range(k)}
        sales[k] = 970
        summary = SalesSummary(1.0, Assortment(tuple(range(k + 1)), includes_null), stocks, sales)
        m = summary.total_sales + 2
        stacked = assert_same_sales_stack(
            [summary], m=lambda s: m, stream=lambda s: 1, saa_samples=4, seed=0
        )
        blocks = block_sizes(stacked)
        assert len(blocks) == (3 if includes_null else 1)
        assert set(blocks.values()) == {4}
        (candidates,) = stacked_candidates
        assert candidates <= 1 + len(blocks) * 4 * k

    def test_saa_samples_below_one_rejected(self):
        summary = SalesSummary(1.0, Assortment((0,), True), {0: 1}, {0: 1})
        with pytest.raises(ValueError, match="must be >= 1"):
            table_sales((0,), [(sales_key(summary), 1, 3, 0)], saa_samples=0)

    @pytest.mark.parametrize(
        "counts, options, above",
        [
            (1, {}, lambda i: 3),
            (3, {}, lambda i: 3),
            # up to 3 stock-outs per record, and m from the purchase count
            # up to 6 above it: groups of one segment count have different
            # limits and share one enumeration
            (2, {"max_purchases": 8, "max_stockouts": 3}, lambda i: i % 7),
        ],
        ids=["single", "repeated", "varied-m"],
    )
    def test_transaction_tables(self, rng, counts, options, above):
        records = [random_transaction_record(rng, max_products=4, **options) for _ in range(25)]
        m = {id(r): r.total + above(i) for i, r in enumerate(records)}
        if options:  # the input holds what it is there for
            limits = {}
            for r in records:
                limits.setdefault(len(r.segments()[1]), set()).add(m[id(r)] - r.total)
            assert max(limits) == 4
            assert any(len(values) > 1 for values in limits.values())
        assert_same_stack(
            records,
            lambda r: m[id(r)],
            lambda r: reference_transactions(r, m[id(r)]),
            [1 + i % counts for i in range(len(records))],
        )

    def test_group_without_terms_raises(self):
        # a group whose m is below its observed count has no terms, which
        # would make the kernel's reduceat read the next group's first term
        record = TransactionRecord(
            1.0, Assortment((0, 1), True), {0: 1, 1: 1}, ((None, 0),), False
        )
        groups = [(record, 1, record.total), (record, 1, record.total - 1)]
        with pytest.raises(InvalidObservation, match="term table 1 lists no terms"):
            table_sequences((0, 1), groups)
