"""Shared fixtures and random-instance generators for the test suite."""

import math
import random

import pytest

from stockout_demand import (
    Assortment,
    CompletePath,
    ModelParams,
    NULL,
    SalesSummary,
    TransactionRecord,
)
from stockout_demand.likelihood import sales_groups, table_sales


def stack_sales(catalog, groups, **options):
    """``table_sales`` of the groups ``(sales_key(visit), count, m,
    stream)``."""
    keys, counts, m, streams = zip(*groups)
    return table_sales(catalog, sales_groups(keys), counts, m, streams, **options)


@pytest.fixture
def rng():
    return random.Random(20240824)


def random_params(rnd: random.Random, catalog, rate_range=(0.5, 4.0)) -> ModelParams:
    return ModelParams(
        rate=rnd.uniform(*rate_range),
        weights={a: rnd.uniform(0.2, 2.0) for a in catalog},
    )


def random_sales_summary(
    rnd: random.Random,
    max_products: int = 3,
    max_stock: int = 2,
    includes_null: bool = True,
    max_stockouts: int = 2,
) -> SalesSummary:
    """A small random sales observation with at least one stock-out possible."""
    n_products = rnd.randint(2, max_products)
    catalog = tuple(range(n_products))
    stocks = {a: rnd.randint(1, max_stock) for a in catalog}
    stockouts = rnd.sample(list(catalog), rnd.randint(0, min(max_stockouts, n_products - 1)))
    sales = {}
    for a in catalog:
        if a in stockouts:
            sales[a] = stocks[a]
        else:
            sales[a] = rnd.randint(0, stocks[a] - 1)
    if not includes_null and sum(sales.values()) == 0:
        # no-null visits with zero arrivals are fine; keep them
        pass
    return SalesSummary(
        horizon=1.0,
        initial_assortment=Assortment(catalog, includes_null),
        stocks=stocks,
        sales=sales,
    )


def random_transaction_record(
    rnd: random.Random,
    max_products: int = 3,
    max_stock: int = 2,
    max_purchases: int = 6,
    max_stockouts: int = 2,
    timestamps: bool = False,
    horizon: float = 1.0,
) -> TransactionRecord:
    """A small random feasible purchase sequence."""
    n_products = rnd.randint(2, max_products)
    catalog = tuple(range(n_products))
    stocks = {a: rnd.randint(1, max_stock) for a in catalog}
    remaining = dict(stocks)
    seq = []
    n_purch = rnd.randint(0, max_purchases)
    for _ in range(n_purch):
        avail = [a for a in catalog if remaining[a] > 0]
        sold_out = n_products - len(avail)
        if not avail or sold_out >= max_stockouts:
            # avoid exceeding the stock-out budget: only buy from products
            # that will not stock out, if any remain
            avail = [a for a in avail if remaining[a] > 1]
            if not avail:
                break
        pick = rnd.choice(avail)
        remaining[pick] -= 1
        seq.append(pick)
    if timestamps:
        times = sorted(rnd.uniform(0.0, horizon) for _ in seq)
        txns = tuple((t, p) for t, p in zip(times, seq))
    else:
        txns = tuple((None, p) for p in seq)
    return TransactionRecord(
        horizon=horizon,
        initial_assortment=Assortment(catalog, True),
        stocks=stocks,
        transactions=txns,
        timestamps_present=timestamps,
    )


def infeasible_visits():
    """How to build an infeasible visit of each observation kind, and the
    rule it breaks: product 0 sold twice from a stock of one.  Each builder
    raises :class:`InvalidObservation` with that rule."""
    both = Assortment((0, 1), True)
    return {
        "complete": (
            lambda: CompletePath(1.0, both, {0: 1, 1: 1}, ((0.2, 0), (0.5, NULL), (0.7, 0))),
            "event 3: choice of product 0 after it stocked out",
        ),
        "transactions": (
            lambda: TransactionRecord(
                1.0, both, {0: 1, 1: 1}, ((None, 0), (None, 1), (None, 0)), False
            ),
            "transaction 3: product 0 bought beyond its stock of 1",
        ),
        "sales": (
            lambda: SalesSummary(1.0, both, {0: 1, 1: 1}, {0: 2, 1: 0}),
            r"sales 2 of product 0 outside \[0, 1\]",
        ),
        "sales-no-null": (
            lambda: SalesSummary(1.0, Assortment((0, 1), False), {0: 1, 1: 2}, {0: 2, 1: 1}),
            r"sales 2 of product 0 outside \[0, 1\]",
        ),
    }


#: the horizon, assortment and stocks of :func:`badly_timed_transactions`
TIMED_VISIT = (1.0, Assortment((0, 1), True), {0: 1, 1: 3})


def badly_timed_transactions():
    """Timed purchases a :data:`TIMED_VISIT` cannot record, by the time of
    their second purchase (the stock-out of product 0): past ``T``,
    ``NaN``, and before the first purchase; keyed by the rule they
    break."""
    return {
        case: ((first, 1), (second, 0))
        for case, (first, second) in {
            "time 2.5 outside": (0.2, 2.5),
            "time nan outside": (0.2, math.nan),
            "time 0.3 decreases from 0.5": (0.5, 0.3),
        }.items()
    }


#: changes that make a visit over products 0 and 1 (stocks 1 and 2)
#: impossible whatever it records, with the rule each breaks: a horizon
#: that is not positive or not a real number, an offered product without
#: stock, and stocks that miss or add a product
IMPOSSIBLE_VISIT_CHANGES = [
    ({"horizon": 0.0}, "T must be finite and positive, got 0.0"),
    ({"horizon": -1.0}, "T must be finite and positive, got -1.0"),
    ({"horizon": None}, "T must be a real number, got None"),
    ({"horizon": "1.0"}, "T must be a real number, got '1.0'"),
    ({"horizon": True}, "T must be a real number, got True"),
    ({"stocks": {0: 0, 1: 2}}, "offered product 0 has stock 0"),
    ({"stocks": {1: 2}}, "stocks must cover exactly the assortment"),
    ({"stocks": {0: 1, 1: 2, 2: 1}}, "stocks must cover exactly the assortment"),
]
