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


def infeasible_observations():
    """An infeasible visit of each observation kind: product 0 sold twice
    from a stock of one."""
    both = Assortment((0, 1), True)
    return {
        "complete": CompletePath(
            1.0, both, {0: 1, 1: 1}, ((0.2, 0), (0.5, NULL), (0.7, 0))
        ),
        "transactions": TransactionRecord(
            1.0, both, {0: 1, 1: 1}, ((None, 0), (None, 1), (None, 0)), False
        ),
        "sales": SalesSummary(1.0, both, {0: 1, 1: 1}, {0: 2, 1: 0}),
        "sales-no-null": SalesSummary(
            1.0, Assortment((0, 1), False), {0: 1, 1: 2}, {0: 2, 1: 1}
        ),
    }
