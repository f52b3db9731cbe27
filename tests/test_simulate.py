"""Simulator: arrival law, depletion, offer draws, reproducibility."""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from stockout_demand import (
    ModelParams,
    NULL,
    SECTION7_PRESET,
    simulate_dataset,
    simulate_visit,
    visit_rng,
)
from stockout_demand import simulate
from stockout_demand.simulate import VisitConfig


def simple_config(include_null=True, rate=2.0, stock=2):
    return VisitConfig(
        horizon=1.0,
        params=ModelParams(rate=rate, weights={0: 1.0, 1: 0.5}),
        always_available=(),
        optional_products=(0, 1),
        offer_probability=1.0,
        stock_level=stock,
        include_null=include_null,
    )


def test_stock_override_below_one_rejected():
    with pytest.raises(ValueError):
        VisitConfig(
            horizon=1.0,
            params=ModelParams(rate=2.0, weights={0: 1.0}),
            always_available=(),
            optional_products=(0,),
            stock_overrides={0: 0},
        )


def test_stock_override_of_always_available_product_rejected():
    # its stock is unlimited, so the override could only be ignored
    with pytest.raises(ValueError, match="unlimited"):
        VisitConfig(
            horizon=1.0,
            params=ModelParams(rate=2.0, weights={0: 1.0, 1: 0.5}),
            always_available=(0,),
            optional_products=(1,),
            stock_overrides={0: 2},
        )


def test_paths_are_valid():
    paths = simulate_dataset(simple_config(), 200, seed=1)
    for p in paths:
        p.validate()


def test_stocks_never_oversold():
    paths = simulate_dataset(simple_config(rate=10.0, stock=1), 100, seed=2)
    for p in paths:
        counts = {}
        for _, c in p.events:
            if c is not NULL:
                counts[c] = counts.get(c, 0) + 1
        for a, n in counts.items():
            assert n <= p.stocks[a]


def test_no_null_regime_emits_no_nulls_and_discards_when_empty():
    paths = simulate_dataset(simple_config(include_null=False, rate=20.0, stock=1), 200, seed=3)
    saw_discard = False
    for p in paths:
        assert all(c is not NULL for _, c in p.events)
        total_stock = sum(p.stocks.values())
        assert len(p.events) <= total_stock
        if len(p.events) == total_stock:
            saw_discard = True
    assert saw_discard  # at rate 20 with 2 units, exhaustion happens


def test_same_seed_same_dataset():
    a = simulate_dataset(simple_config(), 50, seed=9)
    b = simulate_dataset(simple_config(), 50, seed=9)
    assert a == b
    c = simulate_dataset(simple_config(), 50, seed=10)
    assert a != c


def test_visit_streams_independent_of_generation_order():
    config = simple_config()
    direct = simulate_dataset(config, 5, seed=4)
    shuffled = [simulate_visit(config, visit_rng(4, i)) for i in (3, 1, 4, 0, 2)]
    by_index = {i: p for i, p in zip((3, 1, 4, 0, 2), shuffled)}
    assert [by_index[i] for i in range(5)] == direct


def test_offer_probability_frequency():
    config = SECTION7_PRESET.visit_config()
    paths = simulate_dataset(config, 4000, seed=5)
    offered = np.mean(
        [len(p.initial_assortment.products) - 1 for p in paths]
    ) / len(config.optional_products)
    assert abs(offered - 0.6) < 0.03
    for p in paths:
        assert 0 in p.initial_assortment.products  # always available


def test_mean_arrivals_section7_preset_large_sample():
    # Poisson(6) arrivals: 10^5 visits puts the standard error near 0.008.
    # The visits of simulate_dataset(config, 10^5, seed=0), drawn from
    # the same streams a block at a time, so that only one block's paths
    # are held at once
    config = SECTION7_PRESET.visit_config()
    visits, block = 100_000, simulate._BLOCK
    arrivals = 0
    for start in range(0, visits, block):
        streams = (visit_rng(0, i) for i in range(start, min(start + block, visits)))
        arrivals += sum(p.arrivals for p in simulate._simulate(config, streams))
    assert abs(arrivals / visits - 6.0) < 0.05


def test_times_sorted_within_horizon():
    paths = simulate_dataset(simple_config(rate=5.0), 100, seed=6)
    for p in paths:
        times = [t for t, _ in p.events]
        assert times == sorted(times)
        assert all(0.0 <= t <= p.horizon for t in times)


def canonical_text(path):
    """Every field of a complete path as JSON, its null regime included."""
    offered = path.initial_assortment
    stocks = {str(a): s for a, s in path.stocks.items()}
    return json.dumps([path.horizon, offered.products, offered.includes_null, stocks, path.events])


WALKAWAY_TIMED = replace(
    SECTION7_PRESET,
    weights={a: 0.1 * w for a, w in SECTION7_PRESET.weights.items()},
    rate=20.0,
    stock_level=1,
    include_null=True,
)

# no null option and nothing always available: some visits sell out
# everything, and some are offered nothing
CENSORING = replace(
    SECTION7_PRESET,
    catalog=(0, 1, 2),
    weights={0: 1.0, 1: 2.0, 2: 1.5},
    rate=8.0,
    always_available=(),
    offer_probability=0.5,
    stock_level=2,
)


@pytest.mark.parametrize(
    "config, seed, digest",
    [
        (
            SECTION7_PRESET,
            1,
            "54f30d9f8523390db1858ab1f2aaa3766a7861ce089d5673fff5e0ad048f21de",
        ),
        (
            replace(SECTION7_PRESET, include_null=True, rate=10.0),
            3,
            "a2afaff3c5b1954c6aa7a00a22b3421db5ab6e98dcbb524e1c3651f3b118594a",
        ),
        (WALKAWAY_TIMED, 6, "51e8b901803251d76571e8003448e2ee1ca664d62b61d31036e23383f217faf3"),
        (CENSORING, 1, "a0d1fa377cd9de3bbde31e6be9640c1f55914feb3a78593448d12ba9a3b22b3c"),
    ],
)
def test_datasets_pinned(config, seed, digest):
    # the same visits, draw for draw, as one rng.choice(p=...) per arrival
    # gave: no-null section7 visits; null visits where up to four products
    # sell out; walkaway visits of some twenty arrivals each; and no-null
    # visits that sell out everything, or are offered nothing
    paths = simulate_dataset(config.visit_config(), 200, seed)
    text = "\n".join(map(canonical_text, paths))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert simulate_dataset(config.visit_config(), 0, seed) == []


def test_censoring_config_covers_its_edge_cases():
    # the pinned censoring dataset holds the visits its digest is there for
    paths = simulate_dataset(CENSORING.visit_config(), 200, 1)
    sold_out = [p for p in paths if p.arrivals == sum(p.stocks.values()) > 0]
    assert sold_out and not any(p.initial_assortment.includes_null for p in paths)
    assert any(not p.initial_assortment.products for p in paths)
