"""Simulator: arrival law, depletion, offer draws, reproducibility."""

import hashlib
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
from stockout_demand.io import serialize_visit
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
    # Poisson(6) arrivals: 10^5 visits puts the standard error near 0.008
    config = SECTION7_PRESET.visit_config()
    paths = simulate_dataset(config, 100_000, seed=0)
    mean = float(np.mean([p.arrivals for p in paths]))
    assert abs(mean - 6.0) < 0.05


def test_times_sorted_within_horizon():
    paths = simulate_dataset(simple_config(rate=5.0), 100, seed=6)
    for p in paths:
        times = [t for t, _ in p.events]
        assert times == sorted(times)
        assert all(0.0 <= t <= p.horizon for t in times)


@pytest.mark.parametrize(
    "config, seed, digest",
    [
        (
            SECTION7_PRESET,
            1,
            "3969e9de2475017d93c0b2735edd8e6dcfac7268a4e4848303fc22c2ba2befc2",
        ),
        (
            replace(SECTION7_PRESET, include_null=True, rate=10.0),
            3,
            "52f96e0283139dd6d83d7bcc5dfaa07abc055ad3b16baa4d04cfba985cd153cf",
        ),
    ],
)
def test_datasets_pinned(config, seed, digest):
    # the same visits, draw for draw, as one rng.choice(p=...) per arrival
    # gave: no-null section7 visits, and null visits where up to four
    # products sell out
    paths = simulate_dataset(config.visit_config(), 200, seed)
    text = "\n".join(serialize_visit(p, "complete") for p in paths)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
