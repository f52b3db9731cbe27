"""Attraction choice law: probabilities and normalization."""

import pytest

from stockout_demand import Assortment, ModelParams, NULL, choice
from stockout_demand.types import InvalidObservation

from conftest import random_params

PRESET_WEIGHTS = {0: 0.25, 1: 0.05, 2: 0.1, 3: 0.2, 4: 0.4}


def test_full_catalog_no_null_probability():
    params = ModelParams(rate=6.0, weights=PRESET_WEIGHTS)
    assortment = Assortment((0, 1, 2, 3, 4), False)
    assert choice.prob(params, 4, assortment) == pytest.approx(0.4, abs=1e-12)


def test_null_probability_small_assortment():
    params = ModelParams(rate=6.0, weights=PRESET_WEIGHTS)
    assortment = Assortment((1, 2), True)
    assert choice.prob(params, NULL, assortment) == pytest.approx(1.0 / 1.15, abs=1e-12)
    assert choice.prob(params, 1, assortment) == pytest.approx(0.05 / 1.15, abs=1e-12)


def test_probabilities_normalize(rng):
    for _ in range(20):
        catalog = tuple(range(rng.randint(1, 5)))
        params = random_params(rng, catalog)
        for includes_null in (True, False):
            assortment = Assortment(catalog, includes_null)
            total = sum(choice.prob(params, a, assortment) for a in catalog)
            if includes_null:
                total += choice.prob(params, NULL, assortment)
            assert total == pytest.approx(1.0, abs=1e-12)


def test_unoffered_choice_rejected():
    params = ModelParams(rate=1.0, weights={0: 1.0, 1: 1.0})
    with pytest.raises(InvalidObservation):
        choice.prob(params, 1, Assortment((0,), True))
    with pytest.raises(InvalidObservation):
        choice.prob(params, NULL, Assortment((0,), False))


def test_empty_no_null_assortment_rejected():
    params = ModelParams(rate=1.0, weights={0: 1.0})
    with pytest.raises(InvalidObservation):
        choice.denominator(params, Assortment((), False))
