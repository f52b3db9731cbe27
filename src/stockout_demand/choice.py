"""Choice probability models.

The abstract interface maps (choice, assortment, params) to a probability.
The attraction family assigns each product a positive weight ``f_a``; with
the null option present,

    P(a | A + null) = f_a / (1 + sum_{a' in A} f_a')
    P(null | A + null) = 1 / (1 + sum_{a' in A} f_a')

and without it the "1 +" drops.  The multinomial logit is the special case
``f_a = exp(theta_a)``, which is exactly how fitting parameterizes weights.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Dict

from .types import Assortment, Choice, InvalidObservation, ModelParams, NULL

__all__ = ["ChoiceModel", "AttractionModel", "choice_prob"]


class ChoiceModel(ABC):
    """Probability of a choice given the offered assortment."""

    @abstractmethod
    def prob(self, params: ModelParams, choice: Choice, assortment: Assortment) -> float:
        ...


class AttractionModel(ChoiceModel):
    """Generic attraction model with scalar weights ``f_a = weight_a``."""

    def weight(self, params: ModelParams, product: int) -> float:
        return params.weights[product]

    def weight_sum(self, params: ModelParams, assortment: Assortment) -> float:
        return sum(self.weight(params, a) for a in assortment.products)

    def denominator(self, params: ModelParams, assortment: Assortment) -> float:
        base = 1.0 if assortment.includes_null else 0.0
        denom = base + self.weight_sum(params, assortment)
        if denom <= 0:
            raise InvalidObservation("empty no-null assortment has no choice law")
        return denom

    def prob(self, params: ModelParams, choice: Choice, assortment: Assortment) -> float:
        if choice not in assortment:
            raise InvalidObservation(
                f"choice {choice!r} not offered by {assortment}"
            )
        denom = self.denominator(params, assortment)
        if choice is NULL:
            return 1.0 / denom
        return self.weight(params, choice) / denom

    def log_prob(self, params: ModelParams, choice: Choice, assortment: Assortment) -> float:
        return math.log(self.prob(params, choice, assortment))

    def log_prob_gradient(
        self, params: ModelParams, choice: Choice, assortment: Assortment
    ) -> Dict[int, float]:
        """Gradient of ``log P`` with respect to each weight ``f_a``.

        Products outside the assortment get exactly zero.
        """
        if choice not in assortment:
            raise InvalidObservation(f"choice {choice!r} not offered by {assortment}")
        denom = self.denominator(params, assortment)
        grad = {a: -1.0 / denom for a in assortment.products}
        if choice is not NULL:
            grad[choice] += 1.0 / self.weight(params, choice)
        return grad


def choice_prob(
    model: ChoiceModel, params: ModelParams, choice: Choice, assortment: Assortment
) -> float:
    return model.prob(params, choice, assortment)

