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

from abc import ABC, abstractmethod

from .types import Assortment, Choice, InvalidObservation, ModelParams, NULL

__all__ = ["ChoiceModel", "AttractionModel"]


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
