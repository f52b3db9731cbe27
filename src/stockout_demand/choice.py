"""The attraction choice law.

Each product has a positive weight ``f_a``; with the null option present,

    P(a | A + null) = f_a / (1 + sum_{a' in A} f_a')
    P(null | A + null) = 1 / (1 + sum_{a' in A} f_a')

and without it the "1 +" drops.  The multinomial logit is the special case
``f_a = exp(theta_a)``, which is exactly how fitting parameterizes weights.
The paper writes its likelihoods for a general choice law; this one is the
law the package fits, simulates and evaluates them under.
"""

from __future__ import annotations

from .types import Assortment, Choice, InvalidObservation, ModelParams, NULL

__all__ = ["denominator", "prob"]


def denominator(params: ModelParams, assortment: Assortment) -> float:
    """``1 + sum f_a`` over the offered products, the "1 +" only with the
    null option; an empty no-null assortment has no choice law and raises
    :class:`InvalidObservation`."""
    base = 1.0 if assortment.includes_null else 0.0
    denom = base + sum(params.weights[a] for a in assortment.products)
    if denom <= 0:
        raise InvalidObservation("empty no-null assortment has no choice law")
    return denom


def prob(params: ModelParams, choice: Choice, assortment: Assortment) -> float:
    """Probability that an arrival facing ``assortment`` picks ``choice``;
    a choice the assortment does not offer raises
    :class:`InvalidObservation`."""
    if choice not in assortment:
        raise InvalidObservation(f"choice {choice!r} not offered by {assortment}")
    weight = 1.0 if choice is NULL else params.weights[choice]
    return weight / denominator(params, assortment)
