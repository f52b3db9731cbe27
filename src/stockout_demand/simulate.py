"""Sample-path generation: Poisson arrivals, sequential choices, depletion.

Arrival counts are Poisson with mean ``T * rate``; given the count, times
are sorted uniforms on ``[0, T]``.  Each arrival chooses from whatever is
left in stock under the attraction model; product choices decrement
inventory.  Per-visit RNG streams are keyed by visit index so datasets are
bit-reproducible regardless of generation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .types import (
    Assortment,
    Choice,
    CompletePath,
    ModelParams,
    NULL,
    ProductId,
    UNLIMITED_STOCK,
)

__all__ = ["VisitConfig", "visit_rng", "simulate_visit", "simulate_dataset"]


@dataclass(frozen=True)
class VisitConfig:
    """Catalog and process parameters for one visit draw.

    ``always_available`` products are never removable (stock treated as
    unlimited); each ``optional_products`` entry is offered independently
    with ``offer_probability`` and starts at ``stock_level`` units.
    """

    horizon: float
    params: ModelParams
    always_available: Tuple[ProductId, ...]
    optional_products: Tuple[ProductId, ...] = ()
    offer_probability: float = 1.0
    stock_level: int = 1
    include_null: bool = True
    stock_overrides: Mapping[ProductId, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.offer_probability <= 1.0:
            raise ValueError("offer_probability must be in [0, 1]")
        if self.stock_level < 1 or any(s < 1 for s in self.stock_overrides.values()):
            raise ValueError("stock levels must be >= 1")
        if set(self.stock_overrides) & set(self.always_available):
            raise ValueError("always-available products have unlimited stock")

    def stock_of(self, product: ProductId) -> int:
        if product in self.always_available:
            return UNLIMITED_STOCK
        return int(self.stock_overrides.get(product, self.stock_level))


def visit_rng(seed: int, visit_index: int) -> np.random.Generator:
    """Deterministic per-visit stream: master seed mixed with the index."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(visit_index,)))


def _draw_offered(config: VisitConfig, rng: np.random.Generator) -> Assortment:
    offered: List[ProductId] = list(config.always_available)
    for p in config.optional_products:
        if rng.random() < config.offer_probability:
            offered.append(p)
    return Assortment(tuple(sorted(offered)), config.include_null)


def simulate_visit(
    config: VisitConfig,
    rng: np.random.Generator,
    assortment: Optional[Assortment] = None,
) -> CompletePath:
    """Draw one complete path.  In the no-null regime, arrivals that find
    every product sold out are discarded (no feasible choice exists).
    Each choice is the draw of ``rng.choice(options, p=...)``, spelled out
    so that the cumulative probabilities are rebuilt only at a stock-out.
    """
    if assortment is None:
        assortment = _draw_offered(config, rng)
    stocks: Dict[ProductId, int] = {a: config.stock_of(a) for a in assortment.products}
    n = int(rng.poisson(config.horizon * config.params.rate))
    times = np.sort(rng.uniform(0.0, config.horizon, size=n))
    remaining = dict(stocks)
    events: List[Tuple[float, Choice]] = []

    def law() -> Tuple[List[Choice], np.ndarray]:
        options: List[Choice] = [NULL] if config.include_null else []
        options += [a for a in assortment.products if remaining[a] > 0]
        weights = [1.0 if c is NULL else config.params.weights[c] for c in options]
        cdf = (np.asarray(weights) / sum(weights)).cumsum()
        return options, cdf / cdf[-1] if options else cdf

    options, cdf = law()
    for t in times:
        if not options:
            continue
        pick = options[cdf.searchsorted(rng.random(), side="right")]
        if pick is not NULL:
            remaining[pick] -= 1
            if remaining[pick] == 0:
                options, cdf = law()
        events.append((float(t), pick))
    return CompletePath(
        horizon=config.horizon,
        initial_assortment=assortment,
        stocks=stocks,
        events=tuple(events),
    )


def simulate_dataset(
    config: VisitConfig, visits: int, seed: int
) -> List[CompletePath]:
    """Draw ``visits`` independent visits; same seed, same dataset."""
    if visits < 0:
        raise ValueError("visits must be non-negative")
    return [simulate_visit(config, visit_rng(seed, i)) for i in range(visits)]
