"""Sample-path generation: Poisson arrivals, attraction-model choices, depletion.

Arrival counts are Poisson with mean ``T * rate``; given the count, times
are sorted uniforms on ``[0, T]``.  Each arrival chooses from whatever is
left in stock under the attraction model; product choices decrement
inventory.  Per-visit RNG streams are keyed by visit index so datasets are
bit-reproducible regardless of generation order.

A visit draws its offers, its arrival count, its times and one choice
uniform per arrival from its own stream.  Visits are then simulated a
block at a time: their choices are resolved together, in rounds of one
stretch of constant assortment per visit, each arrival's choice being the
draw of ``rng.choice(options, p=...)`` at its uniform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Dict, Iterable, List, Mapping, Tuple

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


#: visits simulated together, which bounds a round's arrivals-by-options arrays
_BLOCK = 256


def simulate_visit(config: VisitConfig, rng: np.random.Generator) -> CompletePath:
    """Draw one complete path, as a block of one visit (see
    :func:`_simulate`).  In the no-null regime, arrivals that find every
    product sold out are discarded (no feasible choice exists).

    The visit's choice uniforms, one per arrival, are drawn up front.  So
    a no-null visit that sells out everything, or is offered nothing,
    leaves ``rng`` further along than one draw per choosing arrival would;
    the visit drawn is the same.
    """
    return _simulate(config, [rng])[0]


def simulate_dataset(
    config: VisitConfig, visits: int, seed: int
) -> List[CompletePath]:
    """Draw ``visits`` independent visits; same seed, same dataset."""
    if visits < 0:
        raise ValueError("visits must be non-negative")
    paths: List[CompletePath] = []
    for start in range(0, visits, _BLOCK):
        stop = min(start + _BLOCK, visits)
        paths += _simulate(config, (visit_rng(seed, i) for i in range(start, stop)))
    return paths


def _simulate(
    config: VisitConfig, rngs: Iterable[np.random.Generator]
) -> List[CompletePath]:
    """One complete path per stream, of which there is at least one.
    Each stream draws its visit's offers, arrival count, sorted times and
    one choice uniform per arrival, in that order; :func:`_resolve` then
    makes every visit's choices at once."""
    products = sorted(set(config.always_available) | set(config.optional_products))
    # the options in rng.choice order: the null option first, if offered
    labels: List[Choice] = ([NULL] if config.include_null else []) + products
    stock = {a: config.stock_of(a) for a in products}
    optional = config.optional_products
    kinds: Dict[Tuple[ProductId, ...], int] = {}  # offered products, numbered
    kind_of, times, uniforms = [], [], []
    for rng in rngs:
        is_offered = rng.random(len(optional)) < config.offer_probability
        offered = config.always_available + tuple(compress(optional, is_offered.tolist()))
        kind_of.append(kinds.setdefault(tuple(sorted(offered)), len(kinds)))
        n = int(rng.poisson(config.horizon * config.params.rate))
        t = rng.uniform(0.0, config.horizon, size=n)
        t.sort()
        times.append(t)
        uniforms.append(rng.random(n))

    # each kind's option weights and stocks: the null option's stock is
    # unlimited, as an always-available product's is, and an unoffered
    # product has neither
    weight = np.array(
        [[1.0 if c is NULL else config.params.weights[c] if c in key else 0.0 for c in labels]
         for key in kinds]
    )
    left = np.array(
        [[UNLIMITED_STOCK if c is NULL else stock[c] if c in key else 0 for c in labels]
         for key in kinds],
        dtype=np.int64,
    )
    counts = np.array([x.size for x in uniforms], dtype=np.intp)
    picks, resolved = _resolve(weight[kind_of], left[kind_of], counts, np.concatenate(uniforms))

    # discarded arrivals are each visit's last, past its resolved ones
    flat_times = np.concatenate(times).tolist()
    flat_picks = picks.tolist()
    starts = (np.cumsum(counts) - counts).tolist()
    assortments = [Assortment(key, config.include_null) for key in kinds]
    return [
        CompletePath(
            horizon=config.horizon,
            initial_assortment=assortments[kind],
            stocks={a: stock[a] for a in assortments[kind].products},
            events=tuple(zip(flat_times[s : s + r], [labels[j] for j in flat_picks[s : s + r]])),
        )
        for kind, s, r in zip(kind_of, starts, resolved.tolist())
    ]


def _resolve(
    weight: np.ndarray, left: np.ndarray, counts: np.ndarray, u: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Each arrival's choice, as an option column, and the number of
    choosing arrivals of each visit.

    ``weight`` and ``left`` hold each visit's option weights and stocks,
    one row per visit; ``u`` holds the visits' choice uniforms, visit after
    visit, ``counts`` of them each.  A round resolves, for every visit
    still choosing, the stretch of its pending arrivals that face one
    assortment: up to and including the first that sells a product's last
    unit.  An arrival picks the first option whose cumulative probability
    exceeds its uniform, as ``rng.choice(options, p=...)`` does.  A visit's
    cumulative probabilities take the float steps of its options alone: a
    sequential total, division by it, a cumulative sum and renormalization
    by its last entry.  An unoffered or sold-out option has weight zero,
    which changes no partial sum and is never picked.  A visit left with
    no option stops choosing, and its remaining arrivals are discarded.
    """
    options = weight.shape[1]
    picks = np.zeros(u.size, dtype=np.intp)
    starts = np.cumsum(counts) - counts
    pos = starts.copy()  # each visit's first unresolved arrival
    ends = starts + counts
    while True:
        live = left > 0
        rows = np.flatnonzero((pos < ends) & live.any(axis=1))
        if not rows.size:
            return picks, pos - starts
        w = np.where(live[rows], weight[rows], 0.0)
        cdf = (w / w.cumsum(axis=1)[:, -1:]).cumsum(axis=1)
        cdf /= cdf[:, -1:]
        pending = ends[rows] - pos[rows]
        owner = np.repeat(np.arange(rows.size), pending)
        first = np.cumsum(pending) - pending  # each visit's first pending arrival
        at = np.arange(owner.size) + (pos[rows] - first)[owner]
        pick = (cdf[owner] <= u[at, None]).sum(axis=1)
        # each option's running sales, visit by visit
        chosen = pick[:, None] == np.arange(options)
        running = chosen.cumsum(axis=0)
        running -= (running - chosen)[first][owner]
        # a visit's stretch ends at its first arrival that sells a last unit
        last = running[np.arange(owner.size), pick] == left[rows[owner], pick]
        before = np.cumsum(last) - last
        done = before == before[first][owner]
        picks[at[done]] = pick[done]
        sold = np.bincount(owner[done] * options + pick[done], minlength=rows.size * options)
        sold = sold.reshape(rows.size, options)
        left[rows] -= sold
        pos[rows] += sold.sum(axis=1)
