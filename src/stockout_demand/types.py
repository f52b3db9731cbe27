"""Domain types for the inventory-constrained choice process.

A visit is one replenishment interval: customers arrive over ``[0, T]``,
each picks a product from whatever is still in stock (or walks away, the
"null" option), and purchases deplete inventory.  Three observation
granularities of the same visit are modelled here:

* :class:`CompletePath` -- every arrival, with time and choice;
* :class:`TransactionRecord` -- purchases only, timestamps optional;
* :class:`SalesSummary` -- cumulative per-product sales.

Each observation decides for itself whether the process could have
produced it: ``validate()`` raises :class:`InvalidObservation` naming the
first rule it breaks (horizon, stocks, the stock replay, and the times of
a timed record or a complete path).  Construction runs it, so a visit the
process could not produce cannot be built, and nothing downstream checks
a visit again.  A visit's ``stocks`` (and a summary's ``sales``) are
read-only views of private copies taken at construction, so neither the
visit nor the caller's dicts can change what was checked, and one visit
can be shared wherever it recurs.  A complete path and a transaction
record also split themselves at their stock-outs with ``segments()``.

The rules split in two: the header's (horizon and stocks), which every
kind shares, and the body's (the rest).  A reader whose visits repeat a
few headers checks each header once with :func:`checked_header` and
builds each visit on it with the kind's ``on_header``, which runs only the
body's rules and gives the visit its header's ``header_key``, the header
part of the visit's group key; every visit still gets its own read-only
stocks.  The constructors and ``validate()`` run both halves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Optional, Sequence, Tuple

__all__ = [
    "Choice",
    "NULL",
    "Assortment",
    "ModelParams",
    "CompletePath",
    "TransactionRecord",
    "SalesSummary",
    "InvalidObservation",
    "Header",
    "checked_header",
    "project_transactions",
    "project_sales",
    "transaction_segments",
]

# A product id is a small non-negative int; the null alternative is the
# sentinel None (never a product id, so the no-null regime is a flag flip
# on the assortment, not a catalog edit).
ProductId = int
Choice = Optional[int]
NULL: Choice = None

# Stock level treated as never-exhausting.  Kept finite so stock maps stay
# plain ints; no simulated visit gets anywhere near it.
UNLIMITED_STOCK = 10**9


class InvalidObservation(ValueError):
    """Raised when an observation violates its feasibility invariants."""


@dataclass(frozen=True)
class Assortment:
    """An ordered, duplicate-free set of products, with or without null."""

    products: Tuple[ProductId, ...]
    includes_null: bool = True

    def __post_init__(self) -> None:
        if len(set(self.products)) != len(self.products):
            raise InvalidObservation(f"duplicate products in {self.products}")
        if self.products and min(self.products) < 0:
            raise InvalidObservation("product ids must be non-negative")

    def __contains__(self, choice: Choice) -> bool:
        if choice is NULL:
            return self.includes_null
        return choice in self.products

    def without(self, *removed: ProductId) -> "Assortment":
        gone = set(removed)
        return Assortment(
            tuple(p for p in self.products if p not in gone), self.includes_null
        )


@dataclass(frozen=True)
class ModelParams:
    """Arrival rate and per-product attraction weights."""

    rate: float
    weights: Mapping[ProductId, float]

    def __post_init__(self) -> None:
        if not 0 < self.rate < math.inf:
            raise InvalidObservation(
                f"arrival rate must be positive and finite, got {self.rate}"
            )
        for a, w in self.weights.items():
            if not 0 < w < math.inf:
                raise InvalidObservation(
                    f"weight for product {a} must be positive and finite"
                )


Segments = Tuple[
    Tuple[ProductId, ...], Tuple[int, ...], Tuple[Assortment, ...], Tuple[int, ...]
]


def _frozen(visit: object, name: str) -> None:
    """Replace the visit's mapping field ``name`` by a read-only view of a
    private copy."""
    value = getattr(visit, name)
    # dict() of a view walks it item by item; copy() copies the dict behind
    private = value.copy() if type(value) is MappingProxyType else dict(value)
    object.__setattr__(visit, name, MappingProxyType(private))


def _check_header(
    horizon: float, assortment: Assortment, stocks: Mapping[ProductId, int]
) -> None:
    """The rules every visit kind shares: a horizon that is a finite
    positive real number, and stocks of at least one unit for exactly the
    offered products."""
    products = assortment.products
    if stocks.keys() != set(products):
        raise InvalidObservation("stocks must cover exactly the assortment")
    if type(horizon) is bool or not isinstance(horizon, (int, float)):
        raise InvalidObservation(f"T must be a real number, got {horizon!r}")
    if not (math.isfinite(horizon) and horizon > 0):
        raise InvalidObservation(f"T must be finite and positive, got {horizon}")
    for a in products:
        if stocks[a] < 1:
            raise InvalidObservation(f"offered product {a} has stock {stocks[a]}")


def _header_key(
    horizon: float, assortment: Assortment, stocks: Mapping[ProductId, int]
) -> tuple:
    products = assortment.products
    stocks_in_order = tuple(map(stocks.__getitem__, products))
    return horizon, (products, assortment.includes_null), stocks_in_order


#: a visit header that has passed the rules every visit kind shares:
#: ``(horizon, assortment, stocks, key)``, ``key`` the header part of a
#: visit's group key (see ``header_key``)
Header = Tuple[float, Assortment, Mapping[ProductId, int], tuple]


def checked_header(
    horizon: float, assortment: Assortment, stocks: Mapping[ProductId, int]
) -> Header:
    """The header ``(horizon, assortment, stocks)`` once it passes the
    shared rules, which raise :class:`InvalidObservation` otherwise.  It
    keeps a private copy of ``stocks``, so the visits built on it by
    ``on_header`` can skip those rules."""
    _check_header(horizon, assortment, stocks)
    stocks = dict(stocks)
    return horizon, assortment, stocks, _header_key(horizon, assortment, stocks)


class _Visit:
    """What the three visit kinds share.  Construction freezes ``stocks``
    and the class's other mapping fields (``_MAPPINGS``), then runs
    :meth:`validate`: the shared header rules, then the kind's own body
    rules (``_check_body``).  :meth:`on_header` builds a visit on a
    :data:`Header` that has passed the shared rules, and runs only the
    body rules."""

    _MAPPINGS = ()  # mapping fields after ``stocks``

    def __post_init__(self) -> None:
        _frozen(self, "stocks")
        for name in self._MAPPINGS:
            _frozen(self, name)
        self.validate()

    @cached_property
    def header_key(self) -> tuple:
        """``(horizon, (products, includes_null), stocks in product
        order)``: the part of the visit's group key that its header gives.
        A visit built by :meth:`on_header` shares its header's."""
        return _header_key(self.horizon, self.initial_assortment, self.stocks)

    def validate(self) -> None:
        """Raise :class:`InvalidObservation` at the first broken rule: the
        horizon and stocks, then the kind's own rules (see
        ``_check_body``)."""
        _check_header(self.horizon, self.initial_assortment, self.stocks)
        self._check_body()

    @classmethod
    def on_header(cls, header: Header, body: dict):
        """The visit with the fields of ``header`` and the fields after
        ``stocks`` in ``body`` (by name), checked by its body rules alone:
        ``header``, from :func:`checked_header`, has passed the shared
        ones.  Like construction, it keeps read-only views of private
        copies of its mappings."""
        horizon, assortment, stocks, key = header
        visit = object.__new__(cls)
        # set in field order, as construction does, so that the instance
        # keeps its class's compact shared-key attribute table
        fields = visit.__dict__
        fields["horizon"] = horizon
        fields["initial_assortment"] = assortment
        fields["stocks"] = MappingProxyType(stocks.copy())
        fields.update(body)
        fields["header_key"] = key
        for name in cls._MAPPINGS:
            _frozen(visit, name)
        visit._check_body()
        return visit


@dataclass(frozen=True)
class CompletePath(_Visit):
    """One visit's full outcome: every arrival's time and choice."""

    horizon: float
    initial_assortment: Assortment
    stocks: Mapping[ProductId, int]
    events: Tuple[Tuple[float, Choice], ...]

    @property
    def arrivals(self) -> int:
        return len(self.events)

    @property
    def choices(self) -> Tuple[Choice, ...]:
        return tuple(c for _, c in self.events)

    def _check_body(self) -> None:
        """Raise :class:`InvalidObservation` at the first event with a time
        outside ``[0, T]`` or before the previous one, a null choice in a
        no-null visit, or a choice of a product not offered or already
        sold out.

        Sequence order, not timestamps, drives feasibility; equal
        timestamps (possible after rounding) are allowed.
        """
        remaining = self.stocks.copy()
        prev = 0.0
        for i, (t, c) in enumerate(self.events, start=1):
            # a NaN fails both comparisons
            if t is None or not 0.0 <= t <= self.horizon:
                raise InvalidObservation(f"event {i}: time {t} outside [0, {self.horizon}]")
            if t < prev:
                raise InvalidObservation(f"event {i}: time {t} decreases from {prev}")
            prev = t
            if c is NULL:
                if not self.initial_assortment.includes_null:
                    raise InvalidObservation(f"event {i}: null choice in a no-null visit")
                continue
            if c not in remaining:
                raise InvalidObservation(
                    f"event {i}: choice of product {c} not in the initial assortment"
                )
            if remaining[c] <= 0:
                raise InvalidObservation(f"event {i}: choice of product {c} after it stocked out")
            remaining[c] -= 1

    def segments(self) -> Segments:
        """:func:`transaction_segments` of the path's choices."""
        return transaction_segments(self.initial_assortment, self.stocks, self.choices)


@dataclass(frozen=True)
class TransactionRecord(_Visit):
    """Purchases only; null choices unobserved.  Timestamps all-or-none."""

    horizon: float
    initial_assortment: Assortment
    stocks: Mapping[ProductId, int]
    transactions: Tuple[Tuple[Optional[float], ProductId], ...]
    timestamps_present: bool

    @property
    def products(self) -> Tuple[ProductId, ...]:
        return tuple(p for _, p in self.transactions)

    @property
    def total(self) -> int:
        return len(self.transactions)

    def _check_body(self) -> None:
        """Raise :class:`InvalidObservation` at the first purchase beyond
        its stock, or with a time outside ``[0, T]`` or before the previous
        one (equal times, possible after rounding, are fine)."""
        left = self.stocks.copy()
        prev = 0.0
        for i, (t, p) in enumerate(self.transactions, start=1):
            if self.timestamps_present:
                # a NaN fails both comparisons
                if t is None or not 0.0 <= t <= self.horizon:
                    raise InvalidObservation(
                        f"transaction {i}: time {t} outside [0, {self.horizon}]"
                    )
                if t < prev:
                    raise InvalidObservation(
                        f"transaction {i}: time {t} decreases from {prev}"
                    )
                prev = t
            left[p] = left.get(p, 0) - 1
            if left[p] < 0:
                raise InvalidObservation(
                    f"transaction {i}: product {p} bought beyond its stock of "
                    f"{self.stocks.get(p, 0)}"
                )

    def segments(self) -> Segments:
        """:func:`transaction_segments` of the purchases."""
        return transaction_segments(self.initial_assortment, self.stocks, self.products)


@dataclass(frozen=True)
class SalesSummary(_Visit):
    """Per-product cumulative sales; order and null choices latent."""

    horizon: float
    initial_assortment: Assortment
    stocks: Mapping[ProductId, int]
    sales: Mapping[ProductId, int]

    _MAPPINGS = ("sales",)

    @property
    def total_sales(self) -> int:
        return sum(self.sales.values())

    @property
    def stocked_out(self) -> Tuple[ProductId, ...]:
        return tuple(
            a
            for a in self.initial_assortment.products
            if self.sales.get(a, 0) == self.stocks.get(a)
        )

    def _check_body(self) -> None:
        """Raise :class:`InvalidObservation` at the first sales outside
        ``[0, stock]`` or of a product not offered."""
        for a in self.initial_assortment.products:
            n_a = self.sales.get(a, 0)
            if not 0 <= n_a <= self.stocks[a]:
                raise InvalidObservation(
                    f"sales {n_a} of product {a} outside [0, {self.stocks[a]}]"
                )
        for a in self.sales:
            if a not in self.initial_assortment.products:
                raise InvalidObservation(f"sales recorded for unoffered product {a}")


def project_transactions(path: CompletePath, keep_times: bool) -> TransactionRecord:
    """Drop null choices, keeping purchases in order (times iff requested)."""
    txns = tuple(
        (t if keep_times else None, c) for t, c in path.events if c is not NULL
    )
    return TransactionRecord(
        horizon=path.horizon,
        initial_assortment=path.initial_assortment,
        stocks=path.stocks,
        transactions=txns,
        timestamps_present=keep_times,
    )


def project_sales(path: CompletePath) -> SalesSummary:
    """Collapse a path to per-product cumulative sales."""
    sales = {a: 0 for a in path.initial_assortment.products}
    for _, c in path.events:
        if c is not NULL:
            sales[c] += 1
    return SalesSummary(
        horizon=path.horizon,
        initial_assortment=path.initial_assortment,
        stocks=path.stocks,
        sales=sales,
    )


def transaction_segments(
    initial: Assortment,
    stocks: Mapping[ProductId, int],
    choices: Sequence[Choice],
) -> Segments:
    """Replay a choice sequence and split it at stock-outs.

    Returns ``(stockout_order, per-segment choice counts excluding the
    stock-out purchase, per-segment assortments, 1-based choice indices of
    the stock-outs)``.  A ``NULL`` choice depletes nothing and counts in
    the current segment.
    """
    remaining = {a: stocks[a] for a in initial.products}
    current = initial
    stockout_order: list = []
    seg_counts: list = []
    assortments: list = [current]
    stockout_indices: list = []
    count = 0
    for i, c in enumerate(choices, start=1):
        if c is NULL:
            count += 1
            continue
        if c not in remaining or remaining[c] <= 0:
            raise InvalidObservation(f"infeasible purchase of {c} at index {i}")
        remaining[c] -= 1
        if remaining[c] == 0:
            stockout_order.append(c)
            seg_counts.append(count)
            stockout_indices.append(i)
            count = 0
            current = current.without(c)
            assortments.append(current)
        else:
            count += 1
    seg_counts.append(count)
    return (
        tuple(stockout_order),
        tuple(seg_counts),
        tuple(assortments),
        tuple(stockout_indices),
    )
