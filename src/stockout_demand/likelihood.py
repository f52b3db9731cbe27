"""Likelihood functions for every observation granularity, in log space.

Six likelihoods cover the data regimes:

* ``l1`` / ``l2`` -- complete data (with / without arrival times);
* ``l3`` -- transactions with timestamps (piecewise-thinned Poisson);
* ``l4`` -- transactions without timestamps (sum over latent null-arrival
  counts per segment; equivalently a Dirichlet moment generating function,
  i.e. a confluent Lauricella series);
* ``l5`` -- sales with a null option (sum over latent stock-out orderings,
  segment splits, and null counts);
* ``l6`` -- sales with no null option (total arrivals observed exactly).

Under the attraction model the inner sums of ``l5``/``l6`` collapse to a
sum over stock-out index vectors; that form is expressed as
parameter-independent "term tables", which the ``table_*`` functions fill.
One exact sales table, :func:`table_sales`, serves both: the visit's null
regime picks its arrival counts (up to ``m`` for ``l5``, the sales for
``l6``), as it does for the SAA and naive sales tables.  A sales table
records, per arrival count, only the layout shape (the stocks of the
products that sell out, and ``n``) and a base coefficient; complete and
transaction tables list explicit terms.  Tables are records,
not evaluators: :func:`stack_tables` stacks a dataset's tables into flat
arrays once, enumerating each distinct shape once in numpy, and one
kernel, :func:`term_loglik_grad`, evaluates their grouped log-sum-exp with
its gradient; timed transactions fold into one table of per-assortment
totals (:func:`fold_timed`), evaluated by :func:`timed_loglik_grad`.
``estimation.compile_dataset`` builds and stacks the tables, and is the one
way they are evaluated.  Its oracles are the ``l*`` functions: the paper's
formulas, written for a general choice law, evaluated visit by visit with
the attraction probabilities of ``choice.prob``.

Every function here takes visits as built, and a visit checks itself when
it is built (see :mod:`~stockout_demand.types`), so none of them checks
again whether the process could have produced it: every visit has a
finite log-likelihood and fills at least one term.  What the oracles and
the transaction likelihoods do check is whether the visit fits the
likelihood asked for: its null regime, and timestamps for the timed
likelihood.

All infinite sums are truncated at a maximum arrival count ``m`` with the
Poisson tail beyond ``m`` ignored; the tail mass is controlled by
:class:`TruncationPolicy`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, permutations, product as iter_product
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.special import logsumexp
from scipy.stats import poisson as poisson_dist

from . import choice
from .combinatorics import (
    count_stockout_vectors,
    log_binomial,
    log_multinomial,
    sample_stockout_vectors,
)
from .types import (
    Assortment,
    CompletePath,
    InvalidObservation,
    ModelParams,
    NULL,
    SalesSummary,
    TransactionRecord,
)

__all__ = [
    "TruncationPolicy",
    "l1_complete",
    "l2_choice_sequence",
    "l3_transactions_timed",
    "l4_transactions",
    "l4_integral",
    "lauricella_mgf",
    "l5_sales",
    "l6_generic",
    "l6_choice_part",
    "counterexample_expectations",
    "counterexample_bruteforce",
    "l4_lauricella",
    "TermTable",
    "TimedSegmentTable",
    "table_complete",
    "table_transactions",
    "table_sales",
    "table_sales_saa",
    "table_naive_sales",
    "fold_timed",
    "stack_tables",
    "term_loglik_grad",
    "timed_loglik_grad",
]

NEG_INF = float("-inf")

#: Poisson tail mass beyond an adaptive truncation's ``m``
TAIL_EPSILON = 1e-10


@dataclass(frozen=True)
class TruncationPolicy:
    """Cap on total arrivals per visit when truncating the infinite sums.

    Either a fixed ``m``, or the smallest ``m`` whose Poisson tail mass at
    rate ``T * rate_cap`` drops below :data:`TAIL_EPSILON`.  Always at least
    the visit's observed transaction count.  A negative ``m`` raises
    :class:`ValueError` when the policy is built.
    """

    m: Optional[int] = None

    def __post_init__(self) -> None:
        if self.m is not None and self.m < 0:
            raise ValueError(f"truncation m must be >= 0, got {self.m}")

    def resolve(self, horizon: float, rate_cap: float, observed: int) -> int:
        if self.m is not None:
            if self.m < observed:
                raise InvalidObservation(
                    f"truncation m={self.m} below observed count {observed}"
                )
            return self.m
        mu = horizon * rate_cap
        m = max(observed, int(math.ceil(mu)))
        while poisson_dist.sf(m, mu) >= TAIL_EPSILON:
            m += 1
        return m


def _poisson_logpmf(n: int, mu: float) -> float:
    """``log Poisson(n; mu)`` for ``mu = T * rate > 0``."""
    return n * math.log(mu) - mu - math.lgamma(n + 1)


def _compositions_at_most(limit: int, parts: int) -> Iterator[Tuple[int, ...]]:
    """All tuples of ``parts`` non-negative ints summing to at most ``limit``."""
    if parts == 0:
        yield ()
        return
    for first in range(limit + 1):
        for rest in _compositions_at_most(limit - first, parts - 1):
            yield (first,) + rest


def _compositions_exact(total: int, parts: int) -> Iterator[Tuple[int, ...]]:
    """All tuples of ``parts >= 1`` non-negative ints summing to ``total``:
    the last part takes what the others leave."""
    for head in _compositions_at_most(total, parts - 1):
        yield head + (total - sum(head),)


def _null_arrival_terms(
    base: float,
    seg_sizes: Sequence[int],
    log_p_null: Sequence[float],
    observed: int,
    m: int,
    mu: float,
) -> Iterator[float]:
    """Log-terms of the sum over the latent null arrivals ``n_o_j`` of each
    segment, for every ``n_o`` whose total arrivals ``observed + |n_o|``
    stay at or below ``m``: ``base + log Poisson(observed + |n_o|; mu) +
    sum_j [log C(n_o_j + s_j, n_o_j) + n_o_j log P_o^[j]]``.  Segment ``j``
    holds ``s_j = seg_sizes[j]`` observed choices (its closing stock-out
    purchase excluded), and ``log_p_null[j]`` is its log no-purchase
    probability; the binomial counts the interleavings of its null
    arrivals with its choices."""
    for n_o in _compositions_at_most(m - observed, len(seg_sizes)):
        t = base + _poisson_logpmf(observed + sum(n_o), mu)
        for extra, size, log_p in zip(n_o, seg_sizes, log_p_null):
            t += log_binomial(extra + size, extra) + extra * log_p
        yield t


def _log_choice_sequence(
    obs: Union[CompletePath, TransactionRecord],
    choices: Iterable[Optional[int]],
    params: ModelParams,
) -> float:
    """``sum log P(c | current assortment)`` over ``choices``, replayed from
    the visit's initial assortment and stocks.

    A purchase that exhausts a product's stock removes the product from the
    assortment the next arrivals face; a ``NULL`` choice depletes nothing.
    """
    value = 0.0
    remaining = dict(obs.stocks)
    current = obs.initial_assortment
    for c in choices:
        value += math.log(choice.prob(params, c, current))
        if c is not NULL:
            remaining[c] -= 1
            if remaining[c] == 0:
                current = current.without(c)
    return value


# ---------------------------------------------------------------------------
# complete data


def l1_complete(path: CompletePath, params: ModelParams) -> float:
    """Density of a fully observed path: ``lambda^n e^{-T lambda} prod P``."""
    return (
        path.arrivals * math.log(params.rate)
        - path.horizon * params.rate
        + _log_choice_sequence(path, path.choices, params)
    )


def l2_choice_sequence(path: CompletePath, params: ModelParams) -> float:
    """Probability of the arrival count and choice sequence (times dropped).

    Differs from :func:`l1_complete` by exactly ``log(n! / T^n)``: given the
    counts and choices, the times carry no extra information.
    """
    n = path.arrivals
    return l1_complete(path, params) + n * math.log(path.horizon) - math.lgamma(n + 1)


# ---------------------------------------------------------------------------
# transactions with timestamps


def _timed_segment_durations(
    record: TransactionRecord, stockout_idx: Sequence[int]
) -> Tuple[float, ...]:
    """Lengths of the constant-assortment stretches, split at the times of
    the stock-out purchases (``stockout_idx`` from the record's
    ``segments()``)."""
    boundaries = [0.0]
    for i in stockout_idx:
        t = record.transactions[i - 1][0]
        assert t is not None
        boundaries.append(float(t))
    boundaries.append(record.horizon)
    return tuple(b - a for a, b in zip(boundaries, boundaries[1:]))


def _purchase_terms(
    record: TransactionRecord, params: ModelParams
) -> Tuple[Tuple[int, ...], float, List[float]]:
    """What every transaction likelihood reads off a record: the choices
    counted in each constant-assortment segment (from ``segments()``), the
    log-probability of the purchase sequence, and each segment's
    no-purchase probability ``P_o^[j]``."""
    _, seg_counts, assortments, _ = record.segments()
    log_purchases = _log_choice_sequence(record, record.products, params)
    p_null = [choice.prob(params, NULL, a) for a in assortments]
    return seg_counts, log_purchases, p_null


def l3_transactions_timed(record: TransactionRecord, params: ModelParams) -> float:
    """Purchase-sequence density with timestamps.

    Transactions form a Poisson stream thinned by the no-purchase
    probability of the current assortment, so the exponent integrates the
    thinned rate over each constant-assortment stretch.  An untimed record,
    or one without a null option, raises :class:`InvalidObservation`.
    """
    if not record.timestamps_present:
        raise InvalidObservation("l3 needs transaction timestamps")
    if not record.initial_assortment.includes_null:
        raise InvalidObservation("l3 is defined for the null-inclusive regime")
    _, log_purchases, p_null = _purchase_terms(record, params)
    durations = _timed_segment_durations(record, record.segments()[3])
    value = record.total * math.log(params.rate) + log_purchases
    for p, duration in zip(p_null, durations):
        value -= (1.0 - p) * duration * params.rate
    return value


# ---------------------------------------------------------------------------
# transactions without timestamps


def l4_transactions(
    record: TransactionRecord, params: ModelParams, trunc: TruncationPolicy
) -> float:
    """Purchase-sequence probability with times unobserved.

    Sums over the latent null-arrival counts per segment, truncated so the
    total arrival count stays at or below the policy's ``m``.
    """
    n_purch = record.total
    m = trunc.resolve(record.horizon, params.rate, n_purch)
    seg_counts, log_purchases, p_null = _purchase_terms(record, params)
    log_p_null = [math.log(p) for p in p_null]
    terms = _null_arrival_terms(
        log_purchases, seg_counts, log_p_null, n_purch, m, record.horizon * params.rate
    )
    return float(logsumexp(list(terms)))


def lauricella_mgf(
    segment_sizes: Sequence[int], thetas: Sequence[float], max_extra: int
) -> float:
    """Truncated confluent Lauricella series.

    ``sum_{n_o} [s!/(s+|n_o|)!] prod_j C(n_o_j + s_j, n_o_j) theta_j^{n_o_j}``
    over ``|n_o| <= max_extra``, where ``s = sum(sizes) + len(sizes) - 1``
    is one less than the total Dirichlet concentration.  This is the
    moment generating function of a Dirichlet(sizes + 1) vector evaluated
    at ``thetas``.
    """
    if any(th < 0 for th in thetas):
        raise ValueError("series coefficients must be non-negative")
    s_total = sum(segment_sizes) + len(segment_sizes) - 1
    terms = []
    for n_o in _compositions_at_most(max_extra, len(segment_sizes)):
        t = math.lgamma(s_total + 1) - math.lgamma(s_total + sum(n_o) + 1)
        for j, (extra, size) in enumerate(zip(n_o, segment_sizes)):
            if extra > 0 and thetas[j] == 0.0:
                t = NEG_INF
                break
            t += log_binomial(extra + size, extra)
            if extra > 0:
                t += extra * math.log(thetas[j])
        terms.append(t)
    return float(math.exp(logsumexp(terms)))


def l4_integral(
    record: TransactionRecord, params: ModelParams, mc_samples: int, seed: int
) -> Tuple[float, float]:
    """Monte-Carlo estimate of ``l4`` via its integral representation.

    Averages ``exp(T lambda * sum_j P_o^[j] q_j)`` over Dirichlet-distributed
    segment-length fractions ``q``.  Returns ``(log estimate, standard
    error of the log estimate)``.
    """
    seg_counts, log_purchases, p_null = _purchase_terms(record, params)
    mu = record.horizon * params.rate
    n_purch = record.total
    coeffs = np.array([mu * p for p in p_null])
    rng = np.random.default_rng(seed)
    q = rng.dirichlet(np.asarray(seg_counts) + 1.0, size=mc_samples)
    values = np.exp(q @ coeffs)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(mc_samples)) if mc_samples > 1 else 0.0
    base = log_purchases + _poisson_logpmf(n_purch, mu)
    return base + math.log(mean), se / mean


def l4_lauricella(
    record: TransactionRecord, params: ModelParams, trunc: TruncationPolicy
) -> float:
    """``l4`` evaluated by plugging the Lauricella series into the Dirichlet
    moment-generating-function form; agrees with :func:`l4_transactions`
    at the same truncation up to round-off.
    """
    seg_counts, log_purchases, p_null = _purchase_terms(record, params)
    mu = record.horizon * params.rate
    n_purch = record.total
    m = trunc.resolve(record.horizon, params.rate, n_purch)
    thetas = [mu * p for p in p_null]
    series = lauricella_mgf(seg_counts, thetas, m - n_purch)
    return log_purchases + _poisson_logpmf(n_purch, mu) + math.log(series)


# ---------------------------------------------------------------------------
# sales data, the paper's general formulas


def _sales_splits(
    summary: SalesSummary, params: ModelParams
) -> Iterator[Tuple[List[Assortment], Iterator]]:
    """Latent layouts of a sales summary, as the paper's general sales
    formulas sum them, with choice probabilities from ``choice.prob``.

    For each stock-out order, yields the assortments its ``k + 1``
    segments face and an iterator over the splits of every product's sales
    across the segments in which it is still offered (a stock-out
    product's closing purchase ends its last segment).  Each split comes as
    the per-segment sales counts, in catalog order, and the log-probability
    of the product choices it implies.  Only product probabilities are
    evaluated, so a no-null summary never asks for ``P(NULL)``.
    """
    products = summary.initial_assortment.products
    stocked = summary.stocked_out
    k = len(stocked)

    def splits(order, log_p, per_product):
        for combo in iter_product(*per_product):
            seg_counts = [tuple(split[j] for split in combo) for j in range(k + 1)]
            log_choice = 0.0
            for j in range(k + 1):
                for a, c in zip(products, seg_counts[j]):
                    e = c + (1 if j < k and order[j] == a else 0)
                    if e:
                        log_choice += e * log_p[j][a]
            yield seg_counts, log_choice

    for order in permutations(stocked):
        # segment j faces everything minus the earlier stock-outs
        seg_assort = [
            summary.initial_assortment.without(*order[:j]) for j in range(k + 1)
        ]
        log_p = [
            {a: math.log(choice.prob(params, a, seg)) for a in seg.products}
            for seg in seg_assort
        ]
        position = {a: j for j, a in enumerate(order, start=1)}
        per_product = []
        for a in products:
            q = summary.sales.get(a, 0) - (1 if a in position else 0)
            allowed = position.get(a, k + 1)
            per_product.append(
                [split + (0,) * (k + 1 - allowed) for split in _compositions_exact(q, allowed)]
            )
        yield seg_assort, splits(order, log_p, per_product)


def l5_sales(
    summary: SalesSummary, params: ModelParams, trunc: TruncationPolicy
) -> float:
    """Null-inclusive sales likelihood (triple latent sum): the paper's
    general formula, evaluated through ``choice.prob``.

    Sums over stock-out orderings, per-segment splits of each product's
    sales, and null counts per segment.  Exponential in the stock-out
    count; meant for small instances and as the oracle for the compiled
    sales tables.
    """
    if not summary.initial_assortment.includes_null:
        raise InvalidObservation("l5 is the null-inclusive sales likelihood")
    n_sales = summary.total_sales
    m = trunc.resolve(summary.horizon, params.rate, n_sales)
    mu = summary.horizon * params.rate
    terms: List[float] = []
    for seg_assort, splits in _sales_splits(summary, params):
        log_p_null = [math.log(choice.prob(params, NULL, seg)) for seg in seg_assort]
        for seg_counts, log_choice in splits:
            # orderings of each segment's sales among themselves; the null
            # arrivals interleave with them as with a purchase sequence
            base = log_choice + sum(log_multinomial(counts) for counts in seg_counts)
            seg_sales = [sum(counts) for counts in seg_counts]
            terms += _null_arrival_terms(base, seg_sales, log_p_null, n_sales, m, mu)
    return float(logsumexp(terms))


def l6_choice_part(summary: SalesSummary, params: ModelParams) -> float:
    """Log-probability of the sales vector given the arrival count; sums to
    one over feasible sales vectors with the same total.
    """
    terms = [
        log_choice + sum(log_multinomial(counts) for counts in seg_counts)
        for _, splits in _sales_splits(summary, params)
        for seg_counts, log_choice in splits
    ]
    return float(logsumexp(terms))


def l6_generic(summary: SalesSummary, params: ModelParams) -> float:
    """No-null sales likelihood: the paper's general formula, evaluated
    through ``choice.prob``.  The arrival count is the total sales, so
    the Poisson factor separates from the choice part.
    """
    if summary.initial_assortment.includes_null:
        raise InvalidObservation("l6 is the no-null sales likelihood")
    mu = summary.horizon * params.rate
    return _poisson_logpmf(summary.total_sales, mu) + l6_choice_part(summary, params)


# ---------------------------------------------------------------------------
# term tables under the attraction model


def membership_matrix(catalog: Sequence[int], assortments: Sequence[Assortment]) -> np.ndarray:
    """0/1 matrix whose row ``d`` marks the catalog products offered in
    assortment ``d``, so that ``membership @ weights`` gives the weight sums."""
    a_of = {a: i for i, a in enumerate(catalog)}
    rows = np.zeros((len(assortments), len(catalog)))
    for d, assortment in enumerate(assortments):
        for a in assortment.products:
            rows[d, a_of[a]] = 1.0
    return rows


class TermTable:
    """A likelihood compiled to ``sum_a z_a log f_a + LSE_i(term_i)`` where
    ``term_i = coef_i + n_i log(T lambda) - T lambda - sum_d E_id log D_d``
    and ``D_d`` are assortment denominators.

    The table names the assortments its terms can face, ``assortments``,
    and lists its terms in two parameter-free forms, so one fill serves
    every evaluation during optimization:

    * ``layouts``: sales blocks ``(stocks, n, base, drawn)``.  ``stocks``
      are those of the products that sell out, in assortment order; the
      block's terms are the stock-out layouts of that shape at ``n``
      arrivals, each with coefficient ``base`` plus its log-binomials.
      ``drawn`` is ``None`` for every layout of the shape, whose segment
      ``j`` faces ``assortments[mask]``, ``mask`` marking the positions
      already sold out; or a list of sampled ``(order positions, segment
      sizes, candidates)`` layouts, whose segment ``j`` faces
      ``assortments[candidates[j]]``.
    * explicit terms ``explicit_n`` / ``explicit_coef`` /
      ``explicit_exp``, whose segment ``j`` faces ``assortments[j]`` with
      exponent ``explicit_exp[i][j]``.

    A table is a plain record: :func:`stack_tables` turns a dataset's
    tables into the flat arrays of :func:`term_loglik_grad`, which
    ``estimation.compile_dataset`` holds.  Every visit, being possible,
    fills at least one term; stacking a table without terms raises
    :class:`InvalidObservation`.
    """

    def __init__(
        self, horizon: float, catalog: Sequence[int], sales: Mapping[int, int]
    ) -> None:
        self.horizon = horizon
        self.catalog = tuple(catalog)
        self.sales = [sales.get(a, 0) for a in self.catalog]
        self.assortments: Sequence[Assortment] = []
        self.layouts: List[Tuple[Tuple[int, ...], int, float, Optional[list]]] = []
        self.explicit_n: List[int] = []
        self.explicit_coef: List[float] = []
        self.explicit_exp: List[Sequence[float]] = []


def _shape_layouts(
    shapes: Sequence[Tuple[Tuple[int, ...], int]], k: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every layout of each sales shape ``(stocks, n)`` in ``shapes``, all
    with ``k`` products selling out: the shape, the stock-out order (as
    positions into ``stocks``) and the segment sizes (stock-out arrivals
    excluded) of every layout.

    Layouts come shape by shape, then order by order in
    :func:`permutations` order, then by the stock-out arrival indices
    ``r_1 < ... < r_k`` in lexicographic order.  An order keeps the indices
    that fall within ``n`` and leave room for every unit sold out so far,
    ``r_j >= s_1 + ... + s_j``; the sizes are :func:`_segment_sizes`.
    """
    top = max(n for _, n in shapes)
    count = math.comb(top, k)
    indices = np.fromiter(
        chain.from_iterable(combinations(range(1, top + 1), k)), np.int64, count * k
    ).reshape(count, k)
    orders = np.array(list(permutations(range(k))), dtype=np.int64)
    orders = orders.reshape(math.factorial(k), k)
    stocks = np.array([s for s, _ in shapes], dtype=np.int64).reshape(len(shapes), k)
    n = np.array([n for _, n in shapes], dtype=np.int64)
    need = np.cumsum(stocks[:, orders], axis=2)[:, :, None, :]
    fits = ((indices >= need) & (indices <= n[:, None, None, None])).all(axis=3)
    shape_of, order_of, index_of = np.nonzero(fits)
    return shape_of, orders[order_of], _segment_sizes(indices[index_of], n[shape_of, None])


def _segment_sizes(r: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Segment sizes of the layouts whose stock-outs arrive at the
    increasing indices ``r`` (one layout per row) out of ``n`` arrivals (a
    column): ``r_1 - 1, r_j - r_{j-1} - 1, ..., n - r_k``, each segment's
    closing stock-out arrival excluded."""
    ends = np.concatenate([r, n + 1], axis=1)
    starts = np.concatenate([np.zeros((r.shape[0], 1), dtype=np.int64), r], axis=1)
    return ends - starts - 1


def _layout_arrays(
    stocks: np.ndarray, orders: np.ndarray, sizes: np.ndarray, log_fact: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Columns of the sales terms of the layouts ``(orders[i], sizes[i])``
    of products with stocks ``stocks[i]``.

    Returns the log-binomial of every stock-out (the ways to place the
    product's earlier units among the slots before it that no earlier
    stock-out product took) and every segment's exponent (its size, plus
    the closing stock-out purchase for all but the last).  ``log_fact[x]``
    is ``log x!``.
    """
    k = orders.shape[1]
    s = np.take_along_axis(stocks, orders, axis=1)
    # the j-th stock-out arrives at index sum_{i<=j} (size_i + 1)
    slots = np.cumsum(sizes[:, :k] + 1, axis=1) - 1 - (np.cumsum(s, axis=1) - s)
    binom = log_fact[slots] - log_fact[s - 1] - log_fact[slots - s + 1]
    exps = sizes.astype(float)
    exps[:, :k] += 1.0
    return binom, exps


def _pack_segments(
    cand: np.ndarray,
    exps: np.ndarray,
    uid: np.ndarray,
    fields: Sequence[Tuple[Tuple[int, ...], bool]],
) -> Tuple[List[Assortment], np.ndarray, np.ndarray]:
    """The assortment registry and the ``seg_idx`` / ``seg_exp`` arrays of
    terms whose segment ``j`` faces candidate ``cand[i, j]`` (``-1`` past
    the last segment) with exponent ``exps[i, j]``.

    Candidate ``c`` is the distinct assortment ``uid[c]``, of fields
    ``fields[uid[c]]``.  The registry holds the distinct assortments in
    order of first appearance, term by term and segment by segment, zero
    exponents included; each term's nonzero exponents fill one row, in
    segment order, padded with zero exponents to the longest row.
    """
    first_uid, first_at = np.unique(uid[cand[cand >= 0]], return_index=True)
    registered = first_uid[np.argsort(first_at)]
    rank = np.zeros(len(fields), dtype=np.int64)
    rank[registered] = np.arange(registered.size)
    nonzero = exps != 0.0
    slot = np.cumsum(nonzero, axis=1) - 1
    term_of, seg = np.nonzero(nonzero)
    width = int(nonzero.sum(axis=1).max(initial=0))
    seg_idx = np.zeros((cand.shape[0], width), dtype=np.int64)
    seg_exp = np.zeros((cand.shape[0], width))
    seg_idx[term_of, slot[term_of, seg]] = rank[uid[cand[term_of, seg]]]
    seg_exp[term_of, slot[term_of, seg]] = exps[term_of, seg]
    return [Assortment(*fields[u]) for u in registered], seg_idx, seg_exp


def stack_tables(
    catalog: Sequence[int], tables: Sequence[Tuple[TermTable, float]]
) -> Tuple[np.ndarray, ...]:
    """The arrays :func:`term_loglik_grad` takes after ``x``, for the
    groups ``(table, count)`` over the products ``catalog``.

    Terms come table by table, and within a table block by block (arrival
    count, then layout).  Every block's terms are rows of one row set:
    the layouts of all shapes with ``k`` stock-outs, enumerated once each;
    the drawn layouts with ``k`` stock-outs; or the explicit terms of
    width ``w``.  Each row set is built in one pass, and one gather per row
    set puts the terms in place: the block's base coefficient plus the
    row's log-binomials, and the row's candidates (a full block's masks,
    a drawn layout's listed candidates) offset into the table's.  :func:`_pack_segments` then numbers the
    assortments the terms face.  Raises :class:`InvalidObservation` for a
    hand-built table without terms.
    """
    col = {a: i for i, a in enumerate(catalog)}
    # distinct candidate assortments, keyed by their fields, which hash
    # faster than the dataclass
    distinct: Dict[Tuple[Tuple[int, ...], bool], int] = {}
    uid: List[int] = []  # distinct-assortment id of every candidate
    # per block: table, first candidate, arrival count, first row in its
    # row set and term count; then its base coefficient
    blocks: List[Tuple[int, int, int, int, int]] = []
    bases: List[float] = []
    # blocks by row set: by stock-out count and shape, and, with their rows,
    # by stock-out count (drawn layouts) or width (explicit terms)
    shapes: Dict[int, Dict[Tuple[Tuple[int, ...], int], List[int]]] = {}
    drawn: Dict[int, Tuple[list, list, list, list, list]] = {}
    explicit: Dict[int, Tuple[list, list]] = {}
    for g, (table, _) in enumerate(tables):
        offset = len(uid)
        uid += [
            distinct.setdefault((a.products, a.includes_null), len(distinct))
            for a in table.assortments
        ]
        if table.explicit_n:
            # one block per explicit term, its coefficient the base
            seqs, exps = explicit.setdefault(len(table.assortments), ([], []))
            seqs += range(len(blocks), len(blocks) + len(table.explicit_n))
            blocks += [
                (g, offset, n, len(exps) + i, 1) for i, n in enumerate(table.explicit_n)
            ]
            bases += table.explicit_coef
            exps += table.explicit_exp
        for stocks, n, base, layouts in table.layouts:
            k = len(stocks)
            if layouts is None:
                shapes.setdefault(k, {}).setdefault((stocks, n), []).append(len(blocks))
                blocks.append((g, offset, n, 0, 0))  # rows set once enumerated
            else:
                seqs, orders, sizes, faced, stocks_of = drawn.setdefault(
                    k, ([], [], [], [], [])
                )
                seqs.append(len(blocks))
                blocks.append((g, offset, n, len(orders), len(layouts)))
                orders += [order for order, _, _ in layouts]
                sizes += [layout for _, layout, _ in layouts]
                faced += [candidates for _, _, candidates in layouts]
                stocks_of += [stocks] * len(layouts)
            bases.append(base)
    block = np.array(blocks, dtype=np.int64).reshape(len(blocks), 5)
    base_of = np.array(bases, dtype=float)
    log_fact = np.array(
        [math.lgamma(x + 1) for x in range(int(block[:, 2].max(initial=0)) + 1)]
    )

    # every row set: its blocks, and per row the log-binomials, candidates
    # and exponents
    row_sets: List[Tuple[List[int], np.ndarray, np.ndarray, np.ndarray]] = []
    for k, by_shape in shapes.items():
        keys = list(by_shape)
        shape_of, orders, sizes = _shape_layouts(keys, k)
        lens = np.bincount(shape_of, minlength=len(keys))
        which = np.repeat(np.arange(len(keys)), [len(by_shape[key]) for key in keys])
        seqs = [seq for key in keys for seq in by_shape[key]]
        block[seqs, 3] = (np.cumsum(lens) - lens)[which]
        block[seqs, 4] = lens[which]
        stocks = np.array([s for s, _ in keys], dtype=np.int64).reshape(len(keys), k)
        binom, exps = _layout_arrays(stocks[shape_of], orders, sizes, log_fact)
        masks = np.zeros(sizes.shape, dtype=np.int64)
        masks[:, 1:] = np.cumsum(1 << orders, axis=1)
        row_sets.append((seqs, binom, masks, exps))
    for k, (seqs, orders, sizes, faced, stocks) in drawn.items():
        binom, exps = _layout_arrays(
            np.array(stocks, dtype=np.int64).reshape(len(stocks), k),
            np.array(orders, dtype=np.int64).reshape(len(orders), k),
            np.array(sizes, dtype=np.int64),
            log_fact,
        )
        row_sets.append((seqs, binom, np.array(faced, dtype=np.int64), exps))
    for width, (seqs, exps) in explicit.items():
        exps = np.array(exps, dtype=float).reshape(len(exps), width)
        masks = np.broadcast_to(np.arange(width), exps.shape)
        row_sets.append((seqs, np.zeros((exps.shape[0], 0)), masks, exps))

    # place every block's terms: blocks in order, each its rows in order
    first = np.cumsum(block[:, 4]) - block[:, 4]
    total = int(block[:, 4].sum())
    width = max((masks.shape[1] for _, _, masks, _ in row_sets), default=0)
    n = np.zeros(total, dtype=np.int64)
    coef = np.zeros(total)
    cand = np.full((total, width), -1, dtype=np.int64)
    exps = np.zeros((total, width))
    for seqs, binom, masks, row_exps in row_sets:
        seqs = np.array(seqs, dtype=np.int64)
        lens = block[seqs, 4]
        owner = np.repeat(seqs, lens)
        within = np.arange(owner.size) - np.repeat(np.cumsum(lens) - lens, lens)
        row = block[owner, 3] + within
        at = first[owner] + within
        # the base first, then each stock-out's log-binomial in order
        term_coef = base_of[owner]
        for j in range(binom.shape[1]):
            term_coef = term_coef + binom[row, j]
        n[at] = block[owner, 2]
        coef[at] = term_coef
        cand[at, : masks.shape[1]] = block[owner, 1][:, None] + masks[row]
        exps[at, : masks.shape[1]] = row_exps[row]

    terms = np.bincount(block[:, 0], weights=block[:, 4], minlength=len(tables))
    terms = terms.astype(np.int64)
    # a group without terms would make the kernel's reduceat read the next
    # group's first term; no visit fills such a table
    empty = np.flatnonzero(terms == 0)
    if empty.size:
        raise InvalidObservation(f"term table {empty[0]} lists no terms")
    registry, seg_idx, seg_exp = _pack_segments(
        cand, exps, np.array(uid, dtype=np.int64), list(distinct)
    )

    sales = np.zeros((len(tables), len(catalog)))
    sales[
        [g for g, (table, _) in enumerate(tables) for _ in table.catalog],
        [col[a] for table, _ in tables for a in table.catalog],
    ] = [z for table, _ in tables for z in table.sales]
    return (
        membership_matrix(catalog, registry),
        np.array([float(a.includes_null) for a in registry]),
        coef,
        n,
        seg_idx,
        seg_exp,
        np.cumsum(terms) - terms,
        np.array([count for _, count in tables], dtype=float),
        np.array([table.horizon for table, _ in tables], dtype=float),
        sales,
    )


def _purchase_counts(choices: Iterable[Optional[int]]) -> Dict[int, int]:
    """Units bought of every product among ``choices``."""
    counts: Dict[int, int] = {}
    for c in choices:
        if c is not NULL:
            counts[c] = counts.get(c, 0) + 1
    return counts


def _segment_exponents(seg_counts: Sequence[int]) -> List[float]:
    """Choices made from each segment's assortment: its counted choices,
    plus the stock-out purchase that closes every segment but the last."""
    k = len(seg_counts) - 1
    return [c + (1.0 if j < k else 0.0) for j, c in enumerate(seg_counts)]


def table_complete(path: CompletePath) -> TermTable:
    """Choice-sequence probability (``l2``) as a one-term table."""
    table = TermTable(
        path.horizon, path.initial_assortment.products, _purchase_counts(path.choices)
    )
    _, seg_counts, table.assortments, _ = path.segments()
    n = path.arrivals
    table.explicit_n.append(n)
    table.explicit_coef.append(-math.lgamma(n + 1))
    table.explicit_exp.append(_segment_exponents(seg_counts))
    return table


def table_transactions(record: TransactionRecord, m: int) -> TermTable:
    """Timestamp-free transaction likelihood (``l4``) as a term table; a
    record without a null option raises :class:`InvalidObservation`."""
    if not record.initial_assortment.includes_null:
        raise InvalidObservation("l4 is defined for the null-inclusive regime")
    table = TermTable(
        record.horizon, record.initial_assortment.products, _purchase_counts(record.products)
    )
    _, seg_counts, table.assortments, _ = record.segments()
    exponents = _segment_exponents(seg_counts)
    n_purch = record.total
    for n_o in _compositions_at_most(m - n_purch, len(exponents)):
        n = n_purch + sum(n_o)
        coef = -math.lgamma(n + 1)
        for j, extra in enumerate(n_o):
            coef += log_binomial(extra + seg_counts[j], extra)
        table.explicit_n.append(n)
        table.explicit_coef.append(coef)
        table.explicit_exp.append([e + extra for e, extra in zip(exponents, n_o)])
    return table


def _sales_table(
    summary: SalesSummary,
    m: int,
    stocked: Sequence[int],
    sampler=None,
) -> TermTable:
    """Stock-out-vector expansion behind every sales table (exact, SAA and
    naive).

    The visit's null regime picks the total arrival counts ``n``: the
    sales up to ``m`` with a null option, exactly the sales without one
    (``m`` is then unused).  For each ``n``, terms range over the
    (stock-out order, segment sizes) layouts of the products ``stocked``,
    which sell out; every other product's sales fall freely among the
    arrivals.  With ``stocked`` empty, every arrival faces the whole
    assortment.  The table records one layout block per ``n``: the shape
    and its base coefficient ``-log n! + log_free(n)``.  ``sampler(n)``
    returns ``(layouts, log_weight)``, drawn layouts replacing the full
    enumeration for an SAA estimate, or ``(None, 0.0)`` to keep it.  A
    table with a full block faces one assortment per sold-out subset of
    ``stocked``; a table of drawn blocks only, the subsets its drawn
    layouts reach.
    """
    assortment = summary.initial_assortment
    catalog = assortment.products
    table = TermTable(summary.horizon, catalog, summary.sales)
    stocks = tuple(summary.stocks[a] for a in stocked)
    free_sales = [summary.sales.get(a, 0) for a in catalog if a not in stocked]
    n_sales = summary.total_sales
    n_values = range(n_sales, m + 1) if assortment.includes_null else [n_sales]
    for n in n_values:
        log_free = log_multinomial([n - n_sales] + free_sales)
        drawn, log_weight = (None, 0.0) if sampler is None else sampler(n)
        table.layouts.append(
            (stocks, n, -math.lgamma(n + 1) + log_free + log_weight, drawn)
        )

    # a sold-out subset is the mask whose bit i marks stocked[i]
    if any(drawn is None for *_, drawn in table.layouts):
        index = None  # every subset, candidate i the one of mask i
        table.assortments = [assortment]
        for a in stocked:
            table.assortments += [faced.without(a) for faced in table.assortments]
    else:
        index = {}
    for b, (stocks, n, base, drawn) in enumerate(table.layouts):
        if drawn is None:
            continue
        faced = []
        for order, sizes in drawn:
            masks = [0]
            for i in order:
                masks.append(masks[-1] | 1 << i)
            if index is not None:
                masks = [index.setdefault(mask, len(index)) for mask in masks]
            faced.append((order, sizes, masks))
        table.layouts[b] = (stocks, n, base, faced)
    if index is not None:
        table.assortments = [
            assortment.without(*(a for i, a in enumerate(stocked) if mask >> i & 1))
            for mask in index
        ]
    return table


def table_sales(summary: SalesSummary, m: int) -> TermTable:
    """Exact sales likelihood under the attraction model: ``l5`` (arrival
    counts up to ``m``) for a visit with a null option, ``l6`` (arrivals
    = sales, ``m`` unused) for one without."""
    return _sales_table(summary, m, summary.stocked_out)


def table_sales_saa(
    summary: SalesSummary, m: int, samples_per_n: int, seed: int, key: int = 0
) -> TermTable:
    """Sample-average approximation of ``l5``: for each arrival count the
    stock-out-vector sum is replaced by a uniform without-replacement
    sample, scaled by ``count / sample_size``.  Deterministic in
    ``(seed, key)``; ``key`` separates visits sharing a master seed.  A
    sample that would cover every vector keeps the exact layout block.
    A drawn vector's layout is its products in the order of their sorted
    indices, with the segment sizes of :func:`_segment_sizes`, the rule
    the exact enumeration uses.

    Also applies in the no-null regime, where the arrival count is fixed
    at the total sales and only that count's vector sum is sampled.
    """
    if samples_per_n < 1:
        raise ValueError("samples_per_n must be >= 1")
    stocked = summary.stocked_out
    stocks = tuple(summary.stocks[a] for a in stocked)

    def sampler(n: int):
        # n covers the sales, so at least every sold-out unit: count >= 1
        count = count_stockout_vectors(stocks, n)
        take = min(samples_per_n, count)
        if take == count:
            return None, 0.0  # full coverage: the exact enumeration
        draw_seed = int(
            np.random.SeedSequence((seed, key, n)).generate_state(1)[0]
        )
        # every drawn vector is feasible; sorting its indices gives the
        # stock-out order as positions in stocked
        indices = np.array(
            [v.indices for v in sample_stockout_vectors(stocks, n, take, draw_seed)],
            dtype=np.int64,
        ).reshape(take, len(stocks))
        order = np.argsort(indices, axis=1)
        sizes = _segment_sizes(
            np.take_along_axis(indices, order, axis=1), np.full((take, 1), n)
        )
        return list(zip(order.tolist(), sizes.tolist())), math.log(count) - math.log(take)

    return _sales_table(summary, m, stocked, sampler=sampler)


def table_naive_sales(summary: SalesSummary, m: int) -> TermTable:
    """Baseline that ignores stock-outs: the sales table with no product
    selling out, so every arrival faces the whole initial assortment.
    Biased whenever anything sells out.
    """
    return _sales_table(summary, m, ())


def fold_timed(
    groups: Sequence[Tuple[TransactionRecord, int]], catalog: Sequence[int]
) -> "TimedSegmentTable":
    """Timed records with multiplicities, folded into one table over
    ``catalog``: the thinned purchase rate is linear in the visits, so the
    likelihood of many visits needs only per-assortment totals.  Its rows
    are the distinct segment assortments in order of first appearance,
    with count-weighted exponent and duration totals; its sales are the
    count-weighted purchases per product.  The first untimed record, or
    one without a null option, raises :class:`InvalidObservation`, as in
    :func:`l3_transactions_timed`.

    A record's segment structure (its segment rows, exponents, stock-out
    indices and sold columns) depends only on its initial assortment, its
    stocks and its purchase sequence, so it is computed once per distinct
    ``(assortment products, stocks, purchased products)`` key (every record
    here offers the null option); only the durations are read from each
    record's times."""
    col = {a: i for i, a in enumerate(catalog)}
    # keyed by the fields, which hash faster than the dataclass
    rows_of: Dict[Tuple[Tuple[int, ...], bool], int] = {}
    assortments: List[Assortment] = []
    structures: Dict[tuple, tuple] = {}
    rows: List[int] = []
    exponents: List[float] = []
    durations: List[float] = []
    sold: List[int] = []
    sold_counts: List[int] = []
    for record, count in groups:
        if not record.timestamps_present:
            raise InvalidObservation("timed transactions need transaction timestamps")
        initial = record.initial_assortment
        if not initial.includes_null:
            raise InvalidObservation("l3 is defined for the null-inclusive regime")
        purchases = record.products
        key = (initial.products, tuple(record.stocks[a] for a in initial.products), purchases)
        structure = structures.get(key)
        if structure is None:
            _, seg_counts, seg_assortments, stockout_idx = record.segments()
            seg_rows = []
            for assortment in seg_assortments:
                row_key = (assortment.products, assortment.includes_null)
                if row_key not in rows_of:
                    rows_of[row_key] = len(assortments)
                    assortments.append(assortment)
                seg_rows.append(rows_of[row_key])
            structure = structures[key] = (
                seg_rows,
                _segment_exponents(seg_counts),
                stockout_idx,
                [col[p] for p in purchases],
            )
        seg_rows, seg_exponents, stockout_idx, sold_cols = structure
        rows.extend(seg_rows)
        exponents.extend(count * e for e in seg_exponents)
        durations.extend(count * t for t in _timed_segment_durations(record, stockout_idx))
        sold.extend(sold_cols)
        sold_counts.extend([count] * len(sold_cols))
    return TimedSegmentTable(
        catalog=tuple(catalog),
        sales=_totals(sold, sold_counts, len(catalog)),
        assortments=assortments,
        exponents=_totals(rows, exponents, len(assortments)),
        durations=_totals(rows, durations, len(assortments)),
    )


def _totals(index: List[int], weights: Sequence[float], size: int) -> np.ndarray:
    """``weights`` summed per ``index`` in list order, as floats even when
    there are none (``np.bincount`` then counts in integers)."""
    return np.bincount(
        np.asarray(index, dtype=np.int64), np.asarray(weights, dtype=float), size
    ).astype(float, copy=False)


def term_loglik_grad(
    x: np.ndarray,
    membership: np.ndarray,
    nulls: np.ndarray,
    coef: np.ndarray,
    n: np.ndarray,
    seg_idx: np.ndarray,
    seg_exp: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    horizons: np.ndarray,
    sales: np.ndarray,
) -> Tuple[float, np.ndarray]:
    """Grouped term-table log-likelihood and its gradient in
    ``x = (log rate, log weights)``.

    Group ``g`` owns the terms from ``starts[g]`` up to the next start; it
    has multiplicity ``counts[g]``, horizon ``T_g = horizons[g]`` and
    per-product sales ``z_g = sales[g]``, and contributes
    ``z_g . log f + LSE_i(coef_i + n_i log(T_g lambda) - T_g lambda -
    sum_d E_id log D_d)``.  Row ``d`` of ``membership`` and ``nulls[d]``
    give the denominator ``D_d = null_d + F_d``; ``seg_idx``/``seg_exp``
    hold each term's assortment indices and exponents ``E_id``, padded with
    zero exponents.  Every group must own at least one term.
    """
    log_rate = x[0]
    theta = np.asarray(x[1:], dtype=float)
    beta = np.exp(theta)
    rate = math.exp(log_rate)
    group_of = np.repeat(np.arange(starts.size), np.diff(np.append(starts, n.size)))
    denom = nulls + membership @ beta
    # the empty no-null assortment has a zero denominator but only ever
    # appears with exponent zero (nobody can choose from it); keep 0 * log(0)
    # out of the sum
    safe = np.where(denom > 0, denom, 1.0)
    log_denom = np.where(denom > 0, np.log(safe), 0.0)
    t = (
        coef
        + n * (log_rate + np.log(horizons)[group_of])
        - horizons[group_of] * rate
        - (seg_exp * log_denom[seg_idx]).sum(axis=1)
    )
    mx = np.maximum.reduceat(t, starts)
    lse = mx + np.log(np.add.reduceat(np.exp(t - mx[group_of]), starts))
    value = float(counts @ (lse + sales @ theta))
    w = np.exp(t - lse[group_of]) * counts[group_of]
    grad = np.empty(x.size)
    grad[0] = float(w @ n) - rate * float(counts @ horizons)
    bucket = np.bincount(
        seg_idx.ravel(), weights=(w[:, None] * seg_exp).ravel(), minlength=denom.size
    )
    share = membership * beta[None, :] / safe[:, None]
    grad[1:] = counts @ sales - bucket @ share
    return value, grad


def timed_loglik_grad(
    rate: float,
    beta: np.ndarray,
    membership: np.ndarray,
    exponents: np.ndarray,
    durations: np.ndarray,
    sales: np.ndarray,
) -> Tuple[float, np.ndarray]:
    """Timed-transaction log-likelihood and its gradient in
    ``(log rate, log weights)``, from per-assortment totals.

    Row ``d`` of ``membership`` is a null-inclusive assortment with weight
    sum ``F_d`` and denominator ``D_d = 1 + F_d``; ``exponents`` and
    ``durations`` hold its total purchase-density exponent ``E_d`` and
    exposure time ``tau_d``; ``sales`` are the purchase counts ``Z`` per
    product, ``N`` their total.  The value is
    ``Z . log f + N log lambda - E . log D - lambda tau . (F / D)``; the
    thinned rate ``lambda F / D`` is linear in the visits, so one visit and
    a whole dataset summed per assortment evaluate alike.  ``log1p(F)``
    and ``F / (1 + F)`` keep their precision when ``F`` is tiny and the
    rate is huge.
    """
    purchases = float(sales.sum())
    weight_sum = membership @ beta
    denom = 1.0 + weight_sum
    purchase_time = float(durations @ (weight_sum / denom))
    value = float(
        sales @ np.log(beta)
        + purchases * math.log(rate)
        - exponents @ np.log1p(weight_sum)
        - rate * purchase_time
    )
    grad = np.empty(1 + beta.size)
    grad[0] = purchases - rate * purchase_time
    share = membership * beta[None, :] / denom[:, None]
    grad[1:] = sales - (exponents + rate * durations / denom) @ share
    return value, grad


@dataclass
class TimedSegmentTable:
    """Timestamped-transaction likelihood of the visits a
    :func:`fold_timed` folds, one row per distinct constant-assortment
    segment ``d``: total purchase-density exponent ``E_d`` and exposure
    time ``tau_d``, plus the purchases per ``catalog`` product; a plain
    record whose arrays :func:`timed_loglik_grad` evaluates.
    """

    catalog: Tuple[int, ...]
    sales: np.ndarray
    assortments: List[Assortment]
    exponents: np.ndarray
    durations: np.ndarray


# ---------------------------------------------------------------------------
# conditional-expectation counter-example


def counterexample_expectations(
    n_target: int, n_other: int, p_target: Fraction
) -> Tuple[Fraction, Fraction]:
    """Expected unobserved demand of a sold-out product, exactly.

    Two products: the target sold ``n_target`` units then stocked out; the
    other (never stocking out) sold ``n_other``.  The target's choice
    probability while offered is ``p_target``.  Unobserved demand is the
    number of the other product's sales that landed before the target's
    stock-out.  Returns ``(correct, heuristic)`` as exact rationals, where
    the heuristic scales the other product's sales by the relative-rate
    ratio conditional on each interleaving -- a plausible shortcut that
    disagrees with the true conditional expectation.
    """
    p = Fraction(p_target)
    if not 0 < p < 1:
        raise ValueError("p_target must lie strictly between 0 and 1")
    if n_target < 1 or n_other < 0:
        raise ValueError("need n_target >= 1 and n_other >= 0")
    xs = range(n_other + 1)
    weights = [
        Fraction(math.comb(n_target - 1 + x, x)) * p**n_target * (1 - p) ** x
        for x in xs
    ]
    total = sum(weights)
    e_correct = sum(x * w for x, w in zip(xs, weights)) / total
    p_other = 1 - p
    e_heuristic = Fraction(0)
    for x, w in zip(xs, weights):
        if x == 0:
            continue
        rho = Fraction(x) * p_other / (n_other - x * (1 - p_other))
        e_heuristic += n_other * rho * w
    e_heuristic /= total
    return e_correct, e_heuristic


def counterexample_bruteforce(
    n_target: int, n_other: int, p_target: Fraction
) -> Fraction:
    """Same conditional expectation by enumerating purchase orderings.

    Every interleaving of the two products' purchases is weighted by its
    sequence probability: ``p_target`` per target purchase, ``1 -
    p_target`` per other-product purchase before the target's stock-out,
    and 1 afterwards (the target gone, the other is the only option).
    """
    p = Fraction(p_target)
    if not 0 < p < 1:
        raise ValueError("p_target must lie strictly between 0 and 1")
    total_slots = n_target + n_other
    num = Fraction(0)
    den = Fraction(0)
    for target_slots in combinations(range(total_slots), n_target):
        stockout_at = max(target_slots)
        before = stockout_at + 1 - n_target  # other-product buys pre-stock-out
        w = p**n_target * (1 - p) ** before
        num += before * w
        den += w
    return num / den if den else Fraction(0)
