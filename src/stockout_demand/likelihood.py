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
sum over stock-out index vectors; those fast paths are expressed as
parameter-independent "term tables".  One kernel, :func:`term_loglik_grad`,
evaluates their grouped log-sum-exp with its gradient, for one table (one
group) and for a compiled dataset alike; timed transactions reduce to
per-assortment totals evaluated by :func:`timed_loglik_grad`.

All infinite sums are truncated at a maximum arrival count ``m`` with the
Poisson tail beyond ``m`` ignored; the tail mass is controlled by
:class:`TruncationPolicy`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product as iter_product
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.special import logsumexp
from scipy.stats import poisson as poisson_dist

from .choice import AttractionModel, ChoiceModel
from .combinatorics import (
    StockoutVector,
    count_stockout_vectors,
    log_binomial,
    log_multinomial,
    sample_stockout_vectors,
    to_segments,
)
from .types import (
    Assortment,
    CompletePath,
    InvalidObservation,
    ModelParams,
    NULL,
    SalesSummary,
    TransactionRecord,
    transaction_segments,
    validate_complete_path,
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
    "l5_sales_attraction",
    "l5_saa",
    "l6_sales_no_null",
    "l6_generic",
    "l6_choice_part",
    "counterexample_expectations",
    "counterexample_bruteforce",
    "l4_lauricella",
    "TermTable",
    "TimedSegmentTable",
    "table_complete",
    "table_transactions",
    "table_sales_attraction",
    "table_sales_saa",
    "table_sales_no_null",
    "table_naive_sales",
    "table_timed_transactions",
    "term_loglik_grad",
    "timed_loglik_grad",
]

NEG_INF = float("-inf")

_DEFAULT_MODEL = AttractionModel()


@dataclass(frozen=True)
class TruncationPolicy:
    """Cap on total arrivals per visit when truncating the infinite sums.

    Either a fixed ``m``, or the smallest ``m`` whose Poisson tail mass at
    rate ``T * rate_cap`` drops below ``epsilon``.  Always at least the
    visit's observed transaction count.
    """

    m: Optional[int] = None
    epsilon: float = 1e-10

    def __post_init__(self) -> None:
        # the tail mass underflows to zero, so a zero epsilon never stops
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"truncation epsilon must be positive, got {self.epsilon}")

    def resolve(self, horizon: float, rate_cap: float, observed: int) -> int:
        if self.m is not None:
            if self.m < observed:
                raise InvalidObservation(
                    f"truncation m={self.m} below observed count {observed}"
                )
            return self.m
        mu = horizon * rate_cap
        m = max(observed, int(math.ceil(mu)))
        while poisson_dist.sf(m, mu) >= self.epsilon:
            m += 1
        return m


def _poisson_logpmf(n: int, mu: float) -> float:
    return n * math.log(mu) - mu - math.lgamma(n + 1) if mu > 0 else (0.0 if n == 0 else NEG_INF)


def _compositions_at_most(limit: int, parts: int) -> Iterator[Tuple[int, ...]]:
    """All tuples of ``parts`` non-negative ints summing to at most ``limit``."""
    if parts == 0:
        yield ()
        return
    for first in range(limit + 1):
        for rest in _compositions_at_most(limit - first, parts - 1):
            yield (first,) + rest


def _compositions_exact(total: int, parts: int) -> Iterator[Tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions_exact(total - first, parts - 1):
            yield (first,) + rest


def _log_choice_sequence(
    obs: Union[CompletePath, TransactionRecord],
    choices: Iterable[Optional[int]],
    params: ModelParams,
    model: ChoiceModel,
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
        value += math.log(model.prob(params, c, current))
        if c is not NULL:
            remaining[c] -= 1
            if remaining[c] == 0:
                current = current.without(c)
    return value


# ---------------------------------------------------------------------------
# complete data


def l1_complete(
    path: CompletePath, params: ModelParams, model: ChoiceModel = _DEFAULT_MODEL
) -> float:
    """Density of a fully observed path: ``lambda^n e^{-T lambda} prod P``."""
    if not validate_complete_path(path).ok:
        return NEG_INF
    return (
        path.arrivals * math.log(params.rate)
        - path.horizon * params.rate
        + _log_choice_sequence(path, path.choices, params, model)
    )


def l2_choice_sequence(
    path: CompletePath, params: ModelParams, model: ChoiceModel = _DEFAULT_MODEL
) -> float:
    """Probability of the arrival count and choice sequence (times dropped).

    Differs from :func:`l1_complete` by exactly ``log(n! / T^n)``: given the
    counts and choices, the times carry no extra information.
    """
    v1 = l1_complete(path, params, model)
    if v1 == NEG_INF:
        return NEG_INF
    n = path.arrivals
    return v1 + n * math.log(path.horizon) - math.lgamma(n + 1)


# ---------------------------------------------------------------------------
# transactions with timestamps


def _timed_segment_durations(
    record: TransactionRecord, stockout_idx: Sequence[int]
) -> Tuple[float, ...]:
    """Lengths of the constant-assortment stretches, split at the times of
    the stock-out purchases (``stockout_idx`` from
    :func:`transaction_segments`)."""
    boundaries = [0.0]
    for i in stockout_idx:
        t = record.transactions[i - 1][0]
        assert t is not None
        boundaries.append(float(t))
    boundaries.append(record.horizon)
    return tuple(b - a for a, b in zip(boundaries, boundaries[1:]))


def l3_transactions_timed(
    record: TransactionRecord, params: ModelParams, model: ChoiceModel = _DEFAULT_MODEL
) -> float:
    """Purchase-sequence density with timestamps.

    Transactions form a Poisson stream thinned by the no-purchase
    probability of the current assortment, so the exponent integrates the
    thinned rate over each constant-assortment stretch.
    """
    if not record.timestamps_present:
        raise InvalidObservation("l3 needs transaction timestamps")
    if not record.initial_assortment.includes_null:
        raise InvalidObservation("l3 is defined for the null-inclusive regime")
    _, _, assortments, stockout_idx = transaction_segments(
        record.initial_assortment, record.stocks, record.products
    )
    durations = _timed_segment_durations(record, stockout_idx)
    value = record.total * math.log(params.rate)
    value += _log_choice_sequence(record, record.products, params, model)
    for seg_assort, duration in zip(assortments, durations):
        p_null = model.prob(params, NULL, seg_assort)
        value -= (1.0 - p_null) * duration * params.rate
    return value


# ---------------------------------------------------------------------------
# transactions without timestamps


def l4_transactions(
    record: TransactionRecord,
    params: ModelParams,
    trunc: TruncationPolicy,
    model: ChoiceModel = _DEFAULT_MODEL,
) -> float:
    """Purchase-sequence probability with times unobserved.

    Sums over the latent null-arrival counts per segment, truncated so the
    total arrival count stays at or below the policy's ``m``.
    """
    n_purch = record.total
    m = trunc.resolve(record.horizon, params.rate, n_purch)
    _, seg_counts, assortments, _ = transaction_segments(
        record.initial_assortment, record.stocks, record.products
    )
    k = len(assortments) - 1
    mu = record.horizon * params.rate
    log_purchases = _log_choice_sequence(record, record.products, params, model)
    log_p_null = [math.log(model.prob(params, NULL, a)) for a in assortments]
    terms = []
    for n_o in _compositions_at_most(m - n_purch, k + 1):
        n = n_purch + sum(n_o)
        t = _poisson_logpmf(n, mu) + log_purchases
        for j in range(k + 1):
            t += log_binomial(n_o[j] + seg_counts[j], n_o[j]) + n_o[j] * log_p_null[j]
        terms.append(t)
    return float(logsumexp(terms))


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
    record: TransactionRecord,
    params: ModelParams,
    mc_samples: int,
    seed: int,
    model: ChoiceModel = _DEFAULT_MODEL,
) -> Tuple[float, float]:
    """Monte-Carlo estimate of ``l4`` via its integral representation.

    Averages ``exp(T lambda * sum_j P_o^[j] q_j)`` over Dirichlet-distributed
    segment-length fractions ``q``.  Returns ``(log estimate, standard
    error of the log estimate)``.
    """
    _, seg_counts, assortments, _ = transaction_segments(
        record.initial_assortment, record.stocks, record.products
    )
    mu = record.horizon * params.rate
    n_purch = record.total
    log_purchases = _log_choice_sequence(record, record.products, params, model)
    coeffs = np.array(
        [mu * model.prob(params, NULL, a) for a in assortments]
    )
    rng = np.random.default_rng(seed)
    q = rng.dirichlet(np.asarray(seg_counts) + 1.0, size=mc_samples)
    values = np.exp(q @ coeffs)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(mc_samples)) if mc_samples > 1 else 0.0
    base = log_purchases + _poisson_logpmf(n_purch, mu)
    return base + math.log(mean), se / mean


def l4_lauricella(
    record: TransactionRecord,
    params: ModelParams,
    trunc: TruncationPolicy,
    model: ChoiceModel = _DEFAULT_MODEL,
) -> float:
    """``l4`` evaluated by plugging the Lauricella series into the Dirichlet
    moment-generating-function form; agrees with :func:`l4_transactions`
    at the same truncation up to round-off.
    """
    _, seg_counts, assortments, _ = transaction_segments(
        record.initial_assortment, record.stocks, record.products
    )
    mu = record.horizon * params.rate
    n_purch = record.total
    m = trunc.resolve(record.horizon, params.rate, n_purch)
    log_purchases = _log_choice_sequence(record, record.products, params, model)
    thetas = [mu * model.prob(params, NULL, a) for a in assortments]
    series = lauricella_mgf(seg_counts, thetas, m - n_purch)
    return log_purchases + _poisson_logpmf(n_purch, mu) + math.log(series)


# ---------------------------------------------------------------------------
# sales data, generic choice model


def _sales_valid(summary: SalesSummary) -> bool:
    try:
        summary.validate()
    except InvalidObservation:
        return False
    return True


def _sales_splits(
    summary: SalesSummary, params: ModelParams, model: ChoiceModel
) -> Iterator[Tuple[List[Assortment], Iterator]]:
    """Latent layouts of a sales summary under any choice model.

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
            {a: math.log(model.prob(params, a, seg)) for a in seg.products}
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
    summary: SalesSummary,
    params: ModelParams,
    trunc: TruncationPolicy,
    model: ChoiceModel = _DEFAULT_MODEL,
) -> float:
    """Sales likelihood under any choice model (triple latent sum).

    Sums over stock-out orderings, per-segment splits of each product's
    sales, and null counts per segment.  Exponential in the stock-out
    count; meant for small instances and as the oracle for the attraction
    fast path.
    """
    if not summary.initial_assortment.includes_null:
        raise InvalidObservation("l5 is the null-inclusive sales likelihood")
    if not _sales_valid(summary):
        return NEG_INF
    n_sales = summary.total_sales
    m = trunc.resolve(summary.horizon, params.rate, n_sales)
    mu = summary.horizon * params.rate
    terms: List[float] = []
    for seg_assort, splits in _sales_splits(summary, params, model):
        k = len(seg_assort) - 1
        log_p_null = [math.log(model.prob(params, NULL, seg)) for seg in seg_assort]
        for seg_counts, log_choice in splits:
            seg_sales = [sum(counts) for counts in seg_counts]
            base = log_choice - sum(
                math.lgamma(c + 1) for counts in seg_counts for c in counts
            )
            # sequence count within segment j: interleavings of its sales
            # and n_o_j null arrivals, (n_o_j + seg_sales_j)!/(n_o_j! prod n_a_j!)
            for n_o in _compositions_at_most(m - n_sales, k + 1):
                n = n_sales + sum(n_o)
                t = base + _poisson_logpmf(n, mu)
                for j in range(k + 1):
                    t += (
                        math.lgamma(n_o[j] + seg_sales[j] + 1)
                        - math.lgamma(n_o[j] + 1)
                        + n_o[j] * log_p_null[j]
                    )
                terms.append(t)
    if not terms:
        return NEG_INF
    return float(logsumexp(terms))


def _layouts(stocks_in_order: Sequence[int], n: int) -> Iterator[Tuple[int, ...]]:
    """Segment sizes (stock-out arrivals excluded) for a fixed stock-out order.

    Yields every ``k+1``-tuple whose implied stock-out indices are feasible:
    the ``j``-th index must leave room for all units sold out so far.
    """
    k = len(stocks_in_order)
    cums = [0]
    for s in stocks_in_order:
        cums.append(cums[-1] + s)

    def rec(j: int, prev_r: int, acc: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
        if j == k:
            yield acc + (n - prev_r,)
            return
        lo = max(0, cums[j + 1] - prev_r - 1)
        hi = n - (k - j - 1) - prev_r - 1
        for size in range(lo, hi + 1):
            yield from rec(j + 1, prev_r + size + 1, acc + (size,))

    yield from rec(0, 0, ())


def membership_matrix(
    catalog: Sequence[int], assortments: Sequence[Tuple[Tuple[int, ...], bool]]
) -> np.ndarray:
    """0/1 matrix whose row ``d`` marks the catalog products offered in
    assortment ``d``, so that ``membership @ weights`` gives the weight sums."""
    a_of = {a: i for i, a in enumerate(catalog)}
    rows = np.zeros((len(assortments), len(catalog)))
    for d, (products, _) in enumerate(assortments):
        for a in products:
            rows[d, a_of[a]] = 1.0
    return rows


class _TableBuilder:
    """Accumulates log-sum-exp terms with per-assortment denominator powers."""

    def __init__(self, horizon: float, catalog: Sequence[int]) -> None:
        self.horizon = horizon
        self.catalog = tuple(catalog)
        self.assortments: List[Tuple[Tuple[int, ...], bool]] = []
        self._index: Dict[Tuple[Tuple[int, ...], bool], int] = {}
        self._n: List[int] = []
        self._coef: List[float] = []
        self._rows: List[List[Tuple[int, float]]] = []

    def assort(self, assortment: Assortment) -> int:
        key = (assortment.products, assortment.includes_null)
        if key not in self._index:
            self._index[key] = len(self.assortments)
            self.assortments.append(key)
        return self._index[key]

    def add_term(self, n: int, coef: float, segs: Sequence[Tuple[int, float]]) -> None:
        if coef == NEG_INF:
            return
        self._n.append(n)
        self._coef.append(coef)
        self._rows.append([(d, e) for d, e in segs if e != 0.0])

    def build(self, sales: Dict[int, int]) -> "TermTable":
        width = max((len(r) for r in self._rows), default=0) or 1
        nt = len(self._n)
        seg_idx = np.zeros((nt, width), dtype=np.int64)
        seg_exp = np.zeros((nt, width), dtype=float)
        for i, row in enumerate(self._rows):
            for j, (d, e) in enumerate(row):
                seg_idx[i, j] = d
                seg_exp[i, j] = e
        if not self.assortments:
            self.assortments.append(((), True))
        return TermTable(
            horizon=self.horizon,
            catalog=self.catalog,
            sales=np.array([sales.get(a, 0) for a in self.catalog], dtype=float),
            assortments=list(self.assortments),
            n=np.asarray(self._n, dtype=np.int64),
            coef=np.asarray(self._coef, dtype=float),
            seg_idx=seg_idx,
            seg_exp=seg_exp,
        )


@dataclass
class TermTable:
    """A likelihood compiled to ``sum_a z_a log f_a + LSE_i(term_i)`` where
    ``term_i = coef_i + n_i log(T lambda) - T lambda - sum_d E_id log D_d``
    and ``D_d`` are assortment denominators.  Parameter-independent, so one
    build serves every evaluation during optimization.  The table is a
    one-group dataset: :meth:`loglik_grad` passes its arrays to
    :func:`term_loglik_grad`, the kernel every compiled dataset uses too.
    A table without terms is an impossible observation, of value ``-inf``.
    """

    horizon: float
    catalog: Tuple[int, ...]
    sales: np.ndarray
    assortments: List[Tuple[Tuple[int, ...], bool]]
    n: np.ndarray
    coef: np.ndarray
    seg_idx: np.ndarray
    seg_exp: np.ndarray

    def __post_init__(self) -> None:
        self.membership = membership_matrix(self.catalog, self.assortments)
        self.nulls = np.array([float(has_null) for _, has_null in self.assortments])

    def loglik(self, params: ModelParams) -> float:
        return self.loglik_grad(params)[0]

    def loglik_grad(self, params: ModelParams) -> Tuple[float, np.ndarray]:
        """Value and gradient in ``(log rate, log weight_a for a in catalog)``."""
        x = np.log([params.rate] + [params.weights[a] for a in self.catalog])
        if self.n.size == 0:
            return NEG_INF, np.zeros(x.size)
        return term_loglik_grad(
            x,
            self.membership,
            self.nulls,
            self.coef,
            self.n,
            self.seg_idx,
            self.seg_exp,
            np.zeros(1, dtype=np.int64),
            np.ones(1),
            np.array([self.horizon]),
            self.sales[None, :],
        )


def table_complete(path: CompletePath) -> TermTable:
    """Choice-sequence probability (``l2``) as a one-term table."""
    catalog = path.initial_assortment.products
    b = _TableBuilder(path.horizon, catalog)
    sales: Dict[int, int] = {}
    if not validate_complete_path(path).ok:
        return b.build(sales)
    exponents: Dict[int, float] = {}
    remaining = dict(path.stocks)
    current = path.initial_assortment
    for _, c in path.events:
        d = b.assort(current)
        exponents[d] = exponents.get(d, 0.0) + 1.0
        if c is not NULL:
            sales[c] = sales.get(c, 0) + 1
            remaining[c] -= 1
            if remaining[c] == 0:
                current = current.without(c)
    n = path.arrivals
    b.add_term(n, -math.lgamma(n + 1), list(exponents.items()))
    return b.build(sales)


def table_transactions(record: TransactionRecord, m: int) -> TermTable:
    """Timestamp-free transaction likelihood (``l4``) as a term table."""
    catalog = record.initial_assortment.products
    b = _TableBuilder(record.horizon, catalog)
    sales: Dict[int, int] = {}
    for p in record.products:
        sales[p] = sales.get(p, 0) + 1
    try:
        _, seg_counts, assortments, _ = transaction_segments(
            record.initial_assortment, record.stocks, record.products
        )
    except InvalidObservation:
        return b.build(sales)
    k = len(assortments) - 1
    n_purch = record.total
    d_of = [b.assort(a) for a in assortments]
    for n_o in _compositions_at_most(m - n_purch, k + 1):
        n = n_purch + sum(n_o)
        coef = -math.lgamma(n + 1)
        segs = []
        for j in range(k + 1):
            coef += log_binomial(n_o[j] + seg_counts[j], n_o[j])
            segs.append((d_of[j], seg_counts[j] + n_o[j] + (1.0 if j < k else 0.0)))
        b.add_term(n, coef, segs)
    return b.build(sales)


def _sales_table(
    summary: SalesSummary,
    n_values: Sequence[int],
    sampler=None,
) -> TermTable:
    """Shared stock-out-vector expansion behind the sales fast paths.

    For each total arrival count ``n``, terms range over feasible
    (stock-out order, segment sizes) layouts; ``sampler(n)`` may replace
    full enumeration by ``(layouts, log_weight)`` for an SAA estimate, or
    return ``None`` to keep it.
    """
    assortment = summary.initial_assortment
    catalog = assortment.products
    b = _TableBuilder(summary.horizon, catalog)
    sales = {a: summary.sales.get(a, 0) for a in catalog}
    if not _sales_valid(summary):
        return b.build(sales)
    stocked = summary.stocked_out
    stocks_of = {a: summary.stocks[a] for a in stocked}
    non_stocked = [a for a in catalog if a not in stocked]
    n_sales = summary.total_sales
    d_cache: Dict[Tuple[int, ...], int] = {}

    def assort_idx(order_prefix: Tuple[int, ...]) -> int:
        if order_prefix not in d_cache:
            d_cache[order_prefix] = b.assort(assortment.without(*order_prefix))
        return d_cache[order_prefix]

    for n in n_values:
        n_o = n - n_sales
        if n_o < 0:
            continue
        if not assortment.includes_null and n_o != 0:
            continue
        free_counts = [n_o] + [sales[a] for a in non_stocked]
        log_free = log_multinomial(free_counts)
        drawn = None if sampler is None else sampler(n)
        if drawn is None:
            layouts = (
                (order, sizes)
                for order in permutations(stocked)
                for sizes in _layouts([stocks_of[a] for a in order], n)
            )
            log_weight = 0.0
        else:
            layouts, log_weight = drawn
        for order, sizes in layouts:
            k = len(order)
            coef = -math.lgamma(n + 1) + log_free + log_weight
            prev_slots = 0
            ok = True
            for j in range(k):
                s_j = stocks_of[order[j]]
                slots = sizes[j] + prev_slots
                lb = log_binomial(slots, s_j - 1)
                if lb == NEG_INF:
                    ok = False
                    break
                coef += lb
                prev_slots = slots + 1 - s_j
            if not ok:
                continue
            segs = [
                (assort_idx(order[:j]), sizes[j] + (1.0 if j < k else 0.0))
                for j in range(k + 1)
            ]
            b.add_term(n, coef, segs)
    return b.build(sales)


def table_sales_attraction(summary: SalesSummary, m: int) -> TermTable:
    """Exact sales likelihood (``l5``) under the attraction model."""
    if not summary.initial_assortment.includes_null:
        raise InvalidObservation("l5 is the null-inclusive sales likelihood")
    return _sales_table(summary, range(summary.total_sales, m + 1))


def table_sales_no_null(summary: SalesSummary) -> TermTable:
    """Sales likelihood with no null option (``l6``): arrivals = sales."""
    if summary.initial_assortment.includes_null:
        raise InvalidObservation("l6 is the no-null sales likelihood")
    return _sales_table(summary, [summary.total_sales])


def table_sales_saa(
    summary: SalesSummary, m: int, samples_per_n: int, seed: int, key: int = 0
) -> TermTable:
    """Sample-average approximation of ``l5``: for each arrival count the
    stock-out-vector sum is replaced by a uniform without-replacement
    sample, scaled by ``count / sample_size``.  Deterministic in
    ``(seed, key)``; ``key`` separates visits sharing a master seed.

    Also applies in the no-null regime, where the arrival count is fixed
    at the total sales and only that count's vector sum is sampled.
    """
    if samples_per_n < 1:
        raise ValueError("samples_per_n must be >= 1")
    stocked = summary.stocked_out
    stocks = [summary.stocks[a] for a in stocked]

    def sampler(n: int):
        count = count_stockout_vectors(stocks, n)
        if count == 0:
            return [], 0.0
        take = min(samples_per_n, count)
        if take == count:
            return None  # full coverage: the exact enumeration
        draw_seed = int(
            np.random.SeedSequence((seed, key, n)).generate_state(1)[0]
        )
        vectors = sample_stockout_vectors(stocks, n, take, draw_seed, products=stocked)
        layouts = []
        for v in vectors:
            seg = to_segments(v)
            layouts.append((seg.stockout_order, seg.segment_sizes))
        return layouts, math.log(count) - math.log(take)

    if summary.initial_assortment.includes_null:
        n_values: Sequence[int] = range(summary.total_sales, m + 1)
    else:
        n_values = [summary.total_sales]
    return _sales_table(summary, n_values, sampler=sampler)


def table_naive_sales(summary: SalesSummary, m: int) -> TermTable:
    """Baseline that ignores stock-outs: every product is treated as
    available to every arrival.  Biased whenever anything sells out.
    """
    assortment = summary.initial_assortment
    catalog = assortment.products
    b = _TableBuilder(summary.horizon, catalog)
    sales = {a: summary.sales.get(a, 0) for a in catalog}
    if not _sales_valid(summary):
        return b.build(sales)
    n_sales = summary.total_sales
    d_full = b.assort(assortment)
    counts = [sales[a] for a in catalog]
    if assortment.includes_null:
        for n_o in range(0, m - n_sales + 1):
            n = n_sales + n_o
            coef = -math.lgamma(n + 1) + log_multinomial([n_o] + counts)
            b.add_term(n, coef, [(d_full, float(n))])
    else:
        b.add_term(
            n_sales,
            -math.lgamma(n_sales + 1) + log_multinomial(counts),
            [(d_full, float(n_sales))],
        )
    return b.build(sales)


def table_timed_transactions(record: TransactionRecord) -> "TimedSegmentTable":
    """Compiled form of :func:`l3_transactions_timed` with gradients."""
    catalog = record.initial_assortment.products
    sales: Dict[int, int] = {}
    for p in record.products:
        sales[p] = sales.get(p, 0) + 1
    stockout_order, seg_counts, assortments, stockout_idx = transaction_segments(
        record.initial_assortment, record.stocks, record.products
    )
    k = len(stockout_order)
    return TimedSegmentTable(
        horizon=record.horizon,
        catalog=catalog,
        sales=np.array([sales.get(a, 0) for a in catalog], dtype=float),
        assortments=[(a.products, a.includes_null) for a in assortments],
        exponents=np.array(
            [c + (1.0 if j < k else 0.0) for j, c in enumerate(seg_counts)]
        ),
        durations=np.asarray(_timed_segment_durations(record, stockout_idx), dtype=float),
    )


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
    """Timestamped-transaction likelihood of one visit, one row per
    constant-assortment segment ``j``: purchase-density exponent ``e_j``
    and duration ``t_j``, evaluated by :func:`timed_loglik_grad`.
    """

    horizon: float
    catalog: Tuple[int, ...]
    sales: np.ndarray
    assortments: List[Tuple[Tuple[int, ...], bool]]
    exponents: np.ndarray
    durations: np.ndarray

    def __post_init__(self) -> None:
        self.membership = membership_matrix(self.catalog, self.assortments)

    def loglik(self, params: ModelParams) -> float:
        return self.loglik_grad(params)[0]

    def loglik_grad(self, params: ModelParams) -> Tuple[float, np.ndarray]:
        beta = np.array([params.weights[a] for a in self.catalog], dtype=float)
        return timed_loglik_grad(
            params.rate, beta, self.membership, self.exponents, self.durations, self.sales
        )


# ---------------------------------------------------------------------------
# attraction fast-path wrappers


def l5_sales_attraction(
    summary: SalesSummary, params: ModelParams, trunc: TruncationPolicy
) -> float:
    m = trunc.resolve(summary.horizon, params.rate, summary.total_sales)
    return table_sales_attraction(summary, m).loglik(params)


def l5_saa(
    summary: SalesSummary,
    params: ModelParams,
    trunc: TruncationPolicy,
    samples_per_n: int,
    seed: int,
    key: int = 0,
) -> float:
    m = trunc.resolve(summary.horizon, params.rate, summary.total_sales)
    return table_sales_saa(summary, m, samples_per_n, seed, key).loglik(params)


def l6_sales_no_null(summary: SalesSummary, params: ModelParams) -> float:
    return table_sales_no_null(summary).loglik(params)


def l6_choice_part(
    summary: SalesSummary, params: ModelParams, model: ChoiceModel = _DEFAULT_MODEL
) -> float:
    """Log-probability of the sales vector given the arrival count; sums to
    one over feasible sales vectors with the same total.
    """
    if not _sales_valid(summary):
        return NEG_INF
    terms = [
        log_choice + sum(log_multinomial(counts) for counts in seg_counts)
        for _, splits in _sales_splits(summary, params, model)
        for seg_counts, log_choice in splits
    ]
    if not terms:
        return NEG_INF
    return float(logsumexp(terms))


def l6_generic(
    summary: SalesSummary, params: ModelParams, model: ChoiceModel = _DEFAULT_MODEL
) -> float:
    """No-null sales likelihood for any choice model: the arrival count is
    the total sales, so the Poisson factor separates from the choice part.
    """
    if summary.initial_assortment.includes_null:
        raise InvalidObservation("l6 is the no-null sales likelihood")
    if not _sales_valid(summary):
        return NEG_INF
    mu = summary.horizon * params.rate
    return _poisson_logpmf(summary.total_sales, mu) + l6_choice_part(
        summary, params, model
    )


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
    from itertools import combinations

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
