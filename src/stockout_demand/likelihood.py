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
parameter-independent terms, stacked into flat arrays once per dataset.
Sales build no table per visit: :func:`sales_groups` reads a dataset's
sales groups into flat arrays in one pass, and :func:`table_sales`
stacks them, for the exact, SAA and naive estimators and both null
regimes (the visit's regime picks its arrival counts: up to ``m`` for
``l5``, the sales for ``l6``), enumerating each distinct layout shape
once in numpy.  Untimed transactions (complete paths with the
null choices dropped) stack through :func:`table_sequences`: a term per
way of spreading the arrivals a record does not show over its segments
as hidden null choices, each segment count's ways enumerated once as
numpy rows.  Every timed sequence, timed transactions and complete
paths alike, folds instead, a dataset in one pass, into
per-assortment totals (:func:`fold_timed`, a complete path's null
choices counting as choices of a weight-1 null option): one group of
one term, with the thinned time per assortment.  All three builders
return the same arrays, the terms' exponents on the assortment rows as
the parts of one CSR (compressed sparse row) matrix, and one kernel,
:func:`term_loglik_grad`, evaluates every dataset: a grouped
log-sum-exp over two sparse mat-vecs, less the thinned arrival mass,
with its gradient.  ``estimation.compile_dataset`` builds
the arrays, and is the one way they are evaluated.  Its oracles are
the ``l*`` functions: the paper's formulas, written for a general choice
law, evaluated visit by visit with the attraction probabilities of
``choice.prob``.

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
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.special import gammaln, logsumexp, pdtrc

from . import choice
from .combinatorics import (
    count_stockout_vectors,
    drawn_by_position,
    log_binomial,
    log_multinomial,
    sample_by_position,
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
    "table_sequences",
    "table_sales",
    "sales_groups",
    "SalesGroups",
    "sales_key",
    "fold_timed",
    "term_loglik_grad",
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
        # pdtrc(m, mu) is the Poisson tail P(N > m)
        while pdtrc(m, mu) >= TAIL_EPSILON:
            m += 1
        return m


def _poisson_logpmf(n: int, mu: float) -> float:
    """``log Poisson(n; mu)`` for ``mu = T * rate > 0``."""
    return n * math.log(mu) - mu - math.lgamma(n + 1)


def _increasing(top: int, k: int) -> np.ndarray:
    """Every increasing ``k``-tuple of ``1, ..., top``, one row each, in
    lexicographic order."""
    count = math.comb(top, k)
    return np.fromiter(
        chain.from_iterable(combinations(range(1, top + 1), k)), np.int64, count * k
    ).reshape(count, k)


def _compositions(total: int, parts: int) -> np.ndarray:
    """Every way of writing ``total >= 0`` as ``parts >= 1`` non-negative
    ints, one row each, in lexicographic order: the gaps around ``parts - 1``
    increasing bars among ``total + parts - 1`` places.  Without its last
    column, a row sums to at most ``total``, and every such row comes once."""
    top = total + parts - 1
    return _segment_sizes(_increasing(top, parts - 1), top)


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
    for n_o in _compositions(m - observed, len(seg_sizes) + 1)[:, :-1].tolist():
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
    for n_o in _compositions(max_extra, len(segment_sizes) + 1)[:, :-1].tolist():
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
    error of the log estimate)``.  ``mc_samples`` below 1 raises
    :class:`ValueError`.
    """
    if mc_samples < 1:
        raise ValueError(f"mc_samples must be >= 1, got {mc_samples}")
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
            padded = np.pad(_compositions(q, allowed), ((0, 0), (0, k + 1 - allowed)))
            per_product.append(padded.tolist())
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


def _shape_layouts(stocks: np.ndarray, n: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every layout of each sales shape ``(stocks[i], n[i])``, all with
    ``k = stocks.shape[1]`` products selling out: the shape, the stock-out
    order (as positions into the shape's stocks) and the segment sizes
    (stock-out arrivals excluded) of every layout.

    Layouts come shape by shape, then order by order in
    :func:`permutations` order, then by the stock-out arrival indices
    ``r_1 < ... < r_k`` in lexicographic order.  An order keeps the indices
    that fall within ``n`` and leave room for every unit sold out so far,
    ``r_j >= s_1 + ... + s_j``; the sizes are :func:`_segment_sizes`.
    """
    k = stocks.shape[1]
    indices = _increasing(int(n.max()), k)
    orders = np.array(list(permutations(range(k))), dtype=np.int64)
    orders = orders.reshape(math.factorial(k), k)
    need = np.cumsum(stocks[:, orders], axis=2)[:, :, None, :]
    fits = ((indices >= need) & (indices <= n[:, None, None, None])).all(axis=3)
    shape_of, order_of, index_of = np.nonzero(fits)
    return shape_of, orders[order_of], _segment_sizes(indices[index_of], n[shape_of, None])


def _segment_sizes(r: np.ndarray, n: Union[np.ndarray, int]) -> np.ndarray:
    """Segment sizes of the layouts whose stock-outs arrive at the
    increasing indices ``r`` (one layout per row) out of ``n`` arrivals (a
    column, or one count for every row): ``r_1 - 1, r_j - r_{j-1} - 1,
    ..., n - r_k``, each segment's closing stock-out arrival excluded."""
    return np.diff(r, axis=1, prepend=0, append=n + 1) - 1


def _layout_arrays(
    stocks: np.ndarray, orders: np.ndarray, sizes: np.ndarray, log_fact: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns of the sales terms of the layouts ``(orders[i], sizes[i])``
    of products with stocks ``stocks[i]``.

    Returns the log-binomial of every stock-out (the ways to place the
    product's earlier units among the slots before it that no earlier
    stock-out product took), every segment's exponent (its size, plus the
    closing stock-out purchase for all but the last), and every segment's
    sold-out subset (the mask of the positions sold out before it).
    ``log_fact[x]`` is ``log x!``.
    """
    k = orders.shape[1]
    s = np.take_along_axis(stocks, orders, axis=1)
    # the j-th stock-out arrives at index sum_{i<=j} (size_i + 1)
    slots = np.cumsum(sizes[:, :k] + 1, axis=1) - 1 - (np.cumsum(s, axis=1) - s)
    binom = log_fact[slots] - log_fact[s - 1] - log_fact[slots - s + 1]
    exps = sizes.astype(float)
    exps[:, :k] += 1.0
    masks = np.zeros(sizes.shape, dtype=np.int64)
    masks[:, 1:] = np.cumsum(1 << orders, axis=1)
    return binom, exps, masks


def _stacked(
    catalog: Sequence[int],
    n: np.ndarray,
    coef: np.ndarray,
    cand: np.ndarray,
    exps: np.ndarray,
    candidates: Sequence[Tuple[Tuple[int, ...], bool]],
    terms: Sequence[int],
    counts: Sequence[float],
    horizons: Sequence[float],
    widths: Sequence[int],
    columns: Sequence[int],
    sales: Sequence[int],
) -> Tuple[np.ndarray, ...]:
    """The arrays a compiled dataset is built from, for terms in place
    whose segment ``j`` faces candidate ``cand[i, j]`` (``-1`` past the
    last segment) with exponent ``exps[i, j]``, and groups owning
    ``terms[g]`` terms each.  Group ``g`` sold ``sales`` of its
    ``widths[g]`` products, at catalog ``columns``, the flat lists taken
    group by group, over its horizon ``T_g``: its exposure, and ``n log
    T_g`` joins each of its terms' coefficients.  No assortment has
    thinned time.

    Candidate ``c`` faces the assortment of fields ``candidates[c]``
    (products, null option).  The registry holds the distinct assortments
    in order of first appearance, term by term and segment by segment, zero
    exponents included, so it does not depend on how candidates are
    numbered.  The exponents are a CSR matrix over terms and registry rows:
    each term's nonzero exponents, in segment order, are ``data`` and
    ``indices`` from ``indptr[i]`` up to ``indptr[i + 1]``.  Returns
    ``(membership, nulls, coef, n, data, indices, indptr, bounds,
    group_of, counts, exposures, sales, thinned)``, as every builder does.
    Raises :class:`InvalidObservation` for a group without terms.
    """
    terms = np.asarray(terms, dtype=np.int64)
    # a group without terms would make the kernel's reduceat read the next
    # group's first term; only a caller's ``m`` below a visit's observed
    # count leaves one
    empty = np.flatnonzero(terms == 0)
    if empty.size:
        raise InvalidObservation(f"term table {empty[0]} lists no terms")
    # distinct assortments, keyed by their fields, which hash faster than
    # the dataclass
    distinct: Dict[Tuple[Tuple[int, ...], bool], int] = {}
    uid = np.array([distinct.setdefault(f, len(distinct)) for f in candidates], dtype=np.int64)
    fields = list(distinct)
    # each uid's first slot, in one linear pass: the slots far outnumber
    # the uids, so sorting them would cost more
    slots = uid[cand[cand >= 0]]
    first_at = np.full(len(fields), slots.size)
    np.minimum.at(first_at, slots, np.arange(slots.size))
    registered = np.flatnonzero(first_at < slots.size)
    registered = registered[np.argsort(first_at[registered])]
    rank = np.zeros(len(fields), dtype=np.int64)
    rank[registered] = np.arange(registered.size)
    nonzero = exps != 0.0
    indptr = np.zeros(cand.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(nonzero, axis=1), out=indptr[1:])
    registry = [Assortment(*fields[u]) for u in registered]
    z = np.zeros((len(widths), len(catalog)))
    z[np.repeat(np.arange(len(widths)), widths), columns] = sales
    group_of = np.repeat(np.arange(terms.size), terms)
    horizons = np.array(horizons, dtype=float)
    return (
        membership_matrix(catalog, registry),
        np.array([float(a.includes_null) for a in registry]),
        coef + n * np.log(horizons)[group_of],
        n,
        exps[nonzero],
        rank[uid[cand[nonzero]]],
        indptr,
        np.cumsum(terms) - terms,
        group_of,
        np.array(counts, dtype=float),
        horizons,
        z,
        np.zeros(len(registry)),
    )


def _ranks(lens: np.ndarray) -> np.ndarray:
    """Every item's position within its run, for runs of ``lens`` items."""
    return np.arange(int(lens.sum())) - np.repeat(np.cumsum(lens) - lens, lens)


def table_sequences(
    catalog: Sequence[int],
    groups: Sequence[Tuple[TransactionRecord, float, int]],
) -> Tuple[np.ndarray, ...]:
    """The arrays a compiled dataset is built from (see :func:`_stacked`)
    for a dataset's untimed transaction records (``l4``), over the products
    ``catalog``: complete paths with their null choices dropped, read
    without their times.  Complete paths themselves fold
    (:func:`fold_timed`); one, or any other visit that is not a
    transaction record, raises :class:`InvalidObservation`, as does a
    record without a null option.

    A group is ``(record, count, m)``: ``count`` copies of a record with at
    most ``m`` arrivals.  It has one term for each way ``n_o`` of spreading
    at most ``m`` minus its purchases over its constant-assortment segments
    as hidden null arrivals, in lexicographic order: arrival count ``n =
    purchases + |n_o|``, coefficient ``n log T - log n! + sum_j log C(n_o_j
    + s_j, n_o_j)`` (segment ``j`` holding ``s_j`` purchases, its closing
    stock-out excluded) and segment ``j``'s exponent raised by ``n_o_j``.
    A group whose ``m`` is below its purchase count has no terms, which
    :func:`_stacked` refuses.

    Python runs once per group, to check it and read its segments.  Each
    segment count's spreads are enumerated once (:func:`_compositions`), up
    to the most any of its groups hides, and each group keeps, in order,
    those within its own; numpy builds the terms.
    """
    # every candidate's fields, group by group; per group: its segment
    # sizes, one per candidate; per product of every group: its catalog
    # column and its sales
    col = {a: i for i, a in enumerate(catalog)}
    candidates: List[Tuple[Tuple[int, ...], bool]] = []
    sizes: List[Tuple[int, ...]] = []
    columns: List[int] = []
    sales: List[int] = []
    for visit, _, _ in groups:
        if not isinstance(visit, TransactionRecord):
            raise InvalidObservation(
                f"table_sequences stacks transaction records, not {type(visit).__name__}"
            )
        if not visit.initial_assortment.includes_null:
            raise InvalidObservation("l4 is defined for the null-inclusive regime")
        sequence = visit.products
        _, seg_counts, assortments, _ = visit.segments()
        candidates += [(a.products, a.includes_null) for a in assortments]
        sizes.append(seg_counts)
        offered = visit.initial_assortment.products
        columns += [col[a] for a in offered]
        sales += [sequence.count(a) for a in offered]
    # per group and segment slot, padded with zeros: its purchases, and its
    # exponent, which adds the stock-out closing every segment but the last
    parts = np.array([len(c) for c in sizes], dtype=np.int64)
    width = int(parts.max(initial=0))
    slot = np.arange(width)
    size = np.array([c + (0,) * (width - len(c)) for c in sizes], dtype=np.int64)
    size = size.reshape(len(groups), width)
    exponent = size + (slot < parts[:, None] - 1)
    # the exponents add up to the purchases
    limit = np.array([m for *_, m in groups], dtype=np.int64) - exponent.sum(axis=1)
    # every term's group and spread, a segment count at a time
    group, spread = [np.zeros(0, dtype=np.int64)], [np.zeros((0, width), dtype=np.int64)]
    for s in np.unique(parts).tolist():
        mine = np.flatnonzero(parts == s)
        limits, limit_of = np.unique(limit[mine], return_inverse=True)
        top = max(int(limits[-1]), 0)
        rows = _compositions(top, s + 1)
        # each distinct limit's rows, in order, gathered for its groups
        keep = top - rows[:, s] <= limits[:, None]
        lens = keep.sum(axis=1)
        count = lens[limit_of]
        at = np.repeat((np.cumsum(lens) - lens)[limit_of], count) + _ranks(count)
        group.append(np.repeat(mine, count))
        spread.append(np.pad(rows[np.nonzero(keep)[1][at], :s], ((0, 0), (0, width - s))))
    order = np.argsort(np.concatenate(group), kind="stable")
    group, spread = np.concatenate(group)[order], np.concatenate(spread)[order]
    exps = exponent[group] + spread
    n = exps.sum(axis=1)
    # -log n!, then each segment's log C(extra + size, extra), in order and
    # as log_binomial computes it; a padding slot adds 0.0
    log_fact = np.array([math.lgamma(x + 1) for x in range(int(n.max(initial=0)) + 1)])
    coef = -log_fact[n]
    for j in range(width):
        extra, s_j = spread[:, j], size[group, j]
        coef = coef + (log_fact[extra + s_j] - log_fact[extra] - log_fact[s_j])
    return _stacked(
        catalog,
        n,
        coef,
        np.where(slot < parts[group, None], (np.cumsum(parts) - parts)[group, None] + slot, -1),
        exps.astype(float),
        candidates,
        np.bincount(group, minlength=len(groups)),
        [count for _, count, _ in groups],
        [visit.horizon for visit, _, _ in groups],
        [len(visit.initial_assortment.products) for visit, _, _ in groups],
        columns,
        sales,
    )


def sales_key(summary: SalesSummary) -> tuple:
    """The fields of a sales visit that :func:`sales_groups` reads, which
    also key its group: ``(horizon, (products, includes_null), stocks,
    sales)``, its ``header_key`` followed by its sales, stocks and sales
    in ``products`` order."""
    sales = summary.sales
    products = summary.initial_assortment.products
    return (*summary.header_key, tuple([sales.get(a, 0) for a in products]))


class SalesGroups(NamedTuple):
    """A dataset's sales groups as flat arrays, read off their
    :func:`sales_key` keys by :func:`sales_groups`.  ``headers`` holds the
    distinct ``(products, includes_null)`` fields; per group, ``header``
    is its place among them, with its horizon, null option, product count
    ``widths``, total sales ``totals`` and whether every offered product
    sold out (``exhausted``); ``stocks`` and ``sales`` hold every offered
    product's, group by group, in ``products`` order."""

    headers: List[Tuple[Tuple[int, ...], bool]]
    header: np.ndarray
    horizons: np.ndarray
    nulls: np.ndarray
    widths: np.ndarray
    totals: np.ndarray
    exhausted: np.ndarray
    stocks: np.ndarray
    sales: np.ndarray


def sales_groups(keys: Sequence[tuple]) -> SalesGroups:
    """The :class:`SalesGroups` of the sales visits keyed ``keys``.  Python
    runs once per group, to look up its header and append its fields to
    flat lists; numpy sums them per group."""
    headers: Dict[Tuple[Tuple[int, ...], bool], int] = {}
    header: List[int] = []
    horizons: List[float] = []
    widths: List[int] = []
    stocks: List[int] = []
    sales: List[int] = []
    for horizon, fields, group_stocks, group_sales in keys:
        header.append(headers.setdefault(fields, len(headers)))
        horizons.append(horizon)
        widths.append(len(group_stocks))
        stocks += group_stocks
        sales += group_sales
    fields = list(headers)
    header = np.array(header, dtype=np.int64)
    widths = np.array(widths, dtype=np.int64)
    row = np.repeat(np.arange(widths.size), widths)
    stocks = np.array(stocks, dtype=np.int64)
    sales = np.array(sales, dtype=np.int64)
    sold_out = np.bincount(row[stocks == sales], minlength=widths.size)
    return SalesGroups(
        fields,
        header,
        np.array(horizons, dtype=float),
        np.array([includes_null for _, includes_null in fields], dtype=bool)[header],
        widths,
        np.bincount(row, sales, widths.size).astype(np.int64),
        sold_out == widths,
        stocks,
        sales,
    )


def _row_codes(rows: np.ndarray) -> np.ndarray:
    """Each row of non-negative ints as one ``int64``, ordered as the rows
    are lexicographically: a mixed-radix number, each column's radix one
    above its largest entry.  Where the next column would overflow, the
    codes so far and that column are first replaced by their ranks."""
    code = np.zeros(rows.shape[0], dtype=np.int64)
    for column in rows.T:
        radix = int(column.max(initial=0)) + 1
        if (int(code.max(initial=0)) + 1) * radix > 2**63:
            code = np.unique(code, return_inverse=True)[1].reshape(-1)
            column = np.unique(column, return_inverse=True)[1].reshape(-1)
            radix = int(column.max(initial=0)) + 1
        code = code * radix + column
    return code


def _drawn(blocks: Sequence[tuple], k: int) -> np.ndarray:
    """The indices each sampled block ``(stocks, n, take, count, seed)``
    of ``k`` stock-outs draws, one row per vector, block by block in draw
    order: by cycle position where :func:`drawn_by_position` holds, from
    the stream otherwise."""
    take = [b[2] for b in blocks]
    out = np.empty((sum(take), k), dtype=np.int64)
    cheap = [drawn_by_position(k, n, t, count) for _, n, t, count, _ in blocks]
    positional = [b for b, c in zip(blocks, cheap) if c]
    if positional:
        stocks, n, t, _, seeds = zip(*positional)
        out[np.repeat(cheap, take)] = sample_by_position(
            np.array(stocks, dtype=np.int64).reshape(-1, k),
            np.array(n, dtype=np.int64),
            np.array(t, dtype=np.int64),
            seeds,
        )
    start = 0
    for (stocks, n, t, _, seed), c in zip(blocks, cheap):
        if not c:
            out[start : start + t] = sample_stockout_vectors(stocks, n, t, seed)
        start += t
    return out


def table_sales(
    catalog: Sequence[int],
    groups: SalesGroups,
    counts: Sequence[float],
    m: Sequence[int],
    streams: Optional[Sequence[int]] = None,
    saa_samples: Optional[int] = None,
    seed: int = 0,
    naive: bool = False,
) -> Tuple[np.ndarray, ...]:
    """The arrays a compiled dataset is built from (see :func:`_stacked`)
    for a dataset's sales visits, over the products ``catalog``, under the
    attraction model: ``l5`` for a visit with a null option, ``l6`` for
    one without.

    Group ``g`` of ``groups`` (see :func:`sales_groups`) stands for
    ``counts[g]`` copies of a visit, at truncation ``m[g]``, with SAA
    stream key ``streams[g]`` (read only with ``saa_samples``).  Its null
    regime picks its arrival counts ``n``: the sales up to ``m[g]`` with a
    null option, exactly the sales without one.  Each ``n`` is one block
    of terms, one per (stock-out order, segment sizes) layout of the
    products that sell out, with base coefficient ``n log T - log n! +
    log_free(n)``: every other product's sales fall freely among the
    arrivals.  The ``naive`` baseline lets nothing sell out, so every
    arrival faces the whole assortment (biased whenever anything does).

    With ``saa_samples`` (at least 1, or :class:`ValueError`), a block of
    more layouts is a uniform without-replacement sample of its stock-out
    vectors, deterministic in ``(seed, stream, n)`` (``seed`` at least 0,
    or :class:`ValueError`), its base raised by
    ``log(count / sample size)``: the sample-average approximation.  A
    drawn vector's layout is its products in the order of their sorted
    indices, with the segment sizes of :func:`_segment_sizes`, the
    enumeration's rule.

    Terms come group by group, block by block (``n`` ascending), then in
    :func:`_shape_layouts` order for a full block, each distinct shape
    (sold-out stocks and ``n``) enumerated once, or in draw order.  Numpy
    finds every group's sold-out positions, blocks and terms; Python runs
    per sampled block (to count it and key its generator) and per
    distinct ``(products, null option, sold-out positions)`` key.  The
    sampled blocks are drawn after the loop, those with the same number of
    stock-outs in one batch (:func:`_drawn`): by their candidates'
    positions in the generator's cycle where that costs less than walking
    the stream, and without a Python step per candidate either way.  A
    group with a full block faces one candidate per sold-out subset, built
    once per key; a group of drawn blocks only faces just the subsets its
    layouts reach.
    """
    if saa_samples is not None and saa_samples < 1:
        raise ValueError(f"saa_samples must be >= 1, got {saa_samples}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    size = groups.widths.size
    # per product slot of every group: its group, its place, and whether
    # it sold out
    lens = groups.widths
    row = np.repeat(np.arange(size), lens)
    place = _ranks(lens)
    out = groups.stocks == groups.sales
    out &= not naive
    # per group: how many sold out, their stocks and positions, and its
    # key's id, the key's sold-out positions packed 8 to a byte
    k_of = np.bincount(row[out], minlength=size)
    out_stocks = np.zeros((size, int(k_of.max(initial=0))), dtype=np.int64)
    out_stocks[row[out], _ranks(k_of)] = groups.stocks[out]
    positions = np.zeros((size, int(lens.max(initial=0))), dtype=bool)
    positions[row, place] = out
    keys = np.column_stack([groups.header, np.packbits(positions, axis=1)])
    _, key_first, key_id = np.unique(_row_codes(keys), return_index=True, return_inverse=True)
    key_id = key_id.reshape(-1)

    # per block: group, arrival count, null arrivals, base coefficient
    first_n = groups.totals
    last = np.where(groups.nulls, np.asarray(m, dtype=np.int64), first_n)
    spans = last - first_n + 1
    block_g = np.repeat(np.arange(size), spans)
    extra = _ranks(spans)  # n - sales
    block_n = first_n[block_g] + extra
    log_fact = np.array([math.lgamma(x + 1) for x in range(int(block_n.max(initial=0)) + 1)])

    # per block, SAA only: the layouts drawn (0 for a full block) and the
    # log weight; per stock-out count, every sampled block's stocks, n,
    # sample size, feasible count and draw seed; per group, whether it has
    # a full block
    taken = np.zeros_like(block_n)
    weight = np.zeros(block_n.size)
    sampled: Dict[int, List[tuple]] = {}
    has_full = np.full(size, saa_samples is None)
    if saa_samples is not None:
        # with nothing sold out, every block's one vector is drawn in full
        has_full |= (k_of == 0) & (spans > 0)
        at = (np.cumsum(spans) - spans).tolist()
        for g in np.flatnonzero(k_of).tolist():
            level = tuple(out_stocks[g, : k_of[g]].tolist())
            for b, n in enumerate(range(int(first_n[g]), int(last[g]) + 1), at[g]):
                count = count_stockout_vectors(level, n)
                take = min(saa_samples, count)
                if take == count:  # full coverage: the exact enumeration
                    has_full[g] = True
                    continue
                # its draw seed: numpy's SeedSequence state of (seed, stream, n)
                state = np.random.SeedSequence((seed, streams[g], n)).generate_state(1)
                sampled.setdefault(len(level), []).append((level, n, take, count, int(state[0])))
                taken[b] = take
                weight[b] = math.log(count) - math.log(take)

    # per group and product slot: log z! of the free sales (0.0 at a
    # sold-out or padding slot, which adds nothing to a sum)
    free_log_fact = np.zeros(positions.shape)
    free_log_fact[row, place] = np.where(out, 0.0, log_fact[groups.sales])
    free_total = np.bincount(row[~out], groups.sales[~out], size)
    # log_multinomial([n - sales] + free sales), its terms added in order
    denominator = log_fact[extra]
    for j in range(free_log_fact.shape[1]):
        denominator = denominator + free_log_fact[block_g, j]
    free_n = extra + free_total.astype(np.int64)[block_g]
    base = -log_fact[block_n] + (log_fact[free_n] - denominator) + weight

    # every key with a full block faces its 2^k candidates, candidate c the
    # products less those of c's mask bits
    candidates: List[Tuple[Tuple[int, ...], bool]] = []  # their fields
    subsets = np.zeros(key_first.size, dtype=np.int64)  # each key's first
    # per key: its header and sold-out positions
    key_header = groups.header[key_first].tolist()
    key_k = k_of[key_first]
    key_at = (np.cumsum(key_k) - key_k).tolist()
    key_positions = np.nonzero(positions[key_first])[1].tolist()

    def key_fields(key: int) -> Tuple[Tuple[int, ...], bool, List[int]]:
        at = key_at[key]
        return (*groups.headers[key_header[key]], key_positions[at : at + int(key_k[key])])

    for key in np.unique(key_id[has_full]).tolist():
        products, includes_null, stocked = key_fields(key)
        subsets[key] = len(candidates)
        faced = [products]
        for i in stocked:
            faced += [tuple([a for a in f if a != products[i]]) for f in faced]
        candidates += [(f, includes_null) for f in faced]

    # every row set, each built in one pass: the layouts of every full
    # block's shape with k stock-outs, or the drawn layouts with k
    block_row = np.zeros_like(block_n)  # first row in its row set
    block_len = taken.copy()
    row_sets = []
    k_block = k_of[block_g]
    full = taken == 0
    for k in np.unique(k_block[full]).tolist():
        seqs = np.flatnonzero(full & (k_block == k))
        shape_rows = np.column_stack([out_stocks[block_g[seqs], :k], block_n[seqs]])
        _, first, shape = np.unique(
            _row_codes(shape_rows), return_index=True, return_inverse=True
        )
        shapes, shape = shape_rows[first], shape.reshape(-1)
        shape_of, orders, sizes = _shape_layouts(shapes[:, :k], shapes[:, k])
        lens = np.bincount(shape_of, minlength=len(shapes))
        block_row[seqs] = (np.cumsum(lens) - lens)[shape]
        block_len[seqs] = lens[shape]
        row_sets.append((seqs, *_layout_arrays(shapes[shape_of, :k], orders, sizes, log_fact)))
    offset = np.where(has_full, subsets[key_id], 0)
    for k, blocks in sampled.items():
        seqs = np.flatnonzero(~full & (k_block == k))
        owner = np.repeat(seqs, taken[seqs])
        block_row[seqs] = np.cumsum(taken[seqs]) - taken[seqs]
        indices = _drawn(blocks, k)
        orders = np.argsort(indices, axis=1)
        sizes = _segment_sizes(
            np.take_along_axis(indices, orders, axis=1), block_n[owner, None]
        )
        binom, exps, masks = _layout_arrays(
            out_stocks[block_g[owner], :k], orders, sizes, log_fact
        )
        # a group of drawn blocks only faces just the subsets it reaches:
        # its rows name them by their place among all candidates, found
        # through the code ``key id * 2^k + mask``
        mine = ~has_full[block_g[owner]]
        codes = (key_id[block_g[owner][mine], None] << k) + masks[mine]
        reached, local = np.unique(codes.ravel(), return_inverse=True)
        masks[mine] = len(candidates) + local.reshape(-1, k + 1)
        for code in reached.tolist():
            products, includes_null, stocked = key_fields(code >> k)
            gone = {stocked[j] for j in range(k) if code >> j & 1}
            faced = tuple(a for i, a in enumerate(products) if i not in gone)
            candidates.append((faced, includes_null))
        row_sets.append((seqs, binom, exps, masks))

    # place every block's terms: blocks in order, each its rows in order
    first = np.cumsum(block_len) - block_len
    total = int(block_len.sum())
    width = max((masks.shape[1] for *_, masks in row_sets), default=0)
    n = np.zeros(total, dtype=np.int64)
    coef = np.zeros(total)
    cand = np.full((total, width), -1, dtype=np.int64)
    exps = np.zeros((total, width))
    for seqs, binom, row_exps, masks in row_sets:
        lens = block_len[seqs]
        owner = np.repeat(seqs, lens)
        within = _ranks(lens)
        at = first[owner] + within
        rows = block_row[owner] + within
        # the base first, then each stock-out's log-binomial in order
        term_coef = base[owner]
        for j in range(binom.shape[1]):
            term_coef = term_coef + binom[rows, j]
        n[at] = block_n[owner]
        coef[at] = term_coef
        cand[at, : masks.shape[1]] = offset[block_g[owner], None] + masks[rows]
        exps[at, : masks.shape[1]] = row_exps[rows]
    # every product slot's catalog column, through its header's
    col = {a: i for i, a in enumerate(catalog)}
    header_cols = np.zeros((len(groups.headers), positions.shape[1]), dtype=np.int64)
    for h, (products, _) in enumerate(groups.headers):
        header_cols[h, : len(products)] = [col[a] for a in products]
    return _stacked(
        catalog,
        n,
        coef,
        cand,
        exps,
        candidates,
        np.bincount(block_g, weights=block_len, minlength=size),
        counts,
        groups.horizons,
        groups.widths,
        header_cols[groups.header[row], place],
        groups.sales,
    )


def fold_timed(
    groups: Sequence[Tuple[Union[CompletePath, TransactionRecord], int]],
    catalog: Sequence[int],
) -> Tuple[np.ndarray, ...]:
    """The arrays a compiled dataset is built from (see :func:`_stacked`)
    for timed records and complete paths with multiplicities, over
    ``catalog``: a choice enters the likelihood only through its product
    and the denominator it faces, and the thinned purchase rate is linear
    in the visits, so many visits fold into one group of one term over
    per-assortment totals.  The registry rows are the distinct segment
    assortments, keyed on ``(products, includes_null)``, in order of first
    appearance; the term's exponent on each is its count-weighted choice
    total (the term is one CSR row over every registry row, zero exponents
    included), and each row's thinned time is its count-weighted
    duration.
    The group's sales are the count-weighted purchases per product, its
    term's arrival count every observed choice.  The first untimed record,
    or one without a null option, raises :class:`InvalidObservation`, as
    in :func:`l3_transactions_timed`.

    A complete path observes every arrival.  Its null choices are choices
    of a null option of weight 1: they add to their segment's exponent,
    never sell out and stay out of the sales.  Its horizon is observed,
    not thinned, time (the group's exposure), and its ``n`` arrivals add
    ``n log T - log n!`` to the term's coefficient, so that its folded
    likelihood is ``l2``.

    Python runs once per group, to check it, look up its header (initial
    assortment and stocks, each distinct one read once) and append its
    choices to one flat list; the rest is numpy over every choice at once.
    A purchase sells out its product when the product's running unit count
    in its visit reaches the stock; the sell-outs split each visit into
    segments, bounded by ``0``, the sell-out times and ``T``, whose
    exponent is the choices they hold (the sell-out that closes one
    included) and whose assortment is the header's products less those
    already sold out.  Totals add visit by visit, segment by segment, each
    value weighted by its group's count."""
    catalog = tuple(catalog)
    # the null option takes the column past the catalog's, keyed by an id
    # past every product's
    null_id = max(catalog, default=-1) + 1
    # per distinct header: its id; per group: its header, count, horizon
    # and choice count; the complete paths' group numbers; every choice's
    # (time, product or null_id), group by group
    headers: Dict[tuple, int] = {}
    header_of: List[int] = []
    counts: List[int] = []
    horizons: List[float] = []
    lengths: List[int] = []
    complete: List[int] = []
    choices: List[Tuple[Optional[float], int]] = []
    for visit, count in groups:
        if isinstance(visit, CompletePath):
            complete.append(len(counts))
            events = [(t, null_id if c is NULL else c) for t, c in visit.events]
        else:
            if not visit.timestamps_present:
                raise InvalidObservation("timed transactions need transaction timestamps")
            if not visit.initial_assortment.includes_null:
                raise InvalidObservation("l3 is defined for the null-inclusive regime")
            events = visit.transactions
        # ((products, includes_null), stocks in product order)
        header_of.append(headers.setdefault(visit.header_key[1:], len(headers)))
        counts.append(count)
        horizons.append(visit.horizon)
        lengths.append(len(events))
        choices += events

    # per header: its products' columns in its own order (-1 past its
    # width), each offered column's place in that order and stock (the
    # null column's stock 0 is never reached), and its null option
    col = {a: i for i, a in enumerate(catalog)}
    width = max((len(products) for (products, _), _ in headers), default=0)
    header_cols = np.full((len(headers), max(width, 1)), -1, dtype=np.int64)
    header_places = np.zeros((len(headers), len(catalog)), dtype=np.int64)
    header_stocks = np.zeros((len(headers), len(catalog) + 1), dtype=np.int64)
    header_null = np.zeros(len(headers), dtype=np.int64)
    for h, ((products, includes_null), stocks) in enumerate(headers):
        cols = [col[a] for a in products]
        header_cols[h, : len(cols)] = cols
        header_places[h, cols] = range(len(cols))
        header_stocks[h, cols] = stocks
        header_null[h] = includes_null
    header = np.array(header_of, dtype=np.int64)
    count = np.array(counts, dtype=float)
    horizon = np.array(horizons, dtype=float)

    # per choice: its group, time and column, the units of its product its
    # visit has chosen so far, and whether that sells the product out
    owner = np.repeat(np.arange(len(groups)), lengths)
    times, chosen = zip(*choices) if choices else ((), ())
    times = np.array(times, dtype=float)
    ids = np.array(catalog + (null_id,), dtype=np.int64)
    by_id = np.argsort(ids)
    bought = by_id[np.searchsorted(ids[by_id], np.array(chosen, dtype=np.int64))]
    key = owner * ids.size + bought
    by_key = np.argsort(key, kind="stable")
    run_start = np.ones(key.size, dtype=bool)
    run_start[1:] = key[by_key[1:]] != key[by_key[:-1]]
    at = np.arange(key.size)
    units = np.empty_like(key)
    units[by_key] = at + 1 - np.maximum.accumulate(np.where(run_start, at, 0))
    out = units == header_stocks[header[owner], bought]

    # per segment, numbered across groups: its group and place in it, its
    # choices (each sell-out closes its segment), its bounds; a complete
    # path's time is observed, not thinned
    k = np.bincount(owner[out], minlength=len(groups))
    seg_group = np.repeat(np.arange(len(groups)), k + 1)
    place = _ranks(k + 1)
    seg = owner + np.cumsum(out) - out
    exponents = np.bincount(seg, minlength=seg_group.size) * count[seg_group]
    ends = horizon[seg_group]
    ends[place < k[seg_group]] = times[out]
    begins = np.zeros(seg_group.size)
    begins[place > 0] = times[out]
    thinned = count.copy()
    thinned[complete] = 0.0
    durations = thinned[seg_group] * (ends - begins)
    # and its assortment: the header's columns less those sold out before
    # it, in header order, packed left and padded with -1, then its null
    # option
    gone = np.zeros((seg_group.size, header_cols.shape[1]), dtype=np.int64)
    gone[seg[out] + 1, header_places[header[owner[out]], bought[out]]] = 1
    gone = np.cumsum(gone, axis=0)
    gone -= gone[np.arange(seg_group.size) - place]
    seg_cols = header_cols[header[seg_group]]
    kept = (seg_cols >= 0) & (gone == 0)
    faced = np.full((seg_group.size, seg_cols.shape[1] + 1), -1, dtype=np.int64)
    faced[np.nonzero(kept)[0], np.cumsum(kept, axis=1)[kept] - 1] = seg_cols[kept]
    faced[:, -1] = header_null[header[seg_group]]

    # the registry: the distinct faced rows in order of first appearance
    rows = faced.view(np.dtype((np.void, faced.strides[0]))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    order = np.argsort(first)
    seg_row = np.argsort(order)[inverse.ravel()]
    registry = faced[first[order]]
    offered, at = np.nonzero(registry[:, :-1] >= 0)
    membership = np.zeros((order.size, len(catalog)))
    membership[offered, registry[offered, at]] = 1.0
    chosen_totals = _totals(bought, count[owner], ids.size)
    # the complete paths' arrival counts, horizons and counts
    n, observed, weight = np.array(lengths)[complete], horizon[complete], count[complete]
    return (
        membership,
        registry[:, -1].astype(float),
        # the one term: its coefficient, arrivals and exponent on every
        # row, zero exponents included, as a one-row matrix
        np.array([weight @ (n * np.log(observed) - gammaln(n + 1))]),
        np.array([chosen_totals.sum()], dtype=np.int64),
        _totals(seg_row, exponents, order.size),
        np.arange(order.size),
        np.array([0, order.size]),
        # the one group: its first term, the term's group, its count,
        # observed time and sales
        np.zeros(1, dtype=np.int64),
        np.zeros(1, dtype=np.int64),
        np.ones(1),
        np.array([weight @ observed]),
        chosen_totals[:-1].reshape(1, -1),
        _totals(seg_row, durations, order.size),
    )


def _totals(index: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """``weights`` summed per ``index`` in order, as floats even when there
    are none (``np.bincount`` then counts in integers)."""
    return np.bincount(index, weights, size).astype(float, copy=False)


def term_loglik_grad(
    x: np.ndarray,
    membership: np.ndarray,
    null_rows: np.ndarray,
    guard: np.ndarray,
    coef: np.ndarray,
    n: np.ndarray,
    E,
    Et,
    starts: np.ndarray,
    group_of: np.ndarray,
    counts: np.ndarray,
    exposure: float,
    sales: np.ndarray,
    sold: np.ndarray,
    thinned: np.ndarray,
    null_thinned: np.ndarray,
) -> Tuple[float, np.ndarray]:
    """Log-likelihood of a dataset's stacked arrays and its gradient in
    ``x = (log rate, log weights)``.

    Group ``g`` owns the terms from ``starts[g]`` up to the next start
    (``group_of`` names each term's group); it has multiplicity
    ``counts[g]`` and per-product sales ``z_g = sales[g]``, and contributes
    ``z_g . log f + LSE_i(coef_i + n_i log lambda - sum_d E_id log D_d)``,
    less ``lambda`` times ``exposure``, the count-weighted exposures of
    every group; ``sold`` is the count-weighted sales ``counts @ sales``.
    Row ``d`` of ``membership`` gives the weight sum ``F_d``, and
    ``null_rows[d]`` whether it offers the null option: ``D_d = 1 + F_d``
    if so, ``F_d`` if not.  ``E`` is the sparse term-by-row exponent matrix
    and ``Et`` its transpose, so the exponent sums are ``E @ log D`` and
    the rows' gradient weights ``Et @ w``.  Every group must own at least
    one term.  Beyond the groups, row ``d`` is exposed for ``thinned[d]``
    to the thinned rate ``lambda F_d / D_d``, which subtracts ``lambda tau
    . (F / D)``: it is linear in the visits, so one visit and a whole
    dataset summed per assortment evaluate alike; ``null_thinned`` is
    ``thinned`` on the null rows, 0 elsewhere.  On a null row,
    ``log1p(F)`` and ``F / (1 + F)`` keep their precision when ``F`` is
    tiny and the rate is huge.  ``guard[d]`` is 1 on a null row and on a
    no-null row that offers nothing, 0 elsewhere, and ``guard + F`` stands
    for ``D``: an empty row has ``D = 0`` but only ever exponent and
    thinned time 0 (nobody can choose from it), so it adds nothing.
    """
    log_rate = x[0]
    theta = np.asarray(x[1:], dtype=float)
    beta = np.exp(theta)
    rate = math.exp(log_rate)
    weight_sum = membership @ beta
    safe = guard + weight_sum
    log_denom = np.log(safe)
    np.log1p(weight_sum, out=log_denom, where=null_rows)
    t = coef + n * log_rate - E @ log_denom
    mx = np.maximum.reduceat(t, starts)
    lse = mx + np.log(np.add.reduceat(np.exp(t - mx[group_of]), starts))
    exposure = exposure + float(thinned @ (weight_sum / safe))
    value = float(counts @ (lse + sales @ theta)) - rate * exposure
    w = np.exp(t - lse[group_of]) * counts[group_of]
    grad = np.empty(x.size)
    grad[0] = float(w @ n) - rate * exposure
    # d/d theta_a: the sales less sum_d ((Et @ w)_d + lambda null_d tau_d /
    # D_d) beta_a / D_d over the rows offering a
    per_denom = (Et @ w + rate * null_thinned / safe) / safe
    grad[1:] = sold - beta * (per_denom @ membership)
    return value, grad


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
