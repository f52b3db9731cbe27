"""Maximum-likelihood fitting across observation granularities.

A dataset is compiled once into flat arrays: identical visits are grouped
with multiplicities, and one builder per granularity turns the groups
into one :class:`~stockout_demand.likelihood.Terms`.
Sales groups build no table: :func:`~stockout_demand.likelihood.table_sales`
stacks them all in one pass, each stock-out layout shape enumerated once.
Untimed transactions stack likewise, in one
:func:`~stockout_demand.likelihood.table_sequences` call, each record at
its truncation.  Timed transactions and complete paths build no table
per visit: :func:`~stockout_demand.likelihood.fold_timed` folds their
groups, in one pass, into one group of one term over per-assortment
totals (exponents and thinned time, plus the sales, and for complete
paths their null choices, observed time and constant), so their part of
every evaluation costs the same whatever the number of visits.  One
kernel, :meth:`CompiledDataset.loglik_grad`, evaluates every dataset, so
each optimizer step is a handful of vectorized array operations (two of
them sparse mat-vecs) with analytic gradients in ``(log rate, log
weights)``.  Compiling walks the visits once (and sales groups
once), and also checks the estimator (each granularity fits one observation
class; SAA and the naive baseline fit sales only, and not together) and
keeps the fit's start point and null regime.

Fitting runs one joint L-BFGS-B over (log rate, log weights) that reads
only the compiled dataset; complete data keeps its closed-form rate.  The
"naive" fit ignores stock-outs entirely and serves as the biased baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.optimize import minimize
from scipy.sparse import csr_array
from scipy.special import pdtrc

from . import choice
from .likelihood import (
    TAIL_EPSILON,
    Terms,
    TruncationPolicy,
    fold_timed,
    sales_groups,
    sales_key,
    table_sales,
    table_sequences,
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
    "GRANULARITIES",
    "FitResult",
    "CompiledDataset",
    "compile_dataset",
    "dataset_log_likelihood",
    "naive_rate",
    "catalog_probabilities",
    "fit",
    "fit_complete",
    "fit_naive",
]

Observation = Union[CompletePath, TransactionRecord, SalesSummary]

#: the observation class each granularity fits
_KINDS = {
    "complete": CompletePath,
    "transactions-timed": TransactionRecord,
    "transactions": TransactionRecord,
    "sales": SalesSummary,
    "sales-no-null": SalesSummary,
}
GRANULARITIES = tuple(_KINDS)

#: factor applied to the naive rate when sizing adaptive truncation
RATE_CAP_FACTOR = 4.0


@dataclass
class FitResult:
    """Fitted parameters with optimization diagnostics.

    ``probabilities`` are full-catalog choice probabilities (the null
    entry, keyed ``None``, appears when the data include a null option);
    they sum to one and are invariant to the weight-scale flat direction
    of the no-null regime.
    """

    params: ModelParams
    loglik: float
    converged: bool
    iterations: int
    probabilities: Dict[Optional[int], float] = field(default_factory=dict)
    message: str = ""
    saa_samples: Optional[int] = None
    seed: Optional[int] = None


def catalog_probabilities(
    params: ModelParams, catalog: Sequence[int], includes_null: bool
) -> Dict[Optional[int], float]:
    """Choice probabilities if the whole catalog were offered at once."""
    offered = Assortment(tuple(catalog), includes_null)
    choices = offered.products + ((NULL,) if includes_null else ())
    return {c: choice.prob(params, c, offered) for c in choices}


def _observed_count(obs: Observation) -> int:
    if isinstance(obs, CompletePath):
        return obs.arrivals
    if isinstance(obs, TransactionRecord):
        return obs.total
    return obs.total_sales


def naive_rate(observations: Sequence[Observation]) -> float:
    """Observed events per unit time, pooled; the rate scale reference."""
    return _pooled_rate(
        sum(_observed_count(o) for o in observations), sum(o.horizon for o in observations)
    )


def _pooled_rate(events: int, horizon: float) -> float:
    """``events`` per unit of the total ``horizon``, floored at 1e-8."""
    if horizon <= 0:
        raise InvalidObservation("dataset has no observation time")
    return max(events / horizon, 1e-8)


def _truncated(
    truncation: TruncationPolicy, rate_cap: float, horizons: np.ndarray, observed: np.ndarray
) -> Tuple[np.ndarray, List[Tuple[float, int]]]:
    """Each visit's truncation ``m`` for its horizon and observed count,
    resolved once per distinct pair, in order of first appearance; and the
    distinct ``(horizon, m)`` pairs, sorted."""
    horizon_values, horizon_of = np.unique(horizons, return_inverse=True)
    codes = horizon_of.reshape(-1) * (int(observed.max(initial=0)) + 1) + observed
    _, first, pair_of = np.unique(codes, return_index=True, return_inverse=True)
    m = np.zeros(first.size, dtype=np.int64)
    for u in np.argsort(first).tolist():
        m[u] = truncation.resolve(float(horizons[first[u]]), rate_cap, int(observed[first[u]]))
    horizon_values = horizon_values[horizon_of.reshape(-1)[first]].tolist()
    return m[pair_of.reshape(-1)], sorted(set(zip(horizon_values, m.tolist())))


def _group_key(obs: Observation, granularity: str):
    """The visit's ``header_key`` followed by what its likelihood reads;
    a complete path's is its choices, not their times."""
    if isinstance(obs, SalesSummary):
        return sales_key(obs)
    if isinstance(obs, CompletePath):
        return (*obs.header_key, obs.choices)
    times = obs.transactions if granularity == "transactions-timed" else obs.products
    return (*obs.header_key, times)


class CompiledDataset:
    """A dataset compiled once, evaluated per optimizer step.

    Its builder's :class:`~stockout_demand.likelihood.Terms` are its
    attributes, by field name, with ``n`` as floats.  The exponent matrix
    ``E`` and its transpose ``Et`` (``expt_data``, ``expt_indices``,
    ``expt_indptr``) are built here, once, with the parts the kernel reads
    as compiled: the null rows ``null_rows``, each row's ``guard`` (see
    :meth:`loglik_grad`), the null rows' thinned time ``null_thinned``,
    the count-weighted sales ``sold`` and the exposure ``exposure``.
    Every array the kernel reads is an attribute, and the sparse matrices
    wrap those arrays without copying.  ``start`` is the fit's start point:
    the log of ``rate`` (the naive rate) and the log naive sales shares,
    floored at 1e-6.  ``includes_null`` tells whether any compiled
    assortment offers the null option; ``visits`` is the number of visits
    compiled.  ``truncations`` are the distinct ``(horizon, m)`` pairs at
    which sums over latent arrival counts were truncated.  ``censored``
    counts the no-null visits that sell out every offered product.
    """

    def __init__(
        self,
        catalog: Tuple[int, ...],
        terms: Terms,
        rate: float,
        visits: int,
        truncations: Sequence[Tuple[float, int]],
        censored: int,
    ) -> None:
        self.catalog = catalog
        self.visits = visits
        self.truncations = truncations
        self.censored = censored
        vars(self).update(terms._asdict())
        # perfbench/tracing.compiled_stats reads the timed tables as
        # (table, count) pairs with their columns; no dataset has one
        self._timed = []
        self._timed_cols = []
        self.n_assort = self.nulls.size
        self.E = csr_array(
            (self.exp_data, self.exp_indices, self.exp_indptr), shape=(self.n.size, self.n_assort)
        )
        self.Et = self.E.T.tocsr()
        # csr_array wraps data and indices in views of its own, so its parts
        # replace the builder's: each array is kept, and counted, once
        self.exp_data, self.exp_indices, self.exp_indptr = (
            self.E.data, self.E.indices, self.E.indptr
        )
        self.expt_data, self.expt_indices, self.expt_indptr = (
            self.Et.data, self.Et.indices, self.Et.indptr
        )
        self.n = self.n.astype(float)
        self.null_rows = self.nulls > 0
        # a no-null row that offers nothing has D = 0
        self.guard = self.nulls + ~(self.null_rows | self.membership.any(axis=1))
        self.null_thinned = self.nulls * self.thinned
        # the sales are integer sums, so their order does not change them
        self.sold = self.counts @ self.Z
        self.exposure = float(self.counts @ self.exposures)
        shares = np.maximum(self.sold / max(self.sold.sum(), 1.0), 1e-6)
        self.start = np.concatenate(([math.log(rate)], np.log(shares)))
        self.includes_null = bool(self.null_rows.any())

    def params_of(self, x: np.ndarray) -> ModelParams:
        return ModelParams(
            rate=float(math.exp(x[0])),
            weights={a: float(math.exp(x[1 + i])) for i, a in enumerate(self.catalog)},
        )

    def loglik_grad(self, x: np.ndarray) -> Tuple[float, np.ndarray]:
        """The log-likelihood and its gradient in ``x = (log rate, log
        weights)``: the one kernel every dataset is evaluated by.

        Group ``g`` contributes ``counts[g]`` times ``Z[g] . log f +
        LSE_i(coef_i + n_i log lambda - sum_d E_id log D_d)`` over its
        terms, and the whole dataset subtracts ``lambda`` times
        ``exposure``.  ``D_d = 1 + F_d`` on a null row and ``F_d`` on
        another, so the exponent sums are ``E @ log D`` and the rows'
        gradient weights ``Et @ w``.  Beyond the groups, row ``d`` is exposed
        for ``thinned[d]`` to the thinned rate ``lambda F_d / D_d``, which
        subtracts ``lambda thinned . (F / D)``: it is linear in the visits,
        so one visit and a whole dataset summed per assortment evaluate
        alike.  On a null row, ``log1p(F)`` and ``F / (1 + F)`` keep their
        precision when ``F`` is tiny and the rate is huge.  ``guard + F``
        stands for ``D``: ``guard`` is 1 on a null row and on a no-null row
        that offers nothing, 0 elsewhere, and an empty row adds nothing
        (see :class:`~stockout_demand.likelihood.Terms`).
        """
        log_rate = x[0]
        theta = np.asarray(x[1:], dtype=float)
        beta = np.exp(theta)
        rate = math.exp(log_rate)
        weight_sum = self.membership @ beta
        safe = self.guard + weight_sum
        log_denom = np.log(safe)
        np.log1p(weight_sum, out=log_denom, where=self.null_rows)
        t = self.coef + self.n * log_rate - self.E @ log_denom
        mx = np.maximum.reduceat(t, self.bounds)
        lse = mx + np.log(np.add.reduceat(np.exp(t - mx[self.group_of]), self.bounds))
        exposure = self.exposure + float(self.thinned @ (weight_sum / safe))
        value = float(self.counts @ (lse + self.Z @ theta)) - rate * exposure
        w = np.exp(t - lse[self.group_of]) * self.counts[self.group_of]
        grad = np.empty(x.size)
        grad[0] = float(w @ self.n) - rate * exposure
        # d/d theta_a: the sales less sum_d ((Et @ w)_d + lambda null_d
        # thinned_d / D_d) beta_a / D_d over the rows offering a
        per_denom = (self.Et @ w + rate * self.null_thinned / safe) / safe
        grad[1:] = self.sold - beta * (per_denom @ self.membership)
        return value, grad


def compile_dataset(
    observations: Sequence[Observation],
    granularity: str,
    truncation: TruncationPolicy = TruncationPolicy(),
    saa_samples: Optional[int] = None,
    seed: int = 0,
    naive: bool = False,
) -> CompiledDataset:
    """Group identical visits and build the dataset's arrays with the one
    builder of its granularity: sales stack through :func:`table_sales`,
    untimed transactions through :func:`table_sequences`, and timed
    records and complete paths fold, all their ``(visit, count)`` groups
    in one :func:`fold_timed` call, into one group of one term over
    per-assortment totals.  A visit not of the granularity's observation
    class, SAA or naive at a non-sales granularity, or SAA and naive
    together, raises :class:`InvalidObservation`.

    The visits are walked once: each distinct visit object is checked and
    keyed at its first occurrence, and every occurrence counts towards its
    group's multiplicity.  A group's key is its visit's content, read as
    values: a horizon written ``1`` or ``1.0`` keys alike.  Sales groups
    are walked once after that, by :func:`sales_groups`, which flattens
    their fields for numpy: their observed counts, censored visits and
    truncations come from there, ``m`` resolved once per distinct
    (horizon, observed count).  The start rate is the groups' observed counts
    times their multiplicities over the horizons summed visit by visit, so
    it equals :func:`naive_rate` of the visits bit for bit.

    A sales visit's own null regime picks its likelihood, for the exact,
    SAA and naive estimators alike and under either sales granularity:
    with a null option its arrival count is latent, without one it is the
    sales.

    SAA sample streams are keyed by visit content, so duplicate visits
    share one draw (common random numbers) and grouping stays effective.

    ``truncation`` caps the sum over latent arrival counts, which only
    untimed transactions and null-inclusive sales visits (exact, SAA or
    naive) have.  Complete data, timed transactions and no-null sales
    ignore it, so for them a fixed ``m`` below a visit's observed count is
    not an error.
    """
    kind = _KINDS.get(granularity)
    if kind is None:
        raise ValueError(f"unknown granularity {granularity!r}")
    if naive and saa_samples is not None:
        raise InvalidObservation("the naive and SAA estimators cannot be combined")
    if (naive or saa_samples is not None) and kind is not SalesSummary:
        estimator = "naive" if naive else "SAA"
        raise InvalidObservation(f"the {estimator} estimator fits sales, not {granularity}")
    if not observations:
        raise InvalidObservation("empty dataset")
    # a visit read from a repeated line recurs as one object, so it is
    # checked and keyed once, at its first occurrence, and its group is
    # looked up by id after that; ids stay unique while ``observations``
    # holds every visit
    groups: Dict[object, int] = {}
    group_of: Dict[int, int] = {}
    firsts: List[Observation] = []
    counts: List[int] = []
    for i, obs in enumerate(observations):
        g = group_of.get(id(obs))
        if g is None:
            if not isinstance(obs, kind):
                raise InvalidObservation(
                    f"visit {i + 1} is a {type(obs).__name__}; "
                    f"{granularity} fits {kind.__name__}"
                )
            g = group_of[id(obs)] = groups.setdefault(_group_key(obs, granularity), len(groups))
            if g == len(firsts):
                firsts.append(obs)
                counts.append(0)
        counts[g] += 1
    count = np.array(counts, dtype=np.int64)
    catalog = sorted(set().union(*{o.initial_assortment.products for o in firsts}))
    # per group: its observed count, null option and whether it sells out
    # every offered product
    if kind is SalesSummary:
        sales = sales_groups(list(groups))
        observed, nulls, exhausted = sales.totals, sales.nulls, sales.exhausted
    else:
        observed = np.array([_observed_count(o) for o in firsts], dtype=np.int64)
        nulls = np.array([o.initial_assortment.includes_null for o in firsts], dtype=bool)
        exhausted = observed == [sum(o.stocks.values()) for o in firsts]
    # the horizons summed over every visit in order, as naive_rate sums
    # them: the start point depends on it
    rate = _pooled_rate(int(count @ observed), sum(o.horizon for o in observations))
    # a no-null visit's choices are all purchases, none beyond its stock,
    # so its arrival count is censored once every offered product sells out
    censored = int(count[exhausted & ~nulls].sum())
    truncations: List[Tuple[float, int]] = []
    if granularity in ("complete", "transactions-timed"):
        terms = fold_timed(list(zip(firsts, counts)), catalog)
    else:
        # only a visit with a null option has a latent arrival count
        m = observed.copy()
        horizons = sales.horizons if kind is SalesSummary else [o.horizon for o in firsts]
        m[nulls], truncations = _truncated(
            truncation, RATE_CAP_FACTOR * rate, np.asarray(horizons, dtype=float)[nulls], m[nulls]
        )
        if kind is SalesSummary:
            # ints/floats hash deterministically, so these keys are stable per run
            streams = None if saa_samples is None else [hash(key) & 0x7FFFFFFF for key in groups]
            terms = table_sales(catalog, sales, count, m, streams, saa_samples, seed, naive)
        else:
            terms = table_sequences(catalog, list(zip(firsts, counts, m.tolist())))
    return CompiledDataset(tuple(catalog), terms, rate, len(observations), truncations, censored)


def dataset_log_likelihood(
    observations: Sequence[Observation],
    params: ModelParams,
    granularity: str,
    truncation: TruncationPolicy = TruncationPolicy(),
    saa_samples: Optional[int] = None,
    seed: int = 0,
    naive: bool = False,
) -> float:
    if not observations:
        return 0.0
    ds = compile_dataset(
        observations, granularity, truncation, saa_samples, seed, naive
    )
    x = np.concatenate(
        (
            [math.log(params.rate)],
            np.log([params.weights[a] for a in ds.catalog]),
        )
    )
    return ds.loglik_grad(x)[0]


def _joint_fit(ds: CompiledDataset) -> FitResult:
    """Maximize the log-likelihood over ``x = (log rate, log weights)`` with
    one bounded L-BFGS-B, started from ``ds.start`` (the naive rate and the
    log naive sales shares).  The solve reads nothing but ``ds``, so a
    recompiled dataset refits on its own.

    Every coordinate is boxed to +-30 around its start (the weights around
    zero).  Without a null option the score along ``(0, 1, ..., 1)`` is
    zero, since scaling every weight leaves the likelihood unchanged; L-BFGS
    takes no step along that flat direction, so the weights stay at the
    scale of the naive-share start.  The solve is deterministic, so reruns
    on the same data give identical fits.

    The fit is not the MLE, and does not report convergence, when a
    coordinate ends within 1e-6 of its box, when a catalog product is
    never sold (its weight's supremum is 0), when no visit observes a
    purchase (nor, for complete data, an arrival), so that the rate is not
    identified, when the Poisson tail
    ``P(N > m)`` at ``T * rate`` exceeds :data:`TAIL_EPSILON` for some
    ``(T, m)`` of ``ds.truncations``, or when ``ds.censored`` no-null
    visits sell out every offered product: the likelihood takes such a
    visit's recorded arrivals as its whole Poisson count over ``T``, though
    arrivals after the last sell-out are never recorded.  Its message names
    the cause.
    """
    x0 = ds.start

    def negative(x: np.ndarray):
        v, g = ds.loglik_grad(x)
        return -v, -g

    bounds = [(x0[0] - 30.0, x0[0] + 30.0)] + [(-30.0, 30.0)] * len(ds.catalog)
    res = minimize(
        negative,
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=bounds,
        options={"maxiter": 500, "ftol": 1e-12, "gtol": 1e-9},
    )
    # an abnormal line-search exit at an already-stationary point still
    # counts as converged
    ok = bool(res.success) or float(np.linalg.norm(res.jac, np.inf)) < 1e-4
    params = ds.params_of(res.x)
    causes = []
    # a product no visit sells appears only in denominators, so its
    # weight's supremum is 0, wherever the solve stops
    never_sold = ds.sold == 0
    # the arrivals the visits observe, each group's fewest: their
    # purchases, and for complete data their null choices too; with none
    # at all the likelihood rises as the rate falls to 0
    observed = ds.counts @ np.minimum.reduceat(ds.n, ds.bounds)
    names = ["log rate"] + [f"log weight of product {a}" for a in ds.catalog]
    for i, (name, x, box) in enumerate(zip(names, res.x, bounds)):
        if not i and not observed:
            causes.append("no purchases, so the rate is not identified")
        elif i and never_sold[i - 1]:
            causes.append(f"product {ds.catalog[i - 1]} never sold, its weight's supremum 0")
        else:
            causes += [f"{name} at its bound {b:.6g}" for b in box if abs(x - b) <= 1e-6]
    # pdtrc(m, mu) is the Poisson tail P(N > m)
    tails = [(pdtrc(m, T * params.rate), m) for T, m in ds.truncations]
    tail, m = max(tails, default=(0.0, 0))
    if tail > TAIL_EPSILON:
        causes.append(f"Poisson tail {tail:.2g} beyond m={m} at the fitted rate")
    if ds.censored:
        causes.append(
            f"{ds.censored} no-null visits sell out every offered product, "
            "so their arrival counts are censored"
        )
    message = f"L-BFGS-B: {res.message} ({res.nfev} evaluations)"
    if causes:
        ok = False
        message += "; not the MLE: " + ", ".join(causes)
    return FitResult(
        params=params,
        loglik=-float(res.fun),
        converged=ok,
        iterations=int(res.nit),
        probabilities=catalog_probabilities(params, ds.catalog, ds.includes_null),
        message=message,
    )


def fit(
    observations: Sequence[Observation],
    granularity: str,
    truncation: TruncationPolicy = TruncationPolicy(),
    saa_samples: Optional[int] = None,
    seed: int = 0,
    naive: bool = False,
) -> FitResult:
    """Maximum-likelihood fit at the given observation granularity."""
    if granularity == "complete" and not naive and saa_samples is None:
        return fit_complete(observations)
    ds = compile_dataset(
        observations, granularity, truncation, saa_samples, seed, naive
    )
    result = _joint_fit(ds)
    result.saa_samples = saa_samples
    result.seed = seed if saa_samples is not None else None
    return result


def fit_complete(observations: Sequence[CompletePath]) -> FitResult:
    """Complete data: the rate MLE is arrivals per unit time, in closed
    form.  The folded paths have no thinned time, so the weight score (the
    sales less each row's exponent times its choice shares) does not
    depend on the rate, and the joint solve's weights stay optimal when its
    rate is replaced by the closed form.
    """
    ds = compile_dataset(observations, "complete")
    rate = naive_rate(observations)  # arrivals per unit time
    result = _joint_fit(ds)
    result.params = ModelParams(rate=rate, weights=result.params.weights)
    x = np.log([rate] + [result.params.weights[a] for a in ds.catalog])
    result.loglik = ds.loglik_grad(x)[0]
    return result


def fit_naive(
    observations: Sequence[SalesSummary],
    truncation: TruncationPolicy = TruncationPolicy(),
) -> FitResult:
    """Stock-out-blind baseline: every arrival is assumed to face the full
    initial assortment.  Biased whenever products sell out.
    """
    return fit(observations, "sales", truncation, naive=True)
