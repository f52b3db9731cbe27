"""Maximum-likelihood fitting across observation granularities.

A dataset is compiled once into flat arrays: identical visits are grouped
with multiplicities, every visit's likelihood terms are concatenated, and
assortment denominators are shared through a global registry.  Timed
transactions compile further, to sufficient statistics per assortment
(exponent and exposure-time totals, plus the sales), so their part of
every evaluation costs the same whatever the number of visits.  Each
optimizer step is then a handful of vectorized array operations with
analytic gradients in ``(log rate, log weights)``.

Fitting runs one joint L-BFGS-B over (log rate, log weights); complete
data keeps its closed-form rate.  The "naive" fit ignores stock-outs
entirely and serves as the biased baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.optimize import minimize

from .likelihood import (
    TermTable,
    TimedSegmentTable,
    TruncationPolicy,
    membership_matrix,
    table_complete,
    table_naive_sales,
    table_sales_attraction,
    table_sales_no_null,
    table_sales_saa,
    table_timed_transactions,
    table_transactions,
    term_loglik_grad,
    timed_loglik_grad,
)
from .types import (
    CompletePath,
    InvalidObservation,
    ModelParams,
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

GRANULARITIES = (
    "complete",
    "transactions-timed",
    "transactions",
    "sales",
    "sales-no-null",
)

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
    base = 1.0 if includes_null else 0.0
    denom = base + sum(params.weights[a] for a in catalog)
    probs: Dict[Optional[int], float] = {
        a: params.weights[a] / denom for a in catalog
    }
    if includes_null:
        probs[None] = 1.0 / denom
    return probs


def _observed_count(obs: Observation) -> int:
    if isinstance(obs, CompletePath):
        return obs.arrivals
    if isinstance(obs, TransactionRecord):
        return obs.total
    return obs.total_sales


def naive_rate(observations: Sequence[Observation]) -> float:
    """Observed events per unit time, pooled; the rate scale reference."""
    total = sum(_observed_count(o) for o in observations)
    horizon = sum(o.horizon for o in observations)
    if horizon <= 0:
        raise InvalidObservation("dataset has no observation time")
    return max(total / horizon, 1e-8)


def _group_key(obs: Observation, granularity: str):
    assort = (obs.initial_assortment.products, obs.initial_assortment.includes_null)
    stocks = tuple(obs.stocks[a] for a in obs.initial_assortment.products)
    if isinstance(obs, CompletePath):
        return (obs.horizon, assort, stocks, obs.events)
    if isinstance(obs, TransactionRecord):
        times = obs.transactions if granularity == "transactions-timed" else obs.products
        return (obs.horizon, assort, stocks, times)
    return (
        obs.horizon,
        assort,
        stocks,
        tuple(obs.sales.get(a, 0) for a in obs.initial_assortment.products),
    )


class CompiledDataset:
    """Flat-array dataset representation evaluated per optimizer step.

    ``x = (log rate, log weight_a for a in catalog)``; :meth:`loglik_grad`
    returns the total log-likelihood and its gradient in ``x``.
    """

    def __init__(
        self,
        catalog: Tuple[int, ...],
        tables: Sequence[Tuple[TermTable, int]],
        timed: Sequence[Tuple[TimedSegmentTable, int]],
    ) -> None:
        self.catalog = catalog
        self._timed = list(timed)
        a_of = {a: i for i, a in enumerate(catalog)}
        # global assortment registry: key -> row of ``membership``
        reg: Dict[Tuple[Tuple[int, ...], bool], int] = {}
        width = max((t.seg_idx.shape[1] for t, _ in tables), default=1)
        n_parts, coef_parts, idx_parts, exp_parts = [], [], [], []
        bounds = [0]
        counts, Z_rows, T_g = [], [], []
        total = 0
        for table, count in tables:
            if table.n.size == 0:
                raise InvalidObservation("dataset contains an impossible observation")
            remap = np.array(
                [reg.setdefault(key, len(reg)) for key in table.assortments]
            )
            nt = table.n.size
            n_parts.append(table.n)
            coef_parts.append(table.coef)
            idx = np.zeros((nt, width), dtype=np.int64)
            ex = np.zeros((nt, width))
            idx[:, : table.seg_idx.shape[1]] = remap[table.seg_idx]
            ex[:, : table.seg_exp.shape[1]] = table.seg_exp
            # padded entries may alias assortment 0 after remapping; their
            # exponents are zero so they contribute nothing
            idx_parts.append(idx)
            exp_parts.append(ex)
            total += nt
            bounds.append(total)
            counts.append(count)
            z = np.zeros(len(catalog))
            for j, a in enumerate(table.catalog):
                z[a_of[a]] = table.sales[j]
            Z_rows.append(z)
            T_g.append(table.horizon)
        self.n = np.concatenate(n_parts) if n_parts else np.zeros(0, dtype=np.int64)
        self.coef = np.concatenate(coef_parts) if coef_parts else np.zeros(0)
        self.seg_idx = (
            np.vstack(idx_parts) if idx_parts else np.zeros((0, width), dtype=np.int64)
        )
        self.seg_exp = np.vstack(exp_parts) if exp_parts else np.zeros((0, width))
        self.bounds = np.asarray(bounds[:-1], dtype=np.int64)
        self.counts = np.asarray(counts, dtype=float)
        self.Z = np.vstack(Z_rows) if Z_rows else np.zeros((0, len(catalog)))
        self.T_g = np.asarray(T_g)
        self.visits = int(self.counts.sum()) + sum(c for _, c in self._timed)
        # timed tables: per-table column map into the global catalog, and
        # their sufficient statistics summed per assortment
        self._timed_cols = [
            np.array([a_of[a] for a in t.catalog], dtype=np.int64)
            for t, _ in self._timed
        ]
        self.timed_sales = np.zeros(len(catalog))
        seg_rows: List[int] = []
        seg_exp: List[float] = []
        seg_dur: List[float] = []
        for (table, count), cols in zip(self._timed, self._timed_cols):
            self.timed_sales[cols] += count * table.sales
            seg_rows += [reg.setdefault(key, len(reg)) for key in table.assortments]
            seg_exp.extend(count * table.exponents)
            seg_dur.extend(count * table.durations)
        self.n_assort = len(reg)
        keys = list(reg) or [((), False)]
        self.membership = membership_matrix(catalog, keys)
        self.nulls = np.array([float(has_null) for _, has_null in keys])
        rows = np.asarray(seg_rows, dtype=np.int64)
        self.timed_exponents = np.bincount(rows, np.asarray(seg_exp), self.n_assort)
        self.timed_durations = np.bincount(rows, np.asarray(seg_dur), self.n_assort)

    def params_of(self, x: np.ndarray) -> ModelParams:
        return ModelParams(
            rate=float(math.exp(x[0])),
            weights={a: float(math.exp(x[1 + i])) for i, a in enumerate(self.catalog)},
        )

    def loglik_grad(self, x: np.ndarray) -> Tuple[float, np.ndarray]:
        # each kernel costs tens of microseconds even on empty arrays, so a
        # part the dataset does not have is skipped
        value, grad = 0.0, np.zeros(x.size)
        if self.counts.size:
            value, grad = term_loglik_grad(
                x,
                self.membership,
                self.nulls,
                self.coef,
                self.n,
                self.seg_idx,
                self.seg_exp,
                self.bounds,
                self.counts,
                self.T_g,
                self.Z,
            )
        if self._timed:
            timed_value, timed_grad = timed_loglik_grad(
                math.exp(x[0]),
                np.exp(np.asarray(x[1:], dtype=float)),
                self.membership,
                self.timed_exponents,
                self.timed_durations,
                self.timed_sales,
            )
            value, grad = value + timed_value, grad + timed_grad
        return value, grad


def _sums_latent_arrivals(obs: Observation, granularity: str, naive: bool) -> bool:
    """Whether the visit's table sums over arrival counts up to ``m``.  A
    sales visit without a null option has as many arrivals as sales."""
    if naive or granularity in ("sales", "sales-no-null"):
        return obs.initial_assortment.includes_null
    return granularity == "transactions"


def _build_table(
    obs: Observation,
    granularity: str,
    m: int,
    saa_samples: Optional[int],
    seed: int,
    key: int,
    naive: bool,
):
    if naive:
        if not isinstance(obs, SalesSummary):
            raise InvalidObservation("the naive baseline fits sales data")
        return table_naive_sales(obs, m)
    if granularity == "complete":
        return table_complete(obs)
    if granularity == "transactions-timed":
        return table_timed_transactions(obs)
    if granularity == "transactions":
        return table_transactions(obs, m)
    if granularity == "sales":
        if saa_samples is not None:
            return table_sales_saa(obs, m, saa_samples, seed, key)
        return table_sales_attraction(obs, m)
    if granularity == "sales-no-null":
        if saa_samples is not None:
            return table_sales_saa(obs, m, saa_samples, seed, key)
        return table_sales_no_null(obs)
    raise ValueError(f"unknown granularity {granularity!r}")


def compile_dataset(
    observations: Sequence[Observation],
    granularity: str,
    truncation: TruncationPolicy = TruncationPolicy(),
    saa_samples: Optional[int] = None,
    seed: int = 0,
    naive: bool = False,
    catalog: Optional[Sequence[int]] = None,
) -> CompiledDataset:
    """Group identical visits, build their term tables once, concatenate.

    SAA sample streams are keyed by visit content, so duplicate visits
    share one draw (common random numbers) and grouping stays effective.

    ``truncation`` caps the sum over latent arrival counts, which only
    untimed transactions and null-inclusive sales visits (exact, SAA or
    naive) have.  Complete data, timed transactions and no-null sales
    ignore it, so for them a fixed ``m`` below a visit's observed count is
    not an error.
    """
    if granularity not in GRANULARITIES:
        raise ValueError(f"unknown granularity {granularity!r}")
    if not observations:
        raise InvalidObservation("empty dataset")
    if catalog is None:
        catalog = sorted(
            {a for o in observations for a in o.initial_assortment.products}
        )
    rate_cap = RATE_CAP_FACTOR * naive_rate(observations)
    groups: Dict[object, List[int]] = {}
    for i, obs in enumerate(observations):
        groups.setdefault(_group_key(obs, granularity), []).append(i)
    tables: List[Tuple[TermTable, int]] = []
    timed: List[Tuple[TimedSegmentTable, int]] = []
    # m depends only on the horizon and the observed count here
    sizes: Dict[Tuple[float, int], int] = {}
    for key, members in groups.items():
        obs = observations[members[0]]
        m = 0
        if _sums_latent_arrivals(obs, granularity, naive):
            size_key = (obs.horizon, _observed_count(obs))
            if size_key not in sizes:
                sizes[size_key] = truncation.resolve(obs.horizon, rate_cap, size_key[1])
            m = sizes[size_key]
        # ints/floats hash deterministically, so this key is stable per run
        table = _build_table(
            obs, granularity, m, saa_samples, seed, hash(key) & 0x7FFFFFFF, naive
        )
        if isinstance(table, TimedSegmentTable):
            timed.append((table, len(members)))
        else:
            tables.append((table, len(members)))
    return CompiledDataset(tuple(catalog), tables, timed)


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


def _initial_theta(
    observations: Sequence[Observation], catalog: Sequence[int]
) -> np.ndarray:
    """Log naive sales shares (floored at 1e-6) as the weight start point."""
    counts = {a: 0.0 for a in catalog}
    for obs in observations:
        if isinstance(obs, SalesSummary):
            for a, z in obs.sales.items():
                counts[a] += z
        elif isinstance(obs, TransactionRecord):
            for a in obs.products:
                counts[a] += 1
        else:
            for c in obs.choices:
                if c is not None:
                    counts[c] += 1
    total = max(sum(counts.values()), 1.0)
    return np.log([max(counts[a] / total, 1e-6) for a in catalog])


def _joint_fit(
    ds: CompiledDataset, observations: Sequence[Observation]
) -> FitResult:
    """Maximize the log-likelihood over ``x = (log rate, log weights)`` with
    one bounded L-BFGS-B, started from the naive rate and the log naive
    sales shares.

    Every coordinate is boxed to +-30 around its start (the weights around
    zero).  Without a null option the score along ``(0, 1, ..., 1)`` is
    zero, since scaling every weight leaves the likelihood unchanged; L-BFGS
    takes no step along that flat direction, so the weights stay at the
    scale of the naive-share start.  The solve is deterministic, so reruns
    on the same data give identical fits.
    """
    x0 = np.concatenate(
        ([math.log(naive_rate(observations))], _initial_theta(observations, ds.catalog))
    )

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
    includes_null = any(o.initial_assortment.includes_null for o in observations)
    return FitResult(
        params=params,
        loglik=-float(res.fun),
        converged=ok,
        iterations=int(res.nit),
        probabilities=catalog_probabilities(params, ds.catalog, includes_null),
        message=f"L-BFGS-B: {res.message} ({res.nfev} evaluations)",
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
    if granularity == "complete" and not naive:
        return fit_complete(observations)
    ds = compile_dataset(
        observations, granularity, truncation, saa_samples, seed, naive
    )
    result = _joint_fit(ds, observations)
    result.saa_samples = saa_samples
    result.seed = seed if saa_samples is not None else None
    return result


def fit_complete(observations: Sequence[CompletePath]) -> FitResult:
    """Complete data: the rate MLE is arrivals per unit time, in closed
    form.  Each visit contributes a single term, so the weight score does
    not depend on the rate and the joint solve's weights stay optimal when
    its rate is replaced by the closed form.
    """
    if not observations:
        raise InvalidObservation("empty dataset")
    rate = sum(o.arrivals for o in observations) / sum(o.horizon for o in observations)
    rate = max(rate, 1e-8)
    ds = compile_dataset(observations, "complete")
    result = _joint_fit(ds, observations)
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
