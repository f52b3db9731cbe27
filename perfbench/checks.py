"""Output checks on every timed fit.

A fit's output is the exit code of its ``estimate`` call and the fit JSON
it wrote.  Two levels of check apply:

* **operation checks** -- exit code 0, the JSON parses, and the
  probabilities cover the catalog, are finite and sum to 1 within 1e-9.
  A fit failing one of these is a failed operation.
* **estimate checks** -- on the objective the fit maximized (exact, SAA
  with the fit's seed, or naive), rebuilt here with ``compile_dataset``
  outside every timed window:

  - the reported log-likelihood equals the objective at the reported
    parameters (1e-6 relative);
  - it is at least the objective at the generating parameters, less 1e-6
    relative;
  - the fit is stationary: the sup norm of the gradient at the reported
    parameters is at most 1e-3 per visit;
  - reruns of the same fit in one run wrote byte-identical JSON.

A fit passes when every check holds; ``fit_fail_ratio`` counts the fits
that do not.  Checks never raise on a bad output: they record why.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from stockout_demand import estimation, likelihood
from stockout_demand.types import ModelParams

PROB_SUM_TOL = 1e-9
LOGLIK_REL_TOL = 1e-6
GRAD_PER_VISIT = 1e-3


@dataclass
class FitOutput:
    """What one timed ``estimate`` call left behind."""

    kind: str
    seconds: float
    exit_code: int
    text: Optional[str]


@dataclass
class FitCheck:
    kind: str
    failures: List[str] = field(default_factory=list)
    operation_ok: bool = True
    prob_err: float = math.nan
    grad_inf: float = math.nan
    loglik: float = math.nan

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, reason: str, operation: bool = False) -> None:
        self.failures.append(reason)
        if operation:
            self.operation_ok = False


@contextmanager
def _memoized_resolve():
    """Truncation sizing is a pure function of the policy, horizon, rate cap
    and observed count, so caching it while an objective is rebuilt leaves
    the objective unchanged and saves most of the rebuild's time."""
    cls = likelihood.TruncationPolicy
    original = vars(cls)["resolve"]
    cache: Dict[tuple, int] = {}

    def resolve(self, horizon, rate_cap, observed):
        key = (self, horizon, rate_cap, observed)
        if key not in cache:
            cache[key] = original(self, horizon, rate_cap, observed)
        return cache[key]

    cls.resolve = resolve
    try:
        yield
    finally:
        cls.resolve = original


def _x_of(params: ModelParams, catalog: Sequence[int]) -> np.ndarray:
    return np.log([params.rate] + [params.weights[a] for a in catalog])


class Checker:
    """Rebuilds each fit's objective once and checks outputs against it.

    ``objectives`` maps a fit kind to the ``compile_dataset`` keyword
    arguments that reproduce the objective that kind of fit maximizes.
    """

    def __init__(
        self,
        observations: Sequence,
        objectives: Dict[str, dict],
        truth: ModelParams,
        includes_null: bool,
    ) -> None:
        self.observations = observations
        self.objectives = objectives
        self.truth = truth
        self.includes_null = includes_null
        self._compiled: Dict[str, estimation.CompiledDataset] = {}

    def dataset(self, kind: str) -> "estimation.CompiledDataset":
        if kind not in self._compiled:
            with _memoized_resolve():
                self._compiled[kind] = estimation.compile_dataset(
                    self.observations, **self.objectives[kind]
                )
        return self._compiled[kind]

    def check(self, out: FitOutput, reference: Optional[str] = None) -> FitCheck:
        """Check one output; ``reference`` is an earlier run's JSON text of
        the same fit, which this one must repeat byte for byte."""
        result = FitCheck(out.kind)
        if out.exit_code != 0:
            result.fail(f"exit code {out.exit_code}", operation=True)
        try:
            payload = json.loads(out.text or "")
            params = ModelParams(
                rate=float(payload["lambda_hat"]),
                weights={int(a): float(w) for a, w in payload["weights"].items()},
            )
            probs = {
                (None if k == "null" else int(k)): float(p)
                for k, p in payload["probabilities"].items()
            }
            loglik = float(payload["loglik"])
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            result.fail(f"unreadable fit JSON: {exc!r}", operation=True)
            return result
        ds = self.dataset(out.kind)
        truth_probs = estimation.catalog_probabilities(
            self.truth, ds.catalog, self.includes_null
        )
        if set(probs) != set(truth_probs):
            result.fail(f"probability keys {sorted(probs, key=str)}", operation=True)
            return result
        values = np.array(list(probs.values()))
        if not np.all(np.isfinite(values)) or abs(values.sum() - 1.0) > PROB_SUM_TOL:
            result.fail(f"probabilities sum to {values.sum()!r}", operation=True)
            return result
        result.prob_err = max(abs(probs[k] - truth_probs[k]) for k in truth_probs)
        result.loglik = loglik
        try:
            value, grad = ds.loglik_grad(_x_of(params, ds.catalog))
        except KeyError as exc:
            result.fail(f"no weight for product {exc}", operation=True)
            return result
        truth_value, _ = ds.loglik_grad(_x_of(self.truth, ds.catalog))
        result.grad_inf = float(np.max(np.abs(grad)))
        if abs(value - loglik) > LOGLIK_REL_TOL * max(1.0, abs(value)):
            result.fail(f"reported loglik {loglik!r} but objective gives {value!r}")
        if loglik < truth_value - LOGLIK_REL_TOL * abs(truth_value):
            result.fail(f"loglik {loglik!r} below the truth's {truth_value!r}")
        if result.grad_inf > GRAD_PER_VISIT * ds.visits:
            result.fail(
                f"not stationary: |grad|_inf {result.grad_inf:.4g} > "
                f"{GRAD_PER_VISIT:g} x {ds.visits} visits"
            )
        if reference is not None and out.text != reference:
            result.fail("rerun wrote different JSON")
        return result
